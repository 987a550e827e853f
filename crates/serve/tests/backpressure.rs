//! Backpressure and resilience: a full shard queue rejects with `Busy`
//! (it never grows), every rejection is reported (nothing is silently
//! dropped), and corrupted or hostile byte streams cost at most a
//! connection, never the process. Every test drives a `TcpService`
//! through the shared frame-level client.

mod support;

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use grandma_core::{EagerConfig, EagerRecognizer, FeatureMask};
use grandma_events::{Button, EventKind, EventScript, InputEvent};
use grandma_serve::router::ShardPause;
use grandma_serve::{
    run_events_inproc, ClientFrame, FaultCode, OutcomeKind, PipelineConfig, ReplyTx, ServeConfig,
    ServerFrame, SessionPipeline, SessionRouter, ShardMsg, TcpOptions, TcpService, WIRE_VERSION,
};
use grandma_synth::{datasets, FaultInjector, SynthRng};
use support::{eventually, WireClient};

/// How long a read waits for a frame the server owes.
const WAIT: Duration = Duration::from_secs(10);

fn recognizer() -> Arc<EagerRecognizer> {
    let data = datasets::eight_way(0x2b2b, 10, 0);
    let (rec, _) =
        EagerRecognizer::train(&data.training, &FeatureMask::all(), &EagerConfig::default())
            .expect("training succeeds");
    Arc::new(rec)
}

/// Parks `router`'s only shard and waits (bounded) for the worker to
/// take the pause off its queue, so every later submit lands behind it.
fn pause(router: &SessionRouter) -> ShardPause {
    let pause = router.pause_shard(0).expect("pause");
    let deadline = Instant::now() + WAIT;
    while router.metrics().snapshot().shards[0].queue_depth > 0 && Instant::now() < deadline {
        std::thread::yield_now();
    }
    pause
}

/// Waits until each of the `sent` frames behind a paused shard is either
/// queued or bounced `Busy`; whether it happened.
fn settled(router: &SessionRouter, sent: u64) -> bool {
    eventually(|| {
        let snap = router.metrics().snapshot();
        snap.busy_rejections + snap.shards[0].queue_depth == sent
    })
}

#[test]
fn full_shard_queue_rejects_busy_and_depth_stays_bounded() {
    const CAPACITY: usize = 8;
    const FLOOD: u32 = 256;
    let config = ServeConfig {
        shards: 1,
        queue_capacity: CAPACITY,
        ..ServeConfig::default()
    };
    let router = SessionRouter::new(recognizer(), config);
    let mut service = TcpService::start(router.clone(), "127.0.0.1:0").expect("bind");
    let metrics = service.metrics().clone();
    let mut client = WireClient::connect(service.local_addr());
    client
        .send(&ClientFrame::Open { session: 1 })
        .expect("open");
    // Hold the shard still once the session is open, so the queue
    // genuinely fills, deterministically even on a single-core box.
    assert!(eventually(|| metrics.snapshot().sessions_opened == 1));
    let pause = pause(&router);
    let flood: Vec<_> = (0..FLOOD)
        .map(|seq| ClientFrame::Event {
            session: 1,
            seq,
            event: InputEvent::new(EventKind::MouseMove, seq as f64, 0.0, seq as f64),
        })
        .collect();
    client.send_all(&flood).expect("flood");
    // Before the pause lifts, every flooded frame was taken or bounced.
    assert!(
        settled(&router, u64::from(FLOOD)),
        "the flood never settled"
    );
    let snap = metrics.snapshot();
    // Bounded growth: the queue never exceeded its capacity (+1 for the
    // pause marker itself), no matter how hard the flood pushed.
    assert!(
        snap.shards[0].queue_highwater <= (CAPACITY + 1) as u64,
        "queue grew past its bound: {snap:?}"
    );
    assert!(
        snap.busy_rejections > 0,
        "a stalled shard must reject with Busy"
    );

    pause.release();
    // Let the shard drain before closing, so the Close lands at once
    // instead of waiting in the reactor's park list.
    assert!(eventually(|| metrics.snapshot().shards[0].queue_depth == 0));
    client
        .send(&ClientFrame::Close {
            session: 1,
            seq: FLOOD,
        })
        .expect("close");
    let frames = client.recv_session_until_closed(1, WAIT);
    let busy_faults = frames
        .iter()
        .filter(|f| {
            matches!(
                f,
                ServerFrame::Fault {
                    code: FaultCode::Busy,
                    ..
                }
            )
        })
        .count() as u64;
    assert!(
        matches!(
            frames.last(),
            Some(ServerFrame::Outcome {
                outcome: OutcomeKind::Closed,
                ..
            })
        ),
        "session must still close cleanly after the flood"
    );
    // Accounting: every flooded event was either ingested or explicitly
    // bounced as Busy — nothing vanished.
    service.shutdown();
    let snap = metrics.snapshot();
    assert_eq!(
        snap.events_ingested + busy_faults,
        u64::from(FLOOD),
        "events must be accepted or rejected, never dropped: {snap:?}"
    );
    assert_eq!(snap.busy_rejections, busy_faults);
}

#[test]
fn busy_rejections_are_deterministic_for_a_fixed_schedule() {
    // Same pause → flood → release schedule twice: identical Busy counts.
    let run = || {
        let config = ServeConfig {
            shards: 1,
            queue_capacity: 4,
            ..ServeConfig::default()
        };
        let router = SessionRouter::new(recognizer(), config);
        let mut service = TcpService::start(router.clone(), "127.0.0.1:0").expect("bind");
        let pause = pause(&router);
        let mut client = WireClient::connect(service.local_addr());
        let mut frames = vec![ClientFrame::Open { session: 1 }];
        frames.extend((0..64).map(|seq| ClientFrame::Event {
            session: 1,
            seq,
            event: InputEvent::new(EventKind::MouseMove, 1.0, 1.0, seq as f64),
        }));
        client.send_all(&frames).expect("flood");
        assert!(
            settled(&router, frames.len() as u64),
            "the flood never settled"
        );
        pause.release();
        // Drain before the teardown, whose Close must not meet a full
        // queue and add a Busy of its own.
        let drained = eventually(|| router.metrics().snapshot().shards[0].queue_depth == 0);
        service.shutdown();
        assert!(drained, "the shard never drained");
        router.metrics().snapshot().busy_rejections
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "Busy schedule must replay identically");
    assert!(a > 0);
}

#[test]
fn corrupted_event_streams_over_tcp_never_panic_the_service() {
    let mut service = TcpService::start(
        SessionRouter::new(recognizer(), ServeConfig::default()),
        "127.0.0.1:0",
    )
    .expect("bind");
    let addr = service.local_addr();
    let data = datasets::eight_way(0x7e57, 0, 4);

    // Wave after wave of FaultInjector-corrupted streams, each from a
    // fresh connection.
    for wave in 0u64..6 {
        let mut client = WireClient::connect(addr);
        let clean = EventScript::new()
            .then_gesture(
                &data.testing[wave as usize % data.testing.len()].gesture,
                Button::Left,
            )
            .into_events();
        let corrupted = FaultInjector::new(0xDEAD ^ wave).corrupt(&clean);
        let session = 100 + wave;
        let mut frames = vec![ClientFrame::Open { session }];
        frames.extend(
            corrupted
                .iter()
                .enumerate()
                .map(|(i, e)| ClientFrame::Event {
                    session,
                    seq: i as u32,
                    event: *e,
                }),
        );
        frames.push(ClientFrame::Close {
            session,
            seq: corrupted.len() as u32,
        });
        client.send_all(&frames).expect("write");
        // Drain until the Closed marker: the pipeline digested the
        // corruption without dying.
        let got = client.recv_session_until_closed(session, WAIT);
        assert!(
            matches!(
                got.last(),
                Some(ServerFrame::Outcome {
                    outcome: OutcomeKind::Closed,
                    ..
                })
            ),
            "wave {wave}: corrupted session must still close"
        );
    }

    // Hostile frames (random bytes) on top: each costs one connection.
    let mut rng = SynthRng::seed_from_u64(0x50DA);
    for _ in 0..8 {
        let mut client = WireClient::raw(addr);
        let soup: Vec<u8> = (0..256).map(|_| rng.next_u64() as u8).collect();
        let _ = client.send_bytes(&soup);
        // The server may close the connection at any point.
        let _ = client.recv_timeout(WAIT);
    }

    // The service is still alive and serving correctly.
    let mut client = WireClient::connect(addr);
    let frames = [
        ClientFrame::Open { session: 999 },
        ClientFrame::Close {
            session: 999,
            seq: 0,
        },
    ];
    client.send_all(&frames).expect("write");
    let got = client.recv_session_until_closed(999, WAIT);
    assert!(
        matches!(
            got.last(),
            Some(ServerFrame::Outcome {
                outcome: OutcomeKind::Closed,
                ..
            })
        ),
        "post-garbage session must serve normally"
    );
    service.shutdown();
    let snap = service.metrics().snapshot();
    assert!(snap.decode_errors >= 1, "garbage must be counted: {snap:?}");
    assert_eq!(snap.sessions_opened, snap.sessions_closed, "{snap:?}");
}

#[test]
fn events_for_an_unknown_session_are_faulted_with_their_correlation() {
    let mut service = TcpService::start(
        SessionRouter::new(recognizer(), ServeConfig::default()),
        "127.0.0.1:0",
    )
    .expect("bind");
    let mut client = WireClient::connect(service.local_addr());
    let event = ClientFrame::Event {
        session: 404,
        seq: 9,
        event: InputEvent::new(EventKind::MouseMove, 0.0, 0.0, 0.0),
    };
    client.send(&event).expect("event");
    let got = client.recv_timeout(WAIT);
    service.shutdown();
    assert_eq!(
        got,
        Some(ServerFrame::Fault {
            session: 404,
            seq: 9,
            code: FaultCode::UnknownSession,
        })
    );
}

/// One frame of every kind a full queue can bounce, with the
/// `(session, seq)` its `Fault(Busy)` must echo.
fn busy_probes() -> Vec<(ClientFrame, (u64, u32))> {
    let event = InputEvent::new(EventKind::MouseMove, 1.0, 1.0, 1.0);
    let mut snapshot = Vec::new();
    SessionPipeline::new(3, PipelineConfig::default())
        .snapshot()
        .encode(&mut snapshot);
    vec![
        (ClientFrame::Open { session: 1 }, (1, 0)),
        (
            ClientFrame::Event {
                session: 1,
                seq: 7,
                event,
            },
            (1, 7),
        ),
        (
            ClientFrame::EventBatch {
                session: 1,
                events: vec![(11, event), (12, event)],
            },
            (1, 11),
        ),
        // The client's last_seq is advisory: never echoed.
        (
            ClientFrame::Resume {
                session: 1,
                last_seq: 5,
            },
            (1, 0),
        ),
        (ClientFrame::Handoff { snapshot }, (3, 0)),
        // Only a Close for a session the connection opened is parked;
        // this one (its Open bounced) is answered like any other frame.
        (ClientFrame::Close { session: 1, seq: 9 }, (1, 9)),
    ]
}

/// Parks `router`'s only shard and takes the one slot of its queue with
/// an `Open` from outside any connection under test: every further
/// submit is rejected `Busy` until the pause is released.
fn jam(router: &SessionRouter) -> ShardPause {
    let pause = pause(router);
    let filler = ShardMsg::Open {
        conn: router.new_conn_id(),
        session: 999,
        seq: 0,
        reply: ReplyTx::sink(),
    };
    let _ = router.submit(filler);
    pause
}

/// A one-slot shard queue behind a parked worker, with the slot taken.
fn jammed_router() -> (Arc<SessionRouter>, ShardPause) {
    let router = SessionRouter::new(
        recognizer(),
        ServeConfig {
            shards: 1,
            queue_capacity: 1,
            ..ServeConfig::default()
        },
    );
    let pause = jam(&router);
    (router, pause)
}

/// The `(session, seq)` of a Busy fault; any other frame is reported as
/// itself so the assertion shows it.
fn busy_key(frame: ServerFrame) -> Result<(u64, u32), ServerFrame> {
    match frame {
        ServerFrame::Fault {
            session,
            seq,
            code: FaultCode::Busy,
        } => Ok((session, seq)),
        other => Err(other),
    }
}

// The tests against a jammed router collect every reply before
// releasing the shard and only then assert, so a failed assertion shows
// the frames rather than a timeout.

#[test]
fn busy_faults_echo_one_correlation_for_every_frame_kind_over_tcp() {
    let (router, pause) = jammed_router();
    let mut service = TcpService::start(router.clone(), "127.0.0.1:0").expect("bind");
    let probes = busy_probes();
    let frames: Vec<_> = probes.iter().map(|(frame, _)| frame.clone()).collect();
    let mut client = WireClient::connect(service.local_addr());
    let _ = client.send_all(&frames);
    let got = client.recv_many(probes.len(), WAIT);
    pause.release();
    service.shutdown();
    let got: Vec<_> = got.into_iter().map(busy_key).collect();
    let want: Vec<_> = probes.iter().map(|&(_, key)| Ok(key)).collect();
    assert_eq!(got, want);
}

#[test]
fn closes_for_sessions_never_opened_bounce_busy_and_park_nothing() {
    const BOGUS: u32 = 64;
    let (router, pause) = jammed_router();
    let mut service = TcpService::start(router.clone(), "127.0.0.1:0").expect("bind");
    let closes: Vec<_> = (0..BOGUS)
        .map(|seq| ClientFrame::Close {
            session: 5000 + u64::from(seq),
            seq,
        })
        .collect();
    let mut client = WireClient::connect(service.local_addr());
    let _ = client.send_all(&closes);
    let got = client.recv_many(BOGUS as usize, WAIT);
    pause.release();
    // A parked Close would land once the shard runs again — at the
    // latest in the I/O thread's shutdown drain, ahead of the router's
    // Shutdown — and bounce there as UnknownSession.
    service.shutdown();
    let got: Vec<_> = got.into_iter().map(busy_key).collect();
    let want: Vec<_> = (0..BOGUS)
        .map(|seq| Ok((5000 + u64::from(seq), seq)))
        .collect();
    assert_eq!(got, want);
    let snap = service.metrics().snapshot();
    assert_eq!(
        snap.unknown_sessions, 0,
        "a bogus Close was parked: {snap:?}"
    );
}

#[test]
fn detach_teardown_does_not_stall_the_reactor() {
    let router = SessionRouter::new(
        recognizer(),
        ServeConfig {
            shards: 1,
            queue_capacity: 1,
            detach_on_disconnect: true,
            ..ServeConfig::default()
        },
    );
    let options = TcpOptions {
        io_threads: 1,
        ..TcpOptions::default()
    };
    let mut service = TcpService::start_with(router.clone(), "127.0.0.1:0", options).expect("bind");
    let addr = service.local_addr();
    let metrics = service.metrics().clone();
    // The leaver opens two sessions, one at a time: the queue holds one
    // message.
    let mut leaver = WireClient::connect(addr);
    for session in [1, 2] {
        leaver.send(&ClientFrame::Open { session }).expect("open");
        assert!(eventually(|| metrics.snapshot().sessions_opened == session));
    }
    let mut stayer = WireClient::connect(addr);
    let pause = jam(&router);
    // Tear the leaver down against the full queue, then ask the same
    // I/O thread to serve the stayer.
    drop(leaver);
    let torn_down = eventually(|| metrics.snapshot().open_connections == 1);
    let event = ClientFrame::Event {
        session: 7,
        seq: 3,
        event: InputEvent::new(EventKind::MouseMove, 1.0, 1.0, 1.0),
    };
    let _ = stayer.send(&event);
    let served = stayer.recv_many(1, WAIT);
    pause.release();
    // Once the parked Detaches land, both sessions are orphans the
    // stayer can resume.
    let mut resumed = Vec::new();
    for session in [1, 2] {
        let mut reply = None;
        let took = eventually(|| {
            let resume = ClientFrame::Resume {
                session,
                last_seq: 0,
            };
            let _ = stayer.send(&resume);
            reply = stayer.recv_timeout(WAIT);
            matches!(reply, Some(ServerFrame::Resumed { .. }))
        });
        resumed.push((took, reply));
    }
    service.shutdown();
    assert!(torn_down, "the detach teardown stalled the reactor");
    assert_eq!(
        served,
        vec![ServerFrame::Fault {
            session: 7,
            seq: 3,
            code: FaultCode::Busy,
        }],
        "the second connection went unserved"
    );
    let want: Vec<_> = [1, 2]
        .into_iter()
        .map(|session| {
            let last_seq = 0;
            (true, Some(ServerFrame::Resumed { session, last_seq }))
        })
        .collect();
    assert_eq!(resumed, want);
}

/// One connection's frames for the protocol table, and what the server
/// must answer.
struct Script {
    name: &'static str,
    /// Run against a jammed shard queue.
    jammed: bool,
    frames: Vec<ClientFrame>,
    want: Vec<ServerFrame>,
    /// Drop the connection without reading its answer.
    hang_up: bool,
    /// Sessions closed before the router shuts down.
    closed: u64,
}

/// The node session 13 belongs to, per the fence every script runs
/// behind.
const PEER: &str = "127.0.0.1:4242";

fn scripts() -> Vec<Script> {
    let fault = |code| ServerFrame::Fault {
        session: 0,
        seq: 0,
        code,
    };
    let hello = ClientFrame::Hello {
        version: WIRE_VERSION,
    };
    let mut fenced_want = vec![ServerFrame::NotOwner {
        session: 13,
        owner: PEER.parse().expect("addr"),
    }];
    fenced_want.extend(run_events_inproc(
        &recognizer(),
        14,
        &PipelineConfig::default(),
        &[],
        0,
    ));
    let mut busy = vec![hello.clone()];
    let mut busy_want = Vec::new();
    for (frame, (session, seq)) in busy_probes() {
        busy.push(frame);
        busy_want.push(ServerFrame::Fault {
            session,
            seq,
            code: FaultCode::Busy,
        });
    }
    vec![
        Script {
            name: "frame before Hello",
            jammed: false,
            frames: vec![ClientFrame::Open { session: 1 }, hello.clone()],
            want: vec![fault(FaultCode::BadFrame)],
            hang_up: false,
            closed: 0,
        },
        Script {
            name: "bad version",
            jammed: false,
            frames: vec![
                ClientFrame::Hello {
                    version: WIRE_VERSION + 1,
                },
                ClientFrame::Open { session: 1 },
            ],
            want: vec![fault(FaultCode::VersionMismatch)],
            hang_up: false,
            closed: 0,
        },
        Script {
            name: "fenced Open",
            jammed: false,
            frames: vec![
                hello.clone(),
                ClientFrame::Open { session: 13 },
                ClientFrame::Open { session: 14 },
                ClientFrame::Close {
                    session: 14,
                    seq: 0,
                },
            ],
            want: fenced_want,
            hang_up: false,
            closed: 1,
        },
        Script {
            name: "Busy on every frame kind",
            jammed: true,
            frames: busy,
            want: busy_want,
            hang_up: false,
            closed: 0,
        },
        Script {
            name: "undecodable Handoff",
            jammed: false,
            frames: vec![
                hello.clone(),
                ClientFrame::Handoff {
                    snapshot: vec![0xAB; 16],
                },
                ClientFrame::Open { session: 1 },
            ],
            want: vec![fault(FaultCode::BadFrame)],
            hang_up: false,
            closed: 0,
        },
        Script {
            name: "Event for a never-opened session",
            jammed: false,
            frames: vec![hello.clone(), unknown_event(404)],
            want: vec![unknown_fault(404)],
            hang_up: false,
            closed: 0,
        },
        Script {
            name: "dropped connection",
            jammed: false,
            frames: vec![
                hello,
                ClientFrame::Open { session: 21 },
                ClientFrame::Open { session: 22 },
            ],
            want: Vec::new(),
            hang_up: true,
            closed: 2,
        },
    ]
}

/// The router a script runs against, behind the fence, and the pause
/// that jams it.
fn script_router(script: &Script) -> (Arc<SessionRouter>, Option<ShardPause>) {
    let (router, pause) = if script.jammed {
        let (router, pause) = jammed_router();
        (router, Some(pause))
    } else {
        (
            SessionRouter::new(recognizer(), ServeConfig::default()),
            None,
        )
    };
    let peer: SocketAddr = PEER.parse().expect("addr");
    router.set_fence(Arc::new(move |session| (session == 13).then_some(peer)));
    (router, pause)
}

/// Sessions closed by the time the count reaches `closed` (or ten
/// seconds pass).
fn closed_sessions(router: &SessionRouter, closed: u64) -> u64 {
    let count = || router.metrics().snapshot().sessions_closed;
    eventually(|| count() >= closed);
    count()
}

/// Runs `script` over TCP: write it, half-close, read to EOF.
fn over_tcp(script: &Script) -> (Vec<ServerFrame>, u64) {
    let (router, pause) = script_router(script);
    let mut service = TcpService::start(router.clone(), "127.0.0.1:0").expect("bind");
    let mut client = WireClient::raw(service.local_addr());
    let _ = client.send_all(&script.frames);
    let mut got = Vec::new();
    if !script.hang_up {
        client.finish();
        got = client.recv_many(usize::MAX, WAIT);
    }
    drop(client);
    let closed = closed_sessions(&router, script.closed);
    if let Some(pause) = pause {
        pause.release();
    }
    service.shutdown();
    (got, closed)
}

#[test]
fn tcp_answers_every_script_with_its_frames() {
    for script in scripts() {
        let want = (script.want.clone(), script.closed);
        assert_eq!(over_tcp(&script), want, "{}", script.name);
    }
}

/// `Event { session, seq: 9 }`, a move at the origin.
fn unknown_event(session: u64) -> ClientFrame {
    ClientFrame::Event {
        session,
        seq: 9,
        event: InputEvent::new(EventKind::MouseMove, 0.0, 0.0, 0.0),
    }
}

/// What the shard answers [`unknown_event`] with.
fn unknown_fault(session: u64) -> ServerFrame {
    ServerFrame::Fault {
        session,
        seq: 9,
        code: FaultCode::UnknownSession,
    }
}

/// A connection that half-closes right after its last frame is owed
/// every answer the shard sends, on each of 100 connections: the
/// `UnknownSession` fault for an `Event` on a never-opened session, and
/// a closing session's frames through its `Closed` — including the
/// `MissingMouseUp` repair fault ahead of it, which settles nothing.
#[test]
fn half_closed_connections_get_every_owed_frame() {
    const CONNECTIONS: u64 = 100;
    let rec = recognizer();
    let mut service = TcpService::start(
        SessionRouter::new(rec.clone(), ServeConfig::default()),
        "127.0.0.1:0",
    )
    .expect("bind");
    let mut moves: Vec<(u32, InputEvent)> = vec![(
        1,
        InputEvent::new(
            EventKind::MouseDown {
                button: Button::Left,
            },
            0.0,
            0.0,
            0.0,
        ),
    )];
    moves.extend((2..22).map(|seq| {
        let at = f64::from(seq);
        (
            seq,
            InputEvent::new(EventKind::MouseMove, at, at, at * 10.0),
        )
    }));
    let close_seq = 22;
    let hello = ClientFrame::Hello {
        version: WIRE_VERSION,
    };
    let mut unanswered = [0; 2];
    for i in 0..CONNECTIONS {
        let session = 7000 + i;
        let mut frames = vec![hello.clone(), ClientFrame::Open { session }];
        frames.extend(moves.iter().map(|&(seq, event)| ClientFrame::Event {
            session,
            seq,
            event,
        }));
        frames.push(ClientFrame::Close {
            session,
            seq: close_seq,
        });
        let closing =
            run_events_inproc(&rec, session, &PipelineConfig::default(), &moves, close_seq);
        let probes = [
            (
                vec![hello.clone(), unknown_event(session)],
                vec![unknown_fault(session)],
            ),
            (frames, closing),
        ];
        for (n, (frames, want)) in probes.into_iter().enumerate() {
            let mut client = WireClient::raw(service.local_addr());
            client.send_all(&frames).expect("send");
            client.finish();
            if client.recv_many(usize::MAX, WAIT) != want {
                unanswered[n] += 1;
            }
        }
    }
    service.shutdown();
    assert_eq!(
        unanswered,
        [0, 0],
        "connections short of their answers, of {CONNECTIONS}: [unknown-session Event, \
         repaired Close]"
    );
}
