//! Backpressure and resilience: a full shard queue rejects with `Busy`
//! (it never grows), every rejection is reported (nothing is silently
//! dropped), and corrupted or hostile byte streams cost at most a
//! connection, never the process.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use grandma_core::{EagerConfig, EagerRecognizer, FeatureMask};
use grandma_events::{Button, EventKind, EventScript, InputEvent};
use grandma_serve::{
    encode_client, ClientFrame, Duplex, FaultCode, FrameBuffer, OutcomeKind, PipelineConfig,
    ServeConfig, ServerFrame, SessionPipeline, SessionRouter, TcpService, WIRE_VERSION,
};
use grandma_synth::{datasets, FaultInjector, SynthRng};

fn recognizer() -> Arc<EagerRecognizer> {
    let data = datasets::eight_way(0x2b2b, 10, 0);
    let (rec, _) =
        EagerRecognizer::train(&data.training, &FeatureMask::all(), &EagerConfig::default())
            .expect("training succeeds");
    Arc::new(rec)
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
    let mut client = Duplex::connect(router.clone());
    client
        .send(&ClientFrame::Hello {
            version: WIRE_VERSION,
        })
        .expect("hello");
    client.send(&ClientFrame::Open { session: 1 }).expect("open");
    // Hold the shard still so the queue genuinely fills, deterministically
    // even on a single-core box.
    std::thread::sleep(Duration::from_millis(50));
    let pause = router.pause_shard(0).expect("pause");
    std::thread::sleep(Duration::from_millis(50));

    for seq in 0..FLOOD {
        client
            .send(&ClientFrame::Event {
                session: 1,
                seq,
                event: InputEvent::new(EventKind::MouseMove, seq as f64, 0.0, seq as f64),
            })
            .expect("send never blocks");
    }
    let snap = router.metrics().snapshot();
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
    // Let the shard drain before closing — a Close against a still-full
    // queue would itself bounce as Busy.
    while router.metrics().snapshot().shards[0].queue_depth > 0 {
        std::thread::sleep(Duration::from_millis(10));
    }
    client
        .send(&ClientFrame::Close {
            session: 1,
            seq: FLOOD,
        })
        .expect("close");
    let frames = client
        .recv_session_until_closed(1, Duration::from_secs(10))
        .expect("recv");
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
    router.shutdown();
    let snap = router.metrics().snapshot();
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
        let pause = router.pause_shard(0).expect("pause");
        std::thread::sleep(Duration::from_millis(50));
        let mut client = Duplex::connect(router.clone());
        client
            .send(&ClientFrame::Hello {
                version: WIRE_VERSION,
            })
            .expect("hello");
        client.send(&ClientFrame::Open { session: 1 }).expect("open");
        for seq in 0..64 {
            client
                .send(&ClientFrame::Event {
                    session: 1,
                    seq,
                    event: InputEvent::new(EventKind::MouseMove, 1.0, 1.0, seq as f64),
                })
                .expect("send");
        }
        pause.release();
        router.shutdown();
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
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let clean = EventScript::new()
            .then_gesture(&data.testing[wave as usize % data.testing.len()].gesture, Button::Left)
            .into_events();
        let corrupted = FaultInjector::new(0xDEAD ^ wave).corrupt(&clean);
        let session = 100 + wave;
        let mut bytes = Vec::new();
        encode_client(
            &ClientFrame::Hello {
                version: WIRE_VERSION,
            },
            &mut bytes,
        );
        encode_client(&ClientFrame::Open { session }, &mut bytes);
        for (i, e) in corrupted.iter().enumerate() {
            encode_client(
                &ClientFrame::Event {
                    session,
                    seq: i as u32,
                    event: *e,
                },
                &mut bytes,
            );
        }
        encode_client(
            &ClientFrame::Close {
                session,
                seq: corrupted.len() as u32,
            },
            &mut bytes,
        );
        stream.write_all(&bytes).expect("write");
        // Drain until the Closed marker: the pipeline digested the
        // corruption without dying.
        let mut fb = FrameBuffer::new();
        let mut chunk = [0u8; 4096];
        let mut closed = false;
        while !closed {
            let n = match stream.read(&mut chunk) {
                Ok(0) | Err(_) => break,
                Ok(n) => n,
            };
            fb.extend(&chunk[..n]);
            while let Some(frame) = fb.next_server().expect("server bytes") {
                if matches!(
                    frame,
                    ServerFrame::Outcome {
                        outcome: OutcomeKind::Closed,
                        ..
                    }
                ) {
                    closed = true;
                }
            }
        }
        assert!(closed, "wave {wave}: corrupted session must still close");
    }

    // Hostile frames (random bytes) on top: each costs one connection.
    let mut rng = SynthRng::seed_from_u64(0x50DA);
    for _ in 0..8 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let soup: Vec<u8> = (0..256).map(|_| rng.next_u64() as u8).collect();
        let _ = stream.write_all(&soup);
        // The server may close the connection at any point; ignore errors.
        let _ = stream.read(&mut [0u8; 64]);
    }

    // The service is still alive and serving correctly.
    let mut stream = TcpStream::connect(addr).expect("service survived");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut bytes = Vec::new();
    encode_client(
        &ClientFrame::Hello {
            version: WIRE_VERSION,
        },
        &mut bytes,
    );
    encode_client(&ClientFrame::Open { session: 999 }, &mut bytes);
    encode_client(&ClientFrame::Close { session: 999, seq: 0 }, &mut bytes);
    stream.write_all(&bytes).expect("write");
    let mut fb = FrameBuffer::new();
    let mut chunk = [0u8; 1024];
    let mut closed = false;
    while !closed {
        let n = match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        fb.extend(&chunk[..n]);
        while let Some(frame) = fb.next_server().expect("server bytes") {
            closed |= matches!(
                frame,
                ServerFrame::Outcome {
                    outcome: OutcomeKind::Closed,
                    ..
                }
            );
        }
    }
    assert!(closed, "post-garbage session must serve normally");
    service.shutdown();
    let snap = service.metrics().snapshot();
    assert!(snap.decode_errors >= 1, "garbage must be counted: {snap:?}");
    assert_eq!(snap.sessions_opened, snap.sessions_closed, "{snap:?}");
}

/// One frame of every kind a full queue can bounce, with the
/// `(session, seq)` its `Fault(Busy)` must echo on every transport.
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
    ]
}

/// A one-slot shard queue behind a parked worker, with the slot taken:
/// every further submit is rejected `Busy`.
fn jammed_router() -> (Arc<SessionRouter>, grandma_serve::router::ShardPause) {
    let router = SessionRouter::new(recognizer(), ServeConfig {
        shards: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    });
    let pause = router.pause_shard(0).expect("pause");
    // Bounded wait for the worker to take the Pause off the queue.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while router.metrics().snapshot().shards[0].queue_depth > 0
        && std::time::Instant::now() < deadline
    {
        std::thread::yield_now();
    }
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

// Both tests collect every reply before releasing the shard and only
// then assert: a panic while the worker is parked would leave the
// router's shutdown blocked on the full queue.

#[test]
fn busy_faults_echo_one_correlation_for_every_frame_kind_over_duplex() {
    let (router, pause) = jammed_router();
    let mut client = Duplex::connect(router.clone());
    client
        .send(&ClientFrame::Hello {
            version: WIRE_VERSION,
        })
        .expect("hello");
    client.send(&ClientFrame::Open { session: 999 }).expect("fill the slot");
    let mut probes = busy_probes();
    // Duplex bounces a busy Close too (TCP retries it instead).
    probes.push((ClientFrame::Close { session: 1, seq: 9 }, (1, 9)));
    let mut got = Vec::new();
    for (frame, _) in &probes {
        let reply = client
            .send(frame)
            .ok()
            .and_then(|()| client.recv_timeout(Duration::from_secs(5)).ok().flatten());
        got.push(reply.map(busy_key));
    }
    pause.release();
    router.shutdown();
    let want: Vec<_> = probes.iter().map(|&(_, key)| Some(Ok(key))).collect();
    assert_eq!(got, want);
}

#[test]
fn busy_faults_echo_one_correlation_for_every_frame_kind_over_tcp() {
    let (router, pause) = jammed_router();
    let mut service = TcpService::start(router.clone(), "127.0.0.1:0").expect("bind");
    let probes = busy_probes();
    let mut bytes = Vec::new();
    encode_client(
        &ClientFrame::Hello {
            version: WIRE_VERSION,
        },
        &mut bytes,
    );
    encode_client(&ClientFrame::Open { session: 999 }, &mut bytes);
    for (frame, _) in &probes {
        encode_client(frame, &mut bytes);
    }
    let mut got = Vec::new();
    if let Ok(mut stream) = TcpStream::connect(service.local_addr()) {
        let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
        let _ = stream.write_all(&bytes);
        let mut fb = FrameBuffer::new();
        let mut chunk = [0u8; 1024];
        while got.len() < probes.len() {
            match fb.next_server() {
                Ok(Some(frame)) => got.push(busy_key(frame)),
                Ok(None) => match stream.read(&mut chunk) {
                    Ok(n) if n > 0 => fb.extend(&chunk[..n]),
                    _ => break,
                },
                Err(_) => break,
            }
        }
    }
    pause.release();
    service.shutdown();
    let want: Vec<_> = probes.iter().map(|&(_, key)| Ok(key)).collect();
    assert_eq!(got, want);
}
