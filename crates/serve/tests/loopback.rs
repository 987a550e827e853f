//! The loopback integration test: 64 concurrent sessions over real TCP
//! connections, interleaved within and across connections, must produce
//! *byte-identical* per-session frame sequences to the deterministic
//! in-process pipeline — per seed, across two independent service runs.
//!
//! A quarter of the sessions replay `FaultInjector`-corrupted streams, so
//! the equality also covers the sanitizer/fault path end to end.
//!
//! The reconnect chaos test holds resumed sessions to the same baseline:
//! half the sessions sever their own connection mid-gesture and must
//! lose, duplicate or cross-wire no outcome.
//!
//! Every test runs once per host readiness backend (poll, and epoll on
//! Linux).

mod support;

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use grandma_core::{EagerConfig, EagerRecognizer, FeatureMask};
use grandma_events::{Button, EventScript, InputEvent};
use grandma_serve::{
    encode_client, encode_server, run_events_inproc, ClientFrame, FrameBuffer, OutcomeKind,
    PipelineConfig, PollBackend, ServeConfig, ServerFrame, SessionRouter, TcpOptions, TcpService,
    WIRE_VERSION,
};
use grandma_synth::{datasets, FaultInjector, SynthRng};
use support::{
    assert_session_invariants, baseline, drive, frame_session, host_backends, is_subsequence, wire,
};

const SESSIONS: u64 = 64;
const CONNECTIONS: u64 = 8;
const SESSIONS_PER_CONN: u64 = SESSIONS / CONNECTIONS;

fn recognizer() -> Arc<EagerRecognizer> {
    let data = datasets::eight_way(0x2b2b, 10, 0);
    let (rec, _) =
        EagerRecognizer::train(&data.training, &FeatureMask::all(), &EagerConfig::default())
            .expect("training succeeds");
    Arc::new(rec)
}

/// The seeded event stream of one session: a few gestures picked by the
/// session's own rng, with every fourth session corrupted.
fn session_stream(session: u64) -> Vec<(u32, InputEvent)> {
    let data = datasets::eight_way(0x7e57, 0, 8);
    let mut rng = SynthRng::seed_from_u64(0x10AD ^ session.wrapping_mul(0x9E37_79B9));
    let gestures = 2 + (rng.next_u64() % 2) as usize;
    let mut script = EventScript::new();
    for _ in 0..gestures {
        let idx = (rng.next_u64() as usize) % data.testing.len();
        script = script.then_gesture(&data.testing[idx].gesture, Button::Left);
    }
    let mut events = script.into_events();
    if session.is_multiple_of(4) {
        events = FaultInjector::new(0xBAD ^ session).corrupt(&events);
    }
    events
        .into_iter()
        .enumerate()
        .map(|(i, e)| (i as u32, e))
        .collect()
}

/// Serializes a frame sequence to wire bytes — the "byte-identical"
/// comparison is on these, not on struct equality.
fn frames_to_bytes(frames: &[ServerFrame]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for frame in frames {
        encode_server(frame, &mut bytes);
    }
    bytes
}

/// One client connection driving `sessions` concurrently: opens all of
/// them, interleaves their events round-robin, closes each, then reads
/// until every session's `Closed` marker arrived.
fn drive_connection(
    addr: std::net::SocketAddr,
    sessions: &[u64],
    streams: &HashMap<u64, Vec<(u32, InputEvent)>>,
) -> HashMap<u64, Vec<ServerFrame>> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut bytes = Vec::new();
    encode_client(
        &ClientFrame::Hello {
            version: WIRE_VERSION,
        },
        &mut bytes,
    );
    for &session in sessions {
        encode_client(&ClientFrame::Open { session }, &mut bytes);
    }
    // Round-robin interleave: session A's event i, session B's event i, …
    // so sessions genuinely overlap in time on the wire and in the shards.
    let mut cursors: Vec<usize> = vec![0; sessions.len()];
    loop {
        let mut progressed = false;
        for (slot, &session) in sessions.iter().enumerate() {
            let events = &streams[&session];
            if let Some(&(seq, event)) = events.get(cursors[slot]) {
                encode_client(
                    &ClientFrame::Event {
                        session,
                        seq,
                        event,
                    },
                    &mut bytes,
                );
                cursors[slot] += 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    for &session in sessions {
        encode_client(
            &ClientFrame::Close {
                session,
                seq: streams[&session].len() as u32,
            },
            &mut bytes,
        );
    }
    stream.write_all(&bytes).expect("write");
    stream.flush().expect("flush");

    let mut fb = FrameBuffer::new();
    let mut per_session: HashMap<u64, Vec<ServerFrame>> =
        sessions.iter().map(|&s| (s, Vec::new())).collect();
    let mut closed = 0usize;
    let mut chunk = [0u8; 8192];
    while closed < sessions.len() {
        let n = match stream.read(&mut chunk) {
            Ok(0) => panic!(
                "server EOF with {closed}/{} sessions closed",
                sessions.len()
            ),
            Ok(n) => n,
            Err(e) => panic!("read failed with {closed} closed: {e}"),
        };
        fb.extend(&chunk[..n]);
        while let Some(frame) = fb.next_server().expect("valid server stream") {
            let session = frame_session(&frame);
            if matches!(
                frame,
                ServerFrame::Outcome {
                    outcome: OutcomeKind::Closed,
                    ..
                }
            ) {
                closed += 1;
            }
            per_session
                .get_mut(&session)
                .expect("frame for unknown session")
                .push(frame);
        }
    }
    per_session
}

/// Starts a TCP service for `config` on one readiness backend.
fn start(rec: Arc<EagerRecognizer>, config: ServeConfig, backend: PollBackend) -> TcpService {
    let options = TcpOptions {
        poll_backend: backend,
        ..TcpOptions::default()
    };
    TcpService::start_with(SessionRouter::new(rec, config), "127.0.0.1:0", options).expect("bind")
}

/// One full service run: start TCP, drive every connection from its own
/// thread, shut down, return per-session frames.
fn run_service_once(
    rec: Arc<EagerRecognizer>,
    streams: &HashMap<u64, Vec<(u32, InputEvent)>>,
    backend: PollBackend,
) -> HashMap<u64, Vec<ServerFrame>> {
    let config = ServeConfig {
        shards: 4,
        // Large enough that this test never trips backpressure — Busy
        // determinism is covered separately in tests/backpressure.rs.
        queue_capacity: 1 << 15,
        ..ServeConfig::default()
    };
    let mut service = start(rec, config, backend);
    let addr = service.local_addr();
    let mut results = HashMap::new();
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for conn in 0..CONNECTIONS {
            let sessions: Vec<u64> = (0..SESSIONS_PER_CONN)
                .map(|i| 1 + conn * SESSIONS_PER_CONN + i)
                .collect();
            let streams = &streams;
            joins.push(scope.spawn(move || drive_connection(addr, &sessions, streams)));
        }
        for join in joins {
            results.extend(join.join().expect("client thread"));
        }
    });
    service.shutdown();
    let snap = service.metrics().snapshot();
    assert_eq!(snap.sessions_opened, SESSIONS, "{snap:?}");
    assert_eq!(snap.sessions_closed, SESSIONS, "{snap:?}");
    assert_eq!(snap.busy_rejections, 0, "loopback run must not hit Busy");
    results
}

#[test]
fn sixty_four_tcp_sessions_match_the_inproc_pipeline_byte_for_byte() {
    let rec = recognizer();
    let streams: HashMap<u64, Vec<(u32, InputEvent)>> =
        (1..=SESSIONS).map(|s| (s, session_stream(s))).collect();

    // The deterministic reference: each session through a bare pipeline.
    let expected: HashMap<u64, Vec<u8>> = streams
        .iter()
        .map(|(&session, events)| {
            let frames = run_events_inproc(
                &rec,
                session,
                &PipelineConfig::default(),
                events,
                events.len() as u32,
            );
            (session, frames_to_bytes(&frames))
        })
        .collect();

    // Sanity on the workload itself: corrupted sessions really repaired
    // faults, clean ones really recognized.
    let fault_frames = |bytes: &Vec<u8>| !bytes.is_empty();
    assert!(expected.values().all(fault_frames));

    // Two independent service runs per backend must all reproduce the
    // reference.
    for backend in host_backends() {
        for run in 0..2 {
            let got = run_service_once(rec.clone(), &streams, backend);
            assert_eq!(got.len() as u64, SESSIONS);
            for (&session, frames) in &got {
                let got_bytes = frames_to_bytes(frames);
                assert_eq!(
                    got_bytes, expected[&session],
                    "{backend:?} run {run}, session {session}: TCP frames diverge from \
                     in-process pipeline"
                );
                assert!(
                    matches!(
                        frames.last(),
                        Some(ServerFrame::Outcome {
                            outcome: OutcomeKind::Closed,
                            ..
                        })
                    ),
                    "{backend:?} run {run}, session {session} missing Closed marker"
                );
            }
        }
    }
}

#[test]
fn half_closed_client_still_receives_every_reply() {
    // Regression: a client that writes its whole session and then
    // `shutdown(Write)` immediately presents the reactor with EOF while
    // replies are still queued. The reactor must treat EOF as a
    // half-close — drain every pending reply to the still-open write
    // side — rather than tearing the connection down on first EOF.
    let rec = recognizer();
    let session = 7u64;
    let events = session_stream(session);
    let expected = frames_to_bytes(&run_events_inproc(
        &rec,
        session,
        &PipelineConfig::default(),
        &events,
        events.len() as u32,
    ));

    for backend in host_backends() {
        let config = ServeConfig {
            shards: 2,
            queue_capacity: 1 << 15,
            ..ServeConfig::default()
        };
        let mut service = start(rec.clone(), config, backend);
        let frames = half_closed_session(service.local_addr(), session, &events);
        assert_eq!(
            frames_to_bytes(&frames),
            expected,
            "{backend:?}: half-closed connection must still deliver the full reply stream"
        );
        service.shutdown();
    }
}

/// Writes a whole session, half-closes the write side before reading a
/// single reply, then reads until the `Closed` marker.
fn half_closed_session(
    addr: std::net::SocketAddr,
    session: u64,
    events: &[(u32, InputEvent)],
) -> Vec<ServerFrame> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut bytes = Vec::new();
    encode_client(
        &ClientFrame::Hello {
            version: WIRE_VERSION,
        },
        &mut bytes,
    );
    encode_client(&ClientFrame::Open { session }, &mut bytes);
    for &(seq, event) in events {
        encode_client(
            &ClientFrame::Event {
                session,
                seq,
                event,
            },
            &mut bytes,
        );
    }
    encode_client(
        &ClientFrame::Close {
            session,
            seq: events.len() as u32,
        },
        &mut bytes,
    );
    stream.write_all(&bytes).expect("write");
    stream.flush().expect("flush");
    // The half-close: our write side is done before a single reply has
    // been read. The read side stays open for the drain.
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");

    let mut fb = FrameBuffer::new();
    let mut frames = Vec::new();
    let mut chunk = [0u8; 8192];
    let mut done = false;
    while !done {
        let n = match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) => panic!("read after half-close failed: {e}"),
        };
        fb.extend(&chunk[..n]);
        while let Some(frame) = fb.next_server().expect("valid server stream") {
            if matches!(
                frame,
                ServerFrame::Outcome {
                    outcome: OutcomeKind::Closed,
                    ..
                }
            ) {
                done = true;
            }
            frames.push(frame);
        }
    }
    assert!(done, "server EOF before the Closed marker arrived");
    frames
}

#[test]
fn corrupted_sessions_report_faults_and_clean_ones_do_not_cancel() {
    let rec = recognizer();
    let streams: HashMap<u64, Vec<(u32, InputEvent)>> =
        (1..=SESSIONS).map(|s| (s, session_stream(s))).collect();
    let mut corrupted_faults = 0usize;
    let mut clean_recognized = 0usize;
    for (&session, events) in &streams {
        let frames = run_events_inproc(
            &rec,
            session,
            &PipelineConfig::default(),
            events,
            events.len() as u32,
        );
        let faults = frames
            .iter()
            .filter(|f| matches!(f, ServerFrame::Fault { .. }))
            .count();
        if session.is_multiple_of(4) {
            corrupted_faults += faults;
        } else {
            assert_eq!(faults, 0, "clean session {session} reported faults");
            clean_recognized += frames
                .iter()
                .filter(|f| {
                    matches!(
                        f,
                        ServerFrame::Outcome {
                            outcome: OutcomeKind::Recognized | OutcomeKind::Manipulated,
                            ..
                        }
                    )
                })
                .count();
        }
    }
    assert!(
        corrupted_faults > 0,
        "the corrupted quarter must provoke fault frames"
    );
    assert!(
        clean_recognized as u64 >= SESSIONS,
        "clean sessions must mostly recognize: {clean_recognized}"
    );
}

/// Sessions driven by the reconnect chaos test.
const CHAOS_SESSIONS: u64 = 12;
/// A chaotic session severs its connection every this many events.
const CHAOS_DISCONNECT_EVERY: usize = 40;

#[test]
fn reconnect_chaos_resumes_every_session_without_loss_or_duplication() {
    // Odd sessions sever their connection repeatedly and must produce a
    // subsequence of the never-crashed baseline (the gap frames were
    // emitted while the wire was down); even sessions never disconnect
    // and must match it byte for byte.
    let rec = recognizer();
    for backend in host_backends() {
        let config = ServeConfig {
            shards: 4,
            queue_capacity: 1 << 15,
            detach_on_disconnect: true,
            ..ServeConfig::default()
        };
        let mut service = start(rec.clone(), config, backend);
        let addr = service.local_addr();
        std::thread::scope(|scope| {
            for session in 1..=CHAOS_SESSIONS {
                let rec = &rec;
                scope.spawn(move || {
                    let events = support::session_stream(session);
                    let chaotic = session % 2 == 1;
                    let (frames, reconnects) = drive(
                        addr,
                        session,
                        &events,
                        Duration::ZERO,
                        chaotic.then_some(CHAOS_DISCONNECT_EVERY),
                    );
                    assert_session_invariants(session, &frames);
                    let got = wire(&frames);
                    let want = baseline(rec, session, &events);
                    if chaotic {
                        assert!(
                            reconnects >= 1,
                            "{backend:?}: chaos session {session} never reconnected"
                        );
                        assert!(
                            is_subsequence(&got, &want),
                            "{backend:?}: chaos session {session}: frames are not a \
                                 subsequence of the baseline"
                        );
                    } else {
                        assert_eq!(
                            got, want,
                            "{backend:?}: clean session {session}: frames must be \
                                 byte-identical"
                        );
                    }
                });
            }
        });
        let resumed = service.metrics().snapshot().sessions_resumed;
        service.shutdown();
        assert!(resumed >= 1, "{backend:?}: server never resumed a session");
    }
}
