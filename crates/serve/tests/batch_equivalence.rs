//! Wire v2 property test: a session stream sent as `EventBatch` frames
//! must produce *byte-identical* server frames to the same stream sent
//! as single `Event` frames — over both the Duplex and TCP transports,
//! with the deterministic in-process pipeline as the common reference.
//!
//! Batch sizes vary per session (including size-1 batches and batches
//! beyond the single-frame cap, which the encoder splits), and every
//! fourth session replays a `FaultInjector`-corrupted stream so the
//! equivalence covers the repair path too. The TCP half runs once per
//! host readiness backend (poll, and epoll on Linux).

mod support;

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use grandma_core::{EagerConfig, EagerRecognizer, FeatureMask};
use grandma_events::{Button, EventScript, InputEvent};
use grandma_serve::{
    encode_client, encode_event_batch, encode_server, run_events_inproc, ClientFrame, Duplex,
    FrameBuffer, OutcomeKind, PipelineConfig, ServeConfig, ServerFrame, SessionRouter, TcpOptions,
    TcpService, MAX_BATCH_EVENTS, WIRE_VERSION,
};
use grandma_synth::{datasets, FaultInjector, SynthRng};
use support::{frame_session, host_backends};

const SESSIONS: u64 = 12;

/// Per-session batch size: exercises single-record batches, typical
/// sizes, the exact frame cap, and an over-cap size the encoder must
/// split across frames.
fn batch_size(session: u64) -> usize {
    [1, 3, 17, 64, MAX_BATCH_EVENTS, MAX_BATCH_EVENTS + 44][(session % 6) as usize]
}

fn recognizer() -> Arc<EagerRecognizer> {
    let data = datasets::eight_way(0x2b2b, 10, 0);
    let (rec, _) =
        EagerRecognizer::train(&data.training, &FeatureMask::all(), &EagerConfig::default())
            .expect("training succeeds");
    Arc::new(rec)
}

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

fn frames_to_bytes(frames: &[ServerFrame]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for frame in frames {
        encode_server(frame, &mut bytes);
    }
    bytes
}

fn reference_bytes(
    rec: &EagerRecognizer,
    streams: &HashMap<u64, Vec<(u32, InputEvent)>>,
) -> HashMap<u64, Vec<u8>> {
    streams
        .iter()
        .map(|(&session, events)| {
            let frames = run_events_inproc(
                rec,
                session,
                &PipelineConfig::default(),
                events,
                events.len() as u32,
            );
            (session, frames_to_bytes(&frames))
        })
        .collect()
}

fn loose_config() -> ServeConfig {
    ServeConfig {
        shards: 4,
        // Big enough that this test never trips Busy backpressure.
        queue_capacity: 1 << 15,
        ..ServeConfig::default()
    }
}

/// Drives one session over Duplex, batched (`Some(batch)`) or as single
/// events (`None`), and returns its frame bytes.
fn duplex_session_bytes(
    router: &Arc<SessionRouter>,
    session: u64,
    events: &[(u32, InputEvent)],
    batch: Option<usize>,
) -> Vec<u8> {
    let mut client = Duplex::connect(router.clone());
    client
        .send(&ClientFrame::Hello {
            version: WIRE_VERSION,
        })
        .expect("hello");
    client.send(&ClientFrame::Open { session }).expect("open");
    match batch {
        Some(size) => {
            for chunk in events.chunks(size.max(1)) {
                client
                    .send(&ClientFrame::EventBatch {
                        session,
                        events: chunk.to_vec(),
                    })
                    .expect("batch");
            }
        }
        None => {
            for &(seq, event) in events {
                client
                    .send(&ClientFrame::Event {
                        session,
                        seq,
                        event,
                    })
                    .expect("event");
            }
        }
    }
    client
        .send(&ClientFrame::Close {
            session,
            seq: events.len() as u32,
        })
        .expect("close");
    let frames = client
        .recv_session_until_closed(session, Duration::from_secs(30))
        .expect("frames");
    frames_to_bytes(&frames)
}

#[test]
fn batched_duplex_is_byte_identical_to_single_events() {
    let rec = recognizer();
    let streams: HashMap<u64, Vec<(u32, InputEvent)>> =
        (1..=SESSIONS).map(|s| (s, session_stream(s))).collect();
    let expected = reference_bytes(&rec, &streams);

    let router = SessionRouter::new(rec.clone(), loose_config());
    for (&session, events) in &streams {
        let single = duplex_session_bytes(&router, session, events, None);
        assert_eq!(
            single, expected[&session],
            "session {session}: single-event duplex diverges from the in-process reference"
        );
    }
    // Batched sessions reuse ids offset past the single-event ones so
    // both variants run against one router instance; frames are stamped
    // with the session id, so the reference is re-run under the offset
    // id for an apples-to-apples byte comparison.
    for (&session, events) in &streams {
        let batched =
            duplex_session_bytes(&router, session + 1000, events, Some(batch_size(session)));
        let frames = run_events_inproc(
            &rec,
            session + 1000,
            &PipelineConfig::default(),
            events,
            events.len() as u32,
        );
        assert_eq!(
            batched,
            frames_to_bytes(&frames),
            "session {session}: batched duplex diverges (batch size {})",
            batch_size(session)
        );
    }
    router.shutdown();
    assert_eq!(router.metrics().snapshot().busy_rejections, 0);
    let (hits, misses) = router.batch_pool().stats();
    assert!(
        hits > misses,
        "steady-state batches must reuse pooled buffers: {hits} hits / {misses} misses"
    );
}

/// Drives one TCP connection carrying every session, batched or single,
/// and returns per-session frame bytes.
fn tcp_run_bytes(
    addr: std::net::SocketAddr,
    streams: &HashMap<u64, Vec<(u32, InputEvent)>>,
    batched: bool,
) -> HashMap<u64, Vec<u8>> {
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
    let mut sessions: Vec<u64> = streams.keys().copied().collect();
    sessions.sort_unstable();
    for &session in &sessions {
        encode_client(&ClientFrame::Open { session }, &mut bytes);
        let events = &streams[&session];
        if batched {
            // encode_event_batch splits over-cap chunks across frames
            // itself; feed it the whole stream in session-sized chunks.
            for chunk in events.chunks(batch_size(session).max(1)) {
                encode_event_batch(session, chunk, &mut bytes);
            }
        } else {
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
        }
        encode_client(
            &ClientFrame::Close {
                session,
                seq: events.len() as u32,
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
    let mut chunk = [0u8; 16384];
    while closed < sessions.len() {
        let n = match stream.read(&mut chunk) {
            Ok(0) => panic!("server EOF with {closed}/{} closed", sessions.len()),
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
        .into_iter()
        .map(|(s, frames)| (s, frames_to_bytes(&frames)))
        .collect()
}

#[test]
fn batched_tcp_is_byte_identical_to_single_events() {
    let rec = recognizer();
    let streams: HashMap<u64, Vec<(u32, InputEvent)>> =
        (1..=SESSIONS).map(|s| (s, session_stream(s))).collect();
    let expected = reference_bytes(&rec, &streams);

    for backend in host_backends() {
        let options = TcpOptions {
            poll_backend: backend,
            ..TcpOptions::default()
        };
        let mut service = TcpService::start_with(
            SessionRouter::new(rec.clone(), loose_config()),
            "127.0.0.1:0",
            options,
        )
        .expect("bind");
        let addr = service.local_addr();

        let single = tcp_run_bytes(addr, &streams, false);
        let batched = tcp_run_bytes(addr, &streams, true);
        for (&session, reference) in &expected {
            assert_eq!(
                &single[&session], reference,
                "{backend:?}, session {session}: single-event TCP diverges from the reference"
            );
            assert_eq!(
                &batched[&session], reference,
                "{backend:?}, session {session}: batched TCP diverges from the reference"
            );
        }
        service.shutdown();
        let snap = service.metrics().snapshot();
        assert_eq!(snap.busy_rejections, 0, "{backend:?}: {snap:?}");
        assert_eq!(snap.decode_errors, 0, "{backend:?}: {snap:?}");
        assert!(snap.batches_ingested > 0, "{backend:?}: {snap:?}");
    }
}
