//! Wire v2 property test: a session stream sent as `EventBatch` frames
//! must produce *byte-identical* server frames to the same stream sent
//! as single `Event` frames over TCP, with the deterministic in-process
//! pipeline as the common reference.
//!
//! Batch sizes vary per session (including size-1 batches and batches
//! beyond the single-frame cap, which the encoder splits), and every
//! fourth session replays a `FaultInjector`-corrupted stream so the
//! equivalence covers the repair path too. The TCP half runs once per
//! host readiness backend (poll, and epoll on Linux).

mod support;

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use grandma_core::{EagerConfig, EagerRecognizer, FeatureMask};
use grandma_events::{Button, EventScript, InputEvent};
use grandma_serve::{
    encode_client, encode_event_batch, encode_server, run_events_inproc, ClientFrame, OutcomeKind,
    PipelineConfig, ServeConfig, ServerFrame, SessionRouter, TcpOptions, TcpService,
    MAX_BATCH_EVENTS,
};
use grandma_synth::{datasets, FaultInjector, SynthRng};
use support::{eventually, frame_session, host_backends, WireClient};

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

/// Drives one TCP connection carrying every session, batched or single,
/// and returns per-session frame bytes.
fn tcp_run_bytes(
    addr: std::net::SocketAddr,
    streams: &HashMap<u64, Vec<(u32, InputEvent)>>,
    batched: bool,
) -> HashMap<u64, Vec<u8>> {
    let mut client = WireClient::connect(addr);
    let mut bytes = Vec::new();
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
    client.send_bytes(&bytes).expect("write");

    let mut per_session: HashMap<u64, Vec<ServerFrame>> =
        sessions.iter().map(|&s| (s, Vec::new())).collect();
    let mut closed = 0usize;
    while closed < sessions.len() {
        let frame = client
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|| panic!("server quiet with {closed}/{} closed", sessions.len()));
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
            .get_mut(&frame_session(&frame))
            .expect("frame for unknown session")
            .push(frame);
    }
    per_session
        .into_iter()
        .map(|(s, frames)| (s, frames_to_bytes(&frames)))
        .collect()
}

/// Sends each session's batches over a connection of its own, one frame
/// per write, and sends the next only once the shard has put the last
/// one's buffer back: the steady state, in which a take must hit the
/// pool. (`tcp_run_bytes` writes everything at once, so nearly every
/// batch is in flight together and each takes a fresh buffer.) Returns
/// per-session frame bytes.
fn paced_batched_bytes(
    service: &TcpService,
    streams: &HashMap<u64, Vec<(u32, InputEvent)>>,
) -> HashMap<u64, Vec<u8>> {
    let pool = service.router().batch_pool();
    let mut bytes = Vec::new();
    streams
        .iter()
        .map(|(&session, events)| {
            let mut client = WireClient::connect(service.local_addr());
            client.send(&ClientFrame::Open { session }).expect("open");
            for chunk in events.chunks(batch_size(session)) {
                let idle = pool.idle_len().max(1);
                bytes.clear();
                encode_event_batch(session, chunk, &mut bytes);
                client.send_bytes(&bytes).expect("batch");
                assert!(
                    eventually(|| pool.idle_len() >= idle),
                    "session {session}: a batch buffer never came back"
                );
            }
            let close = ClientFrame::Close {
                session,
                seq: events.len() as u32,
            };
            client.send(&close).expect("close");
            let frames = client.recv_session_until_closed(session, Duration::from_secs(30));
            (session, frames_to_bytes(&frames))
        })
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
        let pool = service.router().batch_pool().clone();
        let (hits_before, misses_before) = pool.stats();
        let paced = paced_batched_bytes(&service, &streams);
        let (hits, misses) = pool.stats();
        let (hits, misses) = (hits - hits_before, misses - misses_before);
        for (&session, reference) in &expected {
            assert_eq!(
                &single[&session], reference,
                "{backend:?}, session {session}: single-event TCP diverges from the reference"
            );
            assert_eq!(
                &batched[&session], reference,
                "{backend:?}, session {session}: batched TCP diverges from the reference"
            );
            assert_eq!(
                &paced[&session], reference,
                "{backend:?}, session {session}: paced batched TCP diverges from the reference"
            );
        }
        service.shutdown();
        let snap = service.metrics().snapshot();
        assert_eq!(snap.busy_rejections, 0, "{backend:?}: {snap:?}");
        assert_eq!(snap.decode_errors, 0, "{backend:?}: {snap:?}");
        assert!(snap.batches_ingested > 0, "{backend:?}: {snap:?}");
        assert!(
            hits > misses,
            "{backend:?}: steady-state batches must reuse pooled buffers: \
             {hits} hits / {misses} misses"
        );
    }
}
