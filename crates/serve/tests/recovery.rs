//! Hermetic kill-and-recover tests: a point-in-time copy of the WAL
//! directory stands in for a SIGKILL (everything the dead process would
//! leave behind is exactly what was on disk), a fresh router recovers
//! from the copy, and resumed sessions must finish **byte-identically**
//! to a never-crashed in-process pipeline — with zero cross-session
//! contamination and the torn tail of a mid-write crash dropped, not
//! fatal.
//!
//! The process-level version of this drill (real SIGKILL of a `serve`
//! child, restart with `--recover`) is `tests/kill_recover.rs`; these
//! tests pin the same guarantees without spawning processes.

use std::sync::Arc;
use std::time::Duration;

use grandma_core::{EagerConfig, EagerRecognizer, FeatureMask};
use grandma_events::{Button, EventKind, EventScript, InputEvent};
use grandma_serve::wal::WalShard;
use grandma_serve::{
    encode_client, encode_server, run_events_inproc, ClientFrame, Duplex, FsyncPolicy,
    PipelineConfig, ServeConfig, ServerFrame, SessionRouter, WalConfig, WIRE_VERSION,
};
use grandma_synth::{datasets, SynthRng};

const SESSIONS: u64 = 4;

fn recognizer() -> Arc<EagerRecognizer> {
    let data = datasets::eight_way(0x2b2b, 10, 0);
    let (rec, _) =
        EagerRecognizer::train(&data.training, &FeatureMask::all(), &EagerConfig::default())
            .expect("training succeeds");
    Arc::new(rec)
}

/// A session's seeded events with the resume protocol's 1-based seqs.
fn session_stream(session: u64) -> Vec<(u32, InputEvent)> {
    let data = datasets::eight_way(0x7e57, 0, 8);
    let mut rng = SynthRng::seed_from_u64(0xC4A5 ^ session.wrapping_mul(0x9E37_79B9));
    let mut script = EventScript::new();
    for _ in 0..2 {
        let idx = (rng.next_u64() as usize) % data.testing.len();
        script = script.then_gesture(&data.testing[idx].gesture, Button::Left);
    }
    script
        .into_events()
        .into_iter()
        .enumerate()
        .map(|(i, e)| ((i + 1) as u32, e))
        .collect()
}

fn frame_session(frame: &ServerFrame) -> u64 {
    match *frame {
        ServerFrame::Recognized { session, .. }
        | ServerFrame::Manipulate { session, .. }
        | ServerFrame::Outcome { session, .. }
        | ServerFrame::Fault { session, .. }
        | ServerFrame::Resumed { session, .. }
        | ServerFrame::HandoffAck { session, .. }
        | ServerFrame::NotOwner { session, .. } => session,
    }
}

fn frame_seq(frame: &ServerFrame) -> u32 {
    match *frame {
        ServerFrame::Recognized { seq, .. }
        | ServerFrame::Manipulate { seq, .. }
        | ServerFrame::Outcome { seq, .. }
        | ServerFrame::Fault { seq, .. } => seq,
        ServerFrame::Resumed { last_seq, .. } | ServerFrame::HandoffAck { last_seq, .. } => {
            last_seq
        }
        ServerFrame::NotOwner { .. } => 0,
    }
}

fn frames_to_bytes(frames: &[ServerFrame]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for frame in frames {
        encode_server(frame, &mut bytes);
    }
    bytes
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("grandma-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// The SIGKILL stand-in: freeze the live WAL directory into an image.
fn copy_wal(from: &std::path::Path, to: &std::path::Path) {
    std::fs::create_dir_all(to).expect("mkdir image");
    for entry in std::fs::read_dir(from).expect("read wal dir").flatten() {
        if entry.file_name().to_string_lossy().starts_with("shard-") {
            std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy");
        }
    }
}

/// Runs the crash drill and returns each session's full received frame
/// sequence (pre-crash prefix + post-recovery tail), the recovery
/// report, and the expected baselines. `mangle` gets to corrupt the
/// crash image before recovery.
fn crash_and_recover(
    tag: &str,
    mangle: impl FnOnce(&std::path::Path),
) -> (Vec<Vec<ServerFrame>>, grandma_serve::RecoveryReport, Vec<Vec<ServerFrame>>) {
    let rec = recognizer();
    let live_dir = tmp_dir(&format!("{tag}-live"));
    let image_dir = tmp_dir(&format!("{tag}-image"));

    let streams: Vec<Vec<(u32, InputEvent)>> = (1..=SESSIONS).map(session_stream).collect();
    let baselines: Vec<Vec<ServerFrame>> = streams
        .iter()
        .enumerate()
        .map(|(i, events)| {
            run_events_inproc(
                &rec,
                i as u64 + 1,
                &PipelineConfig::default(),
                events,
                events.len() as u32 + 1,
            )
        })
        .collect();

    // Phase 1: live router with a sync WAL; feed each session's first
    // half and collect exactly the frames those events produce.
    let config = ServeConfig {
        wal: Some(WalConfig::new(live_dir.clone(), FsyncPolicy::Sync)),
        ..ServeConfig::default()
    };
    let router = SessionRouter::new(rec.clone(), config);
    let mut client = Duplex::connect(router.clone());
    client
        .send(&ClientFrame::Hello {
            version: WIRE_VERSION,
        })
        .expect("hello");
    let mut prefix_ends = Vec::new();
    let mut expected_prefix_counts = Vec::new();
    for (i, events) in streams.iter().enumerate() {
        let session = i as u64 + 1;
        let prefix_end = (events.len() / 2) as u32;
        prefix_ends.push(prefix_end);
        expected_prefix_counts.push(
            baselines[i]
                .iter()
                .filter(|f| frame_seq(f) <= prefix_end)
                .count(),
        );
        client
            .send(&ClientFrame::Open { session })
            .expect("open");
        for &(seq, event) in events.iter().filter(|&&(seq, _)| seq <= prefix_end) {
            client
                .send(&ClientFrame::Event {
                    session,
                    seq,
                    event,
                })
                .expect("event");
        }
    }
    let mut received: Vec<Vec<ServerFrame>> = vec![Vec::new(); SESSIONS as usize];
    let want_total: usize = expected_prefix_counts.iter().sum();
    let mut got_total = 0usize;
    while got_total < want_total {
        let frame = client
            .recv_timeout(Duration::from_secs(10))
            .expect("recv")
            .expect("prefix frame");
        let session = frame_session(&frame);
        assert!(
            (1..=SESSIONS).contains(&session),
            "foreign session {session} in prefix: {frame:?}"
        );
        received[session as usize - 1].push(frame);
        got_total += 1;
    }

    // The "crash": freeze the durable state as the kill would leave it,
    // then tear the live router down. Its graceful shutdown compacts
    // `live_dir`, but the frozen image no longer changes.
    copy_wal(&live_dir, &image_dir);
    router.shutdown();
    mangle(&image_dir);

    // Phase 2: a fresh router recovers from the image.
    let wal = WalConfig::new(image_dir.clone(), FsyncPolicy::Sync);
    let config = ServeConfig {
        wal: Some(wal.clone()),
        ..ServeConfig::default()
    };
    let router = SessionRouter::new(rec.clone(), config);
    let report = router.recover(&wal).expect("recover");
    let mut client = Duplex::connect(router.clone());
    client
        .send(&ClientFrame::Hello {
            version: WIRE_VERSION,
        })
        .expect("hello");
    // Recovered sessions are orphans: nothing may arrive before Resume.
    assert!(
        client
            .recv_timeout(Duration::from_millis(50))
            .expect("recv")
            .is_none(),
        "recovered sessions must stay silent until resumed"
    );
    for (i, _) in streams.iter().enumerate() {
        let session = i as u64 + 1;
        client
            .send(&ClientFrame::Resume {
                session,
                last_seq: 0,
            })
            .expect("resume");
        let frame = client
            .recv_timeout(Duration::from_secs(10))
            .expect("recv")
            .expect("resumed frame");
        match frame {
            ServerFrame::Resumed { session: s, last_seq } => {
                assert_eq!(s, session);
                assert_eq!(
                    last_seq, prefix_ends[i],
                    "server-authoritative last_seq must be the durable prefix"
                );
            }
            other => panic!("expected Resumed, got {other:?}"),
        }
    }
    // Finish each session: the tail events, then Close.
    for (i, events) in streams.iter().enumerate() {
        let session = i as u64 + 1;
        for &(seq, event) in events.iter().filter(|&&(seq, _)| seq > prefix_ends[i]) {
            client
                .send(&ClientFrame::Event {
                    session,
                    seq,
                    event,
                })
                .expect("tail event");
        }
        client
            .send(&ClientFrame::Close {
                session,
                seq: events.len() as u32 + 1,
            })
            .expect("close");
        for frame in client
            .recv_session_until_closed(session, Duration::from_secs(10))
            .expect("tail frames")
        {
            let s = frame_session(&frame);
            assert_eq!(s, session, "cross-session contamination: {frame:?}");
            received[i].push(frame);
        }
    }
    router.shutdown();
    let _ = std::fs::remove_dir_all(&live_dir);
    let _ = std::fs::remove_dir_all(&image_dir);
    (received, report, baselines)
}

#[test]
fn recovered_sessions_finish_byte_identically() {
    let (received, report, baselines) = crash_and_recover("clean", |_| {});
    assert_eq!(report.sessions, SESSIONS);
    assert!(!report.torn, "clean image must not report a torn tail");
    assert!(report.frames > 0, "the log tail must replay frames");
    for (i, (got, want)) in received.iter().zip(&baselines).enumerate() {
        assert_eq!(
            frames_to_bytes(got),
            frames_to_bytes(want),
            "session {}: crashed-and-recovered frames must be byte-identical \
             to the never-crashed pipeline",
            i + 1
        );
    }
}

#[test]
fn torn_wal_tail_is_dropped_and_sessions_still_resume() {
    let (received, report, baselines) = crash_and_recover("torn", |image| {
        // A crash mid-append leaves a half-written record; recovery must
        // shrug it off. The prefix events are all durable already (sync
        // WAL), so the byte-identical guarantee still holds.
        for entry in std::fs::read_dir(image).expect("read image").flatten() {
            if entry.file_name().to_string_lossy().ends_with(".wal") {
                use std::io::Write;
                let mut file = std::fs::OpenOptions::new()
                    .append(true)
                    .open(entry.path())
                    .expect("open wal");
                // A plausible length prefix with a garbage body.
                file.write_all(&[48, 0, 0, 0, 0xDE, 0xAD, 0xBE, 0xEF, 7, 7])
                    .expect("tear tail");
            }
        }
    });
    assert_eq!(report.sessions, SESSIONS);
    assert!(report.torn, "the torn tail must be reported");
    for (i, (got, want)) in received.iter().zip(&baselines).enumerate() {
        assert_eq!(
            frames_to_bytes(got),
            frames_to_bytes(want),
            "session {}: torn-tail recovery must still be byte-identical",
            i + 1
        );
    }
}

#[test]
fn v1_event_logs_recover_byte_identically_to_event_batch_logs() {
    let rec = recognizer();
    let session = 1u64;
    let events = session_stream(session);
    let close_seq = events.len() as u32 + 1;
    let cut = events.len() / 3;
    let end = 2 * events.len() / 3;
    assert!(cut > 5);

    // A compaction snapshot of the session cut after `cut` events.
    let snapshot = {
        let router = SessionRouter::new(rec.clone(), ServeConfig::default());
        let mut client = Duplex::connect(router.clone());
        client
            .send(&ClientFrame::Hello {
                version: WIRE_VERSION,
            })
            .expect("hello");
        client.send(&ClientFrame::Open { session }).expect("open");
        for &(seq, event) in &events[..cut] {
            client
                .send(&ClientFrame::Event {
                    session,
                    seq,
                    event,
                })
                .expect("event");
        }
        let mut drained = router.drain_sessions();
        router.shutdown();
        drained.pop().expect("one drained session")
    };

    // The same traffic logged two ways behind that snapshot: one v1
    // `Event` record per event, or `EventBatch` records. The tail starts
    // below the snapshot's watermark, as a crash between snapshot rename
    // and log truncate leaves it; those records are poisoned (far-future,
    // displaced points), so applying any of them would show.
    let tail: Vec<(u32, InputEvent)> = events[cut - 5..cut]
        .iter()
        .map(|&(seq, e)| {
            let poison =
                InputEvent::new(EventKind::MouseMove, e.x + 500.0, e.y - 300.0, e.t + 60_000.0);
            (seq, poison)
        })
        .chain(events[cut..end].iter().copied())
        .collect();
    let recover_from = |tag: &str, batched: bool| -> (u64, Vec<u8>) {
        let dir = tmp_dir(tag);
        let wal = WalConfig::new(dir.clone(), FsyncPolicy::Async);
        let mut log = WalShard::open(wal.clone(), 0).expect("open shard log");
        log.compact(std::slice::from_ref(&snapshot)).expect("write snapshot");
        let mut bytes = Vec::new();
        if batched {
            for chunk in tail.chunks(7) {
                bytes.clear();
                encode_client(
                    &ClientFrame::EventBatch {
                        session,
                        events: chunk.to_vec(),
                    },
                    &mut bytes,
                );
                log.append_frame(&bytes).expect("append batch");
            }
        } else {
            for &(seq, event) in &tail {
                bytes.clear();
                encode_client(
                    &ClientFrame::Event {
                        session,
                        seq,
                        event,
                    },
                    &mut bytes,
                );
                log.append_frame(&bytes).expect("append event");
            }
        }
        drop(log);

        let router = SessionRouter::new(rec.clone(), ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        });
        let report = router.recover(&wal).expect("recover");
        let mut client = Duplex::connect(router.clone());
        client
            .send(&ClientFrame::Hello {
                version: WIRE_VERSION,
            })
            .expect("hello");
        client
            .send(&ClientFrame::Resume {
                session,
                last_seq: 0,
            })
            .expect("resume");
        let mut frames = vec![client
            .recv_timeout(Duration::from_secs(10))
            .expect("recv")
            .expect("resumed frame")];
        for &(seq, event) in &events[end..] {
            client
                .send(&ClientFrame::Event {
                    session,
                    seq,
                    event,
                })
                .expect("tail event");
        }
        client
            .send(&ClientFrame::Close {
                session,
                seq: close_seq,
            })
            .expect("close");
        frames.extend(
            client
                .recv_session_until_closed(session, Duration::from_secs(10))
                .expect("tail frames"),
        );
        router.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        (report.sessions, frames_to_bytes(&frames))
    };

    let v1 = recover_from("v1-log", false);
    let batched = recover_from("batch-log", true);
    assert_eq!(v1.0, 1, "the snapshot restores the one session");
    assert_eq!(
        v1, batched,
        "a v1 Event log must recover byte-identically to an EventBatch log"
    );
    // And both match the never-crashed pipeline from the resume on.
    let mut expected = vec![ServerFrame::Resumed {
        session,
        last_seq: events[end - 1].0,
    }];
    expected.extend(
        run_events_inproc(&rec, session, &PipelineConfig::default(), &events, close_seq)
            .into_iter()
            .filter(|f| frame_seq(f) > events[end - 1].0),
    );
    assert_eq!(v1.1, frames_to_bytes(&expected));
}

#[test]
fn live_v1_events_are_journaled_as_event_batch_records() {
    let session = 2u64;
    let events = session_stream(session);
    let dir = tmp_dir("journal-kind");
    let wal = WalConfig::new(dir.clone(), FsyncPolicy::Async);
    let router = SessionRouter::new(recognizer(), ServeConfig {
        shards: 1,
        wal: Some(wal.clone()),
        ..ServeConfig::default()
    });
    let mut client = Duplex::connect(router.clone());
    client
        .send(&ClientFrame::Hello {
            version: WIRE_VERSION,
        })
        .expect("hello");
    client.send(&ClientFrame::Open { session }).expect("open");
    for &(seq, event) in &events {
        client
            .send(&ClientFrame::Event {
                session,
                seq,
                event,
            })
            .expect("event");
    }
    // A Resume on the owning connection fences the shard: every event
    // ahead of it has been journaled.
    client
        .send(&ClientFrame::Resume {
            session,
            last_seq: 0,
        })
        .expect("resume");
    let resumed = loop {
        let frame = client
            .recv_timeout(Duration::from_secs(10))
            .expect("recv")
            .expect("frame");
        if let ServerFrame::Resumed { .. } = frame {
            break frame;
        }
    };
    assert_eq!(
        resumed,
        ServerFrame::Resumed {
            session,
            last_seq: events.len() as u32,
        }
    );
    let logged = grandma_serve::wal::read_shard(&wal, 0).expect("read log");
    router.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(logged.frames.first(), Some(&ClientFrame::Open { session }));
    let mut journaled = Vec::new();
    for frame in &logged.frames[1..] {
        match frame {
            ClientFrame::EventBatch { session: s, events } => {
                assert_eq!(*s, session);
                assert_eq!(events.len(), 1, "one record per v1 event");
                journaled.extend_from_slice(events);
            }
            other => panic!("live events must be journaled as EventBatch records: {other:?}"),
        }
    }
    assert_eq!(journaled, events);
}

#[test]
fn graceful_shutdown_seals_sessions_for_recovery() {
    // The other half of durability: no crash at all. A router with live
    // sessions shuts down gracefully; its WAL must hold snapshots that
    // a fresh router restores with the exact pipeline state.
    let rec = recognizer();
    let dir = tmp_dir("seal");
    let wal = WalConfig::new(dir.clone(), FsyncPolicy::Sync);
    let config = ServeConfig {
        wal: Some(wal.clone()),
        ..ServeConfig::default()
    };
    let router = SessionRouter::new(rec.clone(), config.clone());
    let mut client = Duplex::connect(router.clone());
    client
        .send(&ClientFrame::Hello {
            version: WIRE_VERSION,
        })
        .expect("hello");
    let events = session_stream(9);
    let cut = (events.len() / 2) as u32;
    client.send(&ClientFrame::Open { session: 9 }).expect("open");
    for &(seq, event) in events.iter().filter(|&&(seq, _)| seq <= cut) {
        client
            .send(&ClientFrame::Event {
                session: 9,
                seq,
                event,
            })
            .expect("event");
    }
    let baseline = run_events_inproc(
        &rec,
        9,
        &PipelineConfig::default(),
        &events,
        events.len() as u32 + 1,
    );
    let want_prefix = baseline
        .iter()
        .filter(|f| frame_seq(f) <= cut)
        .count();
    let mut received = Vec::new();
    while received.len() < want_prefix {
        received.push(
            client
                .recv_timeout(Duration::from_secs(10))
                .expect("recv")
                .expect("prefix frame"),
        );
    }
    router.shutdown();

    let router = SessionRouter::new(rec.clone(), config);
    let report = router.recover(&wal).expect("recover");
    assert_eq!(report.sessions, 1, "the sealed session must come back");
    let mut client = Duplex::connect(router.clone());
    client
        .send(&ClientFrame::Hello {
            version: WIRE_VERSION,
        })
        .expect("hello");
    client
        .send(&ClientFrame::Resume {
            session: 9,
            last_seq: 0,
        })
        .expect("resume");
    match client
        .recv_timeout(Duration::from_secs(10))
        .expect("recv")
        .expect("resumed")
    {
        ServerFrame::Resumed { session, last_seq } => {
            assert_eq!(session, 9);
            assert_eq!(last_seq, cut);
        }
        other => panic!("expected Resumed, got {other:?}"),
    }
    for &(seq, event) in events.iter().filter(|&&(seq, _)| seq > cut) {
        client
            .send(&ClientFrame::Event {
                session: 9,
                seq,
                event,
            })
            .expect("tail event");
    }
    client
        .send(&ClientFrame::Close {
            session: 9,
            seq: events.len() as u32 + 1,
        })
        .expect("close");
    received.extend(
        client
            .recv_session_until_closed(9, Duration::from_secs(10))
            .expect("tail"),
    );
    router.shutdown();
    assert_eq!(
        frames_to_bytes(&received),
        frames_to_bytes(&baseline),
        "graceful shutdown + recovery must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_of_a_foreign_or_unknown_session_is_faulted() {
    let rec = recognizer();
    let router = SessionRouter::new(rec, ServeConfig::default());
    let mut owner = Duplex::connect(router.clone());
    let mut intruder = Duplex::connect(router.clone());
    for client in [&mut owner, &mut intruder] {
        client
            .send(&ClientFrame::Hello {
                version: WIRE_VERSION,
            })
            .expect("hello");
    }
    owner.send(&ClientFrame::Open { session: 5 }).expect("open");
    // A live session owned by another connection must not be stealable
    // — and the fault must be indistinguishable from "never existed".
    intruder
        .send(&ClientFrame::Resume {
            session: 5,
            last_seq: 0,
        })
        .expect("resume");
    intruder
        .send(&ClientFrame::Resume {
            session: 404,
            last_seq: 0,
        })
        .expect("resume unknown");
    for _ in 0..2 {
        let frame = intruder
            .recv_timeout(Duration::from_secs(10))
            .expect("recv")
            .expect("fault");
        assert!(
            matches!(
                frame,
                ServerFrame::Fault {
                    code: grandma_serve::FaultCode::UnknownSession,
                    seq: 0,
                    ..
                }
            ),
            "got {frame:?}"
        );
    }
    router.shutdown();
}
