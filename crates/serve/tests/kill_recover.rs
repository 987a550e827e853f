//! Process-level crash drill: the real `serve` binary under `--wal sync`
//! is SIGKILLed mid-load, its WAL directory is frozen as a crash image,
//! and a restart with `--recover` must let every client resume and
//! finish through the crash.
//!
//! - Each crashed session's frames are a subsequence of the never-crashed
//!   in-process baseline (frames in flight at the kill are lost, never
//!   altered), with no foreign frames, no duplicate outcome and exactly
//!   one `Closed`, last.
//! - Fresh control sessions against the recovered server are
//!   byte-identical to the baseline.
//! - The frozen crash image replays through `SessionRouter::recover`.
//!
//! `tests/recovery.rs` pins the same guarantees hermetically, with a
//! point-in-time copy of the WAL in place of the SIGKILL.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use grandma_core::EagerRecognizer;
use grandma_events::{Button, EventScript, InputEvent};
use grandma_serve::{
    encode_server, run_events_inproc, FsyncPolicy, OutcomeKind, PipelineConfig, ReconnectingClient,
    RetryPolicy, ServeConfig, ServerFrame, SessionRouter, WalConfig,
};
use grandma_synth::{datasets, FaultInjector, SynthRng};

const SERVE: &str = env!("CARGO_BIN_EXE_serve");

/// Sessions driven through the crash, and again as the control group.
const SESSIONS: u64 = 12;
/// The SIGKILL lands this long into the load.
const KILL_AFTER_MS: u64 = 400;

/// A running `serve run`, SIGKILLed and reaped on drop — also when a
/// failed assertion unwinds through the drill.
struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
}

impl Server {
    /// Spawns `serve run` on `addr` with a sync WAL in `wal`, recovering
    /// from it first when `recover`, and waits for the listening line.
    fn start(model: &Path, addr: &str, wal: &Path, recover: bool) -> Self {
        let mut cmd = Command::new(SERVE);
        cmd.arg("run")
            .arg("--model")
            .arg(model)
            .args(["--addr", addr, "--wal", "sync", "--wal-dir"])
            .arg(wal);
        if recover {
            cmd.arg("--recover").arg(wal);
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn serve");
        let stdin = child.stdin.take();
        let mut server = Self { child, stdin };
        let stdout = server.child.stdout.take().expect("stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read listening line");
        assert!(
            line.starts_with("listening on "),
            "unexpected first line {line:?}"
        );
        server
    }

    /// SIGKILL + reap.
    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Closes stdin — the graceful-shutdown signal — and waits for a
    /// clean exit.
    fn stop(mut self) {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                assert!(status.success(), "recovered serve exited with {status}");
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        panic!("serve did not shut down within 30 s");
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Seeded two-gesture event stream for one session; every fourth one
/// fault-injected.
fn session_stream(session: u64) -> Vec<InputEvent> {
    let data = datasets::eight_way(0x7e57, 0, 8);
    let mut rng = SynthRng::seed_from_u64(0x10AD ^ session.wrapping_mul(0x9E37_79B9));
    let mut script = EventScript::new();
    for _ in 0..2 {
        let idx = (rng.next_u64() as usize) % data.testing.len();
        script = script.then_gesture(&data.testing[idx].gesture, Button::Left);
    }
    let events = script.into_events();
    if session.is_multiple_of(4) {
        FaultInjector::new(0xBAD ^ session).corrupt(&events)
    } else {
        events
    }
}

fn wire(frames: &[ServerFrame]) -> Vec<Vec<u8>> {
    frames
        .iter()
        .map(|frame| {
            let mut bytes = Vec::new();
            encode_server(frame, &mut bytes);
            bytes
        })
        .collect()
}

/// The never-crashed pipeline's frames for `events`, numbered from 1 as
/// the reconnecting client numbers them.
fn baseline(rec: &EagerRecognizer, session: u64, events: &[InputEvent]) -> Vec<Vec<u8>> {
    let seqd: Vec<(u32, InputEvent)> = events
        .iter()
        .enumerate()
        .map(|(i, &e)| (i as u32 + 1, e))
        .collect();
    let close_seq = events.len() as u32 + 1;
    wire(&run_events_inproc(
        rec,
        session,
        &PipelineConfig::default(),
        &seqd,
        close_seq,
    ))
}

fn is_subsequence(needle: &[Vec<u8>], hay: &[Vec<u8>]) -> bool {
    let mut it = hay.iter();
    needle.iter().all(|n| it.any(|h| h == n))
}

/// No foreign frames, strictly increasing outcome seqs, and exactly one
/// `Closed`, last — however often the connection died.
fn assert_session_invariants(session: u64, frames: &[ServerFrame]) {
    let mut last_outcome_seq = 0u32;
    let mut closed = 0usize;
    for (i, frame) in frames.iter().enumerate() {
        let owner = match *frame {
            ServerFrame::Recognized { session, .. }
            | ServerFrame::Manipulate { session, .. }
            | ServerFrame::Outcome { session, .. }
            | ServerFrame::Fault { session, .. }
            | ServerFrame::Resumed { session, .. }
            | ServerFrame::HandoffAck { session, .. }
            | ServerFrame::NotOwner { session, .. } => session,
        };
        assert_eq!(owner, session, "cross-session contamination: {frame:?}");
        if let ServerFrame::Outcome { seq, outcome, .. } = frame {
            assert!(
                *seq > last_outcome_seq || (*seq == 0 && last_outcome_seq == 0),
                "session {session}: outcome seq {seq} after {last_outcome_seq}"
            );
            last_outcome_seq = *seq;
            if *outcome == OutcomeKind::Closed {
                closed += 1;
                assert_eq!(
                    i,
                    frames.len() - 1,
                    "session {session}: frames after Closed"
                );
            }
        }
    }
    assert_eq!(closed, 1, "session {session}: {closed} Closed outcomes");
}

/// Drives one session through a `ReconnectingClient`, sleeping `pace`
/// after each event. Returns its frames and how often it reconnected.
fn drive(
    addr: SocketAddr,
    session: u64,
    events: &[InputEvent],
    pace: Duration,
) -> (Vec<ServerFrame>, u64) {
    let policy = RetryPolicy {
        max_attempts: 30,
        base_delay: Duration::from_millis(25),
        max_delay: Duration::from_millis(400),
        request_timeout: Duration::from_secs(10),
        jitter_seed: 0xC0FFEE ^ session,
    };
    let mut client = ReconnectingClient::connect(addr, session, policy).expect("connect");
    for &event in events {
        client.send_event(event).expect("send");
        if !pace.is_zero() {
            std::thread::sleep(pace);
        }
    }
    let frames = client.close().expect("close");
    (frames, client.reconnects())
}

fn copy_wal_image(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("mkdir image");
    for entry in std::fs::read_dir(from).expect("read wal dir").flatten() {
        if entry.file_name().to_string_lossy().starts_with("shard-") {
            std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy wal file");
        }
    }
}

fn tmp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("grandma-kill-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

#[test]
fn sigkill_mid_load_then_recover_resumes_every_session() {
    let dir = tmp_dir();
    let model = dir.join("model.txt");
    let status = Command::new(SERVE)
        .args(["train", "--per-class", "5", "--out"])
        .arg(&model)
        .stdout(Stdio::null())
        .status()
        .expect("run serve train");
    assert!(status.success(), "serve train failed");
    let rec = Arc::new(
        EagerRecognizer::from_text(&std::fs::read_to_string(&model).expect("read model"))
            .expect("parse model"),
    );

    // A fixed port, so clients can redial the restarted server.
    let addr_str = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe port");
        probe.local_addr().expect("probe addr").to_string()
    };
    let addr: SocketAddr = addr_str.parse().expect("addr");
    let wal = dir.join("wal");
    let image = dir.join("wal-kill-image");
    let first = Server::start(&model, &addr_str, &wal, false);

    // Pace sends so every session still has events in flight when the
    // SIGKILL lands, and finishes only after recovery.
    let max_events = (1..=SESSIONS)
        .map(|s| session_stream(s).len())
        .max()
        .unwrap_or(1);
    let pace = Duration::from_micros((KILL_AFTER_MS * 2 + 1000) * 1000 / max_events as u64);

    let (recovered, reconnects) = std::thread::scope(|scope| {
        let killer = scope.spawn(|| {
            std::thread::sleep(Duration::from_millis(KILL_AFTER_MS));
            first.kill();
            // Freeze the crash image before the recovering server
            // compacts the log.
            copy_wal_image(&wal, &image);
            Server::start(&model, &addr_str, &wal, true)
        });
        let clients: Vec<_> = (1..=SESSIONS)
            .map(|session| {
                let rec = rec.clone();
                scope.spawn(move || {
                    let events = session_stream(session);
                    let (frames, reconnects) = drive(addr, session, &events, pace);
                    assert_session_invariants(session, &frames);
                    assert!(
                        is_subsequence(&wire(&frames), &baseline(&rec, session, &events)),
                        "crashed session {session}: frames are not a subsequence of the baseline"
                    );
                    reconnects
                })
            })
            .collect();
        let reconnects: u64 = clients.into_iter().map(|c| c.join().expect("client")).sum();
        (killer.join().expect("killer"), reconnects)
    });
    assert!(
        reconnects >= 1,
        "the kill landed after every client finished"
    );

    // Control group: fresh sessions against the recovered server.
    std::thread::scope(|scope| {
        for session in 1001..=(1000 + SESSIONS) {
            let rec = rec.clone();
            scope.spawn(move || {
                let events = session_stream(session);
                let (frames, _) = drive(addr, session, &events, Duration::ZERO);
                assert_session_invariants(session, &frames);
                assert_eq!(
                    wire(&frames),
                    baseline(&rec, session, &events),
                    "post-recovery session {session}: frames must be byte-identical"
                );
            });
        }
    });
    recovered.stop();

    // The frozen crash image replays.
    let router = SessionRouter::new(
        rec,
        ServeConfig {
            shards: 4,
            queue_capacity: 1 << 15,
            ..ServeConfig::default()
        },
    );
    let report = router
        .recover(&WalConfig::new(&image, FsyncPolicy::Async))
        .expect("replay crash image");
    router.shutdown();
    assert!(report.sessions > 0 && report.frames > 0, "{report:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
