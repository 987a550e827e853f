//! The harness the serve suites share: one guard for a spawned `serve
//! run` child, a frame-level wire client, the model trainer, the seeded
//! session streams, and the invariants every resumed or moved session
//! must hold.
//!
//! Each suite compiles this module on its own and uses a different part
//! of it, hence the crate-wide `dead_code` allowance.
#![allow(dead_code)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use grandma_core::EagerRecognizer;
use grandma_events::{Button, EventScript, InputEvent};
use grandma_serve::{
    encode_client, encode_server, run_events_inproc, ClientFrame, FrameBuffer, OutcomeKind,
    PipelineConfig, PollBackend, ReconnectingClient, RetryPolicy, ServerFrame, WIRE_VERSION,
};
use grandma_synth::{datasets, FaultInjector, SynthRng};

const SERVE: &str = env!("CARGO_BIN_EXE_serve");

/// A running `serve run` child. It is SIGKILLed and reaped on drop, so a
/// failed assertion unwinding through a drill never leaks a listening
/// server or a zombie.
pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: Option<BufReader<ChildStdout>>,
    /// The address the child printed on its `listening on` line.
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns `serve run <args>` and waits for its `listening on` line.
    pub fn start(args: &[&str]) -> Self {
        let mut child = Command::new(SERVE)
            .arg("run")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn serve");
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("read listening line");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok())
            .unwrap_or_else(|| panic!("unexpected first line {line:?}"));
        Self {
            child,
            stdin,
            stdout: Some(stdout),
            addr,
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGKILL + reap.
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Closes stdin (the graceful-shutdown signal), asserts a clean exit
    /// within 30 s, and returns the metrics JSON the child printed.
    pub fn stop(mut self) -> String {
        drop(self.stdin.take());
        let mut stdout = self.stdout.take().expect("stdout");
        let reader = std::thread::spawn(move || {
            let mut json = String::new();
            let _ = stdout.read_to_string(&mut json);
            json
        });
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(Some(status)) = self.child.try_wait() {
                assert!(status.success(), "serve exited with {status}");
                break;
            }
            assert!(
                Instant::now() < deadline,
                "serve did not shut down within 30 s"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        reader.join().expect("stdout reader")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One raw wire connection, frame by frame: what a test needs to hold
/// a `TcpService` to exact server frames. Unlike `ReconnectingClient`
/// it never retries, numbers nothing and sends only what it is given.
pub struct WireClient {
    stream: TcpStream,
    frames: FrameBuffer,
    chunk: Vec<u8>,
}

impl WireClient {
    /// Connects to `addr` and sends `Hello` at the current version.
    pub fn connect(addr: SocketAddr) -> Self {
        let mut client = Self::raw(addr);
        let hello = ClientFrame::Hello {
            version: WIRE_VERSION,
        };
        client.send(&hello).expect("hello");
        client
    }

    /// Connects to `addr` without a `Hello`.
    pub fn raw(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        Self {
            stream,
            frames: FrameBuffer::new(),
            chunk: vec![0u8; 16 * 1024],
        }
    }

    /// Sends one frame.
    pub fn send(&mut self, frame: &ClientFrame) -> std::io::Result<()> {
        self.send_all(std::slice::from_ref(frame))
    }

    /// Sends `frames` in one write, so the server reads them together.
    pub fn send_all(&mut self, frames: &[ClientFrame]) -> std::io::Result<()> {
        let mut bytes = Vec::new();
        for frame in frames {
            encode_client(frame, &mut bytes);
        }
        self.send_bytes(&bytes)
    }

    /// Sends bytes already encoded.
    pub fn send_bytes(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Half-closes the connection: the server sees EOF and still answers.
    pub fn finish(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Write);
    }

    /// The next server frame, waiting up to `timeout`. `None` on timeout
    /// or when the server closes the connection.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Option<ServerFrame> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(frame) = self.frames.next_server().expect("valid server bytes") {
                return Some(frame);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            self.stream.set_read_timeout(Some(left)).expect("timeout");
            match self.stream.read(&mut self.chunk) {
                Ok(n) if n > 0 => self.frames.extend(&self.chunk[..n]),
                _ => return None,
            }
        }
    }

    /// Up to `count` frames, fewer when the server closes the connection
    /// or `timeout` passes with nothing new.
    pub fn recv_many(&mut self, count: usize, timeout: Duration) -> Vec<ServerFrame> {
        let mut out = Vec::new();
        while out.len() < count {
            match self.recv_timeout(timeout) {
                Some(frame) => out.push(frame),
                None => break,
            }
        }
        out
    }

    /// Frames until the `Closed` outcome of `session` (inclusive), or
    /// until `timeout` passes with nothing new.
    pub fn recv_session_until_closed(
        &mut self,
        session: u64,
        timeout: Duration,
    ) -> Vec<ServerFrame> {
        let mut out = Vec::new();
        while let Some(frame) = self.recv_timeout(timeout) {
            let done = matches!(
                frame,
                ServerFrame::Outcome {
                    session: s,
                    outcome: OutcomeKind::Closed,
                    ..
                } if s == session
            );
            out.push(frame);
            if done {
                break;
            }
        }
        out
    }
}

/// Polls `done` every 2 ms for up to ten seconds; whether it came true.
pub fn eventually(mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    true
}

/// A fresh scratch directory, unique per suite `tag` and test process.
pub fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("grandma-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

pub fn path_str(path: &Path) -> &str {
    path.to_str().expect("utf-8 temp path")
}

/// Trains a model with `serve train --per-class 5` into `dir` and parses
/// it back, so the suite's baselines use the exact classifier the
/// children serve.
pub fn train(dir: &Path) -> (PathBuf, Arc<EagerRecognizer>) {
    let model = dir.join("model.txt");
    let status = Command::new(SERVE)
        .args(["train", "--per-class", "5", "--out", path_str(&model)])
        .stdout(Stdio::null())
        .status()
        .expect("run serve train");
    assert!(status.success(), "serve train failed");
    let rec = EagerRecognizer::from_text(&std::fs::read_to_string(&model).expect("read model"))
        .expect("parse model");
    (model, Arc::new(rec))
}

/// Every readiness backend the host supports; a TCP suite runs once per
/// entry so poll(2) and epoll(7) are held to the same bytes.
pub fn host_backends() -> Vec<PollBackend> {
    let mut backends = vec![PollBackend::Poll];
    if cfg!(target_os = "linux") {
        backends.push(PollBackend::Epoll);
    }
    backends
}

/// Seeded two-gesture event stream for one session; every fourth one
/// fault-injected.
pub fn session_stream(session: u64) -> Vec<InputEvent> {
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

/// Per-frame wire encodings: the unit of the byte-identical and
/// subsequence comparisons.
pub fn wire(frames: &[ServerFrame]) -> Vec<Vec<u8>> {
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
pub fn baseline(rec: &EagerRecognizer, session: u64, events: &[InputEvent]) -> Vec<Vec<u8>> {
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

pub fn is_subsequence(needle: &[Vec<u8>], hay: &[Vec<u8>]) -> bool {
    let mut it = hay.iter();
    needle.iter().all(|n| it.any(|h| h == n))
}

pub fn frame_session(frame: &ServerFrame) -> u64 {
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

/// No foreign frames, strictly increasing outcome seqs, and exactly one
/// `Closed`, last — however often the connection died.
pub fn assert_session_invariants(session: u64, frames: &[ServerFrame]) {
    let mut last_outcome_seq = 0u32;
    let mut closed = 0usize;
    for (i, frame) in frames.iter().enumerate() {
        assert_eq!(
            frame_session(frame),
            session,
            "cross-session contamination: {frame:?}"
        );
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
/// after each event and, with `disconnect_every`, severing the
/// connection every that many events. Returns its frames and how often
/// it reconnected.
pub fn drive(
    addr: SocketAddr,
    session: u64,
    events: &[InputEvent],
    pace: Duration,
    disconnect_every: Option<usize>,
) -> (Vec<ServerFrame>, u64) {
    let policy = RetryPolicy {
        max_attempts: 30,
        base_delay: Duration::from_millis(25),
        max_delay: Duration::from_millis(400),
        request_timeout: Duration::from_secs(10),
        jitter_seed: 0xC0FFEE ^ session,
    };
    let mut client = ReconnectingClient::connect(addr, session, policy).expect("connect");
    for (i, &event) in events.iter().enumerate() {
        if disconnect_every.is_some_and(|k| i > 0 && i.is_multiple_of(k)) {
            client.force_disconnect();
        }
        client.send_event(event).expect("send");
        if !pace.is_zero() {
            std::thread::sleep(pace);
        }
    }
    let frames = client.close().expect("close");
    (frames, client.reconnects())
}

/// Send pacing that keeps every `sessions` stream in flight for about
/// `2 * kill_after_ms + 1 s`, so a kill at `kill_after_ms` lands while
/// each session is mid-stream and each finishes only after recovery.
pub fn pace_for_kill(sessions: std::ops::RangeInclusive<u64>, kill_after_ms: u64) -> Duration {
    let max_events = sessions
        .map(|s| session_stream(s).len())
        .max()
        .unwrap_or(1)
        .max(1);
    Duration::from_micros((kill_after_ms * 2 + 1000) * 1000 / max_events as u64)
}
