//! A reconnecting wire client: retry, timeout, backoff, and seq-based
//! session resume over TCP.
//!
//! [`ReconnectingClient`] drives **one** session over a TCP connection
//! it is prepared to lose at any moment. Every event is numbered from 1
//! and held in an unacked window until a server frame proves it was
//! processed; when the connection dies the client redials with
//! exponential backoff plus deterministic jitter, sends
//! `Resume { session, last_seq }`, and the **server** answers
//! `Resumed { last_seq }` with what *it* processed — the client then
//! re-sends exactly the window entries above that mark. The server
//! replays nothing and never duplicates an outcome; the client is the
//! retry side of the protocol (DESIGN.md §14).
//!
//! Give-up is typed: [`ClientError::GaveUp`] carries the attempt count
//! and the final I/O error, [`ClientError::Timeout`] the deadline that
//! expired, [`ClientError::Rejected`] the server fault. A caller can
//! distinguish "the service is down" from "my session is gone".
//!
//! Known limitation: a `Fault(Busy)` does not advance the window (the
//! event was *not* processed), but the client does not re-send
//! busy-bounced events either — chaos harnesses should provision queue
//! capacity so sustained `Busy` is not part of the experiment.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use grandma_events::InputEvent;

use crate::wire::{
    encode_client, ClientFrame, FaultCode, FrameBuffer, OutcomeKind, ServerFrame, WireError,
    WIRE_VERSION,
};

/// Retry/timeout/backoff tuning for [`ReconnectingClient`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Dial-and-resume attempts per operation before giving up.
    pub max_attempts: u32,
    /// First backoff delay; doubles per failed attempt.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Per-request deadline: how long one read/write (or one wait for a
    /// specific reply) may take.
    pub request_timeout: Duration,
    /// Seed for the deterministic backoff jitter.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_secs(1),
            request_timeout: Duration::from_secs(5),
            jitter_seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

/// Why a [`ReconnectingClient`] operation failed for good.
#[derive(Debug)]
pub enum ClientError {
    /// Every reconnect attempt failed; carries the final I/O error.
    GaveUp {
        /// Attempts made (= the policy's `max_attempts`).
        attempts: u32,
        /// The error the last attempt died on.
        last: std::io::Error,
    },
    /// A reply the client was owed did not arrive within the deadline.
    Timeout {
        /// The deadline that expired.
        waited: Duration,
    },
    /// The server faulted the session (e.g. `UnknownSession` on resume:
    /// the session is gone and cannot be recovered from this side).
    Rejected {
        /// The wire fault code.
        code: FaultCode,
    },
    /// The server answered `NotOwner`: the cluster ring maps the session
    /// to another node. The caller should [`ReconnectingClient::redirect`]
    /// there and retry.
    Redirected {
        /// The owning node's address.
        owner: SocketAddr,
    },
    /// The server sent bytes that do not decode.
    Protocol(WireError),
    /// The server closed the connection while a reply was outstanding
    /// and reconnecting did not help.
    ServerClosed,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::GaveUp { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
            ClientError::Timeout { waited } => {
                write!(f, "no reply within {waited:?}")
            }
            ClientError::Rejected { code } => write!(f, "server rejected session: {code:?}"),
            ClientError::Redirected { owner } => {
                write!(f, "session is owned by another node: {owner}")
            }
            ClientError::Protocol(e) => write!(f, "undecodable server bytes: {e}"),
            ClientError::ServerClosed => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Protocol(e)
    }
}

/// Attempt `n`'s pre-jitter dial backoff: `base_delay` doubling per
/// failed attempt, saturating at `max_delay`. Attempt numbering starts
/// at 1 (attempts 0 and 1 both map to the base delay).
fn backoff_delay(policy: &RetryPolicy, attempt: u32) -> Duration {
    let shift = attempt.saturating_sub(1).min(31);
    policy
        .base_delay
        .saturating_mul(1u32 << shift)
        .min(policy.max_delay)
}

/// Half-to-full jitter on `delay`, driven by an LCG so chaos runs are
/// reproducible: returns a duration in `[delay/2, delay]`.
fn jittered(rng: &mut u64, delay: Duration) -> Duration {
    *rng = rng
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    let frac = ((*rng >> 33) as f64) / ((1u64 << 31) as f64);
    let half = delay.as_secs_f64() / 2.0;
    Duration::from_secs_f64(half + half * frac)
}

/// Drops window entries proven processed: everything with
/// `seq <= acked`.
fn prune_window(window: &mut VecDeque<(u32, InputEvent)>, acked: u32) {
    while window.front().is_some_and(|&(seq, _)| seq <= acked) {
        window.pop_front();
    }
}

/// The seq a server frame proves processing through, if any. `Fault`s
/// prove nothing: a `Busy` bounce in particular means the event was
/// *not* fed.
fn acked_seq(frame: &ServerFrame, session: u64) -> Option<u32> {
    match *frame {
        ServerFrame::Recognized {
            session: s, seq, ..
        }
        | ServerFrame::Manipulate {
            session: s, seq, ..
        }
        | ServerFrame::Outcome {
            session: s, seq, ..
        } if s == session => Some(seq),
        _ => None,
    }
}

/// A TCP wire client for one session that transparently survives
/// connection loss. See the module docs for the resume protocol.
pub struct ReconnectingClient {
    addr: SocketAddr,
    policy: RetryPolicy,
    session: u64,
    rng: u64,
    stream: Option<TcpStream>,
    frames: FrameBuffer,
    chunk: Vec<u8>,
    scratch: Vec<u8>,
    /// Next event seq to assign; events are numbered from 1 so the
    /// server's `last_seq = 0` unambiguously means "nothing processed".
    next_seq: u32,
    /// Sent-but-unproven events, oldest first, re-sent on resume.
    window: VecDeque<(u32, InputEvent)>,
    /// Frames received for the session, in arrival order.
    inbox: Vec<ServerFrame>,
    /// `true` once the session's `Closed` outcome arrived.
    closed_seen: bool,
    /// Seq assigned to the session's `Close`, once: a retried close
    /// (e.g. after a cluster re-route) must not renumber it, or the
    /// terminal outcome's seq would drift from the single-run truth.
    close_seq: Option<u32>,
    /// Ever sent `Open` (reconnects use `Resume` from then on).
    opened: bool,
    reconnects: u64,
    resent_events: u64,
}

impl ReconnectingClient {
    /// Dials `addr`, performs the `Hello` handshake, and opens
    /// `session`.
    pub fn connect(
        addr: SocketAddr,
        session: u64,
        policy: RetryPolicy,
    ) -> Result<Self, ClientError> {
        let mut client = Self {
            addr,
            policy,
            session,
            rng: policy.jitter_seed ^ session,
            stream: None,
            frames: FrameBuffer::new(),
            chunk: vec![0u8; 16 * 1024],
            scratch: Vec::new(),
            next_seq: 1,
            window: VecDeque::new(),
            inbox: Vec::new(),
            closed_seen: false,
            close_seq: None,
            opened: false,
            reconnects: 0,
            resent_events: 0,
        };
        client.ensure_connected()?;
        Ok(client)
    }

    /// Times the connection has been re-established after loss.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Window events re-sent across all resumes.
    pub fn resent_events(&self) -> u64 {
        self.resent_events
    }

    /// The session this client drives.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Frames received so far, in order; the internal inbox is drained.
    pub fn take_frames(&mut self) -> Vec<ServerFrame> {
        std::mem::take(&mut self.inbox)
    }

    /// The address the client currently dials.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Cluster redirect: point the client at `addr` and drop the live
    /// connection, so the next operation dials the new node and
    /// `Resume`s the session there. Used when a server answers
    /// `NotOwner { owner }` after a ring change.
    pub fn redirect(&mut self, addr: SocketAddr) {
        if self.addr != addr {
            self.addr = addr;
            self.drop_stream();
        }
    }

    /// Sent-but-unproven events still in the resume window. When this
    /// is 0 every event the client sent has been acked by a reply
    /// frame, and — replies being FIFO per connection — every frame the
    /// server generated for those events has been received.
    pub fn unacked_events(&self) -> usize {
        self.window.len()
    }

    /// Reads whatever the server has sent (waiting up to `wait` for
    /// bytes to arrive) and files it in the inbox without writing
    /// anything: lets callers collect asynchronous outcome frames
    /// between events.
    pub fn pump(&mut self, wait: Duration) -> Result<(), ClientError> {
        self.ensure_connected()?;
        if let Some(stream) = self.stream.as_mut() {
            let _ = stream.set_read_timeout(Some(wait.max(Duration::from_millis(1))));
        }
        let read = self.read_once();
        if let Some(stream) = self.stream.as_mut() {
            let _ = stream.set_read_timeout(Some(self.policy.request_timeout));
        }
        read?;
        self.pump_frames()
    }

    /// The seq assigned to the most recent event (0 before any event).
    /// Lets a routing layer recover the seq of an event whose
    /// `send_event` failed mid-redirect: the event stays in the window
    /// and is re-sent by the resume, so the seq is still valid.
    pub fn last_assigned_seq(&self) -> u32 {
        self.next_seq.wrapping_sub(1)
    }

    /// Dials, handshakes, and opens or resumes the session now if the
    /// connection is down; a no-op while connected. Routing layers call
    /// this after [`ReconnectingClient::redirect`] so the resume (and
    /// the window re-send it implies) happens eagerly rather than on
    /// the next event.
    pub fn reconnect(&mut self) -> Result<(), ClientError> {
        self.ensure_connected()
    }

    /// Test/chaos hook: kill the connection abruptly. The next
    /// operation reconnects and resumes.
    pub fn force_disconnect(&mut self) {
        if let Some(stream) = self.stream.take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// Sends one event (assigning and returning its seq) and
    /// opportunistically drains any replies into the inbox. Reconnects
    /// and re-sends the unacked window as needed.
    pub fn send_event(&mut self, event: InputEvent) -> Result<u32, ClientError> {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        self.window.push_back((seq, event));
        self.ensure_connected()?;
        let frame = ClientFrame::Event {
            session: self.session,
            seq,
            event,
        };
        if self.write_frame(&frame).is_err() {
            // The resume inside re-sends this event from the window.
            self.drop_stream();
            self.ensure_connected()?;
        }
        self.drain_available()?;
        Ok(seq)
    }

    /// Closes the session and waits for its terminal `Closed` outcome,
    /// returning every frame received over the client's lifetime (the
    /// drained inbox). A session the server no longer knows (it was
    /// closed before the connection died) counts as closed.
    pub fn close(&mut self) -> Result<Vec<ServerFrame>, ClientError> {
        let seq = match self.close_seq {
            Some(seq) => seq,
            None => {
                let seq = self.next_seq;
                self.next_seq = self.next_seq.wrapping_add(1);
                self.close_seq = Some(seq);
                seq
            }
        };
        let mut attempts = 0u32;
        while !self.closed_seen {
            attempts += 1;
            let result = self
                .ensure_connected()
                .and_then(|()| {
                    self.write_frame(&ClientFrame::Close {
                        session: self.session,
                        seq,
                    })
                    .map_err(|_| ClientError::ServerClosed)
                })
                .and_then(|()| self.wait_closed());
            match result {
                Ok(()) => break,
                // The session being unknown after a reconnect means the
                // Close landed before the connection died.
                Err(ClientError::Rejected {
                    code: FaultCode::UnknownSession,
                }) => break,
                Err(e) if attempts >= self.policy.max_attempts => return Err(e),
                Err(_) => self.drop_stream(),
            }
        }
        Ok(self.take_frames())
    }

    /// Reads until the session's `Closed` outcome arrives or the
    /// request deadline expires.
    fn wait_closed(&mut self) -> Result<(), ClientError> {
        let deadline = Instant::now() + self.policy.request_timeout;
        while !self.closed_seen {
            if Instant::now() >= deadline {
                return Err(ClientError::Timeout {
                    waited: self.policy.request_timeout,
                });
            }
            self.read_once()?;
            self.pump_frames()?;
        }
        Ok(())
    }

    /// Drains whatever replies are already buffered without blocking
    /// meaningfully (1 ms read timeout).
    fn drain_available(&mut self) -> Result<(), ClientError> {
        let Some(stream) = self.stream.as_mut() else {
            return Ok(());
        };
        let _ = stream.set_read_timeout(Some(Duration::from_millis(1)));
        loop {
            match self.read_raw() {
                Ok(0) => break,
                Ok(_) => {}
                Err(_) => break,
            }
        }
        if let Some(stream) = self.stream.as_mut() {
            let _ = stream.set_read_timeout(Some(self.policy.request_timeout));
        }
        self.pump_frames()
    }

    /// One read respecting the stream's current timeout; a clean server
    /// EOF or I/O error drops the stream and reports `ServerClosed`.
    fn read_once(&mut self) -> Result<(), ClientError> {
        match self.read_raw() {
            Ok(0) => Ok(()),
            Ok(_) => Ok(()),
            Err(_) => {
                self.drop_stream();
                Err(ClientError::ServerClosed)
            }
        }
    }

    /// Reads into the frame buffer. Returns bytes read (0 on timeout);
    /// EOF is an error (the server never half-closes first).
    fn read_raw(&mut self) -> std::io::Result<usize> {
        let Some(stream) = self.stream.as_mut() else {
            return Err(std::io::Error::from(std::io::ErrorKind::NotConnected));
        };
        match stream.read(&mut self.chunk) {
            Ok(0) => Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof)),
            Ok(n) => {
                self.frames.extend(self.chunk.get(..n).unwrap_or(&[]));
                Ok(n)
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Ok(0)
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Ok(0),
            Err(e) => Err(e),
        }
    }

    /// Decodes every complete frame: prunes the window on proof of
    /// processing, files session frames in the inbox, flags `Closed`.
    fn pump_frames(&mut self) -> Result<(), ClientError> {
        while let Some(frame) = self.frames.next_server()? {
            if let Some(acked) = acked_seq(&frame, self.session) {
                prune_window(&mut self.window, acked);
            }
            if let ServerFrame::Outcome {
                session,
                outcome: OutcomeKind::Closed,
                ..
            } = frame
            {
                if session == self.session {
                    self.closed_seen = true;
                }
            }
            self.inbox.push(frame);
        }
        Ok(())
    }

    fn drop_stream(&mut self) {
        self.force_disconnect();
    }

    /// Dials (with backoff + jitter), handshakes, and opens or resumes
    /// the session, re-sending the unacked window per the server's
    /// `Resumed.last_seq`. No-op while connected.
    fn ensure_connected(&mut self) -> Result<(), ClientError> {
        if self.stream.is_some() {
            return Ok(());
        }
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            match self.try_session_handshake() {
                Ok(()) => {
                    if attempts > 1 || self.opened {
                        self.reconnects += 1;
                    }
                    self.opened = true;
                    return Ok(());
                }
                // The session is truly gone (or owned elsewhere):
                // backoff cannot fix that... except right after a crash
                // of *our* connection, when the server may not have
                // detached it yet — so retry within the attempt budget
                // before surfacing.
                Err(ClientError::Rejected { code }) if attempts >= self.policy.max_attempts => {
                    return Err(ClientError::Rejected { code });
                }
                // A redirect is authoritative routing, not a transient
                // failure: surface it immediately so the caller can
                // re-dial the owning node.
                Err(ClientError::Redirected { owner }) => {
                    self.drop_stream();
                    return Err(ClientError::Redirected { owner });
                }
                Err(e) => {
                    self.drop_stream();
                    if attempts >= self.policy.max_attempts {
                        return Err(match e {
                            // Stamp the real attempt count over the
                            // per-dial placeholder.
                            ClientError::GaveUp { last, .. } => {
                                ClientError::GaveUp { attempts, last }
                            }
                            ClientError::Rejected { .. } | ClientError::Protocol(_) => e,
                            _ => ClientError::GaveUp {
                                attempts,
                                last: std::io::Error::from(std::io::ErrorKind::ConnectionReset),
                            },
                        });
                    }
                    std::thread::sleep(jittered(
                        &mut self.rng,
                        backoff_delay(&self.policy, attempts),
                    ));
                }
            }
        }
    }

    /// One dial + handshake + open/resume attempt.
    fn try_session_handshake(&mut self) -> Result<(), ClientError> {
        let stream = TcpStream::connect_timeout(&self.addr, self.policy.request_timeout)
            .map_err(|last| ClientError::GaveUp { attempts: 1, last })?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(self.policy.request_timeout));
        let _ = stream.set_write_timeout(Some(self.policy.request_timeout));
        // Stale half-frames from the old connection must not leak in.
        self.frames = FrameBuffer::new();
        self.stream = Some(stream);
        self.write_frame(&ClientFrame::Hello {
            version: WIRE_VERSION,
        })
        .map_err(|_| ClientError::ServerClosed)?;
        if !self.opened {
            self.write_frame(&ClientFrame::Open {
                session: self.session,
            })
            .map_err(|_| ClientError::ServerClosed)?;
            return Ok(());
        }
        // Resume: tell the server what we think, obey what it answers.
        let believed = self
            .window
            .front()
            .map(|&(seq, _)| seq.saturating_sub(1))
            .unwrap_or(self.next_seq.saturating_sub(1));
        self.write_frame(&ClientFrame::Resume {
            session: self.session,
            last_seq: believed,
        })
        .map_err(|_| ClientError::ServerClosed)?;
        let server_last = self.await_resumed()?;
        prune_window(&mut self.window, server_last);
        // Re-send everything the server has not processed.
        let pending: Vec<(u32, InputEvent)> = self.window.iter().copied().collect();
        for (seq, event) in pending {
            self.write_frame(&ClientFrame::Event {
                session: self.session,
                seq,
                event,
            })
            .map_err(|_| ClientError::ServerClosed)?;
            self.resent_events += 1;
        }
        Ok(())
    }

    /// Waits for `Resumed` (returning the server's `last_seq`) or the
    /// resume-rejecting fault.
    fn await_resumed(&mut self) -> Result<u32, ClientError> {
        let deadline = Instant::now() + self.policy.request_timeout;
        loop {
            // Resumed/Fault may arrive interleaved with nothing else on
            // a fresh connection, but scan defensively.
            while let Some(frame) = self.frames.next_server()? {
                match frame {
                    ServerFrame::Resumed { session, last_seq } if session == self.session => {
                        return Ok(last_seq);
                    }
                    ServerFrame::Fault { session, code, .. } if session == self.session => {
                        return Err(ClientError::Rejected { code });
                    }
                    ServerFrame::NotOwner { session, owner } if session == self.session => {
                        return Err(ClientError::Redirected { owner });
                    }
                    other => {
                        if let Some(acked) = acked_seq(&other, self.session) {
                            prune_window(&mut self.window, acked);
                        }
                        self.inbox.push(other);
                    }
                }
            }
            if Instant::now() >= deadline {
                return Err(ClientError::Timeout {
                    waited: self.policy.request_timeout,
                });
            }
            self.read_once()?;
        }
    }

    /// Encodes and writes one frame on the live stream.
    fn write_frame(&mut self, frame: &ClientFrame) -> std::io::Result<()> {
        let Some(stream) = self.stream.as_mut() else {
            return Err(std::io::Error::from(std::io::ErrorKind::NotConnected));
        };
        self.scratch.clear();
        encode_client(frame, &mut self.scratch);
        stream.write_all(&self.scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{ServeConfig, SessionRouter};
    use crate::tcp::TcpService;
    use grandma_core::{EagerConfig, EagerRecognizer, FeatureMask};
    use grandma_events::{Button, EventScript};
    use grandma_synth::datasets;
    use std::sync::Arc;

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let delay = Duration::from_millis(100);
        let mut a = 42u64;
        let mut b = 42u64;
        for _ in 0..64 {
            let da = jittered(&mut a, delay);
            let db = jittered(&mut b, delay);
            assert_eq!(da, db, "same seed, same jitter");
            assert!(da >= delay / 2 && da <= delay, "out of band: {da:?}");
        }
        let mut c = 43u64;
        let diverged = (0..64).any(|_| jittered(&mut a, delay) != jittered(&mut c, delay));
        assert!(diverged, "different seeds should diverge");
    }

    #[test]
    fn backoff_schedule_is_capped_exponential_with_seeded_jitter() {
        let policy = RetryPolicy::default();
        // The pre-jitter schedule: 10 ms doubling, pinned to the 1 s cap.
        let expected_ms = [10u64, 20, 40, 80, 160, 320, 640, 1000, 1000, 1000];
        for (i, &ms) in expected_ms.iter().enumerate() {
            assert_eq!(
                backoff_delay(&policy, i as u32 + 1),
                Duration::from_millis(ms),
                "attempt {}",
                i + 1
            );
        }
        // Attempt numbering starts at 1; the cap holds arbitrarily far out
        // (the shift saturates rather than overflowing).
        assert_eq!(backoff_delay(&policy, 0), policy.base_delay);
        assert_eq!(backoff_delay(&policy, u32::MAX), policy.max_delay);
        // The jitter stream a client would use (seed xor session id) is
        // deterministic and confined to half-to-full of each delay.
        let mut rng = policy.jitter_seed ^ 7;
        let mut replay = policy.jitter_seed ^ 7;
        for attempt in 1..=10u32 {
            let delay = backoff_delay(&policy, attempt);
            let jittered_delay = jittered(&mut rng, delay);
            assert_eq!(
                jittered_delay,
                jittered(&mut replay, delay),
                "same seed must replay the same schedule"
            );
            assert!(
                jittered_delay >= delay / 2 && jittered_delay <= delay,
                "attempt {attempt}: {jittered_delay:?} outside [{:?}, {delay:?}]",
                delay / 2
            );
        }
    }

    #[test]
    fn window_prunes_only_proven_seqs() {
        use grandma_events::EventKind;
        let ev = |seq: u32| {
            (
                seq,
                InputEvent::new(EventKind::MouseMove, 0.0, 0.0, seq as f64),
            )
        };
        let mut window: VecDeque<(u32, InputEvent)> = (1..=5).map(ev).collect();
        prune_window(&mut window, 0);
        assert_eq!(window.len(), 5, "last_seq 0 = nothing processed");
        prune_window(&mut window, 3);
        assert_eq!(window.front().map(|&(s, _)| s), Some(4));
        // Faults (e.g. Busy) must not ack anything.
        let fault = ServerFrame::Fault {
            session: 9,
            seq: 5,
            code: FaultCode::Busy,
        };
        assert_eq!(acked_seq(&fault, 9), None);
        let outcome = ServerFrame::Outcome {
            session: 9,
            seq: 5,
            outcome: OutcomeKind::Recognized,
            class: None,
            total_points: 0,
            faults: 0,
        };
        assert_eq!(acked_seq(&outcome, 9), Some(5));
        assert_eq!(acked_seq(&outcome, 8), None, "foreign session");
    }

    #[test]
    fn give_up_is_typed_and_bounded() {
        // Bind then drop: the port refuses connections quickly.
        let addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr")
        };
        let policy = RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(4),
            request_timeout: Duration::from_millis(200),
            ..RetryPolicy::default()
        };
        let started = Instant::now();
        match ReconnectingClient::connect(addr, 1, policy) {
            Err(ClientError::GaveUp { attempts, .. }) => assert_eq!(attempts, 3),
            other => panic!(
                "expected GaveUp, got {other:?}",
                other = other.map(|_| "Ok")
            ),
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "bounded backoff must not hang"
        );
    }

    fn recognizer() -> Arc<EagerRecognizer> {
        let data = datasets::eight_way(0x2b2b, 10, 0);
        let (rec, _) =
            EagerRecognizer::train(&data.training, &FeatureMask::all(), &EagerConfig::default())
                .expect("training succeeds");
        Arc::new(rec)
    }

    #[test]
    fn client_survives_forced_disconnect_without_duplicate_outcomes() {
        let config = ServeConfig {
            detach_on_disconnect: true,
            ..ServeConfig::default()
        };
        let mut service =
            TcpService::start(SessionRouter::new(recognizer(), config), "127.0.0.1:0")
                .expect("bind");
        let data = datasets::eight_way(0x7e57, 0, 2);
        let events = EventScript::new()
            .then_gesture(&data.testing[0].gesture, Button::Left)
            .then_gesture(&data.testing[1].gesture, Button::Left)
            .into_events();
        let policy = RetryPolicy {
            base_delay: Duration::from_millis(5),
            ..RetryPolicy::default()
        };
        let mut client =
            ReconnectingClient::connect(service.local_addr(), 11, policy).expect("connect");
        let cut = events.len() / 2;
        for (i, &event) in events.iter().enumerate() {
            if i == cut {
                client.force_disconnect();
            }
            client.send_event(event).expect("send survives disconnect");
        }
        let frames = client.close().expect("close");
        assert!(client.reconnects() >= 1, "must have reconnected");
        // Exactly one terminal Closed, and no outcome seq seen twice:
        // the server replays nothing.
        let closed = frames
            .iter()
            .filter(|f| {
                matches!(
                    f,
                    ServerFrame::Outcome {
                        outcome: OutcomeKind::Closed,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(closed, 1, "exactly one Closed: {frames:?}");
        let mut outcome_seqs: Vec<u32> = frames
            .iter()
            .filter_map(|f| match f {
                ServerFrame::Outcome { seq, .. } => Some(*seq),
                _ => None,
            })
            .collect();
        let before = outcome_seqs.len();
        outcome_seqs.dedup();
        assert_eq!(outcome_seqs.len(), before, "duplicate outcome seqs");
        service.shutdown();
    }
}
