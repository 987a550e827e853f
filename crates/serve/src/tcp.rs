//! The TCP front-end: a readiness-driven reactor. One blocking accept
//! thread hands nonblocking sockets to a small pool of I/O threads
//! (default `min(4, cores)`), each running a [`crate::sys::Poller`]
//! loop — epoll(7) on Linux by default, poll(2) elsewhere or on request
//! ([`PollBackend`]) — that multiplexes hundreds of thousands of
//! connections through a per-connection frame state machine: read
//! buffer → [`FrameBuffer`] decode → dispatch to the [`SessionRouter`];
//! reply frames are encoded into a per-connection pending-write buffer
//! drained when the socket is writable. The I/O layer only decodes,
//! encodes, and forwards — all session state stays on shard threads
//! (DESIGN.md §13).
//!
//! Readiness dispatch is O(ready), not O(open): each connection
//! registers with the poller once at accept (token = conn id, waker
//! pipe = token 0), the reactor tracks the interest mask it last
//! installed in each connection's state and issues a modify only on
//! actual transitions (pending output appears/drains, half-close flips
//! the connection write-only), and each wakeup walks only the returned
//! ready set instead of rebuilding and re-scanning a `pollfd` array.
//! Maintenance work is driven by the same principle — only connections
//! touched by shard replies or readiness get flushed/checked; the sole
//! remaining O(open) scan is idle reaping, gated to at most one sweep
//! per reap tick.
//!
//! Every protocol decision — the hello gate, the cluster fence, the
//! session ledger, the `Busy` policy, protocol faults and teardown — is
//! made by the sans-IO connection protocol in `connection.rs`; a
//! reactor connection adds only its socket, its read and write buffers,
//! its poller interest and its timers. The loopback, batch-equivalence,
//! recovery and backpressure suites hold the reactor to the in-process
//! pipeline's bytes and to one table of protocol scripts.
//!
//! Reply path: shard workers deliver frames through a
//! `ReplyBridge` keyed by conn id — `deliver` enqueues `(conn,
//! frame)` on the owning I/O thread's queue and pokes its
//! [`crate::sys::Waker`]; wakes while the loop is busy coalesce into
//! nothing (counted by `reactor_wakeups` only when a pipe write was
//! actually consumed). Connections are assigned to I/O threads
//! round-robin by conn id, so delivery needs no shared routing table.
//!
//! The accept loop degrades under pressure instead of failing: accept
//! errors back off exponentially (1 ms doubling to 1 s), fd exhaustion
//! (EMFILE/ENFILE) releases a reserve descriptor to accept-and-shed the
//! newest connection (counted by `connections_shed`), and connections
//! beyond `max_connections` are shed the same way. An optional idle
//! timeout reaps connections that have sent no frames for the window.
//!
//! Shutdown is graceful and idempotent: stop the accept loop (a self-
//! connection unblocks `accept`), wake and join every I/O thread (each
//! tears down its connections, closing their abandoned sessions), then
//! shut down the router — the teardown `Close`s are queued ahead of the
//! router's `Shutdown`, so they are processed first.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::connection::{Connection, Parked, RouterGone, PARK_RETRY};
use crate::metrics::ServiceMetrics;
use crate::router::{ReplyBridge, ReplyTx, SessionRouter};
use crate::sys::{Backend, Poller, Ready, Waker, POLLIN, POLLOUT};
use crate::wire::{encode_server, FrameBuffer, ServerFrame};

/// First retry delay after `accept()` fails; doubles per consecutive
/// failure up to [`ACCEPT_BACKOFF_MAX`], resetting on success.
const ACCEPT_BACKOFF_START: Duration = Duration::from_millis(1);

/// Ceiling for the accept-error backoff.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_secs(1);

/// Size of each I/O thread's read buffer: one `read` call drains
/// everything the kernel has buffered (up to this much) per readable
/// connection per reactor round.
const READ_CHUNK: usize = 64 * 1024;

/// Retained-capacity ceiling for a connection's encode buffer: after a
/// burst drains, the buffer shrinks back to at most this many bytes so
/// thousands of mostly idle connections stay cheap.
const RETAIN_OUT: usize = 64 * 1024;

/// A connection whose pending-write buffer outgrows this is a slow (or
/// stalled) consumer and is dropped rather than buffered without bound.
const MAX_PENDING_WRITE: usize = 16 * 1024 * 1024;

/// How long a half-closed connection (peer sent EOF, e.g. via
/// `shutdown(Write)`) is kept alive write-only to deliver in-flight
/// replies before teardown gives up on the drain.
const DRAIN_WINDOW: Duration = Duration::from_secs(5);

/// Poller token for the self-pipe waker. Connection ids start at 1
/// ([`SessionRouter::new_conn_id`]), so 0 is free.
const WAKER_TOKEN: u64 = 0;

/// Which readiness backend the reactor's I/O threads run on.
///
/// `Auto` resolves to epoll(7) on Linux and poll(2) elsewhere; if the
/// auto-selected backend cannot be constructed the service falls back
/// to poll(2), while an explicit `Epoll` that cannot be constructed
/// fails startup loudly. (A per-thread construction failure *after* a
/// successful startup probe — racing fd exhaustion — degrades that
/// thread to poll(2), logging the fallback and downgrading the
/// `reactor_backend` metric rather than dropping the thread's
/// connections.) `serve run --poll-backend` picks one; the TCP test
/// suites start a service on every host backend through
/// [`TcpService::start_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PollBackend {
    /// epoll(7) where available (Linux), poll(2) elsewhere.
    #[default]
    Auto,
    /// Force the portable poll(2) rebuild-and-scan backend.
    Poll,
    /// Require epoll(7); startup fails where it is unsupported.
    Epoll,
}

impl PollBackend {
    /// Parses a CLI value (`auto` | `poll` | `epoll`).
    pub fn parse(value: &str) -> Option<Self> {
        match value {
            "auto" => Some(Self::Auto),
            "poll" => Some(Self::Poll),
            "epoll" => Some(Self::Epoll),
            _ => None,
        }
    }

    /// Stable lowercase name, for logs and usage text.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Auto => "auto",
            Self::Poll => "poll",
            Self::Epoll => "epoll",
        }
    }

    /// The concrete backend this selection asks for on this platform.
    fn resolve(self) -> Backend {
        match self {
            Self::Poll => Backend::Poll,
            Self::Epoll => Backend::Epoll,
            Self::Auto => {
                if cfg!(target_os = "linux") {
                    Backend::Epoll
                } else {
                    Backend::Poll
                }
            }
        }
    }
}

/// Transport tuning for the reactor front-end.
#[derive(Debug, Clone, Copy)]
pub struct TcpOptions {
    /// Reactor I/O threads; `0` picks `min(4, available cores)`.
    pub io_threads: usize,
    /// Connections beyond this are shed at accept time.
    pub max_connections: usize,
    /// Close connections that send no frames for this many
    /// milliseconds; `0` disables idle reaping.
    pub idle_timeout_ms: u64,
    /// Readiness backend for the I/O threads.
    pub poll_backend: PollBackend,
}

impl Default for TcpOptions {
    fn default() -> Self {
        Self {
            io_threads: 0,
            max_connections: 65_536,
            idle_timeout_ms: 0,
            poll_backend: PollBackend::Auto,
        }
    }
}

impl TcpOptions {
    /// The I/O thread count after applying the `min(4, cores)` default.
    fn resolved_io_threads(&self) -> usize {
        if self.io_threads > 0 {
            self.io_threads.min(256)
        } else {
            let cores = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            cores.clamp(1, 4)
        }
    }

    /// Idle window as a `Duration`, `None` when disabled.
    fn idle_timeout(&self) -> Option<Duration> {
        (self.idle_timeout_ms > 0).then(|| Duration::from_millis(self.idle_timeout_ms))
    }
}

fn lock_or_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Next accept-error backoff: exponential with a cap.
fn next_backoff(current: Duration) -> Duration {
    (current * 2).min(ACCEPT_BACKOFF_MAX)
}

/// The accept thread's half of one I/O thread: a registration queue
/// plus the waker and reply sender that reach its poll loop.
struct IoShared {
    waker: Waker,
    replies: Sender<(u64, ServerFrame)>,
    registrations: Mutex<Vec<(u64, TcpStream)>>,
    stop: AtomicBool,
}

/// Routes shard replies back to the I/O thread that owns the
/// connection: conn ids are assigned round-robin, so the owning thread
/// is a modulo away and delivery is lock-free queue + waker poke.
struct ReactorBridge {
    io: Vec<Arc<IoShared>>,
}

impl ReactorBridge {
    fn io_of(&self, conn: u64) -> Option<&Arc<IoShared>> {
        let n = self.io.len();
        if n == 0 {
            return None;
        }
        self.io.get((conn.wrapping_sub(1) as usize) % n)
    }
}

impl ReplyBridge for ReactorBridge {
    fn deliver(&self, conn: u64, frame: ServerFrame) {
        if let Some(io) = self.io_of(conn) {
            let _ = io.replies.send((conn, frame));
            io.waker.wake();
        }
    }
}

/// Per-connection reactor state: the socket, the frame decode buffer,
/// the pending encode/write buffer, poller interest and timers, around
/// the connection's protocol state.
struct Conn {
    stream: TcpStream,
    frames: FrameBuffer,
    link: Connection,
    /// Encoded-but-unwritten reply bytes; `out_at` marks how much of
    /// the front has already reached the kernel.
    out: Vec<u8>,
    out_at: usize,
    /// Wait for a writable notification before trying to write again.
    want_write: bool,
    /// Marked for teardown this round.
    dead: bool,
    /// When the peer last sent bytes; the idle reaper's clock.
    last_activity: Instant,
    /// `Some(when)` after the peer sent EOF (half-close): the connection
    /// stays alive write-only until its pending replies drain (or
    /// [`DRAIN_WINDOW`] expires), so `shutdown(Write)` clients receive
    /// everything they are owed.
    read_closed: Option<Instant>,
    /// The interest mask currently installed in the poller for this
    /// connection. [`sync_interest`] issues a modify only when the
    /// desired mask differs, so on epoll the `epoll_ctl` count tracks
    /// actual transitions, not reactor iterations.
    interest: i16,
}

impl Conn {
    fn pending_out(&self) -> usize {
        self.out.len().saturating_sub(self.out_at)
    }

    /// Reclaims the already-flushed prefix of `out` once it outgrows the
    /// unwritten tail (or the retention cap). Without this a connection
    /// that keeps pace with production but never fully drains — a
    /// network-limited or read-pacing client — accumulates every byte
    /// ever sent; with it `out.len()` stays within a small factor of
    /// `pending_out()`, which [`MAX_PENDING_WRITE`] bounds. The
    /// prefix-outweighs-tail threshold keeps the memmove amortized O(1)
    /// per flushed byte.
    fn compact_out(&mut self) {
        if self.out_at > 0 && (self.out_at >= self.pending_out() || self.out_at >= RETAIN_OUT) {
            self.out.drain(..self.out_at);
            self.out_at = 0;
        }
    }
}

/// The running TCP service. Dropping it shuts everything down.
pub struct TcpService {
    router: Arc<SessionRouter>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    io: Vec<Arc<IoShared>>,
    io_threads: Vec<JoinHandle<()>>,
}

impl TcpService {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts accepting connections for `router`, with default
    /// [`TcpOptions`].
    pub fn start(router: Arc<SessionRouter>, addr: &str) -> std::io::Result<Self> {
        Self::start_with(router, addr, TcpOptions::default())
    }

    /// [`TcpService::start`] with explicit transport tuning.
    pub fn start_with(
        router: Arc<SessionRouter>,
        addr: &str,
        options: TcpOptions,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        // Resolve and probe the readiness backend once, up front: an
        // explicit `--poll-backend epoll` that cannot be constructed
        // fails startup loudly, while Auto degrades to poll(2). The I/O
        // threads then build their own pollers on the settled backend.
        let requested = options.poll_backend.resolve();
        let backend = match Poller::new(requested) {
            Ok(_) => requested,
            Err(err) => {
                if options.poll_backend == PollBackend::Epoll {
                    return Err(err);
                }
                Backend::Poll
            }
        };
        router.metrics().set_reactor_backend(backend);
        let io_count = options.resolved_io_threads();
        let mut io = Vec::with_capacity(io_count);
        let mut receivers = Vec::with_capacity(io_count);
        for _ in 0..io_count {
            let (tx, rx) = std::sync::mpsc::channel();
            io.push(Arc::new(IoShared {
                waker: Waker::new()?,
                replies: tx,
                registrations: Mutex::new(Vec::new()),
                stop: AtomicBool::new(false),
            }));
            receivers.push(rx);
        }
        let bridge = Arc::new(ReactorBridge { io: io.clone() });
        let mut io_threads = Vec::with_capacity(io_count);
        for (index, replies) in receivers.into_iter().enumerate() {
            let shared = match io.get(index) {
                Some(shared) => shared.clone(),
                None => continue,
            };
            let thread_router = router.clone();
            let thread_bridge = bridge.clone();
            let handle = std::thread::Builder::new()
                .name(format!("grandma-io-{index}"))
                .spawn(move || {
                    io_loop(
                        shared,
                        replies,
                        thread_router,
                        thread_bridge,
                        options,
                        backend,
                    )
                })?;
            io_threads.push(handle);
        }
        let accept_thread = {
            let router = router.clone();
            let stop = stop.clone();
            let io = io.clone();
            std::thread::Builder::new()
                .name("grandma-accept".into())
                .spawn(move || accept_loop(listener, router, stop, io, options))?
        };
        Ok(Self {
            router,
            addr,
            stop,
            accept_thread: Some(accept_thread),
            io,
            io_threads,
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The router behind this front-end.
    pub fn router(&self) -> &Arc<SessionRouter> {
        &self.router
    }

    /// The shared service metrics.
    pub fn metrics(&self) -> &Arc<ServiceMetrics> {
        self.router.metrics()
    }

    /// Gracefully stops accepting, tears down every connection (closing
    /// its sessions), joins the I/O threads, and shuts the router down.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock accept() with a throwaway connection to ourselves.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        // Each I/O thread drains its connections on the way out: the
        // teardown Closes reach the shard queues before the router's
        // Shutdown below, so abandoned sessions are finalized and
        // counted.
        for shared in &self.io {
            shared.stop.store(true, Ordering::SeqCst);
            shared.waker.arm();
            shared.waker.wake();
        }
        for handle in self.io_threads.drain(..) {
            let _ = handle.join();
        }
        self.router.shutdown();
    }
}

impl Drop for TcpService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Sheds a connection that cannot be served (over the connection cap or
/// out of descriptors): closed immediately, counted, never registered.
fn shed(stream: TcpStream, metrics: &ServiceMetrics) {
    metrics.connections_shed.fetch_add(1, Ordering::Relaxed);
    let _ = TcpStream::shutdown(&stream, Shutdown::Both);
}

fn accept_loop(
    listener: TcpListener,
    router: Arc<SessionRouter>,
    stop: Arc<AtomicBool>,
    io: Vec<Arc<IoShared>>,
    options: TcpOptions,
) {
    let metrics = router.metrics().clone();
    let mut backoff = ACCEPT_BACKOFF_START;
    // One descriptor held in reserve: when accept() hits EMFILE/ENFILE
    // the pending connection has no fd to land in, so we release the
    // reserve, accept-and-shed the newest connection (telling the
    // client immediately instead of letting it hang in the backlog),
    // then re-arm the reserve.
    let mut reserve = std::fs::File::open("/dev/null").ok();
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                backoff = ACCEPT_BACKOFF_START;
                if stop.load(Ordering::SeqCst) {
                    // The shutdown self-connection (or a late client).
                    let _ = TcpStream::shutdown(&stream, Shutdown::Both);
                    return;
                }
                if metrics.open_connections.load(Ordering::Relaxed) as usize
                    >= options.max_connections
                {
                    shed(stream, &metrics);
                    continue;
                }
                register(stream, &router, &io, &metrics);
            }
            Err(err) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                metrics.accept_errors.fetch_add(1, Ordering::Relaxed);
                let raw = err.raw_os_error();
                if raw == Some(24) || raw == Some(23) {
                    // EMFILE/ENFILE: free the reserve fd, take the
                    // newest *already pending* connection, and shed it.
                    // The recovery accept must be nonblocking: with the
                    // reserve released and the backlog empty, a blocking
                    // accept would park here until the next client
                    // arrives — possibly long after descriptors freed up
                    // — and then shed that serviceable connection.
                    drop(reserve.take());
                    let mut shed_one = false;
                    if listener.set_nonblocking(true).is_ok() {
                        if let Ok((stream, peer)) = listener.accept() {
                            eprintln!(
                                "grandma-serve: fd exhausted; shedding connection from {peer}"
                            );
                            shed(stream, &metrics);
                            shed_one = true;
                        }
                        let _ = listener.set_nonblocking(false);
                    }
                    reserve = std::fs::File::open("/dev/null").ok();
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    if !shed_one {
                        // Nothing pending to shed (or still no fd to
                        // land it in): back off instead of re-running
                        // accept straight into the same EMFILE.
                        std::thread::sleep(backoff);
                        backoff = next_backoff(backoff);
                    }
                    continue;
                }
                // Transient failure (ECONNABORTED and friends): retry
                // with exponential backoff instead of spinning a core.
                std::thread::sleep(backoff);
                backoff = next_backoff(backoff);
            }
        }
    }
}

/// Hands an accepted socket to its round-robin I/O thread. The gauge is
/// bumped here so the accept loop's `max_connections` check sees
/// connections that are registered but not yet polled.
fn register(
    stream: TcpStream,
    router: &Arc<SessionRouter>,
    io: &[Arc<IoShared>],
    metrics: &ServiceMetrics,
) {
    let _ = stream.set_nodelay(true);
    if stream.set_nonblocking(true).is_err() || io.is_empty() {
        shed(stream, metrics);
        return;
    }
    let conn = router.new_conn_id();
    let idx = (conn.wrapping_sub(1) as usize) % io.len();
    let Some(shared) = io.get(idx) else {
        shed(stream, metrics);
        return;
    };
    metrics.open_connections.fetch_add(1, Ordering::Relaxed);
    lock_or_recover(&shared.registrations).push((conn, stream));
    shared.waker.wake();
}

/// Encodes `frame` into the connection's pending-write buffer.
fn queue_frame(c: &mut Conn, metrics: &ServiceMetrics, frame: &ServerFrame) {
    encode_server(frame, &mut c.out);
    metrics.frames_sent.fetch_add(1, Ordering::Relaxed);
}

/// Writes as much pending output as the socket will take. Returns
/// `false` when the connection died. Sets `want_write` (and leaves the
/// remainder queued) on a full socket buffer.
fn flush_conn(c: &mut Conn, metrics: &ServiceMetrics) -> bool {
    while c.out_at < c.out.len() {
        let pending = c.out.get(c.out_at..).unwrap_or(&[]);
        if pending.is_empty() {
            break;
        }
        match c.stream.write(pending) {
            Ok(0) => return false,
            Ok(n) => {
                metrics.writer_flushes.fetch_add(1, Ordering::Relaxed);
                c.out_at += n;
                if n < pending.len() {
                    // Partial write: the socket buffer is full; wait
                    // for POLLOUT rather than burning a sure EAGAIN.
                    metrics.writes_short.fetch_add(1, Ordering::Relaxed);
                    c.want_write = true;
                    c.compact_out();
                    return true;
                }
            }
            Err(ref e) if e.kind() == ErrorKind::WouldBlock => {
                c.want_write = true;
                c.compact_out();
                return true;
            }
            Err(ref e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    // Fully drained: recycle the buffer, shrinking bursts back down so
    // thousands of idle connections do not pin burst-sized buffers.
    c.out.clear();
    c.out_at = 0;
    c.want_write = false;
    if c.out.capacity() > RETAIN_OUT {
        c.out.shrink_to(RETAIN_OUT);
    }
    true
}

/// Tears a connection down: the protocol reaps its still-open sessions
/// (parking what a full shard queue turns away), then the socket is
/// deregistered, shut and dropped.
fn teardown(
    conn_id: u64,
    mut c: Conn,
    poller: &mut Poller,
    router: &SessionRouter,
    metrics: &ServiceMetrics,
    parked: &mut Parked,
) {
    // Deregister before the fd closes: a closed fd is auto-removed from
    // an epoll set, but doing it explicitly keeps both backends on one
    // discipline and cannot leave a stale entry if the fd number is
    // recycled by a racing accept.
    let _ = poller.deregister(conn_id, c.stream.as_raw_fd());
    c.link.teardown(router, parked);
    // Spelled as an associated call so the lint's call graph resolves it
    // to the socket alone, not to every `shutdown` method.
    let _ = TcpStream::shutdown(&c.stream, Shutdown::Both);
    metrics.open_connections.fetch_sub(1, Ordering::Relaxed);
}

/// Handles the peer's EOF (it finished sending — e.g. `shutdown(Write)`
/// or a dropped socket). Returns `true` when the connection should stay
/// alive write-only to deliver what it is owed; `false` when it can be
/// torn down right now.
fn half_close(c: &mut Conn, router: &SessionRouter, parked: &mut Parked) -> bool {
    if c.read_closed.is_some() || c.link.ended() {
        return false;
    }
    c.read_closed = Some(Instant::now());
    c.link.eof(router, parked);
    true
}

/// Decodes every complete frame in the connection's read buffer and
/// hands it to the protocol, queueing whatever it answers. Returns
/// `false` when the connection must die immediately (router gone); a
/// protocol fault instead ends the connection so the fault frame is
/// flushed before the socket closes.
fn dispatch_frames(
    c: &mut Conn,
    router: &SessionRouter,
    metrics: &ServiceMetrics,
    parked: &mut Parked,
) -> bool {
    while !c.link.ended() {
        let Some(frame) = c.frames.next_client_view().transpose() else {
            return true;
        };
        match c.link.receive(router, parked, frame) {
            Ok(Some(answer)) => queue_frame(c, metrics, &answer),
            Ok(None) => {}
            Err(RouterGone) => return false,
        }
    }
    true
}

/// Reads everything the kernel has for this connection and dispatches
/// it. Returns `false` on EOF or a dead socket.
fn service_read(
    c: &mut Conn,
    router: &SessionRouter,
    metrics: &ServiceMetrics,
    chunk: &mut [u8],
    now: Instant,
    parked: &mut Parked,
) -> bool {
    loop {
        match c.stream.read(chunk) {
            // EOF: the peer finished sending. Enter the write-only
            // half-close drain instead of dropping whatever replies are
            // still in flight (a `shutdown(Write)` client is owed them).
            Ok(0) => return half_close(c, router, parked),
            Ok(n) => {
                c.last_activity = now;
                c.frames.extend(chunk.get(..n).unwrap_or(&[]));
                if !dispatch_frames(c, router, metrics, parked) {
                    return false;
                }
                if c.link.ended() || n < chunk.len() {
                    // Short read: the kernel buffer is drained; poll is
                    // level-triggered, so anything that races in will
                    // re-report.
                    return true;
                }
            }
            Err(ref e) if e.kind() == ErrorKind::WouldBlock => return true,
            Err(ref e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}

/// The interest mask a connection should be watched with right now.
///
/// Transition table (DESIGN.md §13): a fresh connection reads
/// (`POLLIN`); queued output that hit a full socket buffer adds
/// `POLLOUT` until it drains; a protocol fault (`ended`) or peer EOF
/// (`read_closed`) drops `POLLIN` — a level-triggered EOF/fault would
/// otherwise re-report every wakeup; error conditions need no bits,
/// both backends always report them.
fn desired_interest(c: &Conn) -> i16 {
    let mut interest = 0i16;
    if !c.link.ended() && c.read_closed.is_none() {
        interest |= POLLIN;
    }
    if c.want_write && c.pending_out() > 0 {
        interest |= POLLOUT;
    }
    interest
}

/// Installs the connection's desired interest mask if it changed. The
/// no-transition fast path is what keeps `epoll_ctl` traffic O(actual
/// state changes) instead of O(iterations × connections).
///
/// Returns `false` when a needed transition could not be installed:
/// interest is only resynced when a connection is touched, so a
/// connection left with a stale kernel mask (e.g. `POLLOUT` never
/// armed) would get no further readiness and hang until idle reap — or
/// forever with reaping disabled. The caller must tear it down.
fn sync_interest(poller: &mut Poller, conn_id: u64, c: &mut Conn) -> bool {
    let want = desired_interest(c);
    if want == c.interest {
        return true;
    }
    if poller.modify(conn_id, c.stream.as_raw_fd(), want).is_err() {
        return false;
    }
    c.interest = want;
    true
}

/// Post-activity bookkeeping for one connection: opportunistic flush,
/// slow-consumer shed, and fault-flush completion. Runs only for
/// connections actually touched this round (shard replies or readiness)
/// — never as a full sweep. Returns `false` when the connection must be
/// torn down.
fn maintain_conn(c: &mut Conn, metrics: &ServiceMetrics) -> bool {
    if c.pending_out() > 0 && !c.want_write && !flush_conn(c, metrics) {
        return false;
    }
    if c.pending_out() > MAX_PENDING_WRITE {
        metrics.connections_shed.fetch_add(1, Ordering::Relaxed);
        return false;
    }
    if c.link.ended() && c.pending_out() == 0 {
        return false;
    }
    true
}

/// One reactor I/O thread: a [`Poller`] loop multiplexing every
/// connection assigned to it. The loop is wake-accurate without being
/// wake-hungry — the waker is armed before the work queues are drained,
/// so a producer either lands its item before the drain or its wake
/// byte lands in the ready set.
///
/// Per-wakeup cost is O(touched + ready): shard replies name the
/// connections they touch, readiness names the connections with I/O,
/// and nothing else is visited. The idle reaper is the one remaining
/// O(open) scan, and it runs at most once per reap tick rather than
/// every iteration.
fn io_loop(
    shared: Arc<IoShared>,
    replies: Receiver<(u64, ServerFrame)>,
    router: Arc<SessionRouter>,
    bridge: Arc<ReactorBridge>,
    options: TcpOptions,
    backend: Backend,
) {
    let metrics = router.metrics().clone();
    let idle_timeout = options.idle_timeout();
    // Reap ticks: a quarter of the window bounds the overshoot.
    let idle_tick_ms = (options.idle_timeout_ms / 4).clamp(5, 500);
    // The backend was probed at startup; a failure here is a racing
    // resource exhaustion, so degrade to poll(2) (which allocates
    // nothing) rather than dropping the thread — but never silently:
    // the fallback is logged and the `reactor_backend` metric is
    // downgraded so operators (and the fan-out suite's backend check)
    // see what this thread actually runs, even under an explicit
    // `--poll-backend epoll` whose startup-probe fail-loudly window
    // has already passed.
    let mut poller = match Poller::new(backend) {
        Ok(poller) => poller,
        Err(err) => {
            eprintln!(
                "serve: io thread: {} backend unavailable ({err}); falling back to poll(2)",
                backend.name()
            );
            metrics.set_reactor_backend(Backend::Poll);
            match Poller::new(Backend::Poll) {
                Ok(poller) => poller,
                Err(_) => return,
            }
        }
    };
    // The waker is registered exactly once; its interest never changes.
    if poller
        .register(WAKER_TOKEN, shared.waker.fd(), POLLIN)
        .is_err()
    {
        return;
    }
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut parked = Parked::default();
    let mut dead: Vec<u64> = Vec::new();
    let mut ready: Vec<Ready> = Vec::new();
    // Connections touched by shard replies this round, pending a
    // flush/interest resync.
    let mut touched: Vec<u64> = Vec::new();
    // Connections in the write-only half-close drain: checked every
    // round for completion/expiry. Bounded by draining conns, not open
    // conns.
    let mut half_closed: Vec<u64> = Vec::new();
    let mut next_idle_scan = Instant::now();
    let mut chunk = vec![0u8; READ_CHUNK];
    // lint:reactor-loop start(io-loop) — the reactor's steady-state round:
    // a blocking call anywhere in here stalls every connection on this
    // poller thread (DESIGN.md §12).
    loop {
        // Arm first: any wake() from here on writes a pipe byte, so the
        // final queue drains below cannot race a producer into a lost
        // wakeup.
        shared.waker.arm();

        // Intake newly accepted connections: register with the poller
        // once, read-interest, token = conn id.
        // lint:allow(reactor-blocking-call): the registration mutex is
        // held for one mem::take here and one Vec::push on the accept
        // side — an O(1) swap, never a stall.
        let fresh = std::mem::take(&mut *lock_or_recover(&shared.registrations));
        let now = Instant::now();
        for (conn_id, stream) in fresh {
            if poller
                .register(conn_id, stream.as_raw_fd(), POLLIN)
                .is_err()
            {
                // Unwatchable (epoll interest-set exhaustion): shed it
                // — an unregistered connection would hang silently.
                metrics.connections_shed.fetch_add(1, Ordering::Relaxed);
                metrics.open_connections.fetch_sub(1, Ordering::Relaxed);
                let _ = TcpStream::shutdown(&stream, Shutdown::Both);
                continue;
            }
            let reply = ReplyTx::bridged(conn_id, bridge.clone() as Arc<dyn ReplyBridge>);
            conns.insert(
                conn_id,
                Conn {
                    stream,
                    frames: FrameBuffer::new(),
                    link: Connection::new(conn_id, reply),
                    out: Vec::new(),
                    out_at: 0,
                    want_write: false,
                    dead: false,
                    last_activity: now,
                    read_closed: None,
                    interest: POLLIN,
                },
            );
        }

        // Drain shard replies into per-connection encode buffers,
        // remembering which connections now need a flush. Frames for
        // connections that died race-free-but-late are dropped, same as
        // the old writer thread losing its socket.
        while let Ok((conn_id, frame)) = replies.try_recv() {
            if let Some(c) = conns.get_mut(&conn_id) {
                if !c.dead {
                    c.link.settle(&frame);
                    queue_frame(c, &metrics, &frame);
                    touched.push(conn_id);
                }
            }
        }

        // Retry what bounced off full shard queues until it lands (the
        // PARK_RETRY poll tick is the backoff): dropping an entry would
        // leak its session for the process lifetime.
        parked.resubmit(&router);

        if shared.stop.load(Ordering::SeqCst) {
            break;
        }

        // Flush/maintain only the connections shard replies touched.
        touched.sort_unstable();
        touched.dedup();
        for conn_id in touched.drain(..) {
            let Some(c) = conns.get_mut(&conn_id) else {
                continue;
            };
            if c.dead {
                continue;
            }
            if !maintain_conn(c, &metrics) {
                c.dead = true;
                dead.push(conn_id);
                continue;
            }
            if !sync_interest(&mut poller, conn_id, c) {
                c.dead = true;
                dead.push(conn_id);
            }
        }

        // Half-close drains: complete (nothing owed, nothing queued) or
        // overdue connections finish the teardown their EOF deferred.
        if !half_closed.is_empty() {
            let now = Instant::now();
            half_closed.retain(|&conn_id| {
                let Some(c) = conns.get_mut(&conn_id) else {
                    return false;
                };
                let Some(at) = c.read_closed.filter(|_| !c.dead) else {
                    return false;
                };
                let drained = !c.link.owes_replies() && c.pending_out() == 0;
                if drained || now.duration_since(at) >= DRAIN_WINDOW {
                    c.dead = true;
                    dead.push(conn_id);
                    return false;
                }
                true
            });
        }

        // Idle reaping: no client frames for the window means the
        // connection (and its sessions) are abandoned. This is the one
        // deliberate O(open) scan left, gated to once per reap tick so
        // a busy reactor is not paying it every wakeup.
        if let Some(window) = idle_timeout {
            let now = Instant::now();
            if now >= next_idle_scan {
                next_idle_scan = now + Duration::from_millis(idle_tick_ms);
                for (&conn_id, c) in conns.iter_mut() {
                    if !c.dead && now.duration_since(c.last_activity) >= window {
                        metrics.idle_reaped.fetch_add(1, Ordering::Relaxed);
                        c.dead = true;
                        dead.push(conn_id);
                    }
                }
            }
        }

        for conn_id in dead.drain(..) {
            if let Some(c) = conns.remove(&conn_id) {
                teardown(conn_id, c, &mut poller, &router, &metrics, &mut parked);
            }
        }

        let timeout_ms = if !parked.is_empty() {
            PARK_RETRY.as_millis() as i32
        } else if !half_closed.is_empty() {
            // Tick so drain completion (shard replies already queued)
            // and the DRAIN_WINDOW deadline are noticed promptly.
            50
        } else if idle_timeout.is_some() {
            idle_tick_ms as i32
        } else {
            -1
        };
        // Surface interest-set churn before blocking: ctl syscalls for
        // registers/modifies/deregisters since the last iteration.
        let ctl = poller.take_ctl_calls();
        if ctl > 0 {
            metrics.epoll_ctl_calls.fetch_add(ctl, Ordering::Relaxed);
        }
        // lint:allow(reactor-blocking-call): this wait IS the reactor's
        // scheduler — the one intentional block per round, bounded by
        // `timeout_ms` so maintenance still runs on idle connections.
        let n = match poller.wait(timeout_ms, &mut ready) {
            Ok(n) => n,
            Err(_) => continue,
        };
        if n > 0 {
            metrics
                .readiness_events
                .fetch_add(n as u64, Ordering::Relaxed);
        }

        // Dispatch walks only the ready set: O(ready), regardless of
        // how many connections are open.
        let now = Instant::now();
        for ev in &ready {
            if ev.token == WAKER_TOKEN {
                if ev.readable() {
                    shared.waker.drain();
                    metrics.reactor_wakeups.fetch_add(1, Ordering::Relaxed);
                }
                continue;
            }
            let conn_id = ev.token;
            let Some(c) = conns.get_mut(&conn_id) else {
                continue;
            };
            if c.dead {
                continue;
            }
            if ev.writable() {
                c.want_write = false;
                if !flush_conn(c, &metrics) {
                    c.dead = true;
                    dead.push(conn_id);
                    continue;
                }
            } else if !ev.readable() || c.link.ended() {
                // Ready, but neither branch can make progress: the
                // kernel reported only error bits (POLLERR/POLLHUP/
                // POLLNVAL — set regardless of requested events),
                // typically on a closing connection whose peer
                // reset. Left alone, level-triggered readiness would
                // re-report it every iteration, spinning this
                // thread and leaking the connection forever.
                c.dead = true;
                dead.push(conn_id);
                continue;
            }
            if ev.readable() && !c.link.ended() {
                let was_half_closed = c.read_closed.is_some();
                if !service_read(c, &router, &metrics, &mut chunk, now, &mut parked) {
                    c.dead = true;
                    dead.push(conn_id);
                    continue;
                }
                if !was_half_closed && c.read_closed.is_some() {
                    // EOF just arrived: enter the write-only drain.
                    half_closed.push(conn_id);
                }
            }
            // Flush what dispatch queued and install any interest
            // transition (pending-out appeared/drained, half-close
            // flipped write-only).
            if !maintain_conn(c, &metrics) {
                c.dead = true;
                dead.push(conn_id);
                continue;
            }
            if !sync_interest(&mut poller, conn_id, c) {
                c.dead = true;
                dead.push(conn_id);
            }
        }
        for conn_id in dead.drain(..) {
            if let Some(c) = conns.remove(&conn_id) {
                teardown(conn_id, c, &mut poller, &router, &metrics, &mut parked);
            }
        }
    }
    // lint:reactor-loop end

    // Stop: tear down every connection (their session Closes land ahead
    // of the router's Shutdown message) and drain the retry list with a
    // short bounded backoff — sleeping is fine here, off the hot path.
    let fresh = std::mem::take(&mut *lock_or_recover(&shared.registrations));
    for (_, stream) in fresh {
        let _ = TcpStream::shutdown(&stream, Shutdown::Both);
        metrics.open_connections.fetch_sub(1, Ordering::Relaxed);
    }
    for (conn_id, c) in conns.drain() {
        teardown(conn_id, c, &mut poller, &router, &metrics, &mut parked);
    }
    parked.drain_or_abandon(&router);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::ServeConfig;
    use crate::wire::{
        encode_client, ClientFrame, FaultCode, OutcomeKind, MIN_WIRE_VERSION, WIRE_VERSION,
    };
    use grandma_core::{EagerConfig, EagerRecognizer, FeatureMask};
    use grandma_synth::datasets;
    use std::time::Duration;

    fn recognizer() -> Arc<EagerRecognizer> {
        let data = datasets::eight_way(0x2b2b, 10, 0);
        let (rec, _) =
            EagerRecognizer::train(&data.training, &FeatureMask::all(), &EagerConfig::default())
                .expect("training succeeds");
        Arc::new(rec)
    }

    /// Every backend the host supports: the full TCP suite runs once
    /// per entry so poll(2) and epoll(7) are held to identical
    /// observable behavior.
    fn test_backends() -> Vec<PollBackend> {
        let mut backends = vec![PollBackend::Poll];
        if cfg!(target_os = "linux") {
            backends.push(PollBackend::Epoll);
        }
        backends
    }

    /// Default options pinned to one readiness backend.
    fn options_with(backend: PollBackend) -> TcpOptions {
        TcpOptions {
            poll_backend: backend,
            ..TcpOptions::default()
        }
    }

    fn read_server_frames(stream: &mut TcpStream, until_closed_for: u64) -> Vec<ServerFrame> {
        let mut fb = FrameBuffer::new();
        let mut chunk = [0u8; 4096];
        let mut out = Vec::new();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        loop {
            match stream.read(&mut chunk) {
                Ok(0) | Err(_) => return out,
                Ok(n) => fb.extend(&chunk[..n]),
            }
            while let Some(frame) = fb.next_server().expect("valid server bytes") {
                let done = matches!(
                    frame,
                    ServerFrame::Outcome {
                        session,
                        outcome: OutcomeKind::Closed,
                        ..
                    } if session == until_closed_for
                );
                out.push(frame);
                if done {
                    return out;
                }
            }
        }
    }

    #[test]
    fn backoff_doubles_to_a_cap() {
        let mut d = ACCEPT_BACKOFF_START;
        let mut seen = vec![d];
        for _ in 0..12 {
            d = next_backoff(d);
            seen.push(d);
        }
        assert_eq!(seen[1], ACCEPT_BACKOFF_START * 2);
        assert_eq!(seen[2], ACCEPT_BACKOFF_START * 4);
        assert_eq!(
            *seen.last().expect("nonempty"),
            ACCEPT_BACKOFF_MAX,
            "backoff must saturate at the cap"
        );
        assert!(seen.windows(2).all(|w| w[1] >= w[0]), "monotone: {seen:?}");
    }

    /// The reviewer scenario for the slow-but-keeping-up consumer: the
    /// kernel accepts bytes at roughly the production rate, so the
    /// buffer never fully drains and `flush_conn`'s clear-on-empty
    /// never fires. The flushed prefix must be reclaimed anyway, or
    /// `out` grows by every byte ever sent for the connection lifetime
    /// and `MAX_PENDING_WRITE` (which bounds only the tail) never trips.
    #[test]
    fn compaction_bounds_a_never_drained_write_buffer() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let _client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        let mut c = Conn {
            stream,
            frames: FrameBuffer::new(),
            link: Connection::new(
                1,
                ReplyTx::bridged(1, Arc::new(ReactorBridge { io: Vec::new() })),
            ),
            out: Vec::new(),
            out_at: 0,
            want_write: false,
            dead: false,
            last_activity: Instant::now(),
            read_closed: None,
            interest: POLLIN,
        };
        let (mut produced, mut consumed) = (0usize, 0usize);
        for _ in 0..512 {
            // Produce 1024 bytes, flush 1000: pending creeps up but the
            // buffer never hits empty.
            c.out
                .extend((0..1024).map(|i| ((produced + i) % 251) as u8));
            produced += 1024;
            c.out_at += 1000;
            consumed += 1000;
            c.compact_out();
            assert_eq!(c.pending_out(), produced - consumed);
            assert!(
                c.out.len() <= c.pending_out() + RETAIN_OUT,
                "flushed prefix must be reclaimed: len {} pending {} after {} bytes",
                c.out.len(),
                c.pending_out(),
                produced
            );
        }
        // Compaction must not disturb the unwritten tail.
        let tail = c.out.get(c.out_at..).expect("tail in bounds");
        assert!(tail
            .iter()
            .enumerate()
            .all(|(i, &b)| b == ((consumed + i) % 251) as u8));
    }

    #[test]
    fn tcp_session_round_trips_and_shuts_down() {
        for backend in test_backends() {
            tcp_session_round_trips_and_shuts_down_on(backend);
        }
    }

    fn tcp_session_round_trips_and_shuts_down_on(backend: PollBackend) {
        use grandma_events::{Button, EventScript};
        let mut service = TcpService::start_with(
            SessionRouter::new(recognizer(), ServeConfig::default()),
            "127.0.0.1:0",
            options_with(backend),
        )
        .expect("bind");
        assert_eq!(
            service.metrics().snapshot().reactor_backend,
            backend.resolve().name(),
            "resolved backend must be visible in the snapshot"
        );
        let mut stream = TcpStream::connect(service.local_addr()).expect("connect");
        let mut bytes = Vec::new();
        encode_client(
            &ClientFrame::Hello {
                version: WIRE_VERSION,
            },
            &mut bytes,
        );
        encode_client(&ClientFrame::Open { session: 1 }, &mut bytes);
        let data = datasets::eight_way(0x7e57, 0, 1);
        let events = EventScript::new()
            .then_gesture(&data.testing[0].gesture, Button::Left)
            .into_events();
        for (i, e) in events.iter().enumerate() {
            encode_client(
                &ClientFrame::Event {
                    session: 1,
                    seq: i as u32,
                    event: *e,
                },
                &mut bytes,
            );
        }
        encode_client(
            &ClientFrame::Close {
                session: 1,
                seq: events.len() as u32,
            },
            &mut bytes,
        );
        stream.write_all(&bytes).expect("write");
        let frames = read_server_frames(&mut stream, 1);
        assert!(matches!(
            frames.last(),
            Some(ServerFrame::Outcome {
                outcome: OutcomeKind::Closed,
                ..
            })
        ));
        service.shutdown();
        assert_eq!(service.metrics().snapshot().sessions_closed, 1);
    }

    #[test]
    fn batched_tcp_session_round_trips() {
        for backend in test_backends() {
            batched_tcp_session_round_trips_on(backend);
        }
    }

    fn batched_tcp_session_round_trips_on(backend: PollBackend) {
        use grandma_events::{Button, EventScript};
        let mut service = TcpService::start_with(
            SessionRouter::new(recognizer(), ServeConfig::default()),
            "127.0.0.1:0",
            options_with(backend),
        )
        .expect("bind");
        let mut stream = TcpStream::connect(service.local_addr()).expect("connect");
        let mut bytes = Vec::new();
        encode_client(
            &ClientFrame::Hello {
                version: WIRE_VERSION,
            },
            &mut bytes,
        );
        encode_client(&ClientFrame::Open { session: 2 }, &mut bytes);
        let data = datasets::eight_way(0x7e57, 0, 1);
        let events: Vec<(u32, grandma_events::InputEvent)> = EventScript::new()
            .then_gesture(&data.testing[0].gesture, Button::Left)
            .into_events()
            .into_iter()
            .enumerate()
            .map(|(i, e)| (i as u32, e))
            .collect();
        crate::wire::encode_event_batch(2, &events, &mut bytes);
        encode_client(
            &ClientFrame::Close {
                session: 2,
                seq: events.len() as u32,
            },
            &mut bytes,
        );
        stream.write_all(&bytes).expect("write");
        let frames = read_server_frames(&mut stream, 2);
        assert!(matches!(
            frames.last(),
            Some(ServerFrame::Outcome {
                outcome: OutcomeKind::Closed,
                ..
            })
        ));
        service.shutdown();
        let snap = service.metrics().snapshot();
        assert_eq!(snap.batches_ingested, 1);
        assert_eq!(snap.events_ingested, events.len() as u64);
        assert!(snap.frames_sent >= frames.len() as u64);
        assert!(snap.writer_flushes >= 1);
    }

    #[test]
    fn v1_client_round_trips_against_v2_server() {
        for backend in test_backends() {
            v1_client_round_trips_against_v2_server_on(backend);
        }
    }

    fn v1_client_round_trips_against_v2_server_on(backend: PollBackend) {
        use grandma_events::{Button, EventScript};
        let mut service = TcpService::start_with(
            SessionRouter::new(recognizer(), ServeConfig::default()),
            "127.0.0.1:0",
            options_with(backend),
        )
        .expect("bind");
        let mut stream = TcpStream::connect(service.local_addr()).expect("connect");
        let mut bytes = Vec::new();
        // A v1 client: old Hello version, single-Event frames only.
        encode_client(
            &ClientFrame::Hello {
                version: MIN_WIRE_VERSION,
            },
            &mut bytes,
        );
        encode_client(&ClientFrame::Open { session: 3 }, &mut bytes);
        let data = datasets::eight_way(0x7e57, 0, 1);
        let events = EventScript::new()
            .then_gesture(&data.testing[0].gesture, Button::Left)
            .into_events();
        for (i, e) in events.iter().enumerate() {
            encode_client(
                &ClientFrame::Event {
                    session: 3,
                    seq: i as u32,
                    event: *e,
                },
                &mut bytes,
            );
        }
        encode_client(
            &ClientFrame::Close {
                session: 3,
                seq: events.len() as u32,
            },
            &mut bytes,
        );
        stream.write_all(&bytes).expect("write");
        let frames = read_server_frames(&mut stream, 3);
        assert!(matches!(
            frames.last(),
            Some(ServerFrame::Outcome {
                outcome: OutcomeKind::Closed,
                ..
            })
        ));
        service.shutdown();
        assert_eq!(service.metrics().snapshot().sessions_closed, 1);
    }

    #[test]
    fn garbage_bytes_fault_and_close_the_connection() {
        for backend in test_backends() {
            garbage_bytes_fault_and_close_the_connection_on(backend);
        }
    }

    fn garbage_bytes_fault_and_close_the_connection_on(backend: PollBackend) {
        let mut service = TcpService::start_with(
            SessionRouter::new(recognizer(), ServeConfig::default()),
            "127.0.0.1:0",
            options_with(backend),
        )
        .expect("bind");
        let mut stream = TcpStream::connect(service.local_addr()).expect("connect");
        stream.write_all(&[0xFF; 64]).expect("write garbage");
        let mut fb = FrameBuffer::new();
        let mut chunk = [0u8; 256];
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut got_fault = false;
        loop {
            match stream.read(&mut chunk) {
                Ok(0) | Err(_) => break,
                Ok(n) => fb.extend(&chunk[..n]),
            }
            while let Some(frame) = fb.next_server().expect("server bytes") {
                if matches!(
                    frame,
                    ServerFrame::Fault {
                        code: FaultCode::BadFrame,
                        ..
                    }
                ) {
                    got_fault = true;
                }
            }
            if got_fault {
                break;
            }
        }
        assert!(got_fault, "hostile bytes must earn a BadFrame fault");
        service.shutdown();
        assert!(service.metrics().snapshot().decode_errors >= 1);
    }

    #[test]
    fn sessions_are_bound_to_their_connection() {
        for backend in test_backends() {
            sessions_are_bound_to_their_connection_on(backend);
        }
    }

    fn sessions_are_bound_to_their_connection_on(backend: PollBackend) {
        let mut service = TcpService::start_with(
            SessionRouter::new(recognizer(), ServeConfig::default()),
            "127.0.0.1:0",
            options_with(backend),
        )
        .expect("bind");
        let addr = service.local_addr();
        let mut hello = Vec::new();
        encode_client(
            &ClientFrame::Hello {
                version: WIRE_VERSION,
            },
            &mut hello,
        );

        let mut owner = TcpStream::connect(addr).expect("connect owner");
        let mut bytes = hello.clone();
        encode_client(&ClientFrame::Open { session: 5 }, &mut bytes);
        owner.write_all(&bytes).expect("owner open");

        // A second connection tries to close (and feed) the owner's
        // session; it must only ever see UnknownSession.
        let mut intruder = TcpStream::connect(addr).expect("connect intruder");
        let mut bytes = hello.clone();
        encode_client(
            &ClientFrame::Event {
                session: 5,
                seq: 0,
                event: grandma_events::InputEvent::new(
                    grandma_events::EventKind::MouseMove,
                    1.0,
                    1.0,
                    1.0,
                ),
            },
            &mut bytes,
        );
        encode_client(&ClientFrame::Close { session: 5, seq: 1 }, &mut bytes);
        intruder.write_all(&bytes).expect("intruder write");
        let mut fb = FrameBuffer::new();
        let mut chunk = [0u8; 1024];
        intruder
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut faults = 0;
        while faults < 2 {
            let n = match intruder.read(&mut chunk) {
                Ok(0) | Err(_) => break,
                Ok(n) => n,
            };
            fb.extend(&chunk[..n]);
            while let Some(frame) = fb.next_server().expect("server bytes") {
                assert!(
                    matches!(
                        frame,
                        ServerFrame::Fault {
                            session: 5,
                            code: FaultCode::UnknownSession,
                            ..
                        }
                    ),
                    "intruder saw {frame:?}"
                );
                faults += 1;
            }
        }
        assert_eq!(faults, 2, "both intrusions must bounce as UnknownSession");
        drop(intruder);

        // The owner's session survived the foreign Close.
        let mut bytes = Vec::new();
        encode_client(&ClientFrame::Close { session: 5, seq: 2 }, &mut bytes);
        owner.write_all(&bytes).expect("owner close");
        let frames = read_server_frames(&mut owner, 5);
        assert!(matches!(
            frames.last(),
            Some(ServerFrame::Outcome {
                outcome: OutcomeKind::Closed,
                ..
            })
        ));
        service.shutdown();
        let snap = service.metrics().snapshot();
        assert_eq!(snap.sessions_opened, 1);
        assert_eq!(snap.sessions_closed, 1);
        assert_eq!(snap.unknown_sessions, 2, "{snap:?}");
    }

    #[test]
    fn finished_connections_are_pruned_from_the_registry() {
        for backend in test_backends() {
            finished_connections_are_pruned_from_the_registry_on(backend);
        }
    }

    fn finished_connections_are_pruned_from_the_registry_on(backend: PollBackend) {
        let mut service = TcpService::start_with(
            SessionRouter::new(recognizer(), ServeConfig::default()),
            "127.0.0.1:0",
            options_with(backend),
        )
        .expect("bind");
        let addr = service.local_addr();
        for round in 0..4u64 {
            let mut stream = TcpStream::connect(addr).expect("connect");
            let mut bytes = Vec::new();
            encode_client(
                &ClientFrame::Hello {
                    version: WIRE_VERSION,
                },
                &mut bytes,
            );
            encode_client(&ClientFrame::Open { session: round }, &mut bytes);
            encode_client(
                &ClientFrame::Close {
                    session: round,
                    seq: 0,
                },
                &mut bytes,
            );
            stream.write_all(&bytes).expect("write");
            let frames = read_server_frames(&mut stream, round);
            assert!(!frames.is_empty());
        }
        // The reactor prunes a connection's state on EOF; the
        // open-connections gauge is the observable. Wait for the last
        // teardowns to land.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let open = service.metrics().snapshot().open_connections;
            if open == 0 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "reactor still tracks {open} connections"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        service.shutdown();
        let snap = service.metrics().snapshot();
        assert_eq!(snap.sessions_opened, 4);
        assert_eq!(snap.sessions_closed, 4);
    }

    #[test]
    fn dropped_connection_reaps_its_sessions() {
        for backend in test_backends() {
            dropped_connection_reaps_its_sessions_on(backend);
        }
    }

    fn dropped_connection_reaps_its_sessions_on(backend: PollBackend) {
        let mut service = TcpService::start_with(
            SessionRouter::new(recognizer(), ServeConfig::default()),
            "127.0.0.1:0",
            options_with(backend),
        )
        .expect("bind");
        {
            let mut stream = TcpStream::connect(service.local_addr()).expect("connect");
            let mut bytes = Vec::new();
            encode_client(
                &ClientFrame::Hello {
                    version: WIRE_VERSION,
                },
                &mut bytes,
            );
            encode_client(&ClientFrame::Open { session: 9 }, &mut bytes);
            stream.write_all(&bytes).expect("write");
            stream.flush().expect("flush");
            // Give the server a moment to register the session, then
            // vanish without a Close.
            std::thread::sleep(Duration::from_millis(100));
        }
        // Shutdown joins the I/O threads, whose teardown must have
        // closed session 9 ahead of the router's Shutdown.
        service.shutdown();
        let snap = service.metrics().snapshot();
        assert_eq!(snap.sessions_opened, 1);
        assert_eq!(snap.sessions_closed, 1, "{snap:?}");
    }

    #[test]
    fn idle_connection_is_reaped_while_active_one_survives() {
        for backend in test_backends() {
            idle_connection_is_reaped_while_active_one_survives_on(backend);
        }
    }

    fn idle_connection_is_reaped_while_active_one_survives_on(backend: PollBackend) {
        let mut service = TcpService::start_with(
            SessionRouter::new(recognizer(), ServeConfig::default()),
            "127.0.0.1:0",
            TcpOptions {
                io_threads: 1, // both connections on the same poll thread
                idle_timeout_ms: 200,
                ..options_with(backend)
            },
        )
        .expect("bind");
        let addr = service.local_addr();
        let mut hello = Vec::new();
        encode_client(
            &ClientFrame::Hello {
                version: WIRE_VERSION,
            },
            &mut hello,
        );

        // The idle victim: opens a session, then goes silent.
        let mut idle = TcpStream::connect(addr).expect("connect idle");
        let mut bytes = hello.clone();
        encode_client(&ClientFrame::Open { session: 40 }, &mut bytes);
        idle.write_all(&bytes).expect("idle open");

        // The survivor: keeps sending frames within the window.
        let mut active = TcpStream::connect(addr).expect("connect active");
        let mut bytes = hello.clone();
        encode_client(&ClientFrame::Open { session: 41 }, &mut bytes);
        active.write_all(&bytes).expect("active open");

        let started = std::time::Instant::now();
        let mut seq = 0u32;
        while started.elapsed() < Duration::from_millis(700) {
            encode_client(
                &ClientFrame::Event {
                    session: 41,
                    seq,
                    event: grandma_events::InputEvent::new(
                        grandma_events::EventKind::MouseMove,
                        seq as f64,
                        0.0,
                        seq as f64,
                    ),
                },
                &mut bytes,
            );
            bytes.clear();
            encode_client(
                &ClientFrame::Event {
                    session: 41,
                    seq,
                    event: grandma_events::InputEvent::new(
                        grandma_events::EventKind::MouseMove,
                        seq as f64,
                        0.0,
                        seq as f64,
                    ),
                },
                &mut bytes,
            );
            active.write_all(&bytes).expect("active keepalive");
            seq += 1;
            std::thread::sleep(Duration::from_millis(40));
        }

        // The idle connection must have been reaped: its socket reads
        // EOF and its session was closed through the teardown path.
        idle.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut sink = [0u8; 256];
        let mut saw_eof = false;
        loop {
            match idle.read(&mut sink) {
                Ok(0) => {
                    saw_eof = true;
                    break;
                }
                Ok(_) => continue, // drain any frames written pre-reap
                Err(_) => break,
            }
        }
        assert!(saw_eof, "idle connection must be closed by the reaper");

        // The active connection is untouched: it can still close its
        // session normally.
        let mut bytes = Vec::new();
        encode_client(
            &ClientFrame::Close {
                session: 41,
                seq: seq + 1,
            },
            &mut bytes,
        );
        active.write_all(&bytes).expect("active close");
        let frames = read_server_frames(&mut active, 41);
        assert!(matches!(
            frames.last(),
            Some(ServerFrame::Outcome {
                outcome: OutcomeKind::Closed,
                ..
            })
        ));

        service.shutdown();
        let snap = service.metrics().snapshot();
        assert_eq!(snap.idle_reaped, 1, "{snap:?}");
        assert_eq!(snap.sessions_opened, 2);
        assert_eq!(snap.sessions_closed, 2, "{snap:?}");
    }

    #[test]
    fn fenced_sessions_are_redirected_with_not_owner() {
        for backend in test_backends() {
            fenced_sessions_are_redirected_with_not_owner_on(backend);
        }
    }

    fn fenced_sessions_are_redirected_with_not_owner_on(backend: PollBackend) {
        let router = SessionRouter::new(recognizer(), ServeConfig::default());
        let peer: SocketAddr = "127.0.0.1:4242".parse().expect("addr");
        router.set_fence(Arc::new(move |session| (session == 13).then_some(peer)));
        let mut service =
            TcpService::start_with(router, "127.0.0.1:0", options_with(backend)).expect("bind");
        let mut stream = TcpStream::connect(service.local_addr()).expect("connect");
        let mut bytes = Vec::new();
        encode_client(
            &ClientFrame::Hello {
                version: WIRE_VERSION,
            },
            &mut bytes,
        );
        // Session 13 belongs to the peer; session 14 is ours.
        encode_client(&ClientFrame::Open { session: 13 }, &mut bytes);
        encode_client(&ClientFrame::Open { session: 14 }, &mut bytes);
        encode_client(
            &ClientFrame::Close {
                session: 14,
                seq: 0,
            },
            &mut bytes,
        );
        stream.write_all(&bytes).expect("write");
        let frames = read_server_frames(&mut stream, 14);
        assert!(
            frames.contains(&ServerFrame::NotOwner {
                session: 13,
                owner: peer,
            }),
            "{frames:?}"
        );
        assert!(matches!(
            frames.last(),
            Some(ServerFrame::Outcome {
                outcome: OutcomeKind::Closed,
                ..
            })
        ));
        service.shutdown();
        let snap = service.metrics().snapshot();
        assert_eq!(snap.not_owner_redirects, 1);
        assert_eq!(snap.sessions_opened, 1, "the fenced open never landed");
    }

    #[test]
    fn handoff_over_tcp_is_acked_and_resumable() {
        for backend in test_backends() {
            handoff_over_tcp_is_acked_and_resumable_on(backend);
        }
    }

    fn handoff_over_tcp_is_acked_and_resumable_on(backend: PollBackend) {
        use grandma_events::{Button, EventScript};
        // Build the mid-flight session state on a standalone pipeline.
        let data = datasets::eight_way(0x7e57, 0, 1);
        let events = EventScript::new()
            .then_gesture(&data.testing[0].gesture, Button::Left)
            .into_events();
        let rec = recognizer();
        let mut pipeline =
            crate::session::SessionPipeline::new(21, crate::session::PipelineConfig::default());
        let mut scratch = Vec::new();
        let split = events.len() / 2;
        for (i, e) in events.iter().take(split).enumerate() {
            pipeline.feed(&rec, i as u32 + 1, *e, &mut scratch);
        }
        let snapshot = pipeline.snapshot();
        let mut payload = Vec::new();
        snapshot.encode(&mut payload);

        let mut service = TcpService::start_with(
            SessionRouter::new(recognizer(), ServeConfig::default()),
            "127.0.0.1:0",
            options_with(backend),
        )
        .expect("bind");
        let mut stream = TcpStream::connect(service.local_addr()).expect("connect");
        let mut bytes = Vec::new();
        encode_client(
            &ClientFrame::Hello {
                version: WIRE_VERSION,
            },
            &mut bytes,
        );
        encode_client(&ClientFrame::Handoff { snapshot: payload }, &mut bytes);
        stream.write_all(&bytes).expect("write handoff");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut fb = FrameBuffer::new();
        let mut chunk = [0u8; 4096];
        let ack = loop {
            let n = stream.read(&mut chunk).expect("read ack");
            assert!(n > 0, "eof before ack");
            fb.extend(&chunk[..n]);
            if let Some(frame) = fb.next_server().expect("server bytes") {
                break frame;
            }
        };
        assert_eq!(
            ack,
            ServerFrame::HandoffAck {
                session: 21,
                last_seq: snapshot.last_seq,
            }
        );
        // The transferred session resumes and plays out normally.
        let mut bytes = Vec::new();
        encode_client(
            &ClientFrame::Resume {
                session: 21,
                last_seq: snapshot.last_seq,
            },
            &mut bytes,
        );
        for (i, e) in events.iter().enumerate().skip(split) {
            encode_client(
                &ClientFrame::Event {
                    session: 21,
                    seq: i as u32 + 1,
                    event: *e,
                },
                &mut bytes,
            );
        }
        encode_client(
            &ClientFrame::Close {
                session: 21,
                seq: events.len() as u32 + 1,
            },
            &mut bytes,
        );
        stream.write_all(&bytes).expect("write tail");
        let frames = read_server_frames(&mut stream, 21);
        assert!(
            frames.contains(&ServerFrame::Resumed {
                session: 21,
                last_seq: snapshot.last_seq,
            }),
            "{frames:?}"
        );
        assert!(matches!(
            frames.last(),
            Some(ServerFrame::Outcome {
                outcome: OutcomeKind::Closed,
                ..
            })
        ));
        service.shutdown();
        let snap = service.metrics().snapshot();
        assert_eq!(snap.sessions_handed_off, 1);
        assert_eq!(snap.sessions_resumed, 1);
        assert_eq!(snap.sessions_closed, 1);
    }

    #[test]
    fn connections_beyond_the_cap_are_shed() {
        for backend in test_backends() {
            connections_beyond_the_cap_are_shed_on(backend);
        }
    }

    fn connections_beyond_the_cap_are_shed_on(backend: PollBackend) {
        let mut service = TcpService::start_with(
            SessionRouter::new(recognizer(), ServeConfig::default()),
            "127.0.0.1:0",
            TcpOptions {
                io_threads: 1,
                max_connections: 2,
                ..options_with(backend)
            },
        )
        .expect("bind");
        let addr = service.local_addr();
        let _a = TcpStream::connect(addr).expect("conn a");
        let _b = TcpStream::connect(addr).expect("conn b");
        // Give the accept loop time to register both before the third.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while service.metrics().snapshot().open_connections < 2 {
            assert!(std::time::Instant::now() < deadline, "registration stalled");
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut c = TcpStream::connect(addr).expect("conn c");
        c.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut sink = [0u8; 16];
        // The shed connection sees immediate EOF/reset, never a frame.
        let shed_observed = matches!(c.read(&mut sink), Ok(0) | Err(_));
        assert!(shed_observed, "third connection must be shed");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while service.metrics().snapshot().connections_shed < 1 {
            assert!(std::time::Instant::now() < deadline, "shed not counted");
            std::thread::sleep(Duration::from_millis(5));
        }
        service.shutdown();
        let snap = service.metrics().snapshot();
        assert!(snap.connections_shed >= 1, "{snap:?}");
    }

    /// Reactor-level port of the PR 6 error-bits regression, held on
    /// both backends: a peer that resets a faulted (closing) connection
    /// leaves the fd reporting only error bits — no POLLIN interest
    /// remains, no write can progress — and the reactor must tear it
    /// down rather than spin on (or leak) it.
    #[test]
    fn reset_closing_connection_is_torn_down_on_both_backends() {
        for backend in test_backends() {
            reset_closing_connection_is_torn_down_on(backend);
        }
    }

    fn reset_closing_connection_is_torn_down_on(backend: PollBackend) {
        let mut service = TcpService::start_with(
            SessionRouter::new(recognizer(), ServeConfig::default()),
            "127.0.0.1:0",
            TcpOptions {
                io_threads: 1,
                ..options_with(backend)
            },
        )
        .expect("bind");
        let stream = TcpStream::connect(service.local_addr()).expect("connect");
        // Garbage flips the connection into closing: the server queues a
        // BadFrame fault and drops read interest.
        (&stream).write_all(&[0xFF; 64]).expect("write garbage");
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while service.metrics().snapshot().decode_errors < 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "{}: garbage never faulted",
                backend.name()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        // Drop without reading the fault: unread data in our receive
        // buffer makes the kernel answer with RST, so the server side
        // flips straight to an error state instead of a clean EOF.
        drop(stream);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let open = service.metrics().snapshot().open_connections;
            if open == 0 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "{}: reset connection leaked ({open} still open)",
                backend.name()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        service.shutdown();
    }
}
