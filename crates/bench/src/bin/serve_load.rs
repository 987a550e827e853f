//! Load generator for the grandma-serve TCP service: batched (wire v2)
//! versus unbatched (v1 single-`Event`) fast-path comparison.
//!
//! Spins up the sharded service on loopback, then replays seeded
//! `grandma-synth` scripted event streams — a quarter of them
//! `FaultInjector`-corrupted — from N concurrent client connections,
//! measuring end-to-end throughput and per-event round-trip latency
//! (client send → first server frame echoing that event's `seq`). Each
//! mode runs warm-up rounds first, then repeats measured rounds until a
//! minimum wall-clock duration so the percentiles are stable.
//!
//! Server-side steady-state allocations are counted by a global
//! allocator that the bench's own threads opt out of: everything the
//! service threads (accept loop, connection readers/writers, shard
//! workers) allocate during measured rounds is divided by the frames
//! they handled. After warm-up the batched path should sit near zero —
//! pooled batch buffers, reused encode buffers, zero-copy decode.
//!
//! The two modes differ in client discipline as well as framing. The
//! unbatched client replicates the recorded v1 baseline: every session
//! open at once, one `Event` frame (one write) per event, events
//! interleaved round-robin — an open-loop firehose whose RTT is
//! dominated by the unbounded backlog it creates. The batched client is
//! the v2 fast path: events ride `EventBatch` frames (one write per
//! batch) and at most `--window` sessions per connection are in flight,
//! using the `Closed` outcome as the completion ack — bounded backlog,
//! so RTT measures the service, not the queue.
//!
//! ```text
//! serve_load [--mode both|batched|unbatched] [--batch N] [--window N]
//!            [--min-duration-s F] [--warmup N] [--smoke]
//!            [--connections N[,N...]] [--connections-tiers N[,N...]]
//!            [--chaos] [--cluster N] [--kill-node] [--kill-after-ms N]
//! ```
//!
//! `--chaos` replaces the workload with the reconnect harness: an
//! in-process service with `detach_on_disconnect`, driven by
//! `ReconnectingClient`s that sever their own connections mid-gesture
//! and must resume without losing, duplicating, or cross-wiring a
//! single outcome. The single-node SIGKILL + `--recover` drill is the
//! `grandma-serve` test suite `tests/kill_recover.rs`.
//!
//! `--cluster N` spawns N real `serve` members sharing one discovery
//! file and drives every session through a `ClusterClient`, which dials
//! the consistent-hash ring owner. With `--kill-node` the member owning
//! the most sessions is SIGKILLed `--kill-after-ms` (default 500) into
//! the load; a recovery agent replays
//! its WAL and `Handoff`s the recovered snapshots to their ring
//! successors, the registry drops the dead member, and every client
//! must re-route, resume, and finish — sessions on surviving members
//! byte-identical to the single-node baseline, moved ones a subsequence
//! of it (the gap frames died with the victim's socket), and a
//! post-recovery control wave byte-identical again. The full run writes
//! a `cluster` section (recovery time, handoff throughput) into
//! BENCH_serve.json.
//!
//! `--smoke` runs a short fixed workload, asserts zero decode errors and
//! zero busy rejections, and does NOT write BENCH_serve.json — that is
//! the CI guard. The full run writes `BENCH_serve.json` at the repo
//! root with an `unbatched` section, a `batched` section, and the
//! ratios between them.
//!
//! The connection sweep exercises the reactor transport's fan-in: for
//! each tier it spawns a fresh `serve` child (4 I/O threads, the
//! chosen `--poll-backend`), establishes that many concurrent TCP
//! connections from a small pool of worker threads, then drives
//! closed-loop open→batch→close round trips over every connection,
//! reporting accepted connections, connect failures, RTT percentiles
//! (batch write → `Closed` outcome), the reactor's `epoll_ctl` call
//! count and resolved backend (parsed from the metrics JSON the child
//! prints at graceful shutdown), and the *server process's* RSS growth
//! per established connection, sampled from the child's
//! `/proc/<pid>/statm` resident pages — page-granular, so small tiers
//! report allocator noise rather than per-connection cost. The server
//! lives in its own process so each side stays within `RLIMIT_NOFILE`
//! at the 16384-connection tier (~16.4k fds apiece; one process
//! holding both ends would need ~33k). The full run sweeps
//! 64/256/1024/2048/4096/8192/16384 **once per poll backend** (epoll
//! and poll(2) on Linux; poll only elsewhere) and writes them under
//! `connection_sweep.backends` in BENCH_serve.json; `--connections`
//! (alias `--connections-tiers`) overrides the tier list, and with
//! `--smoke` it runs a single quick tier on the default backend as a
//! CI guard without writing the file. Tiers past 4096 run one measured
//! round instead of three — at that scale the round itself is tens of
//! thousands of round trips.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use grandma_cluster::{read_cluster, remove_node};
use grandma_core::{EagerConfig, EagerRecognizer, FeatureMask};
use grandma_events::{Button, EventKind, EventScript, InputEvent};
use grandma_serve::sys::ensure_nofile_limit;
use grandma_serve::{
    encode_client, encode_event_batch, encode_server, run_events_inproc, ClientFrame,
    ClusterClient, FrameBuffer, FsyncPolicy, OutcomeKind, PipelineConfig, PollBackend,
    ReconnectingClient, RetryPolicy, ServeConfig, ServerFrame, SessionRouter, SessionSnapshot,
    TcpService, WalConfig, WIRE_VERSION,
};
use grandma_synth::{datasets, FaultInjector, SynthRng};

/// [`System`] with a counter that bench threads opt out of: counted
/// allocations are the service's, not the load generator's.
struct CountingAllocator;

static SERVER_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Bench-owned threads set this to skip the counter; service threads
    /// never touch it, so their allocations are the ones measured.
    static SUPPRESS_COUNT: Cell<bool> = const { Cell::new(false) };
}

fn suppressed() -> bool {
    // During TLS teardown the cell may be gone; err on not counting.
    SUPPRESS_COUNT.try_with(Cell::get).unwrap_or(true)
}

/// Marks the calling thread as bench-owned (uncounted).
fn suppress_this_thread() {
    let _ = SUPPRESS_COUNT.try_with(|s| s.set(true));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !suppressed() {
            SERVER_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if !suppressed() {
            SERVER_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const CLIENTS: u64 = 6;
const SESSIONS_PER_CLIENT: u64 = 24;
/// Round trips are stamped for every Nth event sequence number (both
/// modes, so the comparison is symmetric). Stamping every event makes
/// the load generator's own bookkeeping — a locked map touched per
/// event on the writer and per reply on the reader — a visible fraction
/// of a small machine's CPU, perturbing the service being measured.
const RTT_SAMPLE_EVERY: u32 = 8;
const GESTURES_PER_SESSION: usize = 2;
const SHARDS: usize = 4;
const SLOTS: u64 = CLIENTS * SESSIONS_PER_CLIENT;

/// Seeded event stream for one session *slot* (stable across rounds);
/// every fourth slot corrupted.
fn slot_stream(slot: u64) -> Vec<InputEvent> {
    let data = datasets::eight_way(0x7e57, 0, 8);
    let mut rng = SynthRng::seed_from_u64(0x10AD ^ slot.wrapping_mul(0x9E37_79B9));
    let mut script = EventScript::new();
    for _ in 0..GESTURES_PER_SESSION {
        let idx = (rng.next_u64() as usize) % data.testing.len();
        script = script.then_gesture(&data.testing[idx].gesture, Button::Left);
    }
    let events = script.into_events();
    if slot.is_multiple_of(4) {
        FaultInjector::new(0xBAD ^ slot).corrupt(&events)
    } else {
        events
    }
}

#[derive(Default)]
struct RoundStats {
    rtts_ns: Vec<u64>,
    events_sent: u64,
    points_sent: u64,
    /// Client wire frames carrying those events (== events for the
    /// unbatched mode, events/batch for the batched one).
    event_frames_sent: u64,
    /// Server frames decoded back off the wire (all of them, not just
    /// the RTT-sampled subset).
    reply_frames: u64,
    interactions: u64,
}

/// One client connection for one round: replays its sessions' streams,
/// reading replies on a parallel thread to timestamp round trips.
///
/// `batch: None` is the open-loop v1 firehose (every session open, one
/// `Event` write per event, round-robin). `batch: Some(size)` is the
/// closed-loop v2 fast path: whole sessions are sent as `EventBatch`
/// writes of `size` events, with at most `window` sessions in flight —
/// the reader acks each `Closed` outcome back to the writer.
fn run_client(
    addr: std::net::SocketAddr,
    sessions: Vec<u64>,
    streams: Arc<Vec<Vec<InputEvent>>>,
    slots: Vec<usize>,
    batch: Option<usize>,
    window: usize,
) -> RoundStats {
    suppress_this_thread();
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone stream");
    let inflight: Arc<Mutex<HashMap<(u64, u32), Instant>>> =
        Arc::new(Mutex::new(HashMap::new()));
    let (closed_tx, closed_rx) = std::sync::mpsc::channel::<()>();

    let reader = {
        let inflight = inflight.clone();
        let want_closed = sessions.len();
        let mut stream = stream;
        std::thread::spawn(move || {
            suppress_this_thread();
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .expect("timeout");
            let mut fb = FrameBuffer::new();
            let mut chunk = vec![0u8; 64 * 1024];
            let mut rtts_ns = Vec::new();
            let mut reply_frames = 0u64;
            let mut interactions = 0u64;
            let mut closed = 0usize;
            while closed < want_closed {
                let n = match stream.read(&mut chunk) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => n,
                };
                let now = Instant::now();
                fb.extend(&chunk[..n]);
                while let Some(frame) = fb.next_server().expect("server bytes") {
                    reply_frames += 1;
                    let (session, seq) = match frame {
                        ServerFrame::Recognized { session, seq, .. }
                        | ServerFrame::Manipulate { session, seq, .. }
                        | ServerFrame::Outcome { session, seq, .. }
                        | ServerFrame::Fault { session, seq, .. } => (session, seq),
                        // Only sent in reply to Resume/Handoff, which
                        // this workload never issues.
                        ServerFrame::Resumed { session, last_seq }
                        | ServerFrame::HandoffAck { session, last_seq } => (session, last_seq),
                        // Cluster routing chatter; carries no seq.
                        ServerFrame::NotOwner { session, .. } => (session, 0),
                    };
                    if seq.is_multiple_of(RTT_SAMPLE_EVERY) {
                        if let Some(sent) = inflight.lock().expect("lock").remove(&(session, seq))
                        {
                            rtts_ns.push(now.duration_since(sent).as_nanos() as u64);
                        }
                    }
                    if let ServerFrame::Outcome { outcome, .. } = frame {
                        match outcome {
                            OutcomeKind::Closed => {
                                closed += 1;
                                let _ = closed_tx.send(());
                            }
                            _ => interactions += 1,
                        }
                    }
                }
            }
            (rtts_ns, reply_frames, interactions, closed)
        })
    };

    let mut stats = RoundStats::default();
    let mut bytes = Vec::with_capacity(16 * 1024);
    encode_client(
        &ClientFrame::Hello {
            version: WIRE_VERSION,
        },
        &mut bytes,
    );
    writer.write_all(&bytes).expect("write hello");

    match batch {
        Some(size) => {
            let size = size.max(1);
            let window = window.max(1);
            let mut in_flight = 0usize;
            let mut scratch: Vec<(u32, InputEvent)> = Vec::new();
            for (idx, &session) in sessions.iter().enumerate() {
                while in_flight >= window {
                    closed_rx.recv().expect("closed ack");
                    in_flight -= 1;
                }
                let events = &streams[slots[idx]];
                bytes.clear();
                encode_client(&ClientFrame::Open { session }, &mut bytes);
                writer.write_all(&bytes).expect("write open");
                let mut at = 0usize;
                while at < events.len() {
                    // One EventBatch frame = one write syscall for up to
                    // `size` events, all stamped with one send time.
                    let end = (at + size).min(events.len());
                    scratch.clear();
                    for (i, &event) in events[at..end].iter().enumerate() {
                        scratch.push(((at + i) as u32, event));
                    }
                    at = end;
                    bytes.clear();
                    encode_event_batch(session, &scratch, &mut bytes);
                    let now = Instant::now();
                    {
                        let mut map = inflight.lock().expect("lock");
                        for &(seq, _) in &scratch {
                            if seq.is_multiple_of(RTT_SAMPLE_EVERY) {
                                map.insert((session, seq), now);
                            }
                        }
                    }
                    writer.write_all(&bytes).expect("write batch");
                    stats.events_sent += scratch.len() as u64;
                    stats.event_frames_sent += 1;
                    stats.points_sent += scratch
                        .iter()
                        .filter(|(_, e)| matches!(e.kind, EventKind::MouseMove))
                        .count() as u64;
                }
                bytes.clear();
                encode_client(
                    &ClientFrame::Close {
                        session,
                        seq: events.len() as u32,
                    },
                    &mut bytes,
                );
                writer.write_all(&bytes).expect("write close");
                in_flight += 1;
            }
        }
        None => {
            bytes.clear();
            for &session in &sessions {
                encode_client(&ClientFrame::Open { session }, &mut bytes);
            }
            writer.write_all(&bytes).expect("write opens");
            let mut cursors = vec![0usize; sessions.len()];
            loop {
                let mut progressed = false;
                for (idx, &session) in sessions.iter().enumerate() {
                    let events = &streams[slots[idx]];
                    let at = cursors[idx];
                    if at >= events.len() {
                        continue;
                    }
                    progressed = true;
                    let event = events[at];
                    let seq = at as u32;
                    cursors[idx] += 1;
                    bytes.clear();
                    encode_client(
                        &ClientFrame::Event {
                            session,
                            seq,
                            event,
                        },
                        &mut bytes,
                    );
                    if seq.is_multiple_of(RTT_SAMPLE_EVERY) {
                        inflight
                            .lock()
                            .expect("lock")
                            .insert((session, seq), Instant::now());
                    }
                    writer.write_all(&bytes).expect("write event");
                    stats.events_sent += 1;
                    stats.event_frames_sent += 1;
                    if matches!(event.kind, EventKind::MouseMove) {
                        stats.points_sent += 1;
                    }
                }
                if !progressed {
                    break;
                }
            }
            bytes.clear();
            for (idx, &session) in sessions.iter().enumerate() {
                encode_client(
                    &ClientFrame::Close {
                        session,
                        seq: streams[slots[idx]].len() as u32,
                    },
                    &mut bytes,
                );
            }
            writer.write_all(&bytes).expect("write closes");
        }
    }
    writer.flush().expect("flush");

    let (rtts_ns, reply_frames, interactions, closed) = reader.join().expect("reader thread");
    assert_eq!(closed, sessions.len(), "every session must close");
    stats.rtts_ns = rtts_ns;
    stats.reply_frames = reply_frames;
    stats.interactions = interactions;
    stats
}

/// One full round: every client drives its sessions concurrently.
/// Session ids are offset per round so each round opens fresh sessions
/// against the same long-lived service.
fn run_round(
    addr: std::net::SocketAddr,
    streams: &Arc<Vec<Vec<InputEvent>>>,
    session_base: u64,
    batch: Option<usize>,
    window: usize,
) -> (RoundStats, f64) {
    let started = Instant::now();
    let mut merged = RoundStats::default();
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for client in 0..CLIENTS {
            let slots: Vec<usize> = (0..SESSIONS_PER_CLIENT)
                .map(|i| (client * SESSIONS_PER_CLIENT + i) as usize)
                .collect();
            let sessions: Vec<u64> = slots
                .iter()
                .map(|&slot| session_base + slot as u64)
                .collect();
            let streams = streams.clone();
            joins.push(
                scope.spawn(move || run_client(addr, sessions, streams, slots, batch, window)),
            );
        }
        for join in joins {
            let stats = join.join().expect("client");
            merged.rtts_ns.extend(stats.rtts_ns);
            merged.events_sent += stats.events_sent;
            merged.points_sent += stats.points_sent;
            merged.event_frames_sent += stats.event_frames_sent;
            merged.reply_frames += stats.reply_frames;
            merged.interactions += stats.interactions;
        }
    });
    (merged, started.elapsed().as_secs_f64())
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

struct ModeResult {
    mode: &'static str,
    batch: usize,
    window: usize,
    rounds: u64,
    events_sent: u64,
    points_sent: u64,
    event_frames_sent: u64,
    reply_frames: u64,
    interactions: u64,
    wall_s: f64,
    rtt_samples: usize,
    p50: u64,
    p95: u64,
    p99: u64,
    allocs_per_frame: f64,
}

impl ModeResult {
    fn points_per_s(&self) -> f64 {
        self.points_sent as f64 / self.wall_s.max(1e-9)
    }

    fn to_json(&self) -> String {
        format!(
            "{{\n    \"batch\": {},\n    \"window\": {},\n    \"rounds\": {},\n    \
             \"events_sent\": {},\n    \
             \"points_sent\": {},\n    \"event_frames_sent\": {},\n    \"reply_frames\": {},\n    \
             \"interactions\": {},\n    \
             \"wall_s\": {:.4},\n    \"points_per_s\": {:.0},\n    \"events_per_s\": {:.0},\n    \
             \"rtt_samples\": {},\n    \"rtt_ns_p50\": {},\n    \"rtt_ns_p95\": {},\n    \
             \"rtt_ns_p99\": {},\n    \"server_allocs_per_frame\": {:.4}\n  }}",
            self.batch,
            self.window,
            self.rounds,
            self.events_sent,
            self.points_sent,
            self.event_frames_sent,
            self.reply_frames,
            self.interactions,
            self.wall_s,
            self.points_per_s(),
            self.events_sent as f64 / self.wall_s.max(1e-9),
            self.rtt_samples,
            self.p50,
            self.p95,
            self.p99,
            self.allocs_per_frame,
        )
    }
}

/// Runs one mode: `warmup` unmeasured rounds, then measured rounds until
/// `min_duration_s` of measured wall-clock has accumulated.
fn run_mode(
    addr: std::net::SocketAddr,
    streams: &Arc<Vec<Vec<InputEvent>>>,
    next_session_base: &mut u64,
    batch: Option<usize>,
    window: usize,
    warmup: u64,
    min_duration_s: f64,
) -> ModeResult {
    for _ in 0..warmup {
        let (_, _) = run_round(addr, streams, *next_session_base, batch, window);
        *next_session_base += SLOTS;
    }
    let mut rtts: Vec<u64> = Vec::new();
    let mut totals = RoundStats::default();
    let mut wall_s = 0.0f64;
    let mut rounds = 0u64;
    let allocs_before = SERVER_ALLOCATIONS.load(Ordering::Relaxed);
    loop {
        let (stats, round_s) = run_round(addr, streams, *next_session_base, batch, window);
        *next_session_base += SLOTS;
        rounds += 1;
        wall_s += round_s;
        rtts.extend(&stats.rtts_ns);
        totals.events_sent += stats.events_sent;
        totals.points_sent += stats.points_sent;
        totals.event_frames_sent += stats.event_frames_sent;
        totals.reply_frames += stats.reply_frames;
        totals.interactions += stats.interactions;
        if wall_s >= min_duration_s {
            break;
        }
    }
    let server_allocs = SERVER_ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;
    // Frames the service handled this mode: client frames in (hello/
    // open/event/batch/close ≈ event_frames + per-session overhead) plus
    // reply frames out. Event frames dominate; the per-session constants
    // are charged too so the figure cannot hide session-setup churn.
    let session_overhead = rounds * CLIENTS * (2 * SESSIONS_PER_CLIENT + 1);
    let frames_handled = totals.event_frames_sent + session_overhead + totals.reply_frames;
    rtts.sort_unstable();
    ModeResult {
        mode: if batch.is_some() { "batched" } else { "unbatched" },
        batch: batch.unwrap_or(0),
        window: if batch.is_some() { window } else { 0 },
        rounds,
        events_sent: totals.events_sent,
        points_sent: totals.points_sent,
        event_frames_sent: totals.event_frames_sent,
        reply_frames: totals.reply_frames,
        interactions: totals.interactions,
        wall_s,
        rtt_samples: rtts.len(),
        p50: percentile(&rtts, 0.50),
        p95: percentile(&rtts, 0.95),
        p99: percentile(&rtts, 0.99),
        allocs_per_frame: server_allocs as f64 / frames_handled.max(1) as f64,
    }
}

/// Default connection-sweep tiers for the full bench run.
const SWEEP_TIERS: &[usize] = &[64, 256, 1024, 2048, 4096, 8192, 16384];
/// Tiers above this run one measured round instead of three: a single
/// round at 16384 connections is already 16k closed-loop round trips
/// per worker set.
const SWEEP_DEEP_TIER: usize = 4096;
/// `RLIMIT_NOFILE` the harness asks for at startup: the client end of
/// the largest tier plus harness overhead (the server end lives in a
/// spawned `serve` child, which raises its own limit).
const SWEEP_NOFILE_WANT: u64 = 17_000;
/// Client worker threads driving a sweep tier; each owns an equal share
/// of the connections and runs them closed-loop (one round trip in
/// flight per worker), so the server-side concurrency under test is the
/// established connections, not an unbounded request backlog.
const SWEEP_WORKERS: usize = 4;
/// Events per sweep round trip, sent as one `EventBatch` frame.
const SWEEP_BATCH: usize = 24;
/// Reactor I/O threads for every sweep tier (the C100K acceptance bar:
/// thousands of connections on at most this many poll loops).
const SWEEP_IO_THREADS: usize = 4;

/// Page size for `/proc/<pid>/statm` accounting, read once from the
/// ELF auxiliary vector (`AT_PAGESZ` in `/proc/self/auxv` — no libc
/// dependency). statm counts *pages*, so assuming 4096 would skew
/// `rss_bytes` by 4–16x on the 16K/64K-page kernels common on aarch64.
/// Falls back to 4096 when auxv is unreadable; the recorded
/// `page_bytes` field in the sweep JSON says which value was used.
fn page_bytes() -> u64 {
    static PAGE: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *PAGE.get_or_init(|| {
        // auxv is an array of (key, value) machine words; the bench
        // only targets 64-bit, where that is two u64s per entry.
        const AT_PAGESZ: u64 = 6;
        if cfg!(target_pointer_width = "64") {
            if let Ok(auxv) = std::fs::read("/proc/self/auxv") {
                for pair in auxv.chunks_exact(16) {
                    let (Ok(key), Ok(val)) = (
                        <[u8; 8]>::try_from(&pair[..8]),
                        <[u8; 8]>::try_from(&pair[8..]),
                    ) else {
                        break;
                    };
                    if u64::from_ne_bytes(key) == AT_PAGESZ {
                        let page = u64::from_ne_bytes(val);
                        if page.is_power_of_two() && (512..=1 << 20).contains(&page) {
                            return page;
                        }
                    }
                }
            }
        }
        4096
    })
}

/// Resident set size of process `pid` in bytes, from the second field
/// of `/proc/<pid>/statm` (resident pages); 0 when unavailable
/// (non-Linux).
///
/// statm is preferred over `/proc/<pid>/status`'s `VmRSS:` line because
/// it is the raw page counter the kernel maintains — but either way the
/// measurement is page-granular: a delta smaller than one page per
/// connection is dominated by sampling noise (allocator churn, lazily
/// faulted stacks), not per-connection state. Small tiers therefore
/// report noise; the per-connection figure only means something once
/// `connections × true-cost` is many pages. DESIGN.md §13's bench notes
/// carry the caveat.
fn proc_rss_bytes(pid: u32) -> u64 {
    let Ok(statm) = std::fs::read_to_string(format!("/proc/{pid}/statm")) else {
        return 0;
    };
    statm
        .split_whitespace()
        .nth(1)
        .and_then(|pages| pages.parse::<u64>().ok())
        .unwrap_or(0)
        * page_bytes()
}

/// One established sweep connection: its socket plus the decode buffer
/// that must persist across rounds (replies can straddle reads).
struct SweepConn {
    stream: TcpStream,
    fb: FrameBuffer,
    idx: usize,
}

/// Results for one sweep tier on one backend.
struct TierResult {
    connections: usize,
    accepted: usize,
    connect_failures: usize,
    round_trip_failures: usize,
    rounds: u64,
    rtt_samples: usize,
    p50: u64,
    p95: u64,
    p99: u64,
    /// Page-granular resident-set growth across the tier (see
    /// [`rss_bytes`] for why small tiers report noise here).
    rss_delta_bytes: u64,
    rss_bytes_per_conn: u64,
    /// `epoll_ctl(2)` calls the service's reactors made over the tier's
    /// lifetime (0 on the poll backend).
    epoll_ctl_calls: u64,
    /// Backend the service actually ran (`"poll"`/`"epoll"`).
    reactor_backend: &'static str,
    wall_s: f64,
}

impl TierResult {
    fn to_json(&self) -> String {
        format!(
            "{{ \"connections\": {}, \"accepted\": {}, \"connect_failures\": {}, \
             \"round_trip_failures\": {}, \"rounds\": {}, \"rtt_samples\": {}, \
             \"rtt_ns_p50\": {}, \"rtt_ns_p95\": {}, \"rtt_ns_p99\": {}, \
             \"rss_delta_bytes\": {}, \"rss_bytes_per_conn\": {}, \
             \"epoll_ctl_calls\": {}, \"wall_s\": {:.4} }}",
            self.connections,
            self.accepted,
            self.connect_failures,
            self.round_trip_failures,
            self.rounds,
            self.rtt_samples,
            self.p50,
            self.p95,
            self.p99,
            self.rss_delta_bytes,
            self.rss_bytes_per_conn,
            self.epoll_ctl_calls,
            self.wall_s,
        )
    }
}

fn connect_with_retry(addr: std::net::SocketAddr) -> Option<TcpStream> {
    for attempt in 0..5 {
        match TcpStream::connect(addr) {
            Ok(stream) => return Some(stream),
            Err(_) => std::thread::sleep(Duration::from_millis(5 << attempt)),
        }
    }
    None
}

/// One closed-loop round trip on one connection: `Open` + one
/// `EventBatch` + `Close` in a single write, timed until the `Closed`
/// outcome for that session comes back.
fn sweep_round_trip(
    conn: &mut SweepConn,
    session: u64,
    events: &[(u32, InputEvent)],
    scratch: &mut Vec<u8>,
) -> std::io::Result<u64> {
    scratch.clear();
    encode_client(&ClientFrame::Open { session }, scratch);
    encode_event_batch(session, events, scratch);
    encode_client(
        &ClientFrame::Close {
            session,
            seq: events.len() as u32,
        },
        scratch,
    );
    let started = Instant::now();
    conn.stream.write_all(scratch)?;
    let mut chunk = [0u8; 4096];
    loop {
        while let Some(frame) = conn.fb.next_server().expect("valid server bytes") {
            if matches!(
                frame,
                ServerFrame::Outcome {
                    session: s,
                    outcome: OutcomeKind::Closed,
                    ..
                } if s == session
            ) {
                return Ok(started.elapsed().as_nanos() as u64);
            }
        }
        let n = conn.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed mid round trip",
            ));
        }
        conn.fb.extend(&chunk[..n]);
    }
}

/// Drives `rounds` closed-loop rounds over every connection group in
/// parallel. Session ids are `session_base + round*n + idx`, unique for
/// the tier's lifetime. Returns (rtts, failed round trips).
fn sweep_phase(
    groups: &mut [Vec<SweepConn>],
    n: usize,
    session_base: u64,
    rounds: u64,
    events: &[(u32, InputEvent)],
) -> (Vec<u64>, usize) {
    let mut all_rtts = Vec::new();
    let mut failures = 0usize;
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for group in groups.iter_mut() {
            joins.push(scope.spawn(move || {
                suppress_this_thread();
                let mut rtts = Vec::new();
                let mut failed = 0usize;
                let mut scratch = Vec::with_capacity(4096);
                for round in 0..rounds {
                    for conn in group.iter_mut() {
                        let session = session_base + round * n as u64 + conn.idx as u64;
                        match sweep_round_trip(conn, session, events, &mut scratch) {
                            Ok(ns) => rtts.push(ns),
                            Err(_) => failed += 1,
                        }
                    }
                }
                (rtts, failed)
            }));
        }
        for join in joins {
            let (rtts, failed) = join.join().expect("sweep worker");
            all_rtts.extend(rtts);
            failures += failed;
        }
    });
    (all_rtts, failures)
}

/// Spawns the sweep's `serve` child on `addr` with the tier's backend,
/// returning the guard plus the kept-open stdout reader — the metrics
/// JSON the child prints at graceful shutdown is the tier's
/// server-side truth (resolved backend, `epoll_ctl` count).
fn spawn_sweep_serve(
    harness: &Harness,
    addr: &str,
    backend: PollBackend,
) -> (ChildGuard, std::io::BufReader<std::process::ChildStdout>) {
    let mut cmd = std::process::Command::new(&harness.serve_bin);
    cmd.arg("run")
        .arg("--model")
        .arg(&harness.model)
        .args(["--addr", addr])
        .args(["--shards", &SHARDS.to_string()])
        .args(["--queue-capacity", "32768"])
        .args(["--io-threads", &SWEEP_IO_THREADS.to_string()])
        .args(["--poll-backend", backend.name()]);
    cmd.stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::inherit());
    let mut guard = ChildGuard::new(cmd.spawn().expect("spawn sweep serve"));
    let stdout = guard
        .child
        .as_mut()
        .expect("fresh guard holds its child")
        .stdout
        .take()
        .expect("sweep serve stdout");
    let mut lines = std::io::BufReader::new(stdout);
    let mut line = String::new();
    loop {
        line.clear();
        let count = std::io::BufRead::read_line(&mut lines, &mut line).unwrap_or(0);
        if count > 0 && line.starts_with("listening on ") {
            return (guard, lines);
        }
        if count == 0 {
            panic!("sweep serve exited before listening");
        }
    }
}

/// Pulls a `"key": <integer>` field out of the child's metrics JSON;
/// 0 when absent or malformed.
fn metrics_u64(json: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    json.find(&needle)
        .map(|at| {
            json[at + needle.len()..]
                .trim_start()
                .chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
        })
        .and_then(|digits| digits.parse().ok())
        .unwrap_or(0)
}

/// Pulls the resolved reactor backend out of the child's metrics JSON.
fn metrics_backend(json: &str) -> &'static str {
    const NEEDLE: &str = "\"reactor_backend\": \"";
    match json.find(NEEDLE) {
        Some(at) => {
            let rest = &json[at + NEEDLE.len()..];
            if rest.starts_with("epoll") {
                "epoll"
            } else if rest.starts_with("poll") {
                "poll"
            } else {
                "none"
            }
        }
        None => "none",
    }
}

/// One sweep tier: fresh `serve` child on `backend`, `n` concurrent
/// connections, one warm-up round, then `rounds` measured rounds.
fn sweep_tier(
    harness: &Harness,
    backend: PollBackend,
    n: usize,
    rounds: u64,
    events: &[(u32, InputEvent)],
) -> TierResult {
    let addr_str = probe_port();
    let addr: SocketAddr = addr_str.parse().expect("sweep addr");
    let (mut guard, mut child_out) = spawn_sweep_serve(harness, &addr_str, backend);
    let pid = guard.child.as_ref().expect("live child").id();
    let rss_before = proc_rss_bytes(pid);

    // Establish the tier's connections in parallel, striped over the
    // workers so every group ends up with an equal share.
    let mut groups: Vec<Vec<SweepConn>> = Vec::new();
    let mut connect_failures = 0usize;
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for w in 0..SWEEP_WORKERS {
            joins.push(scope.spawn(move || {
                suppress_this_thread();
                let mut conns = Vec::new();
                let mut failures = 0usize;
                let mut hello = Vec::new();
                encode_client(
                    &ClientFrame::Hello {
                        version: WIRE_VERSION,
                    },
                    &mut hello,
                );
                let mut idx = w;
                while idx < n {
                    match connect_with_retry(addr) {
                        Some(mut stream) => {
                            let _ = stream.set_nodelay(true);
                            let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
                            if stream.write_all(&hello).is_ok() {
                                conns.push(SweepConn {
                                    stream,
                                    fb: FrameBuffer::new(),
                                    idx,
                                });
                            } else {
                                failures += 1;
                            }
                        }
                        None => failures += 1,
                    }
                    idx += SWEEP_WORKERS;
                }
                (conns, failures)
            }));
        }
        for join in joins {
            let (conns, failures) = join.join().expect("connect worker");
            groups.push(conns);
            connect_failures += failures;
        }
    });
    let accepted: usize = groups.iter().map(Vec::len).sum();

    // Warm-up round: materializes per-connection buffers server-side,
    // so the RSS delta reflects steady-state per-connection cost.
    let (_, warmup_failures) = sweep_phase(&mut groups, n, 1, 1, events);
    let rss_after = proc_rss_bytes(pid);
    let started = Instant::now();
    let session_base = 1 + n as u64;
    let (mut rtts, mut failures) = sweep_phase(&mut groups, n, session_base, rounds, events);
    let wall_s = started.elapsed().as_secs_f64();
    failures += warmup_failures;

    // Client sockets close first so the child's graceful shutdown isn't
    // also a teardown storm; then its final stdout — the metrics JSON —
    // carries the server-side counters out.
    drop(groups);
    let status = guard.stop_gracefully().expect("wait sweep serve");
    assert!(status.success(), "sweep serve exited {status}");
    let mut metrics_json = String::new();
    let _ = std::io::Read::read_to_string(&mut child_out, &mut metrics_json);

    rtts.sort_unstable();
    let rss_delta_bytes = rss_after.saturating_sub(rss_before);
    TierResult {
        connections: n,
        accepted,
        connect_failures,
        round_trip_failures: failures,
        rounds,
        rtt_samples: rtts.len(),
        p50: percentile(&rtts, 0.50),
        p95: percentile(&rtts, 0.95),
        p99: percentile(&rtts, 0.99),
        rss_delta_bytes,
        rss_bytes_per_conn: rss_delta_bytes / accepted.max(1) as u64,
        epoll_ctl_calls: metrics_u64(&metrics_json, "epoll_ctl_calls"),
        reactor_backend: metrics_backend(&metrics_json),
        wall_s,
    }
}

// ---------------------------------------------------------------------
// Reconnect harness: --chaos (in-process forced disconnects).
// ---------------------------------------------------------------------

/// Sessions driven by the chaos harness.
const CHAOS_SESSIONS: u64 = 12;
/// A chaos client severs its connection every this many events.
const CHAOS_DISCONNECT_EVERY: usize = 40;

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

/// Routing and resume chatter the single-node baseline never emits;
/// stripped before the byte-level comparisons.
fn is_routing_chatter(frame: &ServerFrame) -> bool {
    matches!(
        frame,
        ServerFrame::Resumed { .. } | ServerFrame::HandoffAck { .. } | ServerFrame::NotOwner { .. }
    )
}

/// Per-frame wire encodings — the unit of the byte-identical and
/// subsequence comparisons.
fn frames_to_wire(frames: &[ServerFrame]) -> Vec<Vec<u8>> {
    frames
        .iter()
        .map(|frame| {
            let mut bytes = Vec::new();
            encode_server(frame, &mut bytes);
            bytes
        })
        .collect()
}

/// What a never-crashed in-process pipeline says this session's frames
/// are, with the reconnecting client's 1-based seq numbering.
fn chaos_baseline(rec: &EagerRecognizer, session: u64, events: &[InputEvent]) -> Vec<Vec<u8>> {
    let seqd: Vec<(u32, InputEvent)> = events
        .iter()
        .enumerate()
        .map(|(i, &e)| ((i + 1) as u32, e))
        .collect();
    let frames = run_events_inproc(
        rec,
        session,
        &PipelineConfig::default(),
        &seqd,
        events.len() as u32 + 1,
    );
    frames_to_wire(&frames)
}

fn is_subsequence(needle: &[Vec<u8>], hay: &[Vec<u8>]) -> bool {
    let mut it = hay.iter();
    needle.iter().all(|n| it.any(|h| h == n))
}

/// The invariants every chaos/kill session must satisfy regardless of
/// how many times its connection died: no foreign frames (zero
/// cross-session contamination), strictly increasing outcome seqs (no
/// replays), and exactly one `Closed`, last.
fn assert_session_invariants(session: u64, frames: &[ServerFrame]) {
    let mut last_outcome_seq = 0u32;
    let mut closed = 0usize;
    for (i, frame) in frames.iter().enumerate() {
        assert_eq!(
            frame_session(frame),
            session,
            "cross-session contamination: session {session} received {frame:?}"
        );
        if let ServerFrame::Outcome { seq, outcome, .. } = frame {
            assert!(
                *seq > last_outcome_seq || (*seq == 0 && last_outcome_seq == 0),
                "session {session}: outcome seq {seq} after {last_outcome_seq} (duplicate?)"
            );
            last_outcome_seq = *seq;
            if *outcome == OutcomeKind::Closed {
                closed += 1;
                assert_eq!(i, frames.len() - 1, "session {session}: frames after Closed");
            }
        }
    }
    assert_eq!(closed, 1, "session {session}: {closed} Closed outcomes");
}

/// Drives one session's events through a `ReconnectingClient`,
/// optionally severing the connection every `disconnect_every` events.
/// Returns the received frames, how often the client reconnected, and
/// how many events it re-sent.
fn drive_chaos_session(
    addr: std::net::SocketAddr,
    session: u64,
    events: &[InputEvent],
    disconnect_every: Option<usize>,
) -> (Vec<ServerFrame>, u64, u64) {
    suppress_this_thread();
    let policy = RetryPolicy {
        max_attempts: 30,
        base_delay: Duration::from_millis(25),
        max_delay: Duration::from_millis(400),
        request_timeout: Duration::from_secs(10),
        jitter_seed: 0xC0FFEE ^ session,
    };
    let mut client = ReconnectingClient::connect(addr, session, policy).expect("chaos connect");
    for (i, &event) in events.iter().enumerate() {
        if disconnect_every.is_some_and(|k| i > 0 && i.is_multiple_of(k)) {
            client.force_disconnect();
        }
        client.send_event(event).expect("chaos send");
    }
    let frames = client.close().expect("chaos close");
    (frames, client.reconnects(), client.resent_events())
}

/// `--chaos`: in-process reconnect harness. Odd sessions sever their
/// connection repeatedly and must produce a subsequence of the
/// never-crashed baseline (the gap frames were emitted while the wire
/// was down); even sessions never disconnect and must match the
/// baseline byte for byte.
fn run_chaos(rec: &Arc<EagerRecognizer>) -> ExitCode {
    let config = ServeConfig {
        shards: SHARDS,
        queue_capacity: 1 << 15,
        detach_on_disconnect: true,
        ..ServeConfig::default()
    };
    let mut service = TcpService::start(SessionRouter::new(rec.clone(), config), "127.0.0.1:0")
        .expect("bind chaos service");
    let addr = service.local_addr();
    let mut total_reconnects = 0u64;
    let mut total_resent = 0u64;
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for session in 1..=CHAOS_SESSIONS {
            joins.push(scope.spawn(move || {
                let events = slot_stream(session);
                let chaotic = session % 2 == 1;
                let (frames, reconnects, resent) = drive_chaos_session(
                    addr,
                    session,
                    &events,
                    chaotic.then_some(CHAOS_DISCONNECT_EVERY),
                );
                assert_session_invariants(session, &frames);
                let got = frames_to_wire(&frames);
                let want = chaos_baseline(rec, session, &events);
                if chaotic {
                    assert!(reconnects >= 1, "chaos session {session} never reconnected");
                    assert!(
                        is_subsequence(&got, &want),
                        "chaos session {session}: frames are not a subsequence of the baseline"
                    );
                } else {
                    assert_eq!(
                        got, want,
                        "clean session {session}: frames must be byte-identical"
                    );
                }
                (reconnects, resent)
            }));
        }
        for join in joins {
            let (reconnects, resent) = join.join().expect("chaos client");
            total_reconnects += reconnects;
            total_resent += resent;
        }
    });
    let resumed = service.metrics().snapshot().sessions_resumed;
    service.shutdown();
    assert!(resumed >= total_reconnects.min(1), "server never resumed");
    eprintln!(
        "serve_load: chaos ok ({CHAOS_SESSIONS} sessions, {total_reconnects} reconnects, \
         {total_resent} events re-sent, {resumed} server-side resumes)"
    );
    ExitCode::SUCCESS
}

/// RAII handle for a spawned `serve` child: however the harness exits —
/// including a panic unwinding through a failed assert — the process is
/// SIGKILLed and reaped when the guard drops, so a broken drill cannot
/// leak a listening server or a zombie.
struct ChildGuard {
    child: Option<std::process::Child>,
}

impl ChildGuard {
    fn new(child: std::process::Child) -> Self {
        Self { child: Some(child) }
    }

    /// SIGKILL + reap now; idempotent.
    fn kill_now(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Graceful stop: close the child's stdin (its exit signal) and
    /// wait for it to finish its shutdown path (WAL seal, cluster
    /// deregistration, handoff). `None` if the child is already gone.
    fn stop_gracefully(&mut self) -> Option<std::process::ExitStatus> {
        let mut child = self.child.take()?;
        drop(child.stdin.take());
        child.wait().ok()
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        self.kill_now();
    }
}

/// Spawns `serve run` on `addr` with a sync WAL at `wal_dir`
/// (recovering from it when `recover`, joining `cluster` when given),
/// holding its stdin open, and waits for the `listening on` line.
fn spawn_serve(
    bin: &std::path::Path,
    model: &std::path::Path,
    addr: &str,
    wal_dir: &std::path::Path,
    recover: bool,
    cluster: Option<(&std::path::Path, &str)>,
) -> ChildGuard {
    let mut cmd = std::process::Command::new(bin);
    cmd.arg("run")
        .args(["--model"])
        .arg(model)
        .args(["--addr", addr, "--wal", "sync", "--wal-dir"])
        .arg(wal_dir);
    if recover {
        cmd.arg("--recover").arg(wal_dir);
    }
    if let Some((file, node_id)) = cluster {
        cmd.arg("--cluster-file")
            .arg(file)
            .args(["--node-id", node_id]);
    }
    cmd.stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::inherit());
    let mut guard = ChildGuard::new(cmd.spawn().expect("spawn serve"));
    let stdout = guard
        .child
        .as_mut()
        .expect("fresh guard holds its child")
        .stdout
        .take()
        .expect("serve stdout");
    let mut lines = std::io::BufReader::new(stdout);
    let mut line = String::new();
    loop {
        line.clear();
        let n = std::io::BufRead::read_line(&mut lines, &mut line).unwrap_or(0);
        if n > 0 && line.starts_with("listening on ") {
            return guard;
        }
        if n == 0 {
            // EOF (or a read error) before the listening line; the
            // guard reaps the child as this panic unwinds.
            panic!("serve exited before listening");
        }
    }
}

/// A loopback port that was free a moment ago: bind-then-drop, so a
/// child can be handed a concrete address clients can redial after the
/// process restarts or dies.
fn probe_port() -> String {
    let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe port");
    probe.local_addr().expect("probe addr").to_string()
}

/// Shared setup for the process-spawning drills: a scratch dir, the
/// `serve` binary, a model trained by it, and the recognizer parsed
/// back from that model — so harness-side baselines and WAL recovery
/// agree with the children byte for byte.
struct Harness {
    dir: std::path::PathBuf,
    serve_bin: std::path::PathBuf,
    model: std::path::PathBuf,
    rec: Arc<EagerRecognizer>,
}

impl Harness {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("grandma-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir harness dir");
        let serve_bin = std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(|d| d.join("serve")))
            .filter(|p| p.exists())
            .expect("serve binary next to serve_load (cargo build --workspace)");
        let model = dir.join("model.txt");
        let trained = std::process::Command::new(&serve_bin)
            .args(["train", "--out"])
            .arg(&model)
            .stdout(std::process::Stdio::null())
            .status()
            .expect("run serve train");
        assert!(trained.success(), "serve train failed");
        let rec = Arc::new(
            EagerRecognizer::from_text(&std::fs::read_to_string(&model).expect("read model"))
                .expect("parse model"),
        );
        Self {
            dir,
            serve_bin,
            model,
            rec,
        }
    }
}

/// Rewrites BENCH_serve.json with `section` (the bare `"key": {...}`
/// text, two-space indented, no leading comma) appended after the
/// workload sections, in place of any earlier `key` section.
fn write_bench_drill_section(key: &str, section: &str) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    let base = match std::fs::read_to_string(path) {
        Ok(existing) => match existing.find(&format!(",\n  \"{key}\":")) {
            Some(at) => existing[..at].to_string(),
            None => existing.trim_end().trim_end_matches('}').trim_end().to_string(),
        },
        Err(_) => "{\n  \"bench\": \"serve_load\"".to_string(),
    };
    let out = format!("{base},\n{section}\n}}\n");
    std::fs::write(path, out).expect("write BENCH_serve.json");
    eprintln!("serve_load: updated {path} ({key} section)");
}

// ---------------------------------------------------------------------
// Cluster drill: --cluster N [--kill-node] against real serve members
// sharing one discovery file.
// ---------------------------------------------------------------------

/// A short-lived wire connection the recovery agent uses to push a dead
/// member's snapshots to their ring successors.
struct HandoffConn {
    stream: TcpStream,
    fb: FrameBuffer,
    scratch: Vec<u8>,
}

impl HandoffConn {
    fn dial(addr: SocketAddr) -> Option<Self> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).ok()?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
        let mut conn = Self {
            stream,
            fb: FrameBuffer::new(),
            scratch: Vec::new(),
        };
        conn.write(&ClientFrame::Hello {
            version: WIRE_VERSION,
        })
        .ok()?;
        Some(conn)
    }

    fn write(&mut self, frame: &ClientFrame) -> std::io::Result<()> {
        self.scratch.clear();
        encode_client(frame, &mut self.scratch);
        self.stream.write_all(&self.scratch)
    }

    /// Sends one snapshot and waits for its `HandoffAck`; returns the
    /// snapshot's encoded size, or `None` if the peer refused it.
    fn handoff(&mut self, snapshot: &SessionSnapshot) -> Option<usize> {
        let mut payload = Vec::new();
        snapshot.encode(&mut payload);
        let size = payload.len();
        self.write(&ClientFrame::Handoff { snapshot: payload })
            .ok()?;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.fb.next_server() {
                Ok(Some(ServerFrame::HandoffAck { session, .. }))
                    if session == snapshot.session =>
                {
                    return Some(size);
                }
                Ok(Some(ServerFrame::Fault { session, .. }))
                    if session == snapshot.session || session == 0 =>
                {
                    return None;
                }
                Ok(Some(_)) => {}
                Ok(None) => match self.stream.read(&mut chunk) {
                    Ok(0) | Err(_) => return None,
                    Ok(n) => self.fb.extend(chunk.get(..n).unwrap_or(&[])),
                },
                Err(_) => return None,
            }
        }
    }
}

/// Drives one session's events through a [`ClusterClient`], paced so a
/// concurrent kill lands mid-stream. A failed send leaves the event in
/// the resume window, so recovery is route repair (pump until a live
/// owner resumes the session), never a re-send. Returns
/// `(frames, redirects, reconnects, resent_events)`.
fn drive_cluster_session(
    cluster_file: &std::path::Path,
    session: u64,
    events: &[InputEvent],
    pace: Duration,
) -> (Vec<ServerFrame>, u64, u64, u64) {
    suppress_this_thread();
    let policy = RetryPolicy {
        max_attempts: 4,
        base_delay: Duration::from_millis(10),
        max_delay: Duration::from_millis(160),
        request_timeout: Duration::from_secs(5),
        jitter_seed: 0xC1_0573 ^ session,
    };
    let mut client =
        ClusterClient::connect(cluster_file, session, policy).expect("cluster connect");
    for &event in events {
        if client.send_event(event).is_err() {
            // The event already sits in the unacked window; repair the
            // route (the resume re-sends the window) and move on.
            let deadline = Instant::now() + Duration::from_secs(30);
            while client.pump(Duration::from_millis(5)).is_err() {
                assert!(
                    Instant::now() < deadline,
                    "session {session}: no route to a live owner"
                );
                std::thread::sleep(Duration::from_millis(25));
            }
        }
        if !pace.is_zero() {
            std::thread::sleep(pace);
        }
    }
    let mut closed = None;
    let deadline = Instant::now() + Duration::from_secs(30);
    while closed.is_none() {
        match client.close() {
            Ok(frames) => closed = Some(frames),
            Err(e) => {
                assert!(
                    Instant::now() < deadline,
                    "session {session}: close never routed: {e}"
                );
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }
    (
        closed.expect("loop exits with frames"),
        client.redirects(),
        client.reconnects(),
        client.resent_events(),
    )
}

/// `--cluster N [--kill-node]`: the multi-node drill. Real `serve`
/// members share one discovery file; every session is driven through a
/// [`ClusterClient`] that dials its consistent-hash ring owner. With
/// `kill_node` the busiest member is SIGKILLed mid-load; its WAL is
/// replayed by a recovery agent that `Handoff`s the snapshots to their
/// ring successors, and every client must re-route, resume, and finish.
fn run_cluster_drill(nodes: usize, kill_node: bool, kill_after_ms: u64, smoke: bool) -> ExitCode {
    assert!(nodes >= 2, "--cluster wants at least 2 nodes");
    let harness = Harness::new("cluster");
    let cluster_file = harness.dir.join("cluster.json");

    // Members register themselves once listening.
    let mut members: Vec<(String, SocketAddr, std::path::PathBuf, ChildGuard)> = Vec::new();
    for i in 0..nodes {
        let addr_str = probe_port();
        let wal_dir = harness.dir.join(format!("wal-{i}"));
        let node_id = format!("node-{i}");
        let guard = spawn_serve(
            &harness.serve_bin,
            &harness.model,
            &addr_str,
            &wal_dir,
            false,
            Some((&cluster_file, &node_id)),
        );
        members.push((node_id, addr_str.parse().expect("addr"), wal_dir, guard));
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    let view = loop {
        if let Ok(view) = read_cluster(&cluster_file) {
            if view.nodes.len() == nodes {
                break view;
            }
        }
        assert!(
            Instant::now() < deadline,
            "registry never converged to {nodes} members"
        );
        std::thread::sleep(Duration::from_millis(10));
    };

    // The victim: the member owning the most drill sessions (at least
    // one by pigeonhole, members never outnumbering sessions).
    let owned_by = |addr: SocketAddr| {
        (1..=CHAOS_SESSIONS)
            .filter(|&s| view.owner_addr(s) == Some(addr))
            .count()
    };
    let victim = (0..members.len())
        .max_by_key(|&i| owned_by(members[i].1))
        .expect("at least one member");
    let (victim_id, victim_addr, victim_wal, victim_guard) = members.remove(victim);
    let victim_sessions = owned_by(victim_addr) as u64;
    assert!(victim_sessions >= 1, "victim owns no sessions");

    // Pace sends so the kill lands while every session is mid-stream.
    let max_events = (1..=CHAOS_SESSIONS)
        .map(|s| slot_stream(s).len())
        .max()
        .unwrap_or(1)
        .max(1);
    let pace = if kill_node {
        Duration::from_micros((kill_after_ms * 2 + 1000) * 1000 / max_events as u64)
    } else {
        Duration::ZERO
    };

    let rec = harness.rec.clone();
    let mut total_redirects = 0u64;
    let mut total_reconnects = 0u64;
    let mut total_resent = 0u64;
    let mut spared = None;
    let recovery = std::thread::scope(|scope| {
        let killer = if kill_node {
            let cluster_file = &cluster_file;
            let rec = rec.clone();
            let agent_id = victim_id.clone();
            let agent_wal = victim_wal.clone();
            let mut victim_guard = victim_guard;
            Some(scope.spawn(move || {
                suppress_this_thread();
                std::thread::sleep(Duration::from_millis(kill_after_ms));
                victim_guard.kill_now();
                let killed_at = Instant::now();
                // Recovery agent: replay the victim's WAL into a fresh
                // router, drain it, and push every recovered session to
                // its ring successor over the wire.
                let config = ServeConfig {
                    shards: SHARDS,
                    queue_capacity: 1 << 15,
                    ..ServeConfig::default()
                };
                let agent = SessionRouter::new(rec, config);
                let report = agent
                    .recover(&WalConfig::new(agent_wal, FsyncPolicy::Async))
                    .expect("replay victim wal");
                let snapshots = agent.drain_sessions();
                agent.shutdown();
                // Successor view: the registry minus the victim. The
                // victim is NOT deregistered yet, so clients keep
                // retrying the dead address and cannot race a Resume
                // ahead of their session's handoff.
                let mut successors = read_cluster(cluster_file).expect("read registry");
                successors.nodes.retain(|n| n.id != agent_id);
                let handoff_started = Instant::now();
                let mut peers: Vec<(SocketAddr, HandoffConn)> = Vec::new();
                let mut handoff_bytes = 0u64;
                for snapshot in &snapshots {
                    let owner = successors
                        .owner_addr(snapshot.session)
                        .expect("successor owner");
                    if !peers.iter().any(|(a, _)| *a == owner) {
                        peers.push((owner, HandoffConn::dial(owner).expect("dial successor")));
                    }
                    let conn = peers
                        .iter_mut()
                        .find(|(a, _)| *a == owner)
                        .map(|(_, c)| c)
                        .expect("peer cached");
                    let size = conn.handoff(snapshot).expect("successor must ack the handoff");
                    handoff_bytes += size as u64;
                }
                let handoff_s = handoff_started.elapsed().as_secs_f64();
                // Publishing the membership change releases the waiting
                // clients onto the successors.
                remove_node(cluster_file, &agent_id).expect("deregister victim");
                let recovery_ms = killed_at.elapsed().as_secs_f64() * 1e3;
                (report, snapshots.len(), handoff_bytes, handoff_s, recovery_ms)
            }))
        } else {
            spared = Some(victim_guard);
            None
        };
        let mut joins = Vec::new();
        for session in 1..=CHAOS_SESSIONS {
            let rec = rec.clone();
            let cluster_file = &cluster_file;
            let moved = kill_node && view.owner_addr(session) == Some(victim_addr);
            joins.push(scope.spawn(move || {
                let events = slot_stream(session);
                let (frames, redirects, reconnects, resent) =
                    drive_cluster_session(cluster_file, session, &events, pace);
                assert_session_invariants(session, &frames);
                let substantive: Vec<ServerFrame> = frames
                    .into_iter()
                    .filter(|f| !is_routing_chatter(f))
                    .collect();
                let got = frames_to_wire(&substantive);
                let want = chaos_baseline(&rec, session, &events);
                if moved {
                    assert!(redirects >= 1, "moved session {session} never redirected");
                    assert!(
                        is_subsequence(&got, &want),
                        "moved session {session}: frames are not a subsequence of the baseline"
                    );
                } else {
                    assert_eq!(
                        got, want,
                        "unmoved session {session}: frames must be byte-identical"
                    );
                }
                (redirects, reconnects, resent)
            }));
        }
        for join in joins {
            let (redirects, reconnects, resent) = join.join().expect("cluster client");
            total_redirects += redirects;
            total_reconnects += reconnects;
            total_resent += resent;
        }
        killer.map(|k| k.join().expect("killer thread"))
    });
    if let Some(guard) = spared {
        members.push((victim_id.clone(), victim_addr, victim_wal.clone(), guard));
    }

    // Control wave: fresh sessions against the surviving membership
    // must be byte-identical to the single-node baseline — the handoffs
    // contaminated nothing.
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for session in 1001..=(1000 + CHAOS_SESSIONS) {
            let rec = rec.clone();
            let cluster_file = &cluster_file;
            joins.push(scope.spawn(move || {
                let events = slot_stream(session);
                let (frames, _, _, _) =
                    drive_cluster_session(cluster_file, session, &events, Duration::ZERO);
                assert_session_invariants(session, &frames);
                let frames: Vec<ServerFrame> = frames
                    .into_iter()
                    .filter(|f| !is_routing_chatter(f))
                    .collect();
                assert_eq!(
                    frames_to_wire(&frames),
                    chaos_baseline(&rec, session, &events),
                    "control session {session}: frames must be byte-identical"
                );
            }));
        }
        for join in joins {
            join.join().expect("control client");
        }
    });

    // Survivors stop gracefully: deregister, drain (nothing left — the
    // clients closed every session), seal their WALs.
    for (id, _, _, mut guard) in members {
        let status = guard.stop_gracefully().expect("wait member");
        assert!(status.success(), "member {id} exited {status}");
    }

    match &recovery {
        Some((report, handoffs, handoff_bytes, handoff_s, recovery_ms)) => {
            let rate = *handoffs as f64 / handoff_s.max(1e-9);
            eprintln!(
                "serve_load: cluster ok ({nodes} nodes, {CHAOS_SESSIONS}+{CHAOS_SESSIONS} \
                 sessions; victim {victim_id} owned {victim_sessions}; {total_redirects} \
                 redirects, {total_reconnects} reconnects, {total_resent} events re-sent; \
                 recovery {recovery_ms:.1} ms: replay {} frames in {:.1} ms, {handoffs} \
                 handoffs ({handoff_bytes} bytes) in {:.1} ms = {rate:.0} snapshots/s)",
                report.frames,
                report.replay_ms,
                handoff_s * 1e3,
            );
        }
        None => eprintln!(
            "serve_load: cluster ok ({nodes} nodes, {CHAOS_SESSIONS}+{CHAOS_SESSIONS} \
             sessions, no kill; {total_redirects} redirects)"
        ),
    }

    if !smoke {
        if let Some((report, handoffs, handoff_bytes, handoff_s, recovery_ms)) = recovery {
            let section = format!(
                "  \"cluster\": {{\n    \"nodes\": {nodes},\n    \
                 \"sessions\": {CHAOS_SESSIONS},\n    \
                 \"victim_sessions\": {victim_sessions},\n    \
                 \"kill_after_ms\": {kill_after_ms},\n    \
                 \"client_redirects\": {total_redirects},\n    \
                 \"client_reconnects\": {total_reconnects},\n    \
                 \"events_resent\": {total_resent},\n    \
                 \"recovery_ms\": {recovery_ms:.3},\n    \
                 \"wal_replay_frames\": {},\n    \"wal_replay_ms\": {:.3},\n    \
                 \"handoffs\": {handoffs},\n    \"handoff_bytes\": {handoff_bytes},\n    \
                 \"handoff_ms\": {:.3},\n    \"handoffs_per_s\": {:.0}\n  }}",
                report.frames,
                report.replay_ms,
                handoff_s * 1e3,
                handoffs as f64 / handoff_s.max(1e-9),
            );
            write_bench_drill_section("cluster", &section);
        }
    }
    let _ = std::fs::remove_dir_all(&harness.dir);
    ExitCode::SUCCESS
}

struct Options {
    batched: bool,
    unbatched: bool,
    batch: usize,
    window: usize,
    min_duration_s: f64,
    warmup: u64,
    smoke: bool,
    /// Connection-sweep tier list; `None` means the default tiers on a
    /// full run and no sweep at all under `--smoke`.
    connections: Option<Vec<usize>>,
    /// Run the in-process reconnect harness instead of the workload.
    chaos: bool,
    /// The kill delay for `--cluster --kill-node`, in ms into the load.
    kill_after_ms: Option<u64>,
    /// Run the multi-node cluster drill with this many members.
    cluster: Option<usize>,
    /// SIGKILL the busiest cluster member mid-load.
    kill_node: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        batched: true,
        unbatched: true,
        batch: 32,
        window: 1,
        min_duration_s: 2.0,
        warmup: 2,
        smoke: false,
        connections: None,
        chaos: false,
        kill_after_ms: None,
        cluster: None,
        kill_node: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => opts.smoke = true,
            "--chaos" => opts.chaos = true,
            "--kill-node" => opts.kill_node = true,
            "--cluster" => match it.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n >= 2 => opts.cluster = Some(n),
                _ => return Err("--cluster wants an integer >= 2".into()),
            },
            "--kill-after-ms" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) if n > 0 => opts.kill_after_ms = Some(n),
                _ => return Err("--kill-after-ms wants a positive integer".into()),
            },
            "--mode" => match it.next().map(String::as_str) {
                Some("both") => {}
                Some("batched") => opts.unbatched = false,
                Some("unbatched") => opts.batched = false,
                _ => return Err("--mode wants both|batched|unbatched".into()),
            },
            "--batch" => match it.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => opts.batch = n,
                _ => return Err("--batch wants a positive integer".into()),
            },
            "--window" => match it.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => opts.window = n,
                _ => return Err("--window wants a positive integer".into()),
            },
            "--min-duration-s" => match it.next().map(|v| v.parse::<f64>()) {
                Some(Ok(s)) if s >= 0.0 => opts.min_duration_s = s,
                _ => return Err("--min-duration-s wants a non-negative number".into()),
            },
            "--warmup" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) => opts.warmup = n,
                _ => return Err("--warmup wants an integer".into()),
            },
            "--connections" | "--connections-tiers" => {
                let tiers: Option<Vec<usize>> = it
                    .next()
                    .map(|v| {
                        v.split(',')
                            .map(|t| t.trim().parse::<usize>())
                            .collect::<Result<Vec<_>, _>>()
                    })
                    .and_then(Result::ok)
                    .filter(|tiers| !tiers.is_empty() && tiers.iter().all(|&t| t > 0));
                match tiers {
                    Some(tiers) => opts.connections = Some(tiers),
                    None => {
                        return Err(format!(
                            "{flag} wants a comma-separated list of positive integers"
                        ))
                    }
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if opts.kill_node && opts.cluster.is_none() {
        return Err("--kill-node requires --cluster".into());
    }
    if opts.kill_after_ms.is_some() && !opts.kill_node {
        return Err("--kill-after-ms requires --cluster N --kill-node".into());
    }
    if opts.smoke {
        opts.min_duration_s = 0.0;
        opts.warmup = 0;
    }
    Ok(opts)
}

fn main() -> ExitCode {
    suppress_this_thread();
    // The 16384-connection tier holds both ends of every connection in
    // this one process; lift the fd limit before anything opens sockets.
    match ensure_nofile_limit(SWEEP_NOFILE_WANT) {
        Ok((before, after)) if before != after => {
            eprintln!("serve_load: raised RLIMIT_NOFILE {before} -> {after}")
        }
        Ok((_, after)) if after < SWEEP_NOFILE_WANT => eprintln!(
            "serve_load: RLIMIT_NOFILE stuck at {after} (< {SWEEP_NOFILE_WANT}); \
             deep sweep tiers may shed connections"
        ),
        Ok(_) => {}
        Err(e) => eprintln!("serve_load: could not read RLIMIT_NOFILE ({e})"),
    }
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("serve_load: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(nodes) = opts.cluster {
        return run_cluster_drill(
            nodes,
            opts.kill_node,
            opts.kill_after_ms.unwrap_or(500),
            opts.smoke,
        );
    }
    let data = datasets::eight_way(0x2b2b, 10, 0);
    let (rec, _) =
        EagerRecognizer::train(&data.training, &FeatureMask::all(), &EagerConfig::default())
            .expect("training succeeds");
    let rec = Arc::new(rec);
    if opts.chaos {
        return run_chaos(&rec);
    }
    let config = ServeConfig {
        shards: SHARDS,
        queue_capacity: 1 << 15,
        ..ServeConfig::default()
    };
    let mut service =
        TcpService::start(SessionRouter::new(rec.clone(), config), "127.0.0.1:0")
            .expect("bind loopback");
    let addr = service.local_addr();
    let streams: Arc<Vec<Vec<InputEvent>>> =
        Arc::new((0..SLOTS).map(slot_stream).collect());
    eprintln!(
        "serve_load: {CLIENTS} clients x {SESSIONS_PER_CLIENT} sessions against {addr} \
         ({SHARDS} shards, batch {}, window {}, warmup {}, min {:.1}s/mode{})",
        opts.batch,
        opts.window,
        opts.warmup,
        opts.min_duration_s,
        if opts.smoke { ", smoke" } else { "" }
    );

    let mut next_session_base = 1u64;
    let mut results: Vec<ModeResult> = Vec::new();
    if opts.unbatched {
        results.push(run_mode(
            addr,
            &streams,
            &mut next_session_base,
            None,
            opts.window,
            opts.warmup,
            opts.min_duration_s,
        ));
    }
    if opts.batched {
        results.push(run_mode(
            addr,
            &streams,
            &mut next_session_base,
            Some(opts.batch),
            opts.window,
            opts.warmup,
            opts.min_duration_s,
        ));
    }
    let (pool_hits, pool_misses) = service.router().batch_pool().stats();
    service.shutdown();
    let snap = service.metrics().snapshot();

    for r in &results {
        eprintln!(
            "serve_load[{}]: {} rounds, {} events / {:.3}s = {:.0} ev/s; \
             RTT p50 {}ns p95 {}ns p99 {}ns; {:.4} server allocs/frame",
            r.mode,
            r.rounds,
            r.events_sent,
            r.wall_s,
            r.events_sent as f64 / r.wall_s.max(1e-9),
            r.p50,
            r.p95,
            r.p99,
            r.allocs_per_frame,
        );
    }

    // Connection sweep: fresh services, so it runs after the main
    // workload's service is down. `--smoke` only sweeps when a tier
    // list was given explicitly (the CI guard passes `--connections`)
    // and sticks to the default backend; the full run walks the whole
    // ladder once per available backend.
    let tiers: Vec<usize> = match (&opts.connections, opts.smoke) {
        (Some(tiers), _) => tiers.clone(),
        (None, false) => SWEEP_TIERS.to_vec(),
        (None, true) => Vec::new(),
    };
    let sweep_backends: Vec<PollBackend> = if opts.smoke {
        vec![PollBackend::Auto]
    } else if cfg!(target_os = "linux") {
        vec![PollBackend::Poll, PollBackend::Epoll]
    } else {
        vec![PollBackend::Poll]
    };
    let sweep_events: Vec<(u32, InputEvent)> = slot_stream(1)
        .into_iter()
        .take(SWEEP_BATCH)
        .enumerate()
        .map(|(i, e)| (i as u32, e))
        .collect();
    // The sweep's servers are spawned `serve` children (fd headroom and
    // server-only RSS accounting); the harness trains their model once.
    let sweep_harness = (!tiers.is_empty()).then(|| Harness::new("sweep"));
    let mut sweep: Vec<(PollBackend, Vec<TierResult>)> = Vec::new();
    for &backend in &sweep_backends {
        let mut ladder: Vec<TierResult> = Vec::new();
        for &n in &tiers {
            let rounds: u64 = if opts.smoke || n > SWEEP_DEEP_TIER { 1 } else { 3 };
            let harness = sweep_harness.as_ref().expect("tiers imply a harness");
            let tier = sweep_tier(harness, backend, n, rounds, &sweep_events);
            eprintln!(
                "serve_load[sweep {n} {}]: {}/{} accepted ({} connect failures), \
                 {} round trips in {:.3}s, RTT p50 {}ns p95 {}ns p99 {}ns, \
                 {} RSS bytes/conn, {} epoll_ctl calls",
                tier.reactor_backend,
                tier.accepted,
                tier.connections,
                tier.connect_failures,
                tier.rtt_samples,
                tier.wall_s,
                tier.p50,
                tier.p95,
                tier.p99,
                tier.rss_bytes_per_conn,
                tier.epoll_ctl_calls,
            );
            ladder.push(tier);
        }
        sweep.push((backend, ladder));
    }
    if let Some(harness) = &sweep_harness {
        let _ = std::fs::remove_dir_all(&harness.dir);
    }

    if opts.smoke {
        // The CI guard: the workload ran clean end to end.
        assert_eq!(snap.decode_errors, 0, "smoke: decode errors: {snap:?}");
        assert_eq!(snap.busy_rejections, 0, "smoke: busy rejections: {snap:?}");
        assert!(
            results.iter().all(|r| r.rtt_samples > 0),
            "smoke: no RTT samples collected"
        );
        for (_, ladder) in &sweep {
            for tier in ladder {
                assert_eq!(
                    tier.accepted, tier.connections,
                    "smoke: sweep tier {} ({}) dropped connections",
                    tier.connections, tier.reactor_backend
                );
                assert_eq!(
                    tier.round_trip_failures, 0,
                    "smoke: sweep tier {} ({}) had failed round trips",
                    tier.connections, tier.reactor_backend
                );
            }
        }
        let swept: usize = sweep.iter().map(|(_, ladder)| ladder.len()).sum();
        eprintln!(
            "serve_load: smoke ok (0 decode errors, 0 busy rejections{})",
            if swept == 0 {
                String::new()
            } else {
                format!(", {swept} sweep tiers clean")
            }
        );
        return ExitCode::SUCCESS;
    }

    let mut sections = String::new();
    for r in &results {
        sections.push_str(&format!(",\n  \"{}\": {}", r.mode, r.to_json()));
    }
    let ratios = match (
        results.iter().find(|r| r.mode == "unbatched"),
        results.iter().find(|r| r.mode == "batched"),
    ) {
        (Some(u), Some(b)) => format!(
            ",\n  \"rtt_p50_ratio\": {:.2},\n  \"points_per_s_ratio\": {:.2}",
            u.p50 as f64 / b.p50.max(1) as f64,
            b.points_per_s() / u.points_per_s().max(1e-9),
        ),
        _ => String::new(),
    };
    if sweep.iter().any(|(_, ladder)| !ladder.is_empty()) {
        let backend_blocks = sweep
            .iter()
            .filter(|(_, ladder)| !ladder.is_empty())
            .map(|(_, ladder)| {
                let tier_rows = ladder
                    .iter()
                    .map(|t| format!("        {}", t.to_json()))
                    .collect::<Vec<_>>()
                    .join(",\n");
                // Key by what the service reported, not what was asked
                // for: Auto resolves server-side.
                format!(
                    "      \"{}\": {{\n        \"tiers\": [\n{tier_rows}\n        ]\n      }}",
                    ladder[0].reactor_backend
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        sections.push_str(&format!(
            ",\n  \"connection_sweep\": {{\n    \"io_threads\": {SWEEP_IO_THREADS},\n    \
             \"workers\": {SWEEP_WORKERS},\n    \"batch_events\": {SWEEP_BATCH},\n    \
             \"page_bytes\": {},\n    \
             \"backends\": {{\n{backend_blocks}\n    }}\n  }}",
            page_bytes()
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"serve_load\",\n  \"transport\": \"tcp-loopback\",\n  \
         \"clients\": {CLIENTS},\n  \"sessions_per_client\": {SESSIONS_PER_CLIENT},\n  \
         \"gestures_per_session\": {GESTURES_PER_SESSION},\n  \"shards\": {SHARDS},\n  \
         \"warmup_rounds\": {},\n  \"min_duration_s\": {:.1},\n  \
         \"faults_repaired\": {},\n  \"busy_rejections\": {},\n  \"decode_errors\": {},\n  \
         \"batches_ingested\": {},\n  \"writer_flushes\": {},\n  \"frames_sent\": {},\n  \
         \"batch_pool_hits\": {pool_hits},\n  \"batch_pool_misses\": {pool_misses}{sections}{ratios}\n}}\n",
        opts.warmup,
        opts.min_duration_s,
        snap.faults_repaired,
        snap.busy_rejections,
        snap.decode_errors,
        snap.batches_ingested,
        snap.writer_flushes,
        snap.frames_sent,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(path, &json).expect("write BENCH_serve.json");
    println!("{json}");
    eprintln!("serve_load: wrote {path}");
    ExitCode::SUCCESS
}
