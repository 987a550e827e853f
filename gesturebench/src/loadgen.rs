//! The load generator: one process, two threads, two connections.
//!
//! The calling thread writes (open-loop schedule or closed-loop window)
//! and one spawned thread reads every reply off both connections. Each
//! reply frame is checked byte for byte against its session's reference
//! stream; the first frame echoing an event's seq stops that event's
//! clock. The clock starts when the event was due (open loop) or when its
//! frame was written (closed loop). Only events stamped inside the
//! measurement window contribute samples; sessions still running when the
//! window ends finish (and are checked) but are not timed.
//!
//! The window is cut into [`SLICE_NS`] slices and every figure is kept per
//! slice (samples by their stamp, points by send time, CPU sampled at
//! each slice edge), so a run can leave out the slices that a burst of
//! interference from outside the benchmark hit.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use grandma_events::{EventKind, InputEvent};
use grandma_serve::sys::{poll_fds, PollFd, POLLIN};
use grandma_serve::{
    decode_server, encode_client, encode_event_batch, ClientFrame, FaultCode, OutcomeKind,
    ServerFrame, WIRE_VERSION,
};

use crate::check::{ReplyCheck, Verdict};
use crate::child::{cpu_ns, precise_cpu_ns, rss_bytes, vm_steal_ns};
use crate::schedule::{late_ns, Due, OpenLoop, Step};
use crate::spans::{request_id, request_span_id, Span, Tracer};
use crate::workload::{script_for, Mode, Script, SessionIds, Workload, BATCH_EVENTS, CONNECTIONS};

/// Events per session the stamp table has room for.
pub const STAMP_CAP: usize = 1024;
/// Open-loop users start staggered over this ramp.
const RAMP_NS: u64 = 1_000_000_000;
/// How long unfinished sessions get after the writer stops.
const DRAIN_TIMEOUT_NS: u64 = 15_000_000_000;
/// One in this many events (and socket calls) is traced client side,
/// which keeps the span buffer and the tracing overhead small.
const TRACE_SAMPLE: u64 = 16;
/// Span buffer per thread.
const SPAN_CAP: usize = 1 << 21;
/// Length of one measurement slice: short enough that a host stall of
/// a few milliseconds spoils few of them, long enough for a reply p99
/// from the 1000 samples it needs.
pub const SLICE_NS: u64 = 100_000_000;
/// Generation bits packed under a stamp.
const GEN_BITS: u32 = 24;

fn pack(stamp_ns: u64, generation: u64) -> u64 {
    (stamp_ns << GEN_BITS) | (generation & ((1 << GEN_BITS) - 1))
}

fn unpack(packed: u64) -> (u64, u64) {
    (packed >> GEN_BITS, packed & ((1 << GEN_BITS) - 1))
}

fn traced(slot: usize, seq: u32) -> bool {
    (slot as u64 + u64::from(seq)).is_multiple_of(TRACE_SAMPLE)
}

/// Counts socket calls and says which ones to trace.
#[derive(Default)]
struct CallSampler(u64);

impl CallSampler {
    fn next(&mut self) -> bool {
        self.0 += 1;
        self.0.is_multiple_of(TRACE_SAMPLE)
    }
}

/// One measured pass against a running child.
pub struct Pass<'a> {
    /// The workload.
    pub workload: &'static Workload,
    /// Its script pool.
    pub scripts: &'a [Script],
    /// Workload seed (picks each slot's scripts).
    pub seed: u64,
    /// The child's address.
    pub addr: SocketAddr,
    /// Session-id layout of this pass.
    pub ids: SessionIds,
    /// Unmeasured lead-in.
    pub warmup: Duration,
    /// Measurement window: this many [`SLICE_NS`] slices.
    pub slices: usize,
    /// Whether client-side spans are recorded.
    pub trace: bool,
    /// The child's pid, for its CPU and memory figures.
    pub server_pid: u32,
}

/// What one pass measured; per-slice vectors are indexed by slice.
#[derive(Debug, Default)]
pub struct PassResult {
    /// Event → first reply, ns, by the slice the event was stamped in.
    pub reply_ns: Vec<Vec<u64>>,
    /// The same for events whose replies include `Recognized`.
    pub recognize_ns: Vec<Vec<u64>>,
    /// Open loop: send time minus due time, ns, per event in the window.
    pub late_ns: Vec<u64>,
    /// Points (mouse moves) sent, per slice.
    pub points: Vec<u64>,
    /// Measured length of each slice, s.
    pub slice_s: Vec<f64>,
    /// Child CPU (user + system) per slice, ns.
    pub server_cpu_ns: Vec<u64>,
    /// CPU time the hypervisor took from the VM per slice, ns.
    pub steal_ns: Vec<u64>,
    /// Load-generator CPU over the window, ns.
    pub loadgen_cpu_ns: u64,
    /// Child resident set at the end of the window.
    pub server_rss_bytes: u64,
    /// Sessions started.
    pub attempted: u64,
    /// Sessions whose replies matched the reference.
    pub ok: u64,
    /// Sessions that closed but had failed (a `Busy` fault).
    pub closed_failed: u64,
    /// Output-check failures (any one aborts the run).
    pub mismatches: Vec<String>,
    /// Client-side spans (traced passes).
    pub spans: Vec<Span>,
    /// Spans dropped for lack of buffer.
    pub spans_dropped: u64,
}

impl PassResult {
    /// Sessions that did not end with a verified `Closed`.
    pub fn failed(&self) -> u64 {
        self.attempted.saturating_sub(self.ok)
    }

    /// Every reply sample of the window.
    pub fn all_replies(&self) -> Vec<u64> {
        self.reply_ns.concat()
    }

    /// Every recognize sample of the window.
    pub fn all_recognized(&self) -> Vec<u64> {
        self.recognize_ns.concat()
    }

    /// Points sent over the whole window.
    pub fn total_points(&self) -> u64 {
        self.points.iter().sum()
    }

    /// Length of the whole window, s.
    pub fn window_s(&self) -> f64 {
        self.slice_s.iter().sum()
    }
}

/// State shared by the writer and the reader.
struct Shared {
    base: Instant,
    t0: u64,
    t1: u64,
    /// Per slot × seq: packed (stamp, generation) of the event's clock.
    stamps: Vec<AtomicU64>,
    started: AtomicU64,
    writer_done: AtomicBool,
    abort: AtomicBool,
}

impl Shared {
    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    fn in_window(&self, ns: u64) -> bool {
        ns >= self.t0 && ns < self.t1
    }

    /// The slice `ns` falls in, if it is inside the window.
    fn slice(&self, ns: u64) -> Option<usize> {
        self.in_window(ns)
            .then(|| ((ns - self.t0) / SLICE_NS) as usize)
    }

    /// The next slice edge after `now` (or `u64::MAX` past the window).
    fn next_edge(&self, now: u64) -> u64 {
        if now < self.t0 {
            self.t0
        } else if now < self.t1 {
            self.t0 + ((now - self.t0) / SLICE_NS + 1) * SLICE_NS
        } else {
            u64::MAX
        }
    }

    fn stamp(&self, slot: usize, seq: u32, stamp_ns: u64, generation: u64) {
        if let Some(cell) = self.stamps.get(slot * STAMP_CAP + seq as usize) {
            cell.store(pack(stamp_ns, generation), Ordering::Release);
        }
    }
}

/// One reading at a slice edge.
#[derive(Clone, Copy)]
struct Edge {
    server_cpu: u64,
    own_cpu: u64,
    steal: u64,
    at: u64,
}

/// Child CPU, own CPU, VM steal and wall clock sampled at every slice
/// edge, and the child's memory when the window closes.
struct WindowSampler {
    server_pid: u32,
    slices: usize,
    edges: Vec<Edge>,
    rss: u64,
}

impl WindowSampler {
    fn tick(&mut self, sh: &Shared) {
        let now = sh.now();
        while self.edges.len() <= self.slices && now >= sh.t0 + self.edges.len() as u64 * SLICE_NS {
            self.edges.push(Edge {
                server_cpu: precise_cpu_ns(self.server_pid).unwrap_or(0),
                own_cpu: cpu_ns(None).unwrap_or(0),
                steal: vm_steal_ns().unwrap_or(0),
                at: now,
            });
            if self.edges.len() == self.slices + 1 {
                self.rss = rss_bytes(self.server_pid).unwrap_or(0);
            }
        }
    }
}

struct WriterOut {
    points: Vec<u64>,
    late_ns: Vec<u64>,
}

impl WriterOut {
    fn new(slices: usize) -> Self {
        Self {
            points: vec![0; slices],
            late_ns: Vec::new(),
        }
    }
}

/// Runs one pass: connects, drives the workload through the window and
/// the drain, and checks every session.
pub fn run_pass(p: &Pass) -> Result<PassResult, String> {
    let mut writers = Vec::with_capacity(CONNECTIONS);
    let mut readers = Vec::with_capacity(CONNECTIONS);
    let mut hello = Vec::new();
    encode_client(
        &ClientFrame::Hello {
            version: WIRE_VERSION,
        },
        &mut hello,
    );
    for _ in 0..CONNECTIONS {
        let stream = TcpStream::connect(p.addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
        writer
            .write_all(&hello)
            .map_err(|e| format!("hello: {e}"))?;
        writers.push(writer);
        readers.push(stream);
    }
    let slots = p.workload.slots();
    let t0 = p.warmup.as_nanos() as u64;
    let sh = Shared {
        base: Instant::now(),
        t0,
        t1: t0 + p.slices as u64 * SLICE_NS,
        stamps: (0..slots * STAMP_CAP).map(|_| AtomicU64::new(0)).collect(),
        started: AtomicU64::new(0),
        writer_done: AtomicBool::new(false),
        abort: AtomicBool::new(false),
    };
    let mut sampler = WindowSampler {
        server_pid: p.server_pid,
        slices: p.slices,
        edges: Vec::with_capacity(p.slices + 1),
        rss: 0,
    };
    let (ack_tx, ack_rx) = mpsc::channel::<usize>();
    let closed_loop = matches!(p.workload.mode, Mode::ClosedLoop { .. });
    let (written, read, mut writer_spans) = std::thread::scope(|scope| {
        let reader = {
            let sh = &sh;
            let ack = closed_loop.then_some(ack_tx);
            scope.spawn(move || reader_loop(p, sh, readers, ack))
        };
        let mut tracer = Tracer::new(p.trace, 1, SPAN_CAP);
        let written = match p.workload.mode {
            Mode::OpenLoop { users } => {
                open_loop_writer(p, &sh, users, &mut writers, &mut sampler, &mut tracer)
            }
            Mode::ClosedLoop { .. } => {
                closed_loop_writer(p, &sh, &ack_rx, &mut writers, &mut sampler, &mut tracer)
            }
        };
        if written.is_err() {
            sh.abort.store(true, Ordering::Release);
        }
        sh.writer_done.store(true, Ordering::Release);
        let read = reader
            .join()
            .map_err(|_| "reader thread panicked".to_string());
        (written, read, tracer)
    });
    let written = written?;
    let mut read = read?;
    let edges = &sampler.edges;
    if edges.len() != p.slices + 1 {
        return Err("the pass ended before its measurement window closed".into());
    }
    read.attempted = sh.started.load(Ordering::Acquire);
    read.points = written.points;
    read.late_ns = written.late_ns;
    let deltas = |f: fn(&Edge) -> u64| -> Vec<u64> {
        edges
            .windows(2)
            .map(|e| f(&e[1]).saturating_sub(f(&e[0])))
            .collect()
    };
    read.slice_s = deltas(|e| e.at).iter().map(|&ns| ns as f64 / 1e9).collect();
    read.server_cpu_ns = deltas(|e| e.server_cpu);
    read.steal_ns = deltas(|e| e.steal);
    read.loadgen_cpu_ns = edges[p.slices].own_cpu.saturating_sub(edges[0].own_cpu);
    read.server_rss_bytes = sampler.rss;
    read.spans_dropped += writer_spans.dropped;
    read.spans
        .append(&mut std::mem::replace(&mut writer_spans, Tracer::new(false, 0, 0)).into_spans());
    Ok(read)
}

/// Open loop: every user's events go out when they fall due, one v1
/// `Event` frame each, users split over the connections by slot.
fn open_loop_writer(
    p: &Pass,
    sh: &Shared,
    users: usize,
    writers: &mut [TcpStream],
    sampler: &mut WindowSampler,
    tracer: &mut Tracer,
) -> Result<WriterOut, String> {
    let dues: Vec<Vec<u64>> = p
        .scripts
        .iter()
        .map(|s| s.due_ms.iter().map(|&ms| (ms * 1e6) as u64).collect())
        .collect();
    let mut sched = OpenLoop::new(dues, p.seed, users, sh.now() + 1_000_000, RAMP_NS);
    sched.stop_new_sessions(sh.t1);
    let mut out = WriterOut::new(p.slices);
    let mut due: Vec<Due> = Vec::new();
    let mut bufs: Vec<Vec<u8>> = vec![Vec::with_capacity(64 * 1024); writers.len()];
    let mut frames = vec![0u32; writers.len()];
    let mut sampled = CallSampler::default();
    while !sh.abort.load(Ordering::Acquire) {
        sampler.tick(sh);
        due.clear();
        sched.pop_due(sh.now(), &mut due);
        for d in &due {
            let conn = d.slot % writers.len();
            let session = p.ids.id(d.slot, d.generation);
            let script = &p.scripts[d.script];
            let buf = &mut bufs[conn];
            frames[conn] += 1;
            match d.step {
                Step::Open => {
                    encode_client(&ClientFrame::Open { session }, buf);
                    sh.started.fetch_add(1, Ordering::AcqRel);
                }
                Step::Event(seq) => {
                    let event = script.events[seq as usize];
                    sh.stamp(d.slot, seq, d.due_ns, d.generation);
                    let started = if tracer.on() { sh.now() } else { 0 };
                    encode_client(
                        &ClientFrame::Event {
                            session,
                            seq,
                            event,
                        },
                        buf,
                    );
                    if tracer.on() && traced(d.slot, seq) {
                        let req = request_id(session, seq);
                        tracer.span(
                            "client.encode",
                            started,
                            sh.now(),
                            request_span_id(req),
                            req,
                            1,
                        );
                    }
                    if let Some(slice) = sh.slice(d.due_ns) {
                        if matches!(event.kind, EventKind::MouseMove) {
                            out.points[slice] += 1;
                        }
                    }
                }
                Step::Close => {
                    let seq = script.events.len() as u32;
                    encode_client(&ClientFrame::Close { session, seq }, buf);
                }
            }
        }
        if !due.is_empty() {
            let sent = sh.now();
            for d in &due {
                if matches!(d.step, Step::Event(_)) && sh.in_window(d.due_ns) {
                    out.late_ns.push(late_ns(d.due_ns, sent));
                }
            }
            for (conn, buf) in bufs.iter_mut().enumerate() {
                if buf.is_empty() {
                    continue;
                }
                let started = sh.now();
                writers[conn]
                    .write_all(buf)
                    .map_err(|e| format!("write: {e}"))?;
                if sampled.next() {
                    tracer.span("client.write", started, sh.now(), 0, 0, frames[conn]);
                }
                buf.clear();
                frames[conn] = 0;
            }
        }
        match sched.next_due() {
            None => break,
            Some(next) => {
                let now = sh.now();
                if next > now {
                    std::thread::sleep(Duration::from_nanos(next - now));
                }
            }
        }
    }
    Ok(out)
}

/// Closed loop: each connection keeps `window` sessions in flight; a
/// session goes out whole (`Open`, `EventBatch` frames, `Close`) in one
/// write, and its `Closed` outcome frees the slot for the next one.
fn closed_loop_writer(
    p: &Pass,
    sh: &Shared,
    acks: &mpsc::Receiver<usize>,
    writers: &mut [TcpStream],
    sampler: &mut WindowSampler,
    tracer: &mut Tracer,
) -> Result<WriterOut, String> {
    let slots = p.workload.slots();
    let mut out = WriterOut::new(p.slices);
    let mut generations = vec![0u64; slots];
    let mut buf: Vec<u8> = Vec::with_capacity(16 * 1024);
    let mut batch: Vec<(u32, InputEvent)> = Vec::with_capacity(BATCH_EVENTS);
    let mut sampled = CallSampler::default();
    let mut send = |slot: usize, generation: u64, out: &mut WriterOut, tracer: &mut Tracer| {
        let session = p.ids.id(slot, generation);
        let script = &p.scripts[script_for(p.seed, slot, generation, p.scripts.len())];
        buf.clear();
        encode_client(&ClientFrame::Open { session }, &mut buf);
        for (chunk_at, chunk) in script.events.chunks(BATCH_EVENTS).enumerate() {
            let first = (chunk_at * BATCH_EVENTS) as u32;
            batch.clear();
            batch.extend(
                chunk
                    .iter()
                    .enumerate()
                    .map(|(i, &e)| (first + i as u32, e)),
            );
            let started = if tracer.on() { sh.now() } else { 0 };
            encode_event_batch(session, &batch, &mut buf);
            if tracer.on() && traced(slot, first) {
                let req = request_id(session, first);
                tracer.span(
                    "client.encode",
                    started,
                    sh.now(),
                    request_span_id(req),
                    req,
                    1,
                );
            }
        }
        let close_seq = script.events.len() as u32;
        encode_client(
            &ClientFrame::Close {
                session,
                seq: close_seq,
            },
            &mut buf,
        );
        let stamp = sh.now();
        for seq in 0..close_seq {
            sh.stamp(slot, seq, stamp, generation);
        }
        sh.started.fetch_add(1, Ordering::AcqRel);
        if let Some(slice) = sh.slice(stamp) {
            out.points[slice] += script.points;
        }
        let frames = 2 + script.events.len().div_ceil(BATCH_EVENTS) as u32;
        let conn = slot % writers.len();
        writers[conn]
            .write_all(&buf)
            .map_err(|e| format!("write: {e}"))?;
        if sampled.next() {
            tracer.span("client.write", stamp, sh.now(), 0, 0, frames);
        }
        Ok::<(), String>(())
    };
    for slot in 0..slots {
        send(slot, 0, &mut out, tracer)?;
    }
    let mut in_flight = slots;
    loop {
        sampler.tick(sh);
        let now = sh.now();
        if sh.abort.load(Ordering::Acquire)
            || (now >= sh.t1 && in_flight == 0)
            || now >= sh.t1 + DRAIN_TIMEOUT_NS
        {
            break;
        }
        let wait = Duration::from_nanos((sh.next_edge(now) - now).clamp(100_000, 50_000_000));
        match acks.recv_timeout(wait) {
            Ok(slot) => {
                in_flight -= 1;
                if sh.now() < sh.t1 {
                    generations[slot] += 1;
                    send(slot, generations[slot], &mut out, tracer)?;
                    in_flight += 1;
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    Ok(out)
}

/// Reader-side state of one session slot.
#[derive(Default)]
struct Slot {
    open: bool,
    generation: u64,
    script: usize,
    events: u32,
    check: ReplyCheck,
    /// Seq of the latest event that got a reply (`u32::MAX`: none yet).
    last_seq: u32,
    /// When that event's first reply arrived.
    first_ns: u64,
    /// Its clock start and slice, when it was stamped in the window.
    stamp: Option<(u64, usize)>,
}

/// Reads replies off every connection until all started sessions closed
/// (or the drain times out), checking and timing them.
fn reader_loop(
    p: &Pass,
    sh: &Shared,
    mut streams: Vec<TcpStream>,
    ack: Option<mpsc::Sender<usize>>,
) -> PassResult {
    let mut out = PassResult {
        reply_ns: vec![Vec::new(); p.slices],
        recognize_ns: vec![Vec::new(); p.slices],
        ..PassResult::default()
    };
    let mut tracer = Tracer::new(p.trace, 2, SPAN_CAP);
    let mut slots: Vec<Slot> = (0..p.workload.slots()).map(|_| Slot::default()).collect();
    let mut bufs: Vec<(Vec<u8>, usize)> = streams.iter().map(|_| (Vec::new(), 0)).collect();
    let mut alive = vec![true; streams.len()];
    let mut chunk = vec![0u8; 64 * 1024];
    let mut done_at: Option<u64> = None;
    let mut sampled = CallSampler::default();
    loop {
        let now = sh.now();
        if sh.abort.load(Ordering::Acquire) {
            break;
        }
        if sh.writer_done.load(Ordering::Acquire) {
            let done = *done_at.get_or_insert(now);
            let closed = out.ok + out.mismatches.len() as u64 + out.closed_failed;
            if closed >= sh.started.load(Ordering::Acquire) || now - done > DRAIN_TIMEOUT_NS {
                break;
            }
        }
        let live: Vec<usize> = (0..streams.len()).filter(|&c| alive[c]).collect();
        if live.is_empty() {
            std::thread::sleep(Duration::from_millis(10));
            continue;
        }
        let mut fds: Vec<PollFd> = live
            .iter()
            .map(|&c| PollFd::new(streams[c].as_raw_fd(), POLLIN))
            .collect();
        if poll_fds(&mut fds, 20).is_err() {
            continue;
        }
        for (fd, &c) in fds.iter().zip(&live) {
            if !fd.readable() {
                continue;
            }
            let read_at = sh.now();
            let n = match streams[c].read(&mut chunk) {
                Ok(0) | Err(_) => {
                    alive[c] = false;
                    continue;
                }
                Ok(n) => n,
            };
            let now = sh.now();
            let trace_call = tracer.on() && sampled.next();
            if trace_call {
                tracer.span("client.read", read_at, now, 0, 0, 1);
            }
            let (buf, pos) = &mut bufs[c];
            buf.extend_from_slice(&chunk[..n]);
            let mut frames = 0u32;
            loop {
                let tail = &buf[*pos..];
                match decode_server(tail) {
                    Ok(Some((frame, used))) => {
                        handle(
                            p,
                            sh,
                            &mut slots,
                            &mut out,
                            &mut tracer,
                            &ack,
                            frame,
                            &tail[..used],
                            now,
                        );
                        *pos += used;
                        frames += 1;
                    }
                    Ok(None) => break,
                    Err(_) => {
                        alive[c] = false;
                        break;
                    }
                }
            }
            if trace_call {
                tracer.span("client.decode", now, sh.now(), 0, 0, frames.max(1));
            }
            if *pos == buf.len() {
                buf.clear();
                *pos = 0;
            } else if *pos > 1 << 16 {
                buf.drain(..*pos);
                *pos = 0;
            }
        }
    }
    out.spans_dropped = tracer.dropped;
    out.spans = tracer.into_spans();
    out
}

/// Handles one reply frame: output check, timing, and session end.
#[allow(clippy::too_many_arguments)]
fn handle(
    p: &Pass,
    sh: &Shared,
    slots: &mut [Slot],
    out: &mut PassResult,
    tracer: &mut Tracer,
    ack: &Option<mpsc::Sender<usize>>,
    frame: ServerFrame,
    raw: &[u8],
    now: u64,
) {
    let (session, seq) = match frame {
        ServerFrame::Recognized { session, seq, .. }
        | ServerFrame::Manipulate { session, seq, .. }
        | ServerFrame::Outcome { session, seq, .. }
        | ServerFrame::Fault { session, seq, .. } => (session, seq),
        // Resume/handoff/cluster replies: never provoked by this workload.
        _ => return,
    };
    let Some((slot, generation)) = p.ids.split(session) else {
        return;
    };
    let Some(st) = slots.get_mut(slot) else {
        return;
    };
    if !st.open || st.generation != generation {
        // A new session in the slot; one still open here never closed.
        st.open = true;
        st.generation = generation;
        st.script = script_for(p.seed, slot, generation, p.scripts.len());
        st.events = p.scripts[st.script].events.len() as u32;
        st.check.reset();
        st.last_seq = u32::MAX;
        st.stamp = None;
    }
    st.check.push(raw);
    if let ServerFrame::Fault {
        code: FaultCode::Busy,
        ..
    } = frame
    {
        st.check.fail();
    }
    if seq < st.events && seq != st.last_seq {
        st.last_seq = seq;
        st.first_ns = now;
        let packed = sh.stamps[slot * STAMP_CAP + seq as usize].load(Ordering::Acquire);
        let (stamp, stamp_gen) = unpack(packed);
        st.stamp = sh
            .slice(stamp)
            .filter(|_| stamp_gen == generation & ((1 << GEN_BITS) - 1))
            .map(|slice| (stamp, slice));
        if let Some((stamp, slice)) = st.stamp {
            out.reply_ns[slice].push(now.saturating_sub(stamp));
            if tracer.on() && traced(slot, seq) {
                let req = request_id(session, seq);
                tracer.span_with_id(Span {
                    name: "client.request",
                    start_ns: stamp,
                    end_ns: now,
                    id: request_span_id(req),
                    parent: 0,
                    req,
                    calls: 1,
                });
            }
        }
    }
    if let (ServerFrame::Recognized { .. }, Some((stamp, slice))) = (frame, st.stamp) {
        if seq == st.last_seq {
            out.recognize_ns[slice].push(st.first_ns.saturating_sub(stamp));
        }
    }
    if let ServerFrame::Outcome {
        outcome: OutcomeKind::Closed,
        ..
    } = frame
    {
        match st.check.finish(&p.scripts[st.script].expected) {
            Verdict::Match => out.ok += 1,
            Verdict::Failed => out.closed_failed += 1,
            Verdict::Mismatch { offset } => {
                out.mismatches.push(format!(
                    "session {session} (script {}) differs from run_events_inproc at reply byte {offset}",
                    st.script
                ));
                sh.abort.store(true, Ordering::Release);
            }
        }
        st.open = false;
        if let Some(tx) = ack {
            let _ = tx.send(slot);
        }
    }
}
