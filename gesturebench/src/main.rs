//! `gesturebench` — one benchmark run.
//!
//! ```text
//! gesturebench --workload interactive|durable --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root (`cargo run --release --manifest-path
//! gesturebench/Cargo.toml -- ARGS`). The last line of standard output is
//! the JSON result; everything human-readable goes to standard error.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gesturebench::affinity::{pin_current_thread, pin_named_threads, Placement};
use gesturebench::child::{build_serve, json_number, round_trip, Serve, TempDir};
use gesturebench::layers::{replay, Replay};
use gesturebench::loadgen::{run_pass, Pass, PassResult, SLICE_NS, STAMP_CAP};
use gesturebench::report::{result_json, Metrics, END_TO_END, PER_LAYER};
use gesturebench::spans::{by_name, write_tsv, Span};
use gesturebench::stats::{calmer_half, median_f64, p50, p99, percentile, pooled, summarize};
use gesturebench::workload::{
    make_scripts, train_model, workload, Mode, SessionIds, Workload, BATCH_EVENTS, CONNECTIONS,
    SCRIPT_POOL,
};
use grandma_core::EagerRecognizer;

/// [`System`] plus a count of allocations, read around the traced
/// replay's measured loops.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` unchanged; the counter is a
// relaxed statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System`; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 40;
/// How long a stopping child may take to drain and exit.
const GRACE: Duration = Duration::from_secs(20);

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .ok_or_else(|| format!("missing {flag}"))
    };
    let name = get("--workload")?;
    Ok(Args {
        workload: workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed wants an integer")?,
        seconds: get("--seconds")?
            .parse()
            .ok()
            .filter(|&s| s > 0)
            .ok_or("--seconds wants a positive integer")?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace wants 0 or 1".into()),
        },
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("gesturebench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Prints a timing as the benchmark reports every timing: count, median,
/// and the highest percentile with at least ten samples beyond it.
fn describe(what: &str, samples: &[u64]) {
    let mut v = samples.to_vec();
    match summarize(&mut v) {
        Some(s) => eprintln!(
            "  {what:<22} n={:<8} p50={:>9.1} us  p{}={:>9.1} us",
            s.n,
            us(s.p50),
            s.tail_pct,
            us(s.tail)
        ),
        None => eprintln!(
            "  {what:<22} n={} (too few samples for any percentile)",
            v.len()
        ),
    }
}

/// A timing statistic of pooled, sorted samples, in µs.
fn timing(sorted: &[u64], stat: fn(&[u64]) -> Option<u64>, what: &str) -> Result<f64, String> {
    stat(sorted).map(us).ok_or_else(|| {
        format!(
            "{what}: {} samples in the calm slices; a p99 needs 1000",
            sorted.len()
        )
    })
}

/// Spawns `serve run` (which inherits this thread's core) and moves its
/// shard workers to the placement's shard core.
fn spawn_serve(
    placement: Option<Placement>,
    bin: &Path,
    model: &Path,
    w: &Workload,
    wal_dir: Option<&Path>,
) -> Result<Serve, String> {
    let child = Serve::spawn(bin, model, w.serve_flags, wal_dir)?;
    if let Some(p) = placement {
        // The child's threads name themselves once they first run, which
        // may lag the listening line while they share one core.
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let pinned = pin_named_threads(child.pid, "grandma-shard", p.shards)
                .map_err(|e| format!("pinning shard workers: {e}"))?;
            if pinned > 0 {
                break;
            }
            if Instant::now() > deadline {
                return Err("serve shows no grandma-shard threads to pin".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    Ok(child)
}

/// A pass's reply median over its calmer half of slices.
fn calm_reply_p50(pass: &PassResult) -> Result<f64, String> {
    let replies = pooled(&pass.reply_ns, &calmer_half(&pass.reply_ns));
    timing(&replies, p50, "reply p50")
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)?.flatten() {
        if entry.file_name().to_string_lossy().starts_with("shard-") {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let w = args.workload;
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("crates/serve/Cargo.toml").is_file() {
        return Err("run from the repository root: crates/serve is missing".into());
    }
    let serve_bin = build_serve(&root)?;
    let out_dir = root.join(".bench_tmp");
    let scratch = TempDir::create(out_dir.join(format!("{}-{}", w.name, std::process::id())))
        .map_err(|e| format!("scratch dir: {e}"))?;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let placement = Placement::choose();
    if let Some(p) = placement {
        pin_current_thread(p.main).map_err(|e| format!("pinning: {e}"))?;
    }
    let mut flags: Vec<&str> = w.serve_flags.to_vec();
    if w.wal {
        flags.extend(["--wal-dir", "<fresh temp dir>"]);
    }
    eprintln!(
        "gesturebench: workload={} seed={} seconds={} trace={} cores={cores} serve flags: {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        flags.join(" ")
    );
    match placement {
        Some(p) => eprintln!(
            "gesturebench: serve shard workers pinned to cpu {}; its reactor and the load \
             generator to cpu {}",
            p.shards, p.main
        ),
        None => eprintln!("gesturebench: fewer than 2 cores; nothing pinned"),
    }

    // Set-up, several times: train, persist, spawn, first round trip.
    let model = scratch.path().join("model.txt");
    let (mut setup_s, mut train_ms) = (Vec::new(), Vec::new());
    let mut last = None;
    for i in 0..SETUPS {
        let started = Instant::now();
        let (rec, trained) = train_model();
        std::fs::write(&model, rec.to_text()).map_err(|e| format!("writing model: {e}"))?;
        let wal_dir = w.wal.then(|| scratch.path().join(format!("wal-{i}")));
        let child = spawn_serve(placement, &serve_bin, &model, w, wal_dir.as_deref())?;
        round_trip(child.addr, u64::MAX - i as u64)?;
        setup_s.push(started.elapsed().as_secs_f64());
        train_ms.push(trained.as_secs_f64() * 1e3);
        if i + 1 < SETUPS {
            child.stop(GRACE)?;
        } else {
            last = Some((child, wal_dir));
        }
    }
    let (serve, wal_dir) = last.ok_or("no set-up ran")?;
    let text = std::fs::read_to_string(&model).map_err(|e| format!("reading model: {e}"))?;
    let rec = Arc::new(EagerRecognizer::from_text(&text).map_err(|e| format!("model: {e:?}"))?);
    let scripts = make_scripts(&rec, args.seed, w.gestures_per_session, SCRIPT_POOL);
    if scripts.iter().any(|s| s.events.len() >= STAMP_CAP) {
        return Err("a session script outgrew the stamp table".into());
    }

    let warmup = Duration::from_millis(match w.mode {
        Mode::OpenLoop { .. } => 2500,
        Mode::ClosedLoop { .. } => 1000,
    });
    let pass = |base: u64, trace: bool| {
        run_pass(&Pass {
            workload: w,
            scripts: &scripts,
            seed: args.seed,
            addr: serve.addr,
            ids: SessionIds {
                base,
                slots: w.slots(),
            },
            warmup,
            slices: (args.seconds * 1_000_000_000 / SLICE_NS) as usize,
            trace,
            server_pid: serve.pid,
        })
    };
    let plain = pass(0, false)?;
    if let Some(bad) = plain.mismatches.first() {
        eprintln!("gesturebench: output check failed: {bad}");
        let m = Metrics::default();
        println!(
            "{}",
            result_json(false, plain.attempted, plain.failed(), &m, &[])
        );
        return Ok(ExitCode::FAILURE);
    }
    let traced = if args.trace {
        let traced = pass(1 << 40, true)?;
        if let Some(bad) = traced.mismatches.first() {
            return Err(format!("output check failed in the traced pass: {bad}"));
        }
        Some(traced)
    } else {
        None
    };
    let wal_image = match (&traced, &wal_dir) {
        (Some(_), Some(dir)) => {
            let image = scratch.path().join("wal-image");
            copy_dir(dir, &image).map_err(|e| format!("copying WAL image: {e}"))?;
            Some(image)
        }
        _ => None,
    };
    let child_json = serve.stop(GRACE)?;

    let mut m = Metrics::default();
    eprintln!(
        "gesturebench: {} sessions ({} failed: {} with Busy, {} never closed), {} points in \
         {:.2} s; whole-window timings:",
        plain.attempted,
        plain.failed(),
        plain.closed_failed,
        plain.failed() - plain.closed_failed,
        plain.total_points(),
        plain.window_s()
    );
    describe("reply", &plain.all_replies());
    describe("recognize", &plain.all_recognized());
    describe("generator lateness", &plain.late_ns);
    let calm = calmer_half(&plain.reply_ns);
    let replies = pooled(&plain.reply_ns, &calm);
    let recognized = pooled(&plain.recognize_ns, &calm);
    let stolen: u64 = plain.steal_ns.iter().sum();
    let steal_frac = stolen as f64 / (plain.window_s() * 1e9 * cores as f64);
    eprintln!(
        "gesturebench: the host stole {:.2}% of the VM's CPU in the window; every reported \
         figure pools the {} calmest of {} {}-ms slices (by reply p99):",
        steal_frac * 100.0,
        calm.len(),
        plain.reply_ns.len(),
        SLICE_NS / 1_000_000
    );
    describe("reply", &replies);
    describe("recognize", &recognized);
    let sum = |v: &[f64]| calm.iter().map(|&i| v[i]).sum::<f64>();
    let points: Vec<f64> = plain.points.iter().map(|&p| p as f64).collect();
    let cpu: Vec<f64> = plain.server_cpu_ns.iter().map(|&c| c as f64).collect();
    m.set("setup_s", median_f64(&setup_s));
    m.set("points_per_s", sum(&points) / sum(&plain.slice_s));
    m.set("reply_p50_us", timing(&replies, p50, "reply p50")?);
    m.set("reply_p99_us", timing(&replies, p99, "reply p99")?);
    m.set(
        "recognize_p50_us",
        timing(&recognized, p50, "recognize p50")?,
    );
    m.set(
        "recognize_p99_us",
        timing(&recognized, p99, "recognize p99")?,
    );
    m.set("server_cpu_ns_per_point", sum(&cpu) / sum(&points));
    m.set("loadgen.host_steal_frac", steal_frac);
    m.set(
        "server_rss_mb",
        plain.server_rss_bytes as f64 / f64::from(1 << 20),
    );
    m.set(
        "session_success_rate",
        plain.ok as f64 / plain.attempted.max(1) as f64,
    );

    let set = match &traced {
        None => &END_TO_END[..],
        Some(traced) => {
            per_layer(&mut m, &args, &plain, traced, &child_json, &train_ms, cores)?;
            let replayed = replay(
                &Replay {
                    rec: &rec,
                    scripts: &scripts,
                    workload: w,
                    wal_dir: w.wal.then(|| scratch.path().join("replay-wal")).as_deref(),
                    wal_image: wal_image.as_deref(),
                    allocations,
                },
                &mut m,
            )?;
            finish_trace(&mut m, w, &plain, traced, replayed, &out_dir)?;
            &PER_LAYER[..]
        }
    };
    println!(
        "{}",
        result_json(true, plain.attempted, plain.failed(), &m, set)
    );
    Ok(ExitCode::SUCCESS)
}

fn sorted(v: &[u64]) -> Vec<u64> {
    let mut v = v.to_vec();
    v.sort_unstable();
    v
}

/// Per-layer figures read from the child and the untraced pass.
fn per_layer(
    m: &mut Metrics,
    args: &Args,
    plain: &PassResult,
    traced: &PassResult,
    child_json: &str,
    train_ms: &[f64],
    cores: usize,
) -> Result<(), String> {
    let field = |key: &str| {
        json_number(child_json, key).ok_or_else(|| format!("child metrics lack {key:?}"))
    };
    let events = field("events_ingested")?.max(1.0);
    let kevents = events / 1e3;
    m.set(
        "tcp.wakeups_per_kevent",
        field("reactor_wakeups")? / kevents,
    );
    m.set(
        "tcp.readiness_per_kevent",
        field("readiness_events")? / kevents,
    );
    m.set(
        "tcp.epoll_ctl_per_kevent",
        field("epoll_ctl_calls")? / kevents,
    );
    m.set(
        "tcp.frames_per_flush",
        field("frames_sent")? / field("writer_flushes")?.max(1.0),
    );
    m.set("tcp.writes_short", field("writes_short")?);
    m.set("router.queue_highwater", field("queue_highwater")?);
    m.set("router.busy_rejections", field("busy_rejections")?);
    m.set("session.shard_ns_per_point", field("ns_per_point")?);
    m.set("wal.bytes_per_event", field("wal_bytes")? / events);
    m.set("core.train_ms", median_f64(train_ms));
    let late = sorted(&plain.late_ns);
    m.set("loadgen.late_p99_us", p99(&late).map_or(0.0, us));
    m.set(
        "loadgen.cpu_frac",
        plain.loadgen_cpu_ns as f64 / (plain.window_s() * 1e9 * CONNECTIONS as f64),
    );
    m.set("loadgen.sessions_attempted", plain.attempted as f64);
    m.set("loadgen.sessions_failed", plain.failed() as f64);
    m.set("loadgen.reply_samples", plain.all_replies().len() as f64);
    m.set(
        "loadgen.recognize_samples",
        plain.all_recognized().len() as f64,
    );
    m.set("loadgen.cores", cores as f64);
    let p_plain = calm_reply_p50(plain)?;
    let p_traced = calm_reply_p50(traced)?;
    m.set(
        "trace.overhead_pct",
        (p_traced - p_plain) / p_plain.max(1e-3) * 100.0,
    );
    eprintln!(
        "gesturebench: traced pass ({} seed {}): reply p50 {p_traced:.1} us vs untraced \
         {p_plain:.1} us",
        args.workload.name, args.seed,
    );
    describe("traced reply", &traced.all_replies());
    describe("traced recognize", &traced.all_recognized());
    Ok(())
}

/// Spans: the reply remainder, the per-name table, and the span file.
fn finish_trace(
    m: &mut Metrics,
    w: &Workload,
    plain: &PassResult,
    traced: &PassResult,
    replayed: Vec<Span>,
    out_dir: &Path,
) -> Result<(), String> {
    let mut spans = traced.spans.clone();
    spans.extend(replayed);
    m.set("trace.spans", spans.len() as f64);
    let table = by_name(&spans);
    let p50_of = |name: &str| {
        table
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, |s| s.p50_ns_per_call)
    };
    let value = |name: &str| m.get(name).unwrap_or(0.0);
    // One request's server-side layer medians (ns): decode of its frame,
    // the router hop, one pipeline step, one reply encode.
    let decode = if w.batched() {
        value("wire.decode_batch_ns_per_event") * BATCH_EVENTS as f64
    } else {
        value("wire.decode_event_ns")
    };
    let hop = value("router.hop_p50_us") * 1e3;
    // Open loop: the generator's own lateness is part of every reply.
    let late = percentile(&sorted(&plain.late_ns), 50.0) as f64;
    let layers = decode
        + hop
        + value("session.feed_ns_p50")
        + value("wire.encode_server_ns_per_frame")
        + p50_of("client.encode")
        + p50_of("client.decode")
        + late;
    let reply_p50 = value("reply_p50_us") * 1e3;
    let wakeups = value("tcp.wakeups_per_kevent");
    let remainder = reply_p50 - layers;
    m.set("tcp.remainder_p50_us", remainder / 1e3);
    // The hop is paid once per frame; a batch frame spreads it over its
    // events.
    let events_per_frame = if w.batched() {
        BATCH_EVENTS as f64
    } else {
        1.0
    };
    eprintln!(
        "gesturebench: reply p50 {:.1} us = layer medians {:.1} us (router hop {:.1} us, \
         generator lateness {:.1} us) + loopback/kernel/reactor remainder {:.1} us; router hop \
         per event = {:.2}% of reply p50; reactor wakeups per kevent {:.1}",
        reply_p50 / 1e3,
        layers / 1e3,
        hop / 1e3,
        late / 1e3,
        remainder / 1e3,
        hop / events_per_frame / reply_p50.max(1.0) * 100.0,
        wakeups,
    );
    eprintln!(
        "  {:<26} {:>8} {:>10} {:>14} {:>14}",
        "span", "spans", "calls", "p50 ns/call", "self ns/call"
    );
    for s in &table {
        eprintln!(
            "  {:<26} {:>8} {:>10} {:>14.1} {:>14.1}",
            s.name, s.spans, s.calls, s.p50_ns_per_call, s.p50_self_ns_per_call
        );
    }
    let path = out_dir.join(format!("spans-{}.tsv", w.name));
    write_tsv(&path, &spans).map_err(|e| format!("writing spans: {e}"))?;
    eprintln!(
        "gesturebench: {} spans ({} dropped) written to {}",
        spans.len(),
        traced.spans_dropped,
        path.display()
    );
    Ok(())
}
