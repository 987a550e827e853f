//! Connection fan-out: a `serve --io-threads 4` child holds N concurrent
//! TCP connections while each one runs closed-loop open→batch→close
//! round trips, on every host readiness backend (poll, and epoll on
//! Linux).
//!
//! The tier-1 test runs one 256-connection tier per backend and holds
//! it clean: every connection accepted, no connect failure, no failed
//! round trip, and the child's shutdown metrics report the backend that
//! was asked for.
//!
//! The full 64→16384 ladder is ignored by default; it prints one JSON
//! line per tier (RTT percentiles, the child's RSS growth per
//! connection, `epoll_ctl` calls):
//!
//! ```text
//! cargo test -p grandma-serve --release --test fanout -- --ignored --nocapture
//! ```
//!
//! The server lives in its own process so each side stays within
//! `RLIMIT_NOFILE` at the deepest tier (~16.4k descriptors apiece; one
//! process holding both ends would need ~33k).

mod support;

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use grandma_events::InputEvent;
use grandma_serve::sys::ensure_nofile_limit;
use grandma_serve::{
    encode_client, encode_event_batch, ClientFrame, FrameBuffer, OutcomeKind, PollBackend,
    ServerFrame, WIRE_VERSION,
};
use support::{host_backends, path_str, session_stream, tmp_dir, train, Server};

/// Client worker threads per tier. Each owns an equal share of the
/// connections and runs them closed-loop (one round trip in flight per
/// worker), so the concurrency under test is the established
/// connections, not a request backlog.
const WORKERS: usize = 4;
/// Events per round trip, sent as one `EventBatch` frame.
const BATCH: usize = 24;
/// The ladder's tiers.
const LADDER: &[usize] = &[64, 256, 1024, 2048, 4096, 8192, 16384];
/// Ladder tiers above this run one measured round instead of three: a
/// round at 16384 connections is already 16k round trips.
const DEEP_TIER: usize = 4096;
/// The fd limit the ladder asks for: the client end of the deepest tier
/// plus headroom (the `serve` child raises its own limit).
const NOFILE_WANT: u64 = 17_000;

/// One established connection and the decode buffer that persists
/// across its round trips (a reply can straddle reads).
struct Conn {
    stream: TcpStream,
    frames: FrameBuffer,
    idx: usize,
}

/// What one tier measured.
struct Tier {
    accepted: usize,
    connect_failures: usize,
    round_trip_failures: usize,
    /// Sorted round-trip times of the measured rounds, in ns.
    rtts_ns: Vec<u64>,
    /// The child's resident-set growth across connect + warm-up.
    rss_delta_bytes: u64,
    wall_s: f64,
    /// The metrics JSON the child printed at graceful shutdown.
    metrics: String,
}

/// Resident set size of process `pid` in bytes, from the `VmRSS:` line
/// of `/proc/<pid>/status`; 0 where that file does not exist. The figure
/// is page-granular, so small tiers report allocator noise rather than
/// per-connection cost.
fn rss_bytes(pid: u32) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .map_or(0, |kb| kb * 1024)
}

/// The raw value of a top-level `"key": value` field in the child's
/// metrics JSON, quotes stripped.
fn metric<'a>(json: &'a str, key: &str) -> &'a str {
    let needle = format!("\"{key}\": ");
    json.find(&needle)
        .map(|at| &json[at + needle.len()..])
        .and_then(|rest| rest.split([',', '\n']).next())
        .map_or("", |value| value.trim_matches('"'))
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    let rank = (p * sorted.len().saturating_sub(1) as f64).round() as usize;
    sorted.get(rank).copied().unwrap_or(0)
}

fn connect_with_retry(addr: SocketAddr) -> Option<TcpStream> {
    for attempt in 0..5 {
        match TcpStream::connect(addr) {
            Ok(stream) => return Some(stream),
            Err(_) => std::thread::sleep(Duration::from_millis(5 << attempt)),
        }
    }
    None
}

/// `Open` + one `EventBatch` + `Close` in a single write, timed until the
/// session's `Closed` outcome comes back.
fn round_trip(
    conn: &mut Conn,
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
        while let Some(frame) = conn.frames.next_server().expect("valid server bytes") {
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
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        conn.frames.extend(&chunk[..n]);
    }
}

/// `rounds` closed-loop rounds over every connection group in parallel;
/// session ids `session_base + round * n + idx` stay unique for the
/// tier. Returns the round-trip times and the failed round trips.
fn run_rounds(
    groups: &mut [Vec<Conn>],
    n: usize,
    session_base: u64,
    rounds: u64,
    events: &[(u32, InputEvent)],
) -> (Vec<u64>, usize) {
    std::thread::scope(|scope| {
        let workers: Vec<_> = groups
            .iter_mut()
            .map(|group| {
                scope.spawn(move || {
                    let mut rtts = Vec::new();
                    let mut failed = 0usize;
                    let mut scratch = Vec::with_capacity(4096);
                    for round in 0..rounds {
                        for conn in group.iter_mut() {
                            let session = session_base + round * n as u64 + conn.idx as u64;
                            match round_trip(conn, session, events, &mut scratch) {
                                Ok(ns) => rtts.push(ns),
                                Err(_) => failed += 1,
                            }
                        }
                    }
                    (rtts, failed)
                })
            })
            .collect();
        workers
            .into_iter()
            .fold((Vec::new(), 0), |(mut all, fails), w| {
                let (rtts, failed) = w.join().expect("round worker");
                all.extend(rtts);
                (all, fails + failed)
            })
    })
}

/// Opens `n` connections, striped over the workers, each with its
/// `Hello` written. Returns the groups and the connect failures.
fn connect_all(addr: SocketAddr, n: usize) -> (Vec<Vec<Conn>>, usize) {
    let mut hello = Vec::new();
    encode_client(
        &ClientFrame::Hello {
            version: WIRE_VERSION,
        },
        &mut hello,
    );
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|w| {
                let hello = &hello;
                scope.spawn(move || {
                    let mut conns = Vec::new();
                    let mut failures = 0usize;
                    for idx in (w..n).step_by(WORKERS) {
                        let Some(mut stream) = connect_with_retry(addr) else {
                            failures += 1;
                            continue;
                        };
                        let _ = stream.set_nodelay(true);
                        let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
                        if stream.write_all(hello).is_ok() {
                            conns.push(Conn {
                                stream,
                                frames: FrameBuffer::new(),
                                idx,
                            });
                        } else {
                            failures += 1;
                        }
                    }
                    (conns, failures)
                })
            })
            .collect();
        workers
            .into_iter()
            .fold((Vec::new(), 0), |(mut groups, fails), w| {
                let (conns, failures) = w.join().expect("connect worker");
                groups.push(conns);
                (groups, fails + failures)
            })
    })
}

/// One tier: a fresh `serve` child on `backend`, `n` concurrent
/// connections, one warm-up round, then `rounds` measured rounds.
fn run_tier(model: &Path, backend: PollBackend, n: usize, rounds: u64) -> Tier {
    let events: Vec<(u32, InputEvent)> = session_stream(1)
        .into_iter()
        .take(BATCH)
        .enumerate()
        .map(|(i, e)| (i as u32, e))
        .collect();
    let server = Server::start(&[
        "--model",
        path_str(model),
        "--shards",
        "4",
        "--queue-capacity",
        "32768",
        "--io-threads",
        "4",
        "--poll-backend",
        backend.name(),
    ]);
    let rss_before = rss_bytes(server.pid());
    let (mut groups, connect_failures) = connect_all(server.addr, n);
    let accepted = groups.iter().map(Vec::len).sum();
    // The warm-up round materializes per-connection buffers server-side,
    // so the RSS delta reflects steady-state per-connection cost.
    let (_, warmup_failures) = run_rounds(&mut groups, n, 1, 1, &events);
    let rss_after = rss_bytes(server.pid());
    let started = Instant::now();
    let (mut rtts_ns, failures) = run_rounds(&mut groups, n, 1 + n as u64, rounds, &events);
    let wall_s = started.elapsed().as_secs_f64();
    rtts_ns.sort_unstable();
    // Client sockets close first, so the child's shutdown is not also a
    // teardown storm.
    drop(groups);
    Tier {
        accepted,
        connect_failures,
        round_trip_failures: warmup_failures + failures,
        rtts_ns,
        rss_delta_bytes: rss_after.saturating_sub(rss_before),
        wall_s,
        metrics: server.stop(),
    }
}

/// Holds a tier clean on `backend`.
fn assert_clean(tier: &Tier, backend: PollBackend, n: usize) {
    assert_eq!(
        tier.accepted, n,
        "{backend:?} tier {n}: dropped connections"
    );
    assert_eq!(
        tier.connect_failures, 0,
        "{backend:?} tier {n}: connect failures"
    );
    assert_eq!(
        tier.round_trip_failures, 0,
        "{backend:?} tier {n}: failed round trips"
    );
    assert_eq!(
        metric(&tier.metrics, "reactor_backend"),
        backend.name(),
        "{backend:?} tier {n}: the child ran another backend"
    );
}

#[test]
fn two_hundred_fifty_six_connections_round_trip_on_every_backend() {
    let dir = tmp_dir("fanout");
    let (model, _) = train(&dir);
    for backend in host_backends() {
        let tier = run_tier(&model, backend, 256, 1);
        assert_clean(&tier, backend, 256);
        assert_eq!(
            tier.rtts_ns.len(),
            256,
            "{backend:?}: one RTT per connection"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[ignore = "the full 64→16384 connection ladder; run with --ignored --nocapture"]
fn connection_ladder() {
    let (before, after) = ensure_nofile_limit(NOFILE_WANT).expect("RLIMIT_NOFILE");
    eprintln!("fanout: RLIMIT_NOFILE {before} -> {after}");
    let dir = tmp_dir("fanout-ladder");
    let (model, _) = train(&dir);
    for backend in host_backends() {
        for &n in LADDER {
            let rounds = if n > DEEP_TIER { 1 } else { 3 };
            let tier = run_tier(&model, backend, n, rounds);
            assert_clean(&tier, backend, n);
            let rtts = &tier.rtts_ns;
            println!(
                "{{\"backend\": \"{}\", \"connections\": {n}, \"io_threads\": 4, \
                 \"workers\": {WORKERS}, \"batch_events\": {BATCH}, \"rounds\": {rounds}, \
                 \"rtt_samples\": {}, \"rtt_ns_p50\": {}, \"rtt_ns_p95\": {}, \
                 \"rtt_ns_p99\": {}, \"rss_delta_bytes\": {}, \"rss_bytes_per_conn\": {}, \
                 \"epoll_ctl_calls\": {}, \"wall_s\": {:.4}}}",
                backend.name(),
                rtts.len(),
                percentile(rtts, 0.50),
                percentile(rtts, 0.95),
                percentile(rtts, 0.99),
                tier.rss_delta_bytes,
                tier.rss_delta_bytes / n as u64,
                metric(&tier.metrics, "epoll_ctl_calls"),
                tier.wall_s,
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
