//! The traced per-layer replay.
//!
//! After the traced pass, the run's session scripts are replayed
//! in-process through each layer's public calls, every call (or run of
//! tiny calls) wrapped in a span:
//!
//! * `FrameBuffer::next_client_view` over the scripts' client frames, in
//!   both framings (v1 `Event` and 32-event `EventBatch`);
//! * `WalShard::append_frame` per accepted frame and `WalShard::compact`
//!   (WAL workloads only), and `wal::read_shard` over the child's WAL;
//! * `EventSanitizer::process_into`, then `SessionPipeline::feed`/`close`
//!   and `SessionSnapshot::encode`/`decode`, then `encode_server`;
//! * the recognizer's own calls (`Auc::is_unambiguous_slice`,
//!   `Classifier::classify_slice_checked`, `EagerRecognizer::run`) on the
//!   scripts' gestures;
//! * an in-process `SessionRouter`, timing submit and the hop from
//!   submit to the first reply on the `ReplyTx` channel, minus the
//!   pipeline's own `feed` time for the events that produced it.

use std::hint::black_box;
use std::path::Path;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use grandma_core::{EagerRecognizer, FeatureExtractor};
use grandma_events::{EventSanitizer, InputEvent};
use grandma_serve::wal::{read_shard, WalShard};
use grandma_serve::{
    encode_client, encode_event_batch, encode_server, ClientFrame, ClientFrameView, FrameBuffer,
    FsyncPolicy, OutcomeKind, PipelineConfig, ReplyTx, ServeConfig, ServerFrame, SessionPipeline,
    SessionRouter, SessionSnapshot, ShardMsg, WalConfig,
};

use crate::check::push_normalized;
use crate::report::Metrics;
use crate::spans::{Span, Tracer};
use crate::stats::{median_f64, p99, percentile};
use crate::workload::{Script, Workload, BATCH_EVENTS};

/// Router round trips sampled (at least).
const HOP_SAMPLES: usize = 2000;
/// WAL appends sampled (at least), WAL workloads only.
const WAL_APPEND_SAMPLES: usize = 1200;
/// Timed WAL compactions.
const COMPACTIONS: usize = 20;
/// Mid-session snapshots kept live for the compactions (the closed-loop
/// workloads hold 16 sessions in flight).
const LIVE_SESSIONS: usize = 16;
/// Vectors per timed run of the recognizer's tiny calls.
const CORE_RUN: usize = 256;

/// Inputs of the replay.
pub struct Replay<'a> {
    /// The model the child serves (parsed back from its model file).
    pub rec: &'a Arc<EagerRecognizer>,
    /// The run's session scripts.
    pub scripts: &'a [Script],
    /// The workload (framing, WAL).
    pub workload: &'static Workload,
    /// Scratch directory for the replay's own WAL (WAL workloads).
    pub wal_dir: Option<&'a Path>,
    /// Copy of the child's WAL directory taken after the traced pass.
    pub wal_image: Option<&'a Path>,
    /// Heap allocations made so far by this process.
    pub allocations: fn() -> u64,
}

/// Per-event pipeline facts of one script, for the router hop.
#[derive(Default)]
struct ScriptTrace {
    feed_ns: Vec<u64>,
    frames: Vec<u32>,
    close_frames: u32,
}

/// Per-call durations (ns) of every span named `name`.
fn per_call(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / f64::from(s.calls.max(1)))
        .collect()
}

/// Sorted single-call durations (ns) of every span named `name`.
fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    let mut v: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .collect();
    v.sort_unstable();
    v
}

fn require_p99(sorted: &[u64], what: &str) -> Result<f64, String> {
    p99(sorted).map(|v| v as f64).ok_or_else(|| {
        format!(
            "{what}: only {} samples, refusing to print a p99",
            sorted.len()
        )
    })
}

/// The client frames of `script` as `session` in one framing: `Open`,
/// the events (v1 `Event` frames or 32-event batches), `Close`.
fn client_bytes(session: u64, events: &[InputEvent], batched: bool) -> Vec<u8> {
    let mut out = Vec::new();
    encode_client(&ClientFrame::Open { session }, &mut out);
    let seqd: Vec<(u32, InputEvent)> = events
        .iter()
        .enumerate()
        .map(|(i, &e)| (i as u32, e))
        .collect();
    if batched {
        for chunk in seqd.chunks(BATCH_EVENTS) {
            encode_event_batch(session, chunk, &mut out);
        }
    } else {
        for &(seq, event) in &seqd {
            encode_client(
                &ClientFrame::Event {
                    session,
                    seq,
                    event,
                },
                &mut out,
            );
        }
    }
    encode_client(
        &ClientFrame::Close {
            session,
            seq: events.len() as u32,
        },
        &mut out,
    );
    out
}

/// Splits a buffer of length-prefixed frames into whole frames.
fn frames_of(bytes: &[u8]) -> Vec<&[u8]> {
    let mut out = Vec::new();
    let mut at = 0;
    while let Some(len) = bytes.get(at..at + 4) {
        let len = u32::from_le_bytes([len[0], len[1], len[2], len[3]]) as usize;
        out.push(&bytes[at..at + 4 + len]);
        at += 4 + len;
    }
    out
}

/// Runs the replay, setting every layer metric it measures, and returns
/// its spans.
pub fn replay(r: &Replay, m: &mut Metrics) -> Result<Vec<Span>, String> {
    let base = Instant::now();
    let now = || base.elapsed().as_nanos() as u64;
    let mut tr = Tracer::new(true, 3, 1 << 22);
    let rec: &EagerRecognizer = r.rec;
    let allocs = r.allocations;

    let mut wal = match (r.workload.wal, r.wal_dir) {
        (true, Some(dir)) => Some(
            WalShard::open(WalConfig::new(dir, FsyncPolicy::Sync), 0)
                .map_err(|e| format!("opening replay WAL: {e}"))?,
        ),
        _ => None,
    };
    let mut fb = FrameBuffer::new();
    let mut pipeline = SessionPipeline::new(0, PipelineConfig::default());
    let mut sanitizer = EventSanitizer::new();
    let mut cleaned: Vec<InputEvent> = Vec::with_capacity(8);
    let mut frames_out: Vec<ServerFrame> = Vec::with_capacity(8192);
    let mut encoded: Vec<u8> = Vec::with_capacity(1 << 18);
    let mut normalized: Vec<u8> = Vec::with_capacity(1 << 18);
    let mut traces: Vec<ScriptTrace> = Vec::with_capacity(r.scripts.len());
    let mut live: Vec<SessionSnapshot> = Vec::new();
    let (mut wire_allocs, mut wire_frames) = (0u64, 0u64);
    let (mut session_allocs, mut session_events) = (0u64, 0u64);
    let (mut repairs, mut sanitized) = (0u64, 0u64);
    let mut snapshot_bytes: Vec<f64> = Vec::new();

    for (k, script) in r.scripts.iter().enumerate() {
        let req = k as u64 + 1;
        let root = (3 << 48) | (1 << 40) | req;
        let root_start = now();
        let warm = k > 0;
        let events = &script.events;
        let single = client_bytes(req, events, false);
        let batch = client_bytes(req, events, true);
        tr.reserve(events.len() * 2 + 64);

        // Wire decode, both framings.
        fb.extend(&single);
        let a0 = allocs();
        let t = now();
        let mut n = 0u32;
        while let Ok(Some(view)) = fb.next_client_view() {
            black_box(view);
            n += 1;
        }
        tr.span("wire.decode_event", t, now(), root, req, n);
        fb.extend(&batch);
        let t = now();
        let mut records = 0u32;
        let mut batch_frames = 0u64;
        while let Ok(Some(view)) = fb.next_client_view() {
            batch_frames += 1;
            if let ClientFrameView::EventBatch(b) = view {
                for record in b.iter() {
                    black_box(record);
                    records += 1;
                }
            }
        }
        tr.span("wire.decode_batch", t, now(), root, req, records.max(1));
        if warm {
            wire_allocs += allocs() - a0;
            wire_frames += u64::from(n) + batch_frames;
        }

        // Write-ahead log, one append per accepted frame.
        if let Some(w) = wal.as_mut() {
            for frame in frames_of(&batch) {
                let t = now();
                w.append_frame(frame)
                    .map_err(|e| format!("WAL append: {e}"))?;
                tr.span("wal.append", t, now(), root, req, 1);
            }
        }

        // Sanitizer, timed as one run over the session.
        sanitizer.reset();
        let t = now();
        for &e in events {
            cleaned.clear();
            sanitizer.process_into(e, &mut cleaned);
            repairs += sanitizer.faults().len() as u64;
            sanitizer.clear_faults();
        }
        tr.span(
            "events.sanitize",
            t,
            now(),
            root,
            req,
            events.len().max(1) as u32,
        );
        sanitized += events.len() as u64;

        // Session pipeline, one span per feed.
        let mut st = ScriptTrace {
            feed_ns: Vec::with_capacity(events.len()),
            frames: Vec::with_capacity(events.len()),
            close_frames: 0,
        };
        pipeline.recycle(req);
        frames_out.clear();
        let mut snapshot_allocs = 0u64;
        let a0 = allocs();
        for (i, &e) in events.iter().enumerate() {
            let before = frames_out.len();
            let t = now();
            pipeline.feed(rec, i as u32, e, &mut frames_out);
            let t2 = now();
            tr.span("session.feed", t, t2, root, req, 1);
            st.feed_ns.push(t2 - t);
            st.frames.push((frames_out.len() - before) as u32);
            if i == events.len() / 2 {
                let s0 = allocs();
                let snapshot = pipeline.snapshot();
                let mut bytes = Vec::new();
                let t = now();
                snapshot.encode(&mut bytes);
                tr.span("session.snapshot_encode", t, now(), root, req, 1);
                let t = now();
                let decoded = SessionSnapshot::decode(&bytes);
                tr.span("session.snapshot_decode", t, now(), root, req, 1);
                if decoded.as_ref().map(|(d, _)| d) != Ok(&snapshot) {
                    return Err(format!("script {k}: snapshot does not round-trip"));
                }
                snapshot_bytes.push(bytes.len() as f64);
                if live.len() < LIVE_SESSIONS {
                    live.push(snapshot);
                }
                snapshot_allocs += allocs() - s0;
            }
        }
        let before = frames_out.len();
        let t = now();
        pipeline.close(rec, events.len() as u32, &mut frames_out);
        tr.span("session.close", t, now(), root, req, 1);
        st.close_frames = (frames_out.len() - before) as u32;
        if warm {
            session_allocs += allocs() - a0 - snapshot_allocs;
            session_events += events.len() as u64;
        }

        // Reply encoding, one run per session.
        encoded.clear();
        let a0 = allocs();
        let t = now();
        for frame in &frames_out {
            encode_server(frame, &mut encoded);
        }
        tr.span(
            "wire.encode_server",
            t,
            now(),
            root,
            req,
            frames_out.len().max(1) as u32,
        );
        if warm {
            wire_allocs += allocs() - a0;
            wire_frames += frames_out.len() as u64;
        }
        // The replay must reproduce the reference stream exactly.
        normalized.clear();
        for frame in frames_of(&encoded) {
            push_normalized(frame, &mut normalized);
        }
        if normalized != script.expected {
            return Err(format!(
                "script {k}: in-process replay differs from its reference"
            ));
        }
        tr.span_with_id(Span {
            name: "replay.session",
            start_ns: root_start,
            end_ns: now(),
            id: root,
            parent: 0,
            req,
            calls: 1,
        });
        traces.push(st);
    }

    // WAL: top up appends for a supported p99, time compactions of the
    // live sessions, and time reading back the child's log image.
    let mut wal_replay_ns_per_frame = 0.0;
    if let Some(w) = wal.as_mut() {
        let mut k = 0usize;
        while per_call(tr.spans(), "wal.append").len() < WAL_APPEND_SAMPLES {
            let script = &r.scripts[k % r.scripts.len()];
            for frame in frames_of(&client_bytes(k as u64 + 1, &script.events, true)) {
                let t = now();
                w.append_frame(frame)
                    .map_err(|e| format!("WAL append: {e}"))?;
                tr.span("wal.append", t, now(), 0, 0, 1);
            }
            k += 1;
        }
        for _ in 0..COMPACTIONS {
            let t = now();
            w.compact(&live).map_err(|e| format!("WAL compact: {e}"))?;
            tr.span("wal.compact", t, now(), 0, 0, 1);
        }
    }
    if let Some(image) = r.wal_image {
        let config = WalConfig::new(image, FsyncPolicy::Async);
        let t = now();
        let recovered = read_shard(&config, 0).map_err(|e| format!("reading WAL image: {e}"))?;
        let frames = recovered.frames.len().max(1) as u32;
        let t2 = now();
        tr.span("wal.read_shard", t, t2, 0, 0, frames);
        wal_replay_ns_per_frame = (t2 - t) as f64 / f64::from(frames);
    }

    core_calls(rec, r.scripts, &mut tr, &now, m);
    router_hop(r, &traces, &mut tr, &now, m)?;

    let spans = tr.into_spans();
    let med = |name: &str| median_f64(&per_call(&spans, name));
    m.set("wire.decode_event_ns", med("wire.decode_event"));
    m.set("wire.decode_batch_ns_per_event", med("wire.decode_batch"));
    m.set("wire.encode_server_ns_per_frame", med("wire.encode_server"));
    m.set(
        "wire.allocs_per_frame",
        wire_allocs as f64 / wire_frames.max(1) as f64,
    );
    m.set("events.sanitize_ns_per_event", med("events.sanitize"));
    m.set(
        "events.repairs_per_kevent",
        repairs as f64 * 1000.0 / sanitized.max(1) as f64,
    );
    let feeds = durations(&spans, "session.feed");
    m.set("session.feed_ns_p50", percentile(&feeds, 50.0) as f64);
    m.set("session.feed_ns_p99", require_p99(&feeds, "session.feed")?);
    m.set("session.close_ns_p50", med("session.close"));
    m.set(
        "session.allocs_per_event",
        session_allocs as f64 / session_events.max(1) as f64,
    );
    m.set("session.snapshot_encode_ns", med("session.snapshot_encode"));
    m.set("session.snapshot_decode_ns", med("session.snapshot_decode"));
    m.set("session.snapshot_bytes", median_f64(&snapshot_bytes));
    if wal.is_some() {
        let appends = durations(&spans, "wal.append");
        m.set("wal.append_us_p50", percentile(&appends, 50.0) as f64 / 1e3);
        m.set(
            "wal.append_us_p99",
            require_p99(&appends, "wal.append")? / 1e3,
        );
        m.set("wal.compact_ms_p50", med("wal.compact") / 1e6);
    } else {
        m.set("wal.append_us_p50", 0.0);
        m.set("wal.append_us_p99", 0.0);
        m.set("wal.compact_ms_p50", 0.0);
    }
    m.set("wal.replay_ns_per_frame", wal_replay_ns_per_frame);
    Ok(spans)
}

/// The recognizer's public calls on the scripts' gestures.
fn core_calls(
    rec: &EagerRecognizer,
    scripts: &[Script],
    tr: &mut Tracer,
    now: &dyn Fn() -> u64,
    m: &mut Metrics,
) {
    let classifier = rec.full_classifier();
    let mask = classifier.mask();
    let dim = mask.count();
    let min_points = rec.config().min_subgesture_points;
    let (mut prefixes, mut fulls) = (Vec::new(), Vec::new());
    let (mut gestures, mut fired, mut examined, mut total) = (0u64, 0u64, 0u64, 0u64);
    let mut features = vec![0.0; dim];
    for gesture in scripts.iter().flat_map(|s| &s.gestures) {
        let run = rec.run(gesture);
        gestures += 1;
        fired += u64::from(run.eager);
        examined += run.points_at_recognition as u64;
        total += run.total_points as u64;
        let mut extractor = FeatureExtractor::new();
        for &p in gesture.points() {
            extractor.update(p);
            if extractor.count() >= min_points {
                extractor.masked_features_into(mask, &mut features);
                prefixes.extend_from_slice(&features);
            }
        }
        extractor.masked_features_into(mask, &mut features);
        fulls.extend_from_slice(&features);
    }
    for run in prefixes.chunks(CORE_RUN * dim) {
        let t = now();
        for v in run.chunks(dim) {
            black_box(rec.auc().is_unambiguous_slice(black_box(v)));
        }
        tr.span("core.unambiguous", t, now(), 0, 0, (run.len() / dim) as u32);
    }
    let mut evaluations = vec![0.0; classifier.num_classes()];
    for run in fulls.chunks(CORE_RUN * dim) {
        let t = now();
        for v in run.chunks(dim) {
            black_box(classifier.classify_slice_checked(black_box(v), &mut evaluations));
        }
        tr.span("core.classify", t, now(), 0, 0, (run.len() / dim) as u32);
    }
    m.set(
        "core.unambiguous_ns",
        median_f64(&per_call(tr.spans(), "core.unambiguous")),
    );
    m.set(
        "core.classify_ns",
        median_f64(&per_call(tr.spans(), "core.classify")),
    );
    m.set(
        "core.eager_fire_frac",
        fired as f64 / gestures.max(1) as f64,
    );
    m.set(
        "core.points_examined_frac",
        examined as f64 / total.max(1) as f64,
    );
}

/// Submits into the in-process router. The replay keeps its queue nearly
/// empty, so `Busy` (which consumes the message) means something broke.
fn submit(router: &SessionRouter, msg: ShardMsg) -> Result<(), String> {
    router
        .submit(msg)
        .map_err(|e| format!("in-process router refused a message: {e:?}"))
}

/// Submit → first reply through an in-process `SessionRouter`, in the
/// workload's framing, minus the `feed` time of the events that produced
/// the reply.
fn router_hop(
    r: &Replay,
    traces: &[ScriptTrace],
    tr: &mut Tracer,
    now: &dyn Fn() -> u64,
    m: &mut Metrics,
) -> Result<(), String> {
    let router = SessionRouter::new(
        r.rec.clone(),
        ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        },
    );
    let (tx, rx) = mpsc::channel::<ServerFrame>();
    let conn = router.new_conn_id();
    let pool = router.batch_pool().clone();
    let step = if r.workload.batched() {
        BATCH_EVENTS
    } else {
        1
    };
    let recv = || {
        rx.recv_timeout(Duration::from_secs(5))
            .map_err(|_| "in-process router stopped replying".to_string())
    };
    let mut hops: Vec<u64> = Vec::new();
    let mut k = 0usize;
    while hops.len() < HOP_SAMPLES || k < r.scripts.len().min(64) {
        let idx = k % r.scripts.len();
        let (script, st) = (&r.scripts[idx], &traces[idx]);
        let session = (1 << 32) + k as u64;
        k += 1;
        submit(
            &router,
            ShardMsg::Open {
                conn,
                session,
                seq: 0,
                reply: ReplyTx::from(tx.clone()),
            },
        )?;
        let events = &script.events;
        for a in (0..events.len()).step_by(step) {
            let b = (a + step).min(events.len());
            let msg = if r.workload.batched() {
                let mut buf = pool.take();
                buf.extend((a..b).map(|i| (i as u32, events[i])));
                ShardMsg::EventBatch {
                    conn,
                    session,
                    events: buf,
                    reply: ReplyTx::from(tx.clone()),
                }
            } else {
                ShardMsg::Event {
                    conn,
                    session,
                    seq: a as u32,
                    event: events[a],
                    reply: ReplyTx::from(tx.clone()),
                }
            };
            let want: u32 = st.frames[a..b].iter().sum();
            let t0 = now();
            submit(&router, msg)?;
            let t1 = now();
            tr.span("router.submit", t0, t1, 0, session, 1);
            if want == 0 {
                continue;
            }
            recv()?;
            let t2 = now();
            let first = a + st.frames[a..b].iter().position(|&f| f > 0).unwrap_or(0);
            let feed: u64 = st.feed_ns[a..=first].iter().sum();
            hops.push((t2 - t0).saturating_sub(feed));
            tr.span("router.roundtrip", t0, t2, 0, session, 1);
            for _ in 1..want {
                recv()?;
            }
        }
        submit(
            &router,
            ShardMsg::Close {
                conn,
                session,
                seq: events.len() as u32,
                reply: ReplyTx::from(tx.clone()),
            },
        )?;
        for _ in 0..st.close_frames {
            if let ServerFrame::Outcome {
                outcome: OutcomeKind::Closed,
                ..
            } = recv()?
            {
                break;
            }
        }
    }
    router.shutdown();
    hops.sort_unstable();
    let (hits, misses) = pool.stats();
    m.set(
        "router.submit_ns_p50",
        median_f64(&per_call(tr.spans(), "router.submit")),
    );
    m.set("router.hop_p50_us", percentile(&hops, 50.0) as f64 / 1e3);
    m.set("router.hop_p99_us", require_p99(&hops, "router.hop")? / 1e3);
    m.set(
        "pool.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    Ok(())
}
