//! Metric names and the one-line JSON result.
//!
//! The two name lists below are the benchmark's contract with
//! `BENCHMARK.json`: `--trace 0` prints exactly [`END_TO_END`], `--trace
//! 1` exactly [`PER_LAYER`], and the crate's tests hold both lists equal to
//! the file in both directions.

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("points_per_s", "1/s"),
    ("reply_p50_us", "us"),
    ("reply_p99_us", "us"),
    ("recognize_p50_us", "us"),
    ("recognize_p99_us", "us"),
    ("server_cpu_ns_per_point", "ns"),
    ("server_rss_mb", "MB"),
    ("session_success_rate", "frac"),
];

/// `(name, unit)` of every per-layer metric.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("tcp.wakeups_per_kevent", "count"),
    ("tcp.readiness_per_kevent", "count"),
    ("tcp.epoll_ctl_per_kevent", "count"),
    ("tcp.frames_per_flush", "count"),
    ("tcp.writes_short", "count"),
    ("tcp.remainder_p50_us", "us"),
    ("router.submit_ns_p50", "ns"),
    ("router.hop_p50_us", "us"),
    ("router.hop_p99_us", "us"),
    ("router.queue_highwater", "count"),
    ("router.busy_rejections", "count"),
    ("pool.hit_ratio", "frac"),
    ("wire.decode_event_ns", "ns"),
    ("wire.decode_batch_ns_per_event", "ns"),
    ("wire.encode_server_ns_per_frame", "ns"),
    ("wire.allocs_per_frame", "count"),
    ("events.sanitize_ns_per_event", "ns"),
    ("events.repairs_per_kevent", "count"),
    ("session.feed_ns_p50", "ns"),
    ("session.feed_ns_p99", "ns"),
    ("session.close_ns_p50", "ns"),
    ("session.allocs_per_event", "count"),
    ("session.shard_ns_per_point", "ns"),
    ("session.snapshot_encode_ns", "ns"),
    ("session.snapshot_decode_ns", "ns"),
    ("session.snapshot_bytes", "bytes"),
    ("core.unambiguous_ns", "ns"),
    ("core.classify_ns", "ns"),
    ("core.train_ms", "ms"),
    ("core.eager_fire_frac", "frac"),
    ("core.points_examined_frac", "frac"),
    ("wal.append_us_p50", "us"),
    ("wal.append_us_p99", "us"),
    ("wal.bytes_per_event", "bytes"),
    ("wal.compact_ms_p50", "ms"),
    ("wal.replay_ns_per_frame", "ns"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.cpu_frac", "frac"),
    ("loadgen.sessions_attempted", "count"),
    ("loadgen.sessions_failed", "count"),
    ("loadgen.reply_samples", "count"),
    ("loadgen.recognize_samples", "count"),
    ("loadgen.cores", "count"),
    ("loadgen.host_steal_frac", "frac"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Metric values gathered during a run, keyed by name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Sets `name` (must be one of [`END_TO_END`] or [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// Formats a float the way JSON wants it (finite, full precision).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: exactly the metrics of `set` (every one must have a
/// value, nothing else is printed).
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    set: &[(&'static str, &'static str)],
) -> String {
    let body: Vec<String> = set
        .iter()
        .map(|(name, unit)| {
            let value = metrics
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was never measured"));
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
