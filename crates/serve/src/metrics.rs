//! Service metrics: lock-free counters snapshotted to JSON.
//!
//! One [`ServiceMetrics`] instance is shared (via `Arc`) by the router,
//! every shard worker, and every transport thread. All counters are
//! relaxed atomics — metrics must never contend with the hot path — and
//! [`ServiceMetrics::snapshot`] produces a consistent-enough point-in-time
//! [`MetricsSnapshot`] that serializes itself to JSON with
//! [`MetricsSnapshot::to_json`] (hand-rolled; the serving layer is
//! dependency-free).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::wire::{OutcomeKind, OUTCOME_KIND_COUNT};

/// Per-shard counters.
#[derive(Debug, Default)]
pub struct ShardMetrics {
    /// Messages currently queued to the shard (approximate: incremented
    /// by submitters, decremented by the worker).
    pub queue_depth: AtomicU64,
    /// High-water mark of `queue_depth`.
    pub queue_highwater: AtomicU64,
    /// Events this shard processed.
    pub events: AtomicU64,
    /// Mouse-move points this shard ingested.
    pub points: AtomicU64,
    /// Nanoseconds spent inside the pipeline on this shard.
    pub busy_ns: AtomicU64,
}

impl ShardMetrics {
    /// Records a submit: bumps depth and folds it into the high-water
    /// mark.
    pub fn note_enqueue(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_highwater.fetch_max(depth, Ordering::Relaxed);
    }

    /// Records the worker taking a message off the queue.
    pub fn note_dequeue(&self) {
        // Saturate rather than wrap if an enqueue/dequeue race ever
        // transiently inverts the count.
        let _ = self
            .queue_depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
                Some(d.saturating_sub(1))
            });
    }
}

/// The service-wide counter set.
#[derive(Debug)]
pub struct ServiceMetrics {
    /// Sessions opened over the service lifetime.
    pub sessions_opened: AtomicU64,
    /// Sessions closed (client `Close` or connection teardown).
    pub sessions_closed: AtomicU64,
    /// Client `Event` frames accepted into shard queues.
    pub events_ingested: AtomicU64,
    /// Mouse-move points among them.
    pub points_ingested: AtomicU64,
    /// `EventBatch` frames accepted into shard queues (wire v2).
    pub batches_ingested: AtomicU64,
    /// Coalesced socket writes performed by connection writer threads.
    pub writer_flushes: AtomicU64,
    /// Server frames encoded into those writes.
    pub frames_sent: AtomicU64,
    /// Interaction outcomes, indexed by the kind's wire byte:
    /// Recognized, Manipulated, Cancelled, Rejected, Closed.
    pub outcomes: [AtomicU64; OUTCOME_KIND_COUNT],
    /// Sanitizer repairs performed across all sessions.
    pub faults_repaired: AtomicU64,
    /// Frames rejected with `Busy` because a shard queue was full.
    pub busy_rejections: AtomicU64,
    /// Events/closes naming a session no shard holds.
    pub unknown_sessions: AtomicU64,
    /// Connections dropped for undecodable bytes.
    pub decode_errors: AtomicU64,
    /// Gauge: TCP connections currently registered with the reactor
    /// (incremented at accept handoff, decremented at teardown).
    pub open_connections: AtomicU64,
    /// Self-pipe wakeups consumed by reactor I/O threads. Wakes that
    /// arrive while a poll loop is busy coalesce and are not counted.
    pub reactor_wakeups: AtomicU64,
    /// File-descriptor readiness notifications processed by reactor
    /// poll loops (sum of ready entries over all `poll` returns).
    pub readiness_events: AtomicU64,
    /// Which readiness backend the reactor resolved to: 0 = no reactor
    /// started yet, 1 = poll(2), 2 = epoll(7).
    pub reactor_backend: AtomicU64,
    /// `epoll_ctl` syscalls issued by reactor threads (adds, interest
    /// modifies, deletes). Stays 0 on the poll(2) backend, whose
    /// interest set is a userspace map. The ratio of this to
    /// `readiness_events` shows how rare interest transitions are
    /// relative to wakeups.
    pub epoll_ctl_calls: AtomicU64,
    /// Socket writes that accepted fewer bytes than requested; the
    /// remainder stayed queued until the next writable notification.
    pub writes_short: AtomicU64,
    /// Connections deliberately dropped at accept time: over
    /// `max_connections`, fd exhaustion (EMFILE/ENFILE), or a
    /// slow-consumer write queue overrunning its cap.
    pub connections_shed: AtomicU64,
    /// `accept()` failures (including fd exhaustion before shedding).
    pub accept_errors: AtomicU64,
    /// Connections reaped by the idle timeout.
    pub idle_reaped: AtomicU64,
    /// Parked `Close`s and `Detach`es the last drain (a reactor thread's
    /// shutdown) gave up retrying against a saturated shard queue; the
    /// router's own shutdown still finalizes those sessions, but the
    /// orderly path lost them.
    pub closes_abandoned: AtomicU64,
    /// Sessions rebuilt from WAL compaction snapshots during recovery.
    pub recovered_sessions: AtomicU64,
    /// Successful `Resume`s — orphaned sessions re-bound to a live
    /// connection.
    pub sessions_resumed: AtomicU64,
    /// Sessions accepted from peer nodes via wire v4 `Handoff`.
    pub sessions_handed_off: AtomicU64,
    /// `Open`/`Resume` requests answered with `NotOwner` because the
    /// cluster ring maps the session to another node.
    pub not_owner_redirects: AtomicU64,
    /// Records appended to write-ahead logs across all shards.
    pub wal_appends: AtomicU64,
    /// Bytes those appends wrote (headers included).
    pub wal_bytes: AtomicU64,
    /// `write_all` calls on write-ahead logs: one per record under
    /// `--wal async`, one per group commit under `--wal sync`, so
    /// `wal_writes / wal_syncs` is the writes paid per fsync.
    pub wal_writes: AtomicU64,
    /// Syncs of write-ahead logs (`--wal sync` only): one `sync_data`
    /// per group commit, and per compaction one for its snapshot and
    /// log plus one for the WAL directory; opening a shard's log syncs
    /// the directory once more. `wal_syncs / wal_appends` is the syncs
    /// paid per accepted frame.
    pub wal_syncs: AtomicU64,
    /// Shard WALs switched off by an I/O failure: a failed open, append,
    /// group commit or compaction. The policy is fail-open — the shard
    /// keeps serving without durability — so a nonzero count means
    /// acknowledged frames may no longer survive a crash.
    pub wal_disabled: AtomicU64,
    /// Gauge: wall-clock milliseconds the last WAL recovery took
    /// (0 when the process never recovered).
    pub replay_ms: AtomicU64,
    /// Per-shard counters.
    shards: Vec<ShardMetrics>,
}

impl ServiceMetrics {
    /// Creates the counter set for `shards` shard workers.
    pub fn new(shards: usize) -> Self {
        Self {
            sessions_opened: AtomicU64::new(0),
            sessions_closed: AtomicU64::new(0),
            events_ingested: AtomicU64::new(0),
            points_ingested: AtomicU64::new(0),
            batches_ingested: AtomicU64::new(0),
            writer_flushes: AtomicU64::new(0),
            frames_sent: AtomicU64::new(0),
            outcomes: Default::default(),
            faults_repaired: AtomicU64::new(0),
            busy_rejections: AtomicU64::new(0),
            unknown_sessions: AtomicU64::new(0),
            decode_errors: AtomicU64::new(0),
            open_connections: AtomicU64::new(0),
            reactor_wakeups: AtomicU64::new(0),
            readiness_events: AtomicU64::new(0),
            reactor_backend: AtomicU64::new(0),
            epoll_ctl_calls: AtomicU64::new(0),
            writes_short: AtomicU64::new(0),
            connections_shed: AtomicU64::new(0),
            accept_errors: AtomicU64::new(0),
            idle_reaped: AtomicU64::new(0),
            closes_abandoned: AtomicU64::new(0),
            recovered_sessions: AtomicU64::new(0),
            sessions_resumed: AtomicU64::new(0),
            sessions_handed_off: AtomicU64::new(0),
            not_owner_redirects: AtomicU64::new(0),
            wal_appends: AtomicU64::new(0),
            wal_bytes: AtomicU64::new(0),
            wal_writes: AtomicU64::new(0),
            wal_syncs: AtomicU64::new(0),
            wal_disabled: AtomicU64::new(0),
            replay_ms: AtomicU64::new(0),
            shards: (0..shards.max(1))
                .map(|_| ShardMetrics::default())
                .collect(),
        }
    }

    /// The per-shard counter block (clamped to a valid index).
    pub fn shard(&self, shard: usize) -> &ShardMetrics {
        let idx = shard % self.shards.len().max(1);
        // The modulo keeps idx in range; fall back to shard 0 defensively.
        self.shards.get(idx).unwrap_or_else(|| &self.shards[0])
    }

    /// Number of shards the metrics were sized for.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Records which readiness backend the reactor settled on.
    pub fn set_reactor_backend(&self, backend: crate::sys::Backend) {
        let code = match backend {
            crate::sys::Backend::Poll => 1,
            crate::sys::Backend::Epoll => 2,
        };
        self.reactor_backend.store(code, Ordering::Relaxed);
    }

    /// Records one interaction outcome by wire kind.
    pub fn note_outcome(&self, kind: OutcomeKind) {
        if let Some(counter) = self.outcomes.get(usize::from(kind.to_u8())) {
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let opened = load(&self.sessions_opened);
        let closed = load(&self.sessions_closed);
        MetricsSnapshot {
            sessions_opened: opened,
            sessions_closed: closed,
            sessions_active: opened.saturating_sub(closed),
            events_ingested: load(&self.events_ingested),
            points_ingested: load(&self.points_ingested),
            batches_ingested: load(&self.batches_ingested),
            writer_flushes: load(&self.writer_flushes),
            frames_sent: load(&self.frames_sent),
            outcomes_recognized: load(&self.outcomes[0]),
            outcomes_manipulated: load(&self.outcomes[1]),
            outcomes_cancelled: load(&self.outcomes[2]),
            outcomes_rejected: load(&self.outcomes[3]),
            outcomes_closed: load(&self.outcomes[4]),
            faults_repaired: load(&self.faults_repaired),
            busy_rejections: load(&self.busy_rejections),
            unknown_sessions: load(&self.unknown_sessions),
            decode_errors: load(&self.decode_errors),
            open_connections: load(&self.open_connections),
            reactor_wakeups: load(&self.reactor_wakeups),
            readiness_events: load(&self.readiness_events),
            reactor_backend: match load(&self.reactor_backend) {
                1 => "poll",
                2 => "epoll",
                _ => "none",
            },
            epoll_ctl_calls: load(&self.epoll_ctl_calls),
            writes_short: load(&self.writes_short),
            connections_shed: load(&self.connections_shed),
            accept_errors: load(&self.accept_errors),
            idle_reaped: load(&self.idle_reaped),
            closes_abandoned: load(&self.closes_abandoned),
            recovered_sessions: load(&self.recovered_sessions),
            sessions_resumed: load(&self.sessions_resumed),
            sessions_handed_off: load(&self.sessions_handed_off),
            not_owner_redirects: load(&self.not_owner_redirects),
            wal_appends: load(&self.wal_appends),
            wal_bytes: load(&self.wal_bytes),
            wal_writes: load(&self.wal_writes),
            wal_syncs: load(&self.wal_syncs),
            wal_disabled: load(&self.wal_disabled),
            replay_ms: load(&self.replay_ms),
            shards: self
                .shards
                .iter()
                .map(|s| {
                    let points = load(&s.points);
                    let ns = load(&s.busy_ns);
                    ShardSnapshot {
                        queue_depth: load(&s.queue_depth),
                        queue_highwater: load(&s.queue_highwater),
                        events: load(&s.events),
                        points,
                        ns_per_point: if points > 0 {
                            ns as f64 / points as f64
                        } else {
                            0.0
                        },
                    }
                })
                .collect(),
        }
    }
}

/// One shard's snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSnapshot {
    /// Approximate queued messages at snapshot time.
    pub queue_depth: u64,
    /// Deepest the queue has been.
    pub queue_highwater: u64,
    /// Events processed.
    pub events: u64,
    /// Move points ingested.
    pub points: u64,
    /// Mean pipeline nanoseconds per ingested point.
    pub ns_per_point: f64,
}

/// Point-in-time service counters; serializes to JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Sessions opened over the service lifetime.
    pub sessions_opened: u64,
    /// Sessions closed.
    pub sessions_closed: u64,
    /// Opened minus closed.
    pub sessions_active: u64,
    /// Events accepted into shard queues.
    pub events_ingested: u64,
    /// Mouse-move points among them.
    pub points_ingested: u64,
    /// `EventBatch` frames accepted into shard queues.
    pub batches_ingested: u64,
    /// Coalesced socket writes by connection writers.
    pub writer_flushes: u64,
    /// Server frames carried by those writes.
    pub frames_sent: u64,
    /// Outcomes by kind.
    pub outcomes_recognized: u64,
    /// Outcomes by kind.
    pub outcomes_manipulated: u64,
    /// Outcomes by kind.
    pub outcomes_cancelled: u64,
    /// Outcomes by kind.
    pub outcomes_rejected: u64,
    /// End-of-session markers emitted.
    pub outcomes_closed: u64,
    /// Sanitizer repairs.
    pub faults_repaired: u64,
    /// Busy rejections.
    pub busy_rejections: u64,
    /// Unknown-session drops.
    pub unknown_sessions: u64,
    /// Connections dropped for undecodable bytes.
    pub decode_errors: u64,
    /// Gauge: connections currently registered with the reactor.
    pub open_connections: u64,
    /// Self-pipe wakeups consumed by reactor poll loops.
    pub reactor_wakeups: u64,
    /// Readiness notifications processed by reactor poll loops.
    pub readiness_events: u64,
    /// Readiness backend the reactor resolved to: `"poll"`, `"epoll"`,
    /// or `"none"` before any reactor started.
    pub reactor_backend: &'static str,
    /// `epoll_ctl` syscalls issued (0 on the poll backend).
    pub epoll_ctl_calls: u64,
    /// Partial socket writes (kernel accepted fewer bytes than asked).
    pub writes_short: u64,
    /// Connections shed at accept (limit, fd exhaustion, slow consumer).
    pub connections_shed: u64,
    /// `accept()` failures.
    pub accept_errors: u64,
    /// Connections reaped by the idle timeout.
    pub idle_reaped: u64,
    /// `Close`s abandoned by the shutdown drain against saturated shards.
    pub closes_abandoned: u64,
    /// Sessions rebuilt from WAL snapshots during recovery.
    pub recovered_sessions: u64,
    /// Successful `Resume`s onto live connections.
    pub sessions_resumed: u64,
    /// Sessions accepted from peer nodes via `Handoff`.
    pub sessions_handed_off: u64,
    /// `Open`/`Resume`s answered with `NotOwner` redirects.
    pub not_owner_redirects: u64,
    /// WAL records appended across all shards.
    pub wal_appends: u64,
    /// Bytes those appends wrote.
    pub wal_bytes: u64,
    /// WAL `write_all` calls (one per group commit under `--wal sync`).
    pub wal_writes: u64,
    /// WAL `sync_data` calls (group commits and compactions).
    pub wal_syncs: u64,
    /// Shard WALs disabled by an I/O failure (fail-open).
    pub wal_disabled: u64,
    /// Milliseconds the last WAL recovery took (0 = never recovered).
    pub replay_ms: u64,
    /// Per-shard snapshots.
    pub shards: Vec<ShardSnapshot>,
}

impl MetricsSnapshot {
    /// Renders the snapshot as a JSON object (stable key order).
    pub fn to_json(&self) -> String {
        let mut shards = String::new();
        for (i, s) in self.shards.iter().enumerate() {
            if i > 0 {
                shards.push_str(", ");
            }
            shards.push_str(&format!(
                "{{\"queue_depth\": {}, \"queue_highwater\": {}, \"events\": {}, \"points\": {}, \"ns_per_point\": {:.1}}}",
                s.queue_depth, s.queue_highwater, s.events, s.points, s.ns_per_point
            ));
        }
        format!(
            "{{\n  \"sessions_opened\": {},\n  \"sessions_closed\": {},\n  \"sessions_active\": {},\n  \
             \"events_ingested\": {},\n  \"points_ingested\": {},\n  \"batches_ingested\": {},\n  \
             \"writer_flushes\": {},\n  \"frames_sent\": {},\n  \
             \"outcomes\": {{\"recognized\": {}, \"manipulated\": {}, \"cancelled\": {}, \"rejected\": {}, \"closed\": {}}},\n  \
             \"faults_repaired\": {},\n  \"busy_rejections\": {},\n  \"unknown_sessions\": {},\n  \"decode_errors\": {},\n  \
             \"open_connections\": {},\n  \"reactor_wakeups\": {},\n  \"readiness_events\": {},\n  \
             \"reactor_backend\": \"{}\",\n  \"epoll_ctl_calls\": {},\n  \
             \"writes_short\": {},\n  \"connections_shed\": {},\n  \"accept_errors\": {},\n  \"idle_reaped\": {},\n  \
             \"closes_abandoned\": {},\n  \
             \"recovered_sessions\": {},\n  \"sessions_resumed\": {},\n  \
             \"sessions_handed_off\": {},\n  \"not_owner_redirects\": {},\n  \
             \"wal_appends\": {},\n  \"wal_bytes\": {},\n  \"wal_writes\": {},\n  \"wal_syncs\": {},\n  \"wal_disabled\": {},\n  \"replay_ms\": {},\n  \
             \"shards\": [{}]\n}}",
            self.sessions_opened,
            self.sessions_closed,
            self.sessions_active,
            self.events_ingested,
            self.points_ingested,
            self.batches_ingested,
            self.writer_flushes,
            self.frames_sent,
            self.outcomes_recognized,
            self.outcomes_manipulated,
            self.outcomes_cancelled,
            self.outcomes_rejected,
            self.outcomes_closed,
            self.faults_repaired,
            self.busy_rejections,
            self.unknown_sessions,
            self.decode_errors,
            self.open_connections,
            self.reactor_wakeups,
            self.readiness_events,
            self.reactor_backend,
            self.epoll_ctl_calls,
            self.writes_short,
            self.connections_shed,
            self.accept_errors,
            self.idle_reaped,
            self.closes_abandoned,
            self.recovered_sessions,
            self.sessions_resumed,
            self.sessions_handed_off,
            self.not_owner_redirects,
            self.wal_appends,
            self.wal_bytes,
            self.wal_writes,
            self.wal_syncs,
            self.wal_disabled,
            self.replay_ms,
            shards
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highwater_tracks_the_deepest_queue() {
        let m = ServiceMetrics::new(2);
        let s = m.shard(0);
        s.note_enqueue();
        s.note_enqueue();
        s.note_enqueue();
        s.note_dequeue();
        s.note_enqueue();
        let snap = m.snapshot();
        assert_eq!(snap.shards[0].queue_depth, 3);
        assert_eq!(snap.shards[0].queue_highwater, 3);
    }

    #[test]
    fn dequeue_saturates_at_zero() {
        let m = ServiceMetrics::new(1);
        m.shard(0).note_dequeue();
        assert_eq!(m.snapshot().shards[0].queue_depth, 0);
    }

    #[test]
    fn snapshot_json_is_valid_enough() {
        let m = ServiceMetrics::new(2);
        m.sessions_opened.fetch_add(3, Ordering::Relaxed);
        m.note_outcome(OutcomeKind::Manipulated);
        let json = m.snapshot().to_json();
        assert!(json.contains("\"sessions_opened\": 3"));
        assert!(json.contains("\"manipulated\": 1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn snapshot_json_carries_every_reactor_counter_exactly_once() {
        let m = ServiceMetrics::new(1);
        m.open_connections.fetch_add(2, Ordering::Relaxed);
        m.reactor_wakeups.fetch_add(5, Ordering::Relaxed);
        m.readiness_events.fetch_add(7, Ordering::Relaxed);
        m.writes_short.fetch_add(1, Ordering::Relaxed);
        m.connections_shed.fetch_add(3, Ordering::Relaxed);
        m.accept_errors.fetch_add(4, Ordering::Relaxed);
        m.idle_reaped.fetch_add(6, Ordering::Relaxed);
        m.closes_abandoned.fetch_add(8, Ordering::Relaxed);
        m.recovered_sessions.fetch_add(9, Ordering::Relaxed);
        m.sessions_resumed.fetch_add(10, Ordering::Relaxed);
        m.wal_appends.fetch_add(11, Ordering::Relaxed);
        m.wal_bytes.fetch_add(12, Ordering::Relaxed);
        m.replay_ms.store(13, Ordering::Relaxed);
        m.sessions_handed_off.fetch_add(14, Ordering::Relaxed);
        m.not_owner_redirects.fetch_add(15, Ordering::Relaxed);
        m.set_reactor_backend(crate::sys::Backend::Epoll);
        m.epoll_ctl_calls.fetch_add(16, Ordering::Relaxed);
        m.wal_syncs.fetch_add(17, Ordering::Relaxed);
        m.wal_writes.fetch_add(18, Ordering::Relaxed);
        m.wal_disabled.fetch_add(19, Ordering::Relaxed);
        let snap = m.snapshot();
        assert_eq!(snap.open_connections, 2);
        assert_eq!(snap.reactor_wakeups, 5);
        assert_eq!(snap.readiness_events, 7);
        assert_eq!(snap.writes_short, 1);
        assert_eq!(snap.connections_shed, 3);
        assert_eq!(snap.accept_errors, 4);
        assert_eq!(snap.idle_reaped, 6);
        assert_eq!(snap.closes_abandoned, 8);
        assert_eq!(snap.recovered_sessions, 9);
        assert_eq!(snap.sessions_resumed, 10);
        assert_eq!(snap.wal_appends, 11);
        assert_eq!(snap.wal_bytes, 12);
        assert_eq!(snap.replay_ms, 13);
        assert_eq!(snap.sessions_handed_off, 14);
        assert_eq!(snap.not_owner_redirects, 15);
        assert_eq!(snap.reactor_backend, "epoll");
        assert_eq!(snap.epoll_ctl_calls, 16);
        assert_eq!(snap.wal_syncs, 17);
        assert_eq!(snap.wal_writes, 18);
        assert_eq!(snap.wal_disabled, 19);
        let json = snap.to_json();
        assert_eq!(
            json.matches("\"reactor_backend\": \"epoll\"").count(),
            1,
            "snapshot JSON must carry reactor_backend exactly once:\n{json}"
        );
        for (key, value) in [
            ("open_connections", 2u64),
            ("reactor_wakeups", 5),
            ("readiness_events", 7),
            ("writes_short", 1),
            ("connections_shed", 3),
            ("accept_errors", 4),
            ("idle_reaped", 6),
            ("closes_abandoned", 8),
            ("recovered_sessions", 9),
            ("sessions_resumed", 10),
            ("wal_appends", 11),
            ("wal_bytes", 12),
            ("replay_ms", 13),
            ("sessions_handed_off", 14),
            ("not_owner_redirects", 15),
            ("epoll_ctl_calls", 16),
            ("wal_syncs", 17),
            ("wal_writes", 18),
            ("wal_disabled", 19),
        ] {
            let needle = format!("\"{key}\": {value}");
            assert_eq!(
                json.matches(&needle).count(),
                1,
                "snapshot JSON must carry {key} exactly once:\n{json}"
            );
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn shard_index_wraps_safely() {
        let m = ServiceMetrics::new(2);
        m.shard(7).note_enqueue(); // 7 % 2 == 1
        assert_eq!(m.snapshot().shards[1].queue_depth, 1);
    }
}
