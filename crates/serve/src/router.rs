//! The session router: shards sessions across a fixed pool of worker
//! threads with bounded queues and explicit backpressure.
//!
//! Every session id maps to exactly one shard
//! ([`SessionRouter::shard_of`], a fixed multiplicative hash), and each
//! shard worker exclusively owns its sessions' [`SessionPipeline`]s —
//! there is no cross-shard locking and no shared mutable recognition
//! state. Messages travel over `std::sync::mpsc::sync_channel` with a
//! fixed capacity: when a shard's queue is full, [`SessionRouter::submit`]
//! returns [`SubmitError::Busy`] *immediately* and the transport layer
//! converts that into a `Fault(Busy)` wire frame. Queue growth is bounded
//! by construction; the service never buffers an unbounded backlog.
//!
//! Determinism: a session's frames depend only on its own event order,
//! which each transport preserves, so outcome sequences are byte-identical
//! run to run regardless of how sessions interleave across shards.
//!
//! Ownership: session ids are a global namespace, but every session is
//! bound to the connection that opened it. Each transport connection
//! obtains a [`SessionRouter::new_conn_id`] and stamps it on every
//! `Open`/`Event`/`Close`; the shard records the opener's id and rejects
//! `Event`/`Close` from any other connection with
//! [`FaultCode::UnknownSession`] — deliberately indistinguishable from a
//! session that does not exist, so one client can neither probe for nor
//! disturb another client's sessions. In particular, a connection that
//! loses an `Open` race (`AlreadyOpen`) cannot tear the winner's session
//! down by replaying `Close` for the contested id.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Barrier, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

use grandma_core::EagerRecognizer;
use grandma_events::{EventKind, InputEvent};

use crate::metrics::ServiceMetrics;
use crate::pool::BatchPool;
use crate::session::{PipelineConfig, SessionPipeline, SessionSnapshot};
use crate::wal::{WalConfig, WalShard};
use crate::wire::{encode_client, ClientFrame, FaultCode, ServerFrame};

/// Service-level configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of shard worker threads.
    pub shards: usize,
    /// Bounded per-shard queue capacity; a full queue rejects with
    /// `Busy`.
    pub queue_capacity: usize,
    /// Maximum sessions one shard will hold; `Open`s beyond it are
    /// rejected with `SessionLimit`.
    pub max_sessions_per_shard: usize,
    /// Per-session pipeline tuning.
    pub pipeline: PipelineConfig,
    /// Write-ahead log configuration; `None` disables durability.
    pub wal: Option<WalConfig>,
    /// When `true`, a connection teardown *orphans* its open sessions
    /// (owner reset to 0, replies discarded) instead of closing them, so
    /// a reconnecting client can `Resume`. When `false` (the default)
    /// teardown closes the sessions, as before.
    pub detach_on_disconnect: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            queue_capacity: 1024,
            max_sessions_per_shard: 4096,
            pipeline: PipelineConfig::default(),
            wal: None,
            detach_on_disconnect: false,
        }
    }
}

/// Delivers server frames from a shard worker back to the transport
/// that owns a connection, without the shard knowing which transport
/// that is.
///
/// The reactor transport implements this by enqueueing `(conn, frame)`
/// on the owning I/O thread's reply queue and waking its poll loop —
/// the non-blocking reply path keyed by conn id. `deliver` must never
/// block: shard workers call it from the hot path.
pub trait ReplyBridge: Send + Sync {
    /// Hands `frame` to the transport for connection `conn`. Frames for
    /// connections that no longer exist are dropped silently.
    fn deliver(&self, conn: u64, frame: ServerFrame);
}

#[derive(Clone)]
enum ReplyInner {
    /// Direct mpsc delivery: the Duplex transport and tests.
    Channel(Sender<ServerFrame>),
    /// Reactor delivery: frames are routed to the transport's bridge
    /// keyed by the owning connection id.
    Bridge {
        conn: u64,
        bridge: Arc<dyn ReplyBridge>,
    },
    /// Discards every frame: the reply path of orphaned (detached or
    /// recovered-but-not-yet-resumed) sessions and of WAL replay.
    Sink,
}

/// A non-blocking outbound frame path from shard workers to one
/// connection. Either a plain mpsc sender (Duplex, tests) or a
/// conn-id-keyed [`ReplyBridge`] (the TCP reactor). Cheap to clone;
/// send never blocks and never fails visibly — a dead connection just
/// drops frames, and its sessions are reaped by the transport's
/// close path.
#[derive(Clone)]
pub struct ReplyTx {
    inner: ReplyInner,
}

impl ReplyTx {
    /// A reply path that hands frames for `conn` to `bridge`.
    pub fn bridged(conn: u64, bridge: Arc<dyn ReplyBridge>) -> Self {
        Self {
            inner: ReplyInner::Bridge { conn, bridge },
        }
    }

    /// A reply path that discards every frame — for orphaned sessions
    /// awaiting `Resume` and for WAL replay, where nobody is listening.
    pub fn sink() -> Self {
        Self {
            inner: ReplyInner::Sink,
        }
    }

    /// Ships one frame. Infallible by design: failures mean the
    /// connection is gone, and the frame is dropped.
    pub fn send(&self, frame: ServerFrame) {
        match &self.inner {
            ReplyInner::Channel(tx) => {
                let _ = tx.send(frame);
            }
            ReplyInner::Bridge { conn, bridge } => bridge.deliver(*conn, frame),
            ReplyInner::Sink => {}
        }
    }
}

impl From<Sender<ServerFrame>> for ReplyTx {
    fn from(tx: Sender<ServerFrame>) -> Self {
        Self {
            inner: ReplyInner::Channel(tx),
        }
    }
}

/// Cluster ownership fence: given a session id, returns `Some(addr)`
/// when a *different* node owns the session per the consistent-hash
/// ring (the transport then answers `NotOwner { owner: addr }` instead
/// of submitting), or `None` when this node owns it — or when no
/// cluster is configured, which is why the fence fails open. Installed
/// by `serve run --cluster-file` via [`SessionRouter::set_fence`].
pub type SessionFence = Arc<dyn Fn(u64) -> Option<SocketAddr> + Send + Sync>;

/// A message to a shard worker.
pub enum ShardMsg {
    /// Open a session; `reply` is the connection's outbound frame
    /// channel, held by the shard for the session's lifetime.
    Open {
        /// The opening connection's [`SessionRouter::new_conn_id`];
        /// recorded as the session's owner.
        conn: u64,
        /// Session id.
        session: u64,
        /// Correlation id for any rejection fault.
        seq: u32,
        /// Outbound frame path of the owning connection.
        reply: ReplyTx,
    },
    /// One input event for an open session. Rejected with
    /// `Fault(UnknownSession)` on `reply` unless `conn` owns `session`.
    Event {
        /// The sending connection's id; must match the session's owner.
        conn: u64,
        /// Session id.
        session: u64,
        /// Correlation id.
        seq: u32,
        /// The raw event.
        event: InputEvent,
        /// Outbound frame path of the sending connection, for
        /// rejection faults.
        reply: ReplyTx,
    },
    /// A whole batch of input events for one open session, crossing the
    /// shard queue as a single message (wire v2): the shard resolves the
    /// session once and feeds every record through the pipeline loop.
    /// Rejected with one `Fault(UnknownSession)` (carrying the first
    /// record's seq) unless `conn` owns `session`. The buffer is
    /// recycled through the router's [`BatchPool`] after processing.
    EventBatch {
        /// The sending connection's id; must match the session's owner.
        conn: u64,
        /// Session id.
        session: u64,
        /// The `(seq, event)` records, in send order.
        events: Vec<(u32, InputEvent)>,
        /// Outbound frame path of the sending connection.
        reply: ReplyTx,
    },
    /// Close a session (flush, finalize, emit `Closed`). Rejected with
    /// `Fault(UnknownSession)` on `reply` unless `conn` owns `session`.
    Close {
        /// The sending connection's id; must match the session's owner.
        conn: u64,
        /// Session id.
        session: u64,
        /// Correlation id.
        seq: u32,
        /// Outbound frame path of the sending connection, for
        /// rejection faults.
        reply: ReplyTx,
    },
    /// Re-bind an orphaned (or own) session to `conn`. Succeeds when the
    /// session exists and is either unowned (owner 0: detached or
    /// recovered) or already owned by `conn`; replies
    /// [`ServerFrame::Resumed`] carrying the server's `last_seq` so the
    /// client knows exactly which events to re-send. Any other state —
    /// including a session owned by a *different* live connection —
    /// faults `UnknownSession`, indistinguishable from nonexistence.
    Resume {
        /// The resuming connection's id; becomes the session's owner.
        conn: u64,
        /// Session id.
        session: u64,
        /// Outbound frame path of the resuming connection.
        reply: ReplyTx,
    },
    /// Orphan every session owned by `conn`: owner reset to 0, reply
    /// replaced with a sink. Sent to *all* shards on teardown when
    /// [`ServeConfig::detach_on_disconnect`] is set.
    Detach {
        /// The disconnected connection's id.
        conn: u64,
    },
    /// Install a recovered session from a WAL compaction snapshot,
    /// orphaned (owner 0) until a client `Resume`s it. Skipped silently
    /// if the session id already exists.
    Restore {
        /// The decoded snapshot (boxed: snapshots carry point buffers).
        snapshot: Box<SessionSnapshot>,
    },
    /// Install a session transferred from another node (wire v4
    /// `Handoff`). Like `Restore` the session lands orphaned awaiting
    /// its client's `Resume`, but the sender is a live peer expecting
    /// an answer: [`ServerFrame::HandoffAck`] on success, a typed fault
    /// (`AlreadyOpen`, `SessionLimit`) otherwise. The accepted handoff
    /// is journaled to the WAL before it is acknowledged.
    Handoff {
        /// The submitting connection's id (0 in replay).
        conn: u64,
        /// The decoded snapshot.
        snapshot: Box<SessionSnapshot>,
        /// Outbound frame path of the submitting connection.
        reply: ReplyTx,
    },
    /// Snapshot **and remove** every session the shard holds, shipping
    /// the snapshots to `out` — the outbound half of a node drain. The
    /// emptied shard is sealed into its WAL so a restart cannot
    /// resurrect sessions that moved to other nodes.
    Drain {
        /// Where the drained snapshots go.
        out: Sender<Vec<SessionSnapshot>>,
    },
    /// Snapshot every live session into the shard's WAL snapshot file
    /// and truncate its log, then rendezvous on the barrier. Doubles as
    /// a flush fence: by the time the barrier releases, every message
    /// queued ahead of the checkpoint has been processed.
    Checkpoint(Arc<Barrier>),
    /// Park the worker on a barrier — used by backpressure tests and
    /// controlled drains to hold a shard still while its queue fills.
    Pause(Arc<Barrier>),
    /// Finalize every session and exit the worker.
    Shutdown,
}

impl ShardMsg {
    fn session(&self) -> Option<u64> {
        match self {
            ShardMsg::Open { session, .. }
            | ShardMsg::Event { session, .. }
            | ShardMsg::EventBatch { session, .. }
            | ShardMsg::Close { session, .. }
            | ShardMsg::Resume { session, .. } => Some(*session),
            ShardMsg::Restore { snapshot } | ShardMsg::Handoff { snapshot, .. } => {
                Some(snapshot.session)
            }
            ShardMsg::Detach { .. }
            | ShardMsg::Drain { .. }
            | ShardMsg::Checkpoint(_)
            | ShardMsg::Pause(_)
            | ShardMsg::Shutdown => None,
        }
    }
}

/// Why a submit was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The shard queue is full; retry after draining replies.
    Busy,
    /// The router has shut down.
    Closed,
}

/// What [`SessionRouter::recover`] rebuilt, for operator logs and the
/// benchmark's recovery section.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct RecoveryReport {
    /// Sessions restored from compaction snapshots.
    pub sessions: u64,
    /// Log-tail frames re-fed through the pipelines.
    pub frames: u64,
    /// Verified payload bytes read across all shard files.
    pub bytes: u64,
    /// Wall-clock milliseconds from first read to sealed checkpoint.
    pub replay_ms: f64,
    /// `true` when any shard file ended in a torn record (dropped).
    pub torn: bool,
}

/// Handle returned by [`SessionRouter::pause_shard`]; dropping or
/// releasing it lets the worker continue.
pub struct ShardPause {
    barrier: Arc<Barrier>,
}

impl ShardPause {
    /// Releases the paused worker.
    pub fn release(self) {
        self.barrier.wait();
    }
}

struct SessionEntry {
    /// The connection that opened (or resumed) the session; the only
    /// one allowed to feed or close it. 0 marks an orphan — detached or
    /// recovered — that only `Resume` (or WAL replay, which stamps
    /// conn 0) can touch.
    conn: u64,
    /// `Some(last_seq)` while the entry is freshly restored from a
    /// compaction snapshot: replayed (conn 0) events at or below the
    /// watermark were already applied before the snapshot was cut and
    /// are skipped, which makes the crash window between snapshot
    /// rename and log truncate double-apply-safe. Live traffic never
    /// consults it.
    restored_watermark: Option<u32>,
    pipeline: SessionPipeline,
    reply: ReplyTx,
}

/// The sharded session router. Shared across transports via `Arc`;
/// [`SessionRouter::shutdown`] is idempotent and joins every worker.
pub struct SessionRouter {
    shards: Vec<SyncSender<ShardMsg>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    metrics: Arc<ServiceMetrics>,
    pool: Arc<BatchPool>,
    conn_ids: AtomicU64,
    down: AtomicBool,
    detach_on_disconnect: bool,
    /// Cluster ownership fence; `None` (the default) means every session
    /// is ours. Behind an `RwLock` so `serve run` can install it after
    /// the listener binds and refresh-driven closures can be swapped.
    fence: RwLock<Option<SessionFence>>,
}

impl SessionRouter {
    /// Spawns `config.shards` workers, each owning its sessions' full
    /// pipelines and sharing `recognizer` read-only.
    pub fn new(recognizer: Arc<EagerRecognizer>, config: ServeConfig) -> Arc<Self> {
        let shard_count = config.shards.max(1);
        let metrics = Arc::new(ServiceMetrics::new(shard_count));
        let pool = Arc::new(BatchPool::new());
        let mut shards = Vec::with_capacity(shard_count);
        let mut handles = Vec::with_capacity(shard_count);
        for shard in 0..shard_count {
            let (tx, rx) = std::sync::mpsc::sync_channel(config.queue_capacity.max(1));
            let worker_rec = recognizer.clone();
            let worker_metrics = metrics.clone();
            let worker_config = config.clone();
            let worker_pool = pool.clone();
            let handle = std::thread::Builder::new()
                .name(format!("grandma-shard-{shard}"))
                .spawn(move || {
                    shard_worker(shard, rx, worker_rec, worker_metrics, worker_config, worker_pool)
                });
            match handle {
                Ok(h) => {
                    shards.push(tx);
                    handles.push(h);
                }
                Err(_) => {
                    // Thread spawn failed (resource exhaustion): run with
                    // the shards that did start. shard_of only routes to
                    // live senders.
                }
            }
        }
        Arc::new(Self {
            shards,
            handles: Mutex::new(handles),
            metrics,
            pool,
            conn_ids: AtomicU64::new(0),
            down: AtomicBool::new(false),
            detach_on_disconnect: config.detach_on_disconnect,
            fence: RwLock::new(None),
        })
    }

    /// Whether transports should orphan (detach) a torn-down
    /// connection's sessions for later `Resume` instead of closing them.
    pub fn detach_on_disconnect(&self) -> bool {
        self.detach_on_disconnect
    }

    /// The shared batch-buffer pool. Transports take buffers here to
    /// assemble [`ShardMsg::EventBatch`] payloads; shard workers return
    /// them after draining, so the steady state recycles instead of
    /// allocating.
    pub fn batch_pool(&self) -> &Arc<BatchPool> {
        &self.pool
    }

    /// Issues a fresh connection identity. Every transport connection
    /// must hold one and stamp it on its `Open`/`Event`/`Close`
    /// messages; sessions are owned by the connection id that opened
    /// them. Ids start at 1, so 0 never matches a live connection.
    pub fn new_conn_id(&self) -> u64 {
        self.conn_ids.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The shard a session id routes to: a fixed multiplicative mix so
    /// adjacent ids spread across shards, stable across runs.
    pub fn shard_of(&self, session: u64) -> usize {
        let mixed = session.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((mixed >> 32) as usize) % self.shards.len().max(1)
    }

    /// Number of live shard workers.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shared metrics block.
    pub fn metrics(&self) -> &Arc<ServiceMetrics> {
        &self.metrics
    }

    /// Routes `msg` to its session's shard without blocking. A full
    /// queue returns [`SubmitError::Busy`] — the caller owns the
    /// rejection (typically by sending a `Fault(Busy)` frame).
    pub fn submit(&self, msg: ShardMsg) -> Result<(), SubmitError> {
        let shard = msg.session().map(|s| self.shard_of(s)).unwrap_or(0);
        let Some(tx) = self.shards.get(shard) else {
            return Err(SubmitError::Closed);
        };
        // Count *before* sending: the instant the message lands, an idle
        // worker may dequeue it and decrement — and a decrement racing
        // ahead of its own increment saturates at zero, skewing the
        // depth gauge high for the rest of the process. Rejected sends
        // undo the increment (their transient +1 is why the high-water
        // bound is capacity + 1).
        let shard_metrics = self.metrics.shard(shard);
        shard_metrics.note_enqueue();
        match tx.try_send(msg) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(msg)) => {
                shard_metrics.note_dequeue();
                // A rejected batch still owns a pooled buffer; recycle it
                // so backpressure doesn't leak allocations.
                if let ShardMsg::EventBatch { events, .. } = msg {
                    self.pool.put(events);
                }
                self.metrics.busy_rejections.fetch_add(1, Ordering::Relaxed);
                Err(SubmitError::Busy)
            }
            Err(TrySendError::Disconnected(_)) => {
                shard_metrics.note_dequeue();
                Err(SubmitError::Closed)
            }
        }
    }

    /// Parks `shard`'s worker on a barrier until the returned handle is
    /// released. Blocks while the shard queue is full. For tests and
    /// controlled drains.
    pub fn pause_shard(&self, shard: usize) -> Option<ShardPause> {
        let barrier = Arc::new(Barrier::new(2));
        let tx = self.shards.get(shard)?;
        // Same ordering as submit: the worker is idle here, so it will
        // dequeue (and decrement) the moment the send lands.
        self.metrics.shard(shard).note_enqueue();
        if tx.send(ShardMsg::Pause(barrier.clone())).is_err() {
            self.metrics.shard(shard).note_dequeue();
            return None;
        }
        Some(ShardPause { barrier })
    }

    /// Blocking submit for recovery and teardown paths, where waiting
    /// out a full queue is correct and `Busy` rejection is not. Keeps
    /// the same enqueue-before-send metrics discipline as `submit`.
    fn send_blocking(&self, msg: ShardMsg) {
        let shard = msg.session().map(|s| self.shard_of(s)).unwrap_or(0);
        let Some(tx) = self.shards.get(shard) else {
            return;
        };
        self.metrics.shard(shard).note_enqueue();
        if tx.send(msg).is_err() {
            self.metrics.shard(shard).note_dequeue();
        }
    }

    /// Orphans every session owned by `conn` on every shard (owner reset
    /// to 0, replies discarded) so a reconnecting client can `Resume`
    /// them. Called by transports on teardown when
    /// [`ServeConfig::detach_on_disconnect`] is set.
    pub fn detach_conn(&self, conn: u64) {
        for (shard, tx) in self.shards.iter().enumerate() {
            self.metrics.shard(shard).note_enqueue();
            if tx.send(ShardMsg::Detach { conn }).is_err() {
                self.metrics.shard(shard).note_dequeue();
            }
        }
    }

    /// Installs (or replaces) the cluster ownership fence. Transports
    /// consult it via [`SessionRouter::owner_redirect`] before admitting
    /// `Open`/`Resume` traffic.
    pub fn set_fence(&self, fence: SessionFence) {
        // lint:try-bounded start — the write guard lives for one pointer
        // store; this is what keeps the hot-path `fence.read()` bounded.
        if let Ok(mut slot) = self.fence.write() {
            *slot = Some(fence);
        }
        // lint:try-bounded end
    }

    /// Where `session` should be redirected, per the installed fence:
    /// `Some(owner_addr)` when another node owns it, `None` when this
    /// node does (or no fence is installed — the fence fails open so a
    /// torn cluster file never blackholes traffic).
    pub fn owner_redirect(&self, session: u64) -> Option<SocketAddr> {
        // lint:try-bounded start — readers only contend with `set_fence`'s
        // single pointer store, and the fence closure is a pure routing
        // lookup; the guard never outlives this expression.
        let guard = self.fence.read().ok()?;
        guard.as_ref().and_then(|f| f(session))
        // lint:try-bounded end
    }

    /// Snapshots **and removes** every session on every shard, returning
    /// the snapshots sorted by session id — the outbound half of a node
    /// drain. Each emptied shard seals its WAL, so a restart of this
    /// node cannot resurrect sessions that were handed to other nodes.
    /// Blocks until every shard has drained.
    pub fn drain_sessions(&self) -> Vec<SessionSnapshot> {
        let (tx, rx) = std::sync::mpsc::channel();
        let mut expected = 0usize;
        for (shard, shard_tx) in self.shards.iter().enumerate() {
            self.metrics.shard(shard).note_enqueue();
            if shard_tx.send(ShardMsg::Drain { out: tx.clone() }).is_err() {
                self.metrics.shard(shard).note_dequeue();
            } else {
                expected += 1;
            }
        }
        drop(tx);
        let mut drained = Vec::new();
        for _ in 0..expected {
            match rx.recv() {
                Ok(batch) => drained.extend(batch),
                Err(_) => break,
            }
        }
        drained.sort_by_key(|s| s.session);
        drained
    }

    /// Forces every shard to snapshot its live sessions into the WAL
    /// snapshot file and truncate its log, blocking until all shards
    /// have done so. A no-op fence on shards without a WAL. Used for the
    /// final snapshot of a graceful shutdown and to seal a recovery.
    pub fn checkpoint_all(&self) {
        let mut barriers = Vec::new();
        for (shard, tx) in self.shards.iter().enumerate() {
            let barrier = Arc::new(Barrier::new(2));
            self.metrics.shard(shard).note_enqueue();
            if tx.send(ShardMsg::Checkpoint(barrier.clone())).is_err() {
                self.metrics.shard(shard).note_dequeue();
            } else {
                barriers.push(barrier);
            }
        }
        for barrier in barriers {
            barrier.wait();
        }
    }

    /// Rebuilds session state from `wal`'s directory: every shard file's
    /// compaction snapshots are restored (orphaned, awaiting `Resume`)
    /// and the log tails re-fed through the normal pipeline path with
    /// replay identity conn 0, so replayed outcomes are byte-identical
    /// to the pre-crash run. Finishes with [`SessionRouter::checkpoint_all`],
    /// which seals the recovered state into a fresh snapshot + empty log
    /// (replayed frames are deliberately *not* re-appended; a crash
    /// mid-recovery just recovers again from the same files). Call
    /// before accepting connections. Routing is by session id, so the
    /// shard count may differ from the crashed process's.
    pub fn recover(&self, wal: &WalConfig) -> std::io::Result<RecoveryReport> {
        let start = Instant::now();
        let mut report = RecoveryReport::default();
        for shard in 0..self.shard_count() {
            let recovery = crate::wal::read_shard(wal, shard)?;
            report.torn |= recovery.torn;
            report.bytes += recovery.bytes;
            for snapshot in recovery.snapshots {
                report.sessions += 1;
                self.send_blocking(ShardMsg::Restore {
                    snapshot: Box::new(snapshot),
                });
            }
            for frame in recovery.frames {
                let msg = match frame {
                    // A logged Open is a session the log (re)creates —
                    // count it alongside the snapshot sessions.
                    ClientFrame::Open { session } => {
                        report.sessions += 1;
                        ShardMsg::Open {
                            conn: 0,
                            session,
                            seq: 0,
                            reply: ReplyTx::sink(),
                        }
                    }
                    ClientFrame::Event {
                        session,
                        seq,
                        event,
                    } => ShardMsg::Event {
                        conn: 0,
                        session,
                        seq,
                        event,
                        reply: ReplyTx::sink(),
                    },
                    ClientFrame::EventBatch { session, events } => {
                        let mut buf = self.pool.take();
                        buf.extend_from_slice(&events);
                        ShardMsg::EventBatch {
                            conn: 0,
                            session,
                            events: buf,
                            reply: ReplyTx::sink(),
                        }
                    }
                    ClientFrame::Close { session, seq } => ShardMsg::Close {
                        conn: 0,
                        session,
                        seq,
                        reply: ReplyTx::sink(),
                    },
                    // A journaled handoff is a session this node accepted
                    // from a peer: reinstall it from the embedded
                    // snapshot, exactly like a compaction snapshot.
                    ClientFrame::Handoff { snapshot } => {
                        match SessionSnapshot::decode(&snapshot) {
                            Ok((snap, _)) => {
                                report.sessions += 1;
                                ShardMsg::Restore {
                                    snapshot: Box::new(snap),
                                }
                            }
                            Err(_) => {
                                report.torn = true;
                                continue;
                            }
                        }
                    }
                    // Handshake and resume frames never reach the log;
                    // tolerate them in a hand-edited file by skipping.
                    ClientFrame::Hello { .. } | ClientFrame::Resume { .. } => continue,
                };
                report.frames += 1;
                self.send_blocking(msg);
            }
        }
        self.checkpoint_all();
        let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
        report.replay_ms = elapsed_ms;
        self.metrics
            .replay_ms
            .store(elapsed_ms as u64, Ordering::Relaxed);
        Ok(report)
    }

    /// Sends `Shutdown` to every shard and joins the workers. Queued
    /// messages ahead of the `Shutdown` are processed first; open
    /// sessions are finalized. Idempotent.
    pub fn shutdown(&self) {
        if self.down.swap(true, Ordering::SeqCst) {
            return;
        }
        for (shard, tx) in self.shards.iter().enumerate() {
            self.metrics.shard(shard).note_enqueue();
            if tx.send(ShardMsg::Shutdown).is_err() {
                self.metrics.shard(shard).note_dequeue();
            }
        }
        // lint:try-bounded start — the guard lives for one mem::take; the
        // joins below happen after it is dropped.
        let handles = match self.handles.lock() {
            Ok(mut guard) => std::mem::take(&mut *guard),
            Err(poisoned) => std::mem::take(&mut *poisoned.into_inner()),
        };
        // lint:try-bounded end
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for SessionRouter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Closed pipelines kept per shard for reuse; beyond this they drop.
const PIPELINE_POOL_MAX: usize = 64;

/// The shard worker loop: exclusive owner of its sessions' pipelines.
fn shard_worker(
    shard: usize,
    rx: Receiver<ShardMsg>,
    recognizer: Arc<EagerRecognizer>,
    metrics: Arc<ServiceMetrics>,
    config: ServeConfig,
    pool: Arc<BatchPool>,
) {
    let mut sessions: HashMap<u64, SessionEntry> = HashMap::new();
    let mut scratch: Vec<ServerFrame> = Vec::with_capacity(16);
    // Closed sessions donate their pipelines (warmed gesture/sanitizer
    // buffers) back here; Opens take from it before allocating.
    let mut pipeline_pool: Vec<SessionPipeline> = Vec::new();
    // Durability: the worker exclusively owns its shard's log, so
    // appends need no locking and are exactly consistent with the
    // pipelines. A failed open degrades to running without a WAL.
    let mut wal: Option<WalShard> = config.wal.clone().and_then(|wal_config| {
        match WalShard::open(wal_config, shard) {
            Ok(w) => Some(w),
            Err(e) => {
                eprintln!("serve: shard {shard}: WAL disabled (open failed: {e})");
                None
            }
        }
    });
    // Reusable wire-encoding buffer for WAL appends.
    let mut wal_buf: Vec<u8> = Vec::new();
    let shard_metrics = metrics.shard(shard);
    while let Ok(msg) = rx.recv() {
        // lint:reactor-loop start(shard-worker) — the per-shard processing
        // body: a blocking call here stalls every session on this shard.
        // The idle `rx.recv()` above is the scheduler, not a stall.
        shard_metrics.note_dequeue();
        // Amortized compaction between messages, where the log and the
        // pipelines are exactly consistent.
        wal_compact_if_due(&mut wal, shard, &sessions, false);
        match msg {
            ShardMsg::Open {
                conn,
                session,
                seq,
                reply,
            } => {
                if sessions.contains_key(&session) {
                    reply.send(ServerFrame::Fault {
                        session,
                        seq,
                        code: FaultCode::AlreadyOpen,
                    });
                    continue;
                }
                if sessions.len() >= config.max_sessions_per_shard {
                    reply.send(ServerFrame::Fault {
                        session,
                        seq,
                        code: FaultCode::SessionLimit,
                    });
                    continue;
                }
                let pipeline = match pipeline_pool.pop() {
                    Some(mut recycled) => {
                        recycled.recycle(session);
                        recycled
                    }
                    None => SessionPipeline::new(session, config.pipeline.clone()),
                };
                // Write-ahead: the accepted Open is durable before the
                // session exists. Replay (conn 0) never re-appends.
                if conn != 0 && wal.is_some() {
                    wal_buf.clear();
                    encode_client(&ClientFrame::Open { session }, &mut wal_buf);
                    wal_append(&mut wal, shard, &metrics, &wal_buf);
                }
                sessions.insert(
                    session,
                    SessionEntry {
                        conn,
                        restored_watermark: None,
                        pipeline,
                        reply,
                    },
                );
                metrics.sessions_opened.fetch_add(1, Ordering::Relaxed);
            }
            // lint:hot-path start — per-event/per-batch arms: no panics, no allocation
            ShardMsg::Event {
                conn,
                session,
                seq,
                event,
                reply,
            } => {
                // Unknown and not-owned are deliberately the same fault:
                // a foreign connection must not be able to distinguish
                // (or touch) someone else's session.
                let entry = match sessions.get_mut(&session) {
                    Some(entry) if entry.conn == conn => entry,
                    _ => {
                        metrics.unknown_sessions.fetch_add(1, Ordering::Relaxed);
                        reply.send(ServerFrame::Fault {
                            session,
                            seq,
                            code: FaultCode::UnknownSession,
                        });
                        continue;
                    }
                };
                // Replay dedup: a freshly restored session skips replayed
                // events already folded into its snapshot (see
                // `SessionEntry::restored_watermark`).
                if conn == 0 && entry.restored_watermark.is_some_and(|w| seq <= w) {
                    continue;
                }
                metrics.events_ingested.fetch_add(1, Ordering::Relaxed);
                shard_metrics.events.fetch_add(1, Ordering::Relaxed);
                let is_point = matches!(event.kind, EventKind::MouseMove);
                if is_point {
                    metrics.points_ingested.fetch_add(1, Ordering::Relaxed);
                    shard_metrics.points.fetch_add(1, Ordering::Relaxed);
                }
                // Write-ahead: durable before the pipeline mutates.
                if conn != 0 && wal.is_some() {
                    wal_buf.clear();
                    encode_client(
                        &ClientFrame::Event {
                            session,
                            seq,
                            event,
                        },
                        &mut wal_buf,
                    );
                    wal_append(&mut wal, shard, &metrics, &wal_buf);
                }
                scratch.clear();
                let start = Instant::now();
                let repairs = entry.pipeline.feed(&recognizer, seq, event, &mut scratch);
                shard_metrics
                    .busy_ns
                    .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                if repairs > 0 {
                    metrics
                        .faults_repaired
                        .fetch_add(repairs as u64, Ordering::Relaxed);
                }
                flush_frames(&metrics, &entry.reply, &mut scratch);
            }
            ShardMsg::EventBatch {
                conn,
                session,
                events,
                reply,
            } => {
                // Same ownership rule as single events; the whole batch
                // is accepted or rejected as a unit, and the rejection
                // fault echoes the first record's seq.
                let entry = match sessions.get_mut(&session) {
                    Some(entry) if entry.conn == conn => entry,
                    _ => {
                        metrics.unknown_sessions.fetch_add(1, Ordering::Relaxed);
                        let seq = events.first().map(|&(s, _)| s).unwrap_or(0);
                        reply.send(ServerFrame::Fault {
                            session,
                            seq,
                            code: FaultCode::UnknownSession,
                        });
                        pool.put(events);
                        continue;
                    }
                };
                // Session resolved once; every record rides the same
                // zero-alloc pipeline loop as a single Event would.
                let count = events.len() as u64;
                metrics.events_ingested.fetch_add(count, Ordering::Relaxed);
                metrics.batches_ingested.fetch_add(1, Ordering::Relaxed);
                shard_metrics.events.fetch_add(count, Ordering::Relaxed);
                // Write-ahead: the whole accepted batch is durable
                // before the pipeline mutates.
                if conn != 0 && wal.is_some() {
                    wal_buf.clear();
                    crate::wire::encode_event_batch(session, &events, &mut wal_buf);
                    wal_append(&mut wal, shard, &metrics, &wal_buf);
                }
                // Replay dedup, per record (see the Event arm).
                let watermark = if conn == 0 { entry.restored_watermark } else { None };
                let mut repairs = 0u64;
                let mut points = 0u64;
                scratch.clear();
                let start = Instant::now();
                for &(seq, event) in &events {
                    if watermark.is_some_and(|w| seq <= w) {
                        continue;
                    }
                    if matches!(event.kind, EventKind::MouseMove) {
                        points += 1;
                    }
                    repairs += u64::from(entry.pipeline.feed(&recognizer, seq, event, &mut scratch));
                }
                shard_metrics
                    .busy_ns
                    .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                if points > 0 {
                    metrics.points_ingested.fetch_add(points, Ordering::Relaxed);
                    shard_metrics.points.fetch_add(points, Ordering::Relaxed);
                }
                if repairs > 0 {
                    metrics.faults_repaired.fetch_add(repairs, Ordering::Relaxed);
                }
                flush_frames(&metrics, &entry.reply, &mut scratch);
                pool.put(events);
            }
            // lint:hot-path end
            ShardMsg::Close {
                conn,
                session,
                seq,
                reply,
            } => {
                let owned = sessions.get(&session).is_some_and(|e| e.conn == conn);
                let entry = if owned { sessions.remove(&session) } else { None };
                let Some(mut entry) = entry else {
                    metrics.unknown_sessions.fetch_add(1, Ordering::Relaxed);
                    reply.send(ServerFrame::Fault {
                        session,
                        seq,
                        code: FaultCode::UnknownSession,
                    });
                    continue;
                };
                // Write-ahead: the accepted Close is durable before the
                // session is finalized, so replay closes it too.
                if conn != 0 && wal.is_some() {
                    wal_buf.clear();
                    encode_client(&ClientFrame::Close { session, seq }, &mut wal_buf);
                    wal_append(&mut wal, shard, &metrics, &wal_buf);
                }
                scratch.clear();
                // lint:allow(reactor-blocking-call): resolution artifact —
                // `.close()` here is `SessionPipeline::close`; the
                // receiver-agnostic method match (DESIGN.md §12) also hits
                // `Client::close`, whose reconnect backoff sleeps. The
                // pipeline close only flushes the sanitizer and the
                // interaction machine.
                entry.pipeline.close(&recognizer, seq, &mut scratch);
                metrics.sessions_closed.fetch_add(1, Ordering::Relaxed);
                flush_frames(&metrics, &entry.reply, &mut scratch);
                if pipeline_pool.len() < PIPELINE_POOL_MAX {
                    pipeline_pool.push(entry.pipeline);
                }
            }
            ShardMsg::Resume { conn, session, reply } => {
                match sessions.get_mut(&session) {
                    Some(entry) if entry.conn == 0 || entry.conn == conn => {
                        entry.conn = conn;
                        entry.reply = reply.clone();
                        // The session is live again; any future replay
                        // identity mismatch is caught by ownership.
                        entry.restored_watermark = None;
                        reply.send(ServerFrame::Resumed {
                            session,
                            last_seq: entry.pipeline.last_seq(),
                        });
                        metrics.sessions_resumed.fetch_add(1, Ordering::Relaxed);
                    }
                    // Unknown, or owned by a *different* live connection:
                    // same opaque fault as any foreign touch.
                    _ => {
                        metrics.unknown_sessions.fetch_add(1, Ordering::Relaxed);
                        reply.send(ServerFrame::Fault {
                            session,
                            seq: 0,
                            code: FaultCode::UnknownSession,
                        });
                    }
                }
            }
            ShardMsg::Detach { conn } => {
                for entry in sessions.values_mut() {
                    if entry.conn == conn {
                        entry.conn = 0;
                        entry.reply = ReplyTx::sink();
                    }
                }
            }
            ShardMsg::Restore { snapshot } => {
                if sessions.contains_key(&snapshot.session)
                    || sessions.len() >= config.max_sessions_per_shard
                {
                    continue;
                }
                let entry = SessionEntry {
                    conn: 0,
                    restored_watermark: Some(snapshot.last_seq),
                    pipeline: SessionPipeline::restore(&snapshot),
                    reply: ReplyTx::sink(),
                };
                sessions.insert(snapshot.session, entry);
                metrics.recovered_sessions.fetch_add(1, Ordering::Relaxed);
            }
            ShardMsg::Handoff { conn, snapshot, reply } => {
                let session = snapshot.session;
                if sessions.contains_key(&session) {
                    reply.send(ServerFrame::Fault {
                        session,
                        seq: 0,
                        code: FaultCode::AlreadyOpen,
                    });
                    continue;
                }
                if sessions.len() >= config.max_sessions_per_shard {
                    reply.send(ServerFrame::Fault {
                        session,
                        seq: 0,
                        code: FaultCode::SessionLimit,
                    });
                    continue;
                }
                // Write-ahead: journal the accepted handoff before the
                // ack, so a crash right after the sender forgets the
                // session still recovers it here. Replay (conn 0)
                // never re-appends.
                if conn != 0 && wal.is_some() {
                    let mut payload = Vec::new();
                    snapshot.encode(&mut payload);
                    wal_buf.clear();
                    encode_client(&ClientFrame::Handoff { snapshot: payload }, &mut wal_buf);
                    wal_append(&mut wal, shard, &metrics, &wal_buf);
                }
                let last_seq = snapshot.last_seq;
                let entry = SessionEntry {
                    conn: 0,
                    restored_watermark: Some(last_seq),
                    pipeline: SessionPipeline::restore(&snapshot),
                    reply: ReplyTx::sink(),
                };
                sessions.insert(session, entry);
                metrics.sessions_handed_off.fetch_add(1, Ordering::Relaxed);
                reply.send(ServerFrame::HandoffAck { session, last_seq });
            }
            ShardMsg::Drain { out } => {
                let mut drained: Vec<SessionSnapshot> = sessions
                    .drain()
                    .map(|(_, entry)| entry.pipeline.snapshot())
                    .collect();
                drained.sort_by_key(|s| s.session);
                // The shard is empty now; the forced compaction writes an
                // empty snapshot set and truncates the log, sealing the
                // moved sessions out of this node's recovery path.
                wal_compact_if_due(&mut wal, shard, &sessions, true);
                let _ = out.send(drained);
            }
            ShardMsg::Checkpoint(barrier) => {
                wal_compact_if_due(&mut wal, shard, &sessions, true);
                // lint:allow(reactor-blocking-call): the checkpoint
                // rendezvous — the shard must hold still while the
                // coordinator captures a consistent cut; blocking here IS
                // the contract, and every shard arrives promptly because
                // none does unbounded work between messages.
                barrier.wait();
            }
            ShardMsg::Pause(barrier) => {
                // lint:allow(reactor-blocking-call): session-handoff
                // freeze point — the shard parks until `ShardPause::
                // release`, bounded by the handoff deadline in cluster.
                barrier.wait();
            }
            ShardMsg::Shutdown => {
                // Seal in-flight state first: after a graceful shutdown
                // the snapshot file holds every live session, so a
                // restart with `--recover` resumes exactly here.
                wal_compact_if_due(&mut wal, shard, &sessions, true);
                // Then finalize every open session so clients holding
                // the reply channel see a terminal Closed marker. The
                // closes deliberately do not touch the sealed WAL.
                for (_, mut entry) in sessions.drain() {
                    scratch.clear();
                    // lint:allow(reactor-blocking-call): resolution
                    // artifact — `SessionPipeline::close`, not
                    // `Client::close`; see the close above.
                    entry.pipeline.close(&recognizer, u32::MAX, &mut scratch);
                    metrics.sessions_closed.fetch_add(1, Ordering::Relaxed);
                    flush_frames(&metrics, &entry.reply, &mut scratch);
                }
                break;
            }
        }
        // lint:reactor-loop end
    }
}

/// Appends one already-encoded record to the shard's WAL, folding the
/// byte/append counters into `metrics`. An append failure permanently
/// disables the shard's WAL (fail-open: availability over durability,
/// loudly on stderr) rather than faulting live traffic.
fn wal_append(wal: &mut Option<WalShard>, shard: usize, metrics: &ServiceMetrics, buf: &[u8]) {
    let Some(w) = wal.as_mut() else { return };
    match w.append_frame(buf) {
        Ok(written) => {
            metrics.wal_appends.fetch_add(1, Ordering::Relaxed);
            metrics.wal_bytes.fetch_add(written, Ordering::Relaxed);
        }
        Err(e) => {
            eprintln!("serve: shard {shard}: WAL disabled (append failed: {e})");
            *wal = None;
        }
    }
}

/// Compacts the shard's WAL — snapshot every live session, truncate the
/// log — when due (or `force`d). Failure disables the WAL, like
/// [`wal_append`].
fn wal_compact_if_due(
    wal: &mut Option<WalShard>,
    shard: usize,
    sessions: &HashMap<u64, SessionEntry>,
    force: bool,
) {
    let Some(w) = wal.as_mut() else { return };
    if !force && !w.should_compact() {
        return;
    }
    let snapshots: Vec<SessionSnapshot> =
        sessions.values().map(|e| e.pipeline.snapshot()).collect();
    if let Err(e) = w.compact(&snapshots) {
        eprintln!("serve: shard {shard}: WAL disabled (compact failed: {e})");
        *wal = None;
    }
}

/// Ships pipeline frames to the connection, folding outcomes into the
/// metrics. Send failures mean the connection is gone — the session will
/// be reaped by its `Close`; frames are dropped silently.
fn flush_frames(metrics: &ServiceMetrics, reply: &ReplyTx, frames: &mut Vec<ServerFrame>) {
    for frame in frames.drain(..) {
        if let ServerFrame::Outcome { outcome, .. } = frame {
            metrics.note_outcome(outcome);
        }
        reply.send(frame);
    }
}

/// Convenience: drains `rx` of everything immediately available.
pub fn drain_frames(rx: &Receiver<ServerFrame>) -> Vec<ServerFrame> {
    let mut out = Vec::new();
    while let Ok(frame) = rx.try_recv() {
        out.push(frame);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::OutcomeKind;
    use grandma_core::{EagerConfig, FeatureMask};
    use grandma_events::{Button, EventScript};
    use grandma_synth::datasets;
    use std::time::Duration;

    fn recognizer() -> Arc<EagerRecognizer> {
        let data = datasets::eight_way(0x2b2b, 10, 0);
        let (rec, _) =
            EagerRecognizer::train(&data.training, &FeatureMask::all(), &EagerConfig::default())
                .expect("training succeeds");
        Arc::new(rec)
    }

    fn recv_until_closed(rx: &Receiver<ServerFrame>) -> Vec<ServerFrame> {
        let mut out = Vec::new();
        loop {
            match rx.recv_timeout(Duration::from_secs(10)) {
                Ok(frame) => {
                    let done = matches!(
                        frame,
                        ServerFrame::Outcome {
                            outcome: OutcomeKind::Closed,
                            ..
                        }
                    );
                    out.push(frame);
                    if done {
                        return out;
                    }
                }
                Err(_) => return out,
            }
        }
    }

    #[test]
    fn open_feed_close_produces_outcomes() {
        let router = SessionRouter::new(recognizer(), ServeConfig::default());
        let conn = router.new_conn_id();
        let (tx, rx) = std::sync::mpsc::channel();
        router
            .submit(ShardMsg::Open {
                conn,
                session: 42,
                seq: 0,
                reply: tx.clone().into(),
            })
            .unwrap();
        let data = datasets::eight_way(0x7e57, 0, 1);
        let events = EventScript::new()
            .then_gesture(&data.testing[0].gesture, Button::Left)
            .into_events();
        for (i, e) in events.iter().enumerate() {
            router
                .submit(ShardMsg::Event {
                    conn,
                    session: 42,
                    seq: i as u32,
                    event: *e,
                    reply: tx.clone().into(),
                })
                .unwrap();
        }
        router
            .submit(ShardMsg::Close {
                conn,
                session: 42,
                seq: events.len() as u32,
                reply: tx.into(),
            })
            .unwrap();
        let frames = recv_until_closed(&rx);
        let outcomes: Vec<_> = frames
            .iter()
            .filter_map(|f| match f {
                ServerFrame::Outcome { outcome, .. } => Some(*outcome),
                _ => None,
            })
            .collect();
        assert_eq!(outcomes.len(), 2, "{outcomes:?}");
        assert!(matches!(
            outcomes[0],
            OutcomeKind::Recognized | OutcomeKind::Manipulated
        ));
        assert_eq!(outcomes[1], OutcomeKind::Closed);
        router.shutdown();
        let snap = router.metrics().snapshot();
        assert_eq!(snap.sessions_opened, 1);
        assert_eq!(snap.sessions_closed, 1);
        assert!(snap.points_ingested > 0);
    }

    #[test]
    fn duplicate_open_faults_already_open() {
        let router = SessionRouter::new(recognizer(), ServeConfig::default());
        let conn = router.new_conn_id();
        let (tx, rx) = std::sync::mpsc::channel();
        for seq in 0..2 {
            router
                .submit(ShardMsg::Open {
                    conn,
                    session: 7,
                    seq,
                    reply: tx.clone().into(),
                })
                .unwrap();
        }
        router
            .submit(ShardMsg::Close {
                conn,
                session: 7,
                seq: 2,
                reply: tx.into(),
            })
            .unwrap();
        let frames = recv_until_closed(&rx);
        assert!(frames.iter().any(|f| matches!(
            f,
            ServerFrame::Fault {
                code: FaultCode::AlreadyOpen,
                ..
            }
        )));
        router.shutdown();
    }

    #[test]
    fn foreign_connection_cannot_feed_or_close_a_session() {
        let router = SessionRouter::new(recognizer(), ServeConfig::default());
        let owner = router.new_conn_id();
        let intruder = router.new_conn_id();
        let (owner_tx, owner_rx) = std::sync::mpsc::channel();
        let (intruder_tx, intruder_rx) = std::sync::mpsc::channel();
        router
            .submit(ShardMsg::Open {
                conn: owner,
                session: 11,
                seq: 0,
                reply: owner_tx.clone().into(),
            })
            .unwrap();
        // The intruder tries to inject an event and tear the session down.
        router
            .submit(ShardMsg::Event {
                conn: intruder,
                session: 11,
                seq: 0,
                event: InputEvent::new(EventKind::MouseMove, 1.0, 1.0, 1.0),
                reply: intruder_tx.clone().into(),
            })
            .unwrap();
        router
            .submit(ShardMsg::Close {
                conn: intruder,
                session: 11,
                seq: 1,
                reply: intruder_tx.into(),
            })
            .unwrap();
        // The owner can still close its session: the intruder's Close
        // must not have destroyed it.
        router
            .submit(ShardMsg::Close {
                conn: owner,
                session: 11,
                seq: 1,
                reply: owner_tx.into(),
            })
            .unwrap();
        let owner_frames = recv_until_closed(&owner_rx);
        assert!(
            matches!(
                owner_frames.last(),
                Some(ServerFrame::Outcome {
                    outcome: OutcomeKind::Closed,
                    ..
                })
            ),
            "{owner_frames:?}"
        );
        let mut intruder_faults = 0;
        while let Ok(frame) = intruder_rx.recv_timeout(Duration::from_secs(5)) {
            assert!(
                matches!(
                    frame,
                    ServerFrame::Fault {
                        code: FaultCode::UnknownSession,
                        ..
                    }
                ),
                "intruder must only ever see UnknownSession: {frame:?}"
            );
            intruder_faults += 1;
            if intruder_faults == 2 {
                break;
            }
        }
        assert_eq!(intruder_faults, 2);
        router.shutdown();
        let snap = router.metrics().snapshot();
        assert_eq!(snap.sessions_opened, 1);
        assert_eq!(snap.sessions_closed, 1);
        assert_eq!(snap.unknown_sessions, 2);
    }

    #[test]
    fn losing_an_open_race_cannot_close_the_winners_session() {
        let router = SessionRouter::new(recognizer(), ServeConfig::default());
        let winner = router.new_conn_id();
        let loser = router.new_conn_id();
        let (winner_tx, winner_rx) = std::sync::mpsc::channel();
        let (loser_tx, loser_rx) = std::sync::mpsc::channel();
        router
            .submit(ShardMsg::Open {
                conn: winner,
                session: 3,
                seq: 0,
                reply: winner_tx.clone().into(),
            })
            .unwrap();
        router
            .submit(ShardMsg::Open {
                conn: loser,
                session: 3,
                seq: 0,
                reply: loser_tx.clone().into(),
            })
            .unwrap();
        // The loser disconnects and (as the transport teardown does)
        // submits Close for the id it tried to open.
        router
            .submit(ShardMsg::Close {
                conn: loser,
                session: 3,
                seq: 1,
                reply: loser_tx.into(),
            })
            .unwrap();
        let loser_frames: Vec<_> = (0..2)
            .filter_map(|_| loser_rx.recv_timeout(Duration::from_secs(5)).ok())
            .collect();
        assert!(loser_frames.iter().any(|f| matches!(
            f,
            ServerFrame::Fault {
                code: FaultCode::AlreadyOpen,
                ..
            }
        )));
        assert!(loser_frames.iter().any(|f| matches!(
            f,
            ServerFrame::Fault {
                code: FaultCode::UnknownSession,
                ..
            }
        )));
        // The winner's session survived and closes normally.
        router
            .submit(ShardMsg::Close {
                conn: winner,
                session: 3,
                seq: 1,
                reply: winner_tx.into(),
            })
            .unwrap();
        let frames = recv_until_closed(&winner_rx);
        assert!(matches!(
            frames.last(),
            Some(ServerFrame::Outcome {
                outcome: OutcomeKind::Closed,
                ..
            })
        ));
        router.shutdown();
        assert_eq!(router.metrics().snapshot().sessions_closed, 1);
    }

    #[test]
    fn paused_shard_fills_its_bounded_queue_and_rejects_busy() {
        let config = ServeConfig {
            shards: 1,
            queue_capacity: 4,
            ..ServeConfig::default()
        };
        let router = SessionRouter::new(recognizer(), config);
        let pause = router.pause_shard(0).expect("pause");
        // Give the worker a moment to take the Pause message off the
        // queue, freeing all capacity slots.
        std::thread::sleep(Duration::from_millis(50));
        let conn = router.new_conn_id();
        let (tx, _rx) = std::sync::mpsc::channel();
        router
            .submit(ShardMsg::Open {
                conn,
                session: 1,
                seq: 0,
                reply: tx.clone().into(),
            })
            .unwrap();
        let mut busy = 0;
        for i in 0..32 {
            let r = router.submit(ShardMsg::Event {
                conn,
                session: 1,
                seq: i,
                event: InputEvent::new(EventKind::MouseMove, 0.0, 0.0, i as f64),
                reply: tx.clone().into(),
            });
            if r == Err(SubmitError::Busy) {
                busy += 1;
            }
        }
        assert!(busy >= 28, "queue of 4 must reject the flood: {busy}");
        let snap = router.metrics().snapshot();
        assert!(snap.shards[0].queue_highwater <= 5, "{snap:?}");
        assert!(snap.busy_rejections >= 28);
        pause.release();
        router.shutdown();
    }

    #[test]
    fn event_batch_matches_single_events_and_recycles_buffers() {
        let data = datasets::eight_way(0x7e57, 0, 1);
        let events: Vec<(u32, InputEvent)> = EventScript::new()
            .then_gesture(&data.testing[0].gesture, Button::Left)
            .into_events()
            .into_iter()
            .enumerate()
            .map(|(i, e)| (i as u32, e))
            .collect();
        let close_seq = events.len() as u32;

        let run = |batched: bool| -> Vec<ServerFrame> {
            let router = SessionRouter::new(recognizer(), ServeConfig::default());
            let conn = router.new_conn_id();
            let (tx, rx) = std::sync::mpsc::channel();
            router
                .submit(ShardMsg::Open {
                    conn,
                    session: 9,
                    seq: 0,
                    reply: tx.clone().into(),
                })
                .unwrap();
            if batched {
                let mut buf = router.batch_pool().take();
                buf.extend_from_slice(&events);
                router
                    .submit(ShardMsg::EventBatch {
                        conn,
                        session: 9,
                        events: buf,
                        reply: tx.clone().into(),
                    })
                    .unwrap();
            } else {
                for &(seq, event) in &events {
                    router
                        .submit(ShardMsg::Event {
                            conn,
                            session: 9,
                            seq,
                            event,
                            reply: tx.clone().into(),
                        })
                        .unwrap();
                }
            }
            router
                .submit(ShardMsg::Close {
                    conn,
                    session: 9,
                    seq: close_seq,
                    reply: tx.into(),
                })
                .unwrap();
            let frames = recv_until_closed(&rx);
            router.shutdown();
            frames
        };

        let batched = run(true);
        let single = run(false);
        assert_eq!(batched, single, "batched path must mirror single events");

        // The shard returns the buffer to the pool after draining it.
        let router = SessionRouter::new(recognizer(), ServeConfig::default());
        let conn = router.new_conn_id();
        let (tx, rx) = std::sync::mpsc::channel();
        router
            .submit(ShardMsg::Open {
                conn,
                session: 9,
                seq: 0,
                reply: tx.clone().into(),
            })
            .unwrap();
        for _ in 0..4 {
            let mut buf = router.batch_pool().take();
            buf.extend_from_slice(&events);
            router
                .submit(ShardMsg::EventBatch {
                    conn,
                    session: 9,
                    events: buf,
                    reply: tx.clone().into(),
                })
                .unwrap();
            // Wait for the shard to drain the batch and recycle the
            // buffer, so the next round exercises a pool hit.
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while router.batch_pool().idle_len() == 0 {
                assert!(std::time::Instant::now() < deadline, "buffer never recycled");
                std::thread::yield_now();
            }
        }
        router
            .submit(ShardMsg::Close {
                conn,
                session: 9,
                seq: close_seq,
                reply: tx.into(),
            })
            .unwrap();
        let _ = recv_until_closed(&rx);
        router.shutdown();
        let (hits, misses) = router.batch_pool().stats();
        assert!(hits >= 3, "steady state must recycle: {hits} hits, {misses} misses");
        let snap = router.metrics().snapshot();
        assert_eq!(snap.batches_ingested, 4);
        assert_eq!(snap.events_ingested, 4 * events.len() as u64);
    }

    #[test]
    fn event_batch_for_unknown_session_faults_with_first_seq() {
        let router = SessionRouter::new(recognizer(), ServeConfig::default());
        let conn = router.new_conn_id();
        let (tx, rx) = std::sync::mpsc::channel();
        let mut buf = router.batch_pool().take();
        buf.push((17, InputEvent::new(EventKind::MouseMove, 0.0, 0.0, 0.0)));
        buf.push((18, InputEvent::new(EventKind::MouseMove, 1.0, 1.0, 1.0)));
        router
            .submit(ShardMsg::EventBatch {
                conn,
                session: 404,
                events: buf,
                reply: tx.into(),
            })
            .unwrap();
        let frame = rx.recv_timeout(Duration::from_secs(5)).expect("fault frame");
        assert!(matches!(
            frame,
            ServerFrame::Fault {
                session: 404,
                seq: 17,
                code: FaultCode::UnknownSession,
            }
        ));
        router.shutdown();
        // The rejected batch's buffer still made it back to the pool.
        assert_eq!(router.batch_pool().idle_len(), 1);
    }

    #[test]
    fn unknown_session_events_are_counted_and_faulted() {
        let router = SessionRouter::new(recognizer(), ServeConfig::default());
        let conn = router.new_conn_id();
        let (tx, rx) = std::sync::mpsc::channel();
        router
            .submit(ShardMsg::Event {
                conn,
                session: 999,
                seq: 5,
                event: InputEvent::new(EventKind::MouseMove, 0.0, 0.0, 0.0),
                reply: tx.into(),
            })
            .unwrap();
        let frame = rx.recv_timeout(Duration::from_secs(5)).expect("fault frame");
        assert!(matches!(
            frame,
            ServerFrame::Fault {
                session: 999,
                seq: 5,
                code: FaultCode::UnknownSession,
            }
        ));
        router.shutdown();
        assert_eq!(router.metrics().snapshot().unknown_sessions, 1);
    }

    #[test]
    fn shutdown_finalizes_open_sessions() {
        let router = SessionRouter::new(recognizer(), ServeConfig::default());
        let (tx, rx) = std::sync::mpsc::channel();
        router
            .submit(ShardMsg::Open {
                conn: router.new_conn_id(),
                session: 5,
                seq: 0,
                reply: tx.into(),
            })
            .unwrap();
        router.shutdown();
        let frames = drain_frames(&rx);
        assert!(frames.iter().any(|f| matches!(
            f,
            ServerFrame::Outcome {
                outcome: OutcomeKind::Closed,
                ..
            }
        )));
    }

    #[test]
    fn handoff_then_resume_matches_an_unmoved_session_byte_for_byte() {
        let data = datasets::eight_way(0x7e57, 0, 1);
        let events: Vec<(u32, InputEvent)> = EventScript::new()
            .then_gesture(&data.testing[0].gesture, Button::Left)
            .into_events()
            .into_iter()
            .enumerate()
            .map(|(i, e)| (i as u32, e))
            .collect();
        let close_seq = events.len() as u32;
        let split = events.len() / 2;

        // Control: the whole session on one router.
        let control = {
            let router = SessionRouter::new(recognizer(), ServeConfig::default());
            let conn = router.new_conn_id();
            let (tx, rx) = std::sync::mpsc::channel();
            router
                .submit(ShardMsg::Open {
                    conn,
                    session: 77,
                    seq: 0,
                    reply: tx.clone().into(),
                })
                .unwrap();
            for &(seq, event) in &events {
                router
                    .submit(ShardMsg::Event {
                        conn,
                        session: 77,
                        seq,
                        event,
                        reply: tx.clone().into(),
                    })
                    .unwrap();
            }
            router
                .submit(ShardMsg::Close {
                    conn,
                    session: 77,
                    seq: close_seq,
                    reply: tx.into(),
                })
                .unwrap();
            let frames = recv_until_closed(&rx);
            router.shutdown();
            frames
        };

        // Split run: first half on node A, drain, hand off to node B,
        // resume there, feed the rest.
        let node_a = SessionRouter::new(recognizer(), ServeConfig::default());
        let conn_a = node_a.new_conn_id();
        let (tx_a, rx_a) = std::sync::mpsc::channel();
        node_a
            .submit(ShardMsg::Open {
                conn: conn_a,
                session: 77,
                seq: 0,
                reply: tx_a.clone().into(),
            })
            .unwrap();
        for &(seq, event) in &events[..split] {
            node_a
                .submit(ShardMsg::Event {
                    conn: conn_a,
                    session: 77,
                    seq,
                    event,
                    reply: tx_a.clone().into(),
                })
                .unwrap();
        }
        let snapshots = node_a.drain_sessions();
        node_a.shutdown();
        assert_eq!(snapshots.len(), 1);
        assert_eq!(snapshots[0].session, 77);

        let node_b = SessionRouter::new(recognizer(), ServeConfig::default());
        let conn_b = node_b.new_conn_id();
        let (tx_b, rx_b) = std::sync::mpsc::channel();
        node_b
            .submit(ShardMsg::Handoff {
                conn: conn_b,
                snapshot: Box::new(snapshots[0].clone()),
                reply: tx_b.clone().into(),
            })
            .unwrap();
        let ack = rx_b.recv_timeout(Duration::from_secs(10)).expect("ack");
        let handoff_last_seq = snapshots[0].last_seq;
        assert_eq!(
            ack,
            ServerFrame::HandoffAck {
                session: 77,
                last_seq: handoff_last_seq,
            }
        );
        node_b
            .submit(ShardMsg::Resume {
                conn: conn_b,
                session: 77,
                reply: tx_b.clone().into(),
            })
            .unwrap();
        let resumed = rx_b.recv_timeout(Duration::from_secs(10)).expect("resumed");
        assert_eq!(
            resumed,
            ServerFrame::Resumed {
                session: 77,
                last_seq: handoff_last_seq,
            }
        );
        for &(seq, event) in &events[split..] {
            node_b
                .submit(ShardMsg::Event {
                    conn: conn_b,
                    session: 77,
                    seq,
                    event,
                    reply: tx_b.clone().into(),
                })
                .unwrap();
        }
        node_b
            .submit(ShardMsg::Close {
                conn: conn_b,
                session: 77,
                seq: close_seq,
                reply: tx_b.into(),
            })
            .unwrap();
        let tail = recv_until_closed(&rx_b);
        assert_eq!(node_b.metrics().snapshot().sessions_handed_off, 1);
        node_b.shutdown();

        let mut moved = drain_frames(&rx_a);
        moved.extend(tail);
        assert_eq!(
            moved, control,
            "a handed-off session must emit exactly the control run's frames"
        );
    }

    #[test]
    fn drain_empties_every_shard_and_sorts_snapshots() {
        let router = SessionRouter::new(recognizer(), ServeConfig {
            shards: 3,
            ..ServeConfig::default()
        });
        let conn = router.new_conn_id();
        let (tx, _rx) = std::sync::mpsc::channel::<ServerFrame>();
        for session in [9u64, 2, 31, 14] {
            router
                .submit(ShardMsg::Open {
                    conn,
                    session,
                    seq: 0,
                    reply: tx.clone().into(),
                })
                .unwrap();
        }
        let snapshots = router.drain_sessions();
        let ids: Vec<u64> = snapshots.iter().map(|s| s.session).collect();
        assert_eq!(ids, vec![2, 9, 14, 31], "sorted by session id");
        // The drained sessions are gone: feeding one faults UnknownSession.
        let (tx2, rx2) = std::sync::mpsc::channel();
        router
            .submit(ShardMsg::Event {
                conn,
                session: 9,
                seq: 1,
                event: InputEvent::new(EventKind::MouseMove, 0.0, 0.0, 0.0),
                reply: tx2.into(),
            })
            .unwrap();
        let frame = rx2.recv_timeout(Duration::from_secs(5)).expect("fault");
        assert!(matches!(
            frame,
            ServerFrame::Fault {
                session: 9,
                code: FaultCode::UnknownSession,
                ..
            }
        ));
        router.shutdown();
    }

    #[test]
    fn handoff_of_an_existing_session_faults_already_open() {
        let router = SessionRouter::new(recognizer(), ServeConfig::default());
        let conn = router.new_conn_id();
        let (tx, rx) = std::sync::mpsc::channel();
        router
            .submit(ShardMsg::Open {
                conn,
                session: 5,
                seq: 0,
                reply: tx.clone().into(),
            })
            .unwrap();
        // Build a snapshot of some other pipeline with the same id.
        let pipeline = SessionPipeline::new(5, PipelineConfig::default());
        router
            .submit(ShardMsg::Handoff {
                conn,
                snapshot: Box::new(pipeline.snapshot()),
                reply: tx.into(),
            })
            .unwrap();
        let frame = rx.recv_timeout(Duration::from_secs(5)).expect("fault");
        assert!(matches!(
            frame,
            ServerFrame::Fault {
                session: 5,
                seq: 0,
                code: FaultCode::AlreadyOpen,
            }
        ));
        router.shutdown();
        assert_eq!(router.metrics().snapshot().sessions_handed_off, 0);
    }

    #[test]
    fn fence_redirects_foreign_sessions_and_fails_open() {
        let router = SessionRouter::new(recognizer(), ServeConfig::default());
        // No fence installed: everything is ours.
        assert_eq!(router.owner_redirect(1), None);
        let peer: SocketAddr = "127.0.0.1:9001".parse().unwrap();
        router.set_fence(Arc::new(move |session| {
            if session % 2 == 1 { Some(peer) } else { None }
        }));
        assert_eq!(router.owner_redirect(1), Some(peer));
        assert_eq!(router.owner_redirect(2), None);
        router.shutdown();
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        let router = SessionRouter::new(recognizer(), ServeConfig {
            shards: 4,
            ..ServeConfig::default()
        });
        for s in 0..100u64 {
            let a = router.shard_of(s);
            assert_eq!(a, router.shard_of(s));
            assert!(a < 4);
        }
        router.shutdown();
    }
}
