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
//!
//! One path in, one path to a session: every client frame becomes a
//! shard message through `ShardMsg::from_client`, the one translation
//! the connection protocol (`connection.rs`, run by the TCP reactor) and
//! WAL replay use. A shard feeds `Event` and `EventBatch` through one
//! ingest function and installs every snapshot — a peer's handoff, a
//! compaction snapshot, a journaled handoff, a failed outbound handoff
//! taken back — through the one `Handoff` path. `Event` stays a message
//! of its own only so a v1 event crosses the queue without taking a
//! pooled batch buffer.
//!
//! One way out: a shard never sends a reply while it handles a message.
//! Every reply — pipeline frames, faults, `Closed`, `Resumed`,
//! `HandoffAck` — goes into the shard's outbox, and the worker is a
//! recv → handle → commit → deliver loop that hands the outbox to the
//! connections only after the group's WAL commit.
//!
//! Durability: under `--wal sync` a shard commits its WAL in groups. It
//! journals each accepted record into the WAL's group buffer ahead of
//! the state change, handles what is already queued (up to 64
//! messages), then writes the group once and syncs once, and only then
//! delivers the outbox — no reply leaves before the write and the sync
//! that cover the records journaled ahead of it. Without unsynced
//! records (no WAL, or `--wal async`, which writes each record at once)
//! a group is one message, so replies go out as each message finishes.

use std::collections::hash_map::{Entry, HashMap};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

use grandma_core::EagerRecognizer;
use grandma_events::{EventKind, InputEvent};

use crate::metrics::ServiceMetrics;
use crate::pool::BatchPool;
use crate::session::{PipelineConfig, SessionPipeline, SessionSnapshot, SnapshotError};
use crate::wal::seam::LogWrap;
use crate::wal::{FsyncPolicy, WalConfig, WalShard};
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
/// The reactor implements this by enqueueing `(conn, frame)` on the
/// owning I/O thread's reply queue and waking its poll loop — the
/// non-blocking reply path keyed by conn id. `deliver` must never
/// block: shard workers call it from the hot path.
pub(crate) trait ReplyBridge: Send + Sync {
    /// Hands `frame` to the transport for connection `conn`. Frames for
    /// connections that no longer exist are dropped silently.
    fn deliver(&self, conn: u64, frame: ServerFrame);
}

#[derive(Clone)]
enum ReplyInner {
    /// Direct mpsc delivery: tests and in-process harnesses.
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
/// connection. Either a plain mpsc sender (tests, in-process harnesses)
/// or a conn-id-keyed bridge into the TCP reactor. Cheap to clone;
/// send never blocks and never fails visibly — a dead connection just
/// drops frames, and its sessions are reaped by the transport's
/// close path.
#[derive(Clone)]
pub struct ReplyTx {
    inner: ReplyInner,
}

impl ReplyTx {
    /// A reply path that hands frames for `conn` to `bridge`.
    pub(crate) fn bridged(conn: u64, bridge: Arc<dyn ReplyBridge>) -> Self {
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

    fn is_sink(&self) -> bool {
        matches!(self.inner, ReplyInner::Sink)
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
    /// One v1 input event for an open session: ingested exactly like an
    /// `EventBatch` of one (and journaled as one), but crossing the
    /// queue without a pooled buffer. Rejected with
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
    /// session once and feeds every record through the ingest loop.
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
    /// Orphan `session` if `conn` owns it: owner reset to 0, reply
    /// replaced with a sink. Sent for each session a connection still
    /// has open at teardown when [`ServeConfig::detach_on_disconnect`]
    /// is set.
    Detach {
        /// The disconnected connection's id.
        conn: u64,
        /// Session id.
        session: u64,
    },
    /// Install a session from a snapshot, orphaned (owner 0) until a
    /// client `Resume`s it. The same admission as `Open` applies:
    /// `AlreadyOpen`, then `SessionLimit`.
    ///
    /// A peer node's transfer (wire v4 `Handoff`) is journaled to the
    /// WAL and answered with [`ServerFrame::HandoffAck`] or the typed
    /// fault. Recovery (compaction snapshots and journaled handoffs) and
    /// [`SessionRouter::reinstall`] use conn 0 and a sink reply: nothing
    /// is journaled or answered, and the session counts as recovered.
    Handoff {
        /// The submitting connection's id (0 in replay).
        conn: u64,
        /// The decoded snapshot (boxed: snapshots carry point buffers).
        snapshot: Box<SessionSnapshot>,
        /// Outbound frame path of the submitting connection.
        reply: ReplyTx,
    },
    /// Seal the shard into its WAL: snapshot every live session into
    /// the snapshot file and start the log's next generation, then
    /// answer on `done`.
    /// Doubles as a flush fence: by the time `done` hears back, every
    /// message queued ahead of the seal has been handled and its replies
    /// delivered. With `drain`, the sessions are also removed and their
    /// snapshots are what `done` receives — the outbound half of a node
    /// drain; the emptied shard's seal keeps a restart from resurrecting
    /// sessions that moved to other nodes. Without it, `done` receives
    /// an empty list.
    Seal {
        /// Remove the sessions and ship their snapshots.
        drain: bool,
        /// Where the answer goes.
        done: Sender<Vec<SessionSnapshot>>,
    },
    /// Park the worker until every sender of this channel is gone —
    /// test-only: backpressure tests hold a shard still while its queue
    /// fills. See [`ShardPause`].
    Pause(Receiver<()>),
    /// Finalize every session and exit the worker.
    Shutdown,
}

impl ShardMsg {
    /// Translates one decoded client frame from connection `conn` into
    /// the message it submits — the one mapping shared by the TCP
    /// reactor and WAL replay (conn 0, sink reply).
    /// `Ok(None)` for `Hello`, which never reaches a shard; `Err` when a
    /// `Handoff` snapshot does not decode. A batch's records move into
    /// the message as they are, so a frame built on a [`BatchPool`]
    /// buffer keeps the batch pooled.
    pub(crate) fn from_client(
        conn: u64,
        frame: ClientFrame,
        reply: ReplyTx,
    ) -> Result<Option<Self>, SnapshotError> {
        Ok(Some(match frame {
            ClientFrame::Hello { .. } => return Ok(None),
            ClientFrame::Open { session } => ShardMsg::Open {
                conn,
                session,
                seq: 0,
                reply,
            },
            ClientFrame::Event {
                session,
                seq,
                event,
            } => ShardMsg::Event {
                conn,
                session,
                seq,
                event,
                reply,
            },
            ClientFrame::EventBatch { session, events } => ShardMsg::EventBatch {
                conn,
                session,
                events,
                reply,
            },
            ClientFrame::Close { session, seq } => ShardMsg::Close {
                conn,
                session,
                seq,
                reply,
            },
            // The server is authoritative about what it processed: the
            // shard answers `Resumed` with its own `last_seq`, so the
            // client's advisory one goes no further.
            ClientFrame::Resume { session, .. } => ShardMsg::Resume {
                conn,
                session,
                reply,
            },
            ClientFrame::Handoff { snapshot } => ShardMsg::Handoff {
                conn,
                snapshot: Box::new(SessionSnapshot::decode(&snapshot)?.0),
                reply,
            },
        }))
    }

    /// The `(session, seq)` an answer to this message echoes: the
    /// message's own seq (an `Open` off the wire carries 0), a batch's
    /// first record's, and 0 for `Resume` and `Handoff`.
    pub(crate) fn echo(&self) -> (u64, u32) {
        let seq = match self {
            ShardMsg::Open { seq, .. }
            | ShardMsg::Event { seq, .. }
            | ShardMsg::Close { seq, .. } => *seq,
            ShardMsg::EventBatch { events, .. } => first_seq(events),
            _ => 0,
        };
        (self.session().unwrap_or(0), seq)
    }

    /// Messages that act on the shard as a whole — parking it, sealing
    /// its sessions, ending it. Each closes the open WAL group first, so
    /// no reply in the outbox waits behind it.
    fn is_barrier(&self) -> bool {
        matches!(
            self,
            ShardMsg::Seal { .. } | ShardMsg::Pause(_) | ShardMsg::Shutdown
        )
    }

    fn session(&self) -> Option<u64> {
        match self {
            ShardMsg::Open { session, .. }
            | ShardMsg::Event { session, .. }
            | ShardMsg::EventBatch { session, .. }
            | ShardMsg::Close { session, .. }
            | ShardMsg::Resume { session, .. }
            | ShardMsg::Detach { session, .. } => Some(*session),
            ShardMsg::Handoff { snapshot, .. } => Some(snapshot.session),
            ShardMsg::Seal { .. } | ShardMsg::Pause(_) | ShardMsg::Shutdown => None,
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
/// cluster drill's replay figures.
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

/// Handle returned by [`SessionRouter::pause_shard`]. The worker parks
/// on a channel this handle owns, so releasing or dropping it lets the
/// worker continue; neither blocks, even once the worker has exited.
pub struct ShardPause {
    _park: Sender<()>,
}

impl ShardPause {
    /// Releases the paused worker (the same as dropping the handle).
    pub fn release(self) {}
}

struct SessionEntry {
    /// The connection that opened (or resumed) the session; the only
    /// one allowed to feed or close it. 0 marks an orphan — detached or
    /// recovered — that only `Resume` (or WAL replay, which stamps
    /// conn 0) can touch.
    conn: u64,
    /// `Some(last_seq)` while the entry is freshly restored from a
    /// snapshot: replayed (conn 0) events at or below the watermark were
    /// already applied before the snapshot was cut and are skipped. A
    /// compaction's own stale frames fail the log's generation check, so
    /// this guards generation-0 logs (whose compaction truncated, with a
    /// crash window before the truncation) and journaled handoffs.
    /// Live traffic never consults it.
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
        Self::spawn(recognizer, config, None)
    }

    /// [`SessionRouter::new`], with every shard's WAL log file passed
    /// through `log_wrap` when given.
    pub(crate) fn spawn(
        recognizer: Arc<EagerRecognizer>,
        config: ServeConfig,
        log_wrap: Option<LogWrap>,
    ) -> Arc<Self> {
        let shard_count = config.shards.max(1);
        let metrics = Arc::new(ServiceMetrics::new(shard_count));
        let pool = Arc::new(BatchPool::new());
        let mut shards = Vec::with_capacity(shard_count);
        let mut handles = Vec::with_capacity(shard_count);
        for shard in 0..shard_count {
            let (tx, rx) = std::sync::mpsc::sync_channel(config.queue_capacity.max(1));
            let (rec, metrics, pool) = (recognizer.clone(), metrics.clone(), pool.clone());
            let (config, wrap) = (config.clone(), log_wrap.clone());
            let handle = std::thread::Builder::new()
                .name(format!("grandma-shard-{shard}"))
                .spawn(move || {
                    let state = Shard::new(shard, rec, metrics, pool, config, wrap.as_ref());
                    shard_worker(state, rx)
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

    /// Parks `shard`'s worker until the returned handle is released or
    /// dropped. Blocks while the shard queue is full. Test-only: no
    /// serving path calls it.
    pub fn pause_shard(&self, shard: usize) -> Option<ShardPause> {
        let (park, parked) = std::sync::mpsc::channel();
        self.send_to(shard, ShardMsg::Pause(parked))
            .then_some(ShardPause { _park: park })
    }

    /// Takes a drained session back — orphaned, awaiting `Resume` —
    /// through the conn-0 `Handoff` path that recovery uses. Blocks
    /// while the shard queue is full: the snapshot is the session's only
    /// copy, so waiting is correct and dropping it on `Busy` is not.
    pub fn reinstall(&self, snapshot: SessionSnapshot) {
        self.send_blocking(ShardMsg::Handoff {
            conn: 0,
            snapshot: Box::new(snapshot),
            reply: ReplyTx::sink(),
        });
    }

    /// Blocking submit for recovery and teardown paths, where waiting
    /// out a full queue is correct and `Busy` rejection is not.
    fn send_blocking(&self, msg: ShardMsg) {
        let shard = msg.session().map(|s| self.shard_of(s)).unwrap_or(0);
        self.send_to(shard, msg);
    }

    /// Blocking send to one shard with the same enqueue-before-send
    /// metrics discipline as `submit`. Returns whether the worker took
    /// the message.
    fn send_to(&self, shard: usize, msg: ShardMsg) -> bool {
        let Some(tx) = self.shards.get(shard) else {
            return false;
        };
        self.metrics.shard(shard).note_enqueue();
        let sent = tx.send(msg).is_ok();
        if !sent {
            self.metrics.shard(shard).note_dequeue();
        }
        sent
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
        self.seal_all(true)
    }

    /// Forces every shard to snapshot its live sessions into the WAL
    /// snapshot file and start its log's next generation, blocking until
    /// all shards have done so. A no-op fence on shards without a WAL.
    /// Used for the final snapshot of a graceful shutdown and to seal a
    /// recovery.
    pub fn checkpoint_all(&self) {
        self.seal_all(false);
    }

    /// Sends every shard a [`ShardMsg::Seal`] and waits for each answer;
    /// returns the drained snapshots sorted by session id (none unless
    /// `drain`).
    fn seal_all(&self, drain: bool) -> Vec<SessionSnapshot> {
        let (done, sealed) = std::sync::mpsc::channel();
        let expected = (0..self.shard_count())
            .filter(|&shard| {
                let done = done.clone();
                self.send_to(shard, ShardMsg::Seal { drain, done })
            })
            .count();
        drop(done);
        let mut snapshots: Vec<SessionSnapshot> = sealed.iter().take(expected).flatten().collect();
        snapshots.sort_by_key(|s| s.session);
        snapshots
    }

    /// Rebuilds session state from `wal`'s directory: every shard file's
    /// compaction snapshots are restored (orphaned, awaiting `Resume`)
    /// and the log tails re-fed through the normal pipeline path with
    /// replay identity conn 0, so replayed outcomes are byte-identical
    /// to the pre-crash run. Finishes with [`SessionRouter::checkpoint_all`],
    /// which seals the recovered state into a fresh snapshot and starts
    /// a new log generation, so no record of a torn group replays after
    /// later appends (replayed frames are deliberately *not* re-appended;
    /// a crash mid-recovery just recovers again from the same files). Call
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
                self.reinstall(snapshot);
            }
            for frame in recovery.frames {
                // Resume frames never reach the log (and Hello translates
                // to nothing); tolerate them in a hand-edited file.
                if matches!(frame, ClientFrame::Resume { .. }) {
                    continue;
                }
                match ShardMsg::from_client(0, frame, ReplyTx::sink()) {
                    Ok(Some(msg)) => {
                        // A logged Open or a journaled handoff is a
                        // session the log (re)creates — count it
                        // alongside the snapshot sessions.
                        if matches!(msg, ShardMsg::Open { .. } | ShardMsg::Handoff { .. }) {
                            report.sessions += 1;
                        }
                        report.frames += 1;
                        self.send_blocking(msg);
                    }
                    Ok(None) => {}
                    Err(_) => report.torn = true,
                }
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
        for shard in 0..self.shard_count() {
            self.send_to(shard, ShardMsg::Shutdown);
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

/// Most messages one WAL group commit covers: while records await their
/// sync, the worker keeps taking already-queued messages until the queue
/// runs dry or this many are handled, then writes and syncs once.
const GROUP_MAX: usize = 64;

/// One shard worker's state: the exclusive owner of its sessions'
/// pipelines and of its shard's WAL. Sans-IO on the reply side:
/// [`Shard::handle`] only appends to the outbox, and
/// [`Shard::deliver`] sends it.
struct Shard {
    index: usize,
    recognizer: Arc<EagerRecognizer>,
    metrics: Arc<ServiceMetrics>,
    pool: Arc<BatchPool>,
    max_sessions: usize,
    pipeline_config: PipelineConfig,
    sessions: HashMap<u64, SessionEntry>,
    scratch: Vec<ServerFrame>,
    /// Closed sessions donate their pipelines (warmed gesture/sanitizer
    /// buffers) back here; Opens take from it before allocating.
    pipeline_pool: Vec<SessionPipeline>,
    /// Every reply produced since the last delivery, in order.
    outbox: Vec<(ReplyTx, ServerFrame)>,
    journal: Journal,
}

/// The shard's WAL.
///
/// Ack-after-durable: while records are journaled but not yet written
/// and synced, the worker keeps the group open, and [`Journal::commit`]
/// writes and syncs them before the outbox is delivered. A shard with
/// no WAL, or with an `Async` one, never has unsynced records.
struct Journal {
    shard: usize,
    metrics: Arc<ServiceMetrics>,
    /// Appends need no locking and are exactly consistent with the
    /// pipelines. `None` when durability is off or the WAL failed.
    wal: Option<WalShard>,
}

impl Journal {
    /// `true` while journaled records await their group's sync.
    fn holding(&self) -> bool {
        self.wal.as_ref().is_some_and(WalShard::unsynced)
    }

    /// Journals one accepted frame ahead of the state change it causes,
    /// without syncing it. Replay (conn 0) never re-appends.
    fn append(&mut self, conn: u64, encode: impl FnOnce(&mut Vec<u8>)) {
        let Some(wal) = self.wal.as_mut().filter(|_| conn != 0) else {
            return;
        };
        match wal.write_record(encode) {
            Ok(written) => {
                self.metrics.wal_appends.fetch_add(1, Ordering::Relaxed);
                self.metrics.wal_bytes.fetch_add(written, Ordering::Relaxed);
                if wal.fsync() == FsyncPolicy::Async {
                    self.metrics.wal_writes.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(e) => self.disable("append", &e),
        }
    }

    /// Ends the open group: one write and one `sync_data` for its
    /// records. A no-op without unsynced records.
    fn commit(&mut self) {
        if let Some(wal) = self.wal.as_mut() {
            match wal.sync() {
                Ok(true) => {
                    self.metrics.wal_writes.fetch_add(1, Ordering::Relaxed);
                    self.metrics.wal_syncs.fetch_add(1, Ordering::Relaxed);
                    let ns = wal.last_sync_ns();
                    self.metrics.wal_sync_ns.fetch_add(ns, Ordering::Relaxed);
                }
                Ok(false) => {}
                Err(e) => self.disable("group commit", &e),
            }
        }
    }

    /// Fail-open: a WAL I/O failure permanently disables the shard's WAL
    /// (availability over durability, loudly on stderr and in
    /// `wal_disabled`) rather than faulting live traffic; the outbox is
    /// delivered as usual.
    fn disable(&mut self, what: &str, e: &std::io::Error) {
        eprintln!(
            "serve: shard {}: WAL disabled ({what} failed: {e})",
            self.shard
        );
        self.metrics.wal_disabled.fetch_add(1, Ordering::Relaxed);
        self.wal = None;
    }

    /// `true` when the log has grown enough to compact.
    fn compaction_due(&self) -> bool {
        self.wal.as_ref().is_some_and(WalShard::should_compact)
    }

    /// Compacts the WAL — snapshot every live session, start the log's
    /// next generation — when due (or `force`d). Runs only between
    /// groups, where the log and the pipelines are exactly consistent.
    /// Under `Sync` it counts the two syncs a compaction issues: the
    /// snapshot's data sync and the directory sync.
    fn compact_if_due(&mut self, sessions: &HashMap<u64, SessionEntry>, force: bool) {
        let Some(wal) = self.wal.as_mut() else { return };
        if !force && !wal.should_compact() {
            return;
        }
        let snapshots: Vec<SessionSnapshot> =
            sessions.values().map(|e| e.pipeline.snapshot()).collect();
        match wal.compact(&snapshots) {
            Ok(()) if wal.fsync() == FsyncPolicy::Sync => {
                self.metrics.wal_syncs.fetch_add(2, Ordering::Relaxed);
            }
            Ok(()) => {}
            Err(e) => self.disable("compact", &e),
        }
    }
}

impl Shard {
    /// Shard `index`'s state under `config`, with its WAL (when one is
    /// configured) opened through `log_wrap`. A failed WAL open degrades
    /// to running without a WAL.
    fn new(
        index: usize,
        recognizer: Arc<EagerRecognizer>,
        metrics: Arc<ServiceMetrics>,
        pool: Arc<BatchPool>,
        config: ServeConfig,
        log_wrap: Option<&LogWrap>,
    ) -> Self {
        let wal = config.wal.and_then(|wal_config| {
            match WalShard::open_with(wal_config, index, log_wrap) {
                Ok(wal) => {
                    if wal.fsync() == FsyncPolicy::Sync {
                        // The open synced the WAL directory.
                        metrics.wal_syncs.fetch_add(1, Ordering::Relaxed);
                    }
                    Some(wal)
                }
                Err(e) => {
                    eprintln!("serve: shard {index}: WAL disabled (open failed: {e})");
                    metrics.wal_disabled.fetch_add(1, Ordering::Relaxed);
                    None
                }
            }
        });
        Self {
            index,
            recognizer,
            metrics: metrics.clone(),
            pool,
            max_sessions: config.max_sessions_per_shard,
            pipeline_config: config.pipeline,
            sessions: HashMap::new(),
            scratch: Vec::with_capacity(16),
            pipeline_pool: Vec::new(),
            outbox: Vec::new(),
            journal: Journal {
                shard: index,
                metrics,
                wal,
            },
        }
    }

    /// The admission check shared by `Open` and `Handoff`.
    fn admit(&self, session: u64) -> Result<(), FaultCode> {
        if self.sessions.contains_key(&session) {
            Err(FaultCode::AlreadyOpen)
        } else if self.sessions.len() >= self.max_sessions {
            Err(FaultCode::SessionLimit)
        } else {
            Ok(())
        }
    }

    /// Answers a message about a session that does not exist or that
    /// `reply`'s connection does not own. Unknown and not-owned are
    /// deliberately the same fault: a foreign connection must not be
    /// able to distinguish (or touch) someone else's session.
    fn unknown(&mut self, reply: ReplyTx, session: u64, seq: u32) {
        self.metrics
            .unknown_sessions
            .fetch_add(1, Ordering::Relaxed);
        let code = FaultCode::UnknownSession;
        self.outbox
            .push((reply, ServerFrame::Fault { session, seq, code }));
    }

    /// Posts every frame in `scratch` to `reply`, in order. The last
    /// frame takes `reply` itself, so only a run of several frames
    /// clones it.
    fn post_scratch(&mut self, reply: ReplyTx) {
        let Some(last) = self.scratch.pop() else {
            return;
        };
        for frame in self.scratch.drain(..) {
            self.outbox.push((reply.clone(), frame));
        }
        self.outbox.push((reply, last));
    }

    /// Hands the outbox to the connections, in the order it was filled.
    /// The worker calls this only after [`Journal::commit`], so no reply
    /// leaves before the records journaled ahead of it are durable.
    fn deliver(&mut self) {
        for (reply, frame) in self.outbox.drain(..) {
            if let ServerFrame::Outcome { outcome, .. } = frame {
                self.metrics.note_outcome(outcome);
            }
            reply.send(frame);
        }
    }

    fn open_session(&mut self, conn: u64, session: u64, seq: u32, reply: ReplyTx) {
        if let Err(code) = self.admit(session) {
            self.outbox
                .push((reply, ServerFrame::Fault { session, seq, code }));
            return;
        }
        let pipeline = match self.pipeline_pool.pop() {
            Some(mut recycled) => {
                recycled.recycle(session);
                recycled
            }
            None => SessionPipeline::new(session, self.pipeline_config.clone()),
        };
        // Write-ahead: the accepted Open is durable before the session
        // exists.
        self.journal.append(conn, |buf| {
            encode_client(&ClientFrame::Open { session }, buf)
        });
        self.sessions.insert(
            session,
            SessionEntry {
                conn,
                restored_watermark: None,
                pipeline,
                reply,
            },
        );
        self.metrics.sessions_opened.fetch_add(1, Ordering::Relaxed);
    }

    // lint:hot-path start — the one per-event ingest path: no panics, no allocation
    /// Feeds `events` — one v1 `Event` or a whole `EventBatch` — through
    /// `session`'s pipeline. The records are accepted or rejected as a
    /// unit; returns whether they were accepted. The frames go to
    /// `reply`: ownership is checked first, so it addresses the
    /// session's own connection.
    fn ingest(
        &mut self,
        conn: u64,
        session: u64,
        events: &[(u32, InputEvent)],
        reply: ReplyTx,
    ) -> bool {
        let Some(entry) = self.sessions.get_mut(&session).filter(|e| e.conn == conn) else {
            self.unknown(reply, session, first_seq(events));
            return false;
        };
        // Write-ahead: the accepted records are written, as one
        // EventBatch record, before the pipeline mutates; their replies
        // wait for the group's sync.
        self.journal.append(conn, |buf| {
            crate::wire::encode_event_batch(session, events, buf)
        });
        // Replay dedup: a freshly restored session skips replayed
        // records already folded into its snapshot (see
        // `SessionEntry::restored_watermark`).
        let watermark = if conn == 0 {
            entry.restored_watermark
        } else {
            None
        };
        let (mut applied, mut points, mut repairs) = (0u64, 0u64, 0u64);
        self.scratch.clear();
        let start = Instant::now();
        for &(seq, event) in events {
            if watermark.is_some_and(|w| seq <= w) {
                continue;
            }
            applied += 1;
            if matches!(event.kind, EventKind::MouseMove) {
                points += 1;
            }
            let fed = entry
                .pipeline
                .feed(&self.recognizer, seq, event, &mut self.scratch);
            repairs += u64::from(fed);
        }
        let shard_metrics = self.metrics.shard(self.index);
        shard_metrics
            .busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.metrics
            .events_ingested
            .fetch_add(applied, Ordering::Relaxed);
        shard_metrics.events.fetch_add(applied, Ordering::Relaxed);
        if points > 0 {
            self.metrics
                .points_ingested
                .fetch_add(points, Ordering::Relaxed);
            shard_metrics.points.fetch_add(points, Ordering::Relaxed);
        }
        if repairs > 0 {
            self.metrics
                .faults_repaired
                .fetch_add(repairs, Ordering::Relaxed);
        }
        self.post_scratch(reply);
        true
    }
    // lint:hot-path end

    fn close_session(&mut self, conn: u64, session: u64, seq: u32, reply: ReplyTx) {
        let entry = match self.sessions.entry(session) {
            Entry::Occupied(e) if e.get().conn == conn => e.remove(),
            _ => return self.unknown(reply, session, seq),
        };
        // Write-ahead: the accepted Close is durable before the session
        // is finalized, so replay closes it too.
        self.journal.append(conn, |buf| {
            encode_client(&ClientFrame::Close { session, seq }, buf)
        });
        self.finish_session(entry, seq);
    }

    /// Finalizes a removed session: the pipeline flushes its sanitizer
    /// and interaction machine, its frames and the terminal `Closed`
    /// frame are posted to the entry's reply, and the pipeline is kept
    /// for reuse.
    fn finish_session(&mut self, mut entry: SessionEntry, seq: u32) {
        self.scratch.clear();
        // Spelled as an associated call so the lint's call graph resolves
        // it to the pipeline alone, not to every `close` method.
        SessionPipeline::close(
            &mut entry.pipeline,
            &self.recognizer,
            seq,
            &mut self.scratch,
        );
        self.metrics.sessions_closed.fetch_add(1, Ordering::Relaxed);
        self.post_scratch(entry.reply);
        if self.pipeline_pool.len() < PIPELINE_POOL_MAX {
            self.pipeline_pool.push(entry.pipeline);
        }
    }

    /// Installs a session from a snapshot, orphaned (owner 0) until a
    /// client `Resume`s it. A live reply gets `HandoffAck` or the
    /// admission fault and counts as a handoff; a sink reply (recovery,
    /// a reinstalled failed handoff) counts as a recovered session.
    fn install_snapshot(&mut self, conn: u64, snapshot: Box<SessionSnapshot>, reply: ReplyTx) {
        let session = snapshot.session;
        if let Err(code) = self.admit(session) {
            let seq = 0;
            self.outbox
                .push((reply, ServerFrame::Fault { session, seq, code }));
            return;
        }
        // Write-ahead: journal an accepted peer handoff before the ack,
        // so a crash right after the sender forgets the session still
        // recovers it here.
        self.journal.append(conn, |buf| {
            let mut payload = Vec::new();
            snapshot.encode(&mut payload);
            encode_client(&ClientFrame::Handoff { snapshot: payload }, buf);
        });
        let last_seq = snapshot.last_seq;
        let entry = SessionEntry {
            conn: 0,
            restored_watermark: Some(last_seq),
            pipeline: SessionPipeline::restore(&snapshot),
            reply: ReplyTx::sink(),
        };
        self.sessions.insert(session, entry);
        if reply.is_sink() {
            self.metrics
                .recovered_sessions
                .fetch_add(1, Ordering::Relaxed);
        } else {
            self.metrics
                .sessions_handed_off
                .fetch_add(1, Ordering::Relaxed);
            self.outbox
                .push((reply, ServerFrame::HandoffAck { session, last_seq }));
        }
    }

    fn resume(&mut self, conn: u64, session: u64, reply: ReplyTx) {
        // Unknown, or owned by a *different* live connection: same
        // opaque fault as any foreign touch.
        let Some(entry) = self
            .sessions
            .get_mut(&session)
            .filter(|e| e.conn == 0 || e.conn == conn)
        else {
            return self.unknown(reply, session, 0);
        };
        entry.conn = conn;
        entry.reply = reply.clone();
        // The session is live again; any future replay identity
        // mismatch is caught by ownership.
        entry.restored_watermark = None;
        let last_seq = entry.pipeline.last_seq();
        self.outbox
            .push((reply, ServerFrame::Resumed { session, last_seq }));
        self.metrics
            .sessions_resumed
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Handles one message, appending its replies to the outbox. Returns
    /// `false` once the worker must exit. `Pause` is the worker loop's
    /// own and is ignored here.
    fn handle(&mut self, msg: ShardMsg) -> bool {
        // Amortized compaction between messages, where the log and the
        // pipelines are exactly consistent.
        self.journal.compact_if_due(&self.sessions, false);
        match msg {
            ShardMsg::Open {
                conn,
                session,
                seq,
                reply,
            } => self.open_session(conn, session, seq, reply),
            ShardMsg::Event {
                conn,
                session,
                seq,
                event,
                reply,
            } => {
                self.ingest(conn, session, std::slice::from_ref(&(seq, event)), reply);
            }
            ShardMsg::EventBatch {
                conn,
                session,
                events,
                reply,
            } => {
                if self.ingest(conn, session, &events, reply) {
                    self.metrics
                        .batches_ingested
                        .fetch_add(1, Ordering::Relaxed);
                }
                self.pool.put(events);
            }
            ShardMsg::Close {
                conn,
                session,
                seq,
                reply,
            } => self.close_session(conn, session, seq, reply),
            ShardMsg::Resume {
                conn,
                session,
                reply,
            } => self.resume(conn, session, reply),
            ShardMsg::Detach { conn, session } => {
                if let Some(entry) = self.sessions.get_mut(&session).filter(|e| e.conn == conn) {
                    (entry.conn, entry.reply) = (0, ReplyTx::sink());
                }
            }
            ShardMsg::Handoff {
                conn,
                snapshot,
                reply,
            } => self.install_snapshot(conn, snapshot, reply),
            ShardMsg::Seal { drain, done } => {
                let drained = if drain {
                    let sessions = self.sessions.drain();
                    sessions.map(|(_, e)| e.pipeline.snapshot()).collect()
                } else {
                    Vec::new()
                };
                self.journal.compact_if_due(&self.sessions, true);
                let _ = done.send(drained);
            }
            ShardMsg::Shutdown => {
                self.shutdown();
                return false;
            }
            ShardMsg::Pause(_) => {}
        }
        true
    }

    fn shutdown(&mut self) {
        // Seal in-flight state first: after a graceful shutdown the
        // snapshot file holds every live session, so a restart with
        // `--recover` resumes exactly here.
        self.journal.compact_if_due(&self.sessions, true);
        // Then finalize every open session so clients holding the reply
        // channel see a terminal Closed marker. The closes deliberately
        // do not touch the sealed WAL.
        for entry in std::mem::take(&mut self.sessions).into_values() {
            self.finish_session(entry, u32::MAX);
        }
    }
}

/// The seq a fault about `events` echoes: the first record's, or 0.
fn first_seq(events: &[(u32, InputEvent)]) -> u32 {
    events.first().map_or(0, |&(seq, _)| seq)
}

/// The shard worker loop: recv → handle → commit → deliver.
///
/// Messages are handled in groups that share one WAL write and sync.
/// After a message journals a record, the worker keeps taking what is
/// already queued, up to [`GROUP_MAX`] messages, then commits (one
/// write and one `sync_data`) and delivers the outbox: every reply the
/// group produced. A barrier message, or a due compaction, ends the
/// open group and waits for the next one. Without unsynced records — no
/// WAL, an `Async` one, or a message that journals nothing — a group is
/// one message.
fn shard_worker(mut shard: Shard, rx: Receiver<ShardMsg>) {
    let index = shard.index;
    // The message that ended the last group; it opens the next one.
    let mut carried: Option<ShardMsg> = None;
    loop {
        let first = match carried.take() {
            Some(msg) => msg,
            None => match rx.recv() {
                Ok(msg) => {
                    shard.metrics.shard(index).note_dequeue();
                    msg
                }
                Err(_) => break,
            },
        };
        // lint:reactor-loop start(shard-worker) — the per-shard processing
        // body: a blocking call here stalls every session on this shard.
        // The idle `rx.recv()` above is the scheduler, not a stall.
        let mut next = Some(first);
        let mut grouped = 0usize;
        let mut running = true;
        while let Some(msg) = next.take() {
            if shard.journal.holding() && (msg.is_barrier() || shard.journal.compaction_due()) {
                carried = Some(msg);
                break;
            }
            if let ShardMsg::Pause(parked) = msg {
                // lint:allow(reactor-blocking-call): a test-only park
                // (only tests call `pause_shard`) — the shard parks
                // until its `ShardPause` is released or dropped, which
                // disconnects the channel.
                let _ = parked.recv();
            } else {
                running = shard.handle(msg);
            }
            grouped += 1;
            if running && shard.journal.holding() && grouped < GROUP_MAX {
                next = rx.try_recv().ok();
                if next.is_some() {
                    shard.metrics.shard(index).note_dequeue();
                }
            }
        }
        // lint:allow(reactor-blocking-call): the group commit — one
        // write and one `sync_data` under `--wal sync` (the caller's
        // explicit durability choice, DESIGN.md §14) cover up to
        // GROUP_MAX already-queued messages, and their replies may not
        // leave before both land. A no-op without unsynced records.
        shard.journal.commit();
        shard.deliver();
        // lint:reactor-loop end
        if !running {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::run_events_inproc;
    use crate::wire::OutcomeKind;
    use grandma_core::{EagerConfig, FeatureMask};
    use grandma_events::{Button, EventScript};
    use grandma_synth::datasets;
    use std::sync::Barrier;
    use std::time::Duration;

    /// Drains `rx` of everything immediately available.
    fn drain_frames(rx: &Receiver<ServerFrame>) -> Vec<ServerFrame> {
        let mut out = Vec::new();
        while let Ok(frame) = rx.try_recv() {
            out.push(frame);
        }
        out
    }

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
    fn a_dropped_pause_lets_shutdown_finish() {
        let router = SessionRouter::new(
            recognizer(),
            ServeConfig {
                shards: 1,
                ..ServeConfig::default()
            },
        );
        drop(router.pause_shard(0).expect("pause"));
        // A pause queued behind the worker's exit: releasing it after the
        // worker is gone does not wait for it.
        let parked = router.pause_shard(0).expect("pause");
        router.submit(ShardMsg::Shutdown).unwrap();
        let late = router.pause_shard(0).expect("pause");
        drop(parked);
        let (done, finished) = std::sync::mpsc::channel();
        let worker = {
            let router = router.clone();
            std::thread::spawn(move || {
                router.shutdown();
                late.release();
                let _ = done.send(());
            })
        };
        assert!(
            finished.recv_timeout(Duration::from_secs(10)).is_ok(),
            "shutdown hung behind a dropped pause"
        );
        worker.join().unwrap();
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
                assert!(
                    std::time::Instant::now() < deadline,
                    "buffer never recycled"
                );
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
        assert!(
            hits >= 3,
            "steady state must recycle: {hits} hits, {misses} misses"
        );
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
        let frame = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("fault frame");
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
        let frame = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("fault frame");
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
    fn replayed_events_and_batches_skip_the_same_seqs_below_the_watermark() {
        let data = datasets::eight_way(0x7e57, 0, 2);
        let events: Vec<(u32, InputEvent)> = EventScript::new()
            .then_gesture(&data.testing[0].gesture, Button::Left)
            .then_gesture(&data.testing[1].gesture, Button::Left)
            .into_events()
            .into_iter()
            .enumerate()
            .map(|(i, e)| (i as u32 + 1, e))
            .collect();
        let close_seq = events.len() as u32 + 1;
        let split = events.len() / 2;
        let replay_end = split + (events.len() - split) / 2;
        assert!(split > 4 && replay_end < events.len());

        // The session cut at `split`: its snapshot's watermark is the
        // last seq folded in.
        let snapshot = {
            let router = SessionRouter::new(recognizer(), ServeConfig::default());
            let conn = router.new_conn_id();
            let (tx, _rx) = std::sync::mpsc::channel();
            router
                .submit(ShardMsg::Open {
                    conn,
                    session: 21,
                    seq: 0,
                    reply: tx.clone().into(),
                })
                .unwrap();
            for &(seq, event) in &events[..split] {
                router
                    .submit(ShardMsg::Event {
                        conn,
                        session: 21,
                        seq,
                        event,
                        reply: tx.clone().into(),
                    })
                    .unwrap();
            }
            let mut drained = router.drain_sessions();
            router.shutdown();
            drained.pop().expect("one drained session")
        };
        assert_eq!(snapshot.last_seq, split as u32);

        // Restore the snapshot through the conn-0 Handoff path, replay
        // `records` as conn-0 traffic (v1 Events or one EventBatch), and
        // return the replayed state's bytes plus the frames of a live
        // tail run from that state.
        let run = |records: &[(u32, InputEvent)], batched: bool| -> (Vec<u8>, Vec<ServerFrame>) {
            let router = SessionRouter::new(recognizer(), ServeConfig::default());
            router
                .submit(ShardMsg::Handoff {
                    conn: 0,
                    snapshot: Box::new(snapshot.clone()),
                    reply: ReplyTx::sink(),
                })
                .unwrap();
            if batched {
                let mut buf = router.batch_pool().take();
                buf.extend_from_slice(records);
                router
                    .submit(ShardMsg::EventBatch {
                        conn: 0,
                        session: 21,
                        events: buf,
                        reply: ReplyTx::sink(),
                    })
                    .unwrap();
            } else {
                for &(seq, event) in records {
                    router
                        .submit(ShardMsg::Event {
                            conn: 0,
                            session: 21,
                            seq,
                            event,
                            reply: ReplyTx::sink(),
                        })
                        .unwrap();
                }
            }
            let mut replayed = router.drain_sessions();
            assert_eq!(replayed.len(), 1);
            let state = replayed.pop().expect("one session");
            let mut state_bytes = Vec::new();
            state.encode(&mut state_bytes);

            let conn = router.new_conn_id();
            let (tx, rx) = std::sync::mpsc::channel();
            router
                .submit(ShardMsg::Handoff {
                    conn,
                    snapshot: Box::new(state),
                    reply: tx.clone().into(),
                })
                .unwrap();
            router
                .submit(ShardMsg::Resume {
                    conn,
                    session: 21,
                    reply: tx.clone().into(),
                })
                .unwrap();
            for &(seq, event) in &events[replay_end..] {
                router
                    .submit(ShardMsg::Event {
                        conn,
                        session: 21,
                        seq,
                        event,
                        reply: tx.clone().into(),
                    })
                    .unwrap();
            }
            router
                .submit(ShardMsg::Close {
                    conn,
                    session: 21,
                    seq: close_seq,
                    reply: tx.into(),
                })
                .unwrap();
            let frames = recv_until_closed(&rx);
            router.shutdown();
            (state_bytes, frames)
        };

        // Replay overlapping the watermark, as the crash window between
        // snapshot rename and log truncate leaves it. The records at or
        // below the watermark are poisoned — far-future, displaced
        // points — so applying any of them would show in the state.
        let overlapping: Vec<(u32, InputEvent)> = events[split - 4..split]
            .iter()
            .map(|&(seq, e)| {
                let poison = InputEvent::new(
                    EventKind::MouseMove,
                    e.x + 500.0,
                    e.y - 300.0,
                    e.t + 60_000.0,
                );
                (seq, poison)
            })
            .chain(events[split..replay_end].iter().copied())
            .collect();
        let single = run(&overlapping, false);
        let batched = run(&overlapping, true);
        assert_eq!(
            single, batched,
            "v1 Events and one EventBatch must replay to the same state and frames"
        );
        assert_eq!(
            single.1.get(1),
            Some(&ServerFrame::Resumed {
                session: 21,
                last_seq: replay_end as u32,
            })
        );
        // Skipping is exact: the overlap leaves the same state as a
        // replay of only the records above the watermark.
        let above = run(&events[split..replay_end], false);
        assert_eq!(
            single, above,
            "records at or below the watermark must be skipped"
        );
    }

    #[test]
    fn reinstall_waits_out_a_full_queue_instead_of_dropping_sessions() {
        let router = SessionRouter::new(
            recognizer(),
            ServeConfig {
                shards: 1,
                queue_capacity: 1,
                ..ServeConfig::default()
            },
        );
        let pause = router.pause_shard(0).expect("pause");
        // Waits (bounded) for the shard's queue depth; the assertions
        // come after the release, so a miss cannot strand the worker.
        let depth_reaches = |want: u64| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while router.metrics().snapshot().shards[0].queue_depth != want
                && Instant::now() < deadline
            {
                std::thread::yield_now();
            }
        };
        // The worker has taken the Pause and parked.
        depth_reaches(0);
        let snapshots: Vec<SessionSnapshot> = (1..=4u64)
            .map(|session| SessionPipeline::new(session, PipelineConfig::default()).snapshot())
            .collect();
        // Four snapshots into a queue of one behind a parked worker: the
        // reinstalling thread must block, not drop three of them.
        let reinstaller = {
            let router = router.clone();
            std::thread::spawn(move || {
                for snapshot in snapshots {
                    router.reinstall(snapshot);
                }
            })
        };
        // One snapshot fills the queue and the next is counted before
        // its send blocks.
        depth_reaches(2);
        pause.release();
        reinstaller.join().expect("reinstall thread");
        let ids: Vec<u64> = router.drain_sessions().iter().map(|s| s.session).collect();
        assert_eq!(ids, vec![1, 2, 3, 4]);
        let snap = router.metrics().snapshot();
        assert_eq!(snap.recovered_sessions, 4);
        assert_eq!(snap.sessions_handed_off, 0);
        assert_eq!(snap.busy_rejections, 0);
        router.shutdown();
    }

    #[test]
    fn hello_and_undecodable_snapshots_translate_to_no_message() {
        // The Busy correlation of every other frame kind is pinned over
        // both transports in tests/backpressure.rs.
        let hello = ShardMsg::from_client(1, ClientFrame::Hello { version: 1 }, ReplyTx::sink());
        assert!(matches!(hello, Ok(None)));
        let torn = ClientFrame::Handoff {
            snapshot: vec![0xFF; 4],
        };
        assert!(ShardMsg::from_client(1, torn, ReplyTx::sink()).is_err());
    }

    #[test]
    fn drain_empties_every_shard_and_sorts_snapshots() {
        let router = SessionRouter::new(
            recognizer(),
            ServeConfig {
                shards: 3,
                ..ServeConfig::default()
            },
        );
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
        router.set_fence(Arc::new(
            move |session| {
                if session % 2 == 1 {
                    Some(peer)
                } else {
                    None
                }
            },
        ));
        assert_eq!(router.owner_redirect(1), Some(peer));
        assert_eq!(router.owner_redirect(2), None);
        router.shutdown();
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        let router = SessionRouter::new(
            recognizer(),
            ServeConfig {
                shards: 4,
                ..ServeConfig::default()
            },
        );
        for s in 0..100u64 {
            let a = router.shard_of(s);
            assert_eq!(a, router.shard_of(s));
            assert!(a < 4);
        }
        router.shutdown();
    }

    /// What a test-controlled WAL log file does on `write_all_at` and
    /// `sync_data`.
    struct LogControl {
        /// `write_all_at` calls seen.
        writes: AtomicU64,
        /// `sync_data` calls seen.
        syncs: AtomicU64,
        /// The next write meets `entered`, then waits on `released`.
        stall_write: AtomicBool,
        /// The next sync meets `entered`, then waits on `released`.
        stall_sync: AtomicBool,
        /// Every write fails.
        fail_write: AtomicBool,
        /// Every sync fails.
        fail_sync: AtomicBool,
        entered: Barrier,
        released: Barrier,
    }

    impl LogControl {
        fn new() -> Arc<Self> {
            Arc::new(Self {
                writes: AtomicU64::new(0),
                syncs: AtomicU64::new(0),
                stall_write: AtomicBool::new(false),
                stall_sync: AtomicBool::new(false),
                fail_write: AtomicBool::new(false),
                fail_sync: AtomicBool::new(false),
                entered: Barrier::new(2),
                released: Barrier::new(2),
            })
        }

        /// Meets `entered` and waits on `released` when `stall` is set,
        /// then fails when `fail` is.
        fn step(&self, stall: &AtomicBool, fail: &AtomicBool, what: &str) -> std::io::Result<()> {
            if stall.swap(false, Ordering::SeqCst) {
                self.entered.wait();
                self.released.wait();
            }
            if fail.load(Ordering::SeqCst) {
                return Err(std::io::Error::other(format!("injected {what} failure")));
            }
            Ok(())
        }
    }

    struct ControlledLog {
        file: std::fs::File,
        control: Arc<LogControl>,
    }

    impl crate::wal::seam::LogFile for ControlledLog {
        fn write_all_at(&mut self, bytes: &[u8], offset: u64) -> std::io::Result<()> {
            let c = &self.control;
            c.writes.fetch_add(1, Ordering::SeqCst);
            c.step(&c.stall_write, &c.fail_write, "write")?;
            std::os::unix::fs::FileExt::write_all_at(&self.file, bytes, offset)
        }

        fn sync_data(&mut self) -> std::io::Result<()> {
            let c = &self.control;
            c.syncs.fetch_add(1, Ordering::SeqCst);
            c.step(&c.stall_sync, &c.fail_sync, "sync")?;
            self.file.sync_data()
        }
    }

    fn wal_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("grandma-router-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// One shard whose WAL, opened under `fsync`, has its I/O steered
    /// by `control`.
    fn controlled_router(
        dir: &std::path::Path,
        control: &Arc<LogControl>,
        fsync: FsyncPolicy,
    ) -> Arc<SessionRouter> {
        let control = control.clone();
        let wrap: LogWrap = Arc::new(move |file| {
            Box::new(ControlledLog {
                file,
                control: control.clone(),
            })
        });
        let config = ServeConfig {
            shards: 1,
            queue_capacity: 256,
            wal: Some(WalConfig::new(dir, fsync)),
            ..ServeConfig::default()
        };
        SessionRouter::spawn(recognizer(), config, Some(wrap))
    }

    /// Sixteen whole gestures as `(seq, event)` records numbered from 1.
    fn gesture_records() -> Vec<(u32, InputEvent)> {
        let data = datasets::eight_way(0x7e57, 0, 2);
        data.testing
            .iter()
            .fold(EventScript::new(), |script, example| {
                script.then_gesture(&example.gesture, Button::Left)
            })
            .into_events()
            .into_iter()
            .enumerate()
            .map(|(i, e)| (i as u32 + 1, e))
            .collect()
    }

    fn submit_batch(
        router: &SessionRouter,
        conn: u64,
        session: u64,
        records: &[(u32, InputEvent)],
        reply: &Sender<ServerFrame>,
    ) {
        let mut events = router.batch_pool().take();
        events.extend_from_slice(records);
        router
            .submit(ShardMsg::EventBatch {
                conn,
                session,
                events,
                reply: reply.clone().into(),
            })
            .unwrap();
    }

    /// Opens `session` and waits for its `Open` to be committed: the
    /// `Resumed` answer to the connection's own `Resume` is held until
    /// the sync that covers the `Open` record.
    fn open_committed(router: &SessionRouter, conn: u64, session: u64, tx: &Sender<ServerFrame>) {
        router
            .submit(ShardMsg::Open {
                conn,
                session,
                seq: 0,
                reply: tx.clone().into(),
            })
            .unwrap();
        router
            .submit(ShardMsg::Resume {
                conn,
                session,
                reply: tx.clone().into(),
            })
            .unwrap();
    }

    fn recv_resumed(rx: &Receiver<ServerFrame>) -> ServerFrame {
        let frame = rx.recv_timeout(Duration::from_secs(10)).expect("Resumed");
        assert!(matches!(frame, ServerFrame::Resumed { .. }), "{frame:?}");
        frame
    }

    #[test]
    fn no_reply_leaves_before_the_group_sync_lands() {
        let dir = wal_dir("stall");
        let control = LogControl::new();
        let router = controlled_router(&dir, &control, FsyncPolicy::Sync);
        let conn = router.new_conn_id();
        let (tx, rx) = std::sync::mpsc::channel();
        open_committed(&router, conn, 1, &tx);
        recv_resumed(&rx);
        assert_eq!(
            router.metrics().snapshot().wal_syncs,
            2,
            "the log open's directory sync and one group"
        );

        // One group behind a parked worker: journaled gestures in N
        // batches (Outcomes), a journaled Close (Closed), a journaled
        // peer handoff (HandoffAck), then an unjournaled UnknownSession
        // fault.
        let pause = router.pause_shard(0).expect("pause");
        control.stall_sync.store(true, Ordering::SeqCst);
        let records = gesture_records();
        let batches = records.chunks(records.len().div_ceil(16));
        let n = batches.len() as u64;
        for batch in batches {
            submit_batch(&router, conn, 1, batch, &tx);
        }
        router
            .submit(ShardMsg::Close {
                conn,
                session: 1,
                seq: 1000,
                reply: tx.clone().into(),
            })
            .unwrap();
        let handed = SessionPipeline::new(2, PipelineConfig::default()).snapshot();
        router
            .submit(ShardMsg::Handoff {
                conn,
                snapshot: Box::new(handed),
                reply: tx.clone().into(),
            })
            .unwrap();
        router
            .submit(ShardMsg::Event {
                conn,
                session: 99,
                seq: 7,
                event: InputEvent::new(EventKind::MouseMove, 0.0, 0.0, 0.0),
                reply: tx.clone().into(),
            })
            .unwrap();
        pause.release();

        // The worker is inside the group's sync, past its one write:
        // nothing may have left.
        control.entered.wait();
        assert_eq!(
            control.writes.load(Ordering::SeqCst),
            2,
            "the group's records go out in one write, before its sync"
        );
        let early = rx.recv_timeout(Duration::from_millis(100));
        control.released.wait();
        assert!(
            early.is_err(),
            "a reply left before its sync landed: {early:?}"
        );

        let mut frames = Vec::new();
        while let Ok(frame) = rx.recv_timeout(Duration::from_secs(10)) {
            let last = matches!(frame, ServerFrame::Fault { session: 99, .. });
            frames.push(frame);
            if last {
                break;
            }
        }
        let closed_at = frames.iter().position(|f| {
            matches!(
                f,
                ServerFrame::Outcome {
                    outcome: OutcomeKind::Closed,
                    ..
                }
            )
        });
        let outcome_at = frames.iter().position(|f| {
            matches!(f, ServerFrame::Outcome { outcome, .. } if *outcome != OutcomeKind::Closed)
        });
        assert!(outcome_at.is_some() && outcome_at < closed_at, "{frames:?}");
        assert_eq!(
            frames[closed_at.expect("Closed") + 1..],
            [
                ServerFrame::HandoffAck {
                    session: 2,
                    last_seq: 0,
                },
                ServerFrame::Fault {
                    session: 99,
                    seq: 7,
                    code: FaultCode::UnknownSession,
                },
            ],
            "replies are released in the order they were produced"
        );
        assert_eq!(
            control.syncs.load(Ordering::SeqCst),
            2,
            "one sync for the whole group"
        );
        assert_eq!(control.writes.load(Ordering::SeqCst), 2);
        router.shutdown();
        let snap = router.metrics().snapshot();
        assert_eq!(snap.wal_appends, n + 3, "Open, N batches, Close, Handoff");
        assert_eq!(
            (snap.wal_writes, snap.wal_syncs),
            (2, 5),
            "the open's directory sync, two group commits, and the shutdown \
             compaction's data and directory syncs"
        );
        assert_eq!(snap.wal_disabled, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_wal_open_serves_without_a_wal_and_is_counted() {
        // A regular file where the WAL directory should be: the open fails.
        let dir = wal_dir("failopen");
        std::fs::write(&dir, b"not a directory").unwrap();
        let router = SessionRouter::new(
            recognizer(),
            ServeConfig {
                shards: 2,
                wal: Some(WalConfig::new(&dir, FsyncPolicy::Sync)),
                ..ServeConfig::default()
            },
        );
        let conn = router.new_conn_id();
        let (tx, rx) = std::sync::mpsc::channel();
        open_committed(&router, conn, 9, &tx);
        recv_resumed(&rx);
        submit_batch(&router, conn, 9, &gesture_records(), &tx);
        router
            .submit(ShardMsg::Close {
                conn,
                session: 9,
                seq: 1000,
                reply: tx.into(),
            })
            .unwrap();
        let frames = recv_until_closed(&rx);
        assert!(frames.len() > 1, "the shard serves on: {frames:?}");
        router.shutdown();
        let snap = router.metrics().snapshot();
        assert_eq!(snap.wal_disabled, 2, "one per shard whose open failed");
        assert_eq!((snap.wal_appends, snap.wal_syncs), (0, 0));
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn a_failed_group_sync_disables_the_wal_and_still_sends_the_held_replies() {
        let control = LogControl::new();
        control.fail_sync.store(true, Ordering::SeqCst);
        failed_commit_fails_open("failsync", &control);
        assert_eq!(control.writes.load(Ordering::SeqCst), 1);
        assert_eq!(control.syncs.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_failed_group_write_disables_the_wal_and_still_sends_the_held_replies() {
        let control = LogControl::new();
        control.fail_write.store(true, Ordering::SeqCst);
        failed_commit_fails_open("failwrite", &control);
        assert_eq!(control.writes.load(Ordering::SeqCst), 1);
        assert_eq!(
            control.syncs.load(Ordering::SeqCst),
            0,
            "no sync after a failed write"
        );
    }

    /// One group whose commit `control` fails: the WAL is disabled and
    /// the held replies still go out.
    fn failed_commit_fails_open(tag: &str, control: &Arc<LogControl>) {
        let dir = wal_dir(tag);
        let router = controlled_router(&dir, control, FsyncPolicy::Sync);
        let conn = router.new_conn_id();
        let (tx, rx) = std::sync::mpsc::channel();
        // One group: Open, the gesture and Close are buffered, and the one
        // write and sync covering them fail.
        let pause = router.pause_shard(0).expect("pause");
        router
            .submit(ShardMsg::Open {
                conn,
                session: 4,
                seq: 0,
                reply: tx.clone().into(),
            })
            .unwrap();
        submit_batch(&router, conn, 4, &gesture_records(), &tx);
        router
            .submit(ShardMsg::Close {
                conn,
                session: 4,
                seq: 1000,
                reply: tx.clone().into(),
            })
            .unwrap();
        pause.release();
        let frames = recv_until_closed(&rx);
        assert!(
            frames.iter().any(|f| matches!(
                f,
                ServerFrame::Outcome { outcome, .. } if *outcome != OutcomeKind::Closed
            )),
            "the held replies go out, they are not dropped: {frames:?}"
        );
        // Fail-open: the shard runs on without a WAL — nothing more is
        // journaled and no further write or sync is tried.
        open_committed(&router, conn, 5, &tx);
        recv_resumed(&rx);
        router.shutdown();
        let snap = router.metrics().snapshot();
        assert_eq!(snap.wal_appends, 3);
        assert_eq!(snap.wal_writes, 0);
        assert_eq!(snap.wal_syncs, 1, "only the log open's directory sync");
        assert_eq!(snap.wal_disabled, 1, "the failure is counted, once");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn queued_batches_commit_in_bounded_groups_ahead_of_a_checkpoint() {
        let dir = wal_dir("groups");
        let router = SessionRouter::new(
            recognizer(),
            ServeConfig {
                shards: 1,
                queue_capacity: 256,
                wal: Some(WalConfig::new(&dir, FsyncPolicy::Sync)),
                ..ServeConfig::default()
            },
        );
        let rec = recognizer();
        let records = gesture_records();
        let close_seq = records.len() as u32 + 1;
        let expected = run_events_inproc(&rec, 3, &PipelineConfig::default(), &records, close_seq);
        // Two records per batch for the grouped part; the rest follows
        // the checkpoint and is recovered from the log tail.
        let (head, tail) = records.split_at(records.len() * 3 / 4);
        let mut head_frames = Vec::new();
        let mut pipeline = SessionPipeline::new(3, PipelineConfig::default());
        for &(seq, event) in head {
            pipeline.feed(&rec, seq, event, &mut head_frames);
        }
        let batches: Vec<&[(u32, InputEvent)]> = head.chunks(2).collect();
        let n = batches.len() as u64;
        assert!(n > GROUP_MAX as u64, "{n} batches must span several groups");

        let conn = router.new_conn_id();
        let (tx, rx) = std::sync::mpsc::channel();
        open_committed(&router, conn, 3, &tx);
        recv_resumed(&rx);
        let before = router.metrics().snapshot().wal_syncs;
        let pause = router.pause_shard(0).expect("pause");
        for batch in &batches {
            submit_batch(&router, conn, 3, batch, &tx);
        }
        let (done, sealed) = std::sync::mpsc::channel();
        router
            .submit(ShardMsg::Seal { drain: false, done })
            .unwrap();
        pause.release();
        assert_eq!(sealed.recv().expect("sealed"), Vec::new());
        let mut live = drain_frames(&rx);
        assert!(!head_frames.is_empty());
        assert_eq!(
            live, head_frames,
            "every grouped reply is out before the barrier"
        );
        let syncs = router.metrics().snapshot().wal_syncs - before;
        assert_eq!(
            syncs,
            n.div_ceil(GROUP_MAX as u64) + 2,
            "groups plus the compaction's data and directory syncs"
        );

        // The tail goes to the log after the snapshot; the Resume fence
        // answers once its groups are committed.
        for batch in tail.chunks(2) {
            submit_batch(&router, conn, 3, batch, &tx);
        }
        router
            .submit(ShardMsg::Resume {
                conn,
                session: 3,
                reply: tx.clone().into(),
            })
            .unwrap();
        loop {
            let frame = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("tail replies");
            if matches!(frame, ServerFrame::Resumed { .. }) {
                break;
            }
            live.push(frame);
        }
        let image = wal_dir("groups-image");
        std::fs::create_dir_all(&image).unwrap();
        for file in ["shard-0.wal", "shard-0.snap"] {
            std::fs::copy(dir.join(file), image.join(file)).unwrap();
        }
        router
            .submit(ShardMsg::Close {
                conn,
                session: 3,
                seq: close_seq,
                reply: tx.into(),
            })
            .unwrap();
        live.extend(recv_until_closed(&rx));
        router.shutdown();
        assert_eq!(live, expected, "the grouped live run matches the pipeline");

        // Recovering the image finishes byte-identically to the live run.
        let recovered = SessionRouter::new(
            recognizer(),
            ServeConfig {
                shards: 1,
                ..ServeConfig::default()
            },
        );
        recovered
            .recover(&WalConfig::new(&image, FsyncPolicy::Async))
            .unwrap();
        let conn = recovered.new_conn_id();
        let (tx, rx) = std::sync::mpsc::channel();
        recovered
            .submit(ShardMsg::Resume {
                conn,
                session: 3,
                reply: tx.clone().into(),
            })
            .unwrap();
        assert_eq!(
            recv_resumed(&rx),
            ServerFrame::Resumed {
                session: 3,
                last_seq: close_seq - 1,
            }
        );
        recovered
            .submit(ShardMsg::Close {
                conn,
                session: 3,
                seq: close_seq,
                reply: tx.into(),
            })
            .unwrap();
        let closing = recv_until_closed(&rx);
        assert_eq!(closing[..], expected[expected.len() - closing.len()..]);
        recovered.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&image);
    }

    #[test]
    fn under_async_each_record_is_written_before_its_replies() {
        let dir = wal_dir("async-write");
        let control = LogControl::new();
        let router = controlled_router(&dir, &control, FsyncPolicy::Async);
        let conn = router.new_conn_id();
        let (tx, rx) = std::sync::mpsc::channel();
        open_committed(&router, conn, 6, &tx);
        recv_resumed(&rx);
        assert_eq!(control.writes.load(Ordering::SeqCst), 1, "the Open record");

        // The worker is inside the batch record's write: none of the
        // batch's replies may have left.
        control.stall_write.store(true, Ordering::SeqCst);
        submit_batch(&router, conn, 6, &gesture_records(), &tx);
        control.entered.wait();
        let early = rx.recv_timeout(Duration::from_millis(100));
        control.released.wait();
        assert!(
            early.is_err(),
            "a reply left before its record was written: {early:?}"
        );
        router
            .submit(ShardMsg::Close {
                conn,
                session: 6,
                seq: 1000,
                reply: tx.into(),
            })
            .unwrap();
        let frames = recv_until_closed(&rx);
        assert!(frames.len() > 1, "{frames:?}");
        router.shutdown();
        let snap = router.metrics().snapshot();
        assert_eq!(
            (snap.wal_appends, snap.wal_writes, snap.wal_syncs),
            (3, 3, 0)
        );
        assert_eq!(snap.wal_disabled, 0);
        assert_eq!(
            control.writes.load(Ordering::SeqCst),
            4,
            "three records and the shutdown compaction's zero header"
        );
        assert_eq!(control.syncs.load(Ordering::SeqCst), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_compaction_issues_exactly_the_two_syncs_it_counts() {
        let dir = wal_dir("compaction-syncs");
        let control = LogControl::new();
        let router = controlled_router(&dir, &control, FsyncPolicy::Sync);
        let conn = router.new_conn_id();
        let (tx, rx) = std::sync::mpsc::channel();
        open_committed(&router, conn, 12, &tx);
        recv_resumed(&rx);
        let before = router.metrics().snapshot();
        assert_eq!(
            before.wal_syncs, 2,
            "the log open's directory sync and one group"
        );
        assert!(before.wal_sync_ns > 0, "the group's sync is timed");
        assert_eq!(control.syncs.load(Ordering::SeqCst), 1);
        assert_eq!(control.writes.load(Ordering::SeqCst), 1);

        router.checkpoint_all();
        let after = router.metrics().snapshot();
        assert_eq!(
            after.wal_syncs - before.wal_syncs,
            2,
            "the snapshot's data sync and the directory sync"
        );
        assert_eq!(
            after.wal_sync_ns, before.wal_sync_ns,
            "only group commits are timed"
        );
        assert_eq!(
            control.syncs.load(Ordering::SeqCst),
            1,
            "the log itself is not synced"
        );
        assert_eq!(
            control.writes.load(Ordering::SeqCst),
            2,
            "the log is not truncated: the new generation's zero header"
        );
        router.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_graceful_shutdown_of_a_recycled_log_recovers_untorn() {
        let dir = wal_dir("recycled-shutdown");
        let mut wal = WalConfig::new(&dir, FsyncPolicy::Sync);
        wal.compact_bytes = 512;
        let router = SessionRouter::new(
            recognizer(),
            ServeConfig {
                shards: 1,
                wal: Some(wal),
                ..ServeConfig::default()
            },
        );
        let conn = router.new_conn_id();
        let (tx, rx) = std::sync::mpsc::channel();
        open_committed(&router, conn, 13, &tx);
        recv_resumed(&rx);
        let records = gesture_records();
        for batch in records.chunks(4) {
            submit_batch(&router, conn, 13, batch, &tx);
        }
        router
            .submit(ShardMsg::Resume {
                conn,
                session: 13,
                reply: tx.clone().into(),
            })
            .unwrap();
        while !matches!(
            rx.recv_timeout(Duration::from_secs(10)),
            Ok(ServerFrame::Resumed { .. })
        ) {}
        router.shutdown();
        let log = std::fs::metadata(dir.join("shard-0.wal")).unwrap().len();
        assert!(log > 512, "the log was lapped, not truncated: {log} bytes");

        let recovered = SessionRouter::new(recognizer(), ServeConfig::default());
        let report = recovered
            .recover(&WalConfig::new(&dir, FsyncPolicy::Sync))
            .unwrap();
        assert!(!report.torn, "{report:?}");
        assert_eq!((report.sessions, report.frames), (1, 0));
        let (tx, rx) = std::sync::mpsc::channel();
        recovered
            .submit(ShardMsg::Resume {
                conn,
                session: 13,
                reply: tx.into(),
            })
            .unwrap();
        assert_eq!(
            recv_resumed(&rx),
            ServerFrame::Resumed {
                session: 13,
                last_seq: records.len() as u32,
            }
        );
        recovered.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_syncs_stay_zero_without_a_wal_and_under_async() {
        for (tag, wal) in [
            ("none", None),
            (
                "async",
                Some(WalConfig::new(wal_dir("async"), FsyncPolicy::Async)),
            ),
        ] {
            let router = SessionRouter::new(
                recognizer(),
                ServeConfig {
                    shards: 1,
                    wal: wal.clone(),
                    ..ServeConfig::default()
                },
            );
            let conn = router.new_conn_id();
            let (tx, rx) = std::sync::mpsc::channel();
            open_committed(&router, conn, 8, &tx);
            recv_resumed(&rx);
            submit_batch(&router, conn, 8, &gesture_records(), &tx);
            router.checkpoint_all();
            router
                .submit(ShardMsg::Close {
                    conn,
                    session: 8,
                    seq: 1000,
                    reply: tx.into(),
                })
                .unwrap();
            recv_until_closed(&rx);
            router.shutdown();
            let snap = router.metrics().snapshot();
            assert_eq!(snap.wal_syncs, 0, "{tag}");
            assert_eq!(snap.wal_disabled, 0, "{tag}");
            assert_eq!(snap.wal_appends, if wal.is_some() { 3 } else { 0 }, "{tag}");
            assert_eq!(
                snap.wal_writes, snap.wal_appends,
                "{tag}: one write per record"
            );
            if let Some(wal) = wal {
                let _ = std::fs::remove_dir_all(&wal.dir);
            }
        }
    }

    /// The frames `shard`'s outbox holds, in order, without sending any.
    fn outbox_frames(shard: &Shard) -> Vec<ServerFrame> {
        shard.outbox.iter().map(|(_, frame)| *frame).collect()
    }

    #[test]
    fn a_shard_driven_without_a_thread_answers_only_through_its_outbox() {
        let dir = wal_dir("sans-io");
        let config = ServeConfig {
            shards: 1,
            wal: Some(WalConfig::new(&dir, FsyncPolicy::Sync)),
            ..ServeConfig::default()
        };
        let rec = recognizer();
        let metrics = Arc::new(ServiceMetrics::new(1));
        let pool = Arc::new(BatchPool::new());
        let mut shard = Shard::new(0, rec.clone(), metrics.clone(), pool, config, None);
        let (owner_tx, owner_rx) = std::sync::mpsc::channel();
        let (other_tx, other_rx) = std::sync::mpsc::channel();
        let (heir_tx, heir_rx) = std::sync::mpsc::channel();
        let owner = || ReplyTx::from(owner_tx.clone());
        let other = || ReplyTx::from(other_tx.clone());
        let heir = || ReplyTx::from(heir_tx.clone());

        // The session's frames, cut where its owner changes and where it
        // closes; together they are `run_events_inproc`'s.
        let records = gesture_records();
        let close_seq = records.len() as u32 + 1;
        let (head, tail) = records.split_at(records.len() / 2);
        let mut pipeline = SessionPipeline::new(5, PipelineConfig::default());
        let (mut head_frames, mut tail_frames, mut close_frames) = (vec![], vec![], vec![]);
        for &(seq, event) in head {
            pipeline.feed(&rec, seq, event, &mut head_frames);
        }
        for &(seq, event) in tail {
            pipeline.feed(&rec, seq, event, &mut tail_frames);
        }
        pipeline.close(&rec, close_seq, &mut close_frames);
        let whole = [
            head_frames.clone(),
            tail_frames.clone(),
            close_frames.clone(),
        ]
        .concat();
        let inproc = run_events_inproc(&rec, 5, &PipelineConfig::default(), &records, close_seq);
        assert_eq!(whole, inproc);
        assert!(!head_frames.is_empty() && !tail_frames.is_empty());

        let batch = |conn, events: &[(u32, InputEvent)], reply| ShardMsg::EventBatch {
            conn,
            session: 5,
            events: events.to_vec(),
            reply,
        };
        let handed = SessionPipeline::new(6, PipelineConfig::default()).snapshot();
        let mut script = vec![
            ShardMsg::Open {
                conn: 1,
                session: 5,
                seq: 0,
                reply: owner(),
            },
            ShardMsg::Event {
                conn: 2,
                session: 5,
                seq: 77,
                event: InputEvent::new(EventKind::MouseMove, 0.0, 0.0, 0.0),
                reply: other(),
            },
            ShardMsg::Close {
                conn: 2,
                session: 5,
                seq: 78,
                reply: other(),
            },
        ];
        script.extend(head.chunks(3).map(|events| batch(1, events, owner())));
        script.push(ShardMsg::Detach {
            conn: 1,
            session: 5,
        });
        script.push(ShardMsg::Resume {
            conn: 3,
            session: 5,
            reply: heir(),
        });
        script.extend(tail.chunks(3).map(|events| batch(3, events, heir())));
        script.push(ShardMsg::Handoff {
            conn: 3,
            snapshot: Box::new(handed.clone()),
            reply: heir(),
        });
        script.push(ShardMsg::Close {
            conn: 3,
            session: 5,
            seq: close_seq,
            reply: heir(),
        });
        for msg in script {
            assert!(shard.handle(msg));
        }

        let unknown = |seq| ServerFrame::Fault {
            session: 5,
            seq,
            code: FaultCode::UnknownSession,
        };
        let resumed = ServerFrame::Resumed {
            session: 5,
            last_seq: head.last().map_or(0, |&(seq, _)| seq),
        };
        let ack = ServerFrame::HandoffAck {
            session: 6,
            last_seq: 0,
        };
        let heir_frames = [vec![resumed], tail_frames, vec![ack], close_frames].concat();
        let want = [
            vec![unknown(77), unknown(78)],
            head_frames.clone(),
            heir_frames.clone(),
        ]
        .concat();
        assert_eq!(outbox_frames(&shard), want, "the outbox, frame by frame");

        // Under `--wal sync` the records are journaled but unsynced, and
        // neither they nor the commit send anything: only `deliver` does.
        assert!(shard.journal.holding());
        let sent = || {
            let heard = |rx: &Receiver<ServerFrame>| rx.try_recv().is_ok();
            heard(&owner_rx) || heard(&other_rx) || heard(&heir_rx)
        };
        assert!(!sent(), "a reply left before the deliver step");
        shard.journal.commit();
        assert!(!shard.journal.holding());
        assert!(!sent(), "a reply left before the deliver step");
        shard.deliver();
        assert!(shard.outbox.is_empty());
        assert_eq!(drain_frames(&other_rx), [unknown(77), unknown(78)]);
        assert_eq!(drain_frames(&owner_rx), head_frames);
        assert_eq!(drain_frames(&heir_rx), heir_frames);

        // The drain seal ships the handed-off session, the only one left,
        // and leaves a WAL that recovers nothing.
        let (done, sealed) = std::sync::mpsc::channel();
        assert!(shard.handle(ShardMsg::Seal { drain: true, done }));
        assert_eq!(sealed.try_recv().expect("sealed"), [handed]);
        assert!(shard.outbox.is_empty() && shard.sessions.is_empty());
        let recovery = crate::wal::read_shard(&WalConfig::new(&dir, FsyncPolicy::Sync), 0).unwrap();
        assert!(recovery.snapshots.is_empty() && recovery.frames.is_empty());
        let snap = metrics.snapshot();
        assert_eq!(snap.unknown_sessions, 2);
        assert_eq!((snap.sessions_opened, snap.sessions_closed), (1, 1));
        assert_eq!((snap.sessions_resumed, snap.sessions_handed_off), (1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
