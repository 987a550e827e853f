// `deny`, not `forbid`: the reactor's audited syscall boundary — the
// `sys` module tree (`sys/mod.rs`, `sys/epoll.rs`, `sys/rlimit.rs`) —
// opts back in with a module-level allow; everywhere else in the crate
// `unsafe` stays a hard error, and grandma-lint's `unsafe-code` rule
// holds the inventory to exactly those files (the safe `sys/poller.rs`
// abstraction is deliberately outside it).
#![deny(unsafe_code)]
//! Sharded multi-session gesture recognition service.
//!
//! GRANDMA was a single-user toolkit; this crate (DESIGN.md §11) turns
//! the recognition pipeline into a small network service without taking
//! on a single dependency: a versioned length-prefixed binary protocol
//! ([`wire`]), a per-session sanitize→classify→outcome pipeline
//! ([`SessionPipeline`]) driving the interaction machine the toolkit's
//! gesture handler shares, a [`SessionRouter`] that shards sessions
//! across a fixed pool of worker threads with bounded queues and `Busy`
//! backpressure, a `std::net` [`TcpService`] whose connections run one
//! sans-IO connection protocol (hello gate, cluster fence, session
//! ledger, `Busy` policy, teardown), and lock-free [`ServiceMetrics`]
//! snapshotted to JSON.
//!
//! Wire v2 adds the serve fast path: `EventBatch` frames carry many
//! events per syscall, decoded zero-copy via [`ClientFrameView`], routed
//! across the shard queue as one message, and drained through pooled
//! buffers ([`BatchPool`]) so the steady state allocates nothing per
//! frame. v1 single-`Event` clients still round-trip unchanged
//! ([`MIN_WIRE_VERSION`]).
//!
//! Wire v4 adds the cluster layer (DESIGN.md §15): an ownership fence
//! ([`SessionFence`]) answers `Open`/`Resume` for foreign sessions with
//! `NotOwner { owner }`, `Handoff` frames move serialized
//! [`SessionSnapshot`]s between nodes (acked with `HandoffAck`), and
//! [`ClusterClient`] routes a session to its consistent-hash ring owner
//! via the `grandma-cluster` discovery file, following redirects and
//! membership changes without losing or duplicating events.
//!
//! Determinism contract: a session's server-frame sequence is a pure
//! function of its event stream and the recognizer, regardless of
//! batching, shard count, or how other sessions interleave. The
//! loopback integration test holds the TCP service to byte-identical
//! outcomes against [`run_events_inproc`].
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use grandma_core::{EagerConfig, EagerRecognizer, FeatureMask};
//! use grandma_serve::{ReconnectingClient, RetryPolicy, ServeConfig, SessionRouter, TcpService};
//! use grandma_synth::datasets;
//!
//! let data = datasets::eight_way(7, 6, 0);
//! let (rec, _) = EagerRecognizer::train(
//!     &data.training, &FeatureMask::all(), &EagerConfig::default()).unwrap();
//! let router = SessionRouter::new(Arc::new(rec), ServeConfig::default());
//! let mut service = TcpService::start(router, "127.0.0.1:0").unwrap();
//! let mut client =
//!     ReconnectingClient::connect(service.local_addr(), 1, RetryPolicy::default()).unwrap();
//! let frames = client.close().unwrap();
//! assert!(!frames.is_empty());
//! service.shutdown();
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod cluster_client;
mod connection;
pub mod metrics;
pub mod pool;
pub mod router;
pub mod session;
pub mod sys;
pub mod tcp;
pub mod wal;
pub mod wire;

pub use client::{ClientError, ReconnectingClient, RetryPolicy};
pub use cluster_client::{hand_off, ClusterClient, ClusterError, MAX_ROUTE_HOPS};
pub use metrics::{MetricsSnapshot, ServiceMetrics, ShardSnapshot};
pub use pool::BatchPool;
pub use router::{
    RecoveryReport, ReplyTx, ServeConfig, SessionFence, SessionRouter, ShardMsg, SubmitError,
};
pub use session::{
    run_events_inproc, PipelineConfig, SessionPipeline, SessionSnapshot, SnapshotError,
};
pub use tcp::{PollBackend, TcpOptions, TcpService};
pub use wal::{FsyncPolicy, WalConfig, WalDirLock, WAL_LOCK_FILE};
pub use wire::{
    decode_client, decode_client_view, decode_server, encode_client, encode_event_batch,
    encode_server, ClientFrame, ClientFrameView, EventBatchIter, EventBatchView, FaultCode,
    FrameBuffer, OutcomeKind, ServerFrame, WireError, EVENT_RECORD_LEN, MAX_BATCH_EVENTS,
    MAX_BATCH_FRAME_LEN, MAX_FRAME_LEN, MAX_HANDOFF_FRAME_LEN, MIN_WIRE_VERSION,
    OUTCOME_KIND_COUNT, WIRE_VERSION,
};
