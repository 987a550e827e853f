//! The connection protocol: every per-connection decision, in one place.
//! A [`Connection`] is sans-IO: the TCP reactor hands it decoded client
//! frames and writes back the frame it answers with, if any; the socket,
//! buffers and timers stay in `tcp.rs`.
//!
//! 1. The first frame must be a `Hello` whose version falls in
//!    [`MIN_WIRE_VERSION`]`..=`[`WIRE_VERSION`]; anything else earns
//!    `Fault(VersionMismatch)` or `Fault(BadFrame)` and ends the
//!    connection. A later `Hello` is ignored.
//! 2. Every other frame becomes a shard message (`ShardMsg::from_client`)
//!    for its session's shard. Behind a cluster fence
//!    ([`SessionRouter::set_fence`]), `Open`/`Resume` for a session the
//!    ring maps elsewhere is answered `NotOwner { owner }`; `Handoff`
//!    bypasses the fence, since the sending peer routed it here.
//! 3. A full shard queue bounces the frame as `Fault(Busy)` with
//!    `ShardMsg::echo`'s `(session, seq)` — except a `Close` for a
//!    session this connection opened, which is parked and retried until
//!    it lands: losing it would leak the session, and the client is owed
//!    its `Closed` outcome. So the park list is bounded by open sessions.
//! 4. Undecodable bytes, or a `Handoff` whose snapshot does not decode,
//!    earn `Fault(BadFrame)` and end the connection; hostile input costs
//!    one connection, never the process.
//! 5. The ledger holds the sessions opened (on submit: a rejected `Open`
//!    is harmless, as teardown messages carry this connection's id, which
//!    the shard checks) and the answers the shard owes, which a
//!    half-closed TCP connection stays up to deliver: one per `Close`,
//!    `Resume` and `Handoff`, and per `Event`/`EventBatch` for a session
//!    not open here. Only the answer itself settles a debt — `Closed`,
//!    `Resumed`, `HandoffAck` or a rejection fault echoing its
//!    `(session, seq)` — never a repair fault ahead of a `Closed`.
//! 6. At EOF the open sessions are closed. At teardown what is still open
//!    is closed, or under [`crate::ServeConfig::detach_on_disconnect`]
//!    detached for a later `Resume` (EOF leaves them to teardown). Each
//!    message is parked like a busy `Close` when its queue is full, so
//!    teardown never blocks the thread that runs it.

use std::collections::hash_map::{Entry, HashMap};
use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::time::Duration;

use crate::router::{ReplyTx, SessionRouter, ShardMsg, SubmitError};
use crate::wire::{
    ClientFrameView, FaultCode, OutcomeKind, ServerFrame, WireError, MIN_WIRE_VERSION, WIRE_VERSION,
};

/// How often the reactor retries parked messages: its poll timeout
/// while any are parked.
pub(crate) const PARK_RETRY: Duration = Duration::from_millis(1);

/// Rounds [`Parked::drain_or_abandon`] retries, 250 µs apart. While the
/// reactor runs, parked messages are retried without limit.
const ABANDON_AFTER_ROUNDS: usize = 64;

/// The router has shut down; the reactor drops the connection.
#[derive(Debug)]
pub(crate) struct RouterGone;

/// One connection's protocol state (see the module docs).
pub(crate) struct Connection {
    id: u64,
    reply: ReplyTx,
    hello: bool,
    /// A protocol fault was answered: read nothing more.
    ended: bool,
    /// Sessions this connection opened or resumed and has not closed.
    open: HashSet<u64>,
    /// Answers the shard owes, by the `(session, seq)` each echoes, with
    /// how many of each are still to come.
    owed: HashMap<(u64, u32), u32>,
}

impl Connection {
    /// A fresh connection `id` (from [`SessionRouter::new_conn_id`])
    /// whose shards answer on `reply`.
    pub(crate) fn new(id: u64, reply: ReplyTx) -> Self {
        Self {
            id,
            reply,
            hello: false,
            ended: false,
            open: HashSet::new(),
            owed: HashMap::new(),
        }
    }

    /// A protocol fault ended the connection: the reactor reads no
    /// more frames, delivers what it has queued and closes.
    pub(crate) fn ended(&self) -> bool {
        self.ended
    }

    /// Whether the shard still owes this connection an answer.
    pub(crate) fn owes_replies(&self) -> bool {
        !self.owed.is_empty()
    }

    /// Handles one frame off the wire, or the error decoding it. Returns
    /// the frame to answer with right away, if any; shard replies travel
    /// on the connection's [`ReplyTx`] instead. `Err` when the router has
    /// shut down.
    pub(crate) fn receive(
        &mut self,
        router: &SessionRouter,
        parked: &mut Parked,
        frame: Result<ClientFrameView<'_>, WireError>,
    ) -> Result<Option<ServerFrame>, RouterGone> {
        let metrics = router.metrics();
        let Ok(frame) = frame else {
            metrics.decode_errors.fetch_add(1, Ordering::Relaxed);
            return Ok(Some(self.end(FaultCode::BadFrame)));
        };
        if !self.hello {
            return Ok(match frame {
                ClientFrameView::Hello { version }
                    if (MIN_WIRE_VERSION..=WIRE_VERSION).contains(&version) =>
                {
                    self.hello = true;
                    None
                }
                ClientFrameView::Hello { .. } => Some(self.end(FaultCode::VersionMismatch)),
                _ => Some(self.end(FaultCode::BadFrame)),
            });
        }
        // Zero-copy decode, pooled hand-off: a batch's records move from
        // the read buffer straight into the pooled `Vec` that crosses the
        // shard queue.
        let owned = router.batch_pool().own_frame(frame);
        let msg = match ShardMsg::from_client(self.id, owned, self.reply.clone()) {
            Ok(Some(msg)) => msg,
            Ok(None) => return Ok(None),
            Err(_) => {
                metrics.decode_errors.fetch_add(1, Ordering::Relaxed);
                return Ok(Some(self.end(FaultCode::BadFrame)));
            }
        };
        let (session, seq) = msg.echo();
        // Whether the frame opens the session here, closes it, and is
        // always answered by the shard.
        let (admit, close, owes) = match &msg {
            ShardMsg::Open { .. } => (true, false, false),
            ShardMsg::Resume { .. } => (true, false, true),
            ShardMsg::Close { .. } => (false, true, true),
            ShardMsg::Handoff { .. } => (false, false, true),
            // `Event` and `EventBatch`: answered for certain only when
            // the session is not open here (`UnknownSession`).
            _ => (false, false, !self.open.contains(&session)),
        };
        if admit {
            if let Some(owner) = router.owner_redirect(session) {
                metrics.not_owner_redirects.fetch_add(1, Ordering::Relaxed);
                return Ok(Some(ServerFrame::NotOwner { session, owner }));
            }
        }
        let opened = close && self.open.remove(&session);
        match (router.submit(msg), close) {
            (Ok(()), _) => {
                if admit {
                    self.open.insert(session);
                }
                if owes {
                    self.owe((session, seq));
                }
                Ok(None)
            }
            (Err(SubmitError::Busy), true) if opened => {
                self.owe((session, seq));
                parked.0.push(self.reap(session, seq, false));
                Ok(None)
            }
            // A rejected batch's buffer was already recycled by submit.
            (Err(SubmitError::Busy), _) => Ok(Some(ServerFrame::Fault {
                session,
                seq,
                code: FaultCode::Busy,
            })),
            (Err(SubmitError::Closed), true) => Ok(None),
            (Err(SubmitError::Closed), false) => Err(RouterGone),
        }
    }

    /// Notes a frame on its way to the client: a `Closed` outcome, a
    /// `Resumed`, a `HandoffAck` or a shard rejection fault settles the
    /// debt its `(session, seq)` names.
    pub(crate) fn settle(&mut self, frame: &ServerFrame) {
        let key = match *frame {
            ServerFrame::Outcome {
                session,
                seq,
                outcome: OutcomeKind::Closed,
                ..
            } => (session, seq),
            ServerFrame::Resumed { session, .. } | ServerFrame::HandoffAck { session, .. } => {
                (session, 0)
            }
            ServerFrame::Fault {
                session,
                seq,
                code: FaultCode::UnknownSession | FaultCode::AlreadyOpen | FaultCode::SessionLimit,
            } => (session, seq),
            _ => return,
        };
        if let Entry::Occupied(mut debt) = self.owed.entry(key) {
            *debt.get_mut() -= 1;
            if *debt.get() == 0 {
                debt.remove();
            }
        }
    }

    /// Records one more answer owed under `key`.
    fn owe(&mut self, key: (u64, u32)) {
        *self.owed.entry(key).or_insert(0) += 1;
    }

    /// The peer finished sending. Closes the still-open sessions, whose
    /// terminal replies join the ledger; under `detach_on_disconnect`
    /// they stay open for [`Connection::teardown`] to detach.
    pub(crate) fn eof(&mut self, router: &SessionRouter, parked: &mut Parked) {
        if !router.detach_on_disconnect() {
            for session in self.open.clone() {
                self.owe((session, u32::MAX));
            }
            self.teardown(router, parked);
        }
    }

    /// Reaps every still-open session: a `Close`, or a `Detach` under
    /// `detach_on_disconnect`, parked when its shard queue is full.
    pub(crate) fn teardown(&mut self, router: &SessionRouter, parked: &mut Parked) {
        let detach = router.detach_on_disconnect();
        for session in std::mem::take(&mut self.open) {
            let reap = self.reap(session, u32::MAX, detach);
            if reap.submit(router) == Err(SubmitError::Busy) {
                parked.0.push(reap);
            }
        }
    }

    /// Answers a protocol fault and ends the connection.
    fn end(&mut self, code: FaultCode) -> ServerFrame {
        self.ended = true;
        ServerFrame::Fault {
            session: 0,
            seq: 0,
            code,
        }
    }

    fn reap(&self, session: u64, seq: u32, detach: bool) -> Reap {
        Reap {
            conn: self.id,
            session,
            seq,
            detach,
            reply: self.reply.clone(),
        }
    }
}

/// A `Close` or a teardown `Detach` for one session, kept until a shard
/// queue takes it.
struct Reap {
    conn: u64,
    session: u64,
    seq: u32,
    detach: bool,
    reply: ReplyTx,
}

impl Reap {
    fn submit(&self, router: &SessionRouter) -> Result<(), SubmitError> {
        let (conn, session) = (self.conn, self.session);
        router.submit(if self.detach {
            ShardMsg::Detach { conn, session }
        } else {
            ShardMsg::Close {
                conn,
                session,
                seq: self.seq,
                reply: self.reply.clone(),
            }
        })
    }
}

/// Messages that met a full shard queue and must not be lost: a client
/// `Close` for a session its connection opened, and teardown's `Close`s
/// and `Detach`es. Each reactor I/O thread owns one list for all its
/// connections, so an entry outlives the connection that parked it.
#[derive(Default)]
pub(crate) struct Parked(Vec<Reap>);

impl Parked {
    /// Nothing is waiting for a shard queue.
    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Retries every parked message once. One that lands, or finds the
    /// router shut down, leaves the list.
    pub(crate) fn resubmit(&mut self, router: &SessionRouter) {
        self.0
            .retain(|reap| reap.submit(router) == Err(SubmitError::Busy));
    }

    /// The last retries before an I/O thread exits: a bounded number
    /// of short rounds, after which the remainder is counted in
    /// `closes_abandoned` and dropped. The router's own shutdown still
    /// finalizes those sessions. Sleeps, so never on a reactor round.
    pub(crate) fn drain_or_abandon(&mut self, router: &SessionRouter) {
        for _ in 0..ABANDON_AFTER_ROUNDS {
            self.resubmit(router);
            if self.0.is_empty() {
                return;
            }
            std::thread::sleep(Duration::from_micros(250));
        }
        router
            .metrics()
            .closes_abandoned
            .fetch_add(self.0.len() as u64, Ordering::Relaxed);
        self.0.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{ServeConfig, ShardPause};
    use crate::wire::{decode_client_view, encode_client, ClientFrame};
    use grandma_core::{EagerConfig, EagerRecognizer, FeatureMask};
    use grandma_synth::datasets;
    use std::sync::mpsc::{channel, Receiver};
    use std::sync::Arc;
    use std::time::Instant;

    fn router(detach_on_disconnect: bool) -> Arc<SessionRouter> {
        let data = datasets::eight_way(0x2b2b, 10, 0);
        let (rec, _) =
            EagerRecognizer::train(&data.training, &FeatureMask::all(), &EagerConfig::default())
                .expect("training succeeds");
        SessionRouter::new(
            Arc::new(rec),
            ServeConfig {
                shards: 1,
                queue_capacity: 1,
                detach_on_disconnect,
                ..ServeConfig::default()
            },
        )
    }

    /// A connection past its `Hello`, with the channel its replies land on.
    fn connect(router: &SessionRouter, parked: &mut Parked) -> (Connection, Receiver<ServerFrame>) {
        let (tx, rx) = channel();
        let mut link = Connection::new(router.new_conn_id(), tx.into());
        let hello = ClientFrame::Hello {
            version: WIRE_VERSION,
        };
        assert_eq!(receive(&mut link, router, parked, hello), None);
        (link, rx)
    }

    fn receive(
        link: &mut Connection,
        router: &SessionRouter,
        parked: &mut Parked,
        frame: ClientFrame,
    ) -> Option<ServerFrame> {
        let mut bytes = Vec::new();
        encode_client(&frame, &mut bytes);
        let (view, _) = decode_client_view(&bytes)
            .expect("valid frame")
            .expect("whole frame");
        link.receive(router, parked, Ok(view)).expect("router up")
    }

    /// Parks the only shard and waits for the worker to take the pause
    /// off its one-slot queue.
    fn pause(router: &SessionRouter) -> ShardPause {
        let pause = router.pause_shard(0).expect("pause");
        let deadline = Instant::now() + Duration::from_secs(10);
        while router.metrics().snapshot().shards[0].queue_depth > 0 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        pause
    }

    fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn busy_close_parks_only_a_session_this_connection_opened() {
        const BOGUS: u32 = 32;
        let router = router(false);
        let mut parked = Parked::default();
        let (mut link, _replies) = connect(&router, &mut parked);
        let pause = pause(&router);
        let open = receive(
            &mut link,
            &router,
            &mut parked,
            ClientFrame::Open { session: 9 },
        );
        // The queue is full now. Closes for sessions this connection
        // never opened bounce like any other frame; none is parked.
        let bounced: Vec<_> = (0..BOGUS)
            .map(|seq| {
                let session = 100 + u64::from(seq);
                let close = ClientFrame::Close { session, seq };
                receive(&mut link, &router, &mut parked, close)
            })
            .collect();
        let parked_after_bogus = parked.0.len();
        let own = receive(
            &mut link,
            &router,
            &mut parked,
            ClientFrame::Close { session: 9, seq: 3 },
        );
        let parked_after_own = parked.0.len();
        let owes = link.owes_replies();
        pause.release();
        wait_for("the parked close", || {
            parked.resubmit(&router);
            parked.is_empty()
        });
        router.shutdown();

        assert_eq!(open, None);
        let want: Vec<_> = (0..BOGUS)
            .map(|seq| {
                Some(ServerFrame::Fault {
                    session: 100 + u64::from(seq),
                    seq,
                    code: FaultCode::Busy,
                })
            })
            .collect();
        assert_eq!(bounced, want);
        assert_eq!(parked_after_bogus, 0, "bogus closes must not be parked");
        assert_eq!(
            own, None,
            "the connection's own close is parked, not bounced"
        );
        assert_eq!(parked_after_own, 1);
        assert!(owes, "the parked close is still owed its Closed outcome");
        let snap = router.metrics().snapshot();
        assert_eq!(snap.sessions_closed, 1, "{snap:?}");
        assert_eq!(snap.unknown_sessions, 0, "{snap:?}");
    }

    #[test]
    fn detach_teardown_parks_instead_of_blocking_on_a_full_queue() {
        let router = router(true);
        let mut parked = Parked::default();
        let (mut owner, _owner_replies) = connect(&router, &mut parked);
        // One at a time: the queue holds a single message.
        for session in [1, 2] {
            let open = ClientFrame::Open { session };
            assert_eq!(receive(&mut owner, &router, &mut parked, open), None);
            wait_for("the open", || {
                router.metrics().snapshot().sessions_opened == session
            });
        }
        let pause = pause(&router);
        let (mut filler, _filler_replies) = connect(&router, &mut parked);
        let fill = receive(
            &mut filler,
            &router,
            &mut parked,
            ClientFrame::Open { session: 9 },
        );
        // With the queue full, teardown returns at once and parks one
        // Detach per open session.
        owner.teardown(&router, &mut parked);
        let parked_at_teardown = parked.0.len();
        pause.release();
        wait_for("the parked detaches", || {
            parked.resubmit(&router);
            parked.is_empty() && router.metrics().snapshot().shards[0].queue_depth == 0
        });
        // Both sessions are orphans now: a new connection resumes them.
        let (mut heir, heir_replies) = connect(&router, &mut parked);
        let resumed: Vec<_> = [1, 2]
            .into_iter()
            .map(|session| {
                let resume = ClientFrame::Resume {
                    session,
                    last_seq: 0,
                };
                let bounced = receive(&mut heir, &router, &mut parked, resume);
                (
                    bounced,
                    heir_replies.recv_timeout(Duration::from_secs(10)).ok(),
                )
            })
            .collect();
        router.shutdown();

        assert_eq!(fill, None);
        assert_eq!(parked_at_teardown, 2);
        let want: Vec<_> = [1, 2]
            .into_iter()
            .map(|session| {
                let last_seq = 0;
                (None, Some(ServerFrame::Resumed { session, last_seq }))
            })
            .collect();
        assert_eq!(resumed, want);
    }
}
