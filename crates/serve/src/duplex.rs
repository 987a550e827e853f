//! The in-process duplex transport: a client handle wired straight into
//! a [`SessionRouter`] with no socket in between.
//!
//! `Duplex` exists for deterministic tests and for embedding the service
//! in-process, but it is not a shortcut past the protocol: every client
//! frame is *encoded to bytes and decoded back* and then handled by the
//! same connection protocol the TCP reactor runs — the hello gate, the
//! cluster fence, the `Busy` policy that parks a `Close` and bounces
//! every other frame, the protocol faults that end the connection, and
//! the teardown that reaps its sessions when the `Duplex` is dropped.
//! Every server frame is encoded and decoded again on receipt. A frame
//! that would not survive the TCP transport does not survive `Duplex`
//! either, which is what makes "byte-identical to the in-process
//! pipeline" a meaningful claim in the loopback test.

use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::connection::{Connection, Parked, PARK_RETRY};
use crate::router::SessionRouter;
use crate::wire::{
    decode_client_view, decode_server, encode_client, encode_server, ClientFrame, OutcomeKind,
    ServerFrame, WireError,
};

/// Why a duplex operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DuplexError {
    /// The connection is closed: a protocol fault ended it, or the
    /// router has shut down.
    Closed,
    /// A frame failed to survive its own encode→decode round trip —
    /// always a bug in the codec, surfaced rather than masked.
    Codec(WireError),
}

impl std::fmt::Display for DuplexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DuplexError::Closed => write!(f, "connection is closed"),
            DuplexError::Codec(e) => write!(f, "codec round-trip failed: {e}"),
        }
    }
}

impl std::error::Error for DuplexError {}

/// An in-process client connection. Each `Duplex` owns one reply channel,
/// mirroring one TCP connection; sessions opened through it deliver their
/// frames here. Dropping it tears the connection down like a dropped TCP
/// connection: its open sessions are closed, or detached under
/// [`crate::ServeConfig::detach_on_disconnect`].
pub struct Duplex {
    router: Arc<SessionRouter>,
    link: Connection,
    parked: Parked,
    replies: Receiver<ServerFrame>,
}

impl Duplex {
    /// Connects to the router. Like a TCP client, the connection must
    /// send [`ClientFrame::Hello`] before anything else, and holds its
    /// own connection identity: sessions it opens belong to it alone.
    pub fn connect(router: Arc<SessionRouter>) -> Self {
        let (reply_tx, replies) = std::sync::mpsc::channel();
        let link = Connection::new(router.new_conn_id(), reply_tx.into());
        Self {
            router,
            link,
            parked: Parked::default(),
            replies,
        }
    }

    /// Sends one client frame through the full codec and the connection
    /// protocol. Backpressure (`Busy`), redirects and protocol faults
    /// surface as server frames on the receive side, exactly as they do
    /// over TCP; a protocol fault also ends the connection, after which
    /// every send is `Err(Closed)`. Only codec bugs and a closed
    /// connection are `Err`.
    pub fn send(&mut self, frame: &ClientFrame) -> Result<(), DuplexError> {
        if self.link.ended() {
            return Err(DuplexError::Closed);
        }
        self.parked.resubmit(&self.router);
        // The wire round trip: what the TCP transport would do, down to
        // the zero-copy decode and the pooled batch buffer.
        let mut bytes = Vec::with_capacity(48);
        encode_client(frame, &mut bytes);
        let view = match decode_client_view(&bytes) {
            Ok(Some((view, _))) => view,
            Ok(None) => return Err(DuplexError::Codec(WireError::EmptyFrame)),
            Err(e) => return Err(DuplexError::Codec(e)),
        };
        let answer = self
            .link
            .receive(&self.router, &mut self.parked, Ok(view))
            .map_err(|_| DuplexError::Closed)?;
        if let Some(answer) = answer {
            self.link.reply().send(answer);
        }
        if self.link.ended() {
            self.link.teardown(&self.router, &mut self.parked);
        }
        Ok(())
    }

    /// Receives the next server frame, waiting up to `timeout`. The frame
    /// is pushed through its own encode→decode round trip before being
    /// returned. `Ok(None)` on timeout or when every sender is gone.
    /// While a `Close` is parked behind a full shard queue, the wait
    /// retries it every millisecond, as the reactor's poll tick does.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<ServerFrame>, DuplexError> {
        let deadline = Instant::now() + timeout;
        let frame = loop {
            self.parked.resubmit(&self.router);
            let left = deadline.saturating_duration_since(Instant::now());
            let wait = if self.parked.is_empty() {
                left
            } else {
                left.min(PARK_RETRY)
            };
            match self.replies.recv_timeout(wait) {
                Ok(frame) => break frame,
                Err(RecvTimeoutError::Timeout) if wait < left => continue,
                Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => return Ok(None),
            }
        };
        self.link.settle(&frame);
        let mut bytes = Vec::with_capacity(48);
        encode_server(&frame, &mut bytes);
        match decode_server(&bytes) {
            Ok(Some((decoded, _))) => Ok(Some(decoded)),
            Ok(None) => Err(DuplexError::Codec(WireError::EmptyFrame)),
            Err(e) => Err(DuplexError::Codec(e)),
        }
    }

    /// Receives frames until an [`OutcomeKind::Closed`] marker for
    /// `session` arrives (inclusive) or `timeout` elapses with nothing
    /// new.
    pub fn recv_session_until_closed(
        &mut self,
        session: u64,
        timeout: Duration,
    ) -> Result<Vec<ServerFrame>, DuplexError> {
        let mut out = Vec::new();
        while let Some(frame) = self.recv_timeout(timeout)? {
            let done = matches!(
                frame,
                ServerFrame::Outcome {
                    session: s,
                    outcome: OutcomeKind::Closed,
                    ..
                } if s == session
            );
            out.push(frame);
            if done {
                break;
            }
        }
        Ok(out)
    }
}

impl Drop for Duplex {
    fn drop(&mut self) {
        self.link.teardown(&self.router, &mut self.parked);
        self.parked.drain_or_abandon(&self.router);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::ServeConfig;
    use crate::wire::{FaultCode, WIRE_VERSION};
    use grandma_core::{EagerConfig, EagerRecognizer, FeatureMask};
    use grandma_events::{Button, EventScript};
    use grandma_synth::datasets;

    fn recognizer() -> Arc<EagerRecognizer> {
        let data = datasets::eight_way(0x2b2b, 10, 0);
        let (rec, _) =
            EagerRecognizer::train(&data.training, &FeatureMask::all(), &EagerConfig::default())
                .expect("training succeeds");
        Arc::new(rec)
    }

    #[test]
    fn duplex_matches_the_inproc_reference() {
        use crate::session::{run_events_inproc, PipelineConfig};
        let rec = recognizer();
        let router = SessionRouter::new(rec.clone(), ServeConfig::default());
        let data = datasets::eight_way(0x7e57, 0, 2);
        let events: Vec<_> = EventScript::new()
            .then_gesture(&data.testing[0].gesture, Button::Left)
            .then_gesture(&data.testing[1].gesture, Button::Left)
            .into_events()
            .into_iter()
            .enumerate()
            .map(|(i, e)| (i as u32, e))
            .collect();
        let close_seq = events.len() as u32;
        let expected = run_events_inproc(&rec, 77, &PipelineConfig::default(), &events, close_seq);

        let mut client = Duplex::connect(router.clone());
        client
            .send(&ClientFrame::Hello {
                version: WIRE_VERSION,
            })
            .expect("hello");
        client
            .send(&ClientFrame::Open { session: 77 })
            .expect("open");
        for &(seq, event) in &events {
            client
                .send(&ClientFrame::Event {
                    session: 77,
                    seq,
                    event,
                })
                .expect("event");
        }
        client
            .send(&ClientFrame::Close {
                session: 77,
                seq: close_seq,
            })
            .expect("close");
        let got = client
            .recv_session_until_closed(77, Duration::from_secs(10))
            .expect("frames");
        assert_eq!(got, expected);
        router.shutdown();
    }

    #[test]
    fn frames_before_hello_are_rejected() {
        let router = SessionRouter::new(recognizer(), ServeConfig::default());
        let mut client = Duplex::connect(router.clone());
        client
            .send(&ClientFrame::Open { session: 1 })
            .expect("send");
        let frame = client
            .recv_timeout(Duration::from_secs(5))
            .expect("recv")
            .expect("fault frame");
        // As over TCP: a connection fault, and the connection is over.
        assert_eq!(
            frame,
            ServerFrame::Fault {
                session: 0,
                seq: 0,
                code: FaultCode::BadFrame,
            }
        );
        let hello = ClientFrame::Hello {
            version: WIRE_VERSION,
        };
        assert_eq!(client.send(&hello), Err(DuplexError::Closed));
        router.shutdown();
    }

    #[test]
    fn unknown_session_event_is_faulted_back() {
        let router = SessionRouter::new(recognizer(), ServeConfig::default());
        let mut client = Duplex::connect(router.clone());
        client
            .send(&ClientFrame::Hello {
                version: WIRE_VERSION,
            })
            .expect("hello");
        client
            .send(&ClientFrame::Event {
                session: 404,
                seq: 9,
                event: grandma_events::InputEvent::new(
                    grandma_events::EventKind::MouseMove,
                    0.0,
                    0.0,
                    0.0,
                ),
            })
            .expect("send");
        let frame = client
            .recv_timeout(Duration::from_secs(5))
            .expect("recv")
            .expect("fault frame");
        assert!(matches!(
            frame,
            ServerFrame::Fault {
                session: 404,
                seq: 9,
                code: FaultCode::UnknownSession,
            }
        ));
        router.shutdown();
    }

    #[test]
    fn sessions_are_isolated_between_duplex_connections() {
        let router = SessionRouter::new(recognizer(), ServeConfig::default());
        let mut owner = Duplex::connect(router.clone());
        let mut intruder = Duplex::connect(router.clone());
        for client in [&mut owner, &mut intruder] {
            client
                .send(&ClientFrame::Hello {
                    version: WIRE_VERSION,
                })
                .expect("hello");
        }
        owner.send(&ClientFrame::Open { session: 1 }).expect("open");
        // A different connection cannot close the owner's session.
        intruder
            .send(&ClientFrame::Close { session: 1, seq: 0 })
            .expect("send");
        let frame = intruder
            .recv_timeout(Duration::from_secs(5))
            .expect("recv")
            .expect("fault frame");
        assert!(matches!(
            frame,
            ServerFrame::Fault {
                code: FaultCode::UnknownSession,
                ..
            }
        ));
        // The owner's session is still live and closes normally.
        owner
            .send(&ClientFrame::Close { session: 1, seq: 1 })
            .expect("close");
        let frames = owner
            .recv_session_until_closed(1, Duration::from_secs(10))
            .expect("frames");
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
    fn version_mismatch_is_reported() {
        let router = SessionRouter::new(recognizer(), ServeConfig::default());
        let mut client = Duplex::connect(router.clone());
        client
            .send(&ClientFrame::Hello {
                version: WIRE_VERSION + 1,
            })
            .expect("send");
        let frame = client
            .recv_timeout(Duration::from_secs(5))
            .expect("recv")
            .expect("fault frame");
        assert_eq!(
            frame,
            ServerFrame::Fault {
                session: 0,
                seq: 0,
                code: FaultCode::VersionMismatch,
            }
        );
        assert_eq!(
            client.send(&ClientFrame::Open { session: 1 }),
            Err(DuplexError::Closed)
        );
        router.shutdown();
    }
}
