//! The in-process duplex transport: a client handle wired straight into
//! a [`SessionRouter`] with no socket in between.
//!
//! `Duplex` exists for deterministic tests and for embedding the service
//! in-process, but it is not a shortcut past the protocol: every client
//! frame is *encoded to bytes and decoded back* before it reaches the
//! router, and every server frame is encoded and decoded again on
//! receipt. A frame that would not survive the TCP transport does not
//! survive `Duplex` either, which is what makes "byte-identical to the
//! in-process pipeline" a meaningful claim in the loopback test.

use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

use crate::router::{SessionRouter, ShardMsg, SubmitError};
use crate::wire::{
    decode_client_view, decode_server, encode_client, encode_server, ClientFrame,
    ClientFrameView, FaultCode, OutcomeKind, ServerFrame, WireError, MIN_WIRE_VERSION,
    WIRE_VERSION,
};

/// Why a duplex operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DuplexError {
    /// The router has shut down.
    Closed,
    /// A frame failed to survive its own encode→decode round trip —
    /// always a bug in the codec, surfaced rather than masked.
    Codec(WireError),
}

impl std::fmt::Display for DuplexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DuplexError::Closed => write!(f, "router is shut down"),
            DuplexError::Codec(e) => write!(f, "codec round-trip failed: {e}"),
        }
    }
}

impl std::error::Error for DuplexError {}

/// An in-process client connection. Each `Duplex` owns one reply channel,
/// mirroring one TCP connection; sessions opened through it deliver their
/// frames here.
pub struct Duplex {
    router: Arc<SessionRouter>,
    conn: u64,
    reply_tx: Sender<ServerFrame>,
    reply_rx: Receiver<ServerFrame>,
    hello_ok: bool,
}

impl Duplex {
    /// Connects to the router. Like a TCP client, the connection must
    /// send [`ClientFrame::Hello`] before anything else, and holds its
    /// own connection identity: sessions it opens belong to it alone.
    pub fn connect(router: Arc<SessionRouter>) -> Self {
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        let conn = router.new_conn_id();
        Self {
            router,
            conn,
            reply_tx,
            reply_rx,
            hello_ok: false,
        }
    }

    /// Sends one client frame through the full codec and into the
    /// router. Backpressure (`Busy`) and protocol rejections surface as
    /// [`ServerFrame::Fault`]s on the receive side, exactly as they do
    /// over TCP; only codec bugs and a dead router are `Err`.
    pub fn send(&mut self, frame: &ClientFrame) -> Result<(), DuplexError> {
        // The wire round trip: what the TCP transport would do, down to
        // the zero-copy decode and the pooled batch buffer.
        let mut bytes = Vec::with_capacity(48);
        encode_client(frame, &mut bytes);
        let view = match decode_client_view(&bytes) {
            Ok(Some((view, _))) => view,
            Ok(None) => return Err(DuplexError::Codec(WireError::EmptyFrame)),
            Err(e) => return Err(DuplexError::Codec(e)),
        };
        if let ClientFrameView::Hello { version } = view {
            if (MIN_WIRE_VERSION..=WIRE_VERSION).contains(&version) {
                self.hello_ok = true;
            } else {
                self.connection_fault(FaultCode::VersionMismatch);
            }
            return Ok(());
        }
        let reply = self.reply_tx.clone().into();
        let owned = self.router.batch_pool().own_frame(view);
        let msg = match ShardMsg::from_client(self.conn, owned, reply) {
            Ok(Some(msg)) => msg,
            Ok(None) => return Ok(()),
            // Mirror the TCP reader: an undecodable handoff snapshot is a
            // protocol violation, answered with `BadFrame`.
            Err(_) => {
                self.connection_fault(FaultCode::BadFrame);
                return Ok(());
            }
        };
        if !self.hello_ok {
            let _ = self.reply_tx.send(msg.fault(FaultCode::BadFrame));
            return Ok(());
        }
        let busy = msg.fault(FaultCode::Busy);
        match self.router.submit(msg) {
            Ok(()) => Ok(()),
            Err(SubmitError::Busy) => {
                let _ = self.reply_tx.send(busy);
                Ok(())
            }
            Err(SubmitError::Closed) => Err(DuplexError::Closed),
        }
    }

    /// A fault about the connection rather than one session.
    fn connection_fault(&self, code: FaultCode) {
        let _ = self.reply_tx.send(ServerFrame::Fault {
            session: 0,
            seq: 0,
            code,
        });
    }

    /// Receives the next server frame, waiting up to `timeout`. The frame
    /// is pushed through its own encode→decode round trip before being
    /// returned. `Ok(None)` on timeout or when every sender is gone.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<ServerFrame>, DuplexError> {
        let frame = match self.reply_rx.recv_timeout(timeout) {
            Ok(frame) => frame,
            Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => return Ok(None),
        };
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

    /// The router this connection talks to.
    pub fn router(&self) -> &Arc<SessionRouter> {
        &self.router
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::ServeConfig;
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
        client.send(&ClientFrame::Open { session: 77 }).expect("open");
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
        client.send(&ClientFrame::Open { session: 1 }).expect("send");
        let frame = client
            .recv_timeout(Duration::from_secs(5))
            .expect("recv")
            .expect("fault frame");
        assert!(matches!(
            frame,
            ServerFrame::Fault {
                code: FaultCode::BadFrame,
                ..
            }
        ));
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
        assert!(matches!(
            frame,
            ServerFrame::Fault {
                code: FaultCode::VersionMismatch,
                ..
            }
        ));
        router.shutdown();
    }
}
