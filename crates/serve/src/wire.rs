//! The versioned binary wire protocol.
//!
//! Every frame on the wire is length-prefixed:
//!
//! ```text
//! ┌────────────┬─────────┬──────────────────────────┐
//! │ u32 LE len │ u8 tag  │ payload (len − 1 bytes)  │
//! └────────────┴─────────┴──────────────────────────┘
//! ```
//!
//! `len` counts the tag plus the payload and is capped at
//! [`MAX_FRAME_LEN`]; a larger prefix is a protocol violation
//! ([`WireError::Oversized`]), never an allocation request. All integers
//! are little-endian; floating-point fields travel as raw IEEE-754 bit
//! patterns so NaN and ±∞ — which corrupted device streams legitimately
//! contain — cross the wire unchanged and are repaired *server-side* by
//! the [`grandma_events::EventSanitizer`].
//!
//! Client → server: [`ClientFrame`] (`Hello`, `Open`, `Event`,
//! `EventBatch`, `Close`, `Resume`, `Handoff`). Server → client:
//! [`ServerFrame`] (`Recognized`, `Manipulate`, `Outcome`, `Fault`,
//! `Resumed`, `HandoffAck`, `NotOwner`).
//!
//! # Wire v2: event batching
//!
//! Version 2 adds the `EventBatch` frame (tag `0x05`): up to
//! [`MAX_BATCH_EVENTS`] events for one session packed into a single
//! length-prefixed frame, each record carrying its own `seq` so the seq
//! echo (and per-event RTT attribution) is preserved. Batched frames use
//! a larger length cap ([`MAX_BATCH_FRAME_LEN`]); every other frame is
//! still held to [`MAX_FRAME_LEN`]. The server speaks every protocol
//! version in `MIN_WIRE_VERSION..=WIRE_VERSION` (currently 1..=4): a v4
//! server accepts v1 `Hello`s and v1 single-`Event` streams unchanged; a
//! batch of events is defined to be semantically identical to the same
//! events sent as consecutive single `Event` frames.
//!
//! # Wire v3: session resume
//!
//! Version 3 adds the crash/disconnect recovery pair. `Resume` (tag
//! `0x06`, client → server) re-binds an existing session to the sending
//! connection after a disconnect, carrying the session id and the
//! client's last-acked `seq`. The server answers with `Resumed` (tag
//! `0x85`) carrying *its* last processed `seq` for the session — the
//! server replays nothing; the client re-sends every event with
//! `seq > last_seq` from its unacked window. A `Resume` for a session
//! the server does not hold (or one still owned by a live connection)
//! is answered with a [`FaultCode::UnknownSession`] fault, exactly like
//! a misaddressed `Event`, so sessions cannot be probed across
//! connections.
//!
//! # Wire v4: cluster routing and session handoff
//!
//! Version 4 adds the multi-node triplet. `Handoff` (tag `0x07`,
//! client → server) installs an encoded
//! [`crate::session::SessionSnapshot`] on the receiving node — the
//! payload is the same versioned snapshot format the WAL persists, so
//! the snapshot-version lockstep lint covers handoff bytes for free.
//! The receiver answers with `HandoffAck` (tag `0x86`) carrying the
//! installed session's `last_seq`; the session sits orphaned until its
//! client `Resume`s it. `NotOwner` (tag `0x87`, server → client) is the
//! typed redirect a cluster node sends when the consistent-hash ring
//! says another node owns the session: it names the owner's socket
//! address and the client re-routes there. `Handoff` frames use their
//! own length cap ([`MAX_HANDOFF_FRAME_LEN`]), sized so a handoff
//! record always fits a WAL record.
//!
//! The hot decode path is allocation-free: [`decode_client_view`] returns
//! a [`ClientFrameView`] whose batch variant ([`EventBatchView`]) borrows
//! the packed records straight out of the receive buffer — records are
//! fully validated at decode time so iterating them cannot fail.
//!
//! Encoding and decoding are pure functions of bytes; the streaming
//! [`FrameBuffer`] feeds a byte stream through them incrementally. A
//! decoder handed hostile bytes returns a typed [`WireError`] — it must
//! never panic, which the fuzz suite in `tests/wire_roundtrip.rs` checks
//! against seeded byte soup.

use grandma_events::{Button, EventKind, InputEvent};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, SocketAddrV4, SocketAddrV6};

/// Protocol version spoken by this build; [`ClientFrame::Hello`] carries
/// the client's version and anything outside
/// [`MIN_WIRE_VERSION`]`..=`[`WIRE_VERSION`] closes the connection with
/// [`FaultCode::VersionMismatch`].
pub const WIRE_VERSION: u16 = 4;

/// Oldest client version this build still serves. Version 1 clients
/// (single-`Event` frames only) round-trip against a v4 server
/// unchanged; they simply never send `EventBatch`, `Resume`, or
/// `Handoff`.
pub const MIN_WIRE_VERSION: u16 = 1;

/// Upper bound on the length prefix (tag + payload) for every frame
/// except `EventBatch`. The largest real single frame is `Event` at 39
/// bytes; anything claiming more is hostile.
pub const MAX_FRAME_LEN: usize = 128;

/// Bytes of one packed batch record: `seq: u32`, `kind: u8`,
/// `button: u8`, and `x`/`y`/`t` as raw `f64` bits.
pub const EVENT_RECORD_LEN: usize = 30;

/// Maximum events one `EventBatch` frame may carry; longer client-side
/// batches are split across frames by [`encode_event_batch`].
pub const MAX_BATCH_EVENTS: usize = 256;

/// Length-prefix cap for `EventBatch` frames: tag + session + count +
/// a full complement of records.
pub const MAX_BATCH_FRAME_LEN: usize = 1 + 8 + 2 + MAX_BATCH_EVENTS * EVENT_RECORD_LEN;

/// Length-prefix cap for `Handoff` frames (wire v4). A handoff carries a
/// whole encoded session snapshot, so its cap is far above every other
/// frame's — but it is sized so the full wire frame (4-byte prefix +
/// tag + snapshot) still fits a single WAL record
/// (`wal::MAX_RECORD_LEN`), because handed-off sessions are journaled
/// as-received.
pub const MAX_HANDOFF_FRAME_LEN: usize = (1 << 20) - 8;

/// Typed decoding failure. Every variant is a protocol violation that is
/// fatal for the connection; an incomplete frame is *not* an error (the
/// decoders return `Ok(None)` until more bytes arrive).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The length prefix exceeded [`MAX_FRAME_LEN`].
    Oversized {
        /// The claimed length.
        len: usize,
    },
    /// The length prefix was zero (no room for a tag).
    EmptyFrame,
    /// The frame tag byte is not a known frame kind.
    UnknownTag {
        /// The offending tag.
        tag: u8,
    },
    /// A payload field held a value outside its enum's range.
    BadEnum {
        /// Which field.
        what: &'static str,
        /// The offending byte.
        value: u8,
    },
    /// The payload ended before the frame's fields did.
    Malformed {
        /// Which field ran out of bytes.
        what: &'static str,
    },
    /// The payload was longer than the frame's fields.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// A wire integer did not fit the host type it feeds (decode paths
    /// convert with `try_from`, never a truncating `as` cast).
    IntOutOfRange {
        /// Which field.
        what: &'static str,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Oversized { len } => write!(f, "frame length {len} exceeds cap"),
            WireError::EmptyFrame => write!(f, "zero-length frame"),
            WireError::UnknownTag { tag } => write!(f, "unknown frame tag {tag:#04x}"),
            WireError::BadEnum { what, value } => write!(f, "bad {what} value {value}"),
            WireError::Malformed { what } => write!(f, "frame truncated reading {what}"),
            WireError::TrailingBytes { extra } => write!(f, "{extra} trailing bytes in frame"),
            WireError::IntOutOfRange { what } => {
                write!(f, "{what} does not fit the host integer type")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Frames a client sends.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientFrame {
    /// Protocol handshake: the client's wire version. Must be the first
    /// frame on a connection.
    Hello {
        /// The client's [`WIRE_VERSION`].
        version: u16,
    },
    /// Opens a recognition session. Session ids are client-chosen and
    /// route the session to a shard.
    Open {
        /// Session id.
        session: u64,
    },
    /// One input event for a session. `seq` is a client-assigned
    /// correlation id echoed on every server frame the event provokes.
    Event {
        /// Session id.
        session: u64,
        /// Client-assigned sequence number.
        seq: u32,
        /// The raw (possibly corrupted) input event.
        event: InputEvent,
    },
    /// Many events for one session in a single frame (wire v2). Each
    /// record keeps its own `seq`, so server frames correlate exactly as
    /// they would for the same events sent as single `Event` frames.
    EventBatch {
        /// Session id (resolved once per batch server-side).
        session: u64,
        /// The `(seq, event)` records, in send order.
        events: Vec<(u32, InputEvent)>,
    },
    /// Ends a session: the server flushes its sanitizer, finalizes any
    /// open interaction, and replies with a terminal
    /// [`OutcomeKind::Closed`] outcome.
    Close {
        /// Session id.
        session: u64,
        /// Client-assigned sequence number.
        seq: u32,
    },
    /// Re-binds an existing (orphaned or same-connection) session to the
    /// sending connection after a disconnect (wire v3). Answered with
    /// [`ServerFrame::Resumed`] on success, an
    /// [`FaultCode::UnknownSession`] fault otherwise.
    Resume {
        /// Session id.
        session: u64,
        /// Highest `seq` the client has seen acknowledged; advisory (the
        /// server's own `last_seq` in the `Resumed` reply is
        /// authoritative).
        last_seq: u32,
    },
    /// Transfers one session to the receiving node (wire v4). The
    /// payload is an encoded [`crate::session::SessionSnapshot`] —
    /// opaque at the wire layer; the versioned snapshot codec validates
    /// it. Answered with [`ServerFrame::HandoffAck`] on success, a
    /// typed fault otherwise.
    Handoff {
        /// The encoded snapshot bytes.
        snapshot: Vec<u8>,
    },
}

/// How an interaction (or session) ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeKind {
    /// Classified at mouse-up; the manipulation phase was omitted.
    Recognized,
    /// Classified mid-gesture and manipulated to a clean mouse-up.
    Manipulated,
    /// Torn down: grab break or fault budget exhausted.
    Cancelled,
    /// Classification declined to act (low probability or degenerate
    /// features).
    Rejected,
    /// The session itself was closed; emitted exactly once per
    /// [`ClientFrame::Close`] as the end-of-session marker.
    Closed,
}

impl From<grandma_core::InteractionOutcome> for OutcomeKind {
    fn from(outcome: grandma_core::InteractionOutcome) -> Self {
        use grandma_core::InteractionOutcome as O;
        match outcome {
            O::Recognized => OutcomeKind::Recognized,
            O::Manipulated => OutcomeKind::Manipulated,
            O::Cancelled => OutcomeKind::Cancelled,
            O::Rejected => OutcomeKind::Rejected,
        }
    }
}

impl OutcomeKind {
    pub(crate) fn to_u8(self) -> u8 {
        match self {
            OutcomeKind::Recognized => 0,
            OutcomeKind::Manipulated => 1,
            OutcomeKind::Cancelled => 2,
            OutcomeKind::Rejected => 3,
            OutcomeKind::Closed => 4,
        }
    }

    fn from_u8(v: u8) -> Result<Self, WireError> {
        Ok(match v {
            0 => OutcomeKind::Recognized,
            1 => OutcomeKind::Manipulated,
            2 => OutcomeKind::Cancelled,
            3 => OutcomeKind::Rejected,
            4 => OutcomeKind::Closed,
            _ => {
                return Err(WireError::BadEnum {
                    what: "outcome",
                    value: v,
                })
            }
        })
    }
}

/// What went wrong, as reported in a [`ServerFrame::Fault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultCode {
    /// Non-finite coordinates repaired or dropped by the sanitizer.
    NonFiniteCoordinates,
    /// Non-finite timestamp repaired or dropped.
    NonFiniteTimestamp,
    /// Out-of-order timestamp clamped to the present.
    OutOfOrder,
    /// Event older than the reorder window; dropped.
    DroppedStale,
    /// Duplicate `MouseDown` demoted to a move.
    DuplicateMouseDown,
    /// `MouseUp` with no interaction in progress; dropped.
    UnmatchedMouseUp,
    /// Grab presumed broken; a `GrabBreak` was synthesized.
    MissingMouseUp,
    /// The session's shard queue is full; the frame was rejected, not
    /// queued. The client may retry after draining replies.
    Busy,
    /// The connection sent bytes that do not decode; the connection is
    /// closed after this frame.
    BadFrame,
    /// An `Event`/`Close` referenced a session this server does not hold
    /// — or one opened by a different connection, which is deliberately
    /// reported identically so sessions cannot be probed or disturbed
    /// across connections.
    UnknownSession,
    /// An `Open` for a session id that is already open.
    AlreadyOpen,
    /// The shard is at its session-count cap; the `Open` was rejected.
    SessionLimit,
    /// The client's `Hello` version differs from [`WIRE_VERSION`]; the
    /// connection is closed after this frame.
    VersionMismatch,
}

impl FaultCode {
    fn to_u8(self) -> u8 {
        match self {
            FaultCode::NonFiniteCoordinates => 0,
            FaultCode::NonFiniteTimestamp => 1,
            FaultCode::OutOfOrder => 2,
            FaultCode::DroppedStale => 3,
            FaultCode::DuplicateMouseDown => 4,
            FaultCode::UnmatchedMouseUp => 5,
            FaultCode::MissingMouseUp => 6,
            FaultCode::Busy => 7,
            FaultCode::BadFrame => 8,
            FaultCode::UnknownSession => 9,
            FaultCode::AlreadyOpen => 10,
            FaultCode::SessionLimit => 11,
            FaultCode::VersionMismatch => 12,
        }
    }

    fn from_u8(v: u8) -> Result<Self, WireError> {
        Ok(match v {
            0 => FaultCode::NonFiniteCoordinates,
            1 => FaultCode::NonFiniteTimestamp,
            2 => FaultCode::OutOfOrder,
            3 => FaultCode::DroppedStale,
            4 => FaultCode::DuplicateMouseDown,
            5 => FaultCode::UnmatchedMouseUp,
            6 => FaultCode::MissingMouseUp,
            7 => FaultCode::Busy,
            8 => FaultCode::BadFrame,
            9 => FaultCode::UnknownSession,
            10 => FaultCode::AlreadyOpen,
            11 => FaultCode::SessionLimit,
            12 => FaultCode::VersionMismatch,
            _ => {
                return Err(WireError::BadEnum {
                    what: "fault code",
                    value: v,
                })
            }
        })
    }
}

/// Frames the server sends. Every frame carries the session id and the
/// `seq` of the client event that provoked it, so clients can correlate
/// replies (and measure per-event round trips).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServerFrame {
    /// The eager recognizer (or dwell/mouse-up classification) committed
    /// to a class mid-gesture; the session is now manipulating.
    Recognized {
        /// Session id.
        session: u64,
        /// Triggering event's sequence number.
        seq: u32,
        /// Winning class index.
        class: u16,
        /// Points collected when classification fired.
        points: u32,
    },
    /// One manipulation-phase position update (the `manip` stream the
    /// consuming application would drive its direct manipulation from).
    Manipulate {
        /// Session id.
        session: u64,
        /// Triggering event's sequence number.
        seq: u32,
        /// Pointer x.
        x: f64,
        /// Pointer y.
        y: f64,
    },
    /// Terminal state of one interaction (or of the session itself, for
    /// [`OutcomeKind::Closed`]).
    Outcome {
        /// Session id.
        session: u64,
        /// Triggering event's sequence number.
        seq: u32,
        /// How the interaction ended.
        outcome: OutcomeKind,
        /// The recognized class, when there was one.
        class: Option<u16>,
        /// Points in the whole interaction.
        total_points: u32,
        /// Stream faults charged to the interaction.
        faults: u32,
    },
    /// A stream repair, rejection, or protocol error.
    Fault {
        /// Session id (0 when the fault is connection-level).
        session: u64,
        /// Triggering event's sequence number (0 when connection-level).
        seq: u32,
        /// What happened.
        code: FaultCode,
    },
    /// Acknowledges a [`ClientFrame::Resume`] (wire v3): the session is
    /// re-bound to this connection and `last_seq` is the highest event
    /// sequence number the server has processed — the client re-sends
    /// everything after it.
    Resumed {
        /// Session id.
        session: u64,
        /// Highest `seq` the server has processed for the session.
        last_seq: u32,
    },
    /// Acknowledges a [`ClientFrame::Handoff`] (wire v4): the snapshot
    /// decoded and the session is installed (orphaned, awaiting its
    /// client's `Resume`).
    HandoffAck {
        /// Session id recovered from the snapshot.
        session: u64,
        /// Highest `seq` baked into the snapshot.
        last_seq: u32,
    },
    /// Cluster redirect (wire v4): the consistent-hash ring maps the
    /// session to a different node. The client should reconnect to
    /// `owner` and retry there; nothing was done with the frame that
    /// provoked this.
    NotOwner {
        /// Session id the redirect is about.
        session: u64,
        /// Socket address of the owning node.
        owner: SocketAddr,
    },
}

const TAG_HELLO: u8 = 0x01;
const TAG_OPEN: u8 = 0x02;
const TAG_EVENT: u8 = 0x03;
const TAG_CLOSE: u8 = 0x04;
const TAG_EVENT_BATCH: u8 = 0x05;
const TAG_RESUME: u8 = 0x06;
const TAG_HANDOFF: u8 = 0x07;
const TAG_RECOGNIZED: u8 = 0x81;
const TAG_MANIPULATE: u8 = 0x82;
const TAG_OUTCOME: u8 = 0x83;
const TAG_FAULT: u8 = 0x84;
const TAG_RESUMED: u8 = 0x85;
const TAG_HANDOFF_ACK: u8 = 0x86;
const TAG_NOT_OWNER: u8 = 0x87;

/// Sentinel for "no class" in an `Outcome` frame.
pub(crate) const NO_CLASS: u16 = u16::MAX;

fn kind_to_bytes(kind: EventKind) -> (u8, u8) {
    match kind {
        EventKind::MouseDown { button } => (0, button_to_u8(button)),
        EventKind::MouseMove => (1, 0),
        EventKind::MouseUp { button } => (2, button_to_u8(button)),
        EventKind::Timeout => (3, 0),
        EventKind::GrabBreak => (4, 0),
    }
}

fn button_to_u8(b: Button) -> u8 {
    match b {
        Button::Left => 0,
        Button::Middle => 1,
        Button::Right => 2,
    }
}

fn button_from_u8(v: u8) -> Result<Button, WireError> {
    Ok(match v {
        0 => Button::Left,
        1 => Button::Middle,
        2 => Button::Right,
        _ => {
            return Err(WireError::BadEnum {
                what: "button",
                value: v,
            })
        }
    })
}

fn kind_from_bytes(kind: u8, button: u8) -> Result<EventKind, WireError> {
    Ok(match kind {
        0 => EventKind::MouseDown {
            button: button_from_u8(button)?,
        },
        1 => EventKind::MouseMove,
        2 => EventKind::MouseUp {
            button: button_from_u8(button)?,
        },
        3 => EventKind::Timeout,
        4 => EventKind::GrabBreak,
        _ => {
            return Err(WireError::BadEnum {
                what: "event kind",
                value: kind,
            })
        }
    })
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Patches the 4-byte length prefix reserved at `at` once the body is
/// written.
fn finish_frame(out: &mut [u8], at: usize) {
    let len = (out.len() - at - 4) as u32;
    let bytes = len.to_le_bytes();
    for (i, b) in bytes.iter().enumerate() {
        if let Some(slot) = out.get_mut(at + i) {
            *slot = *b;
        }
    }
}

/// Appends the encoded client frame(s) to `out`. Every variant encodes
/// to exactly one frame except `EventBatch`, which splits into as many
/// frames as [`MAX_BATCH_EVENTS`] requires (see [`encode_event_batch`]).
pub fn encode_client(frame: &ClientFrame, out: &mut Vec<u8>) {
    if let ClientFrame::EventBatch { session, events } = frame {
        encode_event_batch(*session, events, out);
        return;
    }
    let at = out.len();
    put_u32(out, 0);
    match *frame {
        ClientFrame::Hello { version } => {
            out.push(TAG_HELLO);
            put_u16(out, version);
        }
        ClientFrame::Open { session } => {
            out.push(TAG_OPEN);
            put_u64(out, session);
        }
        ClientFrame::Event {
            session,
            seq,
            event,
        } => {
            out.push(TAG_EVENT);
            put_u64(out, session);
            put_u32(out, seq);
            let (kind, button) = kind_to_bytes(event.kind);
            out.push(kind);
            out.push(button);
            put_f64(out, event.x);
            put_f64(out, event.y);
            put_f64(out, event.t);
        }
        ClientFrame::Close { session, seq } => {
            out.push(TAG_CLOSE);
            put_u64(out, session);
            put_u32(out, seq);
        }
        ClientFrame::Resume { session, last_seq } => {
            out.push(TAG_RESUME);
            put_u64(out, session);
            put_u32(out, last_seq);
        }
        ClientFrame::Handoff { ref snapshot } => {
            out.push(TAG_HANDOFF);
            out.extend_from_slice(snapshot);
        }
        // Handled above; unreachable here.
        ClientFrame::EventBatch { .. } => {}
    }
    finish_frame(out, at);
}

/// Appends `events` for `session` as `EventBatch` frame(s) to `out`:
/// one frame per [`MAX_BATCH_EVENTS`] chunk (a single count-zero frame
/// when `events` is empty). Encoding appends to the caller's buffer, so
/// a connection can reuse one `Vec` for its entire lifetime — the
/// steady-state encode path performs no allocation.
pub fn encode_event_batch(session: u64, events: &[(u32, InputEvent)], out: &mut Vec<u8>) {
    let mut chunks = events.chunks(MAX_BATCH_EVENTS);
    let mut emit = |chunk: &[(u32, InputEvent)]| {
        let at = out.len();
        put_u32(out, 0);
        out.push(TAG_EVENT_BATCH);
        put_u64(out, session);
        put_u16(out, chunk.len() as u16);
        for &(seq, event) in chunk {
            put_u32(out, seq);
            let (kind, button) = kind_to_bytes(event.kind);
            out.push(kind);
            out.push(button);
            put_f64(out, event.x);
            put_f64(out, event.y);
            put_f64(out, event.t);
        }
        finish_frame(out, at);
    };
    match chunks.next() {
        None => emit(&[]),
        Some(first) => {
            emit(first);
            for chunk in chunks {
                emit(chunk);
            }
        }
    }
}

/// Appends one encoded server frame (length prefix included) to `out`.
pub fn encode_server(frame: &ServerFrame, out: &mut Vec<u8>) {
    let at = out.len();
    put_u32(out, 0);
    match *frame {
        ServerFrame::Recognized {
            session,
            seq,
            class,
            points,
        } => {
            out.push(TAG_RECOGNIZED);
            put_u64(out, session);
            put_u32(out, seq);
            put_u16(out, class);
            put_u32(out, points);
        }
        ServerFrame::Manipulate { session, seq, x, y } => {
            out.push(TAG_MANIPULATE);
            put_u64(out, session);
            put_u32(out, seq);
            put_f64(out, x);
            put_f64(out, y);
        }
        ServerFrame::Outcome {
            session,
            seq,
            outcome,
            class,
            total_points,
            faults,
        } => {
            out.push(TAG_OUTCOME);
            put_u64(out, session);
            put_u32(out, seq);
            out.push(outcome.to_u8());
            put_u16(out, class.unwrap_or(NO_CLASS));
            put_u32(out, total_points);
            put_u32(out, faults);
        }
        ServerFrame::Fault { session, seq, code } => {
            out.push(TAG_FAULT);
            put_u64(out, session);
            put_u32(out, seq);
            out.push(code.to_u8());
        }
        ServerFrame::Resumed { session, last_seq } => {
            out.push(TAG_RESUMED);
            put_u64(out, session);
            put_u32(out, last_seq);
        }
        ServerFrame::HandoffAck { session, last_seq } => {
            out.push(TAG_HANDOFF_ACK);
            put_u64(out, session);
            put_u32(out, last_seq);
        }
        ServerFrame::NotOwner { session, owner } => {
            out.push(TAG_NOT_OWNER);
            put_u64(out, session);
            match owner {
                SocketAddr::V4(a) => {
                    out.push(4);
                    out.extend_from_slice(&a.ip().octets());
                    put_u16(out, a.port());
                }
                SocketAddr::V6(a) => {
                    out.push(6);
                    out.extend_from_slice(&a.ip().octets());
                    put_u16(out, a.port());
                }
            }
        }
    }
    finish_frame(out, at);
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Bounds-checked cursor over one frame body.
pub(crate) struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Bytes consumed so far (the cursor position).
    pub(crate) fn consumed(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Malformed { what })?;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or(WireError::Malformed { what })?;
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    pub(crate) fn u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub(crate) fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub(crate) fn f64(&mut self, what: &'static str) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64(what)?))
    }
}

/// Splits off the next frame body from `buf`. `Ok(None)` means the buffer
/// holds an incomplete frame (wait for more bytes); `Ok(Some)` yields the
/// body and the total bytes consumed (prefix included).
fn next_body(buf: &[u8]) -> Result<Option<(&[u8], usize)>, WireError> {
    let Some(prefix) = buf.get(..4) else {
        return Ok(None);
    };
    let len = usize::try_from(u32::from_le_bytes([prefix[0], prefix[1], prefix[2], prefix[3]]))
        .map_err(|_| WireError::IntOutOfRange { what: "frame length" })?;
    if len == 0 {
        return Err(WireError::EmptyFrame);
    }
    // The cap depends on the tag: only EventBatch and Handoff may exceed
    // the single-frame limit. Until the tag byte arrives only the
    // absolute bound (the largest per-tag cap) can be enforced; one more
    // byte settles it.
    if len > MAX_HANDOFF_FRAME_LEN {
        return Err(WireError::Oversized { len });
    }
    let Some(&tag) = buf.get(4) else {
        return Ok(None);
    };
    let cap = match tag {
        TAG_EVENT_BATCH => MAX_BATCH_FRAME_LEN,
        TAG_HANDOFF => MAX_HANDOFF_FRAME_LEN,
        _ => MAX_FRAME_LEN,
    };
    if len > cap {
        return Err(WireError::Oversized { len });
    }
    match buf.get(4..4 + len) {
        Some(body) => Ok(Some((body, 4 + len))),
        None => Ok(None),
    }
}

fn finish_body(cur: &Cur<'_>) -> Result<(), WireError> {
    match cur.remaining() {
        0 => Ok(()),
        extra => Err(WireError::TrailingBytes { extra }),
    }
}

/// A zero-copy view over one `EventBatch` frame's packed records,
/// borrowed straight from the receive buffer. Every record was validated
/// when the view was constructed, so iteration is infallible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventBatchView<'a> {
    session: u64,
    records: &'a [u8],
}

impl<'a> EventBatchView<'a> {
    /// The session every record in the batch belongs to.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Number of records in the batch.
    pub fn len(&self) -> usize {
        self.records.len() / EVENT_RECORD_LEN
    }

    /// `true` when the batch carries no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates the `(seq, event)` records in send order without
    /// allocating or copying.
    pub fn iter(&self) -> EventBatchIter<'a> {
        EventBatchIter { rest: self.records }
    }
}

impl<'a> IntoIterator for &EventBatchView<'a> {
    type Item = (u32, InputEvent);
    type IntoIter = EventBatchIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over an [`EventBatchView`]'s records.
#[derive(Debug, Clone)]
pub struct EventBatchIter<'a> {
    rest: &'a [u8],
}

impl Iterator for EventBatchIter<'_> {
    type Item = (u32, InputEvent);

    fn next(&mut self) -> Option<Self::Item> {
        if self.rest.len() < EVENT_RECORD_LEN {
            return None;
        }
        let (rec, rest) = self.rest.split_at(EVENT_RECORD_LEN);
        self.rest = rest;
        let seq = u32::from_le_bytes([rec[0], rec[1], rec[2], rec[3]]);
        // Validated at decode time; a mismatch here would be a codec bug
        // and ends iteration rather than panicking.
        let kind = kind_from_bytes(rec[4], rec[5]).ok()?;
        let bits = |at: usize| {
            u64::from_le_bytes([
                rec[at],
                rec[at + 1],
                rec[at + 2],
                rec[at + 3],
                rec[at + 4],
                rec[at + 5],
                rec[at + 6],
                rec[at + 7],
            ])
        };
        let event = InputEvent::new(
            kind,
            f64::from_bits(bits(6)),
            f64::from_bits(bits(14)),
            f64::from_bits(bits(22)),
        );
        Some((seq, event))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.rest.len() / EVENT_RECORD_LEN;
        (n, Some(n))
    }
}

/// A decoded client frame that borrows batch payloads from the input
/// buffer instead of copying them — the allocation-free fast path used by
/// the transports. [`ClientFrameView::into_frame`] converts to the owned
/// [`ClientFrame`] when a copy is wanted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClientFrameView<'a> {
    /// See [`ClientFrame::Hello`].
    Hello {
        /// The client's wire version.
        version: u16,
    },
    /// See [`ClientFrame::Open`].
    Open {
        /// Session id.
        session: u64,
    },
    /// See [`ClientFrame::Event`].
    Event {
        /// Session id.
        session: u64,
        /// Client-assigned sequence number.
        seq: u32,
        /// The raw event.
        event: InputEvent,
    },
    /// See [`ClientFrame::EventBatch`]; the records stay in the receive
    /// buffer.
    EventBatch(EventBatchView<'a>),
    /// See [`ClientFrame::Close`].
    Close {
        /// Session id.
        session: u64,
        /// Client-assigned sequence number.
        seq: u32,
    },
    /// See [`ClientFrame::Resume`].
    Resume {
        /// Session id.
        session: u64,
        /// Client's last-acked sequence number (advisory).
        last_seq: u32,
    },
    /// See [`ClientFrame::Handoff`]; the snapshot bytes stay in the
    /// receive buffer.
    Handoff {
        /// The encoded snapshot bytes, borrowed from the input buffer.
        snapshot: &'a [u8],
    },
}

impl ClientFrameView<'_> {
    /// Copies the view into an owned [`ClientFrame`] (allocates for
    /// batches; the transports never call this on the hot path).
    pub fn into_frame(self) -> ClientFrame {
        match self {
            ClientFrameView::Hello { version } => ClientFrame::Hello { version },
            ClientFrameView::Open { session } => ClientFrame::Open { session },
            ClientFrameView::Event {
                session,
                seq,
                event,
            } => ClientFrame::Event {
                session,
                seq,
                event,
            },
            ClientFrameView::EventBatch(view) => ClientFrame::EventBatch {
                session: view.session(),
                events: view.iter().collect(),
            },
            ClientFrameView::Close { session, seq } => ClientFrame::Close { session, seq },
            ClientFrameView::Resume { session, last_seq } => {
                ClientFrame::Resume { session, last_seq }
            }
            ClientFrameView::Handoff { snapshot } => ClientFrame::Handoff {
                snapshot: snapshot.to_vec(),
            },
        }
    }
}

fn decode_batch_body<'a>(cur: &mut Cur<'a>) -> Result<EventBatchView<'a>, WireError> {
    let session = cur.u64("session")?;
    let count = usize::from(cur.u16("batch count")?);
    if count > MAX_BATCH_EVENTS {
        return Err(WireError::Malformed {
            what: "batch count",
        });
    }
    let records = cur.take(count * EVENT_RECORD_LEN, "batch records")?;
    // Validate every record now so the view's iterator cannot fail.
    for rec in records.chunks_exact(EVENT_RECORD_LEN) {
        kind_from_bytes(rec[4], rec[5])?;
    }
    Ok(EventBatchView { session, records })
}

/// Decodes the next client frame from `buf` without copying batch
/// payloads. Returns `Ok(None)` while the frame is incomplete,
/// `Ok(Some((view, consumed)))` on success, and a typed [`WireError`] on
/// protocol violation. Never panics on any input.
pub fn decode_client_view(buf: &[u8]) -> Result<Option<(ClientFrameView<'_>, usize)>, WireError> {
    let Some((body, consumed)) = next_body(buf)? else {
        return Ok(None);
    };
    let mut cur = Cur::new(body);
    let view = match cur.u8("tag")? {
        TAG_HELLO => ClientFrameView::Hello {
            version: cur.u16("version")?,
        },
        TAG_OPEN => ClientFrameView::Open {
            session: cur.u64("session")?,
        },
        TAG_EVENT => {
            let session = cur.u64("session")?;
            let seq = cur.u32("seq")?;
            let kind = cur.u8("event kind")?;
            let button = cur.u8("button")?;
            let x = cur.f64("x")?;
            let y = cur.f64("y")?;
            let t = cur.f64("t")?;
            ClientFrameView::Event {
                session,
                seq,
                event: InputEvent::new(kind_from_bytes(kind, button)?, x, y, t),
            }
        }
        TAG_EVENT_BATCH => ClientFrameView::EventBatch(decode_batch_body(&mut cur)?),
        TAG_CLOSE => ClientFrameView::Close {
            session: cur.u64("session")?,
            seq: cur.u32("seq")?,
        },
        TAG_RESUME => ClientFrameView::Resume {
            session: cur.u64("session")?,
            last_seq: cur.u32("last seq")?,
        },
        TAG_HANDOFF => ClientFrameView::Handoff {
            snapshot: cur.take(cur.remaining(), "snapshot")?,
        },
        tag => return Err(WireError::UnknownTag { tag }),
    };
    finish_body(&cur)?;
    Ok(Some((view, consumed)))
}

/// Decodes the next client frame from `buf` into the owned
/// [`ClientFrame`]; same contract as [`decode_client_view`] (which the
/// transports use to avoid the batch copy).
pub fn decode_client(buf: &[u8]) -> Result<Option<(ClientFrame, usize)>, WireError> {
    match decode_client_view(buf)? {
        None => Ok(None),
        Some((view, consumed)) => Ok(Some((view.into_frame(), consumed))),
    }
}

/// Decodes the next server frame from `buf`; same contract as
/// [`decode_client`].
pub fn decode_server(buf: &[u8]) -> Result<Option<(ServerFrame, usize)>, WireError> {
    let Some((body, consumed)) = next_body(buf)? else {
        return Ok(None);
    };
    let mut cur = Cur::new(body);
    let frame = match cur.u8("tag")? {
        TAG_RECOGNIZED => ServerFrame::Recognized {
            session: cur.u64("session")?,
            seq: cur.u32("seq")?,
            class: cur.u16("class")?,
            points: cur.u32("points")?,
        },
        TAG_MANIPULATE => ServerFrame::Manipulate {
            session: cur.u64("session")?,
            seq: cur.u32("seq")?,
            x: cur.f64("x")?,
            y: cur.f64("y")?,
        },
        TAG_OUTCOME => {
            let session = cur.u64("session")?;
            let seq = cur.u32("seq")?;
            let outcome = OutcomeKind::from_u8(cur.u8("outcome")?)?;
            let class = match cur.u16("class")? {
                NO_CLASS => None,
                c => Some(c),
            };
            ServerFrame::Outcome {
                session,
                seq,
                outcome,
                class,
                total_points: cur.u32("total points")?,
                faults: cur.u32("faults")?,
            }
        }
        TAG_FAULT => ServerFrame::Fault {
            session: cur.u64("session")?,
            seq: cur.u32("seq")?,
            code: FaultCode::from_u8(cur.u8("fault code")?)?,
        },
        TAG_RESUMED => ServerFrame::Resumed {
            session: cur.u64("session")?,
            last_seq: cur.u32("last seq")?,
        },
        TAG_HANDOFF_ACK => ServerFrame::HandoffAck {
            session: cur.u64("session")?,
            last_seq: cur.u32("last seq")?,
        },
        TAG_NOT_OWNER => {
            let session = cur.u64("session")?;
            let owner = match cur.u8("address family")? {
                4 => {
                    let b = cur.take(4, "ipv4 octets")?;
                    let ip = Ipv4Addr::new(b[0], b[1], b[2], b[3]);
                    SocketAddr::V4(SocketAddrV4::new(ip, cur.u16("port")?))
                }
                6 => {
                    let b = cur.take(16, "ipv6 octets")?;
                    let mut octets = [0u8; 16];
                    octets.copy_from_slice(b);
                    let ip = Ipv6Addr::from(octets);
                    SocketAddr::V6(SocketAddrV6::new(ip, cur.u16("port")?, 0, 0))
                }
                value => {
                    return Err(WireError::BadEnum {
                        what: "address family",
                        value,
                    })
                }
            };
            ServerFrame::NotOwner { session, owner }
        }
        tag => return Err(WireError::UnknownTag { tag }),
    };
    finish_body(&cur)?;
    Ok(Some((frame, consumed)))
}

/// Incremental framing over a byte stream: [`FrameBuffer::extend`] with
/// whatever the transport delivered, then drain complete frames with
/// [`FrameBuffer::next_client`] / [`FrameBuffer::next_server`].
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    start: usize,
}

impl FrameBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw transport bytes. Compaction happens here — never in
    /// the frame-draining calls — so a [`ClientFrameView`] borrowed from
    /// the buffer stays valid until the next `extend`.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Reclaim the consumed prefix once it dominates the buffer,
        // keeping the amortized cost linear and the steady-state
        // footprint bounded.
        if self.start > 4096 && self.start * 2 > self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Unconsumed bytes currently buffered.
    pub fn pending(&self) -> usize {
        self.buf.len().saturating_sub(self.start)
    }

    fn advance(&mut self, consumed: usize) {
        self.start += consumed;
    }

    /// Next complete client frame, if one is buffered.
    pub fn next_client(&mut self) -> Result<Option<ClientFrame>, WireError> {
        let tail = self.buf.get(self.start..).unwrap_or(&[]);
        match decode_client(tail)? {
            Some((frame, consumed)) => {
                self.advance(consumed);
                Ok(Some(frame))
            }
            None => Ok(None),
        }
    }

    /// Next complete client frame as a borrowed [`ClientFrameView`] — the
    /// allocation-free decode path. The view borrows this buffer and is
    /// invalidated by the next [`FrameBuffer::extend`].
    pub fn next_client_view(&mut self) -> Result<Option<ClientFrameView<'_>>, WireError> {
        match decode_client_view(self.buf.get(self.start..).unwrap_or(&[]))? {
            Some((view, consumed)) => {
                self.start += consumed;
                Ok(Some(view))
            }
            None => Ok(None),
        }
    }

    /// Next complete server frame, if one is buffered.
    pub fn next_server(&mut self) -> Result<Option<ServerFrame>, WireError> {
        let tail = self.buf.get(self.start..).unwrap_or(&[]);
        match decode_server(tail)? {
            Some((frame, consumed)) => {
                self.advance(consumed);
                Ok(Some(frame))
            }
            None => Ok(None),
        }
    }
}

/// Maps a sanitizer repair to its wire fault code.
pub fn fault_code_of(fault: &grandma_events::StreamFault) -> FaultCode {
    use grandma_events::StreamFault as F;
    match fault {
        F::NonFiniteCoordinates { .. } => FaultCode::NonFiniteCoordinates,
        F::NonFiniteTimestamp { .. } => FaultCode::NonFiniteTimestamp,
        F::OutOfOrder { .. } => FaultCode::OutOfOrder,
        F::DroppedStale { .. } => FaultCode::DroppedStale,
        F::DuplicateMouseDown { .. } => FaultCode::DuplicateMouseDown,
        F::UnmatchedMouseUp { .. } => FaultCode::UnmatchedMouseUp,
        F::MissingMouseUp { .. } => FaultCode::MissingMouseUp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_client(frame: ClientFrame) {
        let mut bytes = Vec::new();
        encode_client(&frame, &mut bytes);
        let (decoded, consumed) = decode_client(&bytes)
            .expect("decodes")
            .expect("complete frame");
        assert_eq!(consumed, bytes.len());
        assert_eq!(decoded, frame);
    }

    fn roundtrip_server(frame: ServerFrame) {
        let mut bytes = Vec::new();
        encode_server(&frame, &mut bytes);
        let (decoded, consumed) = decode_server(&bytes)
            .expect("decodes")
            .expect("complete frame");
        assert_eq!(consumed, bytes.len());
        assert_eq!(decoded, frame);
    }

    #[test]
    fn client_frames_round_trip() {
        roundtrip_client(ClientFrame::Hello {
            version: WIRE_VERSION,
        });
        roundtrip_client(ClientFrame::Open { session: u64::MAX });
        roundtrip_client(ClientFrame::Event {
            session: 7,
            seq: 42,
            event: InputEvent::new(
                EventKind::MouseDown {
                    button: Button::Middle,
                },
                1.5,
                -2.5,
                1e12,
            ),
        });
        roundtrip_client(ClientFrame::Close { session: 7, seq: 43 });
        roundtrip_client(ClientFrame::Resume {
            session: 7,
            last_seq: 41,
        });
    }

    #[test]
    fn resume_frames_round_trip_and_view_matches() {
        roundtrip_server(ServerFrame::Resumed {
            session: u64::MAX,
            last_seq: u32::MAX,
        });
        let frame = ClientFrame::Resume {
            session: 0xFEED,
            last_seq: 17,
        };
        let mut bytes = Vec::new();
        encode_client(&frame, &mut bytes);
        let (view, consumed) = decode_client_view(&bytes)
            .expect("decodes")
            .expect("complete frame");
        assert_eq!(consumed, bytes.len());
        assert_eq!(
            view,
            ClientFrameView::Resume {
                session: 0xFEED,
                last_seq: 17
            }
        );
        assert_eq!(view.into_frame(), frame);
    }

    #[test]
    fn server_frames_round_trip() {
        roundtrip_server(ServerFrame::Recognized {
            session: 9,
            seq: 1,
            class: 3,
            points: 17,
        });
        roundtrip_server(ServerFrame::Manipulate {
            session: 9,
            seq: 2,
            x: 0.25,
            y: -0.75,
        });
        roundtrip_server(ServerFrame::Outcome {
            session: 9,
            seq: 3,
            outcome: OutcomeKind::Manipulated,
            class: Some(3),
            total_points: 40,
            faults: 2,
        });
        roundtrip_server(ServerFrame::Outcome {
            session: 9,
            seq: 4,
            outcome: OutcomeKind::Rejected,
            class: None,
            total_points: 5,
            faults: 0,
        });
        roundtrip_server(ServerFrame::Fault {
            session: 9,
            seq: 5,
            code: FaultCode::Busy,
        });
    }

    #[test]
    fn handoff_frames_round_trip_owned_and_viewed() {
        for len in [0usize, 1, 57, 4096] {
            let snapshot: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let frame = ClientFrame::Handoff {
                snapshot: snapshot.clone(),
            };
            let mut bytes = Vec::new();
            encode_client(&frame, &mut bytes);
            let (decoded, consumed) = decode_client(&bytes)
                .expect("decodes")
                .expect("complete frame");
            assert_eq!(consumed, bytes.len(), "len = {len}");
            assert_eq!(decoded, frame, "len = {len}");
            let (view, _) = decode_client_view(&bytes)
                .expect("view decodes")
                .expect("complete");
            let ClientFrameView::Handoff { snapshot: borrowed } = view else {
                panic!("expected a handoff view");
            };
            assert_eq!(borrowed, snapshot.as_slice());
        }
    }

    #[test]
    fn handoff_ack_and_not_owner_round_trip() {
        roundtrip_server(ServerFrame::HandoffAck {
            session: u64::MAX,
            last_seq: 91,
        });
        roundtrip_server(ServerFrame::NotOwner {
            session: 0xFACE,
            owner: "127.0.0.1:9901".parse().expect("v4 addr"),
        });
        roundtrip_server(ServerFrame::NotOwner {
            session: 3,
            owner: "[2001:db8::17]:443".parse().expect("v6 addr"),
        });
    }

    #[test]
    fn not_owner_bad_address_family_is_typed() {
        let mut bytes = Vec::new();
        encode_server(
            &ServerFrame::NotOwner {
                session: 1,
                owner: "10.0.0.1:80".parse().expect("v4 addr"),
            },
            &mut bytes,
        );
        // Family byte sits after prefix(4) + tag(1) + session(8).
        bytes[13] = 9;
        assert_eq!(
            decode_server(&bytes),
            Err(WireError::BadEnum {
                what: "address family",
                value: 9
            })
        );
    }

    #[test]
    fn handoff_cap_is_enforced_per_tag() {
        // A Handoff may exceed the batch cap…
        let frame = ClientFrame::Handoff {
            snapshot: vec![0xAB; MAX_BATCH_FRAME_LEN + 100],
        };
        let mut bytes = Vec::new();
        encode_client(&frame, &mut bytes);
        let (decoded, _) = decode_client(&bytes).expect("decodes").expect("complete");
        assert_eq!(decoded, frame);
        // …but not the handoff cap itself.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&((MAX_HANDOFF_FRAME_LEN as u32) + 1).to_le_bytes());
        bytes.push(TAG_HANDOFF);
        assert_eq!(
            decode_client(&bytes),
            Err(WireError::Oversized {
                len: MAX_HANDOFF_FRAME_LEN + 1
            })
        );
        // A non-handoff tag claiming a huge length dies at the small cap.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&((MAX_FRAME_LEN as u32) + 1).to_le_bytes());
        bytes.push(TAG_OPEN);
        assert_eq!(
            decode_client(&bytes),
            Err(WireError::Oversized {
                len: MAX_FRAME_LEN + 1
            })
        );
    }

    #[test]
    fn non_finite_floats_cross_the_wire_bit_exact() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let frame = ClientFrame::Event {
                session: 1,
                seq: 0,
                event: InputEvent::new(EventKind::MouseMove, bad, 2.0, bad),
            };
            let mut bytes = Vec::new();
            encode_client(&frame, &mut bytes);
            let (decoded, _) = decode_client(&bytes).unwrap().unwrap();
            if let ClientFrame::Event { event, .. } = decoded {
                assert_eq!(event.x.to_bits(), bad.to_bits());
                assert_eq!(event.t.to_bits(), bad.to_bits());
            } else {
                panic!("wrong frame kind");
            }
        }
    }

    #[test]
    fn incomplete_prefixes_wait_for_more_bytes() {
        let mut bytes = Vec::new();
        encode_client(&ClientFrame::Open { session: 5 }, &mut bytes);
        for cut in 0..bytes.len() {
            assert_eq!(
                decode_client(&bytes[..cut]).expect("truncation is not an error"),
                None,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        bytes.push(TAG_OPEN);
        assert_eq!(
            decode_client(&bytes),
            Err(WireError::Oversized {
                len: u32::MAX as usize
            })
        );
    }

    #[test]
    fn zero_length_and_bad_tag_are_typed_errors() {
        assert_eq!(decode_client(&0u32.to_le_bytes()), Err(WireError::EmptyFrame));
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(0x7f);
        assert_eq!(decode_client(&bytes), Err(WireError::UnknownTag { tag: 0x7f }));
    }

    #[test]
    fn trailing_bytes_inside_a_frame_are_rejected() {
        let mut bytes = Vec::new();
        encode_client(&ClientFrame::Open { session: 5 }, &mut bytes);
        // Grow the declared length by one and append a stray byte.
        let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) + 1;
        bytes[..4].copy_from_slice(&len.to_le_bytes());
        bytes.push(0xEE);
        assert_eq!(decode_client(&bytes), Err(WireError::TrailingBytes { extra: 1 }));
    }

    fn batch_events(n: usize) -> Vec<(u32, InputEvent)> {
        (0..n)
            .map(|i| {
                let kind = match i % 3 {
                    0 => EventKind::MouseDown {
                        button: Button::Left,
                    },
                    1 => EventKind::MouseMove,
                    _ => EventKind::MouseUp {
                        button: Button::Right,
                    },
                };
                (
                    i as u32,
                    InputEvent::new(kind, i as f64 * 1.5, -(i as f64), i as f64),
                )
            })
            .collect()
    }

    #[test]
    fn event_batch_round_trips_owned_and_viewed() {
        for n in [0usize, 1, 7, MAX_BATCH_EVENTS] {
            let frame = ClientFrame::EventBatch {
                session: 0xDEAD_BEEF,
                events: batch_events(n),
            };
            let mut bytes = Vec::new();
            encode_client(&frame, &mut bytes);
            let (decoded, consumed) = decode_client(&bytes)
                .expect("decodes")
                .expect("complete frame");
            assert_eq!(consumed, bytes.len(), "n = {n}");
            assert_eq!(decoded, frame, "n = {n}");
            // The borrowed view yields the same records without copying.
            let (view, _) = decode_client_view(&bytes)
                .expect("view decodes")
                .expect("complete");
            let ClientFrameView::EventBatch(batch) = view else {
                panic!("expected a batch view");
            };
            assert_eq!(batch.session(), 0xDEAD_BEEF);
            assert_eq!(batch.len(), n);
            let collected: Vec<_> = batch.iter().collect();
            assert_eq!(collected, batch_events(n));
        }
    }

    #[test]
    fn oversized_batches_split_across_frames() {
        let events = batch_events(MAX_BATCH_EVENTS + 3);
        let mut bytes = Vec::new();
        encode_event_batch(9, &events, &mut bytes);
        let mut got = Vec::new();
        let mut pos = 0usize;
        while pos < bytes.len() {
            let (view, consumed) = decode_client_view(&bytes[pos..])
                .expect("decodes")
                .expect("complete");
            let ClientFrameView::EventBatch(batch) = view else {
                panic!("expected batch frames");
            };
            assert!(batch.len() <= MAX_BATCH_EVENTS);
            got.extend(batch.iter());
            pos += consumed;
        }
        assert_eq!(got, events, "split batches concatenate losslessly");
    }

    #[test]
    fn batch_count_beyond_cap_is_malformed() {
        let mut bytes = Vec::new();
        encode_event_batch(1, &batch_events(2), &mut bytes);
        // Forge the count to exceed the cap while leaving the length
        // prefix intact: must be rejected, not iterated.
        let count = (MAX_BATCH_EVENTS as u16 + 1).to_le_bytes();
        bytes[13..15].copy_from_slice(&count);
        assert_eq!(
            decode_client(&bytes),
            Err(WireError::Malformed {
                what: "batch count"
            })
        );
    }

    #[test]
    fn batch_record_count_mismatch_is_rejected() {
        let mut bytes = Vec::new();
        encode_event_batch(1, &batch_events(2), &mut bytes);
        // Claim 3 records while carrying 2: the record take runs out.
        bytes[13..15].copy_from_slice(&3u16.to_le_bytes());
        assert_eq!(
            decode_client(&bytes),
            Err(WireError::Malformed {
                what: "batch records"
            })
        );
        // Claim 1 record while carrying 2: trailing bytes.
        let mut bytes = Vec::new();
        encode_event_batch(1, &batch_events(2), &mut bytes);
        bytes[13..15].copy_from_slice(&1u16.to_le_bytes());
        assert_eq!(
            decode_client(&bytes),
            Err(WireError::TrailingBytes {
                extra: EVENT_RECORD_LEN
            })
        );
    }

    #[test]
    fn batch_bad_event_kind_is_typed_not_panicking() {
        let mut bytes = Vec::new();
        encode_event_batch(1, &batch_events(2), &mut bytes);
        // First record's kind byte: prefix(4) + tag(1) + session(8) +
        // count(2) + seq(4) = offset 19.
        bytes[19] = 0x7F;
        assert_eq!(
            decode_client(&bytes),
            Err(WireError::BadEnum {
                what: "event kind",
                value: 0x7F
            })
        );
    }

    #[test]
    fn batch_floats_cross_the_wire_bit_exact() {
        let events = vec![
            (0, InputEvent::new(EventKind::MouseMove, f64::NAN, f64::INFINITY, -0.0)),
            (1, InputEvent::new(EventKind::MouseMove, f64::NEG_INFINITY, 1e-310, f64::NAN)),
        ];
        let mut bytes = Vec::new();
        encode_event_batch(5, &events, &mut bytes);
        let (view, _) = decode_client_view(&bytes).unwrap().unwrap();
        let ClientFrameView::EventBatch(batch) = view else {
            panic!("expected batch");
        };
        for ((_, got), (_, want)) in batch.iter().zip(&events) {
            assert_eq!(got.x.to_bits(), want.x.to_bits());
            assert_eq!(got.y.to_bits(), want.y.to_bits());
            assert_eq!(got.t.to_bits(), want.t.to_bits());
        }
    }

    #[test]
    fn frame_buffer_views_survive_byte_at_a_time_chunking() {
        let mut bytes = Vec::new();
        encode_event_batch(7, &batch_events(40), &mut bytes);
        encode_client(&ClientFrame::Close { session: 7, seq: 40 }, &mut bytes);
        let mut fb = FrameBuffer::new();
        let mut batch_records = Vec::new();
        let mut got_close = false;
        for b in bytes {
            fb.extend(&[b]);
            loop {
                match fb.next_client_view().expect("valid stream") {
                    Some(ClientFrameView::EventBatch(batch)) => {
                        batch_records.extend(batch.iter());
                    }
                    Some(ClientFrameView::Close { session: 7, seq: 40 }) => got_close = true,
                    Some(other) => panic!("unexpected frame {other:?}"),
                    None => break,
                }
            }
        }
        assert_eq!(batch_records, batch_events(40));
        assert!(got_close);
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn frame_buffer_reassembles_split_frames() {
        let mut bytes = Vec::new();
        encode_server(
            &ServerFrame::Fault {
                session: 3,
                seq: 9,
                code: FaultCode::OutOfOrder,
            },
            &mut bytes,
        );
        encode_server(
            &ServerFrame::Manipulate {
                session: 3,
                seq: 10,
                x: 1.0,
                y: 2.0,
            },
            &mut bytes,
        );
        let mut fb = FrameBuffer::new();
        let mut got = Vec::new();
        for b in bytes {
            fb.extend(&[b]);
            while let Some(f) = fb.next_server().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got.len(), 2);
        assert!(matches!(got[0], ServerFrame::Fault { .. }));
        assert!(matches!(got[1], ServerFrame::Manipulate { .. }));
        assert_eq!(fb.pending(), 0);
    }
}
