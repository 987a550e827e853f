//! Output check: every session's reply frames, byte for byte, against
//! `run_events_inproc` on the same stream and model.
//!
//! Session ids differ between the live run and the reference, so each
//! frame's session field is zeroed before it is appended; everything else
//! (tags, seqs, classes, coordinates as raw f64 bits, fault codes) must
//! match exactly.

use std::ops::Range;

/// Where the session id sits in every server frame: after the 4-byte
/// length prefix and the 1-byte tag.
const SESSION_FIELD: Range<usize> = 5..13;

/// Appends one raw server frame to `out` with its session field zeroed.
pub fn push_normalized(raw_frame: &[u8], out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(raw_frame);
    if let Some(field) = out.get_mut(start + SESSION_FIELD.start..start + SESSION_FIELD.end) {
        field.fill(0);
    }
}

/// Offset of the first differing byte, or `None` when identical.
pub fn first_mismatch(expected: &[u8], got: &[u8]) -> Option<usize> {
    expected
        .iter()
        .zip(got)
        .position(|(a, b)| a != b)
        .or_else(|| (expected.len() != got.len()).then(|| expected.len().min(got.len())))
}

/// How one session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Replies identical to the reference.
    Match,
    /// The session failed (Busy, timeout, decode error, missing Closed);
    /// its replies are not compared.
    Failed,
    /// Replies differ from the reference at this byte offset.
    Mismatch {
        /// First differing byte.
        offset: usize,
    },
}

/// Reply accumulator for one live session.
#[derive(Debug, Default)]
pub struct ReplyCheck {
    received: Vec<u8>,
    failed: bool,
}

impl ReplyCheck {
    /// Clears the accumulator for the slot's next session.
    pub fn reset(&mut self) {
        self.received.clear();
        self.failed = false;
    }

    /// Records one raw reply frame.
    pub fn push(&mut self, raw_frame: &[u8]) {
        push_normalized(raw_frame, &mut self.received);
    }

    /// Marks the session failed.
    pub fn fail(&mut self) {
        self.failed = true;
    }

    /// Whether the session was marked failed.
    pub fn failed(&self) -> bool {
        self.failed
    }

    /// Judges the session against its reference reply stream.
    pub fn finish(&self, expected: &[u8]) -> Verdict {
        if self.failed {
            return Verdict::Failed;
        }
        match first_mismatch(expected, &self.received) {
            None => Verdict::Match,
            Some(offset) => Verdict::Mismatch { offset },
        }
    }
}
