//! Input-stream sanitization: the hardened front door of the pipeline.
//!
//! GRANDMA ran against a live X10 server, where grabs break, pointers
//! warp, and event streams arrive malformed. This module is the
//! deterministic reproduction of that defensive layer: an
//! [`EventSanitizer`] sits between the raw device stream and the
//! `EventQueue`/`DwellDetector`/dispatcher stack, normalizing the stream
//! so that everything downstream may assume the [`InputEvent`]
//! monotonicity contract (finite, non-decreasing timestamps; balanced
//! down/up pairs).
//!
//! Repair rules, in the order they are applied to each event:
//!
//! 1. **Non-finite coordinates** — repaired to the last known-good pointer
//!    position when one exists, otherwise the event is dropped
//!    ([`StreamFault::NonFiniteCoordinates`]).
//! 2. **Non-finite timestamps** — repaired to the last delivered timestamp
//!    (time stands still), or dropped when no event has been delivered yet
//!    ([`StreamFault::NonFiniteTimestamp`]).
//! 3. **Out-of-order timestamps** — an event older than the last delivered
//!    one is *reordered* to the present (its timestamp clamped up) when the
//!    regression is within [`SanitizerConfig::reorder_window_ms`], and
//!    dropped when it is further in the past
//!    ([`StreamFault::OutOfOrder`] / [`StreamFault::DroppedStale`]).
//! 4. **Stuck interactions** — while a button is down, a gap longer than
//!    [`SanitizerConfig::grab_timeout_ms`] with no intervening `MouseUp`
//!    means the grab broke: a [`EventKind::GrabBreak`] is synthesized
//!    *before* the current event so handlers cancel cleanly
//!    ([`StreamFault::MissingMouseUp`]).
//! 5. **Duplicate `MouseDown`s** — a second down while a button is held is
//!    demoted to a `MouseMove` (the position information is still real)
//!    ([`StreamFault::DuplicateMouseDown`]).
//! 6. **Unmatched `MouseUp`s** — an up with no interaction in progress is
//!    dropped ([`StreamFault::UnmatchedMouseUp`]).
//!
//! Every repair is reported as a typed [`StreamFault`], so callers can
//! budget faults per interaction (see the toolkit's `GestureHandler`) or
//! log them for diagnosis. Sanitization is pure state-machine work — the
//! same input stream always yields the same output stream and fault log.
//!
//! # Examples
//!
//! ```
//! use grandma_events::{Button, EventKind, EventSanitizer, InputEvent};
//!
//! let mut s = EventSanitizer::new();
//! let down = InputEvent::new(EventKind::MouseDown { button: Button::Left }, 0.0, 0.0, 0.0);
//! assert_eq!(s.process(down).len(), 1);
//! // A NaN coordinate is repaired to the last good position.
//! let bad = InputEvent::new(EventKind::MouseMove, f64::NAN, 5.0, 10.0);
//! let fixed = s.process(bad);
//! assert_eq!(fixed.len(), 1);
//! assert_eq!(fixed[0].x, 0.0);
//! assert_eq!(fixed[0].y, 5.0);
//! assert_eq!(s.faults().len(), 1);
//! ```

use crate::event::{EventKind, InputEvent};

/// One defect the sanitizer found (and what it did about it).
///
/// Each variant records the timestamp context needed to line the fault up
/// with the stream; `repaired` distinguishes a patched event from a
/// dropped one where both outcomes are possible.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamFault {
    /// An event carried NaN/infinite x or y. Repaired to the last good
    /// position when one existed, dropped otherwise.
    NonFiniteCoordinates {
        /// Timestamp of the offending event (possibly non-finite itself).
        t: f64,
        /// `true` when the event was patched and delivered.
        repaired: bool,
    },
    /// An event carried a NaN/infinite timestamp. Repaired to the last
    /// delivered timestamp when one existed, dropped otherwise.
    NonFiniteTimestamp {
        /// `true` when the event was patched and delivered.
        repaired: bool,
    },
    /// An event arrived with a timestamp earlier than the last delivered
    /// one, within the reorder window; its timestamp was clamped up.
    OutOfOrder {
        /// The timestamp the event arrived with.
        t: f64,
        /// How far in the past it was (ms, positive).
        regression_ms: f64,
    },
    /// An event was older than the reorder window allows and was dropped.
    DroppedStale {
        /// The timestamp the event arrived with.
        t: f64,
        /// How far in the past it was (ms, positive).
        regression_ms: f64,
    },
    /// A `MouseDown` arrived while a button was already held; the event
    /// was demoted to a `MouseMove`.
    DuplicateMouseDown {
        /// Timestamp of the duplicate down.
        t: f64,
    },
    /// A `MouseUp` arrived with no interaction in progress; dropped.
    UnmatchedMouseUp {
        /// Timestamp of the orphan up.
        t: f64,
    },
    /// A button had been held with no event for longer than the grab
    /// timeout (or the stream ended mid-interaction): a
    /// [`EventKind::GrabBreak`] was synthesized to cancel the interaction.
    MissingMouseUp {
        /// Timestamp assigned to the synthesized `GrabBreak`.
        t: f64,
    },
}

/// Tuning knobs for [`EventSanitizer`].
#[derive(Debug, Clone, PartialEq)]
pub struct SanitizerConfig {
    /// Maximum timestamp regression (ms) that is repaired by clamping;
    /// anything older is dropped as stale.
    pub reorder_window_ms: f64,
    /// Maximum silent gap (ms) inside a button-down interaction before the
    /// grab is presumed broken and a `GrabBreak` is synthesized.
    pub grab_timeout_ms: f64,
}

impl Default for SanitizerConfig {
    fn default() -> Self {
        Self {
            reorder_window_ms: 100.0,
            grab_timeout_ms: 5_000.0,
        }
    }
}

/// The sanitizer's portable mid-stream state: everything a fresh
/// [`EventSanitizer`] needs (beyond its config) to continue a stream
/// exactly where another instance left off. Used by the serving layer's
/// session snapshots — a restored sanitizer must repair the remaining
/// stream identically to one that never stopped.
///
/// The fault log is deliberately *not* part of the state: pending faults
/// are drained and reported before a snapshot is taken, so a restored
/// sanitizer always starts with an empty log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SanitizerState {
    /// Last delivered timestamp (finite once set).
    pub last_t: Option<f64>,
    /// Last known-good pointer position (finite once set).
    pub last_pos: Option<(f64, f64)>,
    /// `true` while a delivered `MouseDown` awaits its `MouseUp`.
    pub interaction_open: bool,
}

/// Streaming sanitizer: feed raw events with [`EventSanitizer::process`],
/// deliver what comes back, and call [`EventSanitizer::finish`] at stream
/// end to close any dangling interaction.
#[derive(Debug, Clone)]
pub struct EventSanitizer {
    config: SanitizerConfig,
    /// Last delivered timestamp (finite once set).
    last_t: Option<f64>,
    /// Last known-good pointer position (finite once set).
    last_pos: Option<(f64, f64)>,
    /// `true` while a sanitized `MouseDown` has been delivered without a
    /// matching `MouseUp`/`GrabBreak`.
    interaction_open: bool,
    faults: Vec<StreamFault>,
}

impl Default for EventSanitizer {
    fn default() -> Self {
        Self::new()
    }
}

impl EventSanitizer {
    /// Creates a sanitizer with [`SanitizerConfig::default`].
    pub fn new() -> Self {
        Self::with_config(SanitizerConfig::default())
    }

    /// Creates a sanitizer with explicit tuning.
    pub fn with_config(config: SanitizerConfig) -> Self {
        Self {
            config,
            last_t: None,
            last_pos: None,
            interaction_open: false,
            faults: Vec::new(),
        }
    }

    /// Every fault recorded since construction (or the last
    /// [`EventSanitizer::take_faults`]), in stream order.
    pub fn faults(&self) -> &[StreamFault] {
        &self.faults
    }

    /// Drains and returns the accumulated fault log.
    pub fn take_faults(&mut self) -> Vec<StreamFault> {
        std::mem::take(&mut self.faults)
    }

    /// Empties the fault log in place, keeping its capacity — the
    /// zero-allocation counterpart of [`EventSanitizer::take_faults`]
    /// for callers that read [`EventSanitizer::faults`] first.
    pub fn clear_faults(&mut self) {
        self.faults.clear();
    }

    /// Returns the sanitizer to its freshly-constructed state (same
    /// config), keeping the fault log's capacity. Lets a pooled consumer
    /// reuse one sanitizer across streams without reallocating.
    pub fn reset(&mut self) {
        self.last_t = None;
        self.last_pos = None;
        self.interaction_open = false;
        self.faults.clear();
    }

    /// `true` while a delivered `MouseDown` awaits its `MouseUp`.
    pub fn interaction_open(&self) -> bool {
        self.interaction_open
    }

    /// Copies out the portable mid-stream state (see [`SanitizerState`]).
    /// The fault log is not included; drain it first with
    /// [`EventSanitizer::take_faults`] if the caller needs it.
    pub fn state(&self) -> SanitizerState {
        SanitizerState {
            last_t: self.last_t,
            last_pos: self.last_pos,
            interaction_open: self.interaction_open,
        }
    }

    /// Overwrites the mid-stream state with a previously captured
    /// [`SanitizerState`], clearing the fault log. After this call the
    /// sanitizer behaves exactly like the instance `state` was taken
    /// from (given the same config).
    pub fn restore_state(&mut self, state: SanitizerState) {
        self.last_t = state.last_t;
        self.last_pos = state.last_pos;
        self.interaction_open = state.interaction_open;
        self.faults.clear();
    }

    /// Sanitizes one raw event. Returns zero, one, or two events to
    /// deliver downstream (two when a `GrabBreak` had to be synthesized in
    /// front of the event).
    pub fn process(&mut self, raw: InputEvent) -> Vec<InputEvent> {
        let mut out = Vec::new();
        self.process_into(raw, &mut out);
        out
    }

    /// [`EventSanitizer::process`] into a caller-provided buffer: appends
    /// the zero, one, or two delivered events to `out` without
    /// allocating. The per-event hot path for callers that reuse one
    /// buffer across an event stream.
    pub fn process_into(&mut self, raw: InputEvent, out: &mut Vec<InputEvent>) {
        let mut event = raw;

        // Rule 1: non-finite coordinates. Only the corrupted axis is
        // repaired; a finite axis still carries real pointer information.
        if !event.x.is_finite() || !event.y.is_finite() {
            match self.last_pos {
                Some((x, y)) => {
                    if !event.x.is_finite() {
                        event.x = x;
                    }
                    if !event.y.is_finite() {
                        event.y = y;
                    }
                    self.faults.push(StreamFault::NonFiniteCoordinates {
                        t: event.t,
                        repaired: true,
                    });
                }
                None => {
                    self.faults.push(StreamFault::NonFiniteCoordinates {
                        t: event.t,
                        repaired: false,
                    });
                    return;
                }
            }
        }

        // Rule 2: non-finite timestamps.
        if !event.t.is_finite() {
            match self.last_t {
                Some(t) => {
                    event.t = t;
                    self.faults
                        .push(StreamFault::NonFiniteTimestamp { repaired: true });
                }
                None => {
                    self.faults
                        .push(StreamFault::NonFiniteTimestamp { repaired: false });
                    return;
                }
            }
        }

        // Rule 3: out-of-order timestamps.
        if let Some(last_t) = self.last_t {
            let regression = last_t - event.t;
            if regression > 0.0 {
                if regression <= self.config.reorder_window_ms {
                    self.faults.push(StreamFault::OutOfOrder {
                        t: event.t,
                        regression_ms: regression,
                    });
                    event.t = last_t;
                } else {
                    self.faults.push(StreamFault::DroppedStale {
                        t: event.t,
                        regression_ms: regression,
                    });
                    return;
                }
            }
        }

        // Rule 4: stuck interaction — the silent gap exceeded the grab
        // timeout, so the up was lost. Cancel before delivering `event`.
        if self.interaction_open {
            if let Some(last_t) = self.last_t {
                if event.t - last_t > self.config.grab_timeout_ms {
                    let (x, y) = self.last_pos.unwrap_or((event.x, event.y));
                    let break_t = last_t + self.config.grab_timeout_ms;
                    out.push(InputEvent::new(EventKind::GrabBreak, x, y, break_t));
                    self.faults.push(StreamFault::MissingMouseUp { t: break_t });
                    self.interaction_open = false;
                }
            }
        }

        // Rules 5 and 6: down/up balance.
        match event.kind {
            EventKind::MouseDown { .. } if self.interaction_open => {
                self.faults
                    .push(StreamFault::DuplicateMouseDown { t: event.t });
                event.kind = EventKind::MouseMove;
            }
            EventKind::MouseDown { .. } => {
                self.interaction_open = true;
            }
            EventKind::MouseUp { .. } | EventKind::GrabBreak if !self.interaction_open => {
                self.faults
                    .push(StreamFault::UnmatchedMouseUp { t: event.t });
                return;
            }
            EventKind::MouseUp { .. } | EventKind::GrabBreak => {
                self.interaction_open = false;
            }
            EventKind::MouseMove | EventKind::Timeout => {}
        }

        self.last_t = Some(event.t);
        self.last_pos = Some((event.x, event.y));
        out.push(event);
    }

    /// Ends the stream: when an interaction is still open, synthesizes the
    /// missing-up `GrabBreak` so downstream handlers return to idle.
    pub fn finish(&mut self) -> Vec<InputEvent> {
        let mut out = Vec::new();
        self.finish_into(&mut out);
        out
    }

    /// [`EventSanitizer::finish`] into a caller-provided buffer.
    pub fn finish_into(&mut self, out: &mut Vec<InputEvent>) {
        if self.interaction_open {
            let (x, y) = self.last_pos.unwrap_or((0.0, 0.0));
            let t = self.last_t.unwrap_or(0.0) + self.config.grab_timeout_ms;
            out.push(InputEvent::new(EventKind::GrabBreak, x, y, t));
            self.faults.push(StreamFault::MissingMouseUp { t });
            self.interaction_open = false;
        }
    }

    /// Sanitizes a whole stream, including the end-of-stream flush.
    /// Returns the normalized stream and the fault log for it.
    pub fn sanitize(events: &[InputEvent]) -> (Vec<InputEvent>, Vec<StreamFault>) {
        Self::sanitize_with(events, SanitizerConfig::default())
    }

    /// [`EventSanitizer::sanitize`] with explicit tuning.
    pub fn sanitize_with(
        events: &[InputEvent],
        config: SanitizerConfig,
    ) -> (Vec<InputEvent>, Vec<StreamFault>) {
        let mut s = Self::with_config(config);
        let mut out = Vec::with_capacity(events.len());
        for &e in events {
            out.extend(s.process(e));
        }
        out.extend(s.finish());
        (out, s.take_faults())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Button;

    fn down(x: f64, y: f64, t: f64) -> InputEvent {
        InputEvent::new(
            EventKind::MouseDown {
                button: Button::Left,
            },
            x,
            y,
            t,
        )
    }
    fn mv(x: f64, y: f64, t: f64) -> InputEvent {
        InputEvent::new(EventKind::MouseMove, x, y, t)
    }
    fn up(x: f64, y: f64, t: f64) -> InputEvent {
        InputEvent::new(
            EventKind::MouseUp {
                button: Button::Left,
            },
            x,
            y,
            t,
        )
    }

    /// The sanitized stream must always satisfy the monotonicity contract.
    fn assert_contract(events: &[InputEvent]) {
        for e in events {
            assert!(e.is_finite(), "non-finite event delivered: {e:?}");
        }
        for w in events.windows(2) {
            assert!(
                w[1].t >= w[0].t,
                "timestamps regressed: {} then {}",
                w[0].t,
                w[1].t
            );
        }
        let mut open = false;
        for e in events {
            match e.kind {
                EventKind::MouseDown { .. } => {
                    assert!(!open, "duplicate MouseDown delivered");
                    open = true;
                }
                EventKind::MouseUp { .. } | EventKind::GrabBreak => {
                    assert!(open, "unmatched MouseUp/GrabBreak delivered");
                    open = false;
                }
                _ => {}
            }
        }
        assert!(!open, "stream ended with an open interaction");
    }

    #[test]
    fn clean_streams_pass_through_unchanged() {
        let stream = [down(0.0, 0.0, 0.0), mv(5.0, 0.0, 10.0), up(5.0, 0.0, 20.0)];
        let (out, faults) = EventSanitizer::sanitize(&stream);
        assert_eq!(out, stream.to_vec());
        assert!(faults.is_empty());
    }

    #[test]
    fn nan_coordinates_are_repaired_to_last_good_position() {
        let stream = [
            down(1.0, 2.0, 0.0),
            mv(f64::NAN, f64::INFINITY, 10.0),
            up(5.0, 0.0, 20.0),
        ];
        let (out, faults) = EventSanitizer::sanitize(&stream);
        assert_contract(&out);
        assert_eq!(out.len(), 3);
        assert_eq!((out[1].x, out[1].y), (1.0, 2.0));
        assert_eq!(
            faults,
            vec![StreamFault::NonFiniteCoordinates {
                t: 10.0,
                repaired: true
            }]
        );
    }

    #[test]
    fn leading_garbage_is_dropped() {
        let stream = [
            mv(f64::NAN, 0.0, 0.0),
            mv(0.0, 0.0, f64::NAN),
            down(0.0, 0.0, 5.0),
            up(0.0, 0.0, 6.0),
        ];
        let (out, faults) = EventSanitizer::sanitize(&stream);
        assert_contract(&out);
        assert_eq!(out.len(), 2);
        assert_eq!(faults.len(), 2);
        assert!(matches!(
            faults[0],
            StreamFault::NonFiniteCoordinates {
                repaired: false,
                ..
            }
        ));
        assert!(matches!(
            faults[1],
            StreamFault::NonFiniteTimestamp { repaired: false }
        ));
    }

    #[test]
    fn nan_timestamp_is_repaired_to_present() {
        let stream = [
            down(0.0, 0.0, 0.0),
            mv(5.0, 0.0, f64::NAN),
            up(5.0, 0.0, 20.0),
        ];
        let (out, faults) = EventSanitizer::sanitize(&stream);
        assert_contract(&out);
        assert_eq!(out[1].t, 0.0, "time stands still under repair");
        assert_eq!(
            faults,
            vec![StreamFault::NonFiniteTimestamp { repaired: true }]
        );
    }

    #[test]
    fn small_regressions_are_reordered_to_present() {
        let stream = [
            down(0.0, 0.0, 100.0),
            mv(5.0, 0.0, 60.0), // 40 ms back: inside the window
            up(5.0, 0.0, 120.0),
        ];
        let (out, faults) = EventSanitizer::sanitize(&stream);
        assert_contract(&out);
        assert_eq!(out.len(), 3);
        assert_eq!(out[1].t, 100.0);
        assert_eq!(
            faults,
            vec![StreamFault::OutOfOrder {
                t: 60.0,
                regression_ms: 40.0
            }]
        );
    }

    #[test]
    fn stale_events_beyond_the_window_are_dropped() {
        let stream = [
            down(0.0, 0.0, 1000.0),
            mv(5.0, 0.0, 10.0), // ancient
            up(5.0, 0.0, 1020.0),
        ];
        let (out, faults) = EventSanitizer::sanitize(&stream);
        assert_contract(&out);
        assert_eq!(out.len(), 2);
        assert!(matches!(faults[0], StreamFault::DroppedStale { .. }));
    }

    #[test]
    fn duplicate_mouse_down_is_demoted_to_move() {
        let stream = [
            down(0.0, 0.0, 0.0),
            down(5.0, 5.0, 10.0),
            up(5.0, 5.0, 20.0),
        ];
        let (out, faults) = EventSanitizer::sanitize(&stream);
        assert_contract(&out);
        assert_eq!(out[1].kind, EventKind::MouseMove);
        assert_eq!((out[1].x, out[1].y), (5.0, 5.0));
        assert_eq!(faults, vec![StreamFault::DuplicateMouseDown { t: 10.0 }]);
    }

    #[test]
    fn unmatched_mouse_up_is_dropped() {
        let stream = [mv(0.0, 0.0, 0.0), up(0.0, 0.0, 10.0), down(0.0, 0.0, 20.0)];
        let (out, faults) = EventSanitizer::sanitize(&stream);
        assert_contract(&out);
        assert!(faults
            .iter()
            .any(|f| matches!(f, StreamFault::UnmatchedMouseUp { t } if *t == 10.0)));
        // The dangling down at the end is closed by finish().
        assert_eq!(out.last().map(|e| e.kind), Some(EventKind::GrabBreak));
    }

    #[test]
    fn missing_mouse_up_synthesizes_grab_break_before_next_down() {
        let stream = [
            down(0.0, 0.0, 0.0),
            mv(5.0, 0.0, 10.0),
            // up lost; next interaction starts 20 s later
            down(50.0, 50.0, 20_000.0),
            up(50.0, 50.0, 20_010.0),
        ];
        let (out, faults) = EventSanitizer::sanitize(&stream);
        assert_contract(&out);
        let kinds: Vec<EventKind> = out.iter().map(|e| e.kind).collect();
        assert_eq!(kinds[2], EventKind::GrabBreak);
        assert!(matches!(kinds[3], EventKind::MouseDown { .. }));
        // The break fires at last-event-time + grab timeout, at the last
        // known position.
        assert_eq!(out[2].t, 10.0 + 5_000.0);
        assert_eq!((out[2].x, out[2].y), (5.0, 0.0));
        assert!(faults
            .iter()
            .any(|f| matches!(f, StreamFault::MissingMouseUp { .. })));
    }

    #[test]
    fn finish_closes_a_dangling_interaction() {
        let mut s = EventSanitizer::new();
        let mut out = Vec::new();
        out.extend(s.process(down(0.0, 0.0, 0.0)));
        out.extend(s.process(mv(5.0, 0.0, 10.0)));
        assert!(s.interaction_open());
        out.extend(s.finish());
        assert!(!s.interaction_open());
        assert_contract(&out);
        assert_eq!(out.last().map(|e| e.kind), Some(EventKind::GrabBreak));
    }

    #[test]
    fn finish_on_clean_stream_is_empty() {
        let mut s = EventSanitizer::new();
        for e in [down(0.0, 0.0, 0.0), up(0.0, 0.0, 10.0)] {
            s.process(e);
        }
        assert!(s.finish().is_empty());
        assert!(s.faults().is_empty());
    }

    #[test]
    fn sanitization_is_deterministic() {
        let stream = [
            down(f64::NAN, 0.0, 0.0),
            down(0.0, 0.0, 5.0),
            mv(5.0, 0.0, f64::NAN),
            mv(6.0, 0.0, 2.0),
            down(7.0, 0.0, 6.0),
            up(8.0, 0.0, 7.0),
            up(9.0, 0.0, 8.0),
        ];
        let (out_a, faults_a) = EventSanitizer::sanitize(&stream);
        let (out_b, faults_b) = EventSanitizer::sanitize(&stream);
        assert_eq!(out_a, out_b);
        assert_eq!(faults_a, faults_b);
        assert_contract(&out_a);
    }

    #[test]
    fn state_roundtrip_continues_the_stream_identically() {
        let stream = [
            down(0.0, 0.0, 0.0),
            mv(f64::NAN, 1.0, 10.0),
            mv(5.0, 1.0, 8.0), // small regression: reordered
            up(5.0, 1.0, 20.0),
            down(6.0, 1.0, 30.0),
        ];
        // Reference: one sanitizer runs the whole stream.
        let mut whole = EventSanitizer::new();
        let mut whole_out = Vec::new();
        for &e in &stream {
            whole.process_into(e, &mut whole_out);
        }
        // Split: snapshot after the first two events, restore into a
        // fresh instance, continue.
        let mut first = EventSanitizer::new();
        let mut split_out = Vec::new();
        for &e in &stream[..2] {
            first.process_into(e, &mut split_out);
        }
        let state = first.state();
        let mut second = EventSanitizer::new();
        second.restore_state(state);
        assert_eq!(second.state(), state);
        for &e in &stream[2..] {
            second.process_into(e, &mut split_out);
        }
        assert_eq!(split_out, whole_out);
        assert!(second.interaction_open());
    }

    #[test]
    fn restore_state_clears_the_fault_log() {
        let mut s = EventSanitizer::new();
        s.process(mv(f64::NAN, 0.0, 0.0));
        assert_eq!(s.faults().len(), 1);
        s.restore_state(SanitizerState {
            last_t: Some(5.0),
            last_pos: Some((1.0, 2.0)),
            interaction_open: false,
        });
        assert!(s.faults().is_empty());
        assert_eq!(s.state().last_t, Some(5.0));
    }

    #[test]
    fn take_faults_drains_the_log() {
        let mut s = EventSanitizer::new();
        s.process(mv(f64::NAN, 0.0, 0.0));
        assert_eq!(s.take_faults().len(), 1);
        assert!(s.faults().is_empty());
    }
}
