//! Dwell (mouse-held-still) timeout synthesis.

use crate::event::{EventKind, InputEvent};

/// Synthesizes the paper's dwell timeout: "a timeout indicating that the
/// user has not moved the mouse for 200 milliseconds" while the button is
/// held (§1, transition method 2).
///
/// Feed every input event through [`DwellDetector::process`]; whenever the
/// time gap since the last *significant* movement (more than
/// `movement_threshold` pixels) exceeds the timeout while a button is
/// down, a single `Timeout` event is returned to be delivered *before* the
/// triggering event. The detector re-arms after further movement, so a
/// later stall can fire again (used by GDP's multi-phase interactions).
///
/// # Examples
///
/// ```
/// use grandma_events::{Button, DwellDetector, EventKind, InputEvent};
///
/// let mut d = DwellDetector::new(200.0, 3.0);
/// let down = InputEvent::new(EventKind::MouseDown { button: Button::Left }, 0.0, 0.0, 0.0);
/// assert!(d.process(&down).is_empty());
/// // The mouse stays still for 250 ms, then moves: a timeout fires first.
/// let mv = InputEvent::new(EventKind::MouseMove, 0.5, 0.0, 250.0);
/// let fired = d.process(&mv);
/// assert_eq!(fired.len(), 1);
/// assert_eq!(fired[0].kind, EventKind::Timeout);
/// ```
#[derive(Debug, Clone)]
pub struct DwellDetector {
    timeout_ms: f64,
    movement_threshold: f64,
    button_down: bool,
    /// Monotonic clock: the maximum finite timestamp seen so far. Events
    /// with NaN or backwards timestamps never move it, so a warped clock
    /// can neither synthesize a spurious timeout nor produce a negative
    /// dwell (see the monotonicity contract on [`InputEvent`]).
    clock: Option<f64>,
    last_move: Option<(f64, f64, f64)>,
    fired_since_move: bool,
}

impl DwellDetector {
    /// Creates a detector with the given timeout (the paper uses 200 ms)
    /// and movement threshold in pixels (movement below it does not count
    /// as "moving the mouse").
    pub fn new(timeout_ms: f64, movement_threshold: f64) -> Self {
        Self {
            timeout_ms,
            movement_threshold,
            button_down: false,
            clock: None,
            last_move: None,
            fired_since_move: false,
        }
    }

    /// A detector with the paper's parameters: 200 ms, 3 px.
    pub fn paper_default() -> Self {
        Self::new(200.0, 3.0)
    }

    /// Records a significant-movement anchor, but only when both the
    /// position and the clock are finite — a dwell can only be measured
    /// from a well-defined point in space and time.
    fn arm(&mut self, x: f64, y: f64) {
        if let Some(clock) = self.clock {
            if x.is_finite() && y.is_finite() {
                self.last_move = Some((x, y, clock));
                self.fired_since_move = false;
            }
        }
    }

    /// Processes one event; returns any `Timeout` events that must be
    /// delivered before it.
    pub fn process(&mut self, event: &InputEvent) -> Vec<InputEvent> {
        // Advance the monotonic clock. Non-finite timestamps are ignored;
        // backwards timestamps leave it in place.
        if event.t.is_finite() {
            self.clock = Some(self.clock.map_or(event.t, |c| c.max(event.t)));
        }
        let mut fired = Vec::new();
        if self.button_down && !self.fired_since_move {
            if let (Some((x, y, t)), Some(clock)) = (self.last_move, self.clock) {
                // clock and t are both finite by construction, so the gap
                // is a well-defined non-negative duration.
                if clock - t >= self.timeout_ms {
                    fired.push(InputEvent::new(
                        EventKind::Timeout,
                        x,
                        y,
                        t + self.timeout_ms,
                    ));
                    self.fired_since_move = true;
                }
            }
        }
        match event.kind {
            EventKind::MouseDown { .. } => {
                self.button_down = true;
                self.last_move = None;
                self.fired_since_move = false;
                self.arm(event.x, event.y);
            }
            EventKind::MouseMove => {
                if let Some((x, y, _)) = self.last_move {
                    let dx = event.x - x;
                    let dy = event.y - y;
                    // A NaN distance compares false: corrupted positions
                    // count as jitter, not movement.
                    if (dx * dx + dy * dy).sqrt() >= self.movement_threshold {
                        self.arm(event.x, event.y);
                    }
                } else {
                    self.arm(event.x, event.y);
                }
            }
            EventKind::MouseUp { .. } | EventKind::GrabBreak => {
                self.button_down = false;
                self.last_move = None;
                self.fired_since_move = false;
            }
            EventKind::Timeout => {}
        }
        fired
    }

    /// Expands a whole event stream, splicing synthesized timeouts in
    /// front of the events that reveal them.
    pub fn expand(&mut self, events: &[InputEvent]) -> Vec<InputEvent> {
        let mut out = Vec::with_capacity(events.len());
        for e in events {
            out.extend(self.process(e));
            out.push(*e);
        }
        out
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

    #[test]
    fn no_timeout_while_moving() {
        let mut d = DwellDetector::paper_default();
        let stream = [
            down(0.0, 0.0, 0.0),
            mv(10.0, 0.0, 100.0),
            mv(20.0, 0.0, 199.0),
            up(20.0, 0.0, 250.0),
        ];
        let expanded = d.expand(&stream);
        assert!(expanded.iter().all(|e| e.kind != EventKind::Timeout));
    }

    #[test]
    fn timeout_fires_after_still_period() {
        let mut d = DwellDetector::paper_default();
        let stream = [
            down(0.0, 0.0, 0.0),
            mv(10.0, 0.0, 50.0),
            mv(10.5, 0.0, 300.0),
        ];
        let expanded = d.expand(&stream);
        let timeouts: Vec<&InputEvent> = expanded
            .iter()
            .filter(|e| e.kind == EventKind::Timeout)
            .collect();
        assert_eq!(timeouts.len(), 1);
        // Fired at last significant move (t=50) plus 200 ms, at that
        // position.
        assert_eq!(timeouts[0].t, 250.0);
        assert_eq!(timeouts[0].x, 10.0);
    }

    #[test]
    fn timeout_precedes_the_revealing_event() {
        let mut d = DwellDetector::paper_default();
        let stream = [down(0.0, 0.0, 0.0), mv(50.0, 0.0, 280.0)];
        let expanded = d.expand(&stream);
        assert_eq!(expanded[1].kind, EventKind::Timeout);
        assert_eq!(expanded[2].kind, EventKind::MouseMove);
    }

    #[test]
    fn small_jiggle_does_not_reset_dwell() {
        let mut d = DwellDetector::paper_default();
        // 1 px wiggles are under the 3 px threshold.
        let stream = [
            down(0.0, 0.0, 0.0),
            mv(1.0, 0.0, 100.0),
            mv(0.0, 1.0, 180.0),
            mv(1.0, 1.0, 260.0),
        ];
        let expanded = d.expand(&stream);
        assert!(expanded.iter().any(|e| e.kind == EventKind::Timeout));
    }

    #[test]
    fn timeout_fires_once_per_stall() {
        let mut d = DwellDetector::paper_default();
        let stream = [
            down(0.0, 0.0, 0.0),
            mv(0.5, 0.0, 300.0),
            mv(1.0, 0.0, 600.0),
        ];
        let expanded = d.expand(&stream);
        let count = expanded
            .iter()
            .filter(|e| e.kind == EventKind::Timeout)
            .count();
        assert_eq!(count, 1, "one stall, one timeout");
    }

    #[test]
    fn rearms_after_significant_movement() {
        let mut d = DwellDetector::paper_default();
        let stream = [
            down(0.0, 0.0, 0.0),
            mv(0.0, 0.0, 250.0),  // first stall -> timeout
            mv(30.0, 0.0, 260.0), // big move re-arms
            mv(30.0, 0.5, 500.0), // second stall -> timeout
        ];
        let expanded = d.expand(&stream);
        let count = expanded
            .iter()
            .filter(|e| e.kind == EventKind::Timeout)
            .count();
        assert_eq!(count, 2);
    }

    #[test]
    fn no_timeout_without_button_down() {
        let mut d = DwellDetector::paper_default();
        let stream = [mv(0.0, 0.0, 0.0), mv(0.0, 0.0, 500.0)];
        let expanded = d.expand(&stream);
        assert!(expanded.iter().all(|e| e.kind != EventKind::Timeout));
    }

    #[test]
    fn no_timeout_after_button_up() {
        let mut d = DwellDetector::paper_default();
        let stream = [down(0.0, 0.0, 0.0), up(0.0, 0.0, 50.0), mv(0.0, 0.0, 500.0)];
        let expanded = d.expand(&stream);
        assert!(expanded.iter().all(|e| e.kind != EventKind::Timeout));
    }

    #[test]
    fn backwards_clock_cannot_synthesize_a_timeout() {
        // The clock warps back after the down: the re-armed anchor must
        // not be measured against the stale (larger) earlier time, and the
        // backwards jump itself must not read as a 1000 ms stall.
        let mut d = DwellDetector::paper_default();
        let stream = [
            down(0.0, 0.0, 1000.0),
            mv(10.0, 0.0, 100.0),  // clock warped backwards
            mv(20.0, 0.0, 1100.0), // 100 ms after the down in real time
        ];
        let expanded = d.expand(&stream);
        assert!(
            expanded.iter().all(|e| e.kind != EventKind::Timeout),
            "backwards clock synthesized a spurious timeout: {expanded:?}"
        );
    }

    #[test]
    fn duplicate_timestamps_do_not_fire_spuriously() {
        let mut d = DwellDetector::paper_default();
        let stream = [
            down(0.0, 0.0, 50.0),
            mv(10.0, 0.0, 50.0),
            mv(20.0, 0.0, 50.0),
            mv(30.0, 0.0, 50.0),
        ];
        let expanded = d.expand(&stream);
        assert!(expanded.iter().all(|e| e.kind != EventKind::Timeout));
    }

    #[test]
    fn genuine_stall_still_fires_despite_earlier_warp() {
        let mut d = DwellDetector::paper_default();
        let stream = [
            down(0.0, 0.0, 1000.0),
            mv(10.0, 0.0, 100.0),  // warp backwards (ignored by the clock)
            mv(20.0, 0.0, 1050.0), // real movement re-arms at clock 1050
            mv(20.5, 0.0, 1300.0), // 250 ms genuinely still
        ];
        let expanded = d.expand(&stream);
        let timeouts: Vec<&InputEvent> = expanded
            .iter()
            .filter(|e| e.kind == EventKind::Timeout)
            .collect();
        assert_eq!(timeouts.len(), 1);
        assert_eq!(timeouts[0].t, 1250.0);
        assert!(timeouts[0].is_finite());
    }

    #[test]
    fn nan_timestamps_neither_panic_nor_advance_the_clock() {
        let mut d = DwellDetector::paper_default();
        let stream = [
            down(0.0, 0.0, 0.0),
            mv(10.0, 0.0, f64::NAN),
            mv(20.0, 0.0, f64::NAN),
            mv(30.0, 0.0, 100.0),
        ];
        let expanded = d.expand(&stream);
        assert!(expanded.iter().all(|e| e.kind != EventKind::Timeout));
        assert!(expanded.iter().all(|e| e.t.is_nan() || e.t <= 100.0));
    }

    #[test]
    fn nan_position_does_not_become_a_timeout_anchor() {
        let mut d = DwellDetector::paper_default();
        let stream = [
            down(f64::NAN, 0.0, 0.0), // corrupt anchor: cannot arm
            mv(10.0, 0.0, 50.0),      // finite movement arms here
            mv(10.5, 0.0, 300.0),     // stall measured from t=50
        ];
        let expanded = d.expand(&stream);
        let timeouts: Vec<&InputEvent> = expanded
            .iter()
            .filter(|e| e.kind == EventKind::Timeout)
            .collect();
        assert_eq!(timeouts.len(), 1);
        assert!(timeouts[0].is_finite(), "timeout carries finite fields");
        assert_eq!(timeouts[0].t, 250.0);
        assert_eq!(timeouts[0].x, 10.0);
    }

    #[test]
    fn grab_break_cancels_the_dwell() {
        let mut d = DwellDetector::paper_default();
        let stream = [
            down(0.0, 0.0, 0.0),
            InputEvent::new(EventKind::GrabBreak, 0.0, 0.0, 50.0),
            mv(0.0, 0.0, 500.0), // long-still but no interaction
        ];
        let expanded = d.expand(&stream);
        assert!(expanded.iter().all(|e| e.kind != EventKind::Timeout));
    }
}
