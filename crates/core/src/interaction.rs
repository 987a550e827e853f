//! The two-phase interaction machine (§3.2), free of I/O and semantics.
//!
//! "The handler is responsible for collecting and inking the gesture,
//! determining when the phase transition occurs, classifying the gesture,
//! and executing the gesture's semantics." [`Interaction`] is every part
//! of that job except the semantics: it collects the stroke, decides the
//! phase transition at the first of (§1)
//!
//! 1. the mouse button is released (the manipulation phase is omitted),
//! 2. a 200 ms motionless timeout (an [`EventKind::Timeout`] from a dwell
//!    detector), or
//! 3. *eager recognition*: the collected prefix becomes unambiguous,
//!
//! classifies, and then reports manipulation until the interaction ends.
//! Front ends supply the semantics: the toolkit's gesture handler
//! evaluates `recog`/`manip`/`done` expressions on the reported
//! [`Step`]s, the serving layer turns them into wire frames.
//!
//! ```text
//! Idle ──down──▶ Collecting ──eager/timeout──▶ Manipulating ──up──▶ Idle
//!   ▲                │  │                          │    │
//!   │                │  └──up (classify at up)─────────────────────▶ Idle
//!   │                └────reject / budget──▶ Draining ──end────────┘
//!   └────grab-break (from anywhere, immediate outcome)──────────────┘
//! ```
//!
//! `Draining` is the decided-but-still-grabbed phase: the outcome
//! ([`InteractionOutcome::Cancelled`] or [`InteractionOutcome::Rejected`])
//! is held, no further steps are reported, and events are swallowed until
//! one [ends the interaction](InputEvent::ends_interaction). Every path
//! terminates in `Idle` with exactly one [`Step::Finished`].
//!
//! The machine takes sanitized events (see `grandma_events::EventSanitizer`)
//! but guards itself anyway: a non-finite event is reported as a fault and
//! never collected. Any button starts and ends an interaction; front ends
//! that bind the technique to one button filter before feeding.
//!
//! After the first interaction has warmed its buffers, feeding an event
//! performs no heap allocation.

use grandma_events::{EventKind, InputEvent, StreamFault};
use grandma_geom::{Gesture, Point};

use crate::{EagerRecognizer, FeatureExtractor, PointFilter, FEATURE_COUNT};

/// How the collection→manipulation transition happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseTransition {
    /// The prefix became unambiguous (transition 3).
    Eager,
    /// The 200 ms dwell timeout fired (transition 2).
    Timeout,
    /// The button was released first (transition 1; no manipulation
    /// phase).
    MouseUp,
    /// No transition ever happened: the interaction was cancelled while
    /// still collecting (grab break or fault budget exhausted).
    Aborted,
}

/// The terminal state every interaction reaches — exactly one per
/// interaction, no matter how malformed the event stream was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InteractionOutcome {
    /// Classified at mouse-up; the manipulation phase was omitted.
    Recognized,
    /// Classified mid-gesture (eager or timeout) and the manipulation
    /// phase ran to a clean mouse-up.
    Manipulated,
    /// Classification declined to act: estimated probability below
    /// [`InteractionConfig::min_probability`], or the collected gesture's
    /// features were non-finite/degenerate.
    Rejected,
    /// The interaction was torn down without running its remaining
    /// semantics: a [`EventKind::GrabBreak`] arrived, or the
    /// per-interaction fault budget was exhausted.
    Cancelled,
}

/// Where an [`Interaction`] is. Public so snapshots can carry it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InteractionPhase {
    /// No interaction in progress.
    Idle,
    /// Collecting gesture points.
    Collecting,
    /// Manipulating after a mid-gesture classification.
    Manipulating {
        /// The committed class.
        class: u16,
        /// Points collected at the commit, plus manipulation moves since.
        total_points: u32,
    },
    /// Outcome decided, waiting for the interaction to end.
    Draining {
        /// The held outcome: [`InteractionOutcome::Cancelled`] or
        /// [`InteractionOutcome::Rejected`].
        outcome: InteractionOutcome,
        /// The class it carries, if any.
        class: Option<u16>,
        /// Points the outcome reports.
        total_points: u32,
    },
}

/// Interaction tuning: the knobs the toolkit's and the serving layer's
/// configurations share.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InteractionConfig {
    /// Whether eager recognition (transition 3) is enabled.
    pub eager: bool,
    /// Jitter filter: collected points closer than this to the previous
    /// kept point are discarded (Rubine used 3 px).
    pub min_point_distance: f64,
    /// Optional rejection: minimum estimated probability for a
    /// classification to be acted on.
    pub min_probability: Option<f64>,
    /// Maximum faults tolerated within one interaction; one more cancels
    /// it.
    pub fault_budget: u32,
}

/// What one fed event made happen, reported in order through the
/// caller's sink.
#[derive(Debug, Clone, PartialEq)]
pub enum Step<'a> {
    /// A mouse-down opened an interaction.
    Began,
    /// The phase transition: the collected gesture was classified.
    Recognized {
        /// What caused the transition.
        trigger: PhaseTransition,
        /// The class, or `None` when the classification was rejected.
        class: Option<u16>,
        /// The collected gesture.
        gesture: &'a Gesture,
    },
    /// A mouse move during the manipulation phase.
    Manipulate {
        /// Pointer x.
        x: f64,
        /// Pointer y.
        y: f64,
        /// Event time (ms).
        t: f64,
    },
    /// The interaction reached its terminal state; the machine is idle.
    Finished {
        /// The terminal state.
        outcome: InteractionOutcome,
        /// The class, when one was committed.
        class: Option<u16>,
        /// Points in the whole interaction.
        total_points: u32,
        /// Faults charged to the interaction.
        faults: u32,
    },
    /// The machine found a defect in a fed event and charged it to the
    /// interaction in progress.
    Fault(StreamFault),
}

/// One input stream's interaction machine. Holds the collection buffers
/// and clears, rather than drops, them between interactions.
#[derive(Debug, Clone)]
pub struct Interaction {
    config: InteractionConfig,
    phase: InteractionPhase,
    /// Faults charged to the interaction in progress.
    faults: u32,
    gesture: Gesture,
    /// Boxed once, reset in place per interaction.
    extractor: Box<FeatureExtractor>,
    filter: PointFilter,
    /// Masked-feature scratch for the eager check and the commit.
    features: [f64; FEATURE_COUNT],
    /// Per-class evaluation scratch for the commit-time classification;
    /// sized lazily to the recognizer's class count, then reused.
    evaluations: Vec<f64>,
}

impl Interaction {
    /// An idle machine.
    pub fn new(config: InteractionConfig) -> Self {
        Self {
            config,
            phase: InteractionPhase::Idle,
            faults: 0,
            gesture: Gesture::new(),
            extractor: Box::new(FeatureExtractor::new()),
            filter: PointFilter::new(config.min_point_distance),
            features: [0.0; FEATURE_COUNT],
            evaluations: Vec::new(),
        }
    }

    /// Rebuilds a machine from its [`phase`](Interaction::phase),
    /// [`faults`](Interaction::faults) and [`points`](Interaction::points).
    /// The collection state is reconstructed by replaying the points in
    /// order — the same float accumulation the live machine performed —
    /// so the restored machine continues exactly like the original.
    pub fn restore(
        config: InteractionConfig,
        phase: InteractionPhase,
        faults: u32,
        points: &[Point],
    ) -> Self {
        let mut m = Self::new(config);
        m.phase = phase;
        m.faults = faults;
        for &point in points {
            m.collect(point);
        }
        m
    }

    /// Returns the machine to idle, keeping its warmed buffers.
    pub fn reset(&mut self) {
        self.phase = InteractionPhase::Idle;
        self.faults = 0;
        self.clear_collection();
    }

    /// The current phase.
    pub fn phase(&self) -> InteractionPhase {
        self.phase
    }

    /// Faults charged to the interaction in progress.
    pub fn faults(&self) -> u32 {
        self.faults
    }

    /// The collected points of the interaction in progress (empty when
    /// idle).
    pub fn points(&self) -> &[Point] {
        match self.phase {
            InteractionPhase::Idle => &[],
            _ => self.gesture.points(),
        }
    }

    /// `true` while an interaction is in progress (any non-idle phase).
    pub fn in_progress(&self) -> bool {
        !matches!(self.phase, InteractionPhase::Idle)
    }

    /// Tears down the interaction in progress: finishes it with its held
    /// outcome, or `Cancelled`.
    fn cancel(&mut self, sink: &mut impl FnMut(Step<'_>)) {
        if let Some((outcome, class, total_points)) = self.held_outcome() {
            self.finish(outcome, class, total_points, sink);
        }
    }

    // lint:hot-path start — per-event steady state: no panics, no allocation
    /// Charges `count` upstream faults (typically sanitizer repairs) to
    /// the interaction in progress; exhausting the budget cancels it into
    /// `Draining`. Faults arriving while idle have no interaction to
    /// charge and are dropped.
    pub fn note_faults(&mut self, count: u32) {
        if count > 0 && self.in_progress() {
            self.faults = self.faults.saturating_add(count);
            self.enforce_fault_budget();
        }
    }

    /// Feeds one event through the machine, reporting what it made
    /// happen to `sink`.
    pub fn feed(
        &mut self,
        rec: &EagerRecognizer,
        event: InputEvent,
        sink: &mut impl FnMut(Step<'_>),
    ) {
        // A corrupted sample never reaches collection. If it also ends
        // the interaction (a NaN mouse-up), the end is honoured as a
        // teardown — the kind is trustworthy, the payload is not.
        if !event.is_finite() {
            if self.in_progress() {
                let fault = if event.x.is_finite() && event.y.is_finite() {
                    StreamFault::NonFiniteTimestamp { repaired: false }
                } else {
                    StreamFault::NonFiniteCoordinates {
                        t: event.t,
                        repaired: false,
                    }
                };
                self.fault(fault, sink);
                if event.ends_interaction() {
                    self.cancel(sink);
                }
            }
            return;
        }
        if event.is_grab_break() {
            self.cancel(sink);
            return;
        }
        if let InteractionPhase::Draining { .. } = self.phase {
            if event.ends_interaction() {
                self.cancel(sink);
            }
            return;
        }
        match (self.phase, event.kind) {
            (InteractionPhase::Idle, EventKind::MouseDown { .. }) => {
                self.clear_collection();
                self.collect(Point::new(event.x, event.y, event.t));
                self.phase = InteractionPhase::Collecting;
                sink(Step::Began);
            }
            (InteractionPhase::Collecting, EventKind::MouseMove) => {
                let p = Point::new(event.x, event.y, event.t);
                if !self.filter.accept(&p) {
                    return;
                }
                self.gesture.push(p);
                self.extractor.update(p);
                if self.config.eager
                    && self.extractor.count() >= rec.config().min_subgesture_points
                    && rec.auc().is_unambiguous_slice(masked_features(
                        rec,
                        &self.extractor,
                        &mut self.features,
                    ))
                {
                    self.commit(rec, PhaseTransition::Eager, sink);
                }
            }
            (InteractionPhase::Collecting, EventKind::Timeout) => {
                self.commit(rec, PhaseTransition::Timeout, sink);
            }
            (InteractionPhase::Collecting, EventKind::MouseUp { .. }) => {
                self.commit(rec, PhaseTransition::MouseUp, sink);
            }
            (InteractionPhase::Collecting, EventKind::MouseDown { .. }) => {
                // The sanitizer demotes duplicate downs upstream; one that
                // slips through is a fault and otherwise ignored.
                self.fault(StreamFault::DuplicateMouseDown { t: event.t }, sink);
            }
            (
                InteractionPhase::Manipulating {
                    class,
                    total_points,
                },
                EventKind::MouseMove,
            ) => {
                self.phase = InteractionPhase::Manipulating {
                    class,
                    total_points: total_points.saturating_add(1),
                };
                sink(Step::Manipulate {
                    x: event.x,
                    y: event.y,
                    t: event.t,
                });
            }
            (
                InteractionPhase::Manipulating {
                    class,
                    total_points,
                },
                EventKind::MouseUp { .. },
            ) => {
                self.finish(
                    InteractionOutcome::Manipulated,
                    Some(class),
                    total_points,
                    sink,
                );
            }
            _ => {}
        }
    }

    /// Records one machine-detected fault and applies the budget.
    fn fault(&mut self, fault: StreamFault, sink: &mut impl FnMut(Step<'_>)) {
        self.faults = self.faults.saturating_add(1);
        self.enforce_fault_budget();
        sink(Step::Fault(fault));
    }

    /// Cancels a collecting or manipulating interaction into `Draining`
    /// once the budget is blown.
    fn enforce_fault_budget(&mut self) {
        if self.faults <= self.config.fault_budget {
            return;
        }
        if let InteractionPhase::Collecting | InteractionPhase::Manipulating { .. } = self.phase {
            if let Some((outcome, class, total_points)) = self.held_outcome() {
                self.phase = InteractionPhase::Draining {
                    outcome,
                    class,
                    total_points,
                };
            }
        }
    }

    /// The outcome a teardown of the current phase reports: the held one
    /// while draining, `Cancelled` otherwise; `None` when idle.
    fn held_outcome(&self) -> Option<(InteractionOutcome, Option<u16>, u32)> {
        match self.phase {
            InteractionPhase::Idle => None,
            InteractionPhase::Collecting => Some((
                InteractionOutcome::Cancelled,
                None,
                self.gesture.len() as u32,
            )),
            InteractionPhase::Manipulating {
                class,
                total_points,
            } => Some((InteractionOutcome::Cancelled, Some(class), total_points)),
            InteractionPhase::Draining {
                outcome,
                class,
                total_points,
            } => Some((outcome, class, total_points)),
        }
    }

    /// The phase transition: classify the collected gesture and either
    /// enter manipulation (mid-gesture trigger) or finish (mouse-up). A
    /// rejected mid-gesture commit drains, since the grab is still live.
    ///
    /// Classification is checked: non-finite or degenerate features are
    /// rejected rather than argmaxed over NaN. The warm extractor has
    /// accumulated exactly the collected points, so its features equal a
    /// fresh extraction of the gesture without re-walking the points.
    fn commit(
        &mut self,
        rec: &EagerRecognizer,
        trigger: PhaseTransition,
        sink: &mut impl FnMut(Step<'_>),
    ) {
        let classifier = rec.full_classifier();
        self.evaluations.resize(classifier.num_classes(), 0.0);
        let features = masked_features(rec, &self.extractor, &mut self.features);
        let min_probability = self.config.min_probability;
        let class = classifier
            .classify_slice_checked(features, &mut self.evaluations)
            .filter(|&(_, probability)| !min_probability.is_some_and(|min| probability < min))
            .map(|(class, _)| class as u16);
        sink(Step::Recognized {
            trigger,
            class,
            gesture: &self.gesture,
        });
        let points = self.gesture.len() as u32;
        match (class, trigger) {
            (Some(class), PhaseTransition::MouseUp) => {
                self.finish(InteractionOutcome::Recognized, Some(class), points, sink);
            }
            (None, PhaseTransition::MouseUp) => {
                self.finish(InteractionOutcome::Rejected, None, points, sink);
            }
            (Some(class), _) => {
                self.phase = InteractionPhase::Manipulating {
                    class,
                    total_points: points,
                };
            }
            (None, _) => {
                self.phase = InteractionPhase::Draining {
                    outcome: InteractionOutcome::Rejected,
                    class: None,
                    total_points: points,
                };
            }
        }
    }

    /// The single exit point: report the terminal outcome and return to
    /// idle.
    fn finish(
        &mut self,
        outcome: InteractionOutcome,
        class: Option<u16>,
        total_points: u32,
        sink: &mut impl FnMut(Step<'_>),
    ) {
        let faults = std::mem::take(&mut self.faults);
        self.phase = InteractionPhase::Idle;
        sink(Step::Finished {
            outcome,
            class,
            total_points,
            faults,
        });
    }

    /// Appends a point to the collection unconditionally, anchoring the
    /// jitter filter on it (the first point, or a restored one).
    fn collect(&mut self, p: Point) {
        self.filter.accept(&p);
        self.gesture.push(p);
        self.extractor.update(p);
    }

    fn clear_collection(&mut self) {
        self.gesture.clear();
        self.extractor.reset();
        self.filter.reset();
    }
}

/// The warm extractor's masked features, written into the stack scratch.
fn masked_features<'a>(
    rec: &EagerRecognizer,
    extractor: &FeatureExtractor,
    scratch: &'a mut [f64; FEATURE_COUNT],
) -> &'a [f64] {
    let mask = rec.full_classifier().mask();
    // lint:allow(hot-path-index): mask.count() <= FEATURE_COUNT by construction
    let slots = &mut scratch[..mask.count()];
    extractor.masked_features_into(mask, slots);
    slots
}
// lint:hot-path end

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EagerConfig, FeatureMask};
    use grandma_events::Button;

    /// Two L-shaped classes: right-then-up (0), right-then-down (1).
    fn l_shape(sign: f64, jiggle: f64) -> Gesture {
        let mut pts = Vec::new();
        for i in 0..10 {
            let x = i as f64 * 8.0 + jiggle * (i % 3) as f64;
            pts.push(Point::new(x, jiggle * (i % 2) as f64, i as f64 * 10.0));
        }
        for i in 1..10 {
            let y = sign * i as f64 * 8.0;
            pts.push(Point::new(72.0 + jiggle, y, 90.0 + i as f64 * 10.0));
        }
        Gesture::from_points(pts)
    }

    fn recognizer() -> EagerRecognizer {
        let training: Vec<Vec<Gesture>> = [1.0, -1.0]
            .iter()
            .map(|&sign| {
                (0..10)
                    .map(|e| l_shape(sign, 0.1 + e as f64 * 0.05))
                    .collect()
            })
            .collect();
        EagerRecognizer::train(&training, &FeatureMask::all(), &EagerConfig::default())
            .map(|(rec, _)| rec)
            .unwrap_or_else(|e| panic!("training fails: {e:?}"))
    }

    fn config() -> InteractionConfig {
        InteractionConfig {
            eager: false,
            min_point_distance: 3.0,
            min_probability: None,
            fault_budget: 1,
        }
    }

    /// Down, moves, up for `g`, with a dwell timeout after point `hold`.
    fn events(g: &Gesture, hold: Option<usize>) -> Vec<InputEvent> {
        let mut out = Vec::new();
        for (i, p) in g.points().iter().enumerate() {
            let kind = if i == 0 {
                EventKind::MouseDown {
                    button: Button::Left,
                }
            } else {
                EventKind::MouseMove
            };
            out.push(InputEvent::new(kind, p.x, p.y, p.t));
            if hold == Some(i) {
                out.push(InputEvent::new(EventKind::Timeout, p.x, p.y, p.t + 200.0));
            }
        }
        let last = g.points()[g.len() - 1];
        let up = EventKind::MouseUp {
            button: Button::Left,
        };
        out.push(InputEvent::new(up, last.x, last.y, last.t + 1.0));
        out
    }

    /// Feeds `events`, returning every step in debug form.
    fn run(m: &mut Interaction, rec: &EagerRecognizer, events: &[InputEvent]) -> Vec<String> {
        let mut log = Vec::new();
        for &e in events {
            m.feed(rec, e, &mut |step| log.push(format!("{step:?}")));
        }
        log
    }

    #[test]
    fn restore_at_every_cut_continues_identically() {
        let rec = recognizer();
        let mut stream = events(&l_shape(1.0, 0.2), Some(12));
        stream.extend(events(&l_shape(-1.0, 0.3), None));
        let reference = run(&mut Interaction::new(config()), &rec, &stream);
        assert!(reference.iter().any(|s| s.contains("Timeout")));
        for cut in 0..=stream.len() {
            let mut first = Interaction::new(config());
            let mut log = run(&mut first, &rec, &stream[..cut]);
            let mut restored =
                Interaction::restore(config(), first.phase(), first.faults(), first.points());
            log.extend(run(&mut restored, &rec, &stream[cut..]));
            assert_eq!(log, reference, "cut {cut}");
        }
    }

    #[test]
    fn blown_budget_drains_until_the_interaction_ends() {
        let rec = recognizer();
        let stream = events(&l_shape(1.0, 0.2), None);
        let mut m = Interaction::new(config());
        run(&mut m, &rec, &stream[..3]);
        let nan = InputEvent::new(EventKind::MouseMove, f64::NAN, 0.0, 25.0);
        run(&mut m, &rec, &[nan, nan]);
        assert!(matches!(
            m.phase(),
            InteractionPhase::Draining {
                outcome: InteractionOutcome::Cancelled,
                class: None,
                total_points: 3,
            }
        ));
        let log = run(&mut m, &rec, &stream[3..]);
        assert_eq!(log.len(), 1, "only the held outcome: {log:?}");
        assert!(log[0]
            .starts_with("Finished { outcome: Cancelled, class: None, total_points: 3, faults: 2"));
        assert!(!m.in_progress());
    }

    #[test]
    fn rejected_mid_gesture_commit_drains_to_the_up() {
        let rec = recognizer();
        let stream = events(&l_shape(1.0, 0.2), Some(12));
        let mut m = Interaction::new(InteractionConfig {
            min_probability: Some(1.1),
            ..config()
        });
        let log = run(&mut m, &rec, &stream[..14]);
        assert!(log[1].contains("trigger: Timeout, class: None"), "{log:?}");
        assert!(matches!(
            m.phase(),
            InteractionPhase::Draining {
                outcome: InteractionOutcome::Rejected,
                ..
            }
        ));
        let log = run(&mut m, &rec, &stream[14..]);
        assert_eq!(log.len(), 1);
        assert!(log[0].starts_with("Finished { outcome: Rejected"));
    }
}
