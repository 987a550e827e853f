//! The trained eager recognizer.

use std::sync::Arc;

use grandma_events::{Button, EventKind, InputEvent};
use grandma_geom::Gesture;

use crate::classifier::{Classification, Classifier, TrainError};
use crate::eager::auc::{Auc, AucClassKind, TweakStats};
use crate::eager::config::EagerConfig;
use crate::eager::labeling::{label_subgestures, SubgestureRecord};
use crate::eager::mover::{move_accidentally_complete, MoveOutcome};
use crate::features::{FeatureExtractor, FeatureMask};
use crate::interaction::{Interaction, InteractionConfig, PhaseTransition, Step};

/// Diagnostic record of one eager-recognizer training run.
///
/// Exposes every pipeline stage so the evaluation harness
/// (`grandma-bench`) can report the intermediate labels, and so tests can
/// assert pipeline invariants end to end.
#[derive(Debug, Clone)]
pub struct EagerTrainReport {
    /// Final per-subgesture records (post-move assignments).
    pub records: Vec<SubgestureRecord>,
    /// Outcome of the accidental-completeness move pass.
    pub move_outcome: MoveOutcome,
    /// AUC class list in classifier order — shared with the trained
    /// [`Auc`] rather than copied out of it.
    pub auc_classes: Arc<[AucClassKind]>,
    /// Bias/tweak statistics.
    pub tweaks: TweakStats,
}

/// Result of running a trained eager recognizer over a complete gesture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EagerRun {
    /// Chosen class.
    pub class: usize,
    /// Number of points that had been seen when classification fired.
    /// Equals the gesture length when recognition only happened at the
    /// end.
    pub points_at_recognition: usize,
    /// Total points in the gesture.
    pub total_points: usize,
    /// `true` when the classification fired before the final point.
    pub eager: bool,
}

impl EagerRun {
    /// Fraction of mouse points examined before classification
    /// (the paper's §5 eagerness measure; 1.0 = not eager at all).
    pub fn fraction_seen(&self) -> f64 {
        if self.total_points == 0 {
            1.0
        } else {
            self.points_at_recognition as f64 / self.total_points as f64
        }
    }
}

/// A trained eager recognizer: the full classifier plus the AUC.
///
/// Built by [`EagerRecognizer::train`]; drive it incrementally through an
/// [`Interaction`] or over complete gestures with [`EagerRecognizer::run`].
#[derive(Debug, Clone)]
pub struct EagerRecognizer {
    full: Classifier,
    auc: Auc,
    config: EagerConfig,
}

impl EagerRecognizer {
    /// Trains an eager recognizer from per-class example gestures.
    ///
    /// Runs the entire §4.4–4.6 pipeline: full-classifier training,
    /// subgesture labeling, the accidental-completeness move, AUC training,
    /// ambiguity biasing, and constant tweaking.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] when either classifier cannot be trained
    /// (fewer than two classes, an empty class, non-finite features, or an
    /// irreparably singular covariance).
    pub fn train(
        per_class: &[Vec<Gesture>],
        mask: &FeatureMask,
        config: &EagerConfig,
    ) -> Result<(Self, EagerTrainReport), TrainError> {
        let full = Classifier::train(per_class, mask)?;
        let mut records = label_subgestures(&full, per_class, config);
        let move_outcome = move_accidentally_complete(&mut records, full.linear(), config);
        let (auc, tweaks) = Auc::train(&records, config)?;
        let report = EagerTrainReport {
            auc_classes: auc.kinds_shared(),
            move_outcome,
            tweaks,
            records,
        };
        Ok((
            Self {
                full,
                auc,
                config: config.clone(),
            },
            report,
        ))
    }

    /// Wraps pre-trained components (used by tests and by tools that
    /// persist classifiers).
    pub fn from_parts(full: Classifier, auc: Auc, config: EagerConfig) -> Self {
        Self { full, auc, config }
    }

    /// The paper's `D` function over an explicit prefix: `true` iff the
    /// gesture-so-far is unambiguous.
    pub fn is_unambiguous(&self, prefix: &Gesture) -> bool {
        if prefix.len() < self.config.min_subgesture_points {
            return false;
        }
        let features = FeatureExtractor::extract(prefix, self.full.mask());
        self.auc.is_unambiguous(&features)
    }

    /// Classifies a gesture with the underlying full classifier.
    pub fn classify_full(&self, gesture: &Gesture) -> Classification {
        self.full.classify(gesture)
    }

    /// Returns the underlying full classifier.
    pub fn full_classifier(&self) -> &Classifier {
        &self.full
    }

    /// Returns the trained AUC.
    pub fn auc(&self) -> &Auc {
        &self.auc
    }

    /// Returns the training configuration.
    pub fn config(&self) -> &EagerConfig {
        &self.config
    }

    /// Runs the eager loop over a complete gesture by driving an
    /// [`Interaction`], the per-point decision the toolkit and the serving
    /// layer make: a mouse-down at the first finite point, a move per later
    /// point, then a mouse-up, with no jitter filter. Non-finite points are
    /// charged as faults and never collected.
    ///
    /// # Panics
    ///
    /// Panics if the gesture is empty, has no finite point, or its
    /// features come out non-finite (the interaction rejects it).
    #[allow(clippy::expect_used)] // documented panic contract; see # Panics above
    pub fn run(&self, gesture: &Gesture) -> EagerRun {
        assert!(!gesture.is_empty(), "cannot run on an empty gesture");
        let mut interaction = Interaction::new(InteractionConfig {
            eager: true,
            min_point_distance: 0.0,
            min_probability: None,
            fault_budget: u32::MAX,
        });
        let mut fired = None;
        let mut sink = |step: Step<'_>| {
            if let Step::Recognized {
                trigger,
                class,
                gesture,
            } = step
            {
                fired = Some((trigger, class, gesture.len()));
            }
        };
        for p in gesture.points() {
            let kind = if interaction.in_progress() {
                EventKind::MouseMove
            } else {
                EventKind::MouseDown {
                    button: Button::Left,
                }
            };
            interaction.feed(self, InputEvent::new(kind, p.x, p.y, p.t), &mut sink);
        }
        if let Some(&last) = interaction.points().last() {
            let up = EventKind::MouseUp {
                button: Button::Left,
            };
            interaction.feed(self, InputEvent::new(up, last.x, last.y, last.t), &mut sink);
        }
        // lint:allow(no-panic): documented panic contract (no finite point)
        let (trigger, class, collected) = fired.expect("gesture has a finite point");
        // lint:allow(no-panic): documented panic contract (non-finite features)
        let class = class.expect("finite gesture features classify");
        let points_at_recognition = match trigger {
            PhaseTransition::Eager => collected,
            _ => gesture.len(),
        };
        EagerRun {
            class: usize::from(class),
            points_at_recognition,
            total_points: gesture.len(),
            eager: points_at_recognition < gesture.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grandma_events::gesture_events;
    use grandma_geom::Point;

    fn two_segment(first: (f64, f64), second: (f64, f64), jiggle: f64) -> Gesture {
        let mut pts = Vec::new();
        let (mut x, mut y) = (0.0, 0.0);
        for i in 0..10 {
            pts.push(Point::new(x + jiggle * (i % 2) as f64, y, i as f64 * 10.0));
            x += first.0 * 5.0;
            y += first.1 * 5.0;
        }
        for i in 0..9 {
            x += second.0 * 5.0;
            y += second.1 * 5.0;
            pts.push(Point::new(
                x,
                y + jiggle * (i % 2) as f64,
                100.0 + i as f64 * 10.0,
            ));
        }
        Gesture::from_points(pts)
    }

    /// Four L-shaped classes sharing pairwise prefixes: right-up,
    /// right-down, up-right, up-left.
    fn four_class_training() -> Vec<Vec<Gesture>> {
        let dirs = [
            ((1.0, 0.0), (0.0, 1.0)),
            ((1.0, 0.0), (0.0, -1.0)),
            ((0.0, 1.0), (1.0, 0.0)),
            ((0.0, 1.0), (-1.0, 0.0)),
        ];
        dirs.iter()
            .map(|&(a, b)| {
                (0..10)
                    .map(|e| two_segment(a, b, 0.1 + e as f64 * 0.04))
                    .collect()
            })
            .collect()
    }

    fn trained() -> (EagerRecognizer, EagerTrainReport) {
        EagerRecognizer::train(
            &four_class_training(),
            &FeatureMask::all(),
            &EagerConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn eager_recognition_fires_before_gesture_end() {
        let (rec, _) = trained();
        let g = two_segment((1.0, 0.0), (0.0, 1.0), 0.23);
        let run = rec.run(&g);
        assert_eq!(run.class, 0);
        assert!(run.eager, "should fire before the end");
        assert!(run.points_at_recognition < g.len());
    }

    #[test]
    fn eager_recognition_waits_past_the_shared_prefix() {
        // The first segment is shared between classes 0 and 1; firing
        // before the corner would be a conservatism violation.
        let (rec, _) = trained();
        let g = two_segment((1.0, 0.0), (0.0, -1.0), 0.17);
        let run = rec.run(&g);
        assert_eq!(run.class, 1);
        assert!(
            run.points_at_recognition >= 10,
            "fired at {} but the corner is at point 10",
            run.points_at_recognition
        );
    }

    /// Feeds `g` as mouse-down, moves and mouse-up through a filter-less
    /// interaction, returning every step in debug form.
    fn steps(rec: &EagerRecognizer, g: &Gesture) -> Vec<String> {
        let mut m = Interaction::new(InteractionConfig {
            min_point_distance: 0.0,
            ..InteractionConfig::default()
        });
        let mut log = Vec::new();
        for e in gesture_events(g, Button::Left) {
            m.feed(rec, e, &mut |step| log.push(format!("{step:?}")));
        }
        log
    }

    #[test]
    fn feed_reports_decision_exactly_once() {
        let (rec, _) = trained();
        let g = two_segment((1.0, 0.0), (0.0, 1.0), 0.21);
        let log = steps(&rec, &g);
        let recognized: Vec<_> = log.iter().filter(|s| s.starts_with("Recognized")).collect();
        assert_eq!(recognized.len(), 1, "{log:?}");
        assert!(recognized[0].starts_with("Recognized { trigger: Eager, class: Some(0)"));
        assert!(log
            .last()
            .is_some_and(|s| s.starts_with("Finished { outcome: Manipulated, class: Some(0)")));
    }

    #[test]
    fn finish_classifies_undecided_gestures() {
        let (rec, _) = trained();
        // Only the shared prefix: ambiguous to the end.
        let prefix = two_segment((1.0, 0.0), (0.0, 1.0), 0.2)
            .subgesture(8)
            .unwrap();
        let run = rec.run(&prefix);
        assert!(!run.eager, "prefix must stay ambiguous");
        assert_eq!(run.points_at_recognition, prefix.len());
        assert!(
            run.class == 0 || run.class == 1,
            "prefix belongs to class 0 or 1"
        );
    }

    #[test]
    fn feed_drops_non_finite_points_without_poisoning_features() {
        let (rec, _) = trained();
        let g = two_segment((1.0, 0.0), (0.0, 1.0), 0.23);
        let clean = rec.run(&g);
        // Interleave corrupted samples into the clean stream: the run must
        // reach the same decision at the same clean point.
        let mut points = Vec::new();
        for &p in g.points() {
            points.extend([
                Point::new(f64::NAN, p.y, p.t),
                Point::new(p.x, f64::INFINITY, p.t),
                Point::new(p.x, p.y, f64::NAN),
                p,
            ]);
        }
        let noisy = Gesture::from_points(points);
        let run = rec.run(&noisy);
        assert!(clean.eager && run.eager);
        assert_eq!(run.class, clean.class);
        assert_eq!(run.points_at_recognition, clean.points_at_recognition);
        assert_eq!(run.total_points, noisy.len());
    }

    fn all_non_finite() -> Gesture {
        (0..20)
            .map(|i| Point::new(f64::NAN, f64::INFINITY, i as f64 * 10.0))
            .collect()
    }

    #[test]
    fn all_non_finite_stream_finishes_as_none() {
        let (rec, _) = trained();
        // No finite mouse-down ever opens an interaction: nothing is
        // collected, classified or finished.
        assert!(steps(&rec, &all_non_finite()).is_empty());
    }

    #[test]
    #[should_panic(expected = "finite point")]
    fn run_panics_on_an_all_non_finite_gesture() {
        let (rec, _) = trained();
        let _ = rec.run(&all_non_finite());
    }

    /// Every coordinate finite, but the span overflows to infinity.
    fn overflowing() -> Gesture {
        Gesture::from_points(vec![
            Point::new(0.0, 0.0, 0.0),
            Point::new(f64::MAX, 0.0, 10.0),
            Point::new(-f64::MAX, 0.0, 20.0),
        ])
    }

    #[test]
    fn interaction_rejects_finite_gestures_with_non_finite_features() {
        let (rec, _) = trained();
        let log = steps(&rec, &overflowing());
        assert!(log[1].starts_with("Recognized { trigger: MouseUp, class: None"));
        assert!(log[2].starts_with("Finished { outcome: Rejected, class: None"));
    }

    #[test]
    #[should_panic(expected = "features classify")]
    fn run_panics_on_finite_points_with_non_finite_features() {
        let (rec, _) = trained();
        let _ = rec.run(&overflowing());
    }

    #[test]
    fn eager_accuracy_on_fresh_examples() {
        let (rec, _) = trained();
        let mut correct = 0;
        let mut total = 0;
        let dirs = [
            ((1.0, 0.0), (0.0, 1.0)),
            ((1.0, 0.0), (0.0, -1.0)),
            ((0.0, 1.0), (1.0, 0.0)),
            ((0.0, 1.0), (-1.0, 0.0)),
        ];
        for (class, &(a, b)) in dirs.iter().enumerate() {
            for e in 0..10 {
                let g = two_segment(a, b, 0.12 + e as f64 * 0.037);
                total += 1;
                if rec.run(&g).class == class {
                    correct += 1;
                }
            }
        }
        assert!(
            correct * 10 >= total * 9,
            "eager accuracy too low: {correct}/{total}"
        );
    }

    #[test]
    fn train_report_is_populated() {
        let (_, report) = trained();
        assert!(!report.records.is_empty());
        assert!(!report.auc_classes.is_empty());
        assert!(report.move_outcome.threshold.is_some());
        assert!(report.tweaks.passes >= 1);
    }

    #[test]
    fn is_unambiguous_rejects_tiny_prefixes() {
        let (rec, _) = trained();
        let g = two_segment((1.0, 0.0), (0.0, 1.0), 0.2);
        assert!(!rec.is_unambiguous(&g.subgesture(1).unwrap()));
    }

    #[test]
    #[should_panic(expected = "empty gesture")]
    fn run_panics_on_empty_gesture() {
        let (rec, _) = trained();
        let _ = rec.run(&Gesture::new());
    }
}
