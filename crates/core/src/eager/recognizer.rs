//! The trained eager recognizer and its point-at-a-time session.

use std::sync::Arc;

use grandma_geom::{Gesture, Point};

use crate::classifier::{Classification, Classifier, TrainError};
use crate::eager::auc::{Auc, AucClassKind, TweakStats};
use crate::eager::config::EagerConfig;
use crate::eager::labeling::{label_subgestures, SubgestureRecord};
use crate::eager::mover::{move_accidentally_complete, MoveOutcome};
use crate::features::{FeatureExtractor, FeatureMask};

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
/// Built by [`EagerRecognizer::train`]; drive it incrementally with
/// [`EagerRecognizer::session`] or over complete gestures with
/// [`EagerRecognizer::run`].
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

    /// Checked variant of [`EagerRecognizer::classify_full`]: `None` when
    /// the gesture's features are non-finite (corrupted or degenerate
    /// input) instead of a garbage argmax. See
    /// [`Classifier::classify_checked`].
    pub fn classify_full_checked(&self, gesture: &Gesture) -> Option<Classification> {
        self.full.classify_checked(gesture)
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

    /// Starts an incremental recognition session.
    ///
    /// The session allocates its feature scratch buffer here, once; every
    /// subsequent [`EagerSession::feed`] is heap-allocation-free.
    pub fn session(&self) -> EagerSession<'_> {
        EagerSession {
            recognizer: self,
            extractor: FeatureExtractor::new(),
            features_buf: vec![0.0; self.full.mask().count()],
            decided: None,
            decided_at: None,
        }
    }

    /// Runs the eager loop over a complete gesture: feed points until the
    /// AUC reports unambiguity, classify there, otherwise classify at the
    /// end.
    ///
    /// # Panics
    ///
    /// Panics if the gesture is empty or contains no finite points
    /// (non-finite points are dropped by [`EagerSession::feed`]). Untrusted
    /// streams should go through a session and [`EagerSession::finish_checked`].
    #[allow(clippy::expect_used)] // documented panic contract; see # Panics above
    pub fn run(&self, gesture: &Gesture) -> EagerRun {
        assert!(!gesture.is_empty(), "cannot run on an empty gesture");
        let mut session = self.session();
        for &p in gesture.points() {
            if let Some(class) = session.feed(p) {
                return EagerRun {
                    class,
                    points_at_recognition: session.points_seen(),
                    total_points: gesture.len(),
                    eager: session.points_seen() < gesture.len(),
                };
            }
        }
        // lint:allow(no-panic): documented panic contract; untrusted input uses finish_checked
        let class = session.finish().expect("non-empty gesture classifies");
        EagerRun {
            class,
            points_at_recognition: gesture.len(),
            total_points: gesture.len(),
            eager: false,
        }
    }
}

/// Incremental eager-recognition state for one gesture collection.
///
/// Feed mouse points as they arrive; [`EagerSession::feed`] returns
/// `Some(class)` exactly once — at the first point where the prefix is
/// unambiguous (the collection→manipulation phase transition). If the
/// gesture ends first, call [`EagerSession::finish`].
///
/// Each [`EagerSession::feed`] call does O(features × classes) work,
/// matching the paper's fixed per-point cost (§5: feature update plus one
/// AUC evaluation per point) — and performs zero heap allocations: the
/// masked features land in a buffer allocated once at session start, and
/// both the AUC verdict and the class pick are argmax queries over it.
#[derive(Debug, Clone)]
pub struct EagerSession<'a> {
    recognizer: &'a EagerRecognizer,
    extractor: FeatureExtractor,
    features_buf: Vec<f64>,
    decided: Option<usize>,
    decided_at: Option<usize>,
}

impl EagerSession<'_> {
    /// Consumes one mouse point. Returns `Some(class)` at the moment the
    /// prefix first becomes unambiguous, `None` otherwise (including on
    /// every point after the decision).
    ///
    /// Non-finite points (NaN/infinite coordinates or timestamps) are
    /// dropped without touching the running feature state: a single
    /// corrupted sample would otherwise poison every cumulative feature
    /// for the rest of the gesture. Dropped points do not count toward
    /// [`EagerSession::points_seen`].
    pub fn feed(&mut self, p: Point) -> Option<usize> {
        if !p.is_finite() {
            return None;
        }
        self.extractor.update(p);
        if self.decided.is_some() {
            return None;
        }
        if self.extractor.count() < self.recognizer.config.min_subgesture_points {
            return None;
        }
        self.extractor
            .masked_features_into(self.recognizer.full.mask(), &mut self.features_buf);
        if self.recognizer.auc.is_unambiguous_slice(&self.features_buf) {
            let class = self.recognizer.full.linear().best_class(&self.features_buf);
            self.decided = Some(class);
            self.decided_at = Some(self.extractor.count());
            Some(class)
        } else {
            None
        }
    }

    /// Ends the gesture (mouse-up): returns the eager decision if one was
    /// made, otherwise classifies the full gesture now. Returns `None`
    /// when no classifiable points arrived.
    pub fn finish(&mut self) -> Option<usize> {
        if let Some(class) = self.decided {
            return Some(class);
        }
        if self.extractor.count() == 0 {
            return None;
        }
        self.extractor
            .masked_features_into(self.recognizer.full.mask(), &mut self.features_buf);
        let class = self.recognizer.full.linear().best_class(&self.features_buf);
        self.decided = Some(class);
        self.decided_at = Some(self.extractor.count());
        Some(class)
    }

    /// Checked variant of [`EagerSession::finish`]: additionally returns
    /// `None` when the full-gesture features come out non-finite (a
    /// degenerate gesture that survived point-level filtering, e.g. one
    /// whose span overflows). The hardened interaction pipeline maps this
    /// to an explicit `Rejected` outcome instead of trusting a NaN argmax.
    pub fn finish_checked(&mut self) -> Option<usize> {
        if let Some(class) = self.decided {
            return Some(class);
        }
        if self.extractor.count() == 0 {
            return None;
        }
        self.extractor
            .masked_features_into(self.recognizer.full.mask(), &mut self.features_buf);
        if self.features_buf.iter().any(|v| !v.is_finite()) {
            return None;
        }
        let class = self.recognizer.full.linear().best_class(&self.features_buf);
        self.decided = Some(class);
        self.decided_at = Some(self.extractor.count());
        Some(class)
    }

    /// Number of points consumed so far.
    pub fn points_seen(&self) -> usize {
        self.extractor.count()
    }

    /// The decision, if one has been made.
    pub fn decided(&self) -> Option<usize> {
        self.decided
    }

    /// The point count at which the decision fired.
    pub fn recognition_point(&self) -> Option<usize> {
        self.decided_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn run_and_session_agree() {
        let (rec, _) = trained();
        let g = two_segment((0.0, 1.0), (1.0, 0.0), 0.19);
        let run = rec.run(&g);
        let mut session = rec.session();
        let mut fired = None;
        for &p in g.points() {
            if let Some(c) = session.feed(p) {
                fired = Some((c, session.points_seen()));
            }
        }
        let (class, at) = fired.expect("session fires too");
        assert_eq!(class, run.class);
        assert_eq!(at, run.points_at_recognition);
    }

    #[test]
    fn feed_reports_decision_exactly_once() {
        let (rec, _) = trained();
        let g = two_segment((1.0, 0.0), (0.0, 1.0), 0.21);
        let mut session = rec.session();
        let mut decisions = 0;
        for &p in g.points() {
            if session.feed(p).is_some() {
                decisions += 1;
            }
        }
        assert_eq!(decisions, 1);
        assert_eq!(session.decided(), Some(0));
        assert_eq!(
            session.recognition_point(),
            Some(session.recognition_point().unwrap())
        );
    }

    #[test]
    fn finish_classifies_undecided_gestures() {
        let (rec, _) = trained();
        // Only the shared prefix: ambiguous to the end.
        let prefix = two_segment((1.0, 0.0), (0.0, 1.0), 0.2)
            .subgesture(8)
            .unwrap();
        let mut session = rec.session();
        for &p in prefix.points() {
            assert!(session.feed(p).is_none(), "prefix must stay ambiguous");
        }
        let class = session.finish().expect("classifies at mouse-up");
        assert!(class == 0 || class == 1, "prefix belongs to class 0 or 1");
    }

    #[test]
    fn feed_drops_non_finite_points_without_poisoning_features() {
        let (rec, _) = trained();
        let g = two_segment((1.0, 0.0), (0.0, 1.0), 0.23);
        // Interleave corrupted samples into the clean stream: the session
        // must reach the same decision as the clean run.
        let clean = rec.run(&g);
        let mut session = rec.session();
        let mut fired = None;
        for &p in g.points() {
            for bad in [
                Point::new(f64::NAN, p.y, p.t),
                Point::new(p.x, f64::INFINITY, p.t),
                Point::new(p.x, p.y, f64::NAN),
            ] {
                assert!(session.feed(bad).is_none());
            }
            if let Some(c) = session.feed(p) {
                fired.get_or_insert((c, session.points_seen()));
            }
        }
        let (class, at) = fired.expect("still fires on the clean samples");
        assert_eq!(class, clean.class);
        assert_eq!(at, clean.points_at_recognition);
    }

    #[test]
    fn all_non_finite_stream_finishes_as_none() {
        let (rec, _) = trained();
        let mut session = rec.session();
        for i in 0..20 {
            let p = Point::new(f64::NAN, f64::INFINITY, i as f64 * 10.0);
            assert!(session.feed(p).is_none());
        }
        assert_eq!(session.points_seen(), 0);
        assert_eq!(session.finish(), None);
        assert_eq!(session.finish_checked(), None);
    }

    #[test]
    fn finish_checked_matches_finish_on_clean_input() {
        let (rec, _) = trained();
        let prefix = two_segment((1.0, 0.0), (0.0, 1.0), 0.2)
            .subgesture(8)
            .unwrap();
        let mut a = rec.session();
        let mut b = rec.session();
        for &p in prefix.points() {
            a.feed(p);
            b.feed(p);
        }
        assert_eq!(a.finish(), b.finish_checked());
    }

    #[test]
    fn classify_full_checked_rejects_corrupt_gestures() {
        let (rec, _) = trained();
        let good = two_segment((1.0, 0.0), (0.0, 1.0), 0.23);
        assert_eq!(
            rec.classify_full_checked(&good).map(|c| c.class),
            Some(rec.classify_full(&good).class)
        );
        let bad = Gesture::from_points(vec![
            Point::new(0.0, 0.0, 0.0),
            Point::new(f64::NAN, 1.0, 10.0),
        ]);
        assert!(rec.classify_full_checked(&bad).is_none());
    }

    #[test]
    fn finish_on_empty_session_returns_none() {
        let (rec, _) = trained();
        let mut session = rec.session();
        assert_eq!(session.finish(), None);
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
