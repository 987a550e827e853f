//! The statistical single-stroke classifier (§4.2).
//!
//! Classification is linear discrimination: each class has a linear
//! evaluation function (including a constant term) applied to the feature
//! vector, and the argmax wins. Training is the closed form that is optimal
//! under per-class multivariate-Gaussian feature distributions with a
//! common covariance: per-class means, a pooled covariance estimate,
//! weights `w_c = Σ⁻¹ μ_c` and constants `w_c0 = −½ μ_cᵀ Σ⁻¹ μ_c`.
//!
//! Two properties of this classifier are exploited by eager recognition
//! (§4.2 last paragraph) and are therefore first-class API here:
//!
//! * **Unequal misclassification costs** — biasing away from a class is a
//!   constant-term adjustment ([`LinearClassifier::add_to_constant`]).
//! * **The Mahalanobis distance metric** — exposed via
//!   [`LinearClassifier::mahalanobis_to_class`] and
//!   [`LinearClassifier::mahalanobis_between`], and used both for rejection
//!   and for detecting *accidentally complete* subgestures during eager
//!   training.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;

use grandma_geom::Gesture;
use grandma_linalg::{
    mahalanobis_squared, mean_vector, pooled_covariance, scatter_matrix, Matrix, SolveError,
    Vector, Workspace,
};

use crate::features::{FeatureExtractor, FeatureMask};

/// Classes per block of the evaluation kernel. On the x86-64 SSE2
/// baseline, the GDP AUC's per-point argmax (21 classes) measured
/// fastest with eight `f64` accumulators: level with four, and ahead of
/// two and sixteen.
const LANES: usize = 8;

/// Errors produced by classifier training.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// Fewer than two classes were supplied.
    TooFewClasses {
        /// Number of classes supplied.
        got: usize,
    },
    /// A class had no training examples.
    EmptyClass {
        /// Index of the offending class.
        class: usize,
    },
    /// A training example produced a non-finite feature vector.
    NonFiniteFeatures {
        /// Index of the offending class.
        class: usize,
        /// Index of the offending example within the class.
        example: usize,
    },
    /// The pooled covariance could not be inverted even with the ridge
    /// fallback.
    SingularCovariance,
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::TooFewClasses { got } => {
                write!(f, "training needs at least 2 classes, got {got}")
            }
            TrainError::EmptyClass { class } => {
                write!(f, "class {class} has no training examples")
            }
            TrainError::NonFiniteFeatures { class, example } => {
                write!(
                    f,
                    "example {example} of class {class} has non-finite features"
                )
            }
            TrainError::SingularCovariance => {
                write!(f, "pooled covariance matrix is singular beyond repair")
            }
        }
    }
}

impl std::error::Error for TrainError {}

impl From<SolveError> for TrainError {
    fn from(_: SolveError) -> Self {
        TrainError::SingularCovariance
    }
}

/// The result of classifying one feature vector.
#[derive(Debug, Clone)]
pub struct Classification {
    /// Winning class index.
    pub class: usize,
    /// Per-class linear evaluations `v_c`.
    pub evaluations: Vec<f64>,
    /// Estimated probability that the winner is correct:
    /// `1 / Σ_j exp(v_j − v_winner)`.
    pub probability: f64,
    /// Squared Mahalanobis distance from the feature vector to the winning
    /// class mean. Large values indicate an outlier that should be
    /// rejected.
    pub mahalanobis_squared: f64,
}

impl Classification {
    /// Returns `true` under Rubine's standard rejection rule: accept when
    /// the probability estimate is at least `min_probability` and the
    /// squared Mahalanobis distance is at most `max_distance_squared`.
    pub fn accepted(&self, min_probability: f64, max_distance_squared: f64) -> bool {
        self.probability >= min_probability && self.mahalanobis_squared <= max_distance_squared
    }
}

/// A linear-discriminant classifier over raw feature vectors.
///
/// This is the engine shared by the gesture-level [`Classifier`] and the
/// eager pipeline's Ambiguous/Unambiguous Classifier (which trains on
/// subgesture feature vectors rather than gestures).
#[derive(Debug, Clone)]
pub struct LinearClassifier {
    weights: Vec<Vector>,
    /// The evaluation kernel's copy of `weights`: feature-major, classes
    /// padded with zeros to a multiple of [`LANES`]. Block `b` is
    /// `dimension().max(1)` consecutive rows; row `j` holds feature `j`'s
    /// weight for classes `LANES·b .. LANES·b + LANES`. Derived once at
    /// construction: only constants change afterwards.
    lanes: Vec<[f64; LANES]>,
    constants: Vec<f64>,
    means: Vec<Vector>,
    inverse_covariance: Matrix,
    ridge: f64,
    /// Cached `μ_cᵀ Σ⁻¹ μ_c = w_c · μ_c` per class. With the shared
    /// quadratic form `xᵀΣ⁻¹x` this turns each per-class Mahalanobis
    /// distance into one dot product plus a constant:
    /// `d²_c(x) = xᵀΣ⁻¹x − 2·w_c·x + μ_cᵀΣ⁻¹μ_c`.
    mu_quads: Vec<f64>,
}

impl LinearClassifier {
    /// Trains from per-class feature-vector samples using the closed form.
    ///
    /// Samples may be owned (`Vec<Vector>`) or borrowed (`Vec<&Vector>`) —
    /// the AUC trains on subgesture records without cloning their feature
    /// vectors.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] if fewer than two classes are given, a class
    /// is empty, a sample is non-finite, or the pooled covariance cannot be
    /// inverted even with ridge escalation.
    pub fn train<S: Borrow<Vector>>(per_class: &[Vec<S>]) -> Result<Self, TrainError> {
        if per_class.len() < 2 {
            return Err(TrainError::TooFewClasses {
                got: per_class.len(),
            });
        }
        for (c, samples) in per_class.iter().enumerate() {
            if samples.is_empty() {
                return Err(TrainError::EmptyClass { class: c });
            }
            for (e, s) in samples.iter().enumerate() {
                if !s.borrow().is_finite() {
                    return Err(TrainError::NonFiniteFeatures {
                        class: c,
                        example: e,
                    });
                }
            }
        }
        let means: Vec<Vector> = per_class.iter().map(|s| mean_vector(s)).collect();
        let scatters: Vec<Matrix> = per_class
            .iter()
            .zip(means.iter())
            .map(|(s, m)| scatter_matrix(s, m))
            .collect();
        let counts: Vec<usize> = per_class.iter().map(|s| s.len()).collect();
        let covariance = pooled_covariance(&scatters, &counts);
        let outcome = covariance.inverse_with_ridge(1e-8, 24)?;
        let inverse_covariance = outcome.inverse;

        let weights: Vec<Vector> = means
            .iter()
            .map(|mu| inverse_covariance.mul_vector(mu))
            .collect();
        let constants: Vec<f64> = weights
            .iter()
            .zip(means.iter())
            .map(|(w, mu)| -0.5 * w.dot(mu))
            .collect();
        let mu_quads = mu_quadratics(&weights, &means);
        Ok(Self {
            lanes: lane_blocks(&weights),
            weights,
            constants,
            means,
            inverse_covariance,
            ridge: outcome.ridge,
            mu_quads,
        })
    }

    /// Reassembles a classifier from its parts (used by persistence).
    ///
    /// # Panics
    ///
    /// Panics if the per-class vectors disagree in length or dimension.
    pub fn from_parts(
        weights: Vec<Vector>,
        constants: Vec<f64>,
        means: Vec<Vector>,
        inverse_covariance: Matrix,
        ridge: f64,
    ) -> Self {
        assert_eq!(weights.len(), constants.len(), "class count mismatch");
        assert_eq!(weights.len(), means.len(), "class count mismatch");
        assert!(!weights.is_empty(), "need at least one class");
        let dim = means[0].len();
        assert!(
            weights.iter().all(|w| w.len() == dim) && means.iter().all(|m| m.len() == dim),
            "dimension mismatch"
        );
        assert_eq!(
            inverse_covariance.rows(),
            dim,
            "covariance dimension mismatch"
        );
        assert_eq!(
            inverse_covariance.cols(),
            dim,
            "covariance dimension mismatch"
        );
        let mu_quads = mu_quadratics(&weights, &means);
        Self {
            lanes: lane_blocks(&weights),
            weights,
            constants,
            means,
            inverse_covariance,
            ridge,
            mu_quads,
        }
    }

    /// Returns the number of classes.
    pub fn num_classes(&self) -> usize {
        self.weights.len()
    }

    /// Returns the feature dimension.
    pub fn dimension(&self) -> usize {
        self.means[0].len()
    }

    /// Returns the ridge term that training had to add to the pooled
    /// covariance (0 when it was invertible as-is).
    pub fn ridge(&self) -> f64 {
        self.ridge
    }

    /// Returns the per-class linear evaluations `v_c(f)`.
    ///
    /// # Panics
    ///
    /// Panics if `features` has the wrong dimension.
    pub fn evaluate(&self, features: &Vector) -> Vec<f64> {
        let mut out = vec![0.0; self.num_classes()];
        self.evaluate_into(features.as_slice(), &mut out);
        out
    }

    // lint:hot-path start — per-point eager loop: no panics, no allocation
    /// The evaluation kernel: the dot product of `features` with every
    /// class's weights, one block of [`LANES`] classes at a time (class
    /// `LANES·b + k` in lane `k` of block `b`; padded lanes read 0).
    ///
    /// Each lane folds in feature order from −0.0 with a separate
    /// multiply and add — exactly [`grandma_linalg::dot_slices`]' fold —
    /// so every evaluation is bit-identical to the per-class dot product
    /// (up to a NaN's sign and payload, which Rust leaves unspecified),
    /// while the lanes of a block are independent and vectorize.
    ///
    /// # Panics
    ///
    /// Panics if `features` has the wrong dimension.
    fn lane_dots<'a>(&'a self, features: &'a [f64]) -> impl Iterator<Item = [f64; LANES]> + 'a {
        assert_eq!(
            features.len(),
            self.dimension(),
            "dot product requires equal lengths"
        );
        self.lanes
            .chunks_exact(self.dimension().max(1))
            .map(move |rows| {
                let mut acc = [-0.0; LANES];
                for (row, &x) in rows.iter().zip(features) {
                    for (a, &w) in acc.iter_mut().zip(row) {
                        *a += w * x;
                    }
                }
                acc
            })
    }

    /// Writes the per-class linear evaluations into a caller-provided
    /// buffer, allocating nothing.
    ///
    /// The hot-path variant of [`LinearClassifier::evaluate`]: the eager
    /// session and the tweak loop reuse one buffer across calls.
    ///
    /// # Panics
    ///
    /// Panics if `features` has the wrong dimension or
    /// `out.len() != self.num_classes()`.
    pub fn evaluate_into(&self, features: &[f64], out: &mut [f64]) {
        assert_eq!(out.len(), self.constants.len(), "one slot per class");
        for ((slots, constants), dots) in out
            .chunks_mut(LANES)
            .zip(self.constants.chunks(LANES))
            .zip(self.lane_dots(features))
        {
            for ((slot, c), dot) in slots.iter_mut().zip(constants).zip(dots) {
                *slot = dot + c;
            }
        }
    }

    /// Returns the argmax class without materializing the evaluation
    /// vector — zero allocations. Ties go to the lowest class index, and
    /// a NaN evaluation never wins.
    ///
    /// This is all the per-point eager loop needs from the classifier: the
    /// AUC verdict and the full classifier's pick are both argmax queries.
    ///
    /// # Panics
    ///
    /// Panics if `features` has the wrong dimension.
    pub fn best_class(&self, features: &[f64]) -> usize {
        let mut best = (0, f64::NEG_INFINITY);
        let mut class = 0;
        for (constants, dots) in self.constants.chunks(LANES).zip(self.lane_dots(features)) {
            for (c, dot) in constants.iter().zip(dots) {
                let v = dot + c;
                if v > best.1 {
                    best = (class, v);
                }
                class += 1;
            }
        }
        best.0
    }
    // lint:hot-path end

    /// Computes the shared quadratic form `xᵀ Σ⁻¹ x` of the Mahalanobis
    /// identity using the caller's scratch [`Workspace`] (zero allocations
    /// after warm-up).
    ///
    /// Pair with [`LinearClassifier::mahalanobis_from_quadratic`] to get
    /// distances to many classes for one matrix-vector product total.
    pub fn mahalanobis_quadratic(&self, ws: &mut Workspace, features: &[f64]) -> f64 {
        ws.quadratic_form(features, &self.inverse_covariance)
    }

    /// Finishes the Mahalanobis identity for one class:
    /// `d²_c(x) = xᵀΣ⁻¹x − 2·w_c·x + μ_cᵀΣ⁻¹μ_c`, where the first term is
    /// the `quadratic` computed once per point by
    /// [`LinearClassifier::mahalanobis_quadratic`] and the last is cached at
    /// training time. One dot product per class, no allocation.
    pub fn mahalanobis_from_quadratic(
        &self,
        quadratic: f64,
        features: &[f64],
        class: usize,
    ) -> f64 {
        quadratic - 2.0 * self.weights[class].dot_slice(features) + self.mu_quads[class]
    }

    /// Classifies a feature vector.
    ///
    /// Never panics on NaN: evaluations are compared with `total_cmp`, so
    /// a corrupted feature vector yields a deterministic (if meaningless)
    /// argmax. Callers on untrusted input should prefer
    /// [`LinearClassifier::classify_slice_checked`], which turns non-finite
    /// input into an explicit rejection instead.
    ///
    /// # Panics
    ///
    /// Panics if `features` has the wrong dimension.
    pub fn classify(&self, features: &Vector) -> Classification {
        let evaluations = self.evaluate(features);
        let mut class = 0;
        let mut best = f64::NEG_INFINITY;
        for (i, &v) in evaluations.iter().enumerate() {
            if v.total_cmp(&best) == Ordering::Greater && !v.is_nan() {
                class = i;
                best = v;
            }
        }
        // P̂(correct) = 1 / Σ_j e^{v_j − v_best}; subtracting the max keeps
        // the exponentials bounded.
        let denom: f64 = evaluations.iter().map(|v| (v - best).exp()).sum();
        let probability = 1.0 / denom;
        let mahalanobis_squared =
            mahalanobis_squared(features, &self.means[class], &self.inverse_covariance);
        Classification {
            class,
            evaluations,
            probability,
            mahalanobis_squared,
        }
    }

    /// Checked, zero-allocation classification (the interaction machine's
    /// commit): evaluates into the caller's scratch buffer and returns the
    /// argmax class and its probability, or `None` when the features or
    /// any evaluation are non-finite, instead of a NaN argmax.
    ///
    /// # Panics
    ///
    /// Panics if `features` has the wrong dimension or
    /// `evaluations.len() != self.num_classes()`.
    // lint:hot-path start — zero-alloc commit path of the serve pipeline
    pub fn classify_slice_checked(
        &self,
        features: &[f64],
        evaluations: &mut [f64],
    ) -> Option<(usize, f64)> {
        if features.iter().any(|v| !v.is_finite()) {
            return None;
        }
        self.evaluate_into(features, evaluations);
        let mut class = 0;
        let mut best = f64::NEG_INFINITY;
        for (i, &v) in evaluations.iter().enumerate() {
            if !v.is_finite() {
                return None;
            }
            if v.total_cmp(&best) == Ordering::Greater {
                class = i;
                best = v;
            }
        }
        let denom: f64 = evaluations.iter().map(|v| (v - best).exp()).sum();
        Some((class, 1.0 / denom))
    }
    // lint:hot-path end

    /// Returns the mean feature vector of a class.
    pub fn class_mean(&self, class: usize) -> &Vector {
        &self.means[class]
    }

    /// Returns the inverse of the pooled covariance (the Mahalanobis
    /// metric).
    pub fn inverse_covariance(&self) -> &Matrix {
        &self.inverse_covariance
    }

    /// Squared Mahalanobis distance from a feature vector to a class mean.
    pub fn mahalanobis_to_class(&self, features: &Vector, class: usize) -> f64 {
        mahalanobis_squared(features, &self.means[class], &self.inverse_covariance)
    }

    /// Squared Mahalanobis distance between two arbitrary vectors under
    /// this classifier's metric.
    pub fn mahalanobis_between(&self, a: &Vector, b: &Vector) -> f64 {
        mahalanobis_squared(a, b, &self.inverse_covariance)
    }

    /// Adjusts a class's constant term by `delta`.
    ///
    /// This is the unequal-misclassification-cost hook: adding `ln k` makes
    /// the classifier behave as if the class were `k` times more likely a
    /// priori. The eager pipeline uses it both for the 5× ambiguity bias
    /// and for the per-violation tweaks.
    pub fn add_to_constant(&mut self, class: usize, delta: f64) {
        self.constants[class] += delta;
    }

    /// Returns a class's current constant term.
    pub fn constant(&self, class: usize) -> f64 {
        self.constants[class]
    }

    /// Returns a class's weight vector.
    pub fn weights(&self, class: usize) -> &Vector {
        &self.weights[class]
    }
}

/// Lays the per-class weights out for [`LinearClassifier::lane_dots`]:
/// feature-major blocks of [`LANES`] classes, the last padded with zero
/// weights. A zero-dimensional classifier still gets one all-zero row
/// per block (never read), so every block keeps its slot in the kernel.
fn lane_blocks(weights: &[Vector]) -> Vec<[f64; LANES]> {
    let dim = weights.first().map_or(0, Vector::len);
    let mut lanes = Vec::new();
    for block in weights.chunks(LANES) {
        for j in 0..dim.max(1) {
            let mut row = [0.0; LANES];
            for (slot, w) in row.iter_mut().zip(block) {
                *slot = w.as_slice().get(j).copied().unwrap_or(0.0);
            }
            lanes.push(row);
        }
    }
    lanes
}

/// Precomputes `μ_cᵀ Σ⁻¹ μ_c = w_c · μ_c` for every class.
///
/// Valid because the stored weights are exactly `Σ⁻¹ μ_c`
/// ([`LinearClassifier::add_to_constant`] only ever touches constants).
fn mu_quadratics(weights: &[Vector], means: &[Vector]) -> Vec<f64> {
    weights
        .iter()
        .zip(means.iter())
        .map(|(w, mu)| w.dot(mu))
        .collect()
}

/// A gesture classifier: the [`LinearClassifier`] engine plus the feature
/// mask that maps gestures to feature vectors.
///
/// This is the paper's *full classifier* `C`, trained on full gestures.
///
/// # Examples
///
/// ```
/// use grandma_core::{Classifier, FeatureMask};
/// use grandma_geom::Gesture;
///
/// let right: Vec<Gesture> = (0..5)
///     .map(|e| {
///         let y = e as f64 * 0.1;
///         Gesture::from_xy(&[(0.0, y), (10.0, y), (20.0, y), (30.0, y)], 10.0)
///     })
///     .collect();
/// let up: Vec<Gesture> = (0..5)
///     .map(|e| {
///         let x = e as f64 * 0.1;
///         Gesture::from_xy(&[(x, 0.0), (x, 10.0), (x, 20.0), (x, 30.0)], 10.0)
///     })
///     .collect();
/// let c = Classifier::train(&[right.clone(), up], &FeatureMask::all()).unwrap();
/// assert_eq!(c.classify(&right[0]).class, 0);
/// ```
#[derive(Debug, Clone)]
pub struct Classifier {
    linear: LinearClassifier,
    mask: FeatureMask,
}

impl Classifier {
    /// Trains a full classifier from per-class example gestures.
    ///
    /// `per_class[c]` holds the training examples `g_ce` of class `c`.
    ///
    /// # Errors
    ///
    /// See [`LinearClassifier::train`].
    pub fn train(per_class: &[Vec<Gesture>], mask: &FeatureMask) -> Result<Self, TrainError> {
        let samples: Vec<Vec<Vector>> = per_class
            .iter()
            .map(|gestures| {
                gestures
                    .iter()
                    .map(|g| FeatureExtractor::extract(g, mask))
                    .collect()
            })
            .collect();
        Ok(Self {
            linear: LinearClassifier::train(&samples)?,
            mask: *mask,
        })
    }

    /// Reassembles a classifier from an engine and mask (used by
    /// persistence).
    pub fn from_parts(linear: LinearClassifier, mask: FeatureMask) -> Self {
        Self { linear, mask }
    }

    /// Returns the raw feature-mask bits (used by persistence).
    pub fn mask_bits(&self) -> u16 {
        self.mask.bits()
    }

    /// Classifies a gesture.
    pub fn classify(&self, gesture: &Gesture) -> Classification {
        self.linear
            .classify(&FeatureExtractor::extract(gesture, &self.mask))
    }

    /// Checked, zero-allocation classification of already-extracted
    /// features: see [`LinearClassifier::classify_slice_checked`].
    pub fn classify_slice_checked(
        &self,
        features: &[f64],
        evaluations: &mut [f64],
    ) -> Option<(usize, f64)> {
        self.linear.classify_slice_checked(features, evaluations)
    }

    /// Returns the feature mask used at training time.
    pub fn mask(&self) -> &FeatureMask {
        &self.mask
    }

    /// Returns the number of gesture classes.
    pub fn num_classes(&self) -> usize {
        self.linear.num_classes()
    }

    /// Returns the underlying linear classifier.
    pub fn linear(&self) -> &LinearClassifier {
        &self.linear
    }

    /// Returns the underlying linear classifier mutably (for cost
    /// adjustments).
    pub fn linear_mut(&mut self) -> &mut LinearClassifier {
        &mut self.linear
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grandma_geom::Point;

    /// Builds a noiseless straight-stroke gesture in direction
    /// (dx, dy), with a tiny per-example offset so covariance is nonzero.
    fn stroke(dx: f64, dy: f64, jiggle: f64) -> Gesture {
        let mut pts = Vec::new();
        for i in 0..12 {
            let s = i as f64;
            pts.push(Point::new(
                s * dx + jiggle * (i % 3) as f64,
                s * dy + jiggle * (i % 2) as f64,
                s * 10.0,
            ));
        }
        Gesture::from_points(pts)
    }

    fn four_direction_training() -> Vec<Vec<Gesture>> {
        let dirs = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)];
        dirs.iter()
            .map(|&(dx, dy)| {
                (0..8)
                    .map(|e| stroke(dx, dy, 0.05 + e as f64 * 0.02))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn training_classifies_its_own_examples() {
        let data = four_direction_training();
        let c = Classifier::train(&data, &FeatureMask::all()).unwrap();
        for (class, gestures) in data.iter().enumerate() {
            for g in gestures {
                assert_eq!(c.classify(g).class, class);
            }
        }
    }

    #[test]
    fn classification_generalizes_to_unseen_examples() {
        let data = four_direction_training();
        let c = Classifier::train(&data, &FeatureMask::all()).unwrap();
        assert_eq!(c.classify(&stroke(1.0, 0.0, 0.3)).class, 0);
        assert_eq!(c.classify(&stroke(0.0, -1.0, 0.3)).class, 3);
    }

    #[test]
    fn probability_is_high_on_clear_examples() {
        let data = four_direction_training();
        let c = Classifier::train(&data, &FeatureMask::all()).unwrap();
        let cls = c.classify(&stroke(1.0, 0.0, 0.1));
        assert!(cls.probability > 0.9, "got {}", cls.probability);
    }

    #[test]
    fn ambiguous_input_has_smaller_winning_margin() {
        let data = four_direction_training();
        let c = Classifier::train(&data, &FeatureMask::all()).unwrap();
        let margin = |cls: &Classification| {
            let best = cls.evaluations[cls.class];
            let second = cls
                .evaluations
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != cls.class)
                .map(|(_, v)| *v)
                .fold(f64::NEG_INFINITY, f64::max);
            best - second
        };
        // A diagonal stroke sits between "right" and "up"; its winning
        // margin must be smaller than a clear example's.
        let clear = c.classify(&stroke(1.0, 0.0, 0.1));
        let diagonal = c.classify(&stroke(1.0, 1.0, 0.1));
        assert!(margin(&diagonal) < margin(&clear));
    }

    #[test]
    fn rejection_flags_outliers_by_distance() {
        let data = four_direction_training();
        let c = Classifier::train(&data, &FeatureMask::all()).unwrap();
        let typical = c.classify(&stroke(1.0, 0.0, 0.1));
        // A gesture 50x larger than anything trained on.
        let huge = c.classify(&stroke(50.0, 0.0, 0.1));
        assert!(huge.mahalanobis_squared > typical.mahalanobis_squared * 10.0);
    }

    #[test]
    fn accepted_applies_both_thresholds() {
        let cls = Classification {
            class: 0,
            evaluations: vec![1.0, 0.0],
            probability: 0.96,
            mahalanobis_squared: 10.0,
        };
        assert!(cls.accepted(0.95, 20.0));
        assert!(!cls.accepted(0.99, 20.0));
        assert!(!cls.accepted(0.95, 5.0));
    }

    #[test]
    fn classify_slice_checked_matches_allocating_path() {
        let data = four_direction_training();
        let c = Classifier::train(&data, &FeatureMask::all()).unwrap();
        let mut evals = vec![0.0; c.num_classes()];
        for g in [
            stroke(1.0, 0.0, 0.1),
            stroke(0.0, 1.0, 0.1),
            stroke(-1.0, 0.3, 0.2),
        ] {
            let features = FeatureExtractor::extract(&g, c.mask());
            let full = c.linear().classify(&features);
            let (class, probability) = c
                .classify_slice_checked(features.as_slice(), &mut evals)
                .unwrap();
            assert_eq!(class, full.class);
            assert!((probability - full.probability).abs() < 1e-12);
            assert_eq!(evals, full.evaluations);
        }
    }

    #[test]
    fn constant_adjustment_biases_decisions() {
        let data = four_direction_training();
        let mut c = Classifier::train(&data, &FeatureMask::all()).unwrap();
        // A diagonal is near the right/up boundary; bias strongly toward
        // class 1 ("left") and even clear "right" strokes flip only if the
        // bias is overwhelming. Use a moderate check: the evaluation moves
        // by exactly the delta.
        let g = stroke(1.0, 0.0, 0.1);
        let before = c.classify(&g).evaluations[1];
        c.linear_mut().add_to_constant(1, 2.5);
        let after = c.classify(&g).evaluations[1];
        assert!((after - before - 2.5).abs() < 1e-9);
    }

    #[test]
    fn too_few_classes_is_an_error() {
        let one = vec![vec![stroke(1.0, 0.0, 0.1)]];
        assert_eq!(
            Classifier::train(&one, &FeatureMask::all()).unwrap_err(),
            TrainError::TooFewClasses { got: 1 }
        );
    }

    #[test]
    fn empty_class_is_an_error() {
        let data = vec![vec![stroke(1.0, 0.0, 0.1)], vec![]];
        assert_eq!(
            Classifier::train(&data, &FeatureMask::all()).unwrap_err(),
            TrainError::EmptyClass { class: 1 }
        );
    }

    #[test]
    fn identical_examples_survive_via_ridge() {
        // Zero within-class scatter makes the covariance singular; the
        // ridge fallback must keep training alive.
        let a = vec![stroke(1.0, 0.0, 0.0); 5];
        let b = vec![stroke(0.0, 1.0, 0.0); 5];
        let c = Classifier::train(&[a.clone(), b], &FeatureMask::all()).unwrap();
        assert!(c.linear().ridge() > 0.0);
        assert_eq!(c.classify(&a[0]).class, 0);
    }

    #[test]
    fn mahalanobis_between_is_symmetric_in_arguments() {
        let data = four_direction_training();
        let c = Classifier::train(&data, &FeatureMask::all()).unwrap();
        let m0 = c.linear().class_mean(0).clone();
        let m1 = c.linear().class_mean(1).clone();
        let d01 = c.linear().mahalanobis_between(&m0, &m1);
        let d10 = c.linear().mahalanobis_between(&m1, &m0);
        assert!((d01 - d10).abs() < 1e-9);
        assert!(d01 > 0.0);
    }

    #[test]
    fn masked_training_reduces_dimension() {
        let data = four_direction_training();
        let c = Classifier::train(&data, &FeatureMask::without_timing()).unwrap();
        assert_eq!(c.linear().dimension(), 11);
        assert_eq!(c.classify(&stroke(1.0, 0.0, 0.1)).class, 0);
    }

    #[test]
    fn evaluations_sum_consistent_with_probability() {
        let data = four_direction_training();
        let c = Classifier::train(&data, &FeatureMask::all()).unwrap();
        let cls = c.classify(&stroke(0.0, 1.0, 0.15));
        let best = cls.evaluations[cls.class];
        let denom: f64 = cls.evaluations.iter().map(|v| (v - best).exp()).sum();
        assert!((cls.probability - 1.0 / denom).abs() < 1e-12);
    }

    #[test]
    fn nan_features_never_panic_plain_classify() {
        let data = four_direction_training();
        let c = Classifier::train(&data, &FeatureMask::all()).unwrap();
        let mut features = vec![0.0; c.linear().dimension()];
        features[0] = f64::NAN;
        features[3] = f64::INFINITY;
        // The unchecked path must stay panic-free and return a valid index.
        let cls = c.linear().classify(&Vector::from_vec(features));
        assert!(cls.class < c.num_classes());
    }

    #[test]
    fn checked_classify_rejects_non_finite_features() {
        let data = four_direction_training();
        let c = Classifier::train(&data, &FeatureMask::all()).unwrap();
        let mut evals = vec![0.0; c.num_classes()];
        let mut features = vec![0.0; c.linear().dimension()];
        features[5] = f64::NAN;
        assert!(c.classify_slice_checked(&features, &mut evals).is_none());
        features[5] = f64::INFINITY;
        assert!(c.classify_slice_checked(&features, &mut evals).is_none());
    }

    #[test]
    fn checked_classify_rejects_gesture_with_non_finite_points() {
        let data = four_direction_training();
        let c = Classifier::train(&data, &FeatureMask::all()).unwrap();
        let g = Gesture::from_points(vec![
            Point::new(0.0, 0.0, 0.0),
            Point::new(f64::NAN, 4.0, 10.0),
            Point::new(8.0, 8.0, 20.0),
        ]);
        let features = FeatureExtractor::extract(&g, c.mask());
        let mut evals = vec![0.0; c.num_classes()];
        assert!(c
            .classify_slice_checked(features.as_slice(), &mut evals)
            .is_none());
    }
}
