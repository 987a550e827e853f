//! The incremental Rubine feature vector.
//!
//! §4.2: "My method of classifying single-stroke gestures, called
//! statistical gesture recognition, works by representing a gesture g by a
//! vector of (currently twelve) features f. Each feature has the property
//! that it can be updated in constant time per mouse point, thus arbitrarily
//! large gestures can be handled."
//!
//! This module implements the canonical thirteen-feature set from Rubine's
//! companion SIGGRAPH '91 paper ("Specifying gestures by example"), which
//! the USENIX paper summarizes. The USENIX text says "currently twelve";
//! the exact dropped feature is not identified, so [`FeatureMask`] lets
//! callers select any subset (and [`FeatureMask::without_timing`] gives a
//! purely spatial eleven-feature variant useful when timestamps are
//! synthetic).
//!
//! Feature list (indices into the vector):
//!
//! | # | name | definition |
//! |---|------|------------|
//! | 0 | `cos_initial` | cosine of the initial angle, measured from the start to the third point |
//! | 1 | `sin_initial` | sine of the initial angle |
//! | 2 | `bbox_diagonal` | length of the bounding-box diagonal |
//! | 3 | `bbox_angle` | angle of the bounding-box diagonal |
//! | 4 | `endpoint_distance` | distance from first to last point |
//! | 5 | `cos_endpoint` | cosine of the angle from first to last point |
//! | 6 | `sin_endpoint` | sine of that angle |
//! | 7 | `path_length` | total arc length |
//! | 8 | `total_turning` | total signed turning angle |
//! | 9 | `abs_turning` | total absolute turning angle |
//! | 10 | `sq_turning` | sum of squared turning angles ("sharpness") |
//! | 11 | `max_speed_sq` | maximum squared point-to-point speed |
//! | 12 | `duration` | elapsed time from first to last point |

use grandma_geom::{Gesture, Point};
use grandma_linalg::Vector;

/// Number of features in the canonical set.
pub const FEATURE_COUNT: usize = 13;

/// Human-readable feature names, indexed like the feature vector.
pub const FEATURE_NAMES: [&str; FEATURE_COUNT] = [
    "cos_initial",
    "sin_initial",
    "bbox_diagonal",
    "bbox_angle",
    "endpoint_distance",
    "cos_endpoint",
    "sin_endpoint",
    "path_length",
    "total_turning",
    "abs_turning",
    "sq_turning",
    "max_speed_sq",
    "duration",
];

/// A subset of the thirteen canonical features.
///
/// The classifier dimension equals the number of enabled features; masks
/// must agree between training and classification (the [`crate::Classifier`]
/// stores its mask and applies it automatically).
///
/// # Examples
///
/// ```
/// use grandma_core::FeatureMask;
///
/// assert_eq!(FeatureMask::all().count(), 13);
/// assert_eq!(FeatureMask::without_timing().count(), 11);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureMask {
    bits: u16,
}

impl FeatureMask {
    /// All thirteen features.
    pub fn all() -> Self {
        Self {
            bits: (1 << FEATURE_COUNT) - 1,
        }
    }

    /// The eleven purely spatial features (drops `max_speed_sq` and
    /// `duration`). Useful when timestamps carry no information, e.g. for
    /// uniformly resampled synthetic data.
    pub fn without_timing() -> Self {
        let mut m = Self::all();
        m.disable(11);
        m.disable(12);
        m
    }

    /// A twelve-feature variant (drops `max_speed_sq`), matching the count
    /// the USENIX paper quotes. The paper does not identify which feature
    /// its twelve were; this is one defensible choice.
    pub fn paper_twelve() -> Self {
        let mut m = Self::all();
        m.disable(11);
        m
    }

    /// An empty mask; enable features individually.
    pub fn none() -> Self {
        Self { bits: 0 }
    }

    /// Enables feature `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= FEATURE_COUNT`.
    pub fn enable(&mut self, index: usize) {
        assert!(index < FEATURE_COUNT, "feature index out of range");
        self.bits |= 1 << index;
    }

    /// Disables feature `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= FEATURE_COUNT`.
    pub fn disable(&mut self, index: usize) {
        assert!(index < FEATURE_COUNT, "feature index out of range");
        self.bits &= !(1 << index);
    }

    /// Returns whether feature `index` is enabled.
    pub fn contains(&self, index: usize) -> bool {
        index < FEATURE_COUNT && self.bits & (1 << index) != 0
    }

    /// Returns the number of enabled features (the classifier dimension).
    pub fn count(&self) -> usize {
        self.bits.count_ones() as usize
    }

    /// Returns the raw mask bits (used by persistence).
    pub fn bits(&self) -> u16 {
        self.bits
    }

    /// Projects a full 13-feature vector down to the enabled features.
    pub fn project(&self, full: &[f64; FEATURE_COUNT]) -> Vector {
        let mut out = Vec::with_capacity(self.count());
        for (i, v) in full.iter().enumerate() {
            if self.contains(i) {
                out.push(*v);
            }
        }
        Vector::from_vec(out)
    }

    /// Projects a full 13-feature vector into a caller-provided buffer,
    /// allocating nothing.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.count()`.
    pub fn project_into(&self, full: &[f64; FEATURE_COUNT], out: &mut [f64]) {
        assert_eq!(out.len(), self.count(), "one slot per enabled feature");
        let mut slots = out.iter_mut();
        for (i, v) in full.iter().enumerate() {
            if self.contains(i) {
                if let Some(slot) = slots.next() {
                    *slot = *v;
                }
            }
        }
    }

    /// Returns the names of the enabled features in vector order.
    pub fn names(&self) -> Vec<&'static str> {
        (0..FEATURE_COUNT)
            .filter(|&i| self.contains(i))
            .map(|i| FEATURE_NAMES[i])
            .collect()
    }
}

impl Default for FeatureMask {
    fn default() -> Self {
        Self::all()
    }
}

/// Incremental extractor maintaining all thirteen features in O(1) per
/// point.
///
/// Feed points with [`FeatureExtractor::update`]; read the current vector
/// with [`FeatureExtractor::features`] at any time — this is what makes
/// eager recognition cheap enough to run on every mouse point.
///
/// # Examples
///
/// ```
/// use grandma_core::FeatureExtractor;
/// use grandma_geom::Point;
///
/// let mut fx = FeatureExtractor::new();
/// fx.update(Point::new(0.0, 0.0, 0.0));
/// fx.update(Point::new(3.0, 4.0, 10.0));
/// let f = fx.features();
/// assert_eq!(f[7], 5.0); // path length
/// assert_eq!(f[12], 10.0); // duration
/// ```
#[derive(Debug, Clone)]
pub struct FeatureExtractor {
    count: usize,
    start: Point,
    third: Point,
    last: Point,
    prev_delta: (f64, f64),
    min_x: f64,
    min_y: f64,
    max_x: f64,
    max_y: f64,
    path_length: f64,
    total_turning: f64,
    abs_turning: f64,
    sq_turning: f64,
    max_speed_sq: f64,
}

impl FeatureExtractor {
    /// Creates an extractor with no points seen.
    pub fn new() -> Self {
        let zero = Point::xy(0.0, 0.0);
        Self {
            count: 0,
            start: zero,
            third: zero,
            last: zero,
            prev_delta: (0.0, 0.0),
            min_x: f64::INFINITY,
            min_y: f64::INFINITY,
            max_x: f64::NEG_INFINITY,
            max_y: f64::NEG_INFINITY,
            path_length: 0.0,
            total_turning: 0.0,
            abs_turning: 0.0,
            sq_turning: 0.0,
            max_speed_sq: 0.0,
        }
    }

    /// Returns how many points have been consumed.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Resets to the no-points-seen state.
    pub fn reset(&mut self) {
        *self = Self::new();
    }

    /// Consumes one point, updating every feature in constant time.
    pub fn update(&mut self, p: Point) {
        self.count += 1;
        self.min_x = self.min_x.min(p.x);
        self.min_y = self.min_y.min(p.y);
        self.max_x = self.max_x.max(p.x);
        self.max_y = self.max_y.max(p.y);
        if self.count == 1 {
            self.start = p;
            self.third = p;
            self.last = p;
            return;
        }
        if self.count <= 3 {
            // Rubine measures the initial angle from the start to the third
            // point for robustness against first-segment noise.
            self.third = p;
        }
        let dx = p.x - self.last.x;
        let dy = p.y - self.last.y;
        let dt = p.t - self.last.t;
        let seg = (dx * dx + dy * dy).sqrt();
        self.path_length += seg;
        if dt > 0.0 {
            let speed_sq = (dx * dx + dy * dy) / (dt * dt);
            if speed_sq > self.max_speed_sq {
                self.max_speed_sq = speed_sq;
            }
        }
        if self.count >= 3 {
            let (pdx, pdy) = self.prev_delta;
            // lint:allow(float-eq): exact-zero means a repeated point; skip it
            if (pdx != 0.0 || pdy != 0.0) && (dx != 0.0 || dy != 0.0) {
                // Same sign convention as `grandma_geom::turning_angles`:
                // counterclockwise turns positive in a y-up frame.
                let cross = dx * pdy - pdx * dy;
                let dot = dx * pdx + dy * pdy;
                let theta = (-cross).atan2(dot);
                self.total_turning += theta;
                self.abs_turning += theta.abs();
                self.sq_turning += theta * theta;
            }
        }
        // lint:allow(float-eq): only a true zero delta keeps prev_delta
        if dx != 0.0 || dy != 0.0 {
            self.prev_delta = (dx, dy);
        }
        self.last = p;
    }

    /// Returns the current full 13-feature vector.
    ///
    /// Well-defined for any number of points (all-zero before the first
    /// point); angle features fall back to zero when the geometry that
    /// defines them is degenerate, mirroring Rubine's divide-by-zero
    /// guards.
    pub fn features(&self) -> [f64; FEATURE_COUNT] {
        let mut f = [0.0; FEATURE_COUNT];
        if self.count == 0 {
            return f;
        }
        // f0, f1: initial angle from start to third point.
        let idx = self.third.x - self.start.x;
        let idy = self.third.y - self.start.y;
        let id = (idx * idx + idy * idy).sqrt();
        if id > 0.0 {
            f[0] = idx / id;
            f[1] = idy / id;
        }
        // f2, f3: bounding-box diagonal.
        let w = self.max_x - self.min_x;
        let h = self.max_y - self.min_y;
        f[2] = (w * w + h * h).sqrt();
        f[3] = if w > 0.0 || h > 0.0 { h.atan2(w) } else { 0.0 };
        // f4..f6: endpoint vector.
        let ex = self.last.x - self.start.x;
        let ey = self.last.y - self.start.y;
        let ed = (ex * ex + ey * ey).sqrt();
        f[4] = ed;
        if ed > 0.0 {
            f[5] = ex / ed;
            f[6] = ey / ed;
        }
        // f7..f10: arc length and turning.
        f[7] = self.path_length;
        f[8] = self.total_turning;
        f[9] = self.abs_turning;
        f[10] = self.sq_turning;
        // f11, f12: timing.
        f[11] = self.max_speed_sq;
        f[12] = self.last.t - self.start.t;
        f
    }

    /// Returns the masked feature vector.
    pub fn masked_features(&self, mask: &FeatureMask) -> Vector {
        mask.project(&self.features())
    }

    /// Writes the masked feature vector into a caller-provided buffer,
    /// allocating nothing. The full 13-feature vector lives on the stack,
    /// so this is the zero-heap-allocation per-point read path.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != mask.count()`.
    pub fn masked_features_into(&self, mask: &FeatureMask, out: &mut [f64]) {
        mask.project_into(&self.features(), out);
    }

    /// Extracts the masked feature vector of a complete gesture in one
    /// call.
    pub fn extract(gesture: &Gesture, mask: &FeatureMask) -> Vector {
        let mut fx = Self::new();
        for &p in gesture.points() {
            fx.update(p);
        }
        fx.masked_features(mask)
    }
}

impl Default for FeatureExtractor {
    fn default() -> Self {
        Self::new()
    }
}

/// Input-point filter discarding points that move less than a threshold
/// distance from the previously kept point.
///
/// Rubine's collection code discarded mouse points within three pixels of
/// the previous point to suppress jitter; the gesture handler in
/// `grandma-toolkit` applies this filter before feeding the extractor.
///
/// # Examples
///
/// ```
/// use grandma_core::PointFilter;
/// use grandma_geom::Point;
///
/// let mut filter = PointFilter::new(3.0);
/// assert!(filter.accept(&Point::xy(0.0, 0.0)));
/// assert!(!filter.accept(&Point::xy(1.0, 1.0))); // too close
/// assert!(filter.accept(&Point::xy(5.0, 0.0)));
/// ```
#[derive(Debug, Clone)]
pub struct PointFilter {
    threshold: f64,
    last_kept: Option<Point>,
}

impl PointFilter {
    /// Creates a filter with the given minimum inter-point distance.
    pub fn new(threshold: f64) -> Self {
        Self {
            threshold,
            last_kept: None,
        }
    }

    /// Returns `true` if the point should be kept (and remembers it).
    pub fn accept(&mut self, p: &Point) -> bool {
        match self.last_kept {
            Some(prev) if prev.distance(p) < self.threshold => false,
            _ => {
                self.last_kept = Some(*p);
                true
            }
        }
    }

    /// Forgets the previously kept point (call between gestures).
    pub fn reset(&mut self) {
        self.last_kept = None;
    }

    /// Returns a copy of the gesture with filtered points removed — used
    /// to push *training* gestures through the same jitter filter the
    /// collection path applies, so the classifier sees one distribution.
    pub fn filter_gesture(threshold: f64, gesture: &Gesture) -> Gesture {
        let mut filter = PointFilter::new(threshold);
        gesture
            .points()
            .iter()
            .filter(|p| filter.accept(p))
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grandma_geom::{total_absolute_turning, total_turning};

    fn extract_full(g: &Gesture) -> [f64; FEATURE_COUNT] {
        let mut fx = FeatureExtractor::new();
        for &p in g.points() {
            fx.update(p);
        }
        fx.features()
    }

    fn l_shape() -> Gesture {
        Gesture::from_xy(
            &[
                (0.0, 0.0),
                (10.0, 0.0),
                (20.0, 0.0),
                (20.0, 10.0),
                (20.0, 20.0),
            ],
            10.0,
        )
    }

    #[test]
    fn empty_extractor_gives_zero_vector() {
        let fx = FeatureExtractor::new();
        assert_eq!(fx.features(), [0.0; FEATURE_COUNT]);
        assert_eq!(fx.count(), 0);
    }

    #[test]
    fn initial_angle_uses_third_point() {
        let g = Gesture::from_xy(&[(0.0, 0.0), (1.0, 5.0), (10.0, 0.0), (20.0, 0.0)], 10.0);
        let f = extract_full(&g);
        // Start to third point = (10, 0): angle 0.
        assert!((f[0] - 1.0).abs() < 1e-12);
        assert!(f[1].abs() < 1e-12);
    }

    #[test]
    fn initial_angle_with_two_points_uses_second() {
        let g = Gesture::from_xy(&[(0.0, 0.0), (0.0, 7.0)], 10.0);
        let f = extract_full(&g);
        assert!(f[0].abs() < 1e-12);
        assert!((f[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bbox_features_match_geometry() {
        let f = extract_full(&l_shape());
        let expected = (20.0f64 * 20.0 + 20.0 * 20.0).sqrt();
        assert!((f[2] - expected).abs() < 1e-12);
        assert!((f[3] - std::f64::consts::FRAC_PI_4).abs() < 1e-12);
    }

    #[test]
    fn endpoint_features_match_geometry() {
        let f = extract_full(&l_shape());
        let expected = (20.0f64 * 20.0 + 20.0 * 20.0).sqrt();
        assert!((f[4] - expected).abs() < 1e-12);
        assert!((f[5] - 1.0 / 2.0f64.sqrt()).abs() < 1e-12);
        assert!((f[6] - 1.0 / 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn path_length_accumulates() {
        let f = extract_full(&l_shape());
        assert!((f[7] - 40.0).abs() < 1e-12);
    }

    #[test]
    fn turning_features_match_batch_geometry() {
        let g = Gesture::from_xy(
            &[
                (0.0, 0.0),
                (5.0, 1.0),
                (9.0, -2.0),
                (15.0, 4.0),
                (13.0, 9.0),
            ],
            10.0,
        );
        let f = extract_full(&g);
        assert!((f[8] - total_turning(g.points())).abs() < 1e-12);
        assert!((f[9] - total_absolute_turning(g.points())).abs() < 1e-12);
    }

    #[test]
    fn single_point_gesture_yields_finite_features() {
        let g = Gesture::from_points(vec![Point::new(3.0, -7.0, 42.0)]);
        let f = extract_full(&g);
        assert!(f.iter().all(|v| v.is_finite()), "features {f:?}");
        // No extent, no motion, no elapsed time.
        assert_eq!(f[2], 0.0);
        assert_eq!(f[7], 0.0);
        assert_eq!(f[11], 0.0);
        assert_eq!(f[12], 0.0);
    }

    #[test]
    fn all_identical_points_yield_finite_features() {
        // A "gesture" that never moves: every normalized-direction feature
        // is undefined geometry and must fall back to zero, not NaN.
        let g = Gesture::from_points(vec![Point::new(5.0, 5.0, 10.0 * 0.0); 6]);
        let f = extract_full(&g);
        assert!(f.iter().all(|v| v.is_finite()), "features {f:?}");
        assert_eq!(f[0], 0.0);
        assert_eq!(f[1], 0.0);
        assert_eq!(f[5], 0.0);
        assert_eq!(f[6], 0.0);
    }

    #[test]
    fn zero_duration_gesture_never_produces_nan_speed() {
        // All points share one timestamp: dt = 0 on every segment. The
        // speed feature must not divide by zero.
        let g = Gesture::from_points(vec![
            Point::new(0.0, 0.0, 100.0),
            Point::new(10.0, 0.0, 100.0),
            Point::new(20.0, 5.0, 100.0),
        ]);
        let f = extract_full(&g);
        assert!(f.iter().all(|v| v.is_finite()), "features {f:?}");
        assert_eq!(f[11], 0.0, "zero-duration motion has no defined speed");
        assert_eq!(f[12], 0.0);
        // Geometry features still work.
        assert!(f[7] > 0.0);
    }

    #[test]
    fn degenerate_gestures_classify_or_reject_without_nan() {
        // End-to-end: degenerate-but-finite gestures must either classify
        // (finite features) or reject via the checked path — never panic,
        // never emit NaN.
        let degenerates = [
            Gesture::from_points(vec![Point::new(1.0, 2.0, 3.0)]),
            Gesture::from_points(vec![Point::new(4.0, 4.0, 0.0); 5]),
            Gesture::from_points(vec![Point::new(0.0, 0.0, 50.0), Point::new(6.0, 8.0, 50.0)]),
        ];
        for g in &degenerates {
            let v = FeatureExtractor::extract(g, &FeatureMask::all());
            assert!(v.is_finite(), "degenerate gesture produced {v:?}");
        }
    }

    #[test]
    fn duration_and_speed() {
        let g = Gesture::from_points(vec![
            Point::new(0.0, 0.0, 0.0),
            Point::new(10.0, 0.0, 10.0),  // speed 1 px/ms
            Point::new(10.0, 30.0, 20.0), // speed 3 px/ms
        ]);
        let f = extract_full(&g);
        assert_eq!(f[11], 9.0);
        assert_eq!(f[12], 20.0);
    }

    #[test]
    fn zero_dt_does_not_poison_speed() {
        let g = Gesture::from_points(vec![
            Point::new(0.0, 0.0, 0.0),
            Point::new(10.0, 0.0, 0.0), // simultaneous
            Point::new(20.0, 0.0, 10.0),
        ]);
        let f = extract_full(&g);
        assert!(f[11].is_finite());
        assert_eq!(f[11], 1.0);
    }

    #[test]
    fn stationary_gesture_has_no_nan_features() {
        let g = Gesture::from_xy(&[(5.0, 5.0), (5.0, 5.0), (5.0, 5.0)], 10.0);
        let f = extract_full(&g);
        assert!(f.iter().all(|v| v.is_finite()));
        assert_eq!(f[7], 0.0);
    }

    #[test]
    fn duplicate_points_do_not_corrupt_turning() {
        // Right, pause (duplicate), then up: turning must still be +pi/2.
        let g = Gesture::from_xy(&[(0.0, 0.0), (10.0, 0.0), (10.0, 0.0), (10.0, 10.0)], 10.0);
        let f = extract_full(&g);
        assert!((f[8] - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn incremental_equals_batch_on_prefixes() {
        let g = l_shape();
        let mut fx = FeatureExtractor::new();
        for (i, &p) in g.points().iter().enumerate() {
            fx.update(p);
            let batch = extract_full(&g.subgesture(i + 1).unwrap());
            let inc = fx.features();
            for k in 0..FEATURE_COUNT {
                assert!(
                    (batch[k] - inc[k]).abs() < 1e-12,
                    "feature {k} differs at prefix {}",
                    i + 1
                );
            }
        }
    }

    #[test]
    fn mask_projection_selects_features() {
        let mut mask = FeatureMask::none();
        mask.enable(7);
        mask.enable(12);
        let v = FeatureExtractor::extract(&l_shape(), &mask);
        assert_eq!(v.len(), 2);
        assert!((v[0] - 40.0).abs() < 1e-12);
        assert_eq!(v[1], 40.0);
    }

    #[test]
    fn mask_counts_and_names() {
        assert_eq!(FeatureMask::all().count(), 13);
        assert_eq!(FeatureMask::paper_twelve().count(), 12);
        assert_eq!(FeatureMask::without_timing().count(), 11);
        assert_eq!(FeatureMask::all().names().len(), 13);
        assert!(!FeatureMask::paper_twelve().contains(11));
    }

    #[test]
    fn point_filter_respects_threshold_and_reset() {
        let mut f = PointFilter::new(3.0);
        assert!(f.accept(&Point::xy(0.0, 0.0)));
        assert!(!f.accept(&Point::xy(2.0, 0.0)));
        assert!(f.accept(&Point::xy(4.0, 0.0)));
        f.reset();
        assert!(f.accept(&Point::xy(4.1, 0.0)));
    }
}
