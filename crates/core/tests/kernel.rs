//! The classifier's evaluation kernel against the per-class dot product.
//!
//! `LinearClassifier` evaluates every class through one feature-major,
//! lane-blocked copy of its weights. That must change no bit: each
//! evaluation equals `dot_slices(w_c, x) + c` by `to_bits` (any NaN
//! matching any NaN), and the
//! argmax picks the same index, over class counts that leave every lane
//! remainder, odd dimensions, and inputs holding NaN, ±∞, −0.0,
//! subnormals and exact ties that fall in different lane blocks.
//!
//! Plain `#[test]` loops over a seeded xorshift generator (the build
//! environment is offline, so no proptest).

use std::cmp::Ordering;

use grandma_core::LinearClassifier;
use grandma_linalg::{dot_slices, Matrix, Vector};

/// Tiny deterministic PRNG (xorshift64*) for generating test cases.
struct TestRng(u64);

impl TestRng {
    fn new(seed: u64) -> Self {
        Self(seed.max(1))
    }
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + u * (hi - lo)
    }
    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }
    /// A finite value, or one time in `special` an IEEE edge case.
    fn value(&mut self, special: usize) -> f64 {
        if self.usize_in(0, special) > 0 {
            return self.range(-1e3, 1e3);
        }
        const EDGES: [f64; 10] = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            5e-324,
            -4.9e-320,
            f64::MIN_POSITIVE / 3.0,
            1e300,
            -1e-300,
        ];
        EDGES[self.usize_in(0, EDGES.len())]
    }
}

/// The definition: one `dot_slices` per class plus its constant, and the
/// first strictly greatest evaluation (NaN never wins).
fn reference(weights: &[Vector], constants: &[f64], x: &[f64]) -> (Vec<f64>, usize) {
    let evals: Vec<f64> = weights
        .iter()
        .zip(constants)
        .map(|(w, c)| dot_slices(w.as_slice(), x) + c)
        .collect();
    let mut best = (0, f64::NEG_INFINITY);
    for (i, &v) in evals.iter().enumerate() {
        if v > best.1 {
            best = (i, v);
        }
    }
    (evals, best.0)
}

/// `classify_slice_checked` by its definition over the reference
/// evaluations.
fn reference_checked(x: &[f64], evals: &[f64]) -> Option<(usize, f64)> {
    if x.iter().chain(evals).any(|v| !v.is_finite()) {
        return None;
    }
    let mut class = 0;
    let mut best = f64::NEG_INFINITY;
    for (i, &v) in evals.iter().enumerate() {
        if v.total_cmp(&best) == Ordering::Greater {
            class = i;
            best = v;
        }
    }
    let denom: f64 = evals.iter().map(|v| (v - best).exp()).sum();
    Some((class, 1.0 / denom))
}

/// The bits of each value, every NaN as the canonical one: Rust leaves
/// the sign and payload of a NaN result unspecified (the compiler may
/// commute an addition), so only "is NaN" is part of the contract.
fn bits(values: &[f64]) -> Vec<u64> {
    values
        .iter()
        .map(|v| if v.is_nan() { f64::NAN } else { *v }.to_bits())
        .collect()
}

fn classifier(weights: &[Vector], constants: &[f64]) -> LinearClassifier {
    let dim = weights[0].len();
    LinearClassifier::from_parts(
        weights.to_vec(),
        constants.to_vec(),
        vec![Vector::zeros(dim); weights.len()],
        Matrix::identity(dim),
        0.0,
    )
}

/// Every kernel entry point agrees with the reference on `x`.
fn assert_matches(linear: &LinearClassifier, weights: &[Vector], constants: &[f64], x: &[f64]) {
    let (evals, best) = reference(weights, constants, x);
    let case = format!("{} classes, dim {}, x = {x:?}", weights.len(), x.len());
    let mut out = vec![f64::NAN; weights.len()];
    linear.evaluate_into(x, &mut out);
    assert_eq!(bits(&out), bits(&evals), "evaluate_into: {case}");
    let owned = Vector::from_vec(x.to_vec());
    assert_eq!(
        bits(&linear.evaluate(&owned)),
        bits(&evals),
        "evaluate: {case}"
    );
    assert_eq!(linear.best_class(x), best, "best_class: {case}");
    let checked = linear.classify_slice_checked(x, &mut out);
    let expected = reference_checked(x, &evals);
    assert_eq!(
        checked.map(|(c, p)| (c, p.to_bits())),
        expected.map(|(c, p)| (c, p.to_bits())),
        "classify_slice_checked: {case}"
    );
}

#[test]
fn kernel_is_bit_identical_to_per_class_dot_products() {
    let mut rng = TestRng::new(0x6b65_726e);
    for classes in 2..=33 {
        for dim in 1..=13 {
            for special in [4, 40] {
                let weights: Vec<Vector> = (0..classes)
                    .map(|_| Vector::from_vec((0..dim).map(|_| rng.value(special)).collect()))
                    .collect();
                let mut constants: Vec<f64> = (0..classes).map(|_| rng.value(special)).collect();
                let mut linear = classifier(&weights, &constants);
                for _ in 0..6 {
                    let x: Vec<f64> = (0..dim).map(|_| rng.value(special)).collect();
                    assert_matches(&linear, &weights, &constants, &x);
                }
                // Constants move after construction (the eager bias and
                // tweaks); the kernel must read the current ones.
                let class = rng.usize_in(0, classes);
                let delta = rng.range(-50.0, 50.0);
                linear.add_to_constant(class, delta);
                constants[class] += delta;
                let x: Vec<f64> = (0..dim).map(|_| rng.value(40)).collect();
                assert_matches(&linear, &weights, &constants, &x);
            }
        }
    }
}

#[test]
fn exact_ties_go_to_the_lowest_class_across_lane_blocks() {
    let mut rng = TestRng::new(0x7469_6573);
    for classes in 2..=33 {
        // Two or three classes with identical weights and a constant far
        // above the rest tie for the win, wherever they fall: across the
        // first lane boundary, in different blocks, at both ends, and at
        // random.
        let mut ties = vec![vec![0, classes - 1]];
        if classes > 8 {
            ties.push(vec![7, 8]);
        }
        if classes > 17 {
            ties.push(vec![3, 11, 17]);
        }
        for _ in 0..6 {
            let low = rng.usize_in(0, classes - 1);
            ties.push(vec![
                low,
                rng.usize_in(low + 1, classes),
                rng.usize_in(low + 1, classes),
            ]);
        }
        for tied in ties {
            for dim in [1, 4, 13] {
                let mut weights: Vec<Vector> = (0..classes)
                    .map(|_| Vector::from_vec((0..dim).map(|_| rng.range(-1.0, 1.0)).collect()))
                    .collect();
                let mut constants: Vec<f64> =
                    (0..classes).map(|_| rng.range(-10.0, 10.0)).collect();
                let low = tied[0];
                for &t in &tied {
                    weights[t] = weights[low].clone();
                    constants[t] = 1e9;
                }
                let linear = classifier(&weights, &constants);
                let x: Vec<f64> = (0..dim).map(|_| rng.range(-5.0, 5.0)).collect();
                assert_matches(&linear, &weights, &constants, &x);
                assert_eq!(
                    linear.best_class(&x),
                    low,
                    "{classes} classes, tied {tied:?}"
                );
            }
        }
    }
}

#[test]
fn all_nan_and_all_negative_infinity_fall_back_to_class_zero() {
    for classes in [2, 8, 9, 17] {
        let weights = vec![Vector::from_vec(vec![1.0, 2.0]); classes];
        for constant in [f64::NAN, f64::NEG_INFINITY] {
            let constants = vec![constant; classes];
            let linear = classifier(&weights, &constants);
            assert_matches(&linear, &weights, &constants, &[0.5, -0.25]);
            assert_eq!(linear.best_class(&[0.5, -0.25]), 0);
        }
    }
}

#[test]
fn trained_classifiers_evaluate_like_their_weights() {
    let mut rng = TestRng::new(0x7472_6e64);
    for (classes, dim) in [(2, 13), (11, 13), (22, 13), (9, 5), (33, 3)] {
        let samples: Vec<Vec<Vector>> = (0..classes)
            .map(|c| {
                (0..dim + 3)
                    .map(|_| {
                        Vector::from_vec(
                            (0..dim)
                                .map(|j| (c * (j + 1)) as f64 + rng.range(-0.5, 0.5))
                                .collect(),
                        )
                    })
                    .collect()
            })
            .collect();
        let linear = LinearClassifier::train(&samples).expect("trains");
        let weights: Vec<Vector> = (0..classes).map(|c| linear.weights(c).clone()).collect();
        let constants: Vec<f64> = (0..classes).map(|c| linear.constant(c)).collect();
        for sample in samples.iter().flatten().take(40) {
            assert_matches(&linear, &weights, &constants, sample.as_slice());
        }
    }
}

#[test]
#[should_panic(expected = "dot product requires equal lengths")]
fn a_wrong_dimension_still_panics() {
    let weights = vec![Vector::from_vec(vec![1.0, 2.0]); 3];
    classifier(&weights, &[0.0; 3]).best_class(&[1.0]);
}
