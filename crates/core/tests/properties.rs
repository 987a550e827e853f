//! Property-style tests for the recognizer core.
//!
//! Plain `#[test]` loops over a seeded xorshift generator (the build
//! environment is offline, so no proptest).

use grandma_core::{
    Classifier, EagerConfig, EagerRecognizer, FeatureExtractor, FeatureMask, FEATURE_COUNT,
};
use grandma_geom::{Gesture, Point, Transform};

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
}

fn gesture(rng: &mut TestRng) -> Gesture {
    let n = rng.usize_in(2, 60);
    Gesture::from_points(
        (0..n)
            .map(|i| {
                Point::new(
                    rng.range(-200.0, 200.0),
                    rng.range(-200.0, 200.0),
                    i as f64 * 8.0,
                )
            })
            .collect(),
    )
}

/// Two L-shaped classes with per-example jitter, the workhorse training
/// set of the eager tests.
fn two_class_training(jitters: &[f64]) -> Vec<Vec<Gesture>> {
    let make = |sign: f64, jiggle: f64| {
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.push(Point::new(
                i as f64 * 5.0 + jiggle * (i % 3) as f64,
                jiggle * (i % 2) as f64,
                i as f64 * 10.0,
            ));
        }
        for i in 1..10 {
            pts.push(Point::new(
                45.0,
                sign * i as f64 * 5.0 + jiggle,
                90.0 + i as f64 * 10.0,
            ));
        }
        Gesture::from_points(pts)
    };
    vec![
        jitters.iter().map(|&j| make(1.0, j)).collect(),
        jitters.iter().map(|&j| make(-1.0, j)).collect(),
    ]
}

const CASES: usize = 64;

#[test]
fn incremental_features_equal_batch_features() {
    let mut rng = TestRng::new(0xc001);
    for _ in 0..CASES {
        let g = gesture(&mut rng);
        let mut fx = FeatureExtractor::new();
        for &p in g.points() {
            fx.update(p);
        }
        let inc = fx.features();
        let batch = {
            let mut fx2 = FeatureExtractor::new();
            for &p in g.points() {
                fx2.update(p);
            }
            fx2.features()
        };
        for k in 0..FEATURE_COUNT {
            assert_eq!(inc[k], batch[k]);
        }
        assert!(inc.iter().all(|v| v.is_finite()));
    }
}

#[test]
fn features_of_prefix_match_subgesture_extraction() {
    let mut rng = TestRng::new(0xc002);
    for _ in 0..CASES {
        let g = gesture(&mut rng);
        let cut = rng.usize_in(2, 60);
        if cut > g.len() {
            continue;
        }
        let prefix = g.subgesture(cut).unwrap();
        let direct = FeatureExtractor::extract(&prefix, &FeatureMask::all());
        let mut fx = FeatureExtractor::new();
        for &p in prefix.points() {
            fx.update(p);
        }
        let inc = fx.masked_features(&FeatureMask::all());
        for k in 0..direct.len() {
            assert!((direct[k] - inc[k]).abs() < 1e-12);
        }
    }
}

#[test]
fn spatial_features_are_translation_invariant() {
    let mut rng = TestRng::new(0xc003);
    for _ in 0..CASES {
        let g = gesture(&mut rng);
        let dx = rng.range(-500.0, 500.0);
        let dy = rng.range(-500.0, 500.0);
        let mask = FeatureMask::without_timing();
        let f0 = FeatureExtractor::extract(&g, &mask);
        let f1 = FeatureExtractor::extract(&g.transformed(&Transform::translation(dx, dy)), &mask);
        for k in 0..f0.len() {
            let tol = 1e-7 * (1.0 + f0[k].abs());
            assert!(
                (f0[k] - f1[k]).abs() < tol,
                "feature {} changed: {} vs {}",
                k,
                f0[k],
                f1[k]
            );
        }
    }
}

#[test]
fn classifier_probability_is_a_probability() {
    let mut rng = TestRng::new(0xc004);
    for case in 0..CASES {
        let g = gesture(&mut rng);
        let seed = case % 8;
        let jitters: Vec<f64> = (0..6).map(|i| 0.05 + (i + seed) as f64 * 0.03).collect();
        let data = two_class_training(&jitters);
        let c = Classifier::train(&data, &FeatureMask::all()).unwrap();
        let cls = c.classify(&g);
        assert!(cls.probability > 0.0 && cls.probability <= 1.0 + 1e-12);
        assert!(cls.mahalanobis_squared >= -1e-9);
        assert!(cls.class < 2);
    }
}

#[test]
fn training_examples_classify_to_their_own_class() {
    for seed in 0..16usize {
        let jitters: Vec<f64> = (0..8)
            .map(|i| 0.05 + (i + seed % 4) as f64 * 0.03)
            .collect();
        let data = two_class_training(&jitters);
        let c = Classifier::train(&data, &FeatureMask::all()).unwrap();
        for (class, gestures) in data.iter().enumerate() {
            for g in gestures {
                assert_eq!(c.classify(g).class, class);
            }
        }
    }
}

#[test]
fn eager_conservatism_on_training_set() {
    // D(s) = true on a training prefix implies the full classifier
    // already classifies that prefix as the gesture's class.
    for seed in 0..8usize {
        let jitters: Vec<f64> = (0..8)
            .map(|i| 0.05 + (i + seed % 4) as f64 * 0.03)
            .collect();
        let data = two_class_training(&jitters);
        let (rec, _) =
            EagerRecognizer::train(&data, &FeatureMask::all(), &EagerConfig::default()).unwrap();
        for (class, gestures) in data.iter().enumerate() {
            for g in gestures {
                for i in 2..=g.len() {
                    let prefix = g.subgesture(i).unwrap();
                    if rec.is_unambiguous(&prefix) {
                        assert_eq!(
                            rec.classify_full(&prefix).class,
                            class,
                            "unambiguous verdict on a prefix the full classifier gets wrong"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn eager_run_decision_point_is_stable_under_replay() {
    for seed in 0..8usize {
        let jitters: Vec<f64> = (0..8)
            .map(|i| 0.05 + (i + seed % 4) as f64 * 0.03)
            .collect();
        let data = two_class_training(&jitters);
        let (rec, _) =
            EagerRecognizer::train(&data, &FeatureMask::all(), &EagerConfig::default()).unwrap();
        let g = &data[0][0];
        let a = rec.run(g);
        let b = rec.run(g);
        assert_eq!(a, b);
    }
}
