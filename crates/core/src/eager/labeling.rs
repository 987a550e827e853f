//! Stage 1: label every training subgesture complete or incomplete (§4.4).

use grandma_geom::Gesture;
use grandma_linalg::Vector;

use crate::classifier::Classifier;
use crate::eager::auc::AucClassKind;
use crate::eager::config::EagerConfig;
use crate::features::FeatureExtractor;

/// One training subgesture `g[i]` with its labels through the pipeline.
///
/// `assigned` starts at the initial partition (complete subgestures in
/// `Complete(class)`, incomplete in `Incomplete(predicted)`) and is
/// rewritten by [`crate::eager::move_accidentally_complete`].
#[derive(Debug, Clone, PartialEq)]
pub struct SubgestureRecord {
    /// True class of the full gesture this prefix came from.
    pub class: usize,
    /// Example index within the class.
    pub example: usize,
    /// Prefix length `i` (number of points).
    pub prefix_len: usize,
    /// Total points in the full gesture `|g|`.
    pub full_len: usize,
    /// Masked feature vector of the prefix.
    pub features: Vector,
    /// The full classifier's prediction `C(g[i])`.
    pub predicted: usize,
    /// `true` when `C(g[j]) = C(g)` for every `j ≥ i` (the §4.4
    /// definition of complete).
    pub complete: bool,
    /// Current AUC training class, possibly rewritten by the
    /// accidental-completeness move.
    pub assigned: AucClassKind,
}

impl SubgestureRecord {
    /// Returns `true` if the record currently sits in an incomplete class.
    pub fn is_incomplete(&self) -> bool {
        matches!(self.assigned, AucClassKind::Incomplete(_))
    }
}

/// Runs the full classifier over every subgesture of every training example
/// and produces the initial 2C-class partition.
///
/// For each example gesture `g` of class `c`, every prefix `g[i]` with
/// `i ≥ config.min_subgesture_points` is classified; `g[i]` is *complete*
/// iff it and all longer prefixes classify as `c`. Complete prefixes are
/// assigned to `C-c`; incomplete ones to `I-p` where `p` is the (likely
/// wrong) prediction for that prefix.
///
/// Features are computed incrementally so the whole pass costs
/// O(points × classes) rather than O(points² × classes).
pub fn label_subgestures(
    full: &Classifier,
    per_class: &[Vec<Gesture>],
    config: &EagerConfig,
) -> Vec<SubgestureRecord> {
    let min_len = config.min_subgesture_points.max(2);
    let mut records = Vec::new();
    for (class, examples) in per_class.iter().enumerate() {
        for (example, gesture) in examples.iter().enumerate() {
            // Incremental pass: features and prediction for every prefix.
            // `best_class` is an argmax query, so the only allocation per
            // prefix is the feature vector stored in the record itself.
            let first = records.len();
            let mut fx = FeatureExtractor::new();
            for (idx, &p) in gesture.points().iter().enumerate() {
                fx.update(p);
                let i = idx + 1;
                if i < min_len {
                    continue;
                }
                let features = fx.masked_features(full.mask());
                let predicted = full.linear().best_class(features.as_slice());
                records.push(SubgestureRecord {
                    class,
                    example,
                    prefix_len: i,
                    full_len: gesture.len(),
                    features,
                    predicted,
                    complete: false,
                    assigned: AucClassKind::Incomplete(predicted),
                });
            }
            // Completeness: scan from the longest prefix down; stay
            // complete while every prediction from here up matches the
            // true class.
            for r in records[first..].iter_mut().rev() {
                if r.predicted != class {
                    break;
                }
                r.complete = true;
                r.assigned = AucClassKind::Complete(class);
            }
        }
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureMask;
    use grandma_geom::Point;

    /// Horizontal run followed by a vertical run, the Figure 5 U/D shape.
    fn u_or_d(sign: f64, jiggle: f64) -> Gesture {
        let mut pts = Vec::new();
        for i in 0..8 {
            pts.push(Point::new(
                i as f64 * 5.0,
                jiggle * (i % 2) as f64,
                i as f64 * 10.0,
            ));
        }
        for i in 1..8 {
            pts.push(Point::new(
                35.0,
                sign * i as f64 * 5.0 + jiggle,
                70.0 + i as f64 * 10.0,
            ));
        }
        Gesture::from_points(pts)
    }

    fn ud_training() -> Vec<Vec<Gesture>> {
        vec![
            (0..8).map(|e| u_or_d(1.0, 0.1 + e as f64 * 0.05)).collect(),
            (0..8)
                .map(|e| u_or_d(-1.0, 0.1 + e as f64 * 0.05))
                .collect(),
        ]
    }

    #[test]
    fn full_gesture_prefix_is_always_complete_when_classified_right() {
        let data = ud_training();
        let full = Classifier::train(&data, &FeatureMask::all()).unwrap();
        let records = label_subgestures(&full, &data, &EagerConfig::default());
        for r in records.iter().filter(|r| r.prefix_len == r.full_len) {
            assert_eq!(
                r.complete,
                r.predicted == r.class,
                "full-length prefix completeness must equal correctness"
            );
        }
    }

    #[test]
    fn completeness_is_suffix_closed() {
        let data = ud_training();
        let full = Classifier::train(&data, &FeatureMask::all()).unwrap();
        let records = label_subgestures(&full, &data, &EagerConfig::default());
        // Group by (class, example) and check monotonicity: once complete,
        // all longer prefixes are complete.
        for class in 0..2 {
            for example in 0..8 {
                let mut seen_complete = false;
                let mut rs: Vec<&SubgestureRecord> = records
                    .iter()
                    .filter(|r| r.class == class && r.example == example)
                    .collect();
                rs.sort_by_key(|r| r.prefix_len);
                for r in rs {
                    if seen_complete {
                        assert!(r.complete, "completeness must be suffix-closed");
                    }
                    seen_complete = r.complete;
                }
            }
        }
    }

    #[test]
    fn early_prefixes_of_ud_are_ambiguous_hence_incomplete_for_one_class() {
        // The shared horizontal prelude cannot classify as both U and D;
        // whichever class loses must have incomplete early prefixes.
        let data = ud_training();
        let full = Classifier::train(&data, &FeatureMask::all()).unwrap();
        let records = label_subgestures(&full, &data, &EagerConfig::default());
        let early_incomplete = records
            .iter()
            .filter(|r| r.prefix_len <= 6 && !r.complete)
            .count();
        assert!(
            early_incomplete > 0,
            "some early prefixes must be incomplete"
        );
    }

    #[test]
    fn late_prefixes_are_complete_for_separable_classes() {
        let data = ud_training();
        let full = Classifier::train(&data, &FeatureMask::all()).unwrap();
        let records = label_subgestures(&full, &data, &EagerConfig::default());
        // After the corner (prefix 12+ of 15) everything should classify
        // correctly and therefore be complete.
        for r in records.iter().filter(|r| r.prefix_len >= 13) {
            assert!(
                r.complete,
                "late prefix {:?} should be complete",
                (r.class, r.example, r.prefix_len)
            );
        }
    }

    #[test]
    fn min_subgesture_points_is_respected() {
        let data = ud_training();
        let full = Classifier::train(&data, &FeatureMask::all()).unwrap();
        let config = EagerConfig {
            min_subgesture_points: 4,
            ..EagerConfig::default()
        };
        let records = label_subgestures(&full, &data, &config);
        assert!(records.iter().all(|r| r.prefix_len >= 4));
    }

    #[test]
    fn incomplete_records_carry_their_prediction() {
        let data = ud_training();
        let full = Classifier::train(&data, &FeatureMask::all()).unwrap();
        let records = label_subgestures(&full, &data, &EagerConfig::default());
        for r in &records {
            match r.assigned {
                AucClassKind::Complete(c) => {
                    assert!(r.complete);
                    assert_eq!(c, r.class);
                }
                AucClassKind::Incomplete(p) => {
                    assert!(!r.complete);
                    assert_eq!(p, r.predicted);
                }
            }
        }
    }

    #[test]
    fn too_short_gestures_are_skipped() {
        let mut data = ud_training();
        data[0].push(Gesture::from_xy(&[(0.0, 0.0)], 10.0));
        let full = Classifier::train(&ud_training(), &FeatureMask::all()).unwrap();
        let records = label_subgestures(&full, &data, &EagerConfig::default());
        assert!(records.iter().all(|r| r.full_len >= 2));
    }
}
