//! Stage 3: move accidentally complete subgestures (§4.5).
//!
//! A subgesture can be *complete* (it and all longer prefixes classify
//! correctly) yet still genuinely ambiguous — e.g. the horizontal prelude
//! of a `D` gesture happens to classify as `D` even though a `U` starts the
//! same way (Figure 5's "accidentally complete" labels). Training the AUC
//! with those samples in an unambiguous class would teach it to fire early
//! and misclassify, so they are detected by Mahalanobis similarity to an
//! incomplete-class mean and moved into that class (Figure 6).

use std::collections::HashMap;

use grandma_linalg::{Vector, Workspace};

use crate::classifier::LinearClassifier;
use crate::eager::auc::AucClassKind;
use crate::eager::config::EagerConfig;
use crate::eager::labeling::SubgestureRecord;

/// Summary of the accidental-completeness move pass.
#[derive(Debug, Clone, PartialEq)]
pub struct MoveOutcome {
    /// Number of records rewritten from a complete to an incomplete class.
    pub moved: usize,
    /// The similarity threshold that was applied (squared Mahalanobis
    /// distance), or `None` when no valid full-to-incomplete pair existed
    /// (e.g. no incomplete subgestures at all).
    pub threshold: Option<f64>,
}

/// Moves accidentally complete subgestures into their closest incomplete
/// class, in place.
///
/// The threshold is `config.threshold_fraction` (paper: 50 %) of the
/// minimum squared Mahalanobis distance between any *full-gesture class
/// mean* and any *incomplete class mean*, where pairs closer than
/// `config.floor_fraction` of the largest such distance are excluded from
/// the minimum — the paper's guard against incomplete subgestures that look
/// like full gestures of a third class (its right-stroke example).
///
/// Complete subgestures of each example are tested from longest to
/// shortest; once one tests accidentally complete, it *and every shorter
/// complete prefix of the same example* are moved to their closest
/// incomplete classes (§4.5 last paragraph).
///
/// The Mahalanobis metric is the full classifier's pooled-covariance
/// inverse — the same metric §4.2 says training produces as a side effect.
pub fn move_accidentally_complete(
    records: &mut [SubgestureRecord],
    full: &LinearClassifier,
    config: &EagerConfig,
) -> MoveOutcome {
    // Collect incomplete-class means by running sums — no feature clones.
    // Each class's sum accumulates in record order, so the result is
    // bit-identical to averaging a collected sample list.
    let mut incomplete_sums: HashMap<usize, (Vector, usize)> = HashMap::new();
    for r in records.iter() {
        if let AucClassKind::Incomplete(c) = r.assigned {
            let (sum, count) = incomplete_sums
                .entry(c)
                .or_insert_with(|| (Vector::zeros(r.features.len()), 0));
            *sum += &r.features;
            *count += 1;
        }
    }
    if incomplete_sums.is_empty() {
        return MoveOutcome {
            moved: 0,
            threshold: None,
        };
    }
    let mut incomplete_means: Vec<(usize, Vector)> = incomplete_sums
        .into_iter()
        .map(|(c, (sum, count))| (c, sum.scaled(1.0 / count as f64)))
        .collect();
    incomplete_means.sort_by_key(|(c, _)| *c);

    // Distances between every full-class mean and every incomplete mean.
    let mut pair_distances = Vec::new();
    for c in 0..full.num_classes() {
        let full_mean = full.class_mean(c);
        for (_, inc_mean) in &incomplete_means {
            pair_distances.push(full.mahalanobis_between(full_mean, inc_mean));
        }
    }
    let max_pair = pair_distances.iter().cloned().fold(0.0_f64, f64::max);
    let floor = max_pair * config.floor_fraction;
    let min_pair = pair_distances
        .iter()
        .cloned()
        .filter(|&d| d >= floor)
        .fold(f64::INFINITY, f64::min);
    if !min_pair.is_finite() {
        return MoveOutcome {
            moved: 0,
            threshold: None,
        };
    }
    let threshold = min_pair * config.threshold_fraction;

    // Precompute `Σ⁻¹·m` and `mᵀΣ⁻¹m` per incomplete mean so the scan below
    // expands `d²(x, m) = xᵀΣ⁻¹x − 2·(Σ⁻¹m)·x + mᵀΣ⁻¹m`: one quadratic
    // form per record plus one dot product per candidate mean, instead of a
    // matrix-vector product per (record, mean) pair.
    let inverse_covariance = full.inverse_covariance();
    let mean_caches: Vec<(usize, Vector, f64)> = incomplete_means
        .iter()
        .map(|(c, mean)| {
            let transformed = inverse_covariance.mul_vector(mean);
            let quad = mean.dot(&transformed);
            (*c, transformed, quad)
        })
        .collect();
    let mut ws = Workspace::with_dim(full.dimension());

    // Group record indices by example, longest prefix first.
    let mut by_example: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
    for (idx, r) in records.iter().enumerate() {
        by_example
            .entry((r.class, r.example))
            .or_default()
            .push(idx);
    }
    let mut moved = 0;
    for indices in by_example.values_mut() {
        indices.sort_by(|&a, &b| records[b].prefix_len.cmp(&records[a].prefix_len));
        let mut cascading = false;
        for &idx in indices.iter() {
            if !matches!(records[idx].assigned, AucClassKind::Complete(_)) {
                continue;
            }
            let (nearest_class, nearest_dist) = nearest_incomplete(
                &records[idx].features,
                &mean_caches,
                inverse_covariance,
                &mut ws,
            );
            if cascading || nearest_dist < threshold {
                records[idx].assigned = AucClassKind::Incomplete(nearest_class);
                moved += 1;
                // Once a prefix is accidentally complete, every shorter
                // complete prefix of the same example moves as well.
                cascading = true;
            }
        }
    }
    MoveOutcome {
        moved,
        threshold: Some(threshold),
    }
}

fn nearest_incomplete(
    features: &Vector,
    mean_caches: &[(usize, Vector, f64)],
    inverse_covariance: &grandma_linalg::Matrix,
    ws: &mut Workspace,
) -> (usize, f64) {
    let x = features.as_slice();
    let x_quad = ws.quadratic_form(x, inverse_covariance);
    let mut best = (mean_caches[0].0, f64::INFINITY);
    for (c, transformed, mean_quad) in mean_caches {
        let d = x_quad - 2.0 * transformed.dot_slice(x) + mean_quad;
        if d < best.1 {
            best = (*c, d);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::Classifier;
    use crate::eager::labeling::label_subgestures;
    use crate::features::FeatureMask;
    use grandma_geom::{Gesture, Point};

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

    fn labeled() -> (Classifier, Vec<SubgestureRecord>) {
        let data = ud_training();
        let full = Classifier::train(&data, &FeatureMask::all()).unwrap();
        let records = label_subgestures(&full, &data, &EagerConfig::default());
        (full, records)
    }

    #[test]
    fn move_pass_reports_a_threshold() {
        let (full, mut records) = labeled();
        let outcome =
            move_accidentally_complete(&mut records, full.linear(), &EagerConfig::default());
        assert!(outcome.threshold.is_some());
        assert!(outcome.threshold.unwrap() > 0.0);
    }

    #[test]
    fn ambiguous_prelude_ends_up_incomplete_after_move() {
        // Figure 6's property: after the move, the subgestures along the
        // shared horizontal segment are incomplete for BOTH classes.
        let (full, mut records) = labeled();
        move_accidentally_complete(&mut records, full.linear(), &EagerConfig::default());
        let early_complete = records
            .iter()
            .filter(|r| r.prefix_len <= 6 && matches!(r.assigned, AucClassKind::Complete(_)))
            .count();
        assert_eq!(
            early_complete, 0,
            "no prefix confined to the shared prelude may stay complete"
        );
    }

    #[test]
    fn full_gestures_stay_complete() {
        let (full, mut records) = labeled();
        move_accidentally_complete(&mut records, full.linear(), &EagerConfig::default());
        for r in records.iter().filter(|r| r.prefix_len == r.full_len) {
            assert!(
                matches!(r.assigned, AucClassKind::Complete(_)),
                "a correctly classified full gesture must remain complete"
            );
        }
    }

    #[test]
    fn moves_cascade_to_shorter_prefixes() {
        let (full, mut records) = labeled();
        move_accidentally_complete(&mut records, full.linear(), &EagerConfig::default());
        // Within each example, the assigned kinds must be: a (possibly
        // empty) run of incomplete, then a run of complete — no complete
        // below an incomplete.
        for class in 0..2 {
            for example in 0..8 {
                let mut rs: Vec<&SubgestureRecord> = records
                    .iter()
                    .filter(|r| r.class == class && r.example == example)
                    .collect();
                rs.sort_by_key(|r| r.prefix_len);
                let mut seen_complete = false;
                for r in rs {
                    let complete_now = matches!(r.assigned, AucClassKind::Complete(_));
                    if seen_complete {
                        assert!(
                            complete_now,
                            "complete/incomplete boundary must be monotone after moves"
                        );
                    }
                    seen_complete = complete_now;
                }
            }
        }
    }

    #[test]
    fn no_incomplete_records_means_no_moves() {
        let (full, mut records) = labeled();
        // Artificially mark everything complete.
        for r in records.iter_mut() {
            r.assigned = AucClassKind::Complete(r.class);
        }
        let outcome =
            move_accidentally_complete(&mut records, full.linear(), &EagerConfig::default());
        assert_eq!(outcome.moved, 0);
        assert_eq!(outcome.threshold, None);
    }

    #[test]
    fn zero_threshold_fraction_disables_moves() {
        let (full, mut records) = labeled();
        let config = EagerConfig {
            threshold_fraction: 0.0,
            ..EagerConfig::default()
        };
        let before_complete = records.iter().filter(|r| r.complete).count();
        let outcome = move_accidentally_complete(&mut records, full.linear(), &config);
        assert_eq!(outcome.moved, 0);
        let after_complete = records
            .iter()
            .filter(|r| matches!(r.assigned, AucClassKind::Complete(_)))
            .count();
        assert_eq!(before_complete, after_complete);
    }
}
