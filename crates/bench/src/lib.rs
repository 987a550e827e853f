#![forbid(unsafe_code)]
//! Evaluation harness for the paper's tables and figures (§5).
//!
//! [`evaluate`] trains a full classifier and an eager recognizer on a
//! dataset's training split, runs both over the testing split, and
//! summarizes accuracy and eagerness the way the paper reports them.
//! [`experiments`] renders every table of EXPERIMENTS.md on top of it;
//! the `experiments` binary prints them all.

pub mod experiments;
pub mod report;

use grandma_core::eager::EagerRun;
use grandma_core::{EagerConfig, EagerRecognizer, EagerTrainReport, FeatureMask, TrainError};
use grandma_synth::Dataset;

/// Per-class evaluation results.
#[derive(Debug, Clone)]
pub struct ClassSummary {
    /// Class name.
    pub name: String,
    /// Correct / total for the full classifier.
    pub full_correct: usize,
    /// Correct / total for the eager recognizer.
    pub eager_correct: usize,
    /// Test gestures of this class.
    pub total: usize,
    /// Mean fraction of mouse points the eager recognizer examined.
    pub avg_fraction_seen: f64,
    /// Mean ground-truth minimum fraction (when the dataset provides it).
    pub avg_min_fraction: Option<f64>,
    /// How many test gestures were classified before their final point.
    pub fired_early: usize,
}

/// Whole-dataset evaluation results — the numbers §5 quotes.
#[derive(Debug, Clone)]
pub struct EvalSummary {
    /// Dataset name.
    pub dataset: String,
    /// Full-classifier accuracy over the test split.
    pub full_accuracy: f64,
    /// Eager-recognizer accuracy over the test split.
    pub eager_accuracy: f64,
    /// Mean fraction of points examined before classification
    /// (the paper's 67.9 % / 60.5 % numbers).
    pub avg_fraction_seen: f64,
    /// Mean ground-truth minimum fraction (the paper's hand-measured
    /// 59.4 %), when available.
    pub avg_min_fraction: Option<f64>,
    /// Test gestures classified before their final point.
    pub fired_early: usize,
    /// Total test gestures.
    pub total: usize,
    /// Per-class breakdown.
    pub per_class: Vec<ClassSummary>,
    /// The eager run of every test gesture, in dataset order.
    pub runs: Vec<EagerRun>,
    /// The eager training report (pipeline diagnostics).
    pub train_report: EagerTrainReport,
}

impl EvalSummary {
    /// Renders the §5-style headline sentence.
    pub fn headline(&self) -> String {
        format!(
            "{}: full classifier {:.1}% correct; eager recognizer {:.1}% correct, \
             examining {:.1}% of mouse points on average{}",
            self.dataset,
            100.0 * self.full_accuracy,
            100.0 * self.eager_accuracy,
            100.0 * self.avg_fraction_seen,
            match self.avg_min_fraction {
                Some(m) => format!(" (ground-truth minimum {:.1}%)", 100.0 * m),
                None => String::new(),
            }
        )
    }
}

/// Trains on `data.training`, evaluates on `data.testing`.
///
/// # Errors
///
/// Propagates [`TrainError`] from classifier training.
pub fn evaluate(
    data: &Dataset,
    mask: &FeatureMask,
    config: &EagerConfig,
) -> Result<EvalSummary, TrainError> {
    let (eager, train_report) = EagerRecognizer::train(&data.training, mask, config)?;

    let mut per_class: Vec<ClassSummary> = data
        .class_names
        .iter()
        .map(|n| ClassSummary {
            name: n.to_string(),
            full_correct: 0,
            eager_correct: 0,
            total: 0,
            avg_fraction_seen: 0.0,
            avg_min_fraction: data.testing.first().and_then(|l| l.min_points).map(|_| 0.0),
            fired_early: 0,
        })
        .collect();

    let mut runs = Vec::with_capacity(data.testing.len());
    for labeled in &data.testing {
        let full_class = eager.classify_full(&labeled.gesture).class;
        let run = eager.run(&labeled.gesture);
        let summary = &mut per_class[labeled.class];
        summary.total += 1;
        if full_class == labeled.class {
            summary.full_correct += 1;
        }
        if run.class == labeled.class {
            summary.eager_correct += 1;
        }
        if run.eager {
            summary.fired_early += 1;
        }
        summary.avg_fraction_seen += run.fraction_seen();
        if let (Some(min_points), Some(acc)) = (labeled.min_points, &mut summary.avg_min_fraction) {
            *acc += (min_points as f64 / labeled.gesture.len() as f64).min(1.0);
        }
        runs.push(run);
    }
    for s in &mut per_class {
        if s.total > 0 {
            s.avg_fraction_seen /= s.total as f64;
            if let Some(m) = &mut s.avg_min_fraction {
                *m /= s.total as f64;
            }
        }
    }
    let total: usize = per_class.iter().map(|s| s.total).sum();
    let full_correct: usize = per_class.iter().map(|s| s.full_correct).sum();
    let eager_correct: usize = per_class.iter().map(|s| s.eager_correct).sum();
    let fired_early: usize = per_class.iter().map(|s| s.fired_early).sum();
    let avg_fraction_seen = per_class
        .iter()
        .map(|s| s.avg_fraction_seen * s.total as f64)
        .sum::<f64>()
        / total as f64;
    let avg_min_fraction = if per_class.iter().all(|s| s.avg_min_fraction.is_some()) {
        Some(
            per_class
                .iter()
                .map(|s| s.avg_min_fraction.unwrap_or(0.0) * s.total as f64)
                .sum::<f64>()
                / total as f64,
        )
    } else {
        None
    };
    Ok(EvalSummary {
        dataset: data.name.to_string(),
        full_accuracy: full_correct as f64 / total as f64,
        eager_accuracy: eager_correct as f64 / total as f64,
        avg_fraction_seen,
        avg_min_fraction,
        fired_early,
        total,
        per_class,
        runs,
        train_report,
    })
}

/// Renders the standard per-class table for an [`EvalSummary`].
pub fn per_class_table(summary: &EvalSummary) -> String {
    let mut rows = Vec::new();
    for s in &summary.per_class {
        rows.push(vec![
            s.name.clone(),
            format!("{}/{}", s.full_correct, s.total),
            format!("{}/{}", s.eager_correct, s.total),
            format!("{:.1}%", 100.0 * s.avg_fraction_seen),
            match s.avg_min_fraction {
                Some(m) => format!("{:.1}%", 100.0 * m),
                None => "-".to_string(),
            },
            format!("{}/{}", s.fired_early, s.total),
        ]);
    }
    report::table(
        &["class", "full", "eager", "seen", "min", "fired-early"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use grandma_synth::datasets;

    #[test]
    fn evaluate_produces_consistent_totals() {
        let data = datasets::eight_way(11, 5, 4);
        let summary = evaluate(&data, &FeatureMask::all(), &EagerConfig::default()).unwrap();
        assert_eq!(summary.total, 32);
        assert_eq!(summary.per_class.len(), 8);
        assert!(summary.full_accuracy > 0.5);
        assert!(summary.eager_accuracy > 0.5);
        assert!(summary.avg_fraction_seen > 0.0 && summary.avg_fraction_seen <= 1.0);
        assert!(summary.avg_min_fraction.is_some());
    }

    #[test]
    fn headline_mentions_the_key_numbers() {
        let data = datasets::ud(3, 6, 4);
        let summary = evaluate(&data, &FeatureMask::all(), &EagerConfig::default()).unwrap();
        let h = summary.headline();
        assert!(h.contains("full classifier"));
        assert!(h.contains("eager recognizer"));
        assert!(h.contains('%'));
    }
}
