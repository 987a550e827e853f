//! Tunable parameters of the eager-recognition training pipeline.

/// Configuration for [`crate::EagerRecognizer::train`].
///
/// Defaults reproduce the paper's choices; the ablations in
/// `grandma-bench`'s `experiments` runner sweep the interesting ones.
///
/// # Examples
///
/// ```
/// use grandma_core::EagerConfig;
///
/// let config = EagerConfig {
///     ambiguity_bias: 10.0, // more conservative than the paper's 5x
///     ..EagerConfig::default()
/// };
/// assert_eq!(config.threshold_fraction, 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EagerConfig {
    /// Prior-odds factor by which ambiguous (incomplete) classes are
    /// favoured; `ln` of this is added to each incomplete-class constant.
    /// The paper chooses 5 (§4.6).
    pub ambiguity_bias: f64,
    /// Fraction of the minimum full-mean-to-incomplete-mean Mahalanobis
    /// distance used as the accidental-completeness threshold. The paper
    /// chooses 50 % (§4.5).
    pub threshold_fraction: f64,
    /// Pairs closer than this fraction of the *largest*
    /// full-mean-to-incomplete-mean distance are excluded from the minimum,
    /// implementing the paper's "distances less than another threshold are
    /// not included" guard for incomplete subgestures that resemble full
    /// gestures of a different class (§4.5). The paper does not give its
    /// value; 5 % works across all shipped datasets.
    pub floor_fraction: f64,
    /// The tweak step lowers an offending complete-class constant by the
    /// violation margin times `(1 + tweak_extra_fraction)` plus
    /// [`EagerConfig::tweak_epsilon`] — the paper's "by just enough plus a
    /// little more" (§4.6).
    pub tweak_extra_fraction: f64,
    /// Absolute extra subtracted on each tweak.
    pub tweak_epsilon: f64,
    /// Upper bound on tweak passes over the incomplete training
    /// subgestures (each pass revisits all of them; the loop stops early at
    /// a violation-free pass).
    pub max_tweak_passes: usize,
    /// Smallest prefix length considered a subgesture, both in training
    /// and at runtime. Two points are the minimum with meaningful
    /// features.
    pub min_subgesture_points: usize,
}

impl Default for EagerConfig {
    fn default() -> Self {
        Self {
            ambiguity_bias: 5.0,
            threshold_fraction: 0.5,
            floor_fraction: 0.05,
            tweak_extra_fraction: 0.1,
            tweak_epsilon: 1e-3,
            max_tweak_passes: 64,
            min_subgesture_points: 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_choices() {
        let c = EagerConfig::default();
        assert_eq!(c.ambiguity_bias, 5.0);
        assert_eq!(c.threshold_fraction, 0.5);
        assert!(c.min_subgesture_points >= 2);
    }

    #[test]
    fn struct_update_syntax_works() {
        let c = EagerConfig {
            threshold_fraction: 0.25,
            ..EagerConfig::default()
        };
        assert_eq!(c.threshold_fraction, 0.25);
        assert_eq!(c.ambiguity_bias, 5.0);
    }
}
