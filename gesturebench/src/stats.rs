//! Percentile discipline.
//!
//! Every timing is reported as a median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it, together with the
//! sample count. A p99 is only ever printed from at least
//! [`MIN_P99_SAMPLES`] samples; [`p99`] refuses (returns `None`) below that.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Smallest sample count a p99 may be computed from.
pub const MIN_P99_SAMPLES: usize = 1000;

/// Percentiles considered for the tail, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// 1-based nearest rank of percentile `p` among `n` samples (the small
/// slack keeps `99.99% of 100000` from rounding up past 99990).
fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64 - 1e-6).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice (`p` in `(0, 100]`).
/// Returns 0 for an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Number of samples strictly above the nearest-rank position of `p`.
fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The highest candidate percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when `n` is too small for even the median.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// p99 of an ascending slice, refused below [`MIN_P99_SAMPLES`] samples.
pub fn p99(sorted: &[u64]) -> Option<u64> {
    (sorted.len() >= MIN_P99_SAMPLES).then(|| percentile(sorted, 99.0))
}

/// A timing distribution as the benchmark reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: u64,
    /// The highest supported tail percentile (see [`supported_tail`]).
    pub tail_pct: f64,
    /// Its value.
    pub tail: u64,
}

/// Sorts `samples` and summarizes them; `None` when there are too few
/// samples to support any tail.
pub fn summarize(samples: &mut [u64]) -> Option<Summary> {
    samples.sort_unstable();
    let tail_pct = supported_tail(samples.len())?;
    Some(Summary {
        n: samples.len(),
        p50: percentile(samples, 50.0),
        tail_pct,
        tail: percentile(samples, tail_pct),
    })
}

/// Median of a small set of floats (set-up repetitions and the like);
/// 0 for an empty slice.
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The median of a sorted, non-empty slice.
pub fn p50(sorted: &[u64]) -> Option<u64> {
    (!sorted.is_empty()).then(|| percentile(sorted, 50.0))
}

/// Indices of the calmer half of the measurement slices: every slice
/// whose reply p99 is at most the `ceil(n / 2)`-th smallest, ties
/// included. A slice with too few replies for a p99 (one in which the
/// service or the VM stalled) ranks last. Host stalls are short and
/// sparse, so they land in the other half and the figures pooled over
/// this one are the program's own.
pub fn calmer_half(replies: &[Vec<u64>]) -> Vec<usize> {
    let tails: Vec<u64> = replies
        .iter()
        .map(|slice| {
            let mut sorted = slice.clone();
            sorted.sort_unstable();
            p99(&sorted).unwrap_or(u64::MAX)
        })
        .collect();
    let mut sorted = tails.clone();
    sorted.sort_unstable();
    let Some(&cut) = sorted.get(tails.len().div_ceil(2).saturating_sub(1)) else {
        return Vec::new();
    };
    (0..tails.len()).filter(|&i| tails[i] <= cut).collect()
}

/// The samples of the slices at `keep`, pooled and sorted.
pub fn pooled(slices: &[Vec<u64>], keep: &[usize]) -> Vec<u64> {
    let mut all: Vec<u64> = keep
        .iter()
        .flat_map(|&i| slices[i].iter().copied())
        .collect();
    all.sort_unstable();
    all
}
