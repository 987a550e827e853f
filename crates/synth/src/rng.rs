//! Self-contained seeded randomness for the synthetic generators.
//!
//! The build environment is fully offline, so this crate carries its own
//! small PRNG instead of depending on `rand`: xoshiro256++ (Blackman &
//! Vigna) seeded through SplitMix64, plus a Box-Muller Gaussian sampler.
//! Quality is far beyond what jittered gesture paths need, the stream is
//! identical on every platform, and the whole thing is ~60 lines.

/// A small, fast, deterministic PRNG (xoshiro256++).
///
/// Construct with [`SynthRng::seed_from_u64`]; equal seeds give equal
/// streams on every platform and build.
///
/// # Examples
///
/// ```
/// use grandma_synth::SynthRng;
///
/// let mut a = SynthRng::seed_from_u64(42);
/// let mut b = SynthRng::seed_from_u64(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let u = a.gen_f64();
/// assert!((0.0..1.0).contains(&u));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthRng {
    state: [u64; 4],
}

impl SynthRng {
    /// Expands `seed` into a full 256-bit state via SplitMix64.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Self {
            state: [next_sm(), next_sm(), next_sm(), next_sm()],
        }
    }

    /// Returns the next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let mut s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        s3 = s3.rotate_left(45);
        self.state = [s0, s1, s2, s3];
        result
    }

    /// Returns a uniform `f64` in `[0, 1)` with 53 random mantissa bits.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Draws one sample from `N(mean, sigma²)` via the Box-Muller transform.
///
/// `sigma = 0` returns `mean` exactly, which the generator uses to switch
/// noise off.
///
/// # Examples
///
/// ```
/// use grandma_synth::SynthRng;
///
/// let mut rng = SynthRng::seed_from_u64(7);
/// let x = grandma_synth::normal(&mut rng, 10.0, 0.0);
/// assert_eq!(x, 10.0);
/// ```
pub fn normal(rng: &mut SynthRng, mean: f64, sigma: f64) -> f64 {
    // lint:allow(float-eq): documented degenerate case, returns the mean
    if sigma == 0.0 {
        return mean;
    }
    // Box-Muller: u1 in (0, 1] avoids ln(0).
    let u1: f64 = 1.0 - rng.gen_f64();
    let u2: f64 = rng.gen_f64();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    mean + sigma * z
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_sigma_is_deterministic() {
        let mut rng = SynthRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(normal(&mut rng, 3.5, 0.0), 3.5);
        }
    }

    #[test]
    fn uniform_stays_in_unit_interval() {
        let mut rng = SynthRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let u = rng.gen_f64();
            assert!((0.0..1.0).contains(&u), "u {u}");
        }
    }

    #[test]
    fn sample_mean_and_variance_are_close() {
        let mut rng = SynthRng::seed_from_u64(2);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng, 5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.25, "var {var}");
    }

    #[test]
    fn same_seed_gives_same_stream() {
        let mut a = SynthRng::seed_from_u64(9);
        let mut b = SynthRng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(normal(&mut a, 0.0, 1.0), normal(&mut b, 0.0, 1.0));
        }
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let mut a = SynthRng::seed_from_u64(1);
        let mut b = SynthRng::seed_from_u64(2);
        let differs = (0..16).any(|_| a.next_u64() != b.next_u64());
        assert!(differs);
    }
}
