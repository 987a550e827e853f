//! Deterministic fault injection for event streams.
//!
//! The chaos half of the robustness story: [`FaultInjector`] takes a
//! clean scripted event stream (see `grandma_events::EventScript`) and
//! corrupts it the way a misbehaving window system would — NaN/infinite
//! coordinates, jittered and reversed timestamps, non-finite timestamps,
//! dropped `MouseUp`s (broken grabs), duplicated `MouseDown`s, and bursts
//! of repeated points. Every corruption is drawn from a seeded
//! [`SynthRng`], so the same `(seed, stream)` pair always produces the
//! same corrupted stream — chaos tests replay byte-identically.
//!
//! # Examples
//!
//! ```
//! use grandma_events::{Button, EventScript};
//! use grandma_geom::Gesture;
//! use grandma_synth::FaultInjector;
//!
//! let g = Gesture::from_xy(&[(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)], 10.0);
//! let clean = EventScript::new().then_gesture(&g, Button::Left);
//! let a = FaultInjector::new(0xC0FFEE).corrupt(clean.events());
//! let b = FaultInjector::new(0xC0FFEE).corrupt(clean.events());
//! assert_eq!(a, b, "same seed, same corruption");
//! ```

use grandma_events::{EventKind, InputEvent};

use crate::rng::SynthRng;

/// Per-stream corruption rates. All rates are probabilities in `[0, 1]`
/// applied independently per opportunity (per event, per `MouseUp`, ...).
#[derive(Debug, Clone)]
pub struct FaultInjectorConfig {
    /// Probability that an event's x or y is replaced by NaN or ±∞.
    pub nan_coordinate_rate: f64,
    /// Probability that an event's timestamp is jittered by up to
    /// ±[`FaultInjectorConfig::timestamp_jitter_ms`] (which can move it
    /// behind its predecessor — an out-of-order delivery).
    pub timestamp_jitter_rate: f64,
    /// Maximum timestamp jitter magnitude, in milliseconds.
    pub timestamp_jitter_ms: f64,
    /// Probability that an event's timestamp is replaced by NaN or ±∞.
    pub non_finite_timestamp_rate: f64,
    /// Probability that a `MouseUp` is dropped entirely (the broken-grab
    /// scenario: the interaction never sees its ending event).
    pub drop_up_rate: f64,
    /// Probability that a `MouseDown` is delivered twice.
    pub duplicate_down_rate: f64,
    /// Probability that an event is followed by a burst of near-duplicate
    /// `MouseMove`s (a device spewing points faster than it can move).
    pub burst_rate: f64,
    /// Number of events in an injected burst.
    pub burst_len: usize,
}

impl Default for FaultInjectorConfig {
    fn default() -> Self {
        Self {
            nan_coordinate_rate: 0.05,
            timestamp_jitter_rate: 0.05,
            timestamp_jitter_ms: 40.0,
            non_finite_timestamp_rate: 0.02,
            drop_up_rate: 0.08,
            duplicate_down_rate: 0.08,
            burst_rate: 0.02,
            burst_len: 5,
        }
    }
}

/// Seeded, deterministic corruptor of event streams.
///
/// One injector instance holds one RNG stream: corrupting two streams in
/// sequence draws from the same stream, so order matters. For independent
/// reproducible corruption, create one injector per `(seed, stream)` pair.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rng: SynthRng,
    config: FaultInjectorConfig,
}

impl FaultInjector {
    /// Creates an injector with the default corruption rates.
    pub fn new(seed: u64) -> Self {
        Self::with_config(seed, FaultInjectorConfig::default())
    }

    /// Creates an injector with explicit rates.
    pub fn with_config(seed: u64, config: FaultInjectorConfig) -> Self {
        Self {
            rng: SynthRng::seed_from_u64(seed),
            config,
        }
    }

    /// Returns the corruption configuration.
    pub fn config(&self) -> &FaultInjectorConfig {
        &self.config
    }

    fn chance(&mut self, rate: f64) -> bool {
        rate > 0.0 && self.rng.gen_f64() < rate
    }

    /// One of NaN, +∞, −∞, chosen uniformly.
    fn non_finite(&mut self) -> f64 {
        match self.rng.next_u64() % 3 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            _ => f64::NEG_INFINITY,
        }
    }

    /// Corrupts one event stream. The clean stream is not modified; the
    /// corrupted copy is returned. Deterministic: the same injector state
    /// and input always produce the same output.
    pub fn corrupt(mut self, events: &[InputEvent]) -> Vec<InputEvent> {
        let mut out = Vec::with_capacity(events.len() + 4);
        for &event in events {
            let mut e = event;
            // Field-level corruption first: the delivered copy carries the
            // damage, duplicates inherit it.
            if self.chance(self.config.nan_coordinate_rate) {
                if self.rng.next_u64().is_multiple_of(2) {
                    e.x = self.non_finite();
                } else {
                    e.y = self.non_finite();
                }
            }
            if self.chance(self.config.non_finite_timestamp_rate) {
                e.t = self.non_finite();
            } else if self.chance(self.config.timestamp_jitter_rate) {
                // Uniform in [-jitter, +jitter]: half of these arrive
                // out of order.
                e.t += (self.rng.gen_f64() * 2.0 - 1.0) * self.config.timestamp_jitter_ms;
            }
            match e.kind {
                EventKind::MouseUp { .. } if self.chance(self.config.drop_up_rate) => {
                    // Grab breaks: the up never arrives.
                    continue;
                }
                EventKind::MouseDown { .. } if self.chance(self.config.duplicate_down_rate) => {
                    out.push(e);
                    out.push(e);
                }
                _ => out.push(e),
            }
            if self.chance(self.config.burst_rate) {
                // A stuck device repeats the last position with barely
                // advancing timestamps.
                let base = if e.t.is_finite() { e.t } else { 0.0 };
                for i in 0..self.config.burst_len {
                    out.push(InputEvent::new(
                        EventKind::MouseMove,
                        e.x,
                        e.y,
                        base + (i + 1) as f64 * 0.01,
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grandma_events::{Button, EventScript};
    use grandma_geom::Gesture;

    fn clean_stream() -> Vec<InputEvent> {
        let g = Gesture::from_xy(&[(0.0, 0.0), (10.0, 0.0), (20.0, 5.0), (30.0, 10.0)], 10.0);
        EventScript::new()
            .then_gesture(&g, Button::Left)
            .then_gesture(&g, Button::Left)
            .then_gesture(&g, Button::Left)
            .into_events()
    }

    /// NaN-aware equality: corrupted streams contain NaN, which
    /// `PartialEq` treats as unequal to itself.
    fn identical(a: &[InputEvent], b: &[InputEvent]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b.iter()).all(|(x, y)| {
                x.kind == y.kind
                    && x.x.to_bits() == y.x.to_bits()
                    && x.y.to_bits() == y.y.to_bits()
                    && x.t.to_bits() == y.t.to_bits()
            })
    }

    #[test]
    fn same_seed_same_corruption() {
        let clean = clean_stream();
        for seed in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            let a = FaultInjector::new(seed).corrupt(&clean);
            let b = FaultInjector::new(seed).corrupt(&clean);
            assert!(identical(&a, &b), "seed {seed} not deterministic");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let clean = clean_stream();
        let a = FaultInjector::new(1).corrupt(&clean);
        let b = FaultInjector::new(2).corrupt(&clean);
        // With these rates on 15 events the chance of identical output is
        // negligible; equality would indicate the seed is ignored.
        assert!(!identical(&a, &b));
    }

    #[test]
    fn zero_rates_pass_the_stream_through() {
        let clean = clean_stream();
        let config = FaultInjectorConfig {
            nan_coordinate_rate: 0.0,
            timestamp_jitter_rate: 0.0,
            non_finite_timestamp_rate: 0.0,
            drop_up_rate: 0.0,
            duplicate_down_rate: 0.0,
            burst_rate: 0.0,
            ..FaultInjectorConfig::default()
        };
        let out = FaultInjector::with_config(9, config).corrupt(&clean);
        assert_eq!(out, clean);
    }

    #[test]
    fn max_rates_exercise_every_fault_kind() {
        let clean = clean_stream();
        let config = FaultInjectorConfig {
            nan_coordinate_rate: 1.0,
            timestamp_jitter_rate: 1.0,
            non_finite_timestamp_rate: 0.0,
            drop_up_rate: 1.0,
            duplicate_down_rate: 1.0,
            burst_rate: 1.0,
            burst_len: 3,
            ..FaultInjectorConfig::default()
        };
        let out = FaultInjector::with_config(3, config).corrupt(&clean);
        assert!(out.iter().all(|e| !e.is_up()), "every up dropped");
        let downs = out.iter().filter(|e| e.is_down()).count();
        assert_eq!(downs, 6, "every down duplicated");
        assert!(
            out.iter().any(|e| !e.x.is_finite() || !e.y.is_finite()),
            "coordinates corrupted"
        );
        assert!(out.len() > clean.len(), "bursts inserted");
    }

    #[test]
    fn non_finite_timestamps_appear_at_full_rate() {
        let clean = clean_stream();
        let config = FaultInjectorConfig {
            non_finite_timestamp_rate: 1.0,
            ..FaultInjectorConfig::default()
        };
        let out = FaultInjector::with_config(11, config).corrupt(&clean);
        assert!(out.iter().any(|e| !e.t.is_finite()));
    }

    #[test]
    fn default_rates_leave_most_of_the_stream_intact() {
        // Sanity: the default profile corrupts, it does not destroy.
        let clean = clean_stream();
        let out = FaultInjector::new(17).corrupt(&clean);
        let finite = out.iter().filter(|e| e.is_finite()).count();
        assert!(finite * 2 > clean.len(), "stream mostly survives");
    }
}
