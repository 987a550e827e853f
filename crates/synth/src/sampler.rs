//! Turns an ideal [`PathSpec`] into a concrete noisy [`Gesture`].

use grandma_geom::{Gesture, Point};

use crate::path_spec::PathSpec;
use crate::rng::{normal, SynthRng};
use crate::variation::Variation;

/// A generated gesture plus its ground truth.
#[derive(Debug, Clone)]
pub struct SynthesizedGesture {
    /// The sampled noisy gesture.
    pub gesture: Gesture,
    /// For each sharp corner of the spec (in path order): the number of
    /// samples from the start through the corner turn — i.e. the count of
    /// the first emitted point at or past the corner's arc length. This is
    /// the generator-provided replacement for the paper's hand-measured
    /// "minimum number of mouse points that needed to be seen" (Figure 9).
    pub corner_points: Vec<usize>,
    /// Which corners (by index into `corner_points`) were replaced by a
    /// 270° wrong-way loop.
    pub looped_corners: Vec<usize>,
}

/// Synthesizes one noisy example of `spec` under `variation`, consuming
/// randomness from `rng`.
///
/// Pipeline: per-example scale/rotation → optional corner-loop splicing →
/// arc-length resampling with speed noise → per-point jitter and
/// timestamping.
///
/// # Panics
///
/// Panics if the spec has fewer than two vertices (prevented by
/// [`crate::PathBuilder::build`]).
pub fn synthesize(
    spec: &PathSpec,
    variation: &Variation,
    rng: &mut SynthRng,
) -> SynthesizedGesture {
    // Per-example global transform.
    let scale = (variation.size * normal(rng, 1.0, variation.size_sigma)).max(variation.size * 0.2);
    let theta = normal(rng, 0.0, variation.rotation_sigma);
    let speed = normal(rng, 0.0, variation.speed_sigma).exp();
    let (sin_t, cos_t) = theta.sin_cos();
    let transform = |(x, y): (f64, f64)| -> (f64, f64) {
        (
            scale * (x * cos_t - y * sin_t),
            scale * (x * sin_t + y * cos_t),
        )
    };
    let base: Vec<(f64, f64)> = spec.vertices.iter().map(|&v| transform(v)).collect();

    // Splice corner loops, tracking the arc length of each corner in the
    // final polyline.
    let mut vertices: Vec<(f64, f64)> = Vec::with_capacity(base.len());
    let mut corner_arcs: Vec<f64> = Vec::new();
    let mut looped_corners = Vec::new();
    let mut arc = 0.0;
    let push = |vertices: &mut Vec<(f64, f64)>, arc: &mut f64, v: (f64, f64)| {
        if let Some(&last) = vertices.last() {
            *arc += dist(last, v);
        }
        vertices.push(v);
    };
    for (i, &v) in base.iter().enumerate() {
        let corner_slot = spec.corners.iter().position(|&c| c == i);
        let is_interior = i > 0 && i + 1 < base.len();
        if let (Some(slot), true) = (corner_slot, is_interior) {
            let do_loop = rng.gen_f64() < variation.corner_loop_prob;
            if do_loop {
                let loop_pts = corner_loop(
                    base[i - 1],
                    v,
                    base[i + 1],
                    scale * variation.corner_loop_radius,
                );
                if let Some(loop_pts) = loop_pts {
                    for lp in loop_pts {
                        push(&mut vertices, &mut arc, lp);
                    }
                    // Ambiguity resolves only once the loop exits.
                    corner_arcs.push(arc);
                    looped_corners.push(slot);
                    continue;
                }
            }
            push(&mut vertices, &mut arc, v);
            corner_arcs.push(arc);
        } else {
            push(&mut vertices, &mut arc, v);
            if corner_slot.is_some() {
                // Degenerate corner at an endpoint: record it anyway.
                corner_arcs.push(arc);
            }
        }
    }

    // Arc-length resampling with speed noise.
    let total = arc;
    let cumulative = cumulative_lengths(&vertices);
    let mut points = Vec::new();
    let mut corner_points = vec![usize::MAX; corner_arcs.len()];
    let mut s: f64 = 0.0;
    let mut t: f64 = 0.0;
    loop {
        let (x, y) = point_at(&vertices, &cumulative, s.min(total));
        let jx = normal(rng, 0.0, variation.jitter_sigma);
        let jy = normal(rng, 0.0, variation.jitter_sigma);
        points.push(Point::new(x + jx, y + jy, t));
        for (k, &ca) in corner_arcs.iter().enumerate() {
            if corner_points[k] == usize::MAX && s >= ca - 1e-9 {
                corner_points[k] = points.len();
            }
        }
        if s >= total {
            break;
        }
        let step =
            (variation.step * normal(rng, 1.0, variation.step_sigma)).max(variation.step * 0.25);
        s = (s + step).min(total);
        t += (speed * variation.dt_ms * normal(rng, 1.0, variation.dt_sigma))
            .max(variation.dt_ms * 0.1);
    }
    for cp in corner_points.iter_mut() {
        if *cp == usize::MAX {
            *cp = points.len();
        }
    }
    SynthesizedGesture {
        gesture: Gesture::from_points(points),
        corner_points,
        looped_corners,
    }
}

fn dist(a: (f64, f64), b: (f64, f64)) -> f64 {
    let dx = b.0 - a.0;
    let dy = b.1 - a.1;
    (dx * dx + dy * dy).sqrt()
}

fn cumulative_lengths(vertices: &[(f64, f64)]) -> Vec<f64> {
    let mut out = Vec::with_capacity(vertices.len());
    let mut acc = 0.0;
    out.push(0.0);
    for w in vertices.windows(2) {
        acc += dist(w[0], w[1]);
        out.push(acc);
    }
    out
}

/// Returns the point at arc length `s` along the polyline.
fn point_at(vertices: &[(f64, f64)], cumulative: &[f64], s: f64) -> (f64, f64) {
    if s <= 0.0 {
        return vertices[0];
    }
    match cumulative.binary_search_by(|c| c.total_cmp(&s)) {
        Ok(i) => vertices[i],
        Err(i) => {
            if i >= vertices.len() {
                return *vertices.last().expect("non-empty");
            }
            let (a, b) = (vertices[i - 1], vertices[i]);
            let seg = cumulative[i] - cumulative[i - 1];
            let frac = if seg > 0.0 {
                (s - cumulative[i - 1]) / seg
            } else {
                0.0
            };
            (a.0 + (b.0 - a.0) * frac, a.1 + (b.1 - a.1) * frac)
        }
    }
}

/// Generates the vertices of a 270°-the-wrong-way loop replacing the sharp
/// corner at `corner` between incoming direction (from `prev`) and
/// outgoing direction (to `next`). Returns `None` for degenerate geometry
/// (collinear or zero-length segments).
fn corner_loop(
    prev: (f64, f64),
    corner: (f64, f64),
    next: (f64, f64),
    radius: f64,
) -> Option<Vec<(f64, f64)>> {
    let u = (corner.0 - prev.0, corner.1 - prev.1);
    let w = (next.0 - corner.0, next.1 - corner.1);
    let ulen = (u.0 * u.0 + u.1 * u.1).sqrt();
    let wlen = (w.0 * w.0 + w.1 * w.1).sqrt();
    if ulen < 1e-9 || wlen < 1e-9 || radius < 1e-9 {
        return None;
    }
    let phi = u.1.atan2(u.0);
    // Signed normal turn from u to w, in (-pi, pi].
    let turn = {
        let raw = w.1.atan2(w.0) - phi;
        let mut t = raw;
        while t > std::f64::consts::PI {
            t -= 2.0 * std::f64::consts::PI;
        }
        while t <= -std::f64::consts::PI {
            t += 2.0 * std::f64::consts::PI;
        }
        t
    };
    if turn.abs() < 0.2 {
        // Nearly straight: no perceptual corner to loop around.
        return None;
    }
    let sign = if turn >= 0.0 { 1.0 } else { -1.0 };
    // The loop turns the long way round: total sweep 2π − |turn| in the
    // opposite rotational direction.
    let sweep = -(2.0 * std::f64::consts::PI - turn.abs()) * sign;
    // Circle tangent to the incoming heading at the corner, on the side
    // the loop bulges toward.
    let a0 = phi + sign * std::f64::consts::FRAC_PI_2;
    let center = (corner.0 - radius * a0.cos(), corner.1 - radius * a0.sin());
    let steps = 10;
    let mut out = Vec::with_capacity(steps + 1);
    for k in 0..=steps {
        let a = a0 + sweep * k as f64 / steps as f64;
        out.push((center.0 + radius * a.cos(), center.1 + radius * a.sin()));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path_spec::PathBuilder;
    use grandma_geom::total_turning;

    fn l_spec() -> PathSpec {
        PathBuilder::start(0.0, 0.0)
            .line_to(1.0, 0.0)
            .corner()
            .line_to(1.0, 1.0)
            .build()
    }

    #[test]
    fn noiseless_sampling_is_exact() {
        let mut rng = SynthRng::seed_from_u64(1);
        let s = synthesize(&l_spec(), &Variation::noiseless(), &mut rng);
        let g = &s.gesture;
        // 60 px per side, 4 px steps: 31 samples (0..=120 by 4).
        assert_eq!(g.len(), 31);
        assert!((g.path_length() - 120.0).abs() < 1e-9);
        let last = g.last().unwrap();
        assert!((last.x - 60.0).abs() < 1e-9);
        assert!((last.y - 60.0).abs() < 1e-9);
    }

    #[test]
    fn corner_points_mark_the_turn() {
        let mut rng = SynthRng::seed_from_u64(1);
        let s = synthesize(&l_spec(), &Variation::noiseless(), &mut rng);
        assert_eq!(s.corner_points.len(), 1);
        // Corner at arc 60 of 120; sample index 15 (0-based) → count 16.
        assert_eq!(s.corner_points[0], 16);
        assert!(s.looped_corners.is_empty());
    }

    #[test]
    fn same_seed_reproduces_identical_gestures() {
        let spec = l_spec();
        let v = Variation::standard();
        let a = synthesize(&spec, &v, &mut SynthRng::seed_from_u64(77));
        let b = synthesize(&spec, &v, &mut SynthRng::seed_from_u64(77));
        assert_eq!(a.gesture, b.gesture);
        assert_eq!(a.corner_points, b.corner_points);
    }

    #[test]
    fn different_seeds_differ() {
        let spec = l_spec();
        let v = Variation::standard();
        let a = synthesize(&spec, &v, &mut SynthRng::seed_from_u64(1));
        let b = synthesize(&spec, &v, &mut SynthRng::seed_from_u64(2));
        assert_ne!(a.gesture, b.gesture);
    }

    #[test]
    fn timestamps_are_strictly_increasing() {
        let mut rng = SynthRng::seed_from_u64(3);
        let s = synthesize(&l_spec(), &Variation::standard(), &mut rng);
        for w in s.gesture.points().windows(2) {
            assert!(w[1].t > w[0].t);
        }
    }

    #[test]
    fn forced_corner_loop_reverses_apparent_turn() {
        let v = Variation::noiseless().with_corner_loops(1.0);
        let mut rng = SynthRng::seed_from_u64(5);
        let looped = synthesize(&l_spec(), &v, &mut rng);
        assert_eq!(looped.looped_corners, vec![0]);
        let plain = synthesize(&l_spec(), &Variation::noiseless(), &mut rng);
        // The plain L turns +90°; the looped version turns the long way
        // (−270°).
        let t_plain = total_turning(plain.gesture.points());
        let t_loop = total_turning(looped.gesture.points());
        assert!(
            (t_plain - std::f64::consts::FRAC_PI_2).abs() < 0.2,
            "plain {t_plain}"
        );
        assert!(
            (t_loop + 3.0 * std::f64::consts::FRAC_PI_2).abs() < 0.4,
            "looped {t_loop}"
        );
    }

    #[test]
    fn looped_corner_point_comes_after_plain_corner_point() {
        let mut rng1 = SynthRng::seed_from_u64(5);
        let looped = synthesize(
            &l_spec(),
            &Variation::noiseless().with_corner_loops(1.0),
            &mut rng1,
        );
        let mut rng2 = SynthRng::seed_from_u64(5);
        let plain = synthesize(&l_spec(), &Variation::noiseless(), &mut rng2);
        assert!(looped.corner_points[0] > plain.corner_points[0]);
    }

    #[test]
    fn jitter_changes_points_but_not_structure() {
        let v = Variation {
            jitter_sigma: 1.0,
            ..Variation::noiseless()
        };
        let mut rng = SynthRng::seed_from_u64(7);
        let s = synthesize(&l_spec(), &v, &mut rng);
        assert_eq!(s.gesture.len(), 31);
        // Path length grows a little with jitter but stays in the
        // neighbourhood.
        let len = s.gesture.path_length();
        assert!(len > 110.0 && len < 160.0, "len {len}");
    }

    #[test]
    fn scale_sigma_changes_size_between_examples() {
        let v = Variation {
            size_sigma: 0.3,
            ..Variation::noiseless()
        };
        let mut rng = SynthRng::seed_from_u64(11);
        let a = synthesize(&l_spec(), &v, &mut rng).gesture.path_length();
        let b = synthesize(&l_spec(), &v, &mut rng).gesture.path_length();
        assert!((a - b).abs() > 1.0, "sizes {a} vs {b} too similar");
    }

    #[test]
    fn arc_spec_samples_smoothly() {
        let circle = PathBuilder::start(1.0, 0.0)
            .arc(0.0, 0.0, 1.0, 0.0, 2.0 * std::f64::consts::PI, 48)
            .build();
        let mut rng = SynthRng::seed_from_u64(13);
        let s = synthesize(&circle, &Variation::noiseless(), &mut rng);
        // Total turning of a closed circle is ±2π.
        let t = total_turning(s.gesture.points()).abs();
        assert!((t - 2.0 * std::f64::consts::PI).abs() < 0.3, "turning {t}");
    }
}
