//! A template-matching baseline recognizer.
//!
//! §4.2 surveys the alternatives to statistical recognition — the Ledeen
//! recognizer, connectionist models, and the hand-coded classifiers "many
//! gesture researchers" built. The natural trainable baseline (and the
//! design later popularized as the `$1` recognizer, which descends from
//! Rubine's work) is nearest-neighbour template matching over normalized
//! resampled strokes. This module implements it so the benches can compare
//! the paper's linear-discriminant approach against the family it
//! competes with, on accuracy and per-classification cost.
//!
//! Normalization: resample to a fixed point count, translate the centroid
//! to the origin, optionally rotate the indicative angle (centroid to
//! first point) to zero, and scale the bounding box to a unit square.
//! Classification: smallest mean point-to-point distance to any stored
//! template.
//!
//! # Examples
//!
//! ```
//! use grandma_core::baseline::{TemplateConfig, TemplateRecognizer};
//! use grandma_geom::Gesture;
//!
//! let right = vec![Gesture::from_xy(&[(0.0, 0.0), (30.0, 0.0), (60.0, 0.0)], 10.0)];
//! let up = vec![Gesture::from_xy(&[(0.0, 0.0), (0.0, 30.0), (0.0, 60.0)], 10.0)];
//! let rec = TemplateRecognizer::train(&[right, up], &TemplateConfig::default()).unwrap();
//! let probe = Gesture::from_xy(&[(5.0, 1.0), (35.0, 0.0), (64.0, 1.0)], 10.0);
//! assert_eq!(rec.classify(&probe).class, 0);
//! ```

use grandma_geom::{Gesture, Point};

use crate::classifier::TrainError;

/// Template-recognizer options.
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateConfig {
    /// Points each stroke is resampled to.
    pub resample_points: usize,
    /// Rotate so the centroid-to-first-point angle is zero (rotation
    /// invariance). GDP-style gesture sets distinguish classes *by*
    /// orientation, so this defaults to off.
    pub rotation_invariant: bool,
}

impl Default for TemplateConfig {
    fn default() -> Self {
        Self {
            resample_points: 64,
            rotation_invariant: false,
        }
    }
}

/// The result of a template classification.
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateMatch {
    /// Winning class.
    pub class: usize,
    /// Index of the winning template within its class.
    pub template: usize,
    /// Mean point distance to the winning template (normalized units).
    pub distance: f64,
}

/// A nearest-neighbour template recognizer.
#[derive(Debug, Clone)]
pub struct TemplateRecognizer {
    templates: Vec<Vec<Vec<Point>>>,
    config: TemplateConfig,
}

impl TemplateRecognizer {
    /// Stores one normalized template per training example.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] when fewer than two classes are given or a
    /// class is empty.
    pub fn train(per_class: &[Vec<Gesture>], config: &TemplateConfig) -> Result<Self, TrainError> {
        if per_class.len() < 2 {
            return Err(TrainError::TooFewClasses {
                got: per_class.len(),
            });
        }
        let mut templates = Vec::with_capacity(per_class.len());
        for (class, examples) in per_class.iter().enumerate() {
            if examples.is_empty() {
                return Err(TrainError::EmptyClass { class });
            }
            templates.push(
                examples
                    .iter()
                    .map(|g| normalize(g, config))
                    .collect::<Vec<_>>(),
            );
        }
        Ok(Self {
            templates,
            config: config.clone(),
        })
    }

    /// Classifies a gesture by nearest template.
    pub fn classify(&self, gesture: &Gesture) -> TemplateMatch {
        let probe = normalize(gesture, &self.config);
        let mut best = TemplateMatch {
            class: 0,
            template: 0,
            distance: f64::INFINITY,
        };
        for (class, class_templates) in self.templates.iter().enumerate() {
            for (template, t) in class_templates.iter().enumerate() {
                let d = mean_distance(&probe, t);
                if d < best.distance {
                    best = TemplateMatch {
                        class,
                        template,
                        distance: d,
                    };
                }
            }
        }
        best
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.templates.len()
    }

    /// Total stored templates (classification cost is linear in this,
    /// unlike the linear classifier's per-class cost — the §4.2 trade).
    pub fn template_count(&self) -> usize {
        self.templates.iter().map(Vec::len).sum()
    }
}

/// Resamples, centres, optionally de-rotates, and unit-scales a gesture.
fn normalize(gesture: &Gesture, config: &TemplateConfig) -> Vec<Point> {
    let n = config.resample_points.max(2);
    let resampled = if gesture.len() >= 2 {
        gesture.resampled(n)
    } else {
        // A tap: repeat the single point.
        let p = gesture.first().copied().unwrap_or(Point::xy(0.0, 0.0));
        Gesture::from_points(vec![p; n])
    };
    let mut pts: Vec<Point> = resampled.points().to_vec();
    // Centre on the centroid.
    let (mut cx, mut cy) = (0.0, 0.0);
    for p in &pts {
        cx += p.x;
        cy += p.y;
    }
    cx /= pts.len() as f64;
    cy /= pts.len() as f64;
    for p in &mut pts {
        p.x -= cx;
        p.y -= cy;
    }
    if config.rotation_invariant {
        let theta = pts[0].y.atan2(pts[0].x);
        let (s, c) = (-theta).sin_cos();
        for p in &mut pts {
            let (x, y) = (p.x, p.y);
            p.x = x * c - y * s;
            p.y = x * s + y * c;
        }
    }
    // Scale the larger bounding-box side to 1.
    let mut b = grandma_geom::BBox::empty();
    for p in &pts {
        b.include(p);
    }
    let scale = b.width().max(b.height());
    if scale > 1e-9 {
        for p in &mut pts {
            p.x /= scale;
            p.y /= scale;
        }
    }
    pts
}

fn mean_distance(a: &[Point], b: &[Point]) -> f64 {
    let n = a.len().min(b.len());
    if n == 0 {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b.iter())
        .map(|(p, q)| p.distance(q))
        .sum::<f64>()
        / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use grandma_geom::Transform;

    fn l_shape(jiggle: f64) -> Gesture {
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.push(Point::new(
                i as f64 * 5.0 + jiggle * (i % 3) as f64,
                jiggle * (i % 2) as f64,
                i as f64 * 10.0,
            ));
        }
        for i in 1..10 {
            pts.push(Point::new(45.0, i as f64 * 5.0, 90.0 + i as f64 * 10.0));
        }
        Gesture::from_points(pts)
    }

    fn v_shape(jiggle: f64) -> Gesture {
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.push(Point::new(
                i as f64 * 3.0 + jiggle,
                -(i as f64) * 5.0,
                i as f64 * 10.0,
            ));
        }
        for i in 1..10 {
            pts.push(Point::new(
                27.0 + i as f64 * 3.0,
                -45.0 + i as f64 * 5.0 + jiggle,
                90.0 + i as f64 * 10.0,
            ));
        }
        Gesture::from_points(pts)
    }

    fn training() -> Vec<Vec<Gesture>> {
        vec![
            (0..6).map(|e| l_shape(0.1 + e as f64 * 0.1)).collect(),
            (0..6).map(|e| v_shape(0.1 + e as f64 * 0.1)).collect(),
        ]
    }

    #[test]
    fn classifies_its_own_training_examples() {
        let rec = TemplateRecognizer::train(&training(), &TemplateConfig::default()).unwrap();
        for (class, examples) in training().iter().enumerate() {
            for g in examples {
                assert_eq!(rec.classify(g).class, class);
            }
        }
    }

    #[test]
    fn is_scale_and_translation_invariant() {
        let rec = TemplateRecognizer::train(&training(), &TemplateConfig::default()).unwrap();
        let g = l_shape(0.35)
            .transformed(&Transform::scale(3.0))
            .transformed(&Transform::translation(500.0, -200.0));
        assert_eq!(rec.classify(&g).class, 0);
    }

    #[test]
    fn rotation_sensitivity_is_configurable() {
        let sensitive = TemplateRecognizer::train(&training(), &TemplateConfig::default()).unwrap();
        let invariant = TemplateRecognizer::train(
            &training(),
            &TemplateConfig {
                rotation_invariant: true,
                ..TemplateConfig::default()
            },
        )
        .unwrap();
        // A quarter-turned L: the rotation-invariant recognizer should
        // match it far better than the sensitive one.
        let rotated = l_shape(0.2).transformed(&Transform::rotation(std::f64::consts::FRAC_PI_2));
        let d_sensitive = sensitive.classify(&rotated).distance;
        let d_invariant = invariant.classify(&rotated).distance;
        assert!(
            d_invariant < d_sensitive,
            "invariant {d_invariant} vs sensitive {d_sensitive}"
        );
    }

    #[test]
    fn match_reports_distance_and_template() {
        let rec = TemplateRecognizer::train(&training(), &TemplateConfig::default()).unwrap();
        let m = rec.classify(&l_shape(0.1));
        assert_eq!(m.class, 0);
        assert!(m.distance < 0.1, "near-duplicate must match closely");
        assert!(m.template < 6);
        assert_eq!(rec.template_count(), 12);
    }

    #[test]
    fn dot_gestures_do_not_crash_normalization() {
        let mut data = training();
        data.push(vec![
            Gesture::from_xy(&[(5.0, 5.0)], 10.0),
            Gesture::from_xy(&[(9.0, 2.0), (9.5, 2.0)], 10.0),
        ]);
        let rec = TemplateRecognizer::train(&data, &TemplateConfig::default()).unwrap();
        let m = rec.classify(&Gesture::from_xy(&[(100.0, 100.0)], 10.0));
        assert_eq!(m.class, 2, "a tap matches the tap class");
    }

    #[test]
    fn training_errors_mirror_the_linear_classifier() {
        assert!(matches!(
            TemplateRecognizer::train(&[vec![l_shape(0.1)]], &TemplateConfig::default()),
            Err(TrainError::TooFewClasses { got: 1 })
        ));
        assert!(matches!(
            TemplateRecognizer::train(&[vec![l_shape(0.1)], vec![]], &TemplateConfig::default()),
            Err(TrainError::EmptyClass { class: 1 })
        ));
    }
}
