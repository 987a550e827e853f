#![forbid(unsafe_code)]
//! The paper's primary contribution: Rubine's statistical single-stroke
//! gesture recognizer and the eager-recognition training algorithm.
//!
//! Three layers:
//!
//! 1. [`features`] — the incremental feature vector (§4.2: "each feature
//!    has the property that it can be updated in constant time per mouse
//!    point, thus arbitrarily large gestures can be handled").
//! 2. [`classifier`] — the linear-discriminant classifier with closed-form
//!    training, probability/Mahalanobis rejection, and the
//!    misclassification-cost hooks (constant-term adjustment) the eager
//!    pipeline relies on.
//! 3. [`eager`] — the §4.3–4.7 algorithm: label subgestures
//!    complete/incomplete with the full classifier, partition them into 2C
//!    classes, move *accidentally complete* subgestures via a Mahalanobis
//!    threshold, train the Ambiguous/Unambiguous Classifier (AUC), bias it
//!    5× toward "ambiguous", and tweak complete-class constants until no
//!    training incomplete subgesture is judged unambiguous.
//!
//! On top of them, [`interaction`] is the §3.2 two-phase interaction
//! machine (collect → phase transition → classify → manipulate) that the
//! toolkit's gesture handler and the serving layer's session pipeline
//! both drive.
//!
//! # Examples
//!
//! Train an eager recognizer and feed one stroke, event by event, to the
//! two-phase interaction machine:
//!
//! ```
//! use grandma_core::{
//!     EagerConfig, EagerRecognizer, FeatureMask, Interaction, InteractionConfig,
//!     PhaseTransition, Step,
//! };
//! use grandma_events::{gesture_events, Button};
//! use grandma_geom::{Gesture, Point};
//!
//! // Two classes: "right-then-up" and "right-then-down".
//! let mut up = Vec::new();
//! let mut down = Vec::new();
//! for e in 0..10 {
//!     let wiggle = e as f64 * 0.3;
//!     let mk = |sign: f64| {
//!         let mut pts = Vec::new();
//!         for i in 0..10 {
//!             pts.push(Point::new(i as f64 * 5.0 + wiggle, 0.0, i as f64 * 10.0));
//!         }
//!         for i in 1..10 {
//!             pts.push(Point::new(45.0 + wiggle, sign * i as f64 * 5.0, 90.0 + i as f64 * 10.0));
//!         }
//!         Gesture::from_points(pts)
//!     };
//!     up.push(mk(1.0));
//!     down.push(mk(-1.0));
//! }
//! let (rec, _report) = EagerRecognizer::train(
//!     &[up.clone(), down],
//!     &FeatureMask::all(),
//!     &EagerConfig::default(),
//! )
//! .unwrap();
//!
//! let mut interaction = Interaction::new(InteractionConfig::default());
//! let mut recognized = None;
//! for event in gesture_events(&up[0], Button::Left) {
//!     interaction.feed(&rec, event, &mut |step| {
//!         if let Step::Recognized { trigger, class, gesture } = step {
//!             recognized = Some((trigger, class, gesture.len()));
//!         }
//!     });
//! }
//! let (trigger, class, at) = recognized.expect("eagerly recognized");
//! assert_eq!(trigger, PhaseTransition::Eager);
//! assert_eq!(class, Some(0));
//! assert!(at < up[0].len(), "recognized before the gesture ended");
//! ```

pub mod baseline;
pub mod classifier;
pub mod eager;
pub mod features;
pub mod interaction;
pub mod multistroke;
pub mod persist;

pub use classifier::{Classification, Classifier, LinearClassifier, TrainError};
pub use eager::{AucClassKind, EagerConfig, EagerRecognizer, EagerTrainReport, SubgestureRecord};
pub use features::{FeatureExtractor, FeatureMask, PointFilter, FEATURE_COUNT, FEATURE_NAMES};
pub use interaction::{
    Interaction, InteractionConfig, InteractionOutcome, InteractionPhase, PhaseTransition, Step,
};
pub use persist::PersistError;
