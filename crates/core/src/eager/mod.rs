//! Eager recognition (§4 of the paper).
//!
//! Eager recognition answers, on every mouse point, the question *"has
//! enough of the gesture been seen to classify it unambiguously?"* (§4.3).
//! The insight is that this is itself a classification problem: train an
//! Ambiguous/Unambiguous Classifier (AUC) — with the same statistical
//! machinery as the full classifier — to label gesture *prefixes* as
//! ambiguous or unambiguous.
//!
//! The training pipeline, stage by stage:
//!
//! 1. [`label_subgestures`] — run the full classifier over every subgesture
//!    of every training example and mark each subgesture *complete* (it and
//!    every longer prefix classify correctly) or *incomplete* (§4.4,
//!    Figure 5).
//! 2. The same pass partitions: complete subgestures go to class `C-c`
//!    (where `c` is the gesture's class), incomplete ones to `I-c` (where
//!    `c` is the full classifier's — likely wrong — prediction). The 2C-way
//!    split keeps each class roughly unimodal, which the one-common-
//!    covariance Gaussian training assumes; a raw 2-way
//!    ambiguous/unambiguous split "does not work very well" (§4.4).
//! 3. [`move_accidentally_complete`] — *accidentally complete* subgestures
//!    (correctly classified but genuinely ambiguous, like the horizontal
//!    prelude of a `D` that happens to classify as `D`) are detected by
//!    Mahalanobis proximity to an incomplete-class mean and moved there
//!    (§4.5, Figure 6). The threshold is 50 % of the minimum distance
//!    between any full-gesture class mean and any incomplete-class mean,
//!    ignoring degenerate pairs.
//! 4. [`Auc::train`] — train the 2C-class AUC, bias every incomplete class
//!    by `ln 5` (ambiguous prefixes treated as five times more likely a
//!    priori), then *tweak*: any incomplete training subgesture still judged
//!    unambiguous lowers the offending complete class's constant by the
//!    violation margin "plus a little more", to a bounded fixed point
//!    (§4.6, Figure 7).
//!
//! [`EagerRecognizer`] packages the result; the two-phase
//! [`Interaction`](crate::Interaction) machine applies it one point at a
//! time, classifying the moment the prefix becomes unambiguous.

mod auc;
mod config;
mod labeling;
mod mover;
mod recognizer;

pub use auc::{Auc, AucClassKind, TweakStats};
pub use config::EagerConfig;
pub use labeling::{label_subgestures, SubgestureRecord};
pub use mover::{move_accidentally_complete, MoveOutcome};
pub use recognizer::{EagerRecognizer, EagerRun, EagerTrainReport};
