#![forbid(unsafe_code)]
//! Facade crate for the GRANDMA reproduction.
//!
//! Re-exports every workspace crate under one roof so examples, integration
//! tests, and downstream users can depend on a single package:
//!
//! - [`core`] — the Rubine statistical recognizer and the eager-recognition
//!   training algorithm (the paper's primary contribution).
//! - [`geom`] — points, gestures, subgestures, and path geometry.
//! - [`linalg`] — the dense linear algebra the classifiers are built on.
//! - [`synth`] — synthetic gesture generation and the paper's datasets.
//! - [`events`] — the virtual clock and input-event substrate.
//! - [`sem`] — the gesture-semantics (`recog`/`manip`/`done`) interpreter.
//! - [`toolkit`] — the GRANDMA MVC architecture and two-phase interaction.
//! - [`gdp`] — the GDP gesture-based drawing program.
//! - [`multipath`] — the §6 multi-finger extension.
//! - [`serve`] — the sharded multi-session recognition service: binary
//!   wire protocol, session router, TCP transport, metrics.
//! - [`cluster`] — multi-node routing: the deterministic consistent-hash
//!   ring and the `cluster.json` discovery registry.
//!
//! # Examples
//!
//! ```
//! use grandma::prelude::*;
//!
//! // Train a full classifier on the paper's eight-direction set and
//! // classify one test gesture.
//! let data = grandma::synth::datasets::eight_way(0x5eed, 10, 1);
//! let classifier = Classifier::train(&data.training, &FeatureMask::all()).unwrap();
//! let result = classifier.classify(&data.testing[0].gesture);
//! assert_eq!(result.class, data.testing[0].class);
//! ```

pub use grandma_cluster as cluster;
pub use grandma_core as core;
pub use grandma_events as events;
pub use grandma_gdp as gdp;
pub use grandma_geom as geom;
pub use grandma_linalg as linalg;
pub use grandma_multipath as multipath;
pub use grandma_sem as sem;
pub use grandma_serve as serve;
pub use grandma_synth as synth;
pub use grandma_toolkit as toolkit;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use grandma_core::{
        Classifier, EagerConfig, EagerRecognizer, FeatureExtractor, FeatureMask,
    };
    pub use grandma_geom::{Gesture, Point};
    pub use grandma_synth::datasets;
    pub use grandma_toolkit::{
        GestureClass, GestureHandler, GestureHandlerConfig, Interface, PhaseTransition,
    };
}
