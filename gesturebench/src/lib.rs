//! The repository benchmark: the grandma-serve recognition service under
//! three workloads, measured end to end against a real `serve run` child
//! and, in a traced run, layer by layer. See `README.md` next to this
//! crate for the workloads, the metric map and how to run it.

pub mod affinity;
pub mod check;
pub mod child;
pub mod layers;
pub mod loadgen;
pub mod report;
pub mod schedule;
pub mod spans;
pub mod stats;
pub mod workload;
