//! # oxperf — the repository's one benchmark
//!
//! Two clocks (the modeled device's virtual time and the simulator's host
//! time), six workloads, and per-layer attribution taken from outside the
//! layer crates. See `benchmark/README.md` for the metric glossary and the
//! table of which layer metric should move which end-to-end metric.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod clock;
pub mod compare;
pub mod driver;
pub mod gen;
pub mod json;
pub mod metrics;
pub mod run;
pub mod spec;
pub mod stacks;
pub mod trace;
pub mod workload;
