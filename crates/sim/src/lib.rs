//! # ox-sim — deterministic virtual-time simulation core
//!
//! Everything in the OX workbench runs on *virtual time*: latencies are
//! [`SimDuration`]s, timestamps are [`SimTime`]s, and throughput is measured in
//! operations per virtual second. This crate provides the shared substrate:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual clock types.
//! * [`Executor`] — a cooperative actor scheduler that advances the actor with
//!   the smallest local virtual time first, yielding deterministic, seedable
//!   interleavings of workload clients and background jobs.
//! * [`Timeline`] — a FIFO resource service curve used to model contended
//!   hardware resources (parallel units, channel buses, CPU cores). A request
//!   arriving at `t` on a busy resource starts at `max(t, busy_until)`.
//! * [`Prng`] — a small, fast, splittable PRNG (xoshiro256++) so simulations do
//!   not depend on external RNG implementation details.
//! * [`stats`] — counters, log-linear histograms and fixed-window time series
//!   used by the experiment harness to report the paper's figures.
//! * [`trace`] — the cross-crate observability layer: a span-style [`Tracer`]
//!   plus a named-metric [`MetricsRegistry`], bundled as an [`Obs`] handle
//!   threaded through the device, FTL and KV layers and exportable as JSON.
//! * [`sync`] — non-poisoning wrappers over `std::sync` locks so the
//!   workspace builds with zero external dependencies. In debug builds the
//!   [`sync::Mutex`] additionally runs lockdep-style lock-order verification:
//!   an acquisition that inverts the globally observed order panics with both
//!   lock construction sites instead of deadlocking a soak run.
//!
//! The design deliberately avoids real threads and wall-clock time: all
//! experiments in the paper reproduction are exact functions of
//! `(configuration, seed)`.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod executor;
#[cfg(debug_assertions)]
mod lockdep;
mod resource;
mod rng;
pub mod stats;
pub mod sync;
pub mod time;
pub mod trace;

pub use executor::{Actor, ActorId, Executor, Step};
#[cfg(debug_assertions)]
pub use lockdep::{observed_edges, ObservedEdge};
pub use resource::Timeline;
pub use rng::Prng;
pub use time::{SimDuration, SimTime};
pub use trace::{
    MetricsRegistry, MetricsSnapshot, Obs, SpanGuard, SpanId, TraceEvent, TracePhase, Tracer,
};
