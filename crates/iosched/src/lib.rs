//! # iosched — multi-queue I/O submission scheduling over the OCSSD
//!
//! The paper's predictability claims (§4.3: GC interference confined to the
//! victim group; OX-ELEOS keeping latency "as fast as the hardware allows")
//! are properties of the *command path*, not just of NAND timings. Amber and
//! SimpleSSD make the same observation: tail-latency shapes only reproduce
//! when queue and arbitration resources are modeled. This crate adds that
//! layer: an NVMe-style multi-queue submission/completion subsystem running
//! entirely in virtual time on top of the [`ox_core::Media`] abstraction.
//!
//! * [`IoScheduler`] — per-tenant bounded submission queues with admission
//!   control, a single dispatch resource ([`ox_sim::Timeline`]), pluggable
//!   arbitration and per-tenant token-bucket rate limiting.
//! * [`ArbiterKind`] — `Fifo` (a naive queue-depth-1 shared queue: the
//!   baseline a legacy block stack presents), `RoundRobin`,
//!   `WeightedRoundRobin` (deficit round-robin over tenant weights) and
//!   `Deadline` (earliest-deadline-first over per-class latency targets).
//! * [`IoClass::Gc`] — a dedicated low-priority relocation class: GC copies
//!   dispatch only at idle parallel units or when no user command is
//!   runnable, with an anti-starvation deadline so relocation still makes
//!   progress under sustained load.
//! * [`IoCompletion`] — completion records carrying the full
//!   `submit → dispatch → media → complete` timestamp chain, exported
//!   through [`ox_sim::trace`] as `iosched.queue` / `iosched.dispatch` /
//!   `iosched.media` spans plus `iosched.*` counters and histograms.
//! * [`SchedMedia`] — an [`ox_core::Media`] adapter that routes a client
//!   (an FTL read path, the GC relocation path) through one tenant's queue,
//!   so existing layers port onto the scheduler without interface changes.
//!
//! Everything is deterministic: dispatch order is a pure function of
//! `(configuration, submission sequence)`; an empty [`SchedConfig`] is
//! latency-identical to calling the device directly, to the nanosecond
//! (verified by the `empty_config_identity` test).

#![warn(missing_docs)]
#![warn(clippy::all)]

mod arbiter;
mod bucket;
mod config;
mod media;
mod sched;

pub use arbiter::ArbiterKind;
pub use bucket::TokenBucket;
pub use config::{
    matrix_arbiter, matrix_tenants, ClassTargets, IoClass, RateLimit, SchedConfig, TenantConfig,
    TenantId, CLASS_TARGETS,
};
pub use media::SchedMedia;
pub use sched::{CmdId, IoCmd, IoCompletion, IoScheduler, SchedError, SchedStats, SharedScheduler};
