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
//!   control and one dispatch decision at a time, in non-decreasing virtual
//!   time.
//! * [`ArbiterKind`] — `Deadline` (earliest-deadline-first over per-class
//!   latency targets, the default) and `Fifo` (a naive queue-depth-1 shared
//!   queue: the baseline a legacy block stack presents). `fig_qos_tail`
//!   measures one against the other.
//! * [`IoClass::Gc`] — a dedicated low-priority relocation class: GC copies
//!   dispatch only at idle parallel units or when no user command is
//!   runnable, with an anti-starvation deadline so relocation still makes
//!   progress under sustained load.
//! * [`IoCompletion`] — completion records carrying the full
//!   `submit → dispatch → media → complete` timestamp chain, exported
//!   through [`ox_sim::trace`] as `iosched.queue` / `iosched.media` spans
//!   plus `iosched.*` counters and histograms.
//! * [`SchedMedia`] — an [`ox_core::Media`] adapter that routes a client
//!   (an FTL read path, the GC relocation path) through one tenant's queue,
//!   so existing layers port onto the scheduler without interface changes.
//!
//! Everything is deterministic: dispatch order is a pure function of
//! `(configuration, submission sequence)`; the default [`SchedConfig`] is
//! latency-identical to calling the device directly, to the nanosecond
//! (verified by the `empty_config_is_latency_identical_to_direct_device`
//! test).

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented
    )
)]

mod arbiter;
mod config;
mod media;
mod sched;

pub use arbiter::ArbiterKind;
pub use config::{ClassTargets, IoClass, SchedConfig, TenantConfig, TenantId, CLASS_TARGETS};
pub use media::SchedMedia;
pub use sched::{CmdId, IoCmd, IoCompletion, IoScheduler, SchedError, SchedStats, SharedScheduler};
