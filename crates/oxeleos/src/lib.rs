//! # ox-eleos — application-specific FTL for log-structured storage
//!
//! OX-ELEOS "exposes Open-Channel SSDs as log-structured storage, with
//! writes at the granularity of Log-Structured Storage (LSS) I/O buffers,
//! typically 8 MB, and reads at the granularity of a single page" (paper
//! §4.2). Its goal is to reduce host CPU load by placing the FTL on the
//! storage controller — which makes the *controller's* CPU the scarce
//! resource: every LSS buffer is copied twice inside OX (network stack →
//! FTL, FTL → device), and those copies saturate the controller at two host
//! writer threads (paper Figure 7).
//!
//! The crate provides:
//!
//! * [`EleosFtl`] — the LSS FTL: append-only 8 MB buffer flushes, page reads,
//!   byte-granularity addressing into the log (the "mapping at a granularity
//!   smaller than the unit of read" point of §4.2), and whole-buffer trim
//!   with copyless reclamation.
//! * [`ControllerCpu`] / [`CpuModel`] — the storage-controller CPU model
//!   that charges per-copy time and reports utilization (the Figure 7
//!   metric), with a configurable copies-per-write count so the §4.4
//!   zero-copy lesson (AF_XDP / hardware ROCE) can be measured as an
//!   ablation.

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

mod cpu;
mod lss;

pub use cpu::{ControllerCpu, CpuModel};
pub use lss::{EleosConfig, EleosError, EleosFtl, LogAddr};
