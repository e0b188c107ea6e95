//! # ox-block — the generic block-device FTL
//!
//! OX-Block "exposes Open-Channel SSDs as block devices … a logical address
//! space composed of 4 KB blocks [with] a 4 KB-granularity page-level mapping
//! table" (paper §4.2). It composes the `ox-core` framework components:
//! page map, horizontal provisioning, WAL, checkpoints, recovery, group-
//! marked GC and the bad-block table.
//!
//! Every API operation is a transaction (paper §4.3): a multi-block write
//! either becomes fully visible or not at all, across crashes. OX-Block uses
//! a *force-at-commit* policy — user data is flushed to NAND before the
//! commit record goes to the WAL — because the simulated drive's write-back
//! cache is not power-loss protected. This is the conservative reading of
//! the paper's atomicity discussion ("beware of the atomicity fallacy").
//!
//! This crate is the substrate for the Figure 3 experiment (checkpoint
//! interval vs. recovery time) and the §4.3 GC-locality measurement.

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

mod ftl;

pub use ftl::{BlockFtl, BlockFtlConfig, BlockFtlError, ScrubConfig, ScrubReport, WriteOutcome};
