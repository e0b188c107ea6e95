//! # ocssd — an Open-Channel SSD 2.0 device simulator
//!
//! This crate models the device side of the Open-Channel SSD 2.0 interface
//! described in Section 2 of *Open-Channel SSD (What is it Good For)*
//! (CIDR 2020): the physical storage hierarchy (groups → parallel units →
//! chunks → logical blocks), the chunk state machine with per-chunk write
//! pointers, vector data commands (read / write / reset / device-internal
//! copy), the controller write-back cache, bad-media management and wear
//! accounting.
//!
//! The simulated device is faithful to the *structural* contracts that shape
//! host FTL design:
//!
//! * no interference across groups; operations serialize within a parallel
//!   unit; transfers contend on the per-group channel bus;
//! * logical blocks must be written sequentially within a chunk, in multiples
//!   of `ws_min` (24 sectors = 96 KB on the paper's dual-plane TLC drive);
//! * a chunk must be reset before it can be rewritten;
//! * reads of unwritten logical blocks fail; recently written blocks are
//!   served from the controller cache until the NAND program completes;
//! * writes complete when they reach the controller write-back cache, which
//!   is why the paper observes write throughput ≫ read throughput;
//! * media wears out: chunks go offline and the device reports asynchronous
//!   media events, which host FTLs must handle.
//!
//! Latency constants come from published NAND datasheet ballparks per cell
//! type ([`CellType`]); see [`NandProfile`]. All timing is virtual
//! ([`ox_sim::SimTime`]), making every experiment deterministic.

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

mod addr;
mod cache;
mod cell;
mod chunk;
mod device;
mod error;
pub mod fault;
mod geometry;
pub mod health;
mod media;
mod stats;

pub use addr::{ChunkAddr, Ppa};
pub use cache::CacheConfig;
pub use cell::{CellType, NandProfile};
pub use chunk::{ChunkInfo, ChunkState};
pub use device::{Completion, DeviceConfig, MediaEvent, MediaEventKind, OcssdDevice, SharedDevice};
pub use error::{DeviceError, Result};
pub use fault::{
    fault_geometries, matrix_seeds, EraseFault, FaultInjector, FaultLedger, FaultMix, FaultPlan,
    LatencySpike, PowerCut, ProgramFault, ReadFault,
};
pub use geometry::Geometry;
pub use health::{
    ChunkHealth, HealthLedger, ReadErrorKind, ReliabilityState, REFRESH_THRESHOLD_PPM,
};
pub use media::{Payload, PayloadBuf};
pub use ox_sim::trace::{Obs, TraceEvent, TracePhase};
pub use stats::DeviceStats;

/// Size of one logical block (sector) in bytes: the unit of read.
pub const SECTOR_BYTES: usize = 4096;
