//! # lightlsm — application-specific FTL for LSM-tree storage
//!
//! LightLSM "exposes Open-Channel SSDs as a RocksDB environment supporting
//! SSTable flush and block reads" (paper §4.2). Its design decisions come
//! straight from §4.3:
//!
//! * **Block = unit of write.** RocksDB forces the units of read and write
//!   to be the same, so on the dual-plane TLC drive an SSTable block is
//!   96 KB — "many times larger than possible with the underlying
//!   Open-Channel SSD" (the interface fallacy).
//! * **SSTable = whole chunks.** An SSTable occupies chunks exclusively, so
//!   "garbage collection does not result in read and write operations of
//!   invalid pages within chunks. Each SSTable deletion only causes chunk
//!   erases."
//! * **Placement policies (Figure 4).** *Horizontal*: the SSTable is striped
//!   across all parallel units — maximum single-stream bandwidth, but every
//!   concurrent job interferes everywhere. *Vertical*: the SSTable lives in
//!   a single group — lower single-stream bandwidth, but concurrent jobs in
//!   different groups do not interfere.
//! * **Write pointers behind one dispatch queue.** A single dispatch thread
//!   submits I/O, so per-chunk write pointers are never raced.
//! * **Atomic SSTable flush, no MANIFEST.** The SSTable directory is
//!   journaled through the OX WAL and checkpointed; RocksDB's MANIFEST
//!   becomes unnecessary (the §5 atomicity-fallacy hint).

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

mod env;
mod placement;

pub use env::{LightLsm, LightLsmConfig, LightLsmError, TableId};
pub use placement::{Placement, TableExtent};
