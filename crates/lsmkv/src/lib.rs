//! # lsmkv — an LSM-tree key-value store over LightLSM
//!
//! A RocksDB-like storage engine used to reproduce the paper's Figures 5
//! and 6: memtable + immutable memtables, SSTables with data blocks, index
//! and bloom filters, leveled compaction with L0 stall-based rate limiting,
//! and a `db_bench`-style workload driver (fill-sequential, read-sequential,
//! read-random with 1/2/4/8 client threads).
//!
//! Two deliberate RocksDB-isms matter for the paper's argument:
//!
//! * **Block size = unit of write.** "In RocksDB, a block is the unit of
//!   transfer for reads and writes" (§4.2) — so on the dual-plane TLC drive
//!   the table block is 96 KB, and a random 1 KB `get` pays a 96 KB media
//!   read (the read-random ≪ read-sequential gap in Figure 5).
//! * **No MANIFEST.** Table lifecycle is delegated to LightLSM's atomic
//!   SSTable flush/delete (§5, the atomicity-fallacy hint). The version set
//!   here is volatile; durability of the directory lives in the FTL.
//!
//! The store runs against a [`TableStore`]: [`LightLsmStore`], the
//! application-specific FTL of the paper's configuration.

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

pub mod bench;
mod block;
mod bloom;
mod compaction;
mod db;
mod memtable;
mod sstable;
mod store;
mod version;

pub use block::{BlockAnchors, BlockBuilder, BlockIter};
pub use bloom::BloomFilter;
pub use compaction::CompactionStats;
pub use db::{Db, DbConfig, DbError, DbIter, DbStats, KvPair, PutOutcome, SharedDb};
pub use memtable::Memtable;
pub use sstable::{TableBuilder, TableHandle};
pub use store::{concat_blocks, LightLsmStore, StoreError, TableStore};
pub use version::{LevelMeta, Version};
