//! # ox-workbench
//!
//! A full reproduction of *Open-Channel SSD (What is it Good For)*
//! (CIDR 2020) as a Rust workspace:
//!
//! * [`ocssd`] — an Open-Channel SSD 2.0 device simulator (geometry, chunk
//!   state machine, vector commands, NAND timing, write-back cache, bad
//!   media, wear).
//! * [`ox_core`] — the OX modular FTL framework: media manager, page-level
//!   mapping, provisioning, WAL, checkpointing, recovery, group-marked GC,
//!   bad-block table, and the Figure 1 landscape taxonomy.
//! * [`ox_block`] — OX-Block, the generic block-device FTL (Figure 3).
//! * [`ox_eleos`] — OX-ELEOS, the log-structured-storage FTL with the
//!   controller CPU/data-copy model (Figure 7).
//! * [`lightlsm`] — LightLSM, the LSM-tree FTL with horizontal/vertical
//!   SSTable placement (Figures 4–6).
//! * [`lsmkv`] — a RocksDB-like LSM key-value store with a db_bench-style
//!   workload driver.
//! * [`ox_zns`] — OX-ZNS, the Zoned Namespaces FTL the paper lists as "not
//!   fully available" in Figure 1.
//! * [`iosched`] — the multi-queue I/O scheduler with per-tenant QoS
//!   (paper §4.3 isolation, made explicit).
//! * [`ox_sim`] — the deterministic virtual-time simulation core underneath
//!   everything.
//!
//! See `DESIGN.md` for the system inventory and per-experiment index,
//! `EXPERIMENTS.md` for paper-vs-measured results, and `examples/` for
//! runnable entry points (start with `cargo run --release --example
//! quickstart`).

pub use iosched;
pub use lightlsm;
pub use lsmkv;
pub use ocssd;
pub use ox_block;
pub use ox_core;
pub use ox_eleos;
pub use ox_kvssd;
pub use ox_sim;
pub use ox_zns;
