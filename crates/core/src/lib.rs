//! # ox-core — the OX modular FTL framework
//!
//! This crate is the paper's primary contribution: a modular Flash
//! Translation Layer framework for Open-Channel SSDs, following the
//! architecture of Figure 2 in *Open-Channel SSD (What is it Good For)*
//! (CIDR 2020). The framework is a toolbox of components that concrete FTLs
//! (OX-Block, OX-ELEOS, LightLSM) compose:
//!
//! * [`media::Media`] — the media-manager abstraction: a common physical
//!   address space over whatever storage sits below (here, the `ocssd`
//!   simulator).
//! * [`mapping::PageMap`] — page-level logical→physical mapping with the
//!   reverse map and per-chunk valid counts needed by garbage collection.
//! * [`provision::Provisioner`] — chunk provisioning: free pools and open
//!   write points per parallel unit, with horizontal (device-wide striping)
//!   and vertical (single-group) allocation policies (paper Figure 4).
//! * [`logspace::LogSpace`] — the data-log write path the page-mapped FTLs
//!   and the collector share: placement with failover, map-and-journal, the
//!   force-at-commit barrier and reset-or-retire, over one `PageMap` and one
//!   `Provisioner`.
//! * [`wal::Wal`] — the recovery log: CRC-framed record batches appended to
//!   reserved chunks with group commit.
//! * [`checkpoint`] / [`recovery`] — alternating-area mapping snapshots and
//!   the crash-recovery procedure (load snapshot, scan log tail, replay
//!   committed transactions, rebuild write pointers from *report chunk*).
//!   These reproduce the Figure 3 experiment.
//! * [`gc::GarbageCollector`] — group-marked greedy GC using device-internal
//!   copies (placed through the log space), giving the §4.3
//!   interference-locality property.
//! * [`badblock::BadBlockTable`] — bad-media bookkeeping fed by the device's
//!   asynchronous error reports.
//! * [`landscape`] — the Figure 1 SSD-landscape taxonomy as a typed model.
//!
//! Every FTL API operation is a transaction (paper §4.3): atomicity and
//! durability come from write-ahead logging plus checkpoints, because the
//! device's vectored writes are not atomic.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod badblock;
pub mod checkpoint;
pub mod codec;
pub mod faultharness;
pub mod gc;
pub mod landscape;
pub mod layout;
pub mod logspace;
pub mod mapping;
pub mod media;
pub mod provision;
pub mod recovery;
pub mod retry;
pub mod stats;
pub mod wal;

pub use media::{Media, OcssdMedia};
