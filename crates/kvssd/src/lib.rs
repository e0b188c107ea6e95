//! # ox-kvssd — a KV-SSD-style key-value FTL
//!
//! The paper's §5 poses an open issue: "NVMe is standardizing a KV
//! interface, inspired by KV-SSD. How does it compare to LightLSM that
//! supports flush and probe?" This crate implements the KV-SSD side of that
//! comparison: a key-value FTL in the style of Samsung's KV-SSD [Kang et
//! al., SYSTOR'19] running directly on the Open-Channel device —
//! `put`/`get`/`delete` over an append-only value log with an in-memory
//! hash index, journaled through the OX WAL and compacted by the
//! group-marked garbage collector.
//!
//! Contrast with LightLSM (the other side of the comparison):
//!
//! * **KV-SSD**: point lookups read exactly the sectors a value occupies —
//!   no 96 KB block tax, no multi-level probes. But the device-side index
//!   must be journaled per operation, range scans are unsupported, and
//!   space reclamation needs valid-page copies (real GC).
//! * **LightLSM**: reads pay the block-sized transfer and level probes, but
//!   flush/erase-only reclamation never copies a page, and sorted scans are
//!   natural.
//!
//! The `fig_ablation` bench in `ox-bench` measures this FTL against the
//! block and zone interfaces on one device.

#![warn(missing_docs)]
#![warn(clippy::all)]

use ocssd::{DeviceError, Geometry, SECTOR_BYTES};
use ox_core::gc::{GarbageCollector, GcConfig};
use ox_core::layout::{Layout, LayoutConfig};
use ox_core::logspace::LogSpace;
use ox_core::mapping::PageMap;
use ox_core::provision::Provisioner;
use ox_core::stats::FtlStats;
use ox_core::wal::{Wal, WalError, WalRecord};
use ox_core::{retry, Media};
use ox_sim::{SimDuration, SimTime};
use std::collections::HashMap;
use std::sync::Arc;

/// Largest value accepted (values span whole sectors in the value log).
pub const MAX_VALUE_BYTES: usize = 1024 * 1024;
/// CPU cost charged per command (device-side index work).
const COMMAND_CPU: SimDuration = SimDuration::from_micros(2);
/// Puts/deletes per WAL group commit (durability batch; `sync` forces).
const GROUP_COMMIT: usize = 64;

/// KV-SSD configuration.
#[derive(Clone, Copy, Debug)]
pub struct KvSsdConfig {
    /// Metadata layout.
    pub layout: LayoutConfig,
    /// Free-chunk watermark that triggers value-log garbage collection.
    pub gc_watermark: u32,
}

impl Default for KvSsdConfig {
    fn default() -> Self {
        KvSsdConfig {
            layout: LayoutConfig::default(),
            gc_watermark: 16,
        }
    }
}

/// KV-SSD failure modes.
#[derive(Clone, Debug)]
pub enum KvError {
    /// Key empty or oversized.
    BadKey(usize),
    /// Value larger than [`MAX_VALUE_BYTES`].
    ValueTooLarge(usize),
    /// Device out of space even after GC.
    OutOfSpace,
    /// Log failure.
    Wal(WalError),
    /// Device failure.
    Device(DeviceError),
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::BadKey(n) => write!(f, "bad key length {n}"),
            KvError::ValueTooLarge(n) => write!(f, "value of {n} bytes too large"),
            KvError::OutOfSpace => write!(f, "device out of space"),
            KvError::Wal(e) => write!(f, "log error: {e}"),
            KvError::Device(e) => write!(f, "device error: {e}"),
        }
    }
}

impl std::error::Error for KvError {}

impl From<WalError> for KvError {
    fn from(e: WalError) -> Self {
        KvError::Wal(e)
    }
}

impl From<DeviceError> for KvError {
    fn from(e: DeviceError) -> Self {
        KvError::Device(e)
    }
}

#[derive(Clone, Copy, Debug)]
struct ValueLoc {
    /// First logical page of the value in the log window.
    lpn: u64,
    /// Value length in bytes.
    len: u32,
}

/// The KV-SSD-style FTL.
pub struct KvSsd {
    media: Arc<dyn Media>,
    geo: Geometry,
    /// Device-side hash index: key → value location.
    index: HashMap<Vec<u8>, ValueLoc>,
    /// The value log: page map (log page → physical sector), provisioning
    /// and the write path, shared machinery with OX-Block so GC can
    /// relocate live values.
    space: LogSpace,
    wal: Wal,
    /// The value log's collector. One for the life of the FTL: its marked
    /// group stays where the last pass left it.
    gc: GarbageCollector,
    stats: FtlStats,
    next_lpn: u64,
    window_pages: u64,
    /// Buffered sectors awaiting a full `ws_min` unit (write coalescing).
    staged: Vec<(u64, Vec<u8>)>,
    /// Operations since the last group commit.
    pending_ops: usize,
}

impl KvSsd {
    /// Formats the device as a KV-SSD.
    pub fn format(
        media: Arc<dyn Media>,
        config: KvSsdConfig,
        now: SimTime,
    ) -> Result<(KvSsd, SimTime), KvError> {
        let geo = media.geometry();
        let layout = Layout::plan(&geo, config.layout);
        let reserved = layout.reserved_linear(&geo);
        let window_pages = geo.total_sectors() / 2; // value-log logical window
        let (wal, done) = Wal::format(media.clone(), layout.wal_chunks.clone(), now)?;
        // Metadata chunks are excluded from the value log and from GC.
        let gc = GarbageCollector::new(
            &media,
            GcConfig {
                low_watermark: config.gc_watermark,
                chunks_per_pass: 4,
                ..GcConfig::default()
            },
        );
        Ok((
            KvSsd {
                geo,
                index: HashMap::new(),
                space: LogSpace::new(
                    PageMap::new(geo, window_pages),
                    Provisioner::fresh(geo, &reserved),
                ),
                wal,
                gc,
                stats: FtlStats::default(),
                next_lpn: 0,
                window_pages,
                staged: Vec::new(),
                pending_ops: 0,
                media,
            },
            done,
        ))
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// FTL statistics.
    pub fn stats(&self) -> &FtlStats {
        &self.stats
    }

    fn slot(&self, lpn: u64) -> u64 {
        lpn % self.window_pages
    }

    /// Claims `pages` consecutive log positions whose window slots are all
    /// free. The value log wraps around `window_pages`, so the head must
    /// skip slots still backing an indexed (or staged-but-unflushed) value —
    /// otherwise a full lap of the log clobbers live older values.
    fn claim_lpns(&self, pages: u64) -> Result<u64, KvError> {
        let mut first = self.next_lpn;
        let limit = self.next_lpn + self.window_pages; // one full lap
        'candidate: while first < limit {
            for p in 0..pages {
                let slot = self.slot(first + p);
                let live = self.space.map.lookup(slot).is_some()
                    || self.staged.iter().any(|(l, _)| self.slot(*l) == slot);
                if live {
                    first += p + 1;
                    continue 'candidate;
                }
            }
            return Ok(first);
        }
        Err(KvError::OutOfSpace)
    }

    /// Flushes staged sectors as `ws_min` units. With `pad_tail`, a partial
    /// final unit is zero-padded out (sync path); otherwise only full units
    /// are written (write coalescing across puts). A unit leaves the
    /// coalescing buffer only once it is placed: when placement fails, the
    /// staged sectors of earlier, acknowledged puts are all still there.
    fn flush_staged(
        &mut self,
        now: SimTime,
        txid: u64,
        pad_tail: bool,
    ) -> Result<SimTime, KvError> {
        let unit_sectors = self.geo.ws_min as usize;
        let unit_bytes = self.geo.ws_min_bytes();
        let window = self.window_pages;
        let mut t = now;
        while self.staged.len() >= unit_sectors || (pad_tail && !self.staged.is_empty()) {
            let batch = &self.staged[..unit_sectors.min(self.staged.len())];
            let mut buf = vec![0u8; unit_bytes];
            for (i, (_, sector)) in batch.iter().enumerate() {
                buf[i * SECTOR_BYTES..(i + 1) * SECTOR_BYTES].copy_from_slice(sector);
            }
            let (media, stats) = (&self.media, &mut self.stats);
            let (slot, comp) = self
                .space
                .place(
                    None,
                    |slot| media.write(t, slot.chunk.ppa(slot.sector), &buf),
                    || stats.write_failovers += 1,
                )
                .map_err(|e| e.into_ftl(|| KvError::OutOfSpace))?;
            t = comp.done;
            self.space.record(
                slot,
                batch.iter().map(|(lpn, _)| lpn % window),
                Some((&mut self.wal, txid)),
            );
            let placed = batch.len();
            self.staged.drain(..placed);
            self.stats.physical_user_writes.record(unit_bytes as u64);
        }
        Ok(t)
    }

    /// Stores a key/value pair. Returns the completion time (durable:
    /// value written + index update committed to the WAL).
    pub fn put(&mut self, now: SimTime, key: &[u8], value: &[u8]) -> Result<SimTime, KvError> {
        if key.is_empty() || key.len() > 255 {
            return Err(KvError::BadKey(key.len()));
        }
        if value.len() > MAX_VALUE_BYTES {
            return Err(KvError::ValueTooLarge(value.len()));
        }
        let mut t = now + COMMAND_CPU;
        let pages = value.len().div_ceil(SECTOR_BYTES).max(1) as u64;
        let first_lpn = self.claim_lpns(pages)?;
        self.next_lpn = first_lpn + pages;

        let txid = self.wal.begin();
        for (i, piece) in value.chunks(SECTOR_BYTES).enumerate() {
            let mut sector = vec![0u8; SECTOR_BYTES];
            sector[..piece.len()].copy_from_slice(piece);
            self.staged.push((first_lpn + i as u64, sector));
        }
        if value.is_empty() {
            self.staged.push((first_lpn, vec![0u8; SECTOR_BYTES]));
        }
        // Write out full units only; the tail coalesces with later puts.
        t = self.flush_staged(t, txid, false)?;
        // Journal the index update as an app-specific record.
        let mut rec = Vec::with_capacity(key.len() + 13);
        rec.extend_from_slice(&first_lpn.to_le_bytes());
        rec.extend_from_slice(&(value.len() as u32).to_le_bytes());
        rec.push(key.len() as u8);
        rec.extend_from_slice(key);
        self.wal.append(WalRecord::Blob {
            txid,
            tag: 1,
            data: rec,
        });
        self.wal.end(txid);
        self.pending_ops += 1;
        let done = if self.pending_ops >= GROUP_COMMIT {
            self.sync(t)?
        } else {
            t
        };

        // Invalidate the old version's pages.
        if let Some(old) = self.index.insert(
            key.to_vec(),
            ValueLoc {
                lpn: first_lpn,
                len: value.len() as u32,
            },
        ) {
            let old_pages = (old.len as usize).div_ceil(SECTOR_BYTES).max(1) as u64;
            for p in 0..old_pages {
                self.space.map.unmap(self.slot(old.lpn + p));
            }
        }
        self.stats.user_writes.record(value.len() as u64);
        let done = self.maybe_gc(done)?;
        Ok(done)
    }

    /// Forces durability: writes out the staged tail (zero-padded) and
    /// group-commits the journal. Returns the durability point.
    pub fn sync(&mut self, now: SimTime) -> Result<SimTime, KvError> {
        // The staged tail belongs to puts whose transactions have already
        // ended, so its map updates ride outside any transaction (id 0, which
        // the log never issues) — the first thing `KvSsd::recover` must fix.
        let t = self.flush_staged(now, 0, true)?;
        // No force-at-commit barrier yet: nothing replays this log (there
        // is no `KvSsd::recover`), and waiting for the chunks would move
        // every group commit's modeled latency.
        self.space.skip_barrier();
        let done = self.wal.commit(t)?;
        self.pending_ops = 0;
        Ok(done)
    }

    /// Retrieves a value. Reads exactly the sectors the value occupies — the
    /// KV interface's advantage over block-granular stores.
    pub fn get(&mut self, now: SimTime, key: &[u8]) -> Result<(Option<Vec<u8>>, SimTime), KvError> {
        let mut t = now + COMMAND_CPU;
        let Some(&loc) = self.index.get(key) else {
            return Ok((None, t));
        };
        let pages = (loc.len as usize).div_ceil(SECTOR_BYTES).max(1) as u64;
        let mut value = vec![0u8; pages as usize * SECTOR_BYTES];
        let mut done = t;
        for p in 0..pages {
            let lpn = loc.lpn + p;
            let off = p as usize * SECTOR_BYTES;
            // Read-your-writes: sectors still in the coalescing buffer are
            // served from controller memory.
            if let Some((_, data)) = self.staged.iter().find(|(l, _)| *l == lpn) {
                value[off..off + SECTOR_BYTES].copy_from_slice(data);
                continue;
            }
            let ppa = self
                .space
                .map
                .lookup(self.slot(lpn))
                // oxcheck:allow(panic_path): indexed ⇒ staged or mapped — a sector leaves `staged` (checked just above) only in `flush_staged`, after `record` mapped it, and GC remaps before it resets; neither is a media state.
                .expect("indexed value must be staged or mapped");
            // Transient ECC exhaustion recovers under read-retry.
            let sector = &mut value[off..off + SECTOR_BYTES];
            let read = retry::read_with_policy(self.media.as_ref(), t, ppa, 1, sector, None)?;
            self.stats.read_retries += read.retries as u64;
            done = done.max(read.completion.done);
        }
        t = done;
        value.truncate(loc.len as usize);
        self.stats.user_reads.record(loc.len as u64);
        Ok((Some(value), t))
    }

    /// Deletes a key. Returns the completion time.
    pub fn delete(&mut self, now: SimTime, key: &[u8]) -> Result<SimTime, KvError> {
        let mut t = now + COMMAND_CPU;
        let Some(loc) = self.index.remove(key) else {
            return Ok(t);
        };
        let mut rec = Vec::with_capacity(key.len() + 1);
        rec.push(key.len() as u8);
        rec.extend_from_slice(key);
        let txid = self.wal.begin();
        self.wal.append(WalRecord::Blob {
            txid,
            tag: 2,
            data: rec,
        });
        self.wal.end(txid);
        self.pending_ops += 1;
        if self.pending_ops >= GROUP_COMMIT {
            t = self.sync(t)?;
        }
        let pages = (loc.len as usize).div_ceil(SECTOR_BYTES).max(1) as u64;
        for p in 0..pages {
            self.space.map.unmap(self.slot(loc.lpn + p));
        }
        Ok(t)
    }

    /// Runs value-log GC when free chunks run low: relocates live sectors of
    /// the emptiest closed chunks (device-internal copies) and resets them.
    fn maybe_gc(&mut self, now: SimTime) -> Result<SimTime, KvError> {
        if !self.gc.needs_gc(&self.space) {
            return Ok(now);
        }
        // GC relocates mapped sectors; flush the coalescing tail first so
        // nothing is half-staged while chunks move.
        let now = self.sync(now)?;
        let pass = self
            .gc
            .collect(now, &mut self.space, &mut self.wal)
            .map_err(|e| e.into_ftl(|| KvError::OutOfSpace))?;
        self.stats.gc_passes += 1;
        self.stats
            .gc_writes
            .record((pass.moved_sectors + pass.padded_sectors) * SECTOR_BYTES as u64);
        Ok(pass.done)
    }

    /// Forces a WAL checkpoint-style truncation by dropping covered frames.
    /// (The index snapshot itself is small; production KV-SSDs persist it in
    /// device DRAM+capacitors. We truncate after the caller confirms a
    /// higher-level snapshot, or on demand in long benchmarks.)
    pub fn truncate_log(&mut self, now: SimTime) -> Result<SimTime, KvError> {
        Ok(self.wal.truncate(now, self.wal.durable_lsn())?)
    }

    /// WAL pressure in [0, 1] (live chunks over capacity).
    pub fn log_pressure(&self) -> f64 {
        self.wal.live_chunks() as f64 / self.wal.capacity_chunks() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocssd::{DeviceConfig, OcssdDevice, SharedDevice};
    use ox_core::OcssdMedia;

    fn setup() -> (KvSsd, SimTime) {
        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::paper_tlc_scaled(22, 8)));
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev));
        let (kv, t) = KvSsd::format(media, KvSsdConfig::default(), SimTime::ZERO).unwrap();
        (kv, t)
    }

    #[test]
    fn put_get_round_trip_various_sizes() {
        let (mut kv, mut t) = setup();
        for (key, len) in [
            ("tiny", 10usize),
            ("page", 4096),
            ("odd", 5000),
            ("big", 100_000),
        ] {
            let value: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            t = kv.put(t, key.as_bytes(), &value).unwrap();
            let (got, done) = kv.get(t, key.as_bytes()).unwrap();
            assert_eq!(got.as_deref(), Some(&value[..]), "{key}");
            t = done;
        }
        assert_eq!(kv.len(), 4);
    }

    #[test]
    fn overwrite_returns_newest_and_invalidates_old() {
        let (mut kv, mut t) = setup();
        t = kv.put(t, b"k", b"v1").unwrap();
        t = kv.put(t, b"k", b"v2-longer").unwrap();
        let (got, _) = kv.get(t, b"k").unwrap();
        assert_eq!(got.as_deref(), Some(&b"v2-longer"[..]));
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn delete_removes_and_get_misses() {
        let (mut kv, mut t) = setup();
        t = kv.put(t, b"k", b"v").unwrap();
        t = kv.delete(t, b"k").unwrap();
        let (got, _) = kv.get(t, b"k").unwrap();
        assert_eq!(got, None);
        assert!(kv.is_empty());
        // Deleting a missing key is a no-op.
        kv.delete(t, b"missing").unwrap();
    }

    #[test]
    fn validation() {
        let (mut kv, t) = setup();
        assert!(matches!(kv.put(t, b"", b"v"), Err(KvError::BadKey(0))));
        let long_key = vec![b'k'; 300];
        assert!(matches!(
            kv.put(t, &long_key, b"v"),
            Err(KvError::BadKey(300))
        ));
        let huge = vec![0u8; 2 * 1024 * 1024];
        assert!(matches!(
            kv.put(t, b"k", &huge),
            Err(KvError::ValueTooLarge(_))
        ));
    }

    #[test]
    fn small_value_get_reads_one_sector() {
        // The §5 comparison point: a 1 KB get costs one 4 KB sector read,
        // not a 96 KB block.
        let (mut kv, mut t) = setup();
        let value = vec![7u8; 1024];
        t = kv.put(t, b"key", &value).unwrap();
        let settle = t + SimDuration::from_secs(1);
        let (got, done) = kv.get(settle, b"key").unwrap();
        assert_eq!(got.unwrap().len(), 1024);
        let latency = done.saturating_since(settle);
        // One page read ≈ tR (70 µs) + transfer + cpu, far below a 96 KB
        // block read (~500 µs).
        assert!(
            latency < SimDuration::from_micros(200),
            "1 KB get should be a single-sector read: {latency}"
        );
    }

    #[test]
    fn sustained_overwrites_trigger_value_log_gc() {
        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::paper_tlc_scaled(22, 8)));
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev));
        let (mut kv, mut t) = KvSsd::format(
            media,
            KvSsdConfig {
                gc_watermark: 2100, // scaled device has 2144 chunks
                ..KvSsdConfig::default()
            },
            SimTime::ZERO,
        )
        .unwrap();
        let value = vec![1u8; 96 * 1024];
        for i in 0..600u64 {
            let key = format!("k{}", i % 50);
            t = kv.put(t, key.as_bytes(), &value).unwrap();
            if kv.log_pressure() > 0.7 {
                t = kv.truncate_log(t).unwrap();
            }
        }
        assert!(kv.stats().gc_passes > 0, "overwrites must trigger GC");
        // All live keys still correct after GC moved things around.
        for i in 0..50u64 {
            let key = format!("k{i}");
            let (got, done) = kv.get(t, key.as_bytes()).unwrap();
            assert_eq!(got.unwrap(), value, "{key}");
            t = done;
        }
    }

    #[test]
    fn one_collector_serves_every_gc_pass() {
        // Four groups: the collector's marked group has somewhere to go.
        let geo = Geometry {
            chunks_per_pu: 16,
            sectors_per_chunk: 96,
            ..Geometry::small_slc()
        };
        assert_eq!(geo.num_groups, 4);
        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::with_geometry(geo)));
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev));
        let config = KvSsdConfig {
            gc_watermark: 60,
            ..KvSsdConfig::default()
        };
        let (mut kv, mut t) = KvSsd::format(media.clone(), config, SimTime::ZERO).unwrap();
        kv.gc.mark_group(2);
        let value = vec![3u8; 8 * SECTOR_BYTES];
        // Hot keys die young, cold ones are written once in between them,
        // so victims hold live sectors for the passes to relocate.
        let mut i = 0u64;
        while kv.stats().gc_passes < 2 {
            let key = if i.is_multiple_of(3) && i < 450 {
                format!("cold{i}")
            } else {
                format!("hot{}", i % 10)
            };
            t = kv.put(t, key.as_bytes(), &value).unwrap();
            i += 1;
            assert!(i < 2_000, "GC never ran twice");
        }
        assert_ne!(
            kv.gc.marked_group(),
            0,
            "a pass must leave the marked group where it found it, or rotate it on"
        );

        // Puts and the relocations of both passes share one log: every
        // `TxBegin` id in it is distinct.
        let t = kv.sync(t).unwrap();
        let layout = Layout::plan(&geo, config.layout);
        let (frames, _, _) = ox_core::wal::scan(&media, &layout.wal_chunks, t);
        let mut txids: Vec<u64> = frames
            .iter()
            .flat_map(|f| &f.records)
            .filter_map(|rec| match rec {
                WalRecord::TxBegin { txid } => Some(*txid),
                _ => None,
            })
            .collect();
        assert!(
            txids.len() as u64 >= i + 2,
            "two passes relocate at least twice, on top of {i} puts"
        );
        let begun = txids.len();
        txids.sort_unstable();
        txids.dedup();
        assert_eq!(txids.len(), begun, "transaction ids repeat");
    }

    #[test]
    fn a_program_failure_loses_no_acknowledged_value() {
        // Every data chunk fails to program its second write unit, so every
        // chunk the value log opens freezes after one unit.
        let geo = Geometry::small_slc();
        let reserved = Layout::plan(&geo, LayoutConfig::default()).reserved_linear(&geo);
        let mut config = DeviceConfig::with_geometry(geo);
        config.fault.program_fails = (0..geo.total_chunks())
            .filter(|lin| !reserved.contains(lin))
            .map(|lin| ocssd::ProgramFault {
                chunk: ocssd::ChunkAddr::from_linear(&geo, lin),
                wp: geo.ws_min,
            })
            .collect();
        let dev = SharedDevice::new(OcssdDevice::new(config));
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
        let (mut kv, mut t) = KvSsd::format(media, KvSsdConfig::default(), SimTime::ZERO).unwrap();

        // One to three sectors a value: units coalesce across puts, so a
        // failing unit carries sectors of puts acknowledged before it.
        let value = |i: u64| vec![i as u8; 1 + (i as usize % 3) * SECTOR_BYTES];
        for i in 0..200u64 {
            t = kv
                .put(t, format!("key{i}").as_bytes(), &value(i))
                .unwrap_or_else(|e| panic!("put #{i}: {e}"));
        }
        assert!(kv.stats().write_failovers > 0);
        assert_eq!(kv.stats().write_failovers, dev.fault_ledger().program_fails);
        for i in 0..200u64 {
            let (got, done) = kv.get(t, format!("key{i}").as_bytes()).unwrap();
            assert_eq!(got, Some(value(i)), "key{i}");
            t = done;
        }
    }

    #[test]
    fn empty_value_round_trips() {
        let (mut kv, mut t) = setup();
        t = kv.put(t, b"empty", b"").unwrap();
        let (got, _) = kv.get(t, b"empty").unwrap();
        assert_eq!(got.as_deref(), Some(&b""[..]));
    }
}
