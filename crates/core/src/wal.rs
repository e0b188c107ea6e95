//! Write-ahead logging for FTL transactions.
//!
//! Every FTL API operation is a transaction whose atomicity and durability
//! come from this log (paper §4.3: the device's vectored writes are not
//! atomic — only single-page programs are). Records are buffered and flushed
//! by group commit: one CRC-framed batch per commit, written as a single
//! `ws_min`-aligned device write to the reserved WAL chunks and made durable
//! with a per-chunk flush barrier.
//!
//! The log is a ring over its chunks. Checkpoints truncate the tail: chunks
//! whose newest record is covered by the checkpoint are reset and reused.
//! A 4 KB-scale record batch still occupies a full 96 KB write unit on the
//! paper's TLC drive — the "unit of write" tax that §4.3 highlights.

use crate::codec::{crc32c, framed, Decoder, Encoder};
use crate::media::Media;
use ocssd::{ChunkAddr, DeviceError, SECTOR_BYTES};
use ox_sim::trace::Obs;
use ox_sim::SimTime;
use std::collections::VecDeque;
use std::sync::Arc;

const FRAME_MAGIC: u32 = 0x4F58_574C; // "OXWL"
const FRAME_HEADER_BYTES: usize = 4 + 8 + 4 + 4 + 4; // magic, lsn, count, len, crc

/// A log record. `ppa` fields are linear sector indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// Transaction start.
    TxBegin {
        /// Transaction id.
        txid: u64,
    },
    /// Redo record: logical page now lives at a physical sector.
    MapUpdate {
        /// Owning transaction.
        txid: u64,
        /// Logical page number.
        lpn: u64,
        /// Linear physical sector index.
        ppa_linear: u64,
    },
    /// Redo record: logical page was trimmed.
    Trim {
        /// Owning transaction.
        txid: u64,
        /// Logical page number.
        lpn: u64,
    },
    /// Transaction commit — makes the transaction's redo records effective.
    TxCommit {
        /// Transaction id.
        txid: u64,
    },
    /// Application-specific redo record: opaque payload interpreted by the
    /// FTL that wrote it (e.g. LightLSM's SSTable-directory updates).
    Blob {
        /// Owning transaction.
        txid: u64,
        /// Application-defined record tag.
        tag: u8,
        /// Opaque payload.
        data: Vec<u8>,
    },
}

impl WalRecord {
    fn encode(&self, e: &mut Encoder) {
        match self {
            WalRecord::TxBegin { txid } => {
                e.u8(1).u64(*txid);
            }
            WalRecord::MapUpdate {
                txid,
                lpn,
                ppa_linear,
            } => {
                e.u8(2).u64(*txid).u64(*lpn).u64(*ppa_linear);
            }
            WalRecord::Trim { txid, lpn } => {
                e.u8(3).u64(*txid).u64(*lpn);
            }
            WalRecord::TxCommit { txid } => {
                e.u8(4).u64(*txid);
            }
            WalRecord::Blob { txid, tag, data } => {
                e.u8(5).u64(*txid).u8(*tag).var_bytes(data);
            }
        }
    }

    fn decode(d: &mut Decoder<'_>) -> Option<WalRecord> {
        Some(match d.u8().ok()? {
            1 => WalRecord::TxBegin {
                txid: d.u64().ok()?,
            },
            2 => WalRecord::MapUpdate {
                txid: d.u64().ok()?,
                lpn: d.u64().ok()?,
                ppa_linear: d.u64().ok()?,
            },
            3 => WalRecord::Trim {
                txid: d.u64().ok()?,
                lpn: d.u64().ok()?,
            },
            4 => WalRecord::TxCommit {
                txid: d.u64().ok()?,
            },
            5 => WalRecord::Blob {
                txid: d.u64().ok()?,
                tag: d.u8().ok()?,
                data: d.var_bytes().ok()?.to_vec(),
            },
            _ => return None,
        })
    }
}

/// WAL failure modes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalError {
    /// The ring is full of un-truncated log; checkpoint more often or
    /// provision more WAL chunks.
    LogFull,
    /// Underlying device error.
    Device(DeviceError),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::LogFull => write!(f, "WAL ring full (checkpoint required)"),
            WalError::Device(e) => write!(f, "WAL device error: {e}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<DeviceError> for WalError {
    fn from(e: DeviceError) -> Self {
        WalError::Device(e)
    }
}

struct Segment {
    ring_idx: usize,
    last_lsn: u64,
}

/// The write-ahead log.
pub struct Wal {
    media: Arc<dyn Media>,
    chunks: Vec<ChunkAddr>,
    unit_sectors: u32,
    chunk_sectors: u32,
    /// Live segments, oldest first; the back one is the active append target.
    segments: VecDeque<Segment>,
    /// Ring indices currently free (reset).
    free: VecDeque<usize>,
    /// Sectors written in the active chunk.
    wp: u32,
    pending: Vec<WalRecord>,
    next_lsn: u64,
    /// Transaction ids are unique within one log because the log issues them.
    next_txid: u64,
    durable_lsn: u64,
    frames_written: u64,
    bytes_written: u64,
    /// Commits that had to fail over to a fresh chunk after a media failure.
    failovers: u64,
    /// Ring slots permanently lost to grown bad blocks.
    dead_chunks: u64,
    obs: Obs,
}

impl Wal {
    /// Formats the WAL: resets any written chunks and starts an empty log.
    /// Returns the WAL and the completion time of formatting.
    pub fn format(
        media: Arc<dyn Media>,
        chunks: Vec<ChunkAddr>,
        now: SimTime,
    ) -> Result<(Wal, SimTime), WalError> {
        assert!(chunks.len() >= 2, "WAL needs at least 2 chunks");
        let geo = media.geometry();
        let mut done = now;
        // Drop retired ring chunks instead of failing the format: a reopen
        // after grown bad blocks (fault injection, wear-out) must come up on
        // whatever healthy chunks remain.
        let mut chunks = chunks;
        chunks.retain(|&c| media.chunk_info(c).state != ocssd::ChunkState::Offline);
        let mut usable = Vec::with_capacity(chunks.len());
        for &c in &chunks {
            let info = media.chunk_info(c);
            if info.state != ocssd::ChunkState::Free {
                match media.reset(now, c) {
                    Ok(comp) => done = done.max(comp.done),
                    Err(e) if e.retires_chunk() => continue,
                    Err(e) => return Err(e.into()),
                }
            }
            usable.push(c);
        }
        let chunks = usable;
        if chunks.len() < 2 {
            return Err(WalError::LogFull);
        }
        let free: VecDeque<usize> = (1..chunks.len()).collect();
        let mut segments = VecDeque::new();
        segments.push_back(Segment {
            ring_idx: 0,
            last_lsn: 0,
        });
        Ok((
            Wal {
                obs: media.obs(),
                media,
                chunks,
                unit_sectors: geo.ws_min,
                chunk_sectors: geo.sectors_per_chunk,
                segments,
                free,
                wp: 0,
                pending: Vec::new(),
                next_lsn: 1,
                next_txid: 1,
                durable_lsn: 0,
                frames_written: 0,
                bytes_written: 0,
                failovers: 0,
                dead_chunks: 0,
            },
            done,
        ))
    }

    /// Continues numbering above `lsn`, the last LSN of the log this one
    /// replaces, so a checkpoint stamped with an LSN of either log orders
    /// against the records of both.
    pub(crate) fn number_after(&mut self, lsn: u64) {
        assert!(self.next_lsn == 1, "only a fresh log can be renumbered");
        self.next_lsn = lsn + 1;
        self.durable_lsn = lsn;
    }

    /// Opens a transaction: buffers its `TxBegin` and returns its id.
    pub fn begin(&mut self) -> u64 {
        let txid = self.next_txid;
        self.next_txid += 1;
        self.append(WalRecord::TxBegin { txid });
        txid
    }

    /// Closes transaction `txid`: buffers the `TxCommit` that makes its redo
    /// records effective once [`Wal::commit`] has made them durable.
    pub fn end(&mut self, txid: u64) {
        self.append(WalRecord::TxCommit { txid });
    }

    /// Buffers a record; returns its LSN. Not durable until
    /// [`Wal::commit`].
    pub fn append(&mut self, rec: WalRecord) -> u64 {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        self.pending.push(rec);
        lsn
    }

    /// Highest LSN guaranteed durable.
    pub fn durable_lsn(&self) -> u64 {
        self.durable_lsn
    }

    /// Next LSN that will be assigned.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Frames written since format.
    pub fn frames_written(&self) -> u64 {
        self.frames_written
    }

    /// Log bytes written to media since format (including padding).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Chunks currently holding live log.
    pub fn live_chunks(&self) -> usize {
        self.segments.len()
    }

    /// Total chunks in the ring.
    pub fn capacity_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Commits that survived a media failure by failing over to a fresh
    /// chunk.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Ring chunks permanently retired as grown bad blocks.
    pub fn dead_chunks(&self) -> u64 {
        self.dead_chunks
    }

    fn unit_bytes(&self) -> usize {
        self.unit_sectors as usize * SECTOR_BYTES
    }

    /// Flushes buffered records as one frame; returns the durability time.
    /// A commit with no pending records returns immediately.
    pub fn commit(&mut self, now: SimTime) -> Result<SimTime, WalError> {
        if self.pending.is_empty() {
            return Ok(now);
        }
        let first_lsn = self.next_lsn - self.pending.len() as u64;
        let last_lsn = self.next_lsn - 1;

        // Encode payload.
        let mut payload = Encoder::with_capacity(self.pending.len() * 32);
        for rec in &self.pending {
            rec.encode(&mut payload);
        }
        let payload = payload.finish();
        let mut header = Encoder::with_capacity(FRAME_HEADER_BYTES);
        header
            .u32(FRAME_MAGIC)
            .u64(first_lsn)
            .u32(self.pending.len() as u32)
            .u32(payload.len() as u32)
            .u32(crc32c(&payload));
        let frame = framed(&header, &payload);
        let unit = self.unit_bytes();
        let padded = frame.len().next_multiple_of(unit);
        assert!(
            padded <= self.chunk_sectors as usize * SECTOR_BYTES,
            "single commit larger than a WAL chunk"
        );
        // The padding to the write unit is the frame's zero tail.
        let parts = [frame.zero_extended(padded)];
        let sectors = (padded / SECTOR_BYTES) as u32;

        // Advance to a fresh chunk if the frame does not fit.
        if self.wp + sectors > self.chunk_sectors {
            self.advance_chunk(now)?;
        }
        let batch_records = self.pending.len() as u64;
        // Bounded failover: a program failure freezes the active chunk, so
        // the frame never landed there. Retire the chunk from the rotation
        // and retry on a fresh one. Each attempt permanently consumes a
        // ring slot, so the loop terminates in at most `capacity_chunks()`
        // iterations (then `advance_chunk` reports `LogFull`).
        let (addr, write) = loop {
            #[expect(
                clippy::expect_used,
                reason = "format() seeds one segment and every retire/advance below preserves it; an empty ring is a logic bug, not a recoverable device state"
            )]
            let seg = self.segments.back().expect("active segment");
            let addr = self.chunks[seg.ring_idx];
            match self.media.write_parts(now, addr.ppa(self.wp), &parts) {
                Ok(w) => break (addr, w),
                Err(e) if e.retires_chunk() => {
                    self.failovers += 1;
                    self.obs.metrics.record("wal.failover", 0);
                    self.retire_active_chunk(now)?;
                }
                Err(e) => return Err(e.into()),
            }
        };
        let durable = self.media.flush_chunk(write.done, addr).done;
        self.wp += sectors;
        #[expect(
            clippy::expect_used,
            reason = "same invariant as above: the ring always holds an active segment"
        )]
        let seg = self.segments.back_mut().expect("active segment");
        seg.last_lsn = last_lsn;
        self.durable_lsn = last_lsn;
        self.frames_written += 1;
        self.bytes_written += padded as u64;
        self.pending.clear();
        self.obs
            .metrics
            .add("wal.commit", batch_records, padded as u64);
        self.obs
            .metrics
            .observe("wal.commit_records", batch_records);
        self.obs.metrics.observe(
            "wal.commit_latency_ns",
            durable.saturating_since(now).as_nanos(),
        );
        self.obs
            .tracer
            .span(now, durable, "wal", "commit", padded as u64);
        Ok(durable)
    }

    /// Removes the active chunk from the rotation after a media failure and
    /// opens a fresh one. A chunk holding earlier frames stays in `segments`
    /// (its frames are still readable and will be reclaimed by truncation);
    /// an empty chunk went offline and is dropped entirely.
    fn retire_active_chunk(&mut self, now: SimTime) -> Result<(), WalError> {
        let dead_seg = if self.wp == 0 {
            self.dead_chunks += 1;
            self.segments.pop_back()
        } else {
            None
        };
        match self.advance_chunk(now) {
            Ok(()) => Ok(()),
            Err(e) => {
                // Keep the ring's "one active segment" invariant even when
                // the ring is exhausted, so a later truncate + commit can
                // still make progress (and fail over again if needed).
                if let Some(seg) = dead_seg {
                    self.segments.push_back(seg);
                }
                Err(e)
            }
        }
    }

    fn advance_chunk(&mut self, now: SimTime) -> Result<(), WalError> {
        loop {
            let Some(idx) = self.free.pop_front() else {
                return Err(WalError::LogFull);
            };
            // Reset if it holds stale (already truncated) data. A failed
            // reset means the chunk grew bad while idle: drop it from the
            // rotation and try the next free slot.
            let addr = self.chunks[idx];
            if self.media.chunk_info(addr).state != ocssd::ChunkState::Free
                && self.media.reset(now, addr).is_err()
            {
                self.dead_chunks += 1;
                continue;
            }
            self.segments.push_back(Segment {
                ring_idx: idx,
                last_lsn: 0,
            });
            self.wp = 0;
            return Ok(());
        }
    }

    /// Truncates the log: chunks whose entire contents have LSN ≤ `upto`
    /// are reset and recycled. Returns the completion time of the resets.
    pub fn truncate(&mut self, now: SimTime, upto: u64) -> Result<SimTime, WalError> {
        // Erases are submitted together; chunks on different PUs proceed in
        // parallel (the layout spreads WAL chunks round-robin over PUs).
        let mut done = now;
        let mut recycled = 0u64;
        while self.segments.len() > 1 {
            let Some(seg) = self.segments.front() else {
                break;
            };
            if seg.last_lsn == 0 || seg.last_lsn > upto {
                break;
            }
            let Some(seg) = self.segments.pop_front() else {
                break;
            };
            let addr = self.chunks[seg.ring_idx];
            if self.media.chunk_info(addr).state != ocssd::ChunkState::Free {
                match self.media.reset(now, addr) {
                    Ok(c) => done = done.max(c.done),
                    Err(_) => {
                        // Erase failure: the chunk is a grown bad block.
                        // Drop it from the rotation but keep truncating.
                        self.dead_chunks += 1;
                        continue;
                    }
                }
            }
            self.free.push_back(seg.ring_idx);
            recycled += 1;
        }
        if recycled > 0 {
            self.obs.metrics.add("wal.truncate", recycled, 0);
            self.obs.tracer.span(now, done, "wal", "truncate", 0);
        }
        Ok(done)
    }
}

/// One decoded frame from a log scan.
#[derive(Clone, Debug)]
pub struct ScannedFrame {
    /// LSN of the frame's first record.
    pub first_lsn: u64,
    /// Decoded records.
    pub records: Vec<WalRecord>,
}

/// Statistics from a log scan (reported by the recovery experiment).
#[derive(Clone, Copy, Debug, Default)]
pub struct ScanStats {
    /// Valid frames decoded.
    pub frames: u64,
    /// Records decoded.
    pub records: u64,
    /// Log bytes read from media.
    pub bytes_read: u64,
    /// Frames discarded as torn/corrupt.
    pub torn_frames: u64,
}

/// Scans the WAL chunks after a crash, decoding every valid frame. Returns
/// frames sorted by LSN, the scan completion time, and scan statistics.
/// Scanning stops within a chunk at the first invalid frame (end of that
/// chunk's log). Everything outside this crate recovers through
/// [`crate::recovery::Journal::replay`].
pub(crate) fn scan(
    media: &Arc<dyn Media>,
    chunks: &[ChunkAddr],
    now: SimTime,
) -> (Vec<ScannedFrame>, SimTime, ScanStats) {
    let geo = media.geometry();
    let metrics = media.obs().metrics;
    let unit_bytes = geo.ws_min_bytes();
    let mut frames = Vec::new();
    let mut stats = ScanStats::default();
    let mut t = now;

    for &chunk in chunks {
        let info = media.chunk_info(chunk);
        if info.state == ocssd::ChunkState::Offline {
            continue;
        }
        let read = |at, sector, sectors, out: &mut [u8]| {
            let ppa = chunk.ppa(sector);
            crate::retry::read_with_policy(media.as_ref(), at, ppa, sectors, out, Some(&metrics))
                .map(|read| read.completion.done)
        };
        let mut sector = 0u32;
        while sector + geo.ws_min <= info.write_ptr {
            // Read the first unit to learn the frame length. Bounded retry:
            // a transient uncorrectable read must not silently truncate the
            // replay — that would drop durable frames.
            let mut frame_bytes = vec![0u8; unit_bytes];
            let Ok(done) = read(t, sector, geo.ws_min, &mut frame_bytes) else {
                break;
            };
            t = done;
            stats.bytes_read += unit_bytes as u64;
            let mut d = Decoder::new(&frame_bytes);
            let header_ok = d.u32().map(|m| m == FRAME_MAGIC).unwrap_or(false);
            if !header_ok {
                stats.torn_frames += 1;
                break;
            }
            let first_lsn = d.u64().unwrap_or(0);
            let count = d.u32().unwrap_or(0);
            let payload_len = d.u32().unwrap_or(0) as usize;
            let crc = d.u32().unwrap_or(0);
            let total = FRAME_HEADER_BYTES + payload_len;
            let frame_sectors = (total.next_multiple_of(unit_bytes) / SECTOR_BYTES) as u32;
            if sector + frame_sectors > info.write_ptr {
                stats.torn_frames += 1;
                break;
            }
            // Read the rest of the frame, behind the unit already read.
            if frame_sectors > geo.ws_min {
                let rest = frame_sectors - geo.ws_min;
                frame_bytes.resize(frame_sectors as usize * SECTOR_BYTES, 0);
                let Ok(done) = read(t, sector + geo.ws_min, rest, &mut frame_bytes[unit_bytes..])
                else {
                    break;
                };
                t = done;
                stats.bytes_read += rest as u64 * SECTOR_BYTES as u64;
            }
            let payload = &frame_bytes[FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + payload_len];
            if crc32c(payload) != crc {
                stats.torn_frames += 1;
                break;
            }
            let mut records = Vec::with_capacity(count as usize);
            let mut pd = Decoder::new(payload);
            let mut ok = true;
            for _ in 0..count {
                match WalRecord::decode(&mut pd) {
                    Some(r) => records.push(r),
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                stats.torn_frames += 1;
                break;
            }
            stats.frames += 1;
            stats.records += records.len() as u64;
            frames.push(ScannedFrame { first_lsn, records });
            sector += frame_sectors;
        }
    }
    frames.sort_by_key(|f| f.first_lsn);
    (frames, t, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::media::OcssdMedia;
    use ocssd::{DeviceConfig, OcssdDevice, SharedDevice};

    mod proptests;

    fn setup(wal_chunks: usize) -> (Arc<dyn Media>, Vec<ChunkAddr>) {
        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::paper_tlc_scaled(22, 8)));
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev));
        let chunks: Vec<ChunkAddr> = (0..wal_chunks as u32)
            .map(|i| ChunkAddr::new(0, 0, i))
            .collect();
        (media, chunks)
    }

    fn tx(txid: u64, n: usize) -> Vec<WalRecord> {
        let mut v = vec![WalRecord::TxBegin { txid }];
        for i in 0..n {
            v.push(WalRecord::MapUpdate {
                txid,
                lpn: i as u64,
                ppa_linear: (txid * 1000 + i as u64) % 1_000_000,
            });
        }
        v.push(WalRecord::TxCommit { txid });
        v
    }

    #[test]
    fn commit_makes_records_durable_and_scannable() {
        let (media, chunks) = setup(4);
        let (mut wal, t0) = Wal::format(media.clone(), chunks.clone(), SimTime::ZERO).unwrap();
        for rec in tx(1, 5) {
            wal.append(rec);
        }
        let done = wal.commit(t0).unwrap();
        assert!(done > t0);
        assert_eq!(wal.durable_lsn(), 7);
        assert_eq!(wal.frames_written(), 1);

        let (frames, _, stats) = scan(&media, &chunks, done);
        assert_eq!(stats.frames, 1);
        assert_eq!(stats.records, 7);
        assert_eq!(stats.torn_frames, 0);
        assert_eq!(frames[0].first_lsn, 1);
        assert_eq!(frames[0].records, tx(1, 5));
    }

    #[test]
    fn a_scan_reads_each_frame_once() {
        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::paper_tlc_scaled(22, 8)));
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
        let chunks: Vec<ChunkAddr> = (0..2).map(|i| ChunkAddr::new(0, 0, i)).collect();
        let (mut wal, mut t) = Wal::format(media.clone(), chunks.clone(), SimTime::ZERO).unwrap();
        let frames = 5;
        for txid in 0..frames {
            for rec in tx(txid, 3) {
                wal.append(rec);
            }
            t = wal.commit(t).unwrap();
        }
        // Then one frame of several units.
        for rec in tx(frames, 8_000) {
            wal.append(rec);
        }
        t = wal.commit(t).unwrap();
        let reads = |dev: &SharedDevice| {
            let s = dev.stats();
            (
                s.media_reads.ops() + s.cache_reads.ops(),
                s.media_reads.bytes() + s.cache_reads.bytes(),
            )
        };
        let before = reads(&dev);
        let (scanned, _, stats) = scan(&media, &chunks, t);
        let after = reads(&dev);
        assert_eq!(scanned.len() as u64, frames + 1);
        assert_eq!(
            after.0 - before.0,
            frames + 2,
            "one read per unit frame, two for the long one"
        );
        assert_eq!(
            stats.bytes_read,
            after.1 - before.1,
            "every byte read is counted once"
        );
    }

    #[test]
    fn empty_commit_is_free() {
        let (media, chunks) = setup(2);
        let (mut wal, t0) = Wal::format(media, chunks, SimTime::ZERO).unwrap();
        assert_eq!(wal.commit(t0).unwrap(), t0);
        assert_eq!(wal.frames_written(), 0);
    }

    #[test]
    fn frames_scan_in_lsn_order_across_chunks() {
        let (media, chunks) = setup(4);
        let (mut wal, mut t) = Wal::format(media.clone(), chunks.clone(), SimTime::ZERO).unwrap();
        // Enough commits to spill into multiple chunks.
        let geo = media.geometry();
        let commits = geo.write_units_per_chunk() as u64 + 10;
        for txid in 0..commits {
            for rec in tx(txid, 3) {
                wal.append(rec);
            }
            t = wal.commit(t).unwrap();
        }
        assert!(wal.live_chunks() > 1, "log spilled to a second chunk");
        let (frames, _, stats) = scan(&media, &chunks, t);
        assert_eq!(stats.frames, commits);
        let lsns: Vec<u64> = frames.iter().map(|f| f.first_lsn).collect();
        let mut sorted = lsns.clone();
        sorted.sort_unstable();
        assert_eq!(lsns, sorted);
        assert_eq!(frames.len() as u64, commits);
    }

    #[test]
    fn truncate_recycles_chunks_and_ring_wraps() {
        let (media, chunks) = setup(3);
        let (mut wal, mut t) = Wal::format(media.clone(), chunks.clone(), SimTime::ZERO).unwrap();
        let geo = media.geometry();
        let per_chunk = geo.write_units_per_chunk() as u64;
        // Fill two chunks.
        for txid in 0..per_chunk * 2 {
            for rec in tx(txid, 1) {
                wal.append(rec);
            }
            t = wal.commit(t).unwrap();
        }
        assert!(wal.live_chunks() >= 2);
        // Truncate everything durable so far; ring recycles.
        t = wal.truncate(t, wal.durable_lsn()).unwrap();
        assert_eq!(wal.live_chunks(), 1);
        // Keep appending well beyond the raw ring capacity: wrap works.
        for txid in 1000..1000 + per_chunk * 4 {
            for rec in tx(txid, 1) {
                wal.append(rec);
            }
            t = wal.commit(t).unwrap();
            t = wal.truncate(t, wal.durable_lsn()).unwrap();
        }
        assert!(wal.frames_written() > per_chunk * 4);
    }

    #[test]
    fn log_full_when_no_truncation() {
        let (media, chunks) = setup(2);
        let (mut wal, mut t) = Wal::format(media.clone(), chunks, SimTime::ZERO).unwrap();
        let geo = media.geometry();
        let per_chunk = geo.write_units_per_chunk() as u64;
        let mut full = false;
        for txid in 0..per_chunk * 2 + 1 {
            for rec in tx(txid, 1) {
                wal.append(rec);
            }
            match wal.commit(t) {
                Ok(done) => t = done,
                Err(WalError::LogFull) => {
                    full = true;
                    break;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(full, "un-truncated ring must eventually fill");
    }

    #[test]
    fn crash_before_commit_loses_only_pending_tail() {
        let (media, chunks) = setup(4);
        let (mut wal, t0) = Wal::format(media.clone(), chunks.clone(), SimTime::ZERO).unwrap();
        for rec in tx(1, 2) {
            wal.append(rec);
        }
        let t1 = wal.commit(t0).unwrap();
        // Second transaction appended but never committed.
        for rec in tx(2, 2) {
            wal.append(rec);
        }
        // Crash: pending buffer is volatile.
        let ocssd_media = media.clone();
        // Downcast through the device handle used at construction.
        // (Crash is a device-level action; exercised via a fresh scan.)
        drop(wal);
        let (frames, _, stats) = scan(&ocssd_media, &chunks, t1);
        assert_eq!(stats.frames, 1);
        assert_eq!(frames[0].records.len(), 4);
        assert!(frames[0]
            .records
            .iter()
            .all(|r| !matches!(r, WalRecord::TxCommit { txid: 2 })));
    }

    #[test]
    fn large_batch_spans_multiple_units() {
        let (media, chunks) = setup(4);
        let (mut wal, t0) = Wal::format(media.clone(), chunks.clone(), SimTime::ZERO).unwrap();
        // ~40 KB of records: > one 4 KB sector, still < one 96 KB unit? Make
        // it big enough to exceed one unit: 96 KB / 25 B ≈ 4000 records.
        for rec in tx(1, 8000) {
            wal.append(rec);
        }
        let t1 = wal.commit(t0).unwrap();
        let (frames, _, stats) = scan(&media, &chunks, t1);
        assert_eq!(stats.frames, 1);
        assert_eq!(frames[0].records.len(), 8002);
        assert!(wal.bytes_written() > media.geometry().ws_min_bytes() as u64);
    }

    #[test]
    fn commit_fails_over_to_fresh_chunk_on_program_failure() {
        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::paper_tlc_scaled(22, 8)));
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
        let chunks: Vec<ChunkAddr> = (0..4).map(|i| ChunkAddr::new(0, 0, i)).collect();
        let (mut wal, mut t) = Wal::format(media.clone(), chunks.clone(), SimTime::ZERO).unwrap();
        let ws_min = media.geometry().ws_min;

        // First frame lands; the second hits an injected program failure at
        // the chunk's write pointer and must fail over to the next ring
        // chunk without losing either frame.
        let mut plan = ocssd::FaultPlan::default();
        plan.program_fails.push(ocssd::ProgramFault {
            chunk: chunks[0],
            wp: ws_min,
        });
        dev.set_fault_plan(plan);

        for txid in 0..2u64 {
            for rec in tx(txid, 2) {
                wal.append(rec);
            }
            t = wal.commit(t).unwrap();
        }
        assert_eq!(wal.failovers(), 1);
        assert_eq!(wal.dead_chunks(), 0, "written chunk freezes, not dies");
        assert_eq!(wal.live_chunks(), 2, "frozen segment stays scannable");
        assert_eq!(media.chunk_info(chunks[0]).state, ocssd::ChunkState::Closed);
        let (frames, _, stats) = scan(&media, &chunks, t);
        assert_eq!(stats.frames, 2, "both frames durable despite the fault");
        assert_eq!(frames[0].records, tx(0, 2));
        assert_eq!(frames[1].records, tx(1, 2));
        assert_eq!(dev.fault_ledger().program_fails, 1);
    }

    #[test]
    fn empty_chunk_that_fails_programming_is_dropped_from_the_ring() {
        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::paper_tlc_scaled(22, 8)));
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
        let chunks: Vec<ChunkAddr> = (0..3).map(|i| ChunkAddr::new(0, 0, i)).collect();
        let (mut wal, t) = Wal::format(media.clone(), chunks.clone(), SimTime::ZERO).unwrap();

        // The very first program on the active chunk fails: the chunk goes
        // offline and leaves the rotation entirely.
        let mut plan = ocssd::FaultPlan::default();
        plan.program_fails.push(ocssd::ProgramFault {
            chunk: chunks[0],
            wp: 0,
        });
        dev.set_fault_plan(plan);

        for rec in tx(7, 2) {
            wal.append(rec);
        }
        let done = wal.commit(t).unwrap();
        assert_eq!(wal.failovers(), 1);
        assert_eq!(wal.dead_chunks(), 1);
        assert_eq!(wal.live_chunks(), 1, "dead empty segment dropped");
        assert_eq!(
            media.chunk_info(chunks[0]).state,
            ocssd::ChunkState::Offline
        );
        let (frames, _, stats) = scan(&media, &chunks, done);
        assert_eq!(stats.frames, 1);
        assert_eq!(frames[0].records, tx(7, 2));
    }

    #[test]
    fn scan_retries_transient_uncorrectable_reads() {
        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::paper_tlc_scaled(22, 8)));
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
        let chunks: Vec<ChunkAddr> = (0..2).map(|i| ChunkAddr::new(0, 0, i)).collect();
        let (mut wal, mut t) = Wal::format(media.clone(), chunks.clone(), SimTime::ZERO).unwrap();
        for txid in 0..3u64 {
            for rec in tx(txid, 2) {
                wal.append(rec);
            }
            t = wal.commit(t).unwrap();
        }
        // A transient uncorrectable read in the middle frame must not
        // truncate the replay: all three frames still decode.
        let mut plan = ocssd::FaultPlan::default();
        plan.read_fails.push(ocssd::ReadFault {
            ppa: chunks[0].ppa(media.geometry().ws_min),
            attempts: 2,
        });
        dev.set_fault_plan(plan);
        let (frames, _, stats) = scan(&media, &chunks, t);
        assert_eq!(stats.frames, 3, "transient read fault dropped frames");
        assert_eq!(frames.len(), 3);
        assert_eq!(dev.fault_ledger().read_fails, 2);
    }

    #[test]
    fn record_encoding_round_trip() {
        let records = vec![
            WalRecord::TxBegin { txid: 9 },
            WalRecord::MapUpdate {
                txid: 9,
                lpn: 77,
                ppa_linear: 123_456,
            },
            WalRecord::Trim { txid: 9, lpn: 78 },
            WalRecord::TxCommit { txid: 9 },
        ];
        let mut e = Encoder::new();
        for r in &records {
            r.encode(&mut e);
        }
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        for r in &records {
            assert_eq!(WalRecord::decode(&mut d).as_ref(), Some(r));
        }
        assert_eq!(d.remaining(), 0);
        // Unknown tag rejected.
        let mut d = Decoder::new(&[99u8]);
        assert_eq!(WalRecord::decode(&mut d), None);
    }
}
