//! The LSS (log-structured storage) FTL.
//!
//! The host flushes fixed-size I/O buffers (8 MB by default) to an
//! append-only logical log and reads back at page or byte granularity.
//! Because the log is append-only, a byte offset maps to a logical page
//! arithmetically; the page-level map then locates the physical sector.
//! Reads smaller than a sector still cost a full 4 KB media read — the read
//! amplification the paper's §4.2 calls out for sub-read-unit mapping.
//!
//! Reclamation is copyless: LLAMA-style log cleaning trims a prefix of the
//! log, and chunks whose sectors are all invalid are simply reset.

use crate::cpu::ControllerCpu;
use ocssd::{ChunkAddr, ChunkState, DeviceError, Geometry, Payload, SECTOR_BYTES};
use ox_core::badblock::retire_chunks;
use ox_core::layout::{Layout, LayoutConfig};
use ox_core::logspace::{reset_or_retire, LogSpace};
use ox_core::mapping::PageMap;
use ox_core::provision::Provisioner;
use ox_core::recovery::{apply_map_record, Journal};
use ox_core::stats::FtlStats;
use ox_core::wal::{WalError, WalRecord};
use ox_core::{retry, Media};
use ox_sim::SimTime;
use std::sync::Arc;

/// Little-endian `u64` from the first 8 bytes, if present. WAL blob
/// payloads are length-guarded at the match site, but decode stays fallible
/// so a short record can never panic the recovery path.
fn le64(b: &[u8]) -> Option<u64> {
    b.first_chunk::<8>().map(|a| u64::from_le_bytes(*a))
}

/// Checkpoint payload: the absolute log head and tail (map slots alone are
/// modulo the window), then the window's page map.
fn encode_snapshot(head_lpn: u64, tail_lpn: u64, map: &PageMap) -> Vec<u8> {
    let mut out = head_lpn.to_le_bytes().to_vec();
    out.extend_from_slice(&tail_lpn.to_le_bytes());
    out.extend_from_slice(&map.snapshot());
    out
}

fn decode_snapshot(geo: Geometry, data: &[u8]) -> Option<(u64, u64, PageMap)> {
    let map = PageMap::from_snapshot(geo, data.get(16..)?)?;
    Some((le64(data)?, le64(&data[8..])?, map))
}

const TAG_BUFFER: u8 = 1;
const TAG_TRIM: u8 = 2;

/// A byte address in the logical LSS log.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct LogAddr(pub u64);

/// OX-ELEOS configuration.
#[derive(Clone, Copy, Debug)]
pub struct EleosConfig {
    /// LSS I/O buffer size (the write granularity); 8 MB in the paper.
    pub buffer_bytes: usize,
    /// Live log window the FTL must be able to address, in bytes.
    pub window_bytes: u64,
    /// Copies the controller CPU charges per write (Figure 7): 2 in OX as
    /// published, 1 with zero-copy networking, 0 with full hardware
    /// offload (the §4.4 ablation).
    pub copies_per_write: u32,
    /// Journal mapping updates through the WAL (off for pure-throughput
    /// experiments).
    pub journal: bool,
}

impl Default for EleosConfig {
    fn default() -> Self {
        EleosConfig {
            // "Typically 8 MB" (§4.2); rounded to a multiple of the paper
            // drive's 96 KB write unit (85 units ≈ 7.97 MB).
            buffer_bytes: 85 * 96 * 1024,
            window_bytes: 512 * 1024 * 1024,
            copies_per_write: 2,
            journal: true,
        }
    }
}

/// OX-ELEOS failure modes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EleosError {
    /// Buffer length must equal the configured LSS buffer size.
    BadBuffer {
        /// Bytes expected.
        expected: usize,
        /// Bytes provided.
        got: usize,
    },
    /// Read beyond the log tail or before the trimmed head.
    OutOfLog(LogAddr),
    /// The live window is full; trim before appending.
    WindowFull,
    /// Device is out of free chunks.
    OutOfSpace,
    /// Log/metadata failure.
    Wal(WalError),
    /// Device command failure.
    Device(DeviceError),
}

impl std::fmt::Display for EleosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EleosError::BadBuffer { expected, got } => {
                write!(f, "LSS buffer must be {expected} bytes, got {got}")
            }
            EleosError::OutOfLog(a) => write!(f, "address {} outside the live log", a.0),
            EleosError::WindowFull => write!(f, "live log window full; trim first"),
            EleosError::OutOfSpace => write!(f, "device out of space"),
            EleosError::Wal(e) => write!(f, "log error: {e}"),
            EleosError::Device(e) => write!(f, "device error: {e}"),
        }
    }
}

impl std::error::Error for EleosError {}

impl From<WalError> for EleosError {
    fn from(e: WalError) -> Self {
        EleosError::Wal(e)
    }
}

impl From<DeviceError> for EleosError {
    fn from(e: DeviceError) -> Self {
        EleosError::Device(e)
    }
}

/// The OX-ELEOS FTL.
pub struct EleosFtl {
    media: Arc<dyn Media>,
    geo: Geometry,
    config: EleosConfig,
    /// The data log: page map of the live window, provisioning and the
    /// write path.
    space: LogSpace,
    journal: Journal,
    cpu: ControllerCpu,
    stats: FtlStats,
    window_pages: u64,
    /// Next page to append (absolute, monotonically increasing).
    tail_lpn: u64,
    /// First live page (absolute).
    head_lpn: u64,
    /// Bytes the host asked for vs. bytes read from media (read
    /// amplification of sub-sector reads).
    bytes_requested: u64,
    bytes_read_media: u64,
}

impl EleosFtl {
    /// Formats the device for OX-ELEOS.
    pub fn format(
        media: Arc<dyn Media>,
        config: EleosConfig,
        now: SimTime,
    ) -> Result<(EleosFtl, SimTime), EleosError> {
        assert_eq!(
            config.buffer_bytes % media.geometry().ws_min_bytes(),
            0,
            "LSS buffer must be a multiple of the device write unit"
        );
        let geo = media.geometry();
        let layout = Layout::plan(&geo, LayoutConfig::default());
        let reserved = layout.reserved_linear(&geo);
        let window_pages = config.window_bytes / SECTOR_BYTES as u64;
        let (journal, done) = Journal::format(&media, &layout, now)?;
        Ok((
            EleosFtl {
                geo,
                space: LogSpace::new(
                    PageMap::new(geo, window_pages),
                    Provisioner::fresh(geo, &reserved),
                ),
                journal,
                cpu: ControllerCpu::new(config.copies_per_write),
                stats: FtlStats::default(),
                window_pages,
                tail_lpn: 0,
                head_lpn: 0,
                bytes_requested: 0,
                bytes_read_media: 0,
                media,
                config,
            },
            done,
        ))
    }

    /// Reopens OX-ELEOS after a crash: replays the journal to rebuild the
    /// page map and the absolute log head/tail, drops map entries outside
    /// the live window, resumes provisioning from *report chunk* and
    /// restarts the journal on the recovered state. Returns the FTL,
    /// completion time, and the buffers replayed from the log.
    pub fn open(
        media: Arc<dyn Media>,
        config: EleosConfig,
        now: SimTime,
    ) -> Result<(EleosFtl, SimTime, u64), EleosError> {
        assert!(config.journal, "recovery requires the journal");
        let geo = media.geometry();
        let layout = Layout::plan(&geo, LayoutConfig::default());
        let reserved = layout.reserved_linear(&geo);
        let window_pages = config.window_bytes / SECTOR_BYTES as u64;

        let replay = Journal::replay(&media, &layout, now);
        let (mut head_lpn, mut tail_lpn, mut map) = replay
            .snapshot
            .as_deref()
            .and_then(|s| decode_snapshot(geo, s))
            .unwrap_or_else(|| (0, 0, PageMap::new(geo, window_pages)));
        let mut buffers = 0u64;
        for rec in replay.txns.iter().flatten() {
            match rec {
                WalRecord::Blob { tag, data, .. } if *tag == TAG_BUFFER && data.len() == 16 => {
                    if let (Some(first), Some(pages)) = (le64(data), le64(&data[8..])) {
                        tail_lpn = tail_lpn.max(first + pages);
                        buffers += 1;
                    }
                }
                WalRecord::Blob { tag, data, .. } if *tag == TAG_TRIM => {
                    if let Some(h) = le64(data) {
                        head_lpn = head_lpn.max(h);
                    }
                }
                _ => {
                    apply_map_record(&mut map, &geo, rec);
                }
            }
        }
        // Drop slots outside the live window (stale after trims).
        for lpn in 0..window_pages {
            let absolute_live = {
                // A slot is live iff some absolute lpn in [head, tail) maps
                // to it; with tail-head ≤ window, that is a single range
                // check on the slot's possible absolutes.
                let lo = head_lpn;
                let hi = tail_lpn;
                if hi <= lo {
                    false
                } else {
                    // Smallest absolute ≥ lo congruent to lpn mod window.
                    let base = lo - (lo % window_pages) + lpn;
                    let cand = if base >= lo {
                        base
                    } else {
                        base + window_pages
                    };
                    cand < hi
                }
            };
            if !absolute_live {
                map.unmap(lpn);
            }
        }
        let prov = Provisioner::from_report(geo, &reserved, &media.report_all());
        let (journal, t) = replay.restart(&encode_snapshot(head_lpn, tail_lpn, &map))?;
        let ftl = EleosFtl {
            geo,
            space: LogSpace::new(map, prov),
            journal,
            cpu: ControllerCpu::new(config.copies_per_write),
            stats: FtlStats::default(),
            window_pages,
            tail_lpn,
            head_lpn,
            bytes_requested: 0,
            bytes_read_media: 0,
            media,
            config,
        };
        Ok((ftl, t, buffers))
    }

    fn slot_of(&self, lpn: u64) -> u64 {
        lpn % self.window_pages
    }

    /// Checkpoints map, head and tail if the journal is in use and nearly
    /// full; returns when the next transaction can start.
    fn checkpoint_under_log_pressure(&mut self, now: SimTime) -> Result<SimTime, EleosError> {
        if !self.config.journal {
            return Ok(now);
        }
        let (head, tail, map) = (self.head_lpn, self.tail_lpn, &self.space.map);
        let taken = self
            .journal
            .ensure_log_space(now, || encode_snapshot(head, tail, map))?;
        Ok(taken.unwrap_or(now))
    }

    /// Appends one LSS I/O buffer. Returns the log address of its first byte
    /// and the completion time (CPU copies + device acknowledge + journal).
    pub fn append_buffer(
        &mut self,
        now: SimTime,
        data: &[u8],
    ) -> Result<(LogAddr, SimTime), EleosError> {
        if data.len() != self.config.buffer_bytes {
            return Err(EleosError::BadBuffer {
                expected: self.config.buffer_bytes,
                got: data.len(),
            });
        }
        let pages = (data.len() / SECTOR_BYTES) as u64;
        if self.tail_lpn - self.head_lpn + pages > self.window_pages {
            return Err(EleosError::WindowFull);
        }

        let now = self.checkpoint_under_log_pressure(now)?;

        // The two data copies on the controller (Figure 7's bottleneck).
        let t = self.cpu.charge_write(now, data.len() as u64);

        let first_lpn = self.tail_lpn;
        let txid = self.config.journal.then(|| self.journal.wal.begin());
        if let Some(txid) = txid {
            // Buffer-boundary record: lets recovery rebuild the absolute
            // log tail (map slots alone are modulo the window).
            let mut blob = Vec::with_capacity(16);
            blob.extend_from_slice(&first_lpn.to_le_bytes());
            blob.extend_from_slice(&pages.to_le_bytes());
            self.journal.wal.append(WalRecord::Blob {
                txid,
                tag: TAG_BUFFER,
                data: blob,
            });
        }

        let unit_bytes = self.geo.ws_min_bytes();
        let unit_pages = self.geo.ws_min as u64;
        let window = self.window_pages;
        let mut ack = t;
        for (u, unit) in data.chunks(unit_bytes).enumerate() {
            // Copied once, into the buffer the device keeps.
            let unit = [Payload::from(unit)];
            // Already-mapped pages on a chunk a program failure froze stay
            // readable (the written prefix survives the freeze).
            let (media, stats) = (&self.media, &mut self.stats);
            let (slot, comp) = self
                .space
                .place(
                    None,
                    |slot| media.write_parts(t, slot.chunk.ppa(slot.sector), &unit),
                    || stats.write_failovers += 1,
                )
                .map_err(|e| e.into_ftl(|| EleosError::OutOfSpace))?;
            ack = ack.max(comp.done);
            let first = first_lpn + u as u64 * unit_pages;
            self.space.record(
                slot,
                (first..first + unit_pages).map(|lpn| lpn % window),
                txid.map(|txid| (&mut self.journal.wal, txid)),
            );
            self.stats.physical_user_writes.record(unit_bytes as u64);
        }
        self.tail_lpn += pages;
        self.stats.user_writes.record(data.len() as u64);

        let done = if let Some(txid) = txid {
            // Force-at-commit: data durable before the commit record.
            let durable = self.space.barrier(self.media.as_ref(), ack);
            self.journal.wal.end(txid);
            self.journal.wal.commit(durable)?
        } else {
            // The journal-less data path keeps cache-acknowledge semantics
            // for pure-throughput experiments.
            self.space.skip_barrier();
            ack
        };
        Ok((LogAddr(first_lpn * SECTOR_BYTES as u64), done))
    }

    /// Reads `out.len()` bytes at byte address `addr` in the log. Returns
    /// the completion time. Sub-sector reads still fetch whole sectors from
    /// media (read amplification).
    pub fn read(
        &mut self,
        now: SimTime,
        addr: LogAddr,
        out: &mut [u8],
    ) -> Result<SimTime, EleosError> {
        if out.is_empty() {
            return Ok(now);
        }
        let start = addr.0;
        let end = start + out.len() as u64;
        let head = self.head_lpn * SECTOR_BYTES as u64;
        let tail = self.tail_lpn * SECTOR_BYTES as u64;
        if start < head || end > tail {
            return Err(EleosError::OutOfLog(addr));
        }
        let first_lpn = start / SECTOR_BYTES as u64;
        let last_lpn = (end - 1) / SECTOR_BYTES as u64;
        let mut t = now;
        let mut sector = vec![0u8; SECTOR_BYTES];
        for lpn in first_lpn..=last_lpn {
            let ppa = self
                .space
                .map
                .lookup(self.slot_of(lpn))
                .ok_or(EleosError::OutOfLog(addr))?;
            // Uncorrectable reads are often transient: bounded retry before
            // surfacing the error.
            let read =
                retry::read_with_policy(self.media.as_ref(), now, ppa, 1, &mut sector, None)?;
            self.stats.read_retries += read.retries as u64;
            t = t.max(read.completion.done);
            self.bytes_read_media += SECTOR_BYTES as u64;
            // Copy the overlapping byte range.
            let page_start = lpn * SECTOR_BYTES as u64;
            let lo = start.max(page_start);
            let hi = end.min(page_start + SECTOR_BYTES as u64);
            let dst = (lo - start) as usize;
            let src = (lo - page_start) as usize;
            out[dst..dst + (hi - lo) as usize]
                .copy_from_slice(&sector[src..src + (hi - lo) as usize]);
        }
        self.bytes_requested += out.len() as u64;
        self.stats.user_reads.record(out.len() as u64);
        Ok(t)
    }

    /// Trims the log up to `addr` (exclusive): LLAMA-style cleaning. Chunks
    /// whose sectors are now all invalid are reset and recycled — no copies.
    /// Returns the completion time of the resets.
    pub fn trim_until(&mut self, now: SimTime, addr: LogAddr) -> Result<SimTime, EleosError> {
        let new_head = (addr.0 / SECTOR_BYTES as u64).min(self.tail_lpn);
        if new_head <= self.head_lpn {
            return Ok(now);
        }
        let now = if self.config.journal {
            // Log-before-action: the trim record must be durable before any
            // chunk is erased, or recovery would resurrect trimmed buffers
            // whose media is already gone.
            let now = self.checkpoint_under_log_pressure(now)?;
            let wal = &mut self.journal.wal;
            let txid = wal.begin();
            wal.append(WalRecord::Blob {
                txid,
                tag: TAG_TRIM,
                data: new_head.to_le_bytes().to_vec(),
            });
            wal.end(txid);
            wal.commit(now)?
        } else {
            now
        };
        let mut touched: Vec<u64> = Vec::new();
        for lpn in self.head_lpn..new_head {
            if let Some(ppa) = self.space.map.unmap(self.slot_of(lpn)) {
                let lin = ppa.chunk_addr().linear(&self.geo);
                if !touched.contains(&lin) {
                    touched.push(lin);
                }
            }
        }
        self.head_lpn = new_head;
        // Erases are submitted together; different PUs erase in parallel.
        let mut t = now;
        for lin in touched {
            let chunk = ChunkAddr::from_linear(&self.geo, lin);
            if self.space.map.valid_count(lin) == 0
                && self.media.chunk_info(chunk).state == ChunkState::Closed
            {
                // A failed erase retires the chunk instead of recycling it:
                // its data is already dead, so nothing is lost — the chunk
                // just leaves circulation.
                let media = self.media.as_ref();
                if let Some(comp) = reset_or_retire(media, &mut self.space.prov, now, chunk)? {
                    t = t.max(comp.done);
                }
            }
        }
        Ok(t)
    }

    /// Drains grown-bad-block events from the device and routes future
    /// allocations around the retired chunks. Pages of the live window that
    /// sit on a frozen chunk remain readable (the written prefix survives a
    /// program-failure freeze); the log-structured window reclaims the space
    /// naturally as the head advances. Advisory refresh flags are ignored
    /// (OX-ELEOS has no scrubber): the chunk stays in service. Returns the
    /// number of events ingested.
    pub fn ingest_media_events(&mut self) -> usize {
        let events = self.media.drain_events();
        retire_chunks(&events, &mut self.space.prov);
        events.len()
    }

    /// Bytes currently live in the window.
    pub fn live_bytes(&self) -> u64 {
        (self.tail_lpn - self.head_lpn) * SECTOR_BYTES as u64
    }

    /// Absolute byte address of the log tail (next append position).
    pub fn tail_addr(&self) -> LogAddr {
        LogAddr(self.tail_lpn * SECTOR_BYTES as u64)
    }

    /// The controller CPU (Figure 7 utilization readout).
    pub fn cpu(&self) -> &ControllerCpu {
        &self.cpu
    }

    /// Read amplification so far: media bytes read ÷ bytes requested
    /// (0 if nothing read).
    pub fn read_amplification(&self) -> f64 {
        if self.bytes_requested == 0 {
            0.0
        } else {
            self.bytes_read_media as f64 / self.bytes_requested as f64
        }
    }

    /// FTL statistics.
    pub fn stats(&self) -> &FtlStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocssd::{DeviceConfig, OcssdDevice, SharedDevice};
    use ox_core::OcssdMedia;
    use ox_sim::SimDuration;

    fn small_config() -> EleosConfig {
        EleosConfig {
            buffer_bytes: 768 * 1024, // 8 write units on the scaled drive
            window_bytes: 64 * 1024 * 1024,
            ..EleosConfig::default()
        }
    }

    struct Rig {
        ftl: EleosFtl,
        t: SimTime,
    }

    fn rig() -> Rig {
        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::paper_tlc_scaled(22, 8)));
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev));
        let (ftl, t) = EleosFtl::format(media, small_config(), SimTime::ZERO).unwrap();
        Rig { ftl, t }
    }

    fn buffer(seed: u8, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| seed.wrapping_add((i / SECTOR_BYTES) as u8))
            .collect()
    }

    #[test]
    fn append_then_read_round_trips() {
        let mut r = rig();
        let buf = buffer(3, 768 * 1024);
        let (addr, done) = r.ftl.append_buffer(r.t, &buf).unwrap();
        assert_eq!(addr, LogAddr(0));
        let mut out = vec![0u8; buf.len()];
        let t = r
            .ftl
            .read(done + SimDuration::from_secs(1), addr, &mut out)
            .unwrap();
        assert_eq!(out, buf);
        assert!(t > done);
    }

    #[test]
    fn appends_advance_log_addresses() {
        let mut r = rig();
        let buf = buffer(1, 768 * 1024);
        let (a1, t1) = r.ftl.append_buffer(r.t, &buf).unwrap();
        let (a2, _) = r.ftl.append_buffer(t1, &buf).unwrap();
        assert_eq!(a2.0 - a1.0, 768 * 1024);
        assert_eq!(r.ftl.live_bytes(), 2 * 768 * 1024);
    }

    #[test]
    fn byte_granularity_reads_cross_page_boundaries() {
        let mut r = rig();
        let buf = buffer(7, 768 * 1024);
        let (_, done) = r.ftl.append_buffer(r.t, &buf).unwrap();
        // 100 bytes straddling the first page boundary.
        let mut out = vec![0u8; 100];
        let start = SECTOR_BYTES as u64 - 50;
        r.ftl
            .read(done + SimDuration::from_secs(1), LogAddr(start), &mut out)
            .unwrap();
        assert_eq!(out, &buf[start as usize..start as usize + 100]);
        // Two sectors were read from media for 100 requested bytes.
        assert!(r.ftl.read_amplification() > 50.0);
    }

    #[test]
    fn wrong_buffer_size_rejected() {
        let mut r = rig();
        let err = r.ftl.append_buffer(r.t, &[0u8; 4096]).unwrap_err();
        assert!(matches!(err, EleosError::BadBuffer { .. }));
    }

    #[test]
    fn reads_outside_live_log_rejected() {
        let mut r = rig();
        let mut out = vec![0u8; 10];
        assert!(matches!(
            r.ftl.read(r.t, LogAddr(0), &mut out),
            Err(EleosError::OutOfLog(_))
        ));
        let buf = buffer(1, 768 * 1024);
        let (_, done) = r.ftl.append_buffer(r.t, &buf).unwrap();
        assert!(matches!(
            r.ftl.read(done, LogAddr(768 * 1024 - 5), &mut out),
            Err(EleosError::OutOfLog(_))
        ));
    }

    #[test]
    fn window_fills_and_trim_reclaims() {
        let mut r = rig();
        let buf = buffer(2, 768 * 1024);
        let mut t = r.t;
        let buffers_in_window = 64 * 1024 * 1024 / (768 * 1024);
        let mut last_addr = LogAddr(0);
        for _ in 0..buffers_in_window {
            let (a, done) = r.ftl.append_buffer(t, &buf).unwrap();
            last_addr = a;
            t = done;
        }
        assert!(matches!(
            r.ftl.append_buffer(t, &buf),
            Err(EleosError::WindowFull)
        ));
        // Trim the first half of the log: appends work again.
        let t2 = r.ftl.trim_until(t, LogAddr(last_addr.0 / 2)).unwrap();
        r.ftl.append_buffer(t2, &buf).unwrap();
        // Trimmed bytes are unreadable.
        let mut out = vec![0u8; 10];
        assert!(matches!(
            r.ftl.read(t2, LogAddr(0), &mut out),
            Err(EleosError::OutOfLog(_))
        ));
    }

    #[test]
    fn trim_resets_fully_dead_chunks() {
        // Chunks only become reset candidates once Closed; with units
        // striped over 32 PUs (3 MB chunks), closing every PU's first chunk
        // takes 32 × 3 MB = 96 MB — use a 192 MB window.
        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::paper_tlc_scaled(22, 8)));
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev));
        let mut cfg = small_config();
        cfg.window_bytes = 192 * 1024 * 1024;
        let (ftl, t0) = EleosFtl::format(media, cfg, SimTime::ZERO).unwrap();
        let mut r = Rig { ftl, t: t0 };
        let buf = buffer(4, 768 * 1024);
        let mut t = r.t;
        let n = 192 * 1024 * 1024 / (768 * 1024); // fill the window
        for _ in 0..n {
            let (_, done) = r.ftl.append_buffer(t, &buf).unwrap();
            t = done;
        }
        let free_before = r.ftl.space.prov.free_chunks();
        let t2 = r.ftl.trim_until(t, LogAddr(r.ftl.live_bytes())).unwrap();
        assert!(t2 > t, "resets take device time");
        assert!(
            r.ftl.space.prov.free_chunks() > free_before,
            "dead chunks recycled without copies"
        );
        assert_eq!(r.ftl.live_bytes(), 0);
    }

    #[test]
    fn cpu_charged_per_buffer() {
        let mut r = rig();
        let buf = buffer(1, 768 * 1024);
        let before = r.ftl.cpu().bytes_copied();
        let (_, t1) = r.ftl.append_buffer(r.t, &buf).unwrap();
        assert_eq!(
            r.ftl.cpu().bytes_copied() - before,
            2 * 768 * 1024,
            "two copies per write"
        );
        assert!(t1 > r.t);
    }

    #[test]
    fn zero_copy_model_reduces_completion_time() {
        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::paper_tlc_scaled(22, 8)));
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev));
        let mut cfg = small_config();
        cfg.copies_per_write = 0;
        let (mut zero, t0) = EleosFtl::format(media, cfg, SimTime::ZERO).unwrap();
        let buf = buffer(1, 768 * 1024);
        let (_, zc) = zero.append_buffer(t0, &buf).unwrap();

        let mut r = rig();
        let (_, full) = r.ftl.append_buffer(r.t, &buf).unwrap();
        assert!(
            zc.saturating_since(t0) < full.saturating_since(r.t),
            "zero-copy completes faster"
        );
    }

    /// An advisory `RefreshDue` says "relocate this data soon", not "this
    /// chunk is bad": ingesting one must leave the chunk in circulation.
    #[test]
    fn a_refresh_flag_does_not_retire_the_chunk() {
        let geo = ocssd::Geometry::small_slc();
        let mut config = DeviceConfig::with_geometry(geo);
        config.reliability = Some(13);
        let dev = SharedDevice::new(OcssdDevice::new(config));
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
        let (mut ftl, t0) = EleosFtl::format(media, small_config(), SimTime::ZERO).unwrap();
        let buf = buffer(3, 768 * 1024);
        let (_, mut t) = ftl.append_buffer(t0, &buf).unwrap();
        let free = ftl.space.prov.free_chunks();
        let flagged = ftl.space.map.lookup(0).unwrap().chunk_addr();

        // Read the buffer's first chunk until the device flags it, once
        // (retention gets it there within a virtual minute).
        let mut out = vec![0u8; geo.ws_min_bytes()];
        let mut reads = 0;
        while dev.health_ledger().refresh_flags == 0 {
            assert!(
                reads < 100_000,
                "{flagged:?} unflagged after {reads} reads: {:?}",
                dev.health_ledger()
            );
            reads += 1;
            t += SimDuration::from_millis(100);
            let _ = dev.read(t, flagged.ppa(0), geo.ws_min, &mut out);
        }
        assert_eq!(dev.health_ledger().refresh_flags, 1);
        assert_eq!(ftl.ingest_media_events(), 1);

        // The chunk is still the open one on its PU: the next buffer
        // continues on it instead of costing a fresh chunk.
        let (addr, _) = ftl.append_buffer(t, &buf).unwrap();
        assert_eq!(
            ftl.space.prov.free_chunks(),
            free,
            "a healthy chunk was retired"
        );
        let first = addr.0 / SECTOR_BYTES as u64;
        let on_flagged = (first..first + (buf.len() / SECTOR_BYTES) as u64)
            .filter(|&lpn| ftl.space.map.lookup(lpn).unwrap().chunk_addr() == flagged);
        assert!(
            on_flagged.count() > 0,
            "no later unit landed on {flagged:?}"
        );
    }
}

#[cfg(test)]
mod recovery_tests {
    use super::*;
    use ocssd::{DeviceConfig, OcssdDevice, SharedDevice};
    use ox_core::OcssdMedia;
    use ox_sim::SimDuration;

    fn cfg() -> EleosConfig {
        EleosConfig {
            buffer_bytes: 768 * 1024,
            window_bytes: 64 * 1024 * 1024,
            ..EleosConfig::default()
        }
    }

    #[test]
    fn committed_buffers_survive_crash() {
        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::paper_tlc_scaled(22, 8)));
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
        let (mut ftl, mut t) = EleosFtl::format(media, cfg(), SimTime::ZERO).unwrap();
        let mk = |seed: u8| -> Vec<u8> {
            (0..768 * 1024)
                .map(|i| seed.wrapping_add((i / 4096) as u8))
                .collect()
        };
        let mut addrs = Vec::new();
        for s in 0..5u8 {
            let (a, done) = ftl.append_buffer(t, &mk(s)).unwrap();
            addrs.push(a);
            t = done;
        }
        dev.crash(t);
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev));
        let (mut re, t2, buffers) = EleosFtl::open(media, cfg(), t).unwrap();
        assert_eq!(buffers, 5);
        assert_eq!(re.live_bytes(), 5 * 768 * 1024);
        for (s, a) in addrs.iter().enumerate() {
            let mut out = vec![0u8; 768 * 1024];
            re.read(t2 + SimDuration::from_secs(1), *a, &mut out)
                .unwrap();
            assert_eq!(out, mk(s as u8), "buffer {s}");
        }
    }

    #[test]
    fn trims_survive_crash() {
        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::paper_tlc_scaled(22, 8)));
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
        let (mut ftl, mut t) = EleosFtl::format(media, cfg(), SimTime::ZERO).unwrap();
        let buf = vec![3u8; 768 * 1024];
        for _ in 0..4 {
            t = ftl.append_buffer(t, &buf).unwrap().1;
        }
        // Trim the first two buffers, then crash.
        t = ftl.trim_until(t, LogAddr(2 * 768 * 1024)).unwrap();
        dev.crash(t);
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev));
        let (mut re, t2, _) = EleosFtl::open(media, cfg(), t).unwrap();
        assert_eq!(re.live_bytes(), 2 * 768 * 1024);
        // Trimmed region unreadable, live region readable.
        let mut out = vec![0u8; 16];
        assert!(matches!(
            re.read(t2, LogAddr(0), &mut out),
            Err(EleosError::OutOfLog(_))
        ));
        re.read(t2, LogAddr(2 * 768 * 1024), &mut out).unwrap();
        assert_eq!(out[0], 3);
        // And appending continues from the recovered tail.
        let (addr, _) = re.append_buffer(t2, &buf).unwrap();
        assert_eq!(addr.0, 4 * 768 * 1024);
    }

    #[test]
    fn a_thousand_journaled_buffers_checkpoint_truncate_and_reopen() {
        const LIVE: u64 = 8; // buffers kept behind the tail
        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::paper_tlc_scaled(22, 8)));
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
        let (mut ftl, mut t) = EleosFtl::format(media, cfg(), SimTime::ZERO).unwrap();
        let bytes = cfg().buffer_bytes as u64;
        let mk = |n: u64| vec![n as u8; bytes as usize];
        // Twice the journal ring's worth of transactions: without a
        // checkpoint to truncate behind, the ring fills around buffer 260.
        for n in 0..1000u64 {
            t = ftl.append_buffer(t, &mk(n)).unwrap().1;
            t = ftl
                .trim_until(t, LogAddr((n + 1).saturating_sub(LIVE) * bytes))
                .unwrap();
        }
        assert_eq!(ftl.live_bytes(), LIVE * bytes);

        // The journal was checkpointed and truncated on the way; what
        // reopens is the checkpoint plus the log behind it.
        dev.crash(t);
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev));
        let (mut re, t, replayed) = EleosFtl::open(media, cfg(), t).unwrap();
        assert!(
            replayed < 300,
            "{replayed} buffers replayed: never truncated"
        );
        assert_eq!(re.tail_addr(), LogAddr(1000 * bytes));
        assert_eq!(re.live_bytes(), LIVE * bytes);
        let mut out = vec![0u8; bytes as usize];
        for n in 1000 - LIVE..1000 {
            re.read(t, LogAddr(n * bytes), &mut out).unwrap();
            assert_eq!(out, mk(n), "buffer {n}");
        }
        assert!(matches!(
            re.read(t, LogAddr((1000 - LIVE) * bytes - 1), &mut out[..1]),
            Err(EleosError::OutOfLog(_))
        ));
        let (addr, _) = re.append_buffer(t, &mk(0)).unwrap();
        assert_eq!(addr, LogAddr(1000 * bytes));
    }

    #[test]
    fn unsynced_tail_buffer_is_dropped() {
        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::paper_tlc_scaled(22, 8)));
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
        let (mut ftl, t0) = EleosFtl::format(media, cfg(), SimTime::ZERO).unwrap();
        let buf = vec![1u8; 768 * 1024];
        let (_, t1) = ftl.append_buffer(t0, &buf).unwrap();
        // Second append: crash at submission — its journal commit is not
        // durable.
        let _ = ftl.append_buffer(t1, &buf);
        dev.crash(t1);
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev));
        let (re, _, buffers) = EleosFtl::open(media, cfg(), t1).unwrap();
        assert_eq!(buffers, 1, "torn tail buffer discarded");
        assert_eq!(re.live_bytes(), 768 * 1024);
    }
}
