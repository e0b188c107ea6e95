//! The OX-Block FTL proper.

use ocssd::{ChunkAddr, ChunkState, Completion, DeviceError, Geometry, MediaEvent, SECTOR_BYTES};
use ox_core::gc::{GarbageCollector, GcConfig, GcPass};
use ox_core::layout::{Layout, LayoutConfig};
use ox_core::logspace::LogSpace;
use ox_core::mapping::PageMap;
use ox_core::provision::Provisioner;
use ox_core::recovery::{self, Journal, RecoveryOutcome};
use ox_core::stats::FtlStats;
use ox_core::wal::{WalError, WalRecord};
use ox_core::{badblock::BadBlockTable, Media};
use ox_sim::trace::Obs;
use ox_sim::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::sync::Arc;

/// OX-Block configuration.
#[derive(Clone, Copy, Debug)]
pub struct BlockFtlConfig {
    /// Logical address space exposed to the host, in bytes (4 KB blocks).
    pub logical_capacity_bytes: u64,
    /// Metadata region sizing.
    pub layout: LayoutConfig,
    /// Checkpoint interval; `None` disables checkpointing (Figure 3's blue
    /// line).
    pub checkpoint_interval: Option<SimDuration>,
    /// GC policy.
    pub gc: GcConfig,
    /// Background scrub (patrol read + refresh relocation) policy.
    pub scrub: ScrubConfig,
}

impl BlockFtlConfig {
    /// A config exposing `capacity_bytes` with defaults tuned for the scaled
    /// paper drive.
    pub fn with_capacity(capacity_bytes: u64) -> Self {
        BlockFtlConfig {
            logical_capacity_bytes: capacity_bytes,
            layout: LayoutConfig::default(),
            checkpoint_interval: Some(SimDuration::from_secs(10)),
            gc: GcConfig::default(),
            scrub: ScrubConfig::default(),
        }
    }
}

/// Background-scrubber policy. The scrubber patrol-reads closed chunks in
/// linear order through the GC-class I/O tenant (when wired), flags chunks
/// whose device-estimated error rate crosses the threshold — or that the
/// device itself marked refresh-due — and refresh-relocates a bounded number
/// of flagged chunks per step. Disabled by default: a disabled scrubber
/// leaves the I/O stream byte-identical to an FTL without one.
#[derive(Clone, Copy, Debug)]
pub struct ScrubConfig {
    /// Master switch.
    pub enabled: bool,
    /// Chunks patrol-read per [`BlockFtl::scrub_step`].
    pub chunks_per_step: u32,
    /// Refresh relocations allowed per step (bounds the write cost of a
    /// step so patrol stays background work).
    pub refreshes_per_step: u32,
    /// Device-estimated raw bit error rate (parts per million) at which a
    /// chunk is refreshed even before the device flags it.
    pub error_ppm_threshold: u64,
}

impl Default for ScrubConfig {
    fn default() -> Self {
        ScrubConfig {
            enabled: false,
            chunks_per_step: 16,
            refreshes_per_step: 2,
            error_ppm_threshold: 2_000,
        }
    }
}

/// What one scrub step did.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScrubReport {
    /// Closed chunks patrol-read this step.
    pub scanned: u64,
    /// Patrol reads that came back uncorrectable (chunk queued for refresh).
    pub read_errors: u64,
    /// Refresh-queue depth after the patrol pass.
    pub queued: u64,
    /// Chunks refresh-relocated this step.
    pub refreshed: u64,
    /// Completion time of the step.
    pub done: SimTime,
}

/// OX-Block failure modes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BlockFtlError {
    /// Logical address beyond the configured capacity.
    OutOfRange {
        /// Offending logical page.
        lpn: u64,
        /// Logical pages available.
        capacity: u64,
    },
    /// Buffer length is not a positive multiple of 4 KB.
    BadBuffer(usize),
    /// The device is out of space even after garbage collection.
    OutOfSpace,
    /// Spare chunks are exhausted: the store has degraded to read-only.
    /// Reads keep working; writes and trims are refused with this error
    /// until the device is replaced (end-of-life, not a transient).
    ReadOnly,
    /// Log/metadata failure.
    Wal(WalError),
    /// Device command failure.
    Device(DeviceError),
}

impl std::fmt::Display for BlockFtlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockFtlError::OutOfRange { lpn, capacity } => {
                write!(f, "lpn {lpn} beyond capacity {capacity}")
            }
            BlockFtlError::BadBuffer(n) => write!(f, "buffer of {n} bytes is not 4 KB-aligned"),
            BlockFtlError::OutOfSpace => write!(f, "device out of space"),
            BlockFtlError::ReadOnly => {
                write!(f, "spare chunks exhausted: store degraded to read-only")
            }
            BlockFtlError::Wal(e) => write!(f, "log error: {e}"),
            BlockFtlError::Device(e) => write!(f, "device error: {e}"),
        }
    }
}

impl std::error::Error for BlockFtlError {}

impl From<WalError> for BlockFtlError {
    fn from(e: WalError) -> Self {
        BlockFtlError::Wal(e)
    }
}

impl From<DeviceError> for BlockFtlError {
    fn from(e: DeviceError) -> Self {
        BlockFtlError::Device(e)
    }
}

/// Outcome of a transactional write.
#[derive(Clone, Copy, Debug)]
pub struct WriteOutcome {
    /// When the transaction was durable (data on NAND + commit in WAL).
    pub done: SimTime,
    /// Whether garbage collection ran inline to make room.
    pub gc_ran: bool,
}

/// The OX-Block FTL. One instance per device; callers serialize access (in
/// the simulation harness, through an `Arc<Mutex<BlockFtl>>`).
pub struct BlockFtl {
    media: Arc<dyn Media>,
    geo: Geometry,
    config: BlockFtlConfig,
    layout: Layout,
    /// The data log: page map, provisioning and the write path.
    space: LogSpace,
    journal: Journal,
    gc: GarbageCollector,
    bbt: BadBlockTable,
    stats: FtlStats,
    last_checkpoint: SimTime,
    /// Per-group instant until which GC activity occupies the group
    /// (interference accounting for the §4.3 locality numbers).
    gc_busy_until: Vec<SimTime>,
    /// Patrol cursor (linear chunk index) for the background scrubber.
    scrub_cursor: u64,
    /// Chunks awaiting refresh relocation: advisory media flags, patrol-read
    /// failures and error-rate threshold crossings all land here.
    refresh_queue: VecDeque<ChunkAddr>,
    /// Sticky spare-exhaustion flag: once allocation fails outright, the
    /// store serves reads only.
    degraded: bool,
    obs: Obs,
}

impl BlockFtl {
    /// Logical pages exposed.
    pub fn logical_pages(&self) -> u64 {
        self.config.logical_capacity_bytes / SECTOR_BYTES as u64
    }

    /// Formats the device for OX-Block: plans the layout, formats the WAL
    /// and starts with an empty mapping. Returns the FTL and the completion
    /// time.
    pub fn format(
        media: Arc<dyn Media>,
        config: BlockFtlConfig,
        now: SimTime,
    ) -> Result<(BlockFtl, SimTime), BlockFtlError> {
        let geo = media.geometry();
        let layout = Layout::plan(&geo, config.layout);
        let logical_pages = config.logical_capacity_bytes / SECTOR_BYTES as u64;
        let phys_pages = geo.total_sectors();
        assert!(
            logical_pages < phys_pages * 9 / 10,
            "need ≥10% over-provisioning: {logical_pages} logical vs {phys_pages} physical"
        );
        let (journal, done) = Journal::format(&media, &layout, now)?;
        let space = LogSpace::new(
            PageMap::new(geo, logical_pages),
            Provisioner::fresh(geo, &layout.reserved_linear(&geo)),
        );
        let ftl = BlockFtl::assemble(media, config, layout, space, journal, now);
        Ok((ftl, done))
    }

    /// Recovers OX-Block after a crash: loads the newest checkpoint, replays
    /// the log, rebuilds provisioning, and restarts the journal on the
    /// recovered map ([`recovery::Replay::restart`]).
    pub fn recover(
        media: Arc<dyn Media>,
        config: BlockFtlConfig,
        now: SimTime,
    ) -> Result<(BlockFtl, RecoveryOutcome), BlockFtlError> {
        let geo = media.geometry();
        let layout = Layout::plan(&geo, config.layout);
        let logical_pages = config.logical_capacity_bytes / SECTOR_BYTES as u64;
        let (space, mut outcome, replay) =
            recovery::recover(&media, &layout, geo, logical_pages, now);
        let (journal, t) = replay.restart(&space.map.snapshot())?;
        outcome.done = t;
        outcome.duration = t.saturating_since(now);
        let mut ftl = BlockFtl::assemble(media, config, layout, space, journal, t);
        ftl.stats.checkpoints += 1;
        Ok((ftl, outcome))
    }

    /// An FTL over `space` and `journal`, its last checkpoint taken `at`.
    fn assemble(
        media: Arc<dyn Media>,
        config: BlockFtlConfig,
        layout: Layout,
        space: LogSpace,
        journal: Journal,
        at: SimTime,
    ) -> BlockFtl {
        let geo = media.geometry();
        BlockFtl {
            geo,
            space,
            gc: GarbageCollector::new(&media, config.gc),
            bbt: BadBlockTable::new(),
            stats: FtlStats::default(),
            last_checkpoint: at,
            gc_busy_until: vec![SimTime::ZERO; geo.num_groups as usize],
            scrub_cursor: 0,
            refresh_queue: VecDeque::new(),
            degraded: false,
            obs: media.obs(),
            layout,
            journal,
            media,
            config,
        }
    }

    /// The sinks this FTL reports into (its media's, read at construction):
    /// dispatch-level operations under the `oxblock` subsystem, next to its
    /// WAL, GC and checkpoint components.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    fn check_lpn(&self, lpn: u64) -> Result<(), BlockFtlError> {
        let capacity = self.logical_pages();
        if lpn >= capacity {
            return Err(BlockFtlError::OutOfRange { lpn, capacity });
        }
        Ok(())
    }

    fn note_user_io(&mut self, now: SimTime, group: u32) {
        let gc_active = self.gc_busy_until.iter().any(|&t| t > now);
        if gc_active {
            if self.gc_busy_until[group as usize] > now {
                self.stats.ios_gc_interfered += 1;
            } else {
                self.stats.ios_gc_clean += 1;
            }
        }
    }

    /// Transactionally writes `data` (a positive multiple of 4 KB) at
    /// logical page `lpn`. Visible entirely or not at all across crashes.
    pub fn write(
        &mut self,
        now: SimTime,
        lpn: u64,
        data: &[u8],
    ) -> Result<WriteOutcome, BlockFtlError> {
        if data.is_empty() || !data.len().is_multiple_of(SECTOR_BYTES) {
            return Err(BlockFtlError::BadBuffer(data.len()));
        }
        let pages = (data.len() / SECTOR_BYTES) as u64;
        self.check_lpn(lpn)?;
        self.check_lpn(lpn + pages - 1)?;
        if self.degraded {
            return Err(BlockFtlError::ReadOnly);
        }

        // Make room first so GC time is not billed inside the transaction.
        let mut gc_ran = false;
        let mut t = self.checkpoint_under_log_pressure(now)?;
        while self.gc.needs_gc(&self.space) {
            let pass = self.run_gc(t, None)?;
            gc_ran = true;
            if pass.victims == 0 {
                break; // nothing reclaimable; fall through to allocation
            }
            t = pass.done;
        }

        let txid = self.journal.wal.begin();

        // Place the data, ws_min sectors at a time (zero-padding the tail
        // unit: the "unit of write" tax of §4.3).
        let unit_sectors = self.geo.ws_min as usize;
        let unit_bytes = self.geo.ws_min_bytes();
        let mut unit_buf = vec![0u8; unit_bytes];
        let mut sector_idx = 0usize;
        let total_sectors = pages as usize;
        let mut last_ack = t;
        while sector_idx < total_sectors {
            let in_unit = (total_sectors - sector_idx).min(unit_sectors);
            let byte_off = sector_idx * SECTOR_BYTES;
            unit_buf[..in_unit * SECTOR_BYTES]
                .copy_from_slice(&data[byte_off..byte_off + in_unit * SECTOR_BYTES]);
            unit_buf[in_unit * SECTOR_BYTES..].fill(0);

            let (media, stats, obs) = (&self.media, &mut self.stats, &self.obs);
            let placed = self.space.place(
                None,
                |slot| media.write(t, slot.chunk.ppa(slot.sector), &unit_buf),
                || {
                    stats.write_failovers += 1;
                    obs.metrics.record("oxblock.write_failover", 0);
                },
            );
            // No chunk left anywhere, even after the GC attempt above: end
            // of life. The store turns read-only rather than failing
            // unpredictably on every later operation.
            let (slot, comp) = placed.map_err(|e| e.into_ftl(|| self.enter_degraded()))?;
            self.note_user_io(t, slot.chunk.group);
            last_ack = last_ack.max(comp.done);
            let first = lpn + sector_idx as u64;
            self.space.record(
                slot,
                first..first + in_unit as u64,
                Some((&mut self.journal.wal, txid)),
            );
            self.stats.physical_user_writes.record(unit_bytes as u64);
            sector_idx += in_unit;
        }

        // Force-at-commit: data durable before the commit record.
        let durable = self.space.barrier(self.media.as_ref(), last_ack);
        self.journal.wal.end(txid);
        let done = self.journal.wal.commit(durable)?;
        self.stats.user_writes.record(data.len() as u64);
        self.stats.metadata_writes.record(0); // tracked via wal bytes below
        self.obs.metrics.record("oxblock.write", data.len() as u64);
        self.obs
            .tracer
            .span(now, done, "oxblock", "write", data.len() as u64);
        Ok(WriteOutcome { done, gc_ran })
    }

    /// Reads one logical page into `out` (exactly 4 KB). Unwritten pages
    /// read as zeros, as on a fresh block device.
    pub fn read(
        &mut self,
        now: SimTime,
        lpn: u64,
        out: &mut [u8],
    ) -> Result<Completion, BlockFtlError> {
        assert_eq!(out.len(), SECTOR_BYTES, "read buffer must be one page");
        self.check_lpn(lpn)?;
        self.stats.user_reads.record(SECTOR_BYTES as u64);
        let comp = match self.space.map.lookup(lpn) {
            Some(ppa) => {
                self.note_user_io(now, ppa.group);
                // Transient ECC exhaustion recovers under read-retry; a
                // page that stays unreadable surfaces the typed error.
                match ox_core::retry::read_with_policy(
                    self.media.as_ref(),
                    now,
                    ppa,
                    1,
                    out,
                    Some(&self.obs.metrics),
                ) {
                    Ok(o) => {
                        if o.retries > 0 {
                            self.stats.read_retries += o.retries as u64;
                            self.obs
                                .metrics
                                .add("oxblock.read_retry", o.retries as u64, 0);
                        }
                        o.completion
                    }
                    Err(e) => return Err(e.into()),
                }
            }
            None => {
                out.fill(0);
                // Mapping lookup only; charge a microsecond of FTL CPU.
                Completion {
                    submitted: now,
                    done: now + SimDuration::from_micros(1),
                }
            }
        };
        self.obs.metrics.record("oxblock.read", SECTOR_BYTES as u64);
        self.obs
            .tracer
            .span(now, comp.done, "oxblock", "read", SECTOR_BYTES as u64);
        Ok(comp)
    }

    /// Trims `pages` logical pages starting at `lpn` (transactional).
    pub fn trim(&mut self, now: SimTime, lpn: u64, pages: u64) -> Result<SimTime, BlockFtlError> {
        if pages == 0 {
            return Ok(now);
        }
        self.check_lpn(lpn)?;
        self.check_lpn(lpn + pages - 1)?;
        if self.degraded {
            return Err(BlockFtlError::ReadOnly);
        }
        let txid = self.journal.wal.begin();
        for l in lpn..lpn + pages {
            if self.space.map.unmap(l).is_some() {
                self.journal.wal.append(WalRecord::Trim { txid, lpn: l });
            }
        }
        self.journal.wal.end(txid);
        let done = self.journal.wal.commit(now)?;
        self.obs.metrics.add("oxblock.trim", pages, 0);
        self.obs.tracer.span(now, done, "oxblock", "trim", 0);
        Ok(done)
    }

    /// Takes a checkpoint now if the journal says the log is nearly full
    /// and checkpointing is enabled, so commits never hit `LogFull`. With
    /// checkpointing disabled (Figure 3's blue line), the ring must be
    /// provisioned for the whole run and `LogFull` propagates.
    fn checkpoint_under_log_pressure(&mut self, now: SimTime) -> Result<SimTime, BlockFtlError> {
        if self.config.checkpoint_interval.is_some() && self.journal.log_nearly_full() {
            return self.checkpoint(now);
        }
        Ok(now)
    }

    /// Takes a checkpoint now: snapshot the map, persist it, truncate the
    /// log. Returns the completion time.
    pub fn checkpoint(&mut self, now: SimTime) -> Result<SimTime, BlockFtlError> {
        let snapshot = self.space.map.snapshot();
        // RAII span: the fallible steps below may early-return, and a
        // failed checkpoint attempt must still close its span (the guard's
        // drop ends it at the open time) so span accounting stays balanced.
        let span = self
            .obs
            .tracer
            .guard(now, "oxblock", "checkpoint", snapshot.len() as u64);
        let done = self.journal.checkpoint(now, &snapshot)?;
        self.stats.checkpoints += 1;
        self.stats.metadata_writes.record(snapshot.len() as u64);
        self.last_checkpoint = done;
        self.obs
            .metrics
            .record("oxblock.checkpoint", snapshot.len() as u64);
        span.finish(done);
        Ok(done)
    }

    /// Takes a checkpoint if the configured interval has elapsed.
    pub fn maybe_checkpoint(&mut self, now: SimTime) -> Result<Option<SimTime>, BlockFtlError> {
        let Some(interval) = self.config.checkpoint_interval else {
            return Ok(None);
        };
        if now.saturating_since(self.last_checkpoint) < interval {
            return Ok(None);
        }
        Ok(Some(self.checkpoint(now)?))
    }

    /// Runs one GC pass unconditionally (experiment control: the §4.3
    /// locality measurement keeps the collector busy in its marked group).
    pub fn gc_once(&mut self, now: SimTime) -> Result<GcPass, BlockFtlError> {
        self.run_gc(now, None)
    }

    /// Runs one GC pass if the free-chunk watermark demands it.
    pub fn maybe_gc(&mut self, now: SimTime) -> Result<Option<GcPass>, BlockFtlError> {
        if !self.gc.needs_gc(&self.space) {
            return Ok(None);
        }
        self.run_gc(now, None).map(Some)
    }

    /// Runs the collector — one pass, or the refresh relocation of `refresh`
    /// — and books the result. The collector finding no destination chunk is
    /// spare exhaustion, as on the write path: the store degrades instead of
    /// wedging. Every other failure, a full log included, surfaces as it is.
    fn run_gc(
        &mut self,
        now: SimTime,
        refresh: Option<ChunkAddr>,
    ) -> Result<GcPass, BlockFtlError> {
        let wal = &mut self.journal.wal;
        let pass = match refresh {
            Some(victim) => self.gc.relocate_chunk(now, victim, &mut self.space, wal),
            None => self.gc.collect(now, &mut self.space, wal),
        }
        .map_err(|e| e.into_ftl(|| self.enter_degraded()))?;
        self.stats
            .gc_writes
            .record((pass.moved_sectors + pass.padded_sectors) * SECTOR_BYTES as u64);
        if refresh.is_none() {
            self.stats.gc_passes += 1;
            let group = self.gc.marked_group() as usize;
            self.gc_busy_until[group] = self.gc_busy_until[group].max(pass.done);
        }
        Ok(pass)
    }

    /// Drains device media events, diverting advisory `RefreshDue` flags
    /// into the scrubber's refresh queue; retiring events (program/erase
    /// failures, wear-out) pass through for bad-block ingestion.
    fn drain_and_queue_refreshes(&mut self) -> Vec<MediaEvent> {
        let events = self.media.drain_events();
        let mut retiring = Vec::with_capacity(events.len());
        for ev in events {
            if ev.kind.retires_chunk() {
                retiring.push(ev);
            } else if !self.refresh_queue.contains(&ev.chunk) {
                self.refresh_queue.push_back(ev.chunk);
                self.obs.metrics.record("oxblock.scrub.flagged", 0);
            }
        }
        retiring
    }

    /// Drains media events and re-places every orphaned page that is still
    /// readable on its retired chunk (a program failure freezes the chunk
    /// with its written prefix intact). Pages whose media is gone (wear-out
    /// took the whole chunk offline) cannot be salvaged by a single-copy
    /// FTL and stay unmapped; their reads return zeros, like
    /// trimmed pages. Returns `(done, salvaged, lost)`.
    pub fn repair_media_events(
        &mut self,
        now: SimTime,
    ) -> Result<(SimTime, usize, usize), BlockFtlError> {
        let events = self.drain_and_queue_refreshes();
        self.repair_events(now, &events)
    }

    /// The salvage loop behind [`BlockFtl::repair_media_events`], shared
    /// with the scrubber (whose patrol reads can surface retiring events).
    fn repair_events(
        &mut self,
        now: SimTime,
        events: &[MediaEvent],
    ) -> Result<(SimTime, usize, usize), BlockFtlError> {
        if events.is_empty() {
            return Ok((now, 0, 0));
        }
        let orphans = self.bbt.ingest(events, &mut self.space);
        let mut t = now;
        let mut salvaged = 0usize;
        let mut lost = 0usize;
        let mut buf = vec![0u8; SECTOR_BYTES];
        for o in orphans {
            match ox_core::retry::read_with_policy(
                self.media.as_ref(),
                t,
                o.ppa,
                1,
                &mut buf,
                Some(&self.obs.metrics),
            ) {
                Ok(o2) => {
                    t = o2.completion.done;
                    match self.write(t, o.lpn, &buf) {
                        Ok(w) => {
                            t = w.done;
                            self.stats.orphans_salvaged += 1;
                            salvaged += 1;
                        }
                        // Nowhere left to re-place the page: it stays
                        // unmapped, the salvage sweep keeps going.
                        Err(BlockFtlError::ReadOnly) => {
                            self.stats.orphans_lost += 1;
                            lost += 1;
                        }
                        Err(e) => return Err(e),
                    }
                }
                Err(_) => {
                    self.stats.orphans_lost += 1;
                    lost += 1;
                }
            }
        }
        self.obs.metrics.add("oxblock.repair", salvaged as u64, 0);
        self.obs
            .tracer
            .span(now, t, "oxblock", "repair", lost as u64);
        Ok((t, salvaged, lost))
    }

    /// Flips the store into degraded read-only mode (spare exhaustion) and
    /// returns the typed error callers surface. Sticky: there is no spare
    /// media left to recover with, so the only way out is device replacement.
    fn enter_degraded(&mut self) -> BlockFtlError {
        if !self.degraded {
            self.degraded = true;
            self.obs.metrics.record("oxblock.degraded", 0);
            self.obs.metrics.gauge_set("oxblock.degraded.mode", 1);
        }
        BlockFtlError::ReadOnly
    }

    /// Administratively fences the store into the same sticky degraded
    /// read-only state that spare exhaustion enters. Operators use this to
    /// stop writing to a device whose health telemetry (error trend,
    /// refresh backlog, wear spread) says it is dying, before it wedges a
    /// write mid-transaction; reads — and migration off the device — keep
    /// working.
    pub fn degrade_to_read_only(&mut self) {
        let _ = self.enter_degraded();
    }

    /// Whether the store has degraded to read-only (spare exhaustion).
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Chunks currently queued for refresh relocation.
    pub fn refresh_backlog(&self) -> usize {
        self.refresh_queue.len()
    }

    /// Runs one background scrub step at `now`:
    ///
    /// 1. **Patrol.** Walks `chunks_per_step` chunks onward from the patrol
    ///    cursor, reading the head write-unit of each closed chunk through
    ///    the GC-class tenant (so patrol traffic yields to user I/O). A
    ///    chunk is flagged for refresh when the device marked it
    ///    refresh-due, its estimated error rate crosses the configured
    ///    threshold, or the patrol read itself comes back uncorrectable.
    /// 2. **Refresh.** Relocates up to `refreshes_per_step` flagged chunks:
    ///    live data moves to fresh chunks (journaled exactly like GC moves),
    ///    the worn chunk is erased and recycled.
    ///
    /// A disabled scrubber returns an empty report without touching the
    /// device. In degraded mode the patrol still runs (it feeds health
    /// telemetry) but refreshes stop: there are no spare chunks to move
    /// data into.
    pub fn scrub_step(&mut self, now: SimTime) -> Result<ScrubReport, BlockFtlError> {
        let mut report = ScrubReport {
            done: now,
            ..Default::default()
        };
        if !self.config.scrub.enabled {
            return Ok(report);
        }
        // Patrol reads travel with GC relocation (the GC-class tenant when a
        // scheduler fronts the device).
        let scrub_media = self.gc.io_media().clone();
        let total = self.geo.total_chunks();
        let mut t = now;
        let mut buf = vec![0u8; self.geo.ws_min_bytes()];
        for _ in 0..u64::from(self.config.scrub.chunks_per_step).min(total) {
            let lin = self.scrub_cursor % total;
            self.scrub_cursor = (self.scrub_cursor + 1) % total;
            if self.space.prov.is_reserved(lin) {
                continue;
            }
            let addr = ChunkAddr::from_linear(&self.geo, lin);
            let health = self.media.chunk_health(t, addr);
            if health.state != ChunkState::Closed {
                continue;
            }
            report.scanned += 1;
            self.stats.scrub_chunks_scanned += 1;
            let mut suspect =
                health.refresh_due || health.error_ppm >= self.config.scrub.error_ppm_threshold;
            if health.write_ptr >= self.geo.ws_min {
                match scrub_media.read(t, addr.ppa(0), self.geo.ws_min, &mut buf) {
                    Ok(c) => t = c.done,
                    Err(DeviceError::UncorrectableRead(_)) => {
                        suspect = true;
                        report.read_errors += 1;
                        self.stats.scrub_read_errors += 1;
                        self.obs.metrics.record("oxblock.scrub.read_error", 0);
                    }
                    // Offline/failed chunks belong to the bad-block path,
                    // which the event drain below feeds.
                    Err(_) => {}
                }
            }
            if suspect && !self.refresh_queue.contains(&addr) {
                self.refresh_queue.push_back(addr);
                self.obs.metrics.record("oxblock.scrub.flagged", 0);
            }
        }

        // The patrol reads may have tripped fresh device flags (or even
        // retiring failures); absorb them before refreshing.
        let retiring = self.drain_and_queue_refreshes();
        let (rt, _, _) = self.repair_events(t, &retiring)?;
        t = rt;

        if !self.degraded {
            for _ in 0..self.config.scrub.refreshes_per_step {
                let Some(victim) = self.refresh_queue.pop_front() else {
                    break;
                };
                t = self.checkpoint_under_log_pressure(t)?;
                // Out of destination chunks the store degrades and the data
                // stays readable in place (refresh is preventive, not
                // corrective).
                let pass = self.run_gc(t, Some(victim))?;
                t = pass.done;
                if pass.victims > 0 {
                    report.refreshed += 1;
                    self.stats.scrub_refreshes += 1;
                    self.obs.metrics.record(
                        "oxblock.scrub.refresh",
                        pass.moved_sectors * SECTOR_BYTES as u64,
                    );
                }
            }
        }
        self.stats.scrub_steps += 1;
        report.queued = self.refresh_queue.len() as u64;
        report.done = t;
        self.obs
            .metrics
            .gauge_set("oxblock.scrub.queue", self.refresh_queue.len() as i64);
        self.obs
            .tracer
            .span(now, t, "oxblock", "scrub", report.scanned);
        Ok(report)
    }

    /// Runs one scrub step if scrubbing is enabled (the driver's background
    /// tick, alongside [`BlockFtl::maybe_checkpoint`] and
    /// [`BlockFtl::maybe_gc`]).
    pub fn maybe_scrub(&mut self, now: SimTime) -> Result<Option<ScrubReport>, BlockFtlError> {
        if !self.config.scrub.enabled {
            return Ok(None);
        }
        Ok(Some(self.scrub_step(now)?))
    }

    /// FTL statistics.
    pub fn stats(&self) -> &FtlStats {
        &self.stats
    }

    /// WAL frame/byte counters (metadata write amplification).
    pub fn wal_bytes_written(&self) -> u64 {
        self.journal.wal.bytes_written()
    }

    /// Free chunks remaining in the provisioner.
    pub fn free_chunks(&self) -> u32 {
        self.space.prov.free_chunks()
    }

    /// The planned metadata layout (for experiment harnesses).
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Logical pages currently mapped, ascending. A serving layer that
    /// stores self-identifying records uses this after recovery to rebuild
    /// its in-memory directory by reading only the pages that exist.
    pub fn mapped_lpns(&self) -> Vec<u64> {
        (0..self.logical_pages())
            .filter(|&l| self.space.map.lookup(l).is_some())
            .collect()
    }

    /// Number of mapped logical pages.
    pub fn mapped_pages(&self) -> u64 {
        self.space.map.mapped_count()
    }

    /// The bad-block table.
    // oxcheck:allow(unreferenced_pub): operator's read-only view of which chunks the FTL retired; the scrub and event tests assert on it.
    pub fn bad_blocks(&self) -> &BadBlockTable {
        &self.bbt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocssd::{DeviceConfig, OcssdDevice, SharedDevice};
    use ox_core::OcssdMedia;

    fn page(fill: u8) -> Vec<u8> {
        vec![fill; SECTOR_BYTES]
    }

    struct Rig {
        ftl: BlockFtl,
        dev: SharedDevice,
        t: SimTime,
    }

    fn rig_with(config: BlockFtlConfig) -> Rig {
        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::paper_tlc_scaled(22, 8)));
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
        let (ftl, t) = BlockFtl::format(media, config, SimTime::ZERO).unwrap();
        Rig { ftl, dev, t }
    }

    fn rig() -> Rig {
        rig_with(BlockFtlConfig::with_capacity(64 * 1024 * 1024))
    }

    #[test]
    fn write_read_round_trip() {
        let mut r = rig();
        let w = r.ftl.write(r.t, 10, &page(7)).unwrap();
        let mut out = page(0);
        r.ftl.read(w.done, 10, &mut out).unwrap();
        assert_eq!(out, page(7));
    }

    #[test]
    fn unwritten_pages_read_zero() {
        let mut r = rig();
        let mut out = page(9);
        let c = r.ftl.read(r.t, 500, &mut out).unwrap();
        assert_eq!(out, page(0));
        assert!(c.done > r.t);
    }

    #[test]
    fn overwrite_returns_latest() {
        let mut r = rig();
        let w1 = r.ftl.write(r.t, 3, &page(1)).unwrap();
        let w2 = r.ftl.write(w1.done, 3, &page(2)).unwrap();
        let mut out = page(0);
        r.ftl.read(w2.done, 3, &mut out).unwrap();
        assert_eq!(out[0], 2);
    }

    #[test]
    fn multi_page_write_round_trips() {
        let mut r = rig();
        // 1 MB transaction — the Figure 3 workload's upper bound.
        let mb: Vec<u8> = (0..256 * SECTOR_BYTES)
            .map(|i| (i / SECTOR_BYTES) as u8)
            .collect();
        let w = r.ftl.write(r.t, 100, &mb).unwrap();
        for p in 0..256u64 {
            let mut out = page(0);
            r.ftl.read(w.done, 100 + p, &mut out).unwrap();
            assert_eq!(out[0], p as u8, "page {p}");
        }
    }

    #[test]
    fn bounds_and_buffer_validation() {
        let mut r = rig();
        let cap_pages = r.ftl.logical_pages();
        assert!(matches!(
            r.ftl.write(r.t, cap_pages, &page(1)),
            Err(BlockFtlError::OutOfRange { .. })
        ));
        assert!(matches!(
            r.ftl
                .write(r.t, cap_pages - 1, &[page(1), page(2)].concat()),
            Err(BlockFtlError::OutOfRange { .. })
        ));
        assert!(matches!(
            r.ftl.write(r.t, 0, &[1, 2, 3]),
            Err(BlockFtlError::BadBuffer(3))
        ));
        let mut out = page(0);
        assert!(matches!(
            r.ftl.read(r.t, cap_pages, &mut out),
            Err(BlockFtlError::OutOfRange { .. })
        ));
    }

    #[test]
    fn trim_then_read_returns_zeros() {
        let mut r = rig();
        let w = r.ftl.write(r.t, 5, &page(5)).unwrap();
        let t = r.ftl.trim(w.done, 5, 1).unwrap();
        let mut out = page(9);
        r.ftl.read(t, 5, &mut out).unwrap();
        assert_eq!(out, page(0));
        assert_eq!(r.ftl.mapped_pages(), 0);
    }

    #[test]
    fn committed_writes_survive_crash_and_recovery() {
        let mut r = rig();
        let mut t = r.t;
        for i in 0..20u64 {
            t = r.ftl.write(t, i, &page(i as u8 + 1)).unwrap().done;
        }
        r.dev.crash(t);
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(r.dev.clone()));
        let (mut ftl2, outcome) =
            BlockFtl::recover(media, BlockFtlConfig::with_capacity(64 * 1024 * 1024), t).unwrap();
        assert_eq!(outcome.txns_committed, 20);
        for i in 0..20u64 {
            let mut out = page(0);
            ftl2.read(outcome.done, i, &mut out).unwrap();
            assert_eq!(out[0], i as u8 + 1, "lpn {i}");
        }
    }

    #[test]
    fn overwrites_survive_a_second_crash_with_no_checkpoint_in_between() {
        let config = BlockFtlConfig::with_capacity(64 * 1024 * 1024);
        let mut r = rig();
        let mut t = r.t;
        for round in 0..3u8 {
            for i in 0..20u64 {
                let fill = 100 * round + i as u8 + 1;
                t = r.ftl.write(t, i, &page(fill)).unwrap().done;
            }
            r.dev.crash(t);
            let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(r.dev.clone()));
            let (ftl, outcome) = BlockFtl::recover(media, config, t).unwrap();
            assert_eq!(outcome.txns_committed, 20, "round {round}");
            r.ftl = ftl;
            t = outcome.done;
            for i in 0..20u64 {
                let mut out = page(0);
                r.ftl.read(t, i, &mut out).unwrap();
                assert_eq!(out[0], 100 * round + i as u8 + 1, "round {round} lpn {i}");
            }
        }
    }

    #[test]
    fn torn_transaction_is_invisible_after_crash() {
        let mut r = rig();
        let mb = vec![0xEEu8; 64 * SECTOR_BYTES];
        let w1 = r.ftl.write(r.t, 0, &mb).unwrap();
        // Second big write: crash at its *submission* time, long before its
        // data/commit can be durable.
        let _ = r.ftl.write(w1.done, 0, &vec![0xDDu8; 64 * SECTOR_BYTES]);
        r.dev.crash(w1.done);
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(r.dev.clone()));
        let (mut ftl2, outcome) = BlockFtl::recover(
            media,
            BlockFtlConfig::with_capacity(64 * 1024 * 1024),
            w1.done,
        )
        .unwrap();
        // All-or-nothing: every page reads 0xEE (txn 1), none reads 0xDD.
        for p in 0..64u64 {
            let mut out = page(0);
            ftl2.read(outcome.done, p, &mut out).unwrap();
            assert_eq!(out[0], 0xEE, "page {p} must show txn 1 only");
        }
    }

    #[test]
    fn checkpoint_bounds_recovery_time() {
        // Enough transactions that truncation frees whole WAL chunks (one
        // frame per txn, 32 frames per scaled chunk).
        let n = 200u64;
        let mut r = rig();
        let mut t = r.t;
        for i in 0..n {
            t = r.ftl.write(t, i % 32, &page(i as u8)).unwrap().done;
        }
        // No checkpoint: recovery replays all of them.
        r.dev.crash(t);
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(r.dev.clone()));
        let (_, slow) =
            BlockFtl::recover(media, BlockFtlConfig::with_capacity(64 * 1024 * 1024), t).unwrap();

        // Same workload with a checkpoint at the midpoint.
        let mut r2 = rig();
        let mut t2 = r2.t;
        for i in 0..n / 2 {
            t2 = r2.ftl.write(t2, i % 32, &page(i as u8)).unwrap().done;
        }
        t2 = r2.ftl.checkpoint(t2).unwrap();
        for i in n / 2..n {
            t2 = r2.ftl.write(t2, i % 32, &page(i as u8)).unwrap().done;
        }
        r2.dev.crash(t2);
        let media2: Arc<dyn Media> = Arc::new(OcssdMedia::new(r2.dev.clone()));
        let (_, fast) =
            BlockFtl::recover(media2, BlockFtlConfig::with_capacity(64 * 1024 * 1024), t2).unwrap();

        assert_eq!(slow.txns_committed, n);
        assert_eq!(fast.txns_committed, n / 2);
        assert!(
            fast.duration < slow.duration,
            "checkpointed recovery must be faster: {} vs {}",
            fast.duration,
            slow.duration
        );
    }

    #[test]
    fn maybe_checkpoint_respects_interval_and_disable() {
        let mut r = rig();
        let w = r.ftl.write(r.t, 0, &page(1)).unwrap();
        // Interval (10 s) not elapsed.
        assert!(r.ftl.maybe_checkpoint(w.done).unwrap().is_none());
        let later = w.done + SimDuration::from_secs(11);
        assert!(r.ftl.maybe_checkpoint(later).unwrap().is_some());

        let mut cfg = BlockFtlConfig::with_capacity(64 * 1024 * 1024);
        cfg.checkpoint_interval = None;
        let mut r2 = rig_with(cfg);
        let w2 = r2.ftl.write(r2.t, 0, &page(1)).unwrap();
        let much_later = w2.done + SimDuration::from_secs(1000);
        assert!(r2.ftl.maybe_checkpoint(much_later).unwrap().is_none());
    }

    #[test]
    fn sustained_overwrites_trigger_gc_and_complete() {
        // Device (scaled): ~6.1 GB usable minus metadata. Logical space of
        // 48 MB with heavy overwrite forces chunk turnover; keep writing
        // several device-fulls of traffic and verify GC keeps up.
        let mut cfg = BlockFtlConfig::with_capacity(48 * 1024 * 1024);
        cfg.gc = GcConfig {
            low_watermark: 2000, // scaled device has 2144 chunks
            chunks_per_pass: 4,
            ..GcConfig::default()
        };
        let mut r = rig_with(cfg);
        let mut t = r.t;
        let buf = vec![0u8; 48 * SECTOR_BYTES];
        let pages = 48 * 1024 * 1024 / SECTOR_BYTES as u64;
        let mut gc_ran = false;
        for i in 0..3000u64 {
            let lpn = (i * 48) % (pages - 48);
            let out = r.ftl.write(t, lpn, &buf).unwrap();
            t = out.done;
            gc_ran |= out.gc_ran;
            t = r.ftl.maybe_checkpoint(t).unwrap().unwrap_or(t);
        }
        assert!(gc_ran, "watermark of 2000/2144 chunks must trip GC");
        assert!(r.ftl.stats().gc_passes > 0);
        assert!(r.ftl.free_chunks() > 0);
    }

    #[test]
    fn waf_accounts_padding_tax() {
        let mut r = rig();
        // Single-page transactions: each pays a full 96 KB unit + WAL frame.
        let mut t = r.t;
        for i in 0..10u64 {
            t = r.ftl.write(t, i, &page(1)).unwrap().done;
        }
        let stats = r.ftl.stats();
        assert_eq!(stats.user_writes.bytes(), 10 * SECTOR_BYTES as u64);
        assert_eq!(
            stats.physical_user_writes.bytes(),
            10 * 24 * SECTOR_BYTES as u64,
            "each 4 KB write burns one 96 KB unit"
        );
        assert!(stats.waf() >= 24.0);
    }

    #[test]
    fn disabled_scrub_is_a_noop() {
        let mut r = rig();
        let w = r.ftl.write(r.t, 0, &page(3)).unwrap();
        let rep = r.ftl.scrub_step(w.done).unwrap();
        assert_eq!(rep.scanned, 0);
        assert_eq!(rep.refreshed, 0);
        assert_eq!(rep.done, w.done);
        assert!(r.ftl.maybe_scrub(w.done).unwrap().is_none());
        assert_eq!(r.ftl.stats().scrub_steps, 0);
    }

    #[test]
    fn scrub_refreshes_read_disturbed_chunks() {
        // Reliability model tuned so read disturb dominates: after a few
        // hundred reads a chunk's error estimate crosses both the device's
        // refresh threshold and the scrubber's.
        let mut dc = DeviceConfig::with_geometry(ocssd::Geometry::small_slc());
        dc.reliability = ocssd::ReliabilityConfig {
            enabled: true,
            seed: 11,
            base_error_ppm: 40,
            wear_weight: 0.0,
            retention_age: SimDuration::from_secs(1_000_000),
            retention_weight: 0.0,
            disturb_limit: 200,
            disturb_weight: 100.0,
            refresh_threshold_ppm: 3_000,
            eol_erase_fail_ppm: 0,
        };
        let dev = SharedDevice::new(OcssdDevice::new(dc));
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev));
        let mut cfg = BlockFtlConfig::with_capacity(32 * 1024 * 1024);
        cfg.scrub = ScrubConfig {
            enabled: true,
            chunks_per_step: 512,
            refreshes_per_step: 4,
            error_ppm_threshold: 2_000,
        };
        let (mut ftl, mut t) = BlockFtl::format(media, cfg, SimTime::ZERO).unwrap();

        // Writes stripe across all 8 PUs, so eight chunk-fulls close eight
        // chunks. Then hammer the first page.
        let buf = vec![0xCD; 8 * 768 * SECTOR_BYTES];
        let w = ftl.write(t, 0, &buf).unwrap();
        t = w.done;
        let mut out = page(0);
        for _ in 0..400 {
            let c = ftl.read(t, 0, &mut out).unwrap();
            t = c.done + SimDuration::from_millis(1);
        }
        assert_eq!(out[0], 0xCD);

        // The device's advisory refresh flag is queued, never retired as a
        // bad block.
        assert_eq!(ftl.repair_media_events(t).unwrap(), (t, 0, 0));
        assert!(ftl.bad_blocks().is_empty());
        assert!(ftl.refresh_backlog() >= 1, "advisory flag queued");

        let rep = ftl.scrub_step(t).unwrap();
        assert!(rep.scanned >= 1);
        assert!(rep.refreshed >= 1, "disturbed chunk refresh-relocated");
        assert_eq!(ftl.refresh_backlog(), 0);
        assert!(ftl.stats().scrub_refreshes >= 1);
        t = rep.done;

        // Data intact on the fresh copy.
        for p in [0u64, 1, 767] {
            let mut out = page(0);
            ftl.read(t, p, &mut out).unwrap();
            assert_eq!(out[0], 0xCD, "page {p} after refresh");
        }
    }

    #[test]
    fn spare_exhaustion_degrades_to_read_only_without_wedging() {
        // GC disabled (watermark 0): churn drives the device to genuine
        // spare exhaustion.
        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::with_geometry(
            ocssd::Geometry::small_slc(),
        )));
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev));
        let mut cfg = BlockFtlConfig::with_capacity(16 * 1024 * 1024);
        cfg.gc.low_watermark = 0;
        let (mut ftl, mut t) = BlockFtl::format(media, cfg, SimTime::ZERO).unwrap();

        let buf = vec![0xABu8; 768 * SECTOR_BYTES]; // one small_slc chunk per write
        let w0 = ftl.write(t, 0, &buf).unwrap(); // acked data that must survive
        t = w0.done;
        let mut hit_read_only = false;
        for _ in 0..2000 {
            match ftl.write(t, 768, &buf) {
                Ok(w) => t = w.done,
                Err(BlockFtlError::ReadOnly) => {
                    hit_read_only = true;
                    break;
                }
                Err(e) => panic!("expected typed read-only degradation, got {e}"),
            }
        }
        assert!(hit_read_only, "exhaustion must surface as ReadOnly");
        assert!(ftl.is_degraded());

        // Degraded, not wedged: reads serve acknowledged data; writes and
        // trims keep returning the typed error.
        let mut out = page(0);
        ftl.read(t, 0, &mut out).unwrap();
        assert_eq!(out[0], 0xAB);
        assert!(matches!(
            ftl.write(t, 0, &page(1)),
            Err(BlockFtlError::ReadOnly)
        ));
        assert!(matches!(ftl.trim(t, 0, 1), Err(BlockFtlError::ReadOnly)));
        // A scrub step in degraded mode must not attempt refresh copies.
        let rep = ftl.scrub_step(t).unwrap();
        assert_eq!(rep.refreshed, 0);
    }

    #[test]
    fn a_full_log_inside_a_gc_pass_is_a_log_error_not_read_only() {
        // Four write units a chunk, a two-chunk WAL ring (eight frames) and
        // no checkpointing — Figure 3's blue line on a ring too small for
        // the run.
        let geo = Geometry {
            chunks_per_pu: 16,
            sectors_per_chunk: 16,
            ..Geometry::small_slc()
        };
        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::with_geometry(geo)));
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev));
        let mut cfg = BlockFtlConfig::with_capacity(1024 * 1024);
        cfg.layout.wal_chunks = 2;
        cfg.checkpoint_interval = None;
        cfg.gc.low_watermark = 110; // of 122 data chunks: due after two writes
        let (mut ftl, mut t) = BlockFtl::format(media, cfg, SimTime::ZERO).unwrap();

        // Close one chunk on every PU, then overwrite the first half: every
        // closed chunk keeps two live units for the collector to move.
        t = ftl
            .write(t, 0, &vec![0xA1; 128 * SECTOR_BYTES])
            .unwrap()
            .done;
        t = ftl
            .write(t, 0, &vec![0xB2; 64 * SECTOR_BYTES])
            .unwrap()
            .done;
        // Six more one-frame transactions fill the ring to the brim.
        for _ in 0..6 {
            t = ftl.trim(t, 200, 1).unwrap();
        }
        assert_eq!(ftl.wal_bytes_written(), 8 * geo.ws_min_bytes() as u64);

        // The pass relocates, then cannot commit: that is the log's error.
        // Plenty of spare chunks are left, so the store must stay writable
        // (a checkpoint or a bigger ring cures it; read-only never lifts).
        assert!(ftl.free_chunks() > 100);
        let full = ftl.maybe_gc(t).unwrap_err();
        assert_eq!(full, BlockFtlError::Wal(WalError::LogFull));
        assert!(!ftl.is_degraded());
        let mut out = page(0);
        ftl.read(t, 100, &mut out).unwrap();
        assert_eq!(out[0], 0xA1);
    }

    #[test]
    fn media_event_polling_retires_chunks() {
        let mut r = rig();
        let w = r.ftl.write(r.t, 0, &page(1)).unwrap();
        assert_eq!(r.ftl.repair_media_events(w.done).unwrap(), (w.done, 0, 0));
        assert!(r.ftl.bad_blocks().is_empty());
    }
}
