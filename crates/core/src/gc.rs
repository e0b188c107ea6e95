//! Garbage collection with group-marked locality.
//!
//! OX-Block "marks a group for collection; then background threads recycle
//! victim chunks within that group. This guarantees locality of
//! interferences from garbage collection" (paper §4.3): on an SSD with N
//! independent groups, (N−1)/N of user I/O never queues behind GC — 93.75 %
//! at 16 groups, 87.5 % at 8.
//!
//! The collector is greedy (min-valid-count victim), relocates live sectors
//! with the device-internal copy command, journals the resulting map changes
//! as a WAL transaction *before* resetting the victim (so a crash between
//! relocation and checkpoint cannot resurrect stale mappings), and returns
//! reclaimed chunks to the provisioner.
//!
//! A pass runs at the queue depth of its copies. Every victim of a pass, and
//! every `ws_min` copy of a victim, is issued at the pass start; the
//! destinations round-robin over the group's PUs, so the copies overlap and
//! the victim's own PU — which reads each source page once — is the
//! bottleneck. Only the order durability needs is kept: a victim's remap
//! commits once its latest copy has completed, and the victim is reset once
//! that commit is durable. The pass is done when its slowest victim is.

use crate::logspace::{reset_or_retire, LogSpace, SpaceError};
use crate::media::Media;
use crate::provision::WriteSlot;
use crate::wal::Wal;
use ocssd::{ChunkAddr, ChunkState, Ppa};
use ox_sim::trace::Obs;
use ox_sim::SimTime;
use std::sync::Arc;

/// GC policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct GcConfig {
    /// Run GC when device-wide free chunks drop below this.
    pub low_watermark: u32,
    /// Victims to recycle per collection pass.
    pub chunks_per_pass: u32,
    /// Wear-leveling bias in victim selection: the greedy score becomes
    /// `valid_sectors + wear_bias × wear`, steering collection toward
    /// low-wear chunks so erase cycles spread instead of piling onto the
    /// emptiest chunks. Zero (the default) is pure greedy — byte-identical
    /// to the collector before the knob existed.
    pub wear_bias: u32,
}

impl Default for GcConfig {
    fn default() -> Self {
        GcConfig {
            low_watermark: 8,
            chunks_per_pass: 2,
            wear_bias: 0,
        }
    }
}

/// Result of one collection pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct GcPass {
    /// Chunks reclaimed.
    pub victims: u32,
    /// Live sectors relocated.
    pub moved_sectors: u64,
    /// Padding sectors written to satisfy `ws_min` (dead on arrival).
    pub padded_sectors: u64,
    /// Completion time of the pass.
    pub done: SimTime,
}

impl GcPass {
    /// Folds one recycled victim's sub-pass into this pass.
    fn absorb(&mut self, sub: GcPass) {
        self.victims += sub.victims;
        self.moved_sectors += sub.moved_sectors;
        self.padded_sectors += sub.padded_sectors;
        self.done = self.done.max(sub.done);
    }
}

/// Cumulative GC statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct GcStats {
    /// Collection passes run.
    pub passes: u64,
    /// Total victims reclaimed.
    pub victims: u64,
    /// Total live sectors moved.
    pub moved_sectors: u64,
    /// Total padding sectors.
    pub padded_sectors: u64,
    /// Relocation batches that failed over to a fresh destination chunk
    /// after a program failure.
    pub copy_failovers: u64,
    /// Victim resets that failed, forfeiting the chunk as a grown bad
    /// block instead of recycling it.
    pub reset_failures: u64,
}

/// The garbage collector.
pub struct GarbageCollector {
    config: GcConfig,
    /// Group currently marked for collection (GC activity is confined here).
    marked_group: u32,
    stats: GcStats,
    obs: Obs,
    /// The media the FTL is built on (*report chunk* for victim selection).
    media: Arc<dyn Media>,
    /// Where copies and resets issue: the media's GC route (an `iosched`
    /// GC-class tenant, so background relocation is arbitrated against —
    /// and yields to — user traffic) or, without one, the media itself.
    io: Arc<dyn Media>,
}

impl GarbageCollector {
    /// Creates a collector for an FTL built on `media`, reporting into the
    /// media's sinks (`gc.pass` / `gc.refresh` spans, `gc.*` counters) and
    /// relocating through its GC route. Chunks the log space it is run on
    /// reserves are never victims.
    pub fn new(media: &Arc<dyn Media>, config: GcConfig) -> Self {
        GarbageCollector {
            config,
            marked_group: 0,
            stats: GcStats::default(),
            obs: media.obs(),
            io: media.gc_route().unwrap_or_else(|| media.clone()),
            media: media.clone(),
        }
    }

    /// The media relocation I/O issues through; the FTL's other background
    /// reads (scrub patrol) share it.
    pub fn io_media(&self) -> &Arc<dyn Media> {
        &self.io
    }

    /// The group currently marked for collection.
    pub fn marked_group(&self) -> u32 {
        self.marked_group
    }

    /// Marks a specific group for collection.
    pub fn mark_group(&mut self, group: u32) {
        self.marked_group = group;
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> GcStats {
        self.stats
    }

    /// Whether a pass is warranted given the space's free pools.
    pub fn needs_gc(&self, space: &LogSpace) -> bool {
        space.prov.free_chunks() < self.config.low_watermark
    }

    /// Picks the lowest-scoring closed data chunk in the marked group
    /// (score = valid sectors, plus `wear_bias × wear` when wear leveling is
    /// on). Marks the next group if the current one has no victims (rotating
    /// the GC focus, as OX does between passes).
    fn select_victim(&mut self, space: &LogSpace) -> Option<ChunkAddr> {
        let geo = self.media.geometry();
        for _ in 0..geo.num_groups {
            let group = self.marked_group;
            let mut best: Option<(ChunkAddr, u64)> = None;
            for pu in 0..geo.pus_per_group {
                for chunk in 0..geo.chunks_per_pu {
                    let addr = ChunkAddr::new(group, pu, chunk);
                    let lin = addr.linear(&geo);
                    if space.prov.is_reserved(lin) {
                        continue;
                    }
                    let info = self.media.chunk_info(addr);
                    if info.state != ChunkState::Closed {
                        continue;
                    }
                    let valid = space.map.valid_count(lin);
                    if valid == geo.sectors_per_chunk {
                        continue; // nothing to reclaim
                    }
                    let score = valid as u64 + self.config.wear_bias as u64 * info.wear as u64;
                    if best.is_none_or(|(_, s)| score < s) {
                        best = Some((addr, score));
                    }
                }
            }
            if let Some((victim, _)) = best {
                return Some(victim);
            }
            // Nothing collectible here: rotate the marked group.
            self.marked_group = (self.marked_group + 1) % geo.num_groups;
        }
        None
    }

    /// Relocates `victim`'s live sectors, journals the remap, and erases the
    /// chunk: the shared machinery behind both collection passes and
    /// scrub-driven refresh. Every `ws_min` copy is issued at `now` — the
    /// destinations spread over the group's PUs, so they proceed in parallel
    /// — and the remap commits to the WAL once the last copy is durable,
    /// *before* the reset, so a crash in between cannot resurrect stale
    /// mappings. Returns the victim's sub-pass (reclaim/copy volume +
    /// completion time) for the caller to absorb.
    fn recycle_victim(
        &mut self,
        now: SimTime,
        victim: ChunkAddr,
        space: &mut LogSpace,
        wal: &mut Wal,
    ) -> Result<GcPass, SpaceError> {
        let mut pass = GcPass::default();
        let geo = self.io.geometry();
        let unit = geo.ws_min as usize;
        let live = space.map.valid_sectors(victim.linear(&geo));

        let mut t = now;
        if let Some(&(pad, _)) = live.last() {
            let txid = wal.begin();
            for batch in live.chunks(unit) {
                // One ws_min batch: pad with repeats of the last live
                // sector if the tail is short.
                let mut srcs: Vec<Ppa> = batch.iter().map(|&(ppa, _)| ppa).collect();
                srcs.resize(unit, pad);
                let (stats, obs) = (&mut self.stats, &self.obs);
                let copy = |slot: WriteSlot| self.io.copy(now, &srcs, slot.chunk);
                let (slot, comp) = space.place(Some(victim), copy, || {
                    stats.copy_failovers += 1;
                    obs.metrics.record("gc.copy_failover", 0);
                })?;
                // A copy is durable at completion: the commit waits for the
                // latest one.
                t = t.max(comp.done);
                space.record(slot, batch.iter().map(|&(_, lpn)| lpn), Some((wal, txid)));
                pass.moved_sectors += batch.len() as u64;
                pass.padded_sectors += (unit - batch.len()) as u64;
            }
            wal.end(txid);
            t = wal.commit(t)?;
        }

        // Victim is now dead; erase and recycle. An erase failure
        // retires the victim as a grown bad block (the device already
        // queued the media event). Its live data is relocated and
        // journaled, so the pass just forfeits the chunk rather than
        // failing the collection.
        match reset_or_retire(self.io.as_ref(), &mut space.prov, t, victim)? {
            Some(comp) => {
                t = comp.done;
                pass.victims += 1;
            }
            None => {
                self.stats.reset_failures += 1;
                self.obs.metrics.record("gc.reset_failure", 0);
            }
        }
        pass.done = t;
        self.stats.victims += pass.victims as u64;
        self.stats.moved_sectors += pass.moved_sectors;
        self.stats.padded_sectors += pass.padded_sectors;
        Ok(pass)
    }

    /// Runs one collection pass at `now` over `space`. Every victim starts
    /// at `now`, so the pass is done when its slowest victim is. Relocations
    /// stay inside the marked group; map changes are journaled through `wal`
    /// before the victim is reset. Returns what was reclaimed;
    /// [`SpaceError::OutOfSpace`] when a relocation found no destination
    /// chunk anywhere.
    pub fn collect(
        &mut self,
        now: SimTime,
        space: &mut LogSpace,
        wal: &mut Wal,
    ) -> Result<GcPass, SpaceError> {
        let mut pass = GcPass {
            done: now,
            ..Default::default()
        };
        for _ in 0..self.config.chunks_per_pass {
            let Some(victim) = self.select_victim(space) else {
                break;
            };
            let sub = self.recycle_victim(now, victim, space, wal)?;
            pass.absorb(sub);
        }
        self.stats.passes += 1;
        let moved_bytes = pass.moved_sectors * ocssd::SECTOR_BYTES as u64;
        self.obs.metrics.record("gc.pass", moved_bytes);
        self.obs.metrics.add("gc.victims", pass.victims as u64, 0);
        self.obs
            .metrics
            .add("gc.moved", pass.moved_sectors, moved_bytes);
        self.obs.metrics.add(
            "gc.padded",
            pass.padded_sectors,
            pass.padded_sectors * ocssd::SECTOR_BYTES as u64,
        );
        self.obs
            .metrics
            .gauge_set("gc.marked_group", self.marked_group as i64);
        self.obs
            .tracer
            .span(now, pass.done, "gc", "pass", moved_bytes);
        Ok(pass)
    }

    /// Refresh-relocates one caller-chosen chunk: moves its live data to
    /// fresh chunks, journals the remap, and erases the victim. This is the
    /// scrubber's entry point for chunks the device flags as refresh-due —
    /// unlike [`GarbageCollector::collect`] the victim may be fully valid
    /// (a retention refresh rewrites everything). Reserved chunks and chunks
    /// that are not `Closed` are skipped with an empty pass: the caller reads
    /// `victims == 0` as "not refreshed, try again later". Volume lands in
    /// `gc.refresh` rather than `gc.pass` metrics.
    pub fn relocate_chunk(
        &mut self,
        now: SimTime,
        victim: ChunkAddr,
        space: &mut LogSpace,
        wal: &mut Wal,
    ) -> Result<GcPass, SpaceError> {
        if space
            .prov
            .is_reserved(victim.linear(&self.media.geometry()))
            || self.media.chunk_info(victim).state != ChunkState::Closed
        {
            return Ok(GcPass {
                done: now,
                ..Default::default()
            });
        }
        let pass = self.recycle_victim(now, victim, space, wal)?;
        let moved_bytes = pass.moved_sectors * ocssd::SECTOR_BYTES as u64;
        self.obs.metrics.record("gc.refresh", moved_bytes);
        self.obs
            .tracer
            .span(now, pass.done, "gc", "refresh", moved_bytes);
        Ok(pass)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{Layout, LayoutConfig};
    use crate::mapping::PageMap;
    use crate::media::OcssdMedia;
    use crate::provision::Provisioner;
    use crate::wal::WalRecord;
    use ocssd::{
        ChunkInfo, Completion, DeviceConfig, FaultPlan, Geometry, MediaEvent, OcssdDevice,
        ProgramFault, SharedDevice, SECTOR_BYTES,
    };
    use ox_sim::sync::Mutex;
    use ox_sim::Prng;

    /// A command sent to the media, by the chunk it addresses (a copy's
    /// destination).
    #[derive(Clone, Copy, Debug)]
    enum Cmd {
        Copy(ChunkAddr),
        Write(ChunkAddr),
        FlushChunk(ChunkAddr),
        Reset(ChunkAddr),
    }

    /// A logged command: what, when it was issued, and when it completed
    /// (`None` when it failed).
    type Logged = (Cmd, SimTime, Option<SimTime>);

    /// The device, with every copy, write, chunk flush and reset sent to it
    /// written down in call order. Reads are not logged.
    struct Recorder {
        inner: OcssdMedia,
        log: Mutex<Vec<Logged>>,
    }

    impl Recorder {
        fn note(
            &self,
            cmd: Cmd,
            now: SimTime,
            result: ocssd::Result<Completion>,
        ) -> ocssd::Result<Completion> {
            let done = result.as_ref().ok().map(|c| c.done);
            self.log.lock().push((cmd, now, done));
            result
        }
    }

    impl Media for Recorder {
        fn geometry(&self) -> Geometry {
            self.inner.geometry()
        }
        fn write(&self, now: SimTime, ppa: Ppa, data: &[u8]) -> ocssd::Result<Completion> {
            let result = self.inner.write(now, ppa, data);
            self.note(Cmd::Write(ppa.chunk_addr()), now, result)
        }
        fn read(
            &self,
            now: SimTime,
            ppa: Ppa,
            n: u32,
            out: &mut [u8],
        ) -> ocssd::Result<Completion> {
            self.inner.read(now, ppa, n, out)
        }
        fn reset(&self, now: SimTime, chunk: ChunkAddr) -> ocssd::Result<Completion> {
            let result = self.inner.reset(now, chunk);
            self.note(Cmd::Reset(chunk), now, result)
        }
        fn copy(&self, now: SimTime, srcs: &[Ppa], dst: ChunkAddr) -> ocssd::Result<Completion> {
            let result = self.inner.copy(now, srcs, dst);
            self.note(Cmd::Copy(dst), now, result)
        }
        fn flush(&self, now: SimTime) -> Completion {
            self.inner.flush(now)
        }
        fn flush_chunk(&self, now: SimTime, chunk: ChunkAddr) -> Completion {
            let comp = self.inner.flush_chunk(now, chunk);
            self.log
                .lock()
                .push((Cmd::FlushChunk(chunk), now, Some(comp.done)));
            comp
        }
        fn chunk_info(&self, chunk: ChunkAddr) -> ChunkInfo {
            self.inner.chunk_info(chunk)
        }
        fn report_all(&self) -> Vec<(ChunkAddr, ChunkInfo)> {
            self.inner.report_all()
        }
        fn drain_events(&self) -> Vec<MediaEvent> {
            self.inner.drain_events()
        }
    }

    struct Rig {
        media: Arc<dyn Media>,
        rec: Arc<Recorder>,
        geo: Geometry,
        space: LogSpace,
        wal: Wal,
        layout: Layout,
        gc: GarbageCollector,
        t: SimTime,
    }

    fn rig() -> Rig {
        rig_on(Geometry::paper_tlc_scaled(22, 8))
    }

    fn rig_on(geo: Geometry) -> Rig {
        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::with_geometry(geo)));
        let rec = Arc::new(Recorder {
            inner: OcssdMedia::new(dev),
            log: Mutex::new(Vec::new()),
        });
        let media: Arc<dyn Media> = rec.clone();
        let layout = Layout::plan(&geo, LayoutConfig::default());
        let reserved = layout.reserved_linear(&geo);
        let space = LogSpace::new(
            PageMap::new(geo, 100_000),
            Provisioner::fresh(geo, &reserved),
        );
        let (wal, t) =
            Wal::format(media.clone(), layout.wal_chunks.clone(), SimTime::ZERO).unwrap();
        let gc = GarbageCollector::new(
            &media,
            GcConfig {
                chunks_per_pass: 1,
                ..GcConfig::default()
            },
        );
        Rig {
            media,
            rec,
            geo,
            space,
            wal,
            layout,
            gc,
            t,
        }
    }

    /// Writes `lpns` sequentially onto PU `pu` (device-linear), so chunks
    /// fill (and close) one at a time. Every sector starts with its lpn.
    fn fill(r: &mut Rig, lpns: std::ops::Range<u64>, pu: u32) {
        let mut lpns = lpns.peekable();
        while lpns.peek().is_some() {
            let slot = r.space.prov.allocate_on_pu(pu).expect("room to fill");
            let unit: Vec<u64> = lpns.by_ref().take(r.geo.ws_min as usize).collect();
            let mut data = vec![0x5Au8; r.geo.ws_min_bytes()];
            for (sector, lpn) in data.chunks_exact_mut(SECTOR_BYTES).zip(&unit) {
                sector[..8].copy_from_slice(&lpn.to_le_bytes());
            }
            let ppa = slot.chunk.ppa(slot.sector);
            r.t = r.media.write(r.t, ppa, &data).unwrap().done;
            r.space.record(slot, unit, None);
        }
        r.t = r.media.flush(r.t).done;
    }

    /// Reads `lpn` where the map points at `at` and checks it is that lpn's
    /// data.
    fn assert_reads_back(r: &Rig, lpn: u64, at: SimTime) {
        let ppa = r.space.map.lookup(lpn).expect("still mapped");
        let mut out = vec![0u8; SECTOR_BYTES];
        r.media.read(at, ppa, 1, &mut out).unwrap();
        assert_eq!(out[..8], lpn.to_le_bytes(), "lpn {lpn} at {ppa:?}");
    }

    /// Empties the recorder: the commands issued since the last call.
    fn take_log(r: &Rig) -> Vec<Logged> {
        std::mem::take(&mut *r.rec.log.lock())
    }

    /// Checks the order the collector keeps in `log`, victim by victim
    /// (each with live data): every copy is issued at the pass `start`, the
    /// remap commit (the WAL write) only once every copy before it has
    /// completed, and the victim's reset only once that commit is durable.
    /// Returns the number of victims reset.
    fn assert_journal_order(r: &Rig, log: &[Logged], start: SimTime) -> usize {
        let wal = |chunk: &ChunkAddr| r.layout.wal_chunks.contains(chunk);
        let (mut copied, mut durable, mut resets) = (None, None, 0);
        for &(cmd, issued, done) in log {
            match cmd {
                Cmd::Copy(dst) => {
                    assert_eq!(issued, start, "copy to {dst:?} issued at the pass start");
                    copied = copied.max(done);
                }
                Cmd::Write(chunk) if wal(&chunk) => {
                    let copied = copied.expect("a commit follows its victim's copies");
                    assert!(
                        issued >= copied,
                        "commit at {issued:?}, a copy done {copied:?}"
                    );
                }
                Cmd::FlushChunk(chunk) if wal(&chunk) => durable = done,
                Cmd::Reset(victim) if !wal(&victim) => {
                    let durable = durable.take().expect("a reset follows its commit");
                    assert!(issued >= durable, "{victim:?} reset before its commit");
                    copied = None;
                    resets += 1;
                }
                _ => {}
            }
        }
        resets
    }

    #[test]
    fn collect_reclaims_empty_closed_chunks_without_copies() {
        let mut r = rig();
        let units = r.geo.ws_min as u64;
        let chunk_lpns = r.geo.sectors_per_chunk as u64;
        // Fill exactly one chunk worth in group 0, then overwrite everything
        // (all sectors of the first chunk become invalid).
        fill(&mut r, 0..chunk_lpns, 0);
        fill(&mut r, 0..chunk_lpns, 0);
        let free_before = r.space.prov.free_chunks();
        r.gc.mark_group(0);
        let pass = r.gc.collect(r.t, &mut r.space, &mut r.wal).unwrap();
        assert!(pass.victims >= 1);
        assert_eq!(
            pass.moved_sectors, 0,
            "fully-invalid victim needs no copies"
        );
        assert!(r.space.prov.free_chunks() > free_before);
        let _ = units;
    }

    #[test]
    fn collect_relocates_live_data_and_remaps() {
        let mut r = rig();
        let chunk_lpns = r.geo.sectors_per_chunk as u64;
        let ws = r.geo.ws_min as u64;
        fill(&mut r, 0..chunk_lpns, 0);
        // Overwrite all but the first write unit: the victim keeps ws_min
        // live sectors.
        fill(&mut r, ws..chunk_lpns, 0);
        r.gc.mark_group(0);
        let before: Vec<_> = (0..r.geo.ws_min as u64)
            .map(|l| r.space.map.lookup(l).unwrap())
            .collect();
        let pass = r.gc.collect(r.t, &mut r.space, &mut r.wal).unwrap();
        assert!(pass.victims >= 1);
        assert_eq!(pass.moved_sectors, r.geo.ws_min as u64);
        for (l, old) in (0..r.geo.ws_min as u64).zip(before) {
            let new = r.space.map.lookup(l).expect("still mapped");
            assert_ne!(new, old, "lpn {l} relocated");
            // Relocation stays in the marked group.
            assert_eq!(new.group, 0);
            // And the data is readable there.
            assert_reads_back(&r, l, pass.done);
        }
    }

    #[test]
    fn gc_moves_are_journaled_before_reset() {
        let mut r = rig();
        let chunk_lpns = r.geo.sectors_per_chunk as u64;
        let ws = r.geo.ws_min as u64;
        fill(&mut r, 0..chunk_lpns, 0);
        fill(&mut r, ws..chunk_lpns, 0);
        r.gc.mark_group(0);
        let frames_before = r.wal.frames_written();
        r.gc.collect(r.t, &mut r.space, &mut r.wal).unwrap();
        assert!(
            r.wal.frames_written() > frames_before,
            "GC must commit a WAL transaction for its moves"
        );
        // The journaled moves are one committed transaction, under an id no
        // other transaction in the log has.
        let user = r.wal.begin();
        r.wal.end(user);
        r.t = r.wal.commit(r.t).unwrap();
        let (frames, _, _) = crate::wal::scan(&r.media, &r.layout.wal_chunks, r.t);
        let records = || frames.iter().flat_map(|f| &f.records);
        let begun: Vec<u64> = records()
            .filter_map(|rec| match rec {
                WalRecord::TxBegin { txid } => Some(*txid),
                _ => None,
            })
            .collect();
        assert_eq!(begun.len(), 2);
        assert_ne!(begun[0], begun[1], "every `TxBegin` id is distinct");
        assert!(records().any(|rec| *rec == WalRecord::TxCommit { txid: begun[0] }));
        assert!(records()
            .any(|rec| matches!(rec, WalRecord::MapUpdate { txid, .. } if *txid == begun[0])));
    }

    #[test]
    fn needs_gc_tracks_watermark() {
        let mut r = rig();
        assert!(!r.gc.needs_gc(&r.space));
        // Exhaust nearly all free chunks.
        let total = r.space.prov.free_chunks();
        for _ in 0..total.saturating_sub(4) {
            let pu = 0;
            let _ = r
                .space
                .prov
                .take_free_chunk(pu % r.geo.total_pus())
                .is_some()
                || (1..r.geo.total_pus()).any(|p| r.space.prov.take_free_chunk(p).is_some());
        }
        assert!(r.gc.needs_gc(&r.space));
    }

    #[test]
    fn marked_group_rotates_when_empty() {
        let mut r = rig();
        let chunk_lpns = r.geo.sectors_per_chunk as u64;
        // Only group 2 has a collectible chunk.
        let pu = 2 * r.geo.pus_per_group;
        fill(&mut r, 0..chunk_lpns, pu);
        fill(&mut r, 0..chunk_lpns, pu);
        r.gc.mark_group(0);
        let pass = r.gc.collect(r.t, &mut r.space, &mut r.wal).unwrap();
        assert!(pass.victims >= 1, "collector rotated to the busy group");
        assert_eq!(r.gc.marked_group(), 2);
    }

    /// Claims and fully writes one chunk on `pu` without mapping any lpns,
    /// so every sector is invalid from GC's point of view. Returns the
    /// chunk's address.
    fn write_unmapped_chunk(r: &mut Rig, pu: u32) -> ChunkAddr {
        let data = vec![0xA5u8; r.geo.ws_min_bytes()];
        let mut addr = None;
        for _ in 0..(r.geo.sectors_per_chunk / r.geo.ws_min) {
            let slot = r.space.prov.allocate_on_pu(pu).expect("out of space");
            let comp = r
                .media
                .write(r.t, slot.chunk.ppa(slot.sector), &data)
                .unwrap();
            r.t = comp.done;
            addr = Some(slot.chunk);
        }
        let f = r.media.flush(r.t);
        r.t = f.done;
        addr.unwrap()
    }

    #[test]
    fn wear_bias_steers_victim_selection_to_low_wear_chunks() {
        let mut r = rig();
        r.gc = GarbageCollector::new(
            &r.media,
            GcConfig {
                chunks_per_pass: 1,
                wear_bias: 1,
                ..GcConfig::default()
            },
        );
        let data = vec![0xA5u8; r.geo.ws_min_bytes()];
        // Chunk `a`: one extra erase cycle, then refilled (still fully
        // invalid). Chunk `b`: same occupancy, zero wear.
        let a = write_unmapped_chunk(&mut r, 0);
        r.t = r.media.reset(r.t, a).unwrap().done;
        let mut s = 0;
        while s < r.geo.sectors_per_chunk {
            r.t = r.media.write(r.t, a.ppa(s), &data).unwrap().done;
            s += r.geo.ws_min;
        }
        let b = write_unmapped_chunk(&mut r, 0);
        assert_ne!(a, b);
        assert_eq!(r.media.chunk_info(a).wear, 1);
        assert_eq!(r.media.chunk_info(b).wear, 0);
        r.gc.mark_group(0);
        let pass = r.gc.collect(r.t, &mut r.space, &mut r.wal).unwrap();
        assert_eq!(pass.victims, 1);
        assert_eq!(
            r.media.chunk_info(b).state,
            ChunkState::Free,
            "low-wear chunk collected first"
        );
        assert_eq!(
            r.media.chunk_info(a).state,
            ChunkState::Closed,
            "worn chunk spared"
        );
    }

    #[test]
    fn relocate_chunk_refreshes_a_fully_valid_chunk() {
        let mut r = rig();
        let chunk_lpns = r.geo.sectors_per_chunk as u64;
        fill(&mut r, 0..chunk_lpns, 0);
        let victim = r.space.map.lookup(0).unwrap().chunk_addr();
        assert_eq!(r.media.chunk_info(victim).state, ChunkState::Closed);
        // Fully valid, so normal GC refuses it...
        r.gc.mark_group(0);
        let gc_pass = r.gc.collect(r.t, &mut r.space, &mut r.wal).unwrap();
        assert_eq!(gc_pass.victims, 0, "fully-valid chunk is not a GC victim");
        // ...but a refresh relocates everything and erases it.
        let pass =
            r.gc.relocate_chunk(r.t, victim, &mut r.space, &mut r.wal)
                .unwrap();
        assert_eq!(pass.victims, 1);
        assert_eq!(pass.moved_sectors, r.geo.sectors_per_chunk as u64);
        assert_eq!(r.media.chunk_info(victim).state, ChunkState::Free);
        for l in 0..chunk_lpns {
            let new = r.space.map.lookup(l).expect("still mapped");
            assert_ne!(new.chunk_addr(), victim, "lpn {l} moved off the victim");
            assert_reads_back(&r, l, pass.done);
        }
    }

    #[test]
    fn relocate_chunk_skips_reserved_and_unclosed_chunks() {
        let mut r = rig();
        let reserved = r.layout.wal_chunks[0];
        let pass =
            r.gc.relocate_chunk(r.t, reserved, &mut r.space, &mut r.wal)
                .unwrap();
        assert_eq!(pass.victims, 0);
        assert_eq!(pass.moved_sectors, 0);
        // A never-written data chunk is not refreshable either.
        let slot = r.space.prov.allocate_on_pu(0).unwrap();
        let pass =
            r.gc.relocate_chunk(r.t, slot.chunk, &mut r.space, &mut r.wal)
                .unwrap();
        assert_eq!(pass.victims, 0);
    }

    #[test]
    fn no_destination_chunk_is_out_of_space_not_log_full() {
        let mut r = rig();
        let chunk_lpns = r.geo.sectors_per_chunk as u64;
        let ws = r.geo.ws_min as u64;
        fill(&mut r, 0..chunk_lpns, 0);
        fill(&mut r, ws..chunk_lpns, 0);
        // The victim holds one live unit and nothing is left to move it to.
        for pu in 0..r.geo.total_pus() {
            while r.space.prov.allocate_on_pu(pu).is_some() {}
        }
        r.gc.mark_group(0);
        let frames = r.wal.frames_written();
        let pass = r.gc.collect(r.t, &mut r.space, &mut r.wal);
        assert_eq!(pass.unwrap_err(), SpaceError::OutOfSpace);
        assert_eq!(
            r.wal.frames_written(),
            frames,
            "the log is nowhere near full"
        );
        assert!(r.wal.live_chunks() < r.wal.capacity_chunks());
    }

    #[test]
    fn nothing_to_collect_is_a_clean_noop() {
        let mut r = rig();
        let pass = r.gc.collect(r.t, &mut r.space, &mut r.wal).unwrap();
        assert_eq!(pass.victims, 0);
        assert_eq!(pass.moved_sectors, 0);
        assert_eq!(pass.done, r.t);
    }

    #[test]
    fn absorbing_an_earlier_sub_pass_keeps_the_later_completion() {
        let at = SimTime::from_micros;
        let mut pass = GcPass {
            done: at(5),
            ..Default::default()
        };
        for (done, moved) in [(at(9), 4), (at(7), 2)] {
            pass.absorb(GcPass {
                victims: 1,
                moved_sectors: moved,
                padded_sectors: 4 - moved,
                done,
            });
        }
        assert_eq!(
            (pass.victims, pass.moved_sectors, pass.padded_sectors),
            (2, 6, 2)
        );
        assert_eq!(pass.done, at(9), "the first victim is still erasing");
    }

    #[test]
    fn copies_to_k_distinct_pus_relocate_within_the_reads_and_one_program() {
        let mut r = rig();
        let (ws, per) = (r.geo.ws_min as u64, r.geo.pus_per_group);
        let chunk_lpns = r.geo.sectors_per_chunk as u64;
        // The victim sits on group 0's last PU and keeps k live units; the
        // group's write cursor sends them to the other k PUs, one each.
        let (victim_pu, k) = (per - 1, per as u64 - 1);
        fill(&mut r, 0..chunk_lpns, victim_pu);
        fill(&mut r, k * ws..chunk_lpns, victim_pu);
        r.gc.mark_group(0);
        take_log(&r);
        let start = r.t;
        let pass = r.gc.collect(start, &mut r.space, &mut r.wal).unwrap();
        assert_eq!((pass.victims, pass.moved_sectors), (1, k * ws));

        let copies: Vec<(ChunkAddr, SimTime)> = take_log(&r)
            .into_iter()
            .filter_map(|(cmd, _, done)| match cmd {
                Cmd::Copy(dst) => Some((dst, done.expect("no fault planned"))),
                _ => None,
            })
            .collect();
        let mut pus: Vec<u32> = copies
            .iter()
            .map(|(dst, _)| dst.pu_linear(&r.geo))
            .collect();
        pus.sort_unstable();
        pus.dedup();
        assert_eq!(pus.len() as u64, k, "one destination PU per unit");
        assert!(!pus.contains(&victim_pu));
        // The victim's PU reads every page address once (both planes at
        // once), back to back; the last unit's program follows its reads.
        // Chained copies take k programs.
        let nand = r.geo.cell.profile();
        assert!(r.geo.planes > 1, "a serial-plane read must break the bound");
        let page_addresses = k * ws / r.geo.page_address_sectors() as u64;
        let bound = start + nand.read_page * page_addresses + nand.program_time(1);
        let relocated = copies.iter().map(|&(_, done)| done).max().unwrap();
        assert!(
            relocated <= bound,
            "relocated at {relocated:?}, bound {bound:?}"
        );
    }

    #[test]
    fn each_commit_waits_for_its_copies_and_each_reset_for_its_commit() {
        let mut r = rig();
        r.gc = GarbageCollector::new(
            &r.media,
            GcConfig {
                chunks_per_pass: 2,
                ..GcConfig::default()
            },
        );
        let (ws, c) = (r.geo.ws_min as u64, r.geo.sectors_per_chunk as u64);
        // Two closed chunks keep two and three live units; the overwrites
        // close a third, fully valid one.
        fill(&mut r, 0..2 * c, 0);
        fill(&mut r, 2 * ws..c, 0);
        fill(&mut r, c + 3 * ws..2 * c, 0);
        r.gc.mark_group(0);
        take_log(&r);
        let start = r.t;
        let pass = r.gc.collect(start, &mut r.space, &mut r.wal).unwrap();
        assert_eq!((pass.victims, pass.moved_sectors), (2, 5 * ws));
        let log = take_log(&r);
        assert_eq!(assert_journal_order(&r, &log, start), 2);
        let last = log.iter().filter_map(|&(_, _, done)| done).max();
        assert_eq!(
            Some(pass.done),
            last,
            "the pass ends with its latest command"
        );
        for lpn in (0..2 * ws).chain(c..c + 3 * ws) {
            assert_reads_back(&r, lpn, pass.done);
        }
    }

    #[test]
    fn a_failed_relocation_copy_is_reissued_and_its_commit_waits_for_it() {
        for geo in ocssd::fault_geometries() {
            let (ws, c) = (geo.ws_min as u64, geo.sectors_per_chunk as u64);
            for seed in ocssd::matrix_seeds(8) {
                let ctx = format!("seed {seed} on {:?}", geo.cell);
                let mut rng = Prng::seed_from_u64(seed);
                let victim_pu = rng.gen_range(geo.total_pus() as u64) as u32;
                let k = rng.gen_range_in(2, 6);
                let failing = rng.gen_range(k);
                let setup = || {
                    let mut r = rig_on(geo);
                    fill(&mut r, 0..c, victim_pu);
                    fill(&mut r, k * ws..c, victim_pu);
                    r.gc.mark_group(victim_pu / geo.pus_per_group);
                    r
                };
                // A dry run shows where unit `failing` lands; the second run
                // fails that program.
                let mut dry = setup();
                dry.gc
                    .collect(dry.t, &mut dry.space, &mut dry.wal)
                    .expect(&ctx);
                let slot = dry.space.map.lookup(failing * ws).expect(&ctx);
                let mut r = setup();
                r.rec.inner.device().set_fault_plan(FaultPlan {
                    program_fails: vec![ProgramFault {
                        chunk: slot.chunk_addr(),
                        wp: slot.sector,
                    }],
                    ..FaultPlan::default()
                });
                take_log(&r);
                let start = r.t;
                let pass = r.gc.collect(start, &mut r.space, &mut r.wal).expect(&ctx);
                let log = take_log(&r);

                assert_eq!(r.gc.stats().copy_failovers, 1, "{ctx}");
                let failed = log
                    .iter()
                    .position(|&(cmd, _, done)| matches!(cmd, Cmd::Copy(_)) && done.is_none())
                    .unwrap_or_else(|| panic!("{ctx}: the planned fault never fired"));
                assert!(
                    matches!(log[failed + 1], (Cmd::Copy(dst), at, Some(_))
                    if at == start && dst != slot.chunk_addr()),
                    "{ctx}: the copy is re-placed and re-issued at the pass start"
                );
                assert_eq!(assert_journal_order(&r, &log, start), 1, "{ctx}");
                assert_ne!(r.space.map.lookup(failing * ws), Some(slot), "{ctx}");
                for lpn in 0..k * ws {
                    assert_reads_back(&r, lpn, pass.done);
                }
            }
        }
    }
}
