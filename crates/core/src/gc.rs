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
        self.done = sub.done;
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
    /// scrub-driven refresh. Map changes commit to the WAL *before* the
    /// reset, so a crash in between cannot resurrect stale mappings. Returns
    /// the victim's sub-pass (reclaim/copy volume + completion time) for the
    /// caller to absorb.
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
                let copy = |slot: WriteSlot| self.io.copy(t, &srcs, slot.chunk);
                let (slot, comp) = space.place(Some(victim), copy, || {
                    stats.copy_failovers += 1;
                    obs.metrics.record("gc.copy_failover", 0);
                })?;
                t = comp.done;
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

    /// Runs one collection pass at `now` over `space`. Relocations stay
    /// inside the marked group; map changes are journaled through `wal`
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
            let sub = self.recycle_victim(pass.done, victim, space, wal)?;
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
    use ocssd::{DeviceConfig, Geometry, OcssdDevice, SharedDevice};

    struct Rig {
        media: Arc<dyn Media>,
        geo: Geometry,
        space: LogSpace,
        wal: Wal,
        layout: Layout,
        gc: GarbageCollector,
        t: SimTime,
    }

    fn rig() -> Rig {
        let geo = Geometry::paper_tlc_scaled(22, 8);
        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::with_geometry(geo)));
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev));
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
            geo,
            space,
            wal,
            layout,
            gc,
            t,
        }
    }

    /// Writes `lpns` sequentially onto the first PU of `group`, so chunks
    /// fill (and close) one at a time.
    fn fill(r: &mut Rig, lpns: std::ops::Range<u64>, group: u32) {
        let data = vec![0x5Au8; r.geo.ws_min_bytes()];
        let pu = group * r.geo.pus_per_group;
        let mut lpn_iter = lpns.into_iter();
        'outer: loop {
            let Some(slot) = r.space.prov.allocate_on_pu(pu) else {
                panic!("out of space during fill");
            };
            let comp = r
                .media
                .write(r.t, slot.chunk.ppa(slot.sector), &data)
                .unwrap();
            r.t = comp.done;
            for k in 0..r.geo.ws_min {
                let Some(lpn) = lpn_iter.next() else {
                    break 'outer;
                };
                r.space.map.map(lpn, slot.chunk.ppa(slot.sector + k));
            }
        }
        let f = r.media.flush(r.t);
        r.t = f.done;
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
            let mut out = vec![0u8; ocssd::SECTOR_BYTES];
            r.media.read(pass.done, new, 1, &mut out).unwrap();
            assert_eq!(out[0], 0x5A);
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
        fill(&mut r, 0..chunk_lpns, 2);
        fill(&mut r, 0..chunk_lpns, 2);
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
            let mut out = vec![0u8; ocssd::SECTOR_BYTES];
            r.media.read(pass.done, new, 1, &mut out).unwrap();
            assert_eq!(out[0], 0x5A, "lpn {l} readable after refresh");
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
}
