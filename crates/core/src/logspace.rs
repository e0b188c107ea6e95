//! The data-log write path every page-mapped FTL shares.
//!
//! OX-Block, OX-ELEOS, the KV-SSD value log and the collector's relocation
//! all write the same way: find room for one `ws_min` unit, program it,
//! point the page map at it, journal that, and make the data durable before
//! the commit record. [`LogSpace`] owns the page map and the provisioner of
//! one such log and is the single place four decisions are made:
//!
//! 1. **Placement with failover** ([`LogSpace::place`]): allocate a slot —
//!    device-wide for a host write, in the victim's group for a relocation
//!    — issue the caller's program or device copy, and when the error
//!    retires the chunk (`ocssd::DeviceError::retires_chunk`) take the
//!    chunk out of provisioning and retry on a fresh one. Every retry
//!    consumes a chunk, so the loop ends in success or
//!    [`SpaceError::OutOfSpace`] — spare exhaustion, which is not a full
//!    log.
//! 2. **Map-and-journal** ([`LogSpace::record`]): `lpns[k]` now lives at
//!    `slot + k`, in the map and — inside a transaction — in the WAL.
//! 3. **The force-at-commit barrier** ([`LogSpace::barrier`]): wait for
//!    exactly the chunks host writes were placed on since the last barrier.
//! 4. **Reset-or-retire** ([`reset_or_retire`]): an erased chunk returns to
//!    its pool, one whose erase fails leaves circulation.
//!
//! What an FTL still supplies is policy and content: where the bytes come
//! from, which logical pages they are, and whether a transaction is open.

use crate::mapping::PageMap;
use crate::media::Media;
use crate::provision::{Provisioner, WriteSlot};
use crate::wal::{Wal, WalError, WalRecord};
use ocssd::{ChunkAddr, Completion, DeviceError};
use ox_sim::SimTime;

/// Why the log space could not do what was asked. FTLs turn it into their
/// own error type with [`SpaceError::into_ftl`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpaceError {
    /// No healthy chunk is left to place a unit on: spare exhaustion.
    OutOfSpace,
    /// The journal failed (a full ring is [`WalError::LogFull`], and only
    /// that).
    Wal(WalError),
    /// A device command failed in a way that does not retire a chunk.
    Device(DeviceError),
}

impl SpaceError {
    /// This error in an FTL's own error type; `out_of_space` says (and
    /// does) what spare exhaustion means to that FTL.
    pub fn into_ftl<E>(self, out_of_space: impl FnOnce() -> E) -> E
    where
        E: From<WalError> + From<DeviceError>,
    {
        match self {
            SpaceError::OutOfSpace => out_of_space(),
            SpaceError::Wal(e) => e.into(),
            SpaceError::Device(e) => e.into(),
        }
    }
}

impl From<WalError> for SpaceError {
    fn from(e: WalError) -> Self {
        SpaceError::Wal(e)
    }
}

impl From<DeviceError> for SpaceError {
    fn from(e: DeviceError) -> Self {
        SpaceError::Device(e)
    }
}

/// Resets `chunk` and returns it to `prov`'s pool; a reset that fails with
/// a chunk-retiring error takes the chunk out of circulation instead
/// (`Ok(None)` — whatever it held is dead either way). Takes the provisioner
/// alone so that FTLs without a page map (LightLSM) share it.
pub fn reset_or_retire(
    media: &dyn Media,
    prov: &mut Provisioner,
    now: SimTime,
    chunk: ChunkAddr,
) -> Result<Option<Completion>, DeviceError> {
    match media.reset(now, chunk) {
        Ok(comp) => {
            prov.release_chunk(chunk);
            Ok(Some(comp))
        }
        Err(e) if e.retires_chunk() => {
            prov.mark_offline(chunk);
            Ok(None)
        }
        Err(e) => Err(e),
    }
}

/// The page map and chunk provisioner of one page-mapped log.
pub struct LogSpace {
    /// Logical page → physical sector. Lookups, unmaps and snapshots go to
    /// it directly; new mappings enter through [`LogSpace::record`].
    pub map: PageMap,
    /// Free pools, write points and the reserved (metadata) chunk set.
    /// Write slots leave it only through [`LogSpace::place`].
    pub prov: Provisioner,
    /// Chunks host writes were placed on since the last barrier.
    unflushed: Vec<ChunkAddr>,
}

impl LogSpace {
    /// A log space over `map` and `prov` (fresh ones at format, the
    /// recovered map and a *report chunk* provisioner at remount).
    pub fn new(map: PageMap, prov: Provisioner) -> Self {
        LogSpace {
            map,
            prov,
            unflushed: Vec::new(),
        }
    }

    /// Next slot: anywhere on the device, or — relocating off `victim` — in
    /// the victim's group (device-wide once that group is full) and never
    /// on the victim itself.
    fn allocate(&mut self, victim: Option<ChunkAddr>) -> Option<WriteSlot> {
        let Some(victim) = victim else {
            return self.prov.allocate_horizontal();
        };
        loop {
            let slot = self
                .prov
                .allocate_in_group(victim.group)
                .or_else(|| self.prov.allocate_horizontal())?;
            if slot.chunk != victim {
                return Some(slot);
            }
        }
    }

    /// Places one write unit: `program` issues it at the slot it is handed
    /// and is called again, after `on_failover`, for every chunk that had to
    /// be retired on the way. A host write (no `victim`) lands anywhere on
    /// the device and its chunk joins the set the next
    /// [`LogSpace::barrier`] waits for. A relocation off `victim` is issued
    /// as a device-internal copy, which bypasses the write cache and is
    /// durable at completion: it joins no barrier.
    pub fn place(
        &mut self,
        victim: Option<ChunkAddr>,
        mut program: impl FnMut(WriteSlot) -> Result<Completion, DeviceError>,
        mut on_failover: impl FnMut(),
    ) -> Result<(WriteSlot, Completion), SpaceError> {
        let (slot, comp) = loop {
            let slot = self.allocate(victim).ok_or(SpaceError::OutOfSpace)?;
            match program(slot) {
                Ok(comp) => break (slot, comp),
                // The destination froze (its written prefix stays
                // readable): retire it and try a fresh chunk.
                Err(e) if e.retires_chunk() => {
                    self.prov.mark_offline(slot.chunk);
                    on_failover();
                }
                Err(e) => return Err(e.into()),
            }
        };
        if victim.is_none() && !self.unflushed.contains(&slot.chunk) {
            self.unflushed.push(slot.chunk);
        }
        Ok((slot, comp))
    }

    /// Points `lpns[k]` at sector `slot + k` and, given an open transaction
    /// `(log, txid)`, appends the `MapUpdate` redo records to it. Sectors of
    /// the unit beyond `lpns` are padding.
    pub fn record(
        &mut self,
        slot: WriteSlot,
        lpns: impl IntoIterator<Item = u64>,
        mut txn: Option<(&mut Wal, u64)>,
    ) {
        let geo = self.prov.geometry();
        for (k, lpn) in lpns.into_iter().enumerate() {
            let ppa = slot.chunk.ppa(slot.sector + k as u32);
            self.map.map(lpn, ppa);
            if let Some((wal, txid)) = &mut txn {
                wal.append(WalRecord::MapUpdate {
                    txid: *txid,
                    lpn,
                    ppa_linear: ppa.linear(geo),
                });
            }
        }
    }

    /// Force-at-commit: waits, from the last write acknowledge `ack`, until
    /// every chunk placed on since the previous barrier is durable. Returns
    /// when the commit record may be written — a crash can then never
    /// replay a mapping whose sectors the write cache rolled back.
    pub fn barrier(&mut self, media: &dyn Media, ack: SimTime) -> SimTime {
        self.unflushed.drain(..).fold(ack, |durable, chunk| {
            durable.max(media.flush_chunk(ack, chunk).done)
        })
    }

    /// Commits at cache acknowledge instead: forgets the chunks placed on
    /// since the last barrier without waiting for them. Only for data no
    /// recovery will ever replay a mapping of.
    pub fn skip_barrier(&mut self) {
        self.unflushed.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::media::OcssdMedia;
    use ocssd::{
        ChunkInfo, ChunkState, DeviceConfig, EraseFault, FaultPlan, Geometry, MediaEvent,
        OcssdDevice, Ppa, SharedDevice,
    };
    use ox_sim::sync::Mutex;

    /// 4 groups × 2 PUs × 4 chunks of 4 write units: small enough to exhaust.
    fn geo() -> Geometry {
        Geometry {
            chunks_per_pu: 4,
            sectors_per_chunk: 16,
            ..Geometry::small_slc()
        }
    }

    fn space(reserved: &[u64]) -> LogSpace {
        LogSpace::new(
            PageMap::new(geo(), 1024),
            Provisioner::fresh(geo(), reserved),
        )
    }

    fn acked(_: WriteSlot) -> Result<Completion, DeviceError> {
        Ok(Completion {
            submitted: SimTime::ZERO,
            done: SimTime::ZERO,
        })
    }

    /// The device, with every `flush_chunk` it is asked for and every error
    /// a `reset` returns written down.
    struct FlushLog {
        inner: OcssdMedia,
        flushed: Mutex<Vec<ChunkAddr>>,
        reset_errors: Mutex<Vec<DeviceError>>,
    }

    impl FlushLog {
        fn new(plan: FaultPlan) -> (FlushLog, Wal) {
            let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::with_geometry(geo())));
            dev.set_fault_plan(plan);
            let media = FlushLog {
                inner: OcssdMedia::new(dev),
                flushed: Mutex::new(Vec::new()),
                reset_errors: Mutex::new(Vec::new()),
            };
            let ring = vec![ChunkAddr::new(0, 0, 0), ChunkAddr::new(0, 1, 0)];
            let log = std::sync::Arc::new(OcssdMedia::new(media.inner.device().clone()));
            let (wal, _) = Wal::format(log, ring, SimTime::ZERO).unwrap();
            (media, wal)
        }
    }

    impl Media for FlushLog {
        fn geometry(&self) -> Geometry {
            self.inner.geometry()
        }
        fn write(&self, now: SimTime, ppa: Ppa, data: &[u8]) -> ocssd::Result<Completion> {
            self.inner.write(now, ppa, data)
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
            self.reset_errors.lock().extend(result.clone().err());
            result
        }
        fn copy(&self, now: SimTime, srcs: &[Ppa], dst: ChunkAddr) -> ocssd::Result<Completion> {
            self.inner.copy(now, srcs, dst)
        }
        fn flush(&self, now: SimTime) -> Completion {
            self.inner.flush(now)
        }
        fn flush_chunk(&self, now: SimTime, chunk: ChunkAddr) -> Completion {
            self.flushed.lock().push(chunk);
            self.inner.flush_chunk(now, chunk)
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

    #[test]
    fn failover_is_bounded_by_the_chunk_supply_and_ends_out_of_space() {
        let mut space = space(&[0, 1]);
        let supply = geo().total_chunks() - 2;
        let (mut attempts, mut failovers) = (0u64, 0u64);
        let placed = space.place(
            None,
            |slot| {
                attempts += 1;
                Err(DeviceError::MediaFailure(slot.chunk))
            },
            || failovers += 1,
        );
        assert_eq!(placed, Err(SpaceError::OutOfSpace));
        assert_eq!((attempts, failovers), (supply, supply), "one per chunk");
        assert_eq!(space.prov.offline_chunks() as u64, supply);
        // Exhaustion is sticky, and a relocation sees the same typed value.
        assert_eq!(space.place(None, acked, || ()), Err(SpaceError::OutOfSpace));
        let victim = ChunkAddr::new(1, 0, 0);
        let moved = space.place(Some(victim), acked, || ());
        assert_eq!(moved, Err(SpaceError::OutOfSpace));
    }

    #[test]
    fn an_error_that_does_not_retire_the_chunk_is_not_retried() {
        let mut space = space(&[]);
        let mut attempts = 0;
        let placed = space.place(
            None,
            |slot| {
                attempts += 1;
                Err(DeviceError::UncorrectableRead(slot.chunk.ppa(0)))
            },
            || panic!("nothing was retired"),
        );
        assert!(matches!(placed, Err(SpaceError::Device(_))));
        assert_eq!((attempts, space.prov.offline_chunks()), (1, 0));
    }

    #[test]
    fn a_relocation_stays_in_the_victims_group_off_the_victim_until_the_group_is_full() {
        let mut space = space(&[]);
        let g = geo();
        // The victim is the chunk its PU is writing to: the slots it still
        // has are the first ones the group would hand out.
        let victim = space.prov.allocate_on_pu(2).unwrap().chunk;
        assert_eq!(victim.group, 1);
        let group_units = (g.pus_per_group * g.chunks_per_pu - 1) * g.write_units_per_chunk();
        for _ in 0..group_units {
            let (slot, _) = space.place(Some(victim), acked, || ()).unwrap();
            assert_eq!(slot.chunk.group, 1, "room in the group: stay there");
            assert_ne!(slot.chunk, victim);
        }
        let (slot, _) = space.place(Some(victim), acked, || ()).unwrap();
        assert_ne!(slot.chunk.group, 1, "group full: anywhere else");
    }

    #[test]
    fn the_barrier_flushes_each_chunk_placed_since_the_last_one_exactly_once() {
        let (media, _) = FlushLog::new(FaultPlan::default());
        let mut space = space(&[0, 4]);
        let unit = vec![7u8; geo().ws_min_bytes()];
        let mut placed = Vec::new();
        // Twelve units over eight PUs: four chunks are written twice.
        for _ in 0..12 {
            let program = |s: WriteSlot| media.write(SimTime::ZERO, s.chunk.ppa(s.sector), &unit);
            let (slot, _) = space.place(None, program, || ()).unwrap();
            if !placed.contains(&slot.chunk) {
                placed.push(slot.chunk);
            }
        }
        assert_eq!(placed.len(), 8);
        let ack = SimTime::ZERO;
        let durable = space.barrier(&media, ack);
        assert!(durable > ack, "the write cache had to drain");
        assert_eq!(
            *media.flushed.lock(),
            placed,
            "each once, in placement order"
        );
        space.barrier(&media, durable);
        assert_eq!(media.flushed.lock().len(), 8, "nothing placed since");

        // A relocated unit is durable when its copy completes: no flush.
        let srcs: Vec<Ppa> = (0..4).map(|s| placed[0].ppa(s)).collect();
        let copy = |s: WriteSlot| media.copy(durable, &srcs, s.chunk);
        space.place(Some(placed[0]), copy, || ()).unwrap();
        space.barrier(&media, durable);
        assert_eq!(media.flushed.lock().len(), 8);

        // Acknowledge semantics: placed, then forgotten without a wait.
        let program = |s: WriteSlot| media.write(durable, s.chunk.ppa(s.sector), &unit);
        space.place(None, program, || ()).unwrap();
        space.skip_barrier();
        space.barrier(&media, durable);
        assert_eq!(media.flushed.lock().len(), 8);
    }

    #[test]
    fn reset_or_retire_releases_on_success_and_retires_on_each_retiring_error() {
        let worn = ChunkAddr::new(2, 0, 1);
        let (media, _) = FlushLog::new(FaultPlan {
            erase_fails: vec![EraseFault {
                chunk: worn,
                at_wear: 0,
            }],
            ..FaultPlan::default()
        });
        let mut prov = Provisioner::fresh(geo(), &[]);
        let unit = vec![1u8; geo().ws_min_bytes()];
        let t = SimTime::ZERO;
        let free = prov.free_chunks();

        // Success: the erased chunk is back in its pool.
        let good = prov.take_free_chunk(0).unwrap();
        media.write(t, good.ppa(0), &unit).unwrap();
        assert!(reset_or_retire(&media, &mut prov, t, good)
            .unwrap()
            .is_some());
        assert_eq!((prov.free_chunks(), prov.offline_chunks()), (free, 0));

        // `MediaFailure` (the erase fails), then `ChunkOffline` (it stays
        // failed), then `InvalidChunkState` (a free chunk cannot be reset).
        media.write(t, worn.ppa(0), &unit).unwrap();
        let never_written = ChunkAddr::new(3, 1, 3);
        for (chunk, retired) in [(worn, 1), (worn, 1), (never_written, 2)] {
            assert_eq!(reset_or_retire(&media, &mut prov, t, chunk), Ok(None));
            assert_eq!(prov.offline_chunks(), retired);
        }
        assert_eq!(
            prov.free_chunks(),
            free - 2,
            "retired chunks left their pools"
        );
        assert_eq!(
            *media.reset_errors.lock(),
            [
                DeviceError::MediaFailure(worn),
                DeviceError::ChunkOffline(worn),
                DeviceError::InvalidChunkState {
                    chunk: never_written,
                    state: ChunkState::Free
                },
            ]
        );

        // Anything else is the caller's to see, and retires nothing.
        let nowhere = ChunkAddr::new(9, 0, 0);
        let error = reset_or_retire(&media, &mut prov, t, nowhere).unwrap_err();
        assert!(matches!(error, DeviceError::InvalidAddress(_)));
        assert_eq!(prov.offline_chunks(), 2);
    }

    #[test]
    fn a_failed_placement_leaves_map_and_log_untouched() {
        let (media, mut wal) = FlushLog::new(FaultPlan::default());
        let mut space = space(&[0, 4]);
        let txid = wal.begin();
        let logged = wal.next_lsn();
        let unit = vec![3u8; geo().ws_min_bytes()];
        let (slot, _) = space
            .place(
                None,
                |s| media.write(SimTime::ZERO, s.chunk.ppa(s.sector), &unit),
                || (),
            )
            .unwrap();
        // Placement alone changes neither; recording does, once per page —
        // the unit's fourth sector is padding.
        assert_eq!((space.map.mapped_count(), wal.next_lsn()), (0, logged));
        space.record(slot, [10, 11, 12], Some((&mut wal, txid)));
        assert_eq!(space.map.lookup(12), Some(slot.chunk.ppa(slot.sector + 2)));
        assert_eq!((space.map.mapped_count(), wal.next_lsn()), (3, logged + 3));
        // Outside a transaction only the map moves.
        space.record(slot, [10], None);
        assert_eq!(wal.next_lsn(), logged + 3);

        let failed = space.place(
            None,
            |s| Err(DeviceError::InvalidAddress(s.chunk.ppa(0))),
            || (),
        );
        assert!(failed.is_err());
        assert_eq!((space.map.mapped_count(), wal.next_lsn()), (3, logged + 3));
        assert_eq!(space.map.lookup(11), Some(slot.chunk.ppa(slot.sector + 1)));
    }
}
