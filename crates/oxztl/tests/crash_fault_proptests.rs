//! oxztl under the shared crash + fault harness
//! ([`ox_core::faultharness`]): every acknowledged-and-synced write survives
//! frontier crashes — including power cuts landing mid-append and between a
//! GC pass's relocation appends and its zone resets — under seeded device
//! fault plans; torn tails never surface and reset zones never resurrect
//! dead records.
//!
//! The versioned-slot protocol maps onto the translation layer directly:
//! one slot is one append unit's worth of logical sectors, a write is
//! `write_sectors` + `sync` (the layer acks at cache; `sync` is the
//! durability barrier, so only synced versions count as committed), and
//! maintenance runs media-event ingestion plus `maybe_gc` — so GC passes
//! interleave the schedule and injected power cuts land around relocation
//! traffic. Failure messages name the seed to replay.

mod common;

use common::{tiny_cfg, tiny_geometry};
use ocssd::{
    matrix_seeds, ChunkInfo, DeviceConfig, FaultMix, FaultPlan, Geometry, OcssdDevice,
    SharedDevice, SECTOR_BYTES,
};
use ox_core::faultharness::{
    fingerprint, parse_fingerprint, run_case, FaultCase, FaultHost, TORN_VERSION,
};
use ox_core::{Media, OcssdMedia};
use ox_sim::SimTime;
use oxztl::{Stream, ZtlConfig, ZtlError, ZtlFtl, STREAMS};
use std::sync::Arc;

const SLOTS: u64 = 16;

/// Slots of the lap test: about half the exported capacity stays live, so
/// zones are recycled by relocation as well as by dying whole.
const LAP_SLOTS: u64 = 64;

/// oxztl under the harness: one slot version is one fingerprinted append
/// unit at a fixed logical offset.
struct ZtlHost {
    dev: SharedDevice,
    ftl: ZtlFtl,
    cfg: ZtlConfig,
    /// Payload sectors per slot (one append unit's data sectors).
    slot_sectors: u64,
    /// Completion of the last op, so a follow-on case starts after it.
    clock: SimTime,
    /// Streams that have appended since format, across remounts.
    streams_used: [bool; STREAMS],
}

impl ZtlHost {
    fn format(dev: SharedDevice, cfg: ZtlConfig) -> (Self, SimTime) {
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
        let (ftl, t) = ZtlFtl::format(media, cfg, SimTime::ZERO).unwrap();
        let slot_sectors = ftl.unit_data_sectors();
        assert!(
            LAP_SLOTS * slot_sectors <= ftl.capacity_sectors(),
            "slot space must fit the exported capacity"
        );
        (
            ZtlHost {
                dev,
                ftl,
                cfg,
                slot_sectors,
                clock: t,
                streams_used: [false; STREAMS],
            },
            t,
        )
    }

    fn note_streams(&mut self) {
        for s in Stream::ALL {
            self.streams_used[s.index()] |= self.ftl.stats().streams[s.index()].units > 0;
        }
    }

    fn lpn(&self, slot: u64) -> u64 {
        slot * self.slot_sectors
    }
}

impl FaultHost for ZtlHost {
    fn write(&mut self, now: SimTime, slot: u64, version: u32) -> Result<SimTime, String> {
        let data = fingerprint(slot, version, self.slot_sectors as usize * SECTOR_BYTES);
        let mut t = self
            .ftl
            .write_sectors(now, self.lpn(slot), &data)
            .map_err(|e| format!("{e:?}"))?;
        // The layer acks at cache; commitment is write + sync. The torn-tail
        // write runs at the crash instant and must be rolled back, so it
        // skips the barrier.
        if version != TORN_VERSION {
            t = self.ftl.sync(t).done;
        }
        self.clock = t;
        Ok(t)
    }

    fn read(&mut self, now: SimTime, slot: u64) -> Result<Option<u32>, String> {
        let mut out = vec![0u8; self.slot_sectors as usize * SECTOR_BYTES];
        match self
            .ftl
            .read_sectors(now, self.lpn(slot), self.slot_sectors as u32, &mut out)
        {
            Ok(_) => {}
            Err(ZtlError::Unmapped(_)) => return Ok(None),
            Err(e) => return Err(format!("{e:?}")),
        }
        match parse_fingerprint(&out) {
            Some((s, v)) if s == slot => Ok(Some(v)),
            Some((s, v)) => Err(format!("slot {slot} returned slot {s} v{v} content")),
            None => Err(format!("slot {slot} returned torn bytes")),
        }
    }

    fn maintain(&mut self, now: SimTime) -> Result<SimTime, String> {
        self.ftl.ingest_media_events();
        // GC interleaves the schedule, so injected power cuts land around
        // relocation appends and zone resets.
        self.clock = self.ftl.maybe_gc(now).map_err(|e| format!("{e:?}"))?;
        Ok(self.clock)
    }

    fn crash_and_recover(&mut self, now: SimTime) -> Result<SimTime, String> {
        self.note_streams();
        self.dev.crash(now);
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(self.dev.clone()));
        let (ftl, t) = ZtlFtl::open(media, self.cfg, now).map_err(|e| format!("{e:?}"))?;
        self.ftl = ftl;
        self.clock = t;
        Ok(t)
    }
}

fn fault_mix() -> FaultMix {
    FaultMix {
        program_fails: 3,
        transient_read_fails: 4,
        permanent_read_fails: 0,
        erase_fails: 2,
        latency_spikes: 1,
        power_cuts: 1,
    }
}

#[test]
fn committed_writes_survive_crash_at_any_append_boundary() {
    let geo = tiny_geometry();
    for seed in 0..16u64 {
        let mut case = FaultCase::from_seed(seed, &geo, &FaultMix::default(), SLOTS, 24);
        case.plan = FaultPlan::default(); // pure crash coverage, no faults
        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::with_geometry(geo)));
        let (mut host, t) = ZtlHost::format(dev.clone(), tiny_cfg());
        let report = run_case(&case, &dev, &mut host, t)
            .unwrap_or_else(|e| panic!("crash case failed: {e}"));
        assert_eq!(
            report.failed_writes, 0,
            "seed {seed}: no faults, no failed writes"
        );
        assert_eq!(report.ledger.total(), 0, "seed {seed}: empty plan is inert");
    }
}

#[test]
fn committed_writes_survive_crash_under_seeded_fault_plans() {
    let geo = tiny_geometry();
    let mix = fault_mix();
    let mut fired = 0u64;
    let mut gc_passes = 0u64;
    for seed in matrix_seeds(16) {
        let case = FaultCase::from_seed(seed, &geo, &mix, SLOTS, 24);
        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::with_geometry(geo)));
        let (mut host, t) = ZtlHost::format(dev.clone(), tiny_cfg());
        // Arm after format so setup itself is fault-free.
        dev.set_fault_plan(case.plan.clone());
        let report = run_case(&case, &dev, &mut host, t)
            .unwrap_or_else(|e| panic!("fault case failed: {e}"));
        fired += report.ledger.total();
        gc_passes += host.ftl.stats().gc_passes;
        let stats = dev.stats();
        assert_eq!(
            stats.injected_program_fails
                + stats.injected_read_fails
                + stats.injected_erase_fails
                + stats.injected_latency_spikes
                + stats.injected_power_cuts,
            report.ledger.total(),
            "seed {seed}: DeviceStats reconcile with the injector ledger"
        );
    }
    assert!(
        fired > 0,
        "across all seeds at least some injected faults must fire"
    );
    let _ = gc_passes; // pre-crash passes; post-crash stats reset at open
}

/// Same seed, armed plan vs clean device: both runs must recover, the
/// clean run commits every scheduled op, and replaying the faulty case is
/// bit-deterministic (identical report, identical recovered versions).
#[test]
fn faulty_and_clean_runs_reconcile_on_the_same_seed() {
    let geo = tiny_geometry();
    let mix = fault_mix();
    for seed in matrix_seeds(6) {
        let case = FaultCase::from_seed(seed, &geo, &mix, SLOTS, 24);

        let run_once = |armed: bool| {
            let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::with_geometry(geo)));
            let (mut host, t) = ZtlHost::format(dev.clone(), tiny_cfg());
            if armed {
                dev.set_fault_plan(case.plan.clone());
            }
            let report = run_case(&case, &dev, &mut host, t)
                .unwrap_or_else(|e| panic!("seed {seed} (armed={armed}): {e}"));
            let t = SimTime::ZERO;
            let versions: Vec<Option<u32>> = (0..SLOTS)
                .map(|slot| {
                    host.read(t, slot)
                        .unwrap_or_else(|e| panic!("seed {seed} (armed={armed}) slot {slot}: {e}"))
                })
                .collect();
            (report, versions)
        };

        let (clean_report, _) = run_once(false);
        assert_eq!(
            clean_report.failed_writes, 0,
            "seed {seed}: clean run must commit every op"
        );
        let (faulty_a, versions_a) = run_once(true);
        let (faulty_b, versions_b) = run_once(true);
        assert_eq!(
            (
                faulty_a.committed,
                faulty_a.failed_writes,
                faulty_a.power_cut
            ),
            (
                faulty_b.committed,
                faulty_b.failed_writes,
                faulty_b.power_cut
            ),
            "seed {seed}: faulty replay diverged"
        );
        assert_eq!(
            versions_a, versions_b,
            "seed {seed}: recovered versions diverged between identical runs"
        );
    }
}

/// Fill, overwrite (turning the first generation into garbage), force GC so
/// victims are relocated and reset, then crash and remount: every slot must
/// read its *latest* version — never a resurrected first-generation record —
/// and trimmed slots must stay unmapped across GC + crash.
#[test]
fn reset_zones_never_resurrect_dead_records() {
    for seed in matrix_seeds(6) {
        let geo = tiny_geometry();
        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::with_geometry(geo)));
        let (mut host, t0) = ZtlHost::format(dev.clone(), tiny_cfg());
        let mut t = t0;

        // Generation 1 everywhere, then generation 2 everywhere: gen-1
        // records are now all garbage.
        for gen in 0..2u32 {
            for slot in 0..SLOTS {
                t = host
                    .write(t, slot, 1000 * (gen + 1) + slot as u32)
                    .unwrap_or_else(|e| panic!("seed {seed}: gen {gen} slot {slot}: {e}"));
            }
        }
        // Trim one seeded slot durably.
        let trimmed = seed % SLOTS;
        let lpn = host.lpn(trimmed);
        let sectors = host.slot_sectors;
        t = host
            .ftl
            .trim(t, lpn, sectors)
            .unwrap_or_else(|e| panic!("seed {seed}: trim: {e}"));

        // Drive GC until it stops finding victims, so gen-1 zones get
        // relocated and reset while gen-2 records stay live.
        for _ in 0..8 {
            let before = host.ftl.stats().gc_passes;
            t = host.ftl.maybe_gc(t).unwrap();
            if host.ftl.stats().gc_passes == before {
                break;
            }
        }
        let resets = host.ftl.stats().zone_resets;
        assert!(
            resets > 0,
            "seed {seed}: overwriting the whole slot space must recycle zones"
        );

        t = host.crash_and_recover(t).unwrap();
        for slot in 0..SLOTS {
            let got = host
                .read(t, slot)
                .unwrap_or_else(|e| panic!("seed {seed}: slot {slot} after recovery: {e}"));
            if slot == trimmed {
                assert_eq!(
                    got, None,
                    "seed {seed}: trimmed slot {slot} resurrected after GC + crash"
                );
            } else {
                assert_eq!(
                    got,
                    Some(2000 + slot as u32),
                    "seed {seed}: slot {slot} lost its latest version after GC + crash"
                );
            }
        }
    }
}

/// The device's own report of every zone's chunks.
fn zones_on_media(dev: &SharedDevice, geo: &Geometry, chunks_per_zone: u32) -> Vec<Vec<ChunkInfo>> {
    let mut zones = Vec::new();
    for pu in 0..geo.total_pus() {
        for row in 0..geo.chunks_per_pu / chunks_per_zone {
            let chunk = |i| {
                let (group, unit) = (pu / geo.pus_per_group, pu % geo.pus_per_group);
                dev.chunk_info(ocssd::ChunkAddr::new(
                    group,
                    unit,
                    row * chunks_per_zone + i,
                ))
            };
            zones.push((0..chunks_per_zone).map(chunk).collect());
        }
    }
    zones
}

/// Fewest erases any zone has seen, over the zones still in service (a zone
/// with a chunk the fault plan took offline is out of the ring for good).
fn fewest_laps(dev: &SharedDevice, geo: &Geometry, chunks_per_zone: u32) -> u32 {
    let in_service =
        |chunks: &Vec<ChunkInfo>| chunks.iter().all(|c| c.state != ocssd::ChunkState::Offline);
    zones_on_media(dev, geo, chunks_per_zone)
        .iter()
        .filter(|chunks| in_service(chunks))
        .flat_map(|chunks| chunks.iter().map(|c| c.wear))
        .min()
        .unwrap_or(u32::MAX)
}

/// Zones holding some data but not full, by the device's own report.
fn open_zones_on_media(dev: &SharedDevice, geo: &Geometry, chunks_per_zone: u32) -> usize {
    let full = chunks_per_zone * geo.sectors_per_chunk;
    zones_on_media(dev, geo, chunks_per_zone)
        .iter()
        .map(|chunks| chunks.iter().map(|c| c.write_ptr).sum::<u32>())
        .filter(|&written| written > 0 && written < full)
        .count()
}

/// Lap test (ROADMAP "make the gate mean it" (4)): the zone ring is driven
/// until every zone still in service has been reset three times, as a chain
/// of seeded cases on one device armed with the seed's fault plan — each
/// case cuts power at a seeded append boundary (or where the plan's power
/// cut fires), remounts and checks every write acknowledged since the last
/// cut. Every stream this configuration uses must have appended on the way.
/// Then the device, left with one open zone per stream, is mounted under a
/// configuration with fewer streams than that: the surplus is finished, the
/// mount serves every slot, keeps writing through more GC, and a final
/// mount under the original configuration still reads the latest versions.
#[test]
fn zone_ring_survives_laps_under_the_fault_matrix() {
    let geo = tiny_geometry();
    let cfg = tiny_cfg();
    for seed in matrix_seeds(8) {
        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::with_geometry(geo)));
        let (mut host, _) = ZtlHost::format(dev.clone(), cfg);
        dev.set_fault_plan(FaultPlan::random(seed, &geo, &fault_mix()));
        let mut latest = vec![None; LAP_SLOTS as usize];
        let mut rounds = 0u64;
        while fewest_laps(&dev, &geo, cfg.chunks_per_zone) < 3 {
            assert!(rounds < 400, "seed {seed}: ring stopped turning");
            let case_seed = seed.wrapping_mul(1_000_003).wrapping_add(rounds);
            let mut case =
                FaultCase::from_seed(case_seed, &geo, &FaultMix::default(), LAP_SLOTS, 96);
            // Versions grow across the chain so "latest" stays meaningful.
            for (_, version) in &mut case.ops {
                *version += (rounds as u32 + 1) * 1000;
            }
            let start = host.clock;
            run_case(&case, &dev, &mut host, start)
                .unwrap_or_else(|e| panic!("seed {seed} round {rounds}: {e}"));
            for slot in 0..LAP_SLOTS {
                let now = host.clock;
                let got = host
                    .read(now, slot)
                    .unwrap_or_else(|e| panic!("seed {seed} round {rounds} slot {slot}: {e}"));
                // A version may only ever move forward.
                assert!(
                    got >= latest[slot as usize],
                    "seed {seed} round {rounds}: slot {slot} went back to {got:?}"
                );
                latest[slot as usize] = got;
            }
            rounds += 1;
        }
        host.note_streams();
        for s in [Stream::Hot, Stream::Cold, Stream::GcOld] {
            assert!(
                host.streams_used[s.index()],
                "seed {seed}: {s:?} never appended"
            );
        }
        if host.ftl.is_degraded() {
            continue; // the plan retired too many zones to go on writing
        }

        // Leave one open zone per stream behind, then mount with fewer.
        let mut t = host.clock;
        for slot in 0..LAP_SLOTS {
            let version = 900_000 + slot as u32;
            match host.write(t, slot, version) {
                Ok(done) => {
                    t = done;
                    latest[slot as usize] = Some(version);
                }
                Err(e) => panic!("seed {seed}: refill slot {slot}: {e}"),
            }
            t = host.maintain(t).unwrap();
        }
        host.cfg = ZtlConfig {
            open_zones: 1,
            gc_reserve_zones: 1,
            ..cfg
        };
        t = host.crash_and_recover(t).unwrap();
        assert!(
            open_zones_on_media(&dev, &geo, cfg.chunks_per_zone) as u32 > host.cfg.open_zones,
            "seed {seed}: the cut should have left several zones open"
        );
        for round in 0..6u32 {
            for slot in 0..LAP_SLOTS {
                assert_eq!(
                    host.read(t, slot).unwrap(),
                    latest[slot as usize],
                    "seed {seed}: slot {slot} under the smaller configuration"
                );
                let version = 1_000_000 + round * 1000 + slot as u32;
                t = host
                    .write(t, slot, version)
                    .unwrap_or_else(|e| panic!("seed {seed}: rewrite {round}/{slot}: {e}"));
                latest[slot as usize] = Some(version);
                t = host.maintain(t).unwrap();
            }
        }
        assert!(
            !host.ftl.is_degraded(),
            "seed {seed}: degraded after remount"
        );
        host.cfg = cfg;
        t = host.crash_and_recover(t).unwrap();
        for slot in 0..LAP_SLOTS {
            assert_eq!(
                host.read(t, slot).unwrap(),
                latest[slot as usize],
                "seed {seed}"
            );
        }
    }
}
