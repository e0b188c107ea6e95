//! LightLSM under the shared crash + fault harness
//! ([`ox_core::faultharness`]): committed SSTable flushes survive frontier
//! crashes and seeded device fault plans; torn flushes never surface.
//!
//! The versioned-slot protocol maps onto the LSM environment as one
//! single-block fingerprinted SSTable per write; an overwrite flushes the
//! new table, then deletes the slot's previous one (the LSM's compaction
//! discipline in miniature). Failure messages name the seed to replay.

use lightlsm::{LightLsm, LightLsmConfig, TableId};
use ocssd::{
    matrix_geometry, matrix_seeds, ChunkAddr, DeviceConfig, FaultMix, FaultPlan, Geometry,
    OcssdDevice, ProgramFault, ReadFault, SharedDevice,
};
use ox_core::faultharness::{
    fingerprint, parse_fingerprint, run_case, FaultCase, FaultHost, TORN_VERSION,
};
use ox_core::{Media, OcssdMedia};
use ox_sim::SimTime;
use std::collections::BTreeMap;
use std::sync::Arc;

const SLOTS: u64 = 16;

/// LightLSM under the harness: one slot version is one single-block SSTable.
struct LsmHost {
    dev: SharedDevice,
    ftl: LightLsm,
    config: LightLsmConfig,
    /// Table holding the latest *committed* version per slot.
    latest: BTreeMap<u64, TableId>,
}

impl LsmHost {
    fn format(dev: SharedDevice) -> (Self, SimTime) {
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
        let config = LightLsmConfig::default();
        let (ftl, t) = LightLsm::format(media, config, SimTime::ZERO).unwrap();
        (
            LsmHost {
                dev,
                ftl,
                config,
                latest: BTreeMap::new(),
            },
            t,
        )
    }
}

impl FaultHost for LsmHost {
    fn write(&mut self, now: SimTime, slot: u64, version: u32) -> Result<SimTime, String> {
        let data = fingerprint(slot, version, self.ftl.block_bytes());
        let (id, mut t) = self
            .ftl
            .flush_table(now, &data)
            .map_err(|e| format!("{e:?}"))?;
        // The torn-tail flush runs at the crash instant and is rolled back
        // by the device, so neither adopt its table nor delete the previous
        // one (a delete's chunk resets are issued immediately and cannot be
        // rolled back).
        if version != TORN_VERSION {
            if let Some(old) = self.latest.insert(slot, id) {
                t = self
                    .ftl
                    .delete_table(t, old)
                    .map_err(|e| format!("{e:?}"))?;
            }
        }
        Ok(t)
    }

    fn read(&mut self, now: SimTime, slot: u64) -> Result<Option<u32>, String> {
        let Some(&id) = self.latest.get(&slot) else {
            return Ok(None);
        };
        let mut out = vec![0u8; self.ftl.block_bytes()];
        match self.ftl.read_block(now, id, 0, &mut out) {
            Ok(_) => {}
            Err(lightlsm::LightLsmError::UnknownTable(_)) => return Ok(None),
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
        Ok(now)
    }

    fn crash_and_recover(&mut self, now: SimTime) -> Result<SimTime, String> {
        self.dev.crash(now);
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(self.dev.clone()));
        let (ftl, t, _tables) =
            LightLsm::open(media, self.config, now).map_err(|e| format!("{e:?}"))?;
        self.ftl = ftl;
        Ok(t)
    }
}

#[test]
fn committed_tables_survive_crash_at_any_flush_boundary() {
    for seed in 0..16u64 {
        let geo = Geometry::paper_tlc_scaled(22, 8);
        let mut case = FaultCase::from_seed(seed, &geo, &FaultMix::default(), SLOTS, 24);
        case.plan = FaultPlan::default(); // pure crash coverage, no faults
        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::paper_tlc_scaled(22, 8)));
        let (mut host, t) = LsmHost::format(dev.clone());
        let report = run_case(&case, &dev, &mut host, t)
            .unwrap_or_else(|e| panic!("crash case failed: {e}"));
        assert_eq!(
            report.failed_writes, 0,
            "seed {seed}: no faults, no failed flushes"
        );
        assert_eq!(report.ledger.total(), 0, "seed {seed}: empty plan is inert");
    }
}

#[test]
fn committed_tables_survive_crash_under_seeded_fault_plans() {
    let geo = matrix_geometry();
    let mix = FaultMix {
        program_fails: 4,
        transient_read_fails: 4,
        permanent_read_fails: 0,
        erase_fails: 2,
        latency_spikes: 1,
        power_cuts: 1,
    };
    let mut fired = 0u64;
    for seed in matrix_seeds(16) {
        let mut case = FaultCase::from_seed(seed, &geo, &mix, SLOTS, 24);
        // Aim extra program and read faults at the low chunks (WAL ring,
        // checkpoint areas, first extents) so plans reliably intersect the
        // workload.
        let mut rng = ox_sim::Prng::seed_from_u64(seed ^ 0x15A);
        for pu in 0..4u32 {
            let chunk = ChunkAddr::new(pu % geo.num_groups, pu / geo.num_groups, {
                rng.gen_range(5) as u32
            });
            let wp = rng.gen_range(8) as u32 * geo.ws_min;
            case.plan.program_fails.push(ProgramFault { chunk, wp });
            case.plan.read_fails.push(ReadFault {
                ppa: chunk.ppa(rng.gen_range(16) as u32),
                attempts: 1 + rng.gen_range(2) as u32,
            });
        }

        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::with_geometry(geo)));
        let (mut host, t) = LsmHost::format(dev.clone());
        // Arm after format so setup itself is fault-free.
        dev.set_fault_plan(case.plan.clone());
        let report = run_case(&case, &dev, &mut host, t)
            .unwrap_or_else(|e| panic!("fault case failed: {e}"));
        fired += report.ledger.total();
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
}
