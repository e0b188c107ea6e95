//! OX-ELEOS under the shared crash + fault harness
//! ([`ox_core::faultharness`]): committed LSS buffers survive frontier
//! crashes and seeded device fault plans; torn appends never surface.
//!
//! The versioned-slot protocol maps onto the log-structured store as one
//! fingerprinted I/O buffer per write; the host remembers the log address
//! each committed version landed at (ELEOS's host-side index — the paper's
//! LSS keeps its own directory above the FTL) and reads it back after
//! recovery. Failure messages name the seed and the geometry to replay.

use ocssd::{
    fault_geometries, matrix_seeds, ChunkAddr, DeviceConfig, FaultMix, FaultPlan, Geometry,
    OcssdDevice, ProgramFault, ReadFault, SharedDevice,
};
use ox_core::faultharness::{
    fingerprint, parse_fingerprint, run_case, FaultCase, FaultHost, TORN_VERSION,
};
use ox_core::{Media, OcssdMedia};
use ox_eleos::{EleosConfig, EleosFtl, LogAddr};
use ox_sim::SimTime;
use std::collections::BTreeMap;
use std::sync::Arc;

const SLOTS: u64 = 16;

/// OX-ELEOS under the harness: one slot version is one appended LSS buffer.
struct EleosHost {
    dev: SharedDevice,
    ftl: EleosFtl,
    config: EleosConfig,
    /// Log address of the latest *committed* buffer per slot.
    latest: BTreeMap<u64, LogAddr>,
}

impl EleosHost {
    fn format(dev: SharedDevice, buffer_bytes: usize) -> (Self, SimTime) {
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
        let config = EleosConfig {
            buffer_bytes,
            window_bytes: 64 * 1024 * 1024,
            ..EleosConfig::default()
        };
        let (ftl, t) = EleosFtl::format(media, config, SimTime::ZERO).unwrap();
        (
            EleosHost {
                dev,
                ftl,
                config,
                latest: BTreeMap::new(),
            },
            t,
        )
    }
}

impl FaultHost for EleosHost {
    fn write(&mut self, now: SimTime, slot: u64, version: u32) -> Result<SimTime, String> {
        let buf = fingerprint(slot, version, self.config.buffer_bytes);
        let (addr, done) = self
            .ftl
            .append_buffer(now, &buf)
            .map_err(|e| format!("{e:?}"))?;
        // The torn-tail append runs at the crash instant and is rolled back
        // by the device — its address is dead, so the index must keep
        // pointing at the last committed version.
        if version != TORN_VERSION {
            self.latest.insert(slot, addr);
        }
        Ok(done)
    }

    fn read(&mut self, now: SimTime, slot: u64) -> Result<Option<u32>, String> {
        let Some(&addr) = self.latest.get(&slot) else {
            return Ok(None);
        };
        let mut out = vec![0u8; self.config.buffer_bytes];
        self.ftl
            .read(now, addr, &mut out)
            .map_err(|e| format!("{e:?}"))?;
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
        let (ftl, t, _buffers) =
            EleosFtl::open(media, self.config, now).map_err(|e| format!("{e:?}"))?;
        self.ftl = ftl;
        Ok(t)
    }
}

#[test]
fn committed_buffers_survive_crash_at_any_append_boundary() {
    for seed in 0..16u64 {
        let geo = Geometry::paper_tlc_scaled(22, 8);
        let mut case = FaultCase::from_seed(seed, &geo, &FaultMix::default(), SLOTS, 24);
        case.plan = FaultPlan::default(); // pure crash coverage, no faults
        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::paper_tlc_scaled(22, 8)));
        // 8 write units on the scaled drive.
        let (mut host, t) = EleosHost::format(dev.clone(), 768 * 1024);
        let report = run_case(&case, &dev, &mut host, t)
            .unwrap_or_else(|e| panic!("crash case failed: {e}"));
        assert_eq!(
            report.failed_writes, 0,
            "seed {seed}: no faults, no failed appends"
        );
        assert_eq!(report.ledger.total(), 0, "seed {seed}: empty plan is inert");
    }
}

#[test]
fn committed_buffers_survive_crash_under_seeded_fault_plans() {
    let mix = FaultMix {
        program_fails: 4,
        transient_read_fails: 4,
        permanent_read_fails: 0,
        erase_fails: 2,
        latency_spikes: 1,
        power_cuts: 1,
    };
    for geo in fault_geometries() {
        let mut fired = 0u64;
        for seed in matrix_seeds(16) {
            let ctx = format!("seed {seed} on {:?}", geo.cell);
            let mut case = FaultCase::from_seed(seed, &geo, &mix, SLOTS, 24);
            // Aim extra program and read faults at the low chunks (WAL ring +
            // first data allocations) so plans reliably intersect the workload.
            let mut rng = ox_sim::Prng::seed_from_u64(seed ^ 0xE1E05);
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
            // 4 write units, whatever the matrix geometry's unit is.
            let (mut host, t) = EleosHost::format(dev.clone(), 4 * geo.ws_min_bytes());
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
                "{ctx}: DeviceStats reconcile with the injector ledger"
            );
        }
        assert!(
            fired > 0,
            "{:?}: across all seeds at least some injected faults must fire",
            geo.cell
        );
    }
}
