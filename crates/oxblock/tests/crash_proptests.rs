//! Property tests: OX-Block never loses a committed transaction and never
//! exposes a torn one, for arbitrary workloads, crash points — and, since
//! the fault-injection work, arbitrary seeded [`FaultPlan`]s.
//!
//! Crashes are injected at the simulation frontier (right after a chosen
//! transaction completes, optionally with one more transaction issued whose
//! durability is then rolled back by the device). Crashing at a virtual time
//! *behind* the frontier would be unsound in the simulator: chunk resets
//! (WAL truncation, checkpoint-area recycling) mutate device state when
//! issued and cannot be rolled back, unlike cached writes. The experiment
//! harness crashes at the frontier too, so this matches how the system is
//! exercised.
//!
//! Workloads, crash points and fault plans come from the in-repo seeded
//! [`ox_sim::Prng`] via the shared [`ox_core::faultharness`]; every seed is
//! an independent case (the seeded fault-plan test runs each on both
//! `ocssd::fault_geometries()`), so a failure names the seed and the
//! geometry to replay.

use ocssd::{
    fault_geometries, matrix_seeds, ChunkAddr, DeviceConfig, FaultMix, FaultPlan, Geometry,
    OcssdDevice, ProgramFault, ReadFault, SharedDevice, SECTOR_BYTES,
};
use ox_block::{BlockFtl, BlockFtlConfig, BlockFtlError};
use ox_core::faultharness::{fingerprint, parse_fingerprint, run_case, FaultCase, FaultHost};
use ox_core::{Media, OcssdMedia};
use ox_sim::{Prng, SimDuration, SimTime};
use std::sync::Arc;

const CAPACITY: u64 = 32 * 1024 * 1024;
const SLOTS: u64 = 64;

/// OX-Block under the shared harness: one slot is one logical page.
struct OxBlockHost {
    dev: SharedDevice,
    ftl: BlockFtl,
    config: BlockFtlConfig,
    checkpoint_every: Option<usize>,
    writes: usize,
    /// Scrub refreshes across the whole case, surviving `crash_and_recover`
    /// (which rebuilds the FTL and resets its stats).
    refreshes: u64,
}

impl OxBlockHost {
    fn format(dev: SharedDevice, checkpoint_every: Option<usize>) -> (Self, SimTime) {
        Self::format_with(
            dev,
            BlockFtlConfig::with_capacity(CAPACITY),
            checkpoint_every,
        )
    }

    fn format_with(
        dev: SharedDevice,
        config: BlockFtlConfig,
        checkpoint_every: Option<usize>,
    ) -> (Self, SimTime) {
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
        let (ftl, t) = BlockFtl::format(media, config, SimTime::ZERO).unwrap();
        (
            OxBlockHost {
                dev,
                ftl,
                config,
                checkpoint_every,
                writes: 0,
                refreshes: 0,
            },
            t,
        )
    }
}

impl FaultHost for OxBlockHost {
    fn write(&mut self, now: SimTime, slot: u64, version: u32) -> Result<SimTime, String> {
        let page = fingerprint(slot, version, SECTOR_BYTES);
        let out = self
            .ftl
            .write(now, slot, &page)
            .map_err(|e| e.to_string())?;
        self.writes += 1;
        let mut t = out.done;
        // Never checkpoint the torn-tail write: it runs at the crash
        // instant, and a checkpoint's chunk resets are issued immediately —
        // they cannot be rolled back like cached writes (see module doc).
        if version != ox_core::faultharness::TORN_VERSION {
            if let Some(k) = self.checkpoint_every {
                if self.writes.is_multiple_of(k) {
                    t = self.ftl.checkpoint(t).map_err(|e| e.to_string())?;
                }
            }
        }
        Ok(t)
    }

    fn read(&mut self, now: SimTime, slot: u64) -> Result<Option<u32>, String> {
        let mut out = vec![0u8; SECTOR_BYTES];
        self.ftl
            .read(now, slot, &mut out)
            .map_err(|e| e.to_string())?;
        if out.iter().all(|&b| b == 0) {
            return Ok(None); // never written (or trimmed): zeros by contract
        }
        match parse_fingerprint(&out) {
            Some((s, v)) if s == slot => Ok(Some(v)),
            Some((s, v)) => Err(format!("slot {slot} returned slot {s} v{v} content")),
            None => Err(format!("slot {slot} returned torn bytes")),
        }
    }

    fn maintain(&mut self, now: SimTime) -> Result<SimTime, String> {
        let (mut t, _salvaged, _lost) = self
            .ftl
            .repair_media_events(now)
            .map_err(|e| e.to_string())?;
        // Background patrol + refresh, like the driver's tick. A no-op when
        // the host's config leaves scrubbing disabled; degraded mode just
        // stops the refreshes, it is not a maintenance error.
        match self.ftl.maybe_scrub(t) {
            Ok(Some(report)) => {
                self.refreshes += report.refreshed;
                t = t.max(report.done);
            }
            Ok(None) | Err(BlockFtlError::ReadOnly) => {}
            Err(e) => return Err(e.to_string()),
        }
        Ok(t)
    }

    fn crash_and_recover(&mut self, now: SimTime) -> Result<SimTime, String> {
        self.dev.crash(now);
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(self.dev.clone()));
        let (ftl, outcome) =
            BlockFtl::recover(media, self.config, now).map_err(|e| e.to_string())?;
        self.ftl = ftl;
        Ok(outcome.done)
    }
}

#[test]
fn committed_writes_survive_crash_at_any_txn_boundary() {
    for seed in 0..24u64 {
        let geo = Geometry::paper_tlc_scaled(22, 8);
        let mut case = FaultCase::from_seed(seed, &geo, &FaultMix::default(), SLOTS, 30);
        case.plan = FaultPlan::default(); // pure crash coverage, no faults
        let mut rng = Prng::seed_from_u64(seed);
        let checkpoint_every = if rng.gen_bool(0.5) {
            Some(rng.gen_range_in(2, 10) as usize)
        } else {
            None
        };
        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::paper_tlc_scaled(22, 8)));
        let (mut host, t) = OxBlockHost::format(dev.clone(), checkpoint_every);
        let report = run_case(&case, &dev, &mut host, t).unwrap();
        assert_eq!(
            report.failed_writes, 0,
            "seed {seed}: no faults, no failed writes"
        );
        assert_eq!(report.ledger.total(), 0, "seed {seed}: empty plan is inert");
    }
}

#[test]
fn committed_writes_survive_crash_under_seeded_fault_plans() {
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
            let mut case = FaultCase::from_seed(seed, &geo, &mix, SLOTS, 30);
            // The seeded sites are uniform over the geometry; aim a few extra
            // program and read faults at the low chunks (metadata + first data
            // allocations) so plans reliably intersect the workload.
            let mut rng = Prng::seed_from_u64(seed ^ 0xA13);
            for pu in 0..4u32 {
                let chunk = ChunkAddr::new(pu % geo.num_groups, pu / geo.num_groups, {
                    rng.gen_range(4) as u32
                });
                let wp = rng.gen_range(8) as u32 * geo.ws_min;
                case.plan.program_fails.push(ProgramFault { chunk, wp });
                case.plan.read_fails.push(ReadFault {
                    ppa: chunk.ppa(rng.gen_range(16) as u32),
                    attempts: 1 + rng.gen_range(2) as u32,
                });
            }

            let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::with_geometry(geo)));
            let (mut host, t) = OxBlockHost::format(dev.clone(), Some(4));
            // Arm after format so setup itself is fault-free; the workload and
            // everything it triggers (WAL, GC, checkpoints, repair) runs under
            // the plan.
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

/// The lifetime-robustness property: with an aged reliability model and the
/// background scrubber refreshing suspect chunks, crash/fault cases still
/// never lose an acknowledged write — a refresh relocation interrupted by a
/// power cut must leave either the old copy or the new copy mapped.
///
/// Chunks are shrunk (16 write units each) and the device prefilled so the
/// patrol actually finds *closed* data chunks to refresh; the prefill then
/// idles past the device's refresh threshold, so every closed chunk starts
/// the case refresh-due, keeping relocations in flight around every crash
/// point.
#[test]
fn scrub_refresh_never_loses_acked_data_across_power_cuts() {
    let geo = Geometry {
        sectors_per_chunk: 64,
        ..Geometry::small_slc()
    };
    let mix = FaultMix {
        program_fails: 2,
        transient_read_fails: 3,
        permanent_read_fails: 0,
        erase_fails: 1,
        latency_spikes: 1,
        power_cuts: 2,
    };
    let mut refreshed = 0u64;
    for seed in matrix_seeds(16) {
        let case = FaultCase::from_seed(seed, &geo, &mix, SLOTS, 30);
        let mut dc = DeviceConfig::with_geometry(geo);
        dc.reliability = Some(seed ^ 0x5C2B);
        let dev = SharedDevice::new(OcssdDevice::new(dc));
        let mut config = BlockFtlConfig::with_capacity(CAPACITY);
        config.scrub = true;
        let (mut host, mut t) = OxBlockHost::format_with(dev.clone(), config, Some(3));

        // Prefill every slot three times, fault-free: closes ~8 data chunks
        // (the allocator stripes across the 8 PUs) for the patrol to chew
        // on, before the seeded plan is armed.
        for round in 0..3u32 {
            for slot in 0..SLOTS {
                t = host.write(t, slot, 900 + round).unwrap();
            }
        }
        t = host.maintain(t).unwrap();
        // A minute of idle retention takes the prefill past the device's
        // refresh threshold (55.2 s on a fresh chunk).
        t += SimDuration::from_secs(60);

        dev.set_fault_plan(case.plan.clone());
        run_case(&case, &dev, &mut host, t).unwrap_or_else(|e| panic!("scrub case failed: {e}"));
        refreshed += host.refreshes;

        // Prefilled slots the case never rewrote were acknowledged too: a
        // refresh relocation must never drop them, crash or no crash.
        let now = SimTime::from_secs(1_000);
        for slot in 0..SLOTS {
            match host.read(now, slot) {
                Ok(Some(_)) => {}
                Ok(None) => panic!("seed {seed}: prefilled slot {slot} lost"),
                Err(e) => panic!("seed {seed}: slot {slot} unreadable after recovery: {e}"),
            }
        }
    }
    assert!(
        refreshed > 0,
        "the patrol must have refresh-relocated chunks across the matrix"
    );
}
