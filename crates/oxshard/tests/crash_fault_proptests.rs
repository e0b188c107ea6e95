//! Cross-shard crash + fault property tests (ISSUE 6 satellite 2).
//!
//! Reuses `ox_core::faultharness` seeds end to end: a [`FaultCase`] drives
//! the whole cluster through the [`FaultHost`] trait, with the case's fault
//! plan (including its power cut) armed on one designated shard device and
//! derived erase/program-fault plans armed on a random subset of the other
//! shards. The harness crash is cluster-wide — every device power-fails at
//! the same instant — and recovery must bring back every committed write.
//!
//! On top of the harness's own survival check, each seed gets a
//! faulty-vs-clean differential: the committed write log is replayed onto a
//! pristine cluster and every slot is compared byte-for-byte.

use ocssd::{
    matrix_geometry, matrix_seeds, ChunkAddr, FaultMix, FaultPlan, Geometry, ProgramFault,
    ReadFault,
};
use ox_core::faultharness::{
    fingerprint, parse_fingerprint, run_case, FaultCase, FaultHost, TORN_VERSION,
};
use ox_sim::{Prng, SimTime};
use oxshard::{matrix_shards, ClusterConfig, ShardCluster};

const SLOTS: u64 = 48;
const MAX_OPS: u64 = 60;
const VALUE_LEN: usize = 64;

fn slot_key(slot: u64) -> Vec<u8> {
    format!("slot{slot:06}").into_bytes()
}

fn cluster_config(shards: u32) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(shards);
    cfg.geometry = matrix_geometry();
    // Any bad-block growth triggers a rebalance, so erase-fail seeds
    // exercise migration under fault pressure.
    cfg.rebalance_bad_blocks = 1;
    cfg
}

fn build_cluster(shards: u32, seed: u64) -> (ShardCluster, SimTime) {
    ShardCluster::new(cluster_config(shards), ocssd::Obs::new(4096), SimTime::ZERO)
        .unwrap_or_else(|e| panic!("seed {seed}: cluster build failed: {e}"))
}

/// Aims extra program and transient-read faults at the low chunks (WAL
/// ring, checkpoint area, first data extents) so armed plans reliably
/// intersect the workload footprint on every geometry and shard count —
/// the same targeting `lightlsm`'s harness tests use.
fn aim_low(plan: &mut FaultPlan, geo: &Geometry, rng: &mut Prng) {
    for pu in 0..4u32 {
        let chunk = ChunkAddr::new(pu % geo.num_groups, pu / geo.num_groups, {
            rng.gen_range(5) as u32
        });
        let wp = rng.gen_range(8) as u32 * geo.ws_min;
        plan.program_fails.push(ProgramFault { chunk, wp });
        plan.read_fails.push(ReadFault {
            ppa: chunk.ppa(rng.gen_range(16) as u32),
            attempts: 1 + rng.gen_range(2) as u32,
        });
    }
}

/// The whole cluster as one fault-harness host.
struct ClusterHost {
    cluster: ShardCluster,
    /// `(slot, version)` for every write the cluster acknowledged, in
    /// commit order (torn-tail probes excluded — the device rolls them
    /// back by construction).
    committed_log: Vec<(u64, u32)>,
}

impl FaultHost for ClusterHost {
    fn write(&mut self, now: SimTime, slot: u64, version: u32) -> Result<SimTime, String> {
        let value = fingerprint(slot, version, VALUE_LEN);
        match self.cluster.put(now, &slot_key(slot), &value) {
            Ok((_shard, done)) => {
                if version != TORN_VERSION {
                    self.committed_log.push((slot, version));
                }
                Ok(done)
            }
            Err(e) => Err(e.to_string()),
        }
    }

    fn read(&mut self, now: SimTime, slot: u64) -> Result<Option<u32>, String> {
        match self.cluster.get(now, &slot_key(slot)) {
            Ok((Some(value), _shard, _t)) => match parse_fingerprint(&value) {
                Some((s, version)) if s == slot => Ok(Some(version)),
                _ => Err(format!("slot {slot}: value is not its own fingerprint")),
            },
            Ok((None, _, _)) => Ok(None),
            Err(e) => Err(e.to_string()),
        }
    }

    fn maintain(&mut self, now: SimTime) -> Result<SimTime, String> {
        self.cluster.maintain(now).map_err(|e| e.to_string())
    }

    fn crash_and_recover(&mut self, now: SimTime) -> Result<SimTime, String> {
        self.cluster
            .crash_and_recover(now)
            .map_err(|e| e.to_string())
    }
}

/// Replays `log` onto a pristine cluster and checks every slot matches the
/// faulty-then-recovered cluster byte-for-byte.
fn differential_check(host: &mut ClusterHost, shards: u32, seed: u64, now: SimTime) {
    let (mut clean, mut t) = build_cluster(shards, seed ^ 0xC1EA_4C1E);
    let log = host.committed_log.clone();
    for &(slot, version) in &log {
        let value = fingerprint(slot, version, VALUE_LEN);
        let (_, done) = clean
            .put(t, &slot_key(slot), &value)
            .unwrap_or_else(|e| panic!("seed {seed}: clean replay failed: {e}"));
        t = done;
    }
    let mut slots: Vec<u64> = log.iter().map(|&(s, _)| s).collect();
    slots.sort_unstable();
    slots.dedup();
    for slot in slots {
        let (clean_v, _, done) = clean
            .get(t, &slot_key(slot))
            .unwrap_or_else(|e| panic!("seed {seed}: clean read failed: {e}"));
        t = done;
        let (faulty_v, _, _) = host
            .cluster
            .get(now, &slot_key(slot))
            .unwrap_or_else(|e| panic!("seed {seed}: faulty read failed: {e}"));
        assert_eq!(
            faulty_v, clean_v,
            "seed {seed}: slot {slot} diverged between faulty and clean clusters"
        );
    }
}

#[test]
fn clean_cluster_crash_recovery_over_seeds() {
    let shards = matrix_shards();
    for seed in 0..12u64 {
        let geo = matrix_geometry();
        let mut case = FaultCase::from_seed(seed, &geo, &FaultMix::default(), SLOTS, MAX_OPS);
        // Control arm: frontier crash only, no injected faults anywhere.
        case.plan = FaultPlan::default();
        let (cluster, t0) = build_cluster(shards, seed);
        let cut_dev = cluster.device(0).unwrap().clone();
        let mut host = ClusterHost {
            cluster,
            committed_log: Vec::new(),
        };
        let report = run_case(&case, &cut_dev, &mut host, t0)
            .unwrap_or_else(|e| panic!("clean case failed: {e}"));
        assert!(report.committed > 0, "seed {seed}: nothing committed");
        assert_eq!(
            report.failed_writes, 0,
            "seed {seed}: clean run had failures"
        );
        let after = host.cluster_now();
        differential_check(&mut host, shards, seed, after);
    }
}

#[test]
fn faulty_subset_crash_recovery_and_differential_over_matrix() {
    let shards = matrix_shards();
    let geo = matrix_geometry();
    let mix = FaultMix {
        program_fails: 3,
        transient_read_fails: 2,
        permanent_read_fails: 0,
        erase_fails: 4,
        latency_spikes: 1,
        power_cuts: 1,
    };
    let subset_mix = FaultMix {
        power_cuts: 0,
        ..mix
    };
    let mut total_fired = 0u64;
    let mut total_committed = 0usize;
    let mut armed_shards = 0u32;
    for seed in matrix_seeds(6) {
        let mut case = FaultCase::from_seed(seed, &geo, &mix, SLOTS, MAX_OPS);
        let (cluster, t0) = build_cluster(shards, seed);

        // The case's own plan (with its power cut) goes to one designated
        // shard; a seeded random subset of the others get derived
        // erase/program plans, growing bad blocks cluster-wide. Every plan
        // gets low-chunk targeting so something fires on every leg of the
        // shard-count × seed × geometry matrix.
        let mut rng = Prng::seed_from_u64(seed ^ 0x5AAD_F417);
        let cut_shard = (seed % shards as u64) as u32;
        aim_low(&mut case.plan, &geo, &mut rng);
        for s in 0..shards {
            if s == cut_shard {
                cluster.device(s).unwrap().set_fault_plan(case.plan.clone());
                armed_shards += 1;
            } else if rng.gen_bool(0.5) {
                let mut plan =
                    FaultPlan::random(seed ^ (0x51AD << 8 | s as u64), &geo, &subset_mix);
                aim_low(&mut plan, &geo, &mut rng);
                cluster.device(s).unwrap().set_fault_plan(plan);
                armed_shards += 1;
            }
        }
        let cut_dev = cluster.device(cut_shard).unwrap().clone();
        let mut host = ClusterHost {
            cluster,
            committed_log: Vec::new(),
        };
        let report = run_case(&case, &cut_dev, &mut host, t0)
            .unwrap_or_else(|e| panic!("faulty case failed: {e}"));
        total_committed += report.committed;
        for s in 0..shards {
            total_fired += host.cluster.device(s).unwrap().fault_ledger().total();
        }
        let after = host.cluster_now();
        differential_check(&mut host, shards, seed, after);
    }
    assert!(total_committed > 0, "no writes committed across the sweep");
    assert!(
        armed_shards >= matrix_seeds(6).count() as u32,
        "subset arming degenerate"
    );
    assert!(
        total_fired > 0,
        "fault plans armed on {armed_shards} shards but nothing fired"
    );
}

impl ClusterHost {
    /// A timestamp safely after everything the harness did (reads in the
    /// differential only need a consistent "now").
    fn cluster_now(&self) -> SimTime {
        SimTime::ZERO + ox_sim::SimDuration::from_secs(3600)
    }
}
