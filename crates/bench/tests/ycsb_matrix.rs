//! Determinism matrix for the YCSB suite: the same seeded run on the
//! single-device stack with a seeded fault plan, executed twice from
//! scratch, must produce byte-identical observability JSON and identical
//! report numbers. This is what lets the `fig_ycsb` artifacts be diffed
//! across CI runs.
//!
//! Every mix A–F runs; `OX_FAULT_SEED_BASE` shifts the fault-plan family.

use lightlsm::{LightLsm, LightLsmConfig};
use lsmkv::{Db, DbConfig, LightLsmStore, SharedDb, TableStore};
use ocssd::{matrix_seeds, DeviceConfig, FaultMix, Geometry, OcssdDevice, SharedDevice};
use ox_bench::ycsb::{load, run_ycsb, LsmBackend, YcsbConfig, YcsbReport, YcsbWorkload};
use ox_core::faultharness::FaultCase;
use ox_core::{Media, OcssdMedia};
use ox_sim::trace::Obs;
use ox_sim::SimTime;
use std::sync::Arc;

fn test_config(wl: YcsbWorkload) -> YcsbConfig {
    let mut cfg = YcsbConfig::new(wl);
    cfg.clients = 4;
    cfg.record_count = 256;
    cfg.operations = 512;
    cfg.value_bytes = 64;
    cfg
}

fn lsm_stack(fault_seed: u64) -> SharedDb {
    let geo = Geometry::paper_tlc_scaled(22, 16);
    let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::with_geometry(geo)));
    let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
    let (ftl, _) = LightLsm::format(media, LightLsmConfig::default(), SimTime::ZERO).unwrap();
    let store: Arc<dyn TableStore> = Arc::new(LightLsmStore::new(ftl));
    let cfg = DbConfig {
        memtable_bytes: 16 * 1024,
        level_base_blocks: 4,
        level_multiplier: 4,
        max_levels: 3,
        ..DbConfig::default()
    };
    let db = SharedDb::new(Db::new(store, cfg));
    // Absorbed-fault plan: determinism must hold under fire, not just on a
    // clean device.
    let mix = FaultMix {
        program_fails: 0,
        transient_read_fails: 4,
        permanent_read_fails: 0,
        erase_fails: 0,
        latency_spikes: 2,
        power_cuts: 0,
    };
    let case = FaultCase::from_seed(fault_seed, &geo, &mix, 256, 64);
    dev.set_fault_plan(case.plan.clone());
    db
}

/// Fingerprint of one report: every number that feeds the fig_ycsb table.
fn fingerprint(r: &YcsbReport) -> String {
    format!(
        "{}/{} ops={} failed={} stalls={} scanned={} dur={:?} p50={} p95={} p99={}",
        r.workload.letter(),
        r.backend,
        r.total_ops,
        r.failed_ops,
        r.stall_retries,
        r.scanned_entries,
        r.duration,
        r.quantile_ns(0.50),
        r.quantile_ns(0.95),
        r.quantile_ns(0.99),
    )
}

/// One full run; returns (report fingerprint, obs JSON).
fn run_once(wl: YcsbWorkload, fault_seed: u64) -> (String, String) {
    let cfg = test_config(wl);
    let obs = Obs::new(4096);

    let mut lsm = LsmBackend::new(lsm_stack(fault_seed));
    let t0 = load(&mut lsm, &cfg, SimTime::ZERO);
    let (report, _) = run_ycsb(&lsm, &cfg, &obs, t0);
    (fingerprint(&report), obs.to_json())
}

#[test]
fn ycsb_double_run_is_deterministic() {
    let fault_seed = matrix_seeds(1).start;
    for wl in YcsbWorkload::all() {
        let (prints_a, obs_a) = run_once(wl, fault_seed);
        let (prints_b, obs_b) = run_once(wl, fault_seed);
        assert_eq!(
            prints_a,
            prints_b,
            "workload {}: report numbers diverged between identical runs",
            wl.letter()
        );
        assert_eq!(
            obs_a,
            obs_b,
            "workload {}: observability JSON diverged between identical runs",
            wl.letter()
        );
    }
}
