//! Differential fault check for the YCSB suite: every mix (A–F) is run
//! twice with the same seed — once on a clean device and once on a device
//! armed with a seeded fault plan (transient read failures and latency
//! spikes) — and the two stores must hold **identical logical states** at
//! the end, both before and after a crash/recover cycle.
//!
//! Why this holds: with a single closed-loop client the operation sequence
//! is a pure function of the workload RNG, so fault-induced latency shifts
//! flush/compaction boundaries but never the logical write order. Transient
//! read faults are absorbed below the client (bounded retries inside the
//! device/FTL read path), so no operation is dropped. After draining all
//! background work, every acknowledged write is on media, so a power cut
//! followed by recovery must reproduce the exact same state.

use lightlsm::{LightLsm, LightLsmConfig};
use lsmkv::{Db, DbConfig, LightLsmStore, SharedDb, TableStore};
use ocssd::{matrix_seeds, DeviceConfig, FaultMix, Geometry, OcssdDevice, ReadFault, SharedDevice};
use ox_bench::ycsb::{load, run_ycsb, LsmBackend, YcsbConfig, YcsbWorkload};
use ox_core::faultharness::FaultCase;
use ox_core::layout::{Layout, LayoutConfig};
use ox_core::{Media, OcssdMedia};
use ox_sim::trace::Obs;
use ox_sim::{Prng, SimTime};
use std::sync::Arc;

fn geometry() -> Geometry {
    Geometry::paper_tlc_scaled(22, 16)
}

fn db_config() -> DbConfig {
    DbConfig {
        memtable_bytes: 16 * 1024, // small: the measured phase crosses flushes
        level_base_blocks: 4,
        level_multiplier: 4,
        max_levels: 3,
        ..DbConfig::default()
    }
}

fn test_config(wl: YcsbWorkload) -> YcsbConfig {
    let mut cfg = YcsbConfig::new(wl);
    // One client makes the op sequence independent of completion latency,
    // which is exactly what the fault plan perturbs.
    cfg.clients = 1;
    cfg.record_count = 256;
    cfg.operations = 512;
    cfg.value_bytes = 64;
    cfg
}

fn fresh_stack() -> (SharedDb, SharedDevice) {
    let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::with_geometry(geometry())));
    let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
    let (ftl, _) = LightLsm::format(media, LightLsmConfig::default(), SimTime::ZERO).unwrap();
    let store: Arc<dyn TableStore> = Arc::new(LightLsmStore::new(ftl));
    (SharedDb::new(Db::new(store, db_config())), dev)
}

/// Arms a loaded device with the seeded plan of absorbed faults — transient
/// read failures and latency spikes; no program/erase failures and no power
/// cuts, the crash leg is scripted by the test so both runs see one. Armed
/// after `load`, so the plan can be aimed at what the store holds.
fn arm(dev: &SharedDevice, seed: u64) {
    let geo = geometry();
    let mix = FaultMix {
        program_fails: 0,
        transient_read_fails: 6,
        permanent_read_fails: 0,
        erase_fails: 0,
        latency_spikes: 4,
        power_cuts: 0,
    };
    let mut plan = FaultCase::from_seed(seed, &geo, &mix, 256, 64).plan;
    // Random sites are uniform over a device the store has barely touched:
    // aim extra transient read failures at sectors of the tables `load`
    // wrote, so the measured phase reliably absorbs retries.
    let reserved = Layout::plan(&geo, LayoutConfig::default()).reserved_linear(&geo);
    let written: Vec<_> = OcssdMedia::new(dev.clone())
        .report_all()
        .into_iter()
        .filter(|(chunk, info)| info.write_ptr > 0 && !reserved.contains(&chunk.linear(&geo)))
        .collect();
    assert!(!written.is_empty(), "load flushed no table");
    let mut rng = Prng::seed_from_u64(seed ^ 0xFACE);
    let aimed_from = plan.read_fails.len();
    while plan.read_fails.len() < aimed_from + 4 {
        let (chunk, info) = written[rng.gen_range(written.len() as u64) as usize];
        let ppa = chunk.ppa(rng.gen_range(info.write_ptr as u64) as u32);
        // One fault a sector: the retry budget that absorbs them is per
        // sector, and two plans' worth of failing attempts would exceed it.
        if plan.read_fails.iter().all(|f| f.ppa != ppa) {
            let attempts = 1 + rng.gen_range(2) as u32;
            plan.read_fails.push(ReadFault { ppa, attempts });
        }
    }
    dev.set_fault_plan(plan);
}

/// Seal + flush + compact until the store is quiescent: everything
/// acknowledged is on media.
fn drain(db: &SharedDb, mut t: SimTime) -> SimTime {
    db.seal_memtable();
    loop {
        if let Some(done) = db.flush_once(t).unwrap() {
            t = done;
            db.seal_memtable();
            continue;
        }
        if let Some(done) = db.compact_once(t).unwrap() {
            t = done;
            continue;
        }
        break;
    }
    t
}

/// Full latest-visibility scan: (key, value) pairs in order.
fn full_scan(db: &SharedDb, t: SimTime) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut iter = db.scan_from(b"");
    let mut tt = t;
    let mut out = Vec::new();
    while let Some((k, v)) = iter.next(&mut tt).unwrap() {
        out.push((k, v));
    }
    drop(iter); // owner handle releases pins and the internal snapshot
    out
}

/// Crash the device and rebuild a store from what survived on media.
fn crash_and_recover(dev: &SharedDevice, t: SimTime) -> (SharedDb, SimTime) {
    dev.crash(t);
    let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
    let (ftl, t_open, _) = LightLsm::open(media, LightLsmConfig::default(), t).unwrap();
    let store = Arc::new(LightLsmStore::new(ftl));
    let tables = store.surviving_tables();
    let s: Arc<dyn TableStore> = store;
    let (db, t_done) = Db::open_with_tables(s, db_config(), &tables, t_open).unwrap();
    (SharedDb::new(db), t_done)
}

#[test]
fn ycsb_faulty_vs_clean_states_match_after_recovery() {
    let mut faults_fired = 0u64;
    for (i, wl) in YcsbWorkload::all().into_iter().enumerate() {
        let cfg = test_config(wl);
        let obs = Obs::new(1024);

        let (clean_db, clean_dev) = fresh_stack();
        let mut clean = LsmBackend::new(clean_db);
        let t0 = load(&mut clean, &cfg, SimTime::ZERO);
        let (clean_report, t_clean) = run_ycsb(&clean, &cfg, &obs, t0);

        // One seed per workload: `OX_FAULT_SEED_BASE` varies the whole
        // plan family.
        let (faulty_db, faulty_dev) = fresh_stack();
        let mut faulty = LsmBackend::new(faulty_db);
        let t0 = load(&mut faulty, &cfg, SimTime::ZERO);
        arm(&faulty_dev, matrix_seeds(1).start ^ ((i as u64) << 8));
        let (faulty_report, t_faulty) = run_ycsb(&faulty, &cfg, &obs, t0);

        // Same seed, same closed loop: both runs completed the same ops and
        // neither dropped one on the floor.
        assert_eq!(
            clean_report.total_ops,
            faulty_report.total_ops,
            "workload {}: op counts diverged",
            wl.letter()
        );
        assert_eq!(
            faulty_report.failed_ops,
            0,
            "workload {}: absorbed faults leaked to the client",
            wl.letter()
        );
        faults_fired += faulty_dev.fault_ledger().total();

        // Identical logical state while both stores are live...
        let t_clean = drain(clean.db(), t_clean);
        let t_faulty = drain(faulty.db(), t_faulty);
        let clean_state = full_scan(clean.db(), t_clean);
        let faulty_state = full_scan(faulty.db(), t_faulty);
        assert_eq!(
            clean_state.len(),
            faulty_state.len(),
            "workload {}: live state sizes diverged",
            wl.letter()
        );
        assert_eq!(
            clean_state,
            faulty_state,
            "workload {}: live states diverged",
            wl.letter()
        );

        // ...and after both power-fail and recover: the drain put every
        // acknowledged write on media, so nothing may go missing.
        let (clean_rec, tc) = crash_and_recover(&clean_dev, t_clean);
        let (faulty_rec, tf) = crash_and_recover(&faulty_dev, t_faulty);
        let clean_after = full_scan(&clean_rec, tc);
        let faulty_after = full_scan(&faulty_rec, tf);
        assert_eq!(
            clean_after,
            clean_state,
            "workload {}: clean recovery lost drained state",
            wl.letter()
        );
        assert_eq!(
            faulty_after,
            faulty_state,
            "workload {}: faulty recovery lost drained state",
            wl.letter()
        );
    }
    assert!(
        faults_fired > 0,
        "fault plans never fired — the differential ran degenerate"
    );
}
