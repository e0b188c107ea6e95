//! Cross-crate integration tests: the full stack from the KV store down to
//! the simulated Open-Channel SSD, including crash recovery through every
//! layer.

use ox_workbench::lightlsm::{LightLsm, LightLsmConfig, Placement};
use ox_workbench::lsmkv::bench::{bench_key, bench_value, run_workload, BenchConfig, Workload};
use ox_workbench::lsmkv::{Db, DbConfig, LightLsmStore, SharedDb, TableStore};
use ox_workbench::ocssd::{DeviceConfig, Geometry, OcssdDevice, SharedDevice};
use ox_workbench::ox_core::{Media, OcssdMedia};
use ox_workbench::ox_sim::SimTime;
use std::sync::Arc;

fn device() -> SharedDevice {
    SharedDevice::new(OcssdDevice::new(DeviceConfig::with_geometry(
        Geometry::paper_tlc_scaled(22, 32),
    )))
}

fn db_config() -> DbConfig {
    DbConfig {
        memtable_bytes: 1024 * 1024,
        level_base_blocks: 128,
        level_multiplier: 4,
        ..DbConfig::default()
    }
}

fn stack(placement: Placement, dev: &SharedDevice) -> (SharedDb, Arc<LightLsmStore>) {
    let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
    let (ftl, _) = LightLsm::format(media, LightLsmConfig { placement }, SimTime::ZERO).unwrap();
    let store = Arc::new(LightLsmStore::new(ftl));
    let db = SharedDb::new(Db::new(store.clone() as Arc<dyn TableStore>, db_config()));
    (db, store)
}

#[test]
fn workload_through_all_layers_verifies() {
    for placement in [Placement::Horizontal, Placement::Vertical] {
        let dev = device();
        let (db, store) = stack(placement, &dev);
        let cfg = BenchConfig::paper(Workload::FillSequential, 4, 2500);
        let (report, t) = run_workload(&db, cfg, SimTime::ZERO);
        assert_eq!(report.total_ops, 10_000);

        // Every key is readable with its fingerprint value.
        let mut t = t;
        for i in (0..10_000u64).step_by(211) {
            let k = bench_key(i);
            let (v, done) = db.get(t, &k).unwrap();
            let v = v.unwrap_or_else(|| panic!("{placement:?}: key {i} missing"));
            assert_eq!(&v[..16], &k[..]);
            t = done;
        }

        // The FTL below really did whole-table I/O with the right placement.
        let stats = store.with_ftl(|f| f.stats());
        assert!(stats.flushes > 0);
        let geo = dev.geometry();
        store.with_ftl(|f| {
            for id in f.table_ids() {
                let ext = f.table(id).unwrap().clone();
                let groups: std::collections::BTreeSet<u32> =
                    ext.chunks.iter().map(|c| c.group).collect();
                match placement {
                    Placement::Vertical => assert_eq!(groups.len(), 1),
                    Placement::Horizontal => {
                        if ext.chunks.len() >= geo.num_groups as usize {
                            assert!(groups.len() > 1, "horizontal spreads groups");
                        }
                    }
                }
            }
        });

        // Device-level sanity: writes went through the cache, GC never ran
        // copies (tables are whole chunks).
        dev.with(|d| {
            assert!(d.stats().writes.ops() > 0);
            assert_eq!(d.stats().copies.ops(), 0, "LightLSM never copies pages");
        });
    }
}

#[test]
fn kv_data_survives_power_failure_through_every_layer() {
    let dev = device();
    let (db, _store) = stack(Placement::Horizontal, &dev);
    let n = 6_000u64;
    let cfg = BenchConfig::paper(Workload::FillSequential, 2, n / 2);
    let (_, t_quiesced) = run_workload(&db, cfg, SimTime::ZERO);

    // Power failure. Everything volatile dies: DB memtables and version,
    // FTL directory cache, device write cache.
    dev.crash(t_quiesced);
    drop(db);

    // Recover bottom-up: FTL directory from its checkpoint + journal...
    let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
    let (ftl, t1, recovered) =
        LightLsm::open(media, LightLsmConfig::default(), t_quiesced).unwrap();
    assert!(recovered > 0, "SSTables survive in the FTL directory");
    let store = Arc::new(LightLsmStore::new(ftl));

    // ...then the KV store from the surviving tables.
    let surviving = store.surviving_tables();
    assert_eq!(surviving.len(), recovered);
    let (mut db2, t2) =
        Db::open_with_tables(store as Arc<dyn TableStore>, db_config(), &surviving, t1).unwrap();
    assert!(t2 > t1, "recovery read table metadata from media");

    // All data the workload runner quiesced (flushed) is intact.
    let mut t = t2;
    let mut found = 0u64;
    for i in (0..n).step_by(173) {
        let k = bench_key(i);
        let (v, done) = db2.get(t, &k).unwrap();
        t = done;
        if let Some(v) = v {
            assert_eq!(&v[..16], &k[..]);
            found += 1;
        }
    }
    let sampled = (0..n).step_by(173).count() as u64;
    assert_eq!(
        found, sampled,
        "flushed-and-quiesced data must survive the crash"
    );

    // The recovered database keeps working.
    let k = bench_key(999_999);
    let done = loop {
        match db2.put(t, &k, &bench_value(&k, 1024)).unwrap() {
            ox_workbench::lsmkv::PutOutcome::Done(d) => break d,
            ox_workbench::lsmkv::PutOutcome::Stalled(r) => {
                t = r;
                while let Some(d) = db2.flush_once(t).unwrap() {
                    t = d;
                }
            }
        }
    };
    let (v, _) = db2.get(done, &k).unwrap();
    assert!(v.is_some());
}

#[test]
fn read_workloads_after_fill_have_paper_ordering() {
    // The Figure 5 headline orderings on a miniature run.
    let dev = device();
    let (db, _) = stack(Placement::Horizontal, &dev);
    let fill = BenchConfig::paper(Workload::FillSequential, 2, 4000);
    let (fill_report, t1) = run_workload(&db, fill, SimTime::ZERO);

    let mut rs = BenchConfig::paper(Workload::ReadSequential, 2, 2000);
    rs.key_space = 8000;
    let (rs_report, t2) = run_workload(&db, rs, t1);

    let mut rr = BenchConfig::paper(Workload::ReadRandom, 2, 400);
    rr.key_space = 8000;
    let (rr_report, _) = run_workload(&db, rr, t2);

    let _ = fill_report;
    assert!(
        rs_report.kops_per_sec > 3.0 * rr_report.kops_per_sec,
        "read-seq ({:.1}k) >> read-random ({:.1}k): the 96 KB block tax",
        rs_report.kops_per_sec,
        rr_report.kops_per_sec
    );
    // The write-back premise (single-op write ack ≪ media read) is asserted
    // at the device level in ocssd's unit tests; under sustained fill the
    // *mean* ack includes cache-admission backpressure by design. Here we
    // only sanity-check that both paths were exercised.
    dev.with(|d| {
        let s = d.stats();
        assert!(s.writes.ops() > 0 && s.media_reads.ops() > 0);
    });
}
