//! End-to-end tests of the LSM store over the LightLSM FTL.

use lightlsm::{LightLsm, LightLsmConfig, Placement};
use lsmkv::bench::{bench_key, bench_value, run_workload, BenchConfig, Workload};
use lsmkv::{Db, DbConfig, LightLsmStore, PutOutcome, SharedDb, TableStore};
use ocssd::{DeviceConfig, Geometry, OcssdDevice, SharedDevice};
use ox_core::{Media, OcssdMedia};
use ox_sim::{SimDuration, SimTime};
use std::sync::Arc;

/// Small-chunk geometry (768 KB chunks): SSTable capacity 24 MB, as in the
/// Figure 5/6 runs.
fn device() -> SharedDevice {
    SharedDevice::new(OcssdDevice::new(DeviceConfig::with_geometry(
        Geometry::paper_tlc_scaled(22, 32),
    )))
}

fn store(placement: Placement) -> Arc<dyn TableStore> {
    let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(device()));
    let (ftl, _) = LightLsm::format(
        media,
        LightLsmConfig {
            placement,
            ..LightLsmConfig::default()
        },
        SimTime::ZERO,
    )
    .unwrap();
    Arc::new(LightLsmStore::new(ftl))
}

fn small_db(placement: Placement) -> Db {
    let cfg = DbConfig {
        memtable_bytes: 256 * 1024,
        level_base_blocks: 32,
        level_multiplier: 4,
        ..DbConfig::default()
    };
    Db::new(store(placement), cfg)
}

/// Puts with stall-retry (drains background work while stalled).
fn put_retry(db: &mut Db, mut t: SimTime, k: &[u8], v: &[u8]) -> SimTime {
    loop {
        match db.put(t, k, v).unwrap() {
            PutOutcome::Done(done) => return done,
            PutOutcome::Stalled(retry) => t = drain(db, retry),
        }
    }
}

/// Drives flush/compaction to quiescence, returning the new time frontier.
fn drain(db: &mut Db, mut t: SimTime) -> SimTime {
    loop {
        if let Some(done) = db.flush_once(t).unwrap() {
            t = done;
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

#[test]
fn put_get_from_memtable() {
    let mut db = small_db(Placement::Horizontal);
    let t = match db.put(SimTime::ZERO, b"hello", b"world").unwrap() {
        PutOutcome::Done(t) => t,
        other => panic!("{other:?}"),
    };
    let (v, _) = db.get(t, b"hello").unwrap();
    assert_eq!(v.as_deref(), Some(&b"world"[..]));
    let (miss, _) = db.get(t, b"nothing").unwrap();
    assert_eq!(miss, None);
}

#[test]
fn values_survive_flush_to_tables() {
    let mut db = small_db(Placement::Horizontal);
    let mut t = SimTime::ZERO;
    for i in 0..2000u64 {
        let k = bench_key(i);
        let v = bench_value(&k, 512);
        t = put_retry(&mut db, t, &k, &v);
    }
    db.seal_memtable();
    t = drain(&mut db, t);
    assert!(db.compaction_stats().flushes > 0, "memtable rotated");
    for i in (0..2000u64).step_by(37) {
        let k = bench_key(i);
        let (v, done) = db.get(t, &k).unwrap();
        let v = v.unwrap_or_else(|| panic!("key {i} missing"));
        assert_eq!(&v[..16], &k[..]);
        assert_eq!(v.len(), 512);
        t = done;
    }
}

#[test]
fn overwrites_and_deletes_resolve_newest_first() {
    let mut db = small_db(Placement::Horizontal);
    let mut t = SimTime::ZERO;
    let k = bench_key(7);
    t = match db.put(t, &k, b"v1").unwrap() {
        PutOutcome::Done(t) => t,
        _ => panic!(),
    };
    // Push the first version into a table.
    db.seal_memtable();
    t = drain(&mut db, t);
    t = match db.put(t, &k, b"v2").unwrap() {
        PutOutcome::Done(t) => t,
        _ => panic!(),
    };
    let (v, t2) = db.get(t, &k).unwrap();
    assert_eq!(v.as_deref(), Some(&b"v2"[..]));
    // Delete, flush everything, and confirm the tombstone wins.
    match db.delete(t2, &k).unwrap() {
        PutOutcome::Done(done) => t = done,
        _ => panic!(),
    }
    db.seal_memtable();
    t = drain(&mut db, t);
    let (v, _) = db.get(t, &k).unwrap();
    assert_eq!(v, None);
}

#[test]
fn compaction_reduces_l0_and_preserves_data() {
    let mut db = small_db(Placement::Horizontal);
    let mut t = SimTime::ZERO;
    // Write enough to force several flushes and at least one compaction.
    for i in 0..6000u64 {
        let k = bench_key(i % 3000); // overwrites to exercise shadowing
        let v = bench_value(&k, 512);
        t = put_retry(&mut db, t, &k, &v);
        if i % 500 == 0 {
            t = drain(&mut db, t);
        }
    }
    db.seal_memtable();
    t = drain(&mut db, t);
    let cs = db.compaction_stats();
    assert!(cs.compactions > 0, "compaction ran");
    assert!(cs.entries_shadowed > 0, "overwrites deduplicated");
    let metas = db.level_metas();
    assert!(
        metas[0].tables < db.config().l0_compaction_trigger,
        "L0 drained: {metas:?}"
    );
    assert!(metas[1].tables + metas[2].tables > 0, "data moved down");
    for i in (0..3000u64).step_by(101) {
        let k = bench_key(i);
        let (v, done) = db.get(t, &k).unwrap();
        assert!(v.is_some(), "key {i} lost in compaction");
        t = done;
    }
}

#[test]
fn scan_returns_all_keys_in_order() {
    let mut db = small_db(Placement::Horizontal);
    let mut t = SimTime::ZERO;
    let n = 3000u64;
    for i in 0..n {
        let k = bench_key(i);
        t = put_retry(&mut db, t, &k, &bench_value(&k, 256));
    }
    // Leave some in the memtable, some in tables.
    t = drain(&mut db, t);
    let mut iter = db.scan_from(b"");
    let mut count = 0u64;
    let mut last: Option<Vec<u8>> = None;
    let mut tt = t;
    while let Some((k, v)) = iter.next(&mut tt).unwrap() {
        if let Some(prev) = &last {
            assert!(k > *prev, "ordering violated");
        }
        assert_eq!(&v[..16], &k[..]);
        last = Some(k);
        count += 1;
    }
    assert_eq!(count, n);
    assert!(tt > t, "scan charged device time");
}

#[test]
fn scan_from_midpoint_and_after_deletes() {
    let mut db = small_db(Placement::Horizontal);
    let mut t = SimTime::ZERO;
    for i in 0..100u64 {
        let k = bench_key(i);
        t = match db.put(t, &k, b"v").unwrap() {
            PutOutcome::Done(t) => t,
            _ => panic!(),
        };
    }
    db.seal_memtable();
    t = drain(&mut db, t);
    for i in (0..100u64).filter(|i| i % 2 == 0) {
        t = match db.delete(t, &bench_key(i)).unwrap() {
            PutOutcome::Done(t) => t,
            _ => panic!(),
        };
    }
    let mut iter = db.scan_from(&bench_key(50));
    let mut tt = t;
    let mut keys = Vec::new();
    while let Some((k, _)) = iter.next(&mut tt).unwrap() {
        keys.push(k);
    }
    let expect: Vec<[u8; 16]> = (51..100).step_by(2).map(bench_key).collect();
    assert_eq!(keys.len(), expect.len());
    for (got, want) in keys.iter().zip(expect.iter()) {
        assert_eq!(got.as_slice(), want.as_slice());
    }
}

#[test]
fn write_pressure_stalls_and_recovers() {
    // Tiny memtable + no background draining: puts must eventually stall.
    let cfg = DbConfig {
        memtable_bytes: 32 * 1024,
        max_immutables: 2,
        ..DbConfig::default()
    };
    let mut db = Db::new(store(Placement::Horizontal), cfg);
    let mut t = SimTime::ZERO;
    let mut stalled = false;
    for i in 0..1000u64 {
        let k = bench_key(i);
        match db.put(t, &k, &bench_value(&k, 1024)).unwrap() {
            PutOutcome::Done(done) => t = done,
            PutOutcome::Stalled(_) => {
                stalled = true;
                break;
            }
        }
    }
    assert!(stalled, "unthrottled fills must hit the stall gate");
    assert!(db.stats().stalls > 0);
    // Draining unblocks the writer.
    t = drain(&mut db, t);
    assert!(matches!(
        db.put(t, b"after", b"stall").unwrap(),
        PutOutcome::Done(_)
    ));
}

#[test]
fn bloom_filters_short_circuit_misses() {
    let mut db = small_db(Placement::Horizontal);
    let mut t = SimTime::ZERO;
    // Even keys only: odd keys are inside every table's range but absent,
    // so only the bloom filter can skip the block read.
    for i in 0..2000u64 {
        let k = bench_key(i * 2);
        t = put_retry(&mut db, t, &k, &bench_value(&k, 256));
    }
    db.seal_memtable();
    t = drain(&mut db, t);
    for i in 0..1000u64 {
        let (v, done) = db.get(t, &bench_key(i * 2 + 1)).unwrap();
        assert_eq!(v, None);
        t = done;
    }
    let s = db.stats();
    assert!(
        s.bloom_skips > 900,
        "misses should be bloom-filtered: {} skips, {} block reads",
        s.bloom_skips,
        s.get_blocks_read
    );
}

#[test]
fn db_bench_fill_then_read_workloads_run() {
    let db = SharedDb::new(small_db(Placement::Horizontal));
    let fill = BenchConfig {
        ops_per_client: 1500,
        ..BenchConfig::paper(Workload::FillSequential, 2, 1500)
    };
    let (report, t1) = run_workload(&db, fill, SimTime::ZERO);
    assert_eq!(report.total_ops, 3000);
    assert!(report.kops_per_sec > 0.0);
    assert!(report.series.total() == 3000);

    let read_seq = BenchConfig {
        key_space: 3000,
        ..BenchConfig::paper(Workload::ReadSequential, 2, 500)
    };
    let (rs, t2) = run_workload(&db, read_seq, t1);
    assert_eq!(rs.total_ops, 1000);

    let read_rand = BenchConfig {
        key_space: 3000,
        ..BenchConfig::paper(Workload::ReadRandom, 2, 300)
    };
    let (rr, _) = run_workload(&db, read_rand, t2);
    assert_eq!(rr.total_ops, 600);
    // The headline shape: sequential reads amortize block reads, random
    // reads pay one ~96 KB block per op.
    assert!(
        rs.kops_per_sec > rr.kops_per_sec,
        "readseq {} must beat readrandom {}",
        rs.kops_per_sec,
        rr.kops_per_sec
    );
    // Random reads over the fill find their data.
    let hits = db.stats().hits;
    assert!(hits > 0);
}

#[test]
fn vertical_placement_also_correct() {
    let mut db = small_db(Placement::Vertical);
    let mut t = SimTime::ZERO;
    for i in 0..2500u64 {
        let k = bench_key(i);
        t = put_retry(&mut db, t, &k, &bench_value(&k, 512));
    }
    db.seal_memtable();
    t = drain(&mut db, t);
    for i in (0..2500u64).step_by(97) {
        let (v, done) = db.get(t, &bench_key(i)).unwrap();
        assert!(v.is_some(), "key {i}");
        t = done;
    }
}

#[test]
fn deletes_drop_tombstones_at_bottom_level() {
    let mut db = small_db(Placement::Horizontal);
    let mut t = SimTime::ZERO;
    for i in 0..1500u64 {
        let k = bench_key(i);
        t = put_retry(&mut db, t, &k, &bench_value(&k, 512));
    }
    for i in 0..1500u64 {
        loop {
            match db.delete(t, &bench_key(i)).unwrap() {
                PutOutcome::Done(done) => {
                    t = done;
                    break;
                }
                PutOutcome::Stalled(r) => t = drain(&mut db, r),
            }
        }
    }
    db.seal_memtable();
    t = drain(&mut db, t);
    let cs = db.compaction_stats();
    assert!(cs.tombstones_dropped > 0, "bottom-level compaction purges");
    let (v, _) = db.get(t, &bench_key(10)).unwrap();
    assert_eq!(v, None);
}

#[test]
fn snapshot_scan_pinned_against_writes_and_compaction() {
    // Regression: a scan must see exactly the database state at its
    // creation, even while later writes, flushes and compactions (which
    // delete the tables the scan streams from) run underneath it.
    let mut db = small_db(Placement::Horizontal);
    let mut t = SimTime::ZERO;
    let n = 1200u64;
    for i in 0..n {
        let k = bench_key(i);
        t = put_retry(&mut db, t, &k, &bench_value(&k, 256));
    }
    db.seal_memtable();
    t = drain(&mut db, t);
    let mut iter = db.scan_from(b"");
    // Overwrite everything, range-delete a slab, and compact.
    for i in 0..n {
        let k = bench_key(i);
        t = put_retry(&mut db, t, &k, b"overwritten");
    }
    t = match db
        .delete_range(t, &bench_key(100), &bench_key(400))
        .unwrap()
    {
        PutOutcome::Done(d) => d,
        _ => panic!(),
    };
    db.seal_memtable();
    t = drain(&mut db, t);
    // The pinned iterator still sees the original values.
    let mut tt = t;
    let mut count = 0u64;
    while let Some((k, v)) = iter.next(&mut tt).unwrap() {
        assert_eq!(&v[..16], &k[..], "pinned scan must see pre-update data");
        assert_eq!(v.len(), 256);
        count += 1;
    }
    assert_eq!(count, n);
    db.release_iter(&mut iter);
    drop(iter);
    t = drain(&mut db, tt.max(t));
    // A fresh scan sees the new world: overwrites and the range delete.
    let mut iter = db.scan_from(b"");
    let mut tt = t;
    let mut keys = Vec::new();
    while let Some((k, v)) = iter.next(&mut tt).unwrap() {
        assert_eq!(v.as_slice(), b"overwritten");
        keys.push(k);
    }
    db.release_iter(&mut iter);
    assert_eq!(keys.len() as u64, n - 300);
    assert!(!keys
        .iter()
        .any(|k| k.as_slice() >= &bench_key(100)[..] && k.as_slice() < &bench_key(400)[..]));
}

#[test]
fn range_deletes_flow_through_flush_and_compaction() {
    let mut db = small_db(Placement::Horizontal);
    let mut t = SimTime::ZERO;
    for i in 0..4000u64 {
        let k = bench_key(i);
        t = put_retry(&mut db, t, &k, &bench_value(&k, 512));
    }
    t = match db
        .delete_range(t, &bench_key(1000), &bench_key(3000))
        .unwrap()
    {
        PutOutcome::Done(d) => d,
        PutOutcome::Stalled(r) => {
            t = drain(&mut db, r);
            match db
                .delete_range(t, &bench_key(1000), &bench_key(3000))
                .unwrap()
            {
                PutOutcome::Done(d) => d,
                _ => panic!("range delete stalled twice"),
            }
        }
    };
    assert_eq!(db.stats().range_deletes, 1);
    // More writes after the range delete push its table through an L0
    // compaction to the (empty-below) bottom, where it can be dropped.
    for i in 4000..8000u64 {
        let k = bench_key(i);
        t = put_retry(&mut db, t, &k, &bench_value(&k, 512));
    }
    db.seal_memtable();
    t = drain(&mut db, t);
    let (v, t1) = db.get(t, &bench_key(999)).unwrap();
    assert!(v.is_some(), "key below the range survives");
    let (v, t2) = db.get(t1, &bench_key(1000)).unwrap();
    assert_eq!(v, None, "range start deleted");
    let (v, t3) = db.get(t2, &bench_key(2500)).unwrap();
    assert_eq!(v, None, "mid-range deleted");
    let (v, _) = db.get(t3, &bench_key(3000)).unwrap();
    assert!(v.is_some(), "range end is exclusive");
    let cs = db.compaction_stats();
    assert!(
        cs.range_tombstones_dropped > 0,
        "bottom-level compaction drops the spent range tombstone: {cs:?}"
    );
}

#[test]
fn snapshot_gets_see_pinned_state() {
    let mut db = small_db(Placement::Horizontal);
    let mut t = SimTime::ZERO;
    let k = bench_key(42);
    t = put_retry(&mut db, t, &k, b"v1");
    let snap = db.snapshot();
    t = put_retry(&mut db, t, &k, b"v2");
    t = match db.delete_range(t, &bench_key(0), &bench_key(100)).unwrap() {
        PutOutcome::Done(d) => d,
        _ => panic!(),
    };
    // Push both versions and the tombstone through a flush + compaction;
    // the open snapshot pins the old version.
    db.seal_memtable();
    t = drain(&mut db, t);
    let (v, t1) = db.get_at(t, &k, snap).unwrap();
    assert_eq!(v.as_deref(), Some(&b"v1"[..]), "snapshot read is stable");
    let (v, _) = db.get(t1, &k).unwrap();
    assert_eq!(v, None, "latest read sees the range delete");
    db.release_snapshot(snap);
}

#[test]
fn flush_wait_is_shorter_on_horizontal_than_vertical() {
    // Device-level corroboration of the Figure 5 single-client gap, at the
    // DB level: one memtable flush through each placement.
    let run = |placement| {
        let mut db = Db::new(
            store(placement),
            DbConfig {
                memtable_bytes: 4 * 1024 * 1024,
                ..DbConfig::default()
            },
        );
        let mut t = SimTime::ZERO;
        for i in 0..4200u64 {
            let k = bench_key(i);
            match db.put(t, &k, &bench_value(&k, 1024)).unwrap() {
                PutOutcome::Done(done) => t = done,
                PutOutcome::Stalled(r) => t = r,
            }
        }
        db.seal_memtable();
        let start = t;
        let end = drain(&mut db, t);
        end.saturating_since(start)
    };
    let h = run(Placement::Horizontal);
    let v = run(Placement::Vertical);
    assert!(
        h < v,
        "horizontal flush ({h}) should complete before vertical ({v})"
    );
    let _ = SimDuration::ZERO;
}

#[test]
fn read_sequential_keeps_its_bandwidth() {
    // One db_bench client reading half of a 48 MB database of ~50-block
    // tables. The floors are what the eager scan this iterator replaced —
    // a stream per table, each with the full prefetch window from its
    // first block — measured on this very test, less 3 %: ramping the
    // window up and opening tables one at a time must not cost a long
    // scan its bandwidth, whichever way LightLSM places the blocks.
    for (placement, eager_kops) in [(Placement::Horizontal, 642.2), (Placement::Vertical, 616.0)] {
        let cfg = DbConfig {
            memtable_bytes: 2 * 1024 * 1024,
            table_bytes: 6 * 1024 * 1024,
            level_base_blocks: 128,
            level_multiplier: 8,
            max_levels: 3,
            ..DbConfig::default()
        };
        let db = SharedDb::new(Db::new(store(placement), cfg));
        let fill = BenchConfig::paper(Workload::FillSequential, 1, 48_000);
        let (_, t) = run_workload(&db, fill, SimTime::ZERO);
        let read = BenchConfig {
            key_space: 48_000,
            ..BenchConfig::paper(Workload::ReadSequential, 1, 24_000)
        };
        let (report, _) = run_workload(&db, read, t);
        assert!(
            report.kops_per_sec >= 0.97 * eager_kops,
            "{placement:?}: {:.1} kops, the eager scan read {eager_kops}",
            report.kops_per_sec
        );
    }
}
