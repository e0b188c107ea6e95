//! A key-value store over the application-specific LightLSM FTL — the
//! paper's LightLSM + RocksDB configuration in miniature.
//!
//! Run with: `cargo run --release --example kv_store`

use ox_workbench::lightlsm::{LightLsm, LightLsmConfig, Placement};
use ox_workbench::lsmkv::bench::{bench_key, bench_value};
use ox_workbench::lsmkv::{Db, DbConfig, LightLsmStore, PutOutcome, TableStore};
use ox_workbench::ocssd::{DeviceConfig, Geometry, OcssdDevice, SharedDevice};
use ox_workbench::ox_core::{Media, OcssdMedia};
use ox_workbench::ox_sim::SimTime;
use std::sync::Arc;

fn main() {
    // Small-chunk paper geometry: 24 MB full-width SSTables.
    let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::with_geometry(
        Geometry::paper_tlc_scaled(22, 32),
    )));
    let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev));
    let (ftl, _) = LightLsm::format(
        media,
        LightLsmConfig {
            placement: Placement::Horizontal,
        },
        SimTime::ZERO,
    )
    .expect("format");
    let store: Arc<dyn TableStore> = Arc::new(LightLsmStore::new(ftl));
    println!(
        "LightLSM: block = {} KB (the device's unit of write), SSTable ≤ {} MB",
        store.block_bytes() / 1024,
        store.table_capacity_bytes() / (1024 * 1024)
    );

    let mut db = Db::new(
        store,
        DbConfig {
            memtable_bytes: 1024 * 1024,
            ..DbConfig::default()
        },
    );

    // Load 20k entries (16 B keys, 1 KB values), driving flush/compaction
    // inline for the demo.
    let mut t = SimTime::ZERO;
    let n = 20_000u64;
    for i in 0..n {
        let k = bench_key(i);
        let v = bench_value(&k, 1024);
        loop {
            match db.put(t, &k, &v).expect("put") {
                PutOutcome::Done(done) => {
                    t = done;
                    break;
                }
                PutOutcome::Stalled(retry) => {
                    t = retry;
                    while let Some(done) = db.flush_once(t).expect("flush") {
                        t = done;
                    }
                    while let Some(done) = db.compact_once(t).expect("compact") {
                        t = done;
                    }
                }
            }
        }
    }
    db.seal_memtable();
    loop {
        if let Some(done) = db.flush_once(t).expect("flush") {
            t = done;
            continue;
        }
        if let Some(done) = db.compact_once(t).expect("compact") {
            t = done;
            continue;
        }
        break;
    }

    println!("\nloaded {n} entries in {} virtual time", t);
    println!("levels:");
    for meta in db.level_metas() {
        println!(
            "  L{}: {:>3} tables, {:>5} blocks, {:>7} entries",
            meta.level, meta.tables, meta.blocks, meta.entries
        );
    }
    let cs = db.compaction_stats();
    println!(
        "flushes: {}, compactions: {}, blocks read/written by compaction: {}/{}",
        cs.flushes, cs.compactions, cs.blocks_read, cs.blocks_written
    );

    // Point lookups.
    let (v, done) = db.get(t, &bench_key(12_345)).expect("get");
    println!(
        "\nget(key 12345): {} bytes in {} (one 96 KB block read — the paper's read-amplification point)",
        v.expect("present").len(),
        done.saturating_since(t)
    );
    let (miss, done2) = db.get(done, &bench_key(999_999_999)).expect("get");
    assert!(miss.is_none());
    println!(
        "get(absent key): None in {} (bloom filters skip the table reads)",
        done2.saturating_since(done)
    );

    // Range scan.
    let mut iter = db.scan_from(&bench_key(100));
    let mut tt = done2;
    let mut count = 0;
    while let Some((_k, _v)) = iter.next(&mut tt).expect("scan") {
        count += 1;
        if count == 500 {
            break;
        }
    }
    println!(
        "scanned 500 entries from key 100 in {} ({:.1} µs/entry amortized)",
        tt.saturating_since(done2),
        tt.saturating_since(done2).as_nanos() as f64 / 500.0 / 1000.0
    );
}
