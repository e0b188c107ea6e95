//! Horizontal vs. vertical SSTable placement (paper Figure 4), measured at
//! the FTL level: single-stream flush bandwidth, concurrent-stream
//! isolation, and block-read latency under a competing compaction.
//!
//! Run with: `cargo run --release --example placement_explorer`

use ox_workbench::lightlsm::{LightLsm, LightLsmConfig, Placement};
use ox_workbench::ocssd::{DeviceConfig, Geometry, OcssdDevice, SharedDevice};
use ox_workbench::ox_core::{Media, OcssdMedia};
use ox_workbench::ox_sim::{SimDuration, SimTime};
use std::sync::Arc;

fn make_ftl(placement: Placement) -> LightLsm {
    let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::with_geometry(
        Geometry::paper_tlc_scaled(22, 32),
    )));
    let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev));
    LightLsm::format(media, LightLsmConfig { placement }, SimTime::ZERO)
        .expect("format")
        .0
}

fn main() {
    let table_mb = 24;
    let data: Vec<u8> = (0..table_mb * 1024 * 1024)
        .map(|i| (i / 4096) as u8)
        .collect();

    println!(
        "SSTable = {} MB = one full-width stripe (paper: 768 MB = 32 PUs × 24 MB chunks)\n",
        table_mb
    );

    // --- Single flush: horizontal uses all 32 PUs, vertical only 4. ---
    for placement in [Placement::Horizontal, Placement::Vertical] {
        let mut ftl = make_ftl(placement);
        let t0 = SimTime::ZERO;
        let (_, done) = ftl.flush_table(t0, &data).expect("flush");
        let secs = done.saturating_since(t0).as_secs_f64();
        println!(
            "single {table_mb} MB flush, {:>10}: {:>7.1} ms  ({:>6.0} MB/s)",
            placement.label(),
            secs * 1e3,
            table_mb as f64 / secs
        );
    }

    // --- Two concurrent flushes: vertical isolates them in different
    //     groups; horizontal makes them share every PU. ---
    println!();
    for placement in [Placement::Horizontal, Placement::Vertical] {
        let mut ftl = make_ftl(placement);
        let t0 = SimTime::ZERO;
        // Submit both at the same instant (two memtable flushes racing).
        let (_, d1) = ftl.flush_table(t0, &data).expect("flush 1");
        let (_, d2) = ftl.flush_table(t0, &data).expect("flush 2");
        let last = d1.max(d2).saturating_since(t0).as_secs_f64();
        println!(
            "two concurrent flushes, {:>10}: both done in {:>7.1} ms ({:.0} MB/s aggregate)",
            placement.label(),
            last * 1e3,
            2.0 * table_mb as f64 / last
        );
    }

    // --- Read latency while a "compaction" hammers the device. ---
    println!();
    for placement in [Placement::Horizontal, Placement::Vertical] {
        let mut ftl = make_ftl(placement);
        let t0 = SimTime::ZERO;
        let (victim, d1) = ftl.flush_table(t0, &data).expect("flush");
        let settle = d1 + SimDuration::from_secs(1);
        // Baseline read.
        let mut block = vec![0u8; ftl.block_bytes()];
        let r0 = ftl.read_block(settle, victim, 0, &mut block).expect("read");
        let base = r0.saturating_since(settle);
        // Competing flush (stands in for a compaction's write stream)
        // submitted at the same time as a batch of reads.
        let t1 = r0 + SimDuration::from_secs(1);
        let (_, _busy) = ftl.flush_table(t1, &data).expect("competing flush");
        let mut worst = SimDuration::ZERO;
        for b in 0..8 {
            let r = ftl.read_block(t1, victim, b, &mut block).expect("read");
            worst = worst.max(r.saturating_since(t1));
        }
        println!(
            "block read, {:>10}: {:>8} alone; worst {:>8} behind a competing flush",
            placement.label(),
            base,
            worst
        );
    }
    println!("\n(vertical keeps the competing stream in another group, so reads of this table barely notice it)");
}
