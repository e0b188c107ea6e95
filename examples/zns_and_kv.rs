//! The two FTLs the paper predicted but could not evaluate: OX-ZNS
//! (Figure 1's unavailable entry) and a KV-SSD-style FTL (§5's open
//! comparison), side by side on the simulated drive.
//!
//! Run with: `cargo run --release --example zns_and_kv`

use ox_workbench::ocssd::{DeviceConfig, OcssdDevice, SharedDevice, SECTOR_BYTES};
use ox_workbench::ox_core::{Media, OcssdMedia};
use ox_workbench::ox_kvssd::{KvSsd, KvSsdConfig};
use ox_workbench::ox_sim::{SimDuration, SimTime};
use ox_workbench::ox_zns::{ZnsConfig, ZnsFtl, ZoneState};
use std::sync::Arc;

fn main() {
    // ---------------- OX-ZNS ----------------
    let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::paper_tlc_scaled(22, 8)));
    let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
    let (mut zns, t0) =
        ZnsFtl::format(media, ZnsConfig { chunks_per_zone: 2 }, SimTime::ZERO).expect("format");
    println!(
        "OX-ZNS: {} zones of {} MB, append granularity {} KB (the device write unit)",
        zns.zone_count(),
        zns.zone_sectors() * SECTOR_BYTES as u64 / (1024 * 1024),
        zns.append_bytes() / 1024
    );

    let record = vec![0xCDu8; zns.append_bytes()];
    let (start, t1) = zns.append(t0, 0, &[record.into()]).expect("zone append");
    println!(
        "appended one record to zone 0 at sector {start}; state {:?}",
        zns.zone_info(0).unwrap().state
    );

    // Sequential-only discipline, enforced by zones (and beneath them, by
    // the Open-Channel chunk write pointers).
    let err = zns
        .read(t1, 0, 100, 1, &mut vec![0u8; SECTOR_BYTES])
        .unwrap_err();
    println!("reading past the write pointer fails: {err}");

    // Crash: zone state reconstructs from `report chunk` alone — ZNS needs
    // no FTL metadata at all.
    let f = dev.flush(t1);
    dev.crash(f.done);
    let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev));
    let (reopened, _) = ZnsFtl::open(media, ZnsConfig { chunks_per_zone: 2 }, f.done).unwrap();
    let info = reopened.zone_info(0).unwrap();
    println!(
        "after kill -9: zone 0 reports wp={} state={:?} — no log replay, no checkpoint\n",
        info.write_pointer, info.state
    );
    assert_eq!(info.state, ZoneState::Open);

    // ---------------- KV-SSD ----------------
    let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::paper_tlc_scaled(22, 8)));
    let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev));
    let (mut kv, mut t) = KvSsd::format(media, KvSsdConfig::default(), SimTime::ZERO).unwrap();
    for i in 0..1000u32 {
        let key = format!("user:{i:06}");
        let value = format!("{{\"id\":{i},\"padding\":\"{}\"}}", "x".repeat(900));
        t = kv.put(t, key.as_bytes(), value.as_bytes()).unwrap();
    }
    t = kv.sync(t).unwrap();
    println!(
        "KV-SSD: stored {} keys (group-committed journal + coalesced value log)",
        kv.len()
    );

    let settle = t + SimDuration::from_secs(1);
    let (value, done) = kv.get(settle, b"user:000500").unwrap();
    println!(
        "get(user:000500): {} bytes in {} — one sector read, no 96 KB block tax (§5)",
        value.unwrap().len(),
        done.saturating_since(settle)
    );
    let t2 = kv.delete(done, b"user:000500").unwrap();
    let (gone, _) = kv.get(t2, b"user:000500").unwrap();
    assert!(gone.is_none());
    println!("delete(user:000500): gone; {} keys remain", kv.len());
    println!("\n(the fig_ablation bench measures the KV interface against block and zones)");
}
