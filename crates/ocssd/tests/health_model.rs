//! Device-level tests for the wear-coupled reliability model.
//!
//! The contract mirrors `ocssd::fault`: the model is deterministic under its
//! seed, its ledger reconciles with the device stats and the `MediaEvent`
//! stream, and the advisory `RefreshDue` events do not count as grown bad
//! blocks. The model's weights are constants, so each test drives it
//! through the stress it models: idle virtual time, repeated reads, P/E
//! cycles.

use ocssd::{
    ChunkAddr, DeviceConfig, DeviceError, Geometry, HealthLedger, MediaEventKind, OcssdDevice,
    REFRESH_THRESHOLD_PPM, SECTOR_BYTES,
};
use ox_sim::{Prng, SimDuration, SimTime};

const CHUNKS: u32 = 8;

fn unit(geo: &Geometry, fill: u8) -> Vec<u8> {
    vec![fill; geo.ws_min_bytes()]
}

/// Mixed write/read/reset workload; returns the final virtual time, the
/// bytes read back, op counts and the model's ledger — everything that
/// could diverge.
fn run_workload(
    mut dev: OcssdDevice,
    geo: Geometry,
) -> (SimTime, Vec<u8>, u64, u64, u64, HealthLedger) {
    let mut rng = Prng::seed_from_u64(42);
    let mut t = SimTime::ZERO;
    let mut read_back = Vec::new();
    for step in 0..300u32 {
        let c = ChunkAddr::new(0, 0, rng.gen_range(CHUNKS as u64) as u32);
        let info = dev.chunk_info(c);
        match rng.gen_range(3) {
            0 => {
                if let Ok(comp) = dev.write(t, c.ppa(info.write_ptr), &unit(&geo, step as u8)) {
                    t = comp.done;
                }
            }
            1 => {
                if let Ok(comp) = dev.reset_chunk(t, c) {
                    t = comp.done;
                }
            }
            _ => {
                if info.write_ptr >= geo.ws_min {
                    let mut out = vec![0u8; geo.ws_min_bytes()];
                    if dev.read(t, c.ppa(0), geo.ws_min, &mut out).is_ok() {
                        read_back.extend_from_slice(&out[..SECTOR_BYTES]);
                    }
                }
            }
        }
        // Let a virtual minute pass per step, so retention ages the data
        // into visible error traffic.
        t += SimDuration::from_secs(60);
    }
    let stats = dev.stats().clone();
    (
        t,
        read_back,
        stats.writes.ops(),
        stats.media_reads.ops(),
        stats.resets.ops(),
        *dev.health_ledger(),
    )
}

#[test]
fn enabled_model_is_deterministic_under_seed() {
    let geo = Geometry::small_slc();
    let run = || {
        let mut config = DeviceConfig::with_geometry(geo);
        config.reliability = Some(7);
        run_workload(OcssdDevice::new(config), geo)
    };
    let first = run();
    let read_errors = first.5.retention_errors + first.5.disturb_errors + first.5.wear_errors;
    assert!(read_errors > 0, "the model must draw errors: {:?}", first.5);
    assert_eq!(first, run());
}

/// Hammers one chunk with reads while virtual time passes: the model must
/// produce uncorrectable reads, flag the chunk refresh-due exactly once for
/// the cycle, and reconcile ledger ↔ stats ↔ events — without counting the
/// advisory refresh as a grown bad block.
#[test]
fn stressed_chunk_errors_reconcile() {
    let geo = Geometry::small_slc();
    let mut config = DeviceConfig::with_geometry(geo);
    config.reliability = Some(13);
    let mut dev = OcssdDevice::new(config);
    let c = ChunkAddr::new(0, 0, 0);
    let mut t = SimTime::ZERO;
    let comp = dev.write(t, c.ppa(0), &unit(&geo, 1)).unwrap();
    t = comp.done + SimDuration::from_secs(1);
    let mut out = vec![0u8; geo.ws_min_bytes()];
    let mut errors = 0u64;
    for _ in 0..4000 {
        match dev.read(t, c.ppa(0), geo.ws_min, &mut out) {
            Ok(_) => {}
            Err(DeviceError::UncorrectableRead(_)) => errors += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
        t += SimDuration::from_millis(100);
    }
    assert!(errors > 0, "a hammered aging chunk must throw read errors");

    let ledger = *dev.health_ledger();
    let stats = dev.stats().clone();
    assert_eq!(
        ledger.retention_errors + ledger.disturb_errors + ledger.wear_errors,
        errors,
        "ledger reconciles with observed errors"
    );
    assert_eq!(
        stats.retention_read_errors + stats.disturb_read_errors + stats.wear_read_errors,
        errors,
        "stats reconcile with observed errors"
    );
    assert_eq!(ledger.refresh_flags, 1, "one refresh flag per erase cycle");
    let refreshes = dev
        .drain_events()
        .iter()
        .filter(|e| e.kind == MediaEventKind::RefreshDue)
        .count();
    assert_eq!(refreshes, 1, "exactly one RefreshDue event");
    assert_eq!(
        dev.grown_bad_blocks(),
        0,
        "advisory refresh events are not grown bad blocks"
    );
    assert!(dev.refresh_backlog(t) >= 1, "flagged chunk is in backlog");
    let h = dev.chunk_health(t, c);
    assert!(h.refresh_due && h.error_ppm >= REFRESH_THRESHOLD_PPM);
    assert!(h.reads_since_erase >= 4000);

    // An erase clears the cycle state: backlog drains, counters restart.
    dev.reset_chunk(t, c).unwrap();
    let h2 = dev.chunk_health(t, c);
    assert_eq!(h2.reads_since_erase, 0);
    assert!(!h2.refresh_due);
}

/// Erases near rated endurance grow bad blocks (EraseFail events that *do*
/// count) at a far higher rate than on a young device.
#[test]
fn end_of_life_grows_bad_blocks() {
    let mut geo = Geometry::small_slc();
    geo.endurance = 40; // reach end of life quickly
    let mut config = DeviceConfig::with_geometry(geo);
    config.reliability = Some(5);
    let mut dev = OcssdDevice::new(config);
    let mut t = SimTime::ZERO;
    let mut eol_fails = 0u64;
    'outer: for c in 0..CHUNKS {
        let addr = ChunkAddr::new(0, 0, c);
        for i in 0..geo.endurance + 2 {
            if dev.write(t, addr.ppa(0), &unit(&geo, i as u8)).is_err() {
                continue 'outer;
            }
            match dev.reset_chunk(t, addr) {
                Ok(comp) => t = comp.done,
                Err(_) => continue 'outer, // retired: wear-out or grown bad
            }
        }
    }
    eol_fails += dev.health_ledger().eol_erase_fails;
    assert!(
        eol_fails > 0,
        "cycling to rated endurance must grow some bad blocks"
    );
    assert_eq!(dev.stats().eol_erase_fails, eol_fails);
    assert!(
        dev.grown_bad_blocks() >= eol_fails,
        "EOL erase failures count as grown bad blocks"
    );
}
