//! Crash-recovery regression on the Figure 3 path: OX-Block serves random
//! transactional writes (up to 1 MB each), the device crashes mid-stream —
//! including with a torn transaction in flight — and after restart the
//! reconstructed mapping table (checkpoint + WAL replay) must converge to
//! exactly the pre-crash committed prefix. This is the fast `cargo test`
//! version of the experiment `fig3_recovery` runs at scale.

use ox_workbench::ocssd::{DeviceConfig, OcssdDevice, SharedDevice, SECTOR_BYTES};
use ox_workbench::ox_block::{BlockFtl, BlockFtlConfig};
use ox_workbench::ox_core::layout::LayoutConfig;
use ox_workbench::ox_core::{Media, OcssdMedia};
use ox_workbench::ox_sim::{Prng, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::sync::Arc;

const CAPACITY: u64 = 32 * 1024 * 1024;
const PAGES: u64 = CAPACITY / SECTOR_BYTES as u64;
const TORN_VERSION: u32 = 0xDEAD;

fn fingerprint_page(lpn: u64, version: u32) -> Vec<u8> {
    let mut page = vec![0u8; SECTOR_BYTES];
    page[..8].copy_from_slice(&lpn.to_le_bytes());
    page[8..12].copy_from_slice(&version.to_le_bytes());
    page
}

fn ftl_config(checkpoint_interval: Option<SimDuration>) -> BlockFtlConfig {
    let mut cfg = BlockFtlConfig::with_capacity(CAPACITY);
    cfg.checkpoint_interval = checkpoint_interval;
    // The Figure 3 layout: a ring large enough to hold the whole run's log
    // even with checkpointing disabled.
    cfg.layout = LayoutConfig { wal_chunks: 1024 };
    cfg
}

/// Runs the Fig. 3 workload until `crash_at`, crashes (optionally with one
/// torn transaction in flight), recovers, and checks convergence.
fn crash_and_recover(checkpoint_interval: Option<SimDuration>, seed: u64) {
    let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::paper_tlc_scaled(22, 8)));
    let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
    let (mut ftl, mut t) =
        BlockFtl::format(media, ftl_config(checkpoint_interval), SimTime::ZERO).unwrap();

    let crash_at_target = SimTime::from_nanos(400_000_000); // 0.4 virtual seconds
    let mut rng = Prng::seed_from_u64(seed);
    let mut version: BTreeMap<u64, u32> = BTreeMap::new();
    let mut txn = 0u32;
    let mut checkpoints = 0u32;

    while t < crash_at_target {
        txn += 1;
        let pages_in_txn = rng.gen_range_in(1, 257);
        let lpn = rng.gen_range(PAGES - pages_in_txn);
        let mut buf = Vec::with_capacity(pages_in_txn as usize * SECTOR_BYTES);
        for p in 0..pages_in_txn {
            buf.extend_from_slice(&fingerprint_page(lpn + p, txn));
            version.insert(lpn + p, txn);
        }
        t = ftl.write(t, lpn, &buf).unwrap().done;
        if let Some(done) = ftl.maybe_checkpoint(t).unwrap() {
            t = done;
            checkpoints += 1;
        }
    }
    let crash_at = t;
    if checkpoint_interval.is_some() {
        assert!(
            checkpoints > 0,
            "interval short enough to checkpoint mid-run"
        );
    }

    // One more transaction in flight at the crash instant: its device
    // writes are acknowledged after `crash_at`, so the crash rolls them
    // back and recovery must discard the torn tail.
    let torn_pages = rng.gen_range_in(1, 257);
    let torn_lpn = rng.gen_range(PAGES - torn_pages);
    let mut buf = Vec::with_capacity(torn_pages as usize * SECTOR_BYTES);
    for p in 0..torn_pages {
        buf.extend_from_slice(&fingerprint_page(torn_lpn + p, TORN_VERSION));
    }
    let _ = ftl.write(crash_at, torn_lpn, &buf);
    dev.crash(crash_at);

    // Restart: checkpoint load + WAL replay rebuild the mapping table.
    let media2: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev));
    let (mut ftl2, outcome) =
        BlockFtl::recover(media2, ftl_config(checkpoint_interval), crash_at).unwrap();
    assert!(outcome.frames_scanned > 0, "recovery scanned the log");
    if checkpoint_interval.is_none() {
        // No checkpoint: every committed transaction replays from the WAL.
        assert_eq!(outcome.checkpoint_seq, 0);
        assert_eq!(outcome.txns_committed, txn as u64);
    }

    // The mapping table converged to exactly the committed prefix: every
    // committed page reads back its newest committed fingerprint...
    let mut out = vec![0u8; SECTOR_BYTES];
    let mut t = outcome.done;
    for (&lpn, &v) in &version {
        t = ftl2.read(t, lpn, &mut out).unwrap().done;
        let got_lpn = u64::from_le_bytes(out[..8].try_into().unwrap());
        let got_v = u32::from_le_bytes(out[8..12].try_into().unwrap());
        assert_eq!(got_lpn, lpn, "seed {seed}: content belongs to lpn {lpn}");
        assert_eq!(
            got_v, v,
            "seed {seed}: lpn {lpn} recovered v{got_v} != committed v{v}"
        );
    }
    // ...and no page exposes the torn transaction's data.
    for p in 0..torn_pages {
        t = ftl2.read(t, torn_lpn + p, &mut out).unwrap().done;
        let got_v = u32::from_le_bytes(out[8..12].try_into().unwrap());
        assert_ne!(
            got_v,
            TORN_VERSION,
            "seed {seed}: torn write leaked at lpn {}",
            torn_lpn + p
        );
    }
}

#[test]
fn recovery_converges_with_checkpoints() {
    crash_and_recover(Some(SimDuration::from_millis(100)), 0xF163);
}

#[test]
fn recovery_converges_from_wal_alone() {
    crash_and_recover(None, 0xF164);
}
