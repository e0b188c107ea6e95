//! Client-port integration tests: an FTL formatted — or recovered — on a
//! user+GC [`SchedMedia`] issues its background relocation (OX-Block GC,
//! scrub patrol reads, ZTL relocation) through the scheduler's GC-class
//! tenant with no wiring call after construction, while its foreground and
//! WAL traffic stays on the user tenant.

use iosched::{
    ArbiterKind, IoScheduler, SchedConfig, SchedMedia, SchedStats, SharedScheduler, TenantConfig,
};
use ocssd::{DeviceConfig, DeviceStats, OcssdDevice, SharedDevice, SECTOR_BYTES};
use ox_block::{BlockFtl, BlockFtlConfig, SCRUB_CHUNKS_PER_STEP};
use ox_core::{Media, OcssdMedia};
use ox_sim::{SimDuration, SimTime};
use std::sync::Arc;

/// A paper drive fronted by a deadline scheduler, and the media an FTL is
/// built on: the scheduler's user tenant, naming its GC-class tenant as the
/// route for background relocation.
fn stack() -> (SharedDevice, SharedScheduler, Arc<dyn Media>) {
    let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::paper_tlc_scaled(22, 8)));
    let sched = SharedScheduler::new(IoScheduler::new(
        Arc::new(OcssdMedia::new(dev.clone())),
        SchedConfig::with_arbiter(ArbiterKind::Deadline),
    ));
    let user = sched.add_tenant(TenantConfig::new("user"));
    let gc = sched.add_tenant(TenantConfig::new("gc").gc_class());
    let media = Arc::new(SchedMedia::with_gc(sched.clone(), user, gc));
    (dev, sched, media)
}

fn user_dispatched(s: &SchedStats) -> u64 {
    s.dispatched - s.gc_dispatched
}

/// Asserts that between the two snapshots every copy and reset the device
/// saw travelled in the GC class, and the user tenant carried nothing but
/// writes (the relocation's WAL commit).
fn assert_relocation_was_gc_class(
    what: &str,
    (s0, d0): &(SchedStats, DeviceStats),
    (s1, d1): &(SchedStats, DeviceStats),
) {
    let relocation = (d1.copies.ops() - d0.copies.ops()) + (d1.resets.ops() - d0.resets.ops());
    assert!(relocation > 0, "{what}: nothing was relocated");
    assert_eq!(
        s1.gc_dispatched - s0.gc_dispatched,
        relocation,
        "{what}: every copy and reset should carry the GC class"
    );
    assert_eq!(
        user_dispatched(s1) - user_dispatched(s0),
        d1.writes.ops() - d0.writes.ops(),
        "{what}: the user tenant should carry only the WAL commit"
    );
}

fn snapshot(dev: &SharedDevice, sched: &SharedScheduler) -> (SchedStats, DeviceStats) {
    (sched.stats(), dev.with(|d| d.stats().clone()))
}

/// Two full overwrite rounds leave every chunk half garbage.
fn churn(ftl: &mut BlockFtl, capacity: u64, mut t: SimTime) -> SimTime {
    let buf = vec![7u8; 96 * SECTOR_BYTES];
    for _round in 0..2 {
        let mut lpn = 0u64;
        while lpn + 96 <= capacity / SECTOR_BYTES as u64 {
            t = ftl.write(t, lpn, &buf).expect("write").done;
            lpn += 96;
        }
    }
    t
}

/// OX-Block GC relocation (chunk copies + the victim erase) issues through
/// the GC-class tenant of the media the FTL was formatted on — and still
/// does after `BlockFtl::recover` on the same media.
#[test]
fn block_ftl_gc_is_gc_class_after_format_and_after_recover() {
    let (dev, sched, media) = stack();
    let capacity = 64 << 20;
    let cfg = BlockFtlConfig::with_capacity(capacity);
    let (mut ftl, t) = BlockFtl::format(media.clone(), cfg, SimTime::ZERO).expect("format");
    let t = churn(&mut ftl, capacity, t);
    assert_eq!(sched.stats().gc_dispatched, 0, "user writes are user-class");

    let before = snapshot(&dev, &sched);
    let pass = ftl.gc_once(t).expect("gc pass");
    assert!(pass.victims > 0, "GC should have found a victim");
    assert_relocation_was_gc_class("after format", &before, &snapshot(&dev, &sched));

    // Power cut, then recovery on the same media: no re-wiring call.
    let t = media.flush(pass.done).done;
    dev.crash(t);
    let (mut ftl, outcome) = BlockFtl::recover(media, cfg, t).expect("recover");
    let before = snapshot(&dev, &sched);
    let pass = ftl.gc_once(outcome.done).expect("gc pass after recover");
    assert!(pass.victims > 0, "GC should have found a victim");
    assert_relocation_was_gc_class("after recover", &before, &snapshot(&dev, &sched));

    // The FTL still serves reads correctly after scheduled GC passes.
    let mut out = vec![0u8; SECTOR_BYTES];
    ftl.read(pass.done + SimDuration::from_millis(1), 0, &mut out)
        .expect("post-GC read");
    assert_eq!(out[0], 7);
}

/// The scrubber's patrol reads issue through the GC-class tenant; a patrol
/// lap that refreshes nothing (the device has no reliability model, so no
/// chunk is refresh-due) leaves the user tenant untouched.
#[test]
fn block_ftl_scrub_patrol_reads_are_gc_class() {
    let (dev, sched, media) = stack();
    let capacity = 64 << 20;
    let mut cfg = BlockFtlConfig::with_capacity(capacity);
    cfg.scrub = true;
    let (mut ftl, t) = BlockFtl::format(media, cfg, SimTime::ZERO).expect("format");
    let mut t = churn(&mut ftl, capacity, t);

    let before = sched.stats();
    let (mut scanned, mut refreshed) = (0, 0);
    let lap = dev
        .geometry()
        .total_chunks()
        .div_ceil(SCRUB_CHUNKS_PER_STEP);
    for _ in 0..lap {
        let report = ftl.scrub_step(t).expect("scrub step");
        (scanned, refreshed) = (scanned + report.scanned, refreshed + report.refreshed);
        t = report.done;
    }
    let after = sched.stats();
    assert!(scanned > 0, "the patrol should have found closed chunks");
    assert_eq!(refreshed, 0, "nothing is due for a refresh");
    assert_eq!(
        after.gc_dispatched - before.gc_dispatched,
        scanned,
        "one GC-class patrol read per scanned chunk"
    );
    assert_eq!(
        user_dispatched(&after),
        user_dispatched(&before),
        "patrol reads must not touch the user tenant"
    );
}

/// The zone-translation layer routes relocation (victim reads, live-record
/// appends and the zone reset) through the GC-class tenant of the media it
/// was formatted on; foreground appends stay on the user tenant.
#[test]
fn ztl_gc_relocation_is_gc_class() {
    use oxztl::{ZtlConfig, ZtlFtl};

    let (_dev, sched, media) = stack();
    let (mut ftl, mut t) =
        ZtlFtl::format(media, ZtlConfig::default(), SimTime::ZERO).expect("format");

    // Overwrite one range until several zones close full of garbage, then
    // every other span once more: the newest zones end up half dead, which
    // is over the collector's garbage budget but leaves it records to move.
    let span = 4 * ftl.unit_data_sectors() as usize;
    let buf = vec![5u8; span * SECTOR_BYTES];
    for round in 0..4 {
        let mut lpn = 0u64;
        while lpn + (span as u64) < 4800 {
            t = ftl.write_sectors(t, lpn, &buf).expect("write");
            lpn += span as u64 * if round == 3 { 2 } else { 1 };
        }
    }
    let before = sched.stats();
    assert_eq!(before.gc_dispatched, 0, "foreground appends are user-class");

    // Dead zones are reset first; keep stepping until a pass has had to
    // relocate live records and the victim it drained has been reset.
    for _ in 0..32 {
        t = ftl.maybe_gc(t).expect("gc pass") + SimDuration::from_millis(1);
    }
    let stats = *ftl.stats();
    assert!(stats.gc_passes > 0, "GC should have found a victim");
    assert!(
        stats.gc_relocated_sectors > 0 && stats.zone_resets > 0,
        "GC should have relocated live records and reset zones: {stats:?}"
    );
    let after = sched.stats();
    // A zone reset is one erase per chunk (two); the rest are the victims'
    // reads and the survivors' appends.
    assert!(
        after.gc_dispatched > 2 * stats.zone_resets,
        "relocation did not route through the GC tenant: {after:?}"
    );
    assert_eq!(
        user_dispatched(&after),
        user_dispatched(&before),
        "relocation must not touch the user tenant"
    );

    // The layer still serves reads correctly after a scheduled GC pass.
    let mut out = vec![0u8; SECTOR_BYTES];
    ftl.read_sectors(t + SimDuration::from_millis(1), 0, 1, &mut out)
        .expect("post-GC read");
    assert_eq!(out[0], 5);
}
