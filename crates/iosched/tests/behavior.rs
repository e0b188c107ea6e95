//! Targeted behaviour tests: GC-class gating and anti-starvation, token
//! buckets, admission control, the FIFO QD-1 baseline and completion
//! timestamp attribution.

use iosched::{
    ArbiterKind, IoCmd, IoScheduler, RateLimit, SchedConfig, SchedError, SharedScheduler,
    TenantConfig, TenantId, CLASS_TARGETS,
};
use ocssd::{ChunkAddr, DeviceConfig, Geometry, OcssdDevice, SharedDevice, SECTOR_BYTES};
use ox_core::OcssdMedia;
use ox_sim::{SimDuration, SimTime};
use std::sync::Arc;

fn device(geo: Geometry) -> SharedDevice {
    SharedDevice::new(OcssdDevice::new(DeviceConfig::with_geometry(geo)))
}

fn scheduler(dev: &SharedDevice, cfg: SchedConfig) -> SharedScheduler {
    SharedScheduler::new(IoScheduler::new(
        Arc::new(OcssdMedia::new(dev.clone())),
        cfg,
    ))
}

fn drain(sched: &SharedScheduler) {
    while let Some(t) = sched.next_ready() {
        if t == SimTime::MAX {
            break;
        }
        sched.pump(t);
    }
}

fn unit(geo: &Geometry, fill: u8) -> Vec<u8> {
    vec![fill; geo.ws_min as usize * SECTOR_BYTES]
}

/// Fills chunk 0 of (group 0, pu 0) so reads of it are media reads, and
/// returns a start time safely past the prefill drain.
fn prefill(dev: &SharedDevice, geo: &Geometry, addr: ChunkAddr) -> SimTime {
    let mut t = SimTime::ZERO;
    for u in 0..geo.sectors_per_chunk / geo.ws_min {
        let w = dev
            .write(t, addr.ppa(u * geo.ws_min), &unit(geo, u as u8))
            .expect("prefill");
        t = w.done;
    }
    dev.flush(t).done + SimDuration::from_millis(1)
}

/// A GC copy targeting a busy PU waits for the user backlog on that PU to
/// dispatch first, even though it was submitted at the same instant.
#[test]
fn gc_class_yields_to_user_backlog() {
    let geo = Geometry::small_slc();
    let dev = device(geo);
    let addr = ChunkAddr::new(0, 0, 0);
    let start = prefill(&dev, &geo, addr);

    let sched = scheduler(&dev, SchedConfig::with_arbiter(ArbiterKind::Deadline));
    let user = sched.add_tenant(TenantConfig::new("user"));
    let gc = sched.add_tenant(TenantConfig::new("gc").gc_class());

    for u in 0..20 {
        sched
            .submit(
                start,
                user,
                IoCmd::Read {
                    ppa: addr.ppa((u % 8) * geo.ws_min),
                    sectors: geo.ws_min,
                },
            )
            .expect("submit read");
    }
    let srcs: Vec<_> = (0..geo.ws_min).map(|s| addr.ppa(s)).collect();
    sched
        .submit(
            start,
            gc,
            IoCmd::Copy {
                srcs,
                dst: ChunkAddr::new(0, 0, 1),
            },
        )
        .expect("submit gc copy");
    drain(&sched);

    let user_comps = sched.take_completions(user);
    let gc_comps = sched.take_completions(gc);
    assert_eq!(user_comps.len(), 20);
    assert_eq!(gc_comps.len(), 1);
    assert_eq!(gc_comps[0].result, Ok(()));
    let last_user_dispatch = user_comps
        .iter()
        .map(|c| c.dispatched)
        .max()
        .expect("20 reads");
    assert!(
        gc_comps[0].dispatched >= last_user_dispatch,
        "GC copy ({:?}) overtook user reads (last at {:?})",
        gc_comps[0].dispatched,
        last_user_dispatch
    );
    assert!(gc_comps[0].queue_delay() > SimDuration::ZERO);
    assert_eq!(sched.stats().gc_dispatched, 1);
}

/// Under a user read stream that never lets the PU fall idle, the GC copy
/// still dispatches at its anti-starvation deadline, exactly.
#[test]
fn gc_class_dispatches_at_deadline_under_sustained_load() {
    let geo = Geometry::small_slc();
    let dev = device(geo);
    let addr = ChunkAddr::new(0, 0, 0);
    let start = prefill(&dev, &geo, addr);

    let gc_deadline = CLASS_TARGETS.gc;
    let sched = scheduler(&dev, SchedConfig::with_arbiter(ArbiterKind::Deadline));
    let user = sched.add_tenant(TenantConfig::new("user").depth(20_000));
    let gc = sched.add_tenant(TenantConfig::new("gc").gc_class());

    // Reads every 10 µs for 2× the GC deadline: an SLC page read (25 µs)
    // takes longer than that, so the PU backlog only ever grows.
    let mut t = start;
    let mut u = 0u32;
    while t < start + gc_deadline + gc_deadline {
        sched
            .submit(
                t,
                user,
                IoCmd::Read {
                    ppa: addr.ppa((u % 8) * geo.ws_min),
                    sectors: geo.ws_min,
                },
            )
            .expect("submit read");
        t += SimDuration::from_micros(10);
        u += 1;
    }
    let srcs: Vec<_> = (0..geo.ws_min).map(|s| addr.ppa(s)).collect();
    sched
        .submit(
            start,
            gc,
            IoCmd::Copy {
                srcs,
                dst: ChunkAddr::new(0, 0, 1),
            },
        )
        .expect("submit gc copy");
    drain(&sched);

    let gc_comps = sched.take_completions(gc);
    assert_eq!(gc_comps.len(), 1);
    assert_eq!(
        gc_comps[0].dispatched,
        start + gc_deadline,
        "anti-starvation deadline should force the GC dispatch"
    );
}

/// A token bucket paces dispatches at the configured byte rate even when
/// everything is submitted at once.
#[test]
fn token_bucket_paces_dispatches() {
    let geo = Geometry::small_slc();
    let dev = device(geo);
    let sched = scheduler(&dev, SchedConfig::default());
    let unit_bytes = geo.ws_min as u64 * SECTOR_BYTES as u64; // 16 KiB
    let tenant = sched.add_tenant(TenantConfig::new("paced").rate(RateLimit {
        bytes_per_sec: 1_000_000,
        burst_bytes: unit_bytes,
    }));
    let addr = ChunkAddr::new(0, 0, 0);
    for u in 0..3 {
        sched
            .submit(
                SimTime::ZERO,
                tenant,
                IoCmd::Write {
                    ppa: addr.ppa(u * geo.ws_min),
                    parts: vec![unit(&geo, u as u8).into()],
                },
            )
            .expect("submit");
    }
    drain(&sched);
    let comps = sched.take_completions(tenant);
    assert_eq!(comps.len(), 3);
    // 16384 B at 1 MB/s = 16.384 ms between dispatches.
    let gap = SimDuration::from_nanos(16_384_000);
    assert_eq!(comps[0].dispatched, SimTime::ZERO);
    assert_eq!(comps[1].dispatched, SimTime::ZERO + gap);
    assert_eq!(comps[2].dispatched, SimTime::ZERO + gap + gap);
}

/// Admission control: the bounded queue rejects, the driver sees backpressure.
#[test]
fn bounded_queue_rejects_when_full() {
    let geo = Geometry::small_slc();
    let dev = device(geo);
    let sched = scheduler(&dev, SchedConfig::default());
    let tenant = sched.add_tenant(TenantConfig::new("narrow").depth(2));
    let addr = ChunkAddr::new(0, 0, 0);
    let mk = |u: u32| IoCmd::Write {
        ppa: addr.ppa(u * geo.ws_min),
        parts: vec![unit(&geo, u as u8).into()],
    };
    assert!(sched.submit(SimTime::ZERO, tenant, mk(0)).is_ok());
    assert!(sched.submit(SimTime::ZERO, tenant, mk(1)).is_ok());
    assert_eq!(
        sched.submit(SimTime::ZERO, tenant, mk(2)),
        Err(SchedError::QueueFull(tenant))
    );
    assert_eq!(sched.stats().rejected, 1);
    assert_eq!(sched.queue_len(tenant), 2);
}

/// Unknown tenants are an error, not a panic.
#[test]
fn unknown_tenant_is_an_error() {
    let geo = Geometry::small_slc();
    let dev = device(geo);
    let sched = scheduler(&dev, SchedConfig::default());
    let ghost = TenantId(7);
    assert_eq!(
        sched.submit(
            SimTime::ZERO,
            ghost,
            IoCmd::Reset {
                chunk: ChunkAddr::new(0, 0, 0)
            }
        ),
        Err(SchedError::UnknownTenant(ghost))
    );
}

/// The FIFO baseline is queue-depth-1: a command never dispatches before
/// the previous command's completion, across tenants.
#[test]
fn fifo_baseline_serializes_at_queue_depth_one() {
    let geo = Geometry::small_slc();
    let dev = device(geo);
    let addr = ChunkAddr::new(0, 0, 0);
    let start = prefill(&dev, &geo, addr);
    let sched = scheduler(&dev, SchedConfig::with_arbiter(ArbiterKind::Fifo));
    let a = sched.add_tenant(TenantConfig::new("a"));
    let b = sched.add_tenant(TenantConfig::new("b"));
    for u in 0..2 {
        for id in [a, b] {
            sched
                .submit(
                    start,
                    id,
                    IoCmd::Read {
                        ppa: addr.ppa(u * geo.ws_min),
                        sectors: geo.ws_min,
                    },
                )
                .expect("submit");
        }
    }
    drain(&sched);
    let mut comps = sched.take_completions(a);
    comps.extend(sched.take_completions(b));
    comps.sort_by_key(|c| c.dispatched);
    assert_eq!(comps.len(), 4);
    for pair in comps.windows(2) {
        assert!(
            pair[1].dispatched >= pair[0].completed,
            "QD-1 chain broke: {:?} dispatched before {:?} completed",
            pair[1].dispatched,
            pair[0].completed
        );
    }
}

/// Completions attribute every stage: submit ≤ dispatch < media ≤ complete,
/// and the scheduler emits its trace spans for each stage.
#[test]
fn completion_timestamps_attribute_stages() {
    let geo = Geometry::small_slc();
    let dev = device(geo);
    let obs = dev.obs(); // the scheduler reports into its media's sinks
    obs.tracer.set_enabled(true);
    let addr = ChunkAddr::new(0, 0, 0);
    let start = prefill(&dev, &geo, addr);
    let cfg = SchedConfig {
        dispatch_overhead: SimDuration::from_micros(2),
        ..SchedConfig::default()
    };
    let sched = scheduler(&dev, cfg);
    let tenant = sched.add_tenant(TenantConfig::new("t"));
    let c = sched
        .submit_wait(
            start,
            tenant,
            IoCmd::Read {
                ppa: addr.ppa(0),
                sectors: geo.ws_min,
            },
        )
        .expect("read completes");
    assert_eq!(c.submitted, start);
    assert_eq!(c.dispatched, start, "idle queue dispatches immediately");
    assert!(c.media_done >= c.dispatched + SimDuration::from_micros(2));
    assert_eq!(c.completed, c.media_done);
    assert_eq!(c.queue_delay(), SimDuration::ZERO);
    assert!(c.latency() >= c.media_time());
    let ops: Vec<&str> = obs
        .tracer
        .snapshot()
        .iter()
        .filter(|e| e.subsystem == "iosched")
        .map(|e| e.op)
        .collect();
    for op in ["queue", "dispatch", "media", "complete"] {
        assert!(ops.contains(&op), "missing iosched.{op} trace span");
    }
}
