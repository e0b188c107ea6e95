//! Seeded property tests for the multi-queue scheduler (tier-1).
//!
//! Three properties from the issue, plus the qos-matrix end-to-end point:
//!
//! * **(a)** no arbiter reorders writes within a chunk — the device's
//!   write-pointer discipline would reject any reorder, so "every write
//!   succeeds and the payload reads back in order" is a machine-checked
//!   proof;
//! * **(b)** no tenant starves under weighted round-robin — over 10 000
//!   commands the gap between consecutive dispatches of any tenant is
//!   bounded by one deficit refill round (the sum of all weights);
//! * **(c)** an empty scheduler config is latency-identical to direct
//!   device calls, asserted to the nanosecond like the empty `FaultPlan`.
//!
//! The arbiter and tenant-count legs come from `OX_QOS_ARBITER` /
//! `OX_QOS_TENANTS` (see the qos-matrix CI job), mirroring the fault-matrix
//! hooks.

use iosched::{
    matrix_arbiter, matrix_tenants, ArbiterKind, IoCmd, IoScheduler, SchedConfig, SchedMedia,
    SharedScheduler, TenantConfig, TenantId,
};
use ocssd::{ChunkAddr, DeviceConfig, Geometry, OcssdDevice, SharedDevice, SECTOR_BYTES};
use ox_core::{Media, OcssdMedia};
use ox_sim::{Prng, SimDuration, SimTime};
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

/// Pumps until every queue is drained.
fn drain(sched: &SharedScheduler) {
    while let Some(t) = sched.next_ready() {
        if t == SimTime::MAX {
            break;
        }
        sched.pump(t);
    }
}

fn tenant_chunk(geo: &Geometry, tenant: usize) -> ChunkAddr {
    let pu = (tenant as u32) % geo.total_pus();
    ChunkAddr::new(pu / geo.pus_per_group, pu % geo.pus_per_group, 0)
}

/// (a) Writes of one tenant land at the device in submission order under
/// every arbiter, for several seeds and the matrix tenant count. The device
/// rejects any write that misses the chunk's write pointer, so zero errors
/// plus a faithful read-back is proof of per-chunk ordering.
#[test]
fn no_arbiter_reorders_writes_within_a_chunk() {
    let geo = Geometry::small_slc();
    let tenants = matrix_tenants();
    let writes_per_tenant = 40usize;
    for kind in [
        ArbiterKind::Fifo,
        ArbiterKind::RoundRobin,
        ArbiterKind::WeightedRoundRobin,
        ArbiterKind::Deadline,
    ] {
        for seed in 0..4u64 {
            let mut rng = Prng::seed_from_u64(0x9057 ^ seed);
            let dev = device(geo);
            let mut cfg = SchedConfig::with_arbiter(kind);
            cfg.dispatch_overhead = SimDuration::from_nanos(300);
            let sched = scheduler(&dev, cfg);
            let ids: Vec<TenantId> = (0..tenants)
                .map(|i| {
                    sched.add_tenant(TenantConfig::new(&format!("t{i}")).weight(1 + (i as u32) % 3))
                })
                .collect();

            let mut remaining = vec![writes_per_tenant; tenants];
            let mut next_unit = vec![0u32; tenants];
            let mut now = SimTime::ZERO;
            while remaining.iter().any(|r| *r > 0) {
                let pick = rng.gen_range(tenants as u64) as usize;
                if remaining[pick] == 0 {
                    continue;
                }
                let unit = next_unit[pick];
                next_unit[pick] += 1;
                remaining[pick] -= 1;
                let addr = tenant_chunk(&geo, pick);
                let fill = (pick * 41 + unit as usize) as u8;
                let data = vec![fill; geo.ws_min as usize * SECTOR_BYTES];
                sched
                    .submit(
                        now,
                        ids[pick],
                        IoCmd::Write {
                            ppa: addr.ppa(unit * geo.ws_min),
                            parts: vec![data.into()],
                        },
                    )
                    .expect("queue deep enough for the whole workload");
                if rng.gen_bool(0.3) {
                    now += SimDuration::from_nanos(rng.gen_range(5_000));
                    sched.pump(now);
                }
            }
            drain(&sched);

            let mut end = SimTime::ZERO;
            for (i, id) in ids.iter().enumerate() {
                let comps = sched.take_completions(*id);
                assert_eq!(comps.len(), writes_per_tenant, "{kind:?} seed {seed}");
                let mut last = SimTime::ZERO;
                for c in &comps {
                    assert_eq!(c.result, Ok(()), "{kind:?} seed {seed} tenant {i}: {c:?}");
                    assert!(c.dispatched >= last, "per-tenant dispatch order broke");
                    last = c.dispatched;
                    end = end.max(c.completed);
                }
            }
            // Read-back: the chunk contents are the submission sequence.
            let t_check = end + SimDuration::from_millis(10);
            for (i, _) in ids.iter().enumerate() {
                let addr = tenant_chunk(&geo, i);
                for unit in 0..writes_per_tenant as u32 {
                    let mut out = vec![0u8; geo.ws_min as usize * SECTOR_BYTES];
                    dev.read(t_check, addr.ppa(unit * geo.ws_min), geo.ws_min, &mut out)
                        .expect("read back");
                    let fill = (i * 41 + unit as usize) as u8;
                    assert!(out.iter().all(|b| *b == fill), "payload order broke");
                }
            }
        }
    }
}

/// (b) Deficit round-robin gives every backlogged tenant `weight` dispatches
/// per refill round: over 10 000 commands, no tenant ever waits more than
/// one full round (sum of all weights) between consecutive dispatches.
#[test]
fn no_tenant_starves_under_weighted_round_robin() {
    let geo = Geometry::small_slc();
    let tenants = matrix_tenants();
    let total = 10_000usize;
    let per = total / tenants;
    let dev = device(geo);

    // Pre-fill one closed chunk per tenant so reads are media reads.
    let mut t = SimTime::ZERO;
    for i in 0..tenants {
        let addr = tenant_chunk(&geo, i);
        for unit in 0..geo.sectors_per_chunk / geo.ws_min {
            let data = vec![i as u8; geo.ws_min as usize * SECTOR_BYTES];
            let w = dev
                .write(t, addr.ppa(unit * geo.ws_min), &data)
                .expect("prefill");
            t = w.done;
        }
    }
    let start = dev.flush(t).done + SimDuration::from_millis(1);

    let mut cfg = SchedConfig::with_arbiter(ArbiterKind::WeightedRoundRobin);
    // Non-zero dispatch cost makes the global dispatch order observable
    // (strictly increasing dispatch timestamps).
    cfg.dispatch_overhead = SimDuration::from_nanos(500);
    let sched = scheduler(&dev, cfg);
    let weights: Vec<u32> = (0..tenants).map(|i| 1 + (i as u32) % 4).collect();
    let ids: Vec<TenantId> = (0..tenants)
        .map(|i| {
            sched.add_tenant(
                TenantConfig::new(&format!("t{i}"))
                    .weight(weights[i])
                    .depth(per),
            )
        })
        .collect();
    for j in 0..per {
        for (i, id) in ids.iter().enumerate() {
            let addr = tenant_chunk(&geo, i);
            let unit = (j as u32) % (geo.sectors_per_chunk / geo.ws_min);
            sched
                .submit(
                    start,
                    *id,
                    IoCmd::Read {
                        ppa: addr.ppa(unit * geo.ws_min),
                        sectors: geo.ws_min,
                    },
                )
                .expect("depth sized to workload");
        }
    }
    drain(&sched);

    // Global dispatch order: (dispatch time, tenant).
    let mut order: Vec<(SimTime, usize)> = Vec::with_capacity(per * tenants);
    for (i, id) in ids.iter().enumerate() {
        let comps = sched.take_completions(*id);
        assert_eq!(comps.len(), per, "tenant {i} lost commands");
        for c in comps {
            assert_eq!(c.result, Ok(()));
            order.push((c.dispatched, i));
        }
    }
    order.sort();
    let round: usize = weights.iter().map(|w| *w as usize).sum();
    let mut last_pos = vec![0usize; tenants];
    let mut seen = vec![0usize; tenants];
    for (pos, (_, tenant)) in order.iter().enumerate() {
        if seen[*tenant] > 0 {
            let gap = pos - last_pos[*tenant];
            assert!(
                gap <= round,
                "tenant {tenant} waited {gap} dispatches (> one {round}-dispatch round)"
            );
        }
        last_pos[*tenant] = pos;
        seen[*tenant] += 1;
    }
    for (i, s) in seen.iter().enumerate() {
        assert_eq!(*s, per, "tenant {i} starved");
    }
}

/// (c) The default config is a no-op: completions through the scheduler are
/// nanosecond-identical to direct device calls, over a seeded mixed
/// workload of writes, reads, flushes, a reset and a device-internal copy.
#[test]
fn empty_config_is_latency_identical_to_direct_device() {
    let geo = Geometry::small_slc();
    let dev_cfg = DeviceConfig::with_geometry(geo);
    let direct_dev = SharedDevice::new(OcssdDevice::new(dev_cfg.clone()));
    let sched_dev = SharedDevice::new(OcssdDevice::new(dev_cfg));
    let direct = OcssdMedia::new(direct_dev.clone());
    let sched = scheduler(&sched_dev, SchedConfig::default());
    let tenant = sched.add_tenant(TenantConfig::new("identity"));
    let via = SchedMedia::new(sched, tenant);

    let mut rng = Prng::seed_from_u64(0x1DE7);
    let chunks: Vec<ChunkAddr> = (0..4).map(|i| tenant_chunk(&geo, i)).collect();
    let units = geo.sectors_per_chunk / geo.ws_min;
    let mut wp = vec![0u32; chunks.len()];
    let mut now = SimTime::ZERO;
    for _ in 0..200 {
        now += SimDuration::from_nanos(rng.gen_range(20_000));
        let c = rng.gen_range(chunks.len() as u64) as usize;
        let addr = chunks[c];
        if wp[c] < units && rng.gen_bool(0.6) {
            let data = vec![wp[c] as u8; geo.ws_min as usize * SECTOR_BYTES];
            let ppa = addr.ppa(wp[c] * geo.ws_min);
            wp[c] += 1;
            let a = direct.write(now, ppa, &data).expect("direct write");
            let b = via.write(now, ppa, &data).expect("scheduled write");
            assert_eq!(a, b, "write completion diverged");
        } else if wp[c] > 0 {
            let unit = rng.gen_range(wp[c] as u64) as u32;
            let ppa = addr.ppa(unit * geo.ws_min);
            let mut out_a = vec![0u8; geo.ws_min as usize * SECTOR_BYTES];
            let mut out_b = out_a.clone();
            let a = direct
                .read(now, ppa, geo.ws_min, &mut out_a)
                .expect("direct read");
            let b = via
                .read(now, ppa, geo.ws_min, &mut out_b)
                .expect("scheduled read");
            assert_eq!(a, b, "read completion diverged");
            assert_eq!(out_a, out_b, "read payload diverged");
        }
        if rng.gen_bool(0.05) {
            assert_eq!(direct.flush(now), via.flush(now), "flush diverged");
        }
    }
    // Copy and reset go through the same queue; compare those too.
    now += SimDuration::from_millis(1);
    if wp[0] > 0 {
        let srcs: Vec<_> = (0..geo.ws_min).map(|s| chunks[0].ppa(s)).collect();
        let dst = ChunkAddr::new(3, 1, 5);
        let a = direct.copy(now, &srcs, dst).expect("direct copy");
        let b = via.copy(now, &srcs, dst).expect("scheduled copy");
        assert_eq!(a, b, "copy completion diverged");
    }
    if wp[1] == units {
        let a = direct.reset(now, chunks[1]).expect("direct reset");
        let b = via.reset(now, chunks[1]).expect("scheduled reset");
        assert_eq!(a, b, "reset completion diverged");
    }
}

/// The qos-matrix point: a mixed multi-tenant workload under the matrix
/// arbiter and tenant count completes fully, in per-tenant order, with a
/// finite worst queueing delay.
#[test]
fn matrix_point_completes_in_order() {
    let geo = Geometry::small_slc();
    let tenants = matrix_tenants();
    let kind = matrix_arbiter();
    let dev = device(geo);
    let mut cfg = SchedConfig::with_arbiter(kind);
    cfg.dispatch_overhead = SimDuration::from_nanos(200);
    let sched = scheduler(&dev, cfg);
    let ids: Vec<TenantId> = (0..tenants)
        .map(|i| sched.add_tenant(TenantConfig::new(&format!("t{i}")).weight(1 + (i as u32) % 3)))
        .collect();
    let mut rng = Prng::seed_from_u64(0xA11);
    let units = 30u32;
    for unit in 0..units {
        for (i, id) in ids.iter().enumerate() {
            let addr = tenant_chunk(&geo, i);
            let now = SimTime::from_nanos(rng.gen_range(1_000_000));
            // Interleave: writes first fill the chunk; later units read back.
            let cmd = if unit < units / 2 {
                IoCmd::Write {
                    ppa: addr.ppa(unit * geo.ws_min),
                    parts: vec![vec![i as u8; geo.ws_min as usize * SECTOR_BYTES].into()],
                }
            } else {
                IoCmd::Read {
                    ppa: addr.ppa((unit - units / 2) * geo.ws_min),
                    sectors: geo.ws_min,
                }
            };
            // Per-tenant submission times must be monotone; derive from unit.
            let t = SimTime::from_micros(unit as u64 * 50)
                + SimDuration::from_nanos(now.as_nanos() % 1_000);
            sched.submit(t, *id, cmd).expect("deep enough");
            sched.pump(t);
        }
    }
    drain(&sched);
    for (i, id) in ids.iter().enumerate() {
        let comps = sched.take_completions(*id);
        assert_eq!(comps.len(), units as usize, "tenant {i}");
        for c in comps {
            assert_eq!(c.result, Ok(()), "tenant {i}");
        }
    }
    let stats = sched.stats();
    assert_eq!(stats.dispatched, units as u64 * tenants as u64);
    assert!(stats.max_queue_delay < SimDuration::from_secs(1));
}
