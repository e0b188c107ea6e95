//! §4.3 isolation, measured as a latency distribution.
//!
//! The paper argues that host-controlled placement and group-marked GC keep
//! background relocation away from most user I/O. This experiment recasts
//! that claim through the I/O scheduler: multiple closed-loop tenants share
//! one drive through `iosched`, and we report per-tenant read latency
//! percentiles (p50/p99/p999) in three phases:
//!
//! 1. **baseline** — two readers (one per group), nothing else running.
//! 2. **fifo + GC** — a competing sequential writer and a GC-class
//!    relocation tenant join, arbitrated by the naive FIFO (queue-depth-1,
//!    global order, class-blind) baseline.
//! 3. **deadline + GC** — same contenders under the deadline arbiter with
//!    the low-priority GC class.
//!
//! The reproduction target: with the deadline arbiter + GC class, the
//! reader *outside* the GC-marked group keeps its tail (p99 within 2× of
//! baseline), while FIFO drags every tenant's tail through the writer's
//! program times and the relocation copies.

use crate::backend::BenchBackend;
use crate::Report;
use iosched::{
    ArbiterKind, IoCmd, IoScheduler, SchedConfig, SharedScheduler, TenantConfig, TenantId,
};
use ocssd::{ChunkAddr, DeviceConfig, Geometry, SECTOR_BYTES};
use ox_core::{Media, OcssdMedia};
use ox_sim::stats::nearest_rank;
use ox_sim::trace::Obs;
use ox_sim::{Prng, SimDuration, SimTime};
use std::sync::Arc;

/// Latency percentiles for one tenant in one phase.
#[derive(Clone, Debug)]
pub struct TenantRow {
    /// Tenant label.
    pub name: &'static str,
    /// Completed commands sampled.
    pub samples: usize,
    /// Median latency in nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile latency in nanoseconds.
    pub p99_ns: u64,
    /// 99.9th-percentile latency in nanoseconds.
    pub p999_ns: u64,
}

/// One phase (arbiter × contention mix) of the experiment.
#[derive(Clone, Debug)]
pub struct PhaseResult {
    /// Phase label.
    pub name: &'static str,
    /// Arbitration policy the phase ran under.
    pub arbiter: ArbiterKind,
    /// Whether the writer + GC tenants were running.
    pub contended: bool,
    /// Per-tenant rows, reader tenants first.
    pub rows: Vec<TenantRow>,
    /// GC-class commands dispatched during the phase.
    pub gc_dispatched: u64,
}

impl PhaseResult {
    /// Row for the reader outside the GC-marked group.
    pub fn neighbor(&self) -> &TenantRow {
        self.rows
            .iter()
            .find(|r| r.name == "read/neighbor")
            .expect("neighbor row")
    }
}

/// Whole-experiment output.
#[derive(Clone, Debug)]
pub struct QosTailResult {
    /// baseline, fifo-contended, deadline-contended.
    pub phases: Vec<PhaseResult>,
}

/// What one closed-loop tenant does.
enum Work {
    /// Uniform random `ws_min` reads over prefilled chunks.
    RandomRead { chunks: Vec<ChunkAddr> },
    /// Sequential `ws_min`-unit writes, chunk after chunk.
    SeqWrite { chunks: Vec<ChunkAddr>, unit: u32 },
    /// Relocation: copy `units_per_copy` write units from the prefilled
    /// source chunks into fresh chunks of the same group.
    Relocate {
        srcs: Vec<ChunkAddr>,
        dsts: Vec<ChunkAddr>,
        unit: u32,
        units_per_copy: u32,
    },
}

struct Driver {
    name: &'static str,
    tenant: TenantId,
    work: Work,
    rng: Prng,
    inflight: bool,
    exhausted: bool,
    next_submit: SimTime,
    latencies_ns: Vec<u64>,
}

impl Driver {
    fn next_cmd(&mut self, geo: &Geometry) -> Option<IoCmd> {
        match &mut self.work {
            Work::RandomRead { chunks } => {
                let chunk = chunks[self.rng.gen_range(chunks.len() as u64) as usize];
                let units = (geo.sectors_per_chunk / geo.ws_min) as u64;
                let unit = self.rng.gen_range(units) as u32;
                Some(IoCmd::Read {
                    ppa: chunk.ppa(unit * geo.ws_min),
                    sectors: geo.ws_min,
                })
            }
            Work::SeqWrite { chunks, unit } => {
                let units_per_chunk = geo.sectors_per_chunk / geo.ws_min;
                let chunk = chunks.get((*unit / units_per_chunk) as usize)?;
                let ppa = chunk.ppa((*unit % units_per_chunk) * geo.ws_min);
                *unit += 1;
                Some(IoCmd::Write {
                    ppa,
                    parts: vec![vec![0xA5; geo.ws_min as usize * SECTOR_BYTES].into()],
                })
            }
            Work::Relocate {
                srcs,
                dsts,
                unit,
                units_per_copy,
            } => {
                let units_per_chunk = geo.sectors_per_chunk / geo.ws_min;
                let dst = *dsts.get((*unit / units_per_chunk) as usize)?;
                let src = srcs[(*unit % srcs.len() as u32) as usize];
                let base = (*unit % units_per_chunk) * geo.ws_min;
                let srcs: Vec<_> = (0..*units_per_copy * geo.ws_min)
                    .map(|s| src.ppa((base + s) % geo.sectors_per_chunk))
                    .collect();
                *unit += *units_per_copy;
                Some(IoCmd::Copy { srcs, dst })
            }
        }
    }
}

/// Writes every unit of `chunk` so later reads are media reads.
fn prefill_chunk(media: &dyn Media, geo: &Geometry, chunk: ChunkAddr, mut t: SimTime) -> SimTime {
    let data = vec![0x5A; geo.ws_min as usize * SECTOR_BYTES];
    for u in 0..geo.sectors_per_chunk / geo.ws_min {
        t = media
            .write(t, chunk.ppa(u * geo.ws_min), &data)
            .expect("prefill write")
            .done;
    }
    t
}

fn group_chunks(geo: &Geometry, group: u32, chunk: u32) -> Vec<ChunkAddr> {
    (0..geo.pus_per_group)
        .map(|pu| ChunkAddr::new(group, pu, chunk))
        .collect()
}

/// Runs one phase on a fresh device: prefills the two read groups, spawns
/// the closed-loop tenants and interleaves submission with scheduler pumps
/// until `duration` of virtual time has elapsed and the queues drain.
fn run_phase(
    name: &'static str,
    arbiter: ArbiterKind,
    contended: bool,
    duration: SimDuration,
    backend: BenchBackend,
    obs: &Obs,
) -> PhaseResult {
    let dev = crate::figure_device(DeviceConfig::paper_tlc_scaled(22, 8), obs);
    // `Oxztl` runs the tenant mix over the zone-translation layer's
    // virtual device; chunk addressing below this point uses the backend's
    // (possibly smaller) exported geometry.
    let raw: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
    let media = backend.wrap_media(raw);
    let geo = media.geometry();

    // Prefill chunk 0 of every PU in the GC-marked group (0) and the
    // neighbor group (1); reads sample these uniformly.
    let gc_group = group_chunks(&geo, 0, 0);
    let neighbor_group = group_chunks(&geo, 1, 0);
    let mut t = SimTime::ZERO;
    for &c in gc_group.iter().chain(&neighbor_group) {
        t = prefill_chunk(media.as_ref(), &geo, c, t);
    }
    let start = media.flush(t).done + SimDuration::from_millis(1);

    let sched = SharedScheduler::new(IoScheduler::new(media, SchedConfig::with_arbiter(arbiter)));

    let mut drivers = vec![
        Driver {
            name: "read/gc-group",
            tenant: sched.add_tenant(TenantConfig::new("read-gc-group")),
            work: Work::RandomRead {
                chunks: gc_group.clone(),
            },
            rng: Prng::seed_from_u64(0x0905_0001),
            inflight: false,
            exhausted: false,
            next_submit: start,
            latencies_ns: Vec::new(),
        },
        Driver {
            name: "read/neighbor",
            tenant: sched.add_tenant(TenantConfig::new("read-neighbor")),
            work: Work::RandomRead {
                chunks: neighbor_group,
            },
            rng: Prng::seed_from_u64(0x0905_0002),
            inflight: false,
            exhausted: false,
            next_submit: start,
            latencies_ns: Vec::new(),
        },
    ];
    if contended {
        // Sequential writer far from both read groups (groups 2..).
        let mut write_chunks = Vec::new();
        for g in 2..geo.num_groups {
            for c in 0..geo.chunks_per_pu {
                write_chunks.extend(group_chunks(&geo, g, c));
            }
        }
        drivers.push(Driver {
            name: "write/seq",
            tenant: sched.add_tenant(TenantConfig::new("writer")),
            work: Work::SeqWrite {
                chunks: write_chunks,
                unit: 0,
            },
            rng: Prng::seed_from_u64(0x0905_0003),
            inflight: false,
            exhausted: false,
            next_submit: start,
            latencies_ns: Vec::new(),
        });
        // Relocation inside the marked group: reads chunk 0, fills chunks
        // 1.. of the same PUs — the §4.3 group-local GC shape.
        let dsts: Vec<_> = (1..geo.chunks_per_pu)
            .flat_map(|c| group_chunks(&geo, 0, c))
            .collect();
        drivers.push(Driver {
            name: "gc/relocate",
            tenant: sched.add_tenant(TenantConfig::new("gc").gc_class()),
            work: Work::Relocate {
                srcs: gc_group,
                dsts,
                unit: 0,
                units_per_copy: 4,
            },
            rng: Prng::seed_from_u64(0x0905_0004),
            inflight: false,
            exhausted: false,
            next_submit: start,
            latencies_ns: Vec::new(),
        });
    }

    // Closed-loop event loop: each tenant resubmits the moment its previous
    // command completes; the scheduler is pumped at its own next-ready
    // instants, so the whole phase is one deterministic interleaving.
    let deadline = start + duration;
    loop {
        let sub = drivers
            .iter()
            .enumerate()
            .filter(|(_, d)| !d.inflight && !d.exhausted && d.next_submit < deadline)
            .min_by_key(|(_, d)| d.next_submit)
            .map(|(i, d)| (d.next_submit, i));
        let ready = sched.next_ready().filter(|&r| r != SimTime::MAX);
        let submit_now = match (sub, ready) {
            (None, None) => break,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some((ts, _)), Some(tr)) => ts <= tr,
        };
        if submit_now {
            let (ts, i) = sub.expect("submission side chosen");
            let d = &mut drivers[i];
            match d.next_cmd(&geo) {
                Some(cmd) => {
                    sched.submit(ts, d.tenant, cmd).expect("QD-1 never fills");
                    d.inflight = true;
                }
                None => d.exhausted = true,
            }
        } else {
            let tr = ready.expect("pump side chosen");
            sched.pump(tr);
            for d in drivers.iter_mut() {
                for c in sched.take_completions(d.tenant) {
                    c.result.as_ref().expect("phase command failed");
                    d.latencies_ns.push(c.latency().as_nanos());
                    d.inflight = false;
                    d.next_submit = c.completed;
                }
            }
        }
    }

    let rows = drivers
        .iter_mut()
        .map(|d| {
            d.latencies_ns.sort_unstable();
            TenantRow {
                name: d.name,
                samples: d.latencies_ns.len(),
                p50_ns: nearest_rank(&d.latencies_ns, 0.50),
                p99_ns: nearest_rank(&d.latencies_ns, 0.99),
                p999_ns: nearest_rank(&d.latencies_ns, 0.999),
            }
        })
        .collect();
    dev.publish_pu_metrics(deadline);
    dev.publish_health_metrics(deadline);
    PhaseResult {
        name,
        arbiter,
        contended,
        rows,
        gc_dispatched: sched.stats().gc_dispatched,
    }
}

/// Runs the three phases over `backend`'s media, reporting into `obs`
/// across all of them.
pub fn run(duration: SimDuration, backend: BenchBackend, obs: &Obs) -> QosTailResult {
    let phase =
        |name, arbiter, contended| run_phase(name, arbiter, contended, duration, backend, obs);
    QosTailResult {
        phases: vec![
            phase("baseline", ArbiterKind::Deadline, false),
            phase("fifo + writer + GC", ArbiterKind::Fifo, true),
            phase("deadline + writer + GC", ArbiterKind::Deadline, true),
        ],
    }
}

fn us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1000.0)
}

/// The `fig_qos_tail` figure: [`run`], with the per-tenant table and the
/// neighbor-reader slowdowns written to `out`.
pub fn report(duration: SimDuration, backend: BenchBackend, obs: &Obs, out: &mut Report) {
    out.line(format!(
        "§4.3 — multi-tenant QoS tail (iosched over the paper drive, closed-loop tenants; backend: {})\n",
        backend.label()
    ));
    let result = run(duration, backend, obs);

    let widths = [24usize, 14, 9, 10, 10, 10];
    out.row(
        &[
            "phase",
            "tenant",
            "samples",
            "p50 (µs)",
            "p99 (µs)",
            "p999 (µs)",
        ],
        &widths,
    );
    out.sep(&widths);
    for phase in &result.phases {
        for row in &phase.rows {
            out.row(
                &[
                    phase.name.to_string(),
                    row.name.to_string(),
                    row.samples.to_string(),
                    us(row.p50_ns),
                    us(row.p99_ns),
                    us(row.p999_ns),
                ],
                &widths,
            );
        }
        if phase.contended {
            out.line(format!("  ({} GC-class dispatches)", phase.gc_dispatched));
        }
    }

    let baseline = result.phases[0].neighbor().p99_ns;
    let fifo = result.phases[1].neighbor().p99_ns;
    let deadline = result.phases[2].neighbor().p99_ns;
    out.line(format!(
        "\nnon-GC-group reader p99: baseline {} µs | fifo+GC {} µs ({:.1}×) | deadline+GC {} µs ({:.1}×)",
        us(baseline),
        us(fifo),
        fifo as f64 / baseline as f64,
        us(deadline),
        deadline as f64 / baseline as f64,
    ));
    out.line(
        "(the paper's §4.3 isolation claim as a tail: deadline arbitration + the GC class keep",
    );
    out.line(
        " the reader outside the marked group within 2× of its uncontended tail; the class-blind",
    );
    out.line(" QD-1 FIFO baseline drags it through program times and relocation copies)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_preserves_neighbor_tail_and_fifo_does_not() {
        let r = run(
            SimDuration::from_millis(150),
            BenchBackend::OxBlock,
            &Obs::default(),
        );
        assert_eq!(r.phases.len(), 3);
        let baseline = &r.phases[0];
        let fifo = &r.phases[1];
        let deadline = &r.phases[2];
        for p in &r.phases {
            // The QD-1 FIFO phase completes far fewer commands per unit
            // time — that slowness is the measurement.
            let floor = if p.arbiter == ArbiterKind::Fifo {
                10
            } else {
                100
            };
            assert!(p.neighbor().samples > floor, "need samples: {p:?}");
        }
        assert!(fifo.gc_dispatched > 0);
        assert!(deadline.gc_dispatched > 0);
        // The acceptance shape: deadline + GC class keeps the non-GC-group
        // reader's p99 within 2× of the uncontended baseline…
        assert!(
            deadline.neighbor().p99_ns <= 2 * baseline.neighbor().p99_ns,
            "deadline p99 {} vs baseline p99 {}",
            deadline.neighbor().p99_ns,
            baseline.neighbor().p99_ns
        );
        // …while the class-blind QD-1 FIFO is visibly worse.
        assert!(
            fifo.neighbor().p99_ns > 2 * deadline.neighbor().p99_ns,
            "fifo p99 {} vs deadline p99 {}",
            fifo.neighbor().p99_ns,
            deadline.neighbor().p99_ns
        );
    }
}
