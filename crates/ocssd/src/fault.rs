//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a *data-only* schedule of media faults hung off
//! [`crate::DeviceConfig`]: program failures at chosen chunk/write-pointer
//! positions, per-sector uncorrectable reads (ECC exhaustion), erase failures
//! that grow bad blocks, latency spikes on selected PUs, and power-loss cut
//! points in virtual time or op count. The device consumes the plan through a
//! [`FaultInjector`], which draws nothing from the device RNG and adds no
//! timing of its own when idle — an empty plan is byte-identical to no plan.
//!
//! Every fault that actually fires is counted in the injector's
//! [`FaultLedger`] (and mirrored into `DeviceStats` / the trace layer by the
//! device), so tests can reconcile observed errors against injected ones.
//! Plans are plain values: the same plan and workload replay identically,
//! and [`FaultPlan::random`] derives a plan from a seed alone.

use crate::addr::{ChunkAddr, Ppa};
use crate::geometry::Geometry;
use ox_sim::{Prng, SimDuration, SimTime};
use std::io::Write;

/// A program failure at a chosen chunk/write-pointer position: the write (or
/// device-internal copy) that starts at `wp` on `chunk` fails. The write
/// pointer does not advance; a written chunk closes early (its existing data
/// stays readable until the host migrates it), an empty chunk goes offline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProgramFault {
    /// Chunk whose program fails.
    pub chunk: ChunkAddr,
    /// Write-pointer position (starting sector) of the failing program.
    pub wp: u32,
}

/// A per-sector uncorrectable read: ECC exhaustion on any read command that
/// covers `ppa`. `attempts` is how many such commands fail before a softer
/// read-retry voltage succeeds; `u32::MAX` makes the sector permanently
/// unreadable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadFault {
    /// The failing sector.
    pub ppa: Ppa,
    /// Failing read commands before the sector recovers (`u32::MAX` = never).
    pub attempts: u32,
}

/// An erase failure at a chosen wear level: the reset issued while the
/// chunk's pre-reset wear equals `at_wear` fails and retires the chunk
/// (grown bad block, reported as a `MediaEvent`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EraseFault {
    /// Chunk whose erase fails.
    pub chunk: ChunkAddr,
    /// Pre-reset wear count at which the erase fails (0 = first erase).
    pub at_wear: u32,
}

/// A latency spike on one PU: media operations `start_op..start_op + ops`
/// (counted per PU) take `extra` longer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencySpike {
    /// Linear PU index the spike applies to.
    pub pu: u32,
    /// First affected media op on that PU (0-based per-PU count).
    pub start_op: u64,
    /// Number of affected ops.
    pub ops: u64,
    /// Added latency per affected op.
    pub extra: SimDuration,
}

/// A power-loss cut point, in virtual time or device op count. The device
/// reports a due cut through `OcssdDevice::take_power_cut`; the harness owns
/// the actual `crash` call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PowerCut {
    /// Cut once virtual time reaches this point.
    AtTime(SimTime),
    /// Cut once the device has completed this many commands.
    AfterOps(u64),
}

/// How many faults of each kind [`FaultPlan::random`] generates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultMix {
    /// Program failures at random chunk/unit positions.
    pub program_fails: u32,
    /// Transient uncorrectable reads (1–2 failing attempts).
    pub transient_read_fails: u32,
    /// Permanent uncorrectable reads.
    pub permanent_read_fails: u32,
    /// Erase failures at low wear (fire on early resets).
    pub erase_fails: u32,
    /// Latency spikes on random PUs.
    pub latency_spikes: u32,
    /// Power cuts at random op counts.
    pub power_cuts: u32,
}

impl Default for FaultMix {
    fn default() -> Self {
        FaultMix {
            program_fails: 2,
            transient_read_fails: 2,
            permanent_read_fails: 0,
            erase_fails: 2,
            latency_spikes: 1,
            power_cuts: 0,
        }
    }
}

/// A seeded, fully deterministic schedule of injected faults.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Program failures.
    pub program_fails: Vec<ProgramFault>,
    /// Uncorrectable reads.
    pub read_fails: Vec<ReadFault>,
    /// Erase failures.
    pub erase_fails: Vec<EraseFault>,
    /// PU latency spikes.
    pub latency_spikes: Vec<LatencySpike>,
    /// Power-loss cut points.
    pub power_cuts: Vec<PowerCut>,
}

impl FaultPlan {
    /// True if the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.program_fails.is_empty()
            && self.read_fails.is_empty()
            && self.erase_fails.is_empty()
            && self.latency_spikes.is_empty()
            && self.power_cuts.is_empty()
    }

    /// Derives a plan from `seed` alone: same seed, geometry and mix — same
    /// plan. Fault sites are uniform over the geometry, so most entries only
    /// fire if the workload happens to touch them; reconcile against the
    /// [`FaultLedger`], not the plan.
    pub fn random(seed: u64, geo: &Geometry, mix: &FaultMix) -> FaultPlan {
        let mut rng = Prng::seed_from_u64(seed ^ 0xFA17_0BAD);
        let mut plan = FaultPlan::default();
        for _ in 0..mix.program_fails {
            let chunk = random_chunk(&mut rng, geo);
            let wp = rng.gen_range(geo.write_units_per_chunk() as u64) as u32 * geo.ws_min;
            plan.program_fails.push(ProgramFault { chunk, wp });
        }
        for _ in 0..mix.transient_read_fails {
            let ppa =
                random_chunk(&mut rng, geo).ppa(rng.gen_range(geo.sectors_per_chunk as u64) as u32);
            let attempts = 1 + rng.gen_range(2) as u32;
            plan.read_fails.push(ReadFault { ppa, attempts });
        }
        for _ in 0..mix.permanent_read_fails {
            let ppa =
                random_chunk(&mut rng, geo).ppa(rng.gen_range(geo.sectors_per_chunk as u64) as u32);
            plan.read_fails.push(ReadFault {
                ppa,
                attempts: u32::MAX,
            });
        }
        for _ in 0..mix.erase_fails {
            plan.erase_fails.push(EraseFault {
                chunk: random_chunk(&mut rng, geo),
                at_wear: rng.gen_range(3) as u32,
            });
        }
        for _ in 0..mix.latency_spikes {
            plan.latency_spikes.push(LatencySpike {
                pu: rng.gen_range(geo.total_pus() as u64) as u32,
                start_op: rng.gen_range(256),
                ops: 1 + rng.gen_range(32),
                extra: SimDuration::from_micros(50 + rng.gen_range(500)),
            });
        }
        for _ in 0..mix.power_cuts {
            plan.power_cuts
                .push(PowerCut::AfterOps(rng.gen_range_in(50, 4000)));
        }
        plan
    }
}

fn random_chunk(rng: &mut Prng, geo: &Geometry) -> ChunkAddr {
    ChunkAddr::new(
        rng.gen_range(geo.num_groups as u64) as u32,
        rng.gen_range(geo.pus_per_group as u64) as u32,
        rng.gen_range(geo.chunks_per_pu as u64) as u32,
    )
}

/// Counts of faults that actually fired, kept by the [`FaultInjector`].
/// Tests reconcile observed errors / `MediaEvent`s against this.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultLedger {
    /// Injected program failures that fired.
    pub program_fails: u64,
    /// Injected uncorrectable reads that fired (one per failing command).
    pub read_fails: u64,
    /// Injected erase failures that fired.
    pub erase_fails: u64,
    /// Media ops delayed by a latency spike.
    pub latency_spikes: u64,
    /// Power cuts consumed.
    pub power_cuts: u64,
}

impl FaultLedger {
    /// Total faults fired across every category.
    pub fn total(&self) -> u64 {
        self.program_fails
            + self.read_fails
            + self.erase_fails
            + self.latency_spikes
            + self.power_cuts
    }
}

/// Runtime state consuming a [`FaultPlan`]: deterministic matching only, no
/// randomness, no timing of its own. One injector per device.
pub struct FaultInjector {
    program_fails: Vec<ProgramFault>,
    read_fails: Vec<ReadFault>,
    erase_fails: Vec<EraseFault>,
    latency_spikes: Vec<LatencySpike>,
    power_cuts: Vec<PowerCut>,
    /// Media ops completed per PU (for latency-spike windows).
    pu_ops: Vec<u64>,
    /// Total device commands completed (for `PowerCut::AfterOps`).
    cmds: u64,
    ledger: FaultLedger,
    active: bool,
}

impl FaultInjector {
    /// Builds an injector over `plan` for a device with `total_pus` PUs.
    pub fn new(plan: FaultPlan, total_pus: u32) -> Self {
        let active = !plan.is_empty();
        FaultInjector {
            program_fails: plan.program_fails,
            read_fails: plan.read_fails,
            erase_fails: plan.erase_fails,
            latency_spikes: plan.latency_spikes,
            power_cuts: plan.power_cuts,
            pu_ops: vec![0; total_pus as usize],
            cmds: 0,
            ledger: FaultLedger::default(),
            active,
        }
    }

    /// Faults fired so far.
    pub fn ledger(&self) -> &FaultLedger {
        &self.ledger
    }

    /// Counts one completed device command (power-cut op clock).
    pub fn note_cmd(&mut self) {
        if self.active {
            self.cmds += 1;
        }
    }

    /// Consumes a scheduled program failure for a program starting at `wp`
    /// on `chunk`, if any.
    pub fn take_program_fail(&mut self, chunk: ChunkAddr, wp: u32) -> bool {
        if !self.active {
            return false;
        }
        let Some(i) = self
            .program_fails
            .iter()
            .position(|f| f.chunk == chunk && f.wp == wp)
        else {
            return false;
        };
        self.program_fails.swap_remove(i);
        self.ledger.program_fails += 1;
        true
    }

    /// If any sector in `[first, first + sectors)` of `chunk` has scheduled
    /// ECC exhaustion left, burns one attempt and returns the failing sector.
    pub fn take_read_fail(&mut self, chunk: ChunkAddr, first: u32, sectors: u32) -> Option<Ppa> {
        if !self.active {
            return None;
        }
        let f = self.read_fails.iter_mut().find(|f| {
            f.attempts > 0
                && f.ppa.chunk_addr() == chunk
                && f.ppa.sector >= first
                && f.ppa.sector < first + sectors
        })?;
        if f.attempts != u32::MAX {
            f.attempts -= 1;
        }
        self.ledger.read_fails += 1;
        Some(f.ppa)
    }

    /// Consumes a scheduled erase failure for a reset of `chunk` at
    /// pre-reset wear `wear`, if any.
    pub fn take_erase_fail(&mut self, chunk: ChunkAddr, wear: u32) -> bool {
        if !self.active {
            return false;
        }
        let Some(i) = self
            .erase_fails
            .iter()
            .position(|f| f.chunk == chunk && f.at_wear == wear)
        else {
            return false;
        };
        self.erase_fails.swap_remove(i);
        self.ledger.erase_fails += 1;
        true
    }

    /// Counts one media op on `pu` and returns the extra latency any active
    /// spike imposes on it (zero when none).
    pub fn pu_op_extra(&mut self, pu: u32) -> SimDuration {
        if !self.active {
            return SimDuration::ZERO;
        }
        let op = self.pu_ops[pu as usize];
        self.pu_ops[pu as usize] += 1;
        let mut extra = SimDuration::ZERO;
        for s in &self.latency_spikes {
            if s.pu == pu && op >= s.start_op && op < s.start_op + s.ops {
                extra += s.extra;
            }
        }
        if extra > SimDuration::ZERO {
            self.ledger.latency_spikes += 1;
        }
        extra
    }

    /// Consumes one power cut that is due at `now` (its virtual time has
    /// passed or the command count has been reached), if any.
    pub fn take_power_cut(&mut self, now: SimTime) -> Option<PowerCut> {
        if !self.active {
            return None;
        }
        let i = self.power_cuts.iter().position(|c| match c {
            PowerCut::AtTime(t) => *t <= now,
            PowerCut::AfterOps(n) => *n <= self.cmds,
        })?;
        let cut = self.power_cuts.swap_remove(i);
        self.ledger.power_cuts += 1;
        Some(cut)
    }
}

/// Reads the CI matrix variable `name` through `parse`, which sees `None`
/// when the variable is unset or empty. A value `parse` refuses ends the
/// process with status 2 and `parse`'s message — naming the variable and
/// what it accepts — so a mistyped leg fails instead of re-running the
/// default.
pub fn matrix_knob<T>(name: &str, parse: impl FnOnce(Option<&str>) -> Result<T, String>) -> T {
    let value = std::env::var(name).ok();
    parse(value.as_deref().filter(|v| !v.is_empty())).unwrap_or_else(|msg| {
        // Not `eprintln!`: a test harness captures that, and the capture
        // dies with the process before it is printed.
        let _ = writeln!(std::io::stderr(), "{msg}");
        std::process::exit(2)
    })
}

/// Geometry leg of the CI fault matrix: `OX_FAULT_GEOMETRY=slc` (the
/// default) is the small SLC geometry, `tlc` the scaled paper TLC drive.
/// Fault property tests build their device from this so one binary covers
/// the whole grid.
pub fn matrix_geometry() -> Geometry {
    matrix_knob("OX_FAULT_GEOMETRY", parse_geometry)
}

fn parse_geometry(value: Option<&str>) -> Result<Geometry, String> {
    match value {
        None | Some("slc") => Ok(Geometry::small_slc()),
        Some("tlc") => Ok(Geometry::paper_tlc_scaled(22, 8)),
        Some(v) => Err(format!(
            "OX_FAULT_GEOMETRY={v}: accepted values are slc, tlc"
        )),
    }
}

/// Seed window of the CI fault matrix: `count` seeds starting at
/// `OX_FAULT_SEED_BASE` (default 0, at most `u32::MAX`), so grid rows
/// explore disjoint plans and workloads with the same binaries.
pub fn matrix_seeds(count: u64) -> std::ops::Range<u64> {
    let base = matrix_knob("OX_FAULT_SEED_BASE", parse_seed_base);
    base..base + count
}

fn parse_seed_base(value: Option<&str>) -> Result<u64, String> {
    match value {
        None => Ok(0),
        Some(v) => v.parse::<u32>().map(u64::from).map_err(|_| {
            format!("OX_FAULT_SEED_BASE={v}: accepted values are integers 0 to 4294967295")
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo() -> Geometry {
        Geometry::paper_tlc_scaled(22, 8)
    }

    #[test]
    fn empty_plan_is_inert() {
        let mut inj = FaultInjector::new(FaultPlan::default(), geo().total_pus());
        assert!(!inj.active);
        assert!(!inj.take_program_fail(ChunkAddr::new(0, 0, 0), 0));
        assert!(inj
            .take_read_fail(ChunkAddr::new(0, 0, 0), 0, 768)
            .is_none());
        assert!(!inj.take_erase_fail(ChunkAddr::new(0, 0, 0), 0));
        assert_eq!(inj.pu_op_extra(0), SimDuration::ZERO);
        assert!(inj.take_power_cut(SimTime::from_secs(1_000_000)).is_none());
        assert_eq!(inj.ledger().total(), 0);
    }

    #[test]
    fn program_fault_fires_once_at_its_position() {
        let g = geo();
        let chunk = ChunkAddr::new(1, 2, 3);
        let plan = FaultPlan {
            program_fails: vec![ProgramFault {
                chunk,
                wp: g.ws_min,
            }],
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(plan, g.total_pus());
        assert!(!inj.take_program_fail(chunk, 0), "wrong wp must not fire");
        assert!(inj.take_program_fail(chunk, g.ws_min));
        assert!(!inj.take_program_fail(chunk, g.ws_min), "consumed");
        assert_eq!(inj.ledger().program_fails, 1);
    }

    #[test]
    fn read_fault_burns_attempts_then_recovers() {
        let g = geo();
        let ppa = ChunkAddr::new(0, 1, 2).ppa(10);
        let plan = FaultPlan {
            read_fails: vec![ReadFault { ppa, attempts: 2 }],
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(plan, g.total_pus());
        // A covering range fails while attempts remain.
        assert_eq!(inj.take_read_fail(ppa.chunk_addr(), 0, 24), Some(ppa));
        assert_eq!(inj.take_read_fail(ppa.chunk_addr(), 10, 1), Some(ppa));
        assert!(inj.take_read_fail(ppa.chunk_addr(), 0, 24).is_none());
        // Non-overlapping ranges never fail.
        assert!(inj.take_read_fail(ppa.chunk_addr(), 11, 13).is_none());
        assert_eq!(inj.ledger().read_fails, 2);
    }

    #[test]
    fn permanent_read_fault_never_recovers() {
        let g = geo();
        let ppa = ChunkAddr::new(0, 0, 0).ppa(0);
        let plan = FaultPlan {
            read_fails: vec![ReadFault {
                ppa,
                attempts: u32::MAX,
            }],
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(plan, g.total_pus());
        for _ in 0..100 {
            assert_eq!(inj.take_read_fail(ppa.chunk_addr(), 0, 1), Some(ppa));
        }
        assert_eq!(inj.ledger().read_fails, 100);
    }

    #[test]
    fn erase_fault_matches_wear_level() {
        let g = geo();
        let chunk = ChunkAddr::new(2, 0, 7);
        let plan = FaultPlan {
            erase_fails: vec![EraseFault { chunk, at_wear: 1 }],
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(plan, g.total_pus());
        assert!(!inj.take_erase_fail(chunk, 0));
        assert!(inj.take_erase_fail(chunk, 1));
        assert!(!inj.take_erase_fail(chunk, 1));
    }

    #[test]
    fn latency_spike_covers_its_window() {
        let g = geo();
        let extra = SimDuration::from_micros(100);
        let plan = FaultPlan {
            latency_spikes: vec![LatencySpike {
                pu: 3,
                start_op: 1,
                ops: 2,
                extra,
            }],
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(plan, g.total_pus());
        assert_eq!(inj.pu_op_extra(3), SimDuration::ZERO); // op 0
        assert_eq!(inj.pu_op_extra(3), extra); // op 1
        assert_eq!(inj.pu_op_extra(3), extra); // op 2
        assert_eq!(inj.pu_op_extra(3), SimDuration::ZERO); // op 3
        assert_eq!(inj.pu_op_extra(0), SimDuration::ZERO); // other PU
        assert_eq!(inj.ledger().latency_spikes, 2);
    }

    #[test]
    fn power_cuts_fire_on_time_and_op_count() {
        let g = geo();
        let plan = FaultPlan {
            power_cuts: vec![
                PowerCut::AtTime(SimTime::from_micros(500)),
                PowerCut::AfterOps(3),
            ],
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(plan, g.total_pus());
        assert!(inj.take_power_cut(SimTime::from_micros(100)).is_none());
        assert_eq!(
            inj.take_power_cut(SimTime::from_micros(600)),
            Some(PowerCut::AtTime(SimTime::from_micros(500)))
        );
        for _ in 0..3 {
            inj.note_cmd();
        }
        assert_eq!(
            inj.take_power_cut(SimTime::ZERO),
            Some(PowerCut::AfterOps(3))
        );
        assert!(inj.take_power_cut(SimTime::from_secs(10)).is_none());
        assert_eq!(inj.ledger().power_cuts, 2);
    }

    #[test]
    fn matrix_geometry_is_unset_or_named_or_refused() {
        assert_eq!(parse_geometry(None), Ok(Geometry::small_slc()));
        assert_eq!(parse_geometry(Some("slc")), Ok(Geometry::small_slc()));
        assert_eq!(parse_geometry(Some("tlc")), Ok(geo()));
        for refused in ["TLC", "mlc", " tlc"] {
            assert_eq!(
                parse_geometry(Some(refused)),
                Err(format!(
                    "OX_FAULT_GEOMETRY={refused}: accepted values are slc, tlc"
                ))
            );
        }
    }

    #[test]
    fn matrix_seed_base_is_unset_or_in_range_or_refused() {
        assert_eq!(parse_seed_base(None), Ok(0));
        assert_eq!(parse_seed_base(Some("1000")), Ok(1000));
        assert_eq!(parse_seed_base(Some("4294967295")), Ok(u32::MAX as u64));
        for refused in ["4294967296", "-1", "1e3", "seed"] {
            assert_eq!(
                parse_seed_base(Some(refused)),
                Err(format!(
                    "OX_FAULT_SEED_BASE={refused}: accepted values are integers 0 to 4294967295"
                ))
            );
        }
    }

    #[test]
    fn random_plans_are_reproducible_and_in_bounds() {
        let g = geo();
        let mix = FaultMix {
            program_fails: 5,
            transient_read_fails: 4,
            permanent_read_fails: 1,
            erase_fails: 3,
            latency_spikes: 2,
            power_cuts: 2,
        };
        let a = FaultPlan::random(42, &g, &mix);
        let b = FaultPlan::random(42, &g, &mix);
        assert_eq!(a, b, "same seed, same plan");
        let c = FaultPlan::random(43, &g, &mix);
        assert_ne!(a, c, "different seed, different plan");
        assert_eq!(a.program_fails.len(), 5);
        assert_eq!(a.read_fails.len(), 5);
        for f in &a.program_fails {
            assert!(f.chunk.is_valid(&g));
            assert!(f.wp < g.sectors_per_chunk && f.wp.is_multiple_of(g.ws_min));
        }
        for f in &a.read_fails {
            assert!(f.ppa.is_valid(&g));
        }
        for s in &a.latency_spikes {
            assert!(s.pu < g.total_pus());
        }
    }
}
