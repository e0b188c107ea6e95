//! The six workloads and what one pass over one of them does.
//!
//! A pass is: set-up (format, load, warm-up — timed as `setup_s`), the
//! measured closed-loop phase, then the checks that need a quiet stack
//! (read-back, power cut and remount). Op counts are constants scaled by
//! `--seconds`, never time-boxed: the same commit, seed and `--seconds` do
//! byte-identical work on every host, which is what lets every virtual-clock
//! metric be compared exactly.

use crate::clock;
use crate::driver::{Bench, Latencies, Phase, PhaseOut};
use crate::gen::Mix;
use crate::stacks::{self, BlockStack, KvStack, LsmStack, Snapshot, Stack, ZtlStack};
use crate::trace::{self, Report};
use ox_sim::SimTime;

/// Which stack a workload runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StackKind {
    /// `lsmkv` → `lightlsm` → `ocssd`.
    Lsm,
    /// The same with `iosched` between `lightlsm` and `ocssd`.
    LsmSched,
    /// `ox_block` → `ocssd`.
    Block,
    /// `oxztl` → `oxzns` → `ocssd`.
    Ztl,
    /// `ox_kvssd` → `ocssd`.
    Kv,
}

/// One workload's fixed parameters.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists, in one line (`BENCHMARK.json`'s `why`).
    pub why: &'static str,
    /// The stack it loads.
    pub stack: StackKind,
    /// The measured op mix.
    pub mix: Mix,
    /// Closed-loop clients.
    pub clients: u64,
    /// Records loaded before measuring; 0 starts empty and inserts one new
    /// record per measured op.
    pub records: u64,
    /// Zipfian puts after the load and before measuring.
    pub warmup_puts: u64,
    /// Measured ops per second of `--seconds`, calibrated once on the seed
    /// commit so the measured phase takes about `--seconds` of host time.
    pub ops_per_second: u64,
    /// Sampled read-back after the measured phase (gives `lsm-fill` its
    /// read latencies and its correctness check).
    pub verify_gets: u64,
    /// Ends with sync → power cut → remount → read back every record.
    pub power_cut: bool,
    /// Enforces the steady-state guard.
    pub steady_guard: bool,
}

/// The six workloads. The reasons for each are in `benchmark/README.md` and
/// `BENCHMARK.json`.
pub const SPECS: [Spec; 6] = [
    Spec {
        name: "lsm-fill",
        why: "inserts of 1 KB values into an empty lsmkv/lightlsm stack: memtable, flush, compaction and cache admission do all the work, the read path none",
        stack: StackKind::Lsm,
        mix: Mix::Fill,
        clients: 4,
        records: 0,
        warmup_puts: 0,
        ops_per_second: 120_000,
        verify_gets: 12_000,
        power_cut: false,
        steady_guard: false,
    },
    Spec {
        name: "lsm-read",
        why: "uniform gets over a loaded, quiescent LSM larger than the device cache: every get is a 96 KB block read; flush and compaction idle",
        stack: StackKind::Lsm,
        mix: Mix::UniformGet,
        clients: 4,
        records: 196_608,
        warmup_puts: 0,
        ops_per_second: 110_000,
        verify_gets: 0,
        power_cut: false,
        steady_guard: false,
    },
    Spec {
        name: "lsm-mixed",
        why: "zipfian 50/50 get/read-modify-write plus short scans, all LightLSM I/O through one iosched tenant: both paths at once, the only iosched workload",
        stack: StackKind::LsmSched,
        mix: Mix::ZipfMixed,
        clients: 4,
        records: 98_304,
        warmup_puts: 32_000,
        ops_per_second: 22_000,
        verify_gets: 0,
        power_cut: false,
        steady_guard: false,
    },
    Spec {
        name: "blk-update",
        why: "zipfian 50/50 get/put of 3-sector records on ox_block at GC steady state, then power cut and recovery: WAL, checkpoint, page map, greedy GC",
        stack: StackKind::Block,
        mix: Mix::ZipfUpdate,
        clients: 8,
        records: stacks::UPDATE_RECORDS,
        warmup_puts: 16_000,
        ops_per_second: 60_000,
        verify_gets: 0,
        power_cut: true,
        steady_guard: true,
    },
    Spec {
        name: "ztl-update",
        why: "the blk-update op stream on oxztl over OX-ZNS, remounted by replay: zone-ring placement and relocation-cost GC; hot/cold streams would pay off here",
        stack: StackKind::Ztl,
        mix: Mix::ZipfUpdate,
        clients: 8,
        records: stacks::UPDATE_RECORDS,
        warmup_puts: 48_000,
        ops_per_second: 90_000,
        verify_gets: 0,
        power_cut: true,
        steady_guard: true,
    },
    Spec {
        name: "kv-update",
        why: "the blk-update op stream on ox_kvssd: third interface, fourth private log engine; an engine-collapse refactor must leave it unchanged",
        stack: StackKind::Kv,
        mix: Mix::ZipfUpdate,
        clients: 8,
        records: stacks::UPDATE_RECORDS,
        warmup_puts: 36_000,
        ops_per_second: 135_000,
        verify_gets: 0,
        power_cut: false,
        steady_guard: true,
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// `--quick` divides every op count by this (and skips the steady-state
/// guard, which such a short run cannot meet).
pub const QUICK_DIVISOR: u64 = 16;

/// Physical overwrites of the raw device the steady-state guard demands of
/// load + warm-up.
pub const MIN_OVERWRITES: f64 = 2.0;
/// Largest relative difference the guard tolerates between the write
/// amplification of the two halves of the measured phase.
pub const MAX_HALF_DRIFT: f64 = 0.10;

// Per-phase generator streams: the measured stream must not depend on how
// long the load or warm-up were.
const LOAD_STREAM: u64 = 0x4C4F_4144;
const WARM_STREAM: u64 = 0x5741_524D;
const VERIFY_STREAM: u64 = 0x5645_5249;

impl Spec {
    /// Measured ops of one pass when `seconds` of measuring are split over
    /// `passes` passes; a multiple of the client count.
    pub fn ops(&self, seconds: u64, passes: u64, quick: bool) -> u64 {
        let ops = self.ops_per_second * seconds / passes / if quick { QUICK_DIVISOR } else { 1 };
        (ops / self.clients).max(1) * self.clients
    }

    /// Records the stack holds: the loaded ones, or one per measured op.
    fn record_count(&self, ops: u64, quick: bool) -> u64 {
        match (self.records, quick) {
            (0, _) => ops,
            (n, true) => n / QUICK_DIVISOR,
            (n, false) => n,
        }
    }
}

fn format(kind: StackKind, seed: u64, traced: bool) -> Result<(Box<dyn Stack>, SimTime), String> {
    fn boxed<S: Stack + 'static>(r: (S, SimTime)) -> (Box<dyn Stack>, SimTime) {
        (Box::new(r.0), r.1)
    }
    Ok(match kind {
        StackKind::Lsm => boxed(LsmStack::format(false, seed, traced)?),
        StackKind::LsmSched => boxed(LsmStack::format(true, seed, traced)?),
        StackKind::Block => boxed(BlockStack::format(traced)?),
        StackKind::Ztl => boxed(ZtlStack::format(traced)?),
        StackKind::Kv => boxed(KvStack::format(seed, traced)?),
    })
}

/// What set-up left behind.
struct Ready {
    /// The loaded, warmed stack and its shadow model.
    bench: Bench,
    /// Virtual time set-up ended.
    at: SimTime,
    /// Host nanoseconds set-up took.
    wall_ns: u64,
    /// The load phase (latencies and write volume), when there was one.
    load: Option<PhaseOut>,
    /// Device bytes written by load + warm-up ÷ raw capacity.
    overwrites: f64,
}

/// Formats, loads and warms one stack.
fn setup(spec: &Spec, seed: u64, ops: u64, quick: bool, traced: bool) -> Result<Ready, String> {
    let wall_start = clock::now_ns();
    let (stack, t0) = format(spec.stack, seed, traced)?;
    let records = spec.record_count(ops, quick);
    let mut bench = Bench::new(stack, seed, records, traced);
    let mut t = t0;
    let mut load = None;
    if spec.records > 0 {
        let quotas: Vec<u64> = (0..spec.clients)
            .map(|c| (records + spec.clients - 1 - c) / spec.clients)
            .collect();
        let out = bench.run(Phase::Setup, Mix::Fill, seed ^ LOAD_STREAM, &quotas, t);
        if out.failed + out.wrong > 0 {
            return Err(format!(
                "{}: {} ops failed during load",
                spec.name, out.failed
            ));
        }
        t = bench.stack.quiesce(out.end)?;
        // The load's write volume includes the flushes and compactions the
        // quiesce just drained.
        let mut out = out;
        out.mark_end.device_bytes = bench.mark().device_bytes;
        load = Some(out);
        bench.index_keys();
    }
    let warm = spec.warmup_puts / if quick { QUICK_DIVISOR } else { 1 };
    if warm > 0 {
        let quotas = vec![warm / spec.clients; spec.clients as usize];
        let out = bench.run(Phase::Setup, Mix::ZipfPut, seed ^ WARM_STREAM, &quotas, t);
        if out.failed + out.wrong > 0 {
            return Err(format!(
                "{}: {} ops failed during warm-up",
                spec.name, out.failed
            ));
        }
        t = out.end;
    }
    let dev = bench.stack.device().stats();
    let raw = bench.stack.device().geometry().capacity_bytes();
    Ok(Ready {
        bench,
        at: t,
        wall_ns: clock::now_ns() - wall_start,
        load,
        overwrites: (dev.writes.bytes() + dev.copies.bytes()) as f64 / raw as f64,
    })
}

/// Everything one pass measured.
pub struct Pass {
    /// Host nanoseconds set-up (format + load + warm-up) took.
    pub setup_wall_ns: u64,
    /// The load phase, when the workload has one.
    pub load: Option<PhaseOut>,
    /// Device overwrites before measuring.
    pub overwrites: f64,
    /// The measured phase.
    pub measure: PhaseOut,
    /// Device and layer state when the measured phase started.
    pub before: Snapshot,
    /// Device and layer state when it ended.
    pub after: Snapshot,
    /// Latencies of the sampled read-back, when the workload has one.
    pub verify: Option<Latencies>,
    /// Reads issued after the measured phase (sampled read-back and
    /// post-recovery read-back of every record).
    pub post_reads: u64,
    /// How many of those failed or disagreed with the shadow model.
    pub lost: u64,
    /// Virtual nanoseconds from power cut to serving again.
    pub recover_v_ns: Option<u64>,
    /// Sectors below the write pointers of non-free chunks at the end.
    pub occupied_sectors: u64,
    /// Live user bytes at the end.
    pub live_user_bytes: u64,
    /// What the tracer recorded over the measured phase (traced passes).
    pub trace: Option<Report>,
}

/// Runs one full pass of `ops` measured ops: set-up, the measured phase, the
/// closing checks.
pub fn run_pass(
    spec: &Spec,
    seed: u64,
    ops: u64,
    quick: bool,
    traced: bool,
) -> Result<Pass, String> {
    let Ready {
        mut bench,
        at,
        wall_ns: setup_wall_ns,
        load,
        overwrites,
    } = setup(spec, seed, ops, quick, traced)?;

    let before = bench.stack.snapshot(at);
    let quotas = vec![ops / spec.clients; spec.clients as usize];
    if traced {
        trace::start();
    }
    let measure = bench.run(Phase::Measure, spec.mix, seed, &quotas, at);
    let after = bench.stack.snapshot(measure.end);
    let report = if traced { trace::finish() } else { None };

    let mut t = bench.stack.quiesce(measure.end)?;
    let mut lost = 0;
    let mut post_reads = 0;
    let mut verify = None;
    if spec.verify_gets > 0 {
        let n = spec.verify_gets / if quick { QUICK_DIVISOR } else { 1 };
        let quotas = vec![n / spec.clients; spec.clients as usize];
        let out = bench.run(
            Phase::Setup,
            Mix::UniformGet,
            seed ^ VERIFY_STREAM,
            &quotas,
            t,
        );
        lost += out.failed + out.wrong;
        post_reads += out.attempted;
        t = out.end;
        verify = Some(out.lat);
    }
    let mut recover_v_ns = None;
    if spec.power_cut {
        let served = bench.stack.power_cycle(t)?;
        recover_v_ns = Some(served.saturating_since(t).as_nanos());
        let (reads, bad) = bench.read_back_all(served);
        post_reads += reads;
        lost += bad;
    }
    Ok(Pass {
        setup_wall_ns,
        load,
        overwrites,
        measure,
        before,
        after,
        verify,
        post_reads,
        lost,
        recover_v_ns,
        occupied_sectors: bench.stack.occupied_sectors(),
        live_user_bytes: bench.live_records() * bench.stack.user_bytes_per_put(),
        trace: report,
    })
}
