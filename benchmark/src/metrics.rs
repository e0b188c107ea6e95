//! Metric definitions and how each is computed from a [`Pass`].
//!
//! The tables here are the source of truth for names, units, directions and
//! bounds; `BENCHMARK.json` repeats them for the driver and a test checks
//! the two agree. "v" metrics are on the virtual clock and repeat exactly
//! for a given (commit, seed, `--seconds`); the rest are host measurements.

use crate::clock;
use crate::driver::{Latencies, PhaseOut};
use crate::trace::{Layer, Report, LAYERS};
use crate::workload::{Pass, Spec, MAX_HALF_DRIFT, MIN_OVERWRITES};

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// As written in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric's definition.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen (end-to-end
    /// metrics only; per-layer metrics carry no bound).
    pub bound: f64,
    /// On the virtual clock (or a count): repeats exactly run to run.
    pub exact: bool,
}

const fn v(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
        exact: true,
    }
}

const fn host(name: &'static str, unit: &'static str, bound: f64) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
        bound,
        exact: false,
    }
}

/// The end-to-end metrics, reported by every workload on an untraced run.
///
/// Bounds on the "v" metrics are about three times their widest spread
/// (interquartile range ÷ median over seeds 101–110, any workload): the
/// driver draws a fresh seed per run, so that spread is what it sees. Their
/// run-to-run noise at one seed is zero, and `oxperf compare` holds them to
/// exact equality at equal seeds. `wall_ns_per_op` carries the widest bound
/// the contract allows because single runs of the same work differ by up to
/// ±20 % on the calibration host; gains are claimed from alternating paired
/// runs, not from this bound.
pub const END_TO_END: [Def; 10] = [
    v("vkops", "kops/vs", Better::Higher, 0.15),
    v("read_mean_vus", "vus", Better::Lower, 0.10),
    v("read_tail_vus", "vus", Better::Lower, 0.20),
    v("write_mean_vus", "vus", Better::Lower, 0.15),
    v("write_tail_vus", "vus", Better::Lower, 0.25),
    v("waf", "ratio", Better::Lower, 0.05),
    v("space_amp", "ratio", Better::Lower, 0.15),
    host("wall_ns_per_op", "ns", 0.25),
    host("peak_rss_mb", "MiB", 0.10),
    host("setup_s", "s", 0.25),
];

/// Per-layer metrics every layer reports: `<layer>.<name>`.
pub const PER_LAYER_GENERIC: [(&str, &str); 6] = [
    ("calls", "count"),
    ("bytes", "bytes"),
    ("errors", "count"),
    ("fg_wall_self_ns_per_op", "ns"),
    ("bg_wall_self_ns_per_op", "ns"),
    ("wall_share", "%"),
];

/// Layer-specific per-layer metrics: (name, unit, better).
pub const PER_LAYER_SPECIFIC: [(&str, &str, Better); 76] = [
    ("driver.read_v_p50_us", "vus", Better::Lower),
    ("driver.read_v_p99_us", "vus", Better::Lower),
    ("driver.write_v_p50_us", "vus", Better::Lower),
    ("driver.write_v_p99_us", "vus", Better::Lower),
    ("driver.failed_ops", "count", Better::Lower),
    ("driver.lost_writes", "count", Better::Lower),
    ("driver.stall_retries", "count", Better::Lower),
    ("driver.read_samples", "count", Better::Higher),
    ("driver.write_samples", "count", Better::Higher),
    ("driver.scan_v_p99_us", "vus", Better::Lower),
    ("driver.recover_v_ms", "vms", Better::Lower),
    ("driver.warmup_overwrites", "ratio", Better::Higher),
    ("driver.waf_half_drift_pct", "%", Better::Lower),
    ("driver.steady", "count", Better::Higher),
    ("lsmkv.stalls", "count", Better::Lower),
    ("lsmkv.slowdowns", "count", Better::Lower),
    ("lsmkv.blocks_per_get", "ratio", Better::Lower),
    ("lsmkv.bloom_skips", "count", Better::Higher),
    ("lsmkv.flushes", "count", Better::Lower),
    ("lsmkv.compactions", "count", Better::Lower),
    ("lsmkv.compact_blocks_read", "count", Better::Lower),
    ("lsmkv.compact_blocks_written", "count", Better::Lower),
    ("lsmkv.write_amp", "ratio", Better::Lower),
    ("lsmkv.flush_v_ms", "vms", Better::Lower),
    ("lsmkv.compaction_v_ms", "vms", Better::Lower),
    ("lightlsm.blocks_written", "count", Better::Lower),
    ("lightlsm.blocks_read", "count", Better::Lower),
    ("lightlsm.chunks_erased", "count", Better::Lower),
    ("lightlsm.dir_checkpoints", "count", Better::Lower),
    ("lightlsm.read_retries", "count", Better::Lower),
    ("lightlsm.flush_failovers", "count", Better::Lower),
    ("lightlsm.read_block_v_p50_us", "vus", Better::Lower),
    ("lightlsm.read_block_v_p99_us", "vus", Better::Lower),
    ("lightlsm.flush_table_v_p50_us", "vus", Better::Lower),
    ("lightlsm.flush_table_v_p99_us", "vus", Better::Lower),
    ("iosched.submitted", "count", Better::Lower),
    ("iosched.dispatched", "count", Better::Lower),
    ("iosched.rejected", "count", Better::Lower),
    ("iosched.max_queue_delay_us", "vus", Better::Lower),
    ("iosched.added_v_p50_us", "vus", Better::Lower),
    ("iosched.added_v_p99_us", "vus", Better::Lower),
    ("oxblock.gc_passes", "count", Better::Lower),
    ("oxblock.gc_victims", "count", Better::Lower),
    ("oxblock.gc_moved_sectors", "count", Better::Lower),
    ("oxblock.gc_padded_sectors", "count", Better::Lower),
    ("oxblock.gc_write_bytes", "bytes", Better::Lower),
    ("oxblock.metadata_write_bytes", "bytes", Better::Lower),
    ("oxblock.wal_bytes", "bytes", Better::Lower),
    ("oxblock.checkpoints", "count", Better::Lower),
    ("oxblock.media_calls_per_op", "ratio", Better::Lower),
    ("oxztl.user_sectors", "count", Better::Lower),
    ("oxztl.phys_sectors", "count", Better::Lower),
    ("oxztl.gc_relocated_sectors", "count", Better::Lower),
    ("oxztl.gc_passes", "count", Better::Lower),
    ("oxztl.zone_resets", "count", Better::Lower),
    ("oxztl.trim_records", "count", Better::Lower),
    ("oxztl.media_calls_per_op", "ratio", Better::Lower),
    ("kvssd.gc_passes", "count", Better::Lower),
    ("kvssd.gc_write_bytes", "bytes", Better::Lower),
    ("kvssd.physical_user_write_bytes", "bytes", Better::Lower),
    ("kvssd.media_calls_per_op", "ratio", Better::Lower),
    ("ocssd.read_calls", "count", Better::Lower),
    ("ocssd.write_calls", "count", Better::Lower),
    ("ocssd.reset_calls", "count", Better::Lower),
    ("ocssd.copy_calls", "count", Better::Lower),
    ("ocssd.cache_hit_ratio", "ratio", Better::Higher),
    ("ocssd.cache_stalls", "count", Better::Lower),
    ("ocssd.pu_util_mean", "ratio", Better::Lower),
    ("ocssd.pu_util_max", "ratio", Better::Lower),
    ("ocssd.pu_queue_delay_max_us", "vus", Better::Lower),
    ("ocssd.stored_sectors", "count", Better::Lower),
    ("ocssd.read_v_p50_us", "vus", Better::Lower),
    ("ocssd.read_v_p99_us", "vus", Better::Lower),
    ("ocssd.write_v_p50_us", "vus", Better::Lower),
    ("ocssd.write_v_p99_us", "vus", Better::Lower),
    ("trace.overhead_pct", "%", Better::Lower),
];

/// Every per-layer metric as (name, unit, better), in report order.
pub fn per_layer_defs() -> Vec<(String, &'static str, Better)> {
    let mut out = Vec::new();
    for layer in LAYERS {
        for (name, unit) in PER_LAYER_GENERIC {
            out.push((format!("{}.{name}", layer.name()), unit, Better::Lower));
        }
    }
    for (name, unit, better) in PER_LAYER_SPECIFIC {
        out.push((name.to_string(), unit, better));
    }
    out
}

/// The end-to-end definition of `name`, if it is one.
pub fn end_to_end_def(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().find(|d| d.name == name)
}

/// One reported value.
#[derive(Clone, Debug, PartialEq)]
pub struct Value {
    /// Metric name.
    pub name: String,
    /// The measurement.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The `q`-quantile of `samples` (nearest rank), 0 when empty.
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

/// Mean of `samples` and mean of their slowest 1 % (at least one sample),
/// in microseconds. Percentiles of a discrete-event model are often model
/// constants (one block read, one put's CPU charge) that no seed moves; the
/// two means move with every queueing or stall change, so they are what the
/// end-to-end latency metrics gate on. The percentiles are reported per
/// layer, as `driver.*_v_p50_us` / `driver.*_v_p99_us`.
fn mean_and_tail(samples: &mut [u64]) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    samples.sort_unstable();
    let mean = |xs: &[u64]| xs.iter().map(|&x| x as f64).sum::<f64>() / xs.len() as f64;
    let tail = (samples.len() / 100).max(1);
    (
        mean(samples) / 1000.0,
        mean(&samples[samples.len() - tail..]) / 1000.0,
    )
}

fn median(xs: &[u64]) -> u64 {
    let mut v = xs.to_vec();
    quantile(&mut v, 0.5)
}

/// Write amplification between two marks of one phase.
fn waf(from: crate::driver::WriteMark, to: crate::driver::WriteMark) -> f64 {
    let user = to.user_bytes - from.user_bytes;
    if user == 0 {
        return 0.0;
    }
    (to.device_bytes - from.device_bytes) as f64 / user as f64
}

/// The phase a write-side metric is taken from: the measured phase when it
/// wrote anything, else the load (`lsm-read` writes nothing while measured).
fn write_phase(pass: &Pass) -> &PhaseOut {
    match &pass.load {
        Some(load) if pass.measure.lat.write.is_empty() => load,
        _ => &pass.measure,
    }
}

/// The latencies a read-side metric is taken from: the measured phase when
/// it read anything, else the sampled read-back (`lsm-fill`).
fn read_lat(pass: &Pass) -> &Latencies {
    match &pass.verify {
        Some(v) if pass.measure.lat.read.is_empty() => v,
        _ => &pass.measure.lat,
    }
}

/// Steady-state verdict of a pass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Steady {
    /// Device overwrites by load + warm-up.
    pub overwrites: f64,
    /// |waf(first half) − waf(second half)| ÷ waf(whole), as a fraction.
    pub half_drift: f64,
    /// Both within the guard's limits.
    pub ok: bool,
}

/// Evaluates the steady-state guard on `pass`.
pub fn steady(pass: &Pass) -> Steady {
    let m = &pass.measure;
    let whole = waf(m.mark_start, m.mark_end);
    let half_drift = if whole > 0.0 {
        (waf(m.mark_start, m.mark_half) - waf(m.mark_half, m.mark_end)).abs() / whole
    } else {
        0.0
    };
    Steady {
        overwrites: pass.overwrites,
        half_drift,
        ok: pass.overwrites >= MIN_OVERWRITES && half_drift <= MAX_HALF_DRIFT,
    }
}

/// The exact ("v" and count) end-to-end values of a pass, in table order.
fn exact_values(pass: &Pass) -> Vec<(&'static str, f64)> {
    let m = &pass.measure;
    let vdur = m.end.saturating_since(m.start).as_secs_f64();
    let wp = write_phase(pass);
    let (read_mean, read_tail) = mean_and_tail(&mut read_lat(pass).read.clone());
    let (write_mean, write_tail) = mean_and_tail(&mut wp.lat.write.clone());
    vec![
        ("vkops", m.attempted as f64 / vdur / 1000.0),
        ("read_mean_vus", read_mean),
        ("read_tail_vus", read_tail),
        ("write_mean_vus", write_mean),
        ("write_tail_vus", write_tail),
        ("waf", waf(wp.mark_start, wp.mark_end)),
        (
            "space_amp",
            pass.occupied_sectors as f64 * ocssd::SECTOR_BYTES as f64 / pass.live_user_bytes as f64,
        ),
    ]
}

/// Host nanoseconds per measured op over repeated passes of identical work:
/// each of the phase's slices is charged at its fastest repetition. Host
/// noise only ever adds time; a spell shorter than a pass (a neighbour's
/// burst, a page-cache flush) hits different slices in different passes and
/// drops out, leaving the cost of all the work, cheap and expensive slices
/// alike. A spell that outlasts the whole run does not drop out — the
/// calibration host has those too, which is why this metric carries the
/// widest bound.
pub fn wall_ns_per_op(passes: &[Pass]) -> f64 {
    let slices = |p: &Pass| -> Vec<u64> {
        p.measure
            .slice_wall_ns
            .windows(2)
            .map(|w| w[1] - w[0])
            .collect()
    };
    let Some((first, rest)) = passes.split_first() else {
        return 0.0;
    };
    let mut best = slices(first);
    for p in rest {
        for (b, s) in best.iter_mut().zip(slices(p)) {
            *b = (*b).min(s);
        }
    }
    best.iter().sum::<u64>() as f64 / first.measure.attempted as f64
}

/// Every end-to-end metric of an untraced run: the "v" metrics of any one
/// pass (they are all identical), host metrics over all of them.
pub fn end_to_end(passes: &[Pass]) -> Vec<Value> {
    let Some(pass) = passes.first() else {
        return Vec::new();
    };
    let setups: Vec<u64> = passes.iter().map(|p| p.setup_wall_ns).collect();
    let mut out: Vec<(&'static str, f64)> = exact_values(pass);
    out.push(("wall_ns_per_op", wall_ns_per_op(passes)));
    out.push(("peak_rss_mb", clock::peak_rss_mb().unwrap_or(0.0)));
    out.push(("setup_s", median(&setups) as f64 / 1e9));
    out.into_iter()
        .map(|(name, value)| Value {
            name: name.to_string(),
            value,
            unit: end_to_end_def(name).map_or("", |d| d.unit),
        })
        .collect()
}

fn delta(pass: &Pass, name: &str) -> f64 {
    let at = |s: &crate::stacks::Snapshot| s.layers.get(name).copied().unwrap_or(0);
    at(&pass.after).saturating_sub(at(&pass.before)) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn v_quantile(report: Option<&Report>, layer: Layer, call: &'static str, q: f64) -> f64 {
    report
        .and_then(|r| r.v_ns.get(&(layer, call)))
        .map_or(0.0, |v| us(quantile(&mut v.clone(), q)))
}

/// The counts every pass can compute from public `stats()` alone — the part
/// of the per-layer set that must be identical between a traced and an
/// untraced pass (the wrapper-transparency check).
pub fn counts(spec: &Spec, pass: &Pass) -> Vec<(&'static str, f64)> {
    let m = &pass.measure;
    let st = steady(pass);
    let (b, a) = (&pass.before, &pass.after);
    let dev = |f: fn(&ocssd::DeviceStats) -> u64| (f(&a.dev) - f(&b.dev)) as f64;
    let reads = dev(|s| s.media_reads.ops()) + dev(|s| s.cache_reads.ops());
    let vspan = m.end.saturating_since(m.start).as_nanos() as f64;
    let pu_util: Vec<f64> = a
        .pu_busy_ns
        .iter()
        .zip(&b.pu_busy_ns)
        .map(|(a, b)| ratio(a - b, vspan))
        .collect();
    let pu_queue_max = a
        .pu_queue_ns
        .iter()
        .zip(&b.pu_queue_ns)
        .map(|(a, b)| a.saturating_sub(*b))
        .max()
        .unwrap_or(0);
    let user_bytes = (m.mark_end.user_bytes - m.mark_start.user_bytes) as f64;
    let block_bytes = a.layers.get("lightlsm.block_bytes").copied().unwrap_or(0) as f64;
    let mut scans = m.lat.scan.clone();
    let mut read_ns = read_lat(pass).read.clone();
    let mut write_ns = write_phase(pass).lat.write.clone();
    let mut out = vec![
        ("driver.read_v_p50_us", us(quantile(&mut read_ns, 0.50))),
        ("driver.read_v_p99_us", us(quantile(&mut read_ns, 0.99))),
        ("driver.write_v_p50_us", us(quantile(&mut write_ns, 0.50))),
        ("driver.write_v_p99_us", us(quantile(&mut write_ns, 0.99))),
        ("driver.failed_ops", (m.failed + m.wrong) as f64),
        ("driver.lost_writes", pass.lost as f64),
        ("driver.stall_retries", m.stall_retries as f64),
        ("driver.read_samples", read_lat(pass).read.len() as f64),
        (
            "driver.write_samples",
            write_phase(pass).lat.write.len() as f64,
        ),
        ("driver.scan_v_p99_us", us(quantile(&mut scans, 0.99))),
        (
            "driver.recover_v_ms",
            pass.recover_v_ns.unwrap_or(0) as f64 / 1e6,
        ),
        ("driver.warmup_overwrites", st.overwrites),
        ("driver.waf_half_drift_pct", st.half_drift * 100.0),
        (
            "driver.steady",
            f64::from(u8::from(spec.steady_guard && st.ok)),
        ),
        ("lsmkv.stalls", delta(pass, "lsmkv.stalls")),
        ("lsmkv.slowdowns", delta(pass, "lsmkv.slowdowns")),
        (
            "lsmkv.blocks_per_get",
            ratio(
                delta(pass, "lsmkv.get_blocks_read"),
                delta(pass, "lsmkv.gets"),
            ),
        ),
        ("lsmkv.bloom_skips", delta(pass, "lsmkv.bloom_skips")),
        ("lsmkv.flushes", delta(pass, "lsmkv.flushes")),
        ("lsmkv.compactions", delta(pass, "lsmkv.compactions")),
        (
            "lsmkv.compact_blocks_read",
            delta(pass, "lsmkv.compact_blocks_read"),
        ),
        (
            "lsmkv.compact_blocks_written",
            delta(pass, "lsmkv.compact_blocks_written"),
        ),
        (
            "lsmkv.write_amp",
            ratio(
                delta(pass, "lsmkv.compact_blocks_written") * block_bytes,
                user_bytes,
            ),
        ),
        ("lsmkv.flush_v_ms", delta(pass, "lsmkv.flush_v_ns") / 1e6),
        (
            "lsmkv.compaction_v_ms",
            delta(pass, "lsmkv.compaction_v_ns") / 1e6,
        ),
    ];
    for name in [
        "lightlsm.blocks_written",
        "lightlsm.blocks_read",
        "lightlsm.chunks_erased",
        "lightlsm.dir_checkpoints",
        "lightlsm.read_retries",
        "lightlsm.flush_failovers",
        "iosched.submitted",
        "iosched.dispatched",
        "iosched.rejected",
    ] {
        out.push((name, delta(pass, name)));
    }
    // A running maximum, not a counter: report it as it stands at the end.
    out.push((
        "iosched.max_queue_delay_us",
        us(a.layers
            .get("iosched.max_queue_delay_ns")
            .copied()
            .unwrap_or(0)),
    ));
    for name in [
        "oxblock.gc_passes",
        "oxblock.gc_victims",
        "oxblock.gc_moved_sectors",
        "oxblock.gc_padded_sectors",
        "oxblock.gc_write_bytes",
        "oxblock.metadata_write_bytes",
        "oxblock.wal_bytes",
        "oxblock.checkpoints",
        "oxztl.user_sectors",
        "oxztl.phys_sectors",
        "oxztl.gc_relocated_sectors",
        "oxztl.gc_passes",
        "oxztl.zone_resets",
        "oxztl.trim_records",
        "kvssd.gc_passes",
        "kvssd.gc_write_bytes",
        "kvssd.physical_user_write_bytes",
    ] {
        out.push((name, delta(pass, name)));
    }
    out.extend([
        ("ocssd.read_calls", reads),
        ("ocssd.write_calls", dev(|s| s.writes.ops())),
        ("ocssd.reset_calls", dev(|s| s.resets.ops())),
        ("ocssd.copy_calls", dev(|s| s.copies.ops())),
        (
            "ocssd.cache_hit_ratio",
            ratio(dev(|s| s.cache_reads.ops()), reads),
        ),
        ("ocssd.cache_stalls", dev(|s| s.cache_stalls)),
        (
            "ocssd.pu_util_mean",
            ratio(pu_util.iter().sum(), pu_util.len() as f64),
        ),
        (
            "ocssd.pu_util_max",
            pu_util.iter().copied().fold(0.0, f64::max),
        ),
        ("ocssd.pu_queue_delay_max_us", us(pu_queue_max)),
        ("ocssd.stored_sectors", a.stored_sectors as f64),
    ]);
    out
}

/// Everything that must be byte-identical between an untraced and a traced
/// pass of the same (workload, seed, `--seconds`).
pub fn fingerprint(spec: &Spec, pass: &Pass) -> Vec<(&'static str, f64)> {
    let mut out = exact_values(pass);
    out.extend(counts(spec, pass));
    out
}

/// Every per-layer metric of a traced pass. `untraced_wall_ns_per_op` is the
/// same workload's untraced host cost, for `trace.overhead_pct`.
pub fn per_layer(spec: &Spec, pass: &Pass, untraced_wall_ns_per_op: f64) -> Vec<Value> {
    let m = &pass.measure;
    let ops = m.attempted as f64;
    let report = pass.trace.as_ref();
    let total_self = report.map_or(0, Report::self_ns_total) as f64;
    let mut values: Vec<(String, f64)> = Vec::new();
    for layer in LAYERS {
        let [fg, bg] = report.map_or_else(Default::default, |r| r.layers[layer as usize]);
        let n = layer.name();
        values.push((format!("{n}.calls"), (fg.calls + bg.calls) as f64));
        values.push((format!("{n}.bytes"), (fg.bytes + bg.bytes) as f64));
        values.push((format!("{n}.errors"), (fg.errors + bg.errors) as f64));
        values.push((
            format!("{n}.fg_wall_self_ns_per_op"),
            fg.self_ns as f64 / ops,
        ));
        values.push((
            format!("{n}.bg_wall_self_ns_per_op"),
            bg.self_ns as f64 / ops,
        ));
        values.push((
            format!("{n}.wall_share"),
            ratio((fg.self_ns + bg.self_ns) as f64 * 100.0, total_self),
        ));
    }
    let mut specific: Vec<(&'static str, f64)> = counts(spec, pass);
    let media_calls = report.map_or(0, |r| r.total(Layer::Ocssd).calls) as f64 / ops;
    for (layer, name) in [
        (Layer::Oxblock, "oxblock.media_calls_per_op"),
        (Layer::Oxztl, "oxztl.media_calls_per_op"),
        (Layer::Kvssd, "kvssd.media_calls_per_op"),
    ] {
        let present = report.is_some_and(|r| r.total(layer).calls > 0);
        specific.push((name, if present { media_calls } else { 0.0 }));
    }
    for (name, layer, call, q) in [
        (
            "lightlsm.read_block_v_p50_us",
            Layer::Lightlsm,
            "read_block",
            0.50,
        ),
        (
            "lightlsm.read_block_v_p99_us",
            Layer::Lightlsm,
            "read_block",
            0.99,
        ),
        (
            "lightlsm.flush_table_v_p50_us",
            Layer::Lightlsm,
            "flush_table",
            0.50,
        ),
        (
            "lightlsm.flush_table_v_p99_us",
            Layer::Lightlsm,
            "flush_table",
            0.99,
        ),
        ("ocssd.read_v_p50_us", Layer::Ocssd, "read", 0.50),
        ("ocssd.read_v_p99_us", Layer::Ocssd, "read", 0.99),
        ("ocssd.write_v_p50_us", Layer::Ocssd, "write", 0.50),
        ("ocssd.write_v_p99_us", Layer::Ocssd, "write", 0.99),
    ] {
        specific.push((name, v_quantile(report, layer, call, q)));
    }
    let mut added = report.map_or_else(Vec::new, |r| r.sched_added_v_ns.clone());
    specific.push(("iosched.added_v_p50_us", us(quantile(&mut added, 0.50))));
    specific.push(("iosched.added_v_p99_us", us(quantile(&mut added, 0.99))));
    let traced_wall = m.wall_ns as f64 / ops;
    specific.push((
        "trace.overhead_pct",
        (ratio(traced_wall, untraced_wall_ns_per_op) - 1.0) * 100.0,
    ));

    // Emit in definition order, so the report and BENCHMARK.json line up.
    values.extend(specific.into_iter().map(|(n, v)| (n.to_string(), v)));
    per_layer_defs()
        .into_iter()
        .map(|(name, unit, _)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v);
            Value { name, value, unit }
        })
        .collect()
}
