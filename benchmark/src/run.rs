//! One benchmark run: the passes it makes, the guards it applies, and the
//! result it prints.
//!
//! `--seconds` is split over [`PASSES`] passes of identical work.
//!
//! * Untraced (`--trace 0`): all the passes run untraced and report every
//!   end-to-end metric. They must agree exactly on the virtual metrics and
//!   counts (the simulator is deterministic; a run that is not is wrong).
//! * Traced (`--trace 1`): the middle pass runs on a traced stack. It must
//!   agree with the untraced ones the same way (wrapper transparency); its
//!   host time over theirs is `trace.overhead_pct`; every per-layer metric
//!   comes from it.

use crate::json;
use crate::metrics::{self, Steady, Value};
use crate::workload::{self, Pass, Spec};
use std::path::{Path, PathBuf};

/// Passes an untraced run makes. Each is a full set-up + measured phase of
/// identical work: `setup_s` is the median set-up, `wall_ns_per_op` charges
/// every slice of the phase at its fastest pass, and the passes must agree
/// on every virtual metric and count.
pub const PASSES: u64 = 3;

/// Parsed `oxperf run` arguments.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Generator seed.
    pub seed: u64,
    /// Scale of the measured phase (host seconds on the calibration host).
    pub seconds: u64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// A sixteenth of every op count; for smoke tests.
    pub quick: bool,
    /// Where raw spans go.
    pub out_dir: PathBuf,
}

/// What one run produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Every output checked was right, and (traced) the wrappers were
    /// transparent.
    pub correct: bool,
    /// Ops attempted, measured phase plus read-backs.
    pub attempted: u64,
    /// Ops failed, refused, wrong or lost.
    pub failed: u64,
    /// The metrics this kind of run reports.
    pub values: Vec<Value>,
    /// Steady-state verdict.
    pub steady: Steady,
    /// Whether the verdict is binding for this workload.
    pub steady_applies: bool,
    /// Virtual metrics and counts (for exact comparison between runs).
    pub fingerprint: Vec<(&'static str, f64)>,
}

fn totals(pass: &Pass) -> (u64, u64) {
    let m = &pass.measure;
    (
        m.attempted + pass.post_reads,
        m.failed + m.wrong + pass.lost,
    )
}

fn check_steady(spec: &Spec, pass: &Pass, quick: bool) -> Result<Steady, String> {
    let st = metrics::steady(pass);
    if spec.steady_guard && !quick && !st.ok {
        return Err(format!(
            "{}: not at steady state: warm-up overwrote the device {:.2}× (need ≥ {}), \
             waf of the two measured halves differs by {:.1} % (limit {} %)",
            spec.name,
            st.overwrites,
            workload::MIN_OVERWRITES,
            st.half_drift * 100.0,
            workload::MAX_HALF_DRIFT * 100.0
        ));
    }
    Ok(st)
}

/// Runs the benchmark once as `args` says.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let spec = workload::spec(&args.workload).ok_or_else(|| {
        let names: Vec<&str> = workload::SPECS.iter().map(|s| s.name).collect();
        format!(
            "unknown workload {:?}; expected one of {}",
            args.workload,
            names.join(", ")
        )
    })?;
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let ops = spec.ops(args.seconds, PASSES, args.quick);
    let plain = workload::run_pass(spec, args.seed, ops, args.quick, false)?;
    let steady = check_steady(spec, &plain, args.quick)?;
    let fingerprint = metrics::fingerprint(spec, &plain);
    let (mut attempted, mut failed) = totals(&plain);
    let mut agree = true;
    let mut passes = vec![plain];
    // A traced run traces the middle pass: both it and the untraced pass
    // after it run on a heap the first pass has already faulted in, so their
    // host times are comparable.
    for pass in 1..PASSES {
        let traced = args.trace && pass == 1;
        let next = workload::run_pass(spec, args.seed, ops, args.quick, traced)?;
        if metrics::fingerprint(spec, &next) != fingerprint {
            agree = false;
            eprintln!(
                "{}: {} pass disagrees with the first on virtual metrics or counts",
                spec.name,
                if traced { "traced" } else { "repeated" }
            );
        }
        let (a, f) = totals(&next);
        attempted += a;
        failed += f;
        passes.push(next);
    }
    let values = if args.trace {
        let traced = passes.remove(1);
        if let Some(report) = &traced.trace {
            let path = args.out_dir.join(format!("{}.spans.jsonl", spec.name));
            report
                .write_spans(&path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
        metrics::per_layer(spec, &traced, metrics::wall_ns_per_op(&passes))
    } else {
        metrics::end_to_end(&passes)
    };
    Ok(Outcome {
        correct: failed == 0 && agree,
        attempted,
        failed,
        values,
        steady,
        steady_applies: spec.steady_guard,
        fingerprint,
    })
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .values
        .iter()
        .map(|v| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(&v.name),
                number(v.value),
                json::quote(v.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting keeps.
fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

/// One line for a results file `oxperf compare` reads: the run's identity
/// plus every value it reported and its exact fingerprint.
pub fn record_line(args: &RunArgs, o: &Outcome) -> String {
    let mut members: Vec<String> = o
        .values
        .iter()
        .map(|v| format!("{}: {}", json::quote(&v.name), number(v.value)))
        .collect();
    for (name, value) in &o.fingerprint {
        if !o.values.iter().any(|v| v.name == *name) {
            members.push(format!("{}: {}", json::quote(name), number(*value)));
        }
    }
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"quick\": {}, \
         \"correct\": {}, \"values\": {{{}}}}}",
        json::quote(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.quick,
        o.correct,
        members.join(", ")
    )
}

/// Appends `line` to `path`, creating the file and its directory.
pub fn append_line(path: &Path, line: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")
}
