//! `--quick` runs of all six workloads: the smoke test, wrapper
//! transparency, and the self-time accounting identity.

use oxperf::clock;
use oxperf::run::{self, RunArgs};
use oxperf::trace::LAYERS;
use oxperf::workload::SPECS;

fn args(workload: &str, trace: bool) -> RunArgs {
    RunArgs {
        workload: workload.to_string(),
        seed: 42,
        seconds: 9,
        trace,
        quick: true,
        out_dir: std::env::temp_dir().join(format!("oxperf-test-{}", std::process::id())),
    }
}

#[test]
fn quick_smoke_of_all_six_under_five_seconds_each() {
    for spec in &SPECS {
        let start = clock::now_ns();
        let out = run::run(&args(spec.name, false)).expect(spec.name);
        let took = (clock::now_ns() - start) as f64 / 1e9;
        assert!(out.correct, "{}: wrong or lost results", spec.name);
        assert_eq!(out.failed, 0, "{}", spec.name);
        assert!(out.attempted > 0);
        assert_eq!(
            out.values.len(),
            oxperf::metrics::END_TO_END.len(),
            "{}: every end-to-end metric is reported",
            spec.name
        );
        for v in &out.values {
            // A quick lsm-mixed run is too short to flush anything, so its
            // measured phase writes nothing to the device.
            let may_be_zero = v.name == "waf" && spec.name == "lsm-mixed";
            assert!(
                v.value.is_finite() && (v.value > 0.0 || may_be_zero),
                "{} {} = {}",
                spec.name,
                v.name,
                v.value
            );
        }
        assert!(took < 5.0, "{} quick run took {took:.1} s", spec.name);
    }
}

#[test]
fn same_seed_repeats_exactly_other_seed_does_not() {
    let a = run::run(&args("blk-update", false)).unwrap();
    let b = run::run(&args("blk-update", false)).unwrap();
    assert_eq!(a.fingerprint, b.fingerprint);
    let mut other = args("blk-update", false);
    other.seed = 43;
    let c = run::run(&other).unwrap();
    assert_ne!(a.fingerprint, c.fingerprint);
}

/// A traced run makes an untraced and a traced pass and is `correct` only if
/// the two agree on every virtual metric and count — so this is the
/// wrapper-transparency test — and its per-layer self times must add up.
#[test]
fn wrappers_are_transparent_and_self_times_add_up() {
    for spec in &SPECS {
        let out = run::run(&args(spec.name, true)).expect(spec.name);
        assert!(
            out.correct,
            "{}: traced pass diverged from the untraced one",
            spec.name
        );
        let names = oxperf::metrics::per_layer_defs();
        assert_eq!(out.values.len(), names.len());
        let get = |name: &str| {
            out.values
                .iter()
                .find(|v| v.name == name)
                .unwrap_or_else(|| panic!("{name} not reported"))
                .value
        };
        let share: f64 = LAYERS
            .iter()
            .map(|l| get(&format!("{}.wall_share", l.name())))
            .sum();
        assert!(
            (98.0..=102.0).contains(&share),
            "{}: wall shares sum to {share}",
            spec.name
        );
        // Layers a workload does not load report nothing; the ones it loads
        // report calls.
        assert!(get("ocssd.calls") > 0.0 && get("driver.calls") > 0.0);
        let top = format!("{}.calls", out_top(spec.name));
        assert!(get(&top) > 0.0, "{}: {top} is zero", spec.name);
        assert!(get("trace.overhead_pct").is_finite());
    }
}

fn out_top(workload: &str) -> &'static str {
    match workload {
        "blk-update" => "oxblock",
        "ztl-update" => "oxztl",
        "kv-update" => "kvssd",
        _ => "lsmkv",
    }
}

#[test]
fn traced_self_time_matches_the_phase_stopwatch() {
    use oxperf::workload;
    let spec = workload::spec("lsm-mixed").unwrap();
    let pass = workload::run_pass(spec, 42, spec.ops(9, 3, true), true, true).unwrap();
    let report = pass.trace.expect("traced pass records a report");
    let total = report.self_ns_total() as f64;
    let wall = pass.measure.wall_ns as f64;
    assert!(
        (total - wall).abs() / wall < 0.02,
        "self times sum to {total}, the phase took {wall}"
    );
}
