//! Double-run determinism: the same seeded workload must produce a
//! byte-identical report and observability snapshot both times.
//!
//! The whole stack is virtual-time simulation with seeded PRNGs; the only
//! way two same-seed runs can diverge is real nondeterminism leaking in —
//! hash-ordered iteration on a storage path (exactly what the L5
//! `unordered_iter` lint exists to catch), wall-clock reads (L2, which now
//! covers the figure harness too), or address reuse. Comparing the report
//! text as `results/<name>.txt` would carry it plus the full metrics +
//! trace JSON catches divergence anywhere in the stack, not just in a
//! figure's summary numbers — and is what lets `results/` be regenerated
//! byte for byte (`scripts/regen-results.sh`).

use ox_bench::backend::BenchBackend;
use ox_bench::Report;
use ox_sim::trace::Obs;
use ox_sim::SimDuration;

/// Runs `figure` twice, each into a fresh report and fresh sinks, and
/// requires both outputs to agree to the byte.
fn assert_twice_identical(name: &str, figure: impl Fn(&Obs, &mut Report)) {
    let run = || {
        let obs = ox_bench::figure_obs();
        let mut report = Report::new(name, None);
        figure(&obs, &mut report);
        (report.text().to_string(), obs.to_json())
    };
    let (text_a, json_a) = run();
    let (text_b, json_b) = run();
    assert!(!text_a.is_empty(), "{name} reported nothing");
    assert_eq!(
        text_a, text_b,
        "{name}: report text diverged between same-seed runs"
    );
    assert_eq!(
        json_a,
        json_b,
        "{name}: observability JSON diverged between same-seed runs (lengths {} vs {})",
        json_a.len(),
        json_b.len()
    );
}

#[test]
fn ablation_same_seed_runs_are_byte_identical() {
    let cfg = ox_bench::ablation::AblationConfig::quick();
    assert_twice_identical("fig_ablation", |obs, out| {
        ox_bench::ablation::report(&cfg, None, obs, out);
    });
}

#[test]
fn lifetime_same_seed_runs_are_byte_identical() {
    let cfg = ox_bench::lifetime::LifetimeConfig::quick();
    assert_twice_identical("fig_lifetime", |obs, out| {
        ox_bench::lifetime::report(&cfg, obs, out);
    });
}

#[test]
fn qos_tail_same_seed_runs_are_byte_identical() {
    assert_twice_identical("fig_qos_tail", |obs, out| {
        ox_bench::qos_tail::report(
            SimDuration::from_millis(150),
            BenchBackend::OxBlock,
            obs,
            out,
        );
    });
}

#[test]
fn gc_locality_same_seed_runs_are_byte_identical() {
    assert_twice_identical("gc_locality", |obs, out| {
        let result = ox_bench::gc_locality::run(SimDuration::from_millis(20), obs)
            .expect("gc_locality workload");
        for p in &result.points {
            out.line(format!(
                "{}:{:.6}:{:.6}:{}",
                p.groups, p.unaffected_pct, p.expected_pct, p.ios_classified
            ));
        }
    });
}
