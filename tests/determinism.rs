//! Double-run determinism: the same seeded workload must produce a
//! byte-identical observability snapshot both times.
//!
//! The whole stack is virtual-time simulation with seeded PRNGs; the only
//! way two same-seed runs can diverge is real nondeterminism leaking in —
//! hash-ordered iteration on a storage path (exactly what the L5
//! `unordered_iter` lint exists to catch), wall-clock reads, or address
//! reuse. Comparing the full metrics + trace JSON catches divergence
//! anywhere in the stack, not just in the figure's summary numbers.

use ox_sim::SimDuration;

#[test]
fn ablation_same_seed_runs_are_byte_identical() {
    let cfg = ox_bench::ablation::AblationConfig {
        record_count: 384,
        operations: 768,
        warmup_operations: 768,
        clients: 4,
        seed: 0xD7,
    };
    // Wall-clock sampling stays off: `wall_ns_per_op` is the one number
    // allowed to differ between runs, and it must never leak into the obs
    // snapshot or the figure rows compared here.
    let run = || {
        let obs = ox_bench::figure_obs();
        let result = ox_bench::ablation::run(&cfg, &obs, false);
        let cells: Vec<String> = result
            .cells
            .iter()
            .map(|c| {
                format!(
                    "{}:{:?}:{}:{}:{}:{}:{}:{}",
                    c.backend,
                    c.workload,
                    c.report.total_ops,
                    c.report.quantile_ns(0.50),
                    c.report.quantile_ns(0.99),
                    c.phys_write_bytes,
                    c.user_write_bytes,
                    c.wall_ns_per_op,
                )
            })
            .collect();
        (cells, obs.to_json())
    };

    let (cells_a, json_a) = run();
    let (cells_b, json_b) = run();

    assert_eq!(
        cells_a, cells_b,
        "ablation cells diverged between same-seed runs"
    );
    assert_eq!(
        json_a,
        json_b,
        "observability JSON diverged between same-seed runs (lengths {} vs {})",
        json_a.len(),
        json_b.len()
    );
}

#[test]
fn gc_locality_same_seed_runs_are_byte_identical() {
    let run = || {
        let obs = ox_bench::figure_obs();
        let result = ox_bench::gc_locality::run(SimDuration::from_millis(20), &obs)
            .expect("gc_locality workload");
        let points: Vec<String> = result
            .points
            .iter()
            .map(|p| {
                format!(
                    "{}:{:.6}:{:.6}:{}",
                    p.groups, p.unaffected_pct, p.expected_pct, p.ios_classified
                )
            })
            .collect();
        (points, obs.to_json())
    };

    let (points_a, json_a) = run();
    let (points_b, json_b) = run();

    assert_eq!(
        points_a, points_b,
        "figure rows diverged between same-seed runs"
    );
    assert_eq!(
        json_a,
        json_b,
        "observability JSON diverged between same-seed runs (lengths {} vs {})",
        json_a.len(),
        json_b.len()
    );
}
