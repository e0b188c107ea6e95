//! Tier-1 gate: the in-repo static analyzer must report zero findings
//! beyond the checked-in baseline, and its static lock-order graph must
//! cover everything the runtime lockdep actually observes.
//!
//! This makes `cargo test -q` fail the moment anyone reintroduces a raw
//! `std::sync` lock, a wall-clock read, an unchecked panic on a storage
//! path, an external dependency, hash-ordered iteration on a storage path,
//! an ABBA lock cycle, or an unbalanced trace span — the same checks CI
//! runs as `cargo run -p oxcheck`, kept in the test suite so they also
//! bite locally and in environments without the workflow runner.

use std::path::Path;

fn analysis() -> oxcheck::Analysis {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    oxcheck::analyze_workspace_full(root, &oxcheck::Config::default())
        .expect("workspace sources must be readable")
}

/// Findings are checked against `oxcheck.baseline` (the ratchet): new
/// findings fail, and so does a stale baseline — tolerated debt may only
/// shrink. The checked-in baseline is empty, so today this means "zero
/// findings"; if a future change has to tolerate debt temporarily it goes
/// through the baseline file, visibly, instead of silently relaxing the
/// gate.
#[test]
fn workspace_is_oxcheck_clean_against_baseline() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let analysis = analysis();
    let baseline = std::fs::read_to_string(root.join("oxcheck.baseline"))
        .expect("oxcheck.baseline must be checked in at the workspace root");
    let errors = oxcheck::report::check_baseline(&analysis.findings, &baseline);
    assert!(
        errors.is_empty(),
        "oxcheck ratchet violated:\n{}\nfindings:\n{}",
        errors.join("\n"),
        analysis
            .findings
            .iter()
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Cross-validation of L6 `lock_order`: drive a real figure workload with
/// runtime lockdep live, then require every acquisition-order edge the
/// runtime observed to be present in the static graph. The static analysis
/// over-approximates (it assumes any call *may* happen), so runtime ⊆
/// static must hold; a runtime edge the static side missed means the
/// analyzer lost track of a lock and its cycle detection cannot be
/// trusted.
///
/// Runtime lockdep only exists under `cfg(debug_assertions)` (the dev
/// profile tier-1 uses).
#[cfg(debug_assertions)]
#[test]
fn static_lock_graph_covers_runtime_observations() {
    use ox_sim::SimDuration;

    // Drive the GC-locality workload (OX-Block FTL + device + tracer +
    // metrics, with actor-held FTL locks) with tracing enabled so the
    // tracer/metrics mutexes are exercised too.
    let obs = ox_bench::figure_obs();
    ox_bench::gc_locality::run(SimDuration::from_millis(20), &obs).expect("gc_locality workload");

    let runtime = ox_sim::observed_edges();
    assert!(
        !runtime.is_empty(),
        "workload produced no runtime lock-order edges; the cross-check is vacuous"
    );

    let analysis = analysis();
    let static_edges = analysis.lock_graph.edge_sites();

    for ((fa, la), (fb, lb)) in &runtime {
        // Every runtime lock class must be keyed at a user construction
        // site. A class keyed inside the sync wrapper itself means someone
        // built a lock through `Default` (no `#[track_caller]`
        // attribution) — invisible to the static analyzer, which keys
        // classes by `Mutex::new` site.
        for f in [fa, fb] {
            assert!(
                !f.ends_with("crates/sim/src/sync.rs"),
                "runtime lock class keyed inside the sync wrapper ({f}) — \
                 constructed via Default instead of Mutex::new, so the \
                 static analyzer cannot see it"
            );
        }
        let covered = static_edges
            .iter()
            .any(|((sfa, sla), (sfb, slb))| sfa == fa && sla == la && sfb == fb && slb == lb);
        assert!(
            covered,
            "runtime observed lock-order edge {fa}:{la} -> {fb}:{lb} that the \
             static L6 graph does not contain; static edges:\n{}",
            static_edges
                .iter()
                .map(|((a, al), (b, bl))| format!("  {a}:{al} -> {b}:{bl}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
