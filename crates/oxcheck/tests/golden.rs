//! Golden-fixture suite for the symbol-aware lints (L5/L6/L7), L8–L11 and
//! the scope of L2.
//!
//! Each fixture under `tests/fixtures/` is a self-contained source file of
//! true-positive and false-positive shapes, annotated inline with
//! `FLAGGED` / `CLEAN` / `EXEMPT` comments. The fixtures are fed to
//! [`oxcheck::analyze_sources`] under synthetic storage-crate paths (so
//! they land in the L5/L7 scope) — the `fixtures` directory itself is on
//! the analyzer's skip list, so the workspace gate never sees them.

use oxcheck::{analyze_sources, Analysis, Config};

/// Analyzes `src` as a one-file workspace. Such a workspace has no callers,
/// so nearly every `pub fn` of a fixture is unreferenced: L11 findings are
/// dropped here and asserted in the L11 test alone, which brings callers.
fn analyze(path: &str, src: &str) -> Analysis {
    let mut a = analyze_sources(&[(path.to_string(), src.to_string())], &Config::default());
    a.findings.retain(|f| f.lint.name() != "unreferenced_pub");
    a
}

fn lines_of(analysis: &Analysis, lint: &str) -> Vec<u32> {
    analysis
        .findings
        .iter()
        .filter(|f| f.lint.name() == lint)
        .map(|f| f.line)
        .collect()
}

#[test]
fn l5_true_positives_are_flagged() {
    let a = analyze(
        "crates/core/src/l5_unordered.rs",
        include_str!("fixtures/l5_unordered.rs"),
    );
    let l5 = lines_of(&a, "unordered_iter");
    assert_eq!(
        l5.len(),
        3,
        "expected 3 unordered_iter findings: {:#?}",
        a.findings
    );
    // The for-loop, the `.values()…next()` chain and the `.drain()`.
    assert!(
        a.findings.iter().all(|f| f.lint.name() == "unordered_iter"),
        "{:#?}",
        a.findings
    );
}

#[test]
fn l5_false_positive_shapes_stay_clean() {
    let a = analyze(
        "crates/core/src/l5_clean.rs",
        include_str!("fixtures/l5_clean.rs"),
    );
    assert!(
        a.findings.is_empty(),
        "clean fixture produced findings: {:#?}",
        a.findings
    );
}

#[test]
fn l6_abba_cycle_is_detected() {
    let a = analyze(
        "crates/core/src/l6_abba.rs",
        include_str!("fixtures/l6_abba.rs"),
    );
    let l6: Vec<_> = a
        .findings
        .iter()
        .filter(|f| f.lint.name() == "lock_order")
        .collect();
    assert_eq!(
        l6.len(),
        1,
        "expected exactly one cycle finding: {:#?}",
        a.findings
    );
    assert!(
        l6[0].message.contains("cycle"),
        "not a cycle finding: {}",
        l6[0].message
    );
    // Both classes resolved to their construction sites: the graph knows
    // two classes and both directions of the conflict.
    assert_eq!(a.lock_graph.classes.len(), 2);
    assert_eq!(a.lock_graph.edges.len(), 2, "{:?}", a.lock_graph.edges);
}

#[test]
fn l6_try_lock_creates_no_edge_and_no_cycle() {
    let a = analyze(
        "crates/core/src/l6_trylock.rs",
        include_str!("fixtures/l6_trylock.rs"),
    );
    assert!(
        a.findings.is_empty(),
        "try_lock fixture produced findings: {:#?}",
        a.findings
    );
    // Only the blocking direction (map → gc) exists in the graph.
    assert_eq!(a.lock_graph.edges.len(), 1, "{:?}", a.lock_graph.edges);
}

#[test]
fn l7_span_shapes() {
    let a = analyze(
        "crates/ocssd/src/l7_spans.rs",
        include_str!("fixtures/l7_spans.rs"),
    );
    let l7 = lines_of(&a, "span_discipline");
    // Exactly the leaky `?` site and the never-closed site; the guard, the
    // escaping id and the balanced pair stay clean.
    assert_eq!(l7.len(), 2, "{:#?}", a.findings);
    let leak = a
        .findings
        .iter()
        .find(|f| f.line == l7[0])
        .expect("first finding");
    assert!(leak.message.contains("guard"), "{}", leak.message);
}

#[test]
fn macro_bodies_are_exempt_and_pragmas_suppress() {
    let a = analyze(
        "crates/core/src/macros_and_pragmas.rs",
        include_str!("fixtures/macros_and_pragmas.rs"),
    );
    assert!(
        a.findings.is_empty(),
        "macro/pragma fixture produced findings: {:#?}",
        a.findings
    );
}

/// The same pragma fixture *without* its pragma line must be flagged —
/// proving the suppression above is doing the work, not a lint gap.
#[test]
fn removing_the_pragma_reintroduces_the_finding() {
    let src = include_str!("fixtures/macros_and_pragmas.rs")
        .lines()
        .filter(|l| !l.contains("oxcheck:allow"))
        .collect::<Vec<_>>()
        .join("\n");
    let a = analyze("crates/core/src/macros_and_pragmas.rs", &src);
    assert_eq!(lines_of(&a, "unordered_iter").len(), 1, "{:#?}", a.findings);
}

/// L2 holds the figure harness to virtual time like any simulation code;
/// only the wall-clock microbenchmarks (and `ox_sim::time`) may read the
/// host clock.
#[test]
fn l2_wall_clock_is_flagged_in_the_figure_harness_but_not_in_the_microbenchmarks() {
    let src = include_str!("fixtures/l2_wall_clock.rs");
    let lint = "wall_clock";
    for path in [
        "crates/bench/src/lifetime.rs",
        "crates/bench/src/bin/fig_qos_tail.rs",
    ] {
        let a = analyze(path, src);
        assert_eq!(lines_of(&a, lint), [5, 8, 9], "{path}: {:#?}", a.findings);
    }
    for path in [
        "crates/bench/benches/microbench.rs",
        "crates/sim/src/time.rs",
    ] {
        assert!(lines_of(&analyze(path, src), lint).is_empty(), "{path}");
    }
}

/// L8 flags the public wiring hooks — and only those — in crate sources;
/// integration tests and non-crate paths are not held to it.
#[test]
fn l8_wiring_hooks_are_flagged_in_crate_sources_only() {
    let src = include_str!("fixtures/l8_wiring.rs");
    let lint = "post_construction_wiring";
    let a = analyze("crates/x/src/l8_wiring.rs", src);
    assert_eq!(lines_of(&a, lint), [7, 8, 9], "{:#?}", a.findings);
    for path in ["crates/x/tests/l8_wiring.rs", "examples/l8_wiring.rs"] {
        assert!(lines_of(&analyze(path, src), lint).is_empty(), "{path}");
    }
}

/// L9 flags log scans and checkpoint loads in crate sources — except in the
/// three files that own replay — and leaves tests and examples alone.
#[test]
fn l9_private_replay_is_flagged_outside_the_files_that_own_it() {
    let src = include_str!("fixtures/l9_private_replay.rs");
    let lint = "private_replay";
    let a = analyze("crates/x/src/l9_private_replay.rs", src);
    assert_eq!(lines_of(&a, lint), [5, 8, 9, 10], "{:#?}", a.findings);
    for path in [
        "crates/core/src/recovery.rs",
        "crates/core/src/wal.rs",
        "crates/core/src/checkpoint.rs",
        "crates/x/tests/l9_private_replay.rs",
        "examples/l9_private_replay.rs",
    ] {
        assert!(lines_of(&analyze(path, src), lint).is_empty(), "{path}");
    }
}

/// L10 flags slot allocation and chunk-retiring error patterns in crate
/// sources — except in the two files that own placement and in the device
/// crate — and leaves tests and examples alone.
#[test]
fn l10_private_placement_is_flagged_outside_the_files_that_own_it() {
    let src = include_str!("fixtures/l10_private_placement.rs");
    let lint = "private_placement";
    let a = analyze("crates/x/src/l10_private_placement.rs", src);
    assert_eq!(lines_of(&a, lint), [6, 9, 15, 18], "{:#?}", a.findings);
    for path in [
        "crates/core/src/logspace.rs",
        "crates/core/src/provision.rs",
        "crates/ocssd/src/device.rs",
        "crates/x/tests/l10_private_placement.rs",
        "examples/l10_private_placement.rs",
    ] {
        assert!(lines_of(&analyze(path, src), lint).is_empty(), "{path}");
    }
}

/// L11 flags a `pub fn` of a crate's sources that no other token in the
/// workspace names — its own file's test module does not count, another
/// file's does — and leaves non-crate trees alone.
#[test]
fn l11_unreferenced_pub_is_flagged_until_another_file_names_it() {
    let fixture = include_str!("fixtures/l11_unreferenced_pub.rs").to_string();
    let callers = [
        ("examples/walk.rs", "fn main() { let _ = t.free_chunks(); }"),
        (
            "crates/y/tests/harness.rs",
            "#[test] fn t() { d.read_vector(); }",
        ),
    ];
    let run = |path: &str| {
        let mut sources = vec![(path.to_string(), fixture.clone())];
        sources.extend(callers.map(|(p, s)| (p.to_string(), s.to_string())));
        analyze_sources(&sources, &Config::default())
    };
    let a = run("crates/x/src/l11_unreferenced_pub.rs");
    assert_eq!(
        lines_of(&a, "unreferenced_pub"),
        [7, 8, 9],
        "{:#?}",
        a.findings
    );
    assert!(a.findings[0].message.contains("dead_areas"));
    for path in ["crates/x/tests/l11.rs", "examples/l11.rs", "src/l11.rs"] {
        assert!(
            lines_of(&run(path), "unreferenced_pub").is_empty(),
            "{path}"
        );
    }
}

/// Fixtures placed outside the storage-path scope produce no L5/L7 noise:
/// the lints are scoped on purpose.
#[test]
fn out_of_scope_paths_are_not_linted() {
    let a = analyze(
        "tools/scratch/l5_unordered.rs",
        include_str!("fixtures/l5_unordered.rs"),
    );
    assert!(
        lines_of(&a, "unordered_iter").is_empty(),
        "{:#?}",
        a.findings
    );
}
