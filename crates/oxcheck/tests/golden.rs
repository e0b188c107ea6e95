//! Golden-fixture suite for the symbol-aware lints (L5/L7), L11 and the
//! scope of L2.
//!
//! Each fixture under `tests/fixtures/` is a self-contained source file of
//! true-positive and false-positive shapes, annotated inline with
//! `FLAGGED` / `CLEAN` / `EXEMPT` comments. The fixtures are fed to
//! [`oxcheck::analyze_sources`] under synthetic storage-crate paths (so
//! they land in the L5/L7 scope) — the `fixtures` directory itself is on
//! the analyzer's skip list, so the workspace gate never sees them.

use oxcheck::{analyze_sources, Config, Finding};

/// Analyzes `src` as a one-file workspace. Such a workspace has no callers,
/// so nearly every `pub fn` of a fixture is unreferenced: L11 findings are
/// dropped here and asserted in the L11 test alone, which brings callers.
fn analyze(path: &str, src: &str) -> Vec<Finding> {
    let mut a = analyze_sources(&[(path.to_string(), src.to_string())], &Config::default());
    a.retain(|f| f.lint.name() != "unreferenced_pub");
    a
}

fn lines_of(findings: &[Finding], lint: &str) -> Vec<u32> {
    findings
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
    assert_eq!(l5.len(), 3, "expected 3 unordered_iter findings: {:#?}", a);
    // The for-loop, the `.values()…next()` chain and the `.drain()`.
    assert!(
        a.iter().all(|f| f.lint.name() == "unordered_iter"),
        "{:#?}",
        a
    );
}

#[test]
fn l5_false_positive_shapes_stay_clean() {
    let a = analyze(
        "crates/core/src/l5_clean.rs",
        include_str!("fixtures/l5_clean.rs"),
    );
    assert!(a.is_empty(), "clean fixture produced findings: {:#?}", a);
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
    assert_eq!(l7.len(), 2, "{:#?}", a);
    let leak = a.iter().find(|f| f.line == l7[0]).expect("first finding");
    assert!(leak.message.contains("guard"), "{}", leak.message);
}

#[test]
fn macro_bodies_are_exempt_and_pragmas_suppress() {
    let a = analyze(
        "crates/core/src/macros_and_pragmas.rs",
        include_str!("fixtures/macros_and_pragmas.rs"),
    );
    assert!(
        a.is_empty(),
        "macro/pragma fixture produced findings: {:#?}",
        a
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
    assert_eq!(lines_of(&a, "unordered_iter").len(), 1, "{:#?}", a);
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
        assert_eq!(lines_of(&a, lint), [5, 8, 9], "{path}: {:#?}", a);
    }
    for path in [
        "crates/bench/benches/microbench.rs",
        "crates/sim/src/time.rs",
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
    assert_eq!(lines_of(&a, "unreferenced_pub"), [7, 8, 9], "{:#?}", a);
    assert!(a[0].message.contains("dead_areas"));
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
    assert!(lines_of(&a, "unordered_iter").is_empty(), "{:#?}", a);
}
