//! Golden-fixture suite for L2, L11, L12 and the pragma and macro scopes.
//!
//! Each fixture under `tests/fixtures/` is a self-contained source file of
//! true-positive and false-positive shapes, annotated inline with
//! `FLAGGED` / `CLEAN` / `EXEMPT` comments. The fixtures are fed to
//! [`oxcheck::analyze_sources`] under synthetic workspace paths (so they
//! land in or out of a lint's scope) — the `fixtures` directory itself is on
//! the analyzer's skip list, so the workspace gate never sees them.

use oxcheck::{analyze_sources, Config, Finding};

/// Analyzes `src` as a one-file workspace.
fn analyze(path: &str, src: &str) -> Vec<Finding> {
    analyze_sources(&[(path.to_string(), src.to_string())], &Config::default())
}

fn lines_of(findings: &[Finding], lint: &str) -> Vec<u32> {
    findings
        .iter()
        .filter(|f| f.lint.name() == lint)
        .map(|f| f.line)
        .collect()
}

const L12: &str = include_str!("fixtures/l12_hash_container.rs");

/// L12 flags every `HashMap`/`HashSet` identifier in non-test storage code
/// — imported, grouped or spelled out — and nothing else; a pragma silences
/// its line and the next, and removing it brings the finding back.
#[test]
fn l12_hash_containers_are_flagged() {
    let without_pragma = L12
        .lines()
        .filter(|l| !l.contains("oxcheck:allow"))
        .collect::<Vec<_>>()
        .join("\n");
    for path in [
        "crates/kvssd/src/lib.rs",
        "crates/core/src/recovery.rs",
        "crates/sim/src/trace.rs",
    ] {
        let a = analyze(path, L12);
        assert_eq!(
            lines_of(&a, "hash_container"),
            [6, 7, 10, 14],
            "{path}: {a:#?}"
        );
        let a = analyze(path, &without_pragma);
        assert_eq!(
            lines_of(&a, "hash_container"),
            [6, 7, 10, 14, 22],
            "{path}: {a:#?}"
        );
    }
}

/// The figure harness, whose tables are committed byte for byte, is held to
/// L12 like the storage crates; its wall-clock microbenchmarks are not.
#[test]
fn l12_covers_the_figure_harness() {
    for path in [
        "crates/bench/src/ycsb.rs",
        "crates/bench/src/bin/fig_ycsb.rs",
    ] {
        let a = analyze(path, L12);
        assert_eq!(
            lines_of(&a, "hash_container"),
            [6, 7, 10, 14],
            "{path}: {a:#?}"
        );
    }
    let a = analyze("crates/bench/benches/microbench.rs", L12);
    assert!(lines_of(&a, "hash_container").is_empty(), "{a:#?}");
}

/// Fixtures placed outside the storage-path scope, or in test trees, produce
/// no L12 noise: the lint is scoped on purpose.
#[test]
fn out_of_scope_paths_are_not_linted() {
    for path in [
        "tools/scratch/l12.rs",
        "src/lib.rs",
        "examples/l12.rs",
        "crates/oxcheck/src/l12.rs",
        "crates/kvssd/tests/l12.rs",
    ] {
        let a = analyze(path, L12);
        assert!(lines_of(&a, "hash_container").is_empty(), "{path}: {a:#?}");
    }
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
    assert_eq!(lines_of(&a, "unreferenced_pub"), [15], "{:#?}", a);
    assert!(a[0].message.contains("debug_dump"));
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
