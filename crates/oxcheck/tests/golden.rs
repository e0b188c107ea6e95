//! Golden-fixture suite for L11 and its pragma and macro scopes.
//!
//! Each fixture under `tests/fixtures/` is a self-contained source file of
//! true-positive and false-positive shapes, annotated inline with
//! `FLAGGED` / `CLEAN` / `EXEMPT` comments. The fixtures are fed to
//! [`oxcheck::analyze_sources`] under synthetic workspace paths (so they
//! land in or out of the lint's scope) — the `fixtures` directory itself is
//! on the analyzer's skip list, so the workspace gate never sees them.

use oxcheck::{analyze_sources, Finding};

const L11: &str = include_str!("fixtures/l11_unreferenced_pub.rs");

/// Files that name two of the fixture's functions: an example and another
/// crate's integration test.
const CALLERS: [(&str, &str); 2] = [
    ("examples/walk.rs", "fn main() { let _ = t.free_chunks(); }"),
    (
        "crates/y/tests/harness.rs",
        "#[test] fn t() { d.read_vector(); }",
    ),
];

/// Analyzes the L11 fixture at `path` beside [`CALLERS`].
fn analyze_l11_at(path: &str) -> Vec<Finding> {
    let mut sources = vec![(path.to_string(), L11.to_string())];
    sources.extend(CALLERS.map(|(p, s)| (p.to_string(), s.to_string())));
    analyze_sources(&sources)
}

fn lines_of(findings: &[Finding]) -> Vec<u32> {
    findings.iter().map(|f| f.line).collect()
}

/// L11 flags a `pub fn` of a crate's sources that no other token in the
/// workspace names — its own file's test module does not count, another
/// file's does.
#[test]
fn l11_unreferenced_pub_is_flagged_until_another_file_names_it() {
    let a = analyze_l11_at("crates/x/src/l11_unreferenced_pub.rs");
    assert_eq!(lines_of(&a), [7, 8, 9], "{:#?}", a);
    assert!(a[0].message.contains("dead_areas"));
}

/// Only non-test code under `crates/*/src/` holds a surface to check:
/// integration tests, examples, the root package and scratch trees do not.
#[test]
fn out_of_scope_paths_are_not_linted() {
    for path in [
        "crates/x/tests/l11.rs",
        "examples/l11.rs",
        "src/l11.rs",
        "tools/scratch/l11.rs",
    ] {
        assert!(analyze_l11_at(path).is_empty(), "{path}");
    }
}

#[test]
fn macro_bodies_are_exempt_and_pragmas_suppress() {
    let a = analyze_sources(&[(
        "crates/core/src/macros_and_pragmas.rs".to_string(),
        include_str!("fixtures/macros_and_pragmas.rs").to_string(),
    )]);
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
    let a = analyze_sources(&[("crates/core/src/macros_and_pragmas.rs".to_string(), src)]);
    assert_eq!(lines_of(&a), [15], "{:#?}", a);
    assert!(a[0].message.contains("debug_dump"));
}
