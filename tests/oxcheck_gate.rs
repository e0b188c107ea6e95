//! Tier-1 gate: the in-repo static analyzer must report zero findings
//! beyond the checked-in baseline.
//!
//! This makes `cargo test -q` fail the moment anyone reintroduces a raw
//! `std::sync` lock, a wall-clock read, an unchecked panic on a storage
//! path, an external dependency, hash-ordered iteration on a storage path,
//! an unbalanced trace span or a `pub fn` nothing calls — the same checks CI
//! runs as `cargo run -p oxcheck`, kept in the test suite so they also
//! bite locally and in environments without the workflow runner.

use std::path::Path;

/// Findings are checked against `oxcheck.baseline` (the ratchet): new
/// findings fail, and so does a stale baseline — tolerated debt may only
/// shrink. The checked-in baseline is empty, so today this means "zero
/// findings"; if a future change has to tolerate debt temporarily it goes
/// through the baseline file, visibly, instead of silently relaxing the
/// gate.
#[test]
fn workspace_is_oxcheck_clean_against_baseline() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let findings = oxcheck::analyze_workspace(root, &oxcheck::Config::default())
        .expect("workspace sources must be readable");
    let baseline = std::fs::read_to_string(root.join("oxcheck.baseline"))
        .expect("oxcheck.baseline must be checked in at the workspace root");
    let errors = oxcheck::report::check_baseline(&findings, &baseline);
    assert!(
        errors.is_empty(),
        "oxcheck ratchet violated:\n{}\nfindings:\n{}",
        errors.join("\n"),
        findings
            .iter()
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
