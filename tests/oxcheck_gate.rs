//! Tier-1 gate: the in-repo static analyzer must report zero findings.
//!
//! This makes `cargo test -q` fail the moment anyone reintroduces a raw
//! `std::sync` lock, a wall-clock read, an unchecked panic on a storage
//! path, an external dependency, a `pub fn` nothing calls or a hash
//! container on a storage path — the same checks CI runs as
//! `cargo run -p oxcheck`, kept in the test suite so they also bite locally
//! and in environments without the workflow runner.

use std::path::Path;

/// There is no tolerated debt: a justified exception is an
/// `// oxcheck:allow(<lint>): <why>` pragma at its own line, read with its
/// reason there, not a count kept somewhere else.
#[test]
fn workspace_is_oxcheck_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let findings = oxcheck::analyze_workspace(root, &oxcheck::Config::default())
        .expect("workspace sources must be readable");
    assert!(
        findings.is_empty(),
        "oxcheck findings:\n{}",
        findings
            .iter()
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
