//! Tier-1 gate: the workspace's house rules, checked by `cargo test -q`.
//!
//! Three checks, each kept in the test suite so it also bites locally and in
//! environments without the workflow runner:
//!
//! * clippy with `-D warnings`, which holds the root `clippy.toml`'s
//!   banned types (raw `std::sync` locks, hash containers, the host clock)
//!   and the storage crates' crate-root denial of the panic family;
//! * both lockfiles name no package from outside the repository;
//! * oxcheck's L11: no `pub fn` that nothing in the workspace names.
//!
//! There is no tolerated debt: a justified exception is an
//! `#[expect(clippy::…, reason = "…")]` or an
//! `// oxcheck:allow(unreferenced_pub): <why>` pragma at its own site, read
//! with its reason there, not a count kept somewhere else.

use std::path::Path;
use std::process::Command;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Runs `cargo clippy` over every target of the workspace. The nested cargo
/// builds into its own directory under the test's target directory: sharing
/// the outer one would block on the build lock `cargo test` holds.
#[test]
fn workspace_is_clippy_clean() {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .current_dir(root())
        .env(
            "CARGO_TARGET_DIR",
            Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy-gate"),
        )
        .args(["clippy", "--offline", "--workspace", "--all-targets"])
        .args(["--", "-D", "warnings"])
        .output()
        .expect("cargo must run");
    assert!(
        out.status.success(),
        "`cargo clippy --workspace --all-targets -- -D warnings` failed \
         (install clippy with `rustup component add clippy`):\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The workspace builds offline, from this repository alone. Cargo records
/// where every package outside the tree comes from — a registry, a git
/// repository, a `[patch]` — as a `source = ` line in the lockfile, whatever
/// kind of dependency or target brought it in.
#[test]
fn lockfiles_name_no_external_source() {
    for lock in ["Cargo.lock", "benchmark/Cargo.lock"] {
        let text = std::fs::read_to_string(root().join(lock)).expect("lockfile must be readable");
        let external: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("source = "))
            .collect();
        assert!(
            external.is_empty(),
            "{lock} names packages from outside the repository; the workspace \
             must stay offline-buildable:\n{}",
            external.join("\n")
        );
    }
}

#[test]
fn workspace_is_oxcheck_clean() {
    let findings = oxcheck::analyze_workspace(root()).expect("workspace sources must be readable");
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
