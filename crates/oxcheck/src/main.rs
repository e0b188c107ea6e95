//! CLI entry point: `cargo run -p oxcheck [-- ROOT]`.
//!
//! Walks the workspace (default: the workspace root when invoked through
//! cargo), prints every finding as `path:line: [Lx lint] message`, and
//! exits non-zero if any lint fired — the CI gate is zero findings.

use std::path::PathBuf;
use std::process::ExitCode;

fn default_root() -> PathBuf {
    // Under `cargo run -p oxcheck` the cwd is wherever the user is; the
    // workspace root is two levels above this crate's manifest.
    let manifest: PathBuf = env!("CARGO_MANIFEST_DIR").into();
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let root = match (args.next(), args.next()) {
        (None, _) => default_root(),
        (Some(dir), None) if !dir.starts_with('-') => PathBuf::from(dir),
        _ => {
            eprintln!("usage: oxcheck [ROOT]");
            return ExitCode::from(2);
        }
    };
    let findings = match oxcheck::analyze_workspace(&root, &oxcheck::Config::default()) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("oxcheck: failed to walk {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        println!("oxcheck: clean ({} ok)", root.display());
        ExitCode::SUCCESS
    } else {
        println!(
            "oxcheck: {} finding(s); fix them or annotate with \
             `// oxcheck:allow(<lint>): <why>` (docs/static-analysis.md)",
            findings.len()
        );
        ExitCode::FAILURE
    }
}
