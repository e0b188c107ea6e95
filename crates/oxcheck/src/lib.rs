//! # oxcheck — the workspace lint the compiler cannot hold
//!
//! **L11 `unreferenced_pub`**: a `pub fn` in a crate's sources that nothing
//! in the workspace names outside its own file's tests is surface every
//! refactor has to carry for nobody. rustc's `dead_code` cannot see it — a
//! `pub` item is reachable by definition — so this crate checks it over the
//! whole workspace, `benchmark/` included.
//!
//! The other house rules are the compiler's. The root `clippy.toml` bans raw
//! `std::sync` locks, hash containers and the host clock; the storage crates'
//! roots deny the panic family outside tests; `tests/oxcheck_gate.rs` runs
//! clippy and checks that both lockfiles name no external source. L1–L10 and
//! L12 are retired codes. See `docs/static-analysis.md`.
//!
//! The lint is a rule over one lexed token stream per file; there is no
//! symbol layer. The gate is zero findings: a justified exception is a
//! `// oxcheck:allow(unreferenced_pub): <who calls it>` pragma at its line.

mod lexer;
mod lints;
mod parser;

use parser::FileModel;
use std::fmt;
use std::path::Path;

/// Directory names skipped during the walk, besides every dot-directory.
const SKIP_DIRS: [&str; 3] = ["target", "results", "fixtures"];

/// One `pub fn` nothing in the workspace names.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Path relative to the workspace root, forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    // Renders one `path:line: [L11 unreferenced_pub] message` row.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [L11 unreferenced_pub] {}",
            self.path, self.line, self.message
        )
    }
}

/// Walks the workspace at `root` and runs L11: findings sorted by path and
/// line.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    collect_files(root, root, &mut files)?;
    files.sort();
    let mut sources = Vec::new();
    for rel in files {
        let src = std::fs::read_to_string(root.join(&rel))?;
        sources.push((rel, src));
    }
    Ok(analyze_sources(&sources))
}

/// Runs L11 over an in-memory set of `(relative path, source)` pairs. This
/// is the whole pipeline — the golden-fixture tests feed it synthetic
/// workspaces without touching the filesystem.
pub fn analyze_sources(sources: &[(String, String)]) -> Vec<Finding> {
    let models: Vec<FileModel> = sources
        .iter()
        .map(|(rel, src)| FileModel::parse(rel, src))
        .collect();
    let mut findings = lints::lint_unreferenced_pub(&models);
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    findings
}

fn collect_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            collect_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}
