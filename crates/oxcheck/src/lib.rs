//! # oxcheck — in-repo static analysis for the OX workbench
//!
//! The workbench's correctness story rests on host-side invariants the
//! compiler cannot check for us (and, since the workspace is
//! dependency-free, clippy cannot be extended to check either):
//!
//! * **L1 `std_sync_lock`** — all locking goes through `ox_sim::sync`. The
//!   workbench runs on one host thread, where a lock its holder takes again
//!   can never be released: the `RefCell`-backed wrapper panics at that call,
//!   a raw `std::sync::Mutex`/`RwLock` hangs.
//! * **L2 `wall_clock`** — simulations are exact functions of
//!   `(configuration, seed)`; `Instant::now`/`SystemTime` outside
//!   `ox_sim::time` and the wall-clock microbenchmarks
//!   (`crates/bench/benches/`) silently destroys that — the figure harness
//!   under `crates/bench/src/` is simulation code like any other.
//! * **L3 `panic_path`** — media/durability paths (device, WAL, GC, KV)
//!   must propagate errors, not `.unwrap()`. Genuinely unreachable cases are
//!   annotated `// oxcheck:allow(panic_path): <why>`.
//! * **L4 `external_dep`** — every `Cargo.toml` dependency must resolve
//!   in-repo; the build container has no crates registry.
//! * **L11 `unreferenced_pub`** — a `pub fn` in a crate's sources that
//!   nothing in the workspace names outside its own file's tests is surface
//!   every refactor has to carry for nobody.
//! * **L12 `hash_container`** — no `HashMap`/`HashSet` in storage code or
//!   the figure harness, so no per-process hash order can reach an output.
//!
//! Every lint is a rule over one lexed token stream; there is no symbol
//! layer. L5–L10 are retired codes, each replaced by a fact the compiler or
//! a token rule checks: ordered containers, kept by L12 (L5), one host
//! thread (L6), private `Tracer::begin`/`end` (L7) and `pub(crate)` in
//! `ox_core` (L8–L10). See
//! `docs/static-analysis.md` for the full catalog and pragma syntax.
//!
//! The gate is zero findings. A justified exception is a pragma at its line.

pub mod deps;
pub mod lexer;
mod lints;
mod parser;

use parser::FileModel;
use std::fmt;
use std::path::Path;

pub use deps::check_cargo_toml;

/// The project lints, in catalog order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// L1: raw `std::sync` locks outside `ox_sim::sync`.
    StdSyncLock,
    /// L2: wall-clock reads outside `ox_sim::time` and the bench harness.
    WallClock,
    /// L3: panic-family calls on device/WAL/GC paths.
    PanicPath,
    /// L4: dependencies that do not resolve in-repo.
    ExternalDep,
    /// L11: public functions nothing in the workspace refers to.
    UnreferencedPub,
    /// L12: hash containers on storage paths and in the figure harness.
    HashContainer,
}

impl Lint {
    /// Name accepted by `// oxcheck:allow(<name>)` pragmas.
    pub fn name(self) -> &'static str {
        match self {
            Lint::StdSyncLock => "std_sync_lock",
            Lint::WallClock => "wall_clock",
            Lint::PanicPath => "panic_path",
            Lint::ExternalDep => "external_dep",
            Lint::UnreferencedPub => "unreferenced_pub",
            Lint::HashContainer => "hash_container",
        }
    }

    /// Catalog code (L1–L4, L11, L12).
    pub fn code(self) -> &'static str {
        match self {
            Lint::StdSyncLock => "L1",
            Lint::WallClock => "L2",
            Lint::PanicPath => "L3",
            Lint::ExternalDep => "L4",
            Lint::UnreferencedPub => "L11",
            Lint::HashContainer => "L12",
        }
    }
}

/// One lint violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Path relative to the workspace root, forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// Which lint fired.
    pub lint: Lint,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    pub(crate) fn new(path: &str, line: u32, lint: Lint, message: impl Into<String>) -> Finding {
        Finding {
            path: path.to_string(),
            line,
            lint,
            message: message.into(),
        }
    }
}

impl fmt::Display for Finding {
    // Renders one `path:line: [Lx lint_name] message` row.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{} {}] {}",
            self.path,
            self.line,
            self.lint.code(),
            self.lint.name(),
            self.message
        )
    }
}

/// Scope configuration: which paths each lint applies to. Paths are
/// workspace-root-relative with forward slashes; prefix matching.
#[derive(Clone, Debug)]
pub struct Config {
    /// Files where raw `std::sync` locks are allowed (the wrapper itself).
    pub l1_allow: Vec<String>,
    /// Files where wall-clock reads are allowed (the virtual-clock module
    /// and the self-calibrating microbenchmarks — not the figure harness).
    pub l2_allow: Vec<String>,
    /// Path prefixes whose non-test code is held to L3.
    pub l3_scope: Vec<String>,
    /// Exceptions within the L3 scope (in-crate bench harnesses).
    pub l3_exclude: Vec<String>,
    /// Path prefixes whose non-test code is held to L12: the storage
    /// crates, the simulation substrate every one of them runs on, and the
    /// figure harness whose tables are committed byte for byte.
    pub l12_scope: Vec<String>,
    /// Directory names skipped entirely during the walk.
    pub skip_dirs: Vec<String>,
}

impl Default for Config {
    /// The OX workbench policy.
    fn default() -> Config {
        let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect();
        Config {
            l1_allow: s(&["crates/sim/src/sync.rs"]),
            l2_allow: s(&["crates/sim/src/time.rs", "crates/bench/benches/"]),
            l3_scope: s(&[
                "crates/ocssd/src/",
                "crates/core/src/",
                "crates/lsmkv/src/",
                "crates/oxblock/src/",
                "crates/oxeleos/src/",
                "crates/lightlsm/src/",
                "crates/oxzns/src/",
                "crates/oxztl/src/",
                "crates/kvssd/src/",
                "crates/iosched/src/",
                "crates/oxshard/src/",
            ]),
            l3_exclude: s(&["crates/lsmkv/src/bench.rs"]),
            l12_scope: s(&[
                "crates/ocssd/src/",
                "crates/core/src/",
                "crates/lsmkv/src/",
                "crates/oxblock/src/",
                "crates/oxeleos/src/",
                "crates/lightlsm/src/",
                "crates/oxzns/src/",
                "crates/oxztl/src/",
                "crates/kvssd/src/",
                "crates/iosched/src/",
                "crates/oxshard/src/",
                "crates/sim/src/",
                "crates/bench/src/",
            ]),
            skip_dirs: s(&[
                "target", ".git", ".github", ".claude", "results", "fixtures",
            ]),
        }
    }
}

impl Config {
    pub(crate) fn allowed(&self, allow: &[String], rel_path: &str) -> bool {
        allow.iter().any(|p| rel_path.starts_with(p.as_str()))
    }

    pub(crate) fn l3_in_scope(&self, rel_path: &str) -> bool {
        self.l3_scope
            .iter()
            .any(|p| rel_path.starts_with(p.as_str()))
            && !self
                .l3_exclude
                .iter()
                .any(|p| rel_path.starts_with(p.as_str()))
    }

    pub(crate) fn l12_in_scope(&self, rel_path: &str) -> bool {
        self.l12_scope
            .iter()
            .any(|p| rel_path.starts_with(p.as_str()))
    }
}

/// Walks the workspace at `root` and runs every lint: findings sorted by
/// path, line and lint.
pub fn analyze_workspace(root: &Path, cfg: &Config) -> std::io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    collect_files(root, root, cfg, &mut files)?;
    files.sort();
    let mut sources = Vec::new();
    for rel in files {
        let src = std::fs::read_to_string(root.join(&rel))?;
        sources.push((rel, src));
    }
    Ok(analyze_sources(&sources, cfg))
}

/// Runs every lint over an in-memory set of `(relative path, source)`
/// pairs. This is the whole pipeline — the golden-fixture tests feed it
/// synthetic workspaces without touching the filesystem.
pub fn analyze_sources(sources: &[(String, String)], cfg: &Config) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut models = Vec::new();
    for (rel, src) in sources {
        if rel.ends_with(".rs") {
            models.push(FileModel::parse(rel, src));
        } else {
            findings.extend(check_cargo_toml(rel, src));
        }
    }
    for m in &models {
        findings.extend(lints::lint_file(m, cfg));
    }
    lints::lint_unreferenced_pub(&models, &mut findings);
    findings.sort_by(|a, b| (&a.path, a.line, a.lint).cmp(&(&b.path, b.line, b.lint)));
    findings
}

fn collect_files(
    root: &Path,
    dir: &Path,
    cfg: &Config,
    out: &mut Vec<String>,
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if cfg.skip_dirs.contains(&name) || name.starts_with('.') {
                continue;
            }
            collect_files(root, &path, cfg, out)?;
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
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
