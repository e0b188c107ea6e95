//! # oxcheck — in-repo static analysis for the OX workbench
//!
//! The workbench's correctness story rests on three host-side invariants the
//! compiler cannot check for us (and, since the workspace is
//! dependency-free, clippy cannot be extended to check either):
//!
//! * **L1 `std_sync_lock`** — all locking goes through `ox_sim::sync`, which
//!   layers lockdep-style order verification on top of `std::sync`. A raw
//!   `std::sync::Mutex`/`RwLock` anywhere else is invisible to the deadlock
//!   detector.
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
//! * **L8 `post_construction_wiring`** — a layer learns its observability
//!   sinks and media routes from the media it is constructed on; a public
//!   `set_obs` / `set_*_media` / `*_with_obs` hook in a crate's sources
//!   brings back stacks that are built half-wired and mutated afterwards.
//! * **L9 `private_replay`** — which transactions a crash left committed,
//!   and how the old log is retired, is decided once, in
//!   `ox_core::recovery`; a `wal::scan` or `read_latest` call anywhere else
//!   in a crate's sources is a private replay loop growing back.
//! * **L10 `private_placement`** — where a write unit lands, which device
//!   errors retire its chunk and what happens then is decided once, in
//!   `ox_core::logspace`; an `allocate_horizontal` / `allocate_in_group`
//!   call or an `InvalidChunkState { .. }` pattern anywhere else is a
//!   private copy of the data-log write path growing back.
//! * **L11 `unreferenced_pub`** — a `pub fn` in a crate's sources that
//!   nothing in the workspace names outside its own file's tests is surface
//!   every refactor has to carry for nobody.
//!
//! See `docs/static-analysis.md` for the full catalog and pragma syntax.

pub mod deps;
pub mod det;
pub mod lexer;
pub mod lints;
pub mod lockgraph;
pub mod parser;
pub mod report;
pub mod spans;

use std::fmt;
use std::path::Path;

pub use deps::check_cargo_toml;
pub use lints::check_rust_source;

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
    /// L5: iteration over `HashMap`/`HashSet` on storage paths.
    UnorderedIter,
    /// L6: lock acquisitions that form an ABBA cycle in the static lock
    /// graph, or that the analyzer cannot resolve to a construction site.
    LockOrder,
    /// L7: trace spans opened without an RAII guard or a provable `end` on
    /// every path.
    SpanDiscipline,
    /// L8: public hooks that wire a layer after it was constructed.
    PostConstructionWiring,
    /// L9: log scans and checkpoint loads outside `ox_core::recovery`.
    PrivateReplay,
    /// L10: slot allocation and chunk-retiring error patterns outside
    /// `ox_core::logspace`.
    PrivatePlacement,
    /// L11: public functions nothing in the workspace refers to.
    UnreferencedPub,
}

impl Lint {
    /// Name accepted by `// oxcheck:allow(<name>)` pragmas.
    pub fn name(self) -> &'static str {
        match self {
            Lint::StdSyncLock => "std_sync_lock",
            Lint::WallClock => "wall_clock",
            Lint::PanicPath => "panic_path",
            Lint::ExternalDep => "external_dep",
            Lint::UnorderedIter => "unordered_iter",
            Lint::LockOrder => "lock_order",
            Lint::SpanDiscipline => "span_discipline",
            Lint::PostConstructionWiring => "post_construction_wiring",
            Lint::PrivateReplay => "private_replay",
            Lint::PrivatePlacement => "private_placement",
            Lint::UnreferencedPub => "unreferenced_pub",
        }
    }

    /// Catalog code (L1–L11).
    pub fn code(self) -> &'static str {
        match self {
            Lint::StdSyncLock => "L1",
            Lint::WallClock => "L2",
            Lint::PanicPath => "L3",
            Lint::ExternalDep => "L4",
            Lint::UnorderedIter => "L5",
            Lint::LockOrder => "L6",
            Lint::SpanDiscipline => "L7",
            Lint::PostConstructionWiring => "L8",
            Lint::PrivateReplay => "L9",
            Lint::PrivatePlacement => "L10",
            Lint::UnreferencedPub => "L11",
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
    /// Files where raw `std::sync` locks are allowed (the wrapper itself and
    /// the lockdep machinery it is built on).
    pub l1_allow: Vec<String>,
    /// Files where wall-clock reads are allowed (the virtual-clock module
    /// and the self-calibrating microbenchmarks — not the figure harness).
    pub l2_allow: Vec<String>,
    /// Path prefixes whose non-test code is held to L3.
    pub l3_scope: Vec<String>,
    /// Exceptions within the L3 scope (in-crate bench harnesses).
    pub l3_exclude: Vec<String>,
    /// Path prefixes whose non-test code is held to L5/L7 (the storage
    /// crates plus the simulation substrate, whose hash iteration would
    /// leak into every consumer).
    pub l5_scope: Vec<String>,
    /// Directory names skipped entirely during the walk.
    pub skip_dirs: Vec<String>,
}

impl Default for Config {
    /// The OX workbench policy.
    fn default() -> Config {
        let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect();
        Config {
            l1_allow: s(&["crates/sim/src/sync.rs", "crates/sim/src/lockdep.rs"]),
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
            l5_scope: s(&[
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

    pub(crate) fn l5_in_scope(&self, rel_path: &str) -> bool {
        self.l5_scope
            .iter()
            .any(|p| rel_path.starts_with(p.as_str()))
    }
}

/// Result of a full workspace analysis: the findings plus the static lock
/// graph (exported so the CI gate can diff it against the runtime lockdep
/// edge set).
#[derive(Clone, Debug)]
pub struct Analysis {
    /// All findings, sorted by path, line, lint.
    pub findings: Vec<Finding>,
    /// The L6 static lock-acquisition graph.
    pub lock_graph: lockgraph::LockGraph,
}

/// Walks the workspace at `root` and runs every lint: findings (sorted by
/// path, then line) plus the static lock graph.
pub fn analyze_workspace_full(root: &Path, cfg: &Config) -> std::io::Result<Analysis> {
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
pub fn analyze_sources(sources: &[(String, String)], cfg: &Config) -> Analysis {
    let mut findings = Vec::new();
    let mut models = Vec::new();
    let mut allows = Vec::new();
    for (rel, src) in sources {
        if rel.ends_with(".rs") {
            findings.extend(check_rust_source(rel, src, cfg));
            models.push(parser::parse_source(rel, src));
            allows.push(lints::pragma_allows(&lexer::lex(src)));
        } else {
            findings.extend(check_cargo_toml(rel, src));
        }
    }

    // Symbol-aware passes: L5/L7 are per-file, L6 is workspace-wide.
    let mut late = Vec::new();
    for model in &models {
        if cfg.l5_in_scope(&model.path) {
            det::lint_unordered_iter(model, &mut late);
        }
        if cfg.l3_in_scope(&model.path) {
            spans::lint_span_discipline(model, &mut late);
        }
    }
    let model_refs: Vec<&parser::FileModel> = models.iter().collect();
    let (lock_graph, l6) = lockgraph::build(&model_refs, cfg);
    late.extend(l6);
    lints::lint_unreferenced_pub(&model_refs, &mut late);

    // Pragmas suppress the symbol-aware passes too.
    late.retain(|f| {
        models
            .iter()
            .position(|m| m.path == f.path)
            .is_none_or(|i| !lints::allowed_by_pragma(&allows[i], f))
    });
    findings.extend(late);
    findings.sort_by(|a, b| (&a.path, a.line, a.lint).cmp(&(&b.path, b.line, b.lint)));
    Analysis {
        findings,
        lock_graph,
    }
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
