//! `results/` stays a build product of exactly the figure binaries:
//! `scripts/regen-results.sh` runs every binary under
//! `crates/bench/src/bin/`, and every committed table is the output of one
//! of them. A new figure binary the script forgets, or a table no binary
//! writes any more, fails here rather than going stale unnoticed.

use std::collections::BTreeSet;
use std::path::Path;

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// File stems in `dir` with extension `ext`.
fn stems(dir: &str, ext: &str) -> BTreeSet<String> {
    std::fs::read_dir(repo().join(dir))
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
        .map(|entry| entry.expect("directory entry").file_name())
        .filter_map(|name| {
            name.to_str()
                .and_then(|n| n.strip_suffix(ext))
                .map(str::to_string)
        })
        .collect()
}

fn binaries() -> BTreeSet<String> {
    stems("crates/bench/src/bin", ".rs")
}

/// The words of the script's `for bin in … ; do` list.
fn regenerated() -> BTreeSet<String> {
    let script = std::fs::read_to_string(repo().join("scripts/regen-results.sh"))
        .expect("scripts/regen-results.sh");
    let (_, rest) = script
        .split_once("for bin in ")
        .expect("regen-results.sh has a `for bin in` loop");
    let (list, _) = rest
        .split_once("; do")
        .expect("the loop list ends in `; do`");
    list.split_whitespace()
        .filter(|w| *w != "\\")
        .map(str::to_string)
        .collect()
}

#[test]
fn regen_results_runs_every_figure_binary() {
    assert_eq!(regenerated(), binaries());
}

#[test]
fn every_committed_table_names_a_binary() {
    let bins = binaries();
    // `--quick` tables are git-ignored scratch output, not committed ones.
    let stale: Vec<String> = stems("results", ".txt")
        .into_iter()
        .filter(|stem| !stem.ends_with(".quick") && !bins.contains(stem))
        .collect();
    assert!(stale.is_empty(), "tables no binary writes: {stale:?}");
}
