//! Tier-1 gate: every settable config value states why it exists.
//!
//! A settable config value is a `pub` field of a `pub struct *Config` in the
//! non-test code under `crates/*/src`. DESIGN.md §4 tables each one with the
//! two non-test callers that need different values, or the reason it stays.
//! This test checks that the table and the code name the same fields, so a
//! new knob without a stated reason fails here instead of waiting for the
//! next hand count.

use std::collections::BTreeSet;
use std::path::Path;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Adds the config fields of every `.rs` file under `dir` that is not test
/// code by its path (a `tests` directory or an out-of-line `tests.rs`
/// module).
fn scan(dir: &Path, out: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).expect("source tree must be readable") {
        let path = entry.expect("directory entry").path();
        if path.ends_with("tests") || path.ends_with("tests.rs") {
            continue;
        }
        if path.is_dir() {
            scan(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let src = std::fs::read_to_string(&path).expect("source must be readable");
            config_fields(&src, out);
        }
    }
}

/// Skips the item a `#[cfg(test)]` line guards: through its matching close
/// brace, or through its `;` if it has no body.
fn skip_item<'a>(lines: &mut impl Iterator<Item = &'a str>) {
    let mut depth = 0;
    for line in lines {
        depth += line.matches('{').count() as i64 - line.matches('}').count() as i64;
        if depth <= 0 && (line.contains('}') || line.trim_end().ends_with(';')) {
            return;
        }
    }
}

/// Adds `Type::field` for every `pub` field of every `pub struct *Config`
/// in the non-test code of `src`.
fn config_fields(src: &str, out: &mut BTreeSet<String>) {
    let mut lines = src.lines();
    while let Some(line) = lines.next() {
        let line = line.trim();
        if line == "#[cfg(test)]" {
            skip_item(&mut lines);
            continue;
        }
        let Some(ty) = line
            .strip_prefix("pub struct ")
            .and_then(|rest| rest.strip_suffix(" {"))
            .filter(|ty| ty.ends_with("Config"))
        else {
            continue;
        };
        for field in lines.by_ref().map(str::trim).take_while(|l| *l != "}") {
            if let Some((name, _)) = field.strip_prefix("pub ").and_then(|f| f.split_once(':')) {
                out.insert(format!("{ty}::{name}"));
            }
        }
    }
}

/// `Type::field` for every field the first column of DESIGN.md §4's field
/// table names, as `` `Type::field` `` or `` `Type::{a, b}` ``.
fn tabled_fields(design: &str) -> BTreeSet<String> {
    let table = design
        .lines()
        .skip_while(|l| *l != "| Field | Why it stays |")
        .skip(2)
        .take_while(|l| l.starts_with('|'));
    let mut out = BTreeSet::new();
    for row in table {
        let first = row.split('|').nth(1).unwrap_or_default();
        for name in first.split('`').skip(1).step_by(2) {
            let (ty, fields) = name
                .split_once("::")
                .unwrap_or_else(|| panic!("`{name}` in DESIGN.md §4 is not Type::field"));
            for field in fields.trim_matches(['{', '}']).split(',') {
                out.insert(format!("{ty}::{}", field.trim()));
            }
        }
    }
    out
}

#[test]
fn design_tables_every_config_field() {
    let mut code = BTreeSet::new();
    for krate in std::fs::read_dir(root().join("crates")).expect("crates/ must be readable") {
        let src = krate.expect("directory entry").path().join("src");
        if src.is_dir() {
            scan(&src, &mut code);
        }
    }
    let design = std::fs::read_to_string(root().join("DESIGN.md")).expect("DESIGN.md");
    let table = tabled_fields(&design);
    let untabled: Vec<_> = code.difference(&table).collect();
    let stale: Vec<_> = table.difference(&code).collect();
    assert!(
        untabled.is_empty() && stale.is_empty(),
        "DESIGN.md §4's field table and the code disagree.\n\
         In the code, not the table (say why each stays): {untabled:?}\n\
         In the table, not the code: {stale:?}"
    );
    println!(
        "{} settable config values, each tabled in DESIGN.md §4",
        code.len()
    );
}
