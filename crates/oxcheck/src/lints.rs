//! The rules: token-level passes L1–L3 and L12 over one file, and L11 over
//! the whole workspace.
//!
//! Every pass reads a [`FileModel`]'s comment-free token stream. Test code
//! — `#[cfg(test)]` items and `mod tests { .. }` blocks — is exempt from L3
//! (tests may unwrap freely) and L12 (tests may keep hash-ordered models),
//! but *not* from L1/L2: a test that grabs a raw `std::sync::Mutex` or reads
//! the wall clock undermines determinism just as much as library code.

use crate::lexer::{Token, TokenKind};
use crate::parser::{match_bracket, FileModel};
use crate::{Config, Finding, Lint};
use std::collections::HashMap;

/// Runs L1–L3 and L12 over one file, keeping what its pragmas do not allow.
pub(crate) fn lint_file(m: &FileModel, cfg: &Config) -> Vec<Finding> {
    let (path, code) = (m.path.as_str(), m.tokens.as_slice());
    let mut findings = Vec::new();
    if !cfg.allowed(&cfg.l1_allow, path) {
        lint_std_sync_lock(path, code, &mut findings);
    }
    if !cfg.allowed(&cfg.l2_allow, path) {
        lint_wall_clock(path, code, &mut findings);
    }
    if cfg.l3_in_scope(path) {
        lint_panic_path(m, &mut findings);
    }
    if cfg.l12_in_scope(path) {
        lint_hash_container(m, &mut findings);
    }
    findings.retain(|f| !m.allows(f));
    findings
}

/// Matches `a :: b` style path separators: token `i` is `:` and `i+1` is `:`.
fn is_path_sep(code: &[Token], i: usize) -> bool {
    code.get(i).is_some_and(|t| t.text == ":") && code.get(i + 1).is_some_and(|t| t.text == ":")
}

fn ident_at(code: &[Token], i: usize, name: &str) -> bool {
    code.get(i)
        .is_some_and(|t| t.kind == TokenKind::Ident && t.text == name)
}

/// L1: `std::sync::Mutex` / `std::sync::RwLock` anywhere outside the
/// `ox_sim::sync` wrappers. Handles direct paths, `use std::sync::{..}`
/// groups and one level of `use std::{sync::{..}, ..}` nesting.
fn lint_std_sync_lock(rel_path: &str, code: &[Token], out: &mut Vec<Finding>) {
    scan_std_paths(
        rel_path,
        code,
        "sync",
        &["Mutex", "RwLock"],
        Lint::StdSyncLock,
        out,
    );
}

/// L2: wall-clock access. Flags `Instant::now`, any `SystemTime`, and
/// `std::time::Instant` imports outside `ox_sim::time` and the bench harness.
fn lint_wall_clock(rel_path: &str, code: &[Token], out: &mut Vec<Finding>) {
    scan_std_paths(
        rel_path,
        code,
        "time",
        &["Instant", "SystemTime"],
        Lint::WallClock,
        out,
    );
    for i in 0..code.len() {
        if ident_at(code, i, "Instant") && is_path_sep(code, i + 1) && ident_at(code, i + 3, "now")
        {
            out.push(Finding::new(
                rel_path,
                code[i].line,
                Lint::WallClock,
                "`Instant::now` reads the wall clock; simulations must use \
                 `ox_sim::SimTime` virtual time",
            ));
        }
        if ident_at(code, i, "SystemTime") && !is_path_sep(code, i + 1) {
            // Bare use of the type (imports are caught by the path scan; a
            // `SystemTime::now()` call site is caught here).
            if is_path_sep(code, i.wrapping_sub(2)) {
                continue; // tail of a path already reported by scan_std_paths
            }
            out.push(Finding::new(
                rel_path,
                code[i].line,
                Lint::WallClock,
                "`SystemTime` is wall-clock time; simulations must use \
                 `ox_sim::SimTime` virtual time",
            ));
        }
    }
}

/// Shared matcher for `std::<module>::<Banned>` including brace groups:
/// `use std::sync::{Arc, Mutex}` and `use std::{sync::Mutex, io}`.
fn scan_std_paths(
    rel_path: &str,
    code: &[Token],
    module: &str,
    banned: &[&str],
    lint: Lint,
    out: &mut Vec<Finding>,
) {
    let report = |out: &mut Vec<Finding>, t: &Token| {
        out.push(Finding::new(
            rel_path,
            t.line,
            lint,
            format!(
                "`std::{module}::{}` is banned outside its wrapper; use the \
                 `ox_sim` equivalent",
                t.text
            ),
        ));
    };
    let scan_module_suffix = |out: &mut Vec<Finding>, code: &[Token], i: usize| {
        // At token after `<module> ::` — either a banned ident or a group.
        if let Some(t) = code.get(i) {
            if t.kind == TokenKind::Ident && banned.contains(&t.text.as_str()) {
                report(out, t);
            } else if t.text == "{" {
                let end = match_bracket(code, i, "{", "}");
                for t in &code[i..end] {
                    if t.kind == TokenKind::Ident && banned.contains(&t.text.as_str()) {
                        report(out, t);
                    }
                }
            }
        }
    };
    for i in 0..code.len() {
        if !ident_at(code, i, "std") || !is_path_sep(code, i + 1) {
            continue;
        }
        if ident_at(code, i + 3, module) && is_path_sep(code, i + 4) {
            scan_module_suffix(out, code, i + 6);
        } else if code.get(i + 3).is_some_and(|t| t.text == "{") {
            // `use std::{ ... }` — find `<module> ::` inside the group.
            let end = match_bracket(code, i + 3, "{", "}");
            let mut j = i + 4;
            while j < end {
                if ident_at(code, j, module) && is_path_sep(code, j + 1) {
                    scan_module_suffix(out, code, j + 3);
                }
                j += 1;
            }
        }
    }
}

/// L3: `.unwrap()`, `.expect(..)`, `panic!`, `todo!`, `unimplemented!` in
/// non-test code on the configured media/durability paths.
fn lint_panic_path(m: &FileModel, out: &mut Vec<Finding>) {
    let code = &m.tokens;
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokenKind::Ident || m.in_test(t.line) {
            continue;
        }
        let msg = match t.text.as_str() {
            "unwrap" | "expect"
                if code.get(i.wrapping_sub(1)).is_some_and(|p| p.text == ".")
                    && code.get(i + 1).is_some_and(|n| n.text == "(") =>
            {
                format!(
                    "`.{}()` on a device/WAL/GC path; propagate the error or \
                     pragma-justify why it is unreachable",
                    t.text
                )
            }
            "panic" | "todo" | "unimplemented"
                if code.get(i + 1).is_some_and(|n| n.text == "!") =>
            {
                format!(
                    "`{}!` on a device/WAL/GC path; propagate the error or \
                     pragma-justify why it is unreachable",
                    t.text
                )
            }
            _ => continue,
        };
        out.push(Finding::new(&m.path, t.line, Lint::PanicPath, msg));
    }
}

/// L12: the identifiers `HashMap` / `HashSet` in non-test code on the
/// storage paths and in the figure harness. A container that is not there
/// cannot be iterated, so no per-process hash order reaches a device
/// command, a figure row or an obs dump, whatever the toolchain's hasher.
fn lint_hash_container(m: &FileModel, out: &mut Vec<Finding>) {
    for t in &m.tokens {
        if t.kind == TokenKind::Ident
            && matches!(t.text.as_str(), "HashMap" | "HashSet")
            && !m.in_test(t.line)
        {
            out.push(Finding::new(
                &m.path,
                t.line,
                Lint::HashContainer,
                format!(
                    "`{}` in storage or figure code; use `BTree{}`, whose order \
                     is the same in every run",
                    t.text,
                    &t.text[4..]
                ),
            ));
        }
    }
}

/// L11: a `pub fn` in non-test code under `crates/*/src/` whose name no
/// token in the workspace repeats, apart from `fn` definitions in its own
/// file and that file's test code. Matching is by name, so a same-named
/// function elsewhere hides a dead one — the lint only ever under-reports.
pub(crate) fn lint_unreferenced_pub(models: &[FileModel], out: &mut Vec<Finding>) {
    let is_ident = |t: &&Token| t.kind == TokenKind::Ident;
    let mut uses: HashMap<&str, usize> = HashMap::new();
    for t in models.iter().flat_map(|m| &m.tokens).filter(is_ident) {
        *uses.entry(t.text.as_str()).or_default() += 1;
    }
    for m in models {
        if !m.path.starts_with("crates/") || !m.path.contains("/src/") || m.in_test(0) {
            continue;
        }
        // Occurrences that are not references: definitions and own tests.
        let mut own: HashMap<&str, usize> = HashMap::new();
        let mut public = Vec::new();
        for (i, t) in m.tokens.iter().enumerate().filter(|(_, t)| is_ident(t)) {
            let before = |k: usize| i.checked_sub(k).map(|j| m.tokens[j].text.as_str());
            let defines = before(1) == Some("fn");
            if defines || m.in_test(t.line) {
                *own.entry(t.text.as_str()).or_default() += 1;
            }
            let is_pub = before(2) == Some("pub")
                || (before(2) == Some("const") && before(3) == Some("pub"));
            if defines && is_pub && !m.in_test(t.line) && !m.in_macro(t.line) {
                public.push(t);
            }
        }
        for t in public {
            if uses[t.text.as_str()] != own[t.text.as_str()] {
                continue;
            }
            let finding = Finding::new(
                &m.path,
                t.line,
                Lint::UnreferencedPub,
                format!(
                    "`pub fn {}` is referenced nowhere in the workspace outside \
                     its own file's tests; delete it, or pragma-justify who \
                     outside the workspace calls it",
                    t.text
                ),
            );
            if !m.allows(&finding) {
                out.push(finding);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Config {
        let mut c = Config::default();
        // Put the synthetic file paths used below in L3 scope.
        c.l3_scope.push("virt/".to_string());
        c
    }

    fn run_at(path: &str, src: &str) -> Vec<Finding> {
        lint_file(&FileModel::parse(path, src), &cfg())
    }

    fn run(src: &str) -> Vec<Finding> {
        run_at("virt/lib.rs", src)
    }

    #[test]
    fn l1_detects_direct_and_grouped_imports() {
        let f = run("use std::sync::Mutex;\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, Lint::StdSyncLock);

        let f = run("use std::sync::{Arc, RwLock};\n");
        assert_eq!(f.len(), 1, "{f:?}");

        let f = run("use std::{io, sync::{Arc, Mutex}};\n");
        assert_eq!(f.len(), 1, "{f:?}");

        let f = run("let m = std::sync::Mutex::new(0);\n");
        assert_eq!(f.len(), 1);

        // Arc alone is fine; so is the ox_sim wrapper.
        assert!(run("use std::sync::Arc;\nuse ox_sim::sync::Mutex;\n").is_empty());
    }

    #[test]
    fn l1_ignores_strings_and_comments() {
        assert!(run("// std::sync::Mutex\nlet s = \"std::sync::Mutex\";\n").is_empty());
        assert!(run("/* std::sync::RwLock */\nlet r = r\"std::sync::RwLock\";\n").is_empty());
    }

    #[test]
    fn l2_detects_wall_clock() {
        let f = run("let t = Instant::now();\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, Lint::WallClock);
        let f = run("use std::time::Instant;\n");
        assert_eq!(f.len(), 1);
        let f = run("let t = std::time::SystemTime::now();\n");
        assert!(!f.is_empty());
        assert!(run("let t = ox_sim::SimTime::ZERO;\n").is_empty());
    }

    #[test]
    fn l3_flags_only_scoped_non_test_code() {
        let f = run("fn f() { x.unwrap(); }\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, Lint::PanicPath);

        // unwrap_or_else is not unwrap.
        assert!(run("fn f() { x.unwrap_or_else(|| 1); }\n").is_empty());

        // Out-of-scope path: no findings.
        assert!(run_at("other/lib.rs", "fn f() { x.unwrap(); }").is_empty());

        // Test module exempt.
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n  fn g() { x.unwrap(); panic!(); }\n}\n";
        assert!(run(src).is_empty());

        // mod tests without cfg attribute is still exempt.
        let src = "mod tests {\n  fn g() { y.expect(\"msg\"); }\n}\n";
        assert!(run(src).is_empty());

        // cfg(not(test)) is NOT exempt.
        let src = "#[cfg(not(test))]\nmod imp {\n  fn g() { y.unwrap(); }\n}\n";
        assert_eq!(run(src).len(), 1);
    }

    #[test]
    fn cfg_attr_test_scoping() {
        // `cfg_attr(pred, test)` applies `#[test]` conditionally: exempt.
        let src = "#[cfg_attr(feature_x, test)]\nfn g() { x.unwrap(); }\n";
        assert!(
            run(src).is_empty(),
            "cfg_attr(..., test) must scope as test"
        );
        // `cfg_attr(test, other)` compiles unconditionally: not exempt.
        let src = "#[cfg_attr(test, allow(dead_code))]\nfn g() { x.unwrap(); }\n";
        assert_eq!(run(src).len(), 1, "test-as-predicate is not test scope");
        // Raw identifier `r#test` in an unrelated attribute is not `test`.
        let src = "#[cfg(r#test)]\nfn g() { x.unwrap(); }\n";
        assert_eq!(run(src).len(), 1);
    }

    #[test]
    fn l3_exempts_whole_test_files() {
        let f = run_at("virt/tests/gate.rs", "fn f() { x.unwrap(); }");
        assert!(f.is_empty());
    }

    #[test]
    fn pragmas_suppress_same_and_next_line() {
        let src = "fn f() {\n  // oxcheck:allow(panic_path): unreachable by invariant\n  x.unwrap();\n}\n";
        assert!(run(src).is_empty());
        let src = "fn f() { x.unwrap(); // oxcheck:allow(panic_path): invariant\n}\n";
        assert!(run(src).is_empty());
        // Wrong lint name does not suppress.
        let src = "fn f() {\n  // oxcheck:allow(wall_clock)\n  x.unwrap();\n}\n";
        assert_eq!(run(src).len(), 1);
    }

    #[test]
    fn cfg_test_scope_tracks_nested_braces() {
        let src = "#[cfg(test)]\nmod tests {\n  fn g() { if x { y.unwrap(); } }\n}\nfn h() { z.unwrap(); }\n";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 5);
    }
}
