//! Token-level lint passes (L1–L3, L11) plus pragma and `#[cfg(test)]`
//! scoping.
//!
//! All four passes run over the comment-free token stream produced by
//! [`crate::lexer::lex`]; comments are consulted separately for
//! `// oxcheck:allow(<lint>)` pragmas. Test code — `#[cfg(test)]` items and
//! `mod tests { .. }` blocks — is exempt from L3 (tests may unwrap freely)
//! but *not* from L1/L2: a test that grabs a raw `std::sync::Mutex` or reads
//! the wall clock undermines determinism just as much as library code.

use crate::lexer::{lex, Token, TokenKind};
use crate::parser::FileModel;
use crate::{Config, Finding, Lint};
use std::collections::{HashMap, HashSet};

/// Runs L1–L3 over one Rust source file. `rel_path` uses forward slashes
/// relative to the workspace root.
pub fn check_rust_source(rel_path: &str, src: &str, cfg: &Config) -> Vec<Finding> {
    let tokens = lex(src);
    let allows = pragma_allows(&tokens);
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect();
    let test_lines = test_region_lines(&code, whole_file_is_test(rel_path));

    let mut findings = Vec::new();
    if !cfg.allowed(&cfg.l1_allow, rel_path) {
        lint_std_sync_lock(rel_path, &code, &mut findings);
    }
    if !cfg.allowed(&cfg.l2_allow, rel_path) {
        lint_wall_clock(rel_path, &code, &mut findings);
    }
    if cfg.l3_in_scope(rel_path) {
        lint_panic_path(rel_path, &code, &test_lines, &mut findings);
    }
    findings.retain(|f| !allowed_by_pragma(&allows, f));
    findings
}

/// Lines (1-based) whose findings each pragma suppresses: its own line and
/// the following one, so both trailing and preceding pragma styles work.
pub(crate) fn pragma_allows(tokens: &[Token]) -> HashMap<u32, HashSet<String>> {
    let mut map: HashMap<u32, HashSet<String>> = HashMap::new();
    for t in tokens {
        if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let Some(at) = t.text.find("oxcheck:allow(") else {
            continue;
        };
        let rest = &t.text[at + "oxcheck:allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        for name in rest[..close].split(',') {
            let name = name.trim().to_string();
            if name.is_empty() {
                continue;
            }
            map.entry(t.line).or_default().insert(name.clone());
            map.entry(t.line + 1).or_default().insert(name);
        }
    }
    map
}

pub(crate) fn allowed_by_pragma(allows: &HashMap<u32, HashSet<String>>, f: &Finding) -> bool {
    allows
        .get(&f.line)
        .is_some_and(|set| set.contains(f.lint.name()) || set.contains("all"))
}

/// Whether a path is test-only by construction (integration test trees and
/// out-of-line `tests.rs` modules).
pub(crate) fn whole_file_is_test(rel_path: &str) -> bool {
    rel_path.split('/').any(|seg| seg == "tests") || rel_path.ends_with("/tests.rs")
}

/// Returns the set of source lines that belong to test-scoped code:
/// items annotated `#[cfg(test)]` and modules named `tests`.
pub(crate) fn test_region_lines(code: &[&Token], whole_file: bool) -> HashSet<u32> {
    let mut lines = HashSet::new();
    if whole_file {
        // Cheap sentinel: line 0 marks "everything is test code".
        lines.insert(0);
        return lines;
    }
    let mut i = 0usize;
    let mut pending_test = false;
    while i < code.len() {
        let t = code[i];
        match (t.kind, t.text.as_str()) {
            (TokenKind::Punct, "#") if code.get(i + 1).is_some_and(|t| t.text == "[") => {
                let end = match_bracket(code, i + 1, "[", "]");
                if attr_is_cfg_test(&code[i + 2..end]) {
                    pending_test = true;
                }
                i = end + 1;
                continue;
            }
            (TokenKind::Ident, "mod")
                if code.get(i + 1).is_some_and(|t| t.text == "tests")
                    && code.get(i + 2).is_some_and(|t| t.text == "{") =>
            {
                pending_test = true;
                i += 2; // fall through to the `{` below on next iteration
                continue;
            }
            (TokenKind::Punct, "{") if pending_test => {
                let end = match_bracket(code, i, "{", "}");
                for l in code[i].line..=code[end].line {
                    lines.insert(l);
                }
                pending_test = false;
                i = end + 1;
                continue;
            }
            (TokenKind::Punct, ";") if pending_test => {
                // `#[cfg(test)] use x;` — no body to scope.
                pending_test = false;
            }
            _ => {}
        }
        i += 1;
    }
    lines
}

fn in_test(test_lines: &HashSet<u32>, line: u32) -> bool {
    test_lines.contains(&0) || test_lines.contains(&line)
}

/// Index of the bracket matching `code[open]` (which must be `open_sym`),
/// or the last token if unbalanced.
pub(crate) fn match_bracket(
    code: &[&Token],
    open: usize,
    open_sym: &str,
    close_sym: &str,
) -> usize {
    let mut depth = 0i64;
    for (j, t) in code.iter().enumerate().skip(open) {
        if t.kind == TokenKind::Punct {
            if t.text == open_sym {
                depth += 1;
            } else if t.text == close_sym {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
        }
    }
    code.len().saturating_sub(1)
}

/// True for `cfg(test)` and `cfg(any(test, ...))`; false for `cfg(not(test))`
/// and for unrelated attributes. Also true for `#[cfg_attr(pred, test)]`
/// (the *applied* attribute — after the first top-level comma — is `test`),
/// but not for `#[cfg_attr(test, other_attr)]`, where `test` is only the
/// predicate and the item compiles unconditionally.
fn attr_is_cfg_test(attr: &[&Token]) -> bool {
    let is_cfg_attr = attr
        .first()
        .is_some_and(|t| t.kind == TokenKind::Ident && t.text == "cfg_attr");
    let scan_from = if is_cfg_attr {
        // Skip past the predicate: find the first `,` at paren depth 1.
        let mut depth = 0i64;
        let mut at = attr.len();
        for (i, t) in attr.iter().enumerate() {
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "(" => depth += 1,
                    ")" => depth -= 1,
                    "," if depth == 1 => {
                        at = i + 1;
                        break;
                    }
                    _ => {}
                }
            }
        }
        at
    } else {
        0
    };
    let mut has_cfg = is_cfg_attr;
    let mut has_test = false;
    let mut has_not = false;
    for t in &attr[scan_from.min(attr.len())..] {
        if t.kind == TokenKind::Ident {
            match t.text.as_str() {
                "cfg" => has_cfg = true,
                "test" => has_test = true,
                "not" => has_not = true,
                _ => {}
            }
        }
    }
    has_cfg && has_test && !has_not
}

/// Matches `a :: b` style path separators: token `i` is `:` and `i+1` is `:`.
fn is_path_sep(code: &[&Token], i: usize) -> bool {
    code.get(i).is_some_and(|t| t.text == ":") && code.get(i + 1).is_some_and(|t| t.text == ":")
}

fn ident_at(code: &[&Token], i: usize, name: &str) -> bool {
    code.get(i)
        .is_some_and(|t| t.kind == TokenKind::Ident && t.text == name)
}

/// L1: `std::sync::Mutex` / `std::sync::RwLock` anywhere outside the
/// `ox_sim::sync` wrappers. Handles direct paths, `use std::sync::{..}`
/// groups and one level of `use std::{sync::{..}, ..}` nesting.
fn lint_std_sync_lock(rel_path: &str, code: &[&Token], out: &mut Vec<Finding>) {
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
fn lint_wall_clock(rel_path: &str, code: &[&Token], out: &mut Vec<Finding>) {
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
    code: &[&Token],
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
    let scan_module_suffix = |out: &mut Vec<Finding>, code: &[&Token], i: usize| {
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
fn lint_panic_path(
    rel_path: &str,
    code: &[&Token],
    test_lines: &HashSet<u32>,
    out: &mut Vec<Finding>,
) {
    for i in 0..code.len() {
        let t = code[i];
        if t.kind != TokenKind::Ident || in_test(test_lines, t.line) {
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
        out.push(Finding::new(rel_path, t.line, Lint::PanicPath, msg));
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
            if uses[t.text.as_str()] == own[t.text.as_str()] {
                out.push(Finding::new(
                    &m.path,
                    t.line,
                    Lint::UnreferencedPub,
                    format!(
                        "`pub fn {}` is referenced nowhere in the workspace outside \
                         its own file's tests; delete it, or pragma-justify who \
                         outside the workspace calls it",
                        t.text
                    ),
                ));
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

    fn run(src: &str) -> Vec<Finding> {
        check_rust_source("virt/lib.rs", src, &cfg())
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
        assert!(check_rust_source("other/lib.rs", "fn f() { x.unwrap(); }", &cfg()).is_empty());

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
        let f = check_rust_source("virt/tests/gate.rs", "fn f() { x.unwrap(); }", &cfg());
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
