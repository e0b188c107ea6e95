//! L11 `unreferenced_pub` over the whole workspace.
//!
//! The rule reads each [`FileModel`]'s comment-free token stream. Test code
//! — `#[cfg(test)]` items, `mod tests { .. }` blocks and whole test files —
//! neither holds a public surface nor counts as a reference to its own
//! file's functions.

use crate::lexer::{Token, TokenKind};
use crate::parser::FileModel;
use crate::Finding;
use std::collections::BTreeMap;

/// L11: a `pub fn` in non-test code under `crates/*/src/` whose name no
/// token in the workspace repeats, apart from `fn` definitions in its own
/// file and that file's test code. Matching is by name, so a same-named
/// function elsewhere hides a dead one — the lint only ever under-reports.
pub(crate) fn lint_unreferenced_pub(models: &[FileModel]) -> Vec<Finding> {
    let mut out = Vec::new();
    let is_ident = |t: &&Token| t.kind == TokenKind::Ident;
    let mut uses: BTreeMap<&str, usize> = BTreeMap::new();
    for t in models.iter().flat_map(|m| &m.tokens).filter(is_ident) {
        *uses.entry(t.text.as_str()).or_default() += 1;
    }
    for m in models {
        if !m.path.starts_with("crates/") || !m.path.contains("/src/") || m.in_test(0) {
            continue;
        }
        // Occurrences that are not references: definitions and own tests.
        let mut own: BTreeMap<&str, usize> = BTreeMap::new();
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
            if uses[t.text.as_str()] != own[t.text.as_str()] || m.allows(t.line) {
                continue;
            }
            out.push(Finding {
                path: m.path.clone(),
                line: t.line,
                message: format!(
                    "`pub fn {}` is referenced nowhere in the workspace outside \
                     its own file's tests; delete it, or pragma-justify who \
                     outside the workspace calls it",
                    t.text
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lines L11 flags in a one-file workspace holding `src` at `path`.
    fn flagged_at(path: &str, src: &str) -> Vec<u32> {
        lint_unreferenced_pub(&[FileModel::parse(path, src)])
            .iter()
            .map(|f| f.line)
            .collect()
    }

    fn flagged(src: &str) -> Vec<u32> {
        flagged_at("crates/x/src/lib.rs", src)
    }

    #[test]
    fn names_in_strings_and_comments_are_not_references() {
        let src = "pub fn dead() {}\n\
                   // dead\n\
                   /* dead */\n\
                   fn f() { let _ = \"dead\"; let _ = r#\"dead()\"#; }\n";
        assert_eq!(flagged(src), [1]);
        assert!(flagged("pub fn live() {}\nfn f() { live(); }\n").is_empty());
    }

    #[test]
    fn mod_tests_is_test_code_with_or_without_cfg() {
        let src = "#[cfg(test)]\nmod tests {\n  pub fn g() {}\n}\n";
        assert!(flagged(src).is_empty());
        // mod tests without cfg attribute is still test code.
        let src = "mod tests {\n  pub fn g() {}\n}\n";
        assert!(flagged(src).is_empty());
        // cfg(not(test)) is NOT test code.
        let src = "#[cfg(not(test))]\nmod imp {\n  pub fn g() {}\n}\n";
        assert_eq!(flagged(src), [3]);
    }

    #[test]
    fn cfg_attr_test_scoping() {
        // `cfg_attr(pred, test)` applies `#[test]` conditionally: test code.
        let src = "#[cfg_attr(feature_x, test)]\npub fn g() {}\n";
        assert!(
            flagged(src).is_empty(),
            "cfg_attr(..., test) must scope as test"
        );
        // `cfg_attr(test, other)` compiles unconditionally: not test code.
        let src = "#[cfg_attr(test, allow(dead_code))]\npub fn g() {}\n";
        assert_eq!(flagged(src), [2], "test-as-predicate is not test scope");
        // Raw identifier `r#test` in an unrelated attribute is not `test`.
        let src = "#[cfg(r#test)]\npub fn g() {}\n";
        assert_eq!(flagged(src), [2]);
    }

    #[test]
    fn whole_test_files_are_exempt() {
        for path in ["crates/x/tests/gate.rs", "crates/x/src/db/tests.rs"] {
            assert!(flagged_at(path, "pub fn f() {}").is_empty(), "{path}");
        }
        assert_eq!(flagged_at("crates/x/src/gate.rs", "pub fn f() {}"), [1]);
    }

    #[test]
    fn pragmas_suppress_same_and_next_line() {
        let src = "// oxcheck:allow(unreferenced_pub): called by the host tool\npub fn f() {}\n";
        assert!(flagged(src).is_empty());
        let src = "pub fn f() {} // oxcheck:allow(unreferenced_pub): host tool\n";
        assert!(flagged(src).is_empty());
        // Only the next line: a pragma two lines up does not reach.
        let src = "// oxcheck:allow(unreferenced_pub): host tool\n\npub fn f() {}\n";
        assert_eq!(flagged(src), [3]);
        // Wrong lint name does not suppress.
        let src = "// oxcheck:allow(unreferenced_fn)\npub fn f() {}\n";
        assert_eq!(flagged(src), [2]);
    }

    #[test]
    fn cfg_test_scope_tracks_nested_braces() {
        let src = "#[cfg(test)]\nmod tests {\n  fn g() { if x { y(); } }\n  pub fn k() {}\n}\npub fn h() {}\n";
        assert_eq!(flagged(src), [6]);
    }
}
