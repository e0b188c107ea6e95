//! One Rust source file as L11 reads it, lexed once.
//!
//! A [`FileModel`] holds the comment-free token stream plus the three
//! scopes L11 consults: which lines are test code (`#[cfg(test)]` items,
//! `mod tests` blocks, whole-file test trees), which lie inside
//! `macro_rules!` bodies, and which an `// oxcheck:allow(unreferenced_pub)`
//! pragma covers. There is no symbol layer: the lint is a rule over tokens.

use crate::lexer::{lex, Token, TokenKind};
use std::collections::BTreeSet;

/// One lexed source file and its scopes.
pub(crate) struct FileModel {
    /// Workspace-relative path with forward slashes.
    pub(crate) path: String,
    /// Comment-free token stream.
    pub(crate) tokens: Vec<Token>,
    /// Test-scoped lines; line 0 is the "entire file is test code" sentinel.
    test_lines: BTreeSet<u32>,
    /// Lines inside `macro_rules!` bodies.
    macro_lines: BTreeSet<u32>,
    /// Lines an `oxcheck:allow(unreferenced_pub)` pragma covers.
    allowed_lines: BTreeSet<u32>,
}

impl FileModel {
    /// Lexes `src` and locates its test code, macro bodies and pragmas.
    pub(crate) fn parse(path: &str, src: &str) -> FileModel {
        let (comments, tokens): (Vec<Token>, Vec<Token>) = lex(src)
            .into_iter()
            .partition(|t| matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment));
        FileModel {
            path: path.to_string(),
            test_lines: test_region_lines(&tokens, whole_file_is_test(path)),
            macro_lines: macro_body_lines(&tokens),
            allowed_lines: pragma_lines(&comments),
            tokens,
        }
    }

    /// Whether `line` falls in test-scoped code.
    pub(crate) fn in_test(&self, line: u32) -> bool {
        self.test_lines.contains(&0) || self.test_lines.contains(&line)
    }

    /// Whether `line` falls inside a `macro_rules!` body.
    pub(crate) fn in_macro(&self, line: u32) -> bool {
        self.macro_lines.contains(&line)
    }

    /// Whether a pragma on `line` or the line above allows a finding there.
    pub(crate) fn allows(&self, line: u32) -> bool {
        self.allowed_lines.contains(&line)
    }
}

/// Lines (1-based) each `oxcheck:allow(unreferenced_pub)` pragma covers:
/// its own line and the following one, so both trailing and preceding
/// pragma styles work.
fn pragma_lines(comments: &[Token]) -> BTreeSet<u32> {
    comments
        .iter()
        .filter(|t| t.text.contains("oxcheck:allow(unreferenced_pub)"))
        .flat_map(|t| [t.line, t.line + 1])
        .collect()
}

/// Whether a path is test-only by construction (integration test trees and
/// out-of-line `tests.rs` modules).
fn whole_file_is_test(rel_path: &str) -> bool {
    rel_path.split('/').any(|seg| seg == "tests") || rel_path.ends_with("/tests.rs")
}

/// Returns the set of source lines that belong to test-scoped code:
/// items annotated `#[cfg(test)]` and modules named `tests`.
fn test_region_lines(code: &[Token], whole_file: bool) -> BTreeSet<u32> {
    let mut lines = BTreeSet::new();
    if whole_file {
        // Cheap sentinel: line 0 marks "everything is test code".
        lines.insert(0);
        return lines;
    }
    let mut i = 0usize;
    let mut pending_test = false;
    while i < code.len() {
        let t = &code[i];
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
                lines.extend(code[i].line..=code[end].line);
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

/// Lines spanned by `macro_rules!` bodies: token soup until expanded.
fn macro_body_lines(code: &[Token]) -> BTreeSet<u32> {
    let mut lines = BTreeSet::new();
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokenKind::Ident || t.text != "macro_rules" {
            continue;
        }
        let Some(open) = code[i..]
            .iter()
            .position(|t| t.kind == TokenKind::Punct && matches!(t.text.as_str(), "{" | "(" | "["))
        else {
            break;
        };
        let open = i + open;
        let close_sym = match code[open].text.as_str() {
            "(" => ")",
            "[" => "]",
            _ => "}",
        };
        let close = match_bracket(code, open, &code[open].text, close_sym);
        lines.extend(code[open].line..=code[close].line);
    }
    lines
}

/// Index of the bracket matching `code[open]` (which must be `open_sym`),
/// or the last token if unbalanced.
fn match_bracket(code: &[Token], open: usize, open_sym: &str, close_sym: &str) -> usize {
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
fn attr_is_cfg_test(attr: &[Token]) -> bool {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aliases_and_macro_bodies() {
        let m = FileModel::parse(
            "x/lib.rs",
            "pub type SharedCluster = Arc<Mutex<ShardCluster>>;\n\
             macro_rules! mk {\n  ($n:ident) => {\n    let m = HashMap::new();\n    for k in m.keys() {}\n  };\n}\n\
             fn after() {}\n",
        );
        assert!(!m.in_macro(1), "a type alias is not a macro body");
        assert!(m.in_macro(2) && m.in_macro(4) && m.in_macro(7));
        assert!(!m.in_macro(8));
    }
}
