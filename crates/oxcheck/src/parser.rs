//! A lightweight item/scope parser on top of [`crate::lexer`].
//!
//! The token-level lints (L1–L4) only need boundaries; the symbol-aware
//! lints (L5 deterministic collections, L7 span discipline) need *symbols*:
//! which names are bound to which types, where function bodies start and
//! end, and what a `use` declaration brings into scope. This module extracts
//! exactly that — no expressions, no generics unification, no borrow
//! anything — as a [`FileModel`] per source file:
//!
//! * `use` resolution: local name → full path (groups and `as` renames),
//! * `struct` definitions with field names and type token lists (tuple
//!   fields are named `"0"`, `"1"`, …),
//! * every `fn` (free, in an `impl` or in a `trait`) with its parameter
//!   types and body token span,
//! * `macro_rules!` body lines (skipped by the lints: macro bodies are
//!   token soup until expanded),
//! * test-scoped lines (shared with the L3 machinery).
//!
//! The parser is intentionally forgiving: anything it does not recognize is
//! skipped, and downstream passes treat "unknown" conservatively.

use crate::lexer::{Token, TokenKind};
use crate::lints::{test_region_lines, whole_file_is_test};
use std::collections::{BTreeMap, HashSet};

/// One field of a struct (tuple fields are named by index).
#[derive(Clone, Debug)]
pub struct FieldDef {
    /// Field name (`"0"`, `"1"`, … for tuple structs).
    pub name: String,
    /// Type as a token-text list, e.g. `["Arc", "<", "Mutex", "<", …]`.
    pub ty: Vec<String>,
}

/// One `struct` item.
#[derive(Clone, Debug)]
pub struct StructDef {
    /// Type name.
    pub name: String,
    /// Fields in declaration order.
    pub fields: Vec<FieldDef>,
}

/// One function or method.
#[derive(Clone, Debug)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Named parameters (receiver excluded): (name, type token list).
    pub params: Vec<(String, Vec<String>)>,
    /// Token indices of the body's `{` and matching `}` in
    /// [`FileModel::tokens`]; `None` for bodyless trait signatures.
    pub body: Option<(usize, usize)>,
}

/// Everything the symbol-aware lints need to know about one file.
#[derive(Clone, Debug)]
pub struct FileModel {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// Comment-free token stream (indices in [`FnDef::body`] point here).
    pub tokens: Vec<Token>,
    /// Lines that are test-scoped (`#[cfg(test)]`, `mod tests`, whole-file
    /// test trees); line 0 is the "entire file is test code" sentinel.
    pub test_lines: HashSet<u32>,
    /// Lines inside `macro_rules!` bodies.
    pub macro_lines: HashSet<u32>,
    /// `use` map: name in scope → full path (`"HashMap"` →
    /// `"std::collections::HashMap"`).
    pub uses: BTreeMap<String, String>,
    /// Struct definitions.
    pub structs: Vec<StructDef>,
    /// All functions, including methods and trait defaults.
    pub fns: Vec<FnDef>,
}

impl FileModel {
    /// Whether `line` falls in test-scoped code.
    pub fn in_test(&self, line: u32) -> bool {
        self.test_lines.contains(&0) || self.test_lines.contains(&line)
    }

    /// Whether `line` falls inside a `macro_rules!` body.
    pub fn in_macro(&self, line: u32) -> bool {
        self.macro_lines.contains(&line)
    }

    /// Resolves `name` through the file's `use` map, returning the full
    /// path when imported, or `name` itself otherwise.
    pub fn resolve_use<'a>(&'a self, name: &'a str) -> &'a str {
        self.uses.get(name).map(String::as_str).unwrap_or(name)
    }
}

/// Strips a raw-identifier prefix: `r#type` → `type`.
pub fn ident_name(text: &str) -> &str {
    text.strip_prefix("r#").unwrap_or(text)
}

/// Parses one file into a [`FileModel`]. `tokens` must be the comment-free
/// stream (comments are consulted separately for pragmas).
pub fn parse_file(path: &str, tokens: Vec<Token>, src_is_test_tree: bool) -> FileModel {
    let refs: Vec<&Token> = tokens.iter().collect();
    let test_lines = test_region_lines(&refs, src_is_test_tree || whole_file_is_test(path));
    let mut model = FileModel {
        path: path.to_string(),
        tokens,
        test_lines,
        macro_lines: HashSet::new(),
        uses: BTreeMap::new(),
        structs: Vec::new(),
        fns: Vec::new(),
    };
    let end = model.tokens.len();
    let mut p = Parser { model: &mut model };
    p.scan_items(0, end);
    model
}

struct Parser<'m> {
    model: &'m mut FileModel,
}

impl Parser<'_> {
    fn tok(&self, i: usize) -> Option<&Token> {
        self.model.tokens.get(i)
    }

    fn is_punct(&self, i: usize, s: &str) -> bool {
        self.tok(i)
            .is_some_and(|t| t.kind == TokenKind::Punct && t.text == s)
    }

    fn is_kw(&self, i: usize, s: &str) -> bool {
        self.tok(i)
            .is_some_and(|t| t.kind == TokenKind::Ident && t.text == s)
    }

    fn ident(&self, i: usize) -> Option<&str> {
        self.tok(i)
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| ident_name(&t.text))
    }

    /// Index of the token matching the opener at `open` (`{}`/`()`/`[]`),
    /// clamped to `end`.
    fn match_delim(&self, open: usize, end: usize, open_sym: &str, close_sym: &str) -> usize {
        let mut depth = 0i64;
        let mut i = open;
        while i < end {
            if let Some(t) = self.tok(i) {
                if t.kind == TokenKind::Punct {
                    if t.text == open_sym {
                        depth += 1;
                    } else if t.text == close_sym {
                        depth -= 1;
                        if depth == 0 {
                            return i;
                        }
                    }
                }
            }
            i += 1;
        }
        end.saturating_sub(1)
    }

    /// Skips a generics list starting at `<`, returning the index after the
    /// matching `>`. `i` must point at `<`.
    fn skip_generics(&self, mut i: usize, end: usize) -> usize {
        let mut depth = 0i64;
        while i < end {
            if self.is_punct(i, "<") {
                depth += 1;
            } else if self.is_punct(i, ">") {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            } else if self.is_punct(i, "(") || self.is_punct(i, "{") {
                // Const-generic expression or malformed input: bail out.
                return i;
            }
            i += 1;
        }
        end
    }

    /// Collects type tokens from `i` until a top-level occurrence of one of
    /// `stops` (puncts at angle/paren/bracket depth 0). Returns (tokens,
    /// index of the stop).
    fn type_tokens_until(&self, mut i: usize, end: usize, stops: &[&str]) -> (Vec<String>, usize) {
        let mut out = Vec::new();
        let mut angle = 0i64;
        let mut round = 0i64;
        let mut square = 0i64;
        while i < end {
            let Some(t) = self.tok(i) else { break };
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    "(" => round += 1,
                    ")" if round > 0 => round -= 1,
                    "[" => square += 1,
                    "]" if square > 0 => square -= 1,
                    s if angle <= 0 && round == 0 && square == 0 && stops.contains(&s) => {
                        return (out, i);
                    }
                    ")" | "]" => return (out, i),
                    _ => {}
                }
            }
            out.push(t.text.clone());
            i += 1;
        }
        (out, i.min(end))
    }

    /// Item scanner over `[i, end)`.
    fn scan_items(&mut self, mut i: usize, end: usize) {
        while i < end {
            if self.is_punct(i, "#") && self.is_punct(i + 1, "[") {
                i = self.match_delim(i + 1, end, "[", "]") + 1;
            } else if self.is_kw(i, "pub") {
                i += 1;
                if self.is_punct(i, "(") {
                    i = self.match_delim(i, end, "(", ")") + 1;
                }
            } else if self.is_kw(i, "use") {
                i = self.scan_use(i + 1, end);
            } else if self.is_kw(i, "struct") {
                i = self.scan_struct(i + 1, end);
            } else if self.is_kw(i, "enum") || self.is_kw(i, "union") {
                i = self.skip_to_body_or_semi(i + 1, end);
            } else if self.is_kw(i, "impl") || self.is_kw(i, "trait") {
                // Header up to the body, whose items are scanned in place.
                let mut j = i + 1;
                while j < end && !self.is_punct(j, "{") && !self.is_punct(j, ";") {
                    j += 1;
                }
                if self.is_punct(j, "{") {
                    let close = self.match_delim(j, end, "{", "}");
                    self.scan_items(j + 1, close);
                    i = close + 1;
                } else {
                    i = j + 1;
                }
            } else if self.is_kw(i, "fn") {
                i = self.scan_fn(i + 1, end);
            } else if self.is_kw(i, "mod") {
                // `mod name { items }` or `mod name;`
                let mut j = i + 2;
                while j < end && !self.is_punct(j, "{") && !self.is_punct(j, ";") {
                    j += 1;
                }
                if self.is_punct(j, "{") {
                    i = j + 1; // scan the body inline (same scope model)
                } else {
                    i = j + 1;
                }
            } else if self.is_kw(i, "macro_rules") {
                // macro_rules ! name { … } — record body lines, skip.
                let mut j = i + 1;
                while j < end
                    && !self.is_punct(j, "{")
                    && !self.is_punct(j, "(")
                    && !self.is_punct(j, "[")
                {
                    j += 1;
                }
                let (open, close_sym) = match self.tok(j).map(|t| t.text.as_str()) {
                    Some("(") => ("(", ")"),
                    Some("[") => ("[", "]"),
                    _ => ("{", "}"),
                };
                let close = self.match_delim(j, end, open, close_sym);
                if let (Some(a), Some(b)) = (self.tok(j), self.tok(close)) {
                    for l in a.line..=b.line {
                        self.model.macro_lines.insert(l);
                    }
                }
                i = close + 1;
            } else if self.is_kw(i, "static") || self.is_kw(i, "const") || self.is_kw(i, "type") {
                i = self.skip_statement(i + 1, end);
            } else {
                i += 1;
            }
        }
    }

    /// After `use`: records every name the declaration binds. Handles
    /// nested groups and `as` renames; glob imports are ignored.
    fn scan_use(&mut self, i: usize, end: usize) -> usize {
        let mut semi = i;
        while semi < end && !self.is_punct(semi, ";") {
            semi += 1;
        }
        self.scan_use_tree(i, semi, "");
        semi + 1
    }

    /// One `use` subtree over `[i, end)`, with `prefix` the path so far.
    fn scan_use_tree(&mut self, mut i: usize, end: usize, prefix: &str) {
        let mut path: Vec<String> = Vec::new();
        while i < end {
            if let Some(name) = self.ident(i).map(str::to_string) {
                if name == "as" {
                    if let Some(alias) = self.ident(i + 1) {
                        let full = join_path(prefix, &path);
                        self.model.uses.insert(alias.to_string(), full);
                        return;
                    }
                    i += 2;
                } else {
                    path.push(name);
                    i += 1;
                }
            } else if self.is_punct(i, ":") {
                i += 1;
            } else if self.is_punct(i, "{") {
                let close = self.match_delim(i, end + 1, "{", "}");
                // Each comma-separated subtree extends the current prefix.
                let sub = join_path(prefix, &path);
                let mut start = i + 1;
                let mut depth = 0i64;
                for j in i + 1..close {
                    if self.is_punct(j, "{") {
                        depth += 1;
                    } else if self.is_punct(j, "}") {
                        depth -= 1;
                    } else if self.is_punct(j, ",") && depth == 0 {
                        self.scan_use_tree(start, j, &sub);
                        start = j + 1;
                    }
                }
                self.scan_use_tree(start, close, &sub);
                return;
            } else {
                // `*`, `,`, stray tokens: this subtree binds nothing more.
                i += 1;
            }
        }
        if let Some(last) = path.last() {
            let name = last.clone();
            let full = join_path(prefix, &path);
            self.model.uses.insert(name, full);
        }
    }

    fn scan_struct(&mut self, i: usize, end: usize) -> usize {
        let Some(name) = self.ident(i).map(str::to_string) else {
            return i + 1;
        };
        let mut j = i + 1;
        if self.is_punct(j, "<") {
            j = self.skip_generics(j, end);
        }
        // Skip a `where` clause before the body.
        while j < end && !self.is_punct(j, "{") && !self.is_punct(j, "(") && !self.is_punct(j, ";")
        {
            j += 1;
        }
        let mut fields = Vec::new();
        let after = if self.is_punct(j, "{") {
            let close = self.match_delim(j, end, "{", "}");
            let mut k = j + 1;
            while k < close {
                if self.is_punct(k, "#") && self.is_punct(k + 1, "[") {
                    k = self.match_delim(k + 1, close, "[", "]") + 1;
                    continue;
                }
                if self.is_kw(k, "pub") {
                    k += 1;
                    if self.is_punct(k, "(") {
                        k = self.match_delim(k, close, "(", ")") + 1;
                    }
                    continue;
                }
                let (Some(fname), true) =
                    (self.ident(k).map(str::to_string), self.is_punct(k + 1, ":"))
                else {
                    k += 1;
                    continue;
                };
                let (ty, stop) = self.type_tokens_until(k + 2, close, &[","]);
                fields.push(FieldDef { name: fname, ty });
                k = stop + 1;
            }
            close + 1
        } else if self.is_punct(j, "(") {
            let close = self.match_delim(j, end, "(", ")");
            let mut k = j + 1;
            let mut idx = 0usize;
            while k < close {
                if self.is_punct(k, "#") && self.is_punct(k + 1, "[") {
                    k = self.match_delim(k + 1, close, "[", "]") + 1;
                    continue;
                }
                if self.is_kw(k, "pub") {
                    k += 1;
                    if self.is_punct(k, "(") {
                        k = self.match_delim(k, close, "(", ")") + 1;
                    }
                    continue;
                }
                let (ty, stop) = self.type_tokens_until(k, close, &[","]);
                if !ty.is_empty() {
                    fields.push(FieldDef {
                        name: idx.to_string(),
                        ty,
                    });
                    idx += 1;
                }
                k = stop.max(k) + 1;
            }
            // Tuple struct: `);` follows.
            let mut m = close + 1;
            while m < end && !self.is_punct(m, ";") {
                m += 1;
            }
            m + 1
        } else {
            j + 1 // unit struct `;`
        };
        self.model.structs.push(StructDef { name, fields });
        after
    }

    fn scan_fn(&mut self, i: usize, end: usize) -> usize {
        let Some(name) = self.ident(i).map(str::to_string) else {
            return i + 1;
        };
        let mut j = i + 1;
        if self.is_punct(j, "<") {
            j = self.skip_generics(j, end);
        }
        if !self.is_punct(j, "(") {
            return j;
        }
        let close_paren = self.match_delim(j, end, "(", ")");
        let mut params = Vec::new();
        let mut k = j + 1;
        while k < close_paren {
            if self.is_punct(k, "#") && self.is_punct(k + 1, "[") {
                k = self.match_delim(k + 1, close_paren, "[", "]") + 1;
                continue;
            }
            // Pattern tokens up to `:` at depth 0 — take the last ident as
            // the binding name (`mut buf` → `buf`).
            let mut pname: Option<String> = None;
            let mut m = k;
            let mut saw_colon = false;
            while m < close_paren {
                if self.is_punct(m, ":") && !self.is_punct(m + 1, ":") {
                    saw_colon = true;
                    break;
                }
                if self.is_punct(m, ",") {
                    break;
                }
                match self.ident(m) {
                    Some("self" | "mut" | "ref") | None => {}
                    Some(id) => pname = Some(id.to_string()),
                }
                m += 1;
            }
            if saw_colon {
                let (ty, stop) = self.type_tokens_until(m + 1, close_paren, &[","]);
                if let Some(pname) = pname {
                    params.push((pname, ty));
                }
                k = stop + 1;
            } else {
                k = m + 1;
            }
        }
        // Skip the return type / where clause to the body or `;`.
        let mut b = close_paren + 1;
        let mut angle = 0i64;
        while b < end {
            if self.is_punct(b, "<") {
                angle += 1;
            } else if self.is_punct(b, ">") && angle > 0 {
                angle -= 1;
            } else if (self.is_punct(b, "{") && angle <= 0) || self.is_punct(b, ";") {
                break;
            }
            b += 1;
        }
        let body = if self.is_punct(b, "{") {
            Some((b, self.match_delim(b, end, "{", "}")))
        } else {
            None
        };
        self.model.fns.push(FnDef { name, params, body });
        match body {
            Some((_, close)) => close + 1,
            None => b + 1,
        }
    }

    /// Skips to the end of a `{…}`/`(..);` item body or the next `;`.
    fn skip_to_body_or_semi(&self, mut i: usize, end: usize) -> usize {
        while i < end {
            if self.is_punct(i, "{") {
                return self.match_delim(i, end, "{", "}") + 1;
            }
            if self.is_punct(i, ";") {
                return i + 1;
            }
            i += 1;
        }
        end
    }

    /// Skips to the next `;` at brace/paren/bracket depth 0.
    fn skip_statement(&self, mut i: usize, end: usize) -> usize {
        let mut depth = 0i64;
        while i < end {
            if let Some(t) = self.tok(i) {
                if t.kind == TokenKind::Punct {
                    match t.text.as_str() {
                        "{" | "(" | "[" => depth += 1,
                        "}" | ")" | "]" => depth -= 1,
                        ";" if depth <= 0 => return i + 1,
                        _ => {}
                    }
                }
            }
            i += 1;
        }
        end
    }
}

fn join_path(prefix: &str, path: &[String]) -> String {
    let mut out = String::new();
    if !prefix.is_empty() {
        out.push_str(prefix);
    }
    for seg in path {
        if !out.is_empty() {
            out.push_str("::");
        }
        out.push_str(seg);
    }
    out
}

/// Lexes `src`, drops comments, and parses. Convenience for tests and the
/// workspace driver.
pub fn parse_source(path: &str, src: &str) -> FileModel {
    let tokens: Vec<Token> = crate::lexer::lex(src)
        .into_iter()
        .filter(|t| {
            !matches!(
                t.kind,
                crate::lexer::TokenKind::LineComment | crate::lexer::TokenKind::BlockComment
            )
        })
        .collect();
    parse_file(path, tokens, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn use_resolution_groups_and_renames() {
        let m = parse_source(
            "x/lib.rs",
            "use std::collections::{HashMap, HashSet as Set};\n\
             use std::sync::Arc;\n\
             use crate::dev::{ocssd::Device, media};\n",
        );
        assert_eq!(m.uses["HashMap"], "std::collections::HashMap");
        assert_eq!(m.uses["Set"], "std::collections::HashSet");
        assert_eq!(m.uses["Arc"], "std::sync::Arc");
        assert_eq!(m.uses["Device"], "crate::dev::ocssd::Device");
        assert_eq!(m.uses["media"], "crate::dev::media");
        assert_eq!(m.resolve_use("HashMap"), "std::collections::HashMap");
        assert_eq!(m.resolve_use("Vec"), "Vec");
    }

    #[test]
    fn struct_fields_named_and_tuple() {
        let m = parse_source(
            "x/lib.rs",
            "pub struct Dev {\n  pub obs: Obs,\n  inner: Arc<Mutex<Inner>>,\n}\n\
             pub struct Shared(Arc<Mutex<Dev>>, u32);\n",
        );
        assert_eq!(m.structs.len(), 2);
        let dev = &m.structs[0];
        assert_eq!(dev.name, "Dev");
        assert_eq!(dev.fields[0].name, "obs");
        assert_eq!(dev.fields[0].ty, vec!["Obs"]);
        assert_eq!(dev.fields[1].name, "inner");
        assert_eq!(
            dev.fields[1].ty,
            vec!["Arc", "<", "Mutex", "<", "Inner", ">", ">"]
        );
        let sh = &m.structs[1];
        assert_eq!(sh.name, "Shared");
        assert_eq!(sh.fields[0].name, "0");
        assert_eq!(sh.fields[1].name, "1");
        assert_eq!(sh.fields[1].ty, vec!["u32"]);
    }

    #[test]
    fn impl_and_trait_methods_are_scanned() {
        let m = parse_source(
            "x/lib.rs",
            "impl Dev {\n  pub fn new(cap: usize) -> Self { Self { cap } }\n  \
             fn tick(&mut self, now: SimTime) {}\n}\n\
             impl Media for Dev {\n  fn write(&mut self, t: SimTime, buf: &[u8]) -> R { todo!() }\n}\n\
             trait Store {\n  type Key;\n  fn get(&self, k: u64);\n}\n\
             fn free(x: u64) {}\n",
        );
        let names: Vec<&str> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["new", "tick", "write", "get", "free"]);
        assert_eq!(
            m.fns[0].params,
            vec![("cap".to_string(), vec!["usize".to_string()])]
        );
        assert_eq!(m.fns[1].params[0].0, "now");
        assert_eq!(m.fns[2].params[1].0, "buf");
        assert!(m.fns[3].body.is_none(), "trait signature");
        assert_eq!(m.fns.iter().filter(|f| f.body.is_some()).count(), 4);
    }

    #[test]
    fn generic_impls_and_where_clauses() {
        let m = parse_source(
            "x/lib.rs",
            "impl<'a, T: Media + Clone> Wal<T> where T: Send {\n  \
             fn commit(&mut self, t: SimTime) -> Result<SimTime, E> { Ok(t) }\n}\n",
        );
        assert_eq!(m.fns.len(), 1);
        assert_eq!(m.fns[0].name, "commit");
        assert_eq!(m.fns[0].params[0].0, "t");
    }

    #[test]
    fn aliases_and_macro_bodies() {
        let m = parse_source(
            "x/lib.rs",
            "pub type SharedCluster = Arc<Mutex<ShardCluster>>;\n\
             macro_rules! mk {\n  ($n:ident) => {\n    let m = HashMap::new();\n    for k in m.keys() {}\n  };\n}\n\
             fn after() {}\n",
        );
        assert!(m.in_macro(4), "macro body lines recorded");
        assert!(!m.in_macro(8));
        assert_eq!(m.fns.len(), 1, "the alias and the macro body hold no fn");
    }

    #[test]
    fn raw_identifier_fn_is_not_keyword() {
        // `r#fn` as a function name must not derail item scanning.
        let m = parse_source("x/lib.rs", "fn r#fn(x: u64) -> u64 { x }\nfn other() {}\n");
        assert_eq!(m.fns.len(), 2);
        assert_eq!(m.fns[0].name, "fn", "raw ident registers by bare name");
        assert_eq!(m.fns[1].name, "other");
    }

    #[test]
    fn nested_mods_are_scanned() {
        let m = parse_source(
            "x/lib.rs",
            "mod inner {\n  pub struct S { pub f: u32 }\n  impl S { fn g(&self) {} }\n}\n",
        );
        assert_eq!(m.structs.len(), 1);
        assert_eq!(m.fns.len(), 1);
        assert_eq!(m.fns[0].name, "g");
    }
}
