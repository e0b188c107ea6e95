//! A hand-rolled Rust lexer, just deep enough for lint matching.
//!
//! The lexer does not aim to be a full Rust tokenizer: it produces the token
//! classes the lint passes need (identifiers, punctuation, literals and
//! comments, each tagged with a 1-based line number) while getting the
//! *boundaries* exactly right. The boundaries are where naive `grep`-style
//! lints go wrong, so the corner cases are handled for real:
//!
//! * cooked strings with escapes (`"\" // not a comment"`),
//! * raw strings with any hash depth (`r#"..."#`, `br##"..."##`) whose
//!   bodies may contain `//`, `/*` or quotes,
//! * nested block comments (`/* outer /* inner */ still a comment */`),
//! * byte and char literals, including quote chars (`'"'`, `'\''`),
//! * lifetime ticks (`&'a T`) which must *not* open a char literal,
//! * raw identifiers (`r#type`).

/// Token classes relevant to lint matching.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword. Raw identifiers keep their `r#` prefix
    /// (`r#type` lexes as `Ident("r#type")`) so a parser can never mistake
    /// `r#fn` for the `fn` keyword; strip the prefix when matching names.
    Ident,
    /// Lifetime such as `'a` (text excludes the tick).
    Lifetime,
    /// Single punctuation character.
    Punct,
    /// String, raw string, byte string or byte literal.
    Str,
    /// Character literal (e.g. `'x'`, `'"'`, `'\n'`).
    Char,
    /// Numeric literal (loosely scanned; suffixes included).
    Num,
    /// `// ...` comment, including doc comments. Text excludes the slashes.
    LineComment,
    /// `/* ... */` comment (nesting handled). Text excludes the delimiters.
    BlockComment,
}

/// One lexed token with its source line (1-based).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    /// Token class.
    pub kind: TokenKind,
    /// Token text (see [`TokenKind`] for what is included).
    pub text: String,
    /// 1-based line number where the token starts.
    pub line: u32,
}

impl Token {
    fn new(kind: TokenKind, text: impl Into<String>, line: u32) -> Token {
        Token {
            kind,
            text: text.into(),
            line,
        }
    }
}

/// Lexes `src` into a token stream. Unterminated constructs are closed at
/// end of input rather than reported: the lints only need the prefix.
pub fn lex(src: &str) -> Vec<Token> {
    Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Vec<Token>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn run(mut self) -> Vec<Token> {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(line),
                '/' if self.peek(1) == Some('*') => self.block_comment(line),
                '"' => self.cooked_string(line),
                'r' if matches!(self.peek(1), Some('"' | '#')) => self.raw_or_ident(line, 1),
                'b' if self.peek(1) == Some('"') => {
                    self.bump(); // b
                    self.cooked_string(line);
                }
                'b' if self.peek(1) == Some('\'') => {
                    self.bump(); // b
                    self.bump(); // '
                    self.char_body(line);
                }
                'b' if self.peek(1) == Some('r') && matches!(self.peek(2), Some('"' | '#')) => {
                    self.bump(); // b
                    self.raw_or_ident(line, 1);
                }
                '\'' => self.tick(line),
                c if is_ident_start(c) => self.ident(line),
                c if c.is_ascii_digit() => self.number(line),
                _ => {
                    self.bump();
                    self.out.push(Token::new(TokenKind::Punct, c, line));
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self, line: u32) {
        self.bump();
        self.bump();
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.out
            .push(Token::new(TokenKind::LineComment, text, line));
    }

    fn block_comment(&mut self, line: u32) {
        self.bump();
        self.bump();
        let mut depth = 1u32;
        let mut text = String::new();
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    text.push_str("/*");
                    self.bump();
                    self.bump();
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    if depth > 0 {
                        text.push_str("*/");
                    }
                    self.bump();
                    self.bump();
                }
                (Some(c), _) => {
                    text.push(c);
                    self.bump();
                }
                (None, _) => break,
            }
        }
        self.out
            .push(Token::new(TokenKind::BlockComment, text, line));
    }

    fn cooked_string(&mut self, line: u32) {
        self.bump(); // opening quote
        let mut text = String::new();
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    // Consume the escaped character verbatim (handles \" \\).
                    if let Some(e) = self.bump() {
                        text.push('\\');
                        text.push(e);
                    }
                }
                '"' => break,
                _ => text.push(c),
            }
        }
        self.out.push(Token::new(TokenKind::Str, text, line));
    }

    /// At an `r` that may start a raw string (`r"`, `r#"`) or a raw
    /// identifier (`r#type`). `prefix_len` is 1 for `r...`, and the caller
    /// has already consumed the `b` of a `br...` byte raw string.
    fn raw_or_ident(&mut self, line: u32, prefix_len: usize) {
        // Count hashes after the `r`.
        let mut hashes = 0usize;
        while self.peek(prefix_len + hashes) == Some('#') {
            hashes += 1;
        }
        match self.peek(prefix_len + hashes) {
            Some('"') => {
                for _ in 0..prefix_len + hashes + 1 {
                    self.bump();
                }
                self.raw_string_body(line, hashes);
            }
            Some(c) if hashes == 1 && is_ident_start(c) => {
                // Raw identifier r#type: the `r#` prefix stays in the token
                // text so keyword matching downstream cannot confuse `r#fn`
                // with the `fn` keyword.
                self.bump();
                self.bump();
                let mut text = String::from("r#");
                while let Some(c) = self.peek(0) {
                    if !is_ident_continue(c) {
                        break;
                    }
                    text.push(c);
                    self.bump();
                }
                self.out.push(Token::new(TokenKind::Ident, text, line));
            }
            _ => {
                // Just an `r` identifier followed by punctuation.
                self.ident(line);
            }
        }
    }

    fn raw_string_body(&mut self, line: u32, hashes: usize) {
        let mut text = String::new();
        'outer: while let Some(c) = self.bump() {
            if c == '"' {
                // A quote closes only if followed by `hashes` hash marks.
                for i in 0..hashes {
                    if self.peek(i) != Some('#') {
                        text.push('"');
                        continue 'outer;
                    }
                }
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
            text.push(c);
        }
        self.out.push(Token::new(TokenKind::Str, text, line));
    }

    /// At a `'`: decide between a char literal and a lifetime.
    fn tick(&mut self, line: u32) {
        self.bump(); // '
        match self.peek(0) {
            // `'a'` is a char; `'a` (no closing tick) is a lifetime. A
            // multi-char identifier after the tick is always a lifetime.
            Some(c) if is_ident_start(c) => {
                if self.peek(1) == Some('\'') {
                    self.char_body(line);
                } else {
                    let mut name = String::new();
                    while let Some(c) = self.peek(0) {
                        if !is_ident_continue(c) {
                            break;
                        }
                        name.push(c);
                        self.bump();
                    }
                    self.out.push(Token::new(TokenKind::Lifetime, name, line));
                }
            }
            // Escapes and every non-identifier char (including `'"'`) open a
            // char literal.
            Some(_) => self.char_body(line),
            None => self.out.push(Token::new(TokenKind::Punct, '\'', line)),
        }
    }

    /// Body of a char literal, after the opening tick.
    fn char_body(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    if let Some(e) = self.bump() {
                        text.push('\\');
                        text.push(e);
                    }
                }
                '\'' => break,
                _ => text.push(c),
            }
        }
        self.out.push(Token::new(TokenKind::Char, text, line));
    }

    fn ident(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if !is_ident_continue(c) {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.out.push(Token::new(TokenKind::Ident, text, line));
    }

    fn number(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else if c == '.' {
                // `1.5` continues the number; `1.max(2)` and `0..n` do not.
                match self.peek(1) {
                    Some(d) if d.is_ascii_digit() => {
                        text.push(c);
                        self.bump();
                    }
                    _ => break,
                }
            } else {
                break;
            }
        }
        self.out.push(Token::new(TokenKind::Num, text, line));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    /// Table-driven corner cases: each row is (source, expected tokens).
    #[test]
    fn corner_case_table() {
        use TokenKind::*;
        let table: &[(&str, &[(TokenKind, &str)])] = &[
            // Raw string containing `//` must not open a comment.
            (
                r##"let s = r"a // b";"##,
                &[
                    (Ident, "let"),
                    (Ident, "s"),
                    (Punct, "="),
                    (Str, "a // b"),
                    (Punct, ";"),
                ],
            ),
            // Hashed raw string containing a bare quote and `/*`.
            (
                r###"r#"quote " and /* here"#"###,
                &[(Str, "quote \" and /* here")],
            ),
            // Nested block comments close at the matching depth.
            (
                "/* outer /* inner */ tail */ ident",
                &[(BlockComment, " outer /* inner */ tail "), (Ident, "ident")],
            ),
            // Char literal holding a double quote does not open a string.
            (
                "let c = '\"'; let d = 1;",
                &[
                    (Ident, "let"),
                    (Ident, "c"),
                    (Punct, "="),
                    (Char, "\""),
                    (Punct, ";"),
                    (Ident, "let"),
                    (Ident, "d"),
                    (Punct, "="),
                    (Num, "1"),
                    (Punct, ";"),
                ],
            ),
            // Escaped tick char literal.
            ("'\\''", &[(Char, "\\'")]),
            // Lifetime ticks are not char literals.
            (
                "fn f<'a>(x: &'a str) {}",
                &[
                    (Ident, "fn"),
                    (Ident, "f"),
                    (Punct, "<"),
                    (Lifetime, "a"),
                    (Punct, ">"),
                    (Punct, "("),
                    (Ident, "x"),
                    (Punct, ":"),
                    (Punct, "&"),
                    (Lifetime, "a"),
                    (Ident, "str"),
                    (Punct, ")"),
                    (Punct, "{"),
                    (Punct, "}"),
                ],
            ),
            // Single-char char literal vs single-char lifetime.
            ("'x' 'x", &[(Char, "x"), (Lifetime, "x")]),
            // Escaped quote inside a cooked string; `//` stays string text.
            (
                r#""esc \" // still string" z"#,
                &[(Str, r#"esc \" // still string"#), (Ident, "z")],
            ),
            // Byte strings and byte chars.
            (r#"b"bytes" b'q'"#, &[(Str, "bytes"), (Char, "q")]),
            // Raw identifier is an ident (prefix preserved), not a raw
            // string — and `r#fn` must not lex as the `fn` keyword.
            (
                "let r#type = 1;",
                &[
                    (Ident, "let"),
                    (Ident, "r#type"),
                    (Punct, "="),
                    (Num, "1"),
                    (Punct, ";"),
                ],
            ),
            (
                "fn caller() { r#fn(); }",
                &[
                    (Ident, "fn"),
                    (Ident, "caller"),
                    (Punct, "("),
                    (Punct, ")"),
                    (Punct, "{"),
                    (Ident, "r#fn"),
                    (Punct, "("),
                    (Punct, ")"),
                    (Punct, ";"),
                    (Punct, "}"),
                ],
            ),
            // Method calls on numbers do not swallow the dot.
            (
                "1.max(2) 0..n 3.5",
                &[
                    (Num, "1"),
                    (Punct, "."),
                    (Ident, "max"),
                    (Punct, "("),
                    (Num, "2"),
                    (Punct, ")"),
                    (Num, "0"),
                    (Punct, "."),
                    (Punct, "."),
                    (Ident, "n"),
                    (Num, "3.5"),
                ],
            ),
            // Line comment text is captured (pragmas need it).
            (
                "x // oxcheck:allow(unreferenced_pub) why\ny",
                &[
                    (Ident, "x"),
                    (LineComment, " oxcheck:allow(unreferenced_pub) why"),
                    (Ident, "y"),
                ],
            ),
        ];
        for (src, want) in table {
            let got = kinds(src);
            let want: Vec<(TokenKind, String)> =
                want.iter().map(|(k, t)| (*k, t.to_string())).collect();
            assert_eq!(got, want, "lexing {src:?}");
        }
    }

    #[test]
    fn line_numbers_track_newlines_everywhere() {
        let src = "a\n\"two\nlines\"\nb /* c\nc */ d\nr\"raw\nraw\" e";
        let toks = lex(src);
        let find = |text: &str| toks.iter().find(|t| t.text == text).unwrap().line;
        assert_eq!(find("a"), 1);
        assert_eq!(find("two\nlines"), 2); // string starts on line 2
        assert_eq!(find("b"), 4);
        assert_eq!(find(" c\nc "), 4); // block comment starts line 4
        assert_eq!(find("d"), 5); // after the embedded newline
        assert_eq!(find("raw\nraw"), 6);
        assert_eq!(find("e"), 7);
    }

    #[test]
    fn unterminated_constructs_do_not_hang() {
        assert_eq!(lex("\"abc").len(), 1);
        assert_eq!(lex("/* never closed").len(), 1);
        assert_eq!(lex("r#\"open").len(), 1);
        assert_eq!(lex("'").len(), 1);
    }
}
