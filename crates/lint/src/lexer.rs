//! A minimal Rust lexer: just enough to tokenize the workspace's own source
//! without `syn` or any external dependency.
//!
//! The scanner understands line/block comments (including nesting), string,
//! raw-string, byte-string, and char literals, lifetimes vs char literals,
//! numeric literals (hex/octal/binary/decimal, floats with exponents), and
//! multi-character punctuation. Comments are captured separately so the rule
//! engine can read `// lint:allow(...)` directives and module docs; they are
//! never part of the token stream, which is what keeps every rule
//! comment/string-safe by construction.

/// Kind of a lexed token. Comments and whitespace are not tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `unwrap`, `as`, ...).
    Ident,
    /// Integer literal, including hex/octal/binary and suffixed forms.
    Int,
    /// Float literal (`0.0`, `1e12`, `2.5_f64`).
    Float,
    /// String, raw-string, or byte-string literal.
    Str,
    /// Char or byte-char literal (`'a'`, `b'\n'`).
    Char,
    /// Lifetime or loop label (`'static`, `'conn`).
    Lifetime,
    /// Punctuation, possibly multi-character (`::`, `..=`, `->`).
    Punct,
}

/// One token with byte offsets into the source and a 1-based line number.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokenKind,
    pub start: usize,
    pub end: usize,
    pub line: u32,
}

/// One comment (line or block), with the lines it spans.
#[derive(Debug, Clone)]
pub struct Comment {
    pub start: usize,
    pub end: usize,
    /// 1-based first line of the comment.
    pub line: u32,
    /// 1-based last line of the comment (equal to `line` for line comments).
    pub end_line: u32,
    /// True for `//!` / `/*!` inner (module) docs.
    pub module_doc: bool,
}

/// The result of lexing one file.
pub struct Lexed<'a> {
    pub src: &'a str,
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
    /// Byte offset where each 1-based line starts; index 0 is line 1.
    pub line_starts: Vec<usize>,
}

impl<'a> Lexed<'a> {
    /// Text of a token. Returns `""` on any out-of-range slice rather than
    /// panicking: the linter must never take the process down.
    pub fn text(&self, token: &Token) -> &'a str {
        self.src.get(token.start..token.end).unwrap_or("")
    }

    /// Text of a comment, including its `//` / `/*` sigils.
    pub fn comment_text(&self, comment: &Comment) -> &'a str {
        self.src.get(comment.start..comment.end).unwrap_or("")
    }

    /// The full text of a 1-based line, without the trailing newline.
    pub fn line_text(&self, line: u32) -> &'a str {
        let idx = (line as usize).saturating_sub(1);
        let Some(&start) = self.line_starts.get(idx) else {
            return "";
        };
        let end = match self.line_starts.get(idx + 1) {
            Some(&next) => next,
            None => self.src.len(),
        };
        self.src
            .get(start..end)
            .unwrap_or("")
            .trim_end_matches(['\n', '\r'])
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Multi-character punctuation, longest first so greedy matching is correct.
const PUNCT3: &[&str] = &["..=", "...", "<<=", ">>="];
const PUNCT2: &[&str] = &[
    "==", "!=", "<=", ">=", "=>", "->", "::", "..", "&&", "||", "+=", "-=", "*=", "/=", "%=", "^=",
    "&=", "|=", "<<", ">>",
];

struct Scanner<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    out: Lexed<'a>,
}

impl<'a> Scanner<'a> {
    fn peek(&self, ahead: usize) -> u8 {
        self.bytes.get(self.pos + ahead).copied().unwrap_or(0)
    }

    /// Advance one byte, tracking line numbers.
    fn bump(&mut self) {
        if self.peek(0) == b'\n' {
            self.line += 1;
            self.out.line_starts.push(self.pos + 1);
        }
        self.pos += 1;
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    fn push_token(&mut self, kind: TokenKind, start: usize, line: u32) {
        self.out.tokens.push(Token {
            kind,
            start,
            end: self.pos,
            line,
        });
    }

    fn line_comment(&mut self) {
        let start = self.pos;
        let line = self.line;
        let module_doc = self.peek(2) == b'!';
        while self.pos < self.bytes.len() && self.peek(0) != b'\n' {
            self.bump();
        }
        self.out.comments.push(Comment {
            start,
            end: self.pos,
            line,
            end_line: line,
            module_doc,
        });
    }

    fn block_comment(&mut self) {
        let start = self.pos;
        let line = self.line;
        let module_doc = self.peek(2) == b'!';
        self.bump_n(2);
        let mut depth = 1u32;
        while self.pos < self.bytes.len() && depth > 0 {
            if self.peek(0) == b'/' && self.peek(1) == b'*' {
                depth += 1;
                self.bump_n(2);
            } else if self.peek(0) == b'*' && self.peek(1) == b'/' {
                depth -= 1;
                self.bump_n(2);
            } else {
                self.bump();
            }
        }
        self.out.comments.push(Comment {
            start,
            end: self.pos,
            line,
            end_line: self.line,
            module_doc,
        });
    }

    /// Scan a `"..."` string body, cursor on the opening quote.
    fn quoted_string(&mut self, start: usize, line: u32) {
        self.bump(); // opening quote
        while self.pos < self.bytes.len() {
            match self.peek(0) {
                b'\\' => self.bump_n(2),
                b'"' => {
                    self.bump();
                    break;
                }
                _ => self.bump(),
            }
        }
        self.push_token(TokenKind::Str, start, line);
    }

    /// Scan `r"..."` / `r#"..."#` with any number of `#`s; cursor on `r`.
    fn raw_string(&mut self, start: usize, line: u32) {
        self.bump(); // 'r'
        let mut hashes = 0usize;
        while self.peek(0) == b'#' {
            hashes += 1;
            self.bump();
        }
        if self.peek(0) != b'"' {
            // Not actually a raw string (e.g. `r#ident`); emit as ident-ish.
            while is_ident_continue(self.peek(0)) {
                self.bump();
            }
            self.push_token(TokenKind::Ident, start, line);
            return;
        }
        self.bump(); // opening quote
        'body: while self.pos < self.bytes.len() {
            if self.peek(0) == b'"' {
                let mut matched = 0usize;
                while matched < hashes && self.peek(1 + matched) == b'#' {
                    matched += 1;
                }
                if matched == hashes {
                    self.bump_n(1 + hashes);
                    break 'body;
                }
            }
            self.bump();
        }
        self.push_token(TokenKind::Str, start, line);
    }

    /// Cursor on `'`: decide between a char literal and a lifetime/label.
    fn char_or_lifetime(&mut self, start: usize, line: u32) {
        if self.peek(1) == b'\\' {
            // Escaped char literal: '\n', '\'', '\u{..}'.
            self.bump_n(2); // quote + backslash
            while self.pos < self.bytes.len() && self.peek(0) != b'\'' {
                self.bump();
            }
            self.bump(); // closing quote
            self.push_token(TokenKind::Char, start, line);
            return;
        }
        if is_ident_start(self.peek(1)) {
            // Could be 'a' (char) or 'static (lifetime): scan the ident run
            // and look for a closing quote right after it.
            let mut end = 2usize;
            while is_ident_continue(self.peek(end)) {
                end += 1;
            }
            if self.peek(end) == b'\'' {
                self.bump_n(end + 1);
                self.push_token(TokenKind::Char, start, line);
            } else {
                self.bump_n(end);
                self.push_token(TokenKind::Lifetime, start, line);
            }
            return;
        }
        // Punctuation char literal like '(' or a stray quote.
        self.bump(); // opening quote
        if self.pos < self.bytes.len() {
            self.bump(); // the char itself
        }
        if self.peek(0) == b'\'' {
            self.bump();
        }
        self.push_token(TokenKind::Char, start, line);
    }

    /// Cursor on a digit.
    fn number(&mut self, start: usize, line: u32) {
        let mut float = false;
        if self.peek(0) == b'0' && matches!(self.peek(1), b'x' | b'o' | b'b') {
            self.bump_n(2);
            while self.peek(0).is_ascii_alphanumeric() || self.peek(0) == b'_' {
                self.bump();
            }
            self.push_token(TokenKind::Int, start, line);
            return;
        }
        while self.peek(0).is_ascii_digit() || self.peek(0) == b'_' {
            self.bump();
        }
        // Fraction: a dot followed by a digit (so `0..4` stays two ints and
        // `x.0` tuple access is untouched).
        if self.peek(0) == b'.' && self.peek(1).is_ascii_digit() {
            float = true;
            self.bump();
            while self.peek(0).is_ascii_digit() || self.peek(0) == b'_' {
                self.bump();
            }
        }
        // Exponent: e/E with an optional sign and at least one digit.
        if matches!(self.peek(0), b'e' | b'E') {
            let sign = usize::from(matches!(self.peek(1), b'+' | b'-'));
            if self.peek(1 + sign).is_ascii_digit() {
                float = true;
                self.bump_n(1 + sign);
                while self.peek(0).is_ascii_digit() || self.peek(0) == b'_' {
                    self.bump();
                }
            }
        }
        // Type suffix: `1.5f64`, `42u16`.
        if is_ident_start(self.peek(0)) {
            let suffix_start = self.pos;
            while is_ident_continue(self.peek(0)) {
                self.bump();
            }
            if self
                .src
                .get(suffix_start..self.pos)
                .is_some_and(|s| s.starts_with('f'))
            {
                float = true;
            }
        }
        let kind = if float {
            TokenKind::Float
        } else {
            TokenKind::Int
        };
        self.push_token(kind, start, line);
    }

    fn punct(&mut self, start: usize, line: u32) {
        let rest = self.src.get(self.pos..).unwrap_or("");
        for p in PUNCT3 {
            if rest.starts_with(p) {
                self.bump_n(3);
                self.push_token(TokenKind::Punct, start, line);
                return;
            }
        }
        for p in PUNCT2 {
            if rest.starts_with(p) {
                self.bump_n(2);
                self.push_token(TokenKind::Punct, start, line);
                return;
            }
        }
        self.bump();
        self.push_token(TokenKind::Punct, start, line);
    }
}

/// Lex one source file. Never panics; malformed input degrades to a best-effort
/// token stream (the linter is a gate, not a compiler).
pub fn lex(src: &str) -> Lexed<'_> {
    let mut scanner = Scanner {
        src,
        bytes: src.as_bytes(),
        pos: 0,
        line: 1,
        out: Lexed {
            src,
            tokens: Vec::new(),
            comments: Vec::new(),
            line_starts: vec![0],
        },
    };
    while scanner.pos < scanner.bytes.len() {
        let start = scanner.pos;
        let line = scanner.line;
        let b = scanner.peek(0);
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => scanner.bump(),
            b'/' if scanner.peek(1) == b'/' => scanner.line_comment(),
            b'/' if scanner.peek(1) == b'*' => scanner.block_comment(),
            b'"' => scanner.quoted_string(start, line),
            b'r' if scanner.peek(1) == b'"' || scanner.peek(1) == b'#' => {
                scanner.raw_string(start, line);
            }
            b'b' if scanner.peek(1) == b'"' => {
                scanner.bump();
                scanner.quoted_string(start, line);
            }
            b'b' if scanner.peek(1) == b'\'' => {
                scanner.bump();
                scanner.char_or_lifetime(start, line);
            }
            b'b' if scanner.peek(1) == b'r' && matches!(scanner.peek(2), b'"' | b'#') => {
                scanner.bump();
                scanner.raw_string(start, line);
            }
            b'\'' => scanner.char_or_lifetime(start, line),
            _ if is_ident_start(b) => {
                while is_ident_continue(scanner.peek(0)) {
                    scanner.bump();
                }
                scanner.push_token(TokenKind::Ident, start, line);
            }
            _ if b.is_ascii_digit() => scanner.number(start, line),
            _ if b < 0x80 => scanner.punct(start, line),
            _ => {
                // Opaque multi-byte UTF-8 sequence (only legal in idents we
                // don't emit, which this workspace doesn't use): skip whole.
                scanner.bump();
                while scanner.peek(0) & 0xC0 == 0x80 {
                    scanner.bump();
                }
            }
        }
    }
    scanner.out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        let lexed = lex(src);
        lexed
            .tokens
            .iter()
            .map(|t| (t.kind, lexed.text(t).to_string()))
            .collect()
    }

    #[test]
    fn comments_and_strings_are_not_tokens() {
        let toks = kinds("let x = \"unwrap()\"; // .unwrap()\n/* panic! */ y");
        let texts: Vec<&str> = toks.iter().map(|(_, t)| t.as_str()).collect();
        assert_eq!(texts, ["let", "x", "=", "\"unwrap()\"", ";", "y"]);
    }

    #[test]
    fn lifetime_vs_char_literal() {
        let toks = kinds("'conn: loop { break 'conn; } let c = 'x'; let s = 'static");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Lifetime && t == "'conn"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Char && t == "'x'"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Lifetime && t == "'static"));
    }

    #[test]
    fn numbers_float_vs_int_vs_range() {
        let toks = kinds("0x7e57 1e12 2.5 0..4 x.0 1.5f64 42u16");
        let by_text = |needle: &str| toks.iter().find(|(_, t)| t == needle).map(|(k, _)| *k);
        assert_eq!(by_text("0x7e57"), Some(TokenKind::Int));
        assert_eq!(by_text("1e12"), Some(TokenKind::Float));
        assert_eq!(by_text("2.5"), Some(TokenKind::Float));
        assert_eq!(by_text("1.5f64"), Some(TokenKind::Float));
        assert_eq!(by_text("42u16"), Some(TokenKind::Int));
        // `0..4` must lex as Int, Punct(..), Int.
        let pos = toks.iter().position(|(_, t)| t == "..");
        assert!(pos.is_some());
    }

    #[test]
    fn raw_and_byte_strings() {
        let toks = kinds(r###"let a = r#"quote " inside"#; let b = b"bytes";"###);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Str && t.starts_with("r#")));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Str && t.starts_with("b\"")));
    }

    #[test]
    fn nested_block_comments() {
        let lexed = lex("/* outer /* inner */ still comment */ token");
        assert_eq!(lexed.tokens.len(), 1);
        assert_eq!(lexed.text(&lexed.tokens[0]), "token");
    }

    #[test]
    fn line_numbers_and_line_text() {
        let lexed = lex("first\nsecond line\nthird");
        assert_eq!(lexed.line_text(2), "second line");
        let tok = lexed.tokens.iter().find(|t| lexed.text(t) == "third");
        assert_eq!(tok.map(|t| t.line), Some(3));
    }

    #[test]
    fn module_doc_comments_flagged() {
        let lexed = lex("//! module docs\n// normal\n/*! inner block */");
        let docs: Vec<bool> = lexed.comments.iter().map(|c| c.module_doc).collect();
        assert_eq!(docs, [true, false, true]);
    }
}
