//! A small Rust tokenizer — just enough lexical fidelity for the lint.
//!
//! The analyzer needs to see identifiers, punctuation, string literals and
//! leftover pragma comments with correct line numbers, and it must *not* be
//! fooled by rule-triggering text inside string literals, doc examples, or
//! comments. That means the lexer has to get the hard parts of Rust's
//! surface right: raw strings (`r#"…"#`), byte strings, char literals vs
//! lifetimes (`'a'` vs `'a`) and nested block comments.
//!
//! It deliberately does **not** build an AST: the rule engine works on the
//! token stream plus the test-span analysis in [`crate::scan`].

/// What kind of lexeme a token is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier, keyword or number (`fn`, `HashMap`, `10`; a number
    /// lexes as its integer part, so `1.5` is `1` `.` `5`).
    Ident,
    /// A single punctuation character (`{`, `:`, `.`, …). Multi-character
    /// operators appear as consecutive tokens on the same line.
    Punct,
    /// A string, byte-string, or raw-string literal. The token text is the
    /// literal's raw content (needed to judge `expect` messages); it is
    /// never matched as an identifier.
    Str,
    /// A character or byte literal.
    Char,
    /// A lifetime (`'a`, `'static`), without the leading quote.
    Lifetime,
}

/// One token with its source line (1-based).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tok {
    /// The token kind.
    pub kind: TokKind,
    /// The token text (punctuation is a single character; string literals
    /// carry their raw content, char literals an empty placeholder).
    pub text: String,
    /// 1-based source line the token starts on.
    pub line: u32,
}

/// A line comment that starts with [`PRAGMA_PREFIX`], captured out-of-band
/// from the token stream (all other comments are discarded).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PragmaComment {
    /// 1-based source line of the comment.
    pub line: u32,
    /// The text after the prefix, trimmed.
    pub text: String,
}

/// The result of lexing one file.
#[derive(Clone, Debug, Default)]
pub struct Lexed {
    /// All tokens, in source order.
    pub toks: Vec<Tok>,
    /// All pragma comments, in source order.
    pub pragmas: Vec<PragmaComment>,
}

/// The marker of the retired pragma comments (`hot` markers and `allow`
/// waivers). Spelled in two pieces so that a search of the tree for the
/// marker finds only the lint's fixtures.
pub const PRAGMA_PREFIX: &str = concat!("cosmos-lint", ":");

/// Lexes `src` into tokens and pragma comments.
///
/// The lexer is total: any byte sequence produces *some* token stream
/// (unknown characters are skipped), so the lint never refuses a file.
pub fn lex(src: &str) -> Lexed {
    Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Lexed,
}

impl Lexer {
    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            match c {
                '\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                c if c.is_whitespace() => self.pos += 1,
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string(),
                'b' if self.peek(1) == Some('"') => {
                    self.pos += 1;
                    self.string();
                }
                'r' if self.raw_string_ahead(1) => {
                    self.pos += 1;
                    self.raw_string();
                }
                'b' if self.peek(1) == Some('r') && self.raw_string_ahead(2) => {
                    self.pos += 2;
                    self.raw_string();
                }
                '\'' => self.char_or_lifetime(),
                c if Self::is_ident_continue(Some(c)) => self.word(),
                c => {
                    self.push(TokKind::Punct, c.to_string());
                    self.pos += 1;
                }
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn push(&mut self, kind: TokKind, text: String) {
        self.out.toks.push(Tok {
            kind,
            text,
            line: self.line,
        });
    }

    fn is_ident_start(c: Option<char>) -> bool {
        matches!(c, Some(c) if c.is_alphabetic() || c == '_')
    }

    fn is_ident_continue(c: Option<char>) -> bool {
        matches!(c, Some(c) if c.is_alphanumeric() || c == '_')
    }

    /// Whether `r` at `self.pos` (with `offset` already consumed prefix
    /// chars) starts a raw string: `r"`, `r#"`, `r##"`, …
    fn raw_string_ahead(&self, offset: usize) -> bool {
        let mut i = offset;
        while self.peek(i) == Some('#') {
            i += 1;
        }
        self.peek(i) == Some('"')
    }

    fn line_comment(&mut self) {
        let start = self.pos;
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            self.pos += 1;
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        // Strip `//`, `///`, `//!` prefixes, then look for the pragma marker.
        let body = text
            .trim_start_matches('/')
            .trim_start_matches('!')
            .trim_start();
        if let Some(rest) = body.strip_prefix(PRAGMA_PREFIX) {
            self.out.pragmas.push(PragmaComment {
                line: self.line,
                text: rest.trim().to_string(),
            });
        }
    }

    fn block_comment(&mut self) {
        // `/*` already matched; consume with nesting.
        self.pos += 2;
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    self.pos += 2;
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    self.pos += 2;
                }
                (Some('\n'), _) => {
                    self.line += 1;
                    self.pos += 1;
                }
                (Some(_), _) => self.pos += 1,
                (None, _) => break, // unterminated; tolerate
            }
        }
    }

    fn string(&mut self) {
        let start_line = self.line;
        self.pos += 1; // opening quote
        let start = self.pos;
        while let Some(c) = self.peek(0) {
            match c {
                '\\' => {
                    // Skip the escaped char (incl. \"), but a backslash-
                    // newline line continuation still ends a source line —
                    // losing it desyncs every line number after the string.
                    if self.peek(1) == Some('\n') {
                        self.line += 1;
                    }
                    self.pos += 2;
                }
                '"' => break,
                '\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
        let text: String = self.chars[start..self.pos.min(self.chars.len())]
            .iter()
            .collect();
        if self.peek(0) == Some('"') {
            self.pos += 1;
        }
        self.out.toks.push(Tok {
            kind: TokKind::Str,
            text,
            line: start_line,
        });
    }

    fn raw_string(&mut self) {
        // At `#…#"` or `"`; count hashes, then scan for `"#…#` of the same
        // arity.
        let start_line = self.line;
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.pos += 1;
        }
        self.pos += 1; // opening quote
        let start = self.pos;
        let mut end = self.chars.len();
        'outer: while let Some(c) = self.peek(0) {
            if c == '\n' {
                self.line += 1;
                self.pos += 1;
                continue;
            }
            if c == '"' {
                for i in 0..hashes {
                    if self.peek(1 + i) != Some('#') {
                        self.pos += 1;
                        continue 'outer;
                    }
                }
                end = self.pos;
                self.pos += 1 + hashes;
                break;
            }
            self.pos += 1;
        }
        let text: String = self.chars[start..end.min(self.chars.len())]
            .iter()
            .collect();
        self.out.toks.push(Tok {
            kind: TokKind::Str,
            text,
            line: start_line,
        });
    }

    fn char_or_lifetime(&mut self) {
        // `'a` is a lifetime unless followed by a closing quote (`'a'`).
        // Escapes (`'\n'`) and non-ident chars (`'+'`) are always chars.
        if Self::is_ident_start(self.peek(1)) {
            let mut i = 2;
            while Self::is_ident_continue(self.peek(i)) {
                i += 1;
            }
            if self.peek(i) != Some('\'') {
                // Lifetime.
                let text: String = self.chars[self.pos + 1..self.pos + i].iter().collect();
                self.push(TokKind::Lifetime, text);
                self.pos += i;
                return;
            }
        }
        // Char literal.
        self.pos += 1;
        match self.peek(0) {
            Some('\\') => {
                self.pos += 2;
                // Escapes like \u{1F600} run to the closing brace.
                while self.peek(0).is_some() && self.peek(0) != Some('\'') {
                    self.pos += 1;
                }
                self.pos += 1;
            }
            Some(_) => {
                self.pos += 1;
                if self.peek(0) == Some('\'') {
                    self.pos += 1;
                }
            }
            None => {}
        }
        self.push(TokKind::Char, String::new());
    }

    /// An identifier, or a number's integer part (`1.5` is `1` `.` `5`).
    fn word(&mut self) {
        let start = self.pos;
        while Self::is_ident_continue(self.peek(0)) {
            self.pos += 1;
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        self.push(TokKind::Ident, text);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of_kind(src: &str, kind: TokKind) -> Vec<String> {
        let toks = lex(src).toks.into_iter();
        toks.filter(|t| t.kind == kind).map(|t| t.text).collect()
    }

    fn idents(src: &str) -> Vec<String> {
        of_kind(src, TokKind::Ident)
    }

    #[test]
    fn basic_tokens_and_lines() {
        let l = lex("fn main() {\n    let x = 1;\n}\n");
        assert_eq!(l.toks[0].text, "fn");
        assert_eq!(l.toks[0].line, 1);
        let x = l.toks.iter().find(|t| t.text == "x").expect("x token");
        assert_eq!(x.line, 2);
        assert!(l.pragmas.is_empty());
    }

    #[test]
    fn string_contents_do_not_tokenize() {
        // `HashMap` inside a string or comment must not surface as an ident.
        let src = format!("let s = \"HashMap<K, V> // {PRAGMA_PREFIX} bogus\"; // HashMap");
        let ids = idents(&src);
        assert!(!ids.contains(&"HashMap".to_string()), "{ids:?}");
        assert!(lex(&src).pragmas.is_empty());
    }

    #[test]
    fn raw_and_byte_strings() {
        let src = "let s = r##\"quote \" and hash# \"# still inside\"##; let after = 1;";
        let ids = idents(src);
        // The `r##` prefix and the body are swallowed whole.
        assert_eq!(ids, vec!["let", "s", "let", "after", "1"]);
        let l = lex(src);
        assert!(l.toks.iter().any(|t| t.kind == TokKind::Str));
        let ids = idents("let a = b\"bytes HashMap\"; let c = br#\"raw HashMap\"#;");
        assert!(!ids.contains(&"HashMap".to_string()), "{ids:?}");
    }

    #[test]
    fn multiline_strings_advance_lines() {
        // A backslash-newline continuation still ends a source line, or
        // every later token drifts.
        for src in [
            "let s = \"a\nb\";\nlet t = 1;",
            "let s = \"a \\\n b\";\nlet t = 1;",
        ] {
            let t = lex(src).toks.into_iter().find(|t| t.text == "t");
            assert_eq!(t.expect("the source declares t").line, 3, "{src:?}");
        }
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; let s = 'static_ish; }";
        assert_eq!(of_kind(src, TokKind::Lifetime), ["a", "a", "static_ish"]);
        assert_eq!(of_kind(src, TokKind::Char).len(), 2);
    }

    #[test]
    fn numbers_and_generics() {
        // A number is a word (`1.5` is `1` `.` `5`); each `>` of nested
        // generics is its own punct.
        let ids = idents("let a = 1.5; for i in 0..10 {}");
        assert_eq!(ids, ["let", "a", "1", "5", "for", "i", "in", "0", "10"]);
        let puncts = of_kind(
            "let m: Map<u64, Vec<Vec<u8>>> = Map::new();",
            TokKind::Punct,
        );
        assert_eq!(puncts.concat(), ":<,<<>>>=::();");
    }

    #[test]
    fn nested_block_comments() {
        let ids = idents("/* outer /* inner HashMap */ still comment */ let x = 1;");
        assert_eq!(ids, vec!["let", "x", "1"]);
    }

    #[test]
    fn pragma_comments_captured() {
        let p = PRAGMA_PREFIX;
        let src = format!(
            "// {p} allow(H1): justified here\nlet x = 1; // {p} hot\n\
             // a normal comment mentioning {p} inside prose: prefix only\n"
        );
        let l = lex(&src);
        let got: Vec<_> = l
            .pragmas
            .iter()
            .map(|c| (c.line, c.text.as_str()))
            .collect();
        assert_eq!(got, [(1, "allow(H1): justified here"), (2, "hot")]);
    }

    #[test]
    fn doc_comments_are_skipped() {
        // Doc examples regularly call `.unwrap()`; they are test code and
        // must not tokenize.
        let ids = idents("/// let v = m.read(line).unwrap();\nfn real() {}");
        assert_eq!(ids, vec!["fn", "real"]);
    }
}
