//! A small Rust tokenizer — just enough lexical fidelity for the lint.
//!
//! The analyzer needs to see identifiers, punctuation, and `cosmos-lint:`
//! pragma comments with correct line numbers, and it must *not* be fooled by
//! rule-triggering text inside string literals, doc examples, or comments.
//! That means the lexer has to get the hard parts of Rust's surface right:
//! raw strings (`r#"…"#`), byte strings, char literals vs lifetimes
//! (`'a'` vs `'a`), nested block comments, and raw identifiers (`r#type`).
//!
//! It deliberately does **not** build an AST: the rule engine works on the
//! token stream plus the extent analysis in [`crate::scan`].

/// What kind of lexeme a token is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`fn`, `HashMap`, `r#type` → `type`).
    Ident,
    /// A single punctuation character (`{`, `:`, `.`, …). Multi-character
    /// operators appear as consecutive tokens on the same line.
    Punct,
    /// A numeric literal (integer part only; `1.5` lexes as `1` `.` `5`).
    Num,
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

/// A `// cosmos-lint: …` comment, captured out-of-band from the token
/// stream (all other comments are discarded).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PragmaComment {
    /// 1-based source line of the comment.
    pub line: u32,
    /// Whether source tokens precede the comment on the same line (a
    /// trailing pragma applies to its own line, a standalone one to the
    /// next line of code).
    pub trailing: bool,
    /// The text after `cosmos-lint:`, trimmed.
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

/// The marker that introduces a pragma comment.
pub const PRAGMA_PREFIX: &str = "cosmos-lint:";

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
                'r' if self.peek(1) == Some('#') && Self::is_ident_start(self.peek(2)) => {
                    // Raw identifier `r#type`: emit the bare name.
                    self.pos += 2;
                    self.ident();
                }
                '\'' => self.char_or_lifetime(),
                c if Self::is_ident_start(Some(c)) => self.ident(),
                c if c.is_ascii_digit() => self.number(),
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
            let trailing = self.out.toks.last().is_some_and(|t| t.line == self.line);
            self.out.pragmas.push(PragmaComment {
                line: self.line,
                trailing,
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

    fn ident(&mut self) {
        let start = self.pos;
        while Self::is_ident_continue(self.peek(0)) {
            self.pos += 1;
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        self.push(TokKind::Ident, text);
    }

    fn number(&mut self) {
        let start = self.pos;
        while matches!(self.peek(0), Some(c) if c.is_alphanumeric() || c == '_') {
            self.pos += 1;
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        self.push(TokKind::Num, text);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
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
        let src = r#"let s = "HashMap<K, V> // cosmos-lint: bogus"; // HashMap"#;
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_string()), "{ids:?}");
        assert!(lex(src).pragmas.is_empty());
    }

    #[test]
    fn raw_strings_with_hashes_and_quotes() {
        let src = "let s = r##\"quote \" and hash# \"# still inside\"##; let after = 1;";
        let ids = idents(src);
        // The `r##` prefix and the body are swallowed whole.
        assert_eq!(ids, vec!["let", "s", "let", "after"]);
        let l = lex(src);
        assert!(l.toks.iter().any(|t| t.kind == TokKind::Str));
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        let ids = idents("let a = b\"bytes HashMap\"; let c = br#\"raw HashMap\"#;");
        assert!(!ids.contains(&"HashMap".to_string()), "{ids:?}");
    }

    #[test]
    fn multiline_string_advances_lines() {
        let l = lex("let s = \"a\nb\nc\";\nlet t = 1;");
        let t = l.toks.iter().find(|t| t.text == "t").expect("t token");
        assert_eq!(t.line, 4);
    }

    #[test]
    fn backslash_newline_continuation_advances_lines() {
        // `"… \` + newline + `…"` is one string over two source lines; the
        // escaped newline must still count or every later token drifts.
        let l = lex("let s = \"first \\\n     second\";\nlet t = 1;");
        let t = l.toks.iter().find(|t| t.text == "t").expect("t token");
        assert_eq!(t.line, 3);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; let s = 'static_ish; }");
        let lifetimes: Vec<_> = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(lifetimes, vec!["a", "a", "static_ish"]);
        assert_eq!(l.toks.iter().filter(|t| t.kind == TokKind::Char).count(), 2);
    }

    #[test]
    fn nested_generics_lex_as_puncts() {
        let l = lex("let m: BTreeMap<u64, Vec<Vec<u8>>> = BTreeMap::new();");
        let gt = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Punct && t.text == ">")
            .count();
        assert_eq!(gt, 3);
    }

    #[test]
    fn nested_block_comments() {
        let ids = idents("/* outer /* inner HashMap */ still comment */ let x = 1;");
        assert_eq!(ids, vec!["let", "x"]);
    }

    #[test]
    fn raw_identifiers_strip_prefix() {
        assert_eq!(idents("let r#type = 1;"), vec!["let", "type"]);
    }

    #[test]
    fn pragma_comments_captured() {
        let src = "\
// cosmos-lint: allow(H1): justified here
let x = 1; // cosmos-lint: hot
// a normal comment mentioning cosmos-lint: inside prose? no — prefix only
";
        let l = lex(src);
        assert_eq!(l.pragmas.len(), 2);
        assert_eq!(l.pragmas[0].line, 1);
        assert!(!l.pragmas[0].trailing);
        assert_eq!(l.pragmas[0].text, "allow(H1): justified here");
        assert_eq!(l.pragmas[1].line, 2);
        assert!(l.pragmas[1].trailing);
        assert_eq!(l.pragmas[1].text, "hot");
    }

    #[test]
    fn doc_comments_are_skipped() {
        // Doc examples regularly call `.unwrap()`; they are test code and
        // must not tokenize.
        let ids = idents("/// let v = m.read(line).unwrap();\nfn real() {}");
        assert_eq!(ids, vec!["fn", "real"]);
    }

    #[test]
    fn floats_and_ranges() {
        let l = lex("let a = 1.5; for i in 0..10 {}");
        // `1.5` lexes as Num Punct Num — fine for the rule engine.
        let nums: Vec<_> = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(nums, vec!["1", "5", "0", "10"]);
    }
}
