//! The `// cosmos-lint:` pragma grammar.
//!
//! Three forms are accepted:
//!
//! - `// cosmos-lint: hot` — marks the next `fn` as a hot-path function;
//!   the H-rules apply to its body.
//! - `// cosmos-lint: allow(R1, R2): <justification>` — suppresses the
//!   named rules on this line (trailing comment) or the next line of code
//!   (standalone comment). The justification is **required**: an allow
//!   without one is itself a finding (rule L1).
//! - `// cosmos-lint: allow-file(R1): <justification>` — suppresses the
//!   named rules for the whole file (e.g. a checked-mode diagnostic module
//!   that hot code calls only when checking is on).
//!
//! Anything else after `cosmos-lint:` is a malformed pragma (L1): silent
//! typos must not silently disable enforcement.

use crate::tokenizer::{Lexed, PragmaComment, Tok};

/// Minimum justification length; single-word hand-waves ("ok", "fine")
/// don't document an invariant.
pub const MIN_JUSTIFICATION: usize = 10;

/// A resolved `allow` pragma.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Allow {
    /// Rule ids this allow names (upper-cased, e.g. `H2`).
    pub rules: Vec<String>,
    /// The source line the suppression applies to (resolved: trailing
    /// pragmas apply to their own line, standalone ones to the next line
    /// bearing code). For `allow-file` this is the pragma's own line.
    pub line: u32,
    /// The required justification text.
    pub justification: String,
    /// Whether this allow has suppressed at least one finding (filled in
    /// by the rule engine; unused allows are themselves findings, L2).
    pub used: bool,
}

/// A malformed pragma, reported as an L1 finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PragmaError {
    /// Source line of the offending comment.
    pub line: u32,
    /// What is wrong with it.
    pub message: String,
}

/// A `hot` marker pragma.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HotMark {
    /// Source line of the comment; the next `fn` at or after this line is
    /// the hot function.
    pub line: u32,
}

/// All pragmas of a file, parsed and line-resolved.
#[derive(Clone, Debug, Default)]
pub struct ParsedPragmas {
    /// Line-scoped allows.
    pub allows: Vec<Allow>,
    /// File-scoped allows.
    pub file_allows: Vec<Allow>,
    /// Hot-function markers.
    pub hots: Vec<HotMark>,
    /// Malformed pragmas.
    pub errors: Vec<PragmaError>,
}

/// Parses every pragma comment of `lexed`, resolving standalone allows to
/// the next code-bearing line using the token stream.
pub fn parse_pragmas(lexed: &Lexed, toks: &[Tok]) -> ParsedPragmas {
    let mut out = ParsedPragmas::default();
    for p in &lexed.pragmas {
        parse_one(p, toks, &mut out);
    }
    out
}

fn parse_one(p: &PragmaComment, toks: &[Tok], out: &mut ParsedPragmas) {
    let text = p.text.trim();
    if text == "hot" {
        if p.trailing {
            out.errors.push(PragmaError {
                line: p.line,
                message: "`hot` must be a standalone comment on the line before the fn".to_string(),
            });
        } else {
            out.hots.push(HotMark { line: p.line });
        }
        return;
    }
    let file_scoped = text.starts_with("allow-file(");
    if let Some(rest) = text
        .strip_prefix("allow-file(")
        .or_else(|| text.strip_prefix("allow("))
    {
        let Some(close) = rest.find(')') else {
            out.errors.push(PragmaError {
                line: p.line,
                message: "unclosed rule list in allow pragma".to_string(),
            });
            return;
        };
        let rules: Vec<String> = rest[..close]
            .split(',')
            .map(|r| r.trim().to_ascii_uppercase())
            .filter(|r| !r.is_empty())
            .collect();
        if rules.is_empty() {
            out.errors.push(PragmaError {
                line: p.line,
                message: "allow pragma names no rules".to_string(),
            });
            return;
        }
        let after = rest[close + 1..].trim_start();
        let Some(justification) = after.strip_prefix(':').map(str::trim) else {
            out.errors.push(PragmaError {
                line: p.line,
                message: "allow pragma requires `: <justification>`".to_string(),
            });
            return;
        };
        if justification.len() < MIN_JUSTIFICATION {
            out.errors.push(PragmaError {
                line: p.line,
                message: format!(
                    "allow justification must be at least {MIN_JUSTIFICATION} characters \
                     (got {:?})",
                    justification
                ),
            });
            return;
        }
        let allow = Allow {
            rules,
            line: if file_scoped {
                p.line
            } else {
                effective_line(p, toks)
            },
            justification: justification.to_string(),
            used: false,
        };
        if file_scoped {
            out.file_allows.push(allow);
        } else {
            out.allows.push(allow);
        }
        return;
    }
    out.errors.push(PragmaError {
        line: p.line,
        message: format!(
            "unrecognized pragma {:?} (expected `hot`, `allow(..): ..`, or \
             `allow-file(..): ..`)",
            text
        ),
    });
}

/// The line a line-scoped allow suppresses: its own line for a trailing
/// comment, else the first following line that bears a token.
fn effective_line(p: &PragmaComment, toks: &[Tok]) -> u32 {
    if p.trailing {
        return p.line;
    }
    toks.iter()
        .map(|t| t.line)
        .find(|&l| l > p.line)
        .unwrap_or(p.line + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::lex;

    fn parse(src: &str) -> ParsedPragmas {
        let l = lex(src);
        parse_pragmas(&l, &l.toks)
    }

    #[test]
    fn standalone_allow_targets_next_code_line() {
        let p = parse(
            "// cosmos-lint: allow(H2): warm-up only, never per access\nlet v = x.to_vec();\n",
        );
        assert_eq!(p.allows.len(), 1);
        assert_eq!(p.allows[0].line, 2);
        assert_eq!(p.allows[0].rules, vec!["H2"]);
    }

    #[test]
    fn trailing_allow_targets_own_line() {
        let p = parse("let v = x.to_vec(); // cosmos-lint: allow(H1): warm-up only branch\n");
        assert_eq!(p.allows[0].line, 1);
    }

    #[test]
    fn multi_rule_allow() {
        let p = parse("// cosmos-lint: allow(h2, h4): two rules, one justification\nx();\n");
        assert_eq!(p.allows[0].rules, vec!["H2", "H4"]);
    }

    #[test]
    fn allow_file_is_file_scoped() {
        let p = parse("// cosmos-lint: allow-file(H2): checked-mode diagnostics only\n");
        assert_eq!(p.file_allows.len(), 1);
        assert!(p.allows.is_empty());
    }

    #[test]
    fn missing_justification_is_an_error() {
        assert_eq!(parse("// cosmos-lint: allow(H1)\nx();\n").errors.len(), 1);
        assert_eq!(parse("// cosmos-lint: allow(H1):\nx();\n").errors.len(), 1);
        assert_eq!(
            parse("// cosmos-lint: allow(H1): short\nx();\n")
                .errors
                .len(),
            1
        );
    }

    #[test]
    fn unknown_pragma_is_an_error() {
        let p = parse("// cosmos-lint: alow(H1): typo'd keyword here\nx();\n");
        assert_eq!(p.errors.len(), 1);
    }

    #[test]
    fn trailing_hot_is_an_error() {
        let p = parse("fn f() {} // cosmos-lint: hot\n");
        assert_eq!(p.errors.len(), 1);
        assert!(p.hots.is_empty());
    }
}
