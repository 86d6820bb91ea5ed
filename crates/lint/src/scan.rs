//! Extent analysis over the token stream.
//!
//! Rules need context the raw tokens don't carry: is this token inside
//! `#[cfg(test)]` code (exempt from every rule), or inside a function
//! marked `// cosmos-lint: hot` (subject to the H-rules)? This module
//! computes those extents with a brace-matching walk — no AST required.

use crate::pragma::{parse_pragmas, Allow, PragmaError};
use crate::tokenizer::{Lexed, Tok, TokKind};

/// Token-index extents (half-open) of regions with special rule treatment.
#[derive(Clone, Debug, Default)]
pub struct Extents {
    /// Regions under `#[cfg(test)]` / `#[test]` items (token index ranges).
    pub test_spans: Vec<(usize, usize)>,
    /// Bodies of functions annotated `// cosmos-lint: hot`, with the
    /// function name for reporting.
    pub hot_spans: Vec<(usize, usize, String)>,
    /// Line-scoped allow pragmas, resolved to the line they suppress.
    pub allows: Vec<Allow>,
    /// File-scoped allow pragmas.
    pub file_allows: Vec<Allow>,
    /// Malformed pragmas (reported as lint findings themselves).
    pub pragma_errors: Vec<PragmaError>,
}

impl Extents {
    /// Whether the token at `idx` is inside test-only code.
    pub fn in_test(&self, idx: usize) -> bool {
        self.test_spans.iter().any(|&(a, b)| a <= idx && idx < b)
    }

    /// The hot function containing `idx`, if any.
    pub fn hot_fn(&self, idx: usize) -> Option<&str> {
        self.hot_spans
            .iter()
            .find(|&&(a, b, _)| a <= idx && idx < b)
            .map(|(_, _, name)| name.as_str())
    }
}

/// Computes all extents for a lexed file.
pub fn extents(lexed: &Lexed) -> Extents {
    let toks = &lexed.toks;
    let mut ext = Extents::default();

    let parsed = parse_pragmas(lexed, toks);
    ext.allows = parsed.allows;
    ext.file_allows = parsed.file_allows;
    ext.pragma_errors = parsed.errors;

    let mut i = 0usize;
    while i < toks.len() {
        if is_punct(toks, i, "#") && is_punct(toks, i + 1, "[") {
            let (attr_end, is_test_attr) = scan_attribute(toks, i);
            if is_test_attr {
                // Skip any further attributes between this one and the item.
                let mut j = attr_end;
                while is_punct(toks, j, "#") && is_punct(toks, j + 1, "[") {
                    let (next_end, _) = scan_attribute(toks, j);
                    j = next_end;
                }
                let end = item_end(toks, j);
                ext.test_spans.push((i, end));
                i = end;
                continue;
            }
            i = attr_end;
            continue;
        }
        i += 1;
    }

    // Hot pragmas: each marks the next `fn` body at or after its line. A
    // mark that binds nothing is a malformed pragma — it would silently
    // enforce nothing.
    for p in &parsed.hots {
        match next_fn_body(toks, p.line) {
            Some((open, close, name)) => ext.hot_spans.push((open, close, name)),
            None => ext.pragma_errors.push(PragmaError {
                line: p.line,
                message: "`hot` pragma does not precede a function".to_string(),
            }),
        }
    }

    ext
}

pub(crate) fn is_punct(toks: &[Tok], i: usize, s: &str) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokKind::Punct && t.text == s)
}

pub(crate) fn is_ident(toks: &[Tok], i: usize, s: &str) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokKind::Ident && t.text == s)
}

/// Scans the attribute starting at `i` (`#` `[` … `]`); returns the index
/// one past the closing `]` and whether the attribute gates test code
/// (`#[test]`, `#[cfg(test)]`, `#[cfg(all(test, …))]`, `#[cfg_attr(test, …)]`).
fn scan_attribute(toks: &[Tok], i: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut j = i + 1; // at `[`
    let mut has_test = false;
    let mut head: Option<&str> = None;
    while j < toks.len() {
        let t = &toks[j];
        match t.kind {
            TokKind::Punct if t.text == "[" || t.text == "(" => depth += 1,
            TokKind::Punct if t.text == ")" => depth = depth.saturating_sub(1),
            TokKind::Punct if t.text == "]" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            TokKind::Ident => {
                if head.is_none() {
                    head = Some(t.text.as_str());
                }
                if t.text == "test" {
                    has_test = true;
                }
            }
            _ => {}
        }
        j += 1;
    }
    // Only `test`-rooted attributes count: `#[test]` itself, or a `cfg`/
    // `cfg_attr` mentioning `test`. Something like `#[doc = "test"]` has its
    // literal swallowed by the lexer, and `#[tokio::test]`-style attrs also
    // land here harmlessly (still test code).
    let gates_test = match head {
        Some("test") => true,
        Some("cfg") | Some("cfg_attr") => has_test,
        _ => false,
    };
    (j, gates_test)
}

/// The end (one past) of the item starting at token `i`: the matching `}`
/// of its first top-level `{`, or one past the first `;` if that comes
/// first (e.g. `#[cfg(test)] use …;`).
fn item_end(toks: &[Tok], i: usize) -> usize {
    let mut j = i;
    let mut paren = 0i32;
    while j < toks.len() {
        let t = &toks[j];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" => paren += 1,
                ")" => paren -= 1,
                ";" if paren == 0 => return j + 1,
                "{" if paren == 0 => return match_brace(toks, j),
                _ => {}
            }
        }
        j += 1;
    }
    toks.len()
}

/// Given `open` at a `{`, returns one past its matching `}`.
pub(crate) fn match_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < toks.len() {
        if toks[j].kind == TokKind::Punct {
            match toks[j].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
        }
        j += 1;
    }
    toks.len()
}

/// Finds the `{`..`}` body following position `i` (skipping to the first
/// top-level `{`, e.g. past a fn/struct's generics and where clause).
/// Returns `(open, one_past_close)` as token indices, or `None` for
/// `;`-terminated items (tuple/unit structs, trait method declarations).
///
/// Three bracket families are tracked so type-position punctuation is not
/// mistaken for the body or a declaration terminator:
///
/// - `[`/`]` — the `;` of an array type (`-> [f32; 2]`) is part of the
///   type (PR 6's fix);
/// - `(`/`)` — parenthesized bounds (`where T: Fn() -> u64`);
/// - `<`/`>` — generic parameter lists and where clauses. A `{` at angle
///   depth (a const-generic expression such as `<const N: usize>` bounds
///   like `Assert<{ N % 2 }>` or a const argument `Foo<{ LANES }>`) is an
///   *expression*, not the body: it is skipped atomically via
///   [`match_brace`], which also keeps any comparison operators inside it
///   from corrupting the angle depth. The `>` of `->` is part of the arrow
///   and never closes an angle.
pub(crate) fn body_braces(toks: &[Tok], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut angle = 0i32;
    while j < toks.len() {
        let t = &toks[j];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => bracket += 1,
                "]" => bracket -= 1,
                "<" => angle += 1,
                ">" if !is_punct(toks, j.wrapping_sub(1), "-") => {
                    angle = (angle - 1).max(0);
                }
                ";" if paren == 0 && bracket == 0 && angle == 0 => return None,
                "{" => {
                    if paren == 0 && bracket == 0 && angle == 0 {
                        return Some((j, match_brace(toks, j)));
                    }
                    // Const-generic expression braces: skip wholesale.
                    j = match_brace(toks, j);
                    continue;
                }
                _ => {}
            }
        }
        j += 1;
    }
    None
}

/// Finds the first `fn` token at or after `line` and returns its body span
/// and name.
fn next_fn_body(toks: &[Tok], line: u32) -> Option<(usize, usize, String)> {
    let start = toks.iter().position(|t| t.line >= line)?;
    let mut j = start;
    while j < toks.len() {
        if is_ident(toks, j, "fn") {
            let name = toks
                .get(j + 1)
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.clone())
                .unwrap_or_else(|| "<anonymous>".to_string());
            let (open, close) = body_braces(toks, j + 1)?;
            return Some((open, close, name));
        }
        j += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::lex;

    fn ext(src: &str) -> Extents {
        extents(&lex(src))
    }

    #[test]
    fn cfg_test_mod_is_a_test_span() {
        let src = "\
fn real() { let m = 1; }
#[cfg(test)]
mod tests {
    fn helper() {}
}
fn after() {}
";
        let l = lex(src);
        let e = extents(&l);
        assert_eq!(e.test_spans.len(), 1);
        let helper = l
            .toks
            .iter()
            .position(|t| t.text == "helper")
            .expect("helper");
        let real = l.toks.iter().position(|t| t.text == "real").expect("real");
        let after = l
            .toks
            .iter()
            .position(|t| t.text == "after")
            .expect("after");
        assert!(e.in_test(helper));
        assert!(!e.in_test(real));
        assert!(!e.in_test(after));
    }

    #[test]
    fn test_attr_fn_is_a_test_span() {
        let e = ext("#[test]\nfn t() { body(); }\nfn u() {}");
        assert_eq!(e.test_spans.len(), 1);
    }

    #[test]
    fn cfg_test_with_more_attrs_between() {
        let l = lex("#[cfg(test)]\n#[allow(dead_code)]\nmod t { fn inner() {} }");
        let e = extents(&l);
        let inner = l
            .toks
            .iter()
            .position(|t| t.text == "inner")
            .expect("inner");
        assert!(e.in_test(inner));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_span() {
        let e = ext("#[cfg(feature = \"x\")]\nfn f() {}");
        assert!(e.test_spans.is_empty());
        // NB: the `\"x\"` literal is swallowed by the lexer, so a feature
        // literally named test would be indistinguishable — acceptable
        // over-approximation documented in the rule catalogue.
    }

    #[test]
    fn hot_pragma_marks_next_fn_body() {
        let src = "\
// cosmos-lint: hot
pub fn access(&mut self, x: u64) -> bool {
    inner();
    true
}
fn cold() { other(); }
";
        let l = lex(src);
        let e = extents(&l);
        assert_eq!(e.hot_spans.len(), 1);
        assert_eq!(e.hot_spans[0].2, "access");
        let inner = l
            .toks
            .iter()
            .position(|t| t.text == "inner")
            .expect("inner");
        let other = l
            .toks
            .iter()
            .position(|t| t.text == "other")
            .expect("other");
        assert_eq!(e.hot_fn(inner), Some("access"));
        assert_eq!(e.hot_fn(other), None);
    }

    #[test]
    fn hot_pragma_binds_through_array_return_type() {
        // The `;` inside `-> [f32; 2]` must not read as a bodiless
        // declaration terminator.
        let src = "\
// cosmos-lint: hot
pub fn pair(&self, state: usize) -> [f32; 2] {
    inner();
    [0.0, 0.0]
}
";
        let l = lex(src);
        let e = extents(&l);
        assert_eq!(e.hot_spans.len(), 1);
        assert_eq!(e.hot_spans[0].2, "pair");
        let inner = l
            .toks
            .iter()
            .position(|t| t.text == "inner")
            .expect("inner");
        assert_eq!(e.hot_fn(inner), Some("pair"));
    }

    #[test]
    fn hot_pragma_binds_through_where_clause_const_braces() {
        // The `{ N % 2 }` in the where clause is a const-generic
        // expression, not the fn body; the hot span must be the real body.
        let src = "\
// cosmos-lint: hot
pub fn lanes<const N: usize>(&self) -> u32
where
    Assert<{ N % 2 }>: Sized,
{
    inner();
    0
}
";
        let l = lex(src);
        let e = extents(&l);
        assert_eq!(e.hot_spans.len(), 1);
        assert_eq!(e.hot_spans[0].2, "lanes");
        let inner = l
            .toks
            .iter()
            .position(|t| t.text == "inner")
            .expect("inner");
        assert_eq!(e.hot_fn(inner), Some("lanes"));
    }

    #[test]
    fn hot_pragma_binds_through_generic_list_const_braces() {
        // Same gap in the generic parameter list itself: a const argument
        // expression in braces precedes the body.
        let src = "\
// cosmos-lint: hot
pub fn widen(&self, x: Simd<u8, { LANES * 2 }>) -> u64 {
    inner();
    0
}
";
        let l = lex(src);
        let e = extents(&l);
        assert_eq!(e.hot_spans.len(), 1);
        assert_eq!(e.hot_spans[0].2, "widen");
        let inner = l
            .toks
            .iter()
            .position(|t| t.text == "inner")
            .expect("inner");
        assert_eq!(e.hot_fn(inner), Some("widen"));
    }

    #[test]
    fn plain_where_clause_still_binds() {
        let src = "\
// cosmos-lint: hot
pub fn merge<T>(&mut self, other: T) -> u64
where
    T: IntoIterator<Item = [u64; 2]>,
{
    inner();
    0
}
";
        let l = lex(src);
        let e = extents(&l);
        assert_eq!(e.hot_spans.len(), 1);
        let inner = l
            .toks
            .iter()
            .position(|t| t.text == "inner")
            .expect("inner");
        assert_eq!(e.hot_fn(inner), Some("merge"));
    }
}
