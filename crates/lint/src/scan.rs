//! Test-span analysis over the token stream.
//!
//! P3 exempts test code: tokens inside an item gated by `#[cfg(test)]` or
//! `#[test]`. This module finds those items with a brace-matching walk;
//! no AST required.

use crate::tokenizer::{Tok, TokKind};

/// The token-index ranges (half-open) of the items under `#[cfg(test)]`
/// or `#[test]`.
pub fn test_spans(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if is_punct(toks, i, "#") && is_punct(toks, i + 1, "[") {
            let (attr_end, is_test_attr) = scan_attribute(toks, i);
            if is_test_attr {
                // Skip any further attributes between this one and the item.
                let mut j = attr_end;
                while is_punct(toks, j, "#") && is_punct(toks, j + 1, "[") {
                    j = scan_attribute(toks, j).0;
                }
                let end = item_end(toks, j);
                spans.push((i, end));
                i = end;
                continue;
            }
            i = attr_end;
            continue;
        }
        i += 1;
    }
    spans
}

pub(crate) fn is_punct(toks: &[Tok], i: usize, s: &str) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokKind::Punct && t.text == s)
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

/// The end (one past) of the item starting at token `i`: the `}` that
/// closes its first top-level `{`, or the first top-level `;` before any
/// (e.g. `#[cfg(test)] use …;`).
fn item_end(toks: &[Tok], i: usize) -> usize {
    let (mut paren, mut brace) = (0i32, 0i32);
    for (j, t) in toks.iter().enumerate().skip(i) {
        match (t.kind == TokKind::Punct).then_some(t.text.as_str()) {
            Some("(") => paren += 1,
            Some(")") => paren -= 1,
            Some(";") if paren == 0 && brace == 0 => return j + 1,
            Some("{") => brace += 1,
            Some("}") => {
                brace -= 1;
                if brace == 0 && paren == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
    }
    toks.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::lex;

    /// The identifiers of `src` that lie inside a test span.
    fn in_test(src: &str) -> Vec<String> {
        let toks = lex(src).toks;
        let spans = test_spans(&toks);
        toks.iter()
            .enumerate()
            .filter(|(i, t)| {
                t.kind == TokKind::Ident && spans.iter().any(|s| s.0 <= *i && *i < s.1)
            })
            .map(|(_, t)| t.text.clone())
            .collect()
    }

    #[test]
    fn test_gated_items_are_test_spans() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn after() {}\n";
        assert_eq!(
            in_test(src),
            ["cfg", "test", "mod", "tests", "fn", "helper"]
        );
        assert_eq!(
            in_test("#[test]\nfn t() { body(); }\nfn u() {}"),
            ["test", "fn", "t", "body"]
        );
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod t { fn inner() {} }";
        assert!(in_test(src).contains(&"inner".to_string()));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_span() {
        // The `"x"` literal is swallowed by the lexer, so a feature named
        // test would read as test code: an accepted over-approximation.
        assert!(in_test("#[cfg(feature = \"x\")]\nfn f() {}").is_empty());
    }
}
