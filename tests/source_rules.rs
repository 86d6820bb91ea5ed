//! The two source rules clippy cannot express (DESIGN.md §12 and §17),
//! over each crate's `src/**/*.rs` and the root package's `src/**/*.rs`:
//!
//! - **P3**: an `.expect("…")` message says why the call cannot fail: at
//!   least [`MIN_EXPECT_MESSAGE`] bytes and a space. Items under `#[test]`,
//!   `#[cfg(test)]`, `#[cfg(all(test, …))]` or `#[cfg_attr(test, …)]` are
//!   exempt; a non-literal argument is not judged.
//! - **X1**: no line comment starts with the retired pragma marker.
//!
//! The lexer skips comments, string and char literals (raw ones included)
//! and lifetimes, so rule text inside them is inert.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Minimum byte length of an `expect` message (P3); it also needs a space.
const MIN_EXPECT_MESSAGE: usize = 10;

/// The retired pragma marker, in two pieces so this file does not carry it.
const PRAGMA: &str = concat!("cosmos-lint", ":");

/// `(line, rule)` pairs: at most one per rule and line, sorted.
type Findings = BTreeSet<(u32, String)>;

/// `(line, text)`: a word, one punctuation character, or `"` + a string's raw content.
type Tok = (u32, String);

/// Lexes `src` into tokens; a pragma comment is recorded as X1.
fn lex(src: &str, findings: &mut Findings) -> Vec<Tok> {
    let c: Vec<char> = src.chars().collect();
    let at = |i: usize| c.get(i).copied().unwrap_or('\0');
    let run = |i: usize, f: &dyn Fn(char) -> bool| c.iter().skip(i).take_while(|&&x| f(x)).count();
    let word = |x: char| x.is_alphanumeric() || x == '_';
    let (mut i, mut line, mut toks) = (0, 1, Vec::new());
    while i < c.len() {
        let start = i;
        // A string's prefix (`b`, `r`, `br`) and, when raw, its `#`s.
        let prefix = match (c[i], at(i + 1)) {
            ('b', 'r') => 2,
            ('b' | 'r', _) => 1,
            _ => 0,
        };
        let raw = prefix > 0 && at(i + prefix - 1) == 'r';
        let hashes = run(i + prefix, &|x| raw && x == '#');
        let open = i + prefix + hashes + 1;
        if at(open - 1) == '"' {
            i = open;
            while i < c.len() && !(c[i] == '"' && (1..=hashes).all(|h| at(i + h) == '#')) {
                i += if c[i] == '\\' && !raw { 2 } else { 1 };
            }
            let text: String = c[open..i.min(c.len())].iter().collect();
            toks.push((line, format!("\"{text}")));
            i += 1 + hashes;
        } else if c[i] == '/' && at(i + 1) == '/' {
            i += run(i, &|x| x != '\n');
            let text: String = c[start..i].iter().collect();
            let body = text.trim_start_matches('/').trim_start_matches('!');
            if body.trim_start().starts_with(PRAGMA) {
                findings.insert((line, "X1".into()));
            }
        } else if c[i] == '/' && at(i + 1) == '*' {
            let mut depth = 0;
            while i < c.len() && (depth > 0 || i == start) {
                match (c[i], at(i + 1)) {
                    ('/', '*') => (depth, i) = (depth + 1, i + 2),
                    ('*', '/') => (depth, i) = (depth - 1, i + 2),
                    _ => i += 1,
                }
            }
        } else if c[i] == '\'' {
            i += match (at(i + 1), at(i + 2)) {
                ('\\', _) => 4 + run(i + 3, &|x| x != '\''),
                (_, '\'') => 3,
                _ => 1 + run(i + 1, &word), // a lifetime
            };
        } else if word(c[i]) {
            i += run(i, &word);
            toks.push((line, c[start..i].iter().collect()));
        } else {
            if !c[i].is_whitespace() {
                toks.push((line, c[i].to_string()));
            }
            i += 1;
        }
        let span = &c[start..i.min(c.len())];
        line += span.iter().filter(|&&x| x == '\n').count() as u32;
    }
    toks
}

/// One past the item starting at token `from`: the `}` closing its first
/// top-level `{`, or a top-level `;` before any (`#[cfg(test)] use …;`).
fn item_end(toks: &[Tok], from: usize) -> usize {
    let (mut paren, mut brace) = (0, 0);
    for (j, (_, t)) in toks.iter().enumerate().skip(from) {
        match t.as_str() {
            "(" => paren += 1,
            ")" => paren -= 1,
            ";" if paren == 0 && brace == 0 => return j + 1,
            "{" => brace += 1,
            "}" if brace == 1 && paren == 0 => return j + 1,
            "}" => brace -= 1,
            _ => {}
        }
    }
    toks.len()
}

/// Every P3 and X1 finding in one file's source.
fn analyze(src: &str) -> Findings {
    let mut findings = Findings::new();
    let toks = lex(src, &mut findings);
    let text = |j: usize| toks.get(j).map_or("", |t| t.1.as_str());
    let (mut i, mut attribute_end) = (0, 0);
    while i < toks.len() {
        if i >= attribute_end && text(i) == "#" && text(i + 1) == "[" {
            let mut depth = 0;
            let close = (i + 1..toks.len()).find(|&j| {
                depth += i32::from(text(j) == "[") - i32::from(text(j) == "]");
                depth == 0
            });
            attribute_end = close.map_or(toks.len(), |j| j + 1);
            let names_test = (i + 3..attribute_end).any(|j| text(j) == "test");
            if text(i + 2) == "test" || matches!(text(i + 2), "cfg" | "cfg_attr") && names_test {
                // Further attributes are balanced and skipped with the item.
                i = item_end(&toks, attribute_end);
                continue;
            }
        }
        let expect_call =
            text(i) == "expect" && text(i.wrapping_sub(1)) == "." && text(i + 1) == "(";
        let msg = text(i + 2).strip_prefix('"').filter(|_| expect_call);
        if msg.is_some_and(|m| m.len() < MIN_EXPECT_MESSAGE || !m.contains(' ')) {
            findings.insert((toks[i].0, "P3".into()));
        }
        i += 1;
    }
    findings
}

#[test]
fn workspace_sources_have_no_p3_or_x1_finding() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates = std::fs::read_dir(root.join("crates")).expect("the workspace has crates/");
    let mut dirs: Vec<PathBuf> = crates.map(|m| m.expect("crates/ lists").path()).collect();
    dirs.iter_mut().for_each(|member| member.push("src"));
    dirs.push(root.join("src"));
    let mut files = Vec::new();
    while let Some(dir) = dirs.pop() {
        // A member without `src/` has nothing to scan.
        for entry in std::fs::read_dir(&dir).into_iter().flatten() {
            let path = entry.expect("a source directory entry reads").path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    let reached = ["src/lib.rs", "crates/cache/src/policies/lru.rs"];
    assert!(reached.iter().all(|f| files.contains(&root.join(f))));
    files.sort();
    let mut report = String::new();
    for path in &files {
        let src = std::fs::read_to_string(path).expect("a workspace source reads as UTF-8");
        for (line, rule) in analyze(&src) {
            let label = path.strip_prefix(root).unwrap_or(path).display();
            report += &format!("{label}:{line}: [{rule}]\n");
        }
    }
    assert!(
        report.is_empty(),
        "P3/X1 findings (DESIGN.md §12):\n{report}"
    );
}

/// The findings a fixture's markers declare: `//~ R1 R2` expects rules R1
/// and R2 on its line, `//~v R1` expects R1 on the next line. Only
/// rule-ID-shaped words (`P3`) count, so prose about the markers is inert.
fn expected(src: &str) -> Findings {
    let mut out = Findings::new();
    for (line, text) in (1u32..).zip(src.lines()) {
        let Some((_, rest)) = text.split_once("//~") else {
            continue;
        };
        let (target, rest) = rest
            .strip_prefix('v')
            .map_or((line, rest), |r| (line + 1, r));
        let rule_id = |w: &&str| match w.as_bytes() {
            [b'A'..=b'Z', b'0'..=b'9', rest @ ..] => rest.iter().all(u8::is_ascii_digit),
            _ => false,
        };
        let rules = rest.split_whitespace().take_while(rule_id);
        out.extend(rules.map(|r| (target, r.into())));
    }
    out
}

/// Each fixture under `tests/source_rules/` (not compiled), read as if it
/// were `crates/demo/src/lib.rs`, yields exactly the findings its markers
/// declare: none missing, none extra.
#[test]
fn fixtures_yield_exactly_their_marked_findings() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/source_rules");
    for name in ["p3_vague_expect.rs", "retired_pragmas.rs"] {
        let src = std::fs::read_to_string(dir.join(name)).expect("the fixture reads as UTF-8");
        let (got, want) = (analyze(&src), expected(&src));
        assert_eq!(got, want, "{name} as crates/demo/src/lib.rs");
    }
}
