//! Fixture-driven rule tests.
//!
//! Each file under `fixtures/` is analyzed under a declared virtual path
//! and must produce *exactly* the findings its `//~` markers declare:
//!
//! - `code(); //~ R1 R2` — expect rules R1 and R2 on this line;
//! - `//~v R1` on its own line — expect R1 on the next line (for lines
//!   that are themselves pragma comments and cannot carry a marker).
//!
//! Both directions are asserted: an unexpected finding fails, and a marker
//! with no finding fails. Fixtures live outside `src/` so the workspace
//! walk never lints them.

use cosmos_lint::rules::analyze_source;
use std::collections::BTreeSet;
use std::path::PathBuf;

/// Parses `//~` / `//~v` markers into the expected `(line, rule)` set.
/// Only rule-ID-shaped words count, so prose that merely *mentions* the
/// marker syntax (doc comments) is inert.
fn expected(src: &str) -> BTreeSet<(u32, String)> {
    let mut out = BTreeSet::new();
    for (i, line) in src.lines().enumerate() {
        let Some((_, rest)) = line.split_once("//~") else {
            continue;
        };
        let (target, rules) = match rest.strip_prefix('v') {
            Some(r) => (i as u32 + 2, r),
            None => (i as u32 + 1, rest),
        };
        let is_rule_id = |w: &&str| {
            w.len() >= 2
                && w.starts_with(|c: char| c.is_ascii_uppercase())
                && w[1..].chars().all(|c| c.is_ascii_digit())
        };
        for rule in rules.split_whitespace().take_while(is_rule_id) {
            out.insert((target, rule.to_string()));
        }
    }
    out
}

fn check(fixture_name: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(fixture_name);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()));
    let findings = analyze_source("crates/demo/src/lib.rs", &src);
    let got: BTreeSet<(u32, String)> = findings
        .iter()
        .map(|f| (f.line, f.rule.to_string()))
        .collect();
    assert_eq!(
        got,
        expected(&src),
        "{fixture_name}: findings {findings:#?}"
    );
}

#[test]
fn p3_vague_expect() {
    check("p3_vague_expect.rs");
}

#[test]
fn retired_pragmas_are_findings() {
    check("retired_pragmas.rs");
}
