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

use cosmos_lint::rules::{analyze_source, Finding};
use cosmos_lint::WorkspaceAnalysis;
use std::collections::BTreeSet;
use std::path::PathBuf;

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()))
}

/// Parses `//~` / `//~v` markers into the expected `(line, rule)` set.
fn expected(src: &str) -> BTreeSet<(u32, String)> {
    let mut out = BTreeSet::new();
    for (i, line) in src.lines().enumerate() {
        let lineno = (i + 1) as u32;
        if let Some(pos) = line.find("//~") {
            let rest = &line[pos + 3..];
            let (target, rules) = match rest.strip_prefix('v') {
                Some(r) => (lineno + 1, r),
                None => (lineno, rest),
            };
            // Only rule-ID-shaped tokens count, so prose that merely
            // *mentions* the marker syntax (doc comments) is inert.
            for rule in rules.split_whitespace() {
                let is_rule_id = rule.len() >= 2
                    && rule.starts_with(|c: char| c.is_ascii_uppercase())
                    && rule[1..].chars().all(|c| c.is_ascii_digit());
                if !is_rule_id {
                    break;
                }
                out.insert((target, rule.to_string()));
            }
        }
    }
    out
}

fn check(fixture_name: &str, virtual_path: &str) -> Vec<Finding> {
    let src = fixture(fixture_name);
    let findings = analyze_source(virtual_path, &src);
    let got: BTreeSet<(u32, String)> = findings.iter().map(|f| (f.line, f.rule.clone())).collect();
    let want = expected(&src);
    if let Some(miss) = want.difference(&got).next() {
        panic!(
            "{fixture_name}: expected {} at line {} but the lint did not fire\n got: {got:?}",
            miss.1, miss.0
        );
    }
    if let Some(extra) = got.difference(&want).next() {
        panic!(
            "{fixture_name}: unexpected {} at line {} (no //~ marker)\n findings: {findings:#?}",
            extra.1, extra.0
        );
    }
    findings
}

/// Multi-file variant: each `(fixture, virtual path)` pair joins one
/// analyzed workspace, and the union of every file's `//~` markers must
/// match the findings exactly — nothing missing, nothing extra, anywhere.
/// Returns the analysis so tests can also assert chains and closures.
fn check_workspace(files: &[(&str, &str)]) -> WorkspaceAnalysis {
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|(name, vpath)| (vpath.to_string(), fixture(name)))
        .collect();
    let wa = cosmos_lint::analyze_workspace(&sources);
    let mut want: BTreeSet<(String, u32, String)> = BTreeSet::new();
    for (vpath, src) in &sources {
        for (line, rule) in expected(src) {
            want.insert((vpath.clone(), line, rule));
        }
    }
    let got: BTreeSet<(String, u32, String)> = wa
        .findings
        .iter()
        .map(|f| (f.path.clone(), f.line, f.rule.clone()))
        .collect();
    assert_eq!(
        got, want,
        "marker/finding mismatch; findings: {:#?}",
        wa.findings
    );
    wa
}

#[test]
fn h1_hot_alloc() {
    check("h1_hot_alloc.rs", "crates/demo/src/lib.rs");
}

#[test]
fn p3_vague_expect() {
    check("p3_vague_expect.rs", "crates/demo/src/lib.rs");
}

#[test]
fn pragma_hygiene() {
    check("pragma_hygiene.rs", "crates/demo/src/lib.rs");
}

#[test]
fn hot_pragma_binds_across_generics_and_where_clauses() {
    check("hot_binding_generics.rs", "crates/demo/src/lib.rs");
}

#[test]
fn workspace_chain_findings_cross_files_with_witnesses() {
    let wa = check_workspace(&[
        ("ws_chain_root.rs", "crates/demo/src/root.rs"),
        ("ws_chain_leaf.rs", "crates/demo/src/leaf.rs"),
    ]);
    let h2 = wa.findings.iter().find(|f| f.rule == "H2").expect("H2");
    assert_eq!(h2.chain, ["access", "stage_one", "stage_two"]);
    let h3 = wa.findings.iter().find(|f| f.rule == "H3").expect("H3");
    assert_eq!(h3.chain, ["access", "stage_one", "stage_two", "guarded"]);
    let h4 = wa.findings.iter().find(|f| f.rule == "H4").expect("H4");
    assert_eq!(h4.chain, ["access", "stage_one", "stage_two", "guarded"]);
    // Recursion terminated and the root is not its own callee.
    let closure = wa
        .hot_closure
        .iter()
        .find(|c| c.root == "access")
        .expect("access closure");
    assert_eq!(closure.reachable, ["guarded", "stage_one", "stage_two"]);
}

#[test]
fn workspace_same_name_candidates_create_no_false_edges() {
    let wa = check_workspace(&[
        ("ws_ambig_root.rs", "crates/demo/src/root.rs"),
        ("ws_ambig_one.rs", "crates/demo/src/one.rs"),
        ("ws_ambig_two.rs", "crates/demo/src/two.rs"),
    ]);
    assert!(wa.findings.is_empty());
    let closure = wa
        .hot_closure
        .iter()
        .find(|c| c.root == "tick")
        .expect("tick closure");
    assert!(closure.reachable.is_empty(), "{:?}", closure.reachable);
}

#[test]
fn workspace_trait_dispatch_fans_out_and_self_calls_resolve() {
    let wa = check_workspace(&[
        ("ws_trait_root.rs", "crates/demo/src/root.rs"),
        ("ws_trait_impls.rs", "crates/demo/src/impls.rs"),
    ]);
    let greedy = wa
        .findings
        .iter()
        .find(|f| f.chain.last().is_some_and(|c| c == "Greedy::pick"))
        .expect("finding inside Greedy::pick");
    assert_eq!(greedy.chain, ["drive", "Greedy::pick"]);
    let seeded = wa
        .findings
        .iter()
        .find(|f| f.chain.last().is_some_and(|c| c == "Seeded::step"))
        .expect("finding inside Seeded::step");
    assert_eq!(seeded.chain, ["drive", "Seeded::pick", "Seeded::step"]);
}

#[test]
fn a_std_name_on_a_field_is_not_a_same_file_call() {
    let wa = check_workspace(&[("ws_std_name_receiver.rs", "crates/demo/src/table.rs")]);
    let reachable = |root: &str| {
        let closure = wa.hot_closure.iter().find(|c| c.root == root);
        closure.expect("a hot root").reachable.clone()
    };
    assert!(reachable("Table::entry").is_empty());
    assert_eq!(reachable("Table::lookup"), ["Table::get"]);
    let h2 = wa.findings.iter().find(|f| f.rule == "H2").expect("H2");
    assert_eq!(h2.chain, ["Table::lookup", "Table::get"]);
}
