//! Injected-bug tests: the lint must catch each class of regression it
//! exists for when that regression is planted into the *real* workspace
//! sources. These are end-to-end proofs against drift — if a rule's
//! matcher or the call-graph resolver rots, the corresponding injection
//! stops firing and the test fails.
//!
//! Each test loads the committed sources through the same walker the CLI
//! uses, mutates one file in memory, and asserts the expected finding —
//! and *only* that finding, since the committed workspace is lint-zero.

use cosmos_lint::rules::{analyze_file, Finding};
use std::path::PathBuf;

/// Reads the committed workspace sources as `(relative path, text)`
/// pairs, exactly as the CLI's walker orders them.
fn sources() -> Vec<(String, String)> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("crates/lint sits two levels under the workspace root")
        .to_path_buf();
    let files = cosmos_lint::workspace_files(&root).expect("walk workspace sources");
    files
        .iter()
        .map(|p| {
            (
                cosmos_lint::relative_label(&root, p),
                std::fs::read_to_string(p).expect("read workspace source"),
            )
        })
        .collect()
}

fn findings_for(sources: &[(String, String)]) -> Vec<Finding> {
    cosmos_lint::analyze_workspace(sources).findings
}

#[test]
fn real_workspace_is_lint_clean() {
    let wa = cosmos_lint::analyze_workspace(&sources());
    assert!(
        wa.findings.is_empty(),
        "committed workspace must stay lint-zero: {:#?}",
        wa.findings
    );
    assert!(
        wa.hot_closure.len() >= 10,
        "hot roots went missing: {}",
        wa.hot_closure.len()
    );
}

#[test]
fn injected_allocation_two_calls_below_cache_access_is_h2() {
    let mut sources = sources();
    let path = "crates/cache/src/cache.rs";

    // Find Cache::access's body-open line via the lint's own symbol table,
    // then splice a call to an injected two-deep chain right after it.
    let (_, src) = sources.iter().find(|(p, _)| p == path).expect("cache.rs");
    let fa = analyze_file(path, src);
    let access = fa
        .symbols
        .fns
        .iter()
        .find(|f| f.name == "access" && f.owner.as_deref() == Some("Cache"))
        .expect("Cache::access in the symbol table");
    assert!(access.hot, "Cache::access must be a hot root");
    let open_line = fa.lexed.toks[access.body.0].line as usize;

    let (_, src) = sources
        .iter_mut()
        .find(|(p, _)| p == path)
        .expect("cache.rs");
    let mut lines: Vec<&str> = src.lines().collect();
    lines.insert(open_line, "        cosmos_lint_injected_mid();");
    let mut patched = lines.join("\n");
    patched.push_str(
        "\nfn cosmos_lint_injected_mid() {\n    cosmos_lint_injected_leaf();\n}\n\
         fn cosmos_lint_injected_leaf() {\n    let scratch = Vec::<u8>::with_capacity(4);\n    \
         drop(scratch);\n}\n",
    );
    *src = patched;

    let findings = findings_for(&sources);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    let f = &findings[0];
    assert_eq!(f.rule, "H2");
    assert_eq!(f.path, path);
    assert!(
        f.message.contains("cosmos_lint_injected_leaf"),
        "{}",
        f.message
    );
    assert_eq!(
        f.chain,
        [
            "Cache::access",
            "cosmos_lint_injected_mid",
            "cosmos_lint_injected_leaf"
        ],
        "H2 must carry the witness chain from the hot root"
    );
}
