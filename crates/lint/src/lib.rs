//! # cosmos-lint
//!
//! An in-tree static analyzer for the simulator invariants clippy cannot
//! see: an allocation-, lock- and panic-free simulation hot path,
//! including everything the `// cosmos-lint: hot` functions transitively
//! call across crates, plus `expect` messages that state an invariant.
//! The token-local determinism, stat-integrity and panic rules are clippy
//! lints configured in the workspace's `clippy.toml` and denied by
//! `scripts/check.sh`. See [`rules::RULES`] for the catalogue and DESIGN.md
//! §12/§17 for the rationale, pragma grammar, and the whole-workspace
//! analysis architecture.
//!
//! Zero registry dependencies, zero `syn`: a ~300-line tokenizer
//! ([`tokenizer`]) plus brace-matching extent analysis ([`scan`]) and a
//! token-pattern symbol table ([`symbols`]) are enough lexical fidelity
//! for every rule, in the same in-tree philosophy as `cosmos_common::json`
//! and the vendored proptest stub. The lint runs over its own sources like
//! any other crate.
//!
//! Analysis is two-pass: pass 1 is per-file (token-local rules + symbol
//! extraction); pass 2 builds the workspace call graph ([`graph`]) and
//! checks the hot-path closure. The report is a pure function of the
//! sources, so the committed JSON copy is byte-identical across runs.

pub mod graph;
pub mod pragma;
pub mod rules;
pub mod scan;
pub mod symbols;
pub mod tokenizer;

use cosmos_common::json::{json, Map, Value};
pub use graph::RootClosure;
use rules::{FileAnalysis, Finding, RULES};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// The outcome of the whole-workspace analysis.
#[derive(Clone, Debug, Default)]
pub struct WorkspaceAnalysis {
    /// Final findings (pragma-suppressed, L-rules folded in), sorted by
    /// (path, line, rule).
    pub findings: Vec<Finding>,
    /// Every hot root's transitive callee set.
    pub hot_closure: Vec<RootClosure>,
}

/// The outcome of a lint run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Findings that no pragma suppressed — these fail the gate.
    pub findings: Vec<Finding>,
    /// Number of files analyzed.
    pub files_scanned: usize,
    /// Every hot root's transitive callee set.
    pub hot_closure: Vec<RootClosure>,
}

impl Report {
    /// Whether the run passes (no findings).
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Per-rule finding counts (every catalogue rule, zeros included).
    pub fn counts(&self) -> BTreeMap<&'static str, usize> {
        let mut c: BTreeMap<&'static str, usize> = RULES.iter().map(|r| (r.id, 0)).collect();
        for f in &self.findings {
            if let Some(n) = c.get_mut(f.rule.as_str()) {
                *n += 1;
            }
        }
        c
    }

    /// Total number of distinct functions on the hot-path closure
    /// (union over roots, roots themselves included).
    pub fn closure_size(&self) -> usize {
        let mut names: Vec<&str> = self
            .hot_closure
            .iter()
            .flat_map(|c| {
                c.reachable
                    .iter()
                    .map(String::as_str)
                    .chain(std::iter::once(c.root.as_str()))
            })
            .collect();
        names.sort_unstable();
        names.dedup();
        names.len()
    }

    /// The human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.render());
            out.push('\n');
            if !f.excerpt.is_empty() {
                out.push_str("    | ");
                out.push_str(&f.excerpt);
                out.push('\n');
            }
        }
        out.push_str(&format!(
            "cosmos-lint: {} file(s), {} hot root(s) ({} fn(s) on the closure), \
             {} finding(s){}\n",
            self.files_scanned,
            self.hot_closure.len(),
            self.closure_size(),
            self.findings.len(),
            if self.clean() { " — clean" } else { "" }
        ));
        out
    }

    /// The machine-readable report (schema `cosmos-lint-report-v3`).
    pub fn to_json(&self) -> Value {
        let findings: Vec<Value> = self
            .findings
            .iter()
            .map(|f| {
                let chain: Vec<Value> = f.chain.iter().map(|c| json!(c.as_str())).collect();
                json!({
                    "rule": f.rule.as_str(),
                    "path": f.path.as_str(),
                    "line": f.line,
                    "message": f.message.as_str(),
                    "excerpt": f.excerpt.as_str(),
                    "chain": (Value::Array(chain)),
                })
            })
            .collect();
        let mut counts = Map::new();
        for (id, n) in self.counts() {
            counts.insert(id, json!(n));
        }
        let hot_closure: Vec<Value> = self
            .hot_closure
            .iter()
            .map(|c| {
                let reachable: Vec<Value> = c.reachable.iter().map(|r| json!(r.as_str())).collect();
                json!({
                    "root": c.root.as_str(),
                    "path": c.path.as_str(),
                    "line": c.line,
                    "reachable": (Value::Array(reachable)),
                })
            })
            .collect();
        let rules: Vec<Value> = RULES
            .iter()
            .map(|r| json!({"id": r.id, "name": r.name, "summary": r.summary}))
            .collect();
        json!({
            "schema": "cosmos-lint-report-v3",
            "files_scanned": self.files_scanned,
            "clean": self.clean(),
            "counts": counts,
            "findings": findings,
            "hot_closure": (Value::Array(hot_closure)),
            "rules": rules,
        })
    }
}

/// Runs the full two-pass analysis over in-memory sources. `files` are
/// `(workspace-relative path, source)` pairs; order defines report order.
pub fn analyze_workspace(files: &[(String, String)]) -> WorkspaceAnalysis {
    let mut fas: Vec<FileAnalysis> = files
        .iter()
        .map(|(p, s)| rules::analyze_file(p, s))
        .collect();

    // Pass 2: call-graph closure rules, then per-file pragma suppression
    // and the L-rules.
    let g = graph::build(&fas);
    let hot_closure = graph::closures(&g, &fas);
    let pass2 = graph::check(&g, &fas);

    // Distribute pass-2 findings to the file whose pragmas govern them.
    let index: BTreeMap<&str, usize> = fas
        .iter()
        .enumerate()
        .map(|(i, f)| (f.path.as_str(), i))
        .collect();
    let mut per_file: Vec<Vec<Finding>> = vec![Vec::new(); fas.len()];
    for f in pass2 {
        if let Some(&i) = index.get(f.path.as_str()) {
            per_file[i].push(f);
        }
    }

    let mut findings: Vec<Finding> = Vec::new();
    for (fa, p2) in fas.iter_mut().zip(per_file) {
        findings.extend(rules::finish_file(fa, p2));
    }
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule.as_str()).cmp(&(b.path.as_str(), b.line, b.rule.as_str()))
    });
    WorkspaceAnalysis {
        findings,
        hot_closure,
    }
}

/// Collects the workspace source set: `crates/*/src/**/*.rs` plus the root
/// package's `src/**/*.rs`, sorted for deterministic reports (directory
/// enumeration order is OS-dependent).
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<PathBuf> = std::fs::read_dir(&crates)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        members.sort();
        for m in members {
            let src = m.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut files)?;
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// The workspace-relative forward-slash rendering of `path` used in
/// findings.
pub fn relative_label(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let mut s = String::new();
    for c in rel.components() {
        if !s.is_empty() {
            s.push('/');
        }
        s.push_str(&c.as_os_str().to_string_lossy());
    }
    s
}

/// Lints every workspace source under `root` ([`workspace_files`]).
pub fn run(root: &Path) -> io::Result<Report> {
    let mut sources: Vec<(String, String)> = Vec::new();
    for path in workspace_files(root)? {
        let src = std::fs::read_to_string(&path)?;
        sources.push((relative_label(root, &path), src));
    }
    let wa = analyze_workspace(&sources);
    Ok(Report {
        findings: wa.findings,
        files_scanned: sources.len(),
        hot_closure: wa.hot_closure,
    })
}

/// Ascends from `start` to the first directory whose `Cargo.toml` declares
/// a `[workspace]` — so the lint can be run from any subdirectory.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
