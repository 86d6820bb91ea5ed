//! # cosmos-lint
//!
//! An in-tree static analyzer that machine-checks the invariants every
//! COSMOS result rests on: bit-deterministic artifacts, an allocation-,
//! lock-, and panic-free simulation hot path (including everything the
//! hot functions transitively call), untruncated `u64` stat counters, and
//! panic-free library crates. See [`rules::RULES`] for the catalogue and
//! DESIGN.md §12/§17 for the rationale, pragma grammar, and the
//! whole-workspace analysis architecture.
//!
//! Zero registry dependencies, zero `syn`: a ~300-line tokenizer
//! ([`tokenizer`]) plus brace-matching extent analysis ([`scan`]) and a
//! token-pattern symbol table ([`symbols`]) are enough lexical fidelity
//! for every rule, in the same in-tree philosophy as `cosmos_common::json`
//! and the vendored proptest stub. The lint runs over its own sources like
//! any other crate.
//!
//! Analysis is two-pass: pass 1 is per-file (token-local rules + symbol
//! extraction) and embarrassingly parallel (`--jobs`); pass 2 builds the
//! workspace call graph ([`graph`]) and checks the hot-path closure. The
//! report is deterministic — byte-identical across runs
//! and `--jobs` — because pass-1 results are reassembled in input order
//! and wall-time is excluded from the JSON unless explicitly requested.

pub mod baseline;
pub mod graph;
pub mod pragma;
pub mod rules;
pub mod scan;
pub mod symbols;
pub mod tokenizer;

use baseline::{Baseline, BaselineEntry};
use cosmos_common::json::{json, Map, Value};
pub use graph::RootClosure;
use rules::{FileAnalysis, Finding, RULES};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
// cosmos-lint: allow(D2): lint wall-time is reported for humans only; it never touches findings and is null in the JSON unless --timings is passed
use std::time::Instant;

/// The outcome of the whole-workspace analysis, before baseline matching.
#[derive(Clone, Debug, Default)]
pub struct WorkspaceAnalysis {
    /// Final findings (pragma-suppressed, L-rules folded in), sorted by
    /// (path, line, rule).
    pub findings: Vec<Finding>,
    /// Every hot root's transitive callee set.
    pub hot_closure: Vec<RootClosure>,
}

/// Per-pass wall time in milliseconds. Human-facing only; excluded from
/// the JSON report by default so artifacts stay byte-identical.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimingMs {
    /// Per-file tokenize/scan/symbol pass.
    pub pass1: u64,
    /// Workspace call-graph pass, suppression, and baseline.
    pub pass2: u64,
    /// End-to-end, including file reads.
    pub total: u64,
}

/// The outcome of a lint run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Findings that neither a pragma nor the baseline suppressed — these
    /// fail the gate.
    pub findings: Vec<Finding>,
    /// Number of findings suppressed by the baseline.
    pub baselined: usize,
    /// Per-rule counts of baselined findings (every catalogue rule).
    pub baselined_counts: BTreeMap<String, usize>,
    /// Baseline entries that matched nothing (fixed or drifted).
    pub stale_baseline: Vec<BaselineEntry>,
    /// Number of files analyzed.
    pub files_scanned: usize,
    /// Every hot root's transitive callee set.
    pub hot_closure: Vec<RootClosure>,
    /// Wall time per pass; `None` keeps it out of the JSON report.
    pub timing: Option<TimingMs>,
}

impl Report {
    /// Whether the run passes (no live findings; stale baseline entries
    /// warn but do not fail).
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Per-rule live-finding counts (every catalogue rule, zeros included).
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
        for e in &self.stale_baseline {
            out.push_str(&format!(
                "warning: stale baseline entry ({} {} {:?}) matches nothing — prune it\n",
                e.rule, e.path, e.excerpt
            ));
        }
        out.push_str(&format!(
            "cosmos-lint: {} file(s), {} hot root(s) ({} fn(s) on the closure), \
             {} finding(s), {} baselined{}\n",
            self.files_scanned,
            self.hot_closure.len(),
            self.closure_size(),
            self.findings.len(),
            self.baselined,
            if self.clean() { " — clean" } else { "" }
        ));
        if let Some(t) = self.timing {
            out.push_str(&format!(
                "cosmos-lint: pass1 {} ms, pass2 {} ms, total {} ms\n",
                t.pass1, t.pass2, t.total
            ));
        }
        out
    }

    /// The machine-readable report (schema `cosmos-lint-report-v2`).
    /// `timing_ms` is `null` unless [`Report::timing`] is set, so the
    /// committed report stays byte-identical across runs and `--jobs`.
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
        let stale: Vec<Value> = self
            .stale_baseline
            .iter()
            .map(|e| {
                json!({
                    "rule": e.rule.as_str(),
                    "path": e.path.as_str(),
                    "excerpt": e.excerpt.as_str(),
                })
            })
            .collect();
        let mut counts = Map::new();
        for (id, n) in self.counts() {
            counts.insert(id, json!(n));
        }
        let mut baselined_counts = Map::new();
        for r in RULES {
            let n = self.baselined_counts.get(r.id).copied().unwrap_or(0);
            baselined_counts.insert(r.id, json!(n));
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
        let timing = match self.timing {
            Some(t) => json!({
                "pass1": t.pass1,
                "pass2": t.pass2,
                "total": t.total,
            }),
            None => Value::Null,
        };
        let rules: Vec<Value> = RULES
            .iter()
            .map(|r| json!({"id": r.id, "name": r.name, "summary": r.summary}))
            .collect();
        json!({
            "schema": "cosmos-lint-report-v2",
            "files_scanned": self.files_scanned,
            "clean": self.clean(),
            "counts": counts,
            "baselined_counts": baselined_counts,
            "findings": findings,
            "baselined": self.baselined,
            "stale_baseline": stale,
            "hot_closure": (Value::Array(hot_closure)),
            "timing_ms": timing,
            "rules": rules,
        })
    }
}

/// Runs the full two-pass analysis over in-memory sources. `files` are
/// `(workspace-relative path, source)` pairs; order defines report order.
pub fn analyze_workspace(files: &[(String, String)]) -> WorkspaceAnalysis {
    let fas: Vec<FileAnalysis> = files
        .iter()
        .map(|(p, s)| rules::analyze_file(p, s))
        .collect();
    finish(fas)
}

/// Pass 2 over completed pass-1 results: call-graph closure rules, then
/// per-file pragma suppression and the L-rules.
fn finish(mut fas: Vec<FileAnalysis>) -> WorkspaceAnalysis {
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

/// Pass 1 over `sources`, optionally chunked across threads. Results are
/// reassembled in input order, so the analysis is independent of `jobs`.
fn pass1(sources: &[(String, String)], jobs: usize) -> Vec<FileAnalysis> {
    if jobs <= 1 || sources.len() < 2 {
        return sources
            .iter()
            .map(|(p, s)| rules::analyze_file(p, s))
            .collect();
    }
    let chunk = sources.len().div_ceil(jobs.min(sources.len()));
    // cosmos-lint: allow(D3): pass 1 is a pure per-file map reassembled in input order — the report is byte-identical for every --jobs value (check.sh proves it)
    std::thread::scope(|scope| {
        let handles: Vec<_> = sources
            .chunks(chunk)
            .map(|c| {
                scope.spawn(move || {
                    c.iter()
                        .map(|(p, s)| rules::analyze_file(p, s))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .expect("pass-1 worker panicked; per-file analysis must be total")
            })
            .collect()
    })
}

/// Collects the workspace source set: `crates/*/src/**/*.rs` plus the root
/// package's `src/**/*.rs`, sorted for deterministic reports (directory
/// enumeration order is OS-dependent — the lint holds itself to its own
/// D-rules).
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
/// findings and the baseline.
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

/// Lints `files` under `root`, applying `baseline`. `jobs` sets the pass-1
/// worker count (1 = serial); the report is identical for every value.
pub fn run(
    root: &Path,
    files: &[PathBuf],
    mut baseline: Baseline,
    jobs: usize,
) -> io::Result<Report> {
    // cosmos-lint: allow(D2): timing is human-facing only (see the module-level contract)
    let t_start = Instant::now();
    let mut sources: Vec<(String, String)> = Vec::with_capacity(files.len());
    for path in files {
        let src = std::fs::read_to_string(path)?;
        sources.push((relative_label(root, path), src));
    }

    // cosmos-lint: allow(D2): timing is human-facing only (see the module-level contract)
    let t_pass1 = Instant::now();
    let fas = pass1(&sources, jobs);
    let pass1_ms = t_pass1.elapsed().as_millis() as u64;

    // cosmos-lint: allow(D2): timing is human-facing only (see the module-level contract)
    let t_pass2 = Instant::now();
    let wa = finish(fas);

    let mut report = Report {
        files_scanned: sources.len(),
        hot_closure: wa.hot_closure,
        ..Report::default()
    };
    for f in wa.findings {
        if baseline.matches(&f) {
            report.baselined += 1;
            *report.baselined_counts.entry(f.rule.clone()).or_insert(0) += 1;
        } else {
            report.findings.push(f);
        }
    }
    report.stale_baseline = baseline.stale().into_iter().cloned().collect();
    report.timing = Some(TimingMs {
        pass1: pass1_ms,
        pass2: t_pass2.elapsed().as_millis() as u64,
        total: t_start.elapsed().as_millis() as u64,
    });
    Ok(report)
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
