//! # cosmos-lint
//!
//! An in-tree static analyzer for the one source rule clippy cannot
//! express: an `expect` message must state the invariant that makes the
//! failure impossible (P3). It also reports any pragma comment of the
//! retired hot-path rules left in the tree (X1). The hot path is checked
//! by running it instead: `crates/core/tests/hot_alloc.rs` counts the
//! allocations made per simulated access, and clippy (configured in the
//! workspace's `clippy.toml`, denied by `scripts/check.sh`) bans lock
//! types, panics, hash-ordered collections and wall-clock reads. See
//! [`rules`] and DESIGN.md §12/§17.
//!
//! Zero registry dependencies, zero `syn`: a small tokenizer
//! ([`tokenizer`]) and a test-span scan ([`scan`]) give the rules enough
//! lexical fidelity, in the same in-tree philosophy as
//! `cosmos_common::json` and the vendored proptest stub. The lint runs
//! over its own sources like any other crate.

pub mod rules;
pub mod scan;
pub mod tokenizer;

use rules::Finding;
use std::io;
use std::path::{Path, PathBuf};

/// The outcome of a lint run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Every finding, sorted by (path, line, rule); any fails the gate.
    pub findings: Vec<Finding>,
    /// Number of files analyzed.
    pub files_scanned: usize,
}

impl Report {
    /// Whether the run passes (no findings).
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.render());
            out.push_str("\n    | ");
            out.push_str(&f.excerpt);
            out.push('\n');
        }
        out.push_str(&format!(
            "cosmos-lint scanned {} file(s): {} finding(s){}\n",
            self.files_scanned,
            self.findings.len(),
            if self.clean() { " — clean" } else { "" }
        ));
        out
    }
}

/// Collects the workspace source set: `crates/*/src/**/*.rs` plus the root
/// package's `src/**/*.rs`, sorted for deterministic reports (directory
/// enumeration order is OS-dependent).
fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let crates = root.join("crates");
    let members = if crates.is_dir() {
        entries(&crates)?
    } else {
        Vec::new()
    };
    let mut files = Vec::new();
    for src in members
        .iter()
        .map(|m| m.join("src"))
        .chain([root.join("src")])
    {
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn entries(dir: &Path) -> io::Result<Vec<PathBuf>> {
    std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect()
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for p in entries(dir)? {
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
fn relative_label(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.to_string_lossy()
        .replace(std::path::MAIN_SEPARATOR, "/")
}

/// Lints every workspace source under `root`: each crate's `src/` and the
/// root package's `src/`.
pub fn run(root: &Path) -> io::Result<Report> {
    let files = workspace_files(root)?;
    let mut findings = Vec::new();
    for path in &files {
        let src = std::fs::read_to_string(path)?;
        findings.extend(rules::analyze_source(&relative_label(root, path), &src));
    }
    Ok(Report {
        findings,
        files_scanned: files.len(),
    })
}

/// Ascends from `start` to the first directory whose `Cargo.toml` declares
/// a `[workspace]` — so the lint can be run from any subdirectory.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let declares = |d: &Path| std::fs::read_to_string(d.join("Cargo.toml"));
    start
        .ancestors()
        .find(|d| declares(d).is_ok_and(|t| t.contains("[workspace]")))
        .map(Path::to_path_buf)
}
