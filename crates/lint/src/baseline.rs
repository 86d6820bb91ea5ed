//! The committed findings baseline.
//!
//! Grandfathered findings live in `lint.baseline` at the workspace root:
//! one finding per line, `rule<TAB>path<TAB>trimmed source line`. Matching
//! is by content rather than line number so unrelated edits don't churn
//! the file; each entry suppresses at most one finding (a multiset), so
//! new duplicates of an old sin still fail the gate.
//!
//! The goal state is an **empty** baseline — the file exists so a future
//! refactor can land with a consciously reviewed debt list instead of a
//! disabled linter.

use crate::rules::Finding;

/// One grandfathered finding.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct BaselineEntry {
    /// Rule id.
    pub rule: String,
    /// Workspace-relative path.
    pub path: String,
    /// Trimmed source line content at the time of grandfathering.
    pub excerpt: String,
}

/// A parsed baseline plus match bookkeeping.
#[derive(Clone, Debug, Default)]
pub struct Baseline {
    entries: Vec<(BaselineEntry, bool)>,
}

impl Baseline {
    /// Parses the baseline file format. Blank lines and `#` comments are
    /// ignored. Returns `Err` with a message for malformed lines — a
    /// corrupt baseline must fail loudly, not silently un-suppress.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim_end();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, '\t');
            match (parts.next(), parts.next(), parts.next()) {
                (Some(rule), Some(path), Some(excerpt)) if !rule.is_empty() => {
                    entries.push((
                        BaselineEntry {
                            rule: rule.to_string(),
                            path: path.to_string(),
                            excerpt: excerpt.to_string(),
                        },
                        false,
                    ));
                }
                _ => {
                    return Err(format!(
                        "baseline line {}: expected `rule<TAB>path<TAB>excerpt`, got {:?}",
                        i + 1,
                        line
                    ));
                }
            }
        }
        Ok(Self { entries })
    }

    /// Serializes findings as a fresh baseline document.
    pub fn render(findings: &[Finding]) -> String {
        let mut out = String::from(
            "# cosmos-lint baseline — grandfathered findings, one per line:\n\
             # rule<TAB>path<TAB>trimmed source line. Shrink this file; never grow it\n\
             # without review. Regenerate with `cosmos-lint --write-baseline`.\n",
        );
        let mut rows: Vec<String> = findings
            .iter()
            .map(|f| format!("{}\t{}\t{}", f.rule, f.path, f.excerpt))
            .collect();
        rows.sort();
        for r in rows {
            out.push_str(&r);
            out.push('\n');
        }
        out
    }

    /// Attempts to consume one unmatched entry for `f`; returns whether the
    /// finding is baselined.
    pub fn matches(&mut self, f: &Finding) -> bool {
        for (e, used) in self.entries.iter_mut() {
            if !*used && e.rule == f.rule && e.path == f.path && e.excerpt == f.excerpt {
                *used = true;
                return true;
            }
        }
        false
    }

    /// Entries that matched no current finding (fixed or drifted — should
    /// be pruned from the file).
    pub fn stale(&self) -> Vec<&BaselineEntry> {
        self.entries
            .iter()
            .filter(|(_, used)| !used)
            .map(|(e, _)| e)
            .collect()
    }

    /// Total entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the baseline is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &str, path: &str, excerpt: &str) -> Finding {
        Finding {
            rule: rule.to_string(),
            path: path.to_string(),
            line: 10,
            message: String::new(),
            excerpt: excerpt.to_string(),
            chain: Vec::new(),
        }
    }

    #[test]
    fn round_trip_and_match() {
        let f = finding(
            "D1",
            "crates/x/src/lib.rs",
            "use std::collections::HashMap;",
        );
        let text = Baseline::render(std::slice::from_ref(&f));
        let mut b = Baseline::parse(&text).expect("rendered baseline parses");
        assert_eq!(b.len(), 1);
        assert!(b.matches(&f));
        // Multiset: a second identical finding is NOT suppressed.
        assert!(!b.matches(&f));
        assert!(b.stale().is_empty());
    }

    #[test]
    fn line_number_drift_still_matches() {
        let old = finding("P1", "a.rs", "x.unwrap();");
        let mut b = Baseline::parse(&Baseline::render(&[old])).expect("parses");
        let mut moved = finding("P1", "a.rs", "x.unwrap();");
        moved.line = 999;
        assert!(b.matches(&moved));
    }

    #[test]
    fn stale_entries_reported() {
        let mut b =
            Baseline::parse("D1\tgone.rs\tuse std::collections::HashMap;\n").expect("parses");
        assert_eq!(b.stale().len(), 1);
        assert!(!b.matches(&finding("D1", "gone.rs", "different line")));
    }

    #[test]
    fn closure_ids_round_trip() {
        // The pass-2 rules baseline like any other; the witness chain is
        // NOT part of the key (a chain re-route must not un-baseline).
        let mut h2 = finding(
            "H2",
            "crates/cache/src/cache.rs",
            "let v = self.ways.to_vec();",
        );
        h2.chain = vec!["Cache::access".to_string(), "evict".to_string()];
        let rest: Vec<Finding> = ["H3", "H4"]
            .iter()
            .map(|r| {
                finding(
                    r,
                    "crates/cache/src/cache.rs",
                    "let v = self.ways.to_vec();",
                )
            })
            .collect();
        let mut all = vec![h2.clone()];
        all.extend(rest);
        let text = Baseline::render(&all);
        let mut b = Baseline::parse(&text).expect("rendered baseline parses");
        assert_eq!(b.len(), 3);
        h2.chain = vec!["Cache::access".to_string(), "other_route".to_string()];
        assert!(b.matches(&h2), "chain drift must not break the match");
        for f in &all[1..] {
            assert!(b.matches(f), "{} did not round-trip", f.rule);
        }
        assert!(b.stale().is_empty());
    }

    #[test]
    fn malformed_line_is_an_error() {
        assert!(Baseline::parse("just one field\n").is_err());
        assert!(Baseline::parse("# comment only\n\n")
            .expect("ok")
            .is_empty());
    }
}
