//! The rule catalogue and the per-file (pass-1) rule engine.
//!
//! The rules here are the ones clippy cannot express (see DESIGN.md §12
//! and §17; determinism, stat-integrity and panic bans are clippy lints
//! configured in the workspace's `clippy.toml`):
//!
//! - **H-rules** (hot path): functions marked `// cosmos-lint: hot` must
//!   stay allocation-free (H1), and so must everything they transitively
//!   call (H2), which must also stay lock-free (H3) and panic-free (H4) —
//!   the closure rules run in pass 2 over the workspace call graph
//!   ([`crate::graph`]).
//! - **P3**: an `expect()` message must state the invariant that makes
//!   failure impossible.
//!
//! Plus the meta **L-rules**: the pragma mechanism itself is linted
//! (malformed pragmas, allows that suppress nothing).

use crate::scan::{extents, Extents};
use crate::symbols::{file_symbols, FileSymbols};
use crate::tokenizer::{lex, Lexed, Tok, TokKind};

/// One catalogue entry.
#[derive(Clone, Copy, Debug)]
pub struct Rule {
    /// Short id used in pragmas (`H1`, `P3`, …).
    pub id: &'static str,
    /// Human-readable slug.
    pub name: &'static str,
    /// One-line description for `--list-rules` and reports.
    pub summary: &'static str,
}

/// The full rule catalogue.
pub const RULES: &[Rule] = &[
    Rule {
        id: "H1",
        name: "hot-alloc",
        summary: "heap allocation, format!, clone(), or collect() inside a \
                  `// cosmos-lint: hot` function",
    },
    Rule {
        id: "H2",
        name: "hot-reachable-alloc",
        summary: "heap allocation in a function transitively reachable from a hot root \
                  (the finding carries the caller→callee witness chain)",
    },
    Rule {
        id: "H3",
        name: "hot-lock",
        summary: "lock acquisition (Mutex/RwLock/.lock()) anywhere on the hot-path call \
                  closure: blocking per simulated access destroys throughput",
    },
    Rule {
        id: "H4",
        name: "hot-panic",
        summary: "unwrap() or panic-family macro anywhere on the hot-path call closure",
    },
    Rule {
        id: "P3",
        name: "panic-vague-expect",
        summary: "expect() whose message does not state an invariant (too short to explain \
                  why it cannot fail)",
    },
    Rule {
        id: "L1",
        name: "bad-pragma",
        summary: "malformed cosmos-lint pragma (typos must not silently disable enforcement)",
    },
    Rule {
        id: "L2",
        name: "unused-allow",
        summary: "allow pragma that suppresses nothing (stale suppressions accrete into \
                  blind spots)",
    },
];

/// Looks up a catalogue entry by id.
pub fn rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// Minimum length for an `expect` message to count as stating an invariant
/// (P3); must also contain a space.
pub const MIN_EXPECT_MESSAGE: usize = 10;

/// One finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`H1`, …).
    pub rule: String,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based source line.
    pub line: u32,
    /// What was found, with enough context to act on.
    pub message: String,
    /// The trimmed source line.
    pub excerpt: String,
    /// For closure rules (H2–H4): the witness chain of function display
    /// names from a hot root to the function containing the finding.
    /// Empty for token-local rules.
    pub chain: Vec<String>,
}

impl Finding {
    /// `path:line: [RULE] message` — the human-readable rendering, with
    /// the witness chain appended when present.
    pub fn render(&self) -> String {
        let via = if self.chain.len() > 1 {
            format!(" (via {})", self.chain.join(" → "))
        } else {
            String::new()
        };
        format!(
            "{}:{}: [{}] {}{}",
            self.path, self.line, self.rule, self.message, via
        )
    }
}

/// The token at `i` starts a heap allocation (H1/H2's shared matcher):
/// an allocating method call after `.`, an allocating macro, or an
/// allocating constructor path. Returns the offending token text.
pub(crate) fn alloc_site(toks: &[Tok], i: usize) -> Option<&str> {
    let t = toks.get(i)?;
    if t.kind != TokKind::Ident {
        return None;
    }
    let method = is_punct(toks, i.wrapping_sub(1), ".")
        && matches!(
            t.text.as_str(),
            "clone" | "collect" | "to_string" | "to_owned" | "to_vec" | "push_str"
        );
    let mac = matches!(t.text.as_str(), "format" | "vec") && is_punct(toks, i + 1, "!");
    let ctor = matches!(t.text.as_str(), "Box" | "String" | "Vec")
        && is_punct(toks, i + 1, ":")
        && is_punct(toks, i + 2, ":")
        && {
            // Skip an optional turbofish: `Vec::<u8>::with_capacity`.
            let mut j = i + 3;
            if is_punct(toks, j, "<") {
                let mut depth = 0i32;
                while j < toks.len() {
                    if toks[j].kind == TokKind::Punct {
                        match toks[j].text.as_str() {
                            "<" => depth += 1,
                            ">" => {
                                depth -= 1;
                                if depth == 0 {
                                    j += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                    }
                    j += 1;
                }
                if is_punct(toks, j, ":") && is_punct(toks, j + 1, ":") {
                    j += 2;
                }
            }
            matches!(
                toks.get(j).map(|t| t.text.as_str()),
                Some("new") | Some("from") | Some("with_capacity")
            )
        };
    (method || mac || ctor).then_some(t.text.as_str())
}

/// The token at `i` acquires a lock (H3's matcher): a `.lock(` call or a
/// sync-primitive type name.
pub(crate) fn lock_site(toks: &[Tok], i: usize) -> Option<&str> {
    let t = toks.get(i)?;
    if t.kind != TokKind::Ident {
        return None;
    }
    let method =
        t.text == "lock" && is_punct(toks, i.wrapping_sub(1), ".") && is_punct(toks, i + 1, "(");
    let primitive = matches!(t.text.as_str(), "Mutex" | "RwLock" | "Condvar" | "Barrier");
    (method || primitive).then_some(t.text.as_str())
}

/// The token at `i` can panic (H4's matcher): `.unwrap(` or a panic-family
/// macro.
pub(crate) fn panic_site(toks: &[Tok], i: usize) -> Option<&str> {
    let t = toks.get(i)?;
    if t.kind != TokKind::Ident {
        return None;
    }
    let unwrap =
        t.text == "unwrap" && is_punct(toks, i.wrapping_sub(1), ".") && is_punct(toks, i + 1, "(");
    let mac = matches!(
        t.text.as_str(),
        "panic" | "unreachable" | "todo" | "unimplemented"
    ) && is_punct(toks, i + 1, "!");
    (unwrap || mac).then_some(t.text.as_str())
}

/// Everything pass 1 produces for one file: the lexed tokens, extents,
/// symbol table, and the raw (pre-suppression) token-local findings. The
/// workspace passes consume a slice of these; [`finish_file`] then applies
/// pragma suppression and the L-rules.
#[derive(Clone, Debug)]
pub struct FileAnalysis {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// The lexed token stream.
    pub lexed: Lexed,
    /// Extents (test spans, hot spans, stats structs, pragmas).
    pub ext: Extents,
    /// The symbol table for the workspace passes.
    pub symbols: FileSymbols,
    /// Source lines, for excerpts of pass-2 findings.
    pub lines: Vec<String>,
    /// Raw pass-1 findings, before pragma suppression.
    pub raw: Vec<Finding>,
}

impl FileAnalysis {
    /// The trimmed source line at `line` (1-based).
    pub fn excerpt(&self, line: u32) -> String {
        self.lines
            .get(line.saturating_sub(1) as usize)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }
}

/// Pass 1: analyzes one file's source text into a [`FileAnalysis`] —
/// token-local findings plus the symbol table the workspace passes need.
/// `path` is the workspace-relative path used for reporting.
pub fn analyze_file(path: &str, src: &str) -> FileAnalysis {
    let lexed = lex(src);
    let ext = extents(&lexed);
    let symbols = file_symbols(&lexed, &ext);
    let lines: Vec<String> = src.lines().map(str::to_string).collect();
    let excerpt = |line: u32| -> String {
        lines
            .get(line.saturating_sub(1) as usize)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    };

    let mut raw: Vec<Finding> = Vec::new();
    let push = |rule: &str, line: u32, message: String, raw: &mut Vec<Finding>| {
        // One finding per (rule, line): `v.clone().clone()` is one
        // problem, not two.
        if raw
            .iter()
            .any(|f: &Finding| f.rule == rule && f.line == line)
        {
            return;
        }
        raw.push(Finding {
            rule: rule.to_string(),
            path: path.to_string(),
            line,
            message,
            excerpt: excerpt(line),
            chain: Vec::new(),
        });
    };

    let toks = &lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        if ext.in_test(i) {
            continue;
        }

        // H1 — allocation in directly-annotated hot functions.
        if let Some(hot_fn) = ext.hot_fn(i) {
            if let Some(site) = alloc_site(toks, i) {
                push(
                    "H1",
                    t.line,
                    format!(
                        "`{site}` allocates inside hot function `{hot_fn}` (runs per \
                         simulated access); hoist it out or reuse a scratch buffer"
                    ),
                    &mut raw,
                );
            }
        }

        // P3 — expect() messages that state no invariant.
        if t.text == "expect"
            && is_punct(toks, i.wrapping_sub(1), ".")
            && is_punct(toks, i + 1, "(")
        {
            if let Some(msg) = toks.get(i + 2).filter(|m| m.kind == TokKind::Str) {
                if msg.text.len() < MIN_EXPECT_MESSAGE || !msg.text.contains(' ') {
                    push(
                        "P3",
                        t.line,
                        format!(
                            "expect message {:?} does not state an invariant; explain why \
                             this cannot fail",
                            msg.text
                        ),
                        &mut raw,
                    );
                }
            }
        }
    }

    FileAnalysis {
        path: path.to_string(),
        lexed,
        ext,
        symbols,
        lines,
        raw,
    }
}

/// Merges this file's pass-2 findings into its raw pass-1 findings,
/// applies allow pragmas (tracking use), folds in the L-rules, and returns
/// the file's final findings sorted by (line, rule).
pub fn finish_file(fa: &mut FileAnalysis, pass2: Vec<Finding>) -> Vec<Finding> {
    let mut combined = std::mem::take(&mut fa.raw);
    combined.extend(pass2);

    let mut findings: Vec<Finding> = Vec::new();
    for f in combined {
        if suppress(&mut fa.ext, &f) {
            continue;
        }
        findings.push(f);
    }

    // Pragma hygiene: malformed pragmas and unused allows are findings.
    for e in &fa.ext.pragma_errors {
        findings.push(Finding {
            rule: "L1".to_string(),
            path: fa.path.clone(),
            line: e.line,
            message: e.message.clone(),
            excerpt: fa.excerpt(e.line),
            chain: Vec::new(),
        });
    }
    for a in fa.ext.allows.iter().chain(&fa.ext.file_allows) {
        if !a.used {
            findings.push(Finding {
                rule: "L2".to_string(),
                path: fa.path.clone(),
                line: a.line,
                message: format!(
                    "allow({}) suppresses nothing; remove the stale pragma",
                    a.rules.join(", ")
                ),
                excerpt: fa.excerpt(a.line),
                chain: Vec::new(),
            });
        }
        for r in &a.rules {
            if rule(r).is_none() {
                findings.push(Finding {
                    rule: "L1".to_string(),
                    path: fa.path.clone(),
                    line: a.line,
                    message: format!("allow names unknown rule {r:?}"),
                    excerpt: fa.excerpt(a.line),
                    chain: Vec::new(),
                });
            }
        }
    }

    findings.sort_by(|a, b| (a.line, a.rule.as_str()).cmp(&(b.line, b.rule.as_str())));
    findings
}

/// Analyzes one file as a single-file workspace — the full pipeline
/// including the call-graph pass confined to this file.
/// Multi-file fixtures go through [`crate::analyze_workspace`].
pub fn analyze_source(path: &str, src: &str) -> Vec<Finding> {
    crate::analyze_workspace(&[(path.to_string(), src.to_string())]).findings
}

fn suppress(ext: &mut Extents, f: &Finding) -> bool {
    for a in ext.allows.iter_mut() {
        if a.line == f.line && a.rules.iter().any(|r| r == &f.rule) {
            a.used = true;
            return true;
        }
    }
    for a in ext.file_allows.iter_mut() {
        if a.rules.iter().any(|r| r == &f.rule) {
            a.used = true;
            return true;
        }
    }
    false
}

fn is_punct(toks: &[Tok], i: usize, s: &str) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokKind::Punct && t.text == s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(path: &str, src: &str) -> Vec<String> {
        analyze_source(path, src)
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn catalogue_ids_are_unique() {
        for (i, a) in RULES.iter().enumerate() {
            for b in &RULES[i + 1..] {
                assert_ne!(a.id, b.id);
            }
        }
    }

    #[test]
    fn h1_only_in_hot_fns() {
        let src = "\
// cosmos-lint: hot
fn access(&mut self) { let v = self.ways.to_vec(); drop(v); }
fn cold(&mut self) { let v = self.ways.to_vec(); drop(v); }
";
        let f = analyze_source("crates/x/src/lib.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "H1");
        assert_eq!(f[0].line, 2);
        assert!(f[0].message.contains("access"));
    }

    #[test]
    fn p3_judges_expect_messages() {
        let good =
            "fn f(o: Option<u64>) -> u64 { o.expect(\"plan is non-empty by construction\") }";
        let bad = "fn f(o: Option<u64>) -> u64 { o.expect(\"oops\") }";
        assert!(rules_of("crates/x/src/lib.rs", good).is_empty());
        assert_eq!(rules_of("crates/x/src/lib.rs", bad), vec!["P3"]);
        // Binaries get no waiver: a vague message is vague anywhere.
        assert_eq!(rules_of("crates/x/src/bin/tool.rs", bad), vec!["P3"]);
    }

    #[test]
    fn allow_pragma_suppresses_and_is_used() {
        let src = "\
// cosmos-lint: allow(P3): the message is the fixture's point here
fn f(o: Option<u64>) -> u64 { o.expect(\"oops\") }
";
        assert!(rules_of("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn unused_allow_is_l2() {
        let src = "// cosmos-lint: allow(P3): nothing here actually calls expect\nfn f() {}\n";
        assert_eq!(rules_of("crates/x/src/lib.rs", src), vec!["L2"]);
    }

    #[test]
    fn malformed_pragma_is_l1() {
        let src = "// cosmos-lint: allow(P3)\nfn f(o: Option<u64>) -> u64 { o.expect(\"oops\") }\n";
        assert_eq!(rules_of("crates/x/src/lib.rs", src), vec!["L1", "P3"]);
    }

    #[test]
    fn file_allow_covers_whole_file() {
        let src = "\
// cosmos-lint: allow-file(H2): this file is a checked-mode diagnostic
// cosmos-lint: hot
fn access() { helper(); }
fn helper() { let v = Vec::<u8>::new(); drop(v); }
";
        assert!(rules_of("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn unknown_rule_in_allow_is_l1() {
        let src = "// cosmos-lint: allow(Z9): mystery rule justification\nfn f() {}\n";
        let rules = rules_of("crates/x/src/lib.rs", src);
        assert!(rules.contains(&"L1".to_string()), "{rules:?}");
    }

    #[test]
    fn rules_moved_to_clippy_are_unknown() {
        // The determinism, stat and panic bans are clippy lints now; a
        // leftover pragma naming one must be converted, not kept.
        for id in ["D1", "D2", "D3", "C1", "C2", "P1", "P2"] {
            assert!(rule(id).is_none(), "{id} is still catalogued");
            let src = format!(
                "// cosmos-lint: allow({id}): a leftover waiver from the old catalogue\nfn f() {{}}\n"
            );
            let rules = rules_of("crates/x/src/lib.rs", &src);
            assert!(rules.contains(&"L1".to_string()), "{id}: {rules:?}");
        }
    }

    #[test]
    fn site_matchers_agree_on_shapes() {
        let l = lex("fn f() { let v = x.to_vec(); m.lock(); o.unwrap(); panic!(\"no\"); }");
        let toks = &l.toks;
        let hits: Vec<(&str, &str)> = toks
            .iter()
            .enumerate()
            .filter_map(|(i, _)| {
                alloc_site(toks, i)
                    .map(|s| ("alloc", s))
                    .or_else(|| lock_site(toks, i).map(|s| ("lock", s)))
                    .or_else(|| panic_site(toks, i).map(|s| ("panic", s)))
            })
            .collect();
        assert_eq!(
            hits,
            vec![
                ("alloc", "to_vec"),
                ("lock", "lock"),
                ("panic", "unwrap"),
                ("panic", "panic"),
            ]
        );
    }
}
