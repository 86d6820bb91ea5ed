//! The rules and the per-file rule engine.
//!
//! Two rules remain that clippy cannot express (DESIGN.md §12 and §17):
//!
//! - **P3** (`panic-vague-expect`): an `expect()` message must state the
//!   invariant that makes failure impossible: at least
//!   [`MIN_EXPECT_MESSAGE`] characters and a space. Test code is exempt.
//! - **X1** (`retired-pragma`): no retired pragma comment may stay in the
//!   tree. The `hot` markers and `allow` waivers drove the old hot-path
//!   rules, which are now checks that run or compile the code:
//!   `crates/core/tests/hot_alloc.rs` counts the allocations of the
//!   per-access path, clippy bans the lock types and the panics, and a
//!   waiver is an `#[expect(clippy::…)]`.

use crate::scan::{is_punct, test_spans};
use crate::tokenizer::{lex, TokKind, PRAGMA_PREFIX};

/// Minimum length for an `expect` message to count as stating an invariant
/// (P3); must also contain a space.
pub const MIN_EXPECT_MESSAGE: usize = 10;

/// One finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`P3`, `X1`).
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based source line.
    pub line: u32,
    /// What was found, with enough context to act on.
    pub message: String,
    /// The trimmed source line.
    pub excerpt: String,
}

impl Finding {
    /// `path:line: [RULE] message` — the human-readable rendering.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Lints one file's source text, sorted by (line, rule). `path` is the
/// workspace-relative path used for reporting.
pub fn analyze_source(path: &str, src: &str) -> Vec<Finding> {
    let lexed = lex(src);
    let lines: Vec<&str> = src.lines().collect();
    let finding = |rule, line: u32, message| Finding {
        rule,
        path: path.to_string(),
        line,
        message,
        excerpt: lines
            .get(line.saturating_sub(1) as usize)
            .map(|l| l.trim().to_string())
            .unwrap_or_default(),
    };

    let mut findings: Vec<Finding> = lexed
        .pragmas
        .iter()
        .map(|p| {
            let message = format!(
                "retired pragma `{PRAGMA_PREFIX} {}`: delete it; an allowed violation is an \
                 #[expect(clippy::…, reason = \"…\")] at the site",
                p.text
            );
            finding("X1", p.line, message)
        })
        .collect();

    let toks = &lexed.toks;
    let tests = test_spans(toks);
    for (i, t) in toks.iter().enumerate() {
        let expect_call = t.kind == TokKind::Ident
            && t.text == "expect"
            && is_punct(toks, i.wrapping_sub(1), ".")
            && is_punct(toks, i + 1, "(");
        if !expect_call || tests.iter().any(|&(a, b)| a <= i && i < b) {
            continue;
        }
        let Some(msg) = toks.get(i + 2).filter(|m| m.kind == TokKind::Str) else {
            continue;
        };
        let vague = msg.text.len() < MIN_EXPECT_MESSAGE || !msg.text.contains(' ');
        // One finding per line: `a.expect("x").expect("y")` is one problem.
        if vague && !findings.iter().any(|f| f.rule == "P3" && f.line == t.line) {
            let message = format!(
                "expect message {:?} does not state an invariant; explain why this cannot fail",
                msg.text
            );
            findings.push(finding("P3", t.line, message));
        }
    }
    findings.sort_by_key(|f| (f.line, f.rule));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(path: &str, src: &str) -> Vec<&'static str> {
        analyze_source(path, src)
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn p3_judges_expect_messages() {
        let good =
            "fn f(o: Option<u64>) -> u64 { o.expect(\"plan is non-empty by construction\") }";
        let bad = "fn f(o: Option<u64>) -> u64 { o.expect(\"oops\") }";
        assert!(rules_of("crates/x/src/lib.rs", good).is_empty());
        assert_eq!(rules_of("crates/x/src/lib.rs", bad), ["P3"]);
        // Binaries get no waiver: a vague message is vague anywhere.
        assert_eq!(rules_of("crates/x/src/bin/tool.rs", bad), ["P3"]);
    }

    #[test]
    fn every_retired_pragma_is_x1_and_waives_nothing() {
        let src = format!(
            "// {PRAGMA_PREFIX} allow(P3): the old waiver of a vague message\n\
             fn f(o: Option<u64>) -> u64 {{ o.expect(\"oops\") }}\n"
        );
        assert_eq!(rules_of("crates/x/src/lib.rs", &src), ["X1", "P3"]);
    }
}
