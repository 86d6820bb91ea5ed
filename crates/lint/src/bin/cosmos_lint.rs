//! The `cosmos-lint` workspace gate.
//!
//! Deny-by-default: exit 0 only when every finding is pragma-justified.
//! `scripts/check.sh` runs this and compares its JSON report with the
//! committed `results/lint.json`.

use cosmos_common::cli::{self, Flag};
use cosmos_lint::{find_workspace_root, rules, run};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
cosmos-lint — static analysis of the COSMOS workspace's hot-path closure
and expect-message invariants (DESIGN.md §12 and §17); the determinism,
stat-integrity and panic rules are clippy lints (clippy.toml).

USAGE:
    cosmos-lint [OPTIONS]

The scan always covers every crate source: the call-graph pass needs the
whole workspace to see each hot function's callees.
Exit code: 0 clean, 1 findings, 2 usage/IO error.
";

const FLAGS: &[Flag] = &[
    Flag::text("--root DIR", "workspace root [found from the cwd]"),
    Flag::text("--json FILE", "also write the JSON report to FILE"),
    Flag::switch("--list-rules", "print the rule catalogue and exit"),
    Flag::switch("-q, --quiet", "suppress the report on success"),
];

fn main() -> ExitCode {
    let parsed = cli::parse(FLAGS, std::env::args().skip(1), |p| {
        Ok((
            p.get::<PathBuf>("--root")?,
            p.get::<PathBuf>("--json")?,
            p.on("--list-rules"),
            p.on("--quiet"),
        ))
    });
    let (root, json, list_rules, quiet) =
        cli::finish(parsed, &format!("{USAGE}\n{}", cli::options(FLAGS)));

    if list_rules {
        for r in rules::RULES {
            println!("{:<4} {:<20} {}", r.id, r.name, r.summary);
        }
        return ExitCode::SUCCESS;
    }

    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cosmos-lint: cannot determine cwd: {e}");
            return ExitCode::from(2);
        }
    };
    let root = match root.or_else(|| find_workspace_root(&cwd)) {
        Some(r) => r,
        None => {
            eprintln!(
                "cosmos-lint: no [workspace] Cargo.toml above {}",
                cwd.display()
            );
            return ExitCode::from(2);
        }
    };

    let report = match run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cosmos-lint: {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if let Some(json_path) = &json {
        if let Some(parent) = json_path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(e) = std::fs::write(json_path, report.to_json().pretty() + "\n") {
            eprintln!("cosmos-lint: writing {}: {e}", json_path.display());
            return ExitCode::from(2);
        }
    }

    if !report.clean() || !quiet {
        print!("{}", report.render());
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
