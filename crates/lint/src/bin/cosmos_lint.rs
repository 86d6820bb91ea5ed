//! The `cosmos-lint` workspace gate: exit 0 only when there is no finding.

use cosmos_common::cli::{self, Flag};
use cosmos_lint::{find_workspace_root, run};
use std::path::PathBuf;
use std::process::ExitCode;

/// The name errors start with.
const ME: &str = "cosmos-lint";

const USAGE: &str = "\
cosmos-lint — the COSMOS workspace's expect-message rule (P3) and its check
for retired pragma comments (X1), DESIGN.md §12 and §17; the determinism,
lock and panic bans are clippy lints (clippy.toml), and the allocation-free
hot path is checked by crates/core/tests/hot_alloc.rs.

USAGE:
    cosmos-lint [OPTIONS]

The scan covers every crate's src/ and the root package's src/.
Exit code: 0 clean, 1 findings, 2 usage/IO error.
";

const FLAGS: &[Flag] = &[
    Flag::text("--root DIR", "workspace root [found from the cwd]"),
    Flag::switch("-q, --quiet", "suppress the report on success"),
];

fn main() -> ExitCode {
    let parsed = cli::parse(FLAGS, std::env::args().skip(1), |p| {
        Ok((p.get::<PathBuf>("--root")?, p.on("--quiet")))
    });
    let (root, quiet) = cli::finish(parsed, &format!("{USAGE}\n{}", cli::options(FLAGS)));

    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{ME}: cannot determine cwd: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(root) = root.or_else(|| find_workspace_root(&cwd)) else {
        eprintln!("{ME}: no [workspace] Cargo.toml above {}", cwd.display());
        return ExitCode::from(2);
    };
    let report = match run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{ME}: {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if !report.clean() || !quiet {
        print!("{}", report.render());
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
