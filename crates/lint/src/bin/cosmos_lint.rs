//! The `cosmos-lint` workspace gate.
//!
//! Deny-by-default: exit 0 only when every finding is pragma-justified.
//! `scripts/check.sh` runs this and compares its JSON report with the
//! committed `results/lint.json`.

use cosmos_lint::{find_workspace_root, rules, run};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
cosmos-lint — static analysis of the COSMOS workspace's hot-path closure
and expect-message invariants (DESIGN.md §12 and §17); the determinism,
stat-integrity and panic rules are clippy lints (clippy.toml).

USAGE:
    cosmos-lint [OPTIONS]

OPTIONS:
    --root <DIR>        Workspace root (default: ascend from cwd to the
                        first [workspace] Cargo.toml)
    --json <FILE>       Also write the machine-readable report to <FILE>
    --list-rules        Print the rule catalogue and exit
    -q, --quiet         Suppress the report on success
    -h, --help          This help

The scan always covers every crate source: the call-graph pass needs the
whole workspace to see each hot function's callees.
Exit code: 0 clean, 1 findings, 2 usage/IO error.";

struct Args {
    root: Option<PathBuf>,
    json: Option<PathBuf>,
    list_rules: bool,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        json: None,
        list_rules: false,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => args.root = Some(PathBuf::from(take(&mut it, "--root")?)),
            "--json" => args.json = Some(PathBuf::from(take(&mut it, "--json")?)),
            "--list-rules" => args.list_rules = true,
            "-q" | "--quiet" => args.quiet = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn take(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} requires a value"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cosmos-lint: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if args.list_rules {
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
    let root = match args.root.or_else(|| find_workspace_root(&cwd)) {
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

    if let Some(json_path) = &args.json {
        if let Some(parent) = json_path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(e) = std::fs::write(json_path, report.to_json().pretty() + "\n") {
            eprintln!("cosmos-lint: writing {}: {e}", json_path.display());
            return ExitCode::from(2);
        }
    }

    if !report.clean() || !args.quiet {
        print!("{}", report.render());
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
