//! The `cosmos-lint` workspace gate.
//!
//! Deny-by-default: exit 0 only when every finding is pragma-justified or
//! baselined. `scripts/check.sh` runs this ahead of the build/test/smoke
//! stages, with the JSON report tracked as `results/lint.json`.

use cosmos_lint::baseline::Baseline;
use cosmos_lint::{find_workspace_root, rules, run, workspace_files};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
cosmos-lint — static analysis of the COSMOS workspace's determinism,
hot-path-closure, stat-integrity, and panic invariants
(DESIGN.md §12 and §17).

USAGE:
    cosmos-lint [OPTIONS] [FILES...]

OPTIONS:
    --root <DIR>        Workspace root (default: ascend from cwd to the
                        first [workspace] Cargo.toml)
    --baseline <FILE>   Baseline file (default: <root>/lint.baseline)
    --write-baseline    Rewrite the baseline to grandfather all current
                        findings, then exit 0
    --json <FILE>       Also write the machine-readable report to <FILE>
    --jobs <N>          Pass-1 worker threads (default 1; the report is
                        byte-identical for every value)
    --timings           Include per-pass wall time in the JSON report
                        (off by default so the report stays deterministic)
    --list-rules        Print the rule catalogue and exit
    -q, --quiet         Suppress the report on success
    -h, --help          This help

FILES limits the scan to the given paths (default: all crate sources).
NOTE: the call-graph pass sees only the scanned set, so a
FILES subset can mask closure findings — the gate always runs the full set.
Exit code: 0 clean, 1 findings, 2 usage/IO error.";

struct Args {
    root: Option<PathBuf>,
    baseline: Option<PathBuf>,
    write_baseline: bool,
    json: Option<PathBuf>,
    jobs: usize,
    timings: bool,
    list_rules: bool,
    quiet: bool,
    files: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        baseline: None,
        write_baseline: false,
        json: None,
        jobs: 1,
        timings: false,
        list_rules: false,
        quiet: false,
        files: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => args.root = Some(PathBuf::from(take(&mut it, "--root")?)),
            "--baseline" => args.baseline = Some(PathBuf::from(take(&mut it, "--baseline")?)),
            "--write-baseline" => args.write_baseline = true,
            "--json" => args.json = Some(PathBuf::from(take(&mut it, "--json")?)),
            "--jobs" => {
                let v = take(&mut it, "--jobs")?;
                args.jobs = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--jobs needs a positive integer, got {v:?}"))?;
            }
            "--timings" => args.timings = true,
            "--list-rules" => args.list_rules = true,
            "-q" | "--quiet" => args.quiet = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            f if !f.starts_with('-') => args.files.push(PathBuf::from(f)),
            other => return Err(format!("unknown flag {other:?}")),
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

    let files = if args.files.is_empty() {
        match workspace_files(&root) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("cosmos-lint: walking {}: {e}", root.display());
                return ExitCode::from(2);
            }
        }
    } else {
        args.files
    };

    let baseline_path = args.baseline.unwrap_or_else(|| root.join("lint.baseline"));
    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match Baseline::parse(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("cosmos-lint: {}: {e}", baseline_path.display());
                return ExitCode::from(2);
            }
        },
        Err(_) => Baseline::default(), // no baseline file = empty baseline
    };

    if args.write_baseline {
        // Grandfather everything currently live (run against an empty
        // baseline so existing entries are re-derived, not doubled).
        let report = match run(&root, &files, Baseline::default(), args.jobs) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("cosmos-lint: {e}");
                return ExitCode::from(2);
            }
        };
        let text = Baseline::render(&report.findings);
        if let Err(e) = std::fs::write(&baseline_path, text) {
            eprintln!("cosmos-lint: writing {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        println!(
            "cosmos-lint: wrote {} entries to {}",
            report.findings.len(),
            baseline_path.display()
        );
        return ExitCode::SUCCESS;
    }

    let mut report = match run(&root, &files, baseline, args.jobs) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cosmos-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(json_path) = &args.json {
        if let Some(parent) = json_path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        // Wall time goes into the JSON only on request: the committed
        // report must be byte-identical across runs and --jobs.
        let timing = report.timing.take();
        if args.timings {
            report.timing = timing;
        }
        let written = std::fs::write(json_path, report.to_json().pretty() + "\n");
        if !args.timings {
            report.timing = timing; // restore for the human render
        }
        if let Err(e) = written {
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
