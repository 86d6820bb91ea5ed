//! Runs one registered experiment: parses the shared flags with the
//! figure's default budget, prints its report, and writes its JSON result
//! document (`results/<name>.json` unless `--json PATH`).
//!
//! ```text
//! cosmos_figure <name> [OPTIONS]
//! cosmos_figure --list
//! ```
//!
//! Exit status: 0 on success or `--help`/`--list`, 1 when the result
//! document cannot be written, 2 on a missing or unknown figure name or a
//! bad option.

use cosmos_experiments::figures::{by_name, known_names, FIGURES};
use cosmos_experiments::{emit_json, Args};
use std::process::exit;

const USAGE: &str = "usage: cosmos_figure <name> [OPTIONS]
       cosmos_figure --list";

fn main() {
    let mut argv = std::env::args().skip(1);
    let name = argv.next().unwrap_or_default();
    match name.as_str() {
        "--list" => {
            for fig in FIGURES {
                println!("{}", fig.name);
            }
            return;
        }
        "--help" | "-h" => {
            println!(
                "{USAGE}\n\nfigures: {}\n\n{}",
                known_names(),
                cosmos_experiments::USAGE
            );
            return;
        }
        _ => {}
    }
    let Some(fig) = by_name(&name) else {
        let problem = if name.is_empty() {
            "missing figure name".to_string()
        } else {
            format!("unknown figure {name:?}")
        };
        eprintln!("error: {problem}\n\n{USAGE}\n\nfigures: {}", known_names());
        exit(2);
    };
    let args = Args::parse(argv, fig.default_accesses, USAGE);
    let out = (fig.run)(&args);
    print!("{}", out.report);
    if let Err(err) = emit_json(&args, fig.name, &out.json) {
        eprintln!("error: writing the {} result document: {err}", fig.name);
        exit(1);
    }
}
