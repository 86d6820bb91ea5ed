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

use cosmos_common::cli;
use cosmos_experiments::figures::{by_name, known_names, FIGURES};
use cosmos_experiments::{emit_json, Args, FLAGS};
use std::process::exit;

const USAGE: &str = "usage: cosmos_figure <name> [OPTIONS]
       cosmos_figure --list";

fn main() {
    let help = format!(
        "{USAGE}\n\nfigures: {}\n\n{}",
        known_names(),
        cli::options(FLAGS)
    );
    let mut argv = std::env::args().skip(1);
    // `--list` is the one leading word that names no figure.
    let figure = cli::lead(&mut argv, "figure", |name| match name {
        "--list" => Some(None),
        name => by_name(name).map(Some),
    });
    let Some(fig) = cli::finish(figure, &help) else {
        for fig in FIGURES {
            println!("{}", fig.name);
        }
        return;
    };
    let args = cli::finish(Args::try_parse(argv, fig.default_accesses), &help);
    let out = (fig.run)(&args);
    print!("{}", out.report);
    if let Err(err) = emit_json(&args, fig.name, &out.json) {
        eprintln!("error: writing the {} result document: {err}", fig.name);
        exit(1);
    }
}
