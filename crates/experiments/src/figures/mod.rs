//! The figure registry: every paper experiment, by name.
//!
//! A registry entry packages one figure's whole pipeline — trace
//! generation, the job grid, post-processing — as a pure function from
//! [`Args`] to a [`FigureOutput`]. The `cosmos_figure` binary and a
//! `cosmos-serve` job therefore execute *the same code* on the same
//! inputs, which is what makes their artifacts byte-identical (the serve
//! smoke in `scripts/check.sh` `cmp`s them). The name is the command-line
//! name, the serve-protocol name, the JSON stem (`results/<name>.json`)
//! and the telemetry stem.

mod channel;
mod paper;
mod sampling;

use crate::{explain, table_string, Args};
use cosmos_common::json::{json, Value};

/// Everything a figure run produces: the human-readable report that goes
/// to stdout, and the JSON result document that goes to `--json` /
/// `results/<name>.json`.
pub struct FigureOutput {
    /// Markdown report (tables plus any summary lines).
    pub report: String,
    /// The machine-readable result document.
    pub json: Value,
}

/// A figure's main table under construction. Each printed row is usually
/// paired with one object of the JSON document's `rows` array; summary
/// rows (means) are pushed to `rows` alone.
struct Table<'h> {
    headers: &'h [&'h str],
    rows: Vec<Vec<String>>,
    results: Vec<Value>,
}

impl<'h> Table<'h> {
    fn new(headers: &'h [&'h str]) -> Self {
        Table {
            headers,
            rows: Vec::new(),
            results: Vec::new(),
        }
    }

    /// Adds a printed row and its JSON object.
    fn row(&mut self, cells: Vec<String>, result: Value) {
        self.rows.push(cells);
        self.results.push(result);
    }

    fn markdown(&self) -> String {
        table_string(self.headers, &self.rows)
    }

    /// `## {title}`, the markdown table, then `tail` (summary lines).
    fn report(&self, title: &str, tail: &str) -> String {
        format!("## {title}\n\n{}{tail}", self.markdown())
    }

    /// The common figure shape: [`report`](Self::report), and the document
    /// `{"accesses": N, "rows": [...]}`.
    fn finish(self, args: &Args, title: &str, tail: &str) -> FigureOutput {
        FigureOutput {
            report: self.report(title, tail),
            json: json!({"accesses": args.accesses, "rows": (self.results)}),
        }
    }
}

/// One registered figure.
pub struct Figure {
    /// Registry key and artifact stem (`fig02` → `results/fig02.json`).
    pub name: &'static str,
    /// Default access budget (`--accesses` when not given).
    pub default_accesses: usize,
    /// The whole pipeline, trace generation included.
    pub run: fn(&Args) -> FigureOutput,
}

const fn figure(
    name: &'static str,
    default_accesses: usize,
    run: fn(&Args) -> FigureOutput,
) -> Figure {
    Figure {
        name,
        default_accesses,
        run,
    }
}

/// Every experiment, in the order `run_experiments.sh` runs them. The
/// tables take no budget; `sampling_validation` is last because its
/// paper-scale default takes far longer than the rest together.
pub static FIGURES: &[Figure] = &[
    figure("table1", 0, paper::table1),
    figure("table2", 0, paper::table2),
    figure("table3", 0, paper::table3),
    figure("fig02", 2_000_000, paper::fig02),
    figure("fig03", 2_000_000, paper::fig03),
    figure("fig04", 2_000_000, paper::fig04),
    figure("fig05", 2_000_000, paper::fig05),
    figure("fig08", 4_000_000, paper::fig08),
    figure("fig09", 2_000_000, paper::fig09),
    figure("fig10", 2_000_000, paper::fig10),
    figure("fig11", 2_000_000, paper::fig11),
    figure("fig12", 2_000_000, paper::fig12),
    figure("fig13", 2_000_000, paper::fig13),
    figure("fig14", 2_000_000, paper::fig14),
    figure("fig15", 2_000_000, paper::fig15),
    figure("fig16", 2_000_000, paper::fig16),
    figure("fig17", 2_000_000, paper::fig17),
    figure("hyperparam_sweep", 500_000, paper::hyperparam_sweep),
    figure("ablation_design", 1_000_000, paper::ablation_design),
    figure("explain_ctr", explain::DEFAULT_ACCESSES, explain::run),
    figure("channel_occupancy", 1_000_000, channel::occupancy),
    figure("sampling_validation", 24_000_000, sampling::validation),
];

/// Looks a figure up by registry name.
pub fn by_name(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// The names of every registered figure, comma-separated (error messages).
pub fn known_names() -> String {
    FIGURES
        .iter()
        .map(|f| f.name)
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_telemetry::Telemetry;

    fn tiny_args(accesses: usize) -> Args {
        Args {
            accesses,
            seed: 42,
            large: false,
            sample: false,
            check: false,
            json: None,
            jobs: 1,
            telemetry: Telemetry::disabled(),
        }
    }

    #[test]
    fn registry_names_are_unique_and_resolve() {
        for (i, fig) in FIGURES.iter().enumerate() {
            assert!(
                FIGURES[..i].iter().all(|f| f.name != fig.name),
                "duplicate figure {}",
                fig.name
            );
            assert!(std::ptr::eq(by_name(fig.name).unwrap(), fig));
        }
        assert!(by_name("fig99").is_none());
        let names: Vec<_> = FIGURES.iter().map(|f| f.name).collect();
        assert_eq!(known_names(), names.join(", "));
    }

    /// Serial vs. parallel-and-checked runs of each figure must be byte
    /// identical: results come back in job order and the oracles only
    /// observe. The inputs are the figures cheap enough for a debug build;
    /// `scripts/check.sh` stage `figure-modes` runs every figure.
    #[test]
    fn figures_are_jobs_and_check_invariant() {
        for (name, accesses, json_keys) in [
            ("table1", 1, &["alpha", "r_mo"][..]),
            ("table2", 1, &["paper_kb"]),
            ("table3", 1, &["ctr_index"]),
            ("fig02", 6_000, &["ctr_miss_rate", "wasted"]),
            ("fig17", 6_000, &["reencryptions_morphctr"]),
            (
                "channel_occupancy",
                20_000,
                &["distinguishability", "capacity_bits", "tenant_mix"],
            ),
        ] {
            let fig = by_name(name).unwrap();
            let serial = (fig.run)(&tiny_args(accesses));
            let checked = (fig.run)(&Args {
                jobs: 8,
                check: true,
                ..tiny_args(accesses)
            });
            let text = serial.json.to_string();
            assert_eq!(text, checked.json.to_string(), "{name}");
            assert_eq!(serial.report, checked.report, "{name}");
            assert!(
                serial.report.starts_with("## "),
                "{name}: {}",
                serial.report
            );
            for key in json_keys {
                assert!(text.contains(&format!("\"{key}\"")), "{name} lacks {key}");
            }
        }
    }

    #[test]
    fn channel_occupancy_attributes_the_attacker() {
        let out = (by_name("channel_occupancy").unwrap().run)(&tiny_args(20_000));
        assert!(out.report.contains("Occupancy channel"), "{}", out.report);
        assert!(out.report.contains("Per-tenant CTR attribution"));
        // The attacker bucket sees traffic in the mix run.
        let tenants = out.json["tenant_mix"]["tenants"].as_array().unwrap();
        assert!(tenants[1]["misses"].as_u64().unwrap() > 0);
    }

    #[test]
    fn fig10_report_carries_geomean_line() {
        let args = tiny_args(4_000);
        let out = (by_name("fig10").unwrap().run)(&args);
        assert!(
            out.report.contains("COSMOS over MorphCtr"),
            "{}",
            out.report
        );
        assert!(out.json.to_string().contains("geomean"));
    }
}
