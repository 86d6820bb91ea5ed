//! The COSMOS simulator benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's trace from the seed, drives the simulator
//! through its public API on one thread, checks every design run, and
//! prints the metrics as the last stdout line (one JSON object). With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
//! replays each layer on the input stream that layer saw and reports the
//! per-layer metrics. See README.md.

mod e2e;
mod interleave;
mod replay;
mod report;
#[cfg(test)]
mod selftest;
mod traced;
mod workloads;

use std::process::ExitCode;

use workloads::Scale;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: &'static workloads::BenchWorkload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workloads::by_name(&value).ok_or_else(|| {
                    let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?} (known: {})", known.join(", "))
                })?);
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Writes the traced run's spans under the build directory (which the
/// repository ignores). A failed write is reported but does not fail the
/// run: the metrics are already computed.
fn write_spans(spans: &traced::Spans, workload: &str, seed: u64) {
    let dir = std::path::PathBuf::from(
        std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into()),
    )
    .join("perfbench-spans");
    let path = dir.join(format!("{workload}-seed{seed}.json"));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans.to_json()));
    match written {
        Ok(()) => println!("spans: {} ({} spans)", path.display(), spans.spans.len()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let mut report = if args.trace {
        let (report, spans) = traced::run(w, args.seed, args.seconds, Scale::Bench);
        write_spans(&spans, w.name, args.seed);
        report
    } else {
        e2e::run(w, args.seed, args.seconds, Scale::Bench)
    };
    let bad_names: Vec<String> = report
        .metrics
        .iter()
        .filter(|m| !report::valid_name(&m.name))
        .map(|m| format!("invalid metric name {:?}", m.name))
        .collect();
    report.check("metric names", &bad_names);
    println!("workload={}: {}", w.name, w.why);
    println!(
        "seed={} trace={} attempted={} failed={}",
        args.seed,
        u8::from(args.trace),
        report.attempted,
        report.failed
    );
    for m in &report.metrics {
        println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.to_json_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload secure_mcf --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload.name, "secure_mcf");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload secure_mcf").is_err());
        assert!(args("--workload secure_mcf --seed x").is_err());
        assert!(args("--workload secure_mcf --seed 1 --trace 2").is_err());
        assert!(args("--workload secure_mcf --seed 1 --seconds 0").is_err());
        assert!(args("--workload secure_mcf --seed").is_err());
    }
}
