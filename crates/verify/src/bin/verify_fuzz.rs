//! Seeded differential fuzzer for the COSMOS simulator.
//!
//! Drives random configurations × random synthetic traces through the
//! shadow models and the conservation-law invariants. Any failure is
//! shrunk to a minimal repro trace and written to
//! `results/verify_fuzz_<seed>.json`; the process then exits non-zero.

use cosmos_common::cli::{self, Flag};
use cosmos_verify::fuzz::{failure_json, run_case, FuzzCase};

const USAGE: &str = "\
verify_fuzz — differential fuzzing of the COSMOS simulator

USAGE: verify_fuzz [OPTIONS]
";

const FLAGS: &[Flag] = &[
    Flag::number("--seed N", "base seed; case i uses N + i [1]"),
    Flag::positive("--cases N", "number of random cases [24]"),
    Flag::range("--accesses N", 16, u64::MAX, "max trace length [6000]"),
];

fn main() {
    let parsed = cli::parse(FLAGS, std::env::args().skip(1), |p| {
        Ok((
            p.get("--seed")?.unwrap_or(1u64),
            p.get("--cases")?.unwrap_or(24u64),
            p.get("--accesses")?.unwrap_or(6_000usize),
        ))
    });
    let (seed, cases, accesses) = cli::finish(parsed, &format!("{USAGE}\n{}", cli::options(FLAGS)));

    let mut failures = 0u64;
    for i in 0..cases {
        let seed = seed.wrapping_add(i);
        let case = FuzzCase::generate(seed, accesses);
        println!(
            "case {i:>3}  seed {seed:<8} {:<10} {:?}/{:?} cores={} accesses={} lines={} wf={:.2}",
            case.design.name(),
            case.scheme,
            case.prefetcher,
            case.cores,
            case.accesses,
            case.lines,
            case.write_frac,
        );
        if let Some(failure) = run_case(&case) {
            failures += 1;
            eprintln!(
                "FAIL seed {seed}: {} violations, shrunk to {} accesses",
                failure.violations.len(),
                failure.trace.len()
            );
            for v in failure.violations.iter().take(8) {
                eprintln!("  {v}");
            }
            let doc = failure_json(&failure);
            let results = std::path::Path::new("results");
            if results.is_dir() || std::fs::create_dir_all(results).is_ok() {
                let path = results.join(format!("verify_fuzz_{seed}.json"));
                match std::fs::write(&path, doc.pretty()) {
                    Ok(()) => eprintln!("  repro written to {}", path.display()),
                    Err(e) => eprintln!("  could not write repro: {e}"),
                }
            }
        }
    }

    if failures > 0 {
        eprintln!("{failures}/{} cases failed", cases);
        std::process::exit(1);
    }
    println!("all {} cases clean", cases);
}
