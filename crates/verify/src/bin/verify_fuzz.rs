//! Seeded differential fuzzer for the COSMOS simulator.
//!
//! Drives random configurations × random synthetic traces through the
//! shadow models and the conservation-law invariants. Any failure is
//! shrunk to a minimal repro trace and written to
//! `results/verify_fuzz_<seed>.json`; the process then exits non-zero.

use cosmos_verify::fuzz::{failure_json, run_case, FuzzCase};

const USAGE: &str = "\
verify_fuzz — differential fuzzing of the COSMOS simulator

USAGE: verify_fuzz [--seed N] [--cases N] [--accesses N]

  --seed N      base seed; case i uses seed N + i (default: 1)
  --cases N     number of random cases to run (default: 24)
  --accesses N  max synthetic-trace length per case (default: 6000)
  --help        print this help and exit";

struct Options {
    seed: u64,
    cases: u64,
    accesses: usize,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Option<Options>, String> {
    let mut opts = Options {
        seed: 1,
        cases: 24,
        accesses: 6_000,
    };
    while let Some(arg) = argv.next() {
        let mut number = |flag: &str| -> Result<u64, String> {
            let v = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            v.parse()
                .map_err(|_| format!("{flag} needs a number, got {v:?}"))
        };
        match arg.as_str() {
            "--seed" => opts.seed = number("--seed")?,
            "--cases" => opts.cases = number("--cases")?,
            "--accesses" => opts.accesses = number("--accesses")? as usize,
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if opts.cases == 0 {
        return Err("--cases must be positive".to_string());
    }
    if opts.accesses < 16 {
        return Err("--accesses must be at least 16".to_string());
    }
    Ok(Some(opts))
}

fn main() {
    let opts = match parse(std::env::args().skip(1)) {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            println!("{USAGE}");
            return;
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };

    let mut failures = 0u64;
    for i in 0..opts.cases {
        let seed = opts.seed.wrapping_add(i);
        let case = FuzzCase::generate(seed, opts.accesses);
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
        eprintln!("{failures}/{} cases failed", opts.cases);
        std::process::exit(1);
    }
    println!("all {} cases clean", opts.cases);
}
