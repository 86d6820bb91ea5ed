//! Command-line contract of the `cosmos_figure` entry point.

use cosmos_experiments::figures::FIGURES;
use std::process::{Command, Output};

fn cosmos_figure(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cosmos_figure"))
        .args(args)
        .output()
        .expect("cosmos_figure runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn list_prints_the_registry_in_order() {
    let out = cosmos_figure(&["--list"]);
    assert_eq!(out.status.code(), Some(0));
    let listed: Vec<String> = stdout(&out).lines().map(str::to_string).collect();
    let registry: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    assert_eq!(listed, registry);
}

#[test]
fn missing_or_unknown_name_exits_2_with_the_known_names() {
    for args in [&[][..], &["fig99"], &["--accesses", "10"]] {
        let out = cosmos_figure(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = stderr(&out);
        for fig in FIGURES {
            assert!(err.contains(fig.name), "{args:?}: {err}");
        }
    }
    assert!(stderr(&cosmos_figure(&["fig99"])).contains("unknown figure \"fig99\""));
}

#[test]
fn help_exits_0_with_the_flag_reference() {
    for args in [&["--help"][..], &["table1", "--help"]] {
        let out = cosmos_figure(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(stdout(&out).contains("--accesses N"), "{args:?}");
        assert!(stdout(&out).contains("cosmos_figure --list"), "{args:?}");
    }
}

#[test]
fn flags_after_the_name_reach_the_figure() {
    let out = cosmos_figure(&["table1", "--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown argument: --frobnicate"));

    let json = std::env::temp_dir().join(format!("cosmos_figure_{}.json", std::process::id()));
    let out = cosmos_figure(&["table1", "--json", json.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).starts_with("## Table 1"));
    let doc = std::fs::read_to_string(&json).expect("--json redirects the document");
    assert!(doc.contains("\"r_mo\""), "{doc}");
    let _ = std::fs::remove_file(&json);
}

#[test]
fn an_unservable_budget_exits_2_naming_the_bound() {
    for (budget, bound) in [
        (&["--accesses", "3"][..], "below the core count 4"),
        (
            &["--accesses", "18446744073709551615"],
            "exceeds 576460752303423487",
        ),
        (
            &["--accesses", "144115188075855872", "--large"],
            "exceeds 576460752303423487",
        ),
    ] {
        // The unwritable document keeps a run that passed the parse from
        // writing a result.
        let args = [&["table1", "--json", "/dev/null/table1.json"][..], budget].concat();
        let out = cosmos_figure(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = stderr(&out);
        assert!(err.contains(bound), "{args:?}: {err}");
    }
}

#[test]
fn unwritable_result_document_exits_1_naming_the_path() {
    let out = cosmos_figure(&["table1", "--json", "/dev/null/table1.json"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("/dev/null/table1.json"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn a_bad_cosmos_jobs_exits_2_naming_it_unless_jobs_is_given() {
    let run = |jobs: &str, args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_cosmos_figure"))
            .args(args)
            .env("COSMOS_JOBS", jobs)
            .output()
            .expect("cosmos_figure runs")
    };
    for (jobs, message) in [
        ("0", "COSMOS_JOBS must be positive"),
        ("four", "COSMOS_JOBS needs a number, got \"four\""),
        ("", "COSMOS_JOBS needs a number, got \"\""),
    ] {
        let out = run(jobs, &["table1", "--json", "/dev/null"]);
        assert_eq!(out.status.code(), Some(2), "COSMOS_JOBS={jobs:?}");
        assert!(stderr(&out).contains(message), "{}", stderr(&out));
        assert!(
            stdout(&out).is_empty(),
            "COSMOS_JOBS={jobs:?} ran the figure"
        );
    }
    // `--jobs` takes precedence, so the variable is not read.
    let out = run("four", &["table1", "--jobs", "1", "--json", "/dev/null"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let out = run("2", &["table1", "--json", "/dev/null"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
}
