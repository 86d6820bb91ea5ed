//! Command-line contract of the `cosmos-lint` binary.

use std::process::{Command, Output};

fn cosmos_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cosmos-lint"))
        .args(args)
        .output()
        .expect("cosmos-lint runs")
}

#[test]
fn help_exits_0_with_the_usage() {
    for flag in ["--help", "-h"] {
        let out = cosmos_lint(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let usage = String::from_utf8_lossy(&out.stdout);
        assert!(usage.contains("cosmos-lint [OPTIONS]"), "{flag}: {usage}");
        for option in ["--root DIR", "-q, --quiet"] {
            assert!(usage.contains(option), "{flag}: {option} missing: {usage}");
        }
        assert!(!String::from_utf8_lossy(&out.stderr).contains("panicked"));
    }
}

#[test]
fn bad_arguments_exit_2_naming_the_flag() {
    for (args, message) in [
        (&["--frobnicate"][..], "unknown argument: --frobnicate"),
        (&["--root"], "--root needs a value"),
        (&["--json", "report.json"], "unknown argument: --json"),
        (&["-q", "--list-rules"], "unknown argument: --list-rules"),
    ] {
        let out = cosmos_lint(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(message), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
    }
}
