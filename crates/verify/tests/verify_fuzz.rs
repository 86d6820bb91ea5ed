//! Command-line contract of the `verify_fuzz` binary.

use std::process::{Command, Output};

fn verify_fuzz(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_verify_fuzz"))
        .args(args)
        .output()
        .expect("verify_fuzz runs")
}

#[test]
fn bad_options_exit_2_without_running_a_case() {
    for (args, message) in [
        (&["--cases", "0"][..], "--cases must be positive"),
        (&["--seed", "x"], "--seed needs a number, got \"x\""),
        (
            &["--accesses", "-1"],
            "--accesses needs a number, got \"-1\"",
        ),
    ] {
        let out = verify_fuzz(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(message), "{args:?}: {err}");
        let cases = String::from_utf8_lossy(&out.stdout);
        assert!(!cases.contains("case"), "{args:?} ran cases: {cases}");
    }
}

#[test]
fn help_prints_usage() {
    let out = verify_fuzz(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE: verify_fuzz"));
}
