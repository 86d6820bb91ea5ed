//! Command-line contract of the `cosmos` driver: bad numeric input exits 2
//! with a message instead of panicking or running an empty trace.

use std::process::{Command, Output};

fn cosmos(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cosmos"))
        .args(args)
        .output()
        .expect("cosmos runs")
}

#[test]
fn bad_numbers_exit_2_with_a_message() {
    for (args, message) in [
        (&["--accesses", "abc"][..], "--accesses needs a number"),
        (&["--seed", "-1"], "--seed needs a number"),
        (&["--cores", "four"], "--cores needs a number"),
        (&["--accesses", "0"], "--accesses must be positive"),
        (&["--cores", "0"], "--cores must be positive"),
        (&["--cores", "257"], "--cores must be at most 256"),
    ] {
        let out = cosmos(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(message), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

#[test]
fn an_unservable_budget_exits_2_naming_the_bound() {
    for (args, bound) in [
        (
            &["--workload", "mcf", "--accesses", "3"][..],
            "below the core count 4",
        ),
        (
            &["--accesses", "7", "--cores", "8"],
            "below the core count 8",
        ),
        (
            &["--accesses", "18446744073709551615"],
            "exceeds 576460752303423487",
        ),
    ] {
        let out = cosmos(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(bound), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

#[test]
fn a_small_valid_run_prints_its_table() {
    let out = cosmos(&[
        "--workload",
        "mcf",
        "--design",
        "np",
        "--accesses",
        "2000",
        "--cores",
        "2",
    ]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("NP"));
}
