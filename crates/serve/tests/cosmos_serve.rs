//! Command-line contract of the `cosmos_serve` binary.

use std::process::{Command, Output};

fn cosmos_serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cosmos_serve"))
        .args(args)
        .output()
        .expect("cosmos_serve runs")
}

#[test]
fn ckpt_rejects_bad_access_counts_without_running() {
    let snap =
        std::env::temp_dir().join(format!("cosmos_serve_cli_{}.snap.json", std::process::id()));
    let snap = snap.to_str().unwrap();
    for (accesses, message) in [
        ("0", "--accesses must be positive"),
        ("abc", "--accesses needs a number"),
    ] {
        let out = cosmos_serve(&[
            "ckpt",
            "--design",
            "NP",
            "--workload",
            "bfs",
            "--accesses",
            accesses,
            "--snapshot",
            snap,
        ]);
        assert_eq!(out.status.code(), Some(2), "--accesses {accesses}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(message), "--accesses {accesses}: {err}");
        assert!(
            !std::path::Path::new(snap).exists(),
            "--accesses {accesses} must not run"
        );
    }
}

#[test]
fn help_prints_usage_with_or_without_a_subcommand() {
    for args in [&["--help"][..], &["ckpt", "--help"], &["serve", "--help"]] {
        let out = cosmos_serve(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        let usage = String::from_utf8_lossy(&out.stdout);
        assert!(usage.starts_with("usage:"), "{args:?}: {usage}");
        assert!(usage.contains("cosmos_serve ckpt") && usage.contains("cosmos_serve serve"));
    }
}

#[test]
fn ckpt_refuses_an_unsavable_design_before_running() {
    let snap = std::env::temp_dir().join(format!(
        "cosmos_serve_cli_rmcc_{}.snap.json",
        std::process::id()
    ));
    let snap = snap.to_str().unwrap();
    for stop in [&["--snapshot-every", "5000"][..], &["--stop-after", "100"]] {
        let mut args = vec![
            "ckpt",
            "--design",
            "RMCC",
            "--workload",
            "bfs",
            "--accesses",
            "20000",
            "--snapshot",
            snap,
        ];
        args.extend_from_slice(stop);
        let out = cosmos_serve(&args);
        assert_eq!(out.status.code(), Some(2), "{stop:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("cannot snapshot boxed policy `SHiP`"),
            "{stop:?}: {err}"
        );
        assert!(
            !std::path::Path::new(snap).exists(),
            "{stop:?} must not run"
        );
    }
}

#[test]
fn server_refuses_more_workers_than_the_bound_before_starting() {
    use cosmos_serve::server::{Server, ServerOpts, MAX_WORKERS};
    let dir = std::env::temp_dir().join(format!("cosmos_serve_workers_{}", std::process::id()));
    let opts = |workers| ServerOpts {
        state_dir: dir.clone(),
        workers,
        socket: None,
        resume: false,
    };
    for workers in [MAX_WORKERS + 1, 100_000, usize::MAX] {
        let err = Server::new(opts(workers)).err().expect("too many workers");
        assert!(err.contains("at most 256"), "{workers}: {err}");
        assert!(!dir.exists(), "{workers}: the state dir must not be made");
    }
    assert!(Server::new(opts(MAX_WORKERS)).is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn serve_rejects_a_jobs_count_past_the_bound_without_starting() {
    let state = std::env::temp_dir().join(format!("cosmos_serve_cli_jobs_{}", std::process::id()));
    let out = cosmos_serve(&["serve", "--jobs", "257", "--state", state.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("at most 256"), "{err}");
    assert!(
        !state.exists(),
        "a refused --jobs must not start the server"
    );
    let usage = String::from_utf8_lossy(&cosmos_serve(&["--help"]).stdout).into_owned();
    assert!(usage.contains("1 to 256"), "{usage}");
}
