//! Exit-code contract of `ccube scaleout`'s positional arguments: a
//! malformed `max_p` or size is a usage error (exit 2), never a silent
//! fallback to the default grid.

use std::process::{Command, Output};

fn scaleout(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ccube"))
        .arg("scaleout")
        .args(args)
        .args(["--threads", "1"])
        .output()
        .expect("ccube runs")
}

#[test]
fn scaleout_rejects_malformed_arguments() {
    for args in [
        &["abc"][..],
        &["3"],
        &["-8"],
        &["16", "6x4"],
        &["16", "0"],
        &["16", "1", "--bogus"],
    ] {
        let out = scaleout(args);
        assert_eq!(out.status.code(), Some(2), "scaleout {args:?}");
        assert!(out.stdout.is_empty(), "scaleout {args:?} printed rows");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("scaleout: "), "scaleout {args:?}: {err}");
    }
}

#[test]
fn scaleout_runs_the_requested_grid() {
    // P = 4 and 8 at 1 MiB: one row per grid point.
    let out = scaleout(&["8", "1"]);
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).lines().count(), 2);
}
