//! Exit-code contract of the positional arguments of `ccube scaleout`,
//! `timeline`, `compare` and `train`: a malformed or zero count or size
//! is a usage error (exit 2), never a silent fallback to the default.

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

fn ccube(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ccube"))
        .args(args)
        .output()
        .expect("ccube runs")
}

#[test]
fn timeline_compare_and_train_reject_malformed_counts() {
    for args in [
        &["timeline", "abc"][..],
        &["timeline", "0"],
        &["compare", "resnet50", "x"],
        &["compare", "resnet50", "0"],
        &["compare", "resnet50", "0", "--low"],
        &["train", "x"],
        &["train", "0"],
    ] {
        let out = ccube(args);
        assert_eq!(out.status.code(), Some(2), "ccube {args:?}");
        assert!(out.stdout.is_empty(), "ccube {args:?} printed output");
        let err = String::from_utf8_lossy(&out.stderr);
        let prefix = format!("{}: ", args[0]);
        assert!(err.starts_with(&prefix), "ccube {args:?}: {err}");
    }
}

#[test]
fn valid_counts_still_run() {
    for args in [
        &["timeline", "1"][..],
        &["compare", "resnet50", "--low"],
        &["compare", "vgg16", "32", "--low"],
        &["train", "1"],
    ] {
        let out = ccube(args);
        assert!(out.status.success(), "ccube {args:?}");
        assert!(!out.stdout.is_empty(), "ccube {args:?} printed nothing");
    }
}
