//! Exit-code contract of the `ccube` arguments: a malformed or zero
//! count or size, an unknown flag, a surplus argument or a flag the
//! chosen mode never reads is a usage error (exit 2, `<cmd>: …` on
//! stderr), never a silent fallback to the default.

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
        // 2^44 MiB is 2^64 bytes: one past what a byte count can hold.
        &["16", "17592186044416"],
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
        &["timeline", "17592186044416"],
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
fn threads_flag_rejects_bad_values_and_runs_on_good_ones() {
    for args in [
        &["scaleout", "8", "1", "--threads"][..],
        &["scaleout", "8", "1", "--threads", "0"],
        &["scaleout", "8", "1", "--threads", "nope"],
        &["scaleout", "8", "1", "--threads=0"],
        &["--threads=0", "scaleout", "8", "1"],
    ] {
        let out = ccube(args);
        assert_eq!(out.status.code(), Some(2), "ccube {args:?}");
        assert!(out.stdout.is_empty(), "ccube {args:?} printed output");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.starts_with("scaleout: --threads "),
            "ccube {args:?}: {err}"
        );
    }
    // Either spelling, before or after the subcommand; the flag is
    // stripped and the rest of the arguments are kept.
    for args in [
        &["scaleout", "8", "1", "--threads=2"][..],
        &["--threads", "2", "scaleout", "8", "1"],
    ] {
        let out = ccube(args);
        assert!(out.status.success(), "ccube {args:?}");
        assert_eq!(String::from_utf8_lossy(&out.stdout).lines().count(), 2);
    }
}

/// A one-record trace CSV whose transfer ends at `t_us`.
fn trace_csv(t_us: &str) -> String {
    format!("kind,id,channel_or_gpu,t_us,extra_us\ntransfer_end,0,,{t_us},\n")
}

#[test]
fn trace_diff_rejects_non_finite_and_negative_timestamps() {
    let dir = std::env::temp_dir().join(format!("ccube_cli_trace_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let good = dir.join("good.csv");
    std::fs::write(&good, trace_csv("1.000")).unwrap();
    let html = dir.join("out.html");
    for (t_us, with_html) in [
        ("NaN", false),
        ("inf", true),
        ("-1.000", false),
        ("-inf", true),
    ] {
        let bad = dir.join("bad.csv");
        std::fs::write(&bad, trace_csv(t_us)).unwrap();
        let mut args = vec![
            "trace".as_ref(),
            "--diff".as_ref(),
            bad.as_os_str(),
            good.as_os_str(),
        ];
        if with_html {
            args.extend(["--html".as_ref(), html.as_os_str()]);
        }
        let out = Command::new(env!("CARGO_BIN_EXE_ccube"))
            .args(&args)
            .output()
            .expect("ccube runs");
        let err = String::from_utf8_lossy(&out.stderr);
        // A malformed side is an input error (exit 2), not a difference.
        assert_eq!(out.status.code(), Some(2), "t_us {t_us}: {err}");
        assert!(out.stdout.is_empty(), "t_us {t_us} printed a diff");
        assert!(!err.contains("panicked"), "t_us {t_us}: {err}");
        assert!(err.starts_with("trace: "), "t_us {t_us}: {err}");
        assert!(err.contains("line 2: bad timestamp"), "t_us {t_us}: {err}");
        assert!(!html.exists(), "t_us {t_us} wrote a viewer");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_diff_exit_codes_separate_input_errors_from_differences() {
    let dir = std::env::temp_dir().join(format!("ccube_cli_diff_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let missing = dir.join("missing.csv");
    let missing = missing.to_str().unwrap();
    // An unreadable path on either side, alone or against a seed.
    for sides in [[missing, "7"], ["7", missing], [missing, missing]] {
        let out = ccube(&["trace", "--diff", sides[0], sides[1]]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{sides:?}: {err}");
        assert!(out.stdout.is_empty(), "{sides:?} printed a diff");
        assert!(err.starts_with("trace: "), "{sides:?}: {err}");
        assert!(err.contains("failed to read"), "{sides:?}: {err}");
    }
    // An unwritable viewer path is an error too, even for equal traces.
    let html = dir.join("no-such-dir").join("diff.html");
    let out = ccube(&[
        "trace",
        "--diff",
        "7",
        "7",
        "--html",
        html.to_str().unwrap(),
    ]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("failed to write"), "{err}");
    // Two runs of one seed are identical (exit 0); two seeds differ (1).
    let same = ccube(&["trace", "--diff", "7", "7"]);
    assert_eq!(same.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&same.stdout),
        "traces are identical\n"
    );
    assert_eq!(ccube(&["trace", "--diff", "7", "8"]).status.code(), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
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

#[test]
fn train_stdout_is_deterministic() {
    // The thread-timing chained-start count goes to stderr; stdout holds
    // only the iterations and the bit-identity verdict.
    let a = ccube(&["train", "2"]);
    let b = ccube(&["train", "2"]);
    assert!(a.status.success() && b.status.success());
    assert_eq!(
        String::from_utf8_lossy(&a.stdout),
        "2 iterations, replicas bit-identical (== serial)\n"
    );
    assert_eq!(
        a.stdout, b.stdout,
        "two train runs printed different stdout"
    );
    assert!(String::from_utf8_lossy(&a.stderr).contains("chained layer-starts"));
}

#[test]
fn figures_rejects_unknown_flags_and_extra_arguments() {
    // Run in an empty directory: a mistaken run would write its CSVs
    // under it (into a directory named after the stray argument).
    let cwd = std::env::temp_dir().join(format!("ccube_cli_figures_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(&cwd).unwrap();
    for args in [
        &["--thread", "2"][..],
        &["out", "--bogus"],
        &["--fabric", "switch", "--uplink", "2"],
        &["out", "extra"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ccube"))
            .arg("figures")
            .args(args)
            .current_dir(&cwd)
            .output()
            .expect("ccube runs");
        assert_eq!(out.status.code(), Some(2), "figures {args:?}");
        assert!(out.stdout.is_empty(), "figures {args:?} printed output");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("figures: "), "figures {args:?}: {err}");
    }
    let written: Vec<_> = std::fs::read_dir(&cwd).unwrap().collect();
    assert!(written.is_empty(), "rejected runs wrote {written:?}");
    let _ = std::fs::remove_dir_all(&cwd);
}

/// Runs each `ccube` invocation in a fresh empty directory and asserts
/// it is a usage error that printed and wrote nothing: a mistaken run
/// would write its output file there.
fn assert_usage_errors(tag: &str, cases: &[&[&str]]) {
    let cwd = std::env::temp_dir().join(format!("ccube_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(&cwd).unwrap();
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_ccube"))
            .args(*args)
            .current_dir(&cwd)
            .output()
            .expect("ccube runs");
        assert_eq!(out.status.code(), Some(2), "ccube {args:?}");
        assert!(out.stdout.is_empty(), "ccube {args:?} printed output");
        let err = String::from_utf8_lossy(&out.stderr);
        // The subcommand, after a leading `--threads N` if any.
        let command = if args[0] == "--threads" {
            args[2]
        } else {
            args[0]
        };
        let prefix = format!("{command}: ");
        assert!(err.starts_with(&prefix), "ccube {args:?}: {err}");
    }
    let written: Vec<_> = std::fs::read_dir(&cwd).unwrap().collect();
    assert!(written.is_empty(), "rejected runs wrote {written:?}");
    let _ = std::fs::remove_dir_all(&cwd);
}

#[test]
fn every_subcommand_rejects_unknown_flags_and_surplus_arguments() {
    assert_usage_errors(
        "args",
        &[
            &["search", "--bogus"],
            &["search", "extra"],
            &["compare", "resnet50", "64", "--lo"],
            &["compare", "resnet50", "64", "extra"],
            &["timeline", "1", "2"],
            &["timeline", "1", "--bogus"],
            &["train", "1", "junk"],
            &["train", "1", "--bogus"],
            &["rings", "extra"],
            &["rings", "--bogus"],
            &["lint", "--jsn", "all"],
            &["lint", "all", "extra"],
            &["faults", "--smoke", "--bogus"],
            &["faults", "--smoke", "a.csv", "b.csv"],
            &["trace", "--jsno"],
            &["trace", "a.csv", "b.csv"],
            // A repeated flag is a usage error, never a silent override:
            // valued or switch, spelled alike or not, and `--threads`
            // before and after the subcommand.
            &["scaleout", "8", "1", "--threads", "1", "--threads", "2"],
            &["scaleout", "8", "1", "--threads=1", "--threads", "2"],
            &["--threads", "1", "scaleout", "8", "1", "--threads", "2"],
            &["figures", "out", "--fabric", "switch", "--fabric", "approx"],
            &["faults", "--smoke", "--smoke"],
            &["faults", "grid.csv", "--seed", "1", "--seed=2"],
            &["trace", "--json", "--json"],
            &["lint", "all", "--json", "--json"],
            &["compare", "resnet50", "--low", "--low"],
        ],
    );
}

#[test]
fn flags_the_chosen_mode_never_reads_are_rejected() {
    assert_usage_errors(
        "modes",
        &[
            &["faults", "--shrink", "7", "--seed", "3"],
            &["faults", "--shrink", "7", "--smoke"],
            &["faults", "--shrink", "7", "--html", "f.html"],
            &["faults", "--shrink", "7", "out.csv"],
            &["faults", "--html", "f.html", "--smoke"],
            &["faults", "--html", "f.html", "out.csv"],
            &["faults", "--smoke", "--seed", "3"],
            &["trace", "--diff", "7", "8", "--json"],
            &["trace", "--diff", "7", "8", "--seed=3"],
            &["trace", "--html", "t.html", "out.csv"],
            // Only sweeps read --threads, and the failover demo fixes its
            // own fabric.
            &["rings", "--threads", "2"],
            &["compare", "zfnet", "--threads", "3"],
            &["timeline", "1", "--threads", "2"],
            &["train", "1", "--threads", "2"],
            &["lint", "all", "--threads", "2"],
            &["trace", "--threads", "2"],
            &["search", "--bounds", "--threads", "2"],
            &["faults", "--smoke", "--threads", "2"],
            &["faults", "--shrink", "7", "--threads", "2"],
            &["faults", "--html", "f.html", "--threads", "2"],
            &[
                "faults",
                "--html",
                "f.html",
                "--fabric",
                "switch",
                "--uplinks",
                "2",
            ],
        ],
    );
}
