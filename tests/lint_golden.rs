//! Byte-stable goldens for `ccube lint --json`.
//!
//! Two cases are pinned on their own: the DGX-1 CC schedule (the
//! conflict-free overlapped double tree — must lint clean) and the
//! deliberately conflicting single-tree embedding whose forced detour
//! shares another edge's channel. `lint_all.json` and
//! `lint_physical_all.json` pin every case, as `ccube lint all --json`
//! and `ccube lint --physical all --json` print them. The JSON is
//! hand-rolled with stable key order and deterministic (BTreeMap-ordered)
//! diagnostics, so the files must match byte for byte; a diff means the
//! lint output contract changed.
//!
//! To regenerate after an *intentional* contract change:
//!
//! ```text
//! cargo run --bin ccube -- lint dgx1-cc --json   # first array element
//! cargo run --bin ccube -- lint conflict --json
//! cargo run --bin ccube -- lint all --json > tests/data/lint_all.json
//! cargo run --bin ccube -- lint --physical all --json > tests/data/lint_physical_all.json
//! ```

use ccube::lint;

fn golden(name: &str) -> String {
    let path = format!("{}/../../tests/data/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

#[test]
fn dgx1_cc_json_is_byte_stable() {
    let case = lint::run_case("dgx1-cc").expect("known case");
    assert!(case.report.is_clean(), "{}", case.report);
    assert_eq!(case.to_json(), golden("lint_dgx1_cc.json").trim_end());
}

#[test]
fn conflict_json_is_byte_stable() {
    let case = lint::run_case("conflict").expect("known case");
    assert!(!case.report.is_clean(), "the demo must carry errors");
    assert_eq!(case.to_json(), golden("lint_conflict.json").trim_end());
}

/// `ccube lint [--physical] <name> --json` for a named case, or for
/// every case when `name` is `all`.
fn lint_json(physical: bool, name: &str) -> String {
    match (physical, name) {
        (false, "all") => lint::to_json(&lint::run_all()),
        (true, "all") => lint::to_json(&lint::run_physical_all()),
        (false, _) => lint::run_case(name).expect("known case").to_json(),
        (true, _) => lint::run_physical_case(name).expect("known case").to_json(),
    }
}

/// The logical-analyzer goldens beyond the two cases above: `(case,
/// golden file)` pairs pinned byte for byte.
const LOGICAL_GOLDENS: [(&str, &str); 1] = [("all", "lint_all.json")];

#[test]
fn logical_json_is_byte_stable() {
    for (name, file) in LOGICAL_GOLDENS {
        assert_eq!(lint_json(false, name), golden(file).trim_end(), "{name}");
    }
}

#[test]
fn json_runs_are_deterministic() {
    // Same process, repeated runs: byte-identical output (no HashMap
    // iteration order anywhere in the lint path).
    for name in ["dgx1-cc", "conflict", "dgx1-naive-double", "all"] {
        assert_eq!(lint_json(false, name), lint_json(false, name), "{name}");
    }
}

/// The physical-analyzer goldens: `(case, golden file)` pairs pinned
/// byte for byte. `lint_fabric_skew.json` is the PR 8 hazard — the ring
/// whose cross-leaf crossings all hash to uplink slot 1 — caught
/// statically as eight `CC016` warnings.
const FABRIC_GOLDENS: [(&str, &str); 5] = [
    ("hier16-ring-uplinks", "lint_fabric_skew.json"),
    ("hier16-oversub", "lint_fabric_oversub.json"),
    ("dgx1-cc-physical", "lint_fabric_clean.json"),
    ("severed-ring", "lint_fabric_severed.json"),
    ("all", "lint_physical_all.json"),
];

#[test]
fn fabric_json_is_byte_stable() {
    for (name, file) in FABRIC_GOLDENS {
        assert_eq!(lint_json(true, name), golden(file).trim_end(), "{name}");
    }
}

#[test]
fn fabric_json_runs_are_deterministic() {
    for (name, _) in FABRIC_GOLDENS {
        assert_eq!(lint_json(true, name), lint_json(true, name), "{name}");
    }
}

/// The CI-gate contract: `ccube lint` exits 1 exactly when the gated
/// report set carries an error-severity diagnostic. `all` exempts the
/// DEMO cases (their errors are the demonstration); naming a case
/// explicitly gates on it, DEMO or not.
#[test]
fn lint_exit_codes_gate_on_errors() {
    let run = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_ccube"))
            .arg("lint")
            .args(args)
            .output()
            .expect("ccube runs")
    };
    // Shipped configurations are clean: full runs gate green.
    assert!(run(&["all"]).status.success());
    assert!(run(&["--physical", "all", "--json"]).status.success());
    // A clean named case exits 0, logical or physical.
    assert!(run(&["dgx1-cc"]).status.success());
    assert!(run(&["--physical", "dgx1-cc-physical"]).status.success());
    // A named case with errors exits 1 — the CI gate.
    assert_eq!(run(&["deadlock"]).status.code(), Some(1));
    assert_eq!(run(&["--physical", "severed-ring"]).status.code(), Some(1));
    // Unknown cases are usage errors (2), not lint failures.
    assert_eq!(run(&["nope"]).status.code(), Some(2));
    assert_eq!(run(&["--physical", "nope"]).status.code(), Some(2));
}
