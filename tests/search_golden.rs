//! Byte goldens of `ccube search` and `ccube search --bounds`.
//!
//! Both commands lint every candidate, simulate the survivors and print
//! the pruning log, the rows and the winners. `tests/data/search.txt`
//! and `tests/data/search_bounds.txt` pin their stdout, so a change to
//! the static gate, the certified bound or the simulator that moves any
//! printed byte fails here.

use std::process::Command;

fn stdout_of(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ccube"))
        .args(args)
        .output()
        .expect("ccube runs");
    assert!(out.status.success(), "ccube {args:?}: {:?}", out.status);
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

fn golden(name: &str) -> String {
    let path = format!("{}/../../tests/data/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing golden {path}: {e}"))
}

#[test]
fn search_stdout_matches_golden() {
    assert_eq!(
        stdout_of(&["search", "--threads", "1"]),
        golden("search.txt")
    );
}

#[test]
fn search_bounds_stdout_matches_golden() {
    assert_eq!(
        stdout_of(&["search", "--bounds"]),
        golden("search_bounds.txt")
    );
}
