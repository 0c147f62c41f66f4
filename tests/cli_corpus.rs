//! The `ccube` CLI corpus: one or more invocations per (subcommand,
//! mode), each pinned by its exit code, a digest of its stdout and a
//! digest of every file it writes, against `tests/data/cli_corpus.txt`.
//!
//! Each invocation runs in a fresh empty directory, so a relative output
//! path lands inside it and a usage error provably writes nothing. A
//! record line reads `<args> | <what> <value>`, where `<what>` is
//! `exit`, `stdout` or a written file's relative path; on drift the test
//! prints every missing (`-`) and unexpected (`+`) line.

use std::path::Path;
use std::process::Command;

const CORPUS: &str = include_str!("data/cli_corpus.txt");

/// The pinned invocations: at least one per (subcommand, mode), plus
/// three usage errors.
const INVOCATIONS: &[&str] = &[
    "figures figs --threads 2",
    "compare resnet50",
    "compare vgg16 32 --low",
    "scaleout 16 1 --threads 1",
    "scaleout 16 1 --fabric switch --uplinks 2 --uplink-policy least-queued --threads 2",
    "search --threads 2",
    "search --bounds",
    "timeline 1",
    "train 2",
    "rings",
    "faults grid.csv --seed 195 --threads 2",
    "faults --smoke",
    "faults --smoke s.csv",
    "faults --smoke --fabric switch --uplinks 2",
    "faults --shrink 195",
    "faults --html f.html --seed 195",
    "trace t.csv",
    "trace --json --fabric switch",
    "trace --html t.html",
    "trace --diff 7 8",
    "trace --diff 7 7 --html d.html",
    "lint all",
    "lint all --json",
    "lint deadlock",
    "lint --physical all --json",
    "lint --physical hier16-ring-uplinks",
    "help",
    // Usage errors: exit 2, nothing on stdout, nothing written.
    "figures out extra",
    "faults --shrink 7 --seed 3",
    "trace --html t.html out.csv",
];

/// FNV-1a 64 of `bytes`, with their length.
fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("fnv1a64:{h:016x}:{}", bytes.len())
}

/// Every file under `dir`, as (relative path with `/` separators, bytes),
/// sorted by path.
fn files_under(dir: &Path, root: &Path, out: &mut Vec<(String, Vec<u8>)>) {
    for entry in std::fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            files_under(&path, root, out);
        } else {
            let rel = path.strip_prefix(root).unwrap();
            let rel: Vec<_> = rel.iter().map(|c| c.to_string_lossy()).collect();
            out.push((rel.join("/"), std::fs::read(&path).expect("readable file")));
        }
    }
    out.sort();
}

/// Runs one invocation in a fresh empty directory; returns its record
/// lines.
fn record(index: usize, invocation: &str) -> Vec<String> {
    let cwd = std::env::temp_dir().join(format!("ccube_cli_corpus_{}_{index}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(&cwd).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_ccube"))
        .args(invocation.split_whitespace())
        .current_dir(&cwd)
        .output()
        .expect("ccube runs");
    let code = out
        .status
        .code()
        .map_or_else(|| "signal".to_string(), |c| c.to_string());
    let mut lines = vec![
        format!("{invocation} | exit {code}"),
        format!("{invocation} | stdout {}", digest(&out.stdout)),
    ];
    let mut files = Vec::new();
    files_under(&cwd, &cwd, &mut files);
    for (path, bytes) in files {
        lines.push(format!("{invocation} | {path} {}", digest(&bytes)));
    }
    let _ = std::fs::remove_dir_all(&cwd);
    lines
}

#[test]
fn digest_is_fnv1a_with_length() {
    assert_eq!(digest(b""), "fnv1a64:cbf29ce484222325:0");
    assert_eq!(digest(b"a"), "fnv1a64:af63dc4c8601ec8c:1");
}

#[test]
fn every_invocation_matches_the_corpus() {
    let actual: Vec<String> = INVOCATIONS
        .iter()
        .enumerate()
        .flat_map(|(i, inv)| record(i, inv))
        .collect();
    let expected: Vec<&str> = CORPUS.lines().collect();
    let mut drift = Vec::new();
    for line in &expected {
        if !actual.iter().any(|a| a == line) {
            drift.push(format!("- {line}"));
        }
    }
    for line in &actual {
        if !expected.contains(&line.as_str()) {
            drift.push(format!("+ {line}"));
        }
    }
    assert!(
        drift.is_empty(),
        "ccube output drifted from tests/data/cli_corpus.txt:\n{}",
        drift.join("\n")
    );
    assert_eq!(expected.len(), actual.len(), "the corpus repeats a line");
}
