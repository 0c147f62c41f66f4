//! Help/docs drift audit: every flag and subcommand the `ccube` binary
//! actually parses must be documented — in the binary's own `USAGE`
//! text, and in README.md's subcommand table.
//!
//! The binary's source is audited textually (`include_str!`), so adding
//! a `split_flag(.., "--new-flag")` call without touching the help text
//! fails this test instead of shipping stale docs — the drift this PR
//! fixed (the pre-seed `trace --diff` wording) stays fixed.

/// The CLI source; `USAGE` is extracted out of it below.
const CCUBE_SRC: &str = include_str!("../crates/core/src/bin/ccube.rs");
const README: &str = include_str!("../README.md");
const EXPERIMENTS: &str = include_str!("../EXPERIMENTS.md");

/// The `USAGE` string constant, as written in the source (escape
/// sequences left verbatim — good enough for substring audits).
fn usage_text() -> &'static str {
    let start = CCUBE_SRC
        .find("const USAGE: &str = \"")
        .expect("ccube.rs defines const USAGE");
    let rest = &CCUBE_SRC[start..];
    let open = rest.find('"').unwrap() + 1;
    let close = rest.find("\";").expect("USAGE terminates");
    &rest[open..close]
}

/// Every quoted `"--flag"` literal the source compares arguments
/// against — i.e. the flags the binary genuinely parses.
fn parsed_flags() -> Vec<String> {
    let mut flags = std::collections::BTreeSet::new();
    let mut rest = CCUBE_SRC;
    while let Some(pos) = rest.find("\"--") {
        rest = &rest[pos + 1..];
        let end = rest.find('"').expect("string literal closes");
        let flag = rest[..end].trim_end_matches('=').to_string();
        // Keep only flag-shaped literals (`--lower-case`): error-message
        // strings that merely *mention* a flag start the same way but
        // carry spaces or braces. `"--"` alone is the separator test.
        // `--help` prints the help — documenting it inside itself would
        // be circular, so it is exempt.
        if flag.len() > 2
            && flag != "--help"
            && flag[2..]
                .chars()
                .all(|c| c.is_ascii_lowercase() || c == '-')
        {
            flags.insert(flag);
        }
        rest = &rest[end..];
    }
    flags.into_iter().collect()
}

/// The subcommand names dispatched in `main`'s match.
fn subcommands() -> Vec<&'static str> {
    let mut out = Vec::new();
    for line in CCUBE_SRC.lines() {
        let line = line.trim_start();
        let Some(rest) = line.strip_prefix('"') else {
            continue;
        };
        let Some((name, tail)) = rest.split_once('"') else {
            continue;
        };
        if tail.trim_start().starts_with("=> cmd_") {
            out.push(name);
        }
    }
    assert!(out.len() >= 10, "subcommand match arms found: {out:?}");
    out
}

#[test]
fn every_parsed_flag_is_in_usage() {
    let usage = usage_text();
    for flag in parsed_flags() {
        assert!(
            usage.contains(&flag),
            "{flag} is parsed by ccube but missing from USAGE"
        );
    }
}

#[test]
fn every_parsed_flag_is_in_readme() {
    for flag in parsed_flags() {
        assert!(
            README.contains(&flag),
            "{flag} is parsed by ccube but missing from README.md"
        );
    }
}

#[test]
fn every_subcommand_is_in_usage_and_readme() {
    let usage = usage_text();
    for cmd in subcommands() {
        assert!(usage.contains(cmd), "subcommand {cmd} missing from USAGE");
        assert!(
            README.contains(&format!("`ccube {cmd}")) || README.contains(&format!("ccube {cmd}")),
            "subcommand {cmd} missing from README.md"
        );
    }
}

#[test]
fn usage_flags_all_exist() {
    // The reverse audit: a flag advertised in USAGE must actually be
    // parsed somewhere — stale help lines fail here.
    let parsed = parsed_flags();
    for word in usage_text().split_whitespace() {
        let word = word.trim_matches(|c: char| !c.is_ascii_alphanumeric() && c != '-');
        if word.starts_with("--") {
            assert!(
                parsed.iter().any(|p| p == word),
                "USAGE advertises {word} but ccube never parses it"
            );
        }
    }
}

#[test]
fn diff_docs_mention_live_seeds() {
    // The PR 8 drift this test exists for: `trace --diff` accepts live
    // seeds, not just CSV paths, and every doc surface must say so.
    let usage = usage_text();
    let diff_line = usage
        .lines()
        .skip_while(|l| !l.contains("--diff"))
        .take(3)
        .collect::<Vec<_>>()
        .join(" ");
    assert!(
        diff_line.contains("seed"),
        "USAGE's trace --diff lines must mention seeds: {diff_line:?}"
    );
    for (name, doc) in [("README.md", README), ("EXPERIMENTS.md", EXPERIMENTS)] {
        let around = doc
            .split("--diff")
            .skip(1)
            .any(|after| after[..after.len().min(200)].contains("seed"));
        assert!(
            around,
            "{name} must document that trace --diff sides can be live-run seeds"
        );
    }
}

#[test]
fn html_viewer_is_documented_everywhere() {
    for (name, doc) in [
        ("USAGE", usage_text()),
        ("README.md", README),
        ("EXPERIMENTS.md", EXPERIMENTS),
    ] {
        assert!(
            doc.contains("--html"),
            "{name} must document the --html viewer output"
        );
    }
}
