//! Help/docs drift audit: every subcommand, mode and flag in the
//! `ccube` table (`ccube::cli::MODES`) must be documented — in the help
//! text, and in README.md's subcommand and flag tables — and every flag
//! either advertises must exist in the table.

use ccube::cli;

const README: &str = include_str!("../README.md");
const EXPERIMENTS: &str = include_str!("../EXPERIMENTS.md");

/// Every flag any mode reads, the fabric flags included.
fn table_flags() -> Vec<&'static str> {
    let mut flags: Vec<&str> = cli::modes().flat_map(|m| m.flags).collect();
    flags.sort_unstable();
    flags.dedup();
    assert!(flags.len() >= 15, "flags read from the table: {flags:?}");
    flags
}

/// Every subcommand in the table.
fn subcommands() -> Vec<&'static str> {
    let mut out: Vec<&str> = cli::modes().map(|m| m.command).collect();
    out.dedup();
    assert!(out.len() >= 10, "subcommands read from the table: {out:?}");
    out
}

/// README's CLI rows: its subcommand table (`| `ccube …` |`) and its
/// flag table (`| `--…` |`).
fn readme_cli_rows() -> Vec<&'static str> {
    let rows: Vec<&str> = README
        .lines()
        .filter(|l| l.starts_with("| `ccube ") || l.starts_with("| `--"))
        .collect();
    assert!(rows.len() >= 20, "README CLI rows: {rows:?}");
    rows
}

/// The `--flag` words of `text`.
fn flag_words(text: &str) -> Vec<&str> {
    let words = text.split(|c: char| !c.is_ascii_alphanumeric() && c != '-');
    words
        .filter(|w| w.starts_with("--") && w.len() > 2)
        .collect()
}

#[test]
fn every_parsed_flag_is_in_usage() {
    let help = cli::help();
    for mode in cli::modes() {
        assert!(
            help.contains(mode.synopsis),
            "{} missing from the help",
            mode.synopsis
        );
    }
    for flag in table_flags() {
        assert!(
            help.contains(flag),
            "{flag} is parsed by ccube but missing from the help"
        );
    }
}

#[test]
fn every_parsed_flag_is_in_readme() {
    let rows = readme_cli_rows().join("\n");
    for mode in cli::modes() {
        let row = format!("| `ccube {}` |", mode.synopsis);
        assert!(rows.contains(&row), "README.md has no row {row}");
    }
    for flag in table_flags() {
        assert!(
            rows.contains(&format!("| `{flag}")) || rows.contains(&format!(", `{flag}")),
            "{flag} is parsed by ccube but missing from README.md's flag table"
        );
    }
}

#[test]
fn every_subcommand_is_in_usage_and_readme() {
    let help = cli::help();
    for cmd in subcommands() {
        assert!(help.contains(&format!("\n  {cmd} ")) || help.contains(&format!("\n  {cmd}\n")));
        assert!(
            README.contains(&format!("| `ccube {cmd}")),
            "subcommand {cmd} missing from README.md's subcommand table"
        );
    }
}

#[test]
fn usage_flags_all_exist() {
    // The reverse audit: a flag the help or README's CLI tables advertise
    // must be in the table, and every README subcommand row must be a
    // mode's synopsis — stale help or README lines fail here.
    let flags = table_flags();
    let help = cli::help();
    let rows = readme_cli_rows();
    for word in flag_words(&help)
        .into_iter()
        .chain(rows.iter().flat_map(|r| flag_words(r)))
    {
        assert!(
            flags.contains(&word),
            "{word} is advertised but ccube never parses it"
        );
    }
    let synopses: Vec<&str> = cli::modes().map(|m| m.synopsis).collect();
    for row in rows.iter().filter(|r| r.starts_with("| `ccube ")) {
        let synopsis = row["| `ccube ".len()..].split('`').next().unwrap();
        assert!(
            synopses.contains(&synopsis),
            "README.md row {row:?} is no mode of ccube"
        );
    }
}

#[test]
fn diff_docs_mention_live_seeds() {
    // The PR 8 drift this test exists for: `trace --diff` accepts live
    // seeds, not just CSV paths, and every doc surface must say so.
    let help = cli::help();
    let diff_line = help
        .lines()
        .skip_while(|l| !l.contains("trace --diff"))
        .take(3)
        .collect::<Vec<_>>()
        .join(" ");
    assert!(
        diff_line.contains("seed"),
        "the help's trace --diff lines must mention seeds: {diff_line:?}"
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
        ("the help", cli::help().as_str()),
        ("README.md", README),
        ("EXPERIMENTS.md", EXPERIMENTS),
    ] {
        assert!(
            doc.contains("--html"),
            "{name} must document the --html viewer output"
        );
    }
}
