//! The `ccube` command line as one table.
//!
//! [`MODES`] lists every mode of every subcommand as its help synopsis,
//! and `KINDS` gives each valued flag and each positional its kind.
//! [`parse`] checks a command line against them and [`help`] prints
//! them, so which flags a mode reads is written down once.

use ccube_topology::ByteSize;
use Kind::{Choice, Count, Mib, Path, Seed, Switch};

/// Every mode of every subcommand: its synopsis, then what it does
/// (after two spaces, or on the indented lines below). A synopsis is the
/// subcommand's name; for a mode other than the subcommand's default,
/// the flag that selects it; the mode's positionals, `<name>`
/// (required), `[name]` (optional) or `[name...]` (any number); and, in
/// brackets, every other flag the mode reads. `[fabric flags]` stands
/// for [`FABRIC_FLAGS`]. The first mode whose flag is given is chosen,
/// else the default.
pub const MODES: &str = "\
figures [out_dir] [--threads N] [fabric flags]
                                   regenerate every paper figure (CSV)
compare <network> [batch] [--low]  mode table for zfnet|vgg16|resnet50
scaleout [max_p] [mib...] [--threads N] [fabric flags]
                                   Fig. 14 sweep on the hierarchical fabric
search [--threads N]               best schedule per topology (policy search)
search --bounds                    the same, pruned by certified lower bounds
timeline [mib]                     ASCII Fig. 7 timelines on the DGX-1
train [iterations]                 threaded C-Cube training loop
rings                              DGX-1 Hamiltonian ring decomposition
faults [out] [--seed N] [--threads N] [fabric flags]
                                   resilience sweep under sampled fault plans
faults --smoke [out] [fabric flags]
                                   its smallest faulty slice, default seed
faults --shrink <seed> [fabric flags]
                                   1-minimal reproducer of the seed's plan
faults --html <out.html> [--seed N]
                                   failover demo viewer: k=1 vs k=2 uplinks
trace [out] [--json] [--seed N] [fabric flags]
                                   faulted C1 trace (CSV or Chrome JSON)
trace --diff <a> <b> [--html <out.html>] [fabric flags]
                                   compare two traces, each a trace-CSV path
                                   or a live-run seed (--html: side by side)
trace --html <out.html> [--seed N] [fabric flags]
                                   the same run, as a self-contained HTML file
lint [case] [--json]               schedule analyzer (CC001..): a case or all
lint --physical [case] [--json]    physical-layer analyzer (CC015.. lints:
                                   fabric hazards, bounds, fault severance)
";

/// What the help says about the flags several subcommands share.
const NOTES: &str = "\
--threads N may also precede the command; results are bit-identical at
any worker count (default: all cores).
[fabric flags]: --fabric {approx,switch} picks the channel approximation
(default) or the componentized switch fabric; --radix N, --spines N,
--uplinks N and --uplink-policy {hash,least-queued,failover} shape the
spine/leaf fabric and imply --fabric switch.
An unknown or repeated flag, a surplus argument, or a flag the chosen
mode does not read is a usage error (exit 2).";

/// The flags `[fabric flags]` stands for.
pub const FABRIC_FLAGS: &str = "--fabric --radix --spines --uplinks --uplink-policy";

/// What a flag's value, or a positional, holds: nothing (a switch), a
/// positive integer, a positive size in MiB whose byte count fits in a
/// `u64`, any `u64`, any text (a path, a case name, a trace-diff side),
/// or one of the listed words.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Switch,
    Count,
    Mib,
    Seed,
    Path,
    Choice(&'static [&'static str]),
}

/// The kind of every valued flag and every positional in [`MODES`]; a
/// flag not listed is a switch.
const KINDS: &[(&str, Kind)] = &[
    ("--threads", Count),
    ("--seed", Seed),
    ("--shrink", Seed),
    ("--html", Path),
    ("--fabric", Choice(&["approx", "switch"])),
    ("--radix", Count),
    ("--spines", Count),
    ("--uplinks", Count),
    (
        "--uplink-policy",
        Choice(&["hash", "least-queued", "failover"]),
    ),
    ("out_dir", Path),
    ("network", Choice(&["zfnet", "vgg16", "resnet50"])),
    ("batch", Count),
    ("max_p", Count),
    ("mib", Mib),
    ("iterations", Count),
    ("out", Path),
    ("a", Path),
    ("b", Path),
    ("case", Path),
];

fn kind(name: &str) -> Kind {
    let found = KINDS.iter().find(|(n, _)| *n == name);
    found.map_or(Switch, |&(_, k)| k)
}

/// One mode of a subcommand, read from its [`MODES`] line.
#[derive(Debug, Default)]
pub struct Mode {
    /// The subcommand the mode belongs to.
    pub command: &'static str,
    /// The synopsis: the command line the mode accepts.
    pub synopsis: &'static str,
    /// The flag that selects the mode; `""` for the default mode.
    pub flag: &'static str,
    /// The positionals in order: name, required, repeated.
    pub args: Vec<(&'static str, bool, bool)>,
    /// Every flag the mode reads, its own flag included.
    pub flags: Vec<&'static str>,
}

impl Mode {
    fn read(line: &'static str) -> Mode {
        let synopsis = line.split("  ").next().unwrap_or(line);
        let mut mode = Mode {
            command: synopsis.split(' ').next().unwrap_or(synopsis),
            synopsis,
            ..Mode::default()
        };
        let mut words = mode.synopsis.split(' ').skip(1);
        while let Some(word) = words.next() {
            let optional = word.starts_with('[');
            let name = word.trim_matches(|c| matches!(c, '<' | '>' | '[' | ']' | '.'));
            if name == "fabric" {
                words.next();
                mode.flags.extend(FABRIC_FLAGS.split(' '));
            } else if name.starts_with("--") {
                if kind(name) != Switch {
                    words.next();
                }
                if !optional {
                    mode.flag = name;
                }
                mode.flags.push(name);
            } else {
                mode.args.push((name, !optional, word.ends_with("...]")));
            }
        }
        mode
    }
}

/// Every mode, in [`MODES`] order.
pub fn modes() -> impl Iterator<Item = Mode> {
    let synopses = MODES.lines().filter(|l| !l.starts_with(' '));
    synopses.map(Mode::read)
}

/// The help text: [`MODES`] and what the shared flags do.
pub fn help() -> String {
    let table: String = MODES.lines().map(|l| format!("  {l}\n")).collect();
    format!("usage: ccube <command>\n\ncommands:\n{table}\n{NOTES}")
}

/// A command line checked against its modes: each given flag and
/// positional with its number (a count, a seed or a size in bytes; 0 for
/// text) and its text. A mode's own flag is given exactly when the mode
/// was chosen, except that `--html` also feeds `trace --diff`.
#[derive(Debug)]
pub struct Parsed {
    values: Vec<(&'static str, u64, String)>,
}

impl Parsed {
    /// Every value given for `name`, which must be a word of the table.
    fn all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a (&'static str, u64, String)> {
        debug_assert!(
            KINDS.iter().any(|(n, _)| *n == name) || modes().any(|m| m.flags.contains(&name)),
            "{name} is neither a flag nor a positional of the table"
        );
        self.values.iter().filter(move |v| v.0 == name)
    }

    /// Whether the flag `name` was given, with or without a value.
    pub fn given(&self, name: &str) -> bool {
        self.all(name).next().is_some()
    }

    /// The count `name`, if given.
    pub fn count(&self, name: &str) -> Option<usize> {
        self.seed(name)
            .map(|n| usize::try_from(n).expect("parse checks a count fits"))
    }

    /// The seed `name`, if given.
    pub fn seed(&self, name: &str) -> Option<u64> {
        self.all(name).next().map(|v| v.1)
    }

    /// The path or word `name`, if given.
    pub fn text<'a>(&'a self, name: &'a str) -> Option<&'a str> {
        self.all(name).next().map(|v| v.2.as_str())
    }

    /// Every size given for `name`, in order.
    pub fn mibs(&self, name: &str) -> Vec<ByteSize> {
        self.all(name).map(|v| ByteSize::new(v.1)).collect()
    }
}

/// Checks the value `v` of the flag or positional `name` against its
/// kind; returns its number (0 for text).
fn number(name: &str, v: &str) -> Result<u64, String> {
    let positive = || v.parse::<u64>().ok().filter(|&n| n > 0);
    let bad = |what: &str| format!("{name} expects {what}, got {v:?}");
    Ok(match kind(name) {
        Switch | Path => 0,
        Count => (positive().filter(|&n| usize::try_from(n).is_ok()))
            .ok_or_else(|| bad("a positive integer"))?,
        Mib => (positive().and_then(|mib| mib.checked_mul(1 << 20)))
            .ok_or_else(|| bad("a positive size below 2^44 MiB"))?,
        Seed => v.parse().map_err(|_| bad("a u64 seed"))?,
        Choice(words) if words.contains(&v) => 0,
        Choice(words) => return Err(bad(&format!("one of {}", words.join(" | ")))),
    })
}

/// Checks `args`, the command line after the subcommand's name, against
/// the modes of `command`. An unknown, repeated or valueless flag, a
/// malformed value, a flag the chosen mode does not read, and a surplus
/// or missing positional are each an error. `None` if `command` is not
/// a subcommand.
pub fn parse(command: &str, args: &[String]) -> Option<Result<Parsed, String>> {
    let modes: Vec<Mode> = modes().filter(|m| m.command == command).collect();
    (!modes.is_empty()).then(|| check(&modes, args))
}

fn check(modes: &[Mode], args: &[String]) -> Result<Parsed, String> {
    let mut values: Vec<(&'static str, u64, String)> = Vec::new();
    let mut positionals = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            positionals.push(arg);
            continue;
        }
        let (name, inline) = arg
            .split_once('=')
            .map_or((arg.as_str(), None), |(n, v)| (n, Some(v)));
        let Some(&name) = modes.iter().flat_map(|m| &m.flags).find(|f| **f == name) else {
            return Err(format!("unknown flag {arg:?}"));
        };
        if values.iter().any(|v| v.0 == name) {
            return Err(format!("{name} is given twice"));
        }
        let text = match (kind(name), inline) {
            (Switch, None) => "",
            (Switch, Some(_)) => return Err(format!("{name} takes no value")),
            (_, Some(v)) => v,
            (_, None) => args
                .next()
                .ok_or_else(|| format!("{name} requires a value"))?,
        };
        values.push((name, number(name, text)?, text.to_string()));
    }
    let given = |flag: &str| values.iter().any(|v| v.0 == flag);
    let mode = (modes.iter().find(|m| !m.flag.is_empty() && given(m.flag)))
        .or_else(|| modes.iter().find(|m| m.flag.is_empty()))
        .expect("every subcommand has a default mode");
    if let Some((name, ..)) = values.iter().find(|v| !mode.flags.contains(&v.0)) {
        return Err(format!("{name} is not read by `{}`", mode.synopsis));
    }
    let mut slots = mode.args.iter().peekable();
    for arg in positionals {
        let Some(&&(name, _, repeated)) = slots.peek() else {
            return Err(format!("unexpected argument {arg:?}"));
        };
        if !repeated {
            slots.next();
        }
        values.push((name, number(name, arg)?, arg.clone()));
    }
    if let Some((name, ..)) = slots.find(|(_, required, _)| *required) {
        return Err(format!("missing argument <{name}>"));
    }
    Ok(Parsed { values })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(command: &str, args: &[&str]) -> Result<Parsed, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse(command, &args).expect("a subcommand")
    }

    #[test]
    fn every_table_word_has_a_kind_and_every_kind_a_use() {
        let modes: Vec<Mode> = modes().collect();
        for mode in &modes {
            for (name, ..) in &mode.args {
                assert!(
                    kind(name) != Switch,
                    "{name} in {:?} has no kind",
                    mode.synopsis
                );
            }
        }
        for (name, _) in KINDS {
            let used = modes
                .iter()
                .any(|m| m.flags.contains(name) || m.args.iter().any(|(a, ..)| a == name));
            assert!(used, "{name} has a kind but no mode takes it");
        }
    }

    #[test]
    fn every_subcommand_has_one_default_mode_and_distinct_mode_flags() {
        let modes: Vec<Mode> = modes().collect();
        for mode in &modes {
            let same = |m: &&Mode| m.command == mode.command && m.flag == mode.flag;
            assert_eq!(modes.iter().filter(same).count(), 1, "{}", mode.synopsis);
            let default = |m: &Mode| m.command == mode.command && m.flag.is_empty();
            assert!(modes.iter().any(default), "{} has no default", mode.command);
            assert!(mode.flags.contains(&mode.flag) || mode.flag.is_empty());
        }
        assert_eq!(modes.len(), 17);
    }

    #[test]
    fn parses_values_by_kind() {
        let p = run(
            "scaleout",
            &["16", "1", "64", "--threads=2", "--uplinks", "2"],
        )
        .unwrap();
        assert_eq!(p.count("max_p"), Some(16));
        assert_eq!(p.mibs("mib"), vec![ByteSize::mib(1), ByteSize::mib(64)]);
        assert_eq!(p.count("--threads"), Some(2));
        assert_eq!(p.count("--uplinks"), Some(2));
        assert!(!p.given("--fabric"));
        let p = run("faults", &["--smoke", "s.csv"]).unwrap();
        assert_eq!((p.given("--smoke"), p.text("out")), (true, Some("s.csv")));
        let p = run("faults", &["--shrink", "18446744073709551615"]).unwrap();
        assert_eq!(p.seed("--shrink"), Some(u64::MAX));
        let p = run("trace", &["--html", "d.html", "--diff", "7", "x.csv"]).unwrap();
        assert_eq!(
            (p.given("--diff"), p.text("--html")),
            (true, Some("d.html"))
        );
        assert_eq!((p.text("a"), p.text("b")), (Some("7"), Some("x.csv")));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "--uplink is neither a flag nor a positional")]
    fn looking_up_a_name_outside_the_table_panics() {
        run("scaleout", &[]).unwrap().count("--uplink");
    }

    #[test]
    fn rejects_what_the_table_does_not_admit() {
        for (command, args, error) in [
            ("search", &["--bogus"][..], "unknown flag \"--bogus\""),
            ("rings", &["--threads", "2"], "unknown flag \"--threads\""),
            ("lint", &["--json", "--json"], "--json is given twice"),
            (
                "figures",
                &["--threads", "1", "--threads=2"],
                "--threads is given twice",
            ),
            ("lint", &["--json=yes"], "--json takes no value"),
            ("figures", &["--threads"], "--threads requires a value"),
            (
                "figures",
                &["--threads", "0"],
                "--threads expects a positive integer, got \"0\"",
            ),
            (
                "faults",
                &["--shrink", "-1"],
                "--shrink expects a u64 seed, got \"-1\"",
            ),
            (
                "figures",
                &["--fabric", "mesh"],
                "--fabric expects one of approx | switch, got \"mesh\"",
            ),
            (
                "search",
                &["--bounds", "--threads", "2"],
                "--threads is not read by `search --bounds`",
            ),
            ("compare", &[], "missing argument <network>"),
            ("trace", &["--diff", "7"], "missing argument <b>"),
            (
                "trace",
                &["--html", "t.html", "out.csv"],
                "unexpected argument \"out.csv\"",
            ),
        ] {
            assert_eq!(run(command, args).unwrap_err(), error, "{command} {args:?}");
        }
        let huge = run("timeline", &["17592186044416"]).unwrap_err();
        assert!(
            huge.starts_with("mib expects a positive size below 2^44 MiB"),
            "{huge}"
        );
        assert!(parse("nope", &[]).is_none());
    }
}
