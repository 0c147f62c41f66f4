//! The four workloads, the `ccube` commands each runs, and the oracle
//! that checks every output they produce.
//!
//! Why each workload exists is recorded in `BENCHMARK.json` and the
//! README; this table holds what the ledger needs to run them.

use crate::Tally;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The seed the digests in `expected/` were generated at: the CLI's own
/// default fault-plan seed (195).
pub const DEFAULT_SEED: u64 = ccube::experiments::resilience::DEFAULT_SEED;

/// One workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Fresh environments whose first pass gives `setup_s`.
    pub envs: usize,
    /// Worker threads its commands (and its replay) use.
    pub workers: usize,
    /// Whether `--seed` feeds its inputs.
    pub seeded: bool,
}

/// Every workload, in run order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "scaleout",
        envs: 3,
        workers: 1,
        seeded: false,
    },
    Workload {
        name: "search",
        envs: 5,
        workers: 1,
        seeded: false,
    },
    Workload {
        name: "faults",
        envs: 5,
        workers: 1,
        seeded: true,
    },
    Workload {
        name: "figures",
        envs: 5,
        workers: 2,
        seeded: false,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The largest node count of the `scaleout` workload.
pub(crate) fn scaleout_max_p(quick: bool) -> usize {
    if quick {
        64
    } else {
        1024
    }
}

/// One `ccube` invocation of a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Command {
    /// Short name: the stdout output key and the `core.cli.<name>_s`
    /// metric.
    pub name: &'static str,
    /// Arguments after `ccube`.
    pub args: Vec<String>,
    /// The exit code a correct run returns.
    pub exit: i32,
    /// Files the command writes, relative to its working directory.
    pub files: Vec<String>,
}

fn cmd(name: &'static str, args: &[&str], exit: i32, files: &[&str]) -> Command {
    Command {
        name,
        args: args.iter().map(|s| s.to_string()).collect(),
        exit,
        files: files.iter().map(|s| s.to_string()).collect(),
    }
}

/// The commands of one pass of `workload`, in order.
pub(crate) fn commands(workload: &str, seed: u64, quick: bool) -> Vec<Command> {
    let s = seed.to_string();
    let s1 = seed.wrapping_add(1).to_string();
    match workload {
        "scaleout" => {
            let p = scaleout_max_p(quick).to_string();
            vec![cmd(
                "scaleout",
                &["scaleout", &p, "64", "--threads", "1"],
                0,
                &[],
            )]
        }
        "search" => vec![
            cmd("search", &["search", "--threads", "1"], 0, &[]),
            cmd("search_bounds", &["search", "--bounds"], 0, &[]),
            cmd("lint", &["lint", "all", "--json"], 0, &[]),
            cmd(
                "lint_physical",
                &["lint", "--physical", "all", "--json"],
                0,
                &[],
            ),
        ],
        "faults" => vec![
            cmd(
                "faults_grid",
                &["faults", "grid.csv", "--seed", &s, "--threads", "1"],
                0,
                &["grid.csv"],
            ),
            cmd(
                "faults_leafspine",
                &[
                    "faults",
                    "leafspine.csv",
                    "--seed",
                    &s,
                    "--threads",
                    "1",
                    "--fabric",
                    "switch",
                    "--uplinks",
                    "2",
                    "--uplink-policy",
                    "least-queued",
                ],
                0,
                &["leafspine.csv"],
            ),
            cmd("faults_shrink", &["faults", "--shrink", &s], 0, &[]),
            cmd(
                "faults_html",
                &["faults", "--html", "failover.html", "--seed", &s],
                0,
                &["failover.html"],
            ),
            cmd(
                "trace_html",
                &["trace", "--html", "trace.html", "--seed", &s],
                0,
                &["trace.html"],
            ),
            // Two different seeds give two different traces: exit 1.
            cmd(
                "trace_diff",
                &["trace", "--diff", &s, &s1, "--html", "diff.html"],
                1,
                &["diff.html"],
            ),
        ],
        "figures" => {
            let files: Vec<String> = crate::replay::FIGURES
                .iter()
                .map(|(f, _)| format!("figs/{f}"))
                .collect();
            let files: Vec<&str> = files.iter().map(String::as_str).collect();
            vec![cmd(
                "figures",
                &["figures", "--threads", "2", "figs"],
                0,
                &files,
            )]
        }
        other => panic!("unknown workload {other:?}"),
    }
}

/// A re-run made outside timing whose output must equal the timed one:
/// the `faults` grid at 2 workers against the timed 1-worker grid, which
/// holds the seed to the at-any-worker-count determinism contract.
/// Returns the command and the timed file it must reproduce.
pub(crate) fn cross_check(workload: &str, seed: u64) -> Option<(Command, &'static str)> {
    (workload == "faults").then(|| {
        let s = seed.to_string();
        (
            cmd(
                "faults_grid_2w",
                &["faults", "grid2.csv", "--seed", &s, "--threads", "2"],
                0,
                &["grid2.csv"],
            ),
            "grid.csv",
        )
    })
}

/// The golden file under `tests/data` an output must equal byte for
/// byte, if any.
fn golden(key: &str) -> Option<&'static str> {
    Some(match key {
        "figs/ext_fabric_resilience.csv" => "ext_fabric_resilience_golden.csv",
        "figs/ext_nvswitch_sweep.csv" => "ext_nvswitch_sweep_golden.csv",
        "figs/ext_resilience.csv" | "grid.csv" => "ext_resilience_golden.csv",
        "figs/ext_scaleout_fabric.csv" => "ext_scaleout_fabric_golden.csv",
        "figs/ext_torus_sweep.csv" => "ext_torus_sweep_golden.csv",
        _ => return None,
    })
}

/// 64-bit FNV-1a of `bytes` with their length: `fnv1a64:<hex>:<len>`.
pub(crate) fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("fnv1a64:{h:016x}:{}", bytes.len())
}

/// Checks the outputs of one workload, as they arrive from any pass of
/// the end-to-end run or the replay:
///
/// * every output must repeat its first value exactly (determinism);
/// * where a golden covers it, it must equal the golden byte for byte;
/// * otherwise it must match its digest in `expected/<workload>.digests`.
///
/// Goldens and digests were made at [`DEFAULT_SEED`]; a seeded workload
/// run at another seed is held to determinism only (plus the cross-check
/// the end-to-end run adds). `--quick` runs shrink some inputs, so their
/// digests are listed under `quick:<key>`.
pub(crate) struct Oracle {
    workload: &'static str,
    prefix: &'static str,
    tests_data: PathBuf,
    expected: Option<BTreeMap<String, String>>,
    seen: BTreeMap<String, String>,
}

impl Oracle {
    /// The oracle of `workload` at `seed` (on `--quick` inputs if
    /// `quick`), reading goldens and digests from the repository at
    /// `root`.
    ///
    /// # Errors
    ///
    /// A digest file that cannot be read or has a malformed line.
    pub(crate) fn load(
        root: &Path,
        workload: Workload,
        seed: u64,
        quick: bool,
    ) -> Result<Oracle, String> {
        let checked = !workload.seeded || seed == DEFAULT_SEED;
        let expected = if checked {
            let path = root
                .join("ledger/expected")
                .join(format!("{}.digests", workload.name));
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let mut map = BTreeMap::new();
            for line in text
                .lines()
                .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            {
                let (k, v) = line
                    .split_once(' ')
                    .ok_or_else(|| format!("{}: malformed line {line:?}", path.display()))?;
                map.insert(k.to_string(), v.trim().to_string());
            }
            Some(map)
        } else {
            None
        };
        Ok(Oracle {
            workload: workload.name,
            prefix: if quick { "quick:" } else { "" },
            tests_data: root.join("tests/data"),
            expected,
            seen: BTreeMap::new(),
        })
    }

    /// Checks one output, recording each check in `tally`.
    pub(crate) fn check(&mut self, tally: &mut Tally, key: &str, bytes: &[u8]) {
        let d = digest(bytes);
        match self.seen.get(key) {
            Some(first) => tally.check(*first == d, || {
                format!("{key}: output differs from its first pass ({first} vs {d})")
            }),
            None => {
                self.seen.insert(key.to_string(), d.clone());
            }
        }
        let Some(expected) = &self.expected else {
            return;
        };
        if let Some(g) = golden(key) {
            let want = std::fs::read(self.tests_data.join(g)).unwrap_or_default();
            tally.check(want == bytes, || {
                format!("{key}: differs from tests/data/{g}")
            });
            return;
        }
        let key = format!("{}{key}", self.prefix);
        let want = expected.get(&key);
        tally.check(want == Some(&d), || {
            format!(
                "{key}: digest mismatch (expected {}); new digest line for expected/{}.digests:\n{key} {d}",
                want.map_or("none", String::as_str),
                self.workload
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_fnv1a_with_length() {
        assert_eq!(digest(b""), "fnv1a64:cbf29ce484222325:0");
        assert_eq!(digest(b"a"), "fnv1a64:af63dc4c8601ec8c:1");
    }

    #[test]
    fn every_workload_has_commands() {
        for w in WORKLOADS {
            assert!(!commands(w.name, DEFAULT_SEED, false).is_empty());
        }
        assert_eq!(workload("faults").map(|w| w.seeded), Some(true));
    }
}
