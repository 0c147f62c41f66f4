//! One driver per figure of the paper's evaluation.
//!
//! Each submodule regenerates the data series of one figure of the paper
//! (workload generator, parameter sweep, baselines, and the rows the
//! paper plots). Absolute numbers come from our simulator/cost models
//! rather than the authors' DGX-1, so the *shapes* — who wins, by what
//! factor, where the crossovers sit — are the reproduction targets;
//! `EXPERIMENTS.md` at the repository root records paper-vs-measured for
//! every figure.
//!
//! | module | paper figure | content |
//! |--------|--------------|---------|
//! | [`fig01`] | Fig. 1 | AllReduce share of execution time (MLPerf suite) |
//! | [`fig03`] | Fig. 3 | one-shot vs layer-wise vs slicing granularity |
//! | [`fig04`] | Fig. 4 | ring vs tree cost-model ratio over (P, N) |
//! | [`fig12`] | Fig. 12 | C1 vs B communication speedup on the DGX-1 (+model) |
//! | [`fig13`] | Fig. 13 | normalized overall performance of B/C1/C2/R/CC |
//! | [`fig14`] | Fig. 14 | scale-out C1 vs R and gradient-turnaround speedup |
//! | [`fig15`] | Fig. 15 | detour-node performance loss |
//! | [`fig16`] | Fig. 16 | communication/computation pattern cases |
//! | [`fig17`] | Fig. 17 | ResNet-50 per-layer parameters vs compute time |
//!
//! Beyond the paper, [`extensions`] adds three follow-up studies the
//! paper motivates: an NVSwitch-class alternative-topology comparison,
//! a detour-vs-PCIe quantification, and a chunk-count sensitivity sweep
//! validating Eq. 4 against the simulator — [`policy_search`]
//! brute-forces the best (chunk count, tree shape, arbitration)
//! schedule per topology over the sweep executor — [`resilience`]
//! stresses every mode under sampled fault plans (link flaps,
//! degradation, stragglers) at escalating severity — and
//! [`scaleout_fabric`] compares the NIC-channel approximation against
//! the port-level switch fabric (per-port queues, uplink
//! oversubscription) across hierarchical,
//! NVSwitch-class and 2-D torus scale-out topologies, including the
//! Fig. 14-style NVSwitch and torus sweeps.
//!
//! Each driver has one default entry point (`run()`, or the study's
//! name) that [`run_all`] calls; the DES-backed Figs. 12, 14 and 15 and
//! the resilience study add a variant that takes the network model.
//! Only the functions a `--threads` flag reaches take a worker count:
//! [`run_all`] (`ccube figures`), [`fig14::run_with_threads_net`]
//! (`ccube scaleout`), [`policy_search::run_full`] (`ccube search`) and
//! [`resilience::run_with_network`] (`ccube faults`). Every other driver
//! iterates its points serially.
//!
//! The `paper_figures` example runs every driver and writes one CSV per
//! figure. [`run_all`] fans the figures out across
//! [`ccube_sim::sweep()`] workers as one flat list of units: each of
//! Fig. 14's grid points is a unit, heaviest first, and every other
//! figure runs whole as one unit. Because every unit is a pure
//! function, the CSVs are bit-identical at any worker count.

pub mod extensions;
pub mod fig01;
pub mod fig03;
pub mod fig04;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod policy_search;
pub mod resilience;
pub mod scaleout_fabric;

use ccube_sim::NetworkModel;
use ccube_topology::ByteSize;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use CsvSource::{Fig14Points, Whole};

/// How [`run_all`] computes one figure of the table.
#[derive(Clone, Copy)]
enum CsvSource {
    /// One sweep unit: the function renders the whole CSV. It takes the
    /// network model the DES-backed figures should run under;
    /// cost-model-only figures ignore it, and the fabric comparison
    /// figures sweep models internally.
    Whole(fn(NetworkModel) -> String),
    /// Fig. 14: one sweep unit per default grid point
    /// ([`fig14::point`]), reassembled in grid order.
    Fig14Points,
}

/// A figure entry: output file name plus how its CSV is computed.
type Figure = (&'static str, CsvSource);

/// The full figure table, in the order [`run_all`] writes the files.
/// Every figure but Fig. 14 runs serially as one sweep unit; Fig. 14 is
/// split into its grid points, so its heaviest points start first and
/// the other figures fill in behind them.
const FIGURES: &[Figure] = &[
    (
        "fig01_allreduce_ratio.csv",
        Whole(|_| fig01::to_csv(&fig01::run())),
    ),
    (
        "fig03_granularity.csv",
        Whole(|_| fig03::to_csv(&fig03::run())),
    ),
    (
        "fig04_ring_vs_tree.csv",
        Whole(|_| fig04::to_csv(&fig04::run())),
    ),
    (
        "fig12_comm_overlap.csv",
        Whole(|net| fig12::to_csv(&fig12::run_net(net))),
    ),
    ("fig13_overall.csv", Whole(|_| fig13::to_csv(&fig13::run()))),
    ("fig14_scaleout.csv", Fig14Points),
    (
        "fig15_detour.csv",
        Whole(|net| fig15::to_csv(&fig15::run_with_net(64, net))),
    ),
    (
        "fig16_patterns.csv",
        Whole(|_| fig16::to_csv(&fig16::run())),
    ),
    (
        "fig17_resnet_layers.csv",
        Whole(|_| fig17::to_csv(&fig17::run(64))),
    ),
    (
        "ext_topology_study.csv",
        Whole(|_| extensions::topology_to_csv(&extensions::topology_study())),
    ),
    (
        "ext_detour_vs_host.csv",
        Whole(|_| extensions::detour_to_csv(&extensions::detour_vs_host())),
    ),
    (
        "ext_chunk_sensitivity.csv",
        Whole(|_| extensions::chunk_to_csv(&extensions::chunk_sensitivity())),
    ),
    (
        "ext_cosim_validation.csv",
        Whole(|_| extensions::cosim_to_csv(&extensions::cosim_validation())),
    ),
    (
        "ext_overlap_strategies.csv",
        Whole(|_| extensions::strategy_to_csv(&extensions::overlap_strategy_study())),
    ),
    (
        "ext_policy_search.csv",
        Whole(|_| policy_search::to_csv(&policy_search::run())),
    ),
    (
        "ext_resilience.csv",
        Whole(|net| {
            resilience::to_csv(&resilience::run_with_network(
                resilience::DEFAULT_SEED,
                1,
                net,
            ))
        }),
    ),
    (
        "ext_fabric_resilience.csv",
        Whole(|_| resilience::fabric_to_csv(&resilience::run_fabric())),
    ),
    (
        "ext_scaleout_fabric.csv",
        Whole(|_| scaleout_fabric::fabric_to_csv(&scaleout_fabric::fabric_study())),
    ),
    (
        "ext_nvswitch_sweep.csv",
        Whole(|_| scaleout_fabric::sweep_to_csv(&scaleout_fabric::nvswitch_sweep())),
    ),
    (
        "ext_torus_sweep.csv",
        Whole(|_| scaleout_fabric::sweep_to_csv(&scaleout_fabric::torus_sweep())),
    ),
];

/// Runs every experiment at its default configuration and writes one CSV
/// per figure into `dir` (created if missing), on at most `threads`
/// workers (`ccube figures`). Returns the written paths. The CSVs come
/// out bit-identical at any `threads`.
///
/// `network` is the model the DES-backed figures (12/14/15 and the
/// resilience study) run under (`ccube figures --fabric switch`); the
/// cost-model figures and the fabric comparison studies are unaffected.
/// A passthrough switch fabric reproduces the default CSVs byte-for-byte.
///
/// # Errors
///
/// Returns any I/O error from creating the directory or writing files.
pub fn run_all(dir: &Path, threads: usize, network: NetworkModel) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    // One flat list of sweep units, so at most `threads` workers run:
    // Fig. 14's grid points first, heaviest (largest P, then largest N)
    // first, then every other figure whole. The atomic cursor hands the
    // light units to whichever worker frees up first, behind the heavy
    // points.
    let grid = fig14::default_grid();
    let units: Vec<Unit> = grid
        .iter()
        .rev()
        .map(|&(p, n)| Unit::Fig14Point(p, n))
        .chain(FIGURES.iter().filter_map(|&(_, source)| match source {
            Whole(render) => Some(Unit::Whole(render)),
            Fig14Points => None,
        }))
        .collect();
    let mut outputs = ccube_sim::sweep(&units, threads, |_, &unit| match unit {
        Unit::Fig14Point(p, n) => Output::Row(fig14::point(p, n, network)),
        Unit::Whole(render) => Output::Csv(render(network)),
    })
    .into_iter();
    // The points ran in reverse grid order; put the rows back.
    let mut rows: Vec<fig14::Row> = outputs
        .by_ref()
        .take(grid.len())
        .map(|out| match out {
            Output::Row(row) => row,
            Output::Csv(_) => unreachable!("fig14 points come first"),
        })
        .collect();
    rows.reverse();

    let mut paths = Vec::new();
    for &(name, source) in FIGURES {
        let csv = match source {
            Fig14Points => fig14::to_csv(&rows),
            Whole(_) => match outputs.next() {
                Some(Output::Csv(csv)) => csv,
                _ => unreachable!("one output per whole figure, in table order"),
            },
        };
        let path = dir.join(name);
        let mut f = std::fs::File::create(&path)?;
        f.write_all(csv.as_bytes())?;
        paths.push(path);
    }
    Ok(paths)
}

/// One sweep unit of [`run_all`].
#[derive(Clone, Copy)]
enum Unit {
    Fig14Point(usize, ByteSize),
    Whole(fn(NetworkModel) -> String),
}

/// What one [`Unit`] produces.
enum Output {
    Row(fig14::Row),
    Csv(String),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_all_writes_every_figure() {
        // Unique per process so concurrently running test binaries (unit
        // + integration suites) never race on the same directory.
        let dir = std::env::temp_dir().join(format!("ccube_run_all_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let paths = run_all(
            &dir,
            ccube_sim::available_threads(),
            NetworkModel::ChannelApprox,
        )
        .unwrap();
        assert_eq!(paths.len(), 20);
        for p in &paths {
            let content = std::fs::read_to_string(p).unwrap();
            assert!(content.lines().count() >= 2, "{p:?} has no data rows");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
