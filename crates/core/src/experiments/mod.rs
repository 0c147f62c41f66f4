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
//! The `paper_figures` example runs every driver and writes one CSV per
//! figure. [`run_all`] fans the figures out across
//! [`ccube_sim::sweep()`] workers; because every driver is a pure
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
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// A figure entry: output file name plus the driver rendering its CSV.
/// Drivers take the network model the DES-backed figures should run
/// under; cost-model-only figures ignore it, and the fabric comparison
/// figures sweep models internally.
type Figure = (&'static str, fn(NetworkModel) -> String);

/// The full figure table. Each driver runs serially inside one sweep
/// point; [`run_all`] parallelizes across the table.
const FIGURES: &[Figure] = &[
    (
        "fig01_allreduce_ratio.csv",
        |_| fig01::to_csv(&fig01::run()),
    ),
    ("fig03_granularity.csv", |_| fig03::to_csv(&fig03::run())),
    ("fig04_ring_vs_tree.csv", |_| fig04::to_csv(&fig04::run())),
    ("fig12_comm_overlap.csv", |net| {
        fig12::to_csv(&fig12::run_net(net))
    }),
    ("fig13_overall.csv", |_| fig13::to_csv(&fig13::run())),
    ("fig14_scaleout.csv", |net| {
        fig14::to_csv(&fig14::run_net(net))
    }),
    ("fig15_detour.csv", |net| {
        fig15::to_csv(&fig15::run_with_net(64, net))
    }),
    ("fig16_patterns.csv", |_| fig16::to_csv(&fig16::run())),
    ("fig17_resnet_layers.csv", |_| {
        fig17::to_csv(&fig17::run(64))
    }),
    ("ext_topology_study.csv", |_| {
        extensions::topology_to_csv(&extensions::topology_study())
    }),
    ("ext_detour_vs_host.csv", |_| {
        extensions::detour_to_csv(&extensions::detour_vs_host())
    }),
    ("ext_chunk_sensitivity.csv", |_| {
        extensions::chunk_to_csv(&extensions::chunk_sensitivity())
    }),
    ("ext_cosim_validation.csv", |_| {
        extensions::cosim_to_csv(&extensions::cosim_validation())
    }),
    ("ext_overlap_strategies.csv", |_| {
        extensions::strategy_to_csv(&extensions::overlap_strategy_study())
    }),
    ("ext_policy_search.csv", |_| {
        policy_search::to_csv(&policy_search::run())
    }),
    ("ext_resilience.csv", |net| {
        resilience::to_csv(&resilience::run_with_network(
            resilience::DEFAULT_SEED,
            1,
            net,
        ))
    }),
    ("ext_fabric_resilience.csv", |_| {
        resilience::fabric_to_csv(&resilience::run_fabric())
    }),
    ("ext_scaleout_fabric.csv", |_| {
        scaleout_fabric::fabric_to_csv(&scaleout_fabric::fabric_study())
    }),
    ("ext_nvswitch_sweep.csv", |_| {
        scaleout_fabric::sweep_to_csv(&scaleout_fabric::nvswitch_sweep())
    }),
    ("ext_torus_sweep.csv", |_| {
        scaleout_fabric::sweep_to_csv(&scaleout_fabric::torus_sweep())
    }),
];

/// Runs every experiment at its default configuration and writes one CSV
/// per figure into `dir` (created if missing), using every available
/// core. Returns the written paths.
///
/// # Errors
///
/// Returns any I/O error from creating the directory or writing files.
pub fn run_all(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    run_all_with(dir, ccube_sim::available_threads())
}

/// [`run_all`] on an explicit worker count: the figure drivers are the
/// sweep points, so the CSVs come out bit-identical at any `threads`.
///
/// # Errors
///
/// Returns any I/O error from creating the directory or writing files.
pub fn run_all_with(dir: &Path, threads: usize) -> std::io::Result<Vec<PathBuf>> {
    run_all_with_network(dir, threads, NetworkModel::ChannelApprox)
}

/// [`run_all_with`] under an explicit network model: the DES-backed
/// figures (12/14/15 and the resilience study) rerun on that model
/// (`ccube figures --fabric switch`), while the cost-model figures and
/// the fabric comparison studies are unaffected. A passthrough switch
/// fabric reproduces the default CSVs byte-for-byte.
///
/// # Errors
///
/// Returns any I/O error from creating the directory or writing files.
pub fn run_all_with_network(
    dir: &Path,
    threads: usize,
    network: NetworkModel,
) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let outputs = ccube_sim::sweep(FIGURES, threads, |_, &(name, driver)| {
        (name, driver(network))
    });
    let mut paths = Vec::new();
    for (name, csv) in outputs {
        let path = dir.join(name);
        let mut f = std::fs::File::create(&path)?;
        f.write_all(csv.as_bytes())?;
        paths.push(path);
    }
    Ok(paths)
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
        let paths = run_all(&dir).unwrap();
        assert_eq!(paths.len(), 20);
        for p in &paths {
            let content = std::fs::read_to_string(p).unwrap();
            assert!(content.lines().count() >= 2, "{p:?} has no data rows");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
