//! Extension — the componentized switch fabric vs the NIC-channel
//! approximation, across scale-out topologies.
//!
//! The historical engines price the scale-out interconnect as ideal
//! per-NIC channels behind an invisible, non-blocking switch
//! ([`NetworkModel::ChannelApprox`]). The port-level
//! [`NetworkModel::SwitchFabric`] makes the switch explicit — per-port
//! queues, leaf radix, uplink oversubscription —
//! so this study asks the question the approximation cannot: *when does
//! the switch itself start to matter?*
//!
//! Three drivers, each a golden-fixtured CSV:
//!
//! * [`fabric_study`] — R and C1 on `hier16`, `nvswitch16` and
//!   `torus4x4` under the approximation, the passthrough fabric
//!   (which must agree to 1e-9 — the equivalence contract the
//!   simulator's test suite asserts), and a split fabric with four
//!   endpoints per leaf and 4:1 oversubscribed uplinks.
//! * [`nvswitch_sweep`] — the Fig. 14-style (P, N) sweep on the
//!   NVSwitch-class fabric, under both models plus an 8-per-leaf 2:1
//!   oversubscribed variant; closes the ROADMAP item on NVSwitch
//!   sweeps.
//! * [`torus_sweep`] — the same sweep shape on 2-D tori, where the
//!   derived fabric is degenerate (direct links, no switch): both
//!   models must produce the same timings, and the CSV records that
//!   end-to-end.
//!
//! Every row is a pure function of its grid point. `ccube figures` runs
//! each driver whole as one unit of its sweep, so the CSVs are
//! byte-identical at any worker count.

use super::fig14;
use ccube_collectives::{
    ring_allreduce, ring_allreduce_multi, tree_allreduce, Chunking, DoubleBinaryTree, Embedding,
    Overlap, Rank, Schedule,
};
use ccube_sim::{simulate, FabricSpec, NetworkModel, SimOptions, SimReport};
use ccube_topology::{hierarchical, nvswitch, torus2d, ByteSize, Seconds, Topology};
use std::fmt;

/// One cell of the fabric model comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricRow {
    /// Topology name (`hier16`, `nvswitch16`, `torus4x4`).
    pub topology: &'static str,
    /// Network model label (`approx`, `switch`, `switch_x4`).
    pub model: &'static str,
    /// Algorithm label (`R` or `C1`).
    pub algorithm: &'static str,
    /// AllReduce makespan.
    pub makespan: Seconds,
    /// Gradient turnaround time.
    pub turnaround: Seconds,
    /// Summed busy time of the fabric's uplink ports (zero under the
    /// approximation and on switchless topologies).
    pub uplink_busy: Seconds,
    /// Kernel events processed.
    pub events: u64,
}

impl fmt::Display for FabricRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<10} {:<9} {:<3} makespan={} turnaround={} uplink_busy={}",
            self.topology,
            self.model,
            self.algorithm,
            self.makespan,
            self.turnaround,
            self.uplink_busy
        )
    }
}

/// The three network models the study compares.
fn models() -> [(&'static str, NetworkModel); 3] {
    [
        ("approx", NetworkModel::ChannelApprox),
        (
            "switch",
            NetworkModel::SwitchFabric(FabricSpec::passthrough()),
        ),
        (
            "switch_x4",
            NetworkModel::SwitchFabric(FabricSpec {
                radix: Some(4),
                oversubscription: 4.0,
                ..FabricSpec::passthrough()
            }),
        ),
    ]
}

/// Whether `name` selects a NIC-attached topology (embedded through the
/// host NICs with scale-out options) or a direct-link one (identity
/// embedding, default options).
fn is_nic_topology(name: &str) -> bool {
    name != "torus4x4"
}

fn study_topology(name: &str) -> Topology {
    match name {
        "hier16" => hierarchical(16),
        "nvswitch16" => nvswitch(16),
        "torus4x4" => torus2d(4, 4),
        other => unreachable!("unknown study topology {other}"),
    }
}

fn study_schedule(algorithm: &str, n: ByteSize) -> Schedule {
    match algorithm {
        "R" => ring_allreduce(16, n),
        "C1" => c1_schedule(16, n),
        // Binary trees don't embed on the torus (edges span more hops
        // than the router bridges), so its second series is the
        // torus-native dual ring.
        "R2" => torus_dual_ring(4, 4, n),
        other => unreachable!("unknown algorithm {other}"),
    }
}

/// The algorithm pair a topology supports.
fn study_algorithms(topology: &str) -> [&'static str; 2] {
    if is_nic_topology(topology) {
        ["R", "C1"]
    } else {
        ["R", "R2"]
    }
}

fn run_point(topology: &str, model: NetworkModel, algorithm: &str) -> (SimReport, usize) {
    let topo = study_topology(topology);
    let n = ByteSize::mib(64);
    let s = study_schedule(algorithm, n);
    let (emb, opts) = if is_nic_topology(topology) {
        (
            Embedding::nic(&topo, &s).expect("nic embedding"),
            SimOptions::scale_out(),
        )
    } else {
        (
            Embedding::identity(&topo, &s).expect("identity embedding"),
            SimOptions::default(),
        )
    };
    let report = simulate(&topo, &s, &emb, &opts.with_network(model)).expect("simulates");
    (report, topo.channels().len())
}

/// Sums the busy time of ports beyond the per-channel endpoints — the
/// uplinks the split fabric adds.
fn uplink_busy(report: &SimReport, num_channels: usize) -> Seconds {
    report
        .stats()
        .port_busy
        .iter()
        .skip(num_channels)
        .fold(Seconds::ZERO, |acc, &b| acc + b)
}

/// Runs the fabric model comparison.
pub fn fabric_study() -> Vec<FabricRow> {
    let mut rows = Vec::new();
    for topology in ["hier16", "nvswitch16", "torus4x4"] {
        for (model_name, model) in models() {
            for algorithm in study_algorithms(topology) {
                let (report, num_channels) = run_point(topology, model, algorithm);
                rows.push(FabricRow {
                    topology,
                    model: model_name,
                    algorithm,
                    makespan: report.makespan(),
                    turnaround: report.turnaround(),
                    uplink_busy: uplink_busy(&report, num_channels),
                    events: report.stats().events_processed,
                });
            }
        }
    }
    rows
}

/// Renders the fabric study as CSV.
pub fn fabric_to_csv(rows: &[FabricRow]) -> String {
    let mut out =
        String::from("topology,model,algorithm,makespan_us,turnaround_us,uplink_busy_us,events\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{:.3},{:.3},{:.3},{}\n",
            r.topology,
            r.model,
            r.algorithm,
            r.makespan.as_micros(),
            r.turnaround.as_micros(),
            r.uplink_busy.as_micros(),
            r.events
        ));
    }
    out
}

/// One cell of the NVSwitch / torus sweeps: one algorithm under one
/// network model, with its makespan and its speedup over the plain ring
/// at the same grid point (the Fig. 14a series shape).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Topology label (`nvswitch8`, `torus4x4`, …).
    pub topology: String,
    /// Number of participating GPUs.
    pub p: usize,
    /// Message size.
    pub n: ByteSize,
    /// Network model label.
    pub model: &'static str,
    /// Algorithm label (`R`, `C1`, `R2`).
    pub algorithm: &'static str,
    /// AllReduce makespan.
    pub makespan: Seconds,
    /// Plain-ring makespan divided by this makespan (1.0 for the ring
    /// itself; the Fig. 14a speedup series).
    pub speedup_vs_ring: f64,
}

impl fmt::Display for SweepRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<10} P={:<3} N={} {:<9} {:<3} makespan={} ({:.3}x vs ring)",
            self.topology,
            self.p,
            self.n,
            self.model,
            self.algorithm,
            self.makespan,
            self.speedup_vs_ring
        )
    }
}

/// Runs ring + one alternative algorithm at a grid point and emits the
/// paired rows.
fn sweep_cells(
    topology: &str,
    topo: &Topology,
    p: usize,
    n: ByteSize,
    (model_name, model): (&'static str, NetworkModel),
    nic_attached: bool,
    alt: (&'static str, Schedule),
) -> Vec<SweepRow> {
    let sim = |s: &Schedule| -> Seconds {
        let (emb, opts) = if nic_attached {
            (
                Embedding::nic(topo, s).expect("nic embedding"),
                SimOptions::scale_out(),
            )
        } else {
            (
                Embedding::identity(topo, s).expect("identity embedding"),
                SimOptions::default(),
            )
        };
        simulate(topo, s, &emb, &opts.with_network(model))
            .expect("simulates")
            .makespan()
    };
    let t_ring = sim(&ring_allreduce(p, n));
    let (alt_name, alt_schedule) = alt;
    let t_alt = sim(&alt_schedule);
    let row = |algorithm, makespan: Seconds| SweepRow {
        topology: topology.to_string(),
        p,
        n,
        model: model_name,
        algorithm,
        makespan,
        speedup_vs_ring: t_ring / makespan,
    };
    vec![row("R", t_ring), row(alt_name, t_alt)]
}

/// The overlapped double tree (C1) at the paper's scale-out chunking.
fn c1_schedule(p: usize, n: ByteSize) -> Schedule {
    let dt = DoubleBinaryTree::new(p).expect("p >= 2");
    tree_allreduce(
        dt.trees(),
        &Chunking::even(n, fig14::chunk_count(n)),
        Overlap::ReductionBroadcast,
    )
}

/// A torus-native dual ring: the message striped over a row-major snake
/// and a column-major snake, which mostly occupy disjoint torus links
/// (row links vs column links) and so overlap well — the natural
/// counterpart of C1's two trees on a topology where binary trees don't
/// embed.
fn torus_dual_ring(rows: usize, cols: usize, n: ByteSize) -> Schedule {
    let row_major: Vec<Rank> = Rank::all(rows * cols).collect();
    let col_major: Vec<Rank> = (0..cols)
        .flat_map(|c| (0..rows).map(move |r| Rank((r * cols + c) as u32)))
        .collect();
    ring_allreduce_multi(n, &[row_major, col_major])
}

/// Default NVSwitch sweep: P in {8, 16, 32}, N in {1 MiB, 64 MiB},
/// under the approximation, the passthrough fabric, and a split fabric
/// with eight endpoints per leaf and 2:1 oversubscribed uplinks.
pub fn nvswitch_sweep() -> Vec<SweepRow> {
    let models: [(&'static str, NetworkModel); 3] = [
        ("approx", NetworkModel::ChannelApprox),
        (
            "switch",
            NetworkModel::SwitchFabric(FabricSpec::passthrough()),
        ),
        (
            "switch_x8",
            NetworkModel::SwitchFabric(FabricSpec {
                radix: Some(8),
                oversubscription: 2.0,
                ..FabricSpec::passthrough()
            }),
        ),
    ];
    let mut rows = Vec::new();
    for p in [8usize, 16, 32] {
        for n in [ByteSize::mib(1), ByteSize::mib(64)] {
            for model in models {
                rows.extend(sweep_cells(
                    &format!("nvswitch{p}"),
                    &nvswitch(p),
                    p,
                    n,
                    model,
                    true,
                    ("C1", c1_schedule(p, n)),
                ));
            }
        }
    }
    rows
}

/// Default 2-D torus sweep: shapes 2×4, 4×4 and 4×8, N in {1 MiB,
/// 64 MiB}, under both models. The torus derives a switchless fabric,
/// so the two models must agree — the CSV records that end-to-end.
pub fn torus_sweep() -> Vec<SweepRow> {
    let models: [(&'static str, NetworkModel); 2] = [
        ("approx", NetworkModel::ChannelApprox),
        (
            "switch",
            NetworkModel::SwitchFabric(FabricSpec::passthrough()),
        ),
    ];
    let mut out = Vec::new();
    for (rows, cols) in [(2usize, 4usize), (4, 4), (4, 8)] {
        for n in [ByteSize::mib(1), ByteSize::mib(64)] {
            for model in models {
                out.extend(sweep_cells(
                    &format!("torus{rows}x{cols}"),
                    &torus2d(rows, cols),
                    rows * cols,
                    n,
                    model,
                    false,
                    ("R2", torus_dual_ring(rows, cols, n)),
                ));
            }
        }
    }
    out
}

/// Renders sweep rows as CSV (shared by the NVSwitch and torus sweeps).
pub fn sweep_to_csv(rows: &[SweepRow]) -> String {
    let mut out = String::from("topology,p,n_bytes,model,algorithm,makespan_us,speedup_vs_ring\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{:.3},{:.4}\n",
            r.topology,
            r.p,
            r.n.as_u64(),
            r.model,
            r.algorithm,
            r.makespan.as_micros(),
            r.speedup_vs_ring
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passthrough_rows_agree_with_the_approximation() {
        let rows = fabric_study();
        for a in rows.iter().filter(|r| r.model == "approx") {
            let s = rows
                .iter()
                .find(|r| {
                    r.model == "switch" && r.topology == a.topology && r.algorithm == a.algorithm
                })
                .expect("paired switch row");
            let d = (a.makespan - s.makespan).as_secs_f64().abs();
            assert!(
                d < 1e-9,
                "{}/{}: approx {:?} vs switch {:?}",
                a.topology,
                a.algorithm,
                a.makespan,
                s.makespan
            );
        }
    }

    #[test]
    fn oversubscribed_fabric_is_never_faster() {
        let rows = fabric_study();
        for r in rows.iter().filter(|r| r.model == "switch_x4") {
            let base = rows
                .iter()
                .find(|b| {
                    b.model == "switch" && b.topology == r.topology && b.algorithm == r.algorithm
                })
                .expect("paired passthrough row");
            assert!(
                r.makespan >= base.makespan - Seconds::new(1e-12),
                "{}/{}: oversubscription sped things up",
                r.topology,
                r.algorithm
            );
        }
    }

    #[test]
    fn torus_sweep_models_agree() {
        let rows = torus_sweep();
        for a in rows.iter().filter(|r| r.model == "approx") {
            let s = rows
                .iter()
                .find(|r| {
                    r.model == "switch"
                        && r.topology == a.topology
                        && r.n == a.n
                        && r.algorithm == a.algorithm
                })
                .expect("paired switch row");
            assert!(
                (a.makespan - s.makespan).as_secs_f64().abs() < 1e-9,
                "{}/{}: {:?} vs {:?}",
                a.topology,
                a.algorithm,
                a.makespan,
                s.makespan
            );
        }
    }
}
