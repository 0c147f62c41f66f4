//! Fig. 13 — normalized overall performance of B / C1 / C2 / R / CC
//! across networks, batch sizes, and interconnect bandwidths.

use crate::pipeline::{Mode, TrainingPipeline};
use ccube_dnn::{resnet50, vgg16, zfnet, ComputeModel, NetworkModel};
use std::fmt;

/// One bar of Fig. 13.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Network name.
    pub network: &'static str,
    /// Per-GPU batch size.
    pub batch: usize,
    /// `"high"` (NVLink) or `"low"` (PCIe-class, bandwidth / 4).
    pub bandwidth: &'static str,
    /// Execution mode.
    pub mode: Mode,
    /// Throughput normalized to ideal linear speedup (1.0 = the
    /// communication cost is fully hidden).
    pub normalized_perf: f64,
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<9} b={:<4} {:<4} {:<3} {:.3}",
            self.network, self.batch, self.bandwidth, self.mode, self.normalized_perf
        )
    }
}

/// The default grid: the paper's three networks × batch
/// {16, 32, 64, 128} × {low, high} bandwidth × the five modes.
pub fn run() -> Vec<Row> {
    let compute = ComputeModel::v100();
    let mut rows = Vec::new();
    for (name, net) in networks() {
        for batch in [16, 32, 64, 128] {
            for (bw_name, scale) in BANDWIDTHS {
                let pipeline = TrainingPipeline::dgx1_with(&net, batch, &compute, scale);
                rows.extend(pipeline.all_modes().into_iter().map(|report| Row {
                    network: name,
                    batch,
                    bandwidth: bw_name,
                    mode: report.mode,
                    normalized_perf: report.normalized_perf,
                }));
            }
        }
    }
    rows
}

/// The grid's networks, in row order.
fn networks() -> [(&'static str, NetworkModel); 3] {
    [
        ("zfnet", zfnet()),
        ("vgg16", vgg16()),
        ("resnet50", resnet50()),
    ]
}

/// The grid's bandwidth settings: label and NVLink bandwidth scale.
const BANDWIDTHS: [(&str, f64); 2] = [("low", 0.25), ("high", 1.0)];

/// The DES-grounded variant of the grid: instead of the analytic staged
/// arrival model, the tree modes take their per-chunk arrival curves
/// from discrete-event simulations of the actual schedules on the DGX-1
/// (conflict-free physical embedding), and the ring takes its makespan
/// from a simulated NCCL-style 6-ring run over the machine's Hamiltonian
/// decomposition. Cross-validated against [`run`] in tests.
pub fn run_simulated(batches: &[usize]) -> Vec<Row> {
    use crate::arrivals::ChunkArrivals;
    use ccube_collectives::{
        ring_allreduce_multi, tree_allreduce, Chunking, DoubleBinaryTree, Embedding, Overlap, Rank,
    };
    use ccube_sim::{simulate, SimOptions};
    use ccube_topology::{dgx1, disjoint_rings};

    let compute = ComputeModel::v100();
    let topo = dgx1();
    let dt = DoubleBinaryTree::new(8).expect("8 ranks");
    let ring_orders: Vec<Vec<Rank>> = disjoint_rings(&topo, 3)
        .into_iter()
        .flat_map(|cycle| {
            let fwd: Vec<Rank> = cycle.iter().map(|g| Rank(g.0)).collect();
            let mut rev = fwd.clone();
            rev.reverse();
            [fwd, rev]
        })
        .collect();

    let mut rows = Vec::new();
    for (name, net) in networks() {
        for (bw_name, scale) in BANDWIDTHS {
            let n = net.total_param_bytes();
            // One reference pipeline per (net, bw) to fix the chunking.
            let reference = TrainingPipeline::dgx1_with(&net, 64, &compute, scale);
            let k = reference.num_chunks();
            let chunking = Chunking::even(n, k);
            let opts = SimOptions {
                bandwidth_scale: scale,
                ..SimOptions::default()
            };
            let tree_arrivals = |overlap: Overlap| {
                let s = tree_allreduce(dt.trees(), &chunking, overlap);
                let e = Embedding::dgx1_double_tree(&topo, &s).expect("embeddable");
                ChunkArrivals::from_sim(&simulate(&topo, &s, &e, &opts).expect("simulates"))
            };
            let base = tree_arrivals(Overlap::None);
            let over = tree_arrivals(Overlap::ReductionBroadcast);
            let ring_schedule = ring_allreduce_multi(n, &ring_orders);
            let ring_emb = Embedding::identity(&topo, &ring_schedule).expect("embeddable");
            let ring_time = simulate(&topo, &ring_schedule, &ring_emb, &opts)
                .expect("simulates")
                .makespan();
            let ring = ChunkArrivals::ring_uniform(ring_time, k);

            for &batch in batches {
                let pipeline = TrainingPipeline::dgx1_with(&net, batch, &compute, scale);
                for mode in Mode::ALL {
                    let arrivals = match mode {
                        Mode::Baseline | Mode::Chained => &base,
                        Mode::OverlappedTree | Mode::CCube => &over,
                        Mode::Ring | Mode::BackwardOverlap => &ring,
                    };
                    let report = pipeline.iteration_with_arrivals(mode, arrivals);
                    rows.push(Row {
                        network: name,
                        batch,
                        bandwidth: bw_name,
                        mode,
                        normalized_perf: report.normalized_perf,
                    });
                }
            }
        }
    }
    rows
}

/// Renders rows as CSV.
pub fn to_csv(rows: &[Row]) -> String {
    let mut out = String::from("network,batch,bandwidth,mode,normalized_perf\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{:.4}\n",
            r.network, r.batch, r.bandwidth, r.mode, r.normalized_perf
        ));
    }
    out
}

/// Helper for tests/analysis: the normalized performance of one cell.
pub fn lookup(rows: &[Row], network: &str, batch: usize, bandwidth: &str, mode: Mode) -> f64 {
    rows.iter()
        .find(|r| {
            r.network == network && r.batch == batch && r.bandwidth == bandwidth && r.mode == mode
        })
        .map(|r| r.normalized_perf)
        .expect("cell present")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rows of [`run`] at the given batch sizes.
    fn at_batches(batches: &[usize]) -> Vec<Row> {
        run()
            .into_iter()
            .filter(|r| batches.contains(&r.batch))
            .collect()
    }

    #[test]
    fn grid_is_complete() {
        let rows = at_batches(&[16, 64]);
        // 3 networks x 2 batches x 2 bandwidths x 5 modes
        assert_eq!(rows.len(), 3 * 2 * 2 * 5);
        for r in &rows {
            assert!(r.normalized_perf > 0.0 && r.normalized_perf <= 1.0);
        }
    }

    #[test]
    fn ccube_improvement_over_baseline_matches_paper() {
        // Paper: CC improves over B by ~32% on average, up to 61%.
        let rows = run();
        let mut improvements = Vec::new();
        for net in ["zfnet", "vgg16", "resnet50"] {
            for batch in [16usize, 32, 64, 128] {
                for bw in ["low", "high"] {
                    let b = lookup(&rows, net, batch, bw, Mode::Baseline);
                    let cc = lookup(&rows, net, batch, bw, Mode::CCube);
                    improvements.push(cc / b - 1.0);
                }
            }
        }
        let avg = improvements.iter().sum::<f64>() / improvements.len() as f64;
        let max = improvements.iter().copied().fold(0.0, f64::max);
        assert!((0.10..0.80).contains(&avg), "avg improvement {avg:.3}");
        assert!(max > 0.4, "max improvement {max:.3}");
    }

    #[test]
    fn ring_beats_c1_somewhere_and_cc_beats_ring_mostly() {
        let rows = run();
        let mut r_over_c1 = 0;
        let mut cc_over_r = 0;
        let mut cells = 0;
        for net in ["zfnet", "vgg16", "resnet50"] {
            for batch in [16usize, 32, 64, 128] {
                for bw in ["low", "high"] {
                    cells += 1;
                    let c1 = lookup(&rows, net, batch, bw, Mode::OverlappedTree);
                    let r = lookup(&rows, net, batch, bw, Mode::Ring);
                    let cc = lookup(&rows, net, batch, bw, Mode::CCube);
                    if r > c1 {
                        r_over_c1 += 1;
                    }
                    if cc >= r {
                        cc_over_r += 1;
                    }
                }
            }
        }
        // Paper: "R shows better performance than C1 ... However, except
        // for small batch size for ZFNet, CC exceeds R".
        assert!(r_over_c1 > 0, "ring never beats C1");
        assert!(
            cc_over_r as f64 / cells as f64 > 0.7,
            "CC beats R in only {cc_over_r}/{cells} cells"
        );
    }

    #[test]
    fn efficiency_rises_with_batch_and_bandwidth() {
        let rows = run();
        for net in ["vgg16", "resnet50"] {
            let lo = lookup(&rows, net, 16, "low", Mode::CCube);
            let hi = lookup(&rows, net, 128, "high", Mode::CCube);
            assert!(hi > lo, "{net}: {lo} -> {hi}");
        }
        // peak chaining efficiency approaches the paper's 98%
        let best = lookup(&rows, "resnet50", 128, "high", Mode::CCube);
        assert!(best > 0.93, "best CC efficiency {best}");
    }

    #[test]
    fn simulated_grid_matches_analytic_grid_for_tree_modes() {
        // The DES-grounded variant must agree with the analytic arrival
        // model on the conflict-free DGX-1 embedding.
        let analytic = at_batches(&[32, 128]);
        let simulated = run_simulated(&[32, 128]);
        for net in ["zfnet", "vgg16", "resnet50"] {
            for batch in [32usize, 128] {
                for bw in ["low", "high"] {
                    for mode in [Mode::Baseline, Mode::OverlappedTree, Mode::CCube] {
                        let a = lookup(&analytic, net, batch, bw, mode);
                        let s = {
                            let rows = &simulated;
                            rows.iter()
                                .find(|r| {
                                    r.network == net
                                        && r.batch == batch
                                        && r.bandwidth == bw
                                        && r.mode == mode
                                })
                                .unwrap()
                                .normalized_perf
                        };
                        let rel = (a - s).abs() / a;
                        assert!(
                            rel < 0.05,
                            "{net} b={batch} {bw} {mode}: analytic {a:.3} vs sim {s:.3}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn c2_beats_baseline_everywhere() {
        let rows = at_batches(&[32, 128]);
        for net in ["zfnet", "vgg16", "resnet50"] {
            for batch in [32usize, 128] {
                for bw in ["low", "high"] {
                    let b = lookup(&rows, net, batch, bw, Mode::Baseline);
                    let c2 = lookup(&rows, net, batch, bw, Mode::Chained);
                    assert!(c2 >= b, "{net} b={batch} {bw}");
                }
            }
        }
    }
}
