//! Extension studies beyond the paper's figures.
//!
//! Follow-ups the paper motivates but does not evaluate:
//!
//! * [`topology_study`] — the related-work section leaves open "how
//!   alternative physical topologies … can be exploited": we rerun the
//!   DGX-1 comparison on an NVSwitch-class flat crossbar, where no
//!   detours exist and per-GPU bandwidth is the only constraint. The
//!   result is instructive: with the aggregate NIC shared by both
//!   phases, the overlapped tree's *makespan* advantage nearly vanishes
//!   (there is no idle reverse channel to fill), but its *turnaround*
//!   advantage — the one computation chaining feeds on — survives
//!   intact, so C-Cube remains useful on switch-attached machines.
//! * [`detour_vs_host`] — quantifies §IV-A's claim that routing the
//!   missing cross-quad links through PCIe/the host "can cause
//!   significant performance degradation", by embedding the same
//!   overlapped double tree both ways.
//! * [`chunk_sensitivity`] — validates Eq. 4's `K_opt` against the
//!   discrete-event simulator by sweeping the chunk count.
//! * [`overlap_strategy_study`] — quantifies the Fig. 2 argument:
//!   backward overlap (Horovod/DDP) vs C-Cube's forward chaining.
//! * [`cosim_validation`] — the closed-form pipeline, the DES-fed
//!   pipeline, and the full compute+communication co-simulation must
//!   agree on the same iteration (internal consistency).

use ccube_collectives::cost::{k_opt, CostParams};
use ccube_collectives::{
    ring_allreduce_multi, tree_allreduce, Chunking, DoubleBinaryTree, Embedding, Overlap, Rank,
    Schedule,
};
use ccube_sim::{simulate, SimOptions, SimReport};
use ccube_topology::{dgx1, disjoint_rings, nvswitch, ByteSize, Seconds, Topology};
use std::fmt;

/// A row of the alternative-topology study.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyRow {
    /// Topology name.
    pub topology: &'static str,
    /// Algorithm label (`B`, `C1`, `R`).
    pub algorithm: &'static str,
    /// AllReduce makespan.
    pub makespan: Seconds,
    /// Gradient turnaround time.
    pub turnaround: Seconds,
    /// Number of detour routes the embedding needed.
    pub detours: usize,
}

impl fmt::Display for TopologyRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<10} {:<3} makespan={} turnaround={} detours={}",
            self.topology, self.algorithm, self.makespan, self.turnaround, self.detours
        )
    }
}

fn sim_dgx1(schedule: &Schedule, topo: &Topology, tree_placement: bool) -> (SimReport, usize) {
    // Tree schedules need the physical-topology-aware rank placement; the
    // multi-ring orders already name physical GPUs (the Hamiltonian
    // cycles), so they embed with the identity mapping.
    let emb = if tree_placement {
        Embedding::dgx1_double_tree(topo, schedule)
    } else {
        Embedding::identity(topo, schedule)
    }
    .expect("embeddable");
    let detours = emb.routes().filter(|(_, r)| r.is_detour()).count();
    (
        simulate(topo, schedule, &emb, &SimOptions::default()).expect("simulates"),
        detours,
    )
}

fn sim_switch(schedule: &Schedule, topo: &Topology) -> (SimReport, usize) {
    let emb = Embedding::nic(topo, schedule).expect("embeddable");
    (
        simulate(topo, schedule, &emb, &SimOptions::scale_out()).expect("simulates"),
        0,
    )
}

/// Compares B / C1 / R on the DGX-1 hybrid mesh-cube against an
/// NVSwitch-class crossbar, 64 MiB message.
pub fn topology_study() -> Vec<TopologyRow> {
    let n = ByteSize::mib(64);
    let params = CostParams::nvlink();
    let k = k_opt(&params, 8, n).div_ceil(2) * 2;
    let dt = DoubleBinaryTree::new(8).expect("8 ranks");
    let chunking = Chunking::even(n, k);
    let b = tree_allreduce(dt.trees(), &chunking, Overlap::None);
    let c1 = tree_allreduce(dt.trees(), &chunking, Overlap::ReductionBroadcast);

    let mesh = dgx1();
    let ring_orders: Vec<Vec<Rank>> = disjoint_rings(&mesh, 3)
        .into_iter()
        .flat_map(|cycle| {
            let fwd: Vec<Rank> = cycle.iter().map(|g| Rank(g.0)).collect();
            let mut rev = fwd.clone();
            rev.reverse();
            [fwd, rev]
        })
        .collect();
    let r_mesh = ring_allreduce_multi(n, &ring_orders);
    // On the crossbar all rings share the one NIC, so a single ring order
    // suffices (more rings would just contend).
    let identity: Vec<Rank> = Rank::all(8).collect();
    let r_switch = ring_allreduce_multi(n, std::slice::from_ref(&identity));

    let switch = nvswitch(8);
    let cells: [(&'static str, &'static str, &Schedule); 6] = [
        ("dgx1", "B", &b),
        ("dgx1", "C1", &c1),
        ("dgx1", "R", &r_mesh),
        ("nvswitch", "B", &b),
        ("nvswitch", "C1", &c1),
        ("nvswitch", "R", &r_switch),
    ];
    cells
        .into_iter()
        .map(|(topology, alg, schedule)| {
            let (report, detours) = if topology == "dgx1" {
                sim_dgx1(schedule, &mesh, alg != "R")
            } else {
                sim_switch(schedule, &switch)
            };
            TopologyRow {
                topology,
                algorithm: alg,
                makespan: report.makespan(),
                turnaround: report.turnaround(),
                detours,
            }
        })
        .collect()
}

/// Renders topology rows as CSV.
pub fn topology_to_csv(rows: &[TopologyRow]) -> String {
    let mut out = String::from("topology,algorithm,makespan_us,turnaround_us,detours\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{:.2},{:.2},{}\n",
            r.topology,
            r.algorithm,
            r.makespan.as_micros(),
            r.turnaround.as_micros(),
            r.detours
        ));
    }
    out
}

/// A row of the detour-vs-host comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct DetourRow {
    /// `"nvlink-detour"` or `"host-bridge"`.
    pub routing: &'static str,
    /// Message size.
    pub n: ByteSize,
    /// AllReduce makespan.
    pub makespan: Seconds,
    /// Slowdown relative to the detour embedding.
    pub slowdown: f64,
}

impl fmt::Display for DetourRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<14} N={:<10} makespan={} (x{:.2})",
            self.routing,
            format!("{}", self.n),
            self.makespan,
            self.slowdown
        )
    }
}

/// Quantifies the detour routes' advantage over the PCIe host bridge for
/// the overlapped double tree.
pub fn detour_vs_host() -> Vec<DetourRow> {
    let topo = dgx1();
    let dt = DoubleBinaryTree::new(8).expect("8 ranks");
    let params = CostParams::nvlink();
    let sizes = [ByteSize::mib(16), ByteSize::mib(64)];
    sizes
        .into_iter()
        .flat_map(|n| {
            let k = k_opt(&params, 8, n).div_ceil(2) * 2;
            let s = tree_allreduce(
                dt.trees(),
                &Chunking::even(n, k),
                Overlap::ReductionBroadcast,
            );
            let detour = Embedding::dgx1_double_tree(&topo, &s).expect("embeddable");
            // Host embedding: identity placement with host fallback permitted,
            // mimicking a topology-oblivious runtime.
            let host = Embedding::identity_with_host(&topo, &s).expect("embeddable");
            let t_detour = simulate(&topo, &s, &detour, &SimOptions::default())
                .expect("simulates")
                .makespan();
            let t_host = simulate(&topo, &s, &host, &SimOptions::default())
                .expect("simulates")
                .makespan();
            [
                DetourRow {
                    routing: "nvlink-detour",
                    n,
                    makespan: t_detour,
                    slowdown: 1.0,
                },
                DetourRow {
                    routing: "host-bridge",
                    n,
                    makespan: t_host,
                    slowdown: t_host / t_detour,
                },
            ]
        })
        .collect()
}

/// Renders detour rows as CSV.
pub fn detour_to_csv(rows: &[DetourRow]) -> String {
    let mut out = String::from("routing,bytes,makespan_us,slowdown\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{:.2},{:.3}\n",
            r.routing,
            r.n.as_u64(),
            r.makespan.as_micros(),
            r.slowdown
        ));
    }
    out
}

/// A row of the chunk-count sensitivity sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkRow {
    /// Chunk count.
    pub k: usize,
    /// Whether this is the Eq. 4 optimum (rounded to the tree pair).
    pub is_k_opt: bool,
    /// Simulated overlapped-double-tree makespan.
    pub makespan: Seconds,
}

impl fmt::Display for ChunkRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "K={:<5} makespan={}{}",
            self.k,
            self.makespan,
            if self.is_k_opt { "  <- K_opt" } else { "" }
        )
    }
}

/// Sweeps the chunk count for a 64 MiB overlapped double tree on the
/// DGX-1 and marks Eq. 4's optimum.
pub fn chunk_sensitivity() -> Vec<ChunkRow> {
    let topo = dgx1();
    let dt = DoubleBinaryTree::new(8).expect("8 ranks");
    let n = ByteSize::mib(64);
    let kopt = k_opt(&CostParams::nvlink(), 8, n).div_ceil(2) * 2;
    let mut ks = vec![2usize, 8, 24, kopt / 2, kopt, kopt * 2, kopt * 8];
    ks.sort_unstable();
    ks.dedup();
    ks.into_iter()
        .map(|k| {
            let s = tree_allreduce(
                dt.trees(),
                &Chunking::even(n, k),
                Overlap::ReductionBroadcast,
            );
            let e = Embedding::dgx1_double_tree(&topo, &s).expect("embeddable");
            let makespan = simulate(&topo, &s, &e, &SimOptions::default())
                .expect("simulates")
                .makespan();
            ChunkRow {
                k,
                is_k_opt: k == kopt,
                makespan,
            }
        })
        .collect()
}

/// Renders chunk rows as CSV.
pub fn chunk_to_csv(rows: &[ChunkRow]) -> String {
    let mut out = String::from("k,is_k_opt,makespan_us\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{:.2}\n",
            r.k,
            r.is_k_opt,
            r.makespan.as_micros()
        ));
    }
    out
}

/// A row of the overlap-strategy comparison (paper Fig. 2).
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyRow {
    /// Network name.
    pub network: &'static str,
    /// Batch size / bandwidth label.
    pub config: &'static str,
    /// Strategy: `B` (no overlap), `BW` (backward overlap, Fig. 2(b)),
    /// `CC` (forward chaining, Fig. 2(c)).
    pub strategy: &'static str,
    /// Normalized performance.
    pub normalized_perf: f64,
}

impl fmt::Display for StrategyRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<9} {:<9} {:<3} {:.3}",
            self.network, self.config, self.strategy, self.normalized_perf
        )
    }
}

/// Quantifies the paper's Fig. 2 argument: no overlap (`B`) vs
/// backward-overlap (`BW`, the Horovod/DDP strategy of Fig. 2(b)) vs
/// C-Cube's forward chaining (`CC`, Fig. 2(c)).
///
/// Under a clean α+β model both overlap strategies hide almost all
/// communication when compute dominates; `BW` even profits from the
/// ring's aggregate bandwidth in communication-bound cells. The paper's
/// *measured* counterpoint (footnote 8: PyTorch's backward overlap "did
/// not provide any significant performance improvement" on their DGX-1)
/// reflects framework realities the model omits — bucketing, stream
/// scheduling, SM contention — which is precisely C-Cube's pitch: it
/// reaches the same hiding through one-shot, in-order communication
/// without relying on those mechanisms.
pub fn overlap_strategy_study() -> Vec<StrategyRow> {
    use crate::pipeline::{Mode, TrainingPipeline};
    use ccube_dnn::ComputeModel;

    let compute = ComputeModel::v100();
    let nets: [(&'static str, ccube_dnn::NetworkModel); 3] = [
        ("zfnet", ccube_dnn::zfnet()),
        ("vgg16", ccube_dnn::vgg16()),
        ("resnet50", ccube_dnn::resnet50()),
    ];
    let mut rows = Vec::new();
    for (name, net) in &nets {
        for (config, batch, scale) in [("b64/high", 64, 1.0), ("b16/low", 16, 0.25)] {
            let pipeline = TrainingPipeline::dgx1_with(net, batch, &compute, scale);
            let b = pipeline.iteration(Mode::Baseline).normalized_perf;
            let bw = pipeline.iteration(Mode::BackwardOverlap).normalized_perf;
            let cc = pipeline.iteration(Mode::CCube).normalized_perf;
            rows.extend(
                [("B", b), ("BW", bw), ("CC", cc)].map(|(strategy, perf)| StrategyRow {
                    network: name,
                    config,
                    strategy,
                    normalized_perf: perf,
                }),
            );
        }
    }
    rows
}

/// Renders strategy rows as CSV.
pub fn strategy_to_csv(rows: &[StrategyRow]) -> String {
    let mut out = String::from("network,config,strategy,normalized_perf\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{:.4}\n",
            r.network, r.config, r.strategy, r.normalized_perf
        ));
    }
    out
}

/// A row of the three-model cross-validation.
#[derive(Debug, Clone, PartialEq)]
pub struct CosimRow {
    /// Which model produced the number.
    pub model: &'static str,
    /// C-Cube iteration time (ResNet-50, batch 64, high bandwidth).
    pub t_iter: Seconds,
}

impl fmt::Display for CosimRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:<24} t_iter={}", self.model, self.t_iter)
    }
}

/// Cross-validates the three independent performance models on the same
/// C-Cube iteration (ResNet-50, batch 64, DGX-1):
///
/// 1. the closed-form pipeline (analytic chunk arrivals),
/// 2. the network DES feeding the pipeline (simulated arrivals),
/// 3. the full compute+communication co-simulation
///    ([`simulate_system`](ccube_sim::simulate_system)).
///
/// The three agree to within a few percent — the reproduction's internal
/// consistency check.
pub fn cosim_validation() -> Vec<CosimRow> {
    use crate::arrivals::ChunkArrivals;
    use crate::pipeline::Mode;
    use crate::systemjob::build_iteration_job;
    use ccube_sim::simulate_system;

    let net = ccube_dnn::resnet50();
    let pipeline = crate::pipeline::TrainingPipeline::dgx1(&net, 64);
    let closed = pipeline.iteration(Mode::CCube).t_iter;

    let topo = dgx1();
    let dt = DoubleBinaryTree::new(8).expect("8 ranks");
    let k = pipeline.num_chunks();
    let s = tree_allreduce(
        dt.trees(),
        &Chunking::even(net.total_param_bytes(), k),
        Overlap::ReductionBroadcast,
    );
    let e = Embedding::dgx1_double_tree(&topo, &s).expect("embeddable");
    let net_des = simulate(&topo, &s, &e, &SimOptions::default()).expect("simulates");
    let des_fed = pipeline
        .iteration_with_arrivals(Mode::CCube, &ChunkArrivals::from_sim(&net_des))
        .t_iter;

    let job = build_iteration_job(&pipeline, Overlap::ReductionBroadcast, &[1.0; 8]);
    let ej = Embedding::dgx1_double_tree(&topo, &job.schedule).expect("embeddable");
    let cosim = simulate_system(&topo, &job, &ej, &SimOptions::default())
        .expect("simulates")
        .makespan;

    vec![
        CosimRow {
            model: "closed-form",
            t_iter: closed,
        },
        CosimRow {
            model: "network-des+pipeline",
            t_iter: des_fed,
        },
        CosimRow {
            model: "full-cosim",
            t_iter: cosim,
        },
    ]
}

/// Renders cosim rows as CSV.
pub fn cosim_to_csv(rows: &[CosimRow]) -> String {
    let mut out = String::from("model,t_iter_us\n");
    for r in rows {
        out.push_str(&format!("{},{:.2}\n", r.model, r.t_iter.as_micros()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nvswitch_needs_no_detours_and_keeps_overlap_benefit() {
        let rows = topology_study();
        let get = |t: &str, a: &str| {
            rows.iter()
                .find(|r| r.topology == t && r.algorithm == a)
                .unwrap()
        };
        // No detours on the crossbar; the mesh-cube needs them.
        assert_eq!(get("nvswitch", "C1").detours, 0);
        assert!(get("dgx1", "C1").detours > 0);
        // On the mesh-cube, where each tree direction owns a dedicated
        // NVLink, overlap buys a large makespan win.
        let b = get("dgx1", "B").makespan;
        let c1 = get("dgx1", "C1").makespan;
        assert!(b / c1 > 1.3, "dgx1: B {b} vs C1 {c1}");
        // On the crossbar the per-GPU NIC is shared by both phases, so
        // overlap barely moves the makespan — but the turnaround benefit
        // (what C-Cube's chaining feeds on) survives on both machines.
        let sb = get("nvswitch", "B").makespan;
        let sc1 = get("nvswitch", "C1").makespan;
        assert!(sc1 <= sb, "nvswitch: C1 {sc1} must not lose to B {sb}");
        for t in ["dgx1", "nvswitch"] {
            let tb = get(t, "B").turnaround;
            let tc = get(t, "C1").turnaround;
            assert!(tb / tc > 3.0, "{t}: turnaround {tb} vs {tc}");
        }
    }

    #[test]
    fn host_bridge_is_significantly_slower() {
        // §IV-A: PCIe/host routing "can cause significant performance
        // degradation" — quantified here as >20% on the makespan.
        let rows = detour_vs_host();
        for r in rows.iter().filter(|r| r.routing == "host-bridge") {
            assert!(r.slowdown > 1.2, "N={}: slowdown {:.2}", r.n, r.slowdown);
        }
    }

    #[test]
    fn overlap_strategies_rank_sanely() {
        let rows = overlap_strategy_study();
        let get = |net: &str, cfg: &str, strat: &str| {
            rows.iter()
                .find(|r| r.network == net && r.config == cfg && r.strategy == strat)
                .unwrap()
                .normalized_perf
        };
        for net in ["zfnet", "vgg16", "resnet50"] {
            for cfg in ["b64/high", "b16/low"] {
                // Any overlap beats no overlap.
                assert!(get(net, cfg, "BW") >= get(net, cfg, "B"), "{net} {cfg}");
                assert!(get(net, cfg, "CC") >= get(net, cfg, "B"), "{net} {cfg}");
            }
            // In the compute-bound cell both overlap strategies approach
            // ideal and CC is competitive with BW without any gradient
            // partitioning or re-ordering.
            let cc = get(net, "b64/high", "CC");
            let bw = get(net, "b64/high", "BW");
            assert!(cc > bw - 0.02, "{net}: CC {cc} vs BW {bw}");
        }
    }

    #[test]
    fn three_models_agree() {
        let rows = cosim_validation();
        assert_eq!(rows.len(), 3);
        let base = rows[0].t_iter.as_secs_f64();
        for r in &rows[1..] {
            let rel = (r.t_iter.as_secs_f64() - base).abs() / base;
            assert!(rel < 0.03, "{} deviates {:.2}%", r.model, rel * 100.0);
        }
    }

    #[test]
    fn k_opt_is_near_the_simulated_minimum() {
        let rows = chunk_sensitivity();
        let best = rows
            .iter()
            .min_by(|a, b| a.makespan.cmp(&b.makespan))
            .unwrap();
        let kopt_row = rows.iter().find(|r| r.is_k_opt).unwrap();
        // The analytic optimum is within 10% of the simulated best.
        assert!(
            kopt_row.makespan.as_secs_f64() <= best.makespan.as_secs_f64() * 1.10,
            "K_opt {} at {} vs best K {} at {}",
            kopt_row.k,
            kopt_row.makespan,
            best.k,
            best.makespan
        );
        // Extremes are clearly worse than the optimum.
        let coarse = rows.first().unwrap();
        let fine = rows.last().unwrap();
        assert!(coarse.makespan > kopt_row.makespan);
        assert!(fine.makespan > kopt_row.makespan);
    }
}
