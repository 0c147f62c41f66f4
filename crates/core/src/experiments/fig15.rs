//! Fig. 15 — performance of detour (forwarding) GPUs vs the rest.
//!
//! On the DGX-1, two GPUs run persistent forwarding kernels for the
//! detour routes (§IV-A). Persistent kernels hold their SMs for the
//! whole run, so a detour GPU loses a fixed slice of compute
//! throughput — the paper measures a 3–4% end-to-end loss on the
//! forwarders and none elsewhere.
//!
//! Model: each forwarding kernel occupies [`SMS_PER_FORWARD_KERNEL`] of
//! the V100's [`TOTAL_SMS`] streaming multiprocessors; a GPU forwarding
//! both directions of a detour runs two kernels. Its compute time
//! stretches by `1 / (1 - occupied_fraction)` while communication time is
//! unchanged (the sim already charges the channel time).

use crate::pipeline::{Mode, TrainingPipeline};
use ccube_collectives::cost::{k_opt, CostParams};
use ccube_collectives::{tree_allreduce, Chunking, DoubleBinaryTree, Embedding, Overlap};
use ccube_sim::{simulate, SimOptions};
use ccube_topology::{dgx1, GpuId, Seconds};
use std::fmt;

/// SMs a single persistent forwarding kernel occupies.
pub const SMS_PER_FORWARD_KERNEL: f64 = 1.5;

/// Streaming multiprocessors on a V100.
pub const TOTAL_SMS: f64 = 80.0;

/// One bar of Fig. 15.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Physical GPU.
    pub gpu: u32,
    /// Number of forwarding kernels resident on this GPU.
    pub forward_kernels: usize,
    /// Channel-forwarding busy time accumulated during one AllReduce.
    pub forwarding_busy: Seconds,
    /// Per-GPU performance normalized to a non-detour GPU (1.0).
    pub normalized_perf: f64,
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "gpu{} kernels={} busy={} perf={:.3}",
            self.gpu, self.forward_kernels, self.forwarding_busy, self.normalized_perf
        )
    }
}

/// Default run: ResNet-50 at batch 64, high bandwidth (the paper's
/// Fig. 15 configuration).
pub fn run() -> Vec<Row> {
    run_with_net(64, ccube_sim::NetworkModel::ChannelApprox)
}

/// Runs the per-GPU comparison at an explicit batch size under an
/// explicit network model.
pub fn run_with_net(batch: usize, network: ccube_sim::NetworkModel) -> Vec<Row> {
    let net = ccube_dnn::resnet50();
    let pipeline = TrainingPipeline::dgx1(&net, batch);
    let report = pipeline.iteration(Mode::CCube);
    let t_iter = report.t_iter;
    let t_compute = report.t_fwd + report.t_bwd;

    // Which GPUs forward, and how much channel time they spend, comes
    // from simulating the overlapped double tree on the DGX-1.
    let topo = dgx1();
    let dt = DoubleBinaryTree::new(8).expect("8 ranks");
    let params = CostParams::nvlink();
    let n = net.total_param_bytes();
    let k = k_opt(&params, 8, n).div_ceil(2).max(1) * 2;
    let s = tree_allreduce(
        dt.trees(),
        &Chunking::even(n, k),
        Overlap::ReductionBroadcast,
    );
    let emb = Embedding::dgx1_double_tree(&topo, &s).expect("embeddable");
    let sim = simulate(
        &topo,
        &s,
        &emb,
        &SimOptions::default().with_network(network),
    )
    .expect("simulates");
    let kernels = emb.forwarding_load();

    (0..8u32)
        .map(|g| {
            let forward_kernels = kernels.get(&GpuId(g)).copied().unwrap_or(0);
            let occupied = forward_kernels as f64 * SMS_PER_FORWARD_KERNEL / TOTAL_SMS;
            let slow = 1.0 / (1.0 - occupied);
            let t_gpu = t_iter + t_compute * (slow - 1.0);
            Row {
                gpu: g,
                forward_kernels,
                forwarding_busy: sim
                    .forwarding_busy()
                    .get(&GpuId(g))
                    .copied()
                    .unwrap_or(Seconds::ZERO),
                normalized_perf: t_iter / t_gpu,
            }
        })
        .collect()
}

/// Renders rows as CSV.
pub fn to_csv(rows: &[Row]) -> String {
    let mut out = String::from("gpu,forward_kernels,forwarding_busy_us,normalized_perf\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{:.2},{:.4}\n",
            r.gpu,
            r.forward_kernels,
            r.forwarding_busy.as_micros(),
            r.normalized_perf
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_two_detour_gpus_lose_3_to_4_percent() {
        let rows = run();
        let detour: Vec<&Row> = rows.iter().filter(|r| r.forward_kernels > 0).collect();
        let clean: Vec<&Row> = rows.iter().filter(|r| r.forward_kernels == 0).collect();
        assert_eq!(detour.len(), 2, "paper uses two forwarding GPUs");
        assert_eq!(clean.len(), 6);
        for r in &clean {
            assert!((r.normalized_perf - 1.0).abs() < 1e-12);
            assert!(r.forwarding_busy.is_zero());
        }
        for r in &detour {
            let loss = 1.0 - r.normalized_perf;
            assert!(
                (0.02..=0.05).contains(&loss),
                "gpu{} loss {:.3}",
                r.gpu,
                loss
            );
            assert!(r.forwarding_busy > Seconds::ZERO);
        }
    }

    #[test]
    fn loss_is_batch_insensitive() {
        // Persistent kernels cost a fixed compute fraction, so the loss
        // barely moves with batch size.
        let small = run_with_net(16, ccube_sim::NetworkModel::ChannelApprox);
        let large = run_with_net(128, ccube_sim::NetworkModel::ChannelApprox);
        let loss = |rows: &[Row]| 1.0 - rows.iter().map(|r| r.normalized_perf).fold(1.0, f64::min);
        assert!((loss(&small) - loss(&large)).abs() < 0.02);
    }
}
