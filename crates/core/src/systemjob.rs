//! Building a full training iteration as a compute+comm co-simulation
//! job.
//!
//! This is the piece the paper could not get from ASTRA-sim: one
//! [`SystemJob`] holds the backward compute tasks, the one-shot
//! AllReduce gated on the *slowest* backward, and the next iteration's
//! forward layers gated per GPU on the transfers that deliver their
//! gradient chunks — i.e. gradient queuing expressed as dataflow. The
//! job spans exactly one steady-state iteration, and its co-simulated
//! makespan is cross-validated against the closed-form
//! [`TrainingPipeline`] model: for the chained modes (C2, CC) they agree
//! to within 1% on every network and batch size the paper evaluates
//! (see tests).

use crate::pipeline::TrainingPipeline;
use ccube_collectives::{tree_allreduce, Chunking, DoubleBinaryTree, Overlap, TransferId};
use ccube_sim::{ComputeTask, ComputeTaskId, SystemJob};
use ccube_topology::GpuId;

/// Assembles one C-Cube training iteration (backward → one-shot
/// AllReduce → chained forward) as a [`SystemJob`] for
/// [`simulate_system`](ccube_sim::simulate_system).
///
/// Task layout: compute task `g` (for `g < P`) is GPU `g`'s backward
/// pass; task `P + g·L + l` is GPU `g`'s forward layer `l` of the next
/// iteration.
///
/// `compute_scale[g]` stretches GPU `g`'s compute (detour forwarders,
/// Fig. 15).
///
/// # Panics
///
/// Panics if `compute_scale` does not have one entry per rank.
pub fn build_iteration_job(
    pipeline: &TrainingPipeline,
    overlap: Overlap,
    compute_scale: &[f64],
) -> SystemJob {
    let p = compute_scale.len();
    assert!(p >= 2, "need at least two GPUs");
    let trees = DoubleBinaryTree::new(p).expect("p >= 2");
    let num_chunks = pipeline.num_chunks();
    let schedule = tree_allreduce(
        trees.trees(),
        &Chunking::even(pipeline.total_grads(), num_chunks),
        overlap,
    );
    let table = pipeline.layer_chunk_table();
    let layer_fwd = pipeline.layer_fwd_times();
    let num_layers = layer_fwd.len();

    // deliveries[rank][chunk]: transfers that write this chunk's final
    // value at this rank (for the root: the reduce-ins; elsewhere: the
    // broadcast arrival).
    let mut deliveries: Vec<Vec<Vec<TransferId>>> = vec![vec![Vec::new(); num_chunks]; p];
    for t in schedule.transfers() {
        deliveries[t.dst.index()][t.chunk.index()].push(t.id);
    }

    let mut compute = Vec::with_capacity(p * (1 + num_layers));
    // Backward tasks: ids 0..P.
    for (g, &scale) in compute_scale.iter().enumerate() {
        compute.push(ComputeTask {
            id: ComputeTaskId(g as u32),
            gpu: GpuId(g as u32),
            duration: pipeline.t_bwd() * scale,
            deps_compute: vec![],
            deps_transfers: vec![],
            label: format!("bwd g{g}"),
        });
    }
    // Forward layers: ids P + g*L + l.
    for g in 0..p {
        for (l, &fwd) in layer_fwd.iter().enumerate() {
            let id = ComputeTaskId((p + g * num_layers + l) as u32);
            let mut deps_compute = vec![ComputeTaskId(g as u32)];
            if l > 0 {
                deps_compute.push(ComputeTaskId((p + g * num_layers + l - 1) as u32));
            }
            // Gradient queuing's dequeue gate: every chunk this layer
            // needs must have been delivered to this rank.
            let mut deps_transfers = Vec::new();
            for chunk_deliveries in &deliveries[g][..table[l].min(num_chunks)] {
                deps_transfers.extend(chunk_deliveries.iter().copied());
            }
            compute.push(ComputeTask {
                id,
                gpu: GpuId(g as u32),
                duration: fwd * compute_scale[g],
                deps_compute,
                deps_transfers,
                label: format!("fwd g{g} L{l}"),
            });
        }
    }

    // One-shot collective: every dependency-free transfer waits for all
    // backward passes (the gradients exist only after backward; the
    // synchronous collective effectively starts with the slowest GPU).
    let bwd_ids: Vec<ComputeTaskId> = (0..p as u32).map(ComputeTaskId).collect();
    let transfer_gates = schedule
        .transfers()
        .iter()
        .filter(|t| t.deps.is_empty())
        .flat_map(|t| bwd_ids.iter().map(move |&b| (t.id, b)))
        .collect();

    SystemJob {
        schedule,
        compute,
        transfer_gates,
    }
}

/// The forward-layer compute-task id of GPU `g`, layer `l` in a job built
/// by [`build_iteration_job`] for `p` ranks and `num_layers` layers.
pub fn fwd_task_id(p: usize, num_layers: usize, g: usize, l: usize) -> ComputeTaskId {
    ComputeTaskId((p + g * num_layers + l) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Mode;
    use ccube_collectives::Embedding;
    use ccube_sim::{simulate_system, SimOptions};
    use ccube_topology::{dgx1, Seconds};

    fn run_on(
        network: &ccube_dnn::NetworkModel,
        batch: usize,
        overlap: Overlap,
        scale: &[f64],
    ) -> (ccube_sim::SystemReport, TrainingPipeline) {
        let pipeline = TrainingPipeline::dgx1(network, batch);
        let job = build_iteration_job(&pipeline, overlap, scale);
        let topo = dgx1();
        let emb = Embedding::dgx1_double_tree(&topo, &job.schedule).unwrap();
        let report = simulate_system(&topo, &job, &emb, &SimOptions::default()).unwrap();
        (report, pipeline)
    }

    fn run_job(overlap: Overlap, scale: &[f64]) -> (ccube_sim::SystemReport, TrainingPipeline) {
        run_on(&ccube_dnn::resnet50(), 64, overlap, scale)
    }

    #[test]
    fn cosim_matches_closed_form_ccube_iteration() {
        // The job spans exactly one steady-state iteration: backward from
        // t=0, one-shot AllReduce, chained forward — the same
        // `t_bwd + chained-forward-finish` the closed-form chained modes
        // price (C2 on the baseline double tree, CC on the overlapped
        // one).
        let networks = [
            ccube_dnn::zfnet(),
            ccube_dnn::vgg16(),
            ccube_dnn::resnet50(),
        ];
        for network in &networks {
            for batch in [16, 32, 64, 128] {
                for (mode, overlap) in [
                    (Mode::Chained, Overlap::None),
                    (Mode::CCube, Overlap::ReductionBroadcast),
                ] {
                    let (report, pipeline) = run_on(network, batch, overlap, &[1.0; 8]);
                    let closed = pipeline.iteration(mode).t_iter.as_secs_f64();
                    let cosim = report.makespan.as_secs_f64();
                    let rel = (cosim - closed).abs() / closed;
                    assert!(
                        rel < 0.01,
                        "{} b={batch} {mode}: co-sim {cosim:.6}s vs closed form \
                         {closed:.6}s ({:.3}% off)",
                        network.name(),
                        rel * 100.0
                    );
                }
            }
        }
    }

    #[test]
    fn overlap_beats_baseline_in_the_cosim_too() {
        let (over, _) = run_job(Overlap::ReductionBroadcast, &[1.0; 8]);
        let (base, _) = run_job(Overlap::None, &[1.0; 8]);
        assert!(over.makespan < base.makespan);
    }

    #[test]
    fn early_layers_overlap_with_late_chunks() {
        // The co-sim shows gradient queuing in action: on some GPU the
        // first forward layer *starts* before the last transfer completes
        // (ResNet-50's conv1 alone outlasts the communication tail, so
        // compare start times, not completions).
        let (report, pipeline) = run_job(Overlap::ReductionBroadcast, &[1.0; 8]);
        let num_layers = pipeline.layer_fwd_times().len();
        let l0_complete = report.compute_complete[fwd_task_id(8, num_layers, 0, 0).index()];
        let l0_start = l0_complete - pipeline.layer_fwd_times()[0];
        let last_transfer = report
            .transfer_complete
            .iter()
            .copied()
            .fold(Seconds::ZERO, Seconds::max);
        assert!(
            l0_start < last_transfer,
            "layer 0 starts at {l0_start} vs last transfer {last_transfer}"
        );
    }

    #[test]
    fn slow_forwarders_stretch_the_iteration() {
        let (base, _) = run_job(Overlap::ReductionBroadcast, &[1.0; 8]);
        // GPUs 1 and 7 forward detours at ~3.9% compute loss (Fig. 15).
        let mut scale = [1.0; 8];
        scale[1] = 1.039;
        scale[7] = 1.039;
        let (slowed, _) = run_job(Overlap::ReductionBroadcast, &scale);
        // The synchronous collective waits for the slowest backward, so
        // the slowed GPUs' loss reaches everyone, but never by more than
        // the compute share of the iteration.
        let inflation = slowed.makespan.as_secs_f64() / base.makespan.as_secs_f64();
        assert!(
            inflation > 1.005 && inflation < 1.04,
            "inflation {inflation}"
        );
        // The slowed GPUs are the busiest.
        assert!(slowed.gpu_busy[&GpuId(1)] > slowed.gpu_busy[&GpuId(0)]);
    }

    #[test]
    fn fwd_layers_execute_in_order_per_gpu() {
        let (report, pipeline) = run_job(Overlap::ReductionBroadcast, &[1.0; 8]);
        let num_layers = pipeline.layer_fwd_times().len();
        for g in 0..8 {
            for l in 1..num_layers {
                let prev = report.compute_complete[fwd_task_id(8, num_layers, g, l - 1).index()];
                let this = report.compute_complete[fwd_task_id(8, num_layers, g, l).index()];
                assert!(this >= prev, "g{g} L{l}");
            }
        }
    }
}
