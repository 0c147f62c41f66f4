//! Simulation options and [`simulate`], the communication-only entry
//! point.
//!
//! [`simulate`] owns no event loop: it runs the schedule's transfers
//! through the shared scheduler (`sched.rs`), which records each
//! transfer's timing and its chunk's completion as the transfer
//! completes, and shapes the run into a [`SimReport`].

use crate::error::SimError;
use crate::fabric::NetworkModel;
use crate::faults::FaultPlan;
use crate::report::SimReport;
use crate::sched::{self, Job};
use crate::trace::SimTrace;
use ccube_collectives::{Embedding, LinkTiming, Schedule};
use ccube_topology::{Seconds, Topology};

/// How a busy channel picks its next transfer when several are waiting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Arbitration {
    /// Strict head-of-line FIFO in readiness order. Models a single
    /// hardware queue per channel; appropriate when every logical edge
    /// has its own channel (the DGX-1 embedding).
    #[default]
    FifoHol,
    /// Lowest chunk id first (ties by transfer id). Models the fair
    /// arbitration between the reduction and broadcast persistent
    /// kernels sharing a NIC: the in-order collective always prefers the
    /// oldest chunk, so an early chunk's broadcast is never starved
    /// behind a backlog of later reduction sends. Used for the
    /// shared-NIC scale-out topology (Fig. 14).
    ChunkPriority,
}

/// Tunables of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOptions {
    /// Multiplier on every channel's bandwidth. The paper's
    /// "low-bandwidth" configuration (modeling PCIe-class interconnect by
    /// cutting the AllReduce kernel's thread count 4×) corresponds to
    /// `0.25`; the default `1.0` is the "high-bandwidth" NVLink setting.
    pub bandwidth_scale: f64,
    /// Extra per-hop processing latency charged to detour routes (the
    /// forwarding kernel's store-and-forward cost on the intermediate
    /// GPU).
    pub forwarding_latency: Seconds,
    /// Channel arbitration policy.
    pub arbitration: Arbitration,
    /// Ring capacity of the structured trace each run records. `0`
    /// disables tracing entirely ([`SimTrace::disabled`]): the scheduler
    /// skips all per-event ring-buffer bookkeeping and logs no channel
    /// busy intervals ([`SimReport::channel_intervals`] comes back
    /// empty), which is the fast path for sweeps and searches that only
    /// read timings and counters. Tracing never affects simulated
    /// timings or busy totals either way.
    pub trace_capacity: usize,
    /// Which network model the scheduler runs: the NIC-channel
    /// approximation (default) or the explicit switch fabric, whose
    /// transfers occupy port paths with per-port queues.
    pub network: NetworkModel,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            bandwidth_scale: 1.0,
            forwarding_latency: Seconds::from_micros(0.5),
            arbitration: Arbitration::FifoHol,
            trace_capacity: SimTrace::DEFAULT_CAPACITY,
            network: NetworkModel::ChannelApprox,
        }
    }
}

impl SimOptions {
    /// The paper's low-bandwidth configuration (bandwidth scaled to ¼).
    pub fn low_bandwidth() -> Self {
        SimOptions {
            bandwidth_scale: 0.25,
            ..SimOptions::default()
        }
    }

    /// Options for shared-NIC scale-out runs: chunk-priority arbitration.
    pub fn scale_out() -> Self {
        SimOptions {
            arbitration: Arbitration::ChunkPriority,
            ..SimOptions::default()
        }
    }

    /// The same options with tracing disabled — the fast path for
    /// sweeps and searches that only read the report's timings and
    /// counters. Results are bit-identical to a traced run; only the
    /// report's [`SimTrace`] and its per-channel busy intervals
    /// ([`SimReport::channel_intervals`]) come back empty.
    #[must_use]
    pub fn without_trace(mut self) -> Self {
        self.trace_capacity = 0;
        self
    }

    /// The same options running `network` instead of the default
    /// channel approximation.
    #[must_use]
    pub fn with_network(mut self, network: NetworkModel) -> Self {
        self.network = network;
        self
    }

    /// The run's trace sink: a bounded ring pre-allocated for an
    /// `expected` record count (the scheduler bounds its event population
    /// from the lowered spec count so the ring never regrows mid-run),
    /// or the disabled no-op trace when `trace_capacity` is 0.
    pub(crate) fn make_trace_for(&self, expected: usize) -> SimTrace {
        if self.trace_capacity == 0 {
            SimTrace::disabled()
        } else {
            SimTrace::bounded_for(self.trace_capacity, expected)
        }
    }

    /// The link-timing subset of the options, for lowering.
    pub(crate) fn link_timing(&self) -> LinkTiming {
        LinkTiming {
            bandwidth_scale: self.bandwidth_scale,
            forwarding_latency: self.forwarding_latency,
        }
    }
}

/// Simulates `schedule` over `topo` using the routes in `embedding`.
///
/// Timing model per transfer: it occupies every channel of its route
/// simultaneously (wormhole switching) for
/// `Σ per-hop latency + bytes / (bottleneck bandwidth × bandwidth_scale)`,
/// plus [`SimOptions::forwarding_latency`] per intermediate hop. Channels
/// are exclusive and served in FIFO order of transfer readiness; a
/// transfer starts only when all of its schedule dependencies have
/// completed *and* all of its channels are free. Under
/// [`NetworkModel::SwitchFabric`] the transfer occupies its port path
/// instead, timed by the fabric's ports.
///
/// # Errors
///
/// Returns [`SimError::Lowering`] for an input the lowering rejects — a
/// malformed schedule DAG, or a missing or invalid route — in every
/// build profile, and [`SimError::Deadlock`] if the event loop stalls.
///
/// # Examples
///
/// ```
/// use ccube_collectives::{tree_allreduce, Chunking, DoubleBinaryTree, Embedding, Overlap};
/// use ccube_sim::{simulate, SimOptions};
/// use ccube_topology::{dgx1, ByteSize};
///
/// let topo = dgx1();
/// let dt = DoubleBinaryTree::new(8).unwrap();
/// let chunking = Chunking::even(ByteSize::mib(64), 32);
/// let baseline = tree_allreduce(dt.trees(), &chunking, Overlap::None);
/// let overlapped = tree_allreduce(dt.trees(), &chunking, Overlap::ReductionBroadcast);
/// let eb = Embedding::dgx1_double_tree(&topo, &baseline).unwrap();
/// let eo = Embedding::dgx1_double_tree(&topo, &overlapped).unwrap();
/// let tb = simulate(&topo, &baseline, &eb, &SimOptions::default()).unwrap();
/// let to = simulate(&topo, &overlapped, &eo, &SimOptions::default()).unwrap();
/// // The overlapped tree (C1) finishes well before the baseline (B).
/// assert!(to.makespan() < tb.makespan());
/// ```
pub fn simulate(
    topo: &Topology,
    schedule: &Schedule,
    embedding: &Embedding,
    opts: &SimOptions,
) -> Result<SimReport, SimError> {
    let run = sched::run(
        topo,
        &Job::transfers(schedule),
        embedding,
        opts,
        &FaultPlan::empty(),
    )?;
    Ok(SimReport {
        num_ranks: schedule.num_ranks(),
        timings: run.timings,
        chunk_complete: run.chunk_complete,
        makespan: run.makespan,
        channel_busy: run.channel_busy,
        channel_intervals: run.channel_intervals,
        forwarding_busy: run.forwarding_busy,
        trace: run.trace,
        stats: run.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceRecord;
    use ccube_collectives::{
        ring_allreduce, tree_allreduce, BinaryTree, ChunkId, Chunking, DoubleBinaryTree,
        LowerError, Overlap, Rank,
    };
    use ccube_topology::{dgx1, ByteSize};

    fn dgx1_ring_report(bytes: ByteSize) -> SimReport {
        let topo = dgx1();
        let s = ring_allreduce(8, bytes);
        let e = Embedding::identity(&topo, &s).unwrap();
        simulate(&topo, &s, &e, &SimOptions::default()).unwrap()
    }

    #[test]
    fn ring_makespan_matches_alpha_beta_model() {
        // On an uncongested embedding the DES must agree with Eq. 2 up to
        // the detour latency corrections.
        let n = ByteSize::mib(64);
        let report = dgx1_ring_report(n);
        // Ring on DGX-1: some hops are detours (ring 0->1->...->7->0 is
        // not fully connected), so allow a modest margin over the model.
        let params = ccube_collectives::cost::CostParams::nvlink();
        let model = ccube_collectives::cost::t_ring(&params, 8, n);
        let ratio = report.makespan() / model;
        assert!(
            ratio > 0.9 && ratio < 1.3,
            "sim/model ratio {ratio} out of range (sim {}, model {})",
            report.makespan(),
            model
        );
    }

    #[test]
    fn overlap_beats_baseline_on_dgx1() {
        let topo = dgx1();
        let dt = DoubleBinaryTree::new(8).unwrap();
        let chunking = Chunking::even(ByteSize::mib(64), 64);
        let b = tree_allreduce(dt.trees(), &chunking, Overlap::None);
        let o = tree_allreduce(dt.trees(), &chunking, Overlap::ReductionBroadcast);
        let eb = Embedding::dgx1_double_tree(&topo, &b).unwrap();
        let eo = Embedding::dgx1_double_tree(&topo, &o).unwrap();
        let tb = simulate(&topo, &b, &eb, &SimOptions::default()).unwrap();
        let to = simulate(&topo, &o, &eo, &SimOptions::default()).unwrap();
        let speedup = tb.makespan() / to.makespan();
        assert!(
            speedup > 1.4 && speedup < 2.1,
            "C1 over B speedup {speedup} out of expected band"
        );
        // Turnaround improves far more than makespan (Fig. 14b).
        let turn = tb.turnaround() / to.turnaround();
        assert!(turn > 4.0, "turnaround speedup {turn}");
    }

    #[test]
    fn low_bandwidth_slows_the_collective_about_4x() {
        let topo = dgx1();
        let s = ring_allreduce(8, ByteSize::mib(64));
        let e = Embedding::identity(&topo, &s).unwrap();
        let hi = simulate(&topo, &s, &e, &SimOptions::default()).unwrap();
        let lo = simulate(&topo, &s, &e, &SimOptions::low_bandwidth()).unwrap();
        let ratio = lo.makespan() / hi.makespan();
        assert!(ratio > 3.0 && ratio < 4.1, "ratio={ratio}");
    }

    #[test]
    fn done_at_is_bounded_by_chunk_complete() {
        let topo = dgx1();
        let s = ring_allreduce(8, ByteSize::mib(8));
        let e = Embedding::identity(&topo, &s).unwrap();
        let report = simulate(&topo, &s, &e, &SimOptions::default()).unwrap();
        let done_at = report.done_at(&s);
        assert_eq!(done_at.len(), report.num_ranks());
        for (r, row) in done_at.iter().enumerate() {
            assert_eq!(row.len(), report.num_chunks());
            for (c, &done) in row.iter().enumerate() {
                let chunk = ChunkId(c as u32);
                assert!(done <= report.chunk_complete(chunk));
                // The last delivery of the chunk to the rank.
                let last = s
                    .transfers()
                    .iter()
                    .filter(|t| t.dst == Rank(r as u32) && t.chunk == chunk)
                    .map(|t| report.timings()[t.id.index()].complete)
                    .max()
                    .unwrap_or(Seconds::ZERO);
                assert_eq!(done, last);
            }
        }
        assert_eq!(
            report.makespan(),
            report.chunk_completions().iter().copied().max().unwrap()
        );
    }

    #[test]
    fn timings_agree_with_the_trace_and_the_dependencies() {
        // The overlapped double tree on DGX-1: contended channels and
        // detours, so starts are grant times, not dependency times.
        let topo = dgx1();
        let dt = DoubleBinaryTree::new(8).unwrap();
        let chunking = Chunking::even(ByteSize::mib(8), 8);
        let s = tree_allreduce(dt.trees(), &chunking, Overlap::ReductionBroadcast);
        let e = Embedding::dgx1_double_tree(&topo, &s).unwrap();
        let report = simulate(&topo, &s, &e, &SimOptions::default()).unwrap();
        let timings = report.timings();
        let (mut starts, mut ends) = (0, 0);
        for r in report.trace().records() {
            match *r {
                TraceRecord::TransferStart { id, at } => {
                    assert_eq!(timings[id.index()].start, at, "transfer {}", id.0);
                    starts += 1;
                }
                TraceRecord::TransferEnd { id, at } => {
                    assert_eq!(timings[id.index()].complete, at, "transfer {}", id.0);
                    ends += 1;
                }
                _ => {}
            }
        }
        assert_eq!((starts, ends), (timings.len(), timings.len()));
        for t in s.transfers() {
            let timing = timings[t.id.index()];
            assert!(timing.start < timing.complete, "transfer {}", t.id.0);
            for d in s.deps(t.id) {
                assert!(timings[d.index()].complete <= timing.start);
            }
        }
    }

    #[test]
    fn tree_chunks_complete_in_order() {
        let topo = dgx1();
        let dt = DoubleBinaryTree::new(8).unwrap();
        let chunking = Chunking::even(ByteSize::mib(32), 32);
        let o = tree_allreduce(dt.trees(), &chunking, Overlap::ReductionBroadcast);
        let eo = Embedding::dgx1_double_tree(&topo, &o).unwrap();
        let report = simulate(&topo, &o, &eo, &SimOptions::default()).unwrap();
        assert!(report.chunks_in_order(2));
    }

    #[test]
    fn forwarding_busy_appears_on_detour_gpus() {
        let topo = dgx1();
        let dt = DoubleBinaryTree::new(8).unwrap();
        let chunking = Chunking::even(ByteSize::mib(32), 16);
        let s = tree_allreduce(dt.trees(), &chunking, Overlap::ReductionBroadcast);
        let e = Embedding::dgx1_double_tree(&topo, &s).unwrap();
        let report = simulate(&topo, &s, &e, &SimOptions::default()).unwrap();
        assert!(
            !report.forwarding_busy().is_empty(),
            "double tree on DGX-1 must use detours"
        );
    }

    #[test]
    fn missing_route_is_reported() {
        let topo = dgx1();
        let s = ring_allreduce(8, ByteSize::mib(1));
        // Embed a different schedule so the ring's edges are absent.
        let tree = BinaryTree::inorder(8).unwrap();
        let other = tree_allreduce(
            std::slice::from_ref(&tree),
            &Chunking::even(ByteSize::mib(1), 4),
            Overlap::None,
        );
        let e = Embedding::identity(&topo, &other).unwrap();
        assert!(matches!(
            simulate(&topo, &s, &e, &SimOptions::default()),
            Err(SimError::Lowering(LowerError::MissingRoute(_)))
        ));
    }

    #[test]
    fn single_tree_sim_agrees_with_unit_step_shape() {
        // With alpha == 0-ish and equal chunks, completion order from the
        // DES must match the unit-step executor's ordering.
        let topo = dgx1();
        let tree = BinaryTree::inorder(8).unwrap();
        let chunking = Chunking::even(ByteSize::mib(16), 8);
        let s = tree_allreduce(
            std::slice::from_ref(&tree),
            &chunking,
            Overlap::ReductionBroadcast,
        );
        let e = Embedding::identity(&topo, &s).unwrap();
        let report = simulate(&topo, &s, &e, &SimOptions::default()).unwrap();
        let steps = ccube_collectives::verify::execute_steps(
            &s,
            ccube_collectives::verify::ChannelKeying::PerTree,
        )
        .unwrap();
        // first chunk completes first in both
        let des_first = report
            .chunk_completions()
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .unwrap()
            .0;
        let step_first = steps
            .chunk_complete_step
            .iter()
            .enumerate()
            .min_by_key(|(_, &s)| s)
            .unwrap()
            .0;
        assert_eq!(des_first, step_first);
    }

    #[test]
    fn trace_and_stats_are_populated() {
        let report = dgx1_ring_report(ByteSize::mib(8));
        let starts = report
            .trace()
            .records()
            .filter(|r| matches!(r, TraceRecord::TransferStart { .. }))
            .count();
        let ends = report
            .trace()
            .records()
            .filter(|r| matches!(r, TraceRecord::TransferEnd { .. }))
            .count();
        assert_eq!(starts, ends);
        assert!(starts > 0);
        let stats = report.stats();
        assert_eq!(stats.events_processed, starts as u64);
        assert!(stats.max_event_queue_depth > 0);
        // The ring on DGX-1 contends, so someone waited somewhere.
        assert!(report.stats().total_queue_wait() > Seconds::ZERO);
        // Busy intervals sum to the busy counters.
        for (ci, ivs) in report.channel_intervals().iter().enumerate() {
            let total = ivs
                .iter()
                .fold(Seconds::ZERO, |acc, iv| acc + iv.duration());
            let diff = (total.as_secs_f64() - report.channel_busy()[ci].as_secs_f64()).abs();
            assert!(diff < 1e-12, "channel {ci}: {total} vs busy");
        }
    }
}
