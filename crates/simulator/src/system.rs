//! Unified compute + communication co-simulation.
//!
//! The paper's scale-out study notes that ASTRA-sim "did not have ability
//! to provide detailed modeling of compute in deep learning", so
//! "overlapping compute with communication and gradient queuing could not
//! be modeled" there — the authors had to fall back to turnaround time as
//! a proxy (§V-B3). This module removes that limitation for the
//! reproduction: a [`SystemJob`] carries both the collective's transfers
//! and per-GPU **compute tasks**, with dependencies in *both* directions
//! (communication gated on backward compute, forward layers gated on
//! chunk deliveries), and [`simulate_system`] runs everything through the
//! one scheduler every entry point shares:
//!
//! * transfers behave exactly as in [`simulate`](crate::simulate) — the
//!   same [`ChannelPool`](crate::ChannelPool) arbitration, honoring
//!   [`SimOptions::arbitration`](crate::engine::SimOptions::arbitration);
//! * each GPU is one exclusive [`ComputeStream`](crate::ComputeStream)
//!   — at most one compute task runs on it at a time, in readiness order
//!   (a single compute stream, like the paper's implementation).
//!
//! Completions pop in `(time, node id, transfer-before-compute)` order.

use crate::error::SimError;
use crate::faults::FaultPlan;
use crate::report::SimStats;
use crate::sched::Run;
use crate::trace::SimTrace;
use ccube_collectives::{Embedding, Schedule, TransferId};
use ccube_topology::{GpuId, Seconds, Topology};
use std::collections::HashMap;

/// Identifier of a compute task within a [`SystemJob`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComputeTaskId(pub u32);

impl ComputeTaskId {
    /// The id as an array index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One compute task: a kernel occupying its GPU's compute stream for a
/// fixed duration, gated on other compute tasks and/or transfers.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeTask {
    /// The task's id (its index in the job's compute list).
    pub id: ComputeTaskId,
    /// The GPU whose compute stream the task occupies.
    pub gpu: GpuId,
    /// Execution time.
    pub duration: Seconds,
    /// Compute tasks that must finish first.
    pub deps_compute: Vec<ComputeTaskId>,
    /// Transfers that must finish first (e.g. the chunk deliveries a
    /// forward layer's dequeue gate waits on).
    pub deps_transfers: Vec<TransferId>,
    /// A label for reporting ("bwd", "fwd L3", ...).
    pub label: String,
}

/// A co-simulation job: a collective schedule plus compute tasks, plus
/// extra communication→compute gates.
#[derive(Debug, Clone)]
pub struct SystemJob {
    /// The communication transfers.
    pub schedule: Schedule,
    /// The compute tasks.
    pub compute: Vec<ComputeTask>,
    /// Extra dependencies: transfer `t` may not start before compute task
    /// `c` finishes (e.g. the one-shot AllReduce waits for backward).
    pub transfer_gates: Vec<(TransferId, ComputeTaskId)>,
}

/// The result of a co-simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemReport {
    /// Completion time of every transfer, by transfer id.
    pub transfer_complete: Vec<Seconds>,
    /// Completion time of every compute task, by task id.
    pub compute_complete: Vec<Seconds>,
    /// Total wall-clock time.
    pub makespan: Seconds,
    /// Per-GPU compute busy time.
    pub gpu_busy: HashMap<GpuId, Seconds>,
    /// Per-channel communication busy time, by channel id.
    pub channel_busy: Vec<Seconds>,
    /// The structured trace recorded during the run.
    pub trace: SimTrace,
    /// The run's counters.
    pub stats: SimStats,
}

impl SystemReport {
    /// Compute utilization of a GPU over the makespan.
    pub fn gpu_utilization(&self, gpu: GpuId) -> f64 {
        if self.makespan.is_zero() {
            return 0.0;
        }
        self.gpu_busy
            .get(&gpu)
            .map(|b| *b / self.makespan)
            .unwrap_or(0.0)
    }
}

/// Runs a [`SystemJob`] over a topology/embedding: the transfers
/// (resource-exclusive, arbitrated by
/// [`SimOptions::arbitration`](crate::engine::SimOptions::arbitration))
/// and the compute tasks (one exclusive compute stream per GPU) share
/// one scheduler.
///
/// # Errors
///
/// Returns the same errors as [`simulate`](crate::simulate), plus
/// [`SimError::Deadlock`] for cyclic compute/transfer gating.
pub fn simulate_system(
    topo: &Topology,
    job: &SystemJob,
    embedding: &Embedding,
    opts: &crate::engine::SimOptions,
) -> Result<SystemReport, SimError> {
    crate::faults::simulate_system_faulted(topo, job, embedding, opts, &FaultPlan::empty())
}

impl SystemReport {
    /// Shapes a scheduler run into the co-simulation report.
    pub(crate) fn from_run(run: Run) -> Self {
        SystemReport {
            transfer_complete: run.timings.iter().map(|t| t.complete).collect(),
            compute_complete: run.compute_complete,
            makespan: run.makespan,
            gpu_busy: run.gpu_busy,
            channel_busy: run.channel_busy,
            trace: run.trace,
            stats: run.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimOptions;
    use crate::trace::TraceRecord;
    use ccube_collectives::{ring_allreduce, Chunking, Embedding, Rank};
    use ccube_topology::{dgx1, ByteSize};

    fn compute_only_job(schedule: Schedule) -> SystemJob {
        SystemJob {
            schedule,
            compute: vec![],
            transfer_gates: vec![],
        }
    }

    #[test]
    fn transfers_alone_match_the_network_engine() {
        let topo = dgx1();
        let s = ring_allreduce(8, ByteSize::mib(16));
        let e = Embedding::identity(&topo, &s).unwrap();
        let net = crate::engine::simulate(&topo, &s, &e, &SimOptions::default()).unwrap();
        let sys = simulate_system(
            &topo,
            &compute_only_job(s.clone()),
            &e,
            &SimOptions::default(),
        )
        .unwrap();
        let rel = (sys.makespan.as_secs_f64() - net.makespan().as_secs_f64()).abs()
            / net.makespan().as_secs_f64();
        assert!(
            rel < 1e-9,
            "system {} vs network {}",
            sys.makespan,
            net.makespan()
        );
    }

    #[test]
    fn compute_serializes_per_gpu() {
        let topo = dgx1();
        let s = ring_allreduce(8, ByteSize::kib(64));
        let e = Embedding::identity(&topo, &s).unwrap();
        // Two independent 1 ms tasks on the same GPU must serialize; on
        // different GPUs they run concurrently.
        let mk = |id: u32, gpu: u32| ComputeTask {
            id: ComputeTaskId(id),
            gpu: ccube_topology::GpuId(gpu),
            duration: Seconds::from_millis(1.0),
            deps_compute: vec![],
            deps_transfers: vec![],
            label: format!("t{id}"),
        };
        let same = SystemJob {
            schedule: s.clone(),
            compute: vec![mk(0, 0), mk(1, 0)],
            transfer_gates: vec![],
        };
        let diff = SystemJob {
            schedule: s,
            compute: vec![mk(0, 0), mk(1, 1)],
            transfer_gates: vec![],
        };
        let r_same = simulate_system(&topo, &same, &e, &SimOptions::default()).unwrap();
        let r_diff = simulate_system(&topo, &diff, &e, &SimOptions::default()).unwrap();
        let last_same = r_same
            .compute_complete
            .iter()
            .cloned()
            .fold(Seconds::ZERO, Seconds::max);
        let last_diff = r_diff
            .compute_complete
            .iter()
            .cloned()
            .fold(Seconds::ZERO, Seconds::max);
        assert!((last_same.as_millis() - 2.0).abs() < 1e-9, "{last_same}");
        assert!((last_diff.as_millis() - 1.0).abs() < 1e-9, "{last_diff}");
    }

    #[test]
    fn transfer_gates_delay_communication() {
        let topo = dgx1();
        let s = ring_allreduce(8, ByteSize::kib(64));
        let e = Embedding::identity(&topo, &s).unwrap();
        // Gate every zero-dep transfer on a 2 ms "backward" task.
        let gates: Vec<(TransferId, ComputeTaskId)> = s
            .transfers()
            .iter()
            .filter(|t| t.deps.is_empty())
            .map(|t| (t.id, ComputeTaskId(0)))
            .collect();
        let job = SystemJob {
            schedule: s,
            compute: vec![ComputeTask {
                id: ComputeTaskId(0),
                gpu: ccube_topology::GpuId(0),
                duration: Seconds::from_millis(2.0),
                deps_compute: vec![],
                deps_transfers: vec![],
                label: "bwd".into(),
            }],
            transfer_gates: gates,
        };
        let r = simulate_system(&topo, &job, &e, &SimOptions::default()).unwrap();
        // No transfer may finish before the gate opens at 2 ms.
        assert!(r
            .transfer_complete
            .iter()
            .all(|&t| t > Seconds::from_millis(2.0)));
    }

    #[test]
    fn compute_gated_on_transfers_waits_for_them() {
        let topo = dgx1();
        let s = ring_allreduce(8, ByteSize::mib(8));
        let e = Embedding::identity(&topo, &s).unwrap();
        // A "forward layer" on rank 3 gated on every transfer delivering
        // to rank 3.
        let deps: Vec<TransferId> = s
            .transfers()
            .iter()
            .filter(|t| t.dst == Rank(3))
            .map(|t| t.id)
            .collect();
        let job = SystemJob {
            schedule: s,
            compute: vec![ComputeTask {
                id: ComputeTaskId(0),
                gpu: ccube_topology::GpuId(3),
                duration: Seconds::from_micros(10.0),
                deps_compute: vec![],
                deps_transfers: deps.clone(),
                label: "fwd".into(),
            }],
            transfer_gates: vec![],
        };
        let r = simulate_system(&topo, &job, &e, &SimOptions::default()).unwrap();
        let last_delivery = deps
            .iter()
            .map(|d| r.transfer_complete[d.index()])
            .fold(Seconds::ZERO, Seconds::max);
        assert!(r.compute_complete[0] >= last_delivery);
        assert!(r.gpu_utilization(ccube_topology::GpuId(3)) > 0.0);
    }

    #[test]
    fn cyclic_gating_is_a_deadlock() {
        let topo = dgx1();
        let s = ring_allreduce(8, ByteSize::kib(64));
        let e = Embedding::identity(&topo, &s).unwrap();
        let first = s.transfers()[0].id;
        // compute waits on the first transfer AND gates it: a cycle.
        let job = SystemJob {
            schedule: s,
            compute: vec![ComputeTask {
                id: ComputeTaskId(0),
                gpu: ccube_topology::GpuId(0),
                duration: Seconds::from_millis(1.0),
                deps_compute: vec![],
                deps_transfers: vec![first],
                label: "cyclic".into(),
            }],
            transfer_gates: vec![(first, ComputeTaskId(0))],
        };
        assert!(matches!(
            simulate_system(&topo, &job, &e, &SimOptions::default()),
            Err(SimError::Deadlock { .. })
        ));
    }

    #[test]
    fn unused_chunking_is_fine() {
        // Smoke: the job builder types compose with tree schedules too.
        use ccube_collectives::{tree_allreduce, DoubleBinaryTree, Overlap};
        let topo = dgx1();
        let dt = DoubleBinaryTree::new(8).unwrap();
        let s = tree_allreduce(
            dt.trees(),
            &Chunking::even(ByteSize::mib(8), 8),
            Overlap::ReductionBroadcast,
        );
        let e = Embedding::dgx1_double_tree(&topo, &s).unwrap();
        let r = simulate_system(&topo, &compute_only_job(s), &e, &SimOptions::default()).unwrap();
        assert!(r.makespan > Seconds::ZERO);
    }

    #[test]
    fn slowdowns_stretch_compute_on_listed_gpus_only() {
        use crate::faults::{forever, simulate_system_faulted, FaultEvent};
        let topo = dgx1();
        let s = ring_allreduce(8, ByteSize::kib(64));
        let e = Embedding::identity(&topo, &s).unwrap();
        let mk = |id: u32, gpu: u32| ComputeTask {
            id: ComputeTaskId(id),
            gpu: ccube_topology::GpuId(gpu),
            duration: Seconds::from_millis(1.0),
            deps_compute: vec![],
            deps_transfers: vec![],
            label: format!("t{id}"),
        };
        let job = SystemJob {
            schedule: s,
            compute: vec![mk(0, 0), mk(1, 1)],
            transfer_gates: vec![],
        };
        // A constant slowdown is a permanent straggler from t = 0.
        let slow = FaultPlan::new(vec![FaultEvent::Straggler {
            gpu: ccube_topology::GpuId(1),
            from: Seconds::ZERO,
            until: forever(),
            slowdown: 1.5,
        }])
        .unwrap();
        let r = simulate_system_faulted(&topo, &job, &e, &SimOptions::default(), &slow).unwrap();
        assert!((r.compute_complete[0].as_millis() - 1.0).abs() < 1e-9);
        assert!((r.compute_complete[1].as_millis() - 1.5).abs() < 1e-9);
        // The trace saw both compute tasks.
        let compute_events = r
            .trace
            .records()
            .filter(|rec| matches!(rec, TraceRecord::ComputeStart { .. }))
            .count();
        assert_eq!(compute_events, 2);
    }
}
