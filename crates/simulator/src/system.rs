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
//! chunk deliveries), and [`simulate_system`] executes everything through
//! the shared [`Kernel`]:
//!
//! * channels behave exactly as in [`simulate`](crate::simulate) — the
//!   same [`ChannelPool`] arbitration,
//!   honoring [`SimOptions::arbitration`](crate::engine::SimOptions::arbitration);
//! * each GPU is one exclusive [`ComputeStream`]
//!   — at most one compute task runs on it at a time, in readiness order
//!   (a single compute stream, like the paper's implementation).
//!
//! Event ordering matches the historical co-simulator: completions pop
//! in `(time, node id, transfer-before-compute)` order.

use crate::error::SimError;
use crate::kernel::Kernel;
use crate::report::SimStats;
use crate::resource::{ChannelPool, ComputeStream};
use crate::trace::{SimTrace, TraceRecord};
use ccube_collectives::{Embedding, Schedule, TransferId, TransferSpec};
use ccube_topology::{ChannelId, GpuId, Seconds, Topology};
use std::collections::HashMap;
use std::sync::Arc;

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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Node {
    Transfer(u32),
    Compute(u32),
}

struct SystemState<'a> {
    specs: &'a [TransferSpec],
    compute: &'a [ComputeTask],
    pool: ChannelPool,
    streams: HashMap<GpuId, ComputeStream>,
    kernel: Kernel<Node>,
    trace: SimTrace,
    ready: Vec<bool>,
}

impl SystemState<'_> {
    /// Historical event tie-break: node id major, transfers before
    /// compute at equal ids (the old `(time, id, is_compute)` tuple).
    fn event_key(node: Node) -> u64 {
        match node {
            Node::Transfer(i) => u64::from(i) << 1,
            Node::Compute(i) => (u64::from(i) << 1) | 1,
        }
    }

    fn begin_transfer(&mut self, tid: u32, now: Seconds) {
        let finish = now + self.specs[tid as usize].duration;
        self.kernel.schedule(
            finish,
            Self::event_key(Node::Transfer(tid)),
            Node::Transfer(tid),
        );
        self.trace.push(TraceRecord::TransferStart {
            id: self.specs[tid as usize].id,
            at: now,
        });
    }

    fn begin_compute(&mut self, cid: u32, now: Seconds) {
        let task = &self.compute[cid as usize];
        let scaled = self.streams[&task.gpu].scale(task.duration);
        let finish = now + scaled;
        self.kernel.schedule(
            finish,
            Self::event_key(Node::Compute(cid)),
            Node::Compute(cid),
        );
        self.trace.push(TraceRecord::ComputeStart {
            id: cid,
            gpu: task.gpu,
            at: now,
        });
    }

    fn mark_ready(&mut self, node: Node, now: Seconds, nt: usize) {
        match node {
            Node::Transfer(i) => {
                self.ready[i as usize] = true;
                if self.pool.mark_ready(i, now, &mut self.trace) {
                    self.ready[i as usize] = false;
                    self.begin_transfer(i, now);
                }
            }
            Node::Compute(i) => {
                let me = nt + i as usize;
                self.ready[me] = true;
                let gpu = self.compute[i as usize].gpu;
                let started = self
                    .streams
                    .get_mut(&gpu)
                    .expect("gpu stream exists")
                    .acquire(i);
                if started {
                    self.ready[me] = false;
                    self.begin_compute(i, now);
                }
            }
        }
    }
}

/// Runs a [`SystemJob`] over a topology/embedding: one shared kernel for
/// both the transfers (channel-exclusive, arbitrated by
/// [`SimOptions::arbitration`](crate::engine::SimOptions::arbitration)) and the compute tasks (one exclusive
/// compute stream per GPU).
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
    simulate_system_with_slowdowns(topo, job, embedding, opts, &HashMap::new())
}

/// [`simulate_system`] with per-GPU compute slowdown factors (≥ 1.0):
/// every compute task on a listed GPU runs `factor`× longer. Models the
/// forwarding-occupancy tax detour GPUs pay (Fig. 15).
///
/// # Errors
///
/// As [`simulate_system`].
///
/// # Panics
///
/// Panics if any factor is below 1.0.
pub fn simulate_system_with_slowdowns(
    topo: &Topology,
    job: &SystemJob,
    embedding: &Embedding,
    opts: &crate::engine::SimOptions,
    slowdowns: &HashMap<GpuId, f64>,
) -> Result<SystemReport, SimError> {
    let transfers = job.schedule.transfers();
    let nt = transfers.len();
    let nc = job.compute.len();
    let num_channels = topo.channels().len();

    // Same structural gate and lowering as `simulate`.
    let timing = opts.link_timing();
    let mut specs = crate::engine::gate_and_lower(topo, &job.schedule, embedding, &timing)?;

    // Under the switch-fabric model transfers occupy port paths (with
    // any uplink hops) instead of channels, and durations follow the
    // fabric's port bandwidths/latencies.
    let fabric = crate::fabric::FabricMap::for_options(topo, opts);
    let res_paths: Vec<Arc<[ChannelId]>> = match &fabric {
        Some(f) => specs
            .iter_mut()
            .map(|s| {
                s.duration = f.duration(&s.path, s.bytes, s.via.is_some(), &timing);
                f.resource_path(&s.path).into()
            })
            .collect(),
        None => specs.iter().map(|s| Arc::clone(&s.path)).collect(),
    };
    let specs: &[TransferSpec] = &specs;

    // Unified dependency counts and reverse edges over both node kinds.
    let node_count = nt + nc;
    let idx = |n: Node| -> usize {
        match n {
            Node::Transfer(i) => i as usize,
            Node::Compute(i) => nt + i as usize,
        }
    };
    let mut deps_remaining = vec![0u32; node_count];
    let mut dependents: Vec<Vec<Node>> = vec![Vec::new(); node_count];
    for t in transfers {
        deps_remaining[t.id.index()] += t.deps.len() as u32;
        for d in &t.deps {
            dependents[idx(Node::Transfer(d.0))].push(Node::Transfer(t.id.0));
        }
    }
    for (tid, cid) in &job.transfer_gates {
        deps_remaining[tid.index()] += 1;
        dependents[idx(Node::Compute(cid.0))].push(Node::Transfer(tid.0));
    }
    for c in &job.compute {
        let me = idx(Node::Compute(c.id.0));
        deps_remaining[me] += (c.deps_compute.len() + c.deps_transfers.len()) as u32;
        for d in &c.deps_compute {
            dependents[idx(Node::Compute(d.0))].push(Node::Compute(c.id.0));
        }
        for d in &c.deps_transfers {
            dependents[idx(Node::Transfer(d.0))].push(Node::Compute(c.id.0));
        }
    }

    let num_resources = fabric.as_ref().map_or(num_channels, |f| f.num_ports());
    let mut pool = ChannelPool::new(num_resources, opts.arbitration);
    pool.reserve_tasks(nt);
    for (s, path) in specs.iter().zip(res_paths) {
        pool.add_task(path, (s.chunk.0, s.id.0));
    }
    let mut streams: HashMap<GpuId, ComputeStream> = HashMap::new();
    for c in &job.compute {
        streams.entry(c.gpu).or_insert_with(|| {
            ComputeStream::with_slowdown(slowdowns.get(&c.gpu).copied().unwrap_or(1.0))
        });
    }

    // Exclusive channels plus one running compute kernel per stream
    // bound the number of in-flight completion events.
    let in_flight = (num_resources + streams.len()).min(node_count);
    let mut st = SystemState {
        specs,
        compute: &job.compute,
        pool,
        streams,
        kernel: Kernel::with_capacity(in_flight),
        trace: opts.make_trace_for(nt.saturating_mul(4) + nc.saturating_mul(2)),
        ready: vec![false; node_count],
    };

    let mut done = vec![false; node_count];
    let mut transfer_complete = vec![Seconds::ZERO; nt];
    let mut compute_complete = vec![Seconds::ZERO; nc];
    let mut remaining = node_count;

    // Seed: nodes with no dependencies are ready at t=0, transfers first
    // (the historical seeding order).
    for t in transfers {
        if deps_remaining[t.id.index()] == 0 {
            st.mark_ready(Node::Transfer(t.id.0), Seconds::ZERO, nt);
        }
    }
    for c in &job.compute {
        if deps_remaining[nt + c.id.index()] == 0 {
            st.mark_ready(Node::Compute(c.id.0), Seconds::ZERO, nt);
        }
    }

    let mut makespan = Seconds::ZERO;
    let mut started = Vec::new();
    while let Some((now, node)) = st.kernel.pop() {
        makespan = makespan.max(now);
        let me = idx(node);
        done[me] = true;
        remaining -= 1;

        // Release the resource and record the completion.
        match node {
            Node::Transfer(i) => {
                let ti = i as usize;
                transfer_complete[ti] = now;
                st.pool.complete(i, now);
                st.trace.push(TraceRecord::TransferEnd {
                    id: specs[ti].id,
                    at: now,
                });
                if let Some(via) = specs[ti].via {
                    st.trace.push(TraceRecord::DetourHop {
                        id: specs[ti].id,
                        via,
                        at: now,
                    });
                }
            }
            Node::Compute(i) => {
                let ci = i as usize;
                compute_complete[ci] = now;
                let task = &job.compute[ci];
                st.trace.push(TraceRecord::ComputeEnd {
                    id: i,
                    gpu: task.gpu,
                    at: now,
                });
            }
        }

        // Unblock dependents before serving freed resources — the
        // historical order.
        let deps = std::mem::take(&mut dependents[me]);
        for dep in deps {
            let di = idx(dep);
            deps_remaining[di] -= 1;
            if deps_remaining[di] == 0 {
                st.mark_ready(dep, now, nt);
            }
        }

        // Serve the freed resource's waiters.
        match node {
            Node::Transfer(i) => {
                started.clear();
                st.pool.serve(i, now, &mut st.trace, &mut started);
                for &s in &started {
                    st.ready[s as usize] = false;
                    st.begin_transfer(s, now);
                }
            }
            Node::Compute(i) => {
                let task = &job.compute[i as usize];
                let scaled = st.streams[&task.gpu].scale(task.duration);
                let next = st
                    .streams
                    .get_mut(&task.gpu)
                    .expect("gpu stream exists")
                    .release(scaled);
                if let Some(h) = next {
                    st.ready[nt + h as usize] = false;
                    st.begin_compute(h, now);
                }
            }
        }
    }

    if remaining > 0 {
        return Err(SimError::Deadlock { remaining });
    }

    let gpu_busy: HashMap<GpuId, Seconds> = st
        .streams
        .iter()
        .filter(|(_, s)| s.busy() > Seconds::ZERO)
        .map(|(&g, s)| (g, s.busy()))
        .collect();
    let kstats = st.kernel.stats();
    let max_stream_waiting = st
        .streams
        .values()
        .map(|s| s.max_waiting())
        .max()
        .unwrap_or(0);
    // Per-port quantities fold back to channels under the fabric model;
    // the raw per-port busy vector stays visible in the stats.
    let (channel_busy, queue_wait, port_busy) = match &fabric {
        Some(f) => (
            f.channel_values(st.pool.busy(), num_channels),
            f.channel_values(st.pool.queue_wait(), num_channels),
            st.pool.busy().to_vec(),
        ),
        None => (
            st.pool.busy().to_vec(),
            st.pool.queue_wait().to_vec(),
            Vec::new(),
        ),
    };
    let stats = SimStats {
        events_scheduled: kstats.events_scheduled,
        events_processed: kstats.events_processed,
        max_event_queue_depth: kstats.max_queue_depth,
        max_channel_queue_depth: st.pool.max_waiting().max(max_stream_waiting),
        queue_wait,
        force_starts: st.pool.force_starts(),
        port_busy,
        ..SimStats::default()
    };

    Ok(SystemReport {
        transfer_complete,
        compute_complete,
        makespan,
        gpu_busy,
        channel_busy,
        trace: st.trace,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimOptions;
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
        let mut slow = HashMap::new();
        slow.insert(ccube_topology::GpuId(1), 1.5);
        let r =
            simulate_system_with_slowdowns(&topo, &job, &e, &SimOptions::default(), &slow).unwrap();
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
