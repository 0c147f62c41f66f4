//! The scheduler: the one event loop behind every simulation.
//!
//! [`simulate`](crate::simulate), [`simulate_system`](crate::simulate_system),
//! [`simulate_faulted`](crate::simulate_faulted) and
//! [`simulate_system_faulted`](crate::simulate_system_faulted) are thin
//! adapters over [`run`]: a dependency scheduler over a schedule's
//! transfers plus optional compute tasks, on either network model, under
//! an optional fault plan.
//!
//! * **Transfers** are lowered once ([`lower_schedule`]) and occupy their
//!   resource path in a [`ChannelPool`] — the channel path under the
//!   channel approximation, the port path of the [`FabricMap`] under the
//!   switch fabric. An adaptive [`UplinkPolicy`] revises a transfer's
//!   uplink slots at the moment it becomes ready.
//! * **Compute tasks** run on one exclusive [`ComputeStream`] per GPU.
//! * **Fault boundaries** are kernel events keyed below every completion,
//!   so a boundary at time `t` is visible to all traffic at `t`.
//!
//! Completions pop in `(time, node, sequence)` order: node ids are
//! transfer-major, and a transfer precedes the compute task of the same
//! index. A completion first unblocks its dependents, then serves the
//! resource it released.
//!
//! Each thread keeps one [`SimArena`] (pool, kernel, dependency tables)
//! and drains it on every run; the per-node fault state is allocated only
//! when the plan has events.

use crate::engine::{Arbitration, SimOptions};
use crate::error::SimError;
use crate::fabric::{choose_uplinks, uplink_busy_of, FabricMap, UplinkPolicy};
use crate::faults::{FaultEvent, FaultPlan};
use crate::kernel::Kernel;
use crate::report::{SimStats, TransferTiming};
use crate::resource::{ChannelPool, ComputeStream};
use crate::system::{ComputeTask, ComputeTaskId};
use crate::trace::{BusyInterval, SimTrace, TraceRecord};
use ccube_collectives::{
    lower_schedule, Embedding, LinkTiming, LowerError, Schedule, TransferId, TransferSpec,
};
use ccube_topology::{ChannelClass, ChannelId, GpuId, PortId, Router, Seconds, SwitchId, Topology};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

/// A borrowed simulation job: the transfers of `schedule`, plus compute
/// tasks and communication gates (both empty for a pure collective).
pub(crate) struct Job<'a> {
    pub(crate) schedule: &'a Schedule,
    pub(crate) compute: &'a [ComputeTask],
    /// Transfer `t` may not start before compute task `c` finishes.
    pub(crate) gates: &'a [(TransferId, ComputeTaskId)],
}

impl<'a> Job<'a> {
    /// The communication-only job of `schedule`.
    pub(crate) fn transfers(schedule: &'a Schedule) -> Self {
        Job {
            schedule,
            compute: &[],
            gates: &[],
        }
    }

    /// Calls `f(from, to)` for every dependency edge, as node indices
    /// (transfers first, then compute tasks at `nt + id`). The visiting
    /// order fixes the order in which a completion unblocks its
    /// dependents: transfer deps, then gates, then compute deps.
    fn for_each_edge(&self, mut f: impl FnMut(usize, u32)) {
        let transfers = self.schedule.transfers();
        let nt = transfers.len();
        for t in transfers {
            for d in &t.deps {
                f(d.index(), t.id.0);
            }
        }
        for (tid, cid) in self.gates {
            f(nt + cid.index(), tid.0);
        }
        for c in self.compute {
            let me = (nt + c.id.index()) as u32;
            for d in &c.deps_compute {
                f(nt + d.index(), me);
            }
            for d in &c.deps_transfers {
                f(d.index(), me);
            }
        }
    }
}

/// Everything one run measured; the entry points shape it into a
/// [`SimReport`](crate::SimReport) or a
/// [`SystemReport`](crate::SystemReport).
pub(crate) struct Run {
    pub(crate) timings: Vec<TransferTiming>,
    pub(crate) compute_complete: Vec<Seconds>,
    pub(crate) makespan: Seconds,
    pub(crate) gpu_busy: HashMap<GpuId, Seconds>,
    pub(crate) channel_busy: Vec<Seconds>,
    pub(crate) channel_intervals: Vec<Vec<BusyInterval>>,
    pub(crate) forwarding_busy: HashMap<GpuId, Seconds>,
    pub(crate) trace: SimTrace,
    pub(crate) stats: SimStats,
}

/// Runs the analyzer's structural gate (debug builds only: malformed
/// DAG, missing or invalid routes) and lowers `schedule`.
/// Conflicted-but-valid embeddings are deliberately NOT gated: the
/// extension studies simulate them on purpose to measure the cost of the
/// conflicts.
fn gate_and_lower(
    topo: &Topology,
    schedule: &Schedule,
    embedding: &Embedding,
    timing: &LinkTiming,
) -> Result<Vec<TransferSpec>, LowerError> {
    #[cfg(debug_assertions)]
    {
        let lint = ccube_collectives::analyze::gate(schedule, embedding, topo);
        debug_assert!(
            lint.is_clean(),
            "schedule/embedding failed the static gate:\n{lint}"
        );
    }
    lower_schedule(schedule, embedding, topo, timing)
}

/// The reverse dependency edges of a job as one flat table (CSR): the
/// dependents of node `n` are `ids[offsets[n]..offsets[n + 1]]` — two
/// allocations per arena instead of one per node.
#[derive(Default)]
struct Dependents {
    offsets: Vec<u32>,
    ids: Vec<u32>,
}

impl Dependents {
    /// Rebuilds the table for `job`, reusing its capacity, and sets
    /// `deps_remaining` to every node's in-degree.
    fn rebuild(&mut self, job: &Job<'_>, deps_remaining: &mut Vec<u32>) {
        let n = job.schedule.transfers().len() + job.compute.len();
        deps_remaining.clear();
        deps_remaining.resize(n, 0);
        let offsets = &mut self.offsets;
        offsets.clear();
        offsets.resize(n + 1, 0);
        job.for_each_edge(|from, to| {
            offsets[from + 1] += 1;
            deps_remaining[to as usize] += 1;
        });
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        // Fill with `offsets[from]` as the write cursor, which leaves it
        // at the start of `from + 1`; shifting right by one restores it.
        let ids = &mut self.ids;
        ids.clear();
        ids.resize(offsets[n] as usize, 0);
        job.for_each_edge(|from, to| {
            let slot = &mut offsets[from];
            ids[*slot as usize] = to;
            *slot += 1;
        });
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;
    }

    fn of(&self, node: usize) -> &[u32] {
        &self.ids[self.offsets[node] as usize..self.offsets[node + 1] as usize]
    }
}

/// The reusable per-thread state of [`run`]: drained ([`Kernel::reset`],
/// [`ChannelPool::reset`]) and reused across runs — a sweep simulates
/// once per grid point — instead of reallocated every time. Every run
/// starts from a state identical to freshly constructed components, so
/// reuse is observationally invisible.
struct SimArena {
    pool: ChannelPool,
    kernel: Kernel<Ev>,
    deps_remaining: Vec<u32>,
    dependents: Dependents,
    started: Vec<u32>,
}

impl Default for SimArena {
    fn default() -> Self {
        SimArena {
            pool: ChannelPool::new(0, Arbitration::FifoHol),
            kernel: Kernel::new(),
            deps_remaining: Vec::new(),
            dependents: Dependents::default(),
            started: Vec::new(),
        }
    }
}

thread_local! {
    static ARENA: RefCell<SimArena> = RefCell::new(SimArena::default());
}

/// Fault events pop *before* traffic completions at equal times: their
/// tie-break keys are the plan indices, and every traffic key is offset
/// past them.
const NODE_KEYS: u64 = 1 << 32;

#[derive(Debug, Clone, Copy)]
enum Ev {
    FaultStart(u32),
    FaultEnd(u32),
    /// Transfer completion `(id, generation)` — stale generations are
    /// rescheduled completions and get ignored.
    Transfer(u32, u32),
    /// Compute completion `(id, generation)`.
    Compute(u32, u32),
}

fn transfer_key(tid: u32) -> u64 {
    NODE_KEYS + (u64::from(tid) << 1)
}

fn compute_key(cid: u32) -> u64 {
    NODE_KEYS + ((u64::from(cid) << 1) | 1)
}

/// Per-run state that only a non-empty fault plan needs.
struct FaultState {
    /// Per-node (transfers then compute) completion-event generation;
    /// rescheduling a completion bumps it, orphaning the stale event.
    generation: Vec<u32>,
    /// Scheduled finish time per node, for boundary rescaling.
    finish_at: Vec<Seconds>,
    /// Effective bandwidth rate each running transfer was scheduled at.
    eff_of: Vec<f64>,
    /// Which plan events are currently active.
    active: Vec<bool>,
    /// Start time of each compute task, for occupancy accounting under
    /// changing slowdowns.
    compute_start: Vec<Seconds>,
    compute_running: Vec<bool>,
    faults_injected: u64,
    reroutes_taken: u64,
}

impl FaultState {
    fn new(nt: usize, nc: usize, events: usize) -> Self {
        FaultState {
            generation: vec![0; nt + nc],
            finish_at: vec![Seconds::ZERO; nt + nc],
            eff_of: vec![1.0; nt],
            active: vec![false; events],
            compute_start: vec![Seconds::ZERO; nc],
            compute_running: vec![false; nc],
            faults_injected: 0,
            reroutes_taken: 0,
        }
    }
}

/// Runs `job` under `plan` on the thread's arena. See the module docs.
///
/// # Errors
///
/// [`SimError::FaultPlanInvalid`] for a plan that does not fit the
/// topology or network model, the lowering errors, and
/// [`SimError::Unroutable`] / [`SimError::Deadlock`] when the queue
/// drains with work outstanding.
pub(crate) fn run(
    topo: &Topology,
    job: &Job<'_>,
    embedding: &Embedding,
    opts: &SimOptions,
    plan: &FaultPlan,
) -> Result<Run, SimError> {
    ARENA.with(|arena| run_in(topo, job, embedding, opts, plan, &mut arena.borrow_mut()))
}

fn run_in(
    topo: &Topology,
    job: &Job<'_>,
    embedding: &Embedding,
    opts: &SimOptions,
    plan: &FaultPlan,
    arena: &mut SimArena,
) -> Result<Run, SimError> {
    let faulted = !plan.is_empty();
    if faulted {
        plan.validate_against(topo)?;
    }
    let timing = opts.link_timing();
    let mut specs = gate_and_lower(topo, job.schedule, embedding, &timing)?;
    let fabric = FabricMap::for_options(topo, opts);
    if faulted {
        plan.validate_fabric_events(fabric.as_ref().map(|f| &f.graph))?;
    }
    // Debug builds cross-check the physical analyzer's hard gate: a
    // schedule/embedding that lowers cleanly must also have a port path
    // for every channel it uses.
    #[cfg(debug_assertions)]
    if let Some(f) = &fabric {
        let gate = ccube_collectives::gate_physical(job.schedule, embedding, topo, &f.graph);
        debug_assert!(
            gate.is_clean(),
            "schedule/embedding failed the physical gate:\n{gate}"
        );
    }

    let nt = specs.len();
    let nc = job.compute.len();
    let num_channels = topo.channels().len();
    let num_resources = fabric.as_ref().map_or(num_channels, |f| f.num_ports());

    let SimArena {
        pool,
        kernel,
        deps_remaining,
        dependents,
        started,
    } = arena;
    dependents.rebuild(job, deps_remaining);

    // Under the switch fabric the pool schedules port paths and durations
    // follow the ports; specs keep their channel-level paths, on which
    // fault events are declared.
    pool.reset(num_resources, opts.arbitration);
    pool.reserve_tasks(nt);
    match &fabric {
        Some(f) => {
            for s in &mut specs {
                let route = f.graph.port_route(&s.path);
                s.duration = f.duration_on(&route, s.bytes, s.via.is_some(), &timing);
                let path: Arc<[ChannelId]> = route.iter().map(|p| ChannelId(p.0)).collect();
                pool.add_task(path, (s.chunk.0, s.id.0));
            }
        }
        None => {
            for s in &specs {
                pool.add_task(Arc::clone(&s.path), (s.chunk.0, s.id.0));
            }
        }
    }

    let mut streams: Vec<Option<ComputeStream>> = Vec::new();
    for c in job.compute {
        let g = c.gpu.index();
        if g >= streams.len() {
            streams.resize_with(g + 1, || None);
        }
        streams[g].get_or_insert_with(ComputeStream::new);
    }
    let num_streams = streams.iter().flatten().count();

    // Exclusive resources bound the in-flight completions; every fault
    // window adds at most two boundary events.
    kernel.reset(0);
    kernel.reserve((nt + nc).min(num_resources + num_streams) + 2 * plan.len());

    let mut sched = Sched {
        topo,
        job,
        embedding,
        opts,
        plan,
        specs,
        switch_queue_depth: fabric
            .as_ref()
            .map_or_else(Vec::new, |f| vec![0; f.graph.num_switches()]),
        fabric,
        pool,
        kernel,
        streams,
        // Start + end + one grant per hop is the dominant record shape.
        trace: opts.make_trace_for(nt.saturating_mul(4) + nc.saturating_mul(2) + 2 * plan.len()),
        timings: vec![
            TransferTiming {
                start: Seconds::ZERO,
                complete: Seconds::ZERO,
            };
            nt
        ],
        forwarding_busy: HashMap::new(),
        in_flight: 0,
        failovers: 0,
        faults: faulted.then(|| FaultState::new(nt, nc, plan.len())),
    };

    // Faults active from t = 0 apply BEFORE seeding, so no transfer can
    // start on (or keep a path through) an initially-down channel.
    for (i, e) in plan.events().iter().enumerate() {
        let key = i as u64;
        if e.from() == Seconds::ZERO {
            sched.apply_start(i as u32, Seconds::ZERO);
        } else {
            sched
                .kernel
                .schedule(e.from(), key, Ev::FaultStart(i as u32));
        }
        if !e.is_permanent() {
            sched
                .kernel
                .schedule(e.until(), key, Ev::FaultEnd(i as u32));
        }
    }

    // Seed: dependency-free nodes are ready at t = 0, transfers first.
    for tid in 0..nt as u32 {
        if deps_remaining[tid as usize] == 0 {
            sched.ready_transfer(tid, Seconds::ZERO);
        }
    }
    for c in job.compute {
        if deps_remaining[nt + c.id.index()] == 0 {
            sched.ready_compute(c.id.0, Seconds::ZERO);
        }
    }

    let mut compute_complete = vec![Seconds::ZERO; nc];
    let mut remaining = nt + nc;
    let mut makespan = Seconds::ZERO;
    while remaining > 0 {
        if sched.in_flight == 0 {
            // Nothing in flight: chunk-priority reservations can starve
            // each other in a cycle — break the stall by force-starting
            // the best startable ready transfer — or all traffic is
            // waiting out a link-down (advance to the boundary).
            let now = sched.kernel.now();
            if let Some(t) = sched.pool.force_start(now, &mut sched.trace) {
                sched.begin_transfer(t, now);
                continue;
            }
        }
        let Some((now, ev)) = sched.kernel.pop() else {
            return Err(sched.drained_error(remaining));
        };
        let node = match ev {
            Ev::FaultStart(e) => {
                sched.apply_start(e, now);
                continue;
            }
            Ev::FaultEnd(e) => {
                sched.apply_end(e, now);
                continue;
            }
            Ev::Transfer(i, gen) => {
                if sched.is_stale(i as usize, gen) {
                    continue; // rescheduled; a current-gen event exists
                }
                i as usize
            }
            Ev::Compute(i, gen) => {
                if sched.is_stale(nt + i as usize, gen) {
                    continue;
                }
                nt + i as usize
            }
        };
        sched.in_flight -= 1;
        remaining -= 1;
        makespan = makespan.max(now);

        // Release the resource and record the completion.
        if node < nt {
            sched.finish_transfer(node as u32, now);
        } else {
            let ci = node - nt;
            compute_complete[ci] = now;
            if let Some(f) = &mut sched.faults {
                f.compute_running[ci] = false;
            }
            sched.trace.push(TraceRecord::ComputeEnd {
                id: ci as u32,
                gpu: job.compute[ci].gpu,
                at: now,
            });
        }

        // Unblock dependents before serving the freed resource — which
        // lets a dependent claim a channel its own predecessor just
        // released ahead of the waiter queue.
        for &dep in dependents.of(node) {
            let d = dep as usize;
            deps_remaining[d] -= 1;
            if deps_remaining[d] == 0 {
                if d < nt {
                    sched.ready_transfer(dep, now);
                } else {
                    sched.ready_compute((d - nt) as u32, now);
                }
            }
        }

        // Serve the freed resource's waiters.
        if node < nt {
            started.clear();
            sched
                .pool
                .serve(node as u32, now, &mut sched.trace, started);
            for &s in started.iter() {
                sched.begin_transfer(s, now);
            }
        } else {
            let ci = node - nt;
            let task = &job.compute[ci];
            let occupancy = match &sched.faults {
                Some(f) => now - f.compute_start[ci],
                None => sched.stream(task.gpu).scale(task.duration),
            };
            if let Some(h) = sched.stream_mut(task.gpu).release(occupancy) {
                sched.begin_compute(h, now);
            }
        }
    }

    Ok(sched.finish(compute_complete, makespan, num_channels))
}

/// The state of one run: the lowered transfers, the arena's pool and
/// kernel, and what the run records.
struct Sched<'a> {
    topo: &'a Topology,
    job: &'a Job<'a>,
    embedding: &'a Embedding,
    opts: &'a SimOptions,
    plan: &'a FaultPlan,
    /// Lowered transfers; a fault re-route rewrites a spec's channel path
    /// and duration in place.
    specs: Vec<TransferSpec>,
    /// Channel→port mapping under the switch-fabric network model.
    fabric: Option<FabricMap>,
    pool: &'a mut ChannelPool,
    kernel: &'a mut Kernel<Ev>,
    /// One compute stream per GPU that runs compute, indexed by GPU.
    streams: Vec<Option<ComputeStream>>,
    trace: SimTrace,
    timings: Vec<TransferTiming>,
    forwarding_busy: HashMap<GpuId, Seconds>,
    /// Valid (current-generation) completion events in the kernel.
    in_flight: usize,
    /// Uplink-slot revisions: adaptive steering at grant time and fault
    /// failover.
    failovers: u64,
    /// Per-switch high-water mark of port waiter-queue depth (fabric
    /// runs only).
    switch_queue_depth: Vec<usize>,
    faults: Option<FaultState>,
}

impl Sched<'_> {
    fn nt(&self) -> usize {
        self.specs.len()
    }

    fn faults(&mut self) -> &mut FaultState {
        self.faults
            .as_mut()
            .expect("fault events only exist under a non-empty plan")
    }

    fn is_stale(&self, node: usize, gen: u32) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.generation[node] != gen)
    }

    fn stream(&self, gpu: GpuId) -> &ComputeStream {
        self.streams[gpu.index()]
            .as_ref()
            .expect("gpu stream exists")
    }

    fn stream_mut(&mut self, gpu: GpuId) -> &mut ComputeStream {
        self.streams[gpu.index()]
            .as_mut()
            .expect("gpu stream exists")
    }

    /// Starts transfer `tid` at `now`: stamps its timing, schedules its
    /// completion (stretched by any active degradation on its path) and
    /// records the trace entry.
    fn begin_transfer(&mut self, tid: u32, now: Seconds) {
        let t = tid as usize;
        let mut duration = self.specs[t].duration;
        let mut gen = 0;
        if self.faults.is_some() {
            let eff = self.path_rate(tid);
            duration = Seconds::new(duration.as_secs_f64() / eff);
            let f = self.faults();
            f.finish_at[t] = now + duration;
            f.eff_of[t] = eff;
            gen = f.generation[t];
        }
        self.timings[t].start = now;
        self.kernel
            .schedule(now + duration, transfer_key(tid), Ev::Transfer(tid, gen));
        self.in_flight += 1;
        self.trace.push(TraceRecord::TransferStart {
            id: self.specs[t].id,
            at: now,
        });
    }

    fn begin_compute(&mut self, cid: u32, now: Seconds) {
        let task = &self.job.compute[cid as usize];
        let finish = now + self.stream(task.gpu).scale(task.duration);
        let me = self.nt() + cid as usize;
        let mut gen = 0;
        if let Some(f) = &mut self.faults {
            f.finish_at[me] = finish;
            f.compute_start[cid as usize] = now;
            f.compute_running[cid as usize] = true;
            gen = f.generation[me];
        }
        self.kernel
            .schedule(finish, compute_key(cid), Ev::Compute(cid, gen));
        self.in_flight += 1;
        self.trace.push(TraceRecord::ComputeStart {
            id: cid,
            gpu: task.gpu,
            at: now,
        });
    }

    /// Declares transfer `tid`'s dependencies satisfied: revises its
    /// uplink slots under an adaptive policy (the grant-time choice from
    /// live queue depths), then starts it or leaves it queued.
    fn ready_transfer(&mut self, tid: u32, now: Seconds) {
        self.revise_uplinks(tid, now);
        if self.pool.mark_ready(tid, now, &mut self.trace) {
            self.begin_transfer(tid, now);
        } else {
            self.note_queue_depth(tid);
        }
    }

    fn ready_compute(&mut self, cid: u32, now: Seconds) {
        let gpu = self.job.compute[cid as usize].gpu;
        if self.stream_mut(gpu).acquire(cid) {
            self.begin_compute(cid, now);
        }
    }

    /// Moves a waiting transfer's spine crossings to the slots the
    /// fabric's [`UplinkPolicy`] prefers right now. Returns whether the
    /// path changed.
    fn revise_uplinks(&mut self, tid: u32, now: Seconds) -> bool {
        let Some(f) = &self.fabric else {
            return false;
        };
        let Some((revised, port)) =
            choose_uplinks(&f.graph, self.pool, self.pool.path(tid), f.policy)
        else {
            return false;
        };
        self.pool.reroute(tid, revised);
        self.failovers += 1;
        self.trace.push(TraceRecord::Failover {
            id: self.specs[tid as usize].id,
            port,
            at: now,
        });
        true
    }

    /// Samples the waiter-queue depth of `tid`'s ports into the
    /// per-switch high-water marks (fabric runs only).
    fn note_queue_depth(&mut self, tid: u32) {
        let Some(f) = &self.fabric else { return };
        for &port in self.pool.path(tid) {
            let depth = self.pool.waiting_on(port);
            let s = f.graph.port(PortId(port.0)).switch().0 as usize;
            let high = &mut self.switch_queue_depth[s];
            *high = (*high).max(depth);
        }
    }

    /// Records the completion of transfer `tid`: releases its resources
    /// and charges detour forwarding to the intermediate GPU.
    fn finish_transfer(&mut self, tid: u32, now: Seconds) {
        let t = tid as usize;
        self.timings[t].complete = now;
        self.pool.complete(tid, now);
        let spec = &self.specs[t];
        self.trace.push(TraceRecord::TransferEnd {
            id: spec.id,
            at: now,
        });
        if let Some(via) = spec.via {
            *self.forwarding_busy.entry(via).or_insert(Seconds::ZERO) += spec.duration;
            self.trace.push(TraceRecord::DetourHop {
                id: spec.id,
                via,
                at: now,
            });
        }
    }

    /// Starts every waiter of resource `r` the policy admits.
    fn serve_resource(&mut self, r: ChannelId, now: Seconds) {
        let mut started = Vec::new();
        self.pool
            .serve_channel(r, now, &mut self.trace, &mut started);
        for s in started {
            self.begin_transfer(s, now);
        }
    }

    /// The pool resources a channel-level path occupies (identity under
    /// the channel approximation, the port path under the fabric).
    fn res_path(&self, channels: &[ChannelId]) -> Vec<ChannelId> {
        match &self.fabric {
            Some(f) => f.resource_path(channels),
            None => channels.to_vec(),
        }
    }

    /// True if `channel` is currently down in the pool (its endpoint
    /// ports, under the fabric).
    fn is_channel_down(&self, channel: ChannelId) -> bool {
        match &self.fabric {
            Some(f) => f
                .graph
                .ports_for_channel(channel)
                .iter()
                .any(|p| self.pool.is_link_down(ChannelId(p.0))),
            None => self.pool.is_link_down(channel),
        }
    }

    /// Product of the active degradation rates on `channel`.
    fn channel_rate(&self, channel: ChannelId) -> f64 {
        let active = &self.faults.as_ref().expect("fault state").active;
        let mut rate = 1.0;
        for (i, e) in self.plan.events().iter().enumerate() {
            if let FaultEvent::Degraded {
                channel: c,
                rate: r,
                ..
            } = *e
            {
                if active[i] && c == channel {
                    rate *= r;
                }
            }
        }
        rate
    }

    /// Effective rate of a transfer: its bottleneck degradation.
    fn path_rate(&self, tid: u32) -> f64 {
        self.specs[tid as usize]
            .path
            .iter()
            .map(|&c| self.channel_rate(c))
            .fold(1.0, f64::min)
    }

    /// Product of the active straggler slowdowns on `gpu`.
    fn gpu_slowdown(&self, gpu: GpuId) -> f64 {
        let active = &self.faults.as_ref().expect("fault state").active;
        let mut slowdown = 1.0;
        for (i, e) in self.plan.events().iter().enumerate() {
            if let FaultEvent::Straggler {
                gpu: g,
                slowdown: s,
                ..
            } = *e
            {
                if active[i] && g == gpu {
                    slowdown *= s;
                }
            }
        }
        slowdown
    }

    /// Activates plan event `e` at `now`.
    fn apply_start(&mut self, e: u32, now: Seconds) {
        let f = self.faults();
        f.active[e as usize] = true;
        f.faults_injected += 1;
        self.trace
            .push(TraceRecord::FaultStart { fault: e, at: now });
        match self.plan.events()[e as usize] {
            FaultEvent::LinkDown { channel, .. } => {
                for r in self.res_path(&[channel]) {
                    self.pool.set_link_down(r);
                }
                self.reroute_pass(now);
            }
            FaultEvent::Degraded { channel, .. } => self.rescale_channel(channel, now),
            FaultEvent::Straggler { gpu, .. } => self.rescale_gpu(gpu, now),
            ev @ (FaultEvent::UplinkDown { .. } | FaultEvent::SwitchDown { .. }) => {
                for r in self.fault_ports(&ev) {
                    self.pool.set_link_down(r);
                }
                // Downed ports drain their in-flight wormholes (the
                // completion events stay scheduled); queued port paths
                // fail over to surviving uplinks right away.
                self.failover_pass(now);
            }
        }
    }

    /// Lifts plan event `e` at `now`.
    fn apply_end(&mut self, e: u32, now: Seconds) {
        self.faults().active[e as usize] = false;
        self.trace.push(TraceRecord::FaultEnd { fault: e, at: now });
        match self.plan.events()[e as usize] {
            FaultEvent::LinkDown { channel, .. } => {
                for r in self.res_path(&[channel]) {
                    self.pool.set_link_up(r);
                    if !self.pool.is_link_down(r) {
                        self.serve_resource(r, now);
                    }
                }
            }
            FaultEvent::Degraded { channel, .. } => self.rescale_channel(channel, now),
            FaultEvent::Straggler { gpu, .. } => self.rescale_gpu(gpu, now),
            ev @ (FaultEvent::UplinkDown { .. } | FaultEvent::SwitchDown { .. }) => {
                let ports = self.fault_ports(&ev);
                for &r in &ports {
                    self.pool.set_link_up(r);
                }
                // Transfers stranded on a slot that is STILL down (they
                // had no survivor to fail over to) revise onto the
                // repaired one before its waiter queues are served.
                self.failover_pass(now);
                for r in ports {
                    if !self.pool.is_link_down(r) {
                        self.serve_resource(r, now);
                    }
                }
            }
        }
    }

    /// The pool port resources a fabric-native fault event downs: both
    /// legs of the uplink crossing (a transfer that cannot reach the
    /// spine cannot come back down it either), or every crossing homed
    /// on a downed spine.
    fn fault_ports(&self, e: &FaultEvent) -> Vec<ChannelId> {
        let Some(f) = &self.fabric else {
            return Vec::new(); // validated away under ChannelApprox
        };
        let g = &f.graph;
        match *e {
            FaultEvent::UplinkDown { leaf, uplink, .. } => {
                let sw = SwitchId(leaf);
                let up = g.uplinks_up(sw)[uplink as usize];
                let down = g.uplinks_down(sw)[uplink as usize];
                vec![ChannelId(up.0), ChannelId(down.0)]
            }
            FaultEvent::SwitchDown { spine, .. } => {
                let mut out = Vec::new();
                for leaf in 0..g.num_switches() {
                    let sw = SwitchId(leaf as u32);
                    for (slot, (&u, &d)) in
                        g.uplinks_up(sw).iter().zip(g.uplinks_down(sw)).enumerate()
                    {
                        if g.spine_of_uplink(slot as u32) == spine {
                            out.push(ChannelId(u.0));
                            out.push(ChannelId(d.0));
                        }
                    }
                }
                out
            }
            _ => Vec::new(),
        }
    }

    /// Re-slots every waiting transfer's spine crossings onto surviving
    /// (or less-queued) uplinks. Unlike [`Self::reroute_pass`] this never
    /// changes the channel-level route — slot substitution is
    /// duration-invariant by construction, so specs stay untouched. A
    /// crossing with no surviving slot keeps its current one and stalls
    /// until repair; permanent total severance surfaces as
    /// [`SimError::Unroutable`] when the queue drains.
    fn failover_pass(&mut self, now: Seconds) {
        if self
            .fabric
            .as_ref()
            .is_none_or(|f| f.policy == UplinkPolicy::Hash)
        {
            return;
        }
        for tid in 0..self.nt() as u32 {
            if self.pool.is_done(tid) || self.pool.is_running(tid) {
                continue;
            }
            if self.revise_uplinks(tid, now) && self.pool.poke(tid, now, &mut self.trace) {
                self.begin_transfer(tid, now);
            }
        }
    }

    /// Re-routes every waiting transfer whose path crosses a down
    /// channel onto the best surviving route, if one exists. Routes are
    /// chosen statically for the fault epoch — one `Router` per pass,
    /// allocating in transfer-id order, load-balances the pass exactly
    /// like schedule-construction-time routing would have. A transfer
    /// with no surviving route keeps its old path and waits for the
    /// link to return.
    ///
    /// NIC paths (scale-out injection/ejection pairs) are structural,
    /// not `Router`-resolved, so they are never re-routed: a downed NIC
    /// stalls its endpoint until repair, and a permanently-downed NIC
    /// makes the run [`SimError::Unroutable`].
    fn reroute_pass(&mut self, now: Seconds) {
        let mut router = Router::new(self.topo);
        for ch in self.topo.channels() {
            if self.is_channel_down(ch.id()) {
                router.block_channel(ch.id());
            }
        }
        let transfers = self.job.schedule.transfers();
        for tid in 0..self.nt() as u32 {
            let t = tid as usize;
            if self.pool.is_done(tid) || self.pool.is_running(tid) {
                continue;
            }
            let path = &self.specs[t].path;
            if !path.iter().any(|&c| self.is_channel_down(c)) {
                continue;
            }
            if path
                .iter()
                .any(|&c| self.topo.channel(c).class() == ChannelClass::Nic)
            {
                continue; // NIC paths wait for repair instead
            }
            let src = self.embedding.gpu_of(transfers[t].src);
            let dst = self.embedding.gpu_of(transfers[t].dst);
            let Ok(route) = router.allocate(src, dst) else {
                continue; // no surviving route: wait for the link
            };
            // Mirror lower_schedule's duration model on the new path.
            let timing = self.opts.link_timing();
            let bytes = transfers[t].bytes;
            let duration = match &self.fabric {
                Some(f) => f.duration(route.channels(), bytes, route.is_detour(), &timing),
                None => {
                    let mut alpha = Seconds::ZERO;
                    let mut bottleneck = f64::INFINITY;
                    for &c in route.channels() {
                        let ch = self.topo.channel(c);
                        alpha += ch.latency();
                        bottleneck = bottleneck.min(ch.bandwidth().as_bytes_per_sec());
                    }
                    if route.is_detour() {
                        alpha += timing.forwarding_latency;
                    }
                    alpha + Seconds::new(bytes.as_f64() / (bottleneck * timing.bandwidth_scale))
                }
            };
            let spec = &mut self.specs[t];
            spec.path = route.channels().into();
            spec.via = route.via();
            spec.duration = duration;
            let res_path = self.res_path(&self.specs[t].path);
            self.pool.reroute(tid, res_path);
            self.faults().reroutes_taken += 1;
            self.trace.push(TraceRecord::Reroute {
                id: self.specs[t].id,
                at: now,
            });
            if self.pool.poke(tid, now, &mut self.trace) {
                self.begin_transfer(tid, now);
            }
        }
    }

    /// Rescales in-flight transfers crossing `channel` after its
    /// degradation changed: remaining work finishes at the new rate.
    fn rescale_channel(&mut self, channel: ChannelId, now: Seconds) {
        for tid in 0..self.nt() as u32 {
            let t = tid as usize;
            if !self.pool.is_running(tid) || !self.specs[t].path.contains(&channel) {
                continue;
            }
            let eff_new = self.path_rate(tid);
            let f = self.faults();
            let eff_old = f.eff_of[t];
            if eff_new == eff_old {
                continue;
            }
            let finish = now + (f.finish_at[t] - now) * (eff_old / eff_new);
            f.generation[t] += 1;
            f.finish_at[t] = finish;
            f.eff_of[t] = eff_new;
            let gen = f.generation[t];
            self.kernel
                .schedule(finish, transfer_key(tid), Ev::Transfer(tid, gen));
        }
    }

    /// Rescales in-flight compute on `gpu` after its straggler factor
    /// changed, and re-sets the stream's slowdown for future tasks.
    fn rescale_gpu(&mut self, gpu: GpuId, now: Seconds) {
        let sd_new = self.gpu_slowdown(gpu);
        let Some(Some(stream)) = self.streams.get_mut(gpu.index()) else {
            return; // no compute tasks ever run there
        };
        let sd_old = stream.slowdown();
        if sd_new == sd_old {
            return;
        }
        stream.set_slowdown(sd_new);
        let nt = self.nt();
        for (cid, task) in self.job.compute.iter().enumerate() {
            let f = self.faults.as_mut().expect("fault state");
            if !f.compute_running[cid] || task.gpu != gpu {
                continue;
            }
            let me = nt + cid;
            let finish = now + (f.finish_at[me] - now) * (sd_new / sd_old);
            f.generation[me] += 1;
            f.finish_at[me] = finish;
            let gen = f.generation[me];
            self.kernel.schedule(
                finish,
                compute_key(cid as u32),
                Ev::Compute(cid as u32, gen),
            );
        }
    }

    /// The terminal error when the event queue drained with nodes
    /// outstanding: [`SimError::Unroutable`] if some unfinished transfer
    /// is stuck behind a (necessarily permanent, by now) link-down,
    /// otherwise a plain deadlock.
    fn drained_error(&self, remaining: usize) -> SimError {
        let transfers = self.job.schedule.transfers();
        for tid in 0..self.nt() as u32 {
            let t = tid as usize;
            if self.pool.is_done(tid) {
                continue;
            }
            let stuck = self.specs[t].path.iter().any(|&c| self.is_channel_down(c))
                || (self.fabric.is_some()
                    && self
                        .pool
                        .path(tid)
                        .iter()
                        .any(|&r| self.pool.is_link_down(r)));
            if stuck {
                return SimError::Unroutable {
                    src: self.embedding.gpu_of(transfers[t].src),
                    dst: self.embedding.gpu_of(transfers[t].dst),
                };
            }
        }
        SimError::Deadlock { remaining }
    }

    /// Assembles the run's measurements. Per-port quantities fold back to
    /// channels under the fabric model; the raw per-port view stays in
    /// the stats.
    fn finish(self, compute_complete: Vec<Seconds>, makespan: Seconds, num_channels: usize) -> Run {
        let pool = self.pool;
        let (channel_busy, queue_wait, port_busy, uplink_busy, channel_intervals) =
            match &self.fabric {
                Some(f) => {
                    let mut intervals = vec![Vec::new(); num_channels];
                    for (pi, iv) in pool.take_intervals().into_iter().enumerate() {
                        if let Some(ch) = f.graph.ports()[pi].channel() {
                            intervals[ch.index()] = iv;
                        }
                    }
                    (
                        f.channel_values(pool.busy(), num_channels),
                        f.channel_values(pool.queue_wait(), num_channels),
                        pool.busy().to_vec(),
                        uplink_busy_of(&f.graph, pool.busy()),
                        intervals,
                    )
                }
                None => (
                    pool.busy().to_vec(),
                    pool.queue_wait().to_vec(),
                    Vec::new(),
                    Vec::new(),
                    pool.take_intervals(),
                ),
            };
        let (channel_downtime, time_degraded) = if self.plan.is_empty() {
            (Vec::new(), Seconds::ZERO)
        } else {
            self.plan.downtime(makespan, num_channels)
        };
        let (faults_injected, reroutes_taken) = self
            .faults
            .as_ref()
            .map_or((0, 0), |f| (f.faults_injected, f.reroutes_taken));
        let max_stream_waiting = self
            .streams
            .iter()
            .flatten()
            .map(|s| s.max_waiting())
            .max()
            .unwrap_or(0);
        let gpu_busy = self
            .streams
            .iter()
            .enumerate()
            .filter_map(|(g, s)| {
                let busy = s.as_ref()?.busy();
                (busy > Seconds::ZERO).then_some((GpuId(g as u32), busy))
            })
            .collect();
        let kstats = self.kernel.stats();
        let stats = SimStats {
            events_scheduled: kstats.events_scheduled,
            events_processed: kstats.events_processed,
            max_event_queue_depth: kstats.max_queue_depth,
            max_channel_queue_depth: pool.max_waiting().max(max_stream_waiting),
            queue_wait,
            force_starts: pool.force_starts(),
            faults_injected,
            reroutes_taken,
            time_degraded,
            channel_downtime,
            port_busy,
            switch_queue_depth: self.switch_queue_depth,
            failovers: self.failovers,
            uplink_busy,
        };
        Run {
            timings: self.timings,
            compute_complete,
            makespan,
            gpu_busy,
            channel_busy,
            channel_intervals,
            forwarding_busy: self.forwarding_busy,
            trace: self.trace,
            stats,
        }
    }
}
