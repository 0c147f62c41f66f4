//! The scheduler: the one event loop behind every simulation.
//!
//! [`simulate`](crate::simulate), [`simulate_system`](crate::simulate_system),
//! [`simulate_faulted`](crate::simulate_faulted) and
//! [`simulate_system_faulted`](crate::simulate_system_faulted) are thin
//! adapters over [`run`]: a dependency scheduler over a schedule's
//! transfers plus optional compute tasks, on one resource model — the
//! ports of a [`FabricMap`], the passthrough fabric under the channel
//! approximation — under an optional fault plan.
//!
//! * **Input** is checked once, the same way in every build profile:
//!   [`PreparedLowering::new`] rejects a malformed schedule DAG and a
//!   missing or invalid route ([`SimError::Lowering`]), then the job's
//!   compute tasks and gates are checked against it
//!   ([`SimError::JobInvalid`]), before any pool or table is built.
//!   Conflicted but valid embeddings pass: the extension studies
//!   simulate them on purpose.
//! * **Transfers** are resolved once per logical edge
//!   ([`PreparedLowering`]): the run keeps the prepared routes (channel
//!   path, detour GPU, and the [`Wormhole`](ccube_collectives::Wormhole)
//!   coefficients of its port path). No per-transfer spec is built. A
//!   transfer occupies its port path in a [`ChannelPool`], whose routes
//!   are payload classes: one per distinct (logical edge, payload) pair,
//!   timed once when it is registered, so a grant reads its transfer's
//!   duration from a table. One walk over the transfers, in id order,
//!   finds each transfer's class (its edge's most recent class first),
//!   registers the transfer and counts its dependencies. The pool's
//!   8-byte task slot holds the transfer's chunk and its one route
//!   index. A fault re-route appends a prepared route and a pool route
//!   and repoints the transfer. An adaptive [`UplinkPolicy`] revises a
//!   transfer's uplink slots at the moment it becomes ready: a pool
//!   route that maps back to the prepared route it revises. Either new
//!   pool route is timed for the payload of the route it leaves.
//! * **Per-transfer results** are written once, by the pool: its timing
//!   table holds each transfer's grant and completion time and becomes
//!   the report's timings. The completion time of the transfer's chunk is
//!   written at completion, so no pass over the transfers follows the
//!   run.
//! * **Compute tasks** run on one exclusive [`ComputeStream`] per GPU.
//! * **Fault boundaries** are kernel events keyed below every completion,
//!   so a boundary at time `t` is visible to all traffic at `t`.
//!
//! Completions pop in `(time, node, sequence)` order: node ids are
//! transfer-major, and a transfer precedes the compute task of the same
//! index. A completion first unblocks its dependents, then serves the
//! resource it released.
//!
//! Every run builds its own pool, kernel and dependency tables, reserved
//! exactly for its job, so no state outlives a run; the per-node fault
//! state is allocated only when the plan has events, and the pool logs
//! busy intervals only when the run is traced.

use crate::engine::SimOptions;
use crate::error::SimError;
use crate::fabric::{choose_uplinks, uplink_busy_of, FabricMap, HopMode, UplinkPolicy};
use crate::faults::{FaultEvent, FaultPlan};
use crate::kernel::Kernel;
use crate::report::{SimStats, TransferTiming};
use crate::resource::{ChannelPool, ComputeStream};
use crate::system::{ComputeTask, ComputeTaskId};
use crate::trace::{BusyInterval, SimTrace, TraceRecord};
use ccube_collectives::{
    Embedding, LinkTiming, PreparedLowering, PreparedRoute, Schedule, TransferId,
};
use ccube_topology::{
    ByteSize, ChannelClass, ChannelId, GpuId, PortId, Router, Seconds, SwitchId, Topology,
};
use std::collections::BTreeMap;

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

    /// Checks every reference of the compute tasks and gates: dense
    /// compute ids, GPUs of `topo`, and dependencies and gates that name
    /// transfers and compute tasks the job has. The schedule itself is
    /// the lowering's to check.
    fn validate(&self, topo: &Topology) -> Result<(), SimError> {
        let (nt, nc) = (self.schedule.transfers().len(), self.compute.len());
        let invalid = |why: String| Err(SimError::JobInvalid(why));
        for (i, c) in self.compute.iter().enumerate() {
            let (id, gpu) = (c.id.0, c.gpu);
            if c.id.index() != i {
                return invalid(format!("compute task at index {i} has id {id}"));
            }
            if gpu.index() >= topo.num_gpus() {
                return invalid(format!(
                    "compute task {i} runs on {gpu}, outside the topology"
                ));
            }
            if let Some(d) = c.deps_compute.iter().find(|d| d.index() >= nc) {
                let d = d.0;
                return invalid(format!(
                    "compute task {i} waits on compute task {d} of {nc}"
                ));
            }
            if let Some(d) = c.deps_transfers.iter().find(|d| d.index() >= nt) {
                return invalid(format!("compute task {i} waits on {d}, of {nt} transfers"));
            }
        }
        let gate = self
            .gates
            .iter()
            .find(|(t, c)| t.index() >= nt || c.index() >= nc);
        match gate {
            Some((t, c)) => invalid(format!(
                "{t} of {nt} is gated on compute task {} of {nc}",
                c.0
            )),
            None => Ok(()),
        }
    }

    /// Calls `f(from, to)` for every dependency edge, as node indices
    /// (transfers first, then compute tasks at `nt + id`). The visiting
    /// order fixes the order in which a completion unblocks its
    /// dependents: transfer deps, then gates, then compute deps.
    fn for_each_edge(&self, mut f: impl FnMut(usize, u32)) {
        for t in self.schedule.transfers() {
            for d in self.schedule.deps_of(t) {
                f(d.index(), t.id.0);
            }
        }
        self.for_each_compute_edge(f);
    }

    /// Calls `f(from, to)` for every dependency edge with a compute task
    /// at one end, in [`Job::for_each_edge`]'s order: gates, then
    /// compute deps.
    fn for_each_compute_edge(&self, mut f: impl FnMut(usize, u32)) {
        let nt = self.schedule.transfers().len();
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
    /// When the last transfer of each chunk completed.
    pub(crate) chunk_complete: Vec<Seconds>,
    pub(crate) compute_complete: Vec<Seconds>,
    pub(crate) makespan: Seconds,
    pub(crate) gpu_busy: BTreeMap<GpuId, Seconds>,
    pub(crate) channel_busy: Vec<Seconds>,
    pub(crate) channel_intervals: Vec<Vec<BusyInterval>>,
    pub(crate) forwarding_busy: BTreeMap<GpuId, Seconds>,
    pub(crate) trace: SimTrace,
    pub(crate) stats: SimStats,
}

/// The reverse dependency edges of a job as one flat table (CSR): the
/// dependents of node `n` are `ids[offsets[n]..offsets[n + 1]]` — two
/// allocations instead of one per node.
struct Dependents {
    offsets: Vec<u32>,
    ids: Vec<u32>,
}

impl Dependents {
    /// The table for `job`, whose node `n` has `counts[n + 1]` dependents
    /// (`counts[0]` is 0); the counts become the offsets.
    fn new(job: &Job<'_>, counts: Vec<u32>) -> Self {
        let mut offsets = counts;
        let n = offsets.len() - 1;
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        // Fill with `offsets[from]` as the write cursor, which leaves it
        // at the start of `from + 1`; shifting right by one restores it.
        let mut ids = vec![0; offsets[n] as usize];
        job.for_each_edge(|from, to| {
            let slot = &mut offsets[from];
            ids[*slot as usize] = to;
            *slot += 1;
        });
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;
        Dependents { offsets, ids }
    }

    fn of(&self, node: usize) -> &[u32] {
        &self.ids[self.offsets[node] as usize..self.offsets[node + 1] as usize]
    }
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

/// Runs `job` under `plan`. See the module docs.
///
/// # Errors
///
/// [`SimError::FaultPlanInvalid`] for a plan that does not fit the
/// topology or network model, [`SimError::Lowering`] for an input the
/// lowering rejects, [`SimError::JobInvalid`] for compute tasks or gates
/// that do not fit the job, and [`SimError::Unroutable`] /
/// [`SimError::Deadlock`] when the queue drains with work outstanding.
pub(crate) fn run(
    topo: &Topology,
    job: &Job<'_>,
    embedding: &Embedding,
    opts: &SimOptions,
    plan: &FaultPlan,
) -> Result<Run, SimError> {
    let faulted = !plan.is_empty();
    if faulted {
        plan.validate_against(topo)?;
    }
    let routes = PreparedLowering::new(job.schedule, embedding, topo)?.into_routes();
    job.validate(topo)?;
    let fabric = FabricMap::for_options(topo, opts);
    if faulted {
        plan.validate_fabric_events(&opts.network, &fabric.graph)?;
    }
    let transfers = job.schedule.transfers();
    let nt = transfers.len();
    let nc = job.compute.len();
    let num_channels = topo.channels().len();
    let num_resources = fabric.graph.num_ports();

    // Each prepared route is retimed by the wormhole of its port path
    // (under the passthrough fabric, its channels' own). Fault events are
    // declared on the channel-level paths.
    let timing = opts.link_timing();
    let mut ports = Vec::new();
    let routes: Vec<PreparedRoute> = routes
        .into_iter()
        .map(|r| {
            let wormhole = fabric.resources(r.path(), &mut ports);
            r.with_wormhole(wormhole)
        })
        .collect();

    // One walk over the transfers, in id order: each joins the pool
    // route of its (edge, payload) class, registered and timed on the
    // class's first transfer, and counts its in-degree and one dependent
    // for each of its deps. Pool task ids follow registration order,
    // which is transfer-id order (ids are dense and equal their index),
    // so the pool's `(chunk, id)` key is the transfer's.
    //
    // The order of these allocations, and the early drops below, decide
    // where the allocator places the per-transfer tables, and so the
    // peak RSS: `ccube scaleout 1024 64` peaked at 167 MB this way and
    // at up to 178 MB in other orders (glibc, 2 vCPUs).
    let mut deps_remaining = vec![0; nt + nc];
    let mut pool = ChannelPool::new(num_resources, opts.arbitration);
    pool.reserve_tasks(nt);
    let mut counts = vec![0; nt + nc + 1];
    let mut pool_routes = Vec::with_capacity(routes.len());
    let mut classes = PayloadClasses::new(routes.len());
    for t in transfers {
        let deps = job.schedule.deps_of(t);
        deps_remaining[t.id.index()] = deps.len() as u32;
        for d in deps {
            counts[d.index() + 1] += 1;
        }
        let route = classes.route(t.edge, t.bytes, || {
            let route = &routes[t.edge as usize];
            fabric.resources(route.path(), &mut ports);
            let duration = transit_time(&fabric, route, &ports, t.bytes, &timing);
            pool_routes.push(PoolRoute {
                prepared: t.edge,
                bytes: t.bytes,
                duration,
            });
            pool.add_route(ports.iter().copied())
        });
        pool.add_task(route, t.chunk.0);
    }
    job.for_each_compute_edge(|from, to| {
        counts[from + 1] += 1;
        deps_remaining[to as usize] += 1;
    });
    // The class lookup and the port scratch only serve registration.
    drop((classes, ports));
    let dependents = Dependents::new(job, counts);
    if opts.trace_capacity > 0 {
        pool.record_intervals();
    }

    let mut streams: Vec<Option<ComputeStream>> = Vec::new();
    for c in job.compute {
        let g = c.gpu.index();
        if g >= streams.len() {
            streams.resize_with(g + 1, || None);
        }
        streams[g].get_or_insert_with(|| ComputeStream::new(1.0));
    }
    let num_streams = streams.iter().flatten().count();

    // Exclusive resources bound the in-flight completions; every fault
    // window adds at most two boundary events.
    let mut kernel = Kernel::new();
    kernel.reserve((nt + nc).min(num_resources + num_streams) + 2 * plan.len());

    let mut sched = Sched {
        topo,
        job,
        embedding,
        plan,
        timing,
        routes,
        pool_routes,
        fabric,
        pool,
        kernel,
        streams,
        // Start + end + one grant per hop is the dominant record shape.
        trace: opts.make_trace_for(nt.saturating_mul(4) + nc.saturating_mul(2) + 2 * plan.len()),
        nt,
        chunk_complete: vec![Seconds::ZERO; job.schedule.chunking().num_chunks()],
        forwarding_busy: BTreeMap::new(),
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
    let mut started = Vec::new();
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
                .serve(node as u32, now, &mut sched.trace, &mut started);
            for &s in &started {
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

    // Free the dependency tables first, so the report's vectors can take
    // their memory rather than pin the heap above them.
    drop((dependents, deps_remaining));
    Ok(sched.finish(compute_complete, makespan, num_channels))
}

/// One pool route: a port path and the payload of the transfers on it,
/// with their transit time, computed once when the route is registered.
#[derive(Debug, Clone, Copy)]
struct PoolRoute {
    /// The index into [`Sched::routes`] of the prepared route it takes.
    prepared: u32,
    bytes: ByteSize,
    /// [`transit_time`] of `bytes` over the route.
    duration: Seconds,
}

/// The pool route of each (logical edge, payload) class, found while the
/// transfers register. An edge's most recent class is checked first, and
/// only an edge whose payload changes keeps its classes in an ordered
/// map, so even an edge with a distinct payload per transfer registers
/// in O(n log n).
struct PayloadClasses {
    /// Each edge's most recent class: its payload and pool route.
    last: Vec<Option<(ByteSize, u32)>>,
    /// Every class of each edge that has carried two payloads or more.
    seen: BTreeMap<(u32, ByteSize), u32>,
}

impl PayloadClasses {
    fn new(num_edges: usize) -> Self {
        PayloadClasses {
            last: vec![None; num_edges],
            seen: BTreeMap::new(),
        }
    }

    /// The pool route of `(edge, bytes)`; `register` registers it on the
    /// class's first transfer.
    fn route(&mut self, edge: u32, bytes: ByteSize, register: impl FnOnce() -> u32) -> u32 {
        let last = &mut self.last[edge as usize];
        let route = match *last {
            Some((b, r)) if b == bytes => return r,
            None => register(),
            Some((b, r)) => {
                self.seen.entry((edge, b)).or_insert(r);
                *self.seen.entry((edge, bytes)).or_insert_with(register)
            }
        };
        *last = Some((bytes, route));
        route
    }
}

/// The transit time of `bytes` over `route` when it occupies the pool
/// path `path`: the prepared route's port wormhole (an uplink revision
/// keeps its prepared route, since slot substitution leaves the time
/// unchanged), or under store-and-forward the per-hop sum over `path`.
fn transit_time(
    fabric: &FabricMap,
    route: &PreparedRoute,
    path: &[ChannelId],
    bytes: ByteSize,
    timing: &LinkTiming,
) -> Seconds {
    match fabric.hop_mode {
        HopMode::CutThrough => route.duration(bytes, timing),
        HopMode::StoreForward => fabric.store_forward(path, bytes, route.via().is_some(), timing),
    }
}

/// The state of one run: the lowered transfers, the pool and kernel it
/// schedules them on, and what the run records.
struct Sched<'a> {
    topo: &'a Topology,
    job: &'a Job<'a>,
    embedding: &'a Embedding,
    plan: &'a FaultPlan,
    timing: LinkTiming,
    /// The prepared routes, each timed over its port path; a fault
    /// re-route appends one.
    routes: Vec<PreparedRoute>,
    /// Every pool route, by pool route index: one per payload class,
    /// then one per uplink revision (mapping back to the prepared route
    /// it revises) or fault re-route.
    pool_routes: Vec<PoolRoute>,
    /// The channel→port mapping of the run's network model.
    fabric: FabricMap,
    pool: ChannelPool,
    kernel: Kernel<Ev>,
    /// One compute stream per GPU that runs compute, indexed by GPU.
    streams: Vec<Option<ComputeStream>>,
    trace: SimTrace,
    /// Number of transfers.
    nt: usize,
    chunk_complete: Vec<Seconds>,
    forwarding_busy: BTreeMap<GpuId, Seconds>,
    /// Valid (current-generation) completion events in the kernel.
    in_flight: usize,
    /// Uplink-slot revisions: adaptive steering at grant time and fault
    /// failover.
    failovers: u64,
    faults: Option<FaultState>,
}

impl Sched<'_> {
    /// The pool route transfer `t` currently takes.
    fn pool_route(&self, t: usize) -> &PoolRoute {
        &self.pool_routes[self.pool.route(t as u32) as usize]
    }

    /// The route transfer `t` currently takes.
    fn route(&self, t: usize) -> &PreparedRoute {
        &self.routes[self.pool_route(t).prepared as usize]
    }

    /// The channel-level path of transfer `t`.
    fn path(&self, t: usize) -> &[ChannelId] {
        self.route(t).path()
    }

    /// The transit time of transfer `t` over its current route, as its
    /// pool route was timed when registered.
    fn duration(&self, t: usize) -> Seconds {
        self.pool_route(t).duration
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

    /// Starts transfer `tid` at `now`: schedules its completion
    /// (stretched by any active degradation on its path) and records the
    /// trace entry. The pool keeps the grant time for the timing.
    fn begin_transfer(&mut self, tid: u32, now: Seconds) {
        let t = tid as usize;
        let mut duration = self.duration(t);
        let mut gen = 0;
        if self.faults.is_some() {
            let eff = self.path_rate(tid);
            duration = Seconds::new(duration.as_secs_f64() / eff);
            let f = self.faults();
            f.finish_at[t] = now + duration;
            f.eff_of[t] = eff;
            gen = f.generation[t];
        }
        self.kernel
            .schedule(now + duration, transfer_key(tid), Ev::Transfer(tid, gen));
        self.in_flight += 1;
        self.trace.push(TraceRecord::TransferStart {
            id: TransferId(tid),
            at: now,
        });
    }

    fn begin_compute(&mut self, cid: u32, now: Seconds) {
        let task = &self.job.compute[cid as usize];
        let finish = now + self.stream(task.gpu).scale(task.duration);
        let me = self.nt + cid as usize;
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
        let f = &self.fabric;
        if f.policy == UplinkPolicy::Hash {
            return false;
        }
        let path = self.pool.path(tid);
        let Some((revised, port)) = choose_uplinks(&f.graph, &self.pool, path, f.policy) else {
            return false;
        };
        // A revision substitutes uplink slots and nothing else.
        debug_assert!(revised
            .iter()
            .zip(path)
            .all(|(a, b)| a == b || f.graph.port(PortId(a.0)).uplink().is_some()));
        let prepared = self.pool_route(tid as usize).prepared;
        self.repoint(tid, revised, prepared);
        self.failovers += 1;
        self.trace.push(TraceRecord::Failover {
            id: TransferId(tid),
            port,
            at: now,
        });
        true
    }

    /// Moves waiting transfer `tid` onto the pool path `path`, a new pool
    /// route whose prepared route is `prepared`, timed for the payload of
    /// the route it leaves.
    fn repoint(&mut self, tid: u32, path: Vec<ChannelId>, prepared: u32) {
        let bytes = self.pool_route(tid as usize).bytes;
        let route = &self.routes[prepared as usize];
        let duration = transit_time(&self.fabric, route, &path, bytes, &self.timing);
        self.pool.reroute(tid, path);
        self.pool_routes.push(PoolRoute {
            prepared,
            bytes,
            duration,
        });
        debug_assert_eq!(self.pool.route(tid) as usize + 1, self.pool_routes.len());
    }

    /// Records the completion of transfer `tid`: releases its resources,
    /// writes its timing and its chunk's completion, and charges detour
    /// forwarding to the intermediate GPU.
    fn finish_transfer(&mut self, tid: u32, now: Seconds) {
        let t = tid as usize;
        self.pool.complete(tid, now);
        // The clock never runs backwards: a chunk's last completion is
        // its latest.
        self.chunk_complete[self.pool.chunk(tid) as usize] = now;
        let id = TransferId(tid);
        self.trace.push(TraceRecord::TransferEnd { id, at: now });
        if let Some(via) = self.route(t).via() {
            let duration = self.duration(t);
            *self.forwarding_busy.entry(via).or_insert(Seconds::ZERO) += duration;
            self.trace.push(TraceRecord::DetourHop { id, via, at: now });
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

    /// The pool resource that carries `channel`: its endpoint port.
    fn channel_port(&self, channel: ChannelId) -> ChannelId {
        ChannelId(self.fabric.graph.port_of_channel(channel).0)
    }

    /// True if `channel` is currently down in the pool (its endpoint
    /// port is).
    fn is_channel_down(&self, channel: ChannelId) -> bool {
        self.pool.is_link_down(self.channel_port(channel))
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
        self.path(tid as usize)
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
                self.pool.set_link_down(self.channel_port(channel));
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
                let r = self.channel_port(channel);
                self.pool.set_link_up(r);
                if !self.pool.is_link_down(r) {
                    self.serve_resource(r, now);
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
    /// on a downed spine. Ports come leaf-major, slot-minor, up before
    /// down ([`FaultEvent::downed_uplinks`] order): [`Self::apply_end`]
    /// serves the repaired ports in this order.
    fn fault_ports(&self, e: &FaultEvent) -> Vec<ChannelId> {
        let g = &self.fabric.graph;
        e.downed_uplinks(g)
            .into_iter()
            .flat_map(|(leaf, slot)| {
                let sw = SwitchId(leaf);
                let (up, down) = (
                    g.uplinks_up(sw)[slot as usize],
                    g.uplinks_down(sw)[slot as usize],
                );
                [ChannelId(up.0), ChannelId(down.0)]
            })
            .collect()
    }

    /// Re-slots every waiting transfer's spine crossings onto surviving
    /// (or less-queued) uplinks. Unlike [`Self::reroute_pass`] this never
    /// changes the channel-level route — slot substitution is
    /// duration-invariant by construction, so the transfer keeps its
    /// route and its duration. A
    /// crossing with no surviving slot keeps its current one and stalls
    /// until repair; permanent total severance surfaces as
    /// [`SimError::Unroutable`] when the queue drains.
    fn failover_pass(&mut self, now: Seconds) {
        if self.fabric.policy == UplinkPolicy::Hash {
            return;
        }
        for tid in 0..self.nt as u32 {
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
        for tid in 0..self.nt as u32 {
            let t = tid as usize;
            if self.pool.is_done(tid) || self.pool.is_running(tid) {
                continue;
            }
            let path = self.path(t);
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
            let mut ports = Vec::new();
            let wormhole = self.fabric.resources(route.channels(), &mut ports);
            self.routes
                .push(PreparedRoute::of_route(&route, self.topo).with_wormhole(wormhole));
            self.repoint(tid, ports, self.routes.len() as u32 - 1);
            self.faults().reroutes_taken += 1;
            self.trace.push(TraceRecord::Reroute {
                id: TransferId(tid),
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
        for tid in 0..self.nt as u32 {
            let t = tid as usize;
            if !self.pool.is_running(tid) || !self.path(t).contains(&channel) {
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
        let nt = self.nt;
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
        for tid in 0..self.nt as u32 {
            let t = tid as usize;
            if self.pool.is_done(tid) {
                continue;
            }
            // The pool path holds every channel's port as well as the
            // uplink slots.
            if self
                .pool
                .path(tid)
                .iter()
                .any(|&r| self.pool.is_link_down(r))
            {
                return SimError::Unroutable {
                    src: self.embedding.gpu_of(transfers[t].src),
                    dst: self.embedding.gpu_of(transfers[t].dst),
                };
            }
        }
        SimError::Deadlock { remaining }
    }

    /// Assembles the run's measurements. Per-port quantities fold back to
    /// channels; the raw per-port view stays in the stats.
    fn finish(self, compute_complete: Vec<Seconds>, makespan: Seconds, num_channels: usize) -> Run {
        let mut pool = self.pool;
        let graph = &self.fabric.graph;
        let mut channel_intervals = vec![Vec::new(); num_channels];
        for (pi, iv) in pool.take_intervals().into_iter().enumerate() {
            if let Some(ch) = graph.ports()[pi].channel() {
                channel_intervals[ch.index()] = iv;
            }
        }
        let channel_busy = self.fabric.channel_values(pool.busy(), num_channels);
        let queue_wait = self.fabric.channel_values(pool.queue_wait(), num_channels);
        let uplink_busy = uplink_busy_of(graph, pool.busy());
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
            port_busy: pool.busy().to_vec(),
            failovers: self.failovers,
            uplink_busy,
        };
        Run {
            timings: pool.take_timings(),
            chunk_complete: self.chunk_complete,
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
