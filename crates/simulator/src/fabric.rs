//! The componentized switch-fabric network model.
//!
//! The historical engines approximate the scale-out interconnect as
//! plain channels in a [`ChannelPool`] — an ideal, non-blocking switch.
//! This module adds the explicit alternative: a [`NetworkModel`] selects
//! between that approximation ([`NetworkModel::ChannelApprox`], the
//! default, bit-identical to the historical behavior) and
//! [`NetworkModel::SwitchFabric`], which schedules transfers on the
//! port-level [`FabricGraph`] derived from the topology: explicit
//! `NicAgent` and `SwitchAgent` components on the
//! [`Simulation`] layer, per-port queues with
//! the same FIFO / chunk-priority arbitration, configurable leaf radix
//! and uplink oversubscription, and per-hop cut-through or
//! store-and-forward latency.
//!
//! **Equivalence contract**: under a passthrough fabric (no leaf split,
//! zero uplink latency, [`HopMode::CutThrough`]) every channel maps to
//! exactly one port with the channel's own bandwidth and latency, the
//! fabric engine performs the same pool operations in the same kernel
//! order as the channel engine, and the results agree with
//! [`simulate`](crate::simulate) to floating-point noise (well within
//! the 1e-9 the cross-model tests assert).

use crate::engine::SimOptions;
use crate::error::SimError;
use crate::kernel::{Component, ComponentId, Ctx, Simulation};
use crate::report::{SimReport, SimStats, TransferTiming};
use crate::resource::ChannelPool;
use crate::trace::{BusyInterval, SimTrace, TraceRecord};
use ccube_collectives::{Embedding, LinkTiming, Schedule, TransferSpec};
use ccube_topology::{
    ByteSize, ChannelId, FabricConfig, FabricGraph, GpuId, PortId, PortKind, Seconds, SwitchId,
    Topology,
};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// Per-hop latency accounting of the switch fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HopMode {
    /// Cut-through switching: a transfer occupies its whole port path at
    /// once (wormhole, like the channel approximation) and pays the sum
    /// of port latencies plus one serialization at the bottleneck port.
    #[default]
    CutThrough,
    /// Store-and-forward switching: each port is held in sequence for a
    /// full per-hop serialization (`port latency + bytes / port
    /// bandwidth`), so a message crossing `h` ports pays `h`
    /// serializations — but releases each port as soon as its hop is
    /// done, letting fan-in traffic interleave hop by hop.
    StoreForward,
}

/// How a transfer's uplink slot is (re)chosen when a leaf has more than
/// one uplink toward the spines.
///
/// The static default baked into cached port routes is hash striping by
/// source node ([`FabricGraph::port_route`]); the adaptive policies
/// revise that choice per transfer at grant time from the live per-port
/// state. Adaptive revision applies under [`HopMode::CutThrough`] (where
/// a transfer owns its whole port path and the up/down pair can move
/// jointly); store-and-forward hops keep the static striping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UplinkPolicy {
    /// Keep the static hash-striped slot. Zero adaptivity: a downed
    /// uplink stalls its striped traffic until repair. With one uplink
    /// per leaf every policy degenerates to this.
    #[default]
    Hash,
    /// Score every surviving slot by live occupancy plus waiter-queue
    /// depth of its up/down pair and move on strict improvement
    /// (smallest slot wins ties).
    LeastQueued,
    /// Keep the assigned slot while it is alive; when a fault downs it,
    /// move to the first surviving slot (scanning upward, wrapping).
    Failover,
}

impl UplinkPolicy {
    /// Stable lowercase label (CSV columns, CLI round-trip).
    pub fn label(&self) -> &'static str {
        match self {
            UplinkPolicy::Hash => "hash",
            UplinkPolicy::LeastQueued => "least-queued",
            UplinkPolicy::Failover => "failover",
        }
    }
}

/// Configuration of the [`NetworkModel::SwitchFabric`] model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricSpec {
    /// Endpoints per leaf switch (`None`: all nodes on one leaf — the
    /// passthrough shape).
    pub radix: Option<usize>,
    /// Uplink oversubscription ratio (see
    /// [`FabricConfig::oversubscription`]).
    pub oversubscription: f64,
    /// Extra fixed latency per uplink port traversal.
    pub uplink_latency: Seconds,
    /// Per-hop latency accounting.
    pub hop_mode: HopMode,
    /// Number of spine switches behind the leaves (uplink slot `j`
    /// attaches to spine `j % spines`).
    pub spines: usize,
    /// Uplink up/down pairs per leaf. The leaf's aggregate uplink
    /// capacity is split evenly across them, so `1` reproduces the
    /// single-uplink fabric exactly.
    pub uplinks: usize,
    /// How transfers are steered across the uplink slots.
    pub uplink_policy: UplinkPolicy,
}

impl Default for FabricSpec {
    fn default() -> Self {
        FabricSpec {
            radix: None,
            oversubscription: 1.0,
            uplink_latency: Seconds::ZERO,
            hop_mode: HopMode::CutThrough,
            spines: 1,
            uplinks: 1,
            uplink_policy: UplinkPolicy::Hash,
        }
    }
}

impl FabricSpec {
    /// The passthrough configuration, under which the fabric must
    /// reproduce the channel approximation (the equivalence contract).
    pub fn passthrough() -> Self {
        FabricSpec::default()
    }

    /// The topology-side derivation config.
    pub(crate) fn fabric_config(&self) -> FabricConfig {
        FabricConfig {
            radix: self.radix,
            oversubscription: self.oversubscription,
            uplink_latency: self.uplink_latency,
            spines: self.spines,
            uplinks_per_leaf: self.uplinks,
        }
    }
}

/// Which network model an engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum NetworkModel {
    /// The historical NIC-channel approximation: channels are ideal,
    /// exclusive resources; the switch between them is non-blocking and
    /// invisible. Default — bit-identical to the pre-refactor engines.
    #[default]
    ChannelApprox,
    /// The explicit switch fabric: transfers are scheduled on the ports
    /// of the derived [`FabricGraph`], with switch/NIC agents, per-port
    /// queues, and uplink contention.
    SwitchFabric(FabricSpec),
}

/// The channel→port mapping layer the engines share: the dedicated
/// fabric engine below uses it directly, and the system/fault engines
/// keep their channel-level scheduling logic but size their
/// [`ChannelPool`] over fabric ports and occupy port paths, so uplink
/// contention and fan-in serialization shape timings there too.
pub(crate) struct FabricMap {
    /// The derived port graph, shared with the fabric engine's agents
    /// and the fault engine's uplink revision.
    pub(crate) graph: Rc<FabricGraph>,
    pub(crate) hop_mode: HopMode,
    pub(crate) policy: UplinkPolicy,
}

impl FabricMap {
    /// The mapping for `opts.network`, or `None` under `ChannelApprox`.
    pub(crate) fn for_options(topo: &Topology, opts: &SimOptions) -> Option<FabricMap> {
        match opts.network {
            NetworkModel::ChannelApprox => None,
            NetworkModel::SwitchFabric(spec) => Some(FabricMap::new(topo, &spec)),
        }
    }

    /// The mapping of `spec`'s fabric over `topo`.
    fn new(topo: &Topology, spec: &FabricSpec) -> FabricMap {
        FabricMap {
            graph: Rc::new(FabricGraph::from_topology(topo, &spec.fabric_config())),
            hop_mode: spec.hop_mode,
            policy: spec.uplink_policy,
        }
    }

    /// Number of schedulable port resources.
    pub(crate) fn num_ports(&self) -> usize {
        self.graph.num_ports()
    }

    /// A channel path expanded to the port path it occupies, with port
    /// ids cast to the pool's resource indices.
    pub(crate) fn resource_path(&self, channels: &[ChannelId]) -> Vec<ChannelId> {
        self.graph
            .port_route(channels)
            .into_iter()
            .map(|p| ChannelId(p.0))
            .collect()
    }

    /// End-to-end duration of a transfer over `channels` in this fabric.
    /// Cut-through mirrors `lower_schedule`'s wormhole model over the
    /// port path (so a passthrough fabric reproduces it exactly);
    /// store-and-forward sums one serialization per port.
    pub(crate) fn duration(
        &self,
        channels: &[ChannelId],
        bytes: ByteSize,
        detour: bool,
        timing: &LinkTiming,
    ) -> Seconds {
        self.duration_on(&self.graph.port_route(channels), bytes, detour, timing)
    }

    /// [`FabricMap::duration`] over an already-expanded port route —
    /// callers holding the `lower_to_ports` expansion skip the second
    /// route computation.
    pub(crate) fn duration_on(
        &self,
        route: &[PortId],
        bytes: ByteSize,
        detour: bool,
        timing: &LinkTiming,
    ) -> Seconds {
        match self.hop_mode {
            HopMode::CutThrough => {
                let mut alpha = Seconds::ZERO;
                let mut bottleneck = f64::INFINITY;
                for &p in route {
                    let port = self.graph.port(p);
                    alpha += port.latency();
                    bottleneck = bottleneck.min(port.bandwidth().as_bytes_per_sec());
                }
                if detour {
                    alpha += timing.forwarding_latency;
                }
                alpha + Seconds::new(bytes.as_f64() / (bottleneck * timing.bandwidth_scale))
            }
            HopMode::StoreForward => {
                let mut total = Seconds::ZERO;
                for &p in route {
                    let port = self.graph.port(p);
                    total += port.latency()
                        + Seconds::new(
                            bytes.as_f64()
                                / (port.bandwidth().as_bytes_per_sec() * timing.bandwidth_scale),
                        );
                }
                if detour {
                    total += timing.forwarding_latency;
                }
                total
            }
        }
    }

    /// Folds a per-port quantity back to per-channel (each channel's
    /// endpoint ports summed; uplink ports, having no channel, are
    /// visible only in the per-port view).
    pub(crate) fn channel_values(&self, per_port: &[Seconds], num_channels: usize) -> Vec<Seconds> {
        let mut out = vec![Seconds::ZERO; num_channels];
        for (pi, port) in self.graph.ports().iter().enumerate() {
            if let Some(c) = port.channel() {
                out[c.index()] += per_port[pi];
            }
        }
        out
    }
}

/// Revises the uplink slots of an expanded port path (given as pool
/// resource indices) under `policy`, from the pool's live down/free/
/// queue-depth state. Each adjacent `(uplink-up, uplink-down)` pair is
/// rescored independently; both legs move jointly so the route stays on
/// one spine. Slot substitution never changes a cut-through duration —
/// the slots of a leaf are homogeneous by construction — so callers can
/// keep their cached timings. Returns the revised path and the first
/// revised uplink-up port, or `None` if every crossing keeps its slot
/// (including when no surviving slot exists: exhausted diversity
/// degrades to stall-until-repair, never to an invalid route).
pub(crate) fn choose_uplinks(
    graph: &FabricGraph,
    pool: &ChannelPool,
    path: &[ChannelId],
    policy: UplinkPolicy,
) -> Option<(Vec<ChannelId>, ChannelId)> {
    if policy == UplinkPolicy::Hash {
        return None;
    }
    let mut out: Option<Vec<ChannelId>> = None;
    let mut moved_to: Option<ChannelId> = None;
    let mut i = 0;
    while i + 1 < path.len() {
        let up = graph.port(PortId(path[i].0));
        let down = graph.port(PortId(path[i + 1].0));
        let cur = match (up.kind(), down.kind(), up.uplink(), down.uplink()) {
            (PortKind::UplinkUp, PortKind::UplinkDown, Some(a), Some(b)) if a == b => a as usize,
            _ => {
                i += 1;
                continue;
            }
        };
        let ups = graph.uplinks_up(up.switch());
        let downs = graph.uplinks_down(down.switch());
        let k = ups.len().min(downs.len());
        let alive = |s: usize| {
            !pool.is_link_down(ChannelId(ups[s].0)) && !pool.is_link_down(ChannelId(downs[s].0))
        };
        let chosen = match policy {
            UplinkPolicy::Hash => cur,
            UplinkPolicy::Failover => {
                if alive(cur) {
                    cur
                } else {
                    (1..k)
                        .map(|d| (cur + d) % k)
                        .find(|&s| alive(s))
                        .unwrap_or(cur)
                }
            }
            UplinkPolicy::LeastQueued => {
                let score = |s: usize| {
                    let u = ChannelId(ups[s].0);
                    let d = ChannelId(downs[s].0);
                    pool.waiting_on(u)
                        + pool.waiting_on(d)
                        + usize::from(!pool.is_free(u))
                        + usize::from(!pool.is_free(d))
                };
                let best = (0..k).filter(|&s| alive(s)).min_by_key(|&s| (score(s), s));
                match best {
                    Some(b) if !alive(cur) || score(b) < score(cur) => b,
                    _ => cur,
                }
            }
        };
        if chosen != cur {
            let revised = out.get_or_insert_with(|| path.to_vec());
            revised[i] = ChannelId(ups[chosen].0);
            revised[i + 1] = ChannelId(downs[chosen].0);
            if moved_to.is_none() {
                moved_to = Some(ChannelId(ups[chosen].0));
            }
        }
        i += 2;
    }
    out.map(|p| (p, moved_to.expect("a revised path has a revised slot")))
}

/// One schedulable unit of a transfer in the fabric engine: the whole
/// port path under cut-through, a single port under store-and-forward.
#[derive(Debug, Clone, Copy)]
struct HopTask {
    transfer: u32,
    /// The next hop of the same transfer, if any.
    next: Option<u32>,
    first: bool,
    last: bool,
    duration: Seconds,
    /// The component its completion event is addressed to: the
    /// destination's [`NicAgent`] for final hops, the owning switch's
    /// [`SwitchAgent`] otherwise.
    owner: ComponentId,
}

/// A hop-completion event, addressed to the hop's owner agent.
#[derive(Debug, Clone, Copy)]
struct HopDone(u32);

/// The shared state both agent kinds operate on: the port pool, the hop
/// graph, dependency bookkeeping, timings, and the trace. Agents hold it
/// behind `Rc<RefCell>` — the simulation is single-threaded and the
/// borrow never nests (handlers emit through [`Ctx`], never by invoking
/// other components directly).
struct FabricCore {
    pool: ChannelPool,
    /// The port graph, for adaptive uplink revision at grant time.
    graph: Rc<FabricGraph>,
    /// Revision policy; [`UplinkPolicy::Hash`] means never revise.
    policy: UplinkPolicy,
    /// Whether grant-time revision is active (an adaptive policy under
    /// cut-through; store-and-forward keeps the static striping).
    adaptive: bool,
    failovers: u64,
    hops: Vec<HopTask>,
    /// First hop of each transfer, indexed by transfer id.
    first_hop: Vec<u32>,
    /// Destination GPU of each transfer (where its last hop delivers).
    dst_node: Vec<GpuId>,
    deps_remaining: Vec<u32>,
    dependents: Vec<Vec<u32>>,
    specs: Vec<TransferSpec>,
    timings: Vec<TransferTiming>,
    trace: SimTrace,
    forwarding_busy: HashMap<GpuId, Seconds>,
    remaining: usize,
    /// Switch owning each port, for queue-depth accounting.
    switch_of_port: Vec<u32>,
    /// Per-switch high-water mark of port waiter-queue depth.
    switch_queue_depth: Vec<usize>,
    /// Hop completions awaiting emission by the caller after a core
    /// call: `(hop, owner, finish time)`.
    to_schedule: Vec<(u32, ComponentId, Seconds)>,
    started: Vec<u32>,
}

impl FabricCore {
    /// Starts hop `h` at `now`: stamps transfer timings on first/last
    /// hops and queues its completion for emission.
    fn begin_hop(&mut self, h: u32, now: Seconds) {
        let hop = self.hops[h as usize];
        let t = hop.transfer as usize;
        if hop.first {
            self.timings[t].start = now;
            self.trace.push(TraceRecord::TransferStart {
                id: self.specs[t].id,
                at: now,
            });
        }
        let finish = now + hop.duration;
        if hop.last {
            self.timings[t].complete = finish;
        }
        self.to_schedule.push((h, hop.owner, finish));
    }

    /// Declares hop `h` ready; starts it if its ports are free, records
    /// the congestion it observed otherwise. Under an adaptive uplink
    /// policy the hop's uplink slots are rescored first, from the live
    /// queue depths at this instant — the grant-time choice.
    fn try_ready_hop(&mut self, h: u32, now: Seconds) {
        if self.adaptive {
            if let Some((revised, port)) =
                choose_uplinks(&self.graph, &self.pool, self.pool.path(h), self.policy)
            {
                self.pool.reroute(h, revised);
                self.failovers += 1;
                self.trace.push(TraceRecord::Failover {
                    id: self.specs[self.hops[h as usize].transfer as usize].id,
                    port,
                    at: now,
                });
            }
        }
        if self.pool.mark_ready(h, now, &mut self.trace) {
            self.begin_hop(h, now);
        } else {
            self.note_queue_depth(h);
        }
    }

    /// Samples the waiter-queue depth of `h`'s ports into the per-switch
    /// high-water marks.
    fn note_queue_depth(&mut self, h: u32) {
        for i in 0..self.pool.path(h).len() {
            let port = self.pool.path(h)[i];
            let depth = self.pool.waiting_on(port);
            let s = self.switch_of_port[port.index()] as usize;
            if depth > self.switch_queue_depth[s] {
                self.switch_queue_depth[s] = depth;
            }
        }
    }

    /// Handles the completion of hop `h` at `now`: releases its ports,
    /// advances the transfer (next hop, or final delivery + dependency
    /// fan-out), then serves the freed ports — the same
    /// unblock-before-serve order as the channel engine.
    fn hop_done(&mut self, h: u32, now: Seconds) {
        let hop = self.hops[h as usize];
        self.pool.complete(h, now);
        if hop.last {
            let t = hop.transfer as usize;
            self.remaining -= 1;
            self.trace.push(TraceRecord::TransferEnd {
                id: self.specs[t].id,
                at: now,
            });
            if let Some(via) = self.specs[t].via {
                *self.forwarding_busy.entry(via).or_insert(Seconds::ZERO) += self.specs[t].duration;
                self.trace.push(TraceRecord::DetourHop {
                    id: self.specs[t].id,
                    via,
                    at: now,
                });
            }
            let deps = std::mem::take(&mut self.dependents[t]);
            for &dep in &deps {
                let d = dep as usize;
                self.deps_remaining[d] -= 1;
                if self.deps_remaining[d] == 0 {
                    self.try_ready_hop(self.first_hop[d], now);
                }
            }
        } else {
            let next = hop.next.expect("non-final hop has a successor");
            self.try_ready_hop(next, now);
        }
        let mut started = std::mem::take(&mut self.started);
        started.clear();
        self.pool.serve(h, now, &mut self.trace, &mut started);
        for &s in &started {
            self.begin_hop(s, now);
        }
        self.started = started;
    }
}

/// Emits every queued hop completion through `ctx`, keyed by hop id so
/// equal-time completions pop in hop order — which under cut-through is
/// transfer order, the channel engine's tie-break.
fn flush_emissions(core: &Rc<RefCell<FabricCore>>, ctx: &mut Ctx<'_, HopDone>) {
    let now = ctx.now();
    let mut sched = {
        let mut c = core.borrow_mut();
        std::mem::take(&mut c.to_schedule)
    };
    for &(hop, owner, finish) in &sched {
        ctx.emit_keyed(owner, finish - now, u64::from(hop), HopDone(hop));
    }
    sched.clear();
    core.borrow_mut().to_schedule = sched;
}

/// Schedules every queued completion directly on the simulation (used
/// outside handler context: seeding and force-starts).
fn flush_direct(core: &Rc<RefCell<FabricCore>>, sim: &mut Simulation<HopDone>) {
    let mut sched = {
        let mut c = core.borrow_mut();
        std::mem::take(&mut c.to_schedule)
    };
    for &(hop, owner, finish) in &sched {
        sim.emit_keyed(finish, owner, u64::from(hop), HopDone(hop));
    }
    sched.clear();
    core.borrow_mut().to_schedule = sched;
}

/// The endpoint component of one node: final hops of transfers destined
/// to the node deliver here (under cut-through every hop is final, so
/// NIC agents see all traffic).
struct NicAgent {
    node: GpuId,
    core: Rc<RefCell<FabricCore>>,
}

impl Component<HopDone> for NicAgent {
    fn on_event(&mut self, event: HopDone, ctx: &mut Ctx<'_, HopDone>) {
        {
            let mut core = self.core.borrow_mut();
            let hop = core.hops[event.0 as usize];
            debug_assert!(hop.last, "NIC agents only receive final hops");
            debug_assert_eq!(
                core.dst_node[hop.transfer as usize], self.node,
                "final hop delivered to the wrong NIC"
            );
            core.hop_done(event.0, ctx.now());
        }
        flush_emissions(&self.core, ctx);
    }
}

/// The component of one switch: store-and-forward hops that end on the
/// switch's ports complete here before being handed to the next hop.
struct SwitchAgent {
    switch: SwitchId,
    core: Rc<RefCell<FabricCore>>,
}

impl Component<HopDone> for SwitchAgent {
    fn on_event(&mut self, event: HopDone, ctx: &mut Ctx<'_, HopDone>) {
        {
            let mut core = self.core.borrow_mut();
            let hop = core.hops[event.0 as usize];
            debug_assert!(!hop.last, "final hops belong to NIC agents");
            let last_port = *core.pool.path(event.0).last().expect("non-empty hop path");
            debug_assert_eq!(
                core.switch_of_port[last_port.index()],
                self.switch.0,
                "hop completed on a foreign switch"
            );
            core.hop_done(event.0, ctx.now());
        }
        flush_emissions(&self.core, ctx);
    }
}

/// Extracts the busy time of every uplink port from a per-port busy
/// vector, in port-id order — the [`SimStats::uplink_busy`] view shared
/// by the fabric and fault engines.
pub(crate) fn uplink_busy_of(graph: &FabricGraph, port_busy: &[Seconds]) -> Vec<Seconds> {
    graph
        .ports()
        .iter()
        .filter(|p| p.uplink().is_some())
        .map(|p| port_busy[p.id().index()])
        .collect()
}

/// [`simulate`](crate::simulate) on the explicit switch fabric: the
/// dispatch target for [`NetworkModel::SwitchFabric`].
pub(crate) fn simulate_fabric(
    topo: &Topology,
    schedule: &Schedule,
    embedding: &Embedding,
    opts: &SimOptions,
    spec: &FabricSpec,
) -> Result<SimReport, SimError> {
    let transfers = schedule.transfers();
    let n = transfers.len();
    let num_channels = topo.channels().len();
    let map = FabricMap::new(topo, spec);
    let num_ports = map.num_ports();
    let num_gpus = topo.num_gpus();
    let num_switches = map.graph.num_switches();

    // Same structural gate and lowering as the channel engine; per-spec
    // durations are rewritten to the port model below.
    let mut specs = crate::engine::gate_and_lower(topo, schedule, embedding, &opts.link_timing())?;

    // Debug builds cross-check the physical analyzer's hard gate: a
    // schedule/embedding that lowers cleanly must also have a port path
    // for every channel it uses (CC018 and the analyzer's view of
    // CC007/CC008 agree with the engine's own expansion below).
    #[cfg(debug_assertions)]
    {
        let gate = ccube_collectives::gate_physical(schedule, embedding, topo, &map.graph);
        debug_assert!(
            gate.is_clean(),
            "schedule/embedding failed the physical gate:\n{gate}"
        );
    }

    let port_paths = ccube_collectives::lower_to_ports(&specs, &map.graph);

    let deps_remaining: Vec<u32> = transfers.iter().map(|t| t.deps.len() as u32).collect();
    let mut dependents: Vec<Vec<u32>> = vec![Vec::new(); n];
    for t in transfers {
        for d in &t.deps {
            dependents[d.index()].push(t.id.0);
        }
    }

    // Decompose each transfer into hop tasks over the port pool. Hop ids
    // are dense in transfer order, so under cut-through (one hop per
    // transfer) hop id == transfer id, and both the kernel tie-break and
    // the arbitration keys coincide with the channel engine's.
    let mut pool = ChannelPool::new(num_ports, opts.arbitration);
    let num_hops = match spec.hop_mode {
        HopMode::CutThrough => n,
        HopMode::StoreForward => port_paths.iter().map(Vec::len).sum(),
    };
    pool.reserve_tasks(num_hops);
    let mut hops: Vec<HopTask> = Vec::with_capacity(num_hops);
    let mut first_hop: Vec<u32> = Vec::with_capacity(n);
    let mut dst_node: Vec<GpuId> = Vec::with_capacity(n);
    let timing = opts.link_timing();
    for (t, s) in specs.iter_mut().enumerate() {
        let route = &port_paths[t];
        debug_assert!(!route.is_empty(), "transfer with an empty port route");
        let dst = topo.channel(*s.path.last().expect("non-empty path")).dst();
        dst_node.push(dst);
        let nic_owner = ComponentId(dst.0);
        first_hop.push(hops.len() as u32);
        s.duration = map.duration_on(route, s.bytes, s.via.is_some(), &timing);
        match spec.hop_mode {
            HopMode::CutThrough => {
                let hid = pool.add_task(
                    route.iter().map(|p| ChannelId(p.0)).collect::<Arc<[_]>>(),
                    (s.chunk.0, s.id.0),
                );
                debug_assert_eq!(hid as usize, hops.len());
                hops.push(HopTask {
                    transfer: t as u32,
                    next: None,
                    first: true,
                    last: true,
                    duration: s.duration,
                    owner: nic_owner,
                });
            }
            HopMode::StoreForward => {
                let nh = route.len();
                for (k, &p) in route.iter().enumerate() {
                    let port = map.graph.port(p);
                    let mut dur = port.latency()
                        + Seconds::new(
                            s.bytes.as_f64()
                                / (port.bandwidth().as_bytes_per_sec() * timing.bandwidth_scale),
                        );
                    let last = k + 1 == nh;
                    if last && s.via.is_some() {
                        dur += timing.forwarding_latency;
                    }
                    let hid = pool.add_task(vec![ChannelId(p.0)], (s.chunk.0, hops.len() as u32));
                    hops.push(HopTask {
                        transfer: t as u32,
                        next: (!last).then_some(hid + 1),
                        first: k == 0,
                        last,
                        duration: dur,
                        owner: if last {
                            nic_owner
                        } else {
                            ComponentId(num_gpus as u32 + port.switch().0)
                        },
                    });
                }
            }
        }
    }

    let core = Rc::new(RefCell::new(FabricCore {
        pool,
        graph: Rc::clone(&map.graph),
        policy: spec.uplink_policy,
        adaptive: spec.uplink_policy != UplinkPolicy::Hash && spec.hop_mode == HopMode::CutThrough,
        failovers: 0,
        hops,
        first_hop,
        dst_node,
        deps_remaining,
        dependents,
        specs,
        timings: vec![
            TransferTiming {
                start: Seconds::ZERO,
                complete: Seconds::ZERO,
            };
            n
        ],
        trace: opts.make_trace_for(num_hops.saturating_mul(4)),
        forwarding_busy: HashMap::new(),
        remaining: n,
        switch_of_port: map.graph.ports().iter().map(|p| p.switch().0).collect(),
        switch_queue_depth: vec![0; num_switches],
        to_schedule: Vec::new(),
        started: Vec::new(),
    }));

    let mut sim: Simulation<HopDone> = Simulation::with_seed(0);
    for g in 0..num_gpus {
        sim.add_component(NicAgent {
            node: GpuId(g as u32),
            core: Rc::clone(&core),
        });
    }
    for s in 0..num_switches {
        sim.add_component(SwitchAgent {
            switch: SwitchId(s as u32),
            core: Rc::clone(&core),
        });
    }

    // Seed: transfers with no dependencies are ready at t = 0.
    {
        let mut c = core.borrow_mut();
        for tid in 0..n {
            if c.deps_remaining[tid] == 0 {
                let h = c.first_hop[tid];
                c.try_ready_hop(h, Seconds::ZERO);
            }
        }
    }
    flush_direct(&core, &mut sim);

    loop {
        if core.borrow().remaining == 0 {
            break;
        }
        if !sim.step() {
            // Queue drained with transfers outstanding: break a
            // chunk-priority reservation stall, or report deadlock.
            let now = sim.now();
            let forced = {
                let mut c = core.borrow_mut();
                let mut trace = std::mem::take(&mut c.trace);
                let forced = c.pool.force_start(now, &mut trace);
                c.trace = trace;
                if let Some(h) = forced {
                    c.begin_hop(h, now);
                }
                forced
            };
            if forced.is_none() {
                let remaining = core.borrow().remaining;
                return Err(SimError::Deadlock { remaining });
            }
            flush_direct(&core, &mut sim);
        }
    }

    let kstats = sim.stats();
    drop(sim); // the agents' Rc clones die here, leaving `core` unique
    let mut c = core.borrow_mut();
    let failovers = c.failovers;
    let timings = std::mem::take(&mut c.timings);
    let trace = std::mem::take(&mut c.trace);
    let forwarding_busy = std::mem::take(&mut c.forwarding_busy);
    let switch_queue_depth = std::mem::take(&mut c.switch_queue_depth);
    let pool = std::mem::replace(&mut c.pool, ChannelPool::new(1, opts.arbitration));
    drop(c);

    // Derive per-(rank, chunk) completion, as in the channel engine.
    let p = schedule.num_ranks();
    let k = schedule.chunking().num_chunks();
    let mut done_at = vec![vec![Seconds::ZERO; k]; p];
    let mut chunk_complete = vec![Seconds::ZERO; k];
    let mut makespan = Seconds::ZERO;
    for t in transfers {
        let finish = timings[t.id.index()].complete;
        let cell = &mut done_at[t.dst.index()][t.chunk.index()];
        *cell = (*cell).max(finish);
        let cc = &mut chunk_complete[t.chunk.index()];
        *cc = (*cc).max(finish);
        makespan = makespan.max(finish);
    }

    // Fold per-port quantities back to channels (endpoint ports are 1:1
    // with channels; uplink ports appear only in the port-level stats).
    let port_busy = pool.busy().to_vec();
    let queue_wait = map.channel_values(pool.queue_wait(), num_channels);
    let channel_busy = map.channel_values(&port_busy, num_channels);
    let max_channel_queue_depth = pool.max_waiting();
    let force_starts = pool.force_starts();
    let mut channel_intervals: Vec<Vec<BusyInterval>> = vec![Vec::new(); num_channels];
    for (pi, intervals) in pool.into_intervals().into_iter().enumerate() {
        if let Some(ch) = map.graph.ports()[pi].channel() {
            channel_intervals[ch.index()] = intervals;
        }
    }

    let uplink_busy = uplink_busy_of(&map.graph, &port_busy);
    let stats = SimStats {
        events_scheduled: kstats.events_scheduled,
        events_processed: kstats.events_processed,
        max_event_queue_depth: kstats.max_queue_depth,
        max_channel_queue_depth,
        queue_wait,
        force_starts,
        port_busy,
        switch_queue_depth,
        failovers,
        uplink_busy,
        ..SimStats::default()
    };

    Ok(SimReport {
        num_ranks: p,
        num_chunks: k,
        timings,
        done_at,
        chunk_complete,
        makespan,
        channel_busy,
        channel_intervals,
        forwarding_busy,
        trace,
        stats,
    })
}
