//! Physical-layer static analysis: embedding/fabric lints, certified
//! makespan lower bounds, and the port-path validity gate.
//!
//! The logical analyzer ([`crate::analyze`], CC001–CC014) sees the
//! schedule and its channel-level embedding; this module lowers one
//! level further, onto the port-level [`FabricGraph`], and reports what
//! the *physical* fabric does to the schedule before any simulation is
//! spent (diagnostic series CC015–CC023, same
//! [`Diagnostic`](crate::analyze::Diagnostic)/[`Span`]
//! machinery and byte-stable `--json` rendering):
//!
//! * **Contention lints** — logical edges that pile onto one physical
//!   port (`CC015`), cross-leaf transfers that stripe unevenly over a
//!   leaf's uplink slots — the `source_node % k` hashing hazard
//!   (`CC016`) — and leaves whose oversubscribed uplink pool drains
//!   slower than any endpoint port (`CC017`).
//! * **Port-path validity** — routes with no physical realization on
//!   the fabric, from fabric/topology mismatches or missing uplinks
//!   (`CC018`, the error class [`gate_physical`] the simulator
//!   debug-asserts under the switch fabric).
//! * **Certified lower bounds** — [`makespan_lower_bound`] (channel
//!   level) and [`fabric_lower_bound`] (port level) compute
//!   `max(critical path, bottleneck congestion)`, reported as `CC019`/
//!   `CC020` Info diagnostics. The bound is *certified*: every DES
//!   makespan is `≥` it (property-tested across random topologies,
//!   fabrics, and hop modes), so `policy_search` can prune candidates
//!   whose bound already exceeds an incumbent's simulated makespan
//!   without changing any simulated result.
//! * **Fault severance** (`ccube_sim::analyze_severance`, upstream in
//!   the simulator crate) — replays a `FaultPlan` against the
//!   embedding's route set and classifies each window: survivable via a
//!   fallback route (`CC021`), a finite stall until repair (`CC022`),
//!   or permanent severance — the run is provably `Unroutable`
//!   (`CC023`).
//!
//! Every pass reads the lowering the scheduler runs on: one
//! [`PreparedRoute`] per logical edge, from [`PreparedLowering::new`].
//! Per-route work (validity, the port walk, uplink crossings) runs once
//! per edge; per-transfer loops only charge a transfer's duration on its
//! edge's route, in transfer-id order.
//!
//! # Lint codes
//!
//! The physical-layer series, stable across releases
//! (`ccube lint --physical`); `CC001`..`CC014` are the logical
//! analyzer's ([`crate::analyze`]):
//!
//! | code | name | severity | meaning |
//! |---|---|---|---|
//! | `CC015` | `link-contention` | warning | several logical edges pile onto one physical port |
//! | `CC016` | `uplink-striping-skew` | warning | cross-leaf traffic stripes unevenly over a leaf's uplink slots (the `source_node % k` hashing hazard) |
//! | `CC017` | `oversubscription-hotspot` | warning | a leaf's uplink pool drains slower than any endpoint port feeding it |
//! | `CC018` | `unreachable-port-path` | error | a route has no physical realization on the fabric |
//! | `CC019` | `makespan-lower-bound` | info | certified channel-level bound: `max(critical path, bottleneck congestion)` |
//! | `CC020` | `fabric-lower-bound` | info | the same bound at port level, uplink pools divided by slot count |
//! | `CC021` | `fault-reroutable` | info | every transfer a fault window hits has a surviving fallback route |
//! | `CC022` | `fault-stall` | warning | traffic must stall until the window lifts (no alternative path) |
//! | `CC023` | `fault-severed` | error | a permanent window severs the embedding — the engine outcome is `Unroutable` |
//!
//! # Why the bounds are valid
//!
//! *Critical path*: a transfer completes no earlier than
//! `ready + duration`, where `ready` is the max completion of its
//! dependencies and `duration` is the mode-appropriate transit time
//! ([`PreparedRoute::duration`] under the channel approximation,
//! [`port_transit_time`] over the route's port path under the switch
//! fabric — under both cut-through and store-and-forward, dependents are
//! released only when the last hop finishes). Chaining over any
//! dependency path lower-bounds the makespan.
//!
//! *Congestion*: the simulator holds every channel of a wormhole path
//! exclusively for the transfer's whole duration, so a channel's total
//! offered occupancy is a makespan lower bound. On the fabric, endpoint
//! ports are charged the whole path duration under cut-through, and
//! that hop's `latency + serialization` under store-and-forward — no
//! more than the summed per-hop time the simulator holds the whole port
//! path for.
//! Uplink ports are **pooled** per (leaf, direction): adaptive uplink
//! policies may move a crossing to any of the `k` homogeneous slots
//! (slot substitution never changes a duration), but each crossing
//! still occupies exactly one slot, so the busiest slot is at least the
//! pool's total charge divided by `k` — valid for every uplink policy
//! and hop mode.

use crate::analyze::{LintCode, LintReport, Span};
use crate::embedding::{EdgeKey, Embedding};
use crate::lowering::{
    hop_time, port_transit_time, LinkTiming, LowerError, PreparedLowering, PreparedRoute,
};
use crate::schedule::Schedule;
use ccube_topology::{
    ByteSize, ChannelClass, ChannelId, FabricGraph, PortId, PortKind, PortStep, Seconds, SwitchId,
    Topology,
};
use std::collections::BTreeMap;

/// Knobs of the physical analysis (a subset of the simulator's options
/// that affects port-level timing).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhysicalAnalyzeOptions {
    /// Link-timing knobs shared with the lowering.
    pub timing: LinkTiming,
    /// Time transfers store-and-forward (one serialization per port)
    /// and charge each port its own hop, instead of wormhole
    /// cut-through.
    pub store_forward: bool,
}

/// Reports a lowering failure with the analyzer's stable codes: `CC007`
/// for a missing route, `CC008` for a route off the topology. The
/// physical pass and fault severance (`ccube_sim::analyze_severance`)
/// both report through it.
pub fn push_lower_error(report: &mut LintReport, err: &LowerError) {
    let (code, edge) = match *err {
        LowerError::MissingRoute(edge) => (LintCode::MissingRoute, edge),
        LowerError::UnknownChannel { edge, .. } => (LintCode::InvalidRoute, edge),
    };
    let span = Span {
        edges: vec![edge],
        ..Span::default()
    };
    report.push(code, err.to_string(), span);
}

/// How many transfers take each logical edge, indexed like
/// [`Schedule::edges`].
fn edge_uses(schedule: &Schedule) -> Vec<usize> {
    let mut uses = vec![0; schedule.edges().len()];
    for t in schedule.transfers() {
        uses[t.edge as usize] += 1;
    }
    uses
}

/// Every transfer's wormhole duration on its edge's route, in transfer
/// order.
fn durations(schedule: &Schedule, routes: &[PreparedRoute], timing: &LinkTiming) -> Vec<Seconds> {
    schedule
        .transfers()
        .iter()
        .map(|t| routes[t.edge as usize].duration(t.bytes, timing))
        .collect()
}

/// `CC018` checks, one port walk per route: every channel must have
/// ports on the fabric, and every leaf crossing uplink ports on both
/// sides. Findings count the transfers on each route. Returns every
/// route's port path when all of them are realizable.
fn port_routes(
    report: &mut LintReport,
    routes: &[PreparedRoute],
    uses: &[usize],
    fabric: &FabricGraph,
) -> Option<Vec<Vec<PortId>>> {
    let mut portless: BTreeMap<ChannelId, usize> = BTreeMap::new();
    let mut severed: BTreeMap<(SwitchId, SwitchId), usize> = BTreeMap::new();
    let mut out = Vec::with_capacity(routes.len());
    for (route, &n) in routes.iter().zip(uses) {
        let mut ports = Vec::new();
        let mut cut = Vec::new();
        let mut whole = true;
        fabric.walk(route.path(), |step| match step {
            PortStep::Port(p) => ports.push(p),
            PortStep::Portless(c) => {
                *portless.entry(c).or_insert(0) += n;
                whole = false;
            }
            PortStep::NoUplink { from, to } => cut.push((from, to)),
        });
        // A path with a portless channel reports only that.
        if whole {
            for crossing in cut {
                *severed.entry(crossing).or_insert(0) += n;
            }
        }
        out.push(ports);
    }
    for (c, count) in &portless {
        report.push(
            LintCode::UnreachablePortPath,
            format!(
                "{c} has no port on the fabric ({count} transfers routed over it); \
                 fabric and topology disagree"
            ),
            Span {
                channels: vec![*c],
                ..Span::default()
            },
        );
    }
    for ((here, next), count) in &severed {
        report.push(
            LintCode::UnreachablePortPath,
            format!(
                "no uplink path from {here} to {next} ({count} cross-leaf transfers \
                 have no physical route)"
            ),
            Span::default(),
        );
    }
    (portless.is_empty() && severed.is_empty()).then_some(out)
}

/// Longest dependency chain under the given per-transfer durations.
/// Dependencies that violate the DAG's topological-order invariant are
/// ignored (under-approximating keeps the result a valid lower bound).
fn critical_path(schedule: &Schedule, durations: &[Seconds]) -> Seconds {
    let transfers = schedule.transfers();
    let mut completion = vec![Seconds::ZERO; transfers.len()];
    let mut best = Seconds::ZERO;
    for (i, t) in transfers.iter().enumerate() {
        let mut ready = Seconds::ZERO;
        for &d in schedule.deps(t.id) {
            if d.index() < i {
                ready = ready.max(completion[d.index()]);
            }
        }
        completion[i] = ready + durations[i];
        best = best.max(completion[i]);
    }
    best
}

/// Per-channel total wormhole occupancy, each transfer charging every
/// distinct channel of its route once; returns the busiest channel.
fn channel_congestion(
    schedule: &Schedule,
    routes: &[PreparedRoute],
    durations: &[Seconds],
    num_channels: usize,
) -> (Seconds, Option<ChannelId>) {
    let mut busy = vec![Seconds::ZERO; num_channels];
    for (t, &duration) in schedule.transfers().iter().zip(durations) {
        let path = routes[t.edge as usize].path();
        for (h, &c) in path.iter().enumerate() {
            if !path[..h].contains(&c) {
                busy[c.index()] += duration;
            }
        }
    }
    let mut max = Seconds::ZERO;
    let mut arg = None;
    for (i, &b) in busy.iter().enumerate() {
        if b > max {
            max = b;
            arg = Some(ChannelId(i as u32));
        }
    }
    (max, arg)
}

/// The uplink pool a port belongs to, `(leaf, is-up-direction)`, and
/// its slot; `None` for endpoint ports.
fn uplink_slot(fabric: &FabricGraph, p: PortId) -> Option<((SwitchId, bool), usize)> {
    let port = fabric.port(p);
    let up = match port.kind() {
        PortKind::UplinkUp => true,
        PortKind::UplinkDown => false,
        PortKind::Ingress | PortKind::Egress => return None,
    };
    Some(((port.switch(), up), port.uplink()? as usize))
}

/// Per-port congestion charges of the port-level bound: endpoint ports
/// exact, uplink ports pooled per (leaf, direction).
struct PortLoads {
    /// Total charge per endpoint port (indexed by port id).
    endpoint: Vec<Seconds>,
    /// Total charge per (leaf, is-up-direction) uplink pool.
    pools: BTreeMap<(SwitchId, bool), Seconds>,
}

/// Accumulates congestion charges and per-transfer durations over the
/// statically-striped port routes (indexed like `routes`).
fn port_loads(
    schedule: &Schedule,
    routes: &[PreparedRoute],
    port_routes: &[Vec<PortId>],
    fabric: &FabricGraph,
    opts: &PhysicalAnalyzeOptions,
) -> (PortLoads, Vec<Seconds>) {
    let timing = &opts.timing;
    let mut loads = PortLoads {
        endpoint: vec![Seconds::ZERO; fabric.num_ports()],
        pools: BTreeMap::new(),
    };
    let transfers = schedule.transfers();
    let mut durations = Vec::with_capacity(transfers.len());
    for t in transfers {
        let route = &port_routes[t.edge as usize];
        let detour = routes[t.edge as usize].via().is_some();
        let duration =
            port_transit_time(fabric, route, t.bytes, detour, timing, opts.store_forward);
        durations.push(duration);
        for (h, &p) in route.iter().enumerate() {
            if route[..h].contains(&p) {
                continue;
            }
            let port = fabric.port(p);
            // Cut-through holds the whole path for the full duration;
            // store-and-forward holds each port for its own hop (the
            // detour forwarding latency lands on the last hop, as in
            // the engine).
            let mut charge = if opts.store_forward {
                hop_time(port, t.bytes, timing)
            } else {
                duration
            };
            if opts.store_forward && detour && h + 1 == route.len() {
                charge += timing.forwarding_latency;
            }
            match uplink_slot(fabric, p) {
                Some((pool, _)) => *loads.pools.entry(pool).or_insert(Seconds::ZERO) += charge,
                None => loads.endpoint[p.index()] += charge,
            }
        }
    }
    (loads, durations)
}

/// What the port-level congestion bound bottlenecks on.
enum Bottleneck {
    Port(PortId),
    Pool(SwitchId, bool),
}

/// The congestion part of the port-level bound: the busiest endpoint
/// port, or the busiest uplink pool amortized over its `k` slots.
fn fabric_congestion(loads: &PortLoads, fabric: &FabricGraph) -> (Seconds, Option<Bottleneck>) {
    let mut max = Seconds::ZERO;
    let mut arg = None;
    for (i, &b) in loads.endpoint.iter().enumerate() {
        if b > max {
            max = b;
            arg = Some(Bottleneck::Port(PortId(i as u32)));
        }
    }
    for (&(leaf, up), &total) in &loads.pools {
        let k = if up {
            fabric.uplinks_up(leaf).len()
        } else {
            fabric.uplinks_down(leaf).len()
        };
        if k == 0 {
            continue;
        }
        let amortized = Seconds::new(total.as_secs_f64() / k as f64);
        if amortized > max {
            max = amortized;
            arg = Some(Bottleneck::Pool(leaf, up));
        }
    }
    (max, arg)
}

/// Certified channel-level lower bound on the DES makespan of
/// `(schedule, embedding, topo)`: the max of the dependency critical
/// path and the busiest channel's total wormhole occupancy. `None` when
/// the schedule does not lower.
///
/// Every channel-engine makespan (`simulate`, `simulate_system`,
/// passthrough fabrics) is `≥` this bound; `policy_search` uses it to
/// prune candidates that provably cannot beat an incumbent.
pub fn makespan_lower_bound(
    schedule: &Schedule,
    embedding: &Embedding,
    topo: &Topology,
    timing: &LinkTiming,
) -> Option<Seconds> {
    let routes = PreparedLowering::new(schedule, embedding, topo)
        .ok()?
        .into_routes();
    let durations = durations(schedule, &routes, timing);
    let cp = critical_path(schedule, &durations);
    let (congestion, _) = channel_congestion(schedule, &routes, &durations, topo.channels().len());
    Some(cp.max(congestion))
}

/// Certified port-level lower bound on the switch-fabric DES makespan:
/// the max of the critical path under port-route durations and the
/// busiest endpoint port / amortized uplink pool. `None` when the
/// schedule does not lower or a route has no physical port path.
pub fn fabric_lower_bound(
    schedule: &Schedule,
    embedding: &Embedding,
    topo: &Topology,
    fabric: &FabricGraph,
    opts: &PhysicalAnalyzeOptions,
) -> Option<Seconds> {
    let routes = PreparedLowering::new(schedule, embedding, topo)
        .ok()?
        .into_routes();
    let mut scratch = LintReport::default();
    let port_routes = port_routes(&mut scratch, &routes, &edge_uses(schedule), fabric)?;
    let (loads, durations) = port_loads(schedule, &routes, &port_routes, fabric, opts);
    let cp = critical_path(schedule, &durations);
    let (congestion, _) = fabric_congestion(&loads, fabric);
    Some(cp.max(congestion))
}

/// The cheap structural subset of the physical analyzer: lowering
/// failures (`CC007`/`CC008`) and port-path validity (`CC018`). The
/// simulator debug-asserts this gate on every switch-fabric input.
pub fn gate_physical(
    schedule: &Schedule,
    embedding: &Embedding,
    topo: &Topology,
    fabric: &FabricGraph,
) -> LintReport {
    let mut report = LintReport::default();
    match PreparedLowering::new(schedule, embedding, topo) {
        Ok(lowering) => {
            let routes = lowering.into_routes();
            port_routes(&mut report, &routes, &edge_uses(schedule), fabric);
        }
        Err(err) => push_lower_error(&mut report, &err),
    }
    report.finish()
}

/// Runs the full physical analysis of `(schedule, embedding, topo)`
/// lowered onto `fabric`: contention lints (`CC015`–`CC017`), port-path
/// validity (`CC018`), and the certified lower bounds (`CC019`,
/// `CC020`).
///
/// # Examples
///
/// ```
/// use ccube_collectives::{physical, ring_allreduce, Embedding};
/// use ccube_topology::{hierarchical, ByteSize, FabricConfig, FabricGraph};
///
/// let topo = hierarchical(16);
/// let s = ring_allreduce(16, ByteSize::mib(16));
/// let e = Embedding::nic(&topo, &s).unwrap();
/// let fabric = FabricGraph::from_topology(
///     &topo,
///     &FabricConfig { radix: Some(4), uplinks_per_leaf: 2, spines: 2, ..FabricConfig::default() },
/// );
/// let report =
///     physical::analyze_physical(&s, &e, &topo, &fabric, &Default::default());
/// // The unidirectional ring's cross-leaf sources are all odd, so hash
/// // striping piles every crossing onto one uplink slot.
/// use ccube_collectives::analyze::LintCode;
/// assert!(report
///     .diagnostics()
///     .iter()
///     .any(|d| d.code == LintCode::UplinkStripingSkew));
/// ```
pub fn analyze_physical(
    schedule: &Schedule,
    embedding: &Embedding,
    topo: &Topology,
    fabric: &FabricGraph,
    opts: &PhysicalAnalyzeOptions,
) -> LintReport {
    let mut report = LintReport::default();
    let routes = match PreparedLowering::new(schedule, embedding, topo) {
        Ok(lowering) => lowering.into_routes(),
        Err(err) => {
            push_lower_error(&mut report, &err);
            return report.finish();
        }
    };

    // Channel-level bound (CC019) is computable whether or not the
    // fabric realizes the paths.
    let durations = durations(schedule, &routes, &opts.timing);
    let cp = critical_path(schedule, &durations);
    let (congestion, hot) =
        channel_congestion(schedule, &routes, &durations, topo.channels().len());
    let bound = cp.max(congestion);
    report.push(
        LintCode::MakespanLowerBound,
        match hot {
            Some(c) => format!(
                "channel-level makespan lower bound {bound}: critical path {cp}, \
                 bottleneck congestion {congestion} on {c}"
            ),
            None => format!("channel-level makespan lower bound {bound}: critical path {cp}"),
        },
        Span {
            channels: hot.into_iter().collect(),
            ..Span::default()
        },
    );

    let uses = edge_uses(schedule);
    let Some(port_routes) = port_routes(&mut report, &routes, &uses, fabric) else {
        // No physical realization: the port-level passes have nothing
        // sound to measure.
        return report.finish();
    };

    link_contention_lints(&mut report, schedule, &port_routes, topo, fabric);
    striping_lints(&mut report, &port_routes, &uses, fabric);
    let (loads, port_durations) = port_loads(schedule, &routes, &port_routes, fabric, opts);
    oversubscription_lints(&mut report, schedule, &port_routes, fabric, opts);

    let cp = critical_path(schedule, &port_durations);
    let (congestion, hot) = fabric_congestion(&loads, fabric);
    let bound = cp.max(congestion);
    let mode = if opts.store_forward {
        "store-and-forward"
    } else {
        "cut-through"
    };
    let at = match hot {
        Some(Bottleneck::Port(p)) => {
            format!(
                ", bottleneck congestion {congestion} at {}",
                fabric.port(p).label()
            )
        }
        Some(Bottleneck::Pool(leaf, up)) => format!(
            ", bottleneck congestion {congestion} at the {leaf} uplink-{} pool (k={})",
            if up { "up" } else { "down" },
            fabric.uplinks_per_leaf()
        ),
        None => String::new(),
    };
    report.push(
        LintCode::FabricLowerBound,
        format!("port-level makespan lower bound {bound} ({mode}): critical path {cp}{at}"),
        Span::default(),
    );

    report.finish()
}

/// `CC015`: several logical edges on one point-to-point endpoint port.
/// NIC-class ports are excluded (fan-in there is expected and
/// arbitrated at runtime, the logical analyzer's `CC011`); uplink ports
/// are the striping lints' concern.
fn link_contention_lints(
    report: &mut LintReport,
    schedule: &Schedule,
    port_routes: &[Vec<PortId>],
    topo: &Topology,
    fabric: &FabricGraph,
) {
    // Edges are in first-use order, so each port lists its edges in
    // the order of their first transfers.
    let mut edges_on: BTreeMap<PortId, Vec<EdgeKey>> = BTreeMap::new();
    for (&(src, dst, tree), route) in schedule.edges().iter().zip(port_routes) {
        let key = EdgeKey { src, dst, tree };
        for &p in route {
            let port = fabric.port(p);
            if !matches!(port.kind(), PortKind::Ingress | PortKind::Egress) {
                continue;
            }
            let Some(c) = port.channel() else { continue };
            if topo.channel(c).class() == ChannelClass::Nic {
                continue;
            }
            let edges = edges_on.entry(p).or_default();
            if edges.last() != Some(&key) {
                edges.push(key);
            }
        }
    }
    for (p, edges) in &edges_on {
        if edges.len() < 2 {
            continue;
        }
        let port = fabric.port(*p);
        let class = match port.channel().map(|c| topo.channel(c).class()) {
            Some(ChannelClass::HostBridge) => "host-bridge",
            _ => "nv-link",
        };
        report.push(
            LintCode::LinkContention,
            format!(
                "{} logical edges pile onto {class} port {} (e.g. {} and {}); \
                 the embedding serializes them",
                edges.len(),
                port.label(),
                edges[0],
                edges[1]
            ),
            Span {
                channels: port.channel().into_iter().collect(),
                edges: edges.clone(),
                ..Span::default()
            },
        );
    }
}

/// `CC016`: the static `source_node % k` slot histogram of actual
/// cross-leaf transfers, per (leaf, direction); warn when hashing
/// leaves a slot idle while another carries two or more.
fn striping_lints(
    report: &mut LintReport,
    port_routes: &[Vec<PortId>],
    uses: &[usize],
    fabric: &FabricGraph,
) {
    let k = fabric.uplinks_per_leaf();
    if !fabric.has_uplinks() || k < 2 {
        return;
    }
    let mut hist: BTreeMap<(SwitchId, bool), Vec<usize>> = BTreeMap::new();
    for (route, &n) in port_routes.iter().zip(uses) {
        for &p in route {
            if let Some((pool, slot)) = uplink_slot(fabric, p) {
                hist.entry(pool).or_insert_with(|| vec![0; k])[slot] += n;
            }
        }
    }
    for ((leaf, up), counts) in &hist {
        let max = counts.iter().copied().max().unwrap_or(0);
        let min = counts.iter().copied().min().unwrap_or(0);
        if max < 2 || min > 0 {
            continue;
        }
        let idle: Vec<String> = counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n == 0)
            .map(|(slot, _)| slot.to_string())
            .collect();
        let total: usize = counts.iter().sum();
        report.push(
            LintCode::UplinkStripingSkew,
            format!(
                "{leaf} uplink-{} striping skew: slot histogram {counts:?} over {total} \
                 cross-leaf transfers — hash striping (source_node % {k}) leaves slot {} idle; \
                 adaptive uplink policies rebalance at grant time",
                if *up { "up" } else { "down" },
                idle.join(", ")
            ),
            Span::default(),
        );
    }
}

/// `CC017`: on an oversubscribed fabric, a leaf's uplink pool whose
/// offered-load drain time exceeds every endpoint port's — the
/// statically provable hotspot. Drain times compare *serialization
/// demand* (`offered bytes / port bandwidth`), deliberately ignoring
/// latencies and cross-port bottlenecking so the comparison isolates
/// where capacity, not the protocol, runs out.
fn oversubscription_lints(
    report: &mut LintReport,
    schedule: &Schedule,
    port_routes: &[Vec<PortId>],
    fabric: &FabricGraph,
    opts: &PhysicalAnalyzeOptions,
) {
    if !fabric.has_uplinks() || fabric.oversubscription() <= 1.0 {
        return;
    }
    let mut endpoint_drain = vec![Seconds::ZERO; fabric.num_ports()];
    let mut offered: BTreeMap<(SwitchId, bool), ByteSize> = BTreeMap::new();
    for t in schedule.transfers() {
        let route = &port_routes[t.edge as usize];
        for (h, &p) in route.iter().enumerate() {
            if let Some((pool, _)) = uplink_slot(fabric, p) {
                let bytes = offered.entry(pool).or_insert(ByteSize::new(0));
                *bytes = ByteSize::new(bytes.as_u64() + t.bytes.as_u64());
            } else if !route[..h].contains(&p) {
                let port = fabric.port(p);
                endpoint_drain[p.index()] += Seconds::new(
                    t.bytes.as_f64()
                        / (port.bandwidth().as_bytes_per_sec() * opts.timing.bandwidth_scale),
                );
            }
        }
    }
    let endpoint_max = endpoint_drain
        .iter()
        .copied()
        .fold(Seconds::ZERO, Seconds::max);
    let mut worst: Option<(Seconds, SwitchId, bool, ByteSize)> = None;
    let mut hot_dirs = 0usize;
    for (&(leaf, up), &bytes) in &offered {
        let slots = if up {
            fabric.uplinks_up(leaf)
        } else {
            fabric.uplinks_down(leaf)
        };
        let capacity: f64 = slots
            .iter()
            .map(|&p| fabric.port(p).bandwidth().as_bytes_per_sec())
            .sum();
        if capacity <= 0.0 {
            continue;
        }
        let drain = Seconds::new(bytes.as_f64() / (capacity * opts.timing.bandwidth_scale));
        if drain > endpoint_max {
            hot_dirs += 1;
            if worst.as_ref().is_none_or(|(w, ..)| drain > *w) {
                worst = Some((drain, leaf, up, bytes));
            }
        }
    }
    if let Some((drain, leaf, up, bytes)) = worst {
        report.push(
            LintCode::OversubscriptionHotspot,
            format!(
                "uplink oversubscription hotspot: {leaf} uplink-{} pool drains {bytes} of \
                 offered cross-leaf load in {drain} vs {endpoint_max} at the busiest endpoint \
                 port ({:.1}:1 oversubscription; {hot_dirs} leaf direction(s) uplink-bound)",
                if up { "up" } else { "down" },
                fabric.oversubscription()
            ),
            Span::default(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ring_allreduce, tree_allreduce, Chunking, DoubleBinaryTree, Overlap};
    use ccube_topology::{dgx1, hierarchical, ByteSize, FabricConfig};

    fn hier16_case() -> (Topology, Schedule, Embedding) {
        let topo = hierarchical(16);
        let s = ring_allreduce(16, ByteSize::mib(16));
        let e = Embedding::nic(&topo, &s).unwrap();
        (topo, s, e)
    }

    fn fabric(topo: &Topology, radix: usize, uplinks: usize, spines: usize) -> FabricGraph {
        FabricGraph::from_topology(
            topo,
            &FabricConfig {
                radix: Some(radix),
                uplinks_per_leaf: uplinks,
                spines,
                ..FabricConfig::default()
            },
        )
    }

    #[test]
    fn ring_on_multi_uplink_fabric_warns_on_skew() {
        let (topo, s, e) = hier16_case();
        let f = fabric(&topo, 4, 2, 2);
        let report = analyze_physical(&s, &e, &topo, &f, &Default::default());
        assert!(report.is_clean());
        let skew: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == LintCode::UplinkStripingSkew)
            .collect();
        // Every leaf has odd-only cross-leaf sources in both directions.
        assert_eq!(skew.len(), 8, "{report}");
    }

    #[test]
    fn dgx1_smart_embedding_is_physically_quiet() {
        let topo = dgx1();
        let dt = DoubleBinaryTree::new(8).unwrap();
        let s = tree_allreduce(
            dt.trees(),
            &Chunking::even(ByteSize::mib(64), 16),
            Overlap::ReductionBroadcast,
        );
        let e = Embedding::dgx1_double_tree(&topo, &s).unwrap();
        let f = FabricGraph::from_topology(&topo, &FabricConfig::default());
        let report = analyze_physical(&s, &e, &topo, &f, &Default::default());
        assert!(report.is_clean());
        assert!(!report
            .diagnostics()
            .iter()
            .any(|d| d.code == LintCode::LinkContention));
        // The two bounds are always reported.
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.code == LintCode::MakespanLowerBound));
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.code == LintCode::FabricLowerBound));
    }

    #[test]
    fn naive_identity_double_tree_shows_link_contention() {
        let topo = dgx1();
        let dt = DoubleBinaryTree::new(8).unwrap();
        let s = tree_allreduce(
            dt.trees(),
            &Chunking::even(ByteSize::mib(64), 16),
            Overlap::ReductionBroadcast,
        );
        let e = Embedding::identity(&topo, &s).unwrap();
        let f = FabricGraph::from_topology(&topo, &FabricConfig::default());
        let report = analyze_physical(&s, &e, &topo, &f, &Default::default());
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.code == LintCode::LinkContention));
    }

    #[test]
    fn mismatched_fabric_is_an_unreachable_port_path_error() {
        let (_, s, e) = hier16_case();
        let topo16 = hierarchical(16);
        let topo8 = hierarchical(8);
        let f8 = fabric(&topo8, 4, 1, 1);
        let report = analyze_physical(&s, &e, &topo16, &f8, &Default::default());
        assert!(!report.is_clean());
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.code == LintCode::UnreachablePortPath));
        assert!(fabric_lower_bound(&s, &e, &topo16, &f8, &Default::default()).is_none());
    }

    #[test]
    fn oversubscribed_fabric_reports_a_hotspot() {
        let (topo, s, e) = hier16_case();
        let f = FabricGraph::from_topology(
            &topo,
            &FabricConfig {
                radix: Some(4),
                oversubscription: 8.0,
                ..FabricConfig::default()
            },
        );
        let report = analyze_physical(&s, &e, &topo, &f, &Default::default());
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.code == LintCode::OversubscriptionHotspot));
    }

    #[test]
    fn bounds_are_monotone_in_mode_and_positive() {
        let (topo, s, e) = hier16_case();
        let f = fabric(&topo, 4, 2, 2);
        let ct = fabric_lower_bound(&s, &e, &topo, &f, &Default::default()).unwrap();
        let sf = fabric_lower_bound(
            &s,
            &e,
            &topo,
            &f,
            &PhysicalAnalyzeOptions {
                store_forward: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(ct > Seconds::ZERO);
        // Store-and-forward serializes per hop, so its bound dominates.
        assert!(sf >= ct);
        let channel = makespan_lower_bound(&s, &e, &topo, &LinkTiming::default()).unwrap();
        assert!(channel > Seconds::ZERO);
    }
}
