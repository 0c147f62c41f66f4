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
//! ([`lower_schedule`] under the channel approximation, the port-path
//! `duration_on` replica under the switch fabric — under both
//! cut-through and store-and-forward, dependents are released only when
//! the last hop finishes). Chaining over any dependency path lower-bounds the
//! makespan.
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
use crate::lowering::{lower_schedule, LinkTiming, LowerError, TransferSpec};
use crate::schedule::Schedule;
use ccube_topology::{
    ChannelClass, ChannelId, FabricGraph, PortId, PortKind, Seconds, SwitchId, Topology,
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

/// Ports of each channel, rebuilt from the fabric's port list so a
/// mismatched channel id is a reportable finding instead of a panic.
fn ports_by_channel(fabric: &FabricGraph) -> Vec<Vec<PortId>> {
    let mut by_channel: Vec<Vec<PortId>> = Vec::new();
    for p in fabric.ports() {
        if let Some(c) = p.channel() {
            if by_channel.len() <= c.index() {
                by_channel.resize(c.index() + 1, Vec::new());
            }
            by_channel[c.index()].push(p.id());
        }
    }
    by_channel
}

/// One cross-leaf hop of a lowered route, as [`FabricGraph::port_route`]
/// would insert it: the source leaf, destination leaf, and the uplink
/// slot static hash striping picks.
struct Crossing {
    spec: usize,
    up_leaf: SwitchId,
    down_leaf: SwitchId,
    slot: usize,
}

/// Walks every spec's channel path exactly as `port_route` does and
/// returns the cross-leaf hops. Requires a validated path (every channel
/// has ports).
fn crossings(specs: &[TransferSpec], fabric: &FabricGraph, by: &[Vec<PortId>]) -> Vec<Crossing> {
    let mut out = Vec::new();
    if !fabric.has_uplinks() {
        return out;
    }
    for (i, s) in specs.iter().enumerate() {
        for (k, &c) in s.path.iter().enumerate() {
            if k + 1 >= s.path.len() {
                continue;
            }
            let here = match by[c.index()].last() {
                Some(&p) => fabric.port(p).switch(),
                None => continue,
            };
            let next = match by[s.path[k + 1].index()].first() {
                Some(&p) => fabric.port(p).switch(),
                None => continue,
            };
            if here == next {
                continue;
            }
            let ups = fabric.uplinks_up(here);
            let downs = fabric.uplinks_down(next);
            if ups.is_empty() || downs.is_empty() {
                continue;
            }
            let slot = (c.0 / 2) as usize % ups.len().min(downs.len());
            out.push(Crossing {
                spec: i,
                up_leaf: here,
                down_leaf: next,
                slot,
            });
        }
    }
    out
}

/// Reports lowering failures with the analyzer's stable codes.
fn push_lower_error(report: &mut LintReport, err: &LowerError) {
    match err {
        LowerError::MissingRoute(edge) => report.push(
            LintCode::MissingRoute,
            format!("embedding has no route for logical edge {edge}"),
            Span {
                edges: vec![*edge],
                ..Span::default()
            },
        ),
        LowerError::UnknownChannel {
            edge,
            channel_index,
        } => report.push(
            LintCode::InvalidRoute,
            format!("route for {edge} references unknown channel index {channel_index}"),
            Span {
                edges: vec![*edge],
                ..Span::default()
            },
        ),
    }
}

/// `CC018` checks: every channel of every lowered path must have ports
/// on the fabric, and (on switched fabrics) every leaf crossing must
/// have uplink ports on both sides. Returns true when clean.
fn port_path_lints(
    report: &mut LintReport,
    specs: &[TransferSpec],
    fabric: &FabricGraph,
    by: &[Vec<PortId>],
) -> bool {
    let mut portless: BTreeMap<ChannelId, usize> = BTreeMap::new();
    let mut severed: BTreeMap<(SwitchId, SwitchId), usize> = BTreeMap::new();
    for s in specs {
        let mut path_ok = true;
        for &c in s.path.iter() {
            if by.get(c.index()).is_none_or(|ports| ports.is_empty()) {
                *portless.entry(c).or_insert(0) += 1;
                path_ok = false;
            }
        }
        if !path_ok || !fabric.has_uplinks() {
            continue;
        }
        for (k, &c) in s.path.iter().enumerate() {
            if k + 1 >= s.path.len() {
                continue;
            }
            let here = fabric.port(*by[c.index()].last().unwrap()).switch();
            let next = fabric
                .port(*by[s.path[k + 1].index()].first().unwrap())
                .switch();
            if here != next
                && (fabric.uplinks_up(here).is_empty() || fabric.uplinks_down(next).is_empty())
            {
                *severed.entry((here, next)).or_insert(0) += 1;
            }
        }
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
    portless.is_empty() && severed.is_empty()
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
        for &d in &t.deps {
            if d.index() < i {
                ready = ready.max(completion[d.index()]);
            }
        }
        completion[i] = ready + durations[i];
        best = best.max(completion[i]);
    }
    best
}

/// Per-channel total wormhole occupancy; returns the busiest channel.
fn channel_congestion(specs: &[TransferSpec], num_channels: usize) -> (Seconds, Option<ChannelId>) {
    let mut busy = vec![Seconds::ZERO; num_channels];
    for s in specs {
        let mut seen: Vec<ChannelId> = Vec::with_capacity(s.path.len());
        for &c in s.path.iter() {
            if c.index() < num_channels && !seen.contains(&c) {
                seen.push(c);
                busy[c.index()] += s.duration;
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

/// Transit time of a port route, mirroring the simulator's
/// `duration_on` float-for-float in both hop modes.
fn port_duration(
    fabric: &FabricGraph,
    route: &[PortId],
    bytes: ccube_topology::ByteSize,
    detour: bool,
    opts: &PhysicalAnalyzeOptions,
) -> Seconds {
    let timing = &opts.timing;
    if opts.store_forward {
        let mut total = Seconds::ZERO;
        for &p in route {
            let port = fabric.port(p);
            total += port.latency()
                + Seconds::new(
                    bytes.as_f64() / (port.bandwidth().as_bytes_per_sec() * timing.bandwidth_scale),
                );
        }
        if detour {
            total += timing.forwarding_latency;
        }
        total
    } else {
        let mut alpha = Seconds::ZERO;
        let mut bottleneck = f64::INFINITY;
        for &p in route {
            let port = fabric.port(p);
            alpha += port.latency();
            bottleneck = bottleneck.min(port.bandwidth().as_bytes_per_sec());
        }
        if detour {
            alpha += timing.forwarding_latency;
        }
        alpha + Seconds::new(bytes.as_f64() / (bottleneck * timing.bandwidth_scale))
    }
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
/// statically-striped port routes.
fn port_loads(
    specs: &[TransferSpec],
    fabric: &FabricGraph,
    opts: &PhysicalAnalyzeOptions,
) -> (PortLoads, Vec<Seconds>) {
    let timing = &opts.timing;
    let mut loads = PortLoads {
        endpoint: vec![Seconds::ZERO; fabric.num_ports()],
        pools: BTreeMap::new(),
    };
    let mut durations = Vec::with_capacity(specs.len());
    for s in specs {
        let route = fabric.port_route(&s.path);
        let duration = port_duration(fabric, &route, s.bytes, s.via.is_some(), opts);
        durations.push(duration);
        let mut seen: Vec<PortId> = Vec::with_capacity(route.len());
        for (h, &p) in route.iter().enumerate() {
            if seen.contains(&p) {
                continue;
            }
            seen.push(p);
            let port = fabric.port(p);
            // Cut-through holds the whole path for the full duration;
            // store-and-forward holds each port for its own hop (the
            // detour forwarding latency lands on the last hop, as in
            // the engine).
            let mut charge = if opts.store_forward {
                port.latency()
                    + Seconds::new(
                        s.bytes.as_f64()
                            / (port.bandwidth().as_bytes_per_sec() * timing.bandwidth_scale),
                    )
            } else {
                duration
            };
            if opts.store_forward && s.via.is_some() && h + 1 == route.len() {
                charge += timing.forwarding_latency;
            }
            match port.kind() {
                PortKind::UplinkUp => {
                    *loads
                        .pools
                        .entry((port.switch(), true))
                        .or_insert(Seconds::ZERO) += charge;
                }
                PortKind::UplinkDown => {
                    *loads
                        .pools
                        .entry((port.switch(), false))
                        .or_insert(Seconds::ZERO) += charge;
                }
                PortKind::Ingress | PortKind::Egress => {
                    loads.endpoint[p.index()] += charge;
                }
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
    let specs = lower_schedule(schedule, embedding, topo, timing).ok()?;
    let durations: Vec<Seconds> = specs.iter().map(|s| s.duration).collect();
    let cp = critical_path(schedule, &durations);
    let (congestion, _) = channel_congestion(&specs, topo.channels().len());
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
    let specs = lower_schedule(schedule, embedding, topo, &opts.timing).ok()?;
    let by = ports_by_channel(fabric);
    let mut scratch = LintReport::default();
    if !port_path_lints(&mut scratch, &specs, fabric, &by) {
        return None;
    }
    let (loads, durations) = port_loads(&specs, fabric, opts);
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
    let specs = match lower_schedule(schedule, embedding, topo, &LinkTiming::default()) {
        Ok(specs) => specs,
        Err(err) => {
            push_lower_error(&mut report, &err);
            return report.finish();
        }
    };
    let by = ports_by_channel(fabric);
    port_path_lints(&mut report, &specs, fabric, &by);
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
    let specs = match lower_schedule(schedule, embedding, topo, &opts.timing) {
        Ok(specs) => specs,
        Err(err) => {
            push_lower_error(&mut report, &err);
            return report.finish();
        }
    };

    // Channel-level bound (CC019) is computable whether or not the
    // fabric realizes the paths.
    let durations: Vec<Seconds> = specs.iter().map(|s| s.duration).collect();
    let cp = critical_path(schedule, &durations);
    let (congestion, hot) = channel_congestion(&specs, topo.channels().len());
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

    let by = ports_by_channel(fabric);
    if !port_path_lints(&mut report, &specs, fabric, &by) {
        // No physical realization: the port-level passes have nothing
        // sound to measure.
        return report.finish();
    }

    link_contention_lints(&mut report, schedule, &specs, topo, fabric);
    striping_lints(&mut report, &specs, fabric, &by);
    let (loads, port_durations) = port_loads(&specs, fabric, opts);
    oversubscription_lints(&mut report, &specs, fabric, &by, opts);

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
    specs: &[TransferSpec],
    topo: &Topology,
    fabric: &FabricGraph,
) {
    let mut edges_on: BTreeMap<PortId, Vec<EdgeKey>> = BTreeMap::new();
    for (i, s) in specs.iter().enumerate() {
        let t = &schedule.transfers()[i];
        let key = EdgeKey {
            src: t.src,
            dst: t.dst,
            tree: t.tree,
        };
        for p in fabric.port_route(&s.path) {
            let port = fabric.port(p);
            if !matches!(port.kind(), PortKind::Ingress | PortKind::Egress) {
                continue;
            }
            let Some(c) = port.channel() else { continue };
            if topo.channel(c).class() == ChannelClass::Nic {
                continue;
            }
            let edges = edges_on.entry(p).or_default();
            if !edges.contains(&key) {
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
    specs: &[TransferSpec],
    fabric: &FabricGraph,
    by: &[Vec<PortId>],
) {
    let k = fabric.uplinks_per_leaf();
    if !fabric.has_uplinks() || k < 2 {
        return;
    }
    let mut hist: BTreeMap<(SwitchId, bool), Vec<u32>> = BTreeMap::new();
    for x in crossings(specs, fabric, by) {
        hist.entry((x.up_leaf, true)).or_insert_with(|| vec![0; k])[x.slot] += 1;
        hist.entry((x.down_leaf, false))
            .or_insert_with(|| vec![0; k])[x.slot] += 1;
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
        let total: u32 = counts.iter().sum();
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
    specs: &[TransferSpec],
    fabric: &FabricGraph,
    by: &[Vec<PortId>],
    opts: &PhysicalAnalyzeOptions,
) {
    if !fabric.has_uplinks() || fabric.oversubscription() <= 1.0 {
        return;
    }
    let mut endpoint_drain = vec![Seconds::ZERO; fabric.num_ports()];
    for s in specs {
        let mut seen: Vec<PortId> = Vec::new();
        for p in fabric.port_route(&s.path) {
            let port = fabric.port(p);
            if !matches!(port.kind(), PortKind::Ingress | PortKind::Egress) || seen.contains(&p) {
                continue;
            }
            seen.push(p);
            endpoint_drain[p.index()] += Seconds::new(
                s.bytes.as_f64()
                    / (port.bandwidth().as_bytes_per_sec() * opts.timing.bandwidth_scale),
            );
        }
    }
    let endpoint_max = endpoint_drain
        .iter()
        .copied()
        .fold(Seconds::ZERO, Seconds::max);
    let mut offered: BTreeMap<(SwitchId, bool), ccube_topology::ByteSize> = BTreeMap::new();
    for x in crossings(specs, fabric, by) {
        let bytes = specs[x.spec].bytes;
        let up = offered
            .entry((x.up_leaf, true))
            .or_insert(ccube_topology::ByteSize::new(0));
        *up = ccube_topology::ByteSize::new(up.as_u64() + bytes.as_u64());
        let down = offered
            .entry((x.down_leaf, false))
            .or_insert(ccube_topology::ByteSize::new(0));
        *down = ccube_topology::ByteSize::new(down.as_u64() + bytes.as_u64());
    }
    let mut worst: Option<(Seconds, SwitchId, bool, ccube_topology::ByteSize)> = None;
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
