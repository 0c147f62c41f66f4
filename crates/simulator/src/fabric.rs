//! The switch-fabric network model.
//!
//! The channel approximation treats the scale-out interconnect as plain
//! channels in a [`ChannelPool`] — an ideal, non-blocking switch. A
//! [`NetworkModel`] selects between that approximation
//! ([`NetworkModel::ChannelApprox`], the default) and
//! [`NetworkModel::SwitchFabric`], which schedules transfers on the
//! port-level [`FabricGraph`] derived from the topology: per-port queues
//! with the same FIFO / chunk-priority arbitration, configurable leaf
//! radix and uplink oversubscription, spine/leaf uplink slots, and
//! cut-through or store-and-forward latency.
//!
//! The fabric is a resource mapping, not an engine of its own: the
//! scheduler (`sched.rs`) asks the `FabricMap` for each
//! transfer's port path and duration, and revises uplink slots at grant
//! time with `choose_uplinks`.
//!
//! **Equivalence contract**: under a passthrough fabric (no leaf split,
//! zero uplink latency, [`HopMode::CutThrough`]) every channel maps to
//! exactly one port with the channel's own bandwidth and latency, so
//! the scheduler performs the same pool operations in the same order as
//! under the channel approximation, and the results agree with it to
//! floating-point noise (well within the 1e-9 the cross-model tests
//! assert).

use crate::engine::SimOptions;
use crate::resource::ChannelPool;
use ccube_collectives::LinkTiming;
use ccube_topology::{
    ByteSize, ChannelId, FabricConfig, FabricGraph, PortId, PortKind, Seconds, Topology,
};

/// Per-hop latency accounting of the switch fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HopMode {
    /// Cut-through switching: a transfer occupies its whole port path at
    /// once (wormhole, like the channel approximation) and pays the sum
    /// of port latencies plus one serialization at the bottleneck port.
    #[default]
    CutThrough,
    /// Store-and-forward switching: every hop pays a full per-port
    /// serialization (`port latency + bytes / port bandwidth`), so a
    /// message crossing `h` ports pays `h` serializations. The transfer
    /// holds its whole port path for that summed time, like a
    /// cut-through wormhole.
    StoreForward,
}

/// How a transfer's uplink slot is (re)chosen when a leaf has more than
/// one uplink toward the spines.
///
/// The static default baked into port routes is hash striping by source
/// node ([`FabricGraph::port_route`]); the adaptive policies revise that
/// choice per transfer when it becomes ready, from the live per-port
/// state, in every run — healthy or faulted, under either
/// [`HopMode`]. A run that wants the static stripe asks for
/// [`UplinkPolicy::Hash`] (see [`NetworkModel::static_stripe`]).
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
    /// of the derived [`FabricGraph`], with per-port queues and uplink
    /// contention.
    SwitchFabric(FabricSpec),
}

impl NetworkModel {
    /// The same model with the static hash-striped uplink slots
    /// ([`UplinkPolicy::Hash`]): the healthy baseline of a study whose
    /// faulted runs steer adaptively. The channel approximation has no
    /// uplinks and is returned unchanged.
    #[must_use]
    pub fn static_stripe(self) -> NetworkModel {
        match self {
            NetworkModel::ChannelApprox => NetworkModel::ChannelApprox,
            NetworkModel::SwitchFabric(spec) => NetworkModel::SwitchFabric(FabricSpec {
                uplink_policy: UplinkPolicy::Hash,
                ..spec
            }),
        }
    }
}

/// The channel→port mapping the scheduler runs the switch fabric
/// through: its [`ChannelPool`] is sized over fabric ports and each
/// transfer occupies its port path, so uplink contention and fan-in
/// serialization shape timings.
pub(crate) struct FabricMap {
    /// The derived port graph.
    pub(crate) graph: FabricGraph,
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
            graph: FabricGraph::from_topology(topo, &spec.fabric_config()),
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

    /// [`FabricMap::duration`] over an already-expanded port route, for
    /// callers that also need the route itself.
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

/// Extracts the busy time of every uplink port from a per-port busy
/// vector, in port-id order — the
/// [`SimStats::uplink_busy`](crate::SimStats::uplink_busy) view.
pub(crate) fn uplink_busy_of(graph: &FabricGraph, port_busy: &[Seconds]) -> Vec<Seconds> {
    graph
        .ports()
        .iter()
        .filter(|p| p.uplink().is_some())
        .map(|p| port_busy[p.id().index()])
        .collect()
}
