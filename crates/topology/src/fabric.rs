//! Switch/port-level fabric graph for the componentized network model.
//!
//! The base [`Topology`] abstracts the scale-out interconnect as NIC
//! channels into an ideal, non-blocking switch fabric. This module derives
//! the *explicit* fabric behind those channels: leaf switches with
//! ingress/egress ports per attached node, and — when the configured radix
//! is smaller than the node count — uplink ports toward a spine crossbar,
//! optionally oversubscribed. The simulator's `SwitchFabric` network model
//! schedules transfers on these ports instead of on plain channels, which
//! makes fan-in serialization and uplink congestion visible.
//!
//! Two derivations exist:
//!
//! * **Switched** — for all-NIC topologies built by
//!   [`hierarchical`](crate::hierarchical) / [`nvswitch`](crate::nvswitch):
//!   nodes are grouped onto leaf switches of `radix` endpoints each; an
//!   injection channel becomes an ingress port on the source's leaf, an
//!   ejection channel an egress port on the destination's leaf, and
//!   cross-leaf messages additionally occupy the two leaves' uplink ports.
//! * **Degenerate** — for direct topologies ([`dgx1`](crate::dgx1),
//!   [`torus2d`](crate::torus2d)): one switch per GPU and exactly one port
//!   per channel, so the fabric is structurally identical to the channel
//!   graph. This is what makes the passthrough-equivalence contract easy
//!   to state: with radix ≥ nodes every fabric degenerates to one port per
//!   channel with the channel's own bandwidth and latency.

use crate::channel::{ChannelClass, ChannelId};
use crate::graph::{GpuId, Topology};
use crate::units::{Bandwidth, Seconds};
use std::fmt;

/// Identifier of a switch in a [`FabricGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SwitchId(pub u32);

impl SwitchId {
    /// The id as an array index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sw{}", self.0)
    }
}

/// Identifier of a port in a [`FabricGraph`]. Dense, usable as an index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub u32);

impl PortId {
    /// The id as an array index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "port{}", self.0)
    }
}

/// The role a port plays on its switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortKind {
    /// Endpoint-facing receive side: traffic entering the switch from a
    /// node's injection channel.
    Ingress,
    /// Endpoint-facing transmit side: traffic leaving the switch onto a
    /// node's ejection channel.
    Egress,
    /// Leaf-to-spine transmit port (shared by all cross-leaf senders on
    /// the leaf).
    UplinkUp,
    /// Spine-to-leaf receive port (shared by all cross-leaf receivers on
    /// the leaf).
    UplinkDown,
}

impl fmt::Display for PortKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortKind::Ingress => write!(f, "in"),
            PortKind::Egress => write!(f, "out"),
            PortKind::UplinkUp => write!(f, "up"),
            PortKind::UplinkDown => write!(f, "down"),
        }
    }
}

/// One step of [`FabricGraph::walk`] along a channel path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortStep {
    /// The next port the path occupies.
    Port(PortId),
    /// A channel of the path with no port on the fabric: fabric and
    /// topology disagree.
    Portless(ChannelId),
    /// Consecutive channels attach to different leaves, and one side has
    /// no uplink ports: the crossing has no physical route.
    NoUplink {
        /// The sender's leaf.
        from: SwitchId,
        /// The receiver's leaf.
        to: SwitchId,
    },
}

/// A single unidirectional switch port: one schedulable resource in the
/// `SwitchFabric` network model.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricPort {
    id: PortId,
    switch: SwitchId,
    kind: PortKind,
    /// The topology channel this port carries, for endpoint ports; uplink
    /// ports carry traffic from many channels and have none.
    channel: Option<ChannelId>,
    /// For uplink ports: the uplink slot on the leaf (`0..k`). Endpoint
    /// ports have none.
    uplink: Option<u32>,
    bandwidth: Bandwidth,
    latency: Seconds,
}

impl FabricPort {
    /// The port's id within its fabric.
    pub fn id(&self) -> PortId {
        self.id
    }

    /// The switch this port belongs to.
    pub fn switch(&self) -> SwitchId {
        self.switch
    }

    /// The port's role.
    pub fn kind(&self) -> PortKind {
        self.kind
    }

    /// The topology channel this port carries (endpoint ports only).
    pub fn channel(&self) -> Option<ChannelId> {
        self.channel
    }

    /// The uplink slot this port occupies on its leaf (uplink ports
    /// only): the up/down pair of slot `j` attaches to spine `j % S`.
    pub fn uplink(&self) -> Option<u32> {
        self.uplink
    }

    /// The port's peak bandwidth.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bandwidth
    }

    /// The port's fixed per-message latency.
    pub fn latency(&self) -> Seconds {
        self.latency
    }

    /// A short, stable label for traces (e.g. `"sw0.inc3"`, `"sw2.up0"`).
    pub fn label(&self) -> String {
        match (self.kind, self.channel, self.uplink) {
            (k, Some(c), _) => format!("{}.{}c{}", self.switch, k, c.0),
            (k, None, Some(j)) => format!("{}.{}{}", self.switch, k, j),
            (k, None, None) => format!("{}.{}", self.switch, k),
        }
    }
}

/// A switch: a set of ports plus its endpoint radix.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricSwitch {
    id: SwitchId,
    ports: Vec<PortId>,
    /// Nodes attached to this switch (empty for degenerate per-GPU
    /// switches with no NIC channels).
    nodes: Vec<GpuId>,
}

impl FabricSwitch {
    /// The switch's id within its fabric.
    pub fn id(&self) -> SwitchId {
        self.id
    }

    /// Ids of all ports on this switch, in creation order.
    pub fn ports(&self) -> &[PortId] {
        &self.ports
    }

    /// Nodes attached to this switch.
    pub fn nodes(&self) -> &[GpuId] {
        &self.nodes
    }
}

/// Configuration for deriving a [`FabricGraph`] from a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricConfig {
    /// Endpoints per leaf switch. `None` places every node on one switch
    /// (the passthrough shape: no uplinks, one port per channel).
    pub radix: Option<usize>,
    /// Uplink oversubscription ratio: an uplink's bandwidth is the sum of
    /// its leaf's ingress bandwidths divided by this. `1.0` is a fully
    /// provisioned (rearrangeably non-blocking) fabric.
    pub oversubscription: f64,
    /// Extra fixed latency charged per uplink port traversal. The
    /// endpoint ports inherit their channel's latency, so zero here keeps
    /// end-to-end latency identical to the channel approximation.
    pub uplink_latency: Seconds,
    /// Number of spine switches behind the leaves. Uplink slot `j` of
    /// every leaf attaches to spine `j % spines`, so a cross-leaf message
    /// must use the same slot on both leaves to stay on one spine.
    pub spines: usize,
    /// Uplink up/down pairs per leaf (`k`). The leaf's aggregate uplink
    /// capacity is fixed by the oversubscription ratio and split evenly
    /// across the `k` slots, so `k = 1` reproduces the single-uplink
    /// fabric exactly and the end-to-end duration of a transfer is
    /// independent of which slot carries it.
    pub uplinks_per_leaf: usize,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            radix: None,
            oversubscription: 1.0,
            uplink_latency: Seconds::ZERO,
            spines: 1,
            uplinks_per_leaf: 1,
        }
    }
}

impl FabricConfig {
    /// The passthrough configuration: one switch, no uplinks, zero extra
    /// latency. Under this shape the fabric must reproduce the channel
    /// approximation exactly.
    pub fn passthrough() -> Self {
        FabricConfig::default()
    }
}

/// The explicit switch/port-level graph behind a [`Topology`].
///
/// # Examples
///
/// ```
/// use ccube_topology::{hierarchical, FabricConfig, FabricGraph};
/// let topo = hierarchical(16);
/// // Passthrough: a single leaf switch, one port per NIC channel.
/// let fab = FabricGraph::from_topology(&topo, &FabricConfig::passthrough());
/// assert_eq!(fab.num_switches(), 1);
/// assert_eq!(fab.num_ports(), topo.channels().len());
/// // Radix 4: four leaves plus uplink ports toward the spine crossbar.
/// let cfg = FabricConfig { radix: Some(4), ..FabricConfig::default() };
/// let fab = FabricGraph::from_topology(&topo, &cfg);
/// assert_eq!(fab.num_switches(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct FabricGraph {
    switches: Vec<FabricSwitch>,
    ports: Vec<FabricPort>,
    /// Base port path per channel, indexed by channel id.
    ports_of_channel: Vec<Vec<PortId>>,
    /// Leaf switch of each node (switched fabrics only; in degenerate
    /// fabrics node `i` maps to switch `i`).
    leaf_of_node: Vec<SwitchId>,
    /// Per-switch uplink transmit ports by slot, empty if the fabric has
    /// no spine level.
    uplink_up: Vec<Vec<PortId>>,
    /// Per-switch uplink receive ports by slot, empty if the fabric has
    /// no spine level.
    uplink_down: Vec<Vec<PortId>>,
    oversubscription: f64,
    spines: usize,
    uplinks_per_leaf: usize,
    switched: bool,
}

impl FabricGraph {
    /// Derives the fabric behind `topo` under `cfg`.
    ///
    /// All-NIC topologies (from [`hierarchical`](crate::hierarchical) /
    /// [`nvswitch`](crate::nvswitch), whose channel layout is
    /// injection `2i` / ejection `2i+1`) become leaf switches of
    /// `cfg.radix` endpoints with uplinks when more than one leaf exists;
    /// anything else becomes the degenerate one-port-per-channel fabric.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.oversubscription` is not positive, a requested
    /// radix is zero, or the spine/uplink counts are zero.
    pub fn from_topology(topo: &Topology, cfg: &FabricConfig) -> FabricGraph {
        assert!(
            cfg.oversubscription > 0.0 && cfg.oversubscription.is_finite(),
            "oversubscription ratio must be positive and finite"
        );
        if let Some(r) = cfg.radix {
            assert!(r > 0, "leaf radix must be positive");
        }
        assert!(cfg.spines > 0, "spine count must be positive");
        assert!(
            cfg.uplinks_per_leaf > 0,
            "uplinks per leaf must be positive"
        );
        if is_nic_layout(topo) {
            build_switched(topo, cfg)
        } else {
            build_degenerate(topo)
        }
    }

    /// All switches, indexed by [`SwitchId::index`].
    pub fn switches(&self) -> &[FabricSwitch] {
        &self.switches
    }

    /// All ports, indexed by [`PortId::index`].
    pub fn ports(&self) -> &[FabricPort] {
        &self.ports
    }

    /// Number of switches.
    pub fn num_switches(&self) -> usize {
        self.switches.len()
    }

    /// Number of ports.
    pub fn num_ports(&self) -> usize {
        self.ports.len()
    }

    /// The port with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn port(&self, id: PortId) -> &FabricPort {
        &self.ports[id.index()]
    }

    /// The switch with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn switch(&self, id: SwitchId) -> &FabricSwitch {
        &self.switches[id.index()]
    }

    /// The leaf switch a node is attached to.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn leaf_of(&self, node: GpuId) -> SwitchId {
        self.leaf_of_node[node.index()]
    }

    /// The endpoint ports that carry `channel` (uplink ports excluded).
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn ports_for_channel(&self, channel: ChannelId) -> &[PortId] {
        &self.ports_of_channel[channel.index()]
    }

    /// True if this fabric has an explicit spine level (uplink ports).
    pub fn has_uplinks(&self) -> bool {
        self.uplink_up.iter().any(|u| !u.is_empty())
    }

    /// The configured uplink oversubscription ratio.
    pub fn oversubscription(&self) -> f64 {
        self.oversubscription
    }

    /// Number of spine switches behind the leaves.
    pub fn num_spines(&self) -> usize {
        self.spines
    }

    /// Uplink up/down pairs per leaf (`k`); `1` for fabrics without an
    /// explicit spine level.
    pub fn uplinks_per_leaf(&self) -> usize {
        self.uplinks_per_leaf
    }

    /// The spine switch that uplink slot `uplink` attaches to.
    pub fn spine_of_uplink(&self, uplink: u32) -> u32 {
        uplink % self.spines.max(1) as u32
    }

    /// The leaf-to-spine transmit ports of `leaf`, by uplink slot (empty
    /// when the fabric has no spine level).
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is out of range.
    pub fn uplinks_up(&self, leaf: SwitchId) -> &[PortId] {
        &self.uplink_up[leaf.index()]
    }

    /// The spine-to-leaf receive ports of `leaf`, by uplink slot (empty
    /// when the fabric has no spine level).
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is out of range.
    pub fn uplinks_down(&self, leaf: SwitchId) -> &[PortId] {
        &self.uplink_down[leaf.index()]
    }

    /// Walks a channel path onto this fabric, calling `step` once per
    /// port it occupies, in hop order, and once per gap in its physical
    /// realization. Endpoint ports come from the channels themselves;
    /// when two consecutive channels attach to different leaf switches,
    /// one of the sender leaf's uplink-up ports and the receiver leaf's
    /// uplink-down port of the *same slot* are inserted between them
    /// (both attach to the same spine, and the spine crossbar itself is
    /// non-blocking and contributes no port).
    ///
    /// With `k > 1` uplinks per leaf the slot is chosen by hash striping
    /// on the crossing's source channel — the static default that the
    /// simulator's `Hash` uplink policy keeps and its adaptive policies
    /// revise at grant time. `k = 1` always picks slot 0, reproducing the
    /// single-uplink route exactly.
    ///
    /// A channel without ports here (a fabric built from another
    /// topology) is a [`PortStep::Portless`] step, not a panic, and a
    /// leaf crossing without uplink ports a [`PortStep::NoUplink`] step.
    pub fn walk(&self, path: &[ChannelId], mut step: impl FnMut(PortStep)) {
        let ports = |c: ChannelId| {
            self.ports_of_channel
                .get(c.index())
                .map_or(&[][..], Vec::as_slice)
        };
        for (k, &c) in path.iter().enumerate() {
            let own = ports(c);
            if own.is_empty() {
                step(PortStep::Portless(c));
            }
            for &p in own {
                step(PortStep::Port(p));
            }
            let next = path.get(k + 1).and_then(|&n| ports(n).first());
            let (true, Some(&last), Some(&first)) = (self.switched, own.last(), next) else {
                continue;
            };
            let (here, next) = (
                self.ports[last.index()].switch,
                self.ports[first.index()].switch,
            );
            if here == next {
                continue;
            }
            let ups = &self.uplink_up[here.index()];
            let downs = &self.uplink_down[next.index()];
            if ups.is_empty() || downs.is_empty() {
                step(PortStep::NoUplink {
                    from: here,
                    to: next,
                });
                continue;
            }
            // NIC-layout injection channels are `2i` for source node `i`,
            // so striping on `c.0 / 2` spreads sources round-robin across
            // the uplink slots.
            let slot = (c.0 / 2) as usize % ups.len().min(downs.len());
            step(PortStep::Port(ups[slot]));
            step(PortStep::Port(downs[slot]));
        }
    }

    /// Expands a transfer's channel path into the ordered port path it
    /// occupies in this fabric: the [`PortStep::Port`] steps of
    /// [`FabricGraph::walk`]. Channels without ports and leaf crossings
    /// without uplinks contribute none.
    pub fn port_route(&self, path: &[ChannelId]) -> Vec<PortId> {
        let mut out = Vec::new();
        self.walk(path, |step| {
            if let PortStep::Port(p) = step {
                out.push(p);
            }
        });
        out
    }

    /// True if every channel maps to exactly one port with the channel's
    /// own bandwidth and latency, and no uplinks exist — the structural
    /// precondition for the equivalence contract with the channel
    /// approximation.
    pub fn is_passthrough(&self, topo: &Topology) -> bool {
        if self.has_uplinks() || self.ports.len() != topo.channels().len() {
            return false;
        }
        topo.channels().iter().all(|ch| {
            let ports = self.ports_for_channel(ch.id());
            ports.len() == 1 && {
                let p = &self.ports[ports[0].index()];
                p.bandwidth == ch.bandwidth() && p.latency == ch.latency()
            }
        })
    }
}

impl fmt::Display for FabricGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fabric ({} switches, {} ports{})",
            self.switches.len(),
            self.ports.len(),
            if self.has_uplinks() {
                format!(", {}x oversub", self.oversubscription)
            } else {
                String::new()
            }
        )
    }
}

/// True if `topo` follows the hierarchical NIC channel layout: all
/// channels NIC-class, two per node, injection `2i` sourced at node `i`
/// and ejection `2i+1` sunk at node `i`.
fn is_nic_layout(topo: &Topology) -> bool {
    let n = topo.num_gpus();
    if topo.channels().len() != 2 * n {
        return false;
    }
    topo.channels().iter().enumerate().all(|(idx, ch)| {
        ch.class() == ChannelClass::Nic
            && if idx % 2 == 0 {
                ch.src().index() * 2 == idx
            } else {
                ch.dst().index() * 2 + 1 == idx
            }
    })
}

fn build_switched(topo: &Topology, cfg: &FabricConfig) -> FabricGraph {
    let n = topo.num_gpus();
    let radix = cfg.radix.unwrap_or(n).max(1);
    let num_leaves = n.div_ceil(radix);
    let mut ports: Vec<FabricPort> = Vec::new();
    let mut ports_of_channel: Vec<Vec<PortId>> = vec![Vec::new(); topo.channels().len()];
    let mut switches: Vec<FabricSwitch> = Vec::new();
    let mut leaf_of_node: Vec<SwitchId> = Vec::with_capacity(n);
    let mut uplink_up: Vec<Vec<PortId>> = Vec::with_capacity(num_leaves);
    let mut uplink_down: Vec<Vec<PortId>> = Vec::with_capacity(num_leaves);
    for leaf in 0..num_leaves {
        let sid = SwitchId(leaf as u32);
        let members: Vec<GpuId> = (leaf * radix..((leaf + 1) * radix).min(n))
            .map(|i| GpuId(i as u32))
            .collect();
        let mut sw_ports = Vec::new();
        let mut ingress_bw = 0.0f64;
        for &node in &members {
            leaf_of_node.push(sid);
            // Ingress port: carries the node's injection channel.
            let inj = ChannelId(node.0 * 2);
            let ch = topo.channel(inj);
            ingress_bw += ch.bandwidth().as_bytes_per_sec();
            let pid = PortId(ports.len() as u32);
            ports.push(FabricPort {
                id: pid,
                switch: sid,
                kind: PortKind::Ingress,
                channel: Some(inj),
                uplink: None,
                bandwidth: ch.bandwidth(),
                latency: ch.latency(),
            });
            ports_of_channel[inj.index()].push(pid);
            sw_ports.push(pid);
            // Egress port: carries the node's ejection channel.
            let ej = ChannelId(node.0 * 2 + 1);
            let ch = topo.channel(ej);
            let pid = PortId(ports.len() as u32);
            ports.push(FabricPort {
                id: pid,
                switch: sid,
                kind: PortKind::Egress,
                channel: Some(ej),
                uplink: None,
                bandwidth: ch.bandwidth(),
                latency: ch.latency(),
            });
            ports_of_channel[ej.index()].push(pid);
            sw_ports.push(pid);
        }
        if num_leaves > 1 {
            // Uplink pairs toward the spine switches. Fully provisioned,
            // the leaf's *aggregate* uplink capacity matches its aggregate
            // ingress bandwidth; oversubscription divides it down and the
            // `k` slots split it evenly, so the total is invariant in `k`
            // and slot choice never changes a transfer's serialization.
            let k = cfg.uplinks_per_leaf;
            let bw = Bandwidth::bytes_per_sec(
                (ingress_bw / (cfg.oversubscription * k as f64)).max(f64::MIN_POSITIVE),
            );
            let mut ups = Vec::with_capacity(k);
            let mut downs = Vec::with_capacity(k);
            for slot in 0..k as u32 {
                let up = PortId(ports.len() as u32);
                ports.push(FabricPort {
                    id: up,
                    switch: sid,
                    kind: PortKind::UplinkUp,
                    channel: None,
                    uplink: Some(slot),
                    bandwidth: bw,
                    latency: cfg.uplink_latency,
                });
                sw_ports.push(up);
                ups.push(up);
                let down = PortId(ports.len() as u32);
                ports.push(FabricPort {
                    id: down,
                    switch: sid,
                    kind: PortKind::UplinkDown,
                    channel: None,
                    uplink: Some(slot),
                    bandwidth: bw,
                    latency: cfg.uplink_latency,
                });
                sw_ports.push(down);
                downs.push(down);
            }
            uplink_up.push(ups);
            uplink_down.push(downs);
        } else {
            uplink_up.push(Vec::new());
            uplink_down.push(Vec::new());
        }
        switches.push(FabricSwitch {
            id: sid,
            ports: sw_ports,
            nodes: members,
        });
    }
    FabricGraph {
        switches,
        ports,
        ports_of_channel,
        leaf_of_node,
        uplink_up,
        uplink_down,
        oversubscription: cfg.oversubscription,
        spines: cfg.spines,
        uplinks_per_leaf: cfg.uplinks_per_leaf,
        switched: true,
    }
}

fn build_degenerate(topo: &Topology) -> FabricGraph {
    let n = topo.num_gpus();
    let mut ports = Vec::with_capacity(topo.channels().len());
    let mut ports_of_channel = vec![Vec::new(); topo.channels().len()];
    let mut switches: Vec<FabricSwitch> = (0..n)
        .map(|i| FabricSwitch {
            id: SwitchId(i as u32),
            ports: Vec::new(),
            nodes: vec![GpuId(i as u32)],
        })
        .collect();
    for ch in topo.channels() {
        // The port lives on the transmitting GPU's switch: a direct link's
        // single arbitration point is its send side.
        let sid = SwitchId(ch.src().0);
        let pid = PortId(ports.len() as u32);
        ports.push(FabricPort {
            id: pid,
            switch: sid,
            kind: PortKind::Egress,
            channel: Some(ch.id()),
            uplink: None,
            bandwidth: ch.bandwidth(),
            latency: ch.latency(),
        });
        ports_of_channel[ch.id().index()].push(pid);
        switches[sid.index()].ports.push(pid);
    }
    FabricGraph {
        switches,
        ports,
        ports_of_channel,
        leaf_of_node: (0..n).map(|i| SwitchId(i as u32)).collect(),
        uplink_up: vec![Vec::new(); n],
        uplink_down: vec![Vec::new(); n],
        oversubscription: 1.0,
        spines: 1,
        uplinks_per_leaf: 1,
        switched: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dgx1::dgx1;
    use crate::hierarchical::{hierarchical, nic_path, nvswitch};
    use crate::torus::torus2d;

    #[test]
    fn passthrough_hierarchical_is_one_port_per_channel() {
        let topo = hierarchical(16);
        let fab = FabricGraph::from_topology(&topo, &FabricConfig::passthrough());
        assert_eq!(fab.num_switches(), 1);
        assert_eq!(fab.num_ports(), topo.channels().len());
        assert!(!fab.has_uplinks());
        assert!(fab.is_passthrough(&topo));
        // port_route == channel path, one port per channel, same order
        let path = nic_path(GpuId(3), GpuId(9));
        let route = fab.port_route(&path);
        assert_eq!(route.len(), 2);
        for (c, p) in path.iter().zip(&route) {
            assert_eq!(fab.port(*p).channel(), Some(*c));
        }
    }

    #[test]
    fn small_radix_builds_leaves_and_uplinks() {
        let topo = hierarchical(16);
        let cfg = FabricConfig {
            radix: Some(4),
            ..FabricConfig::default()
        };
        let fab = FabricGraph::from_topology(&topo, &cfg);
        assert_eq!(fab.num_switches(), 4);
        assert!(fab.has_uplinks());
        assert!(!fab.is_passthrough(&topo));
        // 16 nodes x 2 endpoint ports + 4 leaves x 2 uplink ports
        assert_eq!(fab.num_ports(), 40);
        assert_eq!(fab.leaf_of(GpuId(5)), SwitchId(1));
        // Cross-leaf message occupies ingress, both uplinks, egress.
        let route = fab.port_route(&nic_path(GpuId(0), GpuId(5)));
        assert_eq!(route.len(), 4);
        assert_eq!(fab.port(route[0]).kind(), PortKind::Ingress);
        assert_eq!(fab.port(route[1]).kind(), PortKind::UplinkUp);
        assert_eq!(fab.port(route[1]).switch(), SwitchId(0));
        assert_eq!(fab.port(route[2]).kind(), PortKind::UplinkDown);
        assert_eq!(fab.port(route[2]).switch(), SwitchId(1));
        assert_eq!(fab.port(route[3]).kind(), PortKind::Egress);
        // Intra-leaf message never leaves the leaf.
        let route = fab.port_route(&nic_path(GpuId(0), GpuId(3)));
        assert_eq!(route.len(), 2);
    }

    #[test]
    fn oversubscription_divides_uplink_bandwidth() {
        let topo = hierarchical(16);
        let full = FabricConfig {
            radix: Some(4),
            ..FabricConfig::default()
        };
        let half = FabricConfig {
            radix: Some(4),
            oversubscription: 2.0,
            ..FabricConfig::default()
        };
        let f1 = FabricGraph::from_topology(&topo, &full);
        let f2 = FabricGraph::from_topology(&topo, &half);
        let up1 = f1
            .ports()
            .iter()
            .find(|p| p.kind() == PortKind::UplinkUp)
            .unwrap();
        let up2 = f2
            .ports()
            .iter()
            .find(|p| p.kind() == PortKind::UplinkUp)
            .unwrap();
        assert!(
            (up1.bandwidth().as_bytes_per_sec() / up2.bandwidth().as_bytes_per_sec() - 2.0).abs()
                < 1e-9
        );
        // Fully provisioned: uplink carries the leaf's aggregate ingress.
        let nic_bw = topo.channel(ChannelId(0)).bandwidth().as_bytes_per_sec();
        assert!((up1.bandwidth().as_bytes_per_sec() - 4.0 * nic_bw).abs() < 1e-3);
    }

    #[test]
    fn direct_topologies_are_degenerate() {
        for topo in [dgx1(), torus2d(4, 4)] {
            let fab = FabricGraph::from_topology(&topo, &FabricConfig::passthrough());
            assert_eq!(fab.num_switches(), topo.num_gpus());
            assert_eq!(fab.num_ports(), topo.channels().len());
            assert!(fab.is_passthrough(&topo));
            for ch in topo.channels() {
                let ports = fab.ports_for_channel(ch.id());
                assert_eq!(ports.len(), 1);
                let p = fab.port(ports[0]);
                assert_eq!(p.bandwidth(), ch.bandwidth());
                assert_eq!(p.latency(), ch.latency());
                assert_eq!(p.switch(), SwitchId(ch.src().0));
            }
        }
    }

    #[test]
    fn nvswitch_is_switched_nic_layout() {
        let topo = nvswitch(8);
        let fab = FabricGraph::from_topology(&topo, &FabricConfig::passthrough());
        assert_eq!(fab.num_switches(), 1);
        assert!(fab.is_passthrough(&topo));
    }

    #[test]
    fn radix_override_larger_than_nodes_is_passthrough() {
        let topo = hierarchical(8);
        let cfg = FabricConfig {
            radix: Some(64),
            ..FabricConfig::default()
        };
        let fab = FabricGraph::from_topology(&topo, &cfg);
        assert!(fab.is_passthrough(&topo));
    }

    #[test]
    fn labels_are_stable_and_readable() {
        let topo = hierarchical(4);
        let cfg = FabricConfig {
            radix: Some(2),
            ..FabricConfig::default()
        };
        let fab = FabricGraph::from_topology(&topo, &cfg);
        let labels: Vec<String> = fab.ports().iter().map(FabricPort::label).collect();
        assert!(labels.contains(&"sw0.inc0".to_string()));
        assert!(labels.contains(&"sw1.up0".to_string()));
        assert!(labels.contains(&"sw1.down0".to_string()));
    }

    #[test]
    fn multi_uplink_ports_split_leaf_capacity() {
        let topo = hierarchical(16);
        let one = FabricConfig {
            radix: Some(4),
            ..FabricConfig::default()
        };
        let two = FabricConfig {
            radix: Some(4),
            spines: 2,
            uplinks_per_leaf: 2,
            ..FabricConfig::default()
        };
        let f1 = FabricGraph::from_topology(&topo, &one);
        let f2 = FabricGraph::from_topology(&topo, &two);
        // 16 nodes x 2 endpoint ports + 4 leaves x 2 slots x 2 ports.
        assert_eq!(f2.num_ports(), 48);
        assert_eq!(f2.uplinks_per_leaf(), 2);
        assert_eq!(f2.num_spines(), 2);
        assert_eq!(f2.uplinks_up(SwitchId(0)).len(), 2);
        assert_eq!(f2.uplinks_down(SwitchId(3)).len(), 2);
        assert_eq!(f2.spine_of_uplink(0), 0);
        assert_eq!(f2.spine_of_uplink(1), 1);
        // Aggregate uplink capacity is invariant in k: each of the two
        // slots carries half the single uplink's bandwidth.
        let bw1 = f1.port(f1.uplinks_up(SwitchId(0))[0]).bandwidth();
        let bw2 = f2.port(f2.uplinks_up(SwitchId(0))[0]).bandwidth();
        assert!((bw1.as_bytes_per_sec() / bw2.as_bytes_per_sec() - 2.0).abs() < 1e-9);
        for p in f2.ports() {
            match p.kind() {
                PortKind::UplinkUp | PortKind::UplinkDown => assert!(p.uplink().is_some()),
                _ => assert_eq!(p.uplink(), None),
            }
        }
    }

    #[test]
    fn multi_uplink_routes_stripe_by_source_and_stay_on_one_spine() {
        let topo = hierarchical(16);
        let cfg = FabricConfig {
            radix: Some(4),
            spines: 2,
            uplinks_per_leaf: 2,
            ..FabricConfig::default()
        };
        let fab = FabricGraph::from_topology(&topo, &cfg);
        // Source node 0 -> slot 0, source node 1 -> slot 1.
        for (src, slot) in [(GpuId(0), 0), (GpuId(1), 1)] {
            let route = fab.port_route(&nic_path(src, GpuId(9)));
            assert_eq!(route.len(), 4);
            let up = fab.port(route[1]);
            let down = fab.port(route[2]);
            assert_eq!(up.kind(), PortKind::UplinkUp);
            assert_eq!(down.kind(), PortKind::UplinkDown);
            assert_eq!(up.uplink(), Some(slot));
            // Up and down legs share the slot, hence the spine.
            assert_eq!(up.uplink(), down.uplink());
        }
        // Intra-leaf traffic still bypasses the spine entirely.
        assert_eq!(fab.port_route(&nic_path(GpuId(0), GpuId(3))).len(), 2);
    }

    #[test]
    fn walk_reports_a_channel_the_fabric_lacks_instead_of_panicking() {
        // A fabric built from a smaller topology has no ports for node
        // 9's channels.
        let fab = FabricGraph::from_topology(
            &hierarchical(8),
            &FabricConfig {
                radix: Some(4),
                ..FabricConfig::default()
            },
        );
        let path = nic_path(GpuId(1), GpuId(9));
        let mut steps = Vec::new();
        fab.walk(&path, |step| steps.push(step));
        let ingress = fab.ports_for_channel(path[0])[0];
        assert_eq!(
            steps,
            [PortStep::Port(ingress), PortStep::Portless(path[1])]
        );
        assert_eq!(fab.port_route(&path), [ingress]);
    }

    #[test]
    fn single_uplink_config_matches_legacy_shape() {
        let topo = hierarchical(16);
        let cfg = FabricConfig {
            radix: Some(4),
            ..FabricConfig::default()
        };
        let fab = FabricGraph::from_topology(&topo, &cfg);
        // k = 1 keeps the legacy port count and always picks slot 0.
        assert_eq!(fab.num_ports(), 40);
        assert_eq!(fab.uplinks_per_leaf(), 1);
        for src in 0..4 {
            let route = fab.port_route(&nic_path(GpuId(src), GpuId(9)));
            assert_eq!(fab.port(route[1]).uplink(), Some(0));
        }
    }

    #[test]
    #[should_panic(expected = "uplinks per leaf")]
    fn zero_uplinks_per_leaf_panics() {
        let topo = hierarchical(4);
        let cfg = FabricConfig {
            uplinks_per_leaf: 0,
            ..FabricConfig::default()
        };
        let _ = FabricGraph::from_topology(&topo, &cfg);
    }

    #[test]
    #[should_panic(expected = "oversubscription")]
    fn non_positive_oversubscription_panics() {
        let topo = hierarchical(4);
        let cfg = FabricConfig {
            oversubscription: 0.0,
            ..FabricConfig::default()
        };
        let _ = FabricGraph::from_topology(&topo, &cfg);
    }
}
