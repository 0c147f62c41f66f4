//! The topology multigraph and its builder.

use crate::channel::{Channel, ChannelClass, ChannelId};
use crate::error::TopologyError;
use crate::units::{Bandwidth, Seconds};
use std::fmt;

/// Identifier of a GPU (or, in scale-out topologies, a node) in a topology.
///
/// # Examples
///
/// ```
/// use ccube_topology::GpuId;
/// let g = GpuId(3);
/// assert_eq!(g.index(), 3);
/// assert_eq!(format!("{g}"), "gpu3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GpuId(pub u32);

impl GpuId {
    /// The id as an array index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gpu{}", self.0)
    }
}

impl From<u32> for GpuId {
    fn from(v: u32) -> Self {
        GpuId(v)
    }
}

/// A physical interconnect topology: a directed multigraph of
/// unidirectional [`Channel`]s between GPUs.
///
/// Multi-edges are first-class: the DGX-1 connects some GPU pairs with two
/// NVLinks (e.g. GPU2–GPU3), which the paper exploits to run an overlapped
/// *double* tree. Query all parallel channels between a pair with
/// [`Topology::channels_between`].
///
/// Build instances with [`TopologyBuilder`], or use the ready-made
/// [`dgx1`](crate::dgx1) / [`hierarchical`](crate::hierarchical) factories.
#[derive(Debug, Clone)]
pub struct Topology {
    name: String,
    num_gpus: usize,
    channels: Vec<Channel>,
    /// Outgoing channel ids per GPU, in insertion order.
    outgoing: Vec<Vec<ChannelId>>,
    /// Incoming channel ids per GPU, in insertion order.
    incoming: Vec<Vec<ChannelId>>,
}

impl Topology {
    /// A human-readable topology name (e.g. `"dgx1"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of GPUs (nodes) in the topology.
    pub fn num_gpus(&self) -> usize {
        self.num_gpus
    }

    /// All channels, indexed by [`ChannelId::index`].
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// The channel with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this topology.
    pub fn channel(&self, id: ChannelId) -> &Channel {
        &self.channels[id.index()]
    }

    /// Ids of channels leaving `gpu`.
    ///
    /// # Panics
    ///
    /// Panics if `gpu` is not in the topology.
    pub fn outgoing(&self, gpu: GpuId) -> &[ChannelId] {
        &self.outgoing[gpu.index()]
    }

    /// Ids of channels arriving at `gpu`.
    ///
    /// # Panics
    ///
    /// Panics if `gpu` is not in the topology.
    pub fn incoming(&self, gpu: GpuId) -> &[ChannelId] {
        &self.incoming[gpu.index()]
    }

    /// All parallel channels from `src` to `dst` (possibly empty).
    ///
    /// # Examples
    ///
    /// ```
    /// use ccube_topology::{dgx1, ChannelClass, GpuId};
    /// let topo = dgx1();
    /// // GPU2-GPU3 is one of the doubled NVLink pairs in the DGX-1.
    /// let nvlinks = topo
    ///     .channels_between(GpuId(2), GpuId(3))
    ///     .into_iter()
    ///     .filter(|&c| topo.channel(c).class() == ChannelClass::NvLink)
    ///     .count();
    /// assert_eq!(nvlinks, 2);
    /// ```
    pub fn channels_between(&self, src: GpuId, dst: GpuId) -> Vec<ChannelId> {
        self.outgoing
            .get(src.index())
            .map(|chs| {
                chs.iter()
                    .copied()
                    .filter(|&c| self.channel(c).dst() == dst)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// True if at least one direct channel exists from `src` to `dst`.
    pub fn has_direct(&self, src: GpuId, dst: GpuId) -> bool {
        !self.channels_between(src, dst).is_empty()
    }

    /// True if `channels` is a contiguous hop chain from `src` to `dst`:
    /// non-empty, every id in range, the first hop leaves `src`, each hop
    /// starts where the previous one ended, and the last hop arrives at
    /// `dst`. This is the shape every GPU-to-GPU route must have; NIC
    /// routes in a [`hierarchical`](crate::hierarchical) topology follow
    /// the injection/ejection convention instead and are validated by
    /// endpoints only.
    ///
    /// # Examples
    ///
    /// ```
    /// use ccube_topology::{dgx1, GpuId};
    /// let topo = dgx1();
    /// let hop = topo.channels_between(GpuId(2), GpuId(3))[0];
    /// assert!(topo.is_path(GpuId(2), GpuId(3), &[hop]));
    /// assert!(!topo.is_path(GpuId(3), GpuId(2), &[hop]));
    /// ```
    pub fn is_path(&self, src: GpuId, dst: GpuId, channels: &[ChannelId]) -> bool {
        if channels.is_empty() || channels.iter().any(|c| c.index() >= self.channels.len()) {
            return false;
        }
        let mut at = src;
        for &c in channels {
            let ch = self.channel(c);
            if ch.src() != at {
                return false;
            }
            at = ch.dst();
        }
        at == dst
    }

    /// Direct neighbors reachable from `gpu` (deduplicated, sorted).
    pub fn neighbors(&self, gpu: GpuId) -> Vec<GpuId> {
        let mut out: Vec<GpuId> = self.outgoing[gpu.index()]
            .iter()
            .map(|&c| self.channel(c).dst())
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Aggregate outgoing bandwidth of `gpu` over non-host channels.
    pub fn injection_bandwidth(&self, gpu: GpuId) -> Bandwidth {
        let total: f64 = self.outgoing[gpu.index()]
            .iter()
            .map(|&c| self.channel(c))
            .filter(|ch| ch.class() != ChannelClass::HostBridge)
            .map(|ch| ch.bandwidth().as_bytes_per_sec())
            .sum();
        Bandwidth::bytes_per_sec(total.max(f64::MIN_POSITIVE))
    }

    /// Validates that a GPU id belongs to this topology.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownGpu`] if out of range.
    pub fn check_gpu(&self, gpu: GpuId) -> Result<(), TopologyError> {
        if gpu.index() < self.num_gpus {
            Ok(())
        } else {
            Err(TopologyError::UnknownGpu {
                gpu,
                num_gpus: self.num_gpus,
            })
        }
    }

    /// Renders the topology as Graphviz DOT (one edge per bidirectional
    /// link pair; unpaired channels appear as directed edges). Handy for
    /// eyeballing generated machines:
    /// `cargo run --bin ccube -- rings | dot -Tsvg`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ccube_topology::dgx1;
    /// let dot = dgx1().to_dot();
    /// assert!(dot.starts_with("graph dgx1"));
    /// assert!(dot.contains("g2 -- g3"));
    /// ```
    pub fn to_dot(&self) -> String {
        use std::collections::BTreeMap;
        use std::fmt::Write as _;
        let mut out = String::new();
        let name: String = self
            .name
            .chars()
            .map(|c| if c.is_alphanumeric() { c } else { '_' })
            .collect();
        let _ = writeln!(out, "graph {name} {{");
        let _ = writeln!(out, "  layout=circo;");
        // Count channels per undirected pair and class, in (pair, class)
        // order.
        let mut pairs: BTreeMap<(u32, u32, ChannelClass), usize> = BTreeMap::new();
        for ch in &self.channels {
            let (a, b) = (ch.src().0.min(ch.dst().0), ch.src().0.max(ch.dst().0));
            *pairs.entry((a, b, ch.class())).or_insert(0) += 1;
        }
        for ((a, b, class), channels) in pairs {
            // two channels = one bidirectional link
            let links = channels.div_ceil(2);
            let style = match class {
                ChannelClass::NvLink => "solid",
                ChannelClass::Nic => "dashed",
                ChannelClass::HostBridge => "dotted",
            };
            for _ in 0..links {
                let _ = writeln!(out, "  g{a} -- g{b} [style={style}];");
            }
        }
        let _ = writeln!(out, "}}");
        out
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} gpus, {} channels)",
            self.name,
            self.num_gpus,
            self.channels.len()
        )
    }
}

/// Builder for [`Topology`].
///
/// # Examples
///
/// ```
/// use ccube_topology::{TopologyBuilder, GpuId, Bandwidth, Seconds, ChannelClass};
///
/// # fn main() -> Result<(), ccube_topology::TopologyError> {
/// let mut b = TopologyBuilder::new("pair", 2);
/// b.bidirectional(
///     GpuId(0),
///     GpuId(1),
///     Bandwidth::gb_per_sec(25.0),
///     Seconds::from_micros(1.5),
///     ChannelClass::NvLink,
/// )?;
/// let topo = b.build()?;
/// assert_eq!(topo.channels().len(), 2); // one per direction
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    name: String,
    num_gpus: usize,
    channels: Vec<Channel>,
}

impl TopologyBuilder {
    /// Starts a topology with `num_gpus` nodes and no channels.
    pub fn new(name: impl Into<String>, num_gpus: usize) -> Self {
        TopologyBuilder {
            name: name.into(),
            num_gpus,
            channels: Vec::new(),
        }
    }

    fn check(&self, gpu: GpuId) -> Result<(), TopologyError> {
        if gpu.index() < self.num_gpus {
            Ok(())
        } else {
            Err(TopologyError::UnknownGpu {
                gpu,
                num_gpus: self.num_gpus,
            })
        }
    }

    /// Adds one unidirectional channel and returns its id.
    ///
    /// # Errors
    ///
    /// Returns an error if an endpoint is out of range or `src == dst`.
    pub fn channel(
        &mut self,
        src: GpuId,
        dst: GpuId,
        bandwidth: Bandwidth,
        latency: Seconds,
        class: ChannelClass,
    ) -> Result<ChannelId, TopologyError> {
        self.check(src)?;
        self.check(dst)?;
        if src == dst {
            return Err(TopologyError::SelfLoop(src));
        }
        let id = ChannelId(self.channels.len() as u32);
        self.channels
            .push(Channel::new(id, src, dst, bandwidth, latency, class));
        Ok(id)
    }

    /// Adds a bidirectional link as two unidirectional channels and returns
    /// their ids as `(a_to_b, b_to_a)`.
    ///
    /// # Errors
    ///
    /// Returns an error if an endpoint is out of range or `a == b`.
    pub fn bidirectional(
        &mut self,
        a: GpuId,
        b: GpuId,
        bandwidth: Bandwidth,
        latency: Seconds,
        class: ChannelClass,
    ) -> Result<(ChannelId, ChannelId), TopologyError> {
        let ab = self.channel(a, b, bandwidth, latency, class)?;
        let ba = self.channel(b, a, bandwidth, latency, class)?;
        Ok((ab, ba))
    }

    /// Finalizes the topology.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidParameter`] for an empty topology.
    pub fn build(self) -> Result<Topology, TopologyError> {
        if self.num_gpus == 0 {
            return Err(TopologyError::InvalidParameter(
                "topology must contain at least one gpu".into(),
            ));
        }
        let mut outgoing = vec![Vec::new(); self.num_gpus];
        let mut incoming = vec![Vec::new(); self.num_gpus];
        for ch in &self.channels {
            outgoing[ch.src().index()].push(ch.id());
            incoming[ch.dst().index()].push(ch.id());
        }
        Ok(Topology {
            name: self.name,
            num_gpus: self.num_gpus,
            channels: self.channels,
            outgoing,
            incoming,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nv() -> (Bandwidth, Seconds) {
        (Bandwidth::gb_per_sec(25.0), Seconds::from_micros(1.5))
    }

    fn triangle() -> Topology {
        let (bw, lat) = nv();
        let mut b = TopologyBuilder::new("tri", 3);
        b.bidirectional(GpuId(0), GpuId(1), bw, lat, ChannelClass::NvLink)
            .unwrap();
        b.bidirectional(GpuId(1), GpuId(2), bw, lat, ChannelClass::NvLink)
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn dot_lists_each_pairs_classes_in_a_fixed_order() {
        let dot = crate::dgx1::dgx1().to_dot();
        let head: Vec<&str> = dot.lines().take(9).collect();
        // NVLink before host bridge within every pair (0-3 and 0-4 are
        // doubled NVLinks).
        assert_eq!(
            head,
            [
                "graph dgx1 {",
                "  layout=circo;",
                "  g0 -- g1 [style=solid];",
                "  g0 -- g1 [style=dotted];",
                "  g0 -- g2 [style=solid];",
                "  g0 -- g2 [style=dotted];",
                "  g0 -- g3 [style=solid];",
                "  g0 -- g3 [style=solid];",
                "  g0 -- g3 [style=dotted];",
            ],
            "{dot}"
        );
    }

    #[test]
    fn builder_assigns_dense_ids() {
        let topo = triangle();
        for (i, ch) in topo.channels().iter().enumerate() {
            assert_eq!(ch.id().index(), i);
        }
    }

    #[test]
    fn adjacency_is_consistent() {
        let topo = triangle();
        assert_eq!(topo.outgoing(GpuId(1)).len(), 2);
        assert_eq!(topo.incoming(GpuId(1)).len(), 2);
        assert_eq!(topo.neighbors(GpuId(1)), vec![GpuId(0), GpuId(2)]);
        assert!(topo.has_direct(GpuId(0), GpuId(1)));
        assert!(!topo.has_direct(GpuId(0), GpuId(2)));
    }

    #[test]
    fn multi_edges_are_preserved() {
        let (bw, lat) = nv();
        let mut b = TopologyBuilder::new("double", 2);
        b.bidirectional(GpuId(0), GpuId(1), bw, lat, ChannelClass::NvLink)
            .unwrap();
        b.bidirectional(GpuId(0), GpuId(1), bw, lat, ChannelClass::NvLink)
            .unwrap();
        let topo = b.build().unwrap();
        assert_eq!(topo.channels_between(GpuId(0), GpuId(1)).len(), 2);
        assert_eq!(topo.channels_between(GpuId(1), GpuId(0)).len(), 2);
        // neighbors() deduplicates
        assert_eq!(topo.neighbors(GpuId(0)), vec![GpuId(1)]);
    }

    #[test]
    fn self_loops_are_rejected() {
        let (bw, lat) = nv();
        let mut b = TopologyBuilder::new("x", 2);
        let err = b
            .channel(GpuId(0), GpuId(0), bw, lat, ChannelClass::NvLink)
            .unwrap_err();
        assert_eq!(err, TopologyError::SelfLoop(GpuId(0)));
    }

    #[test]
    fn out_of_range_gpus_are_rejected() {
        let (bw, lat) = nv();
        let mut b = TopologyBuilder::new("x", 2);
        let err = b
            .channel(GpuId(0), GpuId(5), bw, lat, ChannelClass::NvLink)
            .unwrap_err();
        assert!(matches!(err, TopologyError::UnknownGpu { .. }));
    }

    #[test]
    fn empty_topology_is_rejected() {
        let err = TopologyBuilder::new("none", 0).build().unwrap_err();
        assert!(matches!(err, TopologyError::InvalidParameter(_)));
    }

    #[test]
    fn injection_bandwidth_sums_links() {
        let topo = triangle();
        let bw = topo.injection_bandwidth(GpuId(1));
        assert!((bw.as_gb_per_sec() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn check_gpu_validates_range() {
        let topo = triangle();
        assert!(topo.check_gpu(GpuId(2)).is_ok());
        assert!(topo.check_gpu(GpuId(3)).is_err());
    }
}
