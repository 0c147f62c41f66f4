//! Lowering of logical schedules to physical transfer events.
//!
//! A [`Schedule`] is purely logical: transfers name ranks and chunks but
//! know nothing about channels or wall-clock time. Before any engine can
//! replay one, every transfer must be resolved against an [`Embedding`]
//! and a [`Topology`]: the channel path it occupies, the intermediate GPU
//! it detours through (if any), and its wormhole duration
//! `Σ per-hop latency (+ forwarding latency for detours)
//!  + bytes / (bottleneck bandwidth × bandwidth_scale)`.
//!
//! [`PreparedLowering`] does the resolution once per logical edge: once
//! per entry of [`Schedule::edges`], which every transfer names by index
//! ([`Transfer::edge`](crate::Transfer::edge)), so a transfer's route is
//! found without a lookup. The scheduler of `ccube-sim`, the physical
//! analyzer and its certified bounds ([`crate::physical`]) and fault
//! severance (`ccube_sim::analyze_severance`) all read the same
//! [`PreparedRoute`]s and time a transfer through its route's
//! [`Wormhole`]. [`lower_schedule`], [`PreparedLowering::lower`] and
//! [`lower_to_ports`] expand the routes into one [`TransferSpec`] per
//! transfer; only the benchmark replay (`ledger/`) still times them.
//!
//! [`PreparedLowering::new`] is also the one input gate: it rejects a
//! schedule that is not a well-formed DAG and a route that is missing
//! or not real on the topology ([`RouteDefect`]), with a typed
//! [`LowerError`], in every build profile. An [`Embedding`] belongs to
//! the edge table it was built from: edge `e` takes the embedding's
//! route `e`, and the first index where the two tables differ is a
//! [`LowerError::MissingRoute`].
//!
//! Every transfer on the same [`EdgeKey`] shares its route's one
//! `Arc<[ChannelId]>` path, so a lowering allocates O(edges) paths
//! rather than one per transfer — the P=1024 ring has 2.1 M transfers
//! but only 1024 edges.

use crate::chunk::ChunkId;
use crate::embedding::{EdgeKey, Embedding};
use crate::schedule::{Schedule, TransferId};
use crate::verify::{self, DagViolation};
use ccube_topology::{
    Bandwidth, ByteSize, ChannelClass, ChannelId, FabricGraph, FabricPort, GpuId, PortId, Route,
    Seconds, Topology,
};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// The link-timing knobs of the lowering (a subset of the simulator's
/// options that affects transfer durations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkTiming {
    /// Multiplier on every channel's bandwidth (1.0 = nominal; the
    /// paper's low-bandwidth configuration uses 0.25).
    pub bandwidth_scale: f64,
    /// Extra latency charged to detour routes for the store-and-forward
    /// kernel on the intermediate GPU.
    pub forwarding_latency: Seconds,
}

impl Default for LinkTiming {
    fn default() -> Self {
        LinkTiming {
            bandwidth_scale: 1.0,
            forwarding_latency: Seconds::from_micros(0.5),
        }
    }
}

/// One transfer, lowered onto the physical topology: ready to be
/// scheduled by an event-driven engine.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferSpec {
    /// The transfer's id (its index in the schedule).
    pub id: TransferId,
    /// The global chunk the transfer carries (arbitration priority).
    pub chunk: ChunkId,
    /// The physical channels the transfer occupies, in route order.
    /// Shared by every transfer of the same logical edge.
    pub path: Arc<[ChannelId]>,
    /// The intermediate GPU for detour routes.
    pub via: Option<GpuId>,
    /// Wormhole occupancy time of the whole path.
    pub duration: Seconds,
    /// Payload size, kept so lower layers (the switch-fabric network
    /// model, fault-driven re-routing) can recompute durations when the
    /// effective path or per-hop resources change.
    pub bytes: ByteSize,
}

/// Errors from lowering a schedule onto a topology: the one check of
/// every input's structure and routes. The analyzers report each with
/// its lint code ([`push_lower_error`](crate::analyze::push_lower_error):
/// `CC001`, `CC007`, `CC008`), with this `Display` as the finding text.
#[derive(Debug, Clone, PartialEq)]
pub enum LowerError {
    /// The schedule is not a well-formed DAG: the first violation
    /// [`check_dag`](crate::verify::check_dag) finds.
    MalformedDag(DagViolation),
    /// The embedding is missing a route for a logical edge the schedule
    /// uses.
    MissingRoute(EdgeKey),
    /// A logical edge's route is not real on the topology.
    InvalidRoute {
        /// The offending edge.
        edge: EdgeKey,
        /// What is wrong with its route.
        defect: RouteDefect,
    },
}

/// Why a route is not real on the topology, in the order the lowering
/// tests the rules. GPU pairs are `(src, dst)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteDefect {
    /// The route joins the GPUs `.0`, not the edge's GPUs `.1`.
    Endpoints((GpuId, GpuId), (GpuId, GpuId)),
    /// A channel is not in the topology.
    UnknownChannel(ChannelId),
    /// The route has no channels.
    EmptyPath,
    /// A NIC route's first channel leaves and its last one arrives at
    /// the GPUs `.0`, not at the edge's GPUs `.1`.
    NicEndpoints((GpuId, GpuId), (GpuId, GpuId)),
    /// The hops do not chain between the edge's GPUs.
    BrokenChain((GpuId, GpuId)),
    /// The declared detour GPU is not on the path.
    ViaOffPath(GpuId),
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (edge, defect) = match self {
            LowerError::MalformedDag(v) => return write!(f, "{v}"),
            LowerError::MissingRoute(edge) => {
                return write!(f, "embedding has no route for logical edge {edge}")
            }
            LowerError::InvalidRoute { edge, defect } => (edge, defect),
        };
        write!(f, "invalid route for {edge}: ")?;
        match *defect {
            RouteDefect::Endpoints(route, edge) => write!(
                f,
                "route endpoints {}->{} do not match the edge's GPUs {}->{}",
                route.0, route.1, edge.0, edge.1
            ),
            RouteDefect::UnknownChannel(c) => write!(f, "unknown channel {c}"),
            RouteDefect::EmptyPath => write!(f, "empty channel path"),
            RouteDefect::NicEndpoints(got, edge) => write!(
                f,
                "nic route must inject at {} and eject at {} (got {} and {})",
                edge.0, edge.1, got.0, got.1
            ),
            RouteDefect::BrokenChain((src, dst)) => {
                write!(f, "channels do not form a path from {src} to {dst}")
            }
            RouteDefect::ViaOffPath(via) => {
                write!(f, "declared detour via {via} is not on the path")
            }
        }
    }
}

impl Error for LowerError {}

/// The route of logical edge `edge`, entry `e` of the schedule's edge
/// table, checked against `topo`: the one place the route rules live.
/// The route must exist (the embedding's route at `e`, for the same
/// edge), join the edge's GPUs, name only channels of `topo`, and be
/// non-empty; a NIC route is an (injection, ejection) pair that must
/// leave the source GPU and arrive at the destination GPU, any other
/// route a hop chain between them through its declared detour GPU.
///
/// # Errors
///
/// [`LowerError::MissingRoute`], or [`LowerError::InvalidRoute`] with
/// the first [`RouteDefect`] found.
pub(crate) fn checked_route<'a>(
    embedding: &'a Embedding,
    e: usize,
    edge: EdgeKey,
    topo: &Topology,
) -> Result<&'a Route, LowerError> {
    let route = embedding.route_at(e, &edge);
    let route = route.ok_or(LowerError::MissingRoute(edge))?;
    let invalid = |defect| Err(LowerError::InvalidRoute { edge, defect });
    let ends = (embedding.gpu_of(edge.src), embedding.gpu_of(edge.dst));
    let path = route.channels();
    if (route.src(), route.dst()) != ends {
        return invalid(RouteDefect::Endpoints((route.src(), route.dst()), ends));
    }
    if let Some(&c) = path.iter().find(|c| c.index() >= topo.channels().len()) {
        return invalid(RouteDefect::UnknownChannel(c));
    }
    let (Some(&first), Some(&last)) = (path.first(), path.last()) else {
        return invalid(RouteDefect::EmptyPath);
    };
    if route.class() == ChannelClass::Nic {
        let got = (topo.channel(first).src(), topo.channel(last).dst());
        if got != ends {
            return invalid(RouteDefect::NicEndpoints(got, ends));
        }
    } else if !topo.is_path(ends.0, ends.1, path) {
        return invalid(RouteDefect::BrokenChain(ends));
    } else if let Some(via) = route.via() {
        let hops = &path[..path.len() - 1];
        if !hops.iter().any(|&c| topo.channel(c).dst() == via) {
            return invalid(RouteDefect::ViaOffPath(via));
        }
    }
    Ok(route)
}

/// Resolves every transfer of `schedule` into a [`TransferSpec`] using
/// the routes of `embedding` over `topo`.
///
/// The result is indexed by transfer id (schedules use dense ids).
/// Equivalent to [`PreparedLowering::new`] followed by
/// [`PreparedLowering::lower`], which is how it is implemented.
///
/// # Errors
///
/// Those of [`PreparedLowering::new`].
///
/// # Examples
///
/// ```
/// use ccube_collectives::{lower_schedule, ring_allreduce, Embedding, LinkTiming};
/// use ccube_topology::{dgx1, ByteSize};
///
/// let topo = dgx1();
/// let s = ring_allreduce(8, ByteSize::mib(8));
/// let e = Embedding::identity(&topo, &s).unwrap();
/// let specs = lower_schedule(&s, &e, &topo, &LinkTiming::default()).unwrap();
/// assert_eq!(specs.len(), s.transfers().len());
/// assert!(specs.iter().all(|sp| !sp.path.is_empty()));
/// ```
pub fn lower_schedule(
    schedule: &Schedule,
    embedding: &Embedding,
    topo: &Topology,
    timing: &LinkTiming,
) -> Result<Vec<TransferSpec>, LowerError> {
    Ok(PreparedLowering::new(schedule, embedding, topo)?.lower(schedule, timing))
}

/// Lowers channel-level [`TransferSpec`]s one level further, onto an
/// explicit switch fabric: the result holds, per transfer, the ordered
/// port path the transfer occupies (endpoint ports plus any uplink ports
/// inserted between leaves). Indexed like `specs`, by transfer id.
///
/// This is the hop-level view the `SwitchFabric` network model schedules
/// on; under a passthrough fabric every port path mirrors the channel
/// path one-for-one.
pub fn lower_to_ports(specs: &[TransferSpec], fabric: &FabricGraph) -> Vec<Vec<PortId>> {
    specs.iter().map(|s| fabric.port_route(&s.path)).collect()
}

/// The two timing coefficients of the wormhole model over a hop
/// sequence, from which a transit time follows for any payload and
/// [`LinkTiming`]. The one place the model is written down: the
/// lowering, fault re-routing, the switch fabric and the certified
/// bounds all time transfers through it, so they agree float for float.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wormhole {
    /// Σ per-hop latency, accumulated in hop order — the forwarding
    /// latency of detours is *not* folded in, because it is a per-point
    /// timing knob.
    alpha: Seconds,
    /// The bottleneck bandwidth in bytes/sec at nominal scale.
    bottleneck: f64,
}

impl Wormhole {
    /// The coefficients of `hops`, each a `(latency, bandwidth)` pair,
    /// in route order.
    pub fn over(hops: impl IntoIterator<Item = (Seconds, Bandwidth)>) -> Self {
        let mut w = Wormhole {
            alpha: Seconds::ZERO,
            bottleneck: f64::INFINITY,
        };
        for (latency, bandwidth) in hops {
            w.alpha += latency;
            w.bottleneck = w.bottleneck.min(bandwidth.as_bytes_per_sec());
        }
        w
    }

    /// The coefficients of a channel path of `topo`.
    ///
    /// # Panics
    ///
    /// Panics if a channel is not in `topo`.
    pub fn of_channels(topo: &Topology, path: &[ChannelId]) -> Self {
        Wormhole::over(path.iter().map(|&c| {
            let ch = topo.channel(c);
            (ch.latency(), ch.bandwidth())
        }))
    }

    /// The transit time of `bytes`: `Σ latency (+ forwarding latency for
    /// a detour) + bytes / (bottleneck × bandwidth_scale)`.
    pub fn duration(&self, bytes: ByteSize, detour: bool, timing: &LinkTiming) -> Seconds {
        let mut alpha = self.alpha;
        if detour {
            alpha += timing.forwarding_latency;
        }
        alpha + Seconds::new(bytes.as_f64() / (self.bottleneck * timing.bandwidth_scale))
    }
}

/// The store-and-forward time of one port hop: its latency plus one
/// serialization of `bytes` at its scaled bandwidth.
pub fn hop_time(port: &FabricPort, bytes: ByteSize, timing: &LinkTiming) -> Seconds {
    let bandwidth = port.bandwidth().as_bytes_per_sec() * timing.bandwidth_scale;
    port.latency() + Seconds::new(bytes.as_f64() / bandwidth)
}

/// The transit time of `bytes` over a port route of `fabric`: the
/// [`Wormhole`] model (cut-through), or one [`hop_time`] per port summed
/// in hop order (`store_forward`). A detour adds the forwarding latency
/// last. Under a passthrough fabric the cut-through time equals the
/// channel lowering's exactly.
pub fn port_transit_time(
    fabric: &FabricGraph,
    route: &[PortId],
    bytes: ByteSize,
    detour: bool,
    timing: &LinkTiming,
    store_forward: bool,
) -> Seconds {
    let ports = route.iter().map(|&p| fabric.port(p));
    if !store_forward {
        return Wormhole::over(ports.map(|p| (p.latency(), p.bandwidth())))
            .duration(bytes, detour, timing);
    }
    let mut total = Seconds::ZERO;
    for port in ports {
        total += hop_time(port, bytes, timing);
    }
    if detour {
        total += timing.forwarding_latency;
    }
    total
}

/// One logical edge's route, resolved once and stored with its
/// [`Wormhole`] coefficients, so durations can be computed for any
/// payload size and [`LinkTiming`] without touching the embedding or the
/// topology again.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedRoute {
    /// The physical channels the route occupies, in hop order; every
    /// lowered transfer on the edge shares this allocation.
    path: Arc<[ChannelId]>,
    /// The intermediate GPU for detour routes.
    via: Option<GpuId>,
    wormhole: Wormhole,
}

impl PreparedRoute {
    /// The prepared form of `route`, whose channels must be in `topo`.
    ///
    /// # Panics
    ///
    /// Panics if a channel of `route` is not in `topo`.
    pub fn of_route(route: &Route, topo: &Topology) -> Self {
        PreparedRoute {
            path: route.channels().into(),
            via: route.via(),
            wormhole: Wormhole::of_channels(topo, route.channels()),
        }
    }

    /// The physical channels the route occupies, in hop order.
    pub fn path(&self) -> &[ChannelId] {
        &self.path
    }

    /// The intermediate GPU for detour routes.
    pub fn via(&self) -> Option<GpuId> {
        self.via
    }

    /// The wormhole transit time of `bytes` over the route, with the
    /// forwarding latency if it detours.
    pub fn duration(&self, bytes: ByteSize, timing: &LinkTiming) -> Seconds {
        self.wormhole.duration(bytes, self.via.is_some(), timing)
    }

    /// The same route timed by `wormhole` instead of its channels' (the
    /// simulator times a route over the fabric ports it occupies).
    #[must_use]
    pub fn with_wormhole(self, wormhole: Wormhole) -> Self {
        PreparedRoute { wormhole, ..self }
    }
}

/// A schedule's lowering with the payload- and timing-independent work
/// hoisted out: routes are resolved once per logical edge, with their
/// latency sums and bottleneck bandwidths, and
/// [`PreparedLowering::lower`] then produces [`TransferSpec`]s for any
/// `(payload, LinkTiming)` point.
///
/// Equivalence contract: for the schedule/embedding/topology it was
/// prepared from — or any schedule with the same transfers modulo
/// payload sizes — `lower()` equals [`lower_schedule`] at that payload
/// exactly, float bits included: both time every route through its
/// [`Wormhole`].
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedLowering {
    /// One entry per logical edge, indexed like [`Schedule::edges`].
    routes: Vec<PreparedRoute>,
}

impl PreparedLowering {
    /// Checks `schedule` and resolves every logical edge of it against
    /// `embedding` over `topo`, storing routes and timing coefficients
    /// for later [`PreparedLowering::lower`] calls: edge `e` takes the
    /// embedding's route `e`, none is looked up per transfer. This is
    /// the one input gate of every simulation, certified bound and
    /// physical or severance pass, in every build profile.
    ///
    /// # Errors
    ///
    /// [`LowerError::MalformedDag`] for the first DAG violation, else
    /// [`LowerError::MissingRoute`] or [`LowerError::InvalidRoute`] for
    /// the first edge (in first-use order, so for the first transfer in
    /// id order) whose route fails a rule.
    pub fn new(
        schedule: &Schedule,
        embedding: &Embedding,
        topo: &Topology,
    ) -> Result<Self, LowerError> {
        if let Some(v) = verify::dag_violations(schedule).into_iter().next() {
            return Err(LowerError::MalformedDag(v));
        }
        let mut routes = Vec::with_capacity(schedule.edges().len());
        for (e, &(src, dst, tree)) in schedule.edges().iter().enumerate() {
            let route = checked_route(embedding, e, EdgeKey { src, dst, tree }, topo)?;
            routes.push(PreparedRoute::of_route(route, topo));
        }
        Ok(PreparedLowering { routes })
    }

    /// Takes the lowering apart: one [`PreparedRoute`] per logical edge,
    /// indexed like [`Schedule::edges`], so transfer `t` takes route
    /// `t.edge`.
    pub fn into_routes(self) -> Vec<PreparedRoute> {
        self.routes
    }

    /// Produces the [`TransferSpec`]s for `schedule` under `timing`.
    /// `schedule` supplies the per-transfer payload sizes (and
    /// ids/chunks); it must have the same transfers as the schedule this
    /// lowering was prepared from, up to payload sizes (debug builds
    /// assert the edge count).
    pub fn lower(&self, schedule: &Schedule, timing: &LinkTiming) -> Vec<TransferSpec> {
        debug_assert_eq!(schedule.edges().len(), self.routes.len());
        schedule
            .transfers()
            .iter()
            .map(|t| {
                let r = &self.routes[t.edge as usize];
                TransferSpec {
                    id: t.id,
                    chunk: t.chunk,
                    path: Arc::clone(&r.path),
                    via: r.via,
                    duration: r.duration(t.bytes, timing),
                    bytes: t.bytes,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ring_allreduce, tree_allreduce, BinaryTree, Chunking, Overlap};
    use ccube_topology::{dgx1, ByteSize};

    #[test]
    fn durations_scale_with_bandwidth() {
        let topo = dgx1();
        let s = ring_allreduce(8, ByteSize::mib(16));
        let e = Embedding::identity(&topo, &s).unwrap();
        let hi = lower_schedule(&s, &e, &topo, &LinkTiming::default()).unwrap();
        let lo = lower_schedule(
            &s,
            &e,
            &topo,
            &LinkTiming {
                bandwidth_scale: 0.25,
                ..LinkTiming::default()
            },
        )
        .unwrap();
        for (h, l) in hi.iter().zip(&lo) {
            assert!(l.duration > h.duration);
        }
    }

    #[test]
    fn detours_carry_via_and_forwarding_latency() {
        let topo = dgx1();
        let dt = crate::DoubleBinaryTree::new(8).unwrap();
        let s = tree_allreduce(
            dt.trees(),
            &Chunking::even(ByteSize::mib(8), 8),
            Overlap::ReductionBroadcast,
        );
        let e = Embedding::dgx1_double_tree(&topo, &s).unwrap();
        let specs = lower_schedule(&s, &e, &topo, &LinkTiming::default()).unwrap();
        assert!(
            specs.iter().any(|sp| sp.via.is_some()),
            "the DGX-1 double tree must detour somewhere"
        );
    }

    #[test]
    fn transfers_on_one_edge_share_one_path_allocation() {
        let topo = dgx1();
        let s = ring_allreduce(8, ByteSize::mib(8));
        let e = Embedding::identity(&topo, &s).unwrap();
        let specs = lower_schedule(&s, &e, &topo, &LinkTiming::default()).unwrap();
        let t = s.transfers();
        let mut distinct: Vec<&Arc<[ChannelId]>> = Vec::new();
        for (i, a) in specs.iter().enumerate() {
            for (j, b) in specs.iter().enumerate().skip(i + 1) {
                let same_edge = (t[i].src, t[i].dst, t[i].tree) == (t[j].src, t[j].dst, t[j].tree);
                assert_eq!(Arc::ptr_eq(&a.path, &b.path), same_edge, "t{i} vs t{j}");
            }
            if !distinct.iter().any(|p| Arc::ptr_eq(p, &a.path)) {
                distinct.push(&a.path);
            }
        }
        assert_eq!(distinct.len(), s.edges().len());
    }

    #[test]
    fn a_permuted_edge_table_misses_its_first_differing_route() {
        use crate::schedule::{Phase, ScheduleBuilder};
        use crate::{ChunkId, Rank, TreeIndex};
        // The same three edges, the last two interned in either order.
        let build = |order: [(u32, u32); 3]| {
            let mut b = ScheduleBuilder::new();
            for (src, dst) in order {
                let size = ByteSize::kib(4);
                let edge = b.edge(Rank(src), Rank(dst), TreeIndex(0));
                b.push_on(edge, ChunkId(0), size, Phase::Reduce, []);
            }
            b.finish_unchecked("edges", 4, Chunking::even(ByteSize::kib(4), 1))
        };
        let s = build([(0, 1), (1, 2), (2, 3)]);
        let permuted = build([(0, 1), (2, 3), (1, 2)]);
        let topo = dgx1();
        let e = Embedding::identity(&topo, &s).unwrap();
        let first_differing = EdgeKey {
            src: Rank(2),
            dst: Rank(3),
            tree: TreeIndex(0),
        };
        assert_eq!(
            PreparedLowering::new(&permuted, &e, &topo),
            Err(LowerError::MissingRoute(first_differing))
        );
        assert!(PreparedLowering::new(&s, &e, &topo).is_ok());
    }

    #[test]
    fn missing_route_is_an_error() {
        let topo = dgx1();
        let s = ring_allreduce(8, ByteSize::mib(1));
        let tree = BinaryTree::inorder(8).unwrap();
        let other = tree_allreduce(
            std::slice::from_ref(&tree),
            &Chunking::even(ByteSize::mib(1), 4),
            Overlap::None,
        );
        let e = Embedding::identity(&topo, &other).unwrap();
        assert!(matches!(
            lower_schedule(&s, &e, &topo, &LinkTiming::default()),
            Err(LowerError::MissingRoute(_))
        ));
    }
}
