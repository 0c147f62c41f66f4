//! Embedding of logical schedules onto physical topologies.
//!
//! An [`Embedding`] assigns every distinct logical edge `(src, dst, tree)`
//! of a [`Schedule`] a static physical [`Route`]: a dedicated NVLink
//! channel where one is free, one of the doubled NVLinks when two trees
//! use the same GPU pair, a **detour route** through an intermediate GPU
//! when no direct link exists (paper §IV-A), or — only if permitted — the
//! PCIe host bridge.
//!
//! Because the allocation is per `(edge, tree)` and spreads load across
//! parallel channels, embedding the overlapped double tree on the DGX-1
//! automatically lands the conflicting tree edges (e.g. GPU2–GPU3) on the
//! machine's *two separate* NVLinks — the physical-topology trick of the
//! paper's Fig. 10.
//!
//! An embedding belongs to one edge table, the [`Schedule::edges`] it
//! was built from: it keeps one route per entry, read by index
//! ([`Embedding::route_at`]), so a schedule whose table differs at some
//! index misses the route there.

use crate::rank::Rank;
use crate::schedule::{Schedule, TreeIndex};
use ccube_topology::{ChannelId, GpuId, Route, Router, Topology, TopologyError};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// A logical directed edge of a schedule, qualified by tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeKey {
    /// Sending rank.
    pub src: Rank,
    /// Receiving rank.
    pub dst: Rank,
    /// Which logical tree the edge belongs to.
    pub tree: TreeIndex,
}

impl fmt::Display for EdgeKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}->{}@{}", self.src, self.dst, self.tree)
    }
}

/// Errors from embedding a schedule onto a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EmbeddingError {
    /// The schedule has more ranks than the topology has GPUs.
    RankCountMismatch {
        /// Ranks in the schedule.
        ranks: usize,
        /// GPUs in the topology.
        gpus: usize,
    },
    /// A logical edge names a rank the rank→GPU mapping does not place
    /// (a malformed schedule whose transfers leave its rank range).
    RankOutOfRange {
        /// The unplaced rank.
        rank: Rank,
        /// Ranks the mapping places.
        mapped: usize,
    },
    /// A logical edge could not be routed.
    Routing(TopologyError),
    /// [`Embedding::set_route`] named an edge outside the edge table.
    UnknownEdge(EdgeKey),
}

impl fmt::Display for EmbeddingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmbeddingError::RankCountMismatch { ranks, gpus } => {
                write!(f, "schedule has {ranks} ranks but topology has {gpus} gpus")
            }
            EmbeddingError::RankOutOfRange { rank, mapped } => write!(
                f,
                "schedule uses rank {rank} but only {mapped} ranks are placed"
            ),
            EmbeddingError::Routing(e) => write!(f, "routing failed: {e}"),
            EmbeddingError::UnknownEdge(edge) => {
                write!(f, "edge {edge} is not in the embedding's edge table")
            }
        }
    }
}

impl Error for EmbeddingError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EmbeddingError::Routing(e) => Some(e),
            EmbeddingError::RankCountMismatch { .. }
            | EmbeddingError::RankOutOfRange { .. }
            | EmbeddingError::UnknownEdge(_) => None,
        }
    }
}

impl From<TopologyError> for EmbeddingError {
    fn from(e: TopologyError) -> Self {
        EmbeddingError::Routing(e)
    }
}

/// A complete logical-to-physical mapping for one schedule.
///
/// # Examples
///
/// ```
/// use ccube_collectives::{tree_allreduce, Chunking, DoubleBinaryTree, Overlap, Embedding};
/// use ccube_topology::dgx1;
/// use ccube_topology::ByteSize;
///
/// let topo = dgx1();
/// let dt = DoubleBinaryTree::new(8).unwrap();
/// let s = tree_allreduce(dt.trees(), &Chunking::even(ByteSize::mib(64), 16),
///                        Overlap::ReductionBroadcast);
/// let emb = Embedding::identity(&topo, &s).unwrap();
/// // The DGX-1 embedding stays off the host bridge entirely.
/// assert!(emb.routes().all(|(_, r)| r.class() != ccube_topology::ChannelClass::HostBridge));
/// ```
#[derive(Debug, Clone)]
pub struct Embedding {
    rank_to_gpu: Vec<GpuId>,
    /// The [`Schedule::edges`] it was built from.
    edges: Vec<EdgeKey>,
    /// `routes[e]` carries `edges[e]`.
    routes: Vec<Route>,
}

impl Embedding {
    /// Embeds `schedule` on `topo` with the identity rank→GPU mapping,
    /// refusing host-bridge routes (NVLink + detours only, like the
    /// paper's implementation).
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::RankCountMismatch`] if the schedule needs
    /// more GPUs than the topology has, or [`EmbeddingError::Routing`] if
    /// some edge cannot be routed without the host bridge.
    pub fn identity(topo: &Topology, schedule: &Schedule) -> Result<Self, EmbeddingError> {
        let mapping: Vec<GpuId> = (0..schedule.num_ranks() as u32).map(GpuId).collect();
        Self::with_mapping(topo, schedule, mapping, false)
    }

    /// Embeds with the identity mapping, permitting host-bridge fallback —
    /// the configuration the paper's baseline would have been forced into
    /// without detour routes.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Embedding::identity`], except host-bridge
    /// routes are accepted instead of rejected.
    pub fn identity_with_host(
        topo: &Topology,
        schedule: &Schedule,
    ) -> Result<Self, EmbeddingError> {
        let mapping: Vec<GpuId> = (0..schedule.num_ranks() as u32).map(GpuId).collect();
        Self::with_mapping(topo, schedule, mapping, true)
    }

    /// Embeds with an explicit rank→GPU mapping.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::RankCountMismatch`] if `mapping` is
    /// shorter than the rank count or maps to missing GPUs,
    /// [`EmbeddingError::RankOutOfRange`] if an edge names a rank
    /// `mapping` does not place, and [`EmbeddingError::Routing`] if an
    /// edge cannot be routed.
    pub fn with_mapping(
        topo: &Topology,
        schedule: &Schedule,
        mapping: Vec<GpuId>,
        allow_host: bool,
    ) -> Result<Self, EmbeddingError> {
        if mapping.len() < schedule.num_ranks() || schedule.num_ranks() > topo.num_gpus() {
            return Err(EmbeddingError::RankCountMismatch {
                ranks: schedule.num_ranks(),
                gpus: mapping.len().min(topo.num_gpus()),
            });
        }
        for &g in &mapping {
            topo.check_gpu(g)?;
        }
        let mut router = if allow_host {
            Router::new(topo)
        } else {
            Router::without_host_fallback(topo)
        };
        // Two-pass allocation: directly connected edges claim their
        // channels first, so the load-aware detour selection in the second
        // pass steers around them (static routing, as in the paper's
        // dedicated forwarding kernels).
        let edges = schedule.edges();
        check_ranks(edges, mapping.len())?;
        let mut routes: Vec<Option<Route>> = vec![None; edges.len()];
        for pass in 0..2 {
            for (e, &(src, dst, _)) in edges.iter().enumerate() {
                let (sg, dg) = (mapping[src.index()], mapping[dst.index()]);
                // "Direct" means a real GPU-to-GPU link; the host bridge
                // connects everything and must not count.
                let direct = topo
                    .channels_between(sg, dg)
                    .into_iter()
                    .any(|c| topo.channel(c).class() != ccube_topology::ChannelClass::HostBridge);
                if (pass == 0) != direct {
                    continue;
                }
                routes[e] = Some(router.allocate(sg, dg)?);
            }
        }
        // Each edge is routed in exactly one of the passes.
        let routes = routes.into_iter().flatten().collect();
        Ok(Embedding::from_routes(mapping, schedule, routes))
    }

    /// An embedding of `schedule`'s edge table, `routes` in its order.
    fn from_routes(rank_to_gpu: Vec<GpuId>, schedule: &Schedule, routes: Vec<Route>) -> Self {
        let edges = schedule.edges().iter();
        let edges = edges.map(|&(src, dst, tree)| EdgeKey { src, dst, tree });
        Embedding {
            rank_to_gpu,
            edges: edges.collect(),
            routes,
        }
    }

    /// The DGX-1 rank placement for the double-tree algorithms
    /// (`[0, 4, 7, 5, 6, 3, 2, 1]`), chosen so that
    ///
    /// * every logical pair used by **both** trees (in the same channel
    ///   direction, the conflict of paper §IV-A) lands on one of the
    ///   machine's *doubled* NVLink pairs, and
    /// * the two cross-quad logical edges with no direct NVLink take
    ///   detour routes whose hop channels are otherwise unused,
    ///
    /// yielding a completely conflict-free embedding of the overlapped
    /// double tree — the physical-topology awareness of the paper's
    /// Fig. 10(c), where two GPUs serve as dedicated detour forwarders.
    pub fn dgx1_double_tree_mapping() -> Vec<GpuId> {
        [0u32, 4, 7, 5, 6, 3, 2, 1].into_iter().map(GpuId).collect()
    }

    /// Embeds a double-tree schedule on the DGX-1 using
    /// [`Embedding::dgx1_double_tree_mapping`], NVLink + detours only.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Embedding::identity`].
    pub fn dgx1_double_tree(topo: &Topology, schedule: &Schedule) -> Result<Self, EmbeddingError> {
        Self::with_mapping(topo, schedule, Self::dgx1_double_tree_mapping(), false)
    }

    /// Embeds `schedule` on a [`hierarchical`](ccube_topology::hierarchical)
    /// topology: every logical edge occupies the sender's NIC injection
    /// channel and the receiver's NIC ejection channel.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::RankCountMismatch`] if the schedule needs
    /// more nodes than the topology has, and
    /// [`EmbeddingError::RankOutOfRange`] if an edge names a rank outside
    /// the schedule's rank count.
    pub fn nic(topo: &Topology, schedule: &Schedule) -> Result<Self, EmbeddingError> {
        if schedule.num_ranks() > topo.num_gpus() {
            return Err(EmbeddingError::RankCountMismatch {
                ranks: schedule.num_ranks(),
                gpus: topo.num_gpus(),
            });
        }
        let mapping: Vec<GpuId> = (0..schedule.num_ranks() as u32).map(GpuId).collect();
        check_ranks(schedule.edges(), mapping.len())?;
        let routes = schedule.edges().iter().map(|&(src, dst, _)| {
            let (sg, dg) = (GpuId(src.0), GpuId(dst.0));
            let path = ccube_topology::nic_path(sg, dg);
            Route::multi(sg, dg, path, ccube_topology::ChannelClass::Nic)
        });
        Ok(Embedding::from_routes(mapping, schedule, routes.collect()))
    }

    /// The GPU a rank is placed on.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn gpu_of(&self, rank: Rank) -> GpuId {
        self.rank_to_gpu[rank.index()]
    }

    /// The route assigned to a logical edge, if that edge is in the edge
    /// table (a scan; [`Embedding::route_at`] reads by index).
    pub fn route(&self, edge: &EdgeKey) -> Option<&Route> {
        let e = self.edges.iter().position(|k| k == edge)?;
        Some(&self.routes[e])
    }

    /// The route of entry `e` of the edge table, if that entry is `edge`
    /// (`None` for a different edge at `e`, or no entry `e`).
    pub fn route_at(&self, e: usize, edge: &EdgeKey) -> Option<&Route> {
        (self.edges.get(e) == Some(edge)).then(|| &self.routes[e])
    }

    /// Every edge with its route, in edge-table order.
    pub fn routes(&self) -> impl ExactSizeIterator<Item = (EdgeKey, &Route)> + '_ {
        self.edges.iter().copied().zip(&self.routes)
    }

    /// Overrides the route for one logical edge of the edge table.
    ///
    /// This is the hook the static analyzer's tests and the `ccube lint`
    /// demo cases use to construct deliberately conflicting or invalid
    /// embeddings; the constructors never produce such routes themselves.
    /// No validation is performed here: the lowering
    /// ([`PreparedLowering::new`](crate::PreparedLowering::new)) rejects an
    /// invalid route before any simulation or bound, and
    /// [`analyze::analyze_embedded`](crate::analyze::analyze_embedded)
    /// reports every one.
    ///
    /// # Errors
    ///
    /// [`EmbeddingError::UnknownEdge`] if `edge` is not in the table.
    pub fn set_route(&mut self, edge: EdgeKey, route: Route) -> Result<(), EmbeddingError> {
        let e = self.edges.iter().position(|k| *k == edge);
        let e = e.ok_or(EmbeddingError::UnknownEdge(edge))?;
        self.routes[e] = route;
        Ok(())
    }

    /// Pairs of distinct edges that share a physical channel, in
    /// (channel, edge index) order. Empty for a conflict-free embedding
    /// (which is what the overlapped double tree needs).
    pub fn conflicts(&self) -> Vec<(EdgeKey, EdgeKey, ChannelId)> {
        let mut uses = Vec::new();
        for (e, route) in self.routes.iter().enumerate() {
            uses.extend(route.channels().iter().map(|&c| (c, e)));
        }
        uses.sort_unstable();
        let mut out = Vec::new();
        for group in uses.chunk_by(|a, b| a.0 == b.0) {
            for (i, &(c, e1)) in group.iter().enumerate() {
                for &(_, e2) in &group[i + 1..] {
                    out.push((self.edges[e1], self.edges[e2], c));
                }
            }
        }
        out
    }

    /// How many detour routes each GPU forwards (the load that costs the
    /// paper's Fig. 15 detour nodes 3–4% of performance).
    pub fn forwarding_load(&self) -> BTreeMap<GpuId, usize> {
        let mut load = BTreeMap::new();
        for via in self.routes.iter().filter_map(Route::via) {
            *load.entry(via).or_insert(0) += 1;
        }
        load
    }
}

/// [`EmbeddingError::RankOutOfRange`] for the first edge (in table
/// order) with an endpoint at or past `mapped`.
fn check_ranks(edges: &[(Rank, Rank, TreeIndex)], mapped: usize) -> Result<(), EmbeddingError> {
    match edges
        .iter()
        .flat_map(|&(src, dst, _)| [src, dst])
        .find(|r| r.index() >= mapped)
    {
        Some(rank) => Err(EmbeddingError::RankOutOfRange { rank, mapped }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::Chunking;
    use crate::ring::ring_allreduce;
    use crate::tree::DoubleBinaryTree;
    use crate::tree_schedule::{tree_allreduce, Overlap};
    use ccube_topology::{dgx1, ByteSize, ChannelClass};

    fn double_tree_schedule() -> Schedule {
        let dt = DoubleBinaryTree::new(8).unwrap();
        tree_allreduce(
            dt.trees(),
            &Chunking::even(ByteSize::mib(64), 16),
            Overlap::ReductionBroadcast,
        )
    }

    #[test]
    fn dgx1_double_tree_embeds_without_host() {
        let topo = dgx1();
        let emb = Embedding::identity(&topo, &double_tree_schedule()).unwrap();
        for (_, r) in emb.routes() {
            assert_ne!(r.class(), ChannelClass::HostBridge);
        }
    }

    #[test]
    fn dgx1_double_tree_embedding_is_conflict_free() {
        // The point of the physical-topology-aware placement: the two
        // trees of the overlapped double tree never share a channel — the
        // shared logical pairs sit on doubled NVLinks and the detours use
        // otherwise idle links (paper Fig. 10(c)).
        let topo = dgx1();
        let s = double_tree_schedule();
        let emb = Embedding::dgx1_double_tree(&topo, &s).unwrap();
        let conflicts = emb.conflicts();
        assert!(
            conflicts.is_empty(),
            "found {} conflicts, e.g. {:?}",
            conflicts.len(),
            conflicts.first()
        );
    }

    #[test]
    fn conflicts_come_in_channel_then_edge_order() {
        // Two identically built embeddings report the same conflicts, in
        // (channel, edge index) order, each pair lower index first.
        let topo = dgx1();
        let s = double_tree_schedule();
        let a = Embedding::identity(&topo, &s).unwrap().conflicts();
        let b = Embedding::identity(&topo, &s).unwrap().conflicts();
        assert!(!a.is_empty());
        assert_eq!(a, b);
        let index = |key: EdgeKey| {
            let keys = s
                .edges()
                .iter()
                .map(|&(src, dst, tree)| EdgeKey { src, dst, tree });
            keys.into_iter().position(|k| k == key).unwrap()
        };
        let order: Vec<_> = a
            .iter()
            .map(|&(e1, e2, c)| (c, index(e1), index(e2)))
            .collect();
        assert!(order.windows(2).all(|w| w[0] < w[1]), "{order:?}");
        assert!(order.iter().all(|&(_, e1, e2)| e1 < e2), "{order:?}");
    }

    #[test]
    fn set_route_only_overrides_edges_in_the_table() {
        let topo = dgx1();
        let s = ring_allreduce(8, ByteSize::mib(1));
        let mut emb = Embedding::identity(&topo, &s).unwrap();
        let (src, dst, tree) = s.edges()[1];
        let key = EdgeKey { src, dst, tree };
        let route = emb.routes().next().unwrap().1.clone();
        emb.set_route(key, route.clone()).unwrap();
        assert_eq!(emb.route(&key), Some(&route));
        assert_eq!(emb.route_at(1, &key), Some(&route));
        assert_eq!(emb.route_at(0, &key), None);
        let absent = EdgeKey {
            src: dst,
            dst: src,
            tree,
        };
        assert_eq!(
            emb.set_route(absent, route),
            Err(EmbeddingError::UnknownEdge(absent))
        );
        assert_eq!(emb.routes().len(), s.edges().len());
    }

    #[test]
    fn dgx1_double_tree_uses_two_detour_forwarders() {
        // Like the paper's implementation (Fig. 15: GPUs 0 and 1), exactly
        // two GPUs serve as detour intermediates, one per logical
        // cross-quad edge pair.
        let topo = dgx1();
        let s = double_tree_schedule();
        let emb = Embedding::dgx1_double_tree(&topo, &s).unwrap();
        let load = emb.forwarding_load();
        assert_eq!(load.len(), 2, "forwarders: {load:?}");
        assert!(
            load.values().all(|&l| l == 2),
            "each forwards both directions"
        );
    }

    #[test]
    fn quad_flip_beats_identity_placement() {
        // The flipped placement should never have more channel sharing
        // than the naive identity placement.
        let topo = dgx1();
        let s = double_tree_schedule();
        let identity = Embedding::identity(&topo, &s).unwrap();
        let flipped = Embedding::dgx1_double_tree(&topo, &s).unwrap();
        assert!(flipped.conflicts().len() <= identity.conflicts().len());
    }

    #[test]
    fn dgx1_embedding_uses_detours() {
        let topo = dgx1();
        let emb = Embedding::identity(&topo, &double_tree_schedule()).unwrap();
        let load = emb.forwarding_load();
        // The in-order double tree on the DGX-1 needs cross-quad edges that
        // have no direct NVLink, so at least one detour must appear.
        assert!(!load.is_empty(), "expected at least one detour route");
    }

    #[test]
    fn ring_embeds_on_dgx1() {
        let topo = dgx1();
        let s = ring_allreduce(8, ByteSize::mib(64));
        let emb = Embedding::identity(&topo, &s).unwrap();
        assert_eq!(emb.routes().len(), s.edges().len());
    }

    #[test]
    fn mismatched_rank_count_is_rejected() {
        let topo = dgx1();
        let s = ring_allreduce(16, ByteSize::mib(1));
        assert!(matches!(
            Embedding::identity(&topo, &s),
            Err(EmbeddingError::RankCountMismatch { .. })
        ));
    }

    #[test]
    fn a_rank_past_the_mapping_is_an_error_not_a_panic() {
        use crate::chunk::ChunkId;
        use crate::schedule::{Phase, ScheduleBuilder};
        // Two declared ranks, but the second transfer names rank 9.
        let mut b = ScheduleBuilder::new();
        let size = ByteSize::kib(4);
        b.push(
            Rank(0),
            Rank(1),
            ChunkId(0),
            size,
            Phase::Reduce,
            TreeIndex(0),
            [],
        );
        b.push(
            Rank(1),
            Rank(9),
            ChunkId(0),
            size,
            Phase::Reduce,
            TreeIndex(0),
            [],
        );
        let s = b.finish_unchecked("out-of-range", 2, Chunking::even(size, 1));
        let out_of_range = Err(EmbeddingError::RankOutOfRange {
            rank: Rank(9),
            mapped: 2,
        });
        assert_eq!(Embedding::identity(&dgx1(), &s).map(|_| ()), out_of_range);
        let nic = Embedding::nic(&ccube_topology::hierarchical(4), &s);
        assert_eq!(nic.map(|_| ()), out_of_range);
        let mapping = vec![GpuId(0), GpuId(1)];
        let mapped = Embedding::with_mapping(&dgx1(), &s, mapping, false);
        assert_eq!(mapped.map(|_| ()), out_of_range);
    }

    #[test]
    fn nic_embedding_uses_injection_ejection_pairs() {
        let topo = ccube_topology::hierarchical(16);
        let s = ring_allreduce(16, ByteSize::mib(1));
        let emb = Embedding::nic(&topo, &s).unwrap();
        for (edge, route) in emb.routes() {
            assert_eq!(route.channels().len(), 2, "{edge}");
        }
    }

    #[test]
    fn gpu_of_is_identity_here() {
        let topo = dgx1();
        let s = ring_allreduce(8, ByteSize::mib(1));
        let emb = Embedding::identity(&topo, &s).unwrap();
        for r in 0..8 {
            assert_eq!(emb.gpu_of(Rank(r)), GpuId(r));
        }
    }
}
