//! The schedule IR: a dependency DAG of point-to-point transfers.

use crate::chunk::{ChunkId, Chunking};
use crate::rank::Rank;
use ccube_topology::ByteSize;
use std::collections::HashMap;
use std::fmt;

/// Identifier of a transfer within a [`Schedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransferId(pub u32);

impl TransferId {
    /// The id as an array index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TransferId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Which logical tree a transfer belongs to (0 for single-tree and ring
/// schedules; 0 or 1 for double-tree schedules).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TreeIndex(pub u8);

impl TreeIndex {
    /// The index as a usize.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TreeIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// The semantic phase of a transfer, which determines how the receiver
/// combines the payload with its local buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Tree reduction: receiver *accumulates* the payload into its partial.
    Reduce,
    /// Tree broadcast: receiver *overwrites* its buffer with the payload.
    Broadcast,
    /// Ring Reduce-Scatter step: accumulate.
    ReduceScatter,
    /// Ring AllGather step: overwrite.
    AllGather,
}

impl Phase {
    /// True if the receiver accumulates (reduces) rather than overwrites.
    pub fn is_reduction(self) -> bool {
        matches!(self, Phase::Reduce | Phase::ReduceScatter)
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phase::Reduce => write!(f, "reduce"),
            Phase::Broadcast => write!(f, "broadcast"),
            Phase::ReduceScatter => write!(f, "reduce-scatter"),
            Phase::AllGather => write!(f, "all-gather"),
        }
    }
}

/// Where a transfer's dependencies sit in its schedule's flat dependency
/// table: read them with [`Schedule::deps`]. Every transfer of a
/// schedule shares that one table, so a transfer owns no allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepSpan {
    start: u32,
    len: u32,
}

impl DepSpan {
    /// Number of dependencies.
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// True if the transfer depends on nothing.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// One point-to-point message of a collective schedule.
///
/// A transfer may start once **all** of its dependencies
/// ([`Schedule::deps`]) have completed *and* the channel its logical
/// edge is embedded on is free; the simulator and the threaded runtime
/// both honor exactly these two constraints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transfer {
    /// This transfer's id (its index in [`Schedule::transfers`]).
    pub id: TransferId,
    /// Sending rank.
    pub src: Rank,
    /// Receiving rank.
    pub dst: Rank,
    /// Which chunk of the message is carried.
    pub chunk: ChunkId,
    /// Payload size.
    pub bytes: ByteSize,
    /// Semantic phase (reduce vs broadcast).
    pub phase: Phase,
    /// Which logical tree the transfer belongs to.
    pub tree: TreeIndex,
    /// The transfer's logical edge: its index in [`Schedule::edges`],
    /// where `(src, dst, tree)` sits.
    pub edge: u32,
    /// Transfers that must complete before this one may start: a span
    /// of the schedule's dependency table ([`Schedule::deps`]).
    pub deps: DepSpan,
}

impl fmt::Display for Transfer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {}->{} {} ({})",
            self.id, self.phase, self.src, self.dst, self.chunk, self.bytes
        )
    }
}

/// A complete collective schedule: the transfer DAG plus its metadata.
///
/// Dependencies are stored in CSR form: one flat table of ids, with each
/// transfer's [`DepSpan`] naming its slice, so a schedule of any size
/// holds three allocations rather than one per transfer. The third is
/// the table of logical edges ([`Schedule::edges`]), which every
/// transfer names by index. Schedules are built with a
/// [`ScheduleBuilder`].
///
/// Invariants (enforced by [`ScheduleBuilder::finish`] and re-checked by
/// [`verify::check_dag`](crate::verify::check_dag)):
///
/// * transfer ids are dense and equal to their index;
/// * every dependency id is smaller than the dependent's id (the DAG is
///   topologically ordered by construction);
/// * `src != dst` for every transfer.
///
/// The builder keeps two more by construction: `edges()[t.edge]` is
/// `(t.src, t.dst, t.tree)`, and the edge table lists each edge once,
/// in the order of its first transfer.
#[derive(Debug, Clone)]
pub struct Schedule {
    algorithm: String,
    num_ranks: usize,
    chunking: Chunking,
    transfers: Vec<Transfer>,
    /// Every transfer's dependencies, concatenated in transfer order.
    deps: Vec<TransferId>,
    /// The distinct logical edges, in first-use order.
    edges: Vec<(Rank, Rank, TreeIndex)>,
}

impl Schedule {
    /// The algorithm name (e.g. `"ring"`, `"double-tree"`,
    /// `"overlapped-double-tree"`).
    pub fn algorithm(&self) -> &str {
        &self.algorithm
    }

    /// Number of participating ranks.
    pub fn num_ranks(&self) -> usize {
        self.num_ranks
    }

    /// The chunking of the message.
    pub fn chunking(&self) -> &Chunking {
        &self.chunking
    }

    /// All transfers, indexed by [`TransferId::index`].
    pub fn transfers(&self) -> &[Transfer] {
        &self.transfers
    }

    /// The transfer with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn transfer(&self, id: TransferId) -> &Transfer {
        &self.transfers[id.index()]
    }

    /// The transfers that must complete before transfer `id` may start.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn deps(&self, id: TransferId) -> &[TransferId] {
        self.deps_of(&self.transfers[id.index()])
    }

    /// The transfers that must complete before `t`, one of this
    /// schedule's transfers, may start: [`Schedule::deps`] for a
    /// transfer already in hand, without indexing the schedule again.
    ///
    /// # Panics
    ///
    /// Panics if `t`'s dependency span lies outside this schedule's
    /// table (a transfer of another schedule).
    pub fn deps_of(&self, t: &Transfer) -> &[TransferId] {
        &self.deps[t.deps.range()]
    }

    /// Total bytes moved by the schedule (sum over transfers) — useful for
    /// comparing algorithm traffic.
    pub fn total_traffic(&self) -> ByteSize {
        self.transfers.iter().map(|t| t.bytes).sum()
    }

    /// The distinct logical directed edges `(src, dst, tree)` used by the
    /// schedule, in first-use order, indexed by [`Transfer::edge`]. This
    /// is the set the embedding maps to physical channels.
    pub fn edges(&self) -> &[(Rank, Rank, TreeIndex)] {
        &self.edges
    }
}

/// Summary statistics of a schedule (see [`Schedule::stats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleStats {
    /// Total transfers.
    pub transfers: usize,
    /// Transfers in reduction-type phases.
    pub reduction_transfers: usize,
    /// Transfers in broadcast/gather-type phases.
    pub broadcast_transfers: usize,
    /// Total bytes moved.
    pub total_bytes: ByteSize,
    /// Distinct logical edges.
    pub logical_edges: usize,
    /// Length (in transfers) of the longest dependency chain — the
    /// schedule's critical path, a lower bound on its step count on any
    /// machine.
    pub critical_path: usize,
}

impl fmt::Display for ScheduleStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} transfers ({} reduce, {} broadcast), {} over {} edges, critical path {}",
            self.transfers,
            self.reduction_transfers,
            self.broadcast_transfers,
            self.total_bytes,
            self.logical_edges,
            self.critical_path
        )
    }
}

impl Schedule {
    /// Computes summary statistics, including the critical-path length
    /// (longest dependency chain).
    ///
    /// # Examples
    ///
    /// ```
    /// use ccube_collectives::ring_allreduce;
    /// use ccube_topology::ByteSize;
    ///
    /// let s = ring_allreduce(4, ByteSize::mib(4));
    /// let stats = s.stats();
    /// // The ring's dependency chain is its 2(P-1) sequential steps.
    /// assert_eq!(stats.critical_path, 2 * 3);
    /// ```
    pub fn stats(&self) -> ScheduleStats {
        let mut reduction = 0usize;
        let mut broadcast = 0usize;
        // depth[i] = longest chain ending at transfer i (ids are
        // topologically ordered, so one forward pass suffices).
        let mut depth = vec![1usize; self.transfers.len()];
        let mut critical = 0usize;
        for t in &self.transfers {
            if t.phase.is_reduction() {
                reduction += 1;
            } else {
                broadcast += 1;
            }
            let base = self
                .deps(t.id)
                .iter()
                .map(|d| depth[d.index()])
                .max()
                .unwrap_or(0);
            depth[t.id.index()] = base + 1;
            critical = critical.max(base + 1);
        }
        ScheduleStats {
            transfers: self.transfers.len(),
            reduction_transfers: reduction,
            broadcast_transfers: broadcast,
            total_bytes: self.total_traffic(),
            logical_edges: self.edges.len(),
            critical_path: critical,
        }
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (p={}, {}, {} transfers)",
            self.algorithm,
            self.num_ranks,
            self.chunking,
            self.transfers.len()
        )
    }
}

/// Incremental schedule builder: the one way to assemble a
/// [`Schedule`]. Algorithm builders use it, and so do tests and
/// analyzer cases that need hand-made (even deliberately broken) DAGs.
///
/// Every transfer names its logical edge. The algorithm builders intern
/// each edge once ([`ScheduleBuilder::edge`], just before its first
/// transfer) and push on it by id ([`ScheduleBuilder::push_on`]), so
/// nothing is looked up per transfer; [`ScheduleBuilder::push`] interns
/// the edge of every transfer it is given, for hand-built schedules.
///
/// # Examples
///
/// ```
/// use ccube_collectives::{ChunkId, Chunking, Phase, Rank, ScheduleBuilder, TreeIndex};
/// use ccube_topology::ByteSize;
///
/// let mut b = ScheduleBuilder::new();
/// let size = ByteSize::kib(1);
/// let up = b.push(Rank(0), Rank(1), ChunkId(0), size, Phase::Reduce, TreeIndex(0), []);
/// let down = b.push(Rank(1), Rank(0), ChunkId(0), size, Phase::Broadcast, TreeIndex(0), [up]);
/// let s = b.finish("tiny", 2, Chunking::even(size, 1));
/// assert_eq!(s.deps(down), &[up]);
/// assert_eq!(s.edges()[s.transfer(down).edge as usize], (Rank(1), Rank(0), TreeIndex(0)));
/// ```
#[derive(Debug, Default)]
pub struct ScheduleBuilder {
    transfers: Vec<Transfer>,
    deps: Vec<TransferId>,
    edges: Vec<(Rank, Rank, TreeIndex)>,
    /// Each interned edge's id. Probed per edge, or per transfer by
    /// [`ScheduleBuilder::push`]; never iterated, so its order cannot
    /// reach a schedule.
    edge_ids: HashMap<(Rank, Rank, TreeIndex), u32>,
}

impl ScheduleBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        ScheduleBuilder::default()
    }

    /// An empty builder with room for `transfers` transfers and `deps`
    /// dependency edges, so a builder that knows its counts never
    /// regrows.
    pub fn with_capacity(transfers: usize, deps: usize) -> Self {
        ScheduleBuilder {
            transfers: Vec::with_capacity(transfers),
            deps: Vec::with_capacity(deps),
            ..ScheduleBuilder::default()
        }
    }

    /// Number of transfers pushed so far: the id the next
    /// [`ScheduleBuilder::push`] returns.
    pub fn len(&self) -> usize {
        self.transfers.len()
    }

    /// True if nothing was pushed yet.
    pub fn is_empty(&self) -> bool {
        self.transfers.is_empty()
    }

    /// The id of logical edge `(src, dst, tree)`, added to the edge table
    /// if it is new. The table is in first-use order only if every edge
    /// is interned no earlier than the transfer before its first one:
    /// debug builds check this in [`ScheduleBuilder::finish`].
    pub fn edge(&mut self, src: Rank, dst: Rank, tree: TreeIndex) -> u32 {
        let next = self.edges.len() as u32;
        let id = *self.edge_ids.entry((src, dst, tree)).or_insert(next);
        if id == next {
            self.edges.push((src, dst, tree));
        }
        id
    }

    /// Appends a transfer that waits for `deps` and returns its id (ids
    /// are dense, in push order), interning its edge. The dependencies go
    /// straight into the schedule's flat table.
    #[allow(clippy::too_many_arguments)] // mirrors the Transfer fields
    pub fn push(
        &mut self,
        src: Rank,
        dst: Rank,
        chunk: ChunkId,
        bytes: ByteSize,
        phase: Phase,
        tree: TreeIndex,
        deps: impl IntoIterator<Item = TransferId>,
    ) -> TransferId {
        let edge = self.edge(src, dst, tree);
        self.push_on(edge, chunk, bytes, phase, deps)
    }

    /// Appends a transfer on interned edge `edge` (an id
    /// [`ScheduleBuilder::edge`] returned) that waits for `deps`, and
    /// returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `edge` was never interned.
    pub fn push_on(
        &mut self,
        edge: u32,
        chunk: ChunkId,
        bytes: ByteSize,
        phase: Phase,
        deps: impl IntoIterator<Item = TransferId>,
    ) -> TransferId {
        let (src, dst, tree) = self.edges[edge as usize];
        let id = TransferId(self.transfers.len() as u32);
        let start = self.deps.len();
        self.deps.extend(deps);
        self.transfers.push(Transfer {
            id,
            src,
            dst,
            chunk,
            bytes,
            phase,
            tree,
            edge,
            deps: DepSpan {
                start: start as u32,
                len: (self.deps.len() - start) as u32,
            },
        });
        id
    }

    /// The finished schedule.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if transfer ids are not dense, a dependency
    /// points forward, or the edge table is not in first-use order
    /// (an edge interned early, or never used).
    pub fn finish(
        self,
        algorithm: impl Into<String>,
        num_ranks: usize,
        chunking: Chunking,
    ) -> Schedule {
        #[cfg(debug_assertions)]
        {
            let mut used = 0;
            for (i, t) in self.transfers.iter().enumerate() {
                debug_assert_eq!(t.id.index(), i, "transfer ids must be dense");
                for d in &self.deps[t.deps.range()] {
                    debug_assert!(
                        d.index() < t.id.index(),
                        "dependency must precede dependent"
                    );
                }
                debug_assert!(t.edge <= used, "edge {} used before edge {used}", t.edge);
                used += u32::from(t.edge == used);
            }
            debug_assert_eq!(used as usize, self.edges.len(), "an edge is never used");
        }
        self.finish_unchecked(algorithm, num_ranks, chunking)
    }

    /// The finished schedule **without** the debug checks of
    /// [`ScheduleBuilder::finish`]. Exists so the static
    /// analyzer ([`analyze`](crate::analyze)) and its tests can construct
    /// deliberately broken schedules — forward dependencies, dependency
    /// cycles — and prove they are detected rather than panicking at
    /// construction time. Every entry point downstream checks such a
    /// schedule first: the analyzer reports each violation as `CC001`,
    /// and the lowering ([`PreparedLowering::new`](crate::PreparedLowering::new))
    /// that every simulation and bound goes through rejects it with
    /// [`LowerError::MalformedDag`](crate::LowerError::MalformedDag).
    pub fn finish_unchecked(
        self,
        algorithm: impl Into<String>,
        num_ranks: usize,
        chunking: Chunking,
    ) -> Schedule {
        Schedule {
            algorithm: algorithm.into(),
            num_ranks,
            chunking,
            transfers: self.transfers,
            deps: self.deps,
            edges: self.edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Schedule {
        let mut b = ScheduleBuilder::new();
        let t0 = b.push(
            Rank(0),
            Rank(1),
            ChunkId(0),
            ByteSize::kib(1),
            Phase::Reduce,
            TreeIndex(0),
            [],
        );
        b.push(
            Rank(1),
            Rank(0),
            ChunkId(0),
            ByteSize::kib(1),
            Phase::Broadcast,
            TreeIndex(0),
            [t0],
        );
        b.finish("tiny", 2, Chunking::even(ByteSize::kib(1), 1))
    }

    #[test]
    fn builder_assigns_dense_ids() {
        let s = tiny();
        assert_eq!(s.transfers().len(), 2);
        assert_eq!(s.deps(TransferId(1)), &[TransferId(0)]);
    }

    #[test]
    fn transfers_are_compact_copy_values() {
        // Dependencies live in the schedule's flat table, so a transfer
        // owns no allocation.
        fn is_copy<T: Copy>() {}
        is_copy::<Transfer>();
        assert_eq!(std::mem::size_of::<Transfer>(), 40);
    }

    #[test]
    fn total_traffic_sums_bytes() {
        let s = tiny();
        assert_eq!(s.total_traffic(), ByteSize::kib(2));
    }

    #[test]
    fn logical_edges_deduplicate() {
        let s = tiny();
        let edges = s.edges();
        assert_eq!(edges.len(), 2);
        assert_eq!(edges[0], (Rank(0), Rank(1), TreeIndex(0)));
    }

    #[test]
    fn stats_reflect_structure() {
        use crate::{ring_allreduce, tree_allreduce, Chunking, DoubleBinaryTree, Overlap};
        let ring = ring_allreduce(6, ByteSize::mib(6));
        let rs = ring.stats();
        assert_eq!(rs.transfers, 2 * 5 * 6);
        assert_eq!(rs.critical_path, 2 * 5);
        assert_eq!(rs.reduction_transfers, 5 * 6);

        let dt = DoubleBinaryTree::new(8).unwrap();
        let chunking = Chunking::even(ByteSize::mib(8), 8);
        let b = tree_allreduce(dt.trees(), &chunking, Overlap::None).stats();
        let o = tree_allreduce(dt.trees(), &chunking, Overlap::ReductionBroadcast).stats();
        // Same traffic and — instructively — the same *dependency*
        // critical path (one chunk's reduce-up plus broadcast-down): the
        // baseline's extra steps come entirely from channel serialization
        // behind its reduction barrier, which the unit-step executor and
        // the DES expose, not the DAG itself.
        assert_eq!(b.total_bytes, o.total_bytes);
        assert_eq!(b.transfers, o.transfers);
        assert_eq!(o.critical_path, b.critical_path);
        let tree_depth = 3; // inorder(8)
        assert_eq!(o.critical_path, 2 * tree_depth);
    }

    #[test]
    fn phase_reduction_flag() {
        assert!(Phase::Reduce.is_reduction());
        assert!(Phase::ReduceScatter.is_reduction());
        assert!(!Phase::Broadcast.is_reduction());
        assert!(!Phase::AllGather.is_reduction());
    }
}
