//! Schedule builders for tree-based AllReduce (baseline and overlapped).

use crate::chunk::{ChunkId, Chunking};
use crate::schedule::{Phase, Schedule, ScheduleBuilder, TransferId, TreeIndex};
use crate::tree::BinaryTree;

/// Whether the reduction and broadcast phases of the tree algorithm are
/// chained together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Overlap {
    /// Conventional tree algorithm (paper's `B`): the broadcast of *any*
    /// chunk starts only after *every* chunk has been reduced at the root
    /// (paper Fig. 7(a)).
    None,
    /// The paper's overlapped tree (`C1`): each chunk's broadcast starts
    /// as soon as that chunk is fully reduced at the root, flowing down
    /// the idle "downlink" channels while reduction continues up (paper
    /// Fig. 7(b), Observations #1 and #2).
    ReductionBroadcast,
}

impl Overlap {
    /// Short label used in schedule names ("baseline" / "overlapped").
    pub fn label(self) -> &'static str {
        match self {
            Overlap::None => "baseline",
            Overlap::ReductionBroadcast => "overlapped",
        }
    }
}

/// Builds a tree AllReduce schedule over one or more logical trees.
///
/// Chunks are distributed over the trees round-robin by chunk parity
/// (`chunk % trees.len()`), so a [`DoubleBinaryTree`] receives the even
/// chunks on tree 0 and the odd chunks on tree 1 and overall completion
/// order still tracks chunk order — the in-order property (paper
/// Observation #3) that gradient queuing depends on.
///
/// Within each tree the reduction is pipelined chunk-by-chunk up the tree
/// and the broadcast down; with [`Overlap::ReductionBroadcast`] the two
/// phases are chained per chunk.
///
/// # Panics
///
/// Panics if `trees` is empty or the trees disagree on rank count.
///
/// # Examples
///
/// ```
/// use ccube_collectives::{tree_allreduce, BinaryTree, Chunking, Overlap};
/// use ccube_topology::ByteSize;
///
/// let tree = BinaryTree::inorder(4).unwrap();
/// let chunking = Chunking::even(ByteSize::mib(4), 4);
/// let s = tree_allreduce(
///     std::slice::from_ref(&tree),
///     &chunking,
///     Overlap::ReductionBroadcast,
/// );
/// // (P-1) up-edges + (P-1) down-edges, once per chunk:
/// assert_eq!(s.transfers().len(), 2 * 3 * 4);
/// ```
///
/// [`DoubleBinaryTree`]: crate::DoubleBinaryTree
pub fn tree_allreduce(trees: &[BinaryTree], chunking: &Chunking, overlap: Overlap) -> Schedule {
    assert!(!trees.is_empty(), "tree_allreduce needs at least one tree");
    let p = trees[0].num_ranks();
    assert!(
        trees.iter().all(|t| t.num_ranks() == p),
        "all trees must span the same ranks"
    );

    let k = chunking.num_chunks();
    // Each chunk climbs and descends the P-1 edges of its tree once;
    // nearly every transfer has one dependency (leaves have none, the
    // root's broadcasts several).
    let mut b = ScheduleBuilder::with_capacity(2 * (p - 1) * k, 2 * (p - 1) * k);
    // Dense (tree, chunk, rank) tables — every slot the loops below read
    // is written first, so the placeholder never escapes. A hash map
    // here is measurably slower: these tables are hit once or twice per
    // transfer, and deep grids build millions of transfers per sweep.
    let idx = |ti: usize, c: ChunkId, r: u32| (ti * k + c.index()) * p + r as usize;
    // red[idx(tree, chunk, rank)] = id of the reduction transfer rank->parent.
    let mut red: Vec<TransferId> = vec![TransferId(u32::MAX); trees.len() * k * p];
    // bc[idx(tree, chunk, rank)] = id of the broadcast transfer parent->rank.
    let mut bc: Vec<TransferId> = vec![TransferId(u32::MAX); trees.len() * k * p];

    let tree_chunks: Vec<Vec<ChunkId>> = (0..trees.len())
        .map(|ti| {
            chunking
                .ids()
                .filter(|c| c.index() % trees.len() == ti)
                .collect()
        })
        .collect();

    // Each rank's edge to (or from) its parent, interned when the tree's
    // first chunk first uses it, so the edge table is in first-use order.
    let mut edge_of: Vec<u32> = vec![u32::MAX; p];

    // Reduction phase: pipelined up each tree, chunk-major.
    for (ti, tree) in trees.iter().enumerate() {
        let bottom_up = tree.bottom_up();
        if !tree_chunks[ti].is_empty() {
            for &r in &bottom_up {
                if let Some(parent) = tree.parent(r) {
                    edge_of[r.index()] = b.edge(r, parent, TreeIndex(ti as u8));
                }
            }
        }
        for &c in &tree_chunks[ti] {
            for &r in &bottom_up {
                if tree.parent(r).is_none() {
                    continue; // root does not send upward
                }
                let deps = tree
                    .children(r)
                    .iter()
                    .map(|&child| red[idx(ti, c, child.0)]);
                let id = b.push_on(edge_of[r.index()], c, chunking.size(c), Phase::Reduce, deps);
                red[idx(ti, c, r.0)] = id;
            }
        }
    }

    // Broadcast phase: pipelined down each tree.
    for (ti, tree) in trees.iter().enumerate() {
        let top_down = tree.top_down();
        let root = tree.root();
        if !tree_chunks[ti].is_empty() {
            for &r in &top_down {
                for &child in tree.children(r) {
                    edge_of[child.index()] = b.edge(r, child, TreeIndex(ti as u8));
                }
            }
        }
        // Baseline barrier: every reduction transfer into the root of this
        // tree, across all of its chunks.
        let mut barrier: Vec<TransferId> = Vec::new();
        if overlap == Overlap::None {
            for &c in &tree_chunks[ti] {
                for &child in tree.children(root) {
                    barrier.push(red[idx(ti, c, child.0)]);
                }
            }
        }
        // This chunk's reductions into the root (overlapped trees only).
        let mut chunk_reductions: Vec<TransferId> = Vec::new();
        for &c in &tree_chunks[ti] {
            // The root's sends wait for the reductions into it: the
            // whole barrier, or just this chunk's.
            let root_deps: &[TransferId] = match overlap {
                Overlap::None => &barrier,
                Overlap::ReductionBroadcast => {
                    chunk_reductions.clear();
                    chunk_reductions
                        .extend(tree.children(root).iter().map(|&ch| red[idx(ti, c, ch.0)]));
                    &chunk_reductions
                }
            };
            for &r in &top_down {
                for &child in tree.children(r) {
                    // Every other rank forwards the broadcast it received.
                    let deps = if r == root {
                        root_deps
                    } else {
                        std::slice::from_ref(&bc[idx(ti, c, r.0)])
                    };
                    let id = b.push_on(
                        edge_of[child.index()],
                        c,
                        chunking.size(c),
                        Phase::Broadcast,
                        deps.iter().copied(),
                    );
                    bc[idx(ti, c, child.0)] = id;
                }
            }
        }
    }

    let name = match trees.len() {
        1 => format!("{}-tree", overlap.label()),
        2 => format!("{}-double-tree", overlap.label()),
        n => format!("{}-{}-tree", overlap.label(), n),
    };
    b.finish(name, p, chunking.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::DoubleBinaryTree;
    use ccube_topology::ByteSize;

    #[test]
    fn transfer_counts_match_edges_times_chunks() {
        let dt = DoubleBinaryTree::new(8).unwrap();
        let chunking = Chunking::even(ByteSize::mib(8), 8);
        for overlap in [Overlap::None, Overlap::ReductionBroadcast] {
            let s = tree_allreduce(dt.trees(), &chunking, overlap);
            // each tree: (P-1) up + (P-1) down edges, once per chunk of
            // that tree (4 chunks each)
            assert_eq!(s.transfers().len(), 2 * (7 + 7) * 4);
        }
    }

    #[test]
    fn overlapped_root_broadcast_depends_only_on_its_chunk() {
        let tree = crate::BinaryTree::inorder(4).unwrap();
        let chunking = Chunking::even(ByteSize::mib(4), 4);
        let s = tree_allreduce(
            std::slice::from_ref(&tree),
            &chunking,
            Overlap::ReductionBroadcast,
        );
        let root = tree.root();
        for t in s.transfers() {
            if t.phase == Phase::Broadcast && t.src == root {
                for d in s.deps(t.id) {
                    assert_eq!(s.transfer(*d).chunk, t.chunk);
                }
            }
        }
    }

    #[test]
    fn baseline_root_broadcast_waits_for_all_chunks() {
        let tree = crate::BinaryTree::inorder(4).unwrap();
        let chunking = Chunking::even(ByteSize::mib(4), 4);
        let s = tree_allreduce(std::slice::from_ref(&tree), &chunking, Overlap::None);
        let root = tree.root();
        let first_bc = s
            .transfers()
            .iter()
            .find(|t| t.phase == Phase::Broadcast && t.src == root)
            .unwrap();
        let dep_chunks: std::collections::BTreeSet<ChunkId> = s
            .deps(first_bc.id)
            .iter()
            .map(|&d| s.transfer(d).chunk)
            .collect();
        assert_eq!(dep_chunks.len(), 4, "barrier must cover all chunks");
    }
}
