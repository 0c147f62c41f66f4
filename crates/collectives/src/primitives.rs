//! Standalone collective primitives.
//!
//! AllReduce is the composition Reduce∘Broadcast (tree algorithm) or
//! ReduceScatter∘AllGather (ring algorithm); NCCL exposes all four as
//! separate collectives and the paper's cost model (Eq. 1/3) prices the
//! phases individually. This module builds each phase as a standalone
//! [`Schedule`], with its own correctness checkers in
//! [`verify`](crate::verify).
//!
//! Like the full AllReduce builders, every primitive supports chunked
//! pipelining, and the tree primitives accept multiple trees with
//! parity-interleaved chunks.

use crate::chunk::{ChunkId, Chunking};
use crate::rank::Rank;
use crate::schedule::{Phase, Schedule, ScheduleBuilder, TransferId, TreeIndex};
use crate::tree::BinaryTree;
use ccube_topology::ByteSize;

/// Builds a pipelined tree **broadcast**: the root's buffer flows down
/// the tree chunk by chunk; after completion every rank holds the root's
/// data.
///
/// Cost: `(log P + K - 1 + 1)` steps ≈ Eq. 3's single phase.
///
/// # Panics
///
/// Panics if `trees` is empty or the trees disagree on rank count.
///
/// # Examples
///
/// ```
/// use ccube_collectives::{primitives, verify, BinaryTree, Chunking};
/// use ccube_topology::ByteSize;
///
/// let tree = BinaryTree::inorder(8).unwrap();
/// let s = primitives::tree_broadcast(
///     std::slice::from_ref(&tree),
///     &Chunking::even(ByteSize::mib(8), 8),
/// );
/// verify::check_broadcast(&s).unwrap();
/// ```
pub fn tree_broadcast(trees: &[BinaryTree], chunking: &Chunking) -> Schedule {
    assert!(!trees.is_empty(), "need at least one tree");
    let p = trees[0].num_ranks();
    assert!(trees.iter().all(|t| t.num_ranks() == p));
    let mut b = ScheduleBuilder::new();
    // bc[c·P + r] = chunk c's broadcast into rank r (a chunk has one tree).
    let mut bc = vec![TransferId(u32::MAX); chunking.num_chunks() * p];
    for (ti, tree) in trees.iter().enumerate() {
        let top_down = tree.top_down();
        // The edge into each child, interned at the tree's first chunk.
        let mut edge_of = vec![u32::MAX; p];
        for c in chunking.ids().filter(|c| c.index() % trees.len() == ti) {
            for &r in &top_down {
                for &child in tree.children(r) {
                    if edge_of[child.index()] == u32::MAX {
                        edge_of[child.index()] = b.edge(r, child, TreeIndex(ti as u8));
                    }
                    let deps = tree.parent(r).map(|_| bc[c.index() * p + r.index()]);
                    let id = b.push_on(
                        edge_of[child.index()],
                        c,
                        chunking.size(c),
                        Phase::Broadcast,
                        deps,
                    );
                    bc[c.index() * p + child.index()] = id;
                }
            }
        }
    }
    b.finish("tree-broadcast", p, chunking.clone())
}

/// Builds a pipelined tree **reduce**: every rank's buffer is summed up
/// the tree; after completion the root of each tree holds the full
/// reduction of that tree's chunks.
///
/// # Panics
///
/// Panics if `trees` is empty or the trees disagree on rank count.
pub fn tree_reduce(trees: &[BinaryTree], chunking: &Chunking) -> Schedule {
    assert!(!trees.is_empty(), "need at least one tree");
    let p = trees[0].num_ranks();
    assert!(trees.iter().all(|t| t.num_ranks() == p));
    let mut b = ScheduleBuilder::new();
    // red[c·P + r] = chunk c's reduction out of rank r.
    let mut red = vec![TransferId(u32::MAX); chunking.num_chunks() * p];
    for (ti, tree) in trees.iter().enumerate() {
        let bottom_up = tree.bottom_up();
        // The edge out of each rank, interned at the tree's first chunk.
        let mut edge_of = vec![u32::MAX; p];
        for c in chunking.ids().filter(|c| c.index() % trees.len() == ti) {
            for &r in &bottom_up {
                let Some(parent) = tree.parent(r) else {
                    continue;
                };
                if edge_of[r.index()] == u32::MAX {
                    edge_of[r.index()] = b.edge(r, parent, TreeIndex(ti as u8));
                }
                let row = c.index() * p;
                let deps = tree.children(r).iter().map(|&ch| red[row + ch.index()]);
                let id = b.push_on(edge_of[r.index()], c, chunking.size(c), Phase::Reduce, deps);
                red[row + r.index()] = id;
            }
        }
    }
    b.finish("tree-reduce", p, chunking.clone())
}

/// Builds the ring **ReduceScatter**: after `P-1` steps, rank `i` holds
/// the fully reduced chunk `(i+1) mod P`.
///
/// Cost: Eq. 1's `(P-1)(α + βN/P)`.
///
/// # Panics
///
/// Panics if `p < 2`.
pub fn ring_reduce_scatter(p: usize, total: ByteSize) -> Schedule {
    assert!(p >= 2, "ring needs at least 2 ranks");
    let chunking = Chunking::even(total, p);
    let pi = p as i64;
    let modp = |x: i64| (((x % pi) + pi) % pi) as usize;
    let mut b = ScheduleBuilder::new();
    let mut rs: Vec<Vec<TransferId>> = vec![Vec::with_capacity(p - 1); p];
    // Rank i always sends to its successor; the first step uses the
    // edges in rank order.
    let edges: Vec<u32> = (0..p)
        .map(|i| b.edge(Rank(i as u32), Rank(((i + 1) % p) as u32), TreeIndex(0)))
        .collect();
    for s in 0..(p - 1) as i64 {
        for i in 0..pi {
            let chunk = ChunkId(modp(i - s) as u32);
            let deps = (s > 0).then(|| rs[modp(i - 1)][(s - 1) as usize]);
            let id = b.push_on(
                edges[i as usize],
                chunk,
                chunking.size(chunk),
                Phase::ReduceScatter,
                deps,
            );
            rs[i as usize].push(id);
        }
    }
    b.finish("ring-reduce-scatter", p, chunking)
}

/// Builds the ring **AllGather** from the post-ReduceScatter ownership
/// (rank `i` contributes chunk `(i+1) mod P`): after `P-1` steps every
/// rank holds every chunk.
///
/// Cost: Eq. 1's `(P-1)(α + βN/P)`.
///
/// # Panics
///
/// Panics if `p < 2`.
pub fn ring_all_gather(p: usize, total: ByteSize) -> Schedule {
    assert!(p >= 2, "ring needs at least 2 ranks");
    let chunking = Chunking::even(total, p);
    let pi = p as i64;
    let modp = |x: i64| (((x % pi) + pi) % pi) as usize;
    let mut b = ScheduleBuilder::new();
    let mut ag: Vec<Vec<TransferId>> = vec![Vec::with_capacity(p - 1); p];
    // Rank i always sends to its successor; the first step uses the
    // edges in rank order.
    let edges: Vec<u32> = (0..p)
        .map(|i| b.edge(Rank(i as u32), Rank(((i + 1) % p) as u32), TreeIndex(0)))
        .collect();
    for s in 0..(p - 1) as i64 {
        for i in 0..pi {
            let chunk = ChunkId(modp(i + 1 - s) as u32);
            let deps = (s > 0).then(|| ag[modp(i - 1)][(s - 1) as usize]);
            let id = b.push_on(
                edges[i as usize],
                chunk,
                chunking.size(chunk),
                Phase::AllGather,
                deps,
            );
            ag[i as usize].push(id);
        }
    }
    b.finish("ring-all-gather", p, chunking)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;

    #[test]
    fn broadcast_counts_and_verifies() {
        for p in 2..10 {
            let tree = BinaryTree::inorder(p).unwrap();
            let s = tree_broadcast(
                std::slice::from_ref(&tree),
                &Chunking::even(ByteSize::mib(1), 4),
            );
            assert_eq!(s.transfers().len(), (p - 1) * 4);
            verify::check_broadcast(&s).unwrap();
        }
    }

    #[test]
    fn reduce_counts_and_verifies() {
        for p in 2..10 {
            let tree = BinaryTree::inorder(p).unwrap();
            let s = tree_reduce(
                std::slice::from_ref(&tree),
                &Chunking::even(ByteSize::mib(1), 4),
            );
            assert_eq!(s.transfers().len(), (p - 1) * 4);
            verify::check_reduce(&s, &[tree.root()]).unwrap();
        }
    }

    #[test]
    fn double_tree_reduce_has_two_roots() {
        let dt = crate::DoubleBinaryTree::new(8).unwrap();
        let s = tree_reduce(dt.trees(), &Chunking::even(ByteSize::mib(1), 8));
        verify::check_reduce(&s, &[dt.tree(0).root(), dt.tree(1).root()]).unwrap();
    }

    #[test]
    fn reduce_scatter_verifies() {
        for p in 2..10 {
            let s = ring_reduce_scatter(p, ByteSize::mib(1));
            assert_eq!(s.transfers().len(), (p - 1) * p);
            verify::check_reduce_scatter(&s).unwrap();
        }
    }

    #[test]
    fn all_gather_verifies() {
        for p in 2..10 {
            let s = ring_all_gather(p, ByteSize::mib(1));
            assert_eq!(s.transfers().len(), (p - 1) * p);
            verify::check_all_gather(&s).unwrap();
        }
    }

    #[test]
    fn phases_compose_into_allreduce_step_counts() {
        // ReduceScatter then AllGather step counts equal the full ring's.
        let p = 6;
        let rs = ring_reduce_scatter(p, ByteSize::mib(1));
        let ag = ring_all_gather(p, ByteSize::mib(1));
        let full = crate::ring_allreduce(p, ByteSize::mib(1));
        assert_eq!(
            rs.transfers().len() + ag.transfers().len(),
            full.transfers().len()
        );
    }
}
