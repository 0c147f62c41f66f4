//! The edge table every schedule carries: `Schedule::edges()` is the
//! first-use sequence of its transfers' `(src, dst, tree)` keys, and
//! each transfer's `edge` indexes its own key. Checked against a naive
//! recomputation for every generator — ring, multi-ring, single and
//! double trees under both overlaps, the four primitives — and for
//! random hand-built `push` sequences.

use ccube_collectives::primitives::{
    ring_all_gather, ring_reduce_scatter, tree_broadcast, tree_reduce,
};
use ccube_collectives::{
    ring_allreduce, ring_allreduce_multi, tree_allreduce, BinaryTree, ChunkId, Chunking,
    DoubleBinaryTree, Overlap, Phase, Rank, Schedule, ScheduleBuilder, TransferId, TreeIndex,
};
use ccube_topology::ByteSize;
use proptest::prelude::*;
use proptest::TestRng;

/// Asserts the edge-table contract of `s`.
fn check_edges(s: &Schedule) {
    // First-use order, recomputed with a linear scan: no interner.
    let mut first_use: Vec<(Rank, Rank, TreeIndex)> = Vec::new();
    for t in s.transfers() {
        let key = (t.src, t.dst, t.tree);
        if !first_use.contains(&key) {
            first_use.push(key);
        }
    }
    assert_eq!(s.edges(), &first_use[..], "{s}: edge table");
    for t in s.transfers() {
        assert_eq!(
            s.edges()[t.edge as usize],
            (t.src, t.dst, t.tree),
            "{s}: transfer {} names the wrong edge",
            t.id
        );
    }
    assert_eq!(s.stats().logical_edges, first_use.len());
}

/// A permutation of `0..p` drawn from `seed`.
fn permutation(p: usize, seed: u64) -> Vec<Rank> {
    let mut rng = TestRng::deterministic(&seed.to_string());
    let mut order: Vec<Rank> = Rank::all(p).collect();
    for i in (1..p).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

fn overlap_strategy() -> impl Strategy<Value = Overlap> {
    prop_oneof![Just(Overlap::None), Just(Overlap::ReductionBroadcast)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rings_intern_one_edge_per_sending_position(
        p in 2usize..24,
        rings in 1usize..4,
        seed in 0u64..1 << 32,
    ) {
        let s = ring_allreduce(p, ByteSize::kib(64));
        check_edges(&s);
        prop_assert_eq!(s.edges().len(), p);
        let orders: Vec<Vec<Rank>> = (0..rings)
            .map(|r| permutation(p, seed + r as u64))
            .collect();
        let multi = ring_allreduce_multi(ByteSize::kib(64), &orders);
        check_edges(&multi);
        prop_assert_eq!(multi.edges().len(), rings * p);
    }

    #[test]
    fn trees_intern_one_edge_per_child_and_direction(
        p in 2usize..20,
        k in 1usize..12,
        overlap in overlap_strategy(),
    ) {
        let chunking = Chunking::even(ByteSize::kib(256), k);
        let single = BinaryTree::inorder(p).unwrap();
        let s = tree_allreduce(std::slice::from_ref(&single), &chunking, overlap);
        check_edges(&s);
        prop_assert_eq!(s.edges().len(), 2 * (p - 1));
        // With one chunk the second tree carries nothing and owns no edge.
        let dt = DoubleBinaryTree::new(p).unwrap();
        let d = tree_allreduce(dt.trees(), &chunking, overlap);
        check_edges(&d);
        prop_assert_eq!(d.edges().len(), 2 * (p - 1) * k.min(2));
    }

    #[test]
    fn primitives_intern_their_edges(p in 2usize..20, k in 1usize..8, double in 0usize..2) {
        let chunking = Chunking::even(ByteSize::kib(128), k);
        let trees = if double == 1 {
            DoubleBinaryTree::new(p).unwrap().trees().to_vec()
        } else {
            vec![BinaryTree::inorder(p).unwrap()]
        };
        check_edges(&tree_broadcast(&trees, &chunking));
        check_edges(&tree_reduce(&trees, &chunking));
        check_edges(&ring_reduce_scatter(p, ByteSize::kib(128)));
        check_edges(&ring_all_gather(p, ByteSize::kib(128)));
    }

    #[test]
    fn hand_built_pushes_intern_in_first_use_order(
        ranks in 2u32..6,
        trees in 1u8..3,
        pushes in prop::collection::vec(0u64..1 << 32, 1..40),
    ) {
        let mut b = ScheduleBuilder::new();
        for (i, &draw) in pushes.iter().enumerate() {
            let src = (draw % u64::from(ranks)) as u32;
            let dst = (src + 1 + (draw >> 8) as u32 % (ranks - 1)) % ranks;
            let tree = TreeIndex((draw >> 16) as u8 % trees);
            let dep = (i > 0 && draw & 1 == 1).then(|| TransferId((draw >> 24) as u32 % i as u32));
            b.push(
                Rank(src),
                Rank(dst),
                ChunkId(0),
                ByteSize::kib(1),
                Phase::Reduce,
                tree,
                dep,
            );
        }
        let s = b.finish("hand-built", ranks as usize, Chunking::even(ByteSize::kib(1), 1));
        check_edges(&s);
    }
}
