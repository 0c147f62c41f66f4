//! Reuse contract of the reusable DES arena: repeated runs on a
//! thread's recycled arena (kernel, channel pool with its waiter queues
//! and interval logs, dependency tables) must replay exactly, whole
//! report included.

use ccube_collectives::{
    ring_allreduce, tree_allreduce, Chunking, DoubleBinaryTree, Embedding, Overlap, Schedule,
};
use ccube_sim::{simulate, simulate_faulted, FaultPlan, SimOptions};
use ccube_topology::{dgx1, hierarchical, ByteSize, Seconds, Topology};
use proptest::prelude::*;

/// The C1 configuration: overlapped double tree on the DGX-1.
fn c1(topo: &Topology, bytes: ByteSize, k: usize) -> (Schedule, Embedding) {
    let dt = DoubleBinaryTree::new(8).expect("8 ranks");
    let s = tree_allreduce(
        dt.trees(),
        &Chunking::even(bytes, k),
        Overlap::ReductionBroadcast,
    );
    let e = Embedding::dgx1_double_tree(topo, &s).expect("embeds");
    (s, e)
}

#[test]
fn arena_reuse_replays_bit_identically_across_many_runs() {
    // The thread's arena is recycled on every call, and a hundred and
    // fifty interleaved heterogeneous runs must each replay exactly:
    // FifoHol on the DGX-1, and ChunkPriority on shared NICs, whose
    // queues run deep enough to exercise recycled key queues.
    let topo = dgx1();
    let ring = ring_allreduce(8, ByteSize::mib(2));
    let er = Embedding::identity(&topo, &ring).expect("embeds");
    let (tree, et) = c1(&topo, ByteSize::mib(2), 8);
    let opts = SimOptions::default();
    let hier = hierarchical(16);
    let dt = DoubleBinaryTree::new(16).expect("16 ranks");
    let nic_tree = tree_allreduce(
        dt.trees(),
        &Chunking::even(ByteSize::mib(4), 32),
        Overlap::ReductionBroadcast,
    );
    let en = Embedding::nic(&hier, &nic_tree).expect("embeds");
    let scale_out = SimOptions::scale_out();
    let ring0 = simulate(&topo, &ring, &er, &opts).expect("ring 0");
    let tree0 = simulate(&topo, &tree, &et, &opts).expect("tree 0");
    let nic0 = simulate(&hier, &nic_tree, &en, &scale_out).expect("nic 0");
    assert!(
        nic0.stats().max_channel_queue_depth > 8,
        "the scale-out case must queue deeper than 8, got {}",
        nic0.stats().max_channel_queue_depth
    );
    for i in 0..50 {
        let r = simulate(&topo, &ring, &er, &opts).expect("ring i");
        let n = simulate(&hier, &nic_tree, &en, &scale_out).expect("nic i");
        let t = simulate(&topo, &tree, &et, &opts).expect("tree i");
        assert_eq!(ring0, r, "ring diverged on arena reuse, iteration {i}");
        assert_eq!(
            nic0, n,
            "scale-out C1 diverged on arena reuse, iteration {i}"
        );
        assert_eq!(tree0, t, "tree diverged on arena reuse, iteration {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Repeated faulted runs replay bit-identically under sampled fault
    /// plans, whose reroutes swap paths that sibling transfers share.
    #[test]
    fn faulted_replay_is_bit_identical_on_reuse(
        seed in 0u64..512,
        kib in 64u64..2048,
        k in 1usize..12,
    ) {
        let topo = dgx1();
        let (s, e) = c1(&topo, ByteSize::kib(kib), k.max(1));
        let model = ccube_sim::FaultModel::severity(2, Seconds::from_millis(1.0));
        let plan = FaultPlan::sample(&model, &topo, &ccube_sim::SimRng::new(seed));
        let opts = SimOptions::default();
        let a = simulate_faulted(&topo, &s, &e, &opts, &plan).unwrap();
        let b = simulate_faulted(&topo, &s, &e, &opts, &plan).unwrap();
        prop_assert_eq!(a, b);
    }
}
