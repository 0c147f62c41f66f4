//! Rescaling contract of [`PreparedLowering`]: a lowering prepared at one
//! payload and lowered at another equals a fresh [`lower_schedule`] at
//! the second payload, float bits included.

use ccube_collectives::{
    lower_schedule, ring_allreduce, tree_allreduce, BinaryTree, Chunking, Embedding, LinkTiming,
    Overlap, PreparedLowering, Schedule,
};
use ccube_topology::{dgx1, hierarchical, ByteSize, Seconds, Topology};
use proptest::prelude::*;

fn schedule(p: usize, n: ByteSize, k: usize, tree: bool) -> Schedule {
    if tree {
        let tree = BinaryTree::inorder(p).unwrap();
        tree_allreduce(
            std::slice::from_ref(&tree),
            &Chunking::even(n, k),
            Overlap::None,
        )
    } else {
        ring_allreduce(p, n)
    }
}

fn embed(topo: &Topology, s: &Schedule, hier: bool) -> Embedding {
    if hier {
        Embedding::nic(topo, s).unwrap()
    } else {
        Embedding::identity(topo, s).unwrap()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Prepared at `kib_a`, lowered at `kib_b`: `assert_eq!` (exact float
    /// bits) to lowering the `kib_b` schedule from scratch, across random
    /// rank counts, chunkings, payloads and timing knobs on both
    /// substrate topologies.
    #[test]
    fn prepared_lowering_rescales_bit_identically(
        p in 2usize..=8,
        kib_a in 1u64..4096,
        kib_b in 1u64..4096,
        k in 1usize..24,
        scale_thousandths in 1u64..4000,
        fwd_ns in 0u64..10_000,
        use_tree in 0usize..2,
        use_hier in 0usize..2,
    ) {
        let (tree, hier) = (use_tree == 1, use_hier == 1);
        let topo = if hier { hierarchical(p) } else { dgx1() };
        let a = schedule(p, ByteSize::kib(kib_a), k, tree);
        let b = schedule(p, ByteSize::kib(kib_b), k, tree);
        let e = embed(&topo, &a, hier);
        let timing = LinkTiming {
            bandwidth_scale: scale_thousandths as f64 / 1000.0,
            forwarding_latency: Seconds::new(fwd_ns as f64 * 1e-9),
        };
        let fresh = lower_schedule(&b, &e, &topo, &timing).unwrap();
        let rescaled = PreparedLowering::new(&a, &e, &topo).unwrap().lower(&b, &timing);
        prop_assert_eq!(fresh, rescaled);
    }
}
