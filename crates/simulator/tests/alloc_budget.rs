//! Allocation budget of the per-transfer state.
//!
//! A schedule keeps its dependencies in one flat table and the scheduler
//! keeps one route per logical edge, so neither allocates per transfer:
//!
//! * building the P=256 ring (130,560 transfers) or an overlapped double
//!   tree (C1) on P=64 allocates O(P) times, not O(transfers);
//! * an untraced `simulate` of either allocates O(channels + routes)
//!   times, whatever its transfer count: the tree is simulated at three
//!   chunk counts against the same budget. At 256 chunks its instants
//!   hold hundreds of completions in many natural runs, which the kernel
//!   sorts in place rather than merging through scratch space.
//!
//! A counting global allocator takes the counts. Everything runs in one
//! `#[test]`, so no other test of this binary can allocate while a count
//! is taken.

use ccube_collectives::{
    ring_allreduce, tree_allreduce, Chunking, DoubleBinaryTree, Embedding, Overlap, Schedule,
};
use ccube_sim::{simulate, SimOptions};
use ccube_topology::{hierarchical, ByteSize, Topology};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the number of allocations it made.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let r = f();
    (r, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// Allocations of an untraced scale-out `simulate` of `schedule`.
fn simulate_allocations(topo: &Topology, schedule: &Schedule) -> u64 {
    let emb = Embedding::nic(topo, schedule).expect("nic embedding");
    let opts = SimOptions::scale_out().without_trace();
    let (report, n) = counted(|| simulate(topo, schedule, &emb, &opts).expect("simulates"));
    assert!(report.channel_intervals().iter().all(Vec::is_empty));
    n
}

/// A simulation's allocation budget: a few per channel (its waiter
/// queue, which can regrow as it deepens) and per route, and none per
/// transfer.
fn sim_budget(topo: &Topology, schedule: &Schedule) -> u64 {
    3 * (topo.channels().len() + schedule.logical_edges().len()) as u64 + 64
}

#[test]
fn per_transfer_state_allocates_per_route_not_per_transfer() {
    // The ring: 2(P-1)P transfers over P logical edges.
    let p = 256;
    let (ring, built) = counted(|| ring_allreduce(p, ByteSize::mib(64)));
    assert_eq!(ring.transfers().len(), 130_560);
    assert!(
        built <= p as u64,
        "building the P={p} ring allocated {built} times"
    );
    let topo = hierarchical(p);
    let simulated = simulate_allocations(&topo, &ring);
    let budget = sim_budget(&topo, &ring);
    assert!(
        simulated <= budget,
        "simulating the P={p} ring allocated {simulated} times (budget {budget})"
    );

    // C1 on P=64 at three chunk counts: eight times the transfers, one
    // budget. At k=256, as in the scale-out figure, the same-instant
    // completions arrive in many runs.
    let p = 64;
    let dt = DoubleBinaryTree::new(p).expect("p >= 2");
    let topo = hierarchical(p);
    for k in [32, 64, 256] {
        let chunking = Chunking::even(ByteSize::mib(64), k);
        let (tree, built) =
            counted(|| tree_allreduce(dt.trees(), &chunking, Overlap::ReductionBroadcast));
        assert_eq!(tree.transfers().len(), 2 * (p - 1) * k);
        assert!(
            built <= p as u64,
            "building C1 on P={p} with {k} chunks allocated {built} times"
        );
        let simulated = simulate_allocations(&topo, &tree);
        let budget = sim_budget(&topo, &tree);
        assert!(
            simulated <= budget,
            "simulating C1 on P={p} with {k} chunks allocated {simulated} times (budget {budget})"
        );
    }
}
