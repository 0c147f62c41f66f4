//! Allocation budget of the static analyzers.
//!
//! `analyze_embedded` keeps flat tables: the wait-for graph as CSR, one
//! ancestor bitset for the race check, one contribution table for the
//! dataflow replay and one step replay shared by the passes that read it.
//! So linting a clean candidate allocates per logical edge and per
//! finding, not per transfer. The candidate is the search's largest: the
//! overlapped double tree (C1) on `hierarchical(16)` at k=64, 1,920
//! transfers, with the runtime's bounded mailboxes modelled.
//!
//! The physical analyzer and the channel-level certified bound read one
//! route per logical edge (60 here) and walk each onto the fabric once,
//! so on a radix-4, 2-uplink, 2-spine fabric each stays below
//! [`PER_EDGE_BUDGET`], half the transfer count.
//!
//! A counting global allocator takes the count. This binary has one
//! `#[test]`, so nothing else allocates while it is taken.

use ccube_collectives::analyze::{analyze_embedded, AnalyzeOptions};
use ccube_collectives::physical::{analyze_physical, makespan_lower_bound};
use ccube_collectives::{tree_allreduce, Chunking, DoubleBinaryTree, Embedding, Overlap};
use ccube_topology::{hierarchical, ByteSize, FabricConfig, FabricGraph};
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

/// The allocations the per-edge passes may make on the 1,920-transfer
/// candidate: half its transfer count.
const PER_EDGE_BUDGET: u64 = 960;

/// `f`'s result and the number of allocations it made.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let r = f();
    (r, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn analyzing_a_search_candidate_allocates_per_edge_not_per_transfer() {
    let topo = hierarchical(16);
    let dt = DoubleBinaryTree::new(16).expect("valid rank count");
    let schedule = tree_allreduce(
        dt.trees(),
        &Chunking::even(ByteSize::mib(64), 64),
        Overlap::ReductionBroadcast,
    );
    assert_eq!(schedule.transfers().len(), 1920);
    let emb = Embedding::nic(&topo, &schedule).expect("nic embedding");
    let opts = AnalyzeOptions {
        mailbox_capacity: Some(4),
        ..AnalyzeOptions::default()
    };

    let (report, allocations) = counted(|| analyze_embedded(&schedule, &emb, &topo, &opts));
    assert!(report.is_clean(), "{report}");
    assert!(
        allocations < 6_000,
        "analyze_embedded made {allocations} allocations on 1,920 transfers"
    );

    assert_eq!(schedule.edges().len(), 60);
    let fabric = FabricGraph::from_topology(
        &topo,
        &FabricConfig {
            radix: Some(4),
            uplinks_per_leaf: 2,
            spines: 2,
            ..FabricConfig::default()
        },
    );
    let (report, allocations) =
        counted(|| analyze_physical(&schedule, &emb, &topo, &fabric, &Default::default()));
    assert!(report.is_clean(), "{report}");
    println!("analyze_physical: {allocations} allocations");
    assert!(
        allocations < PER_EDGE_BUDGET,
        "analyze_physical made {allocations} allocations on 1,920 transfers"
    );
    let (bound, allocations) =
        counted(|| makespan_lower_bound(&schedule, &emb, &topo, &Default::default()));
    assert!(bound.is_some());
    println!("makespan_lower_bound: {allocations} allocations");
    assert!(
        allocations < PER_EDGE_BUDGET,
        "makespan_lower_bound made {allocations} allocations on 1,920 transfers"
    );
}
