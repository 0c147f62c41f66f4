//! Allocation budget of the static analyzer.
//!
//! `analyze_embedded` keeps flat tables: the wait-for graph as CSR, one
//! ancestor bitset for the race check, one contribution table for the
//! dataflow replay and one step replay shared by the passes that read it.
//! So linting a clean candidate allocates per logical edge and per
//! finding, not per transfer. The candidate is the search's largest: the
//! overlapped double tree (C1) on `hierarchical(16)` at k=64, 1,920
//! transfers, with the runtime's bounded mailboxes modelled.
//!
//! A counting global allocator takes the count. This binary has one
//! `#[test]`, so nothing else allocates while it is taken.

use ccube_collectives::analyze::{analyze_embedded, AnalyzeOptions};
use ccube_collectives::{tree_allreduce, Chunking, DoubleBinaryTree, Embedding, Overlap};
use ccube_topology::{hierarchical, ByteSize};
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

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = analyze_embedded(&schedule, &emb, &topo, &opts);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert!(report.is_clean(), "{report}");
    assert!(
        allocations < 6_000,
        "analyze_embedded made {allocations} allocations on 1,920 transfers"
    );
}
