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
//! The scheduler's per-transfer state is also bounded in bytes: the peak
//! heap an untraced `simulate` of the P=256 ring holds above what its
//! caller already held stays within [`SIM_PEAK_BYTES_PER_TRANSFER`] per
//! transfer. A transfer costs a 16-byte pool slot, its 16-byte timing
//! and three 4-byte dependency-table entries (44 bytes); a wider slot or
//! a second copy of any per-transfer table breaks the bound.
//!
//! Fault severance decides each logical edge's route once per window, so
//! classifying an uplink, a spine and a link outage of C1 on
//! `hierarchical(16)` at k=64 (1,920 transfers, 60 edges) on a
//! least-queued leaf/spine fabric stays below half the transfer count.
//!
//! A counting global allocator takes the counts and tracks live and
//! peak bytes. Everything runs in one `#[test]`, so no other test of this
//! binary can allocate while a count is taken.

use ccube_collectives::{
    ring_allreduce, tree_allreduce, Chunking, DoubleBinaryTree, Embedding, Overlap, Schedule,
};
use ccube_sim::faults::{forever, FaultEvent, FaultPlan};
use ccube_sim::{
    analyze_severance, simulate, FabricSpec, HopMode, NetworkModel, SimOptions, UplinkPolicy,
};
use ccube_topology::{hierarchical, ByteSize, ChannelId, Seconds, Topology};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The heap an untraced `simulate` may hold at its peak, per transfer,
/// above what its caller held: 44 bytes of per-transfer state plus
/// slack for the per-channel and per-route tables.
const SIM_PEAK_BYTES_PER_TRANSFER: u64 = 48;

/// The system allocator, counting every allocation and reallocation and
/// tracking live and peak bytes.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grew(new_size);
        shrank(layout.size());
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
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

/// Allocations of an untraced scale-out `simulate` of `schedule`, and
/// the peak heap it held above what was live when it was called.
fn simulate_allocations(topo: &Topology, schedule: &Schedule) -> (u64, u64) {
    let emb = Embedding::nic(topo, schedule).expect("nic embedding");
    let opts = SimOptions::scale_out().without_trace();
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let (report, n) = counted(|| simulate(topo, schedule, &emb, &opts).expect("simulates"));
    let peak = PEAK.load(Ordering::Relaxed) - base;
    assert!(report.channel_intervals().iter().all(Vec::is_empty));
    (n, peak)
}

/// A simulation's allocation budget: a few per channel (its waiter
/// queue, which can regrow as it deepens) and per route, and none per
/// transfer.
fn sim_budget(topo: &Topology, schedule: &Schedule) -> u64 {
    3 * (topo.channels().len() + schedule.edges().len()) as u64 + 64
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
    let (simulated, peak) = simulate_allocations(&topo, &ring);
    let budget = sim_budget(&topo, &ring);
    assert!(
        simulated <= budget,
        "simulating the P={p} ring allocated {simulated} times (budget {budget})"
    );
    let transfers = ring.transfers().len() as u64;
    let per_transfer = peak as f64 / transfers as f64;
    println!(
        "simulating the P={p} ring peaked at {peak} heap bytes ({per_transfer:.1} per transfer)"
    );
    assert!(
        peak <= SIM_PEAK_BYTES_PER_TRANSFER * transfers,
        "simulating the P={p} ring peaked at {peak} heap bytes, {per_transfer:.1} per transfer \
         (budget {SIM_PEAK_BYTES_PER_TRANSFER})"
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
        let (simulated, _) = simulate_allocations(&topo, &tree);
        let budget = sim_budget(&topo, &tree);
        assert!(
            simulated <= budget,
            "simulating C1 on P={p} with {k} chunks allocated {simulated} times (budget {budget})"
        );
    }
    // Severance of C1 on P=16 at k=64: an uplink, a spine and a NIC
    // channel outage, on a least-queued radix-4, 2-uplink, 2-spine
    // fabric.
    let topo = hierarchical(16);
    let dt = DoubleBinaryTree::new(16).expect("p >= 2");
    let tree = tree_allreduce(
        dt.trees(),
        &Chunking::even(ByteSize::mib(64), 64),
        Overlap::ReductionBroadcast,
    );
    assert_eq!((tree.transfers().len(), tree.edges().len()), (1920, 60));
    let emb = Embedding::nic(&topo, &tree).expect("nic embedding");
    let plan = FaultPlan::new(vec![
        FaultEvent::UplinkDown {
            leaf: 0,
            uplink: 0,
            from: Seconds::ZERO,
            until: forever(),
        },
        FaultEvent::SwitchDown {
            spine: 1,
            from: Seconds::from_micros(10.0),
            until: Seconds::from_micros(200.0),
        },
        FaultEvent::LinkDown {
            channel: ChannelId(0),
            from: Seconds::from_micros(50.0),
            until: Seconds::from_micros(500.0),
        },
    ])
    .expect("valid plan");
    let opts = SimOptions::default().with_network(NetworkModel::SwitchFabric(FabricSpec {
        radix: Some(4),
        uplinks: 2,
        spines: 2,
        uplink_policy: UplinkPolicy::LeastQueued,
        hop_mode: HopMode::CutThrough,
        ..FabricSpec::passthrough()
    }));
    let (report, severance) = counted(|| analyze_severance(&plan, &topo, &tree, &emb, &opts));
    // One finding per window.
    assert_eq!(report.diagnostics().len(), 3, "{report}");
    println!("analyze_severance: {severance} allocations");
    assert!(
        severance < 960,
        "analyze_severance made {severance} allocations on 1,920 transfers"
    );
}
