//! Determinism properties of the DES kernel and the engines built on it.
//!
//! The kernel's total event order `(time, key, seq)` makes every run a
//! pure function of its inputs: simulating the same schedule twice must
//! produce **bit-identical** reports — timings, busy intervals, traces
//! and counters included ([`SimReport`] derives `PartialEq` precisely so
//! this can be asserted wholesale). The kernel itself is private to the
//! scheduler, so its pop order is observed through the trace, which
//! records every completion in the order the kernel pops it.
//!
//! Runs are independent too: each builds its own scheduler state, so no
//! run can leak state into the next, however runs of different shapes
//! interleave on one thread.

use ccube_collectives::{
    ring_allreduce, tree_allreduce, BinaryTree, Chunking, DoubleBinaryTree, Embedding, Overlap,
    Schedule,
};
use ccube_sim::trace::TraceRecord;
use ccube_sim::{
    simulate, simulate_faulted, simulate_system, Arbitration, ComputeTask, ComputeTaskId,
    FaultPlan, SimOptions, SimReport, SystemJob,
};
use ccube_topology::{dgx1, hierarchical, ByteSize, GpuId, Seconds, Topology};
use proptest::prelude::*;

fn overlap_strategy() -> impl Strategy<Value = Overlap> {
    prop_oneof![Just(Overlap::None), Just(Overlap::ReductionBroadcast)]
}

fn arbitration_strategy() -> impl Strategy<Value = Arbitration> {
    prop_oneof![Just(Arbitration::FifoHol), Just(Arbitration::ChunkPriority)]
}

/// Runs the same simulation twice and demands bit-identical reports.
fn assert_deterministic(
    topo: &Topology,
    schedule: &ccube_collectives::Schedule,
    embedding: &Embedding,
    opts: &SimOptions,
) -> SimReport {
    let a = simulate(topo, schedule, embedding, opts).expect("first run");
    let b = simulate(topo, schedule, embedding, opts).expect("second run");
    assert_eq!(a, b, "two runs of the same inputs diverged");
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn simulate_is_deterministic_on_dgx1(
        p in 2usize..=8,
        kib in 1u64..2048,
        k in 1usize..24,
        overlap in overlap_strategy(),
        arbitration in arbitration_strategy(),
        use_tree in 0usize..2,
    ) {
        let topo = dgx1();
        let opts = SimOptions { arbitration, ..SimOptions::default() };
        let n = ByteSize::kib(kib);
        let (s, e) = if use_tree == 1 {
            let tree = BinaryTree::inorder(p).unwrap();
            let s = tree_allreduce(
                std::slice::from_ref(&tree),
                &Chunking::even(n, k),
                overlap,
            );
            let e = Embedding::identity(&topo, &s).unwrap();
            (s, e)
        } else {
            let s = ring_allreduce(p, n);
            let e = Embedding::identity(&topo, &s).unwrap();
            (s, e)
        };
        let report = assert_deterministic(&topo, &s, &e, &opts);
        prop_assert!(report.makespan() > ccube_topology::Seconds::ZERO);
    }

    #[test]
    fn simulate_is_deterministic_on_hierarchical(
        p in 2usize..32,
        kib in 1u64..2048,
        k in 2usize..24,
        overlap in overlap_strategy(),
        arbitration in arbitration_strategy(),
        use_double_tree in 0usize..2,
    ) {
        let topo = hierarchical(p);
        let opts = SimOptions { arbitration, ..SimOptions::default() };
        let n = ByteSize::kib(kib);
        let (s, e) = if use_double_tree == 1 && p >= 2 {
            match DoubleBinaryTree::new(p) {
                Ok(dt) => {
                    let s = tree_allreduce(dt.trees(), &Chunking::even(n, k), overlap);
                    let e = Embedding::nic(&topo, &s).unwrap();
                    (s, e)
                }
                Err(_) => {
                    let s = ring_allreduce(p, n);
                    let e = Embedding::nic(&topo, &s).unwrap();
                    (s, e)
                }
            }
        } else {
            let s = ring_allreduce(p, n);
            let e = Embedding::nic(&topo, &s).unwrap();
            (s, e)
        };
        // Shared NIC channels are where arbitration actually bites, so
        // this exercises the contended paths of the pool.
        let report = assert_deterministic(&topo, &s, &e, &opts);
        prop_assert!(report.makespan() > ccube_topology::Seconds::ZERO);
    }

    #[test]
    fn kernel_pops_any_event_set_in_total_order(
        times in prop::collection::vec(0u64..50, 1..64),
    ) {
        // One independent compute task per GPU, each finishing at its own
        // (often tied) time: whatever the set, the completions pop sorted
        // by (time, key), where a compute task's key grows with its id —
        // and replaying the same set twice gives the same sequence.
        let topo = hierarchical(64);
        let schedule = ring_allreduce(2, ByteSize::kib(1));
        let emb = Embedding::nic(&topo, &schedule).unwrap();
        let compute = times
            .iter()
            .enumerate()
            .map(|(i, &t)| ComputeTask {
                id: ComputeTaskId(i as u32),
                gpu: GpuId(i as u32),
                duration: Seconds::from_micros(t as f64),
                deps_compute: vec![],
                deps_transfers: vec![],
                label: format!("t{i}"),
            })
            .collect();
        let job = SystemJob { schedule, compute, transfer_gates: vec![] };
        let mut runs = Vec::new();
        for _ in 0..2 {
            let report = simulate_system(&topo, &job, &emb, &SimOptions::default()).unwrap();
            let popped: Vec<(Seconds, u32)> = report
                .trace
                .records()
                .filter_map(|r| match *r {
                    TraceRecord::ComputeEnd { id, at, .. } => Some((at, id)),
                    _ => None,
                })
                .collect();
            prop_assert_eq!(popped.len(), times.len());
            let mut expected: Vec<(Seconds, u32)> = times
                .iter()
                .enumerate()
                .map(|(i, &t)| (Seconds::from_micros(t as f64), i as u32))
                .collect();
            expected.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
            prop_assert_eq!(&popped, &expected);
            let clock: Vec<Seconds> = report.trace.records().map(TraceRecord::at).collect();
            for w in clock.windows(2) {
                prop_assert!(w[0] <= w[1], "clock went backwards");
            }
            runs.push(report);
        }
        prop_assert_eq!(&runs[0], &runs[1]);
    }
}

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
fn interleaved_runs_leak_no_state_into_each_other() {
    // A hundred and fifty interleaved heterogeneous runs on one thread
    // must each replay exactly: FifoHol on the DGX-1, and ChunkPriority
    // on shared NICs, whose queues run deep.
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
        assert_eq!(
            ring0, r,
            "ring diverged after interleaved runs, iteration {i}"
        );
        assert_eq!(
            nic0, n,
            "scale-out C1 diverged after interleaved runs, iteration {i}"
        );
        assert_eq!(
            tree0, t,
            "tree diverged after interleaved runs, iteration {i}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Repeated faulted runs replay bit-identically under sampled fault
    /// plans, whose reroutes swap paths that sibling transfers share.
    #[test]
    fn faulted_runs_leak_no_state_into_each_other(
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
