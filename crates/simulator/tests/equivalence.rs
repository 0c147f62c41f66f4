//! Cross-checks of the scheduler: the DES agrees with the paper's closed
//! forms where their assumptions coincide, and its entry points agree
//! with each other exactly.

use ccube_collectives::cost::{t_overlapped_chunked, t_tree_chunked, CostParams};
use ccube_collectives::{
    ring_allreduce, tree_allreduce, BinaryTree, Chunking, DoubleBinaryTree, Embedding, Overlap,
    Schedule,
};
use ccube_sim::{
    simulate, simulate_faulted, simulate_system, Arbitration, FabricSpec, FaultPlan, HopMode,
    NetworkModel, SimOptions, SystemJob, UplinkPolicy,
};
use ccube_topology::{
    dgx1, hierarchical, ByteSize, ChannelClass, Seconds, Topology, TopologyBuilder,
};
use proptest::prelude::*;

/// A topology with one dedicated channel per logical edge of `schedule`
/// (per direction), every channel priced at the closed form's α/β — the
/// contention-free regime Eq. 3/6/7 assume.
fn dedicated_channels(schedule: &Schedule, params: &CostParams) -> Topology {
    let mut b = TopologyBuilder::new("dedicated", schedule.num_ranks());
    let mut seen = std::collections::HashSet::new();
    for (src, dst, _tree) in schedule.edges() {
        if seen.insert((src, dst)) {
            b.channel(
                ccube_topology::GpuId(src.0),
                ccube_topology::GpuId(dst.0),
                params.bandwidth(),
                params.alpha(),
                ChannelClass::NvLink,
            )
            .expect("valid edge");
        }
    }
    b.build().expect("valid topology")
}

/// On a contention-free embedding, the single-tree DES must match the
/// chunked closed forms (Eq. 3 per phase; Eq. 6/7 are their optima)
/// within the 3% cross-validation tolerance documented in DESIGN.md —
/// the closed form idealizes the pipeline's fill/drain at `log P` steps,
/// the DES executes the exact dependency graph.
#[test]
fn single_tree_des_matches_closed_form() {
    let params = CostParams::nvlink();
    let p = 8;
    let n = ByteSize::mib(64);
    let k = 64;
    for (overlap, closed) in [
        (Overlap::None, t_tree_chunked(&params, p, n, k)),
        (
            Overlap::ReductionBroadcast,
            t_overlapped_chunked(&params, p, n, k),
        ),
    ] {
        let tree = BinaryTree::inorder(p).unwrap();
        let s = tree_allreduce(std::slice::from_ref(&tree), &Chunking::even(n, k), overlap);
        let topo = dedicated_channels(&s, &params);
        let e = Embedding::identity(&topo, &s).unwrap();
        let report = simulate(&topo, &s, &e, &SimOptions::default()).unwrap();
        let sim = report.makespan().as_secs_f64();
        let model = closed.as_secs_f64();
        let rel = (sim - model).abs() / model;
        assert!(
            rel < 0.03,
            "{overlap:?}: DES {sim:.6}s vs closed form {model:.6}s ({:.2}% off)",
            rel * 100.0
        );
        // "Contention-free" means no two *edges* share a channel; chunks
        // of the same edge still pipeline behind each other, which is
        // exactly the serialization term the closed form prices — so the
        // queue-wait counter must have seen that pipelining.
        assert!(report.stats().total_queue_wait() > ccube_topology::Seconds::ZERO);
    }
}

/// With no compute tasks, `simulate_system` is the same machine as
/// `simulate` — same lowering, same scheduler — so their per-transfer
/// completion times must agree **exactly**, not just within a tolerance.
#[test]
fn system_engine_with_zero_compute_equals_network_engine_exactly() {
    let topo = dgx1();
    let cases: Vec<(Schedule, Embedding)> = {
        let ring = ring_allreduce(8, ByteSize::mib(16));
        let ring_e = Embedding::identity(&topo, &ring).unwrap();
        let dt = DoubleBinaryTree::new(8).unwrap();
        let tree = tree_allreduce(
            dt.trees(),
            &Chunking::even(ByteSize::mib(32), 16),
            Overlap::ReductionBroadcast,
        );
        let tree_e = Embedding::dgx1_double_tree(&topo, &tree).unwrap();
        vec![(ring, ring_e), (tree, tree_e)]
    };
    for (s, e) in cases {
        let opts = SimOptions::default();
        let net = simulate(&topo, &s, &e, &opts).unwrap();
        let job = SystemJob {
            schedule: s.clone(),
            compute: vec![],
            transfer_gates: vec![],
        };
        let sys = simulate_system(&topo, &job, &e, &opts).unwrap();
        assert_eq!(net.makespan(), sys.makespan, "{}", s.algorithm());
        for (i, timing) in net.timings().iter().enumerate() {
            assert_eq!(
                timing.complete,
                sys.transfer_complete[i],
                "transfer {i} of {}",
                s.algorithm()
            );
        }
        assert_eq!(net.channel_busy(), &sys.channel_busy[..]);
    }
}

fn c1(p: usize, n: ByteSize, k: usize) -> Schedule {
    let dt = DoubleBinaryTree::new(p).expect("valid rank count");
    tree_allreduce(
        dt.trees(),
        &Chunking::even(n, k),
        Overlap::ReductionBroadcast,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `simulate`, `simulate_system` on a compute-less job and
    /// `simulate_faulted` with an empty plan are one scheduler, so on any
    /// machine and network model they agree **exactly**: per-transfer
    /// completion times, makespan and channel busy time. That includes
    /// adaptive uplink steering, which revises slots in every run.
    #[test]
    fn entry_points_agree_on_random_fabrics(
        machine in prop_oneof![
            Just(0usize),
            Just(4usize),
            Just(6usize),
            Just(8usize),
            Just(12usize),
            Just(16usize),
        ],
        tree in prop_oneof![Just(false), Just(true)],
        k in 1usize..5,
        fabric in prop_oneof![Just(false), Just(true)],
        radix in prop_oneof![Just(None), Just(Some(2usize)), Just(Some(4usize))],
        uplinks in 1usize..4,
        spines in 1usize..3,
        policy in prop_oneof![
            Just(UplinkPolicy::Hash),
            Just(UplinkPolicy::LeastQueued),
            Just(UplinkPolicy::Failover),
        ],
        store_forward in prop_oneof![Just(false), Just(true)],
        priority in prop_oneof![Just(false), Just(true)],
    ) {
        let n = ByteSize::mib(4);
        // Machine 0 is the DGX-1; the rest are hierarchical NIC machines.
        let (topo, s, e) = if machine == 0 {
            let topo = dgx1();
            if tree {
                let s = c1(8, n, 2 * k);
                let e = Embedding::dgx1_double_tree(&topo, &s).expect("embeds");
                (topo, s, e)
            } else {
                let s = ring_allreduce(8, n);
                let e = Embedding::identity(&topo, &s).expect("embeds");
                (topo, s, e)
            }
        } else {
            let topo = hierarchical(machine);
            let s = if tree { c1(machine, n, 2 * k) } else { ring_allreduce(machine, n) };
            let e = Embedding::nic(&topo, &s).expect("embeds");
            (topo, s, e)
        };
        let network = if fabric {
            NetworkModel::SwitchFabric(FabricSpec {
                radix,
                uplink_latency: Seconds::from_micros(1.0),
                hop_mode: if store_forward { HopMode::StoreForward } else { HopMode::CutThrough },
                spines,
                uplinks,
                uplink_policy: policy,
                ..FabricSpec::default()
            })
        } else {
            NetworkModel::ChannelApprox
        };
        let opts = SimOptions {
            arbitration: if priority { Arbitration::ChunkPriority } else { Arbitration::FifoHol },
            ..SimOptions::default()
        }
        .with_network(network);

        let net = simulate(&topo, &s, &e, &opts).expect("simulate runs");
        let job = SystemJob {
            schedule: s.clone(),
            compute: vec![],
            transfer_gates: vec![],
        };
        let sys = simulate_system(&topo, &job, &e, &opts).expect("system runs");
        let faulted =
            simulate_faulted(&topo, &s, &e, &opts, &FaultPlan::empty()).expect("faulted runs");

        prop_assert_eq!(net.makespan(), sys.makespan);
        for (i, timing) in net.timings().iter().enumerate() {
            prop_assert_eq!(timing.complete, sys.transfer_complete[i], "transfer {}", i);
        }
        prop_assert_eq!(net.channel_busy(), &sys.channel_busy[..]);
        prop_assert_eq!(net.stats(), &sys.stats);
        prop_assert_eq!(sys, faulted);
    }
}
