//! Cross-model equivalence and behavior of the switch-fabric network
//! model: a passthrough [`NetworkModel::SwitchFabric`] must reproduce
//! the channel approximation within 1e-9 on every entry point
//! (healthy and under a degradation window), a split fabric must arbitrate ports
//! deterministically, oversubscribed uplinks must stall traffic, and
//! faulted runs must replay bit-identically.

use ccube_collectives::{
    ring_allreduce, tree_allreduce, Chunking, DoubleBinaryTree, Embedding, Overlap, Schedule,
};
use ccube_sim::{
    simulate, simulate_system, simulate_system_faulted, FabricSpec, FaultEvent, FaultModel,
    FaultPlan, HopMode, NetworkModel, SimOptions, SimReport, SimRng, SystemJob,
};
use ccube_topology::{dgx1, hierarchical, torus2d, ByteSize, ChannelId, Seconds, Topology};
use proptest::prelude::*;

const TOL: f64 = 1e-9;

fn switch(opts: &SimOptions) -> SimOptions {
    opts.with_network(NetworkModel::SwitchFabric(FabricSpec::passthrough()))
}

fn compute_less(schedule: Schedule) -> SystemJob {
    SystemJob {
        schedule,
        compute: vec![],
        transfer_gates: vec![],
    }
}

/// Asserts the two reports agree within `TOL` on everything the paper
/// measures: per-transfer start/complete, makespan, turnaround, and
/// per-channel busy time. Also requires identical kernel event counts —
/// the passthrough fabric performs the same operation sequence, not
/// just the same arithmetic.
fn assert_reports_match(approx: &SimReport, fabric: &SimReport, what: &str) {
    assert_eq!(
        approx.timings().len(),
        fabric.timings().len(),
        "{what}: transfer count"
    );
    for (i, (a, f)) in approx.timings().iter().zip(fabric.timings()).enumerate() {
        let ds = (a.start - f.start).as_secs_f64().abs();
        let dc = (a.complete - f.complete).as_secs_f64().abs();
        assert!(
            ds < TOL && dc < TOL,
            "{what}: transfer {i} diverges: approx [{:?}, {:?}] vs fabric [{:?}, {:?}]",
            a.start,
            a.complete,
            f.start,
            f.complete
        );
    }
    let dm = (approx.makespan() - fabric.makespan()).as_secs_f64().abs();
    assert!(dm < TOL, "{what}: makespan diverges by {dm}");
    let dt = (approx.turnaround() - fabric.turnaround())
        .as_secs_f64()
        .abs();
    assert!(dt < TOL, "{what}: turnaround diverges by {dt}");
    assert_eq!(
        approx.channel_busy().len(),
        fabric.channel_busy().len(),
        "{what}: channel count"
    );
    for (c, (a, f)) in approx
        .channel_busy()
        .iter()
        .zip(fabric.channel_busy())
        .enumerate()
    {
        let d = (*a - *f).as_secs_f64().abs();
        assert!(d < TOL, "{what}: channel {c} busy diverges by {d}");
    }
    assert_eq!(
        approx.stats().events_processed,
        fabric.stats().events_processed,
        "{what}: the passthrough fabric must process the same events"
    );
    assert_eq!(
        approx.stats().force_starts,
        fabric.stats().force_starts,
        "{what}: force-start count"
    );
}

fn c1_dgx1() -> (Topology, Schedule, Embedding) {
    let topo = dgx1();
    let dt = DoubleBinaryTree::new(8).expect("8 ranks");
    let s = tree_allreduce(
        dt.trees(),
        &Chunking::even(ByteSize::mib(16), 16),
        Overlap::ReductionBroadcast,
    );
    let e = Embedding::dgx1_double_tree(&topo, &s).expect("embeds");
    (topo, s, e)
}

#[test]
fn passthrough_fabric_matches_channel_approx_on_dgx1() {
    let (topo, s, e) = c1_dgx1();
    let opts = SimOptions::default();
    let approx = simulate(&topo, &s, &e, &opts).expect("approx runs");
    let fabric = simulate(&topo, &s, &e, &switch(&opts)).expect("fabric runs");
    assert_reports_match(&approx, &fabric, "dgx1/C1");
    // The passthrough fabric still reports its port-level view.
    assert_eq!(fabric.stats().port_busy.len(), topo.channels().len());
    assert!(approx.stats().port_busy.is_empty());
}

#[test]
fn passthrough_fabric_matches_channel_approx_on_hier16() {
    let topo = hierarchical(16);
    let opts = SimOptions::scale_out();
    for (name, s) in [
        ("ring", ring_allreduce(16, ByteSize::mib(64))),
        ("c1", {
            let dt = DoubleBinaryTree::new(16).expect("16 ranks");
            tree_allreduce(
                dt.trees(),
                &Chunking::even(ByteSize::mib(64), 64),
                Overlap::ReductionBroadcast,
            )
        }),
    ] {
        let e = Embedding::nic(&topo, &s).expect("nic embedding");
        let approx = simulate(&topo, &s, &e, &opts).expect("approx runs");
        let fabric = simulate(&topo, &s, &e, &switch(&opts)).expect("fabric runs");
        assert_reports_match(&approx, &fabric, &format!("hier16/{name}"));
    }
}

#[test]
fn passthrough_fabric_matches_in_the_system_engine() {
    let (topo, s, e) = c1_dgx1();
    let opts = SimOptions::default();
    let job = compute_less(s);
    let approx = simulate_system(&topo, &job, &e, &opts).expect("approx runs");
    let fabric = simulate_system(&topo, &job, &e, &switch(&opts)).expect("fabric runs");
    assert_eq!(approx.makespan, fabric.makespan, "system engine makespan");
    assert_eq!(
        approx.transfer_complete, fabric.transfer_complete,
        "system engine completion"
    );
    for (a, f) in approx.channel_busy.iter().zip(&fabric.channel_busy) {
        assert!((*a - *f).as_secs_f64().abs() < TOL);
    }
}

#[test]
fn passthrough_fabric_matches_in_the_fault_engine() {
    let (topo, s, e) = c1_dgx1();
    let opts = SimOptions::default();
    let job = compute_less(s);
    // A mid-flight degradation window on a channel the schedule uses.
    let plan = FaultPlan::new(vec![FaultEvent::Degraded {
        channel: ChannelId(0),
        from: Seconds::from_micros(50.0),
        until: Seconds::from_micros(400.0),
        rate: 0.25,
    }])
    .expect("valid plan");
    let approx = simulate_system_faulted(&topo, &job, &e, &opts, &plan).expect("approx runs");
    let fabric =
        simulate_system_faulted(&topo, &job, &e, &switch(&opts), &plan).expect("fabric runs");
    assert!(
        (approx.makespan - fabric.makespan).as_secs_f64().abs() < TOL,
        "faulted makespan diverges: {:?} vs {:?}",
        approx.makespan,
        fabric.makespan
    );
    assert_eq!(approx.stats.faults_injected, fabric.stats.faults_injected);
    assert_eq!(approx.stats.reroutes_taken, fabric.stats.reroutes_taken);
}

#[test]
fn fault_replay_is_bit_identical_under_the_switch_fabric() {
    let topo = hierarchical(8);
    let s = ring_allreduce(8, ByteSize::mib(16));
    let e = Embedding::nic(&topo, &s).expect("nic embedding");
    let opts = switch(&SimOptions::scale_out());
    let job = compute_less(s);
    let rng = SimRng::new(0xFAB);
    let model = FaultModel::severity(2, Seconds::from_micros(5_000.0));
    for i in 0..4u64 {
        let plan = FaultPlan::sample(&model, &topo, &rng.fork(i));
        let a = simulate_system_faulted(&topo, &job, &e, &opts, &plan);
        let b = simulate_system_faulted(&topo, &job, &e, &opts, &plan);
        match (a, b) {
            (Ok(x), Ok(y)) => assert_eq!(x, y, "plan {i} must replay bit-identically"),
            (Err(_), Err(_)) => {}
            (x, y) => panic!("plan {i}: divergent outcomes {x:?} vs {y:?}"),
        }
    }
}

#[test]
fn transient_nic_outage_stalls_but_replays_deterministically() {
    let topo = hierarchical(8);
    let s = ring_allreduce(8, ByteSize::mib(16));
    let e = Embedding::nic(&topo, &s).expect("nic embedding");
    let opts = switch(&SimOptions::scale_out());
    let job = compute_less(s.clone());
    let healthy = simulate_system(&topo, &job, &e, &opts).expect("runs");
    // Down node 3's injection channel for a window: its port rejects
    // grants, traffic stalls, and the run still completes.
    let plan = FaultPlan::new(vec![FaultEvent::LinkDown {
        channel: ChannelId(6),
        from: Seconds::from_micros(10.0),
        until: Seconds::from_micros(2_000.0),
    }])
    .expect("valid plan");
    let a = simulate_system_faulted(&topo, &job, &e, &opts, &plan).expect("runs");
    let b = simulate_system_faulted(&topo, &job, &e, &opts, &plan).expect("runs");
    assert_eq!(a, b, "faulted port outage must replay bit-identically");
    assert!(
        a.makespan >= healthy.makespan,
        "an outage cannot speed the collective up"
    );
    assert!(a.stats.faults_injected >= 1);
}

#[test]
fn split_fabric_routes_cross_leaf_traffic_through_uplinks() {
    let topo = hierarchical(8);
    let s = ring_allreduce(8, ByteSize::mib(64));
    let e = Embedding::nic(&topo, &s).expect("nic embedding");
    let base = SimOptions::scale_out();
    let passthrough = simulate(&topo, &s, &e, &switch(&base)).expect("runs");
    let split_spec = FabricSpec {
        radix: Some(4),
        ..FabricSpec::passthrough()
    };
    let split = simulate(
        &topo,
        &s,
        &e,
        &base.with_network(NetworkModel::SwitchFabric(split_spec)),
    )
    .expect("runs");
    // Two leaves of four nodes: 16 endpoint ports plus two uplink pairs.
    assert_eq!(split.stats().port_busy.len(), topo.channels().len() + 4);
    let uplink_busy: f64 = split.stats().port_busy[topo.channels().len()..]
        .iter()
        .map(|b| b.as_secs_f64())
        .sum();
    assert!(
        uplink_busy > 0.0,
        "cross-leaf ring traffic must occupy the uplink ports"
    );
    // A fully-provisioned (1:1) uplink with zero latency adds no
    // serialization beyond the endpoint bottleneck, so the split fabric
    // cannot be faster than passthrough and should be close to it.
    assert!(split.makespan() >= passthrough.makespan() - Seconds::new(TOL));
}

#[test]
fn oversubscribed_uplinks_stall_cross_leaf_traffic() {
    let topo = hierarchical(8);
    let s = ring_allreduce(8, ByteSize::mib(64));
    let e = Embedding::nic(&topo, &s).expect("nic embedding");
    let base = SimOptions::scale_out();
    let mk = |oversub: f64| {
        let spec = FabricSpec {
            radix: Some(4),
            oversubscription: oversub,
            ..FabricSpec::passthrough()
        };
        simulate(
            &topo,
            &s,
            &e,
            &base.with_network(NetworkModel::SwitchFabric(spec)),
        )
        .expect("runs")
        .makespan()
    };
    let provisioned = mk(1.0);
    let oversub = mk(8.0);
    assert!(
        oversub > provisioned,
        "8:1 oversubscription must slow the ring: {provisioned:?} vs {oversub:?}"
    );
}

#[test]
fn store_and_forward_is_never_faster_than_cut_through() {
    let topo = hierarchical(8);
    let s = ring_allreduce(8, ByteSize::mib(16));
    let e = Embedding::nic(&topo, &s).expect("nic embedding");
    let base = SimOptions::scale_out();
    let mk = |mode: HopMode| {
        let spec = FabricSpec {
            radix: Some(4),
            hop_mode: mode,
            ..FabricSpec::passthrough()
        };
        simulate(
            &topo,
            &s,
            &e,
            &base.with_network(NetworkModel::SwitchFabric(spec)),
        )
        .expect("runs")
        .makespan()
    };
    let ct = mk(HopMode::CutThrough);
    let sf = mk(HopMode::StoreForward);
    assert!(
        sf >= ct,
        "store-and-forward pays one serialization per hop: {ct:?} vs {sf:?}"
    );
}

#[test]
fn switch_queue_depth_is_tracked_per_switch() {
    let topo = hierarchical(8);
    let s = ring_allreduce(8, ByteSize::mib(64));
    let e = Embedding::nic(&topo, &s).expect("nic embedding");
    let spec = FabricSpec {
        radix: Some(2),
        oversubscription: 8.0,
        ..FabricSpec::passthrough()
    };
    let report = simulate(
        &topo,
        &s,
        &e,
        &SimOptions::scale_out().with_network(NetworkModel::SwitchFabric(spec)),
    )
    .expect("runs");
    // Four leaves of two nodes each.
    assert_eq!(report.stats().switch_queue_depth.len(), 4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The equivalence contract holds across random scale-out shapes
    /// and chunkings, in both engine entry points.
    #[test]
    fn passthrough_equivalence_holds_on_random_hierarchies(
        p in 2usize..10,
        chunks in 1usize..6,
        mib in prop_oneof![Just(1u64), Just(4u64), Just(16u64)],
    ) {
        let topo = hierarchical(p);
        let n = ByteSize::mib(mib);
        let s = ring_allreduce(p, n);
        let s = if chunks > 1 {
            let dt = DoubleBinaryTree::new(p);
            match dt {
                Ok(dt) => tree_allreduce(
                    dt.trees(),
                    &Chunking::even(n, chunks * 2),
                    Overlap::ReductionBroadcast,
                ),
                Err(_) => s,
            }
        } else {
            s
        };
        let e = Embedding::nic(&topo, &s).expect("nic embedding");
        let opts = SimOptions::scale_out();
        let approx = simulate(&topo, &s, &e, &opts).expect("approx runs");
        let fabric = simulate(&topo, &s, &e, &switch(&opts)).expect("fabric runs");
        assert_reports_match(&approx, &fabric, &format!("hier{p}/k{chunks}"));
    }

    /// Direct-link topologies derive a degenerate (switchless) fabric;
    /// the contract must hold there too.
    #[test]
    fn passthrough_equivalence_holds_on_direct_topologies(
        rows in 2usize..4,
        cols in 2usize..4,
        mib in prop_oneof![Just(1u64), Just(8u64)],
    ) {
        let topo = torus2d(rows, cols);
        let p = rows * cols;
        let s = ring_allreduce(p, ByteSize::mib(mib));
        let e = Embedding::identity(&topo, &s).expect("identity embedding");
        let opts = SimOptions::default();
        let approx = simulate(&topo, &s, &e, &opts).expect("approx runs");
        let fabric = simulate(&topo, &s, &e, &switch(&opts)).expect("fabric runs");
        assert_reports_match(&approx, &fabric, &format!("torus{rows}x{cols}"));
    }
}

/// Store-and-forward holds the whole port path for the summed per-hop
/// serializations. Pins the resulting makespan of the 16 MiB ring on a
/// radix-4 split of `hierarchical(8)`, so a change to the hop model
/// shows up here.
#[test]
fn store_and_forward_holds_the_whole_port_path() {
    let topo = hierarchical(8);
    let s = ring_allreduce(8, ByteSize::mib(16));
    let e = Embedding::nic(&topo, &s).expect("nic embedding");
    let spec = FabricSpec {
        radix: Some(4),
        hop_mode: HopMode::StoreForward,
        ..FabricSpec::passthrough()
    };
    let opts = SimOptions::scale_out().with_network(NetworkModel::SwitchFabric(spec));
    let makespan = simulate(&topo, &s, &e, &opts).expect("runs").makespan();
    let pinned = 2.978_012_8e-3;
    assert!(
        (makespan.as_secs_f64() - pinned).abs() < 1e-12,
        "store-and-forward makespan {makespan:?}, pinned {pinned} s"
    );
}
