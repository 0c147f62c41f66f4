//! End-to-end tests of the fault-injection engine: no-op guarantees,
//! forced detours on the DGX-1's doubled pairs, NIC stalls on the
//! scale-out fabric, boundary rescaling, replay determinism over sampled
//! plans, and shrinking of failing plans to 1-minimal reproducers.

use ccube_collectives::{
    ring_allreduce, tree_allreduce, verify, Chunking, DoubleBinaryTree, Embedding, LinkTiming,
    Overlap, Schedule, Wormhole,
};
use ccube_sim::{
    forever, simulate_faulted, simulate_system_faulted, FaultEvent, FaultModel, FaultPlan,
    SimError, SimOptions, SimRng, SystemJob, TraceRecord,
};
use ccube_topology::{
    dgx1, hierarchical, ByteSize, ChannelClass, ChannelId, GpuId, Seconds, Topology,
};
use proptest::prelude::*;

fn compute_less(schedule: Schedule) -> SystemJob {
    SystemJob {
        schedule,
        compute: vec![],
        transfer_gates: vec![],
    }
}

/// The C1 configuration: overlapped double tree on the DGX-1.
fn c1(topo: &Topology) -> (Schedule, Embedding) {
    let dt = DoubleBinaryTree::new(8).expect("8 ranks");
    let s = tree_allreduce(
        dt.trees(),
        &Chunking::even(ByteSize::mib(16), 16),
        Overlap::ReductionBroadcast,
    );
    let e = Embedding::dgx1_double_tree(topo, &s).expect("embeds");
    (s, e)
}

#[test]
fn empty_plan_is_bit_identical_to_the_healthy_engine() {
    let topo = dgx1();
    let (s, e) = c1(&topo);
    let opts = SimOptions::default();
    let healthy =
        ccube_sim::simulate_system(&topo, &compute_less(s.clone()), &e, &opts).expect("runs");
    let faulted = simulate_faulted(&topo, &s, &e, &opts, &FaultPlan::empty()).expect("runs");
    assert_eq!(healthy, faulted, "empty plan must be a literal no-op");
}

#[test]
fn downing_the_doubled_nvlink_pair_forces_the_documented_detour() {
    let topo = dgx1();
    // The GPU2–GPU3 pair is doubled (paper Fig. 10): both 2→3 NVLinks
    // must go down before the router falls back to a detour.
    let twins: Vec<ChannelId> = topo
        .channels_between(GpuId(2), GpuId(3))
        .into_iter()
        .filter(|&c| topo.channel(c).class() == ChannelClass::NvLink)
        .collect();
    assert_eq!(twins.len(), 2, "GPU2-GPU3 is a doubled pair");

    let s = ring_allreduce(8, ByteSize::mib(8));
    let e = Embedding::identity(&topo, &s).expect("embeds");
    let opts = SimOptions::default();
    let healthy = simulate_faulted(&topo, &s, &e, &opts, &FaultPlan::empty()).expect("runs");
    // The healthy ring sends 2->3 over a direct NVLink: no detour hops
    // for those transfers (cross-quad hops like 3->4 do detour).
    let direct_pairs: Vec<_> = s
        .transfers()
        .iter()
        .filter(|t| t.src == ccube_collectives::Rank(2) && t.dst == ccube_collectives::Rank(3))
        .map(|t| t.id)
        .collect();
    assert!(!direct_pairs.is_empty());
    assert!(detour_vias_of(&healthy.trace, &direct_pairs).is_empty());

    let plan = FaultPlan::new(
        twins
            .iter()
            .map(|&c| FaultEvent::LinkDown {
                channel: c,
                from: Seconds::ZERO,
                until: forever(),
            })
            .collect(),
    )
    .expect("valid plan");
    let r = simulate_faulted(&topo, &s, &e, &opts, &plan).expect("host bridge keeps dgx1 routable");

    assert!(r.stats.reroutes_taken >= 1, "2->3 traffic must re-route");
    assert_eq!(r.stats.faults_injected, 2);
    assert!(
        r.makespan >= healthy.makespan,
        "detours cannot beat the healthy ring: {} < {}",
        r.makespan,
        healthy.makespan
    );
    // The dead channels never carried traffic and were down for the
    // whole run.
    for &c in &twins {
        assert!(r.channel_busy[c.index()].is_zero());
        assert_eq!(r.stats.channel_downtime[c.index()], r.makespan);
    }
    // Every 2->3 transfer now forwards through a quad-mate with direct
    // NVLinks to both endpoints — never through GPU2/GPU3 themselves.
    let vias = detour_vias_of(&r.trace, &direct_pairs);
    assert!(!vias.is_empty(), "the fallback route is a detour");
    for via in vias {
        assert_ne!(via, GpuId(2));
        assert_ne!(via, GpuId(3));
        let leg = |a: GpuId, b: GpuId| {
            topo.channels_between(a, b)
                .into_iter()
                .any(|c| topo.channel(c).class() == ChannelClass::NvLink)
        };
        assert!(leg(GpuId(2), via) && leg(via, GpuId(3)), "bad via {via}");
    }
    let reroutes = r
        .trace
        .records()
        .filter(|rec| matches!(rec, TraceRecord::Reroute { .. }))
        .count() as u64;
    assert_eq!(reroutes, r.stats.reroutes_taken);

    // A re-routed 2->3 transfer runs for exactly the wormhole time of the
    // channels it was granted, as a detour.
    let mut checked = 0;
    for rec in r.trace.records() {
        let TraceRecord::Reroute { id, .. } = *rec else {
            continue;
        };
        if !direct_pairs.contains(&id) {
            continue;
        }
        let mut granted = Vec::new();
        let (mut start, mut end) = (None, None);
        for rec in r.trace.records() {
            match *rec {
                TraceRecord::ChannelGrant { channel, id: g, .. } if g == id => {
                    granted.push(channel)
                }
                TraceRecord::TransferStart { id: g, at } if g == id => start = Some(at),
                TraceRecord::TransferEnd { id: g, at } if g == id => end = Some(at),
                _ => {}
            }
        }
        let took = end.expect("the transfer ends") - start.expect("the transfer starts");
        let want = Wormhole::of_channels(&topo, &granted).duration(
            s.transfer(id).bytes,
            true,
            &LinkTiming::default(),
        );
        let rel = (took.as_secs_f64() - want.as_secs_f64()).abs() / want.as_secs_f64();
        assert!(rel <= 1e-12, "{id} took {took}, its detour {want}");
        checked += 1;
    }
    assert!(checked > 0, "some 2->3 transfer was re-routed");
}

fn detour_vias_of(
    trace: &ccube_sim::SimTrace,
    ids: &[ccube_collectives::TransferId],
) -> Vec<GpuId> {
    trace
        .records()
        .filter_map(|rec| match rec {
            TraceRecord::DetourHop { id, via, .. } if ids.contains(id) => Some(*via),
            _ => None,
        })
        .collect()
}

#[test]
fn nic_flaps_stall_until_repair_and_permanent_downs_are_unroutable() {
    let topo = hierarchical(4);
    let s = ring_allreduce(4, ByteSize::mib(1));
    let e = Embedding::nic(&topo, &s).expect("embeds");
    let opts = SimOptions::scale_out();
    let healthy = simulate_faulted(&topo, &s, &e, &opts, &FaultPlan::empty()).expect("runs");

    // Node 0's injection NIC (channel 2*0) flaps for half the healthy
    // run: the ring stalls, then resumes — no re-route exists on the
    // flat fabric, so the makespan stretches but the run completes.
    let inj0 = ChannelId(0);
    let flap = FaultPlan::new(vec![FaultEvent::LinkDown {
        channel: inj0,
        from: Seconds::ZERO,
        until: healthy.makespan * 0.5,
    }])
    .expect("valid");
    let r = simulate_faulted(&topo, &s, &e, &opts, &flap).expect("finishes after repair");
    assert!(r.makespan > healthy.makespan);
    assert_eq!(r.stats.reroutes_taken, 0, "NIC paths never re-route");

    // Permanently severed, the same NIC makes the ring unroutable, with
    // the stuck endpoint named in the error.
    let dead = FaultPlan::new(vec![FaultEvent::LinkDown {
        channel: inj0,
        from: Seconds::ZERO,
        until: forever(),
    }])
    .expect("valid");
    match simulate_faulted(&topo, &s, &e, &opts, &dead) {
        Err(SimError::Unroutable { src, .. }) => assert_eq!(src, GpuId(0)),
        other => panic!("expected Unroutable, got {other:?}"),
    }
}

#[test]
fn degradation_windows_rescale_in_flight_transfers() {
    let topo = dgx1();
    let s = ring_allreduce(8, ByteSize::mib(8));
    let e = Embedding::identity(&topo, &s).expect("embeds");
    let opts = SimOptions::default();
    let healthy = simulate_faulted(&topo, &s, &e, &opts, &FaultPlan::empty()).expect("runs");

    let nv01 = topo
        .channels_between(GpuId(0), GpuId(1))
        .into_iter()
        .find(|&c| topo.channel(c).class() == ChannelClass::NvLink)
        .expect("0-1 NVLink exists");
    let plan = FaultPlan::new(vec![FaultEvent::Degraded {
        channel: nv01,
        from: Seconds::ZERO,
        until: forever(),
        rate: 0.5,
    }])
    .expect("valid");
    let r = simulate_faulted(&topo, &s, &e, &opts, &plan).expect("runs");
    assert!(r.makespan > healthy.makespan);
    assert_eq!(r.stats.time_degraded, r.makespan, "degraded the whole run");
    assert_eq!(r.stats.reroutes_taken, 0, "degradation does not re-route");
}

#[test]
fn a_mid_run_straggler_rescales_running_compute() {
    let topo = dgx1();
    let s = ring_allreduce(8, ByteSize::kib(64));
    let e = Embedding::identity(&topo, &s).expect("embeds");
    let job = SystemJob {
        schedule: s,
        compute: vec![ccube_sim::ComputeTask {
            id: ccube_sim::ComputeTaskId(0),
            gpu: GpuId(0),
            duration: Seconds::from_millis(1.0),
            deps_compute: vec![],
            deps_transfers: vec![],
            label: "bwd".into(),
        }],
        transfer_gates: vec![],
    };
    // The task starts at t=0; a 2x straggler window opens at 0.5 ms, so
    // the remaining half runs at half speed: 0.5 + 0.5 * 2 = 1.5 ms.
    let plan = FaultPlan::new(vec![FaultEvent::Straggler {
        gpu: GpuId(0),
        from: Seconds::from_millis(0.5),
        until: forever(),
        slowdown: 2.0,
    }])
    .expect("valid");
    let r = simulate_system_faulted(&topo, &job, &e, &SimOptions::default(), &plan).expect("runs");
    assert!(
        (r.compute_complete[0].as_millis() - 1.5).abs() < 1e-9,
        "got {}",
        r.compute_complete[0]
    );
}

#[test]
fn failing_plans_shrink_to_one_minimal_reproducers() {
    let topo = hierarchical(4);
    let s = ring_allreduce(4, ByteSize::mib(1));
    let e = Embedding::nic(&topo, &s).expect("embeds");
    let opts = SimOptions::scale_out();

    // A noisy plan: one genuinely fatal event (permanent down of node
    // 0's injection NIC) buried among harmless flaps, degradations and
    // stragglers.
    let noise = |i: u32| -> Vec<FaultEvent> {
        vec![
            FaultEvent::LinkDown {
                channel: ChannelId(2 * i),
                from: Seconds::from_micros(5.0),
                until: Seconds::from_micros(9.0),
            },
            FaultEvent::Degraded {
                channel: ChannelId(2 * i + 1),
                from: Seconds::ZERO,
                until: Seconds::from_micros(40.0),
                rate: 0.75,
            },
            FaultEvent::Straggler {
                gpu: GpuId(i),
                from: Seconds::ZERO,
                until: Seconds::from_micros(20.0),
                slowdown: 1.25,
            },
        ]
    };
    let mut events = noise(1);
    events.push(FaultEvent::LinkDown {
        channel: ChannelId(0),
        from: Seconds::ZERO,
        until: forever(),
    });
    events.extend(noise(2));
    events.extend(noise(3));
    let plan = FaultPlan::new(events).expect("valid");

    let fails = |p: &FaultPlan| {
        matches!(
            simulate_faulted(&topo, &s, &e, &opts, p),
            Err(SimError::Unroutable { .. })
        )
    };
    assert!(fails(&plan));
    let minimal = plan.shrink(fails);
    assert_eq!(minimal.len(), 1, "one event explains the failure");
    assert_eq!(
        minimal.events()[0],
        FaultEvent::LinkDown {
            channel: ChannelId(0),
            from: Seconds::ZERO,
            until: forever(),
        }
    );
    // 1-minimality: the empty plan passes.
    assert!(!fails(&FaultPlan::empty()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every sampled fault schedule either completes a verified-correct
    /// AllReduce or fails with a typed `Unroutable`; replaying the same
    /// plan yields a bit-identical report.
    #[test]
    fn sampled_plans_complete_or_are_typed_unroutable(
        seed in 0u64..10_000,
        severity in 1u32..4,
    ) {
        let topo = dgx1();
        let (s, e) = c1(&topo);
        verify::check_allreduce(&s).expect("C1 is a correct AllReduce");
        let opts = SimOptions::default();
        let job = compute_less(s.clone());
        let healthy = simulate_system_faulted(&topo, &job, &e, &opts, &FaultPlan::empty())
            .expect("healthy run");
        let model = FaultModel::severity(severity, healthy.makespan);
        let plan = FaultPlan::sample(&model, &topo, &SimRng::new(seed));

        let first = simulate_system_faulted(&topo, &job, &e, &opts, &plan);
        let replay = simulate_system_faulted(&topo, &job, &e, &opts, &plan);
        match (&first, &replay) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a, b, "replay must be bit-identical");
                prop_assert_eq!(a.transfer_complete.len(), s.transfers().len());
                prop_assert!(a.makespan > Seconds::ZERO);
                prop_assert!(a.stats.faults_injected <= plan.len() as u64);
            }
            (Err(SimError::Unroutable { .. }), Err(SimError::Unroutable { .. })) => {}
            other => prop_assert!(false, "unexpected outcome {:?}", other),
        }
    }
}
