//! Payload classes keep each transfer's own transit time.
//!
//! The scheduler registers one pool route per (logical edge, payload)
//! pair and times it once, when it registers it; a grant reads that
//! time. So every transfer, whatever other payloads share its edge, must
//! complete exactly its own payload's transit time after it starts:
//! `end == start + port_transit_time(ports, bytes)`, float bits
//! included, over the ports the trace shows it was granted. The check
//! takes the kernel's own sum, since `end - start` need not round back
//! to the transit time.
//!
//! Cases: random schedules from [`ScheduleBuilder`] whose edges carry
//! one, two and three or more payload sizes, interleaved, under both
//! arbitrations and both hop modes of a radix-4 leaf/spine fabric; one
//! edge carrying 10,000 distinct payloads; a least-queued 2-uplink
//! fabric, whose uplink revisions must keep a minority payload's time;
//! and a link-down window on DGX-1, whose re-routes must too.

use ccube_collectives::{
    port_transit_time, ChunkId, Chunking, Embedding, LinkTiming, Phase, Rank, Schedule,
    ScheduleBuilder, TransferId, TreeIndex,
};
use ccube_sim::{
    forever, simulate, simulate_faulted, Arbitration, FabricSpec, FaultEvent, FaultPlan, HopMode,
    NetworkModel, SimOptions, SimRng, SimTrace, TraceRecord, UplinkPolicy,
};
use ccube_topology::{
    dgx1, hierarchical, ByteSize, FabricConfig, FabricGraph, GpuId, PortId, Seconds, Topology,
};
use proptest::prelude::*;

/// What the trace shows of one transfer.
#[derive(Debug, Clone, Default)]
struct Observed {
    start: Seconds,
    end: Seconds,
    /// The ports it was granted, in path order.
    ports: Vec<PortId>,
    detour: bool,
    /// Whether an uplink revision or a re-route moved it.
    moved: bool,
}

fn observe(trace: &SimTrace, num_transfers: usize) -> Vec<Observed> {
    assert_eq!(trace.dropped(), 0, "the trace must hold the whole run");
    let mut seen = vec![Observed::default(); num_transfers];
    for r in trace.records() {
        match *r {
            TraceRecord::TransferStart { id, at } => seen[id.index()].start = at,
            TraceRecord::TransferEnd { id, at } => seen[id.index()].end = at,
            TraceRecord::ChannelGrant { channel, id, .. } => {
                seen[id.index()].ports.push(PortId(channel.0));
            }
            TraceRecord::DetourHop { id, .. } => seen[id.index()].detour = true,
            TraceRecord::Failover { id, .. } | TraceRecord::Reroute { id, .. } => {
                seen[id.index()].moved = true;
            }
            _ => {}
        }
    }
    seen
}

/// The port graph `spec` derives from `topo`, as the simulator builds it.
fn graph_of(topo: &Topology, spec: &FabricSpec) -> FabricGraph {
    FabricGraph::from_topology(
        topo,
        &FabricConfig {
            radix: spec.radix,
            oversubscription: spec.oversubscription,
            uplink_latency: spec.uplink_latency,
            spines: spec.spines,
            uplinks_per_leaf: spec.uplinks,
        },
    )
}

/// Asserts that every transfer of `schedule` ended its own payload's
/// transit time after it started, over the ports it was granted, and
/// returns what the trace showed.
fn assert_own_transit_times(
    schedule: &Schedule,
    trace: &SimTrace,
    graph: &FabricGraph,
    opts: &SimOptions,
    hop_mode: HopMode,
) -> Vec<Observed> {
    let timing = LinkTiming {
        bandwidth_scale: opts.bandwidth_scale,
        forwarding_latency: opts.forwarding_latency,
    };
    let seen = observe(trace, schedule.transfers().len());
    for (t, o) in schedule.transfers().iter().zip(&seen) {
        assert!(!o.ports.is_empty(), "{t} was never granted");
        let store_forward = hop_mode == HopMode::StoreForward;
        let transit = port_transit_time(graph, &o.ports, t.bytes, o.detour, &timing, store_forward);
        assert_eq!(
            (o.start + transit).as_secs_f64().to_bits(),
            o.end.as_secs_f64().to_bits(),
            "{t}: started {:?}, ended {:?}, but its payload takes {transit:?}",
            o.start,
            o.end
        );
    }
    seen
}

fn traced(arbitration: Arbitration, spec: FabricSpec) -> SimOptions {
    SimOptions {
        arbitration,
        trace_capacity: 1 << 20,
        ..SimOptions::default()
    }
    .with_network(NetworkModel::SwitchFabric(spec))
}

/// A radix-4 leaf/spine fabric over `hierarchical(16)`.
fn radix4(uplinks: usize, policy: UplinkPolicy, hop_mode: HopMode) -> FabricSpec {
    FabricSpec {
        radix: Some(4),
        spines: uplinks,
        uplinks,
        uplink_policy: policy,
        hop_mode,
        ..FabricSpec::default()
    }
}

/// A random schedule on `p` ranks: 3–6 logical edges, edge `e` carrying
/// one payload size if `e % 3 == 0`, two if `e % 3 == 1` and three to
/// five otherwise. Every (edge, size) pair is pushed at least once, and
/// the transfers come in a random order, so an edge's payload changes
/// often; each waits on up to two earlier transfers.
fn random_schedule(rng: &mut SimRng, p: usize) -> Schedule {
    let num_edges = 3 + rng.below(4) as usize;
    let mut picks = Vec::new();
    for e in 0..num_edges {
        let src = rng.below(p as u64) as u32;
        let dst = (src + 1 + rng.below(p as u64 - 1) as u32) % p as u32;
        let sizes = match e % 3 {
            0 => 1,
            1 => 2,
            _ => 3 + rng.below(3),
        };
        // `j` in the low bits keeps an edge's sizes distinct.
        let palette: Vec<ByteSize> = (0..sizes)
            .map(|j| ByteSize::new((1 + rng.below(512)) * 512 + j))
            .collect();
        picks.extend(palette.iter().map(|&b| (src, dst, b)));
        for _ in 0..rng.below(12) {
            picks.push((src, dst, palette[rng.below(sizes) as usize]));
        }
    }
    for i in (1..picks.len()).rev() {
        picks.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let k = 4;
    let mut b = ScheduleBuilder::new();
    for (i, &(src, dst, bytes)) in picks.iter().enumerate() {
        let mut deps: Vec<TransferId> = (0..rng.below(3))
            .filter(|_| i > 0)
            .map(|_| TransferId(rng.below(i as u64) as u32))
            .collect();
        deps.sort_unstable();
        deps.dedup();
        let chunk = ChunkId(rng.below(k as u64) as u32);
        b.push(
            Rank(src),
            Rank(dst),
            chunk,
            bytes,
            Phase::Reduce,
            TreeIndex(0),
            deps,
        );
    }
    b.finish("payload-classes", p, Chunking::even(ByteSize::kib(64), k))
}

/// How many transfers of `schedule` a revision or re-route moved while
/// they carried a payload other than `majority`.
fn moved_minority(schedule: &Schedule, seen: &[Observed], majority: ByteSize) -> usize {
    schedule
        .transfers()
        .iter()
        .zip(seen)
        .filter(|(t, o)| o.moved && t.bytes != majority)
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_transfer_takes_its_own_payloads_transit_time(
        seed in 0u64..1 << 32,
        arbitration in prop::sample::select(vec![Arbitration::FifoHol, Arbitration::ChunkPriority]),
        hop_mode in prop::sample::select(vec![HopMode::CutThrough, HopMode::StoreForward]),
        uplinks in 1usize..=2,
    ) {
        let topo = hierarchical(16);
        let schedule = random_schedule(&mut SimRng::new(seed), 16);
        let emb = Embedding::nic(&topo, &schedule).expect("nic embedding");
        let spec = radix4(uplinks, UplinkPolicy::Hash, hop_mode);
        let opts = traced(arbitration, spec);
        let report = simulate(&topo, &schedule, &emb, &opts).expect("simulates");
        let seen =
            assert_own_transit_times(&schedule, report.trace(), &graph_of(&topo, &spec), &opts, hop_mode);
        for (o, timing) in seen.iter().zip(report.timings()) {
            prop_assert_eq!((o.start, o.end), (timing.start, timing.complete));
        }
    }
}

/// One edge with 10,000 distinct payloads, every other transfer carrying
/// one shared payload between them, so the edge's class changes at every
/// transfer and each lookup goes past the most recent class; each
/// transfer keeps its own time.
#[test]
fn an_edge_with_ten_thousand_distinct_payloads_keeps_every_time() {
    let topo = hierarchical(16);
    let mut b = ScheduleBuilder::new();
    for i in 0..20_000u64 {
        let bytes = match i % 2 {
            0 => ByteSize::kib(64),
            _ => ByteSize::new(1 + i),
        };
        let chunk = ChunkId((i % 4) as u32);
        b.push(
            Rank(0),
            Rank(5),
            chunk,
            bytes,
            Phase::Reduce,
            TreeIndex(0),
            [],
        );
    }
    let schedule = b.finish(
        "distinct-payloads",
        16,
        Chunking::even(ByteSize::kib(64), 4),
    );
    let emb = Embedding::nic(&topo, &schedule).expect("nic embedding");
    for hop_mode in [HopMode::CutThrough, HopMode::StoreForward] {
        let spec = radix4(1, UplinkPolicy::Hash, hop_mode);
        let opts = traced(Arbitration::FifoHol, spec);
        let report = simulate(&topo, &schedule, &emb, &opts).expect("simulates");
        assert_own_transit_times(
            &schedule,
            report.trace(),
            &graph_of(&topo, &spec),
            &opts,
            hop_mode,
        );
    }
}

/// Under least-queued steering on 2 uplinks, transfers are revised onto
/// the other slot as they become ready; a revised transfer with a
/// minority payload on its edge keeps its own payload's time.
#[test]
fn uplink_revisions_keep_a_minority_payloads_time() {
    let topo = hierarchical(16);
    let mut b = ScheduleBuilder::new();
    // Four cross-leaf edges, all ready at once, so the uplink queues
    // differ when each transfer becomes ready.
    for i in 0..48u32 {
        let (src, dst) = [(0, 4), (1, 5), (2, 9), (3, 13)][i as usize % 4];
        let bytes = match i % 5 {
            3 => ByteSize::kib(48),
            4 => ByteSize::kib(20),
            _ => ByteSize::kib(256),
        };
        b.push(
            Rank(src),
            Rank(dst),
            ChunkId(i % 4),
            bytes,
            Phase::Reduce,
            TreeIndex(0),
            [],
        );
    }
    let schedule = b.finish("revisions", 16, Chunking::even(ByteSize::mib(1), 4));
    let emb = Embedding::nic(&topo, &schedule).expect("nic embedding");
    for hop_mode in [HopMode::CutThrough, HopMode::StoreForward] {
        let spec = radix4(2, UplinkPolicy::LeastQueued, hop_mode);
        let opts = traced(Arbitration::ChunkPriority, spec);
        let report = simulate(&topo, &schedule, &emb, &opts).expect("simulates");
        let seen = assert_own_transit_times(
            &schedule,
            report.trace(),
            &graph_of(&topo, &spec),
            &opts,
            hop_mode,
        );
        assert!(
            moved_minority(&schedule, &seen, ByteSize::kib(256)) > 0,
            "{hop_mode:?}: no minority-payload transfer was revised"
        );
    }
}

/// A link-down window on DGX-1 re-routes the transfers queued behind the
/// downed link; a re-routed transfer with a minority payload on its edge
/// keeps its own payload's time on its new route.
#[test]
fn link_down_reroutes_keep_a_minority_payloads_time() {
    let topo = dgx1();
    let mut b = ScheduleBuilder::new();
    for i in 0..12u32 {
        let bytes = match i % 4 {
            2 => ByteSize::kib(96),
            3 => ByteSize::kib(40),
            _ => ByteSize::mib(1),
        };
        b.push(
            Rank(0),
            Rank(1),
            ChunkId(0),
            bytes,
            Phase::Reduce,
            TreeIndex(0),
            [],
        );
    }
    let schedule = b.finish("reroutes", 8, Chunking::even(ByteSize::mib(1), 1));
    let emb = Embedding::identity(&topo, &schedule).expect("identity embedding");
    let (_, route) = emb.routes().next().expect("edge 0 is embedded");
    let channel = route.channels()[0];
    assert_eq!(topo.channel(channel).src(), GpuId(0));
    // Down from just after the first transfer starts: the rest are
    // queued and move.
    let plan = FaultPlan::new(vec![FaultEvent::LinkDown {
        channel,
        from: Seconds::from_micros(1.0),
        until: forever(),
    }])
    .expect("valid plan");
    let opts = SimOptions {
        trace_capacity: 1 << 16,
        ..SimOptions::default()
    };
    let report = simulate_faulted(&topo, &schedule, &emb, &opts, &plan).expect("re-routes");
    let seen = assert_own_transit_times(
        &schedule,
        &report.trace,
        &graph_of(&topo, &FabricSpec::passthrough()),
        &opts,
        HopMode::CutThrough,
    );
    assert!(
        moved_minority(&schedule, &seen, ByteSize::mib(1)) > 0,
        "no minority-payload transfer was re-routed"
    );
    assert!(report.stats.reroutes_taken > 0);
}
