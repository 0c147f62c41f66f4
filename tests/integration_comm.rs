//! Cross-crate integration: logical schedules → DGX-1 embedding →
//! discrete-event simulation, checking the paper's communication-level
//! claims end to end.

use ccube::prelude::*;
use ccube_collectives::cost::{self, CostParams};
use ccube_collectives::verify;

fn dgx1_tree_makespan(n: ByteSize, k: usize, overlap: Overlap) -> (Seconds, Seconds) {
    let topo = dgx1();
    let dt = DoubleBinaryTree::new(8).unwrap();
    let s = tree_allreduce(dt.trees(), &Chunking::even(n, k), overlap);
    verify::check_allreduce(&s).expect("schedule must be a correct AllReduce");
    let e = Embedding::dgx1_double_tree(&topo, &s).unwrap();
    let r = simulate(&topo, &s, &e, &SimOptions::default()).unwrap();
    (r.makespan(), r.turnaround())
}

#[test]
fn c1_beats_b_by_the_papers_margin_on_dgx1() {
    // Paper Fig. 12(a): 75% at 64 MB, up to 80% for larger sizes.
    for mib in [64u64, 128, 256] {
        let n = ByteSize::mib(mib);
        let k = cost::k_opt(&CostParams::nvlink(), 8, n).div_ceil(2) * 2;
        let (tb, _) = dgx1_tree_makespan(n, k, Overlap::None);
        let (to, _) = dgx1_tree_makespan(n, k, Overlap::ReductionBroadcast);
        let improvement = tb / to - 1.0;
        assert!(
            (0.5..1.0).contains(&improvement),
            "{mib} MiB: improvement {improvement:.3}"
        );
    }
}

#[test]
fn gradient_turnaround_collapses_under_overlap() {
    let n = ByteSize::mib(64);
    let k = cost::k_opt(&CostParams::nvlink(), 8, n).div_ceil(2) * 2;
    let (_, turn_b) = dgx1_tree_makespan(n, k, Overlap::None);
    let (_, turn_o) = dgx1_tree_makespan(n, k, Overlap::ReductionBroadcast);
    assert!(
        turn_b / turn_o > 5.0,
        "turnaround speedup {:.1}",
        turn_b / turn_o
    );
}

#[test]
fn dgx1_embedding_never_touches_the_host_bridge() {
    let topo = dgx1();
    let dt = DoubleBinaryTree::new(8).unwrap();
    for overlap in [Overlap::None, Overlap::ReductionBroadcast] {
        let s = tree_allreduce(dt.trees(), &Chunking::even(ByteSize::mib(16), 8), overlap);
        let e = Embedding::dgx1_double_tree(&topo, &s).unwrap();
        for (_, route) in e.routes() {
            assert_ne!(route.class(), ChannelClass::HostBridge);
            assert!(route.channels().len() <= 2);
        }
    }
}

#[test]
fn conflicting_embedding_degrades_the_overlapped_double_tree() {
    // The paper's §IV-A conflict: without the physical-topology-aware
    // placement, the two trees share channels and overlap loses its
    // benefit. The identity placement on the DGX-1 exhibits exactly this.
    let topo = dgx1();
    let dt = DoubleBinaryTree::new(8).unwrap();
    let n = ByteSize::mib(64);
    let k = 64;
    let s = tree_allreduce(
        dt.trees(),
        &Chunking::even(n, k),
        Overlap::ReductionBroadcast,
    );
    let good = Embedding::dgx1_double_tree(&topo, &s).unwrap();
    let naive = Embedding::identity(&topo, &s).unwrap();
    assert!(good.conflicts().is_empty());
    assert!(!naive.conflicts().is_empty());
    let t_good = simulate(&topo, &s, &good, &SimOptions::default())
        .unwrap()
        .makespan();
    let t_naive = simulate(&topo, &s, &naive, &SimOptions::default())
        .unwrap()
        .makespan();
    assert!(
        t_naive.as_secs_f64() > t_good.as_secs_f64() * 1.2,
        "naive {t_naive} vs aware {t_good}"
    );
}

#[test]
fn nccl_style_multi_ring_beats_the_baseline_tree_at_small_scale() {
    // The paper's R baseline is NCCL's multi-ring: the DGX-1's NVLink
    // graph decomposes into three Hamiltonian cycles, each usable in both
    // directions — six rings striping the message. With that aggregate
    // bandwidth the ring beats the two-link double tree on 8 nodes.
    let topo = dgx1();
    let n = ByteSize::mib(256);
    let cycles = ccube_topology::disjoint_rings(&topo, 3);
    assert_eq!(cycles.len(), 3);
    let mut orders: Vec<Vec<Rank>> = Vec::new();
    for c in &cycles {
        let fwd: Vec<Rank> = c.iter().map(|g| Rank(g.0)).collect();
        let mut rev = fwd.clone();
        rev.reverse();
        orders.push(fwd);
        orders.push(rev);
    }
    let ring = ring_allreduce_multi(n, &orders);
    ccube_collectives::verify::check_allreduce(&ring).unwrap();
    let er = Embedding::identity(&topo, &ring).unwrap();
    // Every ring edge is a real NVLink, so the embedding is direct and
    // conflict-free.
    assert!(er.conflicts().is_empty());
    assert!(er.routes().all(|(_, r)| !r.is_detour()));
    let tr = simulate(&topo, &ring, &er, &SimOptions::default())
        .unwrap()
        .makespan();

    let k = cost::k_opt(&CostParams::nvlink(), 8, n).div_ceil(2) * 2;
    let (tb, _) = dgx1_tree_makespan(n, k, Overlap::None);
    assert!(
        tr < tb,
        "multi-ring {tr} should beat the baseline tree {tb}"
    );

    // A single ring, by contrast, is limited to one link and loses.
    let single = ring_allreduce(8, n);
    let es = Embedding::identity(&topo, &single).unwrap();
    let ts = simulate(&topo, &single, &es, &SimOptions::default())
        .unwrap()
        .makespan();
    assert!(ts > tr * 3.0, "single ring {ts} vs multi-ring {tr}");
}

#[test]
fn low_bandwidth_mode_scales_all_algorithms() {
    let topo = dgx1();
    let n = ByteSize::mib(64);
    let ring = ring_allreduce(8, n);
    let e = Embedding::identity(&topo, &ring).unwrap();
    let hi = simulate(&topo, &ring, &e, &SimOptions::default()).unwrap();
    let lo = simulate(&topo, &ring, &e, &SimOptions::low_bandwidth()).unwrap();
    let ratio = lo.makespan() / hi.makespan();
    assert!((3.0..4.2).contains(&ratio), "ratio {ratio}");
}

#[test]
fn detour_gpus_accumulate_forwarding_time() {
    let topo = dgx1();
    let dt = DoubleBinaryTree::new(8).unwrap();
    let s = tree_allreduce(
        dt.trees(),
        &Chunking::even(ByteSize::mib(64), 32),
        Overlap::ReductionBroadcast,
    );
    let e = Embedding::dgx1_double_tree(&topo, &s).unwrap();
    let report = simulate(&topo, &s, &e, &SimOptions::default()).unwrap();
    let fwd = report.forwarding_busy();
    assert_eq!(fwd.len(), 2, "two forwarding GPUs: {fwd:?}");
    for (gpu, busy) in fwd {
        // Each forwarder runs two kernels (one per direction) that can be
        // busy concurrently, so the summed busy time is bounded by twice
        // the makespan.
        assert!(
            *busy > Seconds::ZERO && *busy < report.makespan() * 2.0,
            "{gpu}: {busy} vs makespan {}",
            report.makespan()
        );
    }
}

#[test]
fn ring_delivery_is_out_of_order_unlike_trees() {
    // Observation #3's negative half: the ring's reduce-scatter leaves
    // every rank owning a *different* chunk, so per-rank completion is
    // not in chunk order — which is exactly why gradient queuing (a
    // count-based in-order gate) cannot be chained onto the ring.
    let topo = dgx1();
    let s = ring_allreduce(8, ByteSize::mib(8));
    let e = Embedding::identity(&topo, &s).unwrap();
    let report = simulate(&topo, &s, &e, &SimOptions::default()).unwrap();

    // Per-rank "done" times for consecutive chunks must invert somewhere:
    // rank r finishes its own chunk (r+1) during reduce-scatter, long
    // before it receives earlier-numbered chunks in the all-gather.
    let inverted = report
        .done_at(&s)
        .iter()
        .any(|row| row.windows(2).any(|w| w[1] < w[0]));
    assert!(inverted, "ring delivery unexpectedly in order");

    // While the overlapped double tree stays in order per tree.
    let dt = DoubleBinaryTree::new(8).unwrap();
    let ts = tree_allreduce(
        dt.trees(),
        &Chunking::even(ByteSize::mib(8), 16),
        Overlap::ReductionBroadcast,
    );
    let te = Embedding::dgx1_double_tree(&topo, &ts).unwrap();
    let tr = simulate(&topo, &ts, &te, &SimOptions::default()).unwrap();
    assert!(tr.chunks_in_order(2));
}

#[test]
fn trace_export_is_complete_and_ordered() {
    let topo = dgx1();
    let s = ring_allreduce(8, ByteSize::mib(1));
    let e = Embedding::identity(&topo, &s).unwrap();
    let report = simulate(&topo, &s, &e, &SimOptions::default()).unwrap();
    let csv = report.trace_csv(&s);
    // header + one row per transfer
    assert_eq!(csv.lines().count(), 1 + s.transfers().len());
    assert!(csv.starts_with("transfer_id,"));
}
