//! Fig. 14 — scale-out simulations: (a) communication performance of the
//! overlapped tree (C1) vs the ring, and (b) gradient-turnaround speedup
//! of C1 over the baseline tree, as node count grows.
//!
//! The paper runs these in ASTRA-sim on a hierarchical, indirect
//! (switch-based) topology with constant per-node bandwidth; we run them
//! in `ccube-sim` on [`hierarchical`].

use ccube_collectives::{
    ring_allreduce, tree_allreduce, Chunking, DoubleBinaryTree, Embedding, Overlap, Schedule,
};
use ccube_sim::{simulate, SimOptions};
use ccube_topology::{hierarchical, ByteSize, Seconds};
use std::fmt;

/// One grid point of Fig. 14.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Node count.
    pub p: usize,
    /// Message size.
    pub n: ByteSize,
    /// Chunk count used by the trees.
    pub k: usize,
    /// Ring AllReduce time.
    pub t_ring: Seconds,
    /// Overlapped-tree (C1) AllReduce time.
    pub t_c1: Seconds,
    /// Baseline-tree (B) AllReduce time.
    pub t_b: Seconds,
    /// Fig. 14(a): `T_ring / T_C1` — above 1.0, C1 wins.
    pub c1_over_ring: f64,
    /// Fig. 14(b): baseline turnaround / overlapped turnaround.
    pub turnaround_speedup: f64,
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "P={:<4} N={:<10} C1/R={:.2} turnaround x{:.1}",
            self.p,
            format!("{}", self.n),
            self.c1_over_ring,
            self.turnaround_speedup
        )
    }
}

/// Default sweep: P in {4, 8, …, 256}, N in {16 KiB, 1 MiB, 64 MiB}.
pub fn run() -> Vec<Row> {
    run_net(ccube_sim::NetworkModel::ChannelApprox)
}

/// [`run`] under an explicit network model.
pub fn run_net(network: ccube_sim::NetworkModel) -> Vec<Row> {
    let (ps, ns) = default_axes();
    run_with_threads_net(&ps, &ns, 1, network)
}

/// The node counts and message sizes of the default sweep.
fn default_axes() -> ([usize; 7], [ByteSize; 3]) {
    (
        [4, 8, 16, 32, 64, 128, 256],
        [ByteSize::kib(16), ByteSize::mib(1), ByteSize::mib(64)],
    )
}

/// The `(P, N)` points of the default sweep in grid order: P ascending,
/// then N ascending within each P — the row order of [`run`].
pub fn default_grid() -> Vec<(usize, ByteSize)> {
    let (ps, ns) = default_axes();
    grid(&ps, &ns)
}

fn grid(ps: &[usize], ns: &[ByteSize]) -> Vec<(usize, ByteSize)> {
    ps.iter()
        .flat_map(|&p| ns.iter().map(move |&n| (p, n)))
        .collect()
}

/// The paper's scale-out chunk policy: 256 KiB chunks ("256 chunks for
/// 64MB"), so small messages get few chunks (and thus little turnaround
/// benefit) while large ones pipeline deeply.
pub fn chunk_count(n: ByteSize) -> usize {
    let k = (n.as_u64() / (256 * 1024)).max(1) as usize;
    k.div_ceil(2).max(1) * 2
}

/// Runs the sweep for explicit node counts and message sizes under an
/// explicit network model, fanned out over `threads` workers via
/// [`ccube_sim::sweep()`] (`ccube scaleout`): each `(P, N)` grid point
/// (three simulations, [`point`]) is one sweep point, reassembled in
/// grid order, so the rows are bit-identical at any worker count.
/// `--fabric switch` runs the sweep on the componentized switch fabric;
/// a passthrough fabric reproduces the defaults.
pub fn run_with_threads_net(
    ps: &[usize],
    ns: &[ByteSize],
    threads: usize,
    network: ccube_sim::NetworkModel,
) -> Vec<Row> {
    ccube_sim::sweep(&grid(ps, ns), threads, |_, &(p, n)| point(p, n, network))
}

/// One grid point of the sweep: the ring, C1 and B AllReduce of `n`
/// bytes on `hierarchical(p)`. Each schedule is built, simulated and
/// dropped before the next is built, and only its makespan and
/// turnaround are kept, so a point holds one schedule and one report at
/// a time.
pub fn point(p: usize, n: ByteSize, network: ccube_sim::NetworkModel) -> Row {
    let topo = hierarchical(p);
    // Only makespans and turnarounds are read, never the trace.
    let opts = SimOptions::scale_out()
        .with_network(network)
        .without_trace();
    let times = |schedule: Schedule| {
        let emb = Embedding::nic(&topo, &schedule).expect("nic embedding");
        let report = simulate(&topo, &schedule, &emb, &opts).expect("simulates");
        (report.makespan(), report.turnaround())
    };
    let dt = DoubleBinaryTree::new(p).expect("p >= 2");
    let k = chunk_count(n);
    let chunking = Chunking::even(n, k);
    let (t_ring, _) = times(ring_allreduce(p, n));
    let (t_c1, c1_turnaround) = times(tree_allreduce(
        dt.trees(),
        &chunking,
        Overlap::ReductionBroadcast,
    ));
    let (t_b, b_turnaround) = times(tree_allreduce(dt.trees(), &chunking, Overlap::None));
    Row {
        p,
        n,
        k,
        t_ring,
        t_c1,
        t_b,
        c1_over_ring: t_ring / t_c1,
        turnaround_speedup: b_turnaround / c1_turnaround,
    }
}

/// Renders rows as CSV.
pub fn to_csv(rows: &[Row]) -> String {
    let mut out =
        String::from("p,bytes,k,t_ring_us,t_c1_us,t_b_us,c1_over_ring,turnaround_speedup\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{:.2},{:.2},{:.2},{:.4},{:.3}\n",
            r.p,
            r.n.as_u64(),
            r.k,
            r.t_ring.as_micros(),
            r.t_c1.as_micros(),
            r.t_b.as_micros(),
            r.c1_over_ring,
            r.turnaround_speedup
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Vec<Row> {
        run_with_threads_net(
            &[16, 64, 128],
            &[ByteSize::kib(16), ByteSize::mib(1), ByteSize::mib(64)],
            1,
            ccube_sim::NetworkModel::ChannelApprox,
        )
    }

    fn at(rows: &[Row], p: usize, n: ByteSize) -> &Row {
        rows.iter().find(|r| r.p == p && r.n == n).unwrap()
    }

    #[test]
    fn small_messages_give_c1_an_order_of_magnitude() {
        // Paper: "For small data size (i.e., 16kB, 1MB), C1 provides up
        // to 20x improvement ... since latency dominates".
        let rows = grid();
        let r = at(&rows, 128, ByteSize::kib(16));
        assert!(r.c1_over_ring > 5.0, "got {:.2}", r.c1_over_ring);
    }

    #[test]
    fn large_messages_shrink_the_benefit() {
        // Paper: "as data size increases (i.e., 64MB), the benefit of C1
        // decreases".
        let rows = grid();
        for &p in &[16usize, 64] {
            let small = at(&rows, p, ByteSize::kib(16)).c1_over_ring;
            let large = at(&rows, p, ByteSize::mib(64)).c1_over_ring;
            assert!(large < small, "P={p}: {small:.2} -> {large:.2}");
        }
    }

    #[test]
    fn c1_advantage_grows_with_node_count() {
        // For latency-sensitive message sizes the tree's O(log P) step
        // count pulls ahead of the ring's O(P) as nodes are added.
        let rows = grid();
        for &n in &[ByteSize::kib(16), ByteSize::mib(1)] {
            let small = at(&rows, 16, n).c1_over_ring;
            let large = at(&rows, 128, n).c1_over_ring;
            assert!(large > small, "N={n}: {small:.2} -> {large:.2}");
        }
        // Even at 64 MiB (bandwidth-bound, where the ring is optimal)
        // the ring's edge stops growing as the node count rises — the
        // crossover the sweep shows beyond P=512.
        let r64 = at(&rows, 64, ByteSize::mib(64)).c1_over_ring;
        let r128 = at(&rows, 128, ByteSize::mib(64)).c1_over_ring;
        assert!(r128 >= r64 * 0.95, "64 MiB: {r64:.2} -> {r128:.2}");
    }

    #[test]
    fn turnaround_speedup_explodes_with_message_size() {
        // Paper Fig. 14(b): no benefit for small data (few chunks), huge
        // benefit (tens of x) once chunk counts grow.
        let rows = grid();
        let small = at(&rows, 64, ByteSize::kib(16)).turnaround_speedup;
        let large = at(&rows, 64, ByteSize::mib(64)).turnaround_speedup;
        assert!(small < 3.0, "small-message speedup {small:.2}");
        assert!(large > 10.0, "large-message speedup {large:.2}");
    }
}
