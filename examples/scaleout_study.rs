//! Scale-out study (the paper's Fig. 14): sweep node counts and message
//! sizes on the hierarchical switch topology and report how the
//! overlapped tree (C1) compares against the ring, and how much earlier
//! the first gradient turns around compared to the baseline tree.
//!
//! ```text
//! cargo run --release --example scaleout_study [max_nodes] [mib ...]
//! # e.g. cargo run --release --example scaleout_study 256 1 16 64
//! ```

use ccube::experiments::fig14;
use ccube_sim::NetworkModel;
use ccube_topology::ByteSize;

fn main() {
    let mut args = std::env::args().skip(1);
    let max_nodes: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(128);
    let sizes: Vec<ByteSize> = {
        let explicit: Vec<u64> = args.filter_map(|s| s.parse().ok()).collect();
        if explicit.is_empty() {
            vec![ByteSize::kib(16), ByteSize::mib(1), ByteSize::mib(64)]
        } else {
            explicit.into_iter().map(ByteSize::mib).collect()
        }
    };

    let mut ps = Vec::new();
    let mut p = 4;
    while p <= max_nodes {
        ps.push(p);
        p *= 2;
    }

    println!(
        "scale-out study: P up to {max_nodes}, sizes {:?}",
        sizes.iter().map(|s| format!("{s}")).collect::<Vec<_>>()
    );
    println!(
        "{:>6} {:>12} {:>6} {:>12} {:>12} {:>12} {:>10} {:>12}",
        "P", "N", "K", "T_ring", "T_C1", "T_B", "C1/R", "turnaround"
    );
    for row in fig14::run_with_threads_net(&ps, &sizes, 1, NetworkModel::ChannelApprox) {
        println!(
            "{:>6} {:>12} {:>6} {:>12} {:>12} {:>12} {:>10.2} {:>11.1}x",
            row.p,
            format!("{}", row.n),
            row.k,
            format!("{}", row.t_ring),
            format!("{}", row.t_c1),
            format!("{}", row.t_b),
            row.c1_over_ring,
            row.turnaround_speedup,
        );
    }
}
