//! Regenerates the full-precision golden rows for the fig12/14/15
//! regression fixtures under `tests/data/`. Run after an *intentional*
//! change to the simulation model, never to paper over a regression:
//!
//! ```text
//! cargo run --release --example golden_dump
//! ```

use ccube::experiments::{fig12, fig14, fig15, resilience, scaleout_fabric};
use ccube_sim::NetworkModel;
use ccube_topology::ByteSize;
use std::fmt::Write as _;

fn main() {
    let mut f12 = String::from("bytes,k,t_baseline_s,t_overlapped_s,improvement_sim\n");
    for r in fig12::run() {
        writeln!(
            f12,
            "{},{},{:.17e},{:.17e},{:.17e}",
            r.n.as_u64(),
            r.k,
            r.t_baseline.as_secs_f64(),
            r.t_overlapped.as_secs_f64(),
            r.improvement_sim
        )
        .unwrap();
    }
    std::fs::write("tests/data/fig12_golden.csv", f12).unwrap();

    let mut f14 = String::from("p,bytes,k,t_ring_s,t_c1_s,t_b_s,turnaround_speedup\n");
    for r in fig14::run_with_threads_net(
        &[4, 8, 16, 32, 64],
        &[ByteSize::kib(16), ByteSize::mib(1), ByteSize::mib(64)],
        1,
        NetworkModel::ChannelApprox,
    ) {
        writeln!(
            f14,
            "{},{},{},{:.17e},{:.17e},{:.17e},{:.17e}",
            r.p,
            r.n.as_u64(),
            r.k,
            r.t_ring.as_secs_f64(),
            r.t_c1.as_secs_f64(),
            r.t_b.as_secs_f64(),
            r.turnaround_speedup
        )
        .unwrap();
    }
    std::fs::write("tests/data/fig14_golden.csv", f14).unwrap();

    let mut f15 = String::from("gpu,forward_kernels,forwarding_busy_s,normalized_perf\n");
    for r in fig15::run() {
        writeln!(
            f15,
            "{},{},{:.17e},{:.17e}",
            r.gpu,
            r.forward_kernels,
            r.forwarding_busy.as_secs_f64(),
            r.normalized_perf
        )
        .unwrap();
    }
    std::fs::write("tests/data/fig15_golden.csv", f15).unwrap();

    // The resilience fixture is the rendered CSV itself: the rows carry
    // string columns (topology/mode/status), and the sweep contract makes
    // the bytes reproducible from the default seed at any worker count.
    std::fs::write(
        "tests/data/ext_resilience_golden.csv",
        resilience::to_csv(&resilience::run()),
    )
    .unwrap();

    // The fabric-failover fixture: the same seeded uplink-outage plan
    // replayed across uplink counts and steering policies — its rows
    // witness the failover-recovery property the tests assert.
    std::fs::write(
        "tests/data/ext_fabric_resilience_golden.csv",
        resilience::fabric_to_csv(&resilience::run_fabric()),
    )
    .unwrap();

    // The switch-fabric fixtures are rendered CSVs too: byte-for-byte
    // reproducible (pure drivers, sweep contract), and the passthrough
    // rows double as an end-to-end record of the fabric ≡ approximation
    // equivalence contract.
    std::fs::write(
        "tests/data/ext_scaleout_fabric_golden.csv",
        scaleout_fabric::fabric_to_csv(&scaleout_fabric::fabric_study()),
    )
    .unwrap();
    std::fs::write(
        "tests/data/ext_nvswitch_sweep_golden.csv",
        scaleout_fabric::sweep_to_csv(&scaleout_fabric::nvswitch_sweep()),
    )
    .unwrap();
    std::fs::write(
        "tests/data/ext_torus_sweep_golden.csv",
        scaleout_fabric::sweep_to_csv(&scaleout_fabric::torus_sweep()),
    )
    .unwrap();
    println!("golden fixtures written to tests/data/");
}
