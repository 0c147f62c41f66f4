//! Bit-level regression fixtures for the paper-figure experiments.
//!
//! `tests/data/*_golden.csv` hold the fig12/14/15 rows at full `f64`
//! precision, captured from the engines before they were rebuilt on the
//! shared DES kernel. Every row must stay within 1e-9 relative of the
//! fixture — in practice the kernel reproduces the historical event
//! order exactly and the rows are bit-identical. Regenerate the fixtures
//! with `cargo run --release --example golden_dump` only after an
//! *intentional* model change.

use ccube::experiments::{fig12, fig14, fig15, resilience, scaleout_fabric};
use ccube_sim::NetworkModel;
use ccube_topology::ByteSize;

const REL_TOL: f64 = 1e-9;

fn close(actual: f64, golden: f64, what: &str) {
    let scale = golden.abs().max(1e-300);
    let rel = (actual - golden).abs() / scale;
    assert!(
        rel <= REL_TOL,
        "{what}: {actual:e} drifted from golden {golden:e} (rel {rel:e})"
    );
}

fn load(name: &str) -> Vec<Vec<f64>> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/data/");
    let text = std::fs::read_to_string(format!("{path}{name}"))
        .unwrap_or_else(|e| panic!("missing fixture {name}: {e}"));
    text.lines()
        .skip(1)
        .map(|l| {
            l.split(',')
                .map(|f| f.parse::<f64>().expect("numeric field"))
                .collect()
        })
        .collect()
}

#[test]
fn ext_resilience_csv_matches_golden_byte_for_byte() {
    // Unlike the figure fixtures, the resilience rows carry string
    // columns (topology/mode/status), so the fixture is compared as the
    // rendered CSV: the sweep contract guarantees the default seed
    // reproduces it byte-for-byte at any worker count.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/data/ext_resilience_golden.csv"
    );
    let golden = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("missing fixture ext_resilience_golden.csv: {e}"));
    let actual = resilience::to_csv(&resilience::run());
    assert_eq!(
        actual, golden,
        "ext_resilience.csv drifted from the golden fixture"
    );
}

#[test]
fn ext_fabric_resilience_csv_matches_golden_byte_for_byte() {
    // The multi-uplink failover study: the same seeded uplink-outage
    // plan replayed across slot counts and steering policies. Beyond
    // byte-identity, the fixture itself must witness the recovery
    // property — the 2-uplink failover row records reroutes and a
    // strictly lower slowdown than the single-uplink fabric.
    let actual = resilience::fabric_to_csv(&resilience::run_fabric());
    assert_eq!(
        actual,
        load_csv_fixture("ext_fabric_resilience_golden.csv"),
        "ext_fabric_resilience.csv drifted from the golden fixture"
    );
}

/// Loads a rendered-CSV fixture from `tests/data/`.
fn load_csv_fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/data")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing fixture {name}: {e}"))
}

#[test]
fn ext_scaleout_fabric_csv_matches_golden_byte_for_byte() {
    // Like the resilience fixture, these rows carry string columns, so
    // the comparison is on the rendered CSV. The passthrough `switch`
    // rows must stay byte-identical to the `approx` rows — this fixture
    // is the end-to-end record of the fabric ≡ approximation contract.
    assert_eq!(
        scaleout_fabric::fabric_to_csv(&scaleout_fabric::fabric_study()),
        load_csv_fixture("ext_scaleout_fabric_golden.csv"),
        "ext_scaleout_fabric.csv drifted from the golden fixture"
    );
}

#[test]
fn ext_nvswitch_sweep_csv_matches_golden_byte_for_byte() {
    assert_eq!(
        scaleout_fabric::sweep_to_csv(&scaleout_fabric::nvswitch_sweep()),
        load_csv_fixture("ext_nvswitch_sweep_golden.csv"),
        "ext_nvswitch_sweep.csv drifted from the golden fixture"
    );
}

#[test]
fn ext_torus_sweep_csv_matches_golden_byte_for_byte() {
    assert_eq!(
        scaleout_fabric::sweep_to_csv(&scaleout_fabric::torus_sweep()),
        load_csv_fixture("ext_torus_sweep_golden.csv"),
        "ext_torus_sweep.csv drifted from the golden fixture"
    );
}

#[test]
fn fig12_rows_match_golden() {
    let golden = load("fig12_golden.csv");
    let rows = fig12::run();
    assert_eq!(rows.len(), golden.len(), "fig12 row count changed");
    for (r, g) in rows.iter().zip(&golden) {
        let what = format!("fig12 n={}", r.n.as_u64());
        assert_eq!(r.n.as_u64(), g[0] as u64, "{what}: size column");
        assert_eq!(r.k, g[1] as usize, "{what}: k column");
        close(r.t_baseline.as_secs_f64(), g[2], &what);
        close(r.t_overlapped.as_secs_f64(), g[3], &what);
        close(r.improvement_sim, g[4], &what);
    }
}

#[test]
fn fig14_rows_match_golden() {
    let golden = load("fig14_golden.csv");
    let rows = fig14::run_with_threads_net(
        &[4, 8, 16, 32, 64],
        &[ByteSize::kib(16), ByteSize::mib(1), ByteSize::mib(64)],
        1,
        NetworkModel::ChannelApprox,
    );
    assert_eq!(rows.len(), golden.len(), "fig14 row count changed");
    for (r, g) in rows.iter().zip(&golden) {
        let what = format!("fig14 p={} n={}", r.p, r.n.as_u64());
        assert_eq!(r.p, g[0] as usize, "{what}: p column");
        assert_eq!(r.n.as_u64(), g[1] as u64, "{what}: size column");
        assert_eq!(r.k, g[2] as usize, "{what}: k column");
        close(r.t_ring.as_secs_f64(), g[3], &what);
        close(r.t_c1.as_secs_f64(), g[4], &what);
        close(r.t_b.as_secs_f64(), g[5], &what);
        close(r.turnaround_speedup, g[6], &what);
    }
}

#[test]
fn fig15_rows_match_golden() {
    let golden = load("fig15_golden.csv");
    let rows = fig15::run();
    assert_eq!(rows.len(), golden.len(), "fig15 row count changed");
    for (r, g) in rows.iter().zip(&golden) {
        let what = format!("fig15 gpu={}", r.gpu);
        assert_eq!(r.gpu, g[0] as u32, "{what}: gpu column");
        assert_eq!(r.forward_kernels, g[1] as usize, "{what}: kernels column");
        close(r.forwarding_busy.as_secs_f64(), g[2], &what);
        close(r.normalized_perf, g[3], &what);
    }
}
