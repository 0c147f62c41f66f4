//! Golden determinism of the parallel experiment drivers.
//!
//! The sweep executor's contract — output bit-identical to serial at any
//! worker count — asserted end-to-end on the real drivers: `run_all`'s
//! CSV files compared **byte for byte** across worker counts, and the
//! row-producing sweeps compared as values.

use ccube::experiments;
use ccube_sim::NetworkModel;
use std::collections::BTreeMap;
use std::path::Path;

/// Reads every regular file under `dir` into (name -> bytes).
fn dir_contents(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().into_string().unwrap();
        out.insert(name, std::fs::read(entry.path()).unwrap());
    }
    out
}

#[test]
fn run_all_is_byte_identical_across_worker_counts() {
    let base = std::env::temp_dir().join(format!("ccube_sweep_golden_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    let fig14 = experiments::fig14::to_csv(&experiments::fig14::run()).into_bytes();
    let mut reference = None;
    for threads in [1usize, 2, 8] {
        let dir = base.join(format!("t{threads}"));
        let paths = experiments::run_all(&dir, threads, NetworkModel::ChannelApprox).unwrap();
        assert_eq!(paths.len(), 20);
        let contents = dir_contents(&dir);
        // Fig. 14 runs as one sweep unit per grid point and is put back
        // together afterwards: its rows must come out in `fig14::run`'s
        // grid order, which no comparison across worker counts can
        // check (a misordering would be the same at every count).
        assert_eq!(
            contents["fig14_scaleout.csv"], fig14,
            "fig14_scaleout.csv at {threads} workers is not fig14::run()"
        );
        match &reference {
            None => reference = Some(contents),
            Some(serial) => {
                assert_eq!(
                    serial.keys().collect::<Vec<_>>(),
                    contents.keys().collect::<Vec<_>>()
                );
                for (name, bytes) in &contents {
                    assert_eq!(
                        bytes, &serial[name],
                        "{name} differs between 1 and {threads} workers"
                    );
                }
            }
        }
    }

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn fig14_sweep_rows_are_identical_across_worker_counts() {
    let ps = [8usize, 16, 32];
    let ns = [
        ccube_topology::ByteSize::kib(16),
        ccube_topology::ByteSize::mib(1),
    ];
    let run = |threads| {
        experiments::fig14::run_with_threads_net(&ps, &ns, threads, NetworkModel::ChannelApprox)
    };
    let serial = run(1);
    for threads in [2, 8] {
        let parallel = run(threads);
        assert_eq!(serial, parallel, "{threads} workers diverged");
    }
}

#[test]
fn resilience_rows_are_identical_across_worker_counts_and_replays() {
    use ccube::experiments::resilience;

    // A fault plan replayed from the same seed must produce bit-identical
    // reports whether the grid runs serially or fanned out: each point's
    // RNG is forked from (seed, point index), never from worker state,
    // and each point reads its workload's baseline by index whichever
    // worker computed it. The 2-uplink least-queued fabric adds adaptive
    // uplink steering to the faulted runs.
    let leafspine = NetworkModel::SwitchFabric(ccube_sim::FabricSpec {
        uplinks: 2,
        uplink_policy: ccube_sim::UplinkPolicy::LeastQueued,
        ..ccube_sim::FabricSpec::default()
    });
    for network in [NetworkModel::ChannelApprox, leafspine] {
        let run =
            |threads| resilience::run_with_network(resilience::DEFAULT_SEED, threads, network);
        let serial = run(1);
        for threads in [2usize, 8] {
            let parallel = run(threads);
            assert_eq!(
                serial, parallel,
                "{threads} workers diverged on {network:?}"
            );
        }
        // Replaying the seed reproduces the rows exactly (same CSV bytes).
        let replay = run(8);
        assert_eq!(
            resilience::to_csv(&serial),
            resilience::to_csv(&replay),
            "seed replay is not byte-identical on {network:?}"
        );
    }
}

#[test]
fn policy_search_is_identical_across_worker_counts() {
    let serial = experiments::policy_search::run_full(1).rows;
    for threads in [2, 8] {
        assert_eq!(serial, experiments::policy_search::run_full(threads).rows);
    }
    // Exactly one winner per topology, found end-to-end.
    for topo in ["dgx1", "hier16"] {
        let best = experiments::policy_search::best_for(&serial, topo);
        assert!(best.makespan > ccube_topology::Seconds::ZERO);
    }
}
