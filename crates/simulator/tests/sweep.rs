//! Determinism of the parallel sweep executor.
//!
//! [`sweep`] promises that the output is bit-identical to a serial run
//! regardless of the worker count — these tests exercise that promise
//! on real simulations (not just toy closures) and pin down the RNG
//! forking rule that makes seeded sweeps order-independent.

use ccube_collectives::{ring_allreduce, Embedding};
use ccube_sim::sweep::{sweep, sweep_seeded};
use ccube_sim::SimRng;
use ccube_sim::{simulate, SimOptions, SimReport};
use ccube_topology::{dgx1, ByteSize};
use proptest::prelude::*;

/// A small but real sweep: ring AllReduce on DGX-1 over a grid of
/// message sizes, with and without tracing.
fn simulate_point(kib: u64, traced: bool) -> SimReport {
    let topo = dgx1();
    let schedule = ring_allreduce(8, ByteSize::kib(kib));
    let emb = Embedding::identity(&topo, &schedule).unwrap();
    let opts = if traced {
        SimOptions::default()
    } else {
        SimOptions::default().without_trace()
    };
    simulate(&topo, &schedule, &emb, &opts).unwrap()
}

#[test]
fn parallel_simulation_sweep_is_bit_identical_to_serial() {
    let points: Vec<u64> = (1..=48).map(|i| i * 37).collect();
    let serial = sweep(&points, 1, |_, &kib| simulate_point(kib, true));
    for threads in [2, 3, 8] {
        let parallel = sweep(&points, threads, |_, &kib| simulate_point(kib, true));
        assert_eq!(serial, parallel, "{threads} workers diverged from serial");
    }
}

#[test]
fn trace_off_fast_path_preserves_timings() {
    let points: Vec<u64> = (1..=16).map(|i| i * 91).collect();
    let traced = sweep(&points, 4, |_, &kib| simulate_point(kib, true));
    let untraced = sweep(&points, 4, |_, &kib| simulate_point(kib, false));
    for (a, b) in traced.iter().zip(&untraced) {
        assert_eq!(a.makespan(), b.makespan());
        assert_eq!(a.timings(), b.timings());
        assert_eq!(a.stats(), b.stats());
        assert!(b.trace().records().next().is_none());
        // Busy totals do not depend on the trace; busy intervals are
        // logged only by traced runs.
        let bits = |r: &SimReport| -> Vec<u64> {
            r.channel_busy()
                .iter()
                .map(|s| s.as_secs_f64().to_bits())
                .collect()
        };
        assert_eq!(bits(a), bits(b));
        assert!(a.channel_intervals().iter().any(|iv| !iv.is_empty()));
        assert!(b.channel_intervals().iter().all(|iv| iv.is_empty()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Forked streams are a pure function of `(seed, index)`: the order
    /// in which forks are taken — and how many draws other forks make —
    /// never changes a fork's output.
    #[test]
    fn fork_streams_are_independent_of_execution_order(
        seed in 0u64..u64::MAX,
        indices in prop::collection::vec(0u64..1024, 1..32),
        draws in prop::collection::vec(1usize..16, 1..32),
    ) {
        let draw_stream = |i: u64, n: usize| -> Vec<u64> {
            let mut rng = SimRng::new(seed).fork(i);
            (0..n).map(|_| rng.next_u64()).collect()
        };

        // Reference: fork each index in ascending order, one draw each.
        let mut indices = indices;
        indices.sort_unstable();
        indices.dedup();
        let reference: Vec<Vec<u64>> =
            indices.iter().map(|&i| draw_stream(i, 1)).collect();

        // Same forks taken in reverse, with varying draw counts per
        // stream: the first draw of each stream must be unchanged.
        for (pos, &i) in indices.iter().enumerate().rev() {
            let n = draws[pos % draws.len()];
            let stream = draw_stream(i, n);
            prop_assert_eq!(stream[0], reference[pos][0]);
        }

        // Distinct indices get distinct streams (splitmix64 is a
        // bijection, so first draws of distinct forks never collide).
        let mut firsts: Vec<u64> = reference.iter().map(|s| s[0]).collect();
        firsts.sort_unstable();
        firsts.dedup();
        prop_assert_eq!(firsts.len(), indices.len());
    }

    /// `sweep_seeded` hands every point the same fork no matter how many
    /// workers run the sweep.
    #[test]
    fn seeded_sweep_is_worker_count_invariant(
        seed in 0u64..u64::MAX,
        len in 1usize..128,
        threads in 2usize..12,
    ) {
        let points: Vec<usize> = (0..len).collect();
        let draw = |_: usize, _: &usize, mut rng: SimRng| rng.next_u64();
        let serial = sweep_seeded(&points, seed, 1, draw);
        let parallel = sweep_seeded(&points, seed, threads, draw);
        prop_assert_eq!(serial, parallel);
    }
}
