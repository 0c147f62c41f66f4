//! Deterministic parallel sweep execution.
//!
//! Every paper figure and every search the ROADMAP asks for (schedule
//! policy search, NVSwitch/torus sweeps) reduces to the same shape:
//! thousands of independent `simulate()` calls over a grid of
//! configurations. [`sweep`] is the one fan-out layer they all share: it
//! distributes the points of a sweep across `std::thread::scope` workers
//! and reassembles the results **by input index**, so the output is
//! bit-identical to a serial run regardless of the worker count or of
//! which worker happened to grab which point.
//!
//! # Determinism contract
//!
//! * **Pure points.** The per-point function must be a pure function of
//!   its `(index, config)` arguments (plus captured immutable state).
//!   Every engine in this workspace already satisfies this — `simulate`
//!   reads no wall clock and no ambient randomness.
//! * **Index-ordered reassembly.** Workers pull points from a shared
//!   atomic counter (dynamic load balancing), but results are written
//!   back into slot `index` of the output. The returned `Vec` is always
//!   in input order; scheduling jitter can never reorder it.
//! * **Forked RNG streams.** Points that need randomness must not share
//!   a sequential RNG (the draw interleaving would depend on execution
//!   order). [`sweep_seeded`] derives each point's generator as
//!   `SimRng::new(seed).fork(index)` — a pure function of `(seed,
//!   index)`, so parallelism never perturbs the draws.
//! * **No wall-clock reads.** Neither the executor nor the point
//!   functions may branch on time; the only clock in a sweep is each
//!   simulation's own virtual clock.
//!
//! # Examples
//!
//! ```
//! use ccube_sim::sweep::sweep;
//!
//! let points: Vec<u64> = (0..100).collect();
//! let serial = sweep(&points, 1, |_, &p| p * p);
//! let parallel = sweep(&points, 8, |_, &p| p * p);
//! assert_eq!(serial, parallel); // bit-identical, any worker count
//! ```

use crate::kernel::SimRng;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The number of workers to use when the caller does not say: the
/// machine's available parallelism (1 if it cannot be determined).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Clamps a requested worker count to something useful for `points`
/// points: at least 1, at most one worker per point.
fn effective_threads(threads: usize, points: usize) -> usize {
    threads.max(1).min(points.max(1))
}

/// Evaluates `f` at every point of `points` using up to `threads`
/// workers and returns the results **in input order**.
///
/// `f` receives the point's index and the point itself. With `threads
/// <= 1` (or a single point) the sweep runs inline on the calling
/// thread; the parallel path produces the exact same `Vec` — see the
/// module docs for the determinism contract.
///
/// # Panics
///
/// If `f` panics on any point, the panic is propagated to the caller
/// after all workers have stopped.
pub fn sweep<C, R, F>(points: &[C], threads: usize, f: F) -> Vec<R>
where
    C: Sync,
    R: Send,
    F: Fn(usize, &C) -> R + Sync,
{
    let threads = effective_threads(threads, points.len());
    if threads == 1 {
        return points.iter().enumerate().map(|(i, c)| f(i, c)).collect();
    }

    // Dynamic work-stealing off one atomic cursor: long points do not
    // convoy short ones behind a static partition. Each worker keeps
    // `(index, result)` pairs locally; indices make the merge exact.
    let next = AtomicUsize::new(0);
    let mut collected: Vec<(usize, R)> = Vec::with_capacity(points.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                let f = &f;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= points.len() {
                            break;
                        }
                        local.push((i, f(i, &points[i])));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(local) => collected.extend(local),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });

    // Reassemble by input index: the output order is the input order.
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(points.len()).collect();
    for (i, r) in collected {
        debug_assert!(slots[i].is_none(), "point {i} computed twice");
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every point computed exactly once"))
        .collect()
}

/// [`sweep`] for point functions that draw randomness: each point
/// receives its own [`SimRng`] forked as `SimRng::new(seed).fork(index)`.
///
/// Forked streams are a pure function of `(seed, index)` — independent
/// of worker count, of execution order, and of the draws any other
/// point makes — so a seeded sweep is exactly as deterministic as an
/// unseeded one.
pub fn sweep_seeded<C, R, F>(points: &[C], seed: u64, threads: usize, f: F) -> Vec<R>
where
    C: Sync,
    R: Send,
    F: Fn(usize, &C, SimRng) -> R + Sync,
{
    let root = SimRng::new(seed);
    sweep(points, threads, |i, c| f(i, c, root.fork(i as u64)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_is_in_input_order_for_every_worker_count() {
        let points: Vec<usize> = (0..257).collect();
        let expected: Vec<usize> = points.iter().map(|p| p * 3 + 1).collect();
        for threads in [0, 1, 2, 3, 8, 64, 1000] {
            assert_eq!(sweep(&points, threads, |_, &p| p * 3 + 1), expected);
        }
    }

    #[test]
    fn empty_and_single_point_sweeps_work() {
        let none: Vec<u32> = Vec::new();
        assert!(sweep(&none, 8, |_, &p| p).is_empty());
        assert_eq!(sweep(&[7u32], 8, |_, &p| p + 1), vec![8]);
    }

    #[test]
    fn index_is_passed_through() {
        let points = ["a", "b", "c"];
        let got = sweep(&points, 2, |i, &p| format!("{i}{p}"));
        assert_eq!(got, vec!["0a", "1b", "2c"]);
    }

    #[test]
    fn seeded_sweep_is_worker_count_invariant() {
        let points: Vec<u32> = (0..64).collect();
        let draw = |_: usize, _: &u32, mut rng: SimRng| (rng.next_u64(), rng.next_u64());
        let serial = sweep_seeded(&points, 42, 1, draw);
        for threads in [2, 5, 8] {
            assert_eq!(sweep_seeded(&points, 42, threads, draw), serial);
        }
        // A different seed produces different streams.
        assert_ne!(sweep_seeded(&points, 43, 4, draw), serial);
    }

    #[test]
    fn worker_panic_propagates() {
        let points: Vec<u32> = (0..16).collect();
        let result = std::panic::catch_unwind(|| {
            sweep(&points, 4, |_, &p| {
                assert!(p != 9, "boom");
                p
            })
        });
        assert!(result.is_err());
    }
}
