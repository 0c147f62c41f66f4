//! The discrete-event kernel: the event queue under the scheduler.
//!
//! [`Kernel`] is a deterministic future-event queue whose pop order is
//! the total order `(time, key, sequence)` — `key` is a caller-chosen
//! priority (the scheduler's node ids), and the monotone `sequence`
//! number makes the order total even for identical `(time, key)` pairs,
//! so replays are bit-identical run to run.
//!
//! The heap compares integers only: a time is stored as its IEEE-754
//! bits mapped to an unsigned integer with the same order (after `-0.0`
//! is normalised to `+0.0`, which [`Seconds`] already treats as equal),
//! so each comparison is three `u64` compares instead of a float
//! `partial_cmp`.
//!
//! Determinism contract: a kernel fed the same `schedule` calls in the
//! same order pops the same events at the same times. Nothing in the
//! kernel reads wall-clock time or ambient randomness; the seedable
//! [`SimRng`] that lives next to it is drawn from by the sweep executor
//! and the fault-plan sampler, never by the kernel.

use ccube_topology::Seconds;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Deterministic simulation RNG (splitmix64).
///
/// Small, fast, and seedable — every stream of draws is a pure function
/// of the seed, which is what replayable simulation needs. Not
/// cryptographic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Creates an RNG from a seed.
    pub fn new(seed: u64) -> Self {
        SimRng {
            state: seed.wrapping_add(0x9e37_79b9_7f4a_7c15),
        }
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value uniform in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// A value uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 mantissa bits of the raw draw.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An independent RNG derived from this one's seed and `stream`.
    /// Forked streams are stable: the same `(seed, stream)` always
    /// yields the same sequence, regardless of draws on `self`.
    pub fn fork(&self, stream: u64) -> SimRng {
        let mut probe = SimRng {
            state: self.state ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93),
        };
        SimRng::new(probe.next_u64())
    }
}

/// Counters the kernel maintains while running.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelStats {
    /// Events pushed into the queue over the whole run.
    pub events_scheduled: u64,
    /// Events popped and handed to the caller.
    pub events_processed: u64,
    /// High-water mark of the future-event queue.
    pub max_queue_depth: usize,
}

/// `time` as an unsigned integer that sorts like the time itself:
/// non-negative values get the sign bit set, negative ones are
/// bit-inverted. `-0.0` is first normalised to `+0.0` (adding `+0.0`
/// does exactly that), so the two zeros map to one integer.
fn time_bits(time: Seconds) -> u64 {
    let bits = (time.as_secs_f64() + 0.0).to_bits();
    if bits >> 63 == 0 {
        bits | (1 << 63)
    } else {
        !bits
    }
}

/// The inverse of [`time_bits`] (a `-0.0` comes back as `+0.0`).
fn time_of(bits: u64) -> Seconds {
    let raw = if bits >> 63 == 1 {
        bits & !(1 << 63)
    } else {
        !bits
    };
    Seconds::new(f64::from_bits(raw))
}

/// One scheduled event; the ordering ignores the payload.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    /// [`time_bits`] of the event time.
    time: u64,
    key: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.key == other.key && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.time, self.key, self.seq).cmp(&(other.time, other.key, other.seq))
    }
}

/// A deterministic future-event queue with a simulation clock.
///
/// `E` is the event payload type; the kernel never inspects it.
///
/// # Examples
///
/// The kernel is private to the scheduler, so its contract shows through
/// the public entry points: every record lands in the trace in pop
/// order, the clock never runs backwards, and a replay pops the same
/// events at the same times.
///
/// ```
/// use ccube_collectives::{ring_allreduce, Embedding};
/// use ccube_sim::{simulate, SimOptions};
/// use ccube_topology::{dgx1, ByteSize};
///
/// let topo = dgx1();
/// let s = ring_allreduce(8, ByteSize::kib(256));
/// let e = Embedding::identity(&topo, &s).unwrap();
/// let a = simulate(&topo, &s, &e, &SimOptions::default()).unwrap();
/// let b = simulate(&topo, &s, &e, &SimOptions::default()).unwrap();
/// let clock: Vec<_> = a.trace().records().map(|r| r.at()).collect();
/// assert!(clock.windows(2).all(|w| w[0] <= w[1]));
/// assert_eq!(clock.last().copied(), Some(a.makespan()));
/// assert_eq!(a.trace(), b.trace());
/// ```
#[derive(Debug, Clone)]
pub struct Kernel<E> {
    now: Seconds,
    seq: u64,
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    stats: KernelStats,
}

impl<E> Kernel<E> {
    /// A kernel starting at `t = 0`.
    pub fn new() -> Self {
        Kernel {
            now: Seconds::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
            stats: KernelStats::default(),
        }
    }

    /// Pre-allocates room for `additional` more pending events.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// The current simulation time (the timestamp of the last popped
    /// event).
    pub fn now(&self) -> Seconds {
        self.now
    }

    /// Schedules `event` at absolute `time` with tie-break priority
    /// `key`. Events at equal `(time, key)` pop in scheduling order; a
    /// `time` of `-0.0` is scheduled (and popped) as `+0.0`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `time` is before the current clock — the past
    /// is immutable in a DES.
    pub fn schedule(&mut self, time: Seconds, key: u64, event: E) {
        debug_assert!(time >= self.now, "cannot schedule into the past");
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Scheduled {
            time: time_bits(time),
            key,
            seq,
            event,
        }));
        self.stats.events_scheduled += 1;
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.heap.len());
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Seconds, E)> {
        let Reverse(s) = self.heap.pop()?;
        let time = time_of(s.time);
        self.now = time;
        self.stats.events_processed += 1;
        Some((time, s.event))
    }

    /// The kernel's counters.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_key_seq_order() {
        let mut k: Kernel<u32> = Kernel::new();
        let t = Seconds::from_micros(5.0);
        k.schedule(t, 2, 102);
        k.schedule(t, 1, 101);
        k.schedule(Seconds::from_micros(1.0), 9, 9);
        k.schedule(t, 1, 201); // same (time, key): scheduling order wins
        let order: Vec<u32> = std::iter::from_fn(|| k.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![9, 101, 201, 102]);
    }

    #[test]
    fn clock_is_monotone_and_stats_count() {
        let mut k: Kernel<()> = Kernel::new();
        for i in 0..10u64 {
            k.schedule(Seconds::from_micros(10.0 - i as f64), 0, ());
        }
        let mut prev = Seconds::ZERO;
        while let Some((t, ())) = k.pop() {
            assert!(t >= prev);
            assert_eq!(k.now(), t, "a pop advances the clock to the event");
            prev = t;
        }
        let s = k.stats();
        assert_eq!(s.events_scheduled, 10);
        assert_eq!(s.events_processed, 10);
        assert_eq!(s.max_queue_depth, 10);
    }

    #[test]
    fn rng_is_deterministic_and_forkable() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
            let f = a.next_f64();
            assert!((0.0..1.0).contains(&f));
            let _ = b.next_f64();
        }
        let mut f1 = SimRng::new(42).fork(3);
        let mut f2 = SimRng::new(42).fork(3);
        let mut f3 = SimRng::new(42).fork(4);
        assert_eq!(f1.next_u64(), f2.next_u64());
        assert_ne!(f1.next_u64(), f3.next_u64());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The pop order is a stable sort by `(Seconds, key)` of the
        /// scheduling order — i.e. by `(Seconds, key, seq)` — over random
        /// non-negative times with exact ties, where `-0.0` and `+0.0`
        /// are the same instant.
        #[test]
        fn pop_order_is_the_sort_by_time_key_seq(
            len in 1usize..96,
            seed in 0u64..1 << 32,
        ) {
            let palette = [
                Seconds::new(-0.0),
                Seconds::ZERO,
                Seconds::new(f64::MIN_POSITIVE),
                Seconds::from_micros(1.0),
                Seconds::from_micros(1.5),
                Seconds::from_millis(3.0),
            ];
            let mut rng = SimRng::new(seed);
            let events: Vec<(Seconds, u64)> = (0..len)
                .map(|_| {
                    let time = if rng.below(2) == 0 {
                        palette[rng.below(palette.len() as u64) as usize]
                    } else {
                        Seconds::new(rng.next_f64() * 4e-3)
                    };
                    (time, rng.below(4))
                })
                .collect();
            let mut k: Kernel<usize> = Kernel::new();
            for (i, &(time, key)) in events.iter().enumerate() {
                k.schedule(time, key, i);
            }
            let mut expected: Vec<usize> = (0..len).collect();
            expected.sort_by_key(|&i| (events[i].0, events[i].1));
            let popped: Vec<(Seconds, usize)> = std::iter::from_fn(|| k.pop()).collect();
            let order: Vec<usize> = popped.iter().map(|&(_, i)| i).collect();
            prop_assert_eq!(order, expected);
            for &(time, i) in &popped {
                prop_assert_eq!(time, events[i].0);
                prop_assert!(time.as_secs_f64().is_sign_positive(), "-0.0 pops as +0.0");
            }
        }
    }
}
