//! The discrete-event kernel: the event queue under the scheduler.
//!
//! [`Kernel`] is a deterministic future-event queue whose pop order is
//! the total order `(time, key, sequence)` — `key` is a caller-chosen
//! priority (the scheduler's node ids), and the monotone `sequence`
//! number makes the order total even for identical `(time, key)` pairs,
//! so replays are bit-identical run to run.
//!
//! Times are ordered as integers: a time is stored as its IEEE-754 bits
//! mapped to an unsigned integer with the same order (after `-0.0` is
//! normalised to `+0.0`, which [`Seconds`] already treats as equal).
//!
//! The queue is a **monotone radix queue** over those integers. Pops
//! never go back in time, so every pending event lies at or after the
//! last popped time `last`, and an event is filed by the highest bit in
//! which its time differs from `last`: bucket *b* ≥ 1 holds the events
//! whose time first differs from `last` at bit *b* − 1 (a linked list
//! in one node slab), and bucket 0 holds the current instant, kept in
//! descending `(key, seq)` order so a pop takes its back. When bucket 0
//! runs dry, a pop refills it from the lowest non-empty bucket: that
//! bucket's earliest time becomes `last`, and each of its events drops
//! to a strictly lower bucket — all of them into bucket 0 when they
//! share one instant, as a ring step's completions do. Bucket 0 is then
//! sorted. An instant of at most two natural runs (a ring step's
//! completions arrive that nearly sorted) is reversed and merged in one
//! pass through bucket 0's own spare capacity; any other instant (a
//! chunked tree's holds hundreds of short runs, where merging would take
//! eight passes) is sorted in place with `sort_unstable_by_key`. A push
//! at the current instant is a sorted insert into bucket 0, even when its
//! key is below the last pop's, so the pop order stays exactly
//! `(time, key, seq)`. Within the room [`Kernel::reserve`] made, neither
//! a push nor a refill allocates.
//!
//! Determinism contract: a kernel fed the same `schedule` calls in the
//! same order pops the same events at the same times. Nothing in the
//! kernel reads wall-clock time or ambient randomness; the seedable
//! [`SimRng`] that lives next to it is drawn from by the sweep executor
//! and the fault-plan sampler, never by the kernel.

use ccube_topology::Seconds;

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

/// One scheduled event.
#[derive(Debug, Clone, Copy)]
struct Scheduled<E> {
    /// [`time_bits`] of the event time.
    time: u64,
    key: u64,
    seq: u64,
    event: E,
}

impl<E> Scheduled<E> {
    /// The order of events at one instant.
    fn rank(&self) -> (u64, u64) {
        (self.key, self.seq)
    }
}

/// The end-of-list mark of a bucket's linked list.
const NIL: u32 = u32::MAX;

/// A pending event outside the current instant, linked into its bucket.
#[derive(Debug, Clone, Copy)]
struct Node<E> {
    entry: Scheduled<E>,
    /// The next node of the same bucket (or of the free list).
    next: u32,
}

/// The bucket of an event at `time` (`time >= last`): 0 for `last`
/// itself, else one past the highest bit in which the two differ.
fn bucket_of(time: u64, last: u64) -> usize {
    (u64::BITS - (time ^ last).leading_zeros()) as usize
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
    /// [`time_bits`] of `now`: the radix every pending time is filed by.
    last: u64,
    seq: u64,
    /// Bucket 0: the events at `last` in descending `(key, seq)` order,
    /// so a pop takes the back. Past its length, the refill sort's
    /// two-run merge uses its spare capacity as scratch.
    current: Vec<Scheduled<E>>,
    /// Buckets 1 to 64 as linked lists through `nodes`: `heads[b - 1]`
    /// starts the unordered list of events whose time first differs
    /// from `last` at bit `b - 1`.
    heads: [u32; 64],
    /// Bit `b - 1` is set while bucket `b` is non-empty.
    occupied: u64,
    /// Storage of buckets 1 to 64, one allocation for all of them; freed
    /// nodes are chained from `free`.
    nodes: Vec<Node<E>>,
    free: u32,
    len: usize,
    stats: KernelStats,
}

impl<E: Copy> Kernel<E> {
    /// A kernel starting at `t = 0`.
    pub fn new() -> Self {
        Kernel {
            now: Seconds::ZERO,
            last: time_bits(Seconds::ZERO),
            seq: 0,
            current: Vec::new(),
            heads: [NIL; 64],
            occupied: 0,
            nodes: Vec::new(),
            free: NIL,
            len: 0,
            stats: KernelStats::default(),
        }
    }

    /// Pre-allocates room for `additional` more pending events: one
    /// allocation for the buckets and one for the current instant, whose
    /// spare capacity is also the two-run merge's scratch. While at most
    /// that many events are pending and no instant of two natural runs
    /// holds more than half of them, neither a push nor a refill
    /// allocates.
    pub fn reserve(&mut self, additional: usize) {
        self.nodes.reserve(additional);
        self.current.reserve(additional);
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
    /// Panics if `time` is before the current clock — the past is
    /// immutable in a DES, and the radix queue could not order it.
    pub fn schedule(&mut self, time: Seconds, key: u64, event: E) {
        let time = time_bits(time);
        assert!(time >= self.last, "cannot schedule into the past");
        let seq = self.seq;
        self.seq += 1;
        let entry = Scheduled {
            time,
            key,
            seq,
            event,
        };
        match bucket_of(time, self.last) {
            0 => {
                // `seq` is the largest yet, so only the key places it.
                let at = self.current.partition_point(|e| e.key > key);
                self.current.insert(at, entry);
            }
            b => {
                let node = Node {
                    entry,
                    next: self.heads[b - 1],
                };
                self.heads[b - 1] = match self.free {
                    NIL => {
                        self.nodes.push(node);
                        (self.nodes.len() - 1) as u32
                    }
                    slot => {
                        self.free = self.nodes[slot as usize].next;
                        self.nodes[slot as usize] = node;
                        slot
                    }
                };
                self.occupied |= 1 << (b - 1);
            }
        }
        self.len += 1;
        self.stats.events_scheduled += 1;
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.len);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Seconds, E)> {
        if self.current.is_empty() && !self.refill() {
            return None;
        }
        let s = self.current.pop()?;
        self.len -= 1;
        self.now = time_of(s.time);
        self.stats.events_processed += 1;
        Some((self.now, s.event))
    }

    /// Moves the earliest pending instant into the (empty) bucket 0 and
    /// sorts it; `false` if nothing is pending.
    fn refill(&mut self) -> bool {
        if self.occupied == 0 {
            return false;
        }
        let bit = self.occupied.trailing_zeros() as usize;
        self.occupied &= !(1 << bit);
        let head = std::mem::replace(&mut self.heads[bit], NIL);
        // The bucket's earliest time is the new radix; every event of
        // the bucket lands in a lower one, the earliest ones in bucket 0.
        let mut last = u64::MAX;
        let mut i = head;
        while i != NIL {
            let node = &self.nodes[i as usize];
            last = last.min(node.entry.time);
            i = node.next;
        }
        self.last = last;
        let mut i = head;
        while i != NIL {
            let Node { entry, next } = self.nodes[i as usize];
            match bucket_of(entry.time, last) {
                0 => {
                    self.current.push(entry);
                    self.nodes[i as usize].next = self.free;
                    self.free = i;
                }
                b => {
                    self.nodes[i as usize].next = self.heads[b - 1];
                    self.heads[b - 1] = i;
                    self.occupied |= 1 << (b - 1);
                }
            }
            i = next;
        }
        sort_descending(&mut self.current);
        true
    }

    /// The kernel's counters.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }
}

/// The end of the natural run of `v` that starts at `start` (below
/// `v.len()`), and whether it ascends by rank.
fn run_end<E>(v: &[Scheduled<E>], start: usize) -> (usize, bool) {
    let mut i = start + 1;
    let ascending = i < v.len() && v[i - 1].rank() < v[i].rank();
    while i < v.len() && (v[i - 1].rank() < v[i].rank()) == ascending {
        i += 1;
    }
    (i, ascending)
}

/// Sorts `v` into descending `(key, seq)` order. An instant of one or
/// two natural runs — every ring step — takes one pass: each run is
/// reversed in place if it ascends, and two runs are merged past the end
/// and copied back, so `v`'s spare capacity is the only scratch. Any
/// other instant — a chunked tree's holds hundreds of runs — is sorted in
/// place by `sort_unstable_by_key`, which allocates nothing either. Ranks
/// are unique, so both give the one order any sort would.
fn sort_descending<E: Copy>(v: &mut Vec<Scheduled<E>>) {
    let n = v.len();
    if n < 2 {
        return;
    }
    let (mid, first_ascends) = run_end(v, 0);
    let (end, second_ascends) = if mid < n { run_end(v, mid) } else { (n, false) };
    if end < n {
        v.sort_unstable_by_key(|e| std::cmp::Reverse(e.rank()));
        return;
    }
    if first_ascends {
        v[..mid].reverse();
    }
    if second_ascends {
        v[mid..].reverse();
    }
    if mid == n {
        return;
    }
    let (mut x, mut y) = (0, mid);
    while x < mid && y < n {
        let e = if v[x].rank() > v[y].rank() {
            x += 1;
            v[x - 1]
        } else {
            y += 1;
            v[y - 1]
        };
        v.push(e);
    }
    v.extend_from_within(x..mid);
    v.extend_from_within(y..n);
    v.copy_within(n.., 0);
    v.truncate(n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

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
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut k: Kernel<()> = Kernel::new();
        k.schedule(Seconds::from_micros(2.0), 0, ());
        assert!(k.pop().is_some());
        k.schedule(Seconds::from_micros(1.0), 0, ());
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

        /// Pushes interleaved with pops come out exactly as a sorted set
        /// of `(time_bits, key, seq)` gives them up: zero-delay pushes at
        /// the current instant (keys below the last pop's included),
        /// `-0.0`, exact ties with earlier times, times spread over forty
        /// binary orders of magnitude and times a few ulps past the
        /// current instant, so refills cross every bucket boundary,
        /// and bursts of hundreds of same-instant events: a ring step's
        /// nearly sorted completions, one run either way, two runs, and a
        /// chunked tree's crowded instant in random key order with
        /// repeated keys, which the refill sorts rather than merges.
        #[test]
        fn interleaved_pushes_and_pops_match_a_sorted_set(
            ops in 1usize..300,
            seed in 0u64..1 << 32,
        ) {
            let mut rng = SimRng::new(seed);
            let mut k = Reference::new();
            let mut times = vec![Seconds::ZERO];
            for _ in 0..ops {
                let now = k.kernel.now();
                let time = match rng.below(16) {
                    0..=5 => {
                        k.pop_both();
                        continue;
                    }
                    6 | 7 => now,
                    8 if now == Seconds::ZERO => Seconds::new(-0.0),
                    8..=10 => {
                        let later: Vec<Seconds> =
                            times.iter().copied().filter(|&t| t >= now).collect();
                        later[rng.below(later.len() as u64) as usize]
                    }
                    11..=13 => {
                        let scale = 2f64.powi(-(rng.below(40) as i32));
                        now + Seconds::new(rng.next_f64() * scale)
                    }
                    14 => {
                        // A few ulps later: times that differ from the
                        // current instant in the lowest bits only.
                        let bits = now.as_secs_f64().to_bits() + rng.below(4);
                        Seconds::new(f64::from_bits(bits))
                    }
                    _ => {
                        let t = now + Seconds::new(rng.next_f64() * 1e-5);
                        let p = 200 + rng.below(1000);
                        let keys: Vec<u64> = match rng.below(6) {
                            // A ring step: keys 1…P−2, then 0 and P−1.
                            0 => (1..p - 1).chain([0, p - 1]).collect(),
                            // One run, ascending or descending.
                            1 => (0..p).collect(),
                            2 => (0..p).rev().collect(),
                            // Two runs: the even keys, then the odd ones
                            // ascending or descending.
                            3 => (0..p).step_by(2).chain((1..p).step_by(2)).collect(),
                            4 => (0..p)
                                .step_by(2)
                                .chain((1..p).rev().filter(|k| k % 2 == 1))
                                .collect(),
                            // A chunked tree's crowded instant: keys in
                            // random order, repeats included.
                            _ => (0..p).map(|_| rng.below(p / 2)).collect(),
                        };
                        for key in keys {
                            k.push(t, key);
                        }
                        times.push(t);
                        continue;
                    }
                };
                k.push(time, rng.below(8));
                times.push(time);
            }
            while !k.reference.is_empty() {
                k.pop_both();
            }
            prop_assert!(k.kernel.pop().is_none());
        }
    }

    /// A kernel driven in lockstep with a sorted set of `(time_bits, key,
    /// seq)`, the obviously correct pop order.
    struct Reference {
        kernel: Kernel<u64>,
        reference: BTreeSet<(u64, u64, u64)>,
    }

    impl Reference {
        fn new() -> Self {
            Reference {
                kernel: Kernel::new(),
                reference: BTreeSet::new(),
            }
        }

        fn push(&mut self, time: Seconds, key: u64) {
            let seq = self.kernel.stats().events_scheduled;
            self.kernel.schedule(time, key, seq);
            self.reference.insert((time_bits(time), key, seq));
        }

        fn pop_both(&mut self) {
            let want = self
                .reference
                .pop_first()
                .map(|(time, _, seq)| (time_of(time), seq));
            let got = self.kernel.pop();
            prop_assert_eq!(got, want);
            if let Some((time, _)) = got {
                prop_assert!(time.as_secs_f64().is_sign_positive(), "-0.0 pops as +0.0");
                prop_assert_eq!(self.kernel.now(), time);
            }
        }
    }
}
