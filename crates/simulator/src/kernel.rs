//! The discrete-event kernel: one event queue for every engine.
//!
//! Historically this workspace grew three independent event loops (the
//! network engine, the system co-simulator, and the multi-iteration
//! training timeline), each with its own `BinaryHeap`, its own
//! tie-breaking rules, and no shared observability. [`Kernel`] replaces
//! all of them: a deterministic future-event queue whose pop order is the
//! total order `(time, key, sequence)` — `key` is a caller-chosen
//! priority that reproduces each engine's historical tie-break, and the
//! monotone `sequence` number makes the order total even for identical
//! `(time, key)` pairs, so replays are bit-identical run to run.
//!
//! On top of the raw kernel, [`Simulation`] offers a DSLab-style
//! component model: handlers register as [`Component`]s, events are
//! addressed to a [`ComponentId`], and handlers emit follow-up events
//! through a [`Ctx`]. The production engines drive [`Kernel`] directly
//! (their schedulers are a single component in effect); the component
//! layer serves tests, experiments, and new engines.
//!
//! Determinism contract: a kernel seeded with the same value, fed the
//! same `schedule` calls in the same order, pops the same events at the
//! same times and returns the same [`SimRng`] draws. Nothing in the
//! kernel reads wall-clock time or ambient randomness.

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

/// One scheduled event; the ordering ignores the payload.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    time: Seconds,
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
/// ```
/// use ccube_sim::kernel::Kernel;
/// use ccube_topology::Seconds;
///
/// let mut k: Kernel<&str> = Kernel::new();
/// k.schedule(Seconds::from_micros(2.0), 0, "late");
/// k.schedule(Seconds::from_micros(1.0), 0, "early");
/// assert_eq!(k.pop().unwrap().1, "early");
/// assert_eq!(k.now(), Seconds::from_micros(1.0));
/// ```
#[derive(Debug, Clone)]
pub struct Kernel<E> {
    now: Seconds,
    seq: u64,
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    stats: KernelStats,
    rng: SimRng,
}

impl<E> Default for Kernel<E> {
    fn default() -> Self {
        Kernel::new()
    }
}

impl<E> Kernel<E> {
    /// A kernel starting at `t = 0` with seed 0.
    pub fn new() -> Self {
        Kernel::with_seed(0)
    }

    /// A kernel starting at `t = 0` with the given RNG seed.
    pub fn with_seed(seed: u64) -> Self {
        Kernel {
            now: Seconds::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
            stats: KernelStats::default(),
            rng: SimRng::new(seed),
        }
    }

    /// A seed-0 kernel whose event heap is pre-allocated for `capacity`
    /// pending events, so an engine that knows its event population up
    /// front (one completion per transfer, say) never regrows the heap
    /// mid-run.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut k = Kernel::new();
        k.heap.reserve(capacity);
        k
    }

    /// Pre-allocates room for `additional` more pending events.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Rewinds the kernel to a fresh `t = 0` state with the given seed,
    /// keeping the event heap's allocation. A reset kernel is
    /// observationally identical to `Kernel::with_seed(seed)` — same
    /// clock, sequence counter, stats, and RNG stream — so a run on a
    /// recycled kernel replays bit-identically to one on a fresh kernel
    /// (the arena-reuse contract the engines rely on).
    pub fn reset(&mut self, seed: u64) {
        self.now = Seconds::ZERO;
        self.seq = 0;
        self.heap.clear();
        self.stats = KernelStats::default();
        self.rng = SimRng::new(seed);
    }

    /// The current simulation time (the timestamp of the last popped
    /// event).
    pub fn now(&self) -> Seconds {
        self.now
    }

    /// Schedules `event` at absolute `time` with tie-break priority
    /// `key`. Events at equal `(time, key)` pop in scheduling order.
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
            time,
            key,
            seq,
            event,
        }));
        self.stats.events_scheduled += 1;
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.heap.len());
    }

    /// Schedules `event` at `now() + delay`.
    pub fn schedule_in(&mut self, delay: Seconds, key: u64, event: E) {
        self.schedule(self.now + delay, key, event);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Seconds, E)> {
        let Reverse(s) = self.heap.pop()?;
        self.now = s.time;
        self.stats.events_processed += 1;
        Some((s.time, s.event))
    }

    /// The timestamp of the next event, if any.
    pub fn peek_time(&self) -> Option<Seconds> {
        self.heap.peek().map(|Reverse(s)| s.time)
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// The kernel's counters.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// The kernel's deterministic RNG.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }
}

/// Identifies a registered [`Component`] within a [`Simulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(pub u32);

impl ComponentId {
    /// The id as an array index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The handler context passed to [`Component::on_event`]: lets a handler
/// read the clock, draw deterministic randomness, and emit follow-up
/// events without borrowing the simulation itself.
pub struct Ctx<'a, E> {
    now: Seconds,
    self_id: ComponentId,
    rng: &'a mut SimRng,
    emitted: &'a mut Vec<(Seconds, ComponentId, Option<u64>, E)>,
}

impl<E> Ctx<'_, E> {
    /// The current simulation time.
    pub fn now(&self) -> Seconds {
        self.now
    }

    /// The id of the component being invoked.
    pub fn self_id(&self) -> ComponentId {
        self.self_id
    }

    /// The simulation's deterministic RNG.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Emits `event` to `dst` after `delay`.
    pub fn emit(&mut self, dst: ComponentId, delay: Seconds, event: E) {
        self.emitted.push((self.now + delay, dst, None, event));
    }

    /// Emits `event` to `dst` after `delay` with an explicit tie-break
    /// `key` overriding the default destination-id key. Engines that
    /// must reproduce a domain-specific pop order (e.g. transfer-id
    /// tie-breaks) use this to keep equal-time deliveries deterministic
    /// in that domain order rather than component-registration order.
    pub fn emit_keyed(&mut self, dst: ComponentId, delay: Seconds, key: u64, event: E) {
        self.emitted.push((self.now + delay, dst, Some(key), event));
    }

    /// Emits `event` to the component itself after `delay`.
    pub fn emit_self(&mut self, delay: Seconds, event: E) {
        self.emit(self.self_id, delay, event);
    }
}

/// An event handler registered with a [`Simulation`].
pub trait Component<E> {
    /// Handles one event addressed to this component.
    fn on_event(&mut self, event: E, ctx: &mut Ctx<'_, E>);
}

/// A DSLab-style component simulation over [`Kernel`].
///
/// Events are addressed to components; the tie-break key is the
/// destination id, so delivery order between components at equal times
/// is by registration order, deterministically.
///
/// # Examples
///
/// ```
/// use ccube_sim::kernel::{Component, ComponentId, Ctx, Simulation};
/// use ccube_topology::Seconds;
///
/// struct Counter(u32);
/// impl Component<u32> for Counter {
///     fn on_event(&mut self, ttl: u32, ctx: &mut Ctx<'_, u32>) {
///         self.0 += 1;
///         if ttl > 0 {
///             ctx.emit_self(Seconds::from_micros(1.0), ttl - 1);
///         }
///     }
/// }
///
/// let mut sim = Simulation::with_seed(7);
/// let c = sim.add_component(Counter(0));
/// sim.emit(Seconds::ZERO, c, 4u32);
/// sim.run();
/// assert_eq!(sim.now(), Seconds::from_micros(4.0));
/// ```
pub struct Simulation<E> {
    kernel: Kernel<(ComponentId, E)>,
    components: Vec<Box<dyn Component<E>>>,
    emitted: Vec<(Seconds, ComponentId, Option<u64>, E)>,
}

impl<E> Simulation<E> {
    /// A simulation with the given RNG seed.
    pub fn with_seed(seed: u64) -> Self {
        Simulation {
            kernel: Kernel::with_seed(seed),
            components: Vec::new(),
            emitted: Vec::new(),
        }
    }

    /// Registers `component` and returns its id.
    pub fn add_component(&mut self, component: impl Component<E> + 'static) -> ComponentId {
        let id = ComponentId(self.components.len() as u32);
        self.components.push(Box::new(component));
        id
    }

    /// Schedules `event` for `dst` at absolute `time`.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is not a registered component.
    pub fn emit(&mut self, time: Seconds, dst: ComponentId, event: E) {
        assert!(
            dst.index() < self.components.len(),
            "unknown component {dst:?}"
        );
        self.kernel.schedule(time, u64::from(dst.0), (dst, event));
    }

    /// Schedules `event` for `dst` at absolute `time` with an explicit
    /// tie-break `key` (see [`Ctx::emit_keyed`]).
    ///
    /// # Panics
    ///
    /// Panics if `dst` is not a registered component.
    pub fn emit_keyed(&mut self, time: Seconds, dst: ComponentId, key: u64, event: E) {
        assert!(
            dst.index() < self.components.len(),
            "unknown component {dst:?}"
        );
        self.kernel.schedule(time, key, (dst, event));
    }

    /// Delivers the next event; returns false when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((now, (dst, event))) = self.kernel.pop() else {
            return false;
        };
        let mut ctx = Ctx {
            now,
            self_id: dst,
            rng: &mut self.kernel.rng,
            emitted: &mut self.emitted,
        };
        self.components[dst.index()].on_event(event, &mut ctx);
        for (time, to, key, ev) in self.emitted.drain(..) {
            assert!(
                to.index() < self.components.len(),
                "unknown component {to:?}"
            );
            let key = key.unwrap_or(u64::from(to.0));
            self.kernel.schedule(time, key, (to, ev));
        }
        true
    }

    /// Runs until no events remain; returns the number processed.
    pub fn run(&mut self) -> u64 {
        let before = self.kernel.stats().events_processed;
        while self.step() {}
        self.kernel.stats().events_processed - before
    }

    /// The current simulation time.
    pub fn now(&self) -> Seconds {
        self.kernel.now()
    }

    /// The underlying kernel's counters.
    pub fn stats(&self) -> KernelStats {
        self.kernel.stats()
    }

    /// Drains the simulation back to an empty `t = 0` state with the
    /// given seed: all components are dropped, pending events are
    /// discarded, and the kernel is [`Kernel::reset`] — but the event
    /// heap, component vector, and emission buffer keep their
    /// allocations. Re-registering the same components and emitting the
    /// same events afterwards replays bit-identically to a fresh
    /// `Simulation::with_seed(seed)`.
    pub fn reset(&mut self, seed: u64) {
        self.kernel.reset(seed);
        self.components.clear();
        self.emitted.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    struct PingPong {
        peer: Option<ComponentId>,
        received: u32,
    }

    impl Component<u32> for PingPong {
        fn on_event(&mut self, ttl: u32, ctx: &mut Ctx<'_, u32>) {
            self.received += 1;
            if ttl > 0 {
                let to = self.peer.expect("peer wired");
                ctx.emit(to, Seconds::from_micros(1.0), ttl - 1);
            }
        }
    }

    #[test]
    fn components_exchange_events() {
        let mut sim: Simulation<u32> = Simulation::with_seed(1);
        let a = sim.add_component(PingPong {
            peer: None,
            received: 0,
        });
        let b = sim.add_component(PingPong {
            peer: Some(a),
            received: 0,
        });
        // b forwards the countdown to a, which stops at ttl 0.
        sim.emit(Seconds::ZERO, b, 1);
        let processed = sim.run();
        assert_eq!(processed, 2); // b at t=0, a at t=1µs
        assert_eq!(sim.now(), Seconds::from_micros(1.0));
        let _ = (a, b);
    }
}
