//! Shared simulated resources: channels and compute streams.
//!
//! Both engines used to carry private copies of the channel-arbitration
//! logic (with subtly divergent bug-fix histories). [`ChannelPool`] is
//! now the only implementation: it owns the free/busy state of every
//! channel, the per-channel waiter queues, and the arbitration policy
//! ([`Arbitration::FifoHol`] strict head-of-line service, or
//! [`Arbitration::ChunkPriority`] oldest-chunk-first with reservation
//! semantics and a force-start escape hatch for reservation cycles).
//! Engines only tell the pool when a task becomes *ready* and when a
//! running task *completes*; the pool decides who starts, and records
//! grants, queue waits, busy time, and busy intervals as it does so.
//!
//! [`ComputeStream`] is the compute-side resource: one exclusive,
//! FIFO-ordered stream per GPU, with a slowdown factor that models the
//! forwarding-occupancy tax detour GPUs pay (Fig. 15) by stretching
//! every task duration.

use crate::engine::Arbitration;
use crate::trace::{BusyInterval, SimTrace, TraceRecord};
use ccube_collectives::TransferId;
use ccube_topology::{ChannelId, Seconds};
use std::collections::VecDeque;
use std::sync::Arc;

/// Inline capacity of a [`WaiterQueue`]: queues at or below this length
/// (the overwhelmingly common case — most channels never see more than a
/// handful of simultaneous waiters) live entirely inside the pool's
/// `waiters` vector, with no per-channel heap allocation.
const WAITER_INLINE: usize = 8;

/// A per-channel waiter queue: a fixed inline buffer that spills to a
/// heap `Vec` only when more than [`WAITER_INLINE`] tasks wait at once.
/// Semantically identical to a plain `Vec<u32>` (same order, same
/// insert/remove positions), so arbitration behavior is unchanged; the
/// point is allocation count, which the sweep bench counts per point.
#[derive(Debug, Clone)]
enum WaiterQueue {
    /// Up to `WAITER_INLINE` waiters stored inline; `len` is the live
    /// prefix of `buf`.
    Inline { buf: [u32; WAITER_INLINE], len: u8 },
    /// The spilled representation. Stays spilled after a clear so the
    /// capacity survives arena reuse.
    Heap(Vec<u32>),
}

impl WaiterQueue {
    fn new() -> Self {
        WaiterQueue::Inline {
            buf: [0; WAITER_INLINE],
            len: 0,
        }
    }

    fn as_slice(&self) -> &[u32] {
        match self {
            WaiterQueue::Inline { buf, len } => &buf[..*len as usize],
            WaiterQueue::Heap(v) => v,
        }
    }

    fn len(&self) -> usize {
        self.as_slice().len()
    }

    fn first(&self) -> Option<u32> {
        self.as_slice().first().copied()
    }

    fn get(&self, pos: usize) -> Option<u32> {
        self.as_slice().get(pos).copied()
    }

    fn push(&mut self, task: u32) {
        match self {
            WaiterQueue::Inline { buf, len } if (*len as usize) < WAITER_INLINE => {
                buf[*len as usize] = task;
                *len += 1;
            }
            WaiterQueue::Inline { .. } => {
                self.spill().push(task);
            }
            WaiterQueue::Heap(v) => v.push(task),
        }
    }

    fn insert(&mut self, pos: usize, task: u32) {
        match self {
            WaiterQueue::Inline { buf, len } if (*len as usize) < WAITER_INLINE => {
                let n = *len as usize;
                buf.copy_within(pos..n, pos + 1);
                buf[pos] = task;
                *len += 1;
            }
            WaiterQueue::Inline { .. } => {
                self.spill().insert(pos, task);
            }
            WaiterQueue::Heap(v) => v.insert(pos, task),
        }
    }

    fn remove(&mut self, pos: usize) -> u32 {
        match self {
            WaiterQueue::Inline { buf, len } => {
                let n = *len as usize;
                let out = buf[pos];
                buf.copy_within(pos + 1..n, pos);
                *len -= 1;
                out
            }
            WaiterQueue::Heap(v) => v.remove(pos),
        }
    }

    fn clear(&mut self) {
        match self {
            WaiterQueue::Inline { len, .. } => *len = 0,
            WaiterQueue::Heap(v) => v.clear(),
        }
    }

    /// Moves an exactly-full inline buffer onto the heap and returns the
    /// spilled `Vec` for the caller to mutate.
    fn spill(&mut self) -> &mut Vec<u32> {
        if let WaiterQueue::Inline { buf, len } = self {
            let mut v = Vec::with_capacity(WAITER_INLINE * 2);
            v.extend_from_slice(&buf[..*len as usize]);
            *self = WaiterQueue::Heap(v);
        }
        match self {
            WaiterQueue::Heap(v) => v,
            WaiterQueue::Inline { .. } => unreachable!("just spilled"),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    /// Dependencies not yet satisfied (unknown to the pool's queues).
    Pending,
    /// Ready to run, waiting in the queues of its path's channels.
    Ready,
    /// Occupying its channels.
    Running,
    /// Finished.
    Done,
}

/// The exclusive-channel resource manager shared by every engine.
///
/// Tasks are registered up front with their channel path and their
/// arbitration key `(chunk, id)` — lowest key first under
/// [`Arbitration::ChunkPriority`]. A task occupies **all** channels of
/// its path at once (wormhole switching) or none. Paths are shared
/// slices: tasks lowered from one logical edge hold one allocation.
#[derive(Debug, Clone)]
pub struct ChannelPool {
    arbitration: Arbitration,
    paths: Vec<Arc<[ChannelId]>>,
    keys: Vec<(u32, u32)>,
    state: Vec<TaskState>,
    enqueued_at: Vec<Option<Seconds>>,
    started_at: Vec<Seconds>,
    free: Vec<bool>,
    /// Per-channel waiter queues. Under [`Arbitration::FifoHol`] each
    /// queue is in readiness (FIFO) order; under
    /// [`Arbitration::ChunkPriority`] it is kept sorted ascending by
    /// arbitration key, so the best waiter is always the front — no
    /// per-round scan.
    waiters: Vec<WaiterQueue>,
    /// Scratch buffer for [`ChannelPool::force_start`]'s key-sorted scan
    /// of the ready set. Built lazily per stall round: stalls are rare,
    /// so paying a collect-and-sort there beats the O(tasks) sorted
    /// insert/remove an eagerly maintained ready list costs on *every*
    /// readiness change (quadratic over deep tree schedules).
    force_scratch: Vec<u32>,
    /// Count of active link-down faults per channel: a down channel
    /// rejects every new grant (force-starts included) until every
    /// overlapping fault has lifted.
    link_down: Vec<u32>,
    busy: Vec<Seconds>,
    intervals: Vec<Vec<BusyInterval>>,
    queue_wait: Vec<Seconds>,
    max_waiting: usize,
    force_starts: u64,
}

impl ChannelPool {
    /// A pool over `num_channels` channels with the given policy.
    pub fn new(num_channels: usize, arbitration: Arbitration) -> Self {
        ChannelPool {
            arbitration,
            paths: Vec::new(),
            keys: Vec::new(),
            state: Vec::new(),
            enqueued_at: Vec::new(),
            started_at: Vec::new(),
            free: vec![true; num_channels],
            waiters: vec![WaiterQueue::new(); num_channels],
            force_scratch: Vec::new(),
            link_down: vec![0; num_channels],
            busy: vec![Seconds::ZERO; num_channels],
            intervals: vec![Vec::new(); num_channels],
            queue_wait: vec![Seconds::ZERO; num_channels],
            max_waiting: 0,
            force_starts: 0,
        }
    }

    /// Pre-allocates the per-task bookkeeping for `num_tasks` upcoming
    /// [`ChannelPool::add_task`] calls.
    pub fn reserve_tasks(&mut self, num_tasks: usize) {
        self.paths.reserve(num_tasks);
        self.keys.reserve(num_tasks);
        self.state.reserve(num_tasks);
        self.enqueued_at.reserve(num_tasks);
        self.started_at.reserve(num_tasks);
    }

    /// Registers a task; ids are dense and assigned in call order. An
    /// `Arc` path is stored as is, so tasks can share one allocation.
    ///
    /// # Panics
    ///
    /// Panics if the path is empty or references an unknown channel.
    pub fn add_task(&mut self, path: impl Into<Arc<[ChannelId]>>, key: (u32, u32)) -> u32 {
        let path = path.into();
        assert!(!path.is_empty(), "a task needs at least one channel");
        assert!(
            path.iter().all(|c| c.index() < self.free.len()),
            "path references an unknown channel"
        );
        let id = self.paths.len() as u32;
        self.paths.push(path);
        self.keys.push(key);
        self.state.push(TaskState::Pending);
        self.enqueued_at.push(None);
        self.started_at.push(Seconds::ZERO);
        id
    }

    /// Drains the pool back to the observable state of
    /// `ChannelPool::new(num_channels, arbitration)` while keeping its
    /// allocations: per-task vectors keep their capacity and spilled
    /// waiter queues stay spilled; the registered paths are released. A
    /// reset pool behaves bit-identically to a fresh one — the
    /// arena-reuse contract.
    pub fn reset(&mut self, num_channels: usize, arbitration: Arbitration) {
        self.arbitration = arbitration;
        self.paths.clear();
        self.keys.clear();
        self.state.clear();
        self.enqueued_at.clear();
        self.started_at.clear();
        self.free.clear();
        self.free.resize(num_channels, true);
        self.waiters.truncate(num_channels);
        for w in &mut self.waiters {
            w.clear();
        }
        self.waiters.resize_with(num_channels, WaiterQueue::new);
        self.force_scratch.clear();
        self.link_down.clear();
        self.link_down.resize(num_channels, 0);
        self.busy.clear();
        self.busy.resize(num_channels, Seconds::ZERO);
        self.intervals.truncate(num_channels);
        for iv in &mut self.intervals {
            iv.clear();
        }
        self.intervals.resize_with(num_channels, Vec::new);
        self.queue_wait.clear();
        self.queue_wait.resize(num_channels, Seconds::ZERO);
        self.max_waiting = 0;
        self.force_starts = 0;
    }

    /// Number of registered tasks.
    pub fn num_tasks(&self) -> usize {
        self.paths.len()
    }

    /// The channel path of `task`.
    pub fn path(&self, task: u32) -> &[ChannelId] {
        &self.paths[task as usize]
    }

    /// Declares `task`'s dependencies satisfied. Returns `true` if the
    /// task started immediately (the caller must then schedule its
    /// completion event at `now + duration`); otherwise it waits in its
    /// channels' queues.
    pub fn mark_ready(&mut self, task: u32, now: Seconds, trace: &mut SimTrace) -> bool {
        debug_assert_eq!(self.state[task as usize], TaskState::Pending);
        self.state[task as usize] = TaskState::Ready;
        self.try_start(task, now, false, trace)
    }

    /// Where `task` sits (or belongs) in a key-sorted task list. Keys
    /// `(chunk, id)` are unique per task, so this is exact.
    fn key_position(&self, sorted: &[u32], task: u32) -> usize {
        let key = self.keys[task as usize];
        sorted.partition_point(|&t| self.keys[t as usize] < key)
    }

    /// Releases the channels of a completed `task`, charging busy time
    /// and recording the busy interval. Does **not** serve the freed
    /// queues — call [`ChannelPool::serve`] after the caller has
    /// processed the completion's dependency fallout, preserving the
    /// historical unblock-then-serve order.
    pub fn complete(&mut self, task: u32, now: Seconds) {
        let t = task as usize;
        debug_assert_eq!(self.state[t], TaskState::Running);
        self.state[t] = TaskState::Done;
        let started = self.started_at[t];
        let occupancy = now - started;
        for ci in self.paths[t].iter().map(|c| c.index()) {
            self.free[ci] = true;
            self.busy[ci] += occupancy;
            self.intervals[ci].push(BusyInterval {
                start: started,
                end: now,
            });
        }
    }

    /// Serves the waiter queues of the channels a completed `task` just
    /// released, starting every waiter the policy admits. Started task
    /// ids are appended to `started` in start order.
    pub fn serve(&mut self, task: u32, now: Seconds, trace: &mut SimTrace, started: &mut Vec<u32>) {
        for i in 0..self.paths[task as usize].len() {
            let c = self.paths[task as usize][i];
            self.serve_channel(c, now, trace, started);
        }
    }

    /// Serves one channel's waiter queue, starting every waiter the
    /// policy admits (used by [`ChannelPool::serve`] and by fault
    /// drivers when a downed link comes back up).
    ///
    /// Under [`Arbitration::FifoHol`] the front is the oldest waiter
    /// (strict head-of-line); under [`Arbitration::ChunkPriority`] the
    /// queue is key-sorted so the front is the oldest waiting chunk —
    /// either way the queue advances only while its front can start,
    /// and a blocked front leaves the channel idle (reserved for it
    /// under ChunkPriority).
    pub fn serve_channel(
        &mut self,
        channel: ChannelId,
        now: Seconds,
        trace: &mut SimTrace,
        started: &mut Vec<u32>,
    ) {
        let ci = channel.index();
        while let Some(head) = self.waiters[ci].first() {
            if self.try_start(head, now, false, trace) {
                started.push(head);
            } else {
                break;
            }
        }
    }

    /// Breaks a reservation stall: force-starts the best (lowest-key)
    /// ready task whose channels are free, bypassing chunk priority.
    /// Returns the started task, or `None` if nothing can run (a true
    /// deadlock).
    pub fn force_start(&mut self, now: Seconds, trace: &mut SimTrace) -> Option<u32> {
        // The ready set is collected and key-sorted here, per stall
        // round, rather than maintained eagerly: keys are unique, so the
        // ascending-key scan order is exactly the one a sorted ready
        // list would give.
        let mut scratch = std::mem::take(&mut self.force_scratch);
        scratch.clear();
        scratch.extend(
            (0..self.state.len() as u32).filter(|&t| self.state[t as usize] == TaskState::Ready),
        );
        scratch.sort_unstable_by_key(|&t| self.keys[t as usize]);
        let mut found = None;
        for &t in &scratch {
            if self.try_start(t, now, true, trace) {
                self.force_starts += 1;
                found = Some(t);
                break;
            }
        }
        self.force_scratch = scratch;
        found
    }

    fn try_start(&mut self, task: u32, now: Seconds, force: bool, trace: &mut SimTrace) -> bool {
        let t = task as usize;
        if self.state[t] != TaskState::Ready {
            return false;
        }
        let channels_free = self.paths[t]
            .iter()
            .all(|c| self.free[c.index()] && self.link_down[c.index()] == 0);
        let priority_ok = force
            || match self.arbitration {
                Arbitration::FifoHol => true,
                // A freed channel is implicitly reserved for the oldest
                // waiting chunk: a younger task yields to any ready
                // waiter with a smaller key anywhere on its path. The
                // queues are key-sorted, so checking the front (the
                // minimum key) decides for the whole queue.
                Arbitration::ChunkPriority => {
                    self.paths[t]
                        .iter()
                        .all(|c| match self.waiters[c.index()].first() {
                            None => true,
                            Some(w) => w == task || self.keys[w as usize] >= self.keys[t],
                        })
                }
            };
        if !(channels_free && priority_ok) {
            // A task waits in either all of its path's queues or none,
            // so `enqueued_at` doubles as the membership flag.
            if self.enqueued_at[t].is_none() {
                self.enqueued_at[t] = Some(now);
                for i in 0..self.paths[t].len() {
                    let ci = self.paths[t][i].index();
                    self.enqueue_waiter(ci, task);
                    self.max_waiting = self.max_waiting.max(self.waiters[ci].len());
                }
            }
            return false;
        }
        for i in 0..self.paths[t].len() {
            let ci = self.paths[t][i].index();
            self.free[ci] = false;
            self.remove_waiter(ci, task);
            trace.push(TraceRecord::ChannelGrant {
                channel: ChannelId(ci as u32),
                id: TransferId(task),
                at: now,
            });
        }
        if let Some(enqueued) = self.enqueued_at[t].take() {
            let wait = now - enqueued;
            for ci in self.paths[t].iter().map(|c| c.index()) {
                self.queue_wait[ci] += wait;
            }
            trace.push(TraceRecord::QueueWait {
                id: TransferId(task),
                enqueued,
                granted: now,
            });
        }
        self.state[t] = TaskState::Running;
        self.started_at[t] = now;
        true
    }

    /// Adds `task` to channel `ci`'s waiter queue: FIFO order under
    /// [`Arbitration::FifoHol`], key-sorted under
    /// [`Arbitration::ChunkPriority`].
    fn enqueue_waiter(&mut self, ci: usize, task: u32) {
        match self.arbitration {
            Arbitration::FifoHol => self.waiters[ci].push(task),
            Arbitration::ChunkPriority => {
                let pos = self.key_position(self.waiters[ci].as_slice(), task);
                self.waiters[ci].insert(pos, task);
            }
        }
    }

    /// Removes `task` from channel `ci`'s waiter queue if present.
    fn remove_waiter(&mut self, ci: usize, task: u32) {
        let pos = match self.arbitration {
            Arbitration::FifoHol => self.waiters[ci].as_slice().iter().position(|&x| x == task),
            Arbitration::ChunkPriority => {
                let pos = self.key_position(self.waiters[ci].as_slice(), task);
                (self.waiters[ci].get(pos) == Some(task)).then_some(pos)
            }
        };
        if let Some(pos) = pos {
            self.waiters[ci].remove(pos);
        }
    }

    /// Takes channel `channel` down for a fault. Down channels reject
    /// every new grant — including force-starts — so tasks whose path
    /// crosses the channel wait in its queue (or get re-routed by the
    /// fault driver). In-flight occupants are unaffected: a flap is
    /// detected at grant time, not mid-wormhole.
    pub fn set_link_down(&mut self, channel: ChannelId) {
        self.link_down[channel.index()] += 1;
    }

    /// Lifts one link-down fault from `channel`. The channel serves
    /// again once **every** overlapping fault has lifted; the caller
    /// should then [`ChannelPool::serve_channel`] it.
    pub fn set_link_up(&mut self, channel: ChannelId) {
        let ci = channel.index();
        debug_assert!(self.link_down[ci] > 0, "link-up without a matching down");
        self.link_down[ci] -= 1;
    }

    /// Whether `channel` is currently down.
    pub fn is_link_down(&self, channel: ChannelId) -> bool {
        self.link_down[channel.index()] > 0
    }

    /// Whether `channel` is currently unoccupied — the live congestion
    /// signal (together with [`ChannelPool::waiting_on`]) that adaptive
    /// uplink policies score candidate slots by.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn is_free(&self, channel: ChannelId) -> bool {
        self.free[channel.index()]
    }

    /// Moves a waiting (not running, not done) task onto a new channel
    /// path, preserving its enqueue timestamp so time spent waiting out
    /// a fault still counts as queue wait. If the task was queued it is
    /// re-queued on the new path's channels; the caller should
    /// [`ChannelPool::poke`] it afterwards to start it if possible. Only
    /// this task's slice is swapped: tasks sharing its old path keep it.
    ///
    /// # Panics
    ///
    /// Panics if the new path is empty or references an unknown
    /// channel; debug-panics if the task is running or done.
    pub fn reroute(&mut self, task: u32, new_path: impl Into<Arc<[ChannelId]>>) {
        let new_path = new_path.into();
        assert!(!new_path.is_empty(), "a task needs at least one channel");
        assert!(
            new_path.iter().all(|c| c.index() < self.free.len()),
            "path references an unknown channel"
        );
        let t = task as usize;
        debug_assert!(
            matches!(self.state[t], TaskState::Pending | TaskState::Ready),
            "only waiting tasks can be re-routed"
        );
        let was_enqueued = self.enqueued_at[t].is_some();
        if was_enqueued {
            for i in 0..self.paths[t].len() {
                let ci = self.paths[t][i].index();
                self.remove_waiter(ci, task);
            }
        }
        self.paths[t] = new_path;
        if was_enqueued {
            for i in 0..self.paths[t].len() {
                let ci = self.paths[t][i].index();
                self.enqueue_waiter(ci, task);
                self.max_waiting = self.max_waiting.max(self.waiters[ci].len());
            }
        }
    }

    /// Tries to start a `Ready` task under the normal
    /// (non-forced) policy — e.g. after a re-route moved it onto free
    /// channels. Returns `true` if it started; `false` leaves it queued.
    pub fn poke(&mut self, task: u32, now: Seconds, trace: &mut SimTrace) -> bool {
        self.try_start(task, now, false, trace)
    }

    /// Whether `task` is currently occupying its channels.
    pub fn is_running(&self, task: u32) -> bool {
        self.state[task as usize] == TaskState::Running
    }

    /// Whether `task` has completed.
    pub fn is_done(&self, task: u32) -> bool {
        self.state[task as usize] == TaskState::Done
    }

    /// When `task` last acquired its channels.
    pub fn started_at(&self, task: u32) -> Seconds {
        self.started_at[task as usize]
    }

    /// Total busy time per channel.
    pub fn busy(&self) -> &[Seconds] {
        &self.busy
    }

    /// Takes the per-channel busy intervals (each in completion order)
    /// out of the pool, leaving an empty interval table behind (rebuilt
    /// by the next [`ChannelPool::reset`]).
    pub fn take_intervals(&mut self) -> Vec<Vec<BusyInterval>> {
        std::mem::take(&mut self.intervals)
    }

    /// Total queue wait charged to each channel: every started task that
    /// had to wait contributes its full wait to **each** channel of its
    /// path.
    pub fn queue_wait(&self) -> &[Seconds] {
        &self.queue_wait
    }

    /// High-water mark across the per-channel waiter queues.
    pub fn max_waiting(&self) -> usize {
        self.max_waiting
    }

    /// Current length of `channel`'s waiter queue — the congestion
    /// signal the scheduler samples into per-switch queue depths.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn waiting_on(&self, channel: ChannelId) -> usize {
        self.waiters[channel.index()].len()
    }

    /// Number of force-starts used to break reservation stalls.
    pub fn force_starts(&self) -> u64 {
        self.force_starts
    }
}

/// One GPU's exclusive compute stream: at most one task at a time, in
/// readiness order, with every duration stretched by a slowdown factor.
///
/// The slowdown models the forwarding-occupancy tax of detour routes:
/// the store-and-forward kernel holds SMs, so co-resident compute runs
/// at `1 / (1 - occupied_fraction)` of its nominal time (Fig. 15).
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeStream {
    slowdown: f64,
    free: bool,
    waiters: VecDeque<u32>,
    busy: Seconds,
    max_waiting: usize,
}

impl Default for ComputeStream {
    fn default() -> Self {
        ComputeStream::new()
    }
}

impl ComputeStream {
    /// A stream at nominal speed.
    pub fn new() -> Self {
        ComputeStream::with_slowdown(1.0)
    }

    /// A stream whose tasks run `slowdown`× longer than nominal.
    ///
    /// # Panics
    ///
    /// Panics if `slowdown < 1.0`.
    pub fn with_slowdown(slowdown: f64) -> Self {
        assert!(slowdown >= 1.0, "slowdown must be >= 1.0");
        ComputeStream {
            slowdown,
            free: true,
            waiters: VecDeque::new(),
            busy: Seconds::ZERO,
            max_waiting: 0,
        }
    }

    /// The stream's slowdown factor.
    pub fn slowdown(&self) -> f64 {
        self.slowdown
    }

    /// Re-sets the slowdown factor (a straggler window opening or
    /// closing). Affects tasks scaled after the call; the fault driver
    /// rescales in-flight completions itself.
    ///
    /// # Panics
    ///
    /// Panics if `slowdown < 1.0`.
    pub fn set_slowdown(&mut self, slowdown: f64) {
        assert!(slowdown >= 1.0, "slowdown must be >= 1.0");
        self.slowdown = slowdown;
    }

    /// A nominal duration stretched by the slowdown factor.
    pub fn scale(&self, nominal: Seconds) -> Seconds {
        nominal * self.slowdown
    }

    /// Tries to acquire the stream for `task`. Returns `true` if the
    /// task starts now (the caller schedules its completion after
    /// [`ComputeStream::scale`]d duration); otherwise it queues FIFO.
    pub fn acquire(&mut self, task: u32) -> bool {
        if self.free {
            self.free = false;
            true
        } else {
            self.waiters.push_back(task);
            self.max_waiting = self.max_waiting.max(self.waiters.len());
            false
        }
    }

    /// Releases the stream after a task ran for `occupancy` (already
    /// scaled). If a waiter exists it immediately takes the stream, and
    /// its id is returned for the caller to start.
    pub fn release(&mut self, occupancy: Seconds) -> Option<u32> {
        self.busy += occupancy;
        match self.waiters.pop_front() {
            Some(next) => Some(next),
            None => {
                self.free = true;
                None
            }
        }
    }

    /// Total busy time of the stream.
    pub fn busy(&self) -> Seconds {
        self.busy
    }

    /// High-water mark of the stream's waiter queue.
    pub fn max_waiting(&self) -> usize {
        self.max_waiting
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(channels: usize, arb: Arbitration) -> (ChannelPool, SimTrace) {
        (ChannelPool::new(channels, arb), SimTrace::default())
    }

    fn us(t: f64) -> Seconds {
        Seconds::from_micros(t)
    }

    #[test]
    fn fifo_serves_in_readiness_order() {
        let (mut p, mut tr) = pool(1, Arbitration::FifoHol);
        let a = p.add_task(vec![ChannelId(0)], (0, 0));
        let b = p.add_task(vec![ChannelId(0)], (1, 1));
        assert!(p.mark_ready(a, us(0.0), &mut tr));
        assert!(!p.mark_ready(b, us(0.0), &mut tr)); // queued behind a
        p.complete(a, us(5.0));
        let mut started = Vec::new();
        p.serve(a, us(5.0), &mut tr, &mut started);
        assert_eq!(started, vec![b]);
        assert_eq!(p.started_at(b), us(5.0));
        // b waited 5µs; the wait is charged to channel 0.
        assert_eq!(p.queue_wait()[0], us(5.0));
        assert!(tr
            .records()
            .any(|r| matches!(r, TraceRecord::QueueWait { .. })));
    }

    #[test]
    fn chunk_priority_reserves_for_the_oldest_chunk() {
        // Two channels; the old-chunk task needs both, the young-chunk
        // task only one. When channel 0 frees, it must idle (reserved)
        // rather than admit the young task.
        let (mut p, mut tr) = pool(2, Arbitration::ChunkPriority);
        let blocker = p.add_task(vec![ChannelId(1)], (0, 0));
        let old = p.add_task(vec![ChannelId(0), ChannelId(1)], (1, 1));
        let young = p.add_task(vec![ChannelId(0)], (2, 2));
        assert!(p.mark_ready(blocker, us(0.0), &mut tr));
        assert!(!p.mark_ready(old, us(0.0), &mut tr)); // ch1 busy
        assert!(!p.mark_ready(young, us(0.0), &mut tr)); // yields to old on ch0
        p.complete(blocker, us(3.0));
        let mut started = Vec::new();
        p.serve(blocker, us(3.0), &mut tr, &mut started);
        assert_eq!(started, vec![old], "the reserved old chunk starts first");
        p.complete(old, us(7.0));
        started.clear();
        p.serve(old, us(7.0), &mut tr, &mut started);
        assert_eq!(started, vec![young]);
    }

    #[test]
    fn force_start_breaks_reservation_stalls() {
        let (mut p, mut tr) = pool(1, Arbitration::ChunkPriority);
        // old's channel never frees by itself because nothing runs.
        let runner = p.add_task(vec![ChannelId(0)], (5, 0));
        let _idle = p.add_task(vec![ChannelId(0)], (9, 1));
        // runner yields to nobody but pretend a stall: mark only via a
        // scenario where priority blocks — here simply exercise the API.
        assert!(p.mark_ready(runner, us(0.0), &mut tr));
        p.complete(runner, us(1.0));
        assert_eq!(p.force_starts(), 0);
        assert!(p.force_start(us(1.0), &mut tr).is_none()); // nothing ready
    }

    #[test]
    fn busy_intervals_cover_occupancy() {
        let (mut p, mut tr) = pool(1, Arbitration::FifoHol);
        let a = p.add_task(vec![ChannelId(0)], (0, 0));
        assert!(p.mark_ready(a, us(2.0), &mut tr));
        p.complete(a, us(6.0));
        assert_eq!(p.busy()[0], us(6.0) - us(2.0));
        let iv = p.take_intervals();
        assert_eq!(iv[0].len(), 1);
        assert_eq!(iv[0][0].start, us(2.0));
        assert_eq!(iv[0][0].end, us(6.0));
    }

    #[test]
    fn down_links_reject_grants_until_up() {
        let (mut p, mut tr) = pool(1, Arbitration::FifoHol);
        let a = p.add_task(vec![ChannelId(0)], (0, 0));
        p.set_link_down(ChannelId(0));
        assert!(p.is_link_down(ChannelId(0)));
        assert!(!p.mark_ready(a, us(0.0), &mut tr)); // queued: channel down
        assert!(!p.poke(a, us(1.0), &mut tr));
        assert!(
            p.force_start(us(1.0), &mut tr).is_none(),
            "force-starts must respect down links"
        );
        p.set_link_up(ChannelId(0));
        let mut started = Vec::new();
        p.serve_channel(ChannelId(0), us(4.0), &mut tr, &mut started);
        assert_eq!(started, vec![a]);
        // the wait across the downtime is charged as queue wait
        assert_eq!(p.queue_wait()[0], us(4.0));
    }

    #[test]
    fn overlapping_downs_need_every_up() {
        let (mut p, mut tr) = pool(1, Arbitration::FifoHol);
        let a = p.add_task(vec![ChannelId(0)], (0, 0));
        p.set_link_down(ChannelId(0));
        p.set_link_down(ChannelId(0));
        p.set_link_up(ChannelId(0));
        assert!(p.is_link_down(ChannelId(0)), "one fault still active");
        assert!(!p.mark_ready(a, us(0.0), &mut tr));
        p.set_link_up(ChannelId(0));
        assert!(!p.is_link_down(ChannelId(0)));
        assert!(p.poke(a, us(1.0), &mut tr));
    }

    #[test]
    fn reroute_moves_a_waiting_task_to_its_new_queues() {
        let (mut p, mut tr) = pool(2, Arbitration::FifoHol);
        let blocker = p.add_task(vec![ChannelId(0)], (0, 0));
        let b = p.add_task(vec![ChannelId(0)], (1, 1));
        assert!(p.mark_ready(blocker, us(0.0), &mut tr));
        assert!(!p.mark_ready(b, us(0.0), &mut tr)); // queued on ch0
        p.reroute(b, vec![ChannelId(1)]);
        assert_eq!(p.path(b), &[ChannelId(1)]);
        // ch1 is free, so a poke starts b immediately, and the wait
        // accumulated since the original enqueue survives the re-route.
        assert!(p.poke(b, us(2.0), &mut tr));
        assert!(p.is_running(b));
        assert_eq!(p.queue_wait()[1], us(2.0));
        // completing the blocker must not try to serve b on ch0 anymore
        p.complete(blocker, us(3.0));
        let mut started = Vec::new();
        p.serve(blocker, us(3.0), &mut tr, &mut started);
        assert!(started.is_empty());
        assert!(!p.is_done(b));
    }

    #[test]
    fn reroute_leaves_siblings_on_the_shared_path() {
        let (mut p, mut tr) = pool(2, Arbitration::FifoHol);
        let shared: Arc<[ChannelId]> = Arc::from(vec![ChannelId(0)]);
        let a = p.add_task(Arc::clone(&shared), (0, 0));
        let b = p.add_task(Arc::clone(&shared), (1, 1));
        assert!(p.mark_ready(a, us(0.0), &mut tr));
        assert!(!p.mark_ready(b, us(0.0), &mut tr)); // queued on ch0
        p.reroute(b, vec![ChannelId(1)]);
        assert_eq!(p.path(b), &[ChannelId(1)]);
        assert_eq!(p.path(a), &[ChannelId(0)], "the sibling keeps its path");
        assert_eq!(&*shared, &[ChannelId(0)], "the shared slice is untouched");
        assert_eq!(Arc::strong_count(&shared), 2, "only b let go of it");
        p.complete(a, us(1.0));
        assert_eq!(p.busy()[0], us(1.0));
        assert_eq!(p.busy()[1], Seconds::ZERO);
    }

    #[test]
    fn compute_stream_serializes_and_scales() {
        let mut s = ComputeStream::with_slowdown(2.0);
        assert_eq!(s.scale(us(3.0)), us(6.0));
        assert!(s.acquire(0));
        assert!(!s.acquire(1)); // queued
        assert_eq!(s.release(us(6.0)), Some(1)); // 1 takes over immediately
        assert_eq!(s.release(us(6.0)), None);
        assert_eq!(s.busy(), us(12.0));
        assert_eq!(s.max_waiting(), 1);
    }

    #[test]
    fn set_slowdown_rescales_future_tasks() {
        let mut s = ComputeStream::new();
        assert_eq!(s.scale(us(3.0)), us(3.0));
        s.set_slowdown(1.5);
        assert_eq!(s.scale(us(4.0)), us(6.0));
    }
}
