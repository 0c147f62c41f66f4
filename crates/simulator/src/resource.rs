//! Shared simulated resources: channels and compute streams.
//!
//! [`ChannelPool`] is the only channel-arbitration implementation: it
//! owns the free/busy state of every channel, the per-channel waiter
//! queues, and the arbitration policy ([`Arbitration::FifoHol`] strict
//! head-of-line service, or [`Arbitration::ChunkPriority`]
//! oldest-chunk-first with reservation semantics and a force-start
//! escape hatch for reservation cycles). Engines only tell the pool when
//! a task becomes *ready* and when a running task *completes*; the pool
//! decides who starts, and records grants, queue waits, busy time, and
//! (when asked to) busy intervals as it does so.
//!
//! Layout of the hot path:
//!
//! * **Routes are interned.** Channel paths are registered once as
//!   routes in one flat table, and tasks name theirs by index: tasks
//!   lowered from one logical edge with one payload share one route,
//!   and registering a task copies no path and bumps no reference
//!   count.
//! * **One 8-byte slot per task** holds what a grant decides by: the
//!   chunk, and the route index with the task state in its low bits.
//!   The payload is not stored: the caller registers one route per
//!   payload it times differently, so the route index names the
//!   grant's duration too. The arbitration key `(chunk << 32) | id` is
//!   not stored either: its low half is the slot's own index.
//! * **One timing per task** is the run's result table
//!   ([`TransferTiming`]): its `start` holds the enqueue time while the
//!   task is queued, then the grant time, and completion writes its
//!   `complete`. The scheduler takes the table as the report's timings
//!   ([`ChannelPool::take_timings`]), so each time is stored once.
//! * **One record per channel** holds everything a grant checks on each
//!   channel of its path: the key at the front of the waiter queue, the
//!   count of active link-down faults and the free flag, so the check
//!   reads one 16-byte record per channel of the path.
//! * **Waiter queues are ring buffers of packed keys**, so a queue never
//!   dereferences a task to order or identify a waiter. Under
//!   ChunkPriority a queue is a sorted run of integers: an insert gallops
//!   from the back (sorted inserts land next to an end almost always),
//!   the priority check compares the record's front key, and a grant
//!   pops the head in O(1).
//! * **Busy-interval logs are opt-in and reserved exactly**: only a
//!   traced run asks for them ([`ChannelPool::record_intervals`]), and
//!   then counts the tasks registered on each channel and gives its log
//!   room for one interval per task, so recording never regrows a vector
//!   mid-run. Registering a task walks no path, and an untraced run keeps
//!   only the per-channel busy totals.
//!
//! [`ComputeStream`] is the compute-side resource: one exclusive,
//! FIFO-ordered stream per GPU, with a slowdown factor that models the
//! forwarding-occupancy tax detour GPUs pay (Fig. 15) by stretching
//! every task duration.

use crate::engine::Arbitration;
use crate::report::TransferTiming;
use crate::trace::{BusyInterval, SimTrace, TraceRecord};
use ccube_collectives::TransferId;
use ccube_topology::{ChannelId, Seconds};
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    /// Dependencies not yet satisfied (unknown to the pool's queues).
    Pending,
    /// Ready to run and not yet in any queue: the transient state of a
    /// task between [`ChannelPool::mark_ready`] and its first grant try.
    Ready,
    /// Ready and waiting in the queues of every channel of its path.
    Queued,
    /// Occupying its channels.
    Running,
    /// Finished.
    Done,
}

/// Low bits of [`Task::route_state`] that hold the state.
const STATE_BITS: u32 = 3;
const STATE_MASK: u32 = (1 << STATE_BITS) - 1;

/// One registered task: what a grant decides by, in 8 bytes. Its
/// times live in the pool's timing table.
#[derive(Debug, Clone, Copy)]
struct Task {
    /// The chunk carried: the high half of the task's arbitration key.
    chunk: u32,
    /// `route << STATE_BITS | state`: the index of the task's channel
    /// path in the pool's route table, and its [`TaskState`].
    route_state: u32,
}

const _: () = assert!(std::mem::size_of::<Task>() == 8);

impl Task {
    fn route(&self) -> u32 {
        self.route_state >> STATE_BITS
    }

    fn state(&self) -> TaskState {
        match self.route_state & STATE_MASK {
            0 => TaskState::Pending,
            1 => TaskState::Ready,
            2 => TaskState::Queued,
            3 => TaskState::Running,
            _ => TaskState::Done,
        }
    }

    fn set_route(&mut self, route: u32) {
        self.route_state = (route << STATE_BITS) | (self.route_state & STATE_MASK);
    }

    fn set_state(&mut self, state: TaskState) {
        self.route_state = (self.route_state & !STATE_MASK) | state as u32;
    }
}

/// The packed arbitration key of task `id` carrying `chunk`:
/// `(chunk << 32) | id`, so the low half is the task's slot index.
fn pack_key(chunk: u32, id: u32) -> u64 {
    (u64::from(chunk) << 32) | u64::from(id)
}

/// The task id a packed key belongs to.
fn key_task(key: u64) -> u32 {
    key as u32
}

/// What a grant reads of one channel, in one record.
#[derive(Debug, Clone, Copy)]
struct Channel {
    /// The key at the front of the channel's waiter queue, or `u64::MAX`
    /// (no smaller than any key) while the queue is empty.
    front: u64,
    /// Count of active link-down faults: a down channel rejects every new
    /// grant (force-starts included) until every overlapping fault has
    /// lifted.
    down: u32,
    /// Whether no task occupies the channel.
    free: bool,
}

impl Channel {
    const IDLE: Channel = Channel {
        front: u64::MAX,
        down: 0,
        free: true,
    };
}

/// The exclusive-channel resource manager shared by every engine.
///
/// Channel paths are registered up front as routes
/// ([`ChannelPool::add_route`]), then tasks with their route and the
/// chunk they carry ([`ChannelPool::add_task`]); the
/// arbitration key is `(chunk, id)`, lowest first under
/// [`Arbitration::ChunkPriority`]. A task occupies **all** channels of
/// its path at once (wormhole switching) or none.
#[derive(Debug, Clone)]
pub struct ChannelPool {
    arbitration: Arbitration,
    /// Every registered route, concatenated: route `r` is
    /// `route_channels[route_start[r]..route_start[r + 1]]`.
    route_channels: Vec<ChannelId>,
    route_start: Vec<u32>,
    tasks: Vec<Task>,
    /// Each task's times, by task id: while `Queued`, `start` is when the
    /// task joined its queues; from `Running` on, when it acquired its
    /// channels. `complete` is written at completion.
    timings: Vec<TransferTiming>,
    /// Per-channel grant state: the waiter front, down count and free
    /// flag a grant checks, kept next to each other.
    channels: Vec<Channel>,
    /// Per-channel waiter queues of packed keys. Under
    /// [`Arbitration::FifoHol`] each queue is in readiness (FIFO) order;
    /// under [`Arbitration::ChunkPriority`] it is kept strictly
    /// ascending, so the best waiter is always the front — no per-round
    /// scan. Each change re-reads the front into the channel's record.
    waiters: Vec<VecDeque<u64>>,
    /// Scratch buffer for [`ChannelPool::force_start`]'s key-sorted scan
    /// of the waiting set. Built lazily per stall round: stalls are rare,
    /// so paying a collect-and-sort there beats the O(tasks) sorted
    /// insert/remove an eagerly maintained ready list costs on *every*
    /// readiness change (quadratic over deep tree schedules).
    force_scratch: Vec<u64>,
    busy: Vec<Seconds>,
    /// Whether completions log busy intervals.
    record_intervals: bool,
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
            route_channels: Vec::new(),
            route_start: vec![0],
            tasks: Vec::new(),
            timings: Vec::new(),
            channels: vec![Channel::IDLE; num_channels],
            waiters: vec![VecDeque::new(); num_channels],
            force_scratch: Vec::new(),
            busy: vec![Seconds::ZERO; num_channels],
            record_intervals: false,
            intervals: vec![Vec::new(); num_channels],
            queue_wait: vec![Seconds::ZERO; num_channels],
            max_waiting: 0,
            force_starts: 0,
        }
    }

    /// Pre-allocates the per-task slots and timings for `num_tasks`
    /// upcoming [`ChannelPool::add_task`] calls.
    pub fn reserve_tasks(&mut self, num_tasks: usize) {
        self.tasks.reserve_exact(num_tasks);
        self.timings.reserve_exact(num_tasks);
    }

    /// Registers a channel path as a route that tasks can share; route
    /// ids are dense and assigned in call order.
    ///
    /// # Panics
    ///
    /// Panics if the path is empty or references an unknown channel, or
    /// if the route id would not fit a task slot.
    pub fn add_route(&mut self, path: impl IntoIterator<Item = ChannelId>) -> u32 {
        let start = self.route_channels.len();
        self.route_channels.extend(path);
        let path = &self.route_channels[start..];
        assert!(!path.is_empty(), "a route needs at least one channel");
        assert!(
            path.iter().all(|c| c.index() < self.channels.len()),
            "path references an unknown channel"
        );
        let route = (self.route_start.len() - 1) as u32;
        assert!(route < 1 << (u32::BITS - STATE_BITS), "too many routes");
        self.route_start.push(self.route_channels.len() as u32);
        route
    }

    /// Registers a task on `route` carrying `chunk`; ids are dense and
    /// assigned in call order, and the arbitration key is `(chunk, id)`.
    ///
    /// # Panics
    ///
    /// Panics if `route` was never registered, or if the pool already
    /// holds `u32::MAX` tasks (so no key is `u64::MAX`, the empty-queue
    /// front).
    pub fn add_task(&mut self, route: u32, chunk: u32) -> u32 {
        let id = u32::try_from(self.tasks.len())
            .ok()
            .filter(|&id| id < u32::MAX)
            .expect("too many tasks");
        assert!(
            (route as usize) < self.route_start.len() - 1,
            "unregistered route"
        );
        self.tasks.push(Task {
            chunk,
            route_state: (route << STATE_BITS) | TaskState::Pending as u32,
        });
        self.timings.push(TransferTiming {
            start: Seconds::ZERO,
            complete: Seconds::ZERO,
        });
        id
    }

    /// Turns on the busy-interval logs, reserving each channel's for
    /// exactly the tasks registered on it so far — the exact length of
    /// its log unless a re-route moves traffic: one allocation per used
    /// channel, and no regrowth while the run records. Call after the
    /// last [`ChannelPool::add_task`]. Without it the pool logs no
    /// intervals at all; busy totals are kept either way.
    pub fn record_intervals(&mut self) {
        self.record_intervals = true;
        // Tasks per route, then per channel, in one scratch table.
        let routes = self.route_start.len() - 1;
        let mut counts = vec![0u32; routes + self.channels.len()];
        let (per_route, per_channel) = counts.split_at_mut(routes);
        for t in &self.tasks {
            per_route[t.route() as usize] += 1;
        }
        for (r, &n) in per_route.iter().enumerate() {
            for c in route_path(&self.route_channels, &self.route_start, r as u32) {
                per_channel[c.index()] += n;
            }
        }
        for (iv, &n) in self.intervals.iter_mut().zip(per_channel.iter()) {
            iv.reserve_exact(n as usize);
        }
    }

    /// The channel path of `task`.
    pub fn path(&self, task: u32) -> &[ChannelId] {
        route_path(&self.route_channels, &self.route_start, self.route(task))
    }

    /// The route `task` currently takes: the one it was registered on, or
    /// the last [`ChannelPool::reroute`] gave it.
    pub fn route(&self, task: u32) -> u32 {
        self.tasks[task as usize].route()
    }

    /// The chunk `task` was registered with.
    pub fn chunk(&self, task: u32) -> u32 {
        self.tasks[task as usize].chunk
    }

    /// Declares `task`'s dependencies satisfied. Returns `true` if the
    /// task started immediately (the caller must then schedule its
    /// completion event at `now + duration`); otherwise it waits in its
    /// channels' queues.
    pub fn mark_ready(&mut self, task: u32, now: Seconds, trace: &mut SimTrace) -> bool {
        let t = &mut self.tasks[task as usize];
        debug_assert_eq!(t.state(), TaskState::Pending);
        t.set_state(TaskState::Ready);
        self.try_start(task, now, false, trace)
    }

    /// Releases the channels of a completed `task`, charging busy time
    /// and, if the pool records them, logging the busy interval, and
    /// writes the task's completion time. Does **not** serve
    /// the freed queues — call [`ChannelPool::serve`] after the caller
    /// has processed the completion's dependency fallout, preserving the
    /// historical unblock-then-serve order.
    pub fn complete(&mut self, task: u32, now: Seconds) {
        let t = &mut self.tasks[task as usize];
        debug_assert_eq!(t.state(), TaskState::Running);
        t.set_state(TaskState::Done);
        let timing = &mut self.timings[task as usize];
        timing.complete = now;
        let started = timing.start;
        let occupancy = now - started;
        for ci in route_path(&self.route_channels, &self.route_start, t.route())
            .iter()
            .map(|c| c.index())
        {
            self.channels[ci].free = true;
            self.busy[ci] += occupancy;
            if self.record_intervals {
                self.intervals[ci].push(BusyInterval {
                    start: started,
                    end: now,
                });
            }
        }
    }

    /// Serves the waiter queues of the channels a completed `task` just
    /// released, starting every waiter the policy admits. Started task
    /// ids are appended to `started` in start order.
    pub fn serve(&mut self, task: u32, now: Seconds, trace: &mut SimTrace, started: &mut Vec<u32>) {
        // Serving only grants, and grants add no routes, so the route's
        // span of the table stays put.
        let route = self.tasks[task as usize].route() as usize;
        for i in self.route_start[route]..self.route_start[route + 1] {
            let c = self.route_channels[i as usize];
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
        loop {
            let head = self.channels[ci].front;
            if head == u64::MAX {
                break; // no task id reaches `u32::MAX`, so no key is `MAX`
            }
            let task = key_task(head);
            if self.try_start(task, now, false, trace) {
                started.push(task);
            } else {
                break;
            }
        }
    }

    /// Breaks a reservation stall: force-starts the best (lowest-key)
    /// waiting task whose channels are free, bypassing chunk priority.
    /// Returns the started task, or `None` if nothing can run (a true
    /// deadlock).
    pub fn force_start(&mut self, now: Seconds, trace: &mut SimTrace) -> Option<u32> {
        // The waiting set is collected and key-sorted here, per stall
        // round, rather than maintained eagerly: keys are unique, so the
        // ascending-key scan order is exactly the one a sorted ready
        // list would give.
        let mut scratch = std::mem::take(&mut self.force_scratch);
        scratch.clear();
        scratch.extend(
            self.tasks
                .iter()
                .enumerate()
                .filter(|(_, t)| matches!(t.state(), TaskState::Ready | TaskState::Queued))
                .map(|(id, t)| pack_key(t.chunk, id as u32)),
        );
        scratch.sort_unstable();
        let mut found = None;
        for &key in &scratch {
            let t = key_task(key);
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
        let arbitration = self.arbitration;
        let ChannelPool {
            route_channels,
            route_start,
            tasks,
            timings,
            channels,
            waiters,
            queue_wait,
            max_waiting,
            ..
        } = self;
        let t = &mut tasks[task as usize];
        let since = &mut timings[task as usize].start;
        let queued = match t.state() {
            TaskState::Ready => false,
            TaskState::Queued => true,
            _ => return false,
        };
        let key = pack_key(t.chunk, task);
        let path = route_path(route_channels, route_start, t.route());
        // A freed channel is implicitly reserved for the oldest waiting
        // chunk under ChunkPriority: a younger task yields to any waiter
        // with a smaller key anywhere on its path. The queues are
        // ascending, so the front key decides for the whole queue (a
        // queued task's own key is its front at best).
        let priority = !force && arbitration == Arbitration::ChunkPriority;
        let grantable = path.iter().all(|c| {
            let ch = &channels[c.index()];
            ch.free && ch.down == 0 && (!priority || ch.front >= key)
        });
        if !grantable {
            // A task waits in either all of its path's queues or none.
            if !queued {
                t.set_state(TaskState::Queued);
                *since = now;
                for c in path {
                    let ci = c.index();
                    let queue = &mut waiters[ci];
                    enqueue_waiter(queue, key, arbitration);
                    channels[ci].front = front_of(queue);
                    *max_waiting = (*max_waiting).max(queue.len());
                }
            }
            return false;
        }
        for c in path {
            let ci = c.index();
            channels[ci].free = false;
            if queued {
                debug_assert!(
                    force
                        || arbitration == Arbitration::FifoHol
                        || waiters[ci].front() == Some(&key),
                    "a non-forced ChunkPriority grant must head every queue on its path"
                );
                let queue = &mut waiters[ci];
                remove_waiter(queue, key, arbitration);
                channels[ci].front = front_of(queue);
            }
            trace.push(TraceRecord::ChannelGrant {
                channel: *c,
                id: TransferId(task),
                at: now,
            });
        }
        if queued {
            let enqueued = *since;
            let wait = now - enqueued;
            for c in path {
                queue_wait[c.index()] += wait;
            }
            trace.push(TraceRecord::QueueWait {
                id: TransferId(task),
                enqueued,
                granted: now,
            });
        }
        t.set_state(TaskState::Running);
        *since = now;
        true
    }

    /// Takes channel `channel` down for a fault. Down channels reject
    /// every new grant — including force-starts — so tasks whose path
    /// crosses the channel wait in its queue (or get re-routed by the
    /// fault driver). In-flight occupants are unaffected: a flap is
    /// detected at grant time, not mid-wormhole.
    pub fn set_link_down(&mut self, channel: ChannelId) {
        self.channels[channel.index()].down += 1;
    }

    /// Lifts one link-down fault from `channel`. The channel serves
    /// again once **every** overlapping fault has lifted; the caller
    /// should then [`ChannelPool::serve_channel`] it.
    pub fn set_link_up(&mut self, channel: ChannelId) {
        let ch = &mut self.channels[channel.index()];
        debug_assert!(ch.down > 0, "link-up without a matching down");
        ch.down -= 1;
    }

    /// Whether `channel` is currently down.
    pub fn is_link_down(&self, channel: ChannelId) -> bool {
        self.channels[channel.index()].down > 0
    }

    /// Whether `channel` is currently unoccupied — the live congestion
    /// signal (together with [`ChannelPool::waiting_on`]) that adaptive
    /// uplink policies score candidate slots by.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn is_free(&self, channel: ChannelId) -> bool {
        self.channels[channel.index()].free
    }

    /// Moves a waiting (not running, not done) task onto a new channel
    /// path, preserving its enqueue timestamp so time spent waiting out
    /// a fault still counts as queue wait. If the task was queued it is
    /// re-queued on the new path's channels; the caller should
    /// [`ChannelPool::poke`] it afterwards to start it if possible. The
    /// new path becomes a route of its own, so tasks sharing the old
    /// route keep it.
    ///
    /// # Panics
    ///
    /// Panics if the new path is empty or references an unknown
    /// channel; debug-panics if the task is running or done.
    pub fn reroute(&mut self, task: u32, new_path: impl IntoIterator<Item = ChannelId>) {
        let route = self.add_route(new_path);
        let arbitration = self.arbitration;
        let ChannelPool {
            route_channels,
            route_start,
            tasks,
            channels,
            waiters,
            max_waiting,
            ..
        } = self;
        let t = &mut tasks[task as usize];
        debug_assert!(
            matches!(
                t.state(),
                TaskState::Pending | TaskState::Ready | TaskState::Queued
            ),
            "only waiting tasks can be re-routed"
        );
        let key = pack_key(t.chunk, task);
        let queued = t.state() == TaskState::Queued;
        if queued {
            for c in route_path(route_channels, route_start, t.route()) {
                let queue = &mut waiters[c.index()];
                remove_waiter(queue, key, arbitration);
                channels[c.index()].front = front_of(queue);
            }
        }
        t.set_route(route);
        if queued {
            for c in route_path(route_channels, route_start, route) {
                let queue = &mut waiters[c.index()];
                enqueue_waiter(queue, key, arbitration);
                channels[c.index()].front = front_of(queue);
                *max_waiting = (*max_waiting).max(queue.len());
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
        self.tasks[task as usize].state() == TaskState::Running
    }

    /// Whether `task` has completed.
    pub fn is_done(&self, task: u32) -> bool {
        self.tasks[task as usize].state() == TaskState::Done
    }

    /// Takes the per-task timings out of the pool, by task id: the grant
    /// and completion time of every completed task.
    pub fn take_timings(&mut self) -> Vec<TransferTiming> {
        std::mem::take(&mut self.timings)
    }

    /// Total busy time per channel.
    pub fn busy(&self) -> &[Seconds] {
        &self.busy
    }

    /// Takes the per-channel busy intervals (each in completion order)
    /// out of the pool, leaving an empty interval table behind. Each is
    /// empty unless [`ChannelPool::record_intervals`] was called.
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

/// Route `route`'s channels in a route table (see
/// [`ChannelPool::add_route`]).
fn route_path<'a>(channels: &'a [ChannelId], start: &[u32], route: u32) -> &'a [ChannelId] {
    let r = route as usize;
    &channels[start[r] as usize..start[r + 1] as usize]
}

/// A waiter queue's front key, as a [`Channel`] record keeps it.
fn front_of(queue: &VecDeque<u64>) -> u64 {
    queue.front().copied().unwrap_or(u64::MAX)
}

/// Adds `key` to a waiter queue: at the back under
/// [`Arbitration::FifoHol`], at its sorted position under
/// [`Arbitration::ChunkPriority`] (usually the back too: later chunks
/// become ready later).
fn enqueue_waiter(queue: &mut VecDeque<u64>, key: u64, arbitration: Arbitration) {
    match arbitration {
        Arbitration::ChunkPriority if queue.back().is_some_and(|&b| b > key) => {
            queue.insert(sorted_position(queue, key), key);
        }
        _ => queue.push_back(key),
    }
}

/// Where `key` goes in an ascending queue — `partition_point(|&w| w <
/// key)` — found by galloping from the back: a sorted insert lands next
/// to an end almost always, so a front insert is one compare and a back
/// one a few, where a binary search pays `log2(len)` either way.
fn sorted_position(queue: &VecDeque<u64>, key: u64) -> usize {
    if queue.front().is_none_or(|&f| f > key) {
        return 0;
    }
    // `queue[lo - 1] < key` and every entry from `hi` on is `> key`;
    // the caller has checked the back.
    let (mut lo, mut hi) = (1, queue.len() - 1);
    let mut step = 1;
    while hi - lo > step {
        let probe = hi - step;
        if queue[probe] < key {
            lo = probe + 1;
            break;
        }
        hi = probe;
        step *= 2;
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if queue[mid] < key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Removes `key` from a waiter queue it sits in. A grant under either
/// policy almost always takes the head; otherwise FifoHol scans and
/// ChunkPriority binary-searches.
fn remove_waiter(queue: &mut VecDeque<u64>, key: u64, arbitration: Arbitration) {
    if queue.front() == Some(&key) {
        queue.pop_front();
        return;
    }
    let pos = match arbitration {
        Arbitration::FifoHol => queue.iter().position(|&w| w == key),
        Arbitration::ChunkPriority => queue.binary_search(&key).ok(),
    };
    debug_assert!(
        pos.is_some(),
        "a queued task sits in every queue of its path"
    );
    if let Some(pos) = pos {
        queue.remove(pos);
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

impl ComputeStream {
    /// A stream whose tasks run `slowdown`× longer than nominal (1.0 is
    /// nominal speed).
    ///
    /// # Panics
    ///
    /// Panics if `slowdown < 1.0`.
    pub fn new(slowdown: f64) -> Self {
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
    use proptest::prelude::*;

    fn pool(channels: usize, arb: Arbitration) -> (ChannelPool, SimTrace) {
        (ChannelPool::new(channels, arb), SimTrace::default())
    }

    fn us(t: f64) -> Seconds {
        Seconds::from_micros(t)
    }

    /// Registers a task on a route of its own over `channels`.
    fn task(p: &mut ChannelPool, channels: &[u32], chunk: u32) -> u32 {
        let route = p.add_route(channels.iter().map(|&c| ChannelId(c)));
        p.add_task(route, chunk)
    }

    #[test]
    fn fifo_serves_in_readiness_order() {
        let (mut p, mut tr) = pool(1, Arbitration::FifoHol);
        let a = task(&mut p, &[0], 0);
        let b = task(&mut p, &[0], 1);
        assert!(p.mark_ready(a, us(0.0), &mut tr));
        assert!(!p.mark_ready(b, us(0.0), &mut tr)); // queued behind a
        p.complete(a, us(5.0));
        let mut started = Vec::new();
        p.serve(a, us(5.0), &mut tr, &mut started);
        assert_eq!(started, vec![b]);
        assert_eq!(p.timings[b as usize].start, us(5.0));
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
        let blocker = task(&mut p, &[1], 0);
        let old = task(&mut p, &[0, 1], 1);
        let young = task(&mut p, &[0], 2);
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
        let runner = task(&mut p, &[0], 5);
        let _idle = task(&mut p, &[0], 9);
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
        let a = task(&mut p, &[0], 0);
        p.record_intervals();
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
        let a = task(&mut p, &[0], 0);
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
        let a = task(&mut p, &[0], 0);
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
        let blocker = task(&mut p, &[0], 0);
        let b = task(&mut p, &[0], 1);
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
        let shared = p.add_route([ChannelId(0)]);
        let a = p.add_task(shared, 0);
        let b = p.add_task(shared, 1);
        assert!(p.mark_ready(a, us(0.0), &mut tr));
        assert!(!p.mark_ready(b, us(0.0), &mut tr)); // queued on ch0
        p.reroute(b, vec![ChannelId(1)]);
        assert_eq!(p.path(b), &[ChannelId(1)]);
        assert_eq!(p.path(a), &[ChannelId(0)], "the sibling keeps its path");
        assert_eq!(
            p.tasks[a as usize].route(),
            shared,
            "the shared route is untouched"
        );
        p.complete(a, us(1.0));
        assert_eq!(p.busy()[0], us(1.0));
        assert_eq!(p.busy()[1], Seconds::ZERO);
    }

    #[test]
    fn compute_stream_serializes_and_scales() {
        let mut s = ComputeStream::new(2.0);
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
        let mut s = ComputeStream::new(1.0);
        assert_eq!(s.scale(us(3.0)), us(3.0));
        s.set_slowdown(1.5);
        assert_eq!(s.scale(us(4.0)), us(6.0));
    }

    /// Asserts the pool's structural invariants. `stamps[t]` is the
    /// order in which task `t` last joined its queues, `down[c]` the
    /// link-down faults active on channel `c`, and `chunks[t]` the chunk
    /// task `t` was registered with.
    fn check_invariants(p: &ChannelPool, stamps: &[u64], down: &[u32], chunks: &[u32]) {
        for (ci, queue) in p.waiters.iter().enumerate() {
            let keys: Vec<u64> = queue.iter().copied().collect();
            match p.arbitration {
                Arbitration::ChunkPriority => {
                    assert!(
                        keys.windows(2).all(|w| w[0] < w[1]),
                        "channel {ci}: ChunkPriority queue not strictly ascending: {keys:?}"
                    );
                    check_sorted_inserts(queue);
                }
                Arbitration::FifoHol => assert!(
                    keys.windows(2)
                        .all(|w| stamps[key_task(w[0]) as usize] < stamps[key_task(w[1]) as usize]),
                    "channel {ci}: FifoHol queue out of readiness order: {keys:?}"
                ),
            }
            for &k in &keys {
                let t = &p.tasks[key_task(k) as usize];
                assert_eq!(pack_key(t.chunk, key_task(k)), k);
                assert_eq!(t.state(), TaskState::Queued, "only queued tasks wait");
                assert!(
                    p.path(key_task(k)).iter().any(|c| c.index() == ci),
                    "task {} waits on channel {ci}, off its path",
                    key_task(k)
                );
            }
            let ch = &p.channels[ci];
            assert_eq!(
                ch.front,
                keys.first().copied().unwrap_or(u64::MAX),
                "channel {ci}: the record's front key is not the queue's"
            );
            assert_eq!(ch.down, down[ci], "channel {ci}: down count drifted");
        }
        let mut occupied = vec![false; p.channels.len()];
        for (id, t) in p.tasks.iter().enumerate() {
            assert_eq!(t.chunk, chunks[id], "task {id} lost its chunk");
            let key = pack_key(t.chunk, id as u32);
            match t.state() {
                TaskState::Queued => {
                    for c in p.path(id as u32) {
                        let n = p.waiters[c.index()].iter().filter(|&&w| w == key).count();
                        assert_eq!(n, 1, "a queued task sits once in each queue of its path");
                    }
                }
                TaskState::Running => {
                    for c in p.path(id as u32) {
                        assert!(!occupied[c.index()], "two running tasks share a channel");
                        occupied[c.index()] = true;
                    }
                }
                _ => {}
            }
        }
        for (ci, &busy) in occupied.iter().enumerate() {
            assert_eq!(
                p.channels[ci].free, !busy,
                "channel {ci}: free flag disagrees with occupancy"
            );
        }
    }

    /// Asserts that a ChunkPriority insert of any key not in the ascending
    /// `queue` — below its front, in each gap, past its back — lands
    /// where `partition_point` puts it.
    fn check_sorted_inserts(queue: &VecDeque<u64>) {
        let probes = queue
            .iter()
            .flat_map(|&w| [w.wrapping_sub(1), w + 1])
            .chain([0])
            .filter(|k| !queue.contains(k));
        for key in probes {
            let mut inserted = queue.clone();
            enqueue_waiter(&mut inserted, key, Arbitration::ChunkPriority);
            let mut expected = queue.clone();
            expected.insert(queue.partition_point(|&w| w < key), key);
            assert_eq!(inserted, expected, "key {key} inserted out of place");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random operation sequences under both arbitrations keep the
        /// queues ordered, keep every waiting task in exactly the queues
        /// of its current path, keep running paths disjoint, keep each
        /// channel record's front key, down count and free flag equal to
        /// its queue, faults and occupancy, and keep each task's chunk
        /// through re-routes; every ChunkPriority queue also takes an
        /// insert of each absent key where `partition_point` would. A
        /// wrapped queue up to 512 deep checks the gallop on deep queues.
        /// The grant-time head check is the debug assertion in
        /// `try_start`.
        #[test]
        fn pool_invariants_hold_under_random_operations(
            arb in prop::sample::select(vec![Arbitration::FifoHol, Arbitration::ChunkPriority]),
            num_channels in 1usize..5,
            num_tasks in 1usize..24,
            num_ops in 1usize..160,
            seed in 0u64..1 << 32,
        ) {
            let mut rng = crate::kernel::SimRng::new(seed);
            let depth = 1 + rng.below(512) as usize;
            let mut deep = VecDeque::with_capacity(depth);
            // Start mid-buffer so the queue wraps, as a long-lived one does.
            for _ in 0..rng.below(depth as u64) {
                deep.push_back(0);
                deep.pop_front();
            }
            let mut key = rng.below(3);
            for _ in 0..depth {
                key += 2 + rng.below(4);
                deep.push_back(key);
            }
            let back = deep[deep.len() - 1];
            for key in (0..=back).filter(|k| deep.binary_search(k).is_err()) {
                let want = deep.partition_point(|&w| w < key);
                prop_assert_eq!(sorted_position(&deep, key), want, "key {}", key);
            }
            let path_of = |mask: u64| -> Vec<ChannelId> {
                let mask = match mask & ((1 << num_channels) - 1) {
                    0 => 1,
                    m => m,
                };
                (0..num_channels as u32)
                    .filter(|c| mask & (1 << c) != 0)
                    .map(ChannelId)
                    .collect()
            };
            let (mut p, mut tr) = pool(num_channels, arb);
            let mut chunks = Vec::new();
            for _ in 0..num_tasks {
                // Reuse the last route now and then, as tasks of one
                // logical edge do.
                let route = match p.tasks.len() {
                    n if n > 0 && rng.below(3) == 0 => p.tasks[n - 1].route(),
                    _ => p.add_route(path_of(rng.next_u64())),
                };
                chunks.push(rng.below(6) as u32);
                p.add_task(route, chunks[chunks.len() - 1]);
            }
            p.record_intervals();
            let mut stamps = vec![0u64; num_tasks];
            let mut next_stamp = 1;
            let mut down = vec![0u32; num_channels];
            let mut started = Vec::new();
            for step in 0..num_ops {
                let now = us(step as f64);
                let (op, pick, mask) = (rng.below(7), rng.below(1 << 16), rng.next_u64());
                let with = |p: &ChannelPool, want: &[TaskState]| -> Option<u32> {
                    let ids: Vec<u32> = (0..p.tasks.len() as u32)
                        .filter(|&t| want.contains(&p.tasks[t as usize].state()))
                        .collect();
                    (!ids.is_empty()).then(|| ids[pick as usize % ids.len()])
                };
                match op {
                    0 => {
                        if let Some(t) = with(&p, &[TaskState::Pending]) {
                            if !p.mark_ready(t, now, &mut tr) {
                                stamps[t as usize] = next_stamp;
                                next_stamp += 1;
                            }
                        }
                    }
                    1 => {
                        if let Some(t) = with(&p, &[TaskState::Running]) {
                            p.complete(t, now);
                        }
                    }
                    2 => {
                        if let Some(t) = with(&p, &[TaskState::Done]) {
                            started.clear();
                            p.serve(t, now, &mut tr, &mut started);
                            for &s in &started {
                                prop_assert!(p.is_running(s));
                            }
                        }
                    }
                    3 => {
                        if let Some(t) = p.force_start(now, &mut tr) {
                            prop_assert!(p.is_running(t));
                        }
                    }
                    4 => {
                        let waiting = [TaskState::Pending, TaskState::Queued];
                        if let Some(t) = with(&p, &waiting) {
                            p.reroute(t, path_of(mask));
                            if p.tasks[t as usize].state() == TaskState::Queued {
                                stamps[t as usize] = next_stamp;
                                next_stamp += 1;
                            }
                            p.poke(t, now, &mut tr);
                        }
                    }
                    5 => {
                        let c = pick as usize % num_channels;
                        down[c] += 1;
                        p.set_link_down(ChannelId(c as u32));
                    }
                    _ => {
                        let c = pick as usize % num_channels;
                        if down[c] > 0 {
                            down[c] -= 1;
                            p.set_link_up(ChannelId(c as u32));
                        }
                    }
                }
                check_invariants(&p, &stamps, &down, &chunks);
            }
        }
    }
}
