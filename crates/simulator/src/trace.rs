//! Structured simulation traces.
//!
//! Every engine built on the [`kernel`](crate::kernel) records what
//! happened as typed [`TraceRecord`]s in a [`SimTrace`] — transfer and
//! compute start/end, channel grants, queue waits, and detour hops — so
//! runs can be inspected, diffed, and replayed without parsing log text.
//! The trace is a bounded ring buffer: pushing past the capacity drops
//! the **oldest** records (counted in [`SimTrace::dropped`]) so that long
//! simulations keep the recent past at a fixed memory cost.
//!
//! [`BusyInterval`]s are the per-channel occupancy spans the engines
//! collect alongside the trace; they feed the timeline renderers and the
//! utilization-over-time export on the reports.

use ccube_collectives::TransferId;
use ccube_topology::{ChannelId, GpuId, Seconds};
use std::collections::VecDeque;
use std::fmt::{self, Write as _};

/// One closed span during which a resource was occupied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusyInterval {
    /// When the occupancy began.
    pub start: Seconds,
    /// When the occupancy ended.
    pub end: Seconds,
}

impl BusyInterval {
    /// The span's length.
    pub fn duration(&self) -> Seconds {
        self.end - self.start
    }

    /// The overlap of this interval with `[lo, hi)`, as a duration.
    pub fn overlap(&self, lo: Seconds, hi: Seconds) -> Seconds {
        let s = self.start.max(lo);
        let e = self.end.min(hi);
        if e > s {
            e - s
        } else {
            Seconds::ZERO
        }
    }
}

/// One structured event of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum TraceRecord {
    /// A transfer acquired all channels of its path and began moving
    /// bytes.
    TransferStart {
        /// The transfer.
        id: TransferId,
        /// When it started.
        at: Seconds,
    },
    /// A transfer completed and released its channels.
    TransferEnd {
        /// The transfer.
        id: TransferId,
        /// When it completed.
        at: Seconds,
    },
    /// A channel was granted to a transfer (one record per channel of
    /// the path).
    ChannelGrant {
        /// The granted channel.
        channel: ChannelId,
        /// The transfer it was granted to.
        id: TransferId,
        /// When the grant happened.
        at: Seconds,
    },
    /// A transfer that had to wait for channels was finally granted
    /// them.
    QueueWait {
        /// The transfer that waited.
        id: TransferId,
        /// When it became ready and queued.
        enqueued: Seconds,
        /// When its channels were granted.
        granted: Seconds,
    },
    /// A compute task began occupying its GPU's stream.
    ComputeStart {
        /// The compute task id.
        id: u32,
        /// The GPU whose stream it occupies.
        gpu: GpuId,
        /// When it started.
        at: Seconds,
    },
    /// A compute task finished.
    ComputeEnd {
        /// The compute task id.
        id: u32,
        /// The GPU it ran on.
        gpu: GpuId,
        /// When it finished.
        at: Seconds,
    },
    /// A completed transfer was routed through an intermediate GPU,
    /// charging forwarding time to it.
    DetourHop {
        /// The forwarded transfer.
        id: TransferId,
        /// The intermediate GPU that forwarded it.
        via: GpuId,
        /// When the forwarded transfer completed.
        at: Seconds,
    },
    /// A fault-plan event became active.
    FaultStart {
        /// Index of the event in the [`FaultPlan`](crate::FaultPlan).
        fault: u32,
        /// When it activated.
        at: Seconds,
    },
    /// A fault-plan event ended.
    FaultEnd {
        /// Index of the event in the [`FaultPlan`](crate::FaultPlan).
        fault: u32,
        /// When it lifted.
        at: Seconds,
    },
    /// A waiting transfer was moved onto a surviving route after a
    /// link-down fault severed its planned path.
    Reroute {
        /// The re-routed transfer.
        id: TransferId,
        /// When the new route was chosen.
        at: Seconds,
    },
    /// A transfer's port path was steered onto a different uplink slot —
    /// by an adaptive uplink policy at grant time, or by the fault
    /// driver failing it away from a downed uplink. Fabric engines only.
    Failover {
        /// The transfer whose path moved.
        id: TransferId,
        /// Pool resource index of the uplink-up port now carrying it.
        port: ChannelId,
        /// When the new slot was chosen.
        at: Seconds,
    },
}

impl TraceRecord {
    /// The record's timestamp.
    pub fn at(&self) -> Seconds {
        match *self {
            TraceRecord::TransferStart { at, .. }
            | TraceRecord::TransferEnd { at, .. }
            | TraceRecord::ChannelGrant { at, .. }
            | TraceRecord::ComputeStart { at, .. }
            | TraceRecord::ComputeEnd { at, .. }
            | TraceRecord::DetourHop { at, .. }
            | TraceRecord::FaultStart { at, .. }
            | TraceRecord::FaultEnd { at, .. }
            | TraceRecord::Reroute { at, .. }
            | TraceRecord::Failover { at, .. } => at,
            TraceRecord::QueueWait { granted, .. } => granted,
        }
    }
}

/// A bounded ring buffer of [`TraceRecord`]s.
///
/// # Examples
///
/// ```
/// use ccube_sim::trace::{SimTrace, TraceRecord};
/// use ccube_collectives::TransferId;
/// use ccube_topology::Seconds;
///
/// let mut trace = SimTrace::bounded(2);
/// for i in 0..3 {
///     trace.push(TraceRecord::TransferStart {
///         id: TransferId(i),
///         at: Seconds::from_micros(i as f64),
///     });
/// }
/// assert_eq!(trace.len(), 2); // oldest record evicted
/// assert_eq!(trace.dropped(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimTrace {
    records: VecDeque<TraceRecord>,
    capacity: usize,
    dropped: u64,
}

impl Default for SimTrace {
    fn default() -> Self {
        SimTrace::bounded(SimTrace::DEFAULT_CAPACITY)
    }
}

impl SimTrace {
    /// The default ring capacity used by the engines.
    pub const DEFAULT_CAPACITY: usize = 65_536;

    /// A trace holding at most `capacity` records (at least 1).
    pub fn bounded(capacity: usize) -> Self {
        SimTrace::bounded_for(capacity, 4096)
    }

    /// A trace holding at most `capacity` records, pre-allocated for an
    /// `expected` record count so an engine that can bound its event
    /// population up front (transfers × records-per-transfer, say)
    /// never regrows the ring mid-run. Behaviorally identical to
    /// [`SimTrace::bounded`] — only the initial allocation differs.
    pub fn bounded_for(capacity: usize, expected: usize) -> Self {
        let capacity = capacity.max(1);
        SimTrace {
            records: VecDeque::with_capacity(capacity.min(expected.max(16))),
            capacity,
            dropped: 0,
        }
    }

    /// A disabled trace: [`SimTrace::push`] is a no-op and nothing is
    /// ever retained or counted as dropped.
    ///
    /// This is the engines' `trace: off` fast path — sweep and search
    /// drivers that only read a report's timings and counters skip the
    /// per-event ring-buffer bookkeeping entirely (request it with
    /// [`SimOptions::without_trace`](crate::SimOptions::without_trace)).
    /// Tracing is pure observation, so a disabled trace never changes
    /// simulated timings.
    pub fn disabled() -> Self {
        SimTrace {
            records: VecDeque::new(),
            capacity: 0,
            dropped: 0,
        }
    }

    /// True unless this trace was created with [`SimTrace::disabled`].
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Appends a record, evicting the oldest if the ring is full.
    /// No-op on a [`SimTrace::disabled`] trace.
    #[inline]
    pub fn push(&mut self, record: TraceRecord) {
        if self.capacity == 0 {
            return;
        }
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(record);
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing was recorded (or everything was dropped).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of records evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Exports the retained records as CSV
    /// (`kind,id,channel_or_gpu,t_us,extra_us`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,id,channel_or_gpu,t_us,extra_us\n");
        for r in &self.records {
            let _ = match *r {
                TraceRecord::TransferStart { id, at } => {
                    writeln!(out, "transfer_start,{},,{:.3},", id.0, at.as_micros())
                }
                TraceRecord::TransferEnd { id, at } => {
                    writeln!(out, "transfer_end,{},,{:.3},", id.0, at.as_micros())
                }
                TraceRecord::ChannelGrant { channel, id, at } => writeln!(
                    out,
                    "channel_grant,{},{},{:.3},",
                    id.0,
                    channel.0,
                    at.as_micros()
                ),
                TraceRecord::QueueWait {
                    id,
                    enqueued,
                    granted,
                } => writeln!(
                    out,
                    "queue_wait,{},,{:.3},{:.3}",
                    id.0,
                    granted.as_micros(),
                    (granted - enqueued).as_micros()
                ),
                TraceRecord::ComputeStart { id, gpu, at } => {
                    writeln!(out, "compute_start,{},{},{:.3},", id, gpu.0, at.as_micros())
                }
                TraceRecord::ComputeEnd { id, gpu, at } => {
                    writeln!(out, "compute_end,{},{},{:.3},", id, gpu.0, at.as_micros())
                }
                TraceRecord::DetourHop { id, via, at } => {
                    writeln!(out, "detour_hop,{},{},{:.3},", id.0, via.0, at.as_micros())
                }
                TraceRecord::FaultStart { fault, at } => {
                    writeln!(out, "fault_start,{},,{:.3},", fault, at.as_micros())
                }
                TraceRecord::FaultEnd { fault, at } => {
                    writeln!(out, "fault_end,{},,{:.3},", fault, at.as_micros())
                }
                TraceRecord::Reroute { id, at } => {
                    writeln!(out, "reroute,{},,{:.3},", id.0, at.as_micros())
                }
                TraceRecord::Failover { id, port, at } => {
                    writeln!(out, "failover,{},{},{:.3},", id.0, port.0, at.as_micros())
                }
            };
        }
        out
    }

    /// Parses a trace CSV (the [`SimTrace::to_csv`] format) back into a
    /// trace — the inverse of the export, used by the HTML viewer
    /// ([`trace_html`](crate::trace_html)) so saved trace files render
    /// through the same scene builder as live runs.
    ///
    /// The returned trace is unbounded enough to hold every parsed
    /// record (`capacity == max(len, 1)`, `dropped == 0`): the file is
    /// the whole history as far as the parser can know. Timestamps keep
    /// the export's microsecond precision, so `to_csv` of the result
    /// reproduces the input byte-for-byte when the input came from
    /// `to_csv`. Fails with a line-numbered message on an unknown record
    /// kind or a malformed field; the header line is required.
    pub fn from_csv(csv: &str) -> Result<SimTrace, String> {
        use ccube_collectives::TransferId;
        let mut lines = csv.lines();
        match lines.next() {
            Some(h) if h.starts_with("kind,") => {}
            _ => return Err("missing trace-CSV header (`kind,id,...`)".to_string()),
        }
        let mut records = Vec::new();
        for (n, line) in lines.enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let err = |what: &str| format!("line {}: {what}: {line:?}", n + 2);
            let cols: Vec<&str> = line.split(',').collect();
            if cols.len() != 5 {
                return Err(err("expected 5 columns"));
            }
            let id = |c: &str| c.parse::<u32>().map_err(|_| err("bad id"));
            let at = |c: &str| {
                c.parse::<f64>()
                    .map(Seconds::from_micros)
                    .map_err(|_| err("bad timestamp"))
            };
            records.push(match cols[0] {
                "transfer_start" => TraceRecord::TransferStart {
                    id: TransferId(id(cols[1])?),
                    at: at(cols[3])?,
                },
                "transfer_end" => TraceRecord::TransferEnd {
                    id: TransferId(id(cols[1])?),
                    at: at(cols[3])?,
                },
                "channel_grant" => TraceRecord::ChannelGrant {
                    id: TransferId(id(cols[1])?),
                    channel: ChannelId(id(cols[2])?),
                    at: at(cols[3])?,
                },
                "queue_wait" => {
                    let granted = at(cols[3])?;
                    TraceRecord::QueueWait {
                        id: TransferId(id(cols[1])?),
                        enqueued: granted - at(cols[4])?,
                        granted,
                    }
                }
                "compute_start" => TraceRecord::ComputeStart {
                    id: id(cols[1])?,
                    gpu: GpuId(id(cols[2])?),
                    at: at(cols[3])?,
                },
                "compute_end" => TraceRecord::ComputeEnd {
                    id: id(cols[1])?,
                    gpu: GpuId(id(cols[2])?),
                    at: at(cols[3])?,
                },
                "detour_hop" => TraceRecord::DetourHop {
                    id: TransferId(id(cols[1])?),
                    via: GpuId(id(cols[2])?),
                    at: at(cols[3])?,
                },
                "fault_start" => TraceRecord::FaultStart {
                    fault: id(cols[1])?,
                    at: at(cols[3])?,
                },
                "fault_end" => TraceRecord::FaultEnd {
                    fault: id(cols[1])?,
                    at: at(cols[3])?,
                },
                "reroute" => TraceRecord::Reroute {
                    id: TransferId(id(cols[1])?),
                    at: at(cols[3])?,
                },
                "failover" => TraceRecord::Failover {
                    id: TransferId(id(cols[1])?),
                    port: ChannelId(id(cols[2])?),
                    at: at(cols[3])?,
                },
                other => return Err(err(&format!("unknown record kind {other:?}"))),
            });
        }
        let mut trace = SimTrace::bounded(records.len().max(1));
        for r in records {
            trace.push(r);
        }
        Ok(trace)
    }

    /// Exports the retained records as Chrome `trace_event` JSON for
    /// `chrome://tracing` / [Perfetto](https://ui.perfetto.dev).
    ///
    /// Three synthetic processes keep the lanes readable: pid 0
    /// ("channels") holds one thread per channel with a complete (`"X"`)
    /// slice per occupancy (channel grant → transfer end), pid 1
    /// ("compute") one thread per GPU, and pid 2 ("faults") one thread
    /// per fault-plan event — so downtime and degradation intervals
    /// render as slices directly above the traffic they perturb.
    /// Queue waits, detour hops, and re-routes become instant (`"i"`)
    /// events. A fault still active at the end of the trace (a
    /// permanent link-down) is closed at the last recorded timestamp.
    /// Timestamps are microseconds, as the format requires.
    ///
    /// When the trace carries grant slices, pid 3 ("utilization") adds
    /// a Perfetto counter track (`"C"` events): the mean lane
    /// utilization over time, binned by [`utilization_bins`], so the
    /// step plot reads directly against the slices that produce it.
    ///
    /// Every lane also gets a `thread_name` metadata row (channels as
    /// `ch <n>`), so Perfetto shows names instead of bare tids. Traces
    /// recorded on the switch fabric grant *ports*, not channels — use
    /// [`to_chrome_json_labeled`](Self::to_chrome_json_labeled) to
    /// label the lanes accordingly.
    pub fn to_chrome_json(&self) -> String {
        self.to_chrome_json_labeled("ch")
    }

    /// [`to_chrome_json`](Self::to_chrome_json) with the pid-0 lanes
    /// labeled `<lane> <n>` — pass `"port"` for traces recorded on the
    /// switch fabric, whose grant records carry port indices.
    pub fn to_chrome_json_labeled(&self, lane: &str) -> String {
        use std::collections::BTreeMap;
        use std::collections::BTreeSet;
        let mut events: Vec<String> = Vec::with_capacity(self.records.len() + 4);
        for (pid, name) in [(0, "channels"), (1, "compute"), (2, "faults")] {
            events.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            ));
        }
        // One thread_name metadata row per lane actually used, so
        // Perfetto labels channels/ports, GPUs and faults readably.
        let mut lanes: BTreeSet<(u32, u32, String)> = BTreeSet::new();
        for r in &self.records {
            match *r {
                TraceRecord::ChannelGrant { channel, .. } => {
                    lanes.insert((0, channel.0, format!("{lane} {}", channel.0)));
                }
                TraceRecord::QueueWait { .. }
                | TraceRecord::Reroute { .. }
                | TraceRecord::Failover { .. } => {
                    lanes.insert((0, 0, format!("{lane} 0")));
                }
                TraceRecord::ComputeStart { gpu, .. } | TraceRecord::ComputeEnd { gpu, .. } => {
                    lanes.insert((1, gpu.0, format!("gpu {}", gpu.0)));
                }
                TraceRecord::DetourHop { via, .. } => {
                    lanes.insert((1, via.0, format!("gpu {}", via.0)));
                }
                TraceRecord::FaultStart { fault, .. } | TraceRecord::FaultEnd { fault, .. } => {
                    lanes.insert((2, fault, format!("fault {fault}")));
                }
                TraceRecord::TransferStart { .. } | TraceRecord::TransferEnd { .. } => {}
            }
        }
        for (pid, tid, name) in lanes {
            events.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            ));
        }
        let horizon = self
            .records
            .iter()
            .map(|r| r.at())
            .fold(Seconds::ZERO, Seconds::max);
        // Open slices awaiting their end record. BTreeMaps keep the
        // leftover-fault close-out below deterministic.
        let mut open_grants: BTreeMap<u32, Vec<(u32, Seconds)>> = BTreeMap::new();
        let mut open_compute: BTreeMap<u32, (u32, Seconds)> = BTreeMap::new();
        let mut open_faults: BTreeMap<u32, Seconds> = BTreeMap::new();
        // Completed occupancy spans per lane, feeding the pid-3
        // utilization counter track below (BTreeMap: the bin averages
        // sum lanes in a fixed order).
        let mut channel_busy: BTreeMap<u32, Vec<BusyInterval>> = BTreeMap::new();
        let slice = |name: &str, pid: u32, tid: u32, start: Seconds, end: Seconds| {
            format!(
                "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\
                 \"ts\":{:.3},\"dur\":{:.3}}}",
                start.as_micros(),
                (end - start).as_micros()
            )
        };
        let instant = |name: &str, pid: u32, tid: u32, at: Seconds| {
            format!(
                "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{tid},\
                 \"ts\":{:.3}}}",
                at.as_micros()
            )
        };
        for r in &self.records {
            match *r {
                TraceRecord::TransferStart { .. } => {}
                TraceRecord::ChannelGrant { channel, id, at } => {
                    open_grants.entry(id.0).or_default().push((channel.0, at));
                }
                TraceRecord::TransferEnd { id, at } => {
                    for (ch, start) in open_grants.remove(&id.0).unwrap_or_default() {
                        events.push(slice(&format!("t{}", id.0), 0, ch, start, at));
                        channel_busy
                            .entry(ch)
                            .or_default()
                            .push(BusyInterval { start, end: at });
                    }
                }
                TraceRecord::QueueWait { id, granted, .. } => {
                    events.push(instant(&format!("wait t{}", id.0), 0, 0, granted));
                }
                TraceRecord::ComputeStart { id, gpu, at } => {
                    open_compute.insert(id, (gpu.0, at));
                }
                TraceRecord::ComputeEnd { id, at, .. } => {
                    if let Some((gpu, start)) = open_compute.remove(&id) {
                        events.push(slice(&format!("c{id}"), 1, gpu, start, at));
                    }
                }
                TraceRecord::DetourHop { id, via, at } => {
                    events.push(instant(&format!("detour t{}", id.0), 1, via.0, at));
                }
                TraceRecord::FaultStart { fault, at } => {
                    open_faults.insert(fault, at);
                }
                TraceRecord::FaultEnd { fault, at } => {
                    if let Some(start) = open_faults.remove(&fault) {
                        events.push(slice(&format!("fault{fault}"), 2, fault, start, at));
                    }
                }
                TraceRecord::Reroute { id, at } => {
                    events.push(instant(&format!("reroute t{}", id.0), 0, 0, at));
                }
                TraceRecord::Failover { id, at, .. } => {
                    events.push(instant(&format!("failover t{}", id.0), 0, 0, at));
                }
            }
        }
        for (fault, start) in open_faults {
            events.push(slice(&format!("fault{fault}"), 2, fault, start, horizon));
        }
        // Counter track: mean utilization across the pid-0 lanes, one
        // "C" sample per bin edge plus a closing zero at the horizon so
        // the step plot ends where the trace does.
        if !channel_busy.is_empty() && !horizon.is_zero() {
            const NBINS: usize = 64;
            events.push(
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":3,\"tid\":0,\
                 \"args\":{\"name\":\"utilization\"}}"
                    .to_string(),
            );
            let mut mean = vec![0.0f64; NBINS];
            for intervals in channel_busy.values() {
                for (m, u) in mean
                    .iter_mut()
                    .zip(utilization_bins(intervals, horizon, NBINS))
                {
                    *m += u;
                }
            }
            let lanes = channel_busy.len() as f64;
            let bin_width = horizon.as_secs_f64() / NBINS as f64;
            for (b, m) in mean.iter().enumerate() {
                let ts = Seconds::new(bin_width * b as f64);
                events.push(format!(
                    "{{\"name\":\"{lane} busy\",\"ph\":\"C\",\"pid\":3,\"tid\":0,\
                     \"ts\":{:.3},\"args\":{{\"busy\":{:.6}}}}}",
                    ts.as_micros(),
                    m / lanes
                ));
            }
            events.push(format!(
                "{{\"name\":\"{lane} busy\",\"ph\":\"C\",\"pid\":3,\"tid\":0,\
                 \"ts\":{:.3},\"args\":{{\"busy\":0.000000}}}}",
                horizon.as_micros()
            ));
        }
        let mut out = String::from("{\"traceEvents\":[");
        out.push_str(&events.join(","));
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

/// Bins `intervals` over `[0, horizon)` and returns per-bin utilization
/// in `0.0..=1.0`. Used by the reports' utilization-over-time exports.
pub fn utilization_bins(intervals: &[BusyInterval], horizon: Seconds, bins: usize) -> Vec<f64> {
    assert!(bins > 0, "need at least one bin");
    if horizon.is_zero() {
        return vec![0.0; bins];
    }
    let bin_width = Seconds::new(horizon.as_secs_f64() / bins as f64);
    let mut out = vec![0.0; bins];
    for (b, slot) in out.iter_mut().enumerate() {
        let lo = Seconds::new(bin_width.as_secs_f64() * b as f64);
        let hi = if b + 1 == bins {
            horizon
        } else {
            Seconds::new(bin_width.as_secs_f64() * (b + 1) as f64)
        };
        let width = hi - lo;
        if width.is_zero() {
            continue;
        }
        let busy: f64 = intervals
            .iter()
            .map(|iv| iv.overlap(lo, hi).as_secs_f64())
            .sum();
        *slot = (busy / width.as_secs_f64()).min(1.0);
    }
    out
}

/// The structural difference between two trace CSVs (the
/// [`SimTrace::to_csv`] format), as computed by [`diff_csv`]. Built for
/// answering "where did these two runs diverge?" — e.g. a channel-approx
/// run against a switch-fabric run, or two fault replays.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceDiff {
    /// First data line (1-based, header excluded) where the two traces
    /// differ, with both lines (`None` marks one trace ending early).
    pub first_divergence: Option<(usize, Option<String>, Option<String>)>,
    /// Per-record-kind counts `(left, right)`, for every kind present in
    /// either trace.
    pub kind_counts: std::collections::BTreeMap<String, (usize, usize)>,
    /// Number of data lines in the left / right trace.
    pub lines: (usize, usize),
    /// Per-transfer busy drift: summed `|duration_left − duration_right|`
    /// over transfers present in both traces (start→end intervals).
    pub busy_drift: Seconds,
    /// Largest single-transfer busy drift.
    pub max_busy_drift: Seconds,
    /// Difference between the last record timestamps (right − left).
    pub horizon_delta: Seconds,
}

impl TraceDiff {
    /// True if the traces are line-for-line identical.
    pub fn is_identical(&self) -> bool {
        self.first_divergence.is_none() && self.lines.0 == self.lines.1
    }

    /// Timestamp (µs) of the first divergent record, if any: the
    /// earliest timestamp parseable from either divergent line. The HTML
    /// diff viewer anchors its divergence marker here.
    pub fn divergence_time_us(&self) -> Option<f64> {
        let (_, a, b) = self.first_divergence.as_ref()?;
        let t = |side: &Option<String>| {
            side.as_deref()
                .and_then(parse_line)
                .and_then(|(_, _, at)| at)
        };
        match (t(a), t(b)) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (x, y) => x.or(y),
        }
    }

    /// Renders the diff as a byte-stable JSON object — the structured
    /// counterpart of the [`Display`](fmt::Display) rendering, embedded
    /// verbatim in the HTML diff viewer's payload
    /// ([`trace_html`](crate::trace_html), schema in DESIGN.md §15).
    ///
    /// Keys, in order: `identical`, `lines` (`[left, right]`),
    /// `first_divergence` (`null`, or `{record, left, right}` with
    /// `null` marking a trace that ended early), `divergence_t_us`
    /// (`null` when no timestamp is parseable), `kinds` (per-kind
    /// `[left, right]` counts, every kind present in either trace, name
    /// order), `busy_drift_us`, `max_busy_drift_us`, `horizon_delta_us`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"identical\":{},\"lines\":[{},{}],",
            self.is_identical(),
            self.lines.0,
            self.lines.1
        );
        match &self.first_divergence {
            Some((record, a, b)) => {
                let side = |s: &Option<String>| match s {
                    Some(line) => format!("\"{}\"", json_escape(line)),
                    None => "null".to_string(),
                };
                let _ = write!(
                    out,
                    "\"first_divergence\":{{\"record\":{record},\"left\":{},\"right\":{}}},",
                    side(a),
                    side(b)
                );
            }
            None => out.push_str("\"first_divergence\":null,"),
        }
        match self.divergence_time_us() {
            Some(t) => {
                let _ = write!(out, "\"divergence_t_us\":{t:.3},");
            }
            None => out.push_str("\"divergence_t_us\":null,"),
        }
        out.push_str("\"kinds\":{");
        for (i, (kind, (l, r))) in self.kind_counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":[{l},{r}]", json_escape(kind));
        }
        let _ = write!(
            out,
            "}},\"busy_drift_us\":{:.3},\"max_busy_drift_us\":{:.3},\"horizon_delta_us\":{:.3}}}",
            self.busy_drift.as_micros(),
            self.max_busy_drift.as_micros(),
            self.horizon_delta.as_micros()
        );
        out
    }
}

/// Escapes a string for embedding in a JSON literal. `<` is escaped too
/// so payloads can sit inside a `<script>` tag without ever forming a
/// closing-tag sequence.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '<' => out.push_str("\\u003c"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl fmt::Display for TraceDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_identical() {
            return writeln!(f, "traces identical ({} records)", self.lines.0);
        }
        match &self.first_divergence {
            Some((line, a, b)) => {
                writeln!(f, "first divergence at record {line}:")?;
                writeln!(f, "  left:  {}", a.as_deref().unwrap_or("<end of trace>"))?;
                writeln!(f, "  right: {}", b.as_deref().unwrap_or("<end of trace>"))?;
            }
            None => writeln!(
                f,
                "no divergent record, but lengths differ: {} vs {}",
                self.lines.0, self.lines.1
            )?,
        }
        writeln!(f, "records: {} vs {}", self.lines.0, self.lines.1)?;
        for (kind, (l, r)) in &self.kind_counts {
            if l != r {
                writeln!(f, "  {kind}: {l} vs {r} ({:+})", *r as i64 - *l as i64)?;
            }
        }
        writeln!(
            f,
            "busy drift: {} total, {} max per transfer",
            self.busy_drift, self.max_busy_drift
        )?;
        write!(f, "horizon delta: {}", self.horizon_delta)
    }
}

/// Record kind, transfer id, and timestamp of one CSV data line.
fn parse_line(line: &str) -> Option<(&str, Option<u64>, Option<f64>)> {
    let mut cols = line.split(',');
    let kind = cols.next()?;
    let id = cols.next().and_then(|c| c.parse().ok());
    let at = cols.nth(1).and_then(|c| c.parse().ok());
    Some((kind, id, at))
}

/// Compares two trace CSVs (as produced by [`SimTrace::to_csv`]):
/// first divergent record, per-kind record-count deltas, per-transfer
/// busy drift (transfer start→end), and horizon shift. Tolerant of
/// unknown kinds — anything with the `kind,id,_,t_us,…` shape counts.
pub fn diff_csv(left: &str, right: &str) -> TraceDiff {
    let data = |s: &str| -> Vec<String> {
        s.lines()
            .skip(1)
            .filter(|l| !l.trim().is_empty())
            .map(str::to_string)
            .collect()
    };
    let (l, r) = (data(left), data(right));
    let mut diff = TraceDiff {
        lines: (l.len(), r.len()),
        ..TraceDiff::default()
    };
    for i in 0..l.len().max(r.len()) {
        let (a, b) = (l.get(i), r.get(i));
        if a != b {
            diff.first_divergence = Some((i + 1, a.cloned(), b.cloned()));
            break;
        }
    }
    let mut spans: [std::collections::BTreeMap<u64, (f64, f64)>; 2] = Default::default();
    let mut horizon = [0.0f64; 2];
    for (side, trace) in [&l, &r].into_iter().enumerate() {
        for line in trace {
            let Some((kind, id, at)) = parse_line(line) else {
                continue;
            };
            let (a, b) = diff.kind_counts.entry(kind.to_string()).or_default();
            *if side == 0 { a } else { b } += 1;
            let Some(at) = at else { continue };
            horizon[side] = horizon[side].max(at);
            if let Some(id) = id {
                match kind {
                    "transfer_start" => {
                        spans[side].entry(id).or_insert((0.0, 0.0)).0 = at;
                    }
                    "transfer_end" => {
                        spans[side].entry(id).or_insert((0.0, 0.0)).1 = at;
                    }
                    _ => {}
                }
            }
        }
    }
    let (left_spans, right_spans) = (std::mem::take(&mut spans[0]), std::mem::take(&mut spans[1]));
    for (id, (s0, e0)) in &left_spans {
        if let Some((s1, e1)) = right_spans.get(id) {
            let d = ((e1 - s1) - (e0 - s0)).abs();
            diff.busy_drift += Seconds::from_micros(d);
            diff.max_busy_drift = diff.max_busy_drift.max(Seconds::from_micros(d));
        }
    }
    diff.horizon_delta = Seconds::from_micros(horizon[1] - horizon[0]);
    diff
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(a: f64, b: f64) -> BusyInterval {
        BusyInterval {
            start: Seconds::from_micros(a),
            end: Seconds::from_micros(b),
        }
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let mut t = SimTrace::bounded(3);
        for i in 0..5u32 {
            t.push(TraceRecord::ComputeStart {
                id: i,
                gpu: GpuId(0),
                at: Seconds::from_micros(i as f64),
            });
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let first = t.records().next().unwrap();
        assert_eq!(first.at(), Seconds::from_micros(2.0));
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = SimTrace::disabled();
        assert!(!t.is_enabled());
        for i in 0..10u32 {
            t.push(TraceRecord::ComputeStart {
                id: i,
                gpu: GpuId(0),
                at: Seconds::from_micros(i as f64),
            });
        }
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
        assert_eq!(t.capacity(), 0);
        assert!(SimTrace::default().is_enabled());
    }

    #[test]
    fn utilization_bins_integrate_intervals() {
        // Busy for the first half of a 10µs horizon.
        let bins = utilization_bins(&[iv(0.0, 5.0)], Seconds::from_micros(10.0), 10);
        assert_eq!(bins.len(), 10);
        for b in &bins[0..5] {
            assert!((b - 1.0).abs() < 1e-9);
        }
        for b in &bins[5..] {
            assert!(b.abs() < 1e-9);
        }
        // Two disjoint intervals in one bin accumulate.
        let one = utilization_bins(&[iv(0.0, 2.0), iv(4.0, 6.0)], Seconds::from_micros(10.0), 1);
        assert!((one[0] - 0.4).abs() < 1e-9);
    }

    #[test]
    fn csv_has_one_line_per_record_plus_header() {
        let mut t = SimTrace::default();
        t.push(TraceRecord::QueueWait {
            id: ccube_collectives::TransferId(3),
            enqueued: Seconds::ZERO,
            granted: Seconds::from_micros(2.0),
        });
        t.push(TraceRecord::DetourHop {
            id: ccube_collectives::TransferId(3),
            via: GpuId(5),
            at: Seconds::from_micros(4.0),
        });
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.contains("queue_wait,3,,2.000,2.000"));
        assert!(csv.contains("detour_hop,3,5,4.000,"));
    }

    #[test]
    fn csv_covers_fault_records() {
        let mut t = SimTrace::default();
        t.push(TraceRecord::FaultStart {
            fault: 1,
            at: Seconds::from_micros(2.0),
        });
        t.push(TraceRecord::Reroute {
            id: ccube_collectives::TransferId(7),
            at: Seconds::from_micros(2.0),
        });
        t.push(TraceRecord::FaultEnd {
            fault: 1,
            at: Seconds::from_micros(9.0),
        });
        let csv = t.to_csv();
        assert!(csv.contains("fault_start,1,,2.000,"));
        assert!(csv.contains("reroute,7,,2.000,"));
        assert!(csv.contains("fault_end,1,,9.000,"));
    }

    #[test]
    fn chrome_json_pairs_slices_and_closes_permanent_faults() {
        use ccube_collectives::TransferId;
        let mut t = SimTrace::default();
        t.push(TraceRecord::FaultStart {
            fault: 0,
            at: Seconds::from_micros(1.0),
        });
        t.push(TraceRecord::ChannelGrant {
            channel: ChannelId(4),
            id: TransferId(2),
            at: Seconds::from_micros(2.0),
        });
        t.push(TraceRecord::ComputeStart {
            id: 9,
            gpu: GpuId(3),
            at: Seconds::from_micros(2.0),
        });
        t.push(TraceRecord::TransferEnd {
            id: TransferId(2),
            at: Seconds::from_micros(5.0),
        });
        t.push(TraceRecord::ComputeEnd {
            id: 9,
            gpu: GpuId(3),
            at: Seconds::from_micros(6.0),
        });
        let json = t.to_chrome_json();
        // channel occupancy: grant at 2µs, end at 5µs → dur 3µs on tid 4
        assert!(json.contains(
            "{\"name\":\"t2\",\"ph\":\"X\",\"pid\":0,\"tid\":4,\"ts\":2.000,\"dur\":3.000}"
        ));
        // compute slice on pid 1, tid = gpu 3
        assert!(json.contains(
            "{\"name\":\"c9\",\"ph\":\"X\",\"pid\":1,\"tid\":3,\"ts\":2.000,\"dur\":4.000}"
        ));
        // the never-ended fault closes at the last timestamp (6µs)
        assert!(json.contains(
            "{\"name\":\"fault0\",\"ph\":\"X\",\"pid\":2,\"tid\":0,\"ts\":1.000,\"dur\":5.000}"
        ));
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}"));
        assert!(json.contains("\"process_name\""));
    }

    #[test]
    fn chrome_json_emits_utilization_counter_track() {
        use ccube_collectives::TransferId;
        let mut t = SimTrace::default();
        t.push(TraceRecord::ChannelGrant {
            channel: ChannelId(0),
            id: TransferId(0),
            at: Seconds::from_micros(2.0),
        });
        t.push(TraceRecord::TransferEnd {
            id: TransferId(0),
            at: Seconds::from_micros(5.0),
        });
        t.push(TraceRecord::ComputeEnd {
            id: 1,
            gpu: GpuId(0),
            at: Seconds::from_micros(8.0),
        });
        let json = t.to_chrome_json();
        // pid 3 hosts the counter track, named after the lane label.
        assert!(json.contains(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":3,\"tid\":0,\
             \"args\":{\"name\":\"utilization\"}}"
        ));
        // 64 bins over an 8µs horizon: bin width 0.125µs. The lane is
        // idle at t=0, fully busy inside [2µs, 5µs), and the track
        // closes with a zero sample at the horizon.
        assert!(json.contains(
            "{\"name\":\"ch busy\",\"ph\":\"C\",\"pid\":3,\"tid\":0,\
             \"ts\":0.000,\"args\":{\"busy\":0.000000}}"
        ));
        assert!(json.contains(
            "{\"name\":\"ch busy\",\"ph\":\"C\",\"pid\":3,\"tid\":0,\
             \"ts\":2.000,\"args\":{\"busy\":1.000000}}"
        ));
        assert!(json.contains(
            "{\"name\":\"ch busy\",\"ph\":\"C\",\"pid\":3,\"tid\":0,\
             \"ts\":8.000,\"args\":{\"busy\":0.000000}}"
        ));
        // A trace with no grants gets no counter process.
        let mut empty = SimTrace::default();
        empty.push(TraceRecord::ComputeEnd {
            id: 0,
            gpu: GpuId(0),
            at: Seconds::from_micros(1.0),
        });
        assert!(!empty.to_chrome_json().contains("\"ph\":\"C\""));
    }
}
