//! Simulation results.

use crate::trace::{utilization_bins, BusyInterval, SimTrace};
use ccube_collectives::{ChunkId, Schedule};
use ccube_topology::{ChannelId, GpuId, Seconds};
use std::collections::BTreeMap;

/// Timing of a single simulated transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferTiming {
    /// When the transfer acquired its channels.
    pub start: Seconds,
    /// When it completed and released them.
    pub complete: Seconds,
}

/// Counters an engine collects while running — the quantitative side of
/// the observability story (the qualitative side is the [`SimTrace`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimStats {
    /// Events pushed into the kernel's queue.
    pub events_scheduled: u64,
    /// Events popped and processed.
    pub events_processed: u64,
    /// High-water mark of the kernel's future-event queue.
    pub max_event_queue_depth: usize,
    /// High-water mark across the per-channel waiter queues.
    pub max_channel_queue_depth: usize,
    /// Total queue wait charged to each channel, indexed by channel id:
    /// every started transfer that had to wait contributes its full wait
    /// to each channel of its path.
    pub queue_wait: Vec<Seconds>,
    /// Times the chunk-priority arbiter force-started a transfer to
    /// break a reservation stall.
    pub force_starts: u64,
    /// Fault-plan events that activated during the run (events whose
    /// start lies past the makespan never activate and are not counted).
    pub faults_injected: u64,
    /// Transfers moved onto a surviving route after a link-down severed
    /// their planned path.
    pub reroutes_taken: u64,
    /// Total simulated time during which at least one channel ran at
    /// degraded bandwidth, clipped to the run's makespan.
    pub time_degraded: Seconds,
    /// Downtime per channel (indexed by channel id), clipped to the
    /// run's makespan. Empty when no fault plan was injected.
    pub channel_downtime: Vec<Seconds>,
    /// Busy time of every fabric port (indexed by port id), including
    /// uplink ports that have no channel counterpart. Filled under both
    /// network models: under `ChannelApprox` (the passthrough fabric,
    /// one port per channel) it equals the channel busy times index for
    /// index.
    pub port_busy: Vec<Seconds>,
    /// Transfers steered onto a different uplink slot — by an adaptive
    /// uplink policy at grant time, or by the fault driver failing them
    /// away from a downed uplink. Zero without a spine level.
    pub failovers: u64,
    /// Busy time of every uplink port, in port-id order (the same order
    /// [`FabricGraph`](ccube_topology::FabricGraph) enumerates them:
    /// leaf-major, up before down within a slot). Empty on fabrics
    /// without a spine level, so always under `ChannelApprox`.
    pub uplink_busy: Vec<Seconds>,
}

impl SimStats {
    /// Sum of the per-channel queue waits.
    pub fn total_queue_wait(&self) -> Seconds {
        self.queue_wait
            .iter()
            .fold(Seconds::ZERO, |acc, &w| acc + w)
    }
}

/// The full result of one simulation run.
///
/// All per-chunk quantities use the schedule's global chunk ids.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    pub(crate) num_ranks: usize,
    pub(crate) timings: Vec<TransferTiming>,
    /// chunk_complete[chunk]: when the chunk is final at *every* rank.
    pub(crate) chunk_complete: Vec<Seconds>,
    pub(crate) makespan: Seconds,
    pub(crate) channel_busy: Vec<Seconds>,
    pub(crate) channel_intervals: Vec<Vec<BusyInterval>>,
    pub(crate) forwarding_busy: BTreeMap<GpuId, Seconds>,
    pub(crate) trace: SimTrace,
    pub(crate) stats: SimStats,
}

impl SimReport {
    /// Number of ranks in the simulated schedule.
    pub fn num_ranks(&self) -> usize {
        self.num_ranks
    }

    /// Number of chunks in the simulated schedule.
    pub fn num_chunks(&self) -> usize {
        self.chunk_complete.len()
    }

    /// Completion time of the entire collective.
    pub fn makespan(&self) -> Seconds {
        self.makespan
    }

    /// Per-transfer start/complete timings, indexed by transfer id.
    pub fn timings(&self) -> &[TransferTiming] {
        &self.timings
    }

    /// `done_at[rank][chunk]`: when each rank holds the final AllReduced
    /// value of each chunk (its last inbound transfer of that chunk
    /// completed; zero if it receives none). The table is P×k, so it is
    /// derived on demand from `schedule` — the one simulated — and the
    /// transfer timings rather than kept in every report.
    ///
    /// # Panics
    ///
    /// Panics if `schedule` has a different transfer count or more
    /// ranks or chunks than the simulated one.
    pub fn done_at(&self, schedule: &Schedule) -> Vec<Vec<Seconds>> {
        assert_eq!(
            schedule.transfers().len(),
            self.timings.len(),
            "done_at needs the simulated schedule"
        );
        let mut done_at = vec![vec![Seconds::ZERO; self.num_chunks()]; self.num_ranks];
        for (t, timing) in schedule.transfers().iter().zip(&self.timings) {
            let cell = &mut done_at[t.dst.index()][t.chunk.index()];
            *cell = (*cell).max(timing.complete);
        }
        done_at
    }

    /// When `chunk` became final at every rank.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is out of range.
    pub fn chunk_complete(&self, chunk: ChunkId) -> Seconds {
        self.chunk_complete[chunk.index()]
    }

    /// All chunk completion times in chunk order.
    pub fn chunk_completions(&self) -> &[Seconds] {
        &self.chunk_complete
    }

    /// The **gradient turnaround time**: when the first chunk has
    /// completed the whole collective and is ready for computation
    /// (paper §III-C, Fig. 7 and Fig. 14b).
    pub fn turnaround(&self) -> Seconds {
        self.chunk_complete
            .iter()
            .copied()
            .min()
            .unwrap_or(Seconds::ZERO)
    }

    /// Busy time of each channel, indexed by channel id.
    pub fn channel_busy(&self) -> &[Seconds] {
        &self.channel_busy
    }

    /// Busy intervals of each channel over the run, indexed by channel
    /// id, in completion order — the raw material for Gantt rendering
    /// and utilization-over-time analysis. Only traced runs log them: an
    /// untraced run ([`SimOptions::without_trace`](crate::SimOptions::without_trace))
    /// returns one empty vector per channel, while
    /// [`SimReport::channel_busy`] holds the same totals either way.
    pub fn channel_intervals(&self) -> &[Vec<BusyInterval>] {
        &self.channel_intervals
    }

    /// Utilization of `channel` over the simulated horizon (0.0–1.0).
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn channel_utilization(&self, channel: ChannelId) -> f64 {
        if self.makespan.is_zero() {
            return 0.0;
        }
        self.channel_busy[channel.index()] / self.makespan
    }

    /// Utilization of `channel` over time: the makespan divided into
    /// `bins` equal slices, each reporting the fraction of the slice the
    /// channel was busy (0.0–1.0). Built from
    /// [`SimReport::channel_intervals`], so every slice reads 0.0 for an
    /// untraced run.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range or `bins` is zero.
    pub fn channel_utilization_timeline(&self, channel: ChannelId, bins: usize) -> Vec<f64> {
        utilization_bins(
            &self.channel_intervals[channel.index()],
            self.makespan,
            bins,
        )
    }

    /// The structured trace recorded during the run.
    pub fn trace(&self) -> &SimTrace {
        &self.trace
    }

    /// The run's counters: events processed, queue depths, queue waits.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Forwarding busy time of each detour-intermediate GPU, by GPU id.
    pub fn forwarding_busy(&self) -> &BTreeMap<GpuId, Seconds> {
        &self.forwarding_busy
    }

    /// Effective AllReduce algorithm bandwidth: message bytes divided by
    /// makespan.
    pub fn algorithm_bandwidth(&self, message_bytes: u64) -> f64 {
        message_bytes as f64 / self.makespan.as_secs_f64()
    }

    /// True if chunk completion times are non-decreasing within each
    /// parity class of `num_trees` — the in-order delivery property.
    pub fn chunks_in_order(&self, num_trees: usize) -> bool {
        for parity in 0..num_trees {
            let mut prev = Seconds::ZERO;
            for (c, &t) in self.chunk_complete.iter().enumerate() {
                if c % num_trees == parity {
                    if t < prev {
                        return false;
                    }
                    prev = t;
                }
            }
        }
        true
    }
    /// Exports the full transfer trace as CSV
    /// (`transfer_id,phase,src,dst,chunk,bytes,start_us,complete_us`) for
    /// offline analysis or plotting.
    pub fn trace_csv(&self, schedule: &Schedule) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("transfer_id,phase,src,dst,chunk,bytes,start_us,complete_us\n");
        for t in schedule.transfers() {
            let timing = self.timings[t.id.index()];
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{:.3},{:.3}",
                t.id.0,
                t.phase,
                t.src.0,
                t.dst.0,
                t.chunk.0,
                t.bytes.as_u64(),
                timing.start.as_micros(),
                timing.complete.as_micros()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccube_collectives::{ring_allreduce, Embedding};
    use ccube_topology::{dgx1, ByteSize};

    #[test]
    fn channel_utilization_takes_channel_ids() {
        let topo = dgx1();
        let s = ring_allreduce(8, ByteSize::mib(8));
        let e = Embedding::identity(&topo, &s).unwrap();
        let report = crate::simulate(&topo, &s, &e, &crate::SimOptions::default()).unwrap();
        let num_channels = topo.channels().len();
        let mut any_busy = false;
        for c in 0..num_channels as u32 {
            let u = report.channel_utilization(ChannelId(c));
            assert!((0.0..=1.0).contains(&u));
            any_busy |= u > 0.0;
            // The timeline integrates to the same utilization.
            let bins = report.channel_utilization_timeline(ChannelId(c), 16);
            let mean = bins.iter().sum::<f64>() / bins.len() as f64;
            assert!((mean - u).abs() < 1e-9, "channel {c}: {mean} vs {u}");
        }
        assert!(any_busy);
    }
}
