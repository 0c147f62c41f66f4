//! Discrete-event network simulator for C-Cube.
//!
//! This crate plays the role the real DGX-1 (and ASTRA-sim, for
//! scale-out) play in the paper "Logical/Physical Topology-Aware
//! Collective Communication in Deep Learning Training" (HPCA 2023): it
//! executes a logical [`Schedule`](ccube_collectives::Schedule) over a
//! physical [`Topology`](ccube_topology::Topology) through an
//! [`Embedding`](ccube_collectives::Embedding), with
//!
//! * **per-channel FIFO serialization** — each unidirectional channel
//!   carries one transfer at a time, in arrival order, so logical edges
//!   that share a physical channel (the conflict that breaks the naive
//!   overlapped double tree) contend exactly as on hardware;
//! * **wormhole timing** — a transfer occupies every channel on its route
//!   simultaneously for `Σα + bytes/bottleneck-bandwidth`;
//! * **detour accounting** — transfers routed through an intermediate GPU
//!   accumulate forwarding busy-time on that GPU, feeding the Fig. 15
//!   detour-overhead analysis;
//! * **dependency semantics identical to the unit-step verifier** — a
//!   transfer starts only after all of its schedule dependencies complete.
//!
//! The output [`SimReport`] exposes the quantities the paper measures:
//! AllReduce makespan (Fig. 12, 14a), per-chunk completion times at every
//! rank (the input to computation chaining), and the **gradient
//! turnaround time** (Fig. 14b).
//!
//! # Examples
//!
//! ```
//! use ccube_collectives::{ring_allreduce, Embedding};
//! use ccube_sim::{simulate, SimOptions};
//! use ccube_topology::{dgx1, ByteSize};
//!
//! let topo = dgx1();
//! let schedule = ring_allreduce(8, ByteSize::mib(64));
//! let emb = Embedding::identity(&topo, &schedule).unwrap();
//! let report = simulate(&topo, &schedule, &emb, &SimOptions::default()).unwrap();
//! assert!(report.makespan() > ccube_topology::Seconds::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod error;
pub mod fabric;
pub mod faults;
pub mod kernel;
mod report;
pub mod resource;
mod sched;
pub mod severance;
pub mod sweep;
pub mod system;
mod timeline;
pub mod trace;
pub mod trace_html;

pub use engine::{simulate, Arbitration, SimOptions};
pub use error::SimError;
pub use fabric::{FabricSpec, HopMode, NetworkModel, UplinkPolicy};
pub use faults::{
    forever, simulate_faulted, simulate_system_faulted, FaultEvent, FaultModel, FaultPlan,
};
pub use kernel::{Kernel, KernelStats, SimRng};
pub use report::{SimReport, SimStats, TransferTiming};
pub use resource::{ChannelPool, ComputeStream};
pub use severance::analyze_severance;
pub use sweep::{available_threads, sweep, sweep_seeded, threads_from_args};
pub use system::{simulate_system, ComputeTask, ComputeTaskId, SystemJob, SystemReport};
pub use timeline::{render_channel_timeline, render_timeline, TimelineOptions};
pub use trace::{diff_csv, utilization_bins, BusyInterval, SimTrace, TraceDiff, TraceRecord};
pub use trace_html::{diff_to_html, extract_payload, scene_json, to_html, LaneLabels};

/// Hit/miss counters of a preparation cache. The simulator keeps none —
/// every run lowers its schedule directly and frees the lowering when it
/// ends — so [`prep_cache_stats`] always reports zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrepCacheStats {
    /// Preparations served from a cache (always 0).
    pub hits: u64,
    /// Cold preparations counted by a cache (always 0).
    pub misses: u64,
}

/// Always [`PrepCacheStats::default`]: there is no preparation cache.
/// Kept so callers that report the counters keep building.
pub fn prep_cache_stats() -> PrepCacheStats {
    PrepCacheStats::default()
}

/// A no-op: there is no preparation cache to reset. Kept so callers
/// that reset it before a cold measurement keep building.
pub fn reset_prep_cache() {}

/// Convenient re-exports of the most commonly used items.
///
/// [`NetworkModel`] is deliberately absent: `ccube_dnn::prelude`
/// exports a type of the same name (the DNN being trained), and the
/// umbrella crate glob-imports both preludes. Name it explicitly as
/// `ccube_sim::NetworkModel`.
pub mod prelude {
    pub use crate::{
        simulate, Arbitration, FabricSpec, HopMode, SimError, SimOptions, SimReport, SimStats,
    };
}
