//! # C-Cube: Chaining Collective Communication with Computation
//!
//! A full reproduction of *"Logical/Physical Topology-Aware Collective
//! Communication in Deep Learning Training"* (Jo, Son & Kim, KAIST —
//! HPCA 2023) as a Rust workspace. This crate is the top of the stack:
//! it combines
//!
//! * [`topology`] — physical machines: the DGX-1 hybrid mesh-cube with
//!   its doubled NVLinks, detour routing, and a hierarchical scale-out
//!   fabric;
//! * [`collectives`] — the logical algorithms: ring, tree, double binary
//!   tree, and the paper's **overlapped tree** (C1), as dependency-DAG
//!   schedules with α+β cost models (Eq. 1–7) and a symbolic correctness
//!   verifier;
//! * [`sim`] — a discrete-event simulator replaying schedules over
//!   topologies with per-channel contention (the stand-in for the real
//!   DGX-1 and for ASTRA-sim);
//! * [`dnn`] — analytical ZFNet / VGG-16 / ResNet-50 profiles and the
//!   MLPerf workload suite;
//! * [`runtime`] — a threaded functional executor with the paper's
//!   device-side `lock`/`post`/`wait`/`check` synchronization (Fig. 11)
//!   and **gradient queuing** (Fig. 9), computing real `f32` AllReduces;
//!
//! and adds the training-iteration [`pipeline`] — the five execution
//! modes the paper evaluates (`B`, `C1`, `C2`, `CC`, `R`) — plus one
//! [`experiments`] driver per figure of the paper's evaluation.
//!
//! ## Quickstart
//!
//! ```
//! use ccube::pipeline::{Mode, TrainingPipeline};
//! use ccube::prelude::*;
//!
//! // ResNet-50 on an 8-GPU DGX-1-like system, batch 64 per GPU.
//! let pipeline = TrainingPipeline::dgx1(&ccube_dnn::resnet50(), 64);
//! let baseline = pipeline.iteration(Mode::Baseline);
//! let ccube = pipeline.iteration(Mode::CCube);
//! assert!(ccube.t_iter < baseline.t_iter);
//! println!(
//!     "C-Cube speeds up the iteration by {:.1}%",
//!     (baseline.t_iter / ccube.t_iter - 1.0) * 100.0
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod cli;
pub mod experiments;
pub mod lint;
pub mod pipeline;
pub mod systemjob;

/// Re-export of `ccube-topology`.
pub use ccube_topology as topology;

/// Re-export of `ccube-collectives`.
pub use ccube_collectives as collectives;

/// Re-export of `ccube-sim`.
pub use ccube_sim as sim;

/// Re-export of `ccube-dnn`.
pub use ccube_dnn as dnn;

/// Re-export of `ccube-runtime`.
pub use ccube_runtime as runtime;

/// Convenient re-exports of the most commonly used items across the
/// whole workspace.
pub mod prelude {
    pub use crate::arrivals::ChunkArrivals;
    pub use crate::pipeline::{IterationReport, Mode, TrainingPipeline};
    pub use ccube_collectives::prelude::*;
    pub use ccube_dnn::prelude::*;
    pub use ccube_runtime::prelude::*;
    pub use ccube_sim::prelude::*;
    pub use ccube_topology::prelude::*;
}
