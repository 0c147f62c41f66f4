//! Logical collective-communication algorithms for C-Cube.
//!
//! This crate implements the *logical topology* side of the paper
//! "Logical/Physical Topology-Aware Collective Communication in Deep
//! Learning Training" (HPCA 2023): the AllReduce algorithms themselves,
//! independent of any particular machine.
//!
//! The algorithms are expressed as a [`Schedule`] — a dependency DAG of
//! point-to-point [`Transfer`]s — that downstream crates consume:
//! `ccube-sim` replays a schedule over a physical topology with channel
//! contention, and `ccube-runtime` executes it with real buffers and
//! threads.
//!
//! Implemented algorithms (one builder each):
//!
//! * [`ring_allreduce`] — the classic bandwidth-optimal ring
//!   (Reduce-Scatter + AllGather), the paper's `R` baseline.
//! * [`tree_allreduce`] with `overlap = `[`Overlap::None`] — the pipelined
//!   tree algorithm (reduction up, then broadcast down), the paper's `B`
//!   when run on a [`DoubleBinaryTree`].
//! * [`tree_allreduce`] with `overlap = `[`Overlap::ReductionBroadcast`] —
//!   the paper's **overlapped tree** (`C1`): the broadcast of each chunk
//!   starts as soon as that chunk is fully reduced at the root, cutting
//!   the effective pipeline depth from `2(log P + K)` to `2 log P + K`.
//!
//! The [`cost`] module contains the closed-form α+β models of the paper's
//! §II-C (Eq. 1–7), used for Fig. 4 and the model-vs-measurement
//! comparison of Fig. 12(b). The [`verify`] module proves schedules
//! correct symbolically and replays them in unit-time steps (reproducing
//! the 10-step vs 7-step contrast of the paper's Fig. 5). The
//! [`embedding`] module maps logical edges onto physical channels of a
//! `ccube-topology` machine, allocating the DGX-1's doubled NVLinks and
//! detour routes exactly as §IV describes.
//!
//! # Examples
//!
//! ```
//! use ccube_collectives::{
//!     tree_allreduce, Chunking, DoubleBinaryTree, Overlap, verify,
//! };
//! use ccube_topology::ByteSize;
//!
//! let trees = DoubleBinaryTree::new(8).expect("8 ranks is valid");
//! let chunking = Chunking::even(ByteSize::mib(64), 16);
//! let schedule = tree_allreduce(trees.trees(), &chunking, Overlap::ReductionBroadcast);
//! // Every rank ends with the full reduction, delivered in order per tree.
//! verify::check_allreduce(&schedule).expect("schedule is a correct AllReduce");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
mod chunk;
pub mod cost;
pub mod embedding;
pub mod lowering;
pub mod physical;
pub mod primitives;
mod rank;
mod ring;
mod schedule;
mod tree;
mod tree_schedule;
pub mod verify;

pub use analyze::{AnalyzeOptions, Diagnostic, LintCode, LintReport, Severity, Span};
pub use chunk::{ChunkId, Chunking};
pub use embedding::{EdgeKey, Embedding, EmbeddingError};
pub use lowering::{
    hop_time, lower_schedule, lower_to_ports, port_transit_time, LinkTiming, LowerError,
    PreparedLowering, PreparedRoute, RouteDefect, TransferSpec, Wormhole,
};
pub use physical::{
    analyze_physical, fabric_lower_bound, makespan_lower_bound, PhysicalAnalyzeOptions,
};
pub use rank::Rank;
pub use ring::{ring_allreduce, ring_allreduce_multi};
pub use schedule::{
    DepSpan, Phase, Schedule, ScheduleBuilder, ScheduleStats, Transfer, TransferId, TreeIndex,
};
pub use tree::{BinaryTree, DoubleBinaryTree, TreeError};
pub use tree_schedule::{tree_allreduce, Overlap};

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::cost::CostParams;
    pub use crate::{
        ring_allreduce, ring_allreduce_multi, tree_allreduce, BinaryTree, ChunkId, Chunking,
        DoubleBinaryTree, Embedding, Overlap, Phase, Rank, Schedule, Transfer, TransferId,
        TreeIndex,
    };
}
