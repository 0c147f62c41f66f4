//! Physical GPU interconnect topologies and static routing for C-Cube.
//!
//! This crate models the *physical* side of the paper "Logical/Physical
//! Topology-Aware Collective Communication in Deep Learning Training"
//! (HPCA 2023): the machine's actual inter-GPU channels, as opposed to the
//! *logical* topology (ring / tree) of the collective algorithm.
//!
//! The central type is [`Topology`], a directed multigraph of unidirectional
//! [`Channel`]s between [`GpuId`]s. Bidirectional links (e.g. NVLink) are
//! represented as two channels, one per direction — exactly the property the
//! paper's overlapped tree exploits (its Observation #2: the "downlink"
//! direction is idle during the reduction phase).
//!
//! Two concrete topologies are provided:
//!
//! * [`dgx1`] — the 8-GPU NVIDIA DGX-1 *hybrid mesh-cube* used for the
//!   paper's proof of concept, including its doubled NVLinks (GPU2–GPU3 and
//!   GPU6–GPU7 among others) that enable the overlapped double tree.
//! * [`hierarchical`] — an indirect, switch-based scale-out topology used
//!   for the paper's Fig. 14 scalability simulations.
//!
//! Routing ([`Router`]) provides *static* routes: direct NVLink where one
//! exists, otherwise a **detour route** through one intermediate GPU
//! (the paper's Section IV-A), and only as a last resort the slow
//! host/PCIe path the paper explicitly avoids.
//!
//! # Examples
//!
//! ```
//! use ccube_topology::{dgx1, GpuId, Router};
//!
//! let topo = dgx1();
//! assert_eq!(topo.num_gpus(), 8);
//! // GPU2 and GPU4 have no direct NVLink in the hybrid mesh-cube...
//! let nvlinks = topo
//!     .channels_between(GpuId(2), GpuId(4))
//!     .into_iter()
//!     .filter(|&c| topo.channel(c).class() == ccube_topology::ChannelClass::NvLink)
//!     .count();
//! assert_eq!(nvlinks, 0);
//! // ...so the router finds a detour through an intermediate GPU (GPU0).
//! let router = Router::new(&topo);
//! let route = router.route(GpuId(2), GpuId(4)).expect("route exists");
//! assert!(route.is_detour());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channel;
mod dgx1;
mod error;
mod fabric;
mod graph;
mod hierarchical;
mod rings;
mod routing;
mod torus;
mod units;

pub use channel::{Channel, ChannelClass, ChannelId};
pub use dgx1::{dgx1, dgx1_with, Dgx1Config, DGX1_NUM_GPUS};
pub use error::TopologyError;
pub use fabric::{
    FabricConfig, FabricGraph, FabricPort, FabricSwitch, PortId, PortKind, PortStep, SwitchId,
};
pub use graph::{GpuId, Topology, TopologyBuilder};
pub use hierarchical::{
    ejection_channel, hierarchical, hierarchical_with, injection_channel, nic_path, nvswitch,
    HierarchicalConfig,
};
pub use rings::disjoint_rings;
pub use routing::{Route, Router};
pub use torus::{torus2d, torus2d_with, TorusConfig};
pub use units::{Bandwidth, ByteSize, Seconds};

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::{
        dgx1, disjoint_rings, hierarchical, nvswitch, torus2d, Bandwidth, ByteSize, Channel,
        ChannelClass, ChannelId, FabricConfig, FabricGraph, GpuId, PortId, Route, Router, Seconds,
        SwitchId, Topology, TopologyBuilder,
    };
}
