//! Unidirectional communication channels.

use crate::graph::GpuId;
use crate::units::{Bandwidth, ByteSize, Seconds};
use std::fmt;

/// Identifier of a single unidirectional channel within a [`Topology`].
///
/// Channel ids are dense indices assigned in insertion order by the
/// [`TopologyBuilder`], which makes them usable as array indices in the
/// simulator.
///
/// [`Topology`]: crate::Topology
/// [`TopologyBuilder`]: crate::TopologyBuilder
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(pub u32);

impl ChannelId {
    /// The id as an array index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// The kind of physical medium a channel models.
///
/// The distinction matters for routing policy: the paper's detour routes
/// exist precisely to avoid [`ChannelClass::HostBridge`] (PCIe through the
/// CPU), which "can cause significant performance degradation" (§IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ChannelClass {
    /// A direct GPU-to-GPU link (NVLink in the DGX-1).
    NvLink,
    /// A NIC / switch port in a scale-out topology.
    Nic,
    /// The PCIe-through-host fallback path.
    HostBridge,
}

impl fmt::Display for ChannelClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelClass::NvLink => write!(f, "nvlink"),
            ChannelClass::Nic => write!(f, "nic"),
            ChannelClass::HostBridge => write!(f, "host-bridge"),
        }
    }
}

/// A single **unidirectional** communication channel.
///
/// A bidirectional physical link is represented by two `Channel`s, one per
/// direction. This is deliberate: the paper's Observation #2 is that the
/// tree algorithm leaves the "downlink" direction idle during reduction, and
/// the overlapped tree fills it. Keeping directions as separate schedulable
/// resources lets the simulator reproduce that effect without special cases.
#[derive(Debug, Clone, PartialEq)]
pub struct Channel {
    id: ChannelId,
    src: GpuId,
    dst: GpuId,
    bandwidth: Bandwidth,
    latency: Seconds,
    class: ChannelClass,
}

impl Channel {
    pub(crate) fn new(
        id: ChannelId,
        src: GpuId,
        dst: GpuId,
        bandwidth: Bandwidth,
        latency: Seconds,
        class: ChannelClass,
    ) -> Self {
        Channel {
            id,
            src,
            dst,
            bandwidth,
            latency,
            class,
        }
    }

    /// The channel's id within its topology.
    pub fn id(&self) -> ChannelId {
        self.id
    }

    /// The transmitting endpoint.
    pub fn src(&self) -> GpuId {
        self.src
    }

    /// The receiving endpoint.
    pub fn dst(&self) -> GpuId {
        self.dst
    }

    /// The channel's peak bandwidth.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bandwidth
    }

    /// The channel's fixed per-message latency (the α of α+βn).
    pub fn latency(&self) -> Seconds {
        self.latency
    }

    /// The physical medium class.
    pub fn class(&self) -> ChannelClass {
        self.class
    }

    /// Total occupancy time for a message of `bytes`: `α + β·n`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ccube_topology::{dgx1, ByteSize, GpuId};
    /// let topo = dgx1();
    /// let ch = &topo.channels()[0];
    /// let t = ch.occupancy(ByteSize::mib(1));
    /// assert!(t > ch.latency());
    /// ```
    pub fn occupancy(&self, bytes: ByteSize) -> Seconds {
        self.latency + self.bandwidth.transfer_time(bytes)
    }
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}->{} [{}] {}",
            self.id, self.src, self.dst, self.class, self.bandwidth
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_is_alpha_plus_beta_n() {
        let ch = Channel::new(
            ChannelId(0),
            GpuId(0),
            GpuId(1),
            Bandwidth::gb_per_sec(25.0),
            Seconds::from_micros(1.5),
            ChannelClass::NvLink,
        );
        let t = ch.occupancy(ByteSize::new(25_000)); // 1 us of serialization
        assert!((t.as_micros() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn display_formats_are_informative() {
        let ch = Channel::new(
            ChannelId(3),
            GpuId(2),
            GpuId(3),
            Bandwidth::gb_per_sec(25.0),
            Seconds::from_micros(1.5),
            ChannelClass::NvLink,
        );
        let s = format!("{ch}");
        assert!(s.contains("ch3"));
        assert!(s.contains("gpu2"));
        assert!(s.contains("nvlink"));
    }
}
