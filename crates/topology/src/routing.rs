//! Static routing with detour routes.
//!
//! Reproduces the paper's §IV-A routing policy on the DGX-1:
//!
//! 1. **Direct** — use an NVLink channel if one exists.
//! 2. **Detour** — otherwise, statically forward through one intermediate
//!    GPU that has direct NVLinks to both endpoints ("non-minimal
//!    communication through an intermediate GPU without routing through the
//!    host"). The intermediate GPU runs a forwarding kernel, which costs it
//!    some compute (paper Fig. 15 measures 3–4%).
//! 3. **Host bridge** — only if no single-hop detour exists, fall back to
//!    the PCIe/CPU path the paper avoids.
//!
//! Routes are *static*: the detour intermediate is chosen once
//! (deterministically, lowest current load then lowest id) and reused for
//! the whole collective, mirroring the paper's dedicated forwarding CUDA
//! kernels rather than per-packet adaptive routing.

use crate::channel::{ChannelClass, ChannelId};
use crate::error::TopologyError;
use crate::graph::{GpuId, Topology};
use crate::units::{ByteSize, Seconds};

/// A resolved route between two GPUs: the ordered channels a message
/// occupies, plus the forwarding GPU if the route is a detour.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    src: GpuId,
    dst: GpuId,
    channels: Vec<ChannelId>,
    via: Option<GpuId>,
    class: ChannelClass,
}

impl Route {
    /// Builds a direct single-channel route.
    pub fn direct(src: GpuId, dst: GpuId, channel: ChannelId, class: ChannelClass) -> Self {
        Route {
            src,
            dst,
            channels: vec![channel],
            via: None,
            class,
        }
    }

    /// Builds a detour route through `via`.
    pub fn detour(src: GpuId, dst: GpuId, via: GpuId, channels: Vec<ChannelId>) -> Self {
        Route {
            src,
            dst,
            channels,
            via: Some(via),
            class: ChannelClass::NvLink,
        }
    }

    /// Builds an explicit multi-channel route (used by scale-out NIC paths).
    pub fn multi(src: GpuId, dst: GpuId, channels: Vec<ChannelId>, class: ChannelClass) -> Self {
        Route {
            src,
            dst,
            channels,
            via: None,
            class,
        }
    }

    /// Source endpoint.
    pub fn src(&self) -> GpuId {
        self.src
    }

    /// Destination endpoint.
    pub fn dst(&self) -> GpuId {
        self.dst
    }

    /// The channels the route occupies, in hop order.
    pub fn channels(&self) -> &[ChannelId] {
        &self.channels
    }

    /// The forwarding GPU, if this is a detour route.
    pub fn via(&self) -> Option<GpuId> {
        self.via
    }

    /// True if this route forwards through an intermediate GPU.
    pub fn is_detour(&self) -> bool {
        self.via.is_some()
    }

    /// The medium class of the route (host-bridge routes are the slow path).
    pub fn class(&self) -> ChannelClass {
        self.class
    }

    /// Wormhole-style end-to-end time for `bytes` on an otherwise idle
    /// route: sum of per-hop latencies plus serialization at the
    /// bottleneck bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if a channel id does not belong to `topo`.
    pub fn occupancy(&self, topo: &Topology, bytes: ByteSize) -> Seconds {
        let mut alpha = Seconds::ZERO;
        let mut bottleneck = f64::INFINITY;
        for &c in &self.channels {
            let ch = topo.channel(c);
            alpha += ch.latency();
            bottleneck = bottleneck.min(ch.bandwidth().as_bytes_per_sec());
        }
        alpha + Seconds::new(bytes.as_f64() / bottleneck)
    }
}

/// Static route resolver over a [`Topology`].
///
/// The router tracks how many routes it has already allocated per channel
/// and per forwarding GPU, and load-balances new allocations across
/// parallel channels and detour candidates. This is how the DGX-1
/// embedding gives the two trees of the double-tree algorithm *different*
/// channels on doubled pairs such as GPU2–GPU3.
///
/// # Examples
///
/// ```
/// use ccube_topology::{dgx1, GpuId, Router};
/// let topo = dgx1();
/// let mut router = Router::new(&topo);
/// // Allocating the same directed pair twice uses both parallel NVLinks.
/// let a = router.allocate(GpuId(2), GpuId(3)).unwrap();
/// let b = router.allocate(GpuId(2), GpuId(3)).unwrap();
/// assert_ne!(a.channels()[0], b.channels()[0]);
/// ```
#[derive(Debug, Clone)]
pub struct Router<'a> {
    topo: &'a Topology,
    channel_load: Vec<u32>,
    /// Detour routes allocated through each GPU, by GPU id.
    forward_load: Vec<u32>,
    allow_host: bool,
    blocked: Vec<bool>,
}

impl<'a> Router<'a> {
    /// Creates a router over `topo` that permits host-bridge fallback.
    pub fn new(topo: &'a Topology) -> Self {
        Router {
            topo,
            channel_load: vec![0; topo.channels().len()],
            forward_load: vec![0; topo.num_gpus()],
            allow_host: true,
            blocked: vec![false; topo.channels().len()],
        }
    }

    /// Marks `channel` unusable: no resolved route will traverse it.
    ///
    /// This is the re-routing entry point of the fault model — a link
    /// that is down for a fault epoch is blocked, and the usual
    /// direct → detour → host-bridge fallback picks the best surviving
    /// path, exactly as the paper's static routing would have at
    /// schedule-construction time.
    ///
    /// # Panics
    ///
    /// Panics if `channel` does not belong to the topology.
    pub fn block_channel(&mut self, channel: ChannelId) {
        self.blocked[channel.index()] = true;
    }

    /// True if `channel` was blocked with [`Router::block_channel`].
    pub fn is_blocked(&self, channel: ChannelId) -> bool {
        self.blocked[channel.index()]
    }

    /// Creates a router that refuses host-bridge routes (errors instead) —
    /// useful to assert that an embedding stays on NVLink + detours only.
    pub fn without_host_fallback(topo: &'a Topology) -> Self {
        Router {
            allow_host: false,
            ..Router::new(topo)
        }
    }

    /// The number of routes currently allocated on `channel`.
    pub fn load(&self, channel: ChannelId) -> u32 {
        self.channel_load[channel.index()]
    }

    /// Resolves a route without recording any allocation.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::NoRoute`] when no path exists (or only a
    /// host path exists and the router was created with
    /// [`Router::without_host_fallback`]); [`TopologyError::UnknownGpu`]
    /// for out-of-range endpoints.
    pub fn route(&self, src: GpuId, dst: GpuId) -> Result<Route, TopologyError> {
        self.resolve(src, dst)
    }

    /// Resolves a route and records its channel / forwarding load so that
    /// subsequent allocations spread across parallel resources.
    ///
    /// # Errors
    ///
    /// Same as [`Router::route`].
    pub fn allocate(&mut self, src: GpuId, dst: GpuId) -> Result<Route, TopologyError> {
        let route = self.resolve(src, dst)?;
        for &c in route.channels() {
            self.channel_load[c.index()] += 1;
        }
        if let Some(via) = route.via() {
            self.forward_load[via.index()] += 1;
        }
        Ok(route)
    }

    fn resolve(&self, src: GpuId, dst: GpuId) -> Result<Route, TopologyError> {
        self.topo.check_gpu(src)?;
        self.topo.check_gpu(dst)?;
        if src == dst {
            return Err(TopologyError::SelfLoop(src));
        }

        // 1. Direct NVLink / NIC channel, least-loaded first.
        if let Some(c) = self.best_direct(src, dst) {
            return Ok(Route::direct(src, dst, c, self.topo.channel(c).class()));
        }

        // 2. Single-intermediate detour over direct (non-host) channels.
        if let Some((via, c1, c2)) = self.best_detour(src, dst) {
            return Ok(Route::detour(src, dst, via, vec![c1, c2]));
        }

        // 3. Host bridge fallback.
        if self.allow_host {
            if let Some(c) = self.best_host(src, dst) {
                return Ok(Route::direct(src, dst, c, ChannelClass::HostBridge));
            }
        }

        Err(TopologyError::NoRoute { src, dst })
    }

    /// The least-loaded direct non-host channel from `src` to `dst`.
    fn best_direct(&self, src: GpuId, dst: GpuId) -> Option<ChannelId> {
        self.topo
            .channels_between(src, dst)
            .into_iter()
            .filter(|&c| !self.blocked[c.index()])
            .filter(|&c| self.topo.channel(c).class() != ChannelClass::HostBridge)
            .min_by_key(|&c| (self.channel_load[c.index()], c))
    }

    fn best_host(&self, src: GpuId, dst: GpuId) -> Option<ChannelId> {
        self.topo
            .channels_between(src, dst)
            .into_iter()
            .filter(|&c| !self.blocked[c.index()])
            .filter(|&c| self.topo.channel(c).class() == ChannelClass::HostBridge)
            .min_by_key(|&c| (self.channel_load[c.index()], c))
    }

    /// The best single-hop detour: minimizes (total channel load,
    /// forwarding load, intermediate id) for determinism.
    fn best_detour(&self, src: GpuId, dst: GpuId) -> Option<(GpuId, ChannelId, ChannelId)> {
        let mut best: Option<(u32, u32, GpuId, ChannelId, ChannelId)> = None;
        for via in self.topo.neighbors(src) {
            if via == dst {
                continue;
            }
            let (Some(c1), Some(c2)) = (self.best_direct(src, via), self.best_direct(via, dst))
            else {
                continue;
            };
            let load = self.channel_load[c1.index()] + self.channel_load[c2.index()];
            let fwd = self.forward_load[via.index()];
            let cand = (load, fwd, via, c1, c2);
            let better = match &best {
                None => true,
                Some((bl, bf, bv, _, _)) => (load, fwd, via) < (*bl, *bf, *bv),
            };
            if better {
                best = Some(cand);
            }
        }
        best.map(|(_, _, via, c1, c2)| (via, c1, c2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dgx1::dgx1;

    #[test]
    fn direct_route_on_connected_pair() {
        let topo = dgx1();
        let router = Router::new(&topo);
        let r = router.route(GpuId(0), GpuId(1)).unwrap();
        assert!(!r.is_detour());
        assert_eq!(r.channels().len(), 1);
        assert_eq!(r.class(), ChannelClass::NvLink);
    }

    #[test]
    fn detour_route_avoids_host_on_dgx1() {
        let topo = dgx1();
        let router = Router::new(&topo);
        // Paper's example: GPU2 -> GPU4 via intermediate (GPU0 or GPU6).
        let r = router.route(GpuId(2), GpuId(4)).unwrap();
        assert!(r.is_detour());
        assert_eq!(r.channels().len(), 2);
        let via = r.via().unwrap();
        assert!(via == GpuId(0) || via == GpuId(6), "via was {via}");
        // Both hops are NVLink, never host bridge.
        for &c in r.channels() {
            assert_eq!(topo.channel(c).class(), ChannelClass::NvLink);
        }
    }

    #[test]
    fn allocation_spreads_over_parallel_links() {
        let topo = dgx1();
        let mut router = Router::new(&topo);
        let a = router.allocate(GpuId(6), GpuId(7)).unwrap();
        let b = router.allocate(GpuId(6), GpuId(7)).unwrap();
        assert_ne!(a.channels()[0], b.channels()[0]);
        assert_eq!(router.load(a.channels()[0]), 1);
        assert_eq!(router.load(b.channels()[0]), 1);
    }

    #[test]
    fn allocation_spreads_detours_across_intermediates() {
        let topo = dgx1();
        let mut router = Router::new(&topo);
        let a = router.allocate(GpuId(2), GpuId(4)).unwrap();
        let b = router.allocate(GpuId(2), GpuId(4)).unwrap();
        // The second detour should not stack on the exact same channels.
        assert_ne!(a.channels(), b.channels());
    }

    #[test]
    fn without_host_fallback_errors_when_detour_impossible() {
        use crate::channel::ChannelClass;
        use crate::graph::TopologyBuilder;
        use crate::units::{Bandwidth, Seconds};
        // A 3-node chain 0-1, plus isolated node 2 reachable only by host.
        let mut b = TopologyBuilder::new("chain", 3);
        b.bidirectional(
            GpuId(0),
            GpuId(1),
            Bandwidth::gb_per_sec(25.0),
            Seconds::from_micros(1.0),
            ChannelClass::NvLink,
        )
        .unwrap();
        b.bidirectional(
            GpuId(0),
            GpuId(2),
            Bandwidth::gb_per_sec(8.0),
            Seconds::from_micros(10.0),
            ChannelClass::HostBridge,
        )
        .unwrap();
        let topo = b.build().unwrap();

        let strict = Router::without_host_fallback(&topo);
        assert!(matches!(
            strict.route(GpuId(1), GpuId(2)),
            Err(TopologyError::NoRoute { .. })
        ));

        let lax = Router::new(&topo);
        // 1 -> 2 has no NVLink and no all-NVLink detour, so the host path
        // via the 0-2 bridge is unreachable from 1 directly... there is no
        // 1->2 channel at all, so even lax routing fails.
        assert!(lax.route(GpuId(1), GpuId(2)).is_err());
        // 0 -> 2 exists only via host bridge.
        let r = lax.route(GpuId(0), GpuId(2)).unwrap();
        assert_eq!(r.class(), ChannelClass::HostBridge);
    }

    #[test]
    fn blocking_the_doubled_pair_forces_a_detour() {
        let topo = dgx1();
        let mut router = Router::new(&topo);
        // GPU2-GPU3 is a doubled NVLink pair: blocking one channel falls
        // back to its parallel twin, blocking both forces a detour.
        let direct = router.route(GpuId(2), GpuId(3)).unwrap();
        assert!(!direct.is_detour());
        let twins = topo.channels_between(GpuId(2), GpuId(3));
        let nv: Vec<ChannelId> = twins
            .into_iter()
            .filter(|&c| topo.channel(c).class() == ChannelClass::NvLink)
            .collect();
        assert_eq!(nv.len(), 2, "2-3 is a doubled pair");
        router.block_channel(nv[0]);
        assert!(router.is_blocked(nv[0]));
        let second = router.route(GpuId(2), GpuId(3)).unwrap();
        assert!(!second.is_detour());
        assert_eq!(second.channels(), &[nv[1]]);
        router.block_channel(nv[1]);
        let rerouted = router.route(GpuId(2), GpuId(3)).unwrap();
        assert!(rerouted.is_detour(), "both twins down must detour");
        assert!(!rerouted.channels().contains(&nv[0]));
        assert!(!rerouted.channels().contains(&nv[1]));
    }

    #[test]
    fn blocking_everything_leaves_no_route() {
        let topo = dgx1();
        let mut router = Router::new(&topo);
        for c in topo.channels() {
            router.block_channel(c.id());
        }
        assert!(matches!(
            router.route(GpuId(0), GpuId(1)),
            Err(TopologyError::NoRoute { .. })
        ));
    }

    #[test]
    fn self_route_is_rejected() {
        let topo = dgx1();
        let router = Router::new(&topo);
        assert!(matches!(
            router.route(GpuId(3), GpuId(3)),
            Err(TopologyError::SelfLoop(_))
        ));
    }

    #[test]
    fn route_occupancy_accumulates_hops() {
        let topo = dgx1();
        let router = Router::new(&topo);
        let direct = router.route(GpuId(0), GpuId(1)).unwrap();
        let detour = router.route(GpuId(2), GpuId(4)).unwrap();
        let n = ByteSize::mib(4);
        let td = direct.occupancy(&topo, n);
        let tv = detour.occupancy(&topo, n);
        // Detour pays one extra hop of latency but the same bottleneck
        // serialization, so it is slower but only by the latency term.
        assert!(tv > td);
        assert!(tv - td < Seconds::from_micros(2.0));
    }

    #[test]
    fn all_dgx1_pairs_route_without_host() {
        let topo = dgx1();
        let router = Router::without_host_fallback(&topo);
        for a in 0..8u32 {
            for b in 0..8u32 {
                if a != b {
                    let r = router.route(GpuId(a), GpuId(b)).unwrap();
                    assert!(r.channels().len() <= 2);
                }
            }
        }
    }
}
