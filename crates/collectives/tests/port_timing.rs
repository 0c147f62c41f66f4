//! Uplink slots do not change transit time: on a leaf/spine fabric,
//! moving a leaf crossing's up and down legs jointly onto any other slot
//! leaves [`port_transit_time`] unchanged, float bits included, under
//! both hop modes. The simulator times a transfer whose uplink slots an
//! adaptive policy revised by the coefficients of its prepared route,
//! which relies on this.

use ccube_collectives::{port_transit_time, LinkTiming};
use ccube_topology::{
    hierarchical, nic_path, ByteSize, FabricConfig, FabricGraph, GpuId, PortId, PortKind, Seconds,
};
use proptest::prelude::*;

/// Every route of `fab` equal to `route` up to a joint substitution of
/// the slot pair of its first leaf crossing (itself included), or
/// nothing if `route` stays on one leaf.
fn slot_substitutions(fab: &FabricGraph, route: &[PortId]) -> Vec<Vec<PortId>> {
    let Some(i) = route.windows(2).position(|w| {
        fab.port(w[0]).kind() == PortKind::UplinkUp && fab.port(w[1]).kind() == PortKind::UplinkDown
    }) else {
        return Vec::new();
    };
    let ups = fab.uplinks_up(fab.port(route[i]).switch());
    let downs = fab.uplinks_down(fab.port(route[i + 1]).switch());
    (0..ups.len())
        .map(|slot| {
            let mut r = route.to_vec();
            r[i] = ups[slot];
            r[i + 1] = downs[slot];
            r
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn uplink_slot_substitution_keeps_transit_time_bits(
        p in 8usize..=32,
        radix in 2usize..=8,
        uplinks in 1usize..=3,
        spines in 1usize..=3,
        oversubscription in 1u32..=4,
        uplink_latency_us in 0u32..=1,
        kib in 1u64..65_536,
        bandwidth_scale in prop_oneof![Just(1.0), Just(0.25), Just(0.7)],
        detour in prop_oneof![Just(false), Just(true)],
    ) {
        let topo = hierarchical(p);
        let fab = FabricGraph::from_topology(
            &topo,
            &FabricConfig {
                radix: Some(radix),
                oversubscription: f64::from(oversubscription),
                uplink_latency: Seconds::from_micros(f64::from(uplink_latency_us)),
                spines,
                uplinks_per_leaf: uplinks,
            },
        );
        let bytes = ByteSize::kib(kib);
        let timing = LinkTiming {
            bandwidth_scale,
            ..LinkTiming::default()
        };
        let mut crossings = 0;
        for src in 0..p as u32 {
            for dst in (0..p as u32).filter(|&d| d != src) {
                let route = fab.port_route(&nic_path(GpuId(src), GpuId(dst)));
                let variants = slot_substitutions(&fab, &route);
                crossings += usize::from(!variants.is_empty());
                for store_forward in [false, true] {
                    let time = |r: &[PortId]| {
                        port_transit_time(&fab, r, bytes, detour, &timing, store_forward).as_secs_f64()
                    };
                    let want = time(&route).to_bits();
                    for v in &variants {
                        prop_assert_eq!(time(v).to_bits(), want, "{:?} vs {:?}", v, route);
                    }
                }
            }
        }
        // Every leaf pair is crossed once the fabric has two leaves.
        prop_assert_eq!(crossings > 0, p > radix);
    }
}
