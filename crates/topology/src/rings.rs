//! Edge-disjoint Hamiltonian ring discovery.
//!
//! NCCL's ring AllReduce on the DGX-1 does not run one ring — it
//! decomposes the NVLink graph into several edge-disjoint Hamiltonian
//! cycles and runs a ring on each (in both directions), which is how it
//! reaches the aggregate NVLink bandwidth. This module finds such a
//! decomposition by backtracking search over the link multiplicities;
//! the DGX-1's 24 NVLinks decompose into exactly three 8-link cycles.

use crate::channel::ChannelClass;
use crate::graph::{GpuId, Topology};
/// Undirected NVLink multiplicities of an `n`-GPU topology, pair
/// `{a, b}` at [`pair`]`(n, a, b)`.
type Caps = Vec<u32>;

fn pair(n: usize, a: GpuId, b: GpuId) -> usize {
    a.index().min(b.index()) * n + a.index().max(b.index())
}

/// Extracts the undirected NVLink multiplicities of a topology.
fn link_capacities(topo: &Topology) -> Caps {
    let n = topo.num_gpus();
    let mut caps = vec![0; n * n];
    for ch in topo.channels() {
        if ch.class() == ChannelClass::NvLink {
            caps[pair(n, ch.src(), ch.dst())] += 1;
        }
    }
    // Each bidirectional link contributed two unidirectional channels.
    for v in &mut caps {
        *v /= 2;
    }
    caps
}

/// Finds up to `count` Hamiltonian cycles that are pairwise edge-disjoint
/// (respecting link multiplicities: a doubled NVLink can carry two
/// cycles). Returns as many as exist, possibly fewer than requested.
///
/// Cycles start at `gpu0` and are returned as node sequences of length
/// `num_gpus` (the closing edge back to the start is implicit).
///
/// # Examples
///
/// ```
/// use ccube_topology::{dgx1, disjoint_rings};
/// let topo = dgx1();
/// let rings = disjoint_rings(&topo, 3);
/// // The DGX-1's 24 NVLinks decompose into three Hamiltonian cycles.
/// assert_eq!(rings.len(), 3);
/// ```
pub fn disjoint_rings(topo: &Topology, count: usize) -> Vec<Vec<GpuId>> {
    let n = topo.num_gpus();
    if n < 3 || count == 0 {
        return Vec::new();
    }
    let mut caps = link_capacities(topo);
    let mut best: Vec<Vec<GpuId>> = Vec::new();
    // Greedy-with-backtracking: find the largest k <= count for which a
    // disjoint set exists, preferring to keep every cycle found.
    for k in (1..=count).rev() {
        let mut caps_try = caps.clone();
        let mut acc = Vec::new();
        if solve(topo, &mut caps_try, k, &mut acc) {
            best = acc;
            caps = caps_try;
            break;
        }
    }
    let _ = caps;
    best
}

/// Tries to place `k` more disjoint cycles; on success extends `acc`.
fn solve(topo: &Topology, caps: &mut Caps, k: usize, acc: &mut Vec<Vec<GpuId>>) -> bool {
    if k == 0 {
        return true;
    }
    let n = topo.num_gpus();
    let mut path = vec![GpuId(0)];
    let mut visited = vec![false; n];
    visited[0] = true;
    extend_cycle(topo, caps, &mut path, &mut visited, k, acc)
}

fn extend_cycle(
    topo: &Topology,
    caps: &mut Caps,
    path: &mut Vec<GpuId>,
    visited: &mut Vec<bool>,
    k: usize,
    acc: &mut Vec<Vec<GpuId>>,
) -> bool {
    let n = topo.num_gpus();
    let cur = *path.last().expect("path never empty");
    if path.len() == n {
        // Close the cycle back to gpu0.
        let close = pair(n, cur, GpuId(0));
        if caps[close] == 0 {
            return false;
        }
        caps[close] -= 1;
        acc.push(path.clone());
        if solve(topo, caps, k - 1, acc) {
            return true;
        }
        acc.pop();
        caps[close] += 1;
        return false;
    }
    let mut nexts: Vec<GpuId> = topo
        .neighbors(cur)
        .into_iter()
        .filter(|&nb| !visited[nb.index()] && caps[pair(n, cur, nb)] > 0)
        .collect();
    nexts.sort();
    for nb in nexts {
        let key = pair(n, cur, nb);
        caps[key] -= 1;
        visited[nb.index()] = true;
        path.push(nb);
        if extend_cycle(topo, caps, path, visited, k, acc) {
            return true;
        }
        path.pop();
        visited[nb.index()] = false;
        caps[key] += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dgx1::dgx1;

    fn assert_valid_cycle(topo: &Topology, cycle: &[GpuId]) {
        assert_eq!(cycle.len(), topo.num_gpus());
        let mut seen = vec![false; topo.num_gpus()];
        for g in cycle {
            assert!(!seen[g.index()], "{g} repeated");
            seen[g.index()] = true;
        }
        for i in 0..cycle.len() {
            let a = cycle[i];
            let b = cycle[(i + 1) % cycle.len()];
            let direct = topo
                .channels_between(a, b)
                .into_iter()
                .any(|c| topo.channel(c).class() == ChannelClass::NvLink);
            assert!(direct, "{a}-{b} is not an NVLink");
        }
    }

    #[test]
    fn dgx1_decomposes_into_three_rings() {
        let topo = dgx1();
        let rings = disjoint_rings(&topo, 3);
        assert_eq!(rings.len(), 3);
        for r in &rings {
            assert_valid_cycle(&topo, r);
        }
    }

    #[test]
    fn rings_respect_link_multiplicities() {
        let topo = dgx1();
        let rings = disjoint_rings(&topo, 3);
        let caps = link_capacities(&topo);
        let mut used = vec![0; caps.len()];
        for r in &rings {
            for i in 0..r.len() {
                used[pair(8, r[i], r[(i + 1) % r.len()])] += 1;
            }
        }
        for (slot, (&u, &cap)) in used.iter().zip(&caps).enumerate() {
            assert!(u <= cap, "pair slot {slot} oversubscribed: {u}");
        }
        // Three 8-link cycles consume all 24 NVLinks.
        let total: u32 = used.iter().sum();
        assert_eq!(total, 24);
    }

    #[test]
    fn requesting_more_rings_returns_what_exists() {
        let topo = dgx1();
        let rings = disjoint_rings(&topo, 10);
        assert_eq!(rings.len(), 3, "only three disjoint cycles exist");
    }

    #[test]
    fn tiny_topologies_yield_nothing() {
        use crate::graph::TopologyBuilder;
        use crate::units::{Bandwidth, Seconds};
        let mut b = TopologyBuilder::new("pair", 2);
        b.bidirectional(
            GpuId(0),
            GpuId(1),
            Bandwidth::gb_per_sec(25.0),
            Seconds::from_micros(1.0),
            ChannelClass::NvLink,
        )
        .unwrap();
        let topo = b.build().unwrap();
        assert!(disjoint_rings(&topo, 2).is_empty());
    }
}
