//! Ring AllReduce schedule builders (the paper's `R` baseline).
//!
//! Two flavors:
//!
//! * [`ring_allreduce`] — the textbook single ring over ranks `0..P`.
//! * [`ring_allreduce_multi`] — NCCL-style **multi-ring**: the message is
//!   striped over several rings (each typically an edge-disjoint
//!   Hamiltonian cycle of the physical topology, found with
//!   [`disjoint_rings`](ccube_topology::disjoint_rings), used in both
//!   directions), which is how NCCL reaches the DGX-1's aggregate NVLink
//!   bandwidth.

use crate::chunk::{ChunkId, Chunking};
use crate::rank::Rank;
use crate::schedule::{Phase, Schedule, ScheduleBuilder, TransferId, TreeIndex};
use ccube_topology::ByteSize;

/// Emits one ring's Reduce-Scatter + AllGather transfers.
///
/// `order` is the node sequence of the ring (successor of `order[i]` is
/// `order[(i+1) % p]`), `tree` tags the ring for embedding, and the ring
/// carries global chunks `chunk_base .. chunk_base + p`.
fn build_ring(
    b: &mut ScheduleBuilder,
    order: &[Rank],
    tree: TreeIndex,
    chunk_base: usize,
    chunking: &Chunking,
) {
    let p = order.len();
    let pi = p as i64;
    let modp = |x: i64| (((x % pi) + pi) % pi) as usize;

    // The ring emits step-major, position-minor, so the id of the
    // transfer *sent by* position i at step s follows from the counts:
    // rs(i, s) in the Reduce-Scatter, ag(i, s) in the AllGather.
    let base = b.len();
    let rs = |i: usize, s: usize| TransferId((base + s * p + i) as u32);
    let ag = |i: usize, s: usize| TransferId((base + (p - 1 + s) * p + i) as u32);
    // Position i always sends over the same edge, to its successor; the
    // first step uses them in position order.
    let edges: Vec<u32> = (0..p)
        .map(|i| b.edge(order[i], order[(i + 1) % p], tree))
        .collect();

    // Reduce-Scatter: at step s, position i sends chunk (i - s) mod p to
    // its successor, which accumulates it.
    for s in 0..(p - 1) as i64 {
        for i in 0..pi {
            let local = modp(i - s);
            let chunk = ChunkId((chunk_base + local) as u32);
            // the chunk position i sends now is the one it received from
            // its predecessor in the previous step
            let dep = (s > 0).then(|| rs(modp(i - 1), (s - 1) as usize));
            let id = b.push_on(
                edges[i as usize],
                chunk,
                chunking.size(chunk),
                Phase::ReduceScatter,
                dep,
            );
            debug_assert_eq!(id, rs(i as usize, s as usize));
        }
    }

    // AllGather: at step s, position i sends chunk (i + 1 - s) mod p; at
    // s=0 this is the chunk it just finished reducing.
    for s in 0..(p - 1) as i64 {
        for i in 0..pi {
            let local = modp(i + 1 - s);
            let chunk = ChunkId((chunk_base + local) as u32);
            let dep = if s == 0 {
                // position i's ownership of chunk i+1 comes from the last
                // reduce-scatter transfer it received
                rs(modp(i - 1), p - 2)
            } else {
                ag(modp(i - 1), (s - 1) as usize)
            };
            let id = b.push_on(
                edges[i as usize],
                chunk,
                chunking.size(chunk),
                Phase::AllGather,
                [dep],
            );
            debug_assert_eq!(id, ag(i as usize, s as usize));
        }
    }
}

/// Builds the classic single-ring AllReduce on `p` ranks for a message of
/// `total` bytes.
///
/// The message is split into `p` chunks. The Reduce-Scatter phase runs
/// `p-1` steps in which every rank forwards a partial to its successor;
/// after it, rank `i` owns the fully reduced chunk `(i+1) mod p`. The
/// AllGather phase runs another `p-1` steps circulating the reduced
/// chunks. This is the bandwidth-optimal algorithm of Eq. 2:
/// `T_ring = 2(P-1)α + 2((P-1)/P)βN`.
///
/// Note the property the paper's Observation #3 contrasts against: at the
/// end of Reduce-Scatter *each rank owns a different chunk*, so reduced
/// data does **not** complete in chunk order at any rank — which is why
/// computation chaining (gradient queuing) cannot be applied to the ring.
///
/// # Panics
///
/// Panics if `p < 2`.
///
/// # Examples
///
/// ```
/// use ccube_collectives::{ring_allreduce, verify};
/// use ccube_topology::ByteSize;
///
/// let s = ring_allreduce(4, ByteSize::mib(4));
/// assert_eq!(s.transfers().len(), 2 * (4 - 1) * 4); // 2(P-1) steps x P ranks
/// verify::check_allreduce(&s).unwrap();
/// ```
pub fn ring_allreduce(p: usize, total: ByteSize) -> Schedule {
    assert!(p >= 2, "ring allreduce needs at least 2 ranks, got {p}");
    let order: Vec<Rank> = Rank::all(p).collect();
    ring_allreduce_multi(total, std::slice::from_ref(&order))
}

/// Builds an NCCL-style multi-ring AllReduce: the message is striped over
/// `orders.len()` rings running concurrently, ring `r` following the node
/// sequence `orders[r]` and carrying global chunks `r*P .. (r+1)*P`.
///
/// Each ring is tagged with its own [`TreeIndex`], so the embedding
/// assigns it its own physical channels (parallel NVLinks where the
/// topology has them). To use a Hamiltonian cycle in both directions,
/// pass the cycle and its reverse as two orders.
///
/// # Panics
///
/// Panics if `orders` is empty, rings disagree on length, a ring has
/// fewer than 2 ranks, or a ring is not a permutation of `0..P`.
///
/// # Examples
///
/// ```
/// use ccube_collectives::{ring_allreduce_multi, verify, Rank};
/// use ccube_topology::ByteSize;
///
/// let fwd: Vec<Rank> = (0..4).map(Rank).collect();
/// let rev: Vec<Rank> = (0..4).rev().map(Rank).collect();
/// let s = ring_allreduce_multi(ByteSize::mib(8), &[fwd, rev]);
/// verify::check_allreduce(&s).unwrap();
/// ```
pub fn ring_allreduce_multi(total: ByteSize, orders: &[Vec<Rank>]) -> Schedule {
    assert!(!orders.is_empty(), "need at least one ring");
    let p = orders[0].len();
    assert!(p >= 2, "rings need at least 2 ranks");
    for order in orders {
        assert_eq!(order.len(), p, "all rings must span the same ranks");
        let mut seen = vec![false; p];
        for r in order {
            assert!(
                r.index() < p && !seen[r.index()],
                "ring order must be a permutation of 0..{p}"
            );
            seen[r.index()] = true;
        }
    }
    let rings = orders.len();
    let chunking = Chunking::even(total, rings * p);
    // Per ring: 2(P-1) steps of P transfers, each with one dependency
    // except the first Reduce-Scatter step's.
    let per_ring = 2 * (p - 1) * p;
    let mut b = ScheduleBuilder::with_capacity(rings * per_ring, rings * (per_ring - p));
    for (r, order) in orders.iter().enumerate() {
        build_ring(&mut b, order, TreeIndex(r as u8), r * p, &chunking);
    }
    let name = if rings == 1 {
        "ring".to_string()
    } else {
        format!("{rings}-ring")
    };
    b.finish(name, p, chunking)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_allreduce;

    #[test]
    fn transfer_count_is_2_p_minus_1_times_p() {
        for p in 2..12 {
            let s = ring_allreduce(p, ByteSize::mib(1));
            assert_eq!(s.transfers().len(), 2 * (p - 1) * p);
        }
    }

    #[test]
    fn every_rank_sends_every_step() {
        let p = 5;
        let s = ring_allreduce(p, ByteSize::mib(1));
        // sends per rank = 2(p-1)
        for r in 0..p as u32 {
            let sends = s.transfers().iter().filter(|t| t.src == Rank(r)).count();
            assert_eq!(sends, 2 * (p - 1));
        }
    }

    #[test]
    fn messages_travel_to_successor_only() {
        let p = 6;
        let s = ring_allreduce(p, ByteSize::mib(1));
        for t in s.transfers() {
            assert_eq!((t.src.0 + 1) % p as u32, t.dst.0);
        }
    }

    #[test]
    #[should_panic(expected = "at least 2 ranks")]
    fn single_rank_is_rejected() {
        let _ = ring_allreduce(1, ByteSize::mib(1));
    }

    #[test]
    fn two_rank_ring_is_minimal() {
        let s = ring_allreduce(2, ByteSize::kib(8));
        assert_eq!(s.transfers().len(), 4);
        // allgather transfers depend on the reduce-scatter ones
        let ag: Vec<_> = s
            .transfers()
            .iter()
            .filter(|t| t.phase == Phase::AllGather)
            .collect();
        assert!(ag.iter().all(|t| !t.deps.is_empty()));
    }

    #[test]
    fn multi_ring_is_correct_for_arbitrary_orders() {
        let orders = vec![
            vec![Rank(0), Rank(1), Rank(2), Rank(3), Rank(4)],
            vec![Rank(4), Rank(3), Rank(2), Rank(1), Rank(0)],
            vec![Rank(0), Rank(2), Rank(4), Rank(1), Rank(3)],
        ];
        let s = ring_allreduce_multi(ByteSize::mib(3), &orders);
        check_allreduce(&s).unwrap();
        assert_eq!(s.chunking().num_chunks(), 15);
        assert_eq!(s.transfers().len(), 3 * 2 * 4 * 5);
    }

    #[test]
    fn rings_use_distinct_tree_tags() {
        let fwd: Vec<Rank> = (0..4).map(Rank).collect();
        let rev: Vec<Rank> = (0..4).rev().map(Rank).collect();
        let s = ring_allreduce_multi(ByteSize::mib(8), &[fwd, rev]);
        let tags: std::collections::BTreeSet<TreeIndex> =
            s.transfers().iter().map(|t| t.tree).collect();
        assert_eq!(tags.len(), 2);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn invalid_order_is_rejected() {
        let _ = ring_allreduce_multi(ByteSize::mib(1), &[vec![Rank(0), Rank(0), Rank(1)]]);
    }
}
