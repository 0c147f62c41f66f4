//! Schedule verification: symbolic correctness and unit-step replay.
//!
//! Two independent checkers:
//!
//! * [`check_allreduce`] symbolically executes a [`Schedule`] over
//!   *contribution sets* (which ranks' inputs a buffer currently
//!   contains) and proves that every rank finishes with the contribution
//!   of every rank for every chunk — i.e. the schedule really computes an
//!   AllReduce. The other `check_*` functions and the analyzer's
//!   dataflow lints read the same replay.
//! * [`execute_steps`] replays a schedule in unit-time steps with
//!   exclusive logical channels, reproducing the step counts of the
//!   paper's Fig. 5 (e.g. 10 steps for the conventional tree vs 7 for the
//!   overlapped tree at P=4, K=4).

// rank/chunk indices are semantic here; iterator rewrites would obscure them
#![allow(clippy::needless_range_loop)]

use crate::chunk::ChunkId;
use crate::rank::Rank;
use crate::schedule::{Schedule, Transfer, TransferId, TreeIndex};
use std::error::Error;
use std::fmt;

/// One structural invariant violation of a schedule DAG, with the exact
/// offending transfer — shared between [`check_dag`] (which stops at the
/// first) and the [`analyze`](crate::analyze) lint pass (which reports
/// all of them as `CC001` diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DagViolation {
    /// A transfer's id does not equal its index (ids must be dense).
    NonDenseId {
        /// The index the transfer sits at.
        index: usize,
        /// The id it claims.
        id: TransferId,
    },
    /// A transfer sends to itself.
    SelfLoop {
        /// The offending transfer.
        id: TransferId,
    },
    /// A transfer endpoint is outside `0..num_ranks`.
    EndpointOutOfRange {
        /// The offending transfer.
        id: TransferId,
        /// Its sending rank.
        src: Rank,
        /// Its receiving rank.
        dst: Rank,
        /// The schedule's rank count.
        num_ranks: usize,
    },
    /// A transfer's chunk is outside `0..num_chunks`.
    ChunkOutOfRange {
        /// The offending transfer.
        id: TransferId,
        /// Its chunk.
        chunk: ChunkId,
        /// The schedule's chunk count.
        num_chunks: usize,
    },
    /// A dependency does not precede its dependent (ids are required to
    /// be a topological order, so a forward dep also covers cycles).
    ForwardDep {
        /// The offending transfer.
        id: TransferId,
        /// The dependency that does not precede it.
        dep: TransferId,
    },
}

impl DagViolation {
    /// The transfer the violation is anchored to.
    pub fn transfer(&self) -> TransferId {
        match *self {
            DagViolation::NonDenseId { id, .. }
            | DagViolation::SelfLoop { id }
            | DagViolation::EndpointOutOfRange { id, .. }
            | DagViolation::ChunkOutOfRange { id, .. }
            | DagViolation::ForwardDep { id, .. } => id,
        }
    }
}

impl fmt::Display for DagViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagViolation::NonDenseId { index, id } => {
                write!(f, "transfer at index {index} has id {id}")
            }
            DagViolation::SelfLoop { id } => write!(f, "{id} is a self-loop"),
            DagViolation::EndpointOutOfRange {
                id,
                src,
                dst,
                num_ranks,
            } => write!(
                f,
                "{id} endpoints {src}->{dst} out of range for p={num_ranks}"
            ),
            DagViolation::ChunkOutOfRange {
                id,
                chunk,
                num_chunks,
            } => write!(f, "{id} chunk {chunk} out of range for k={num_chunks}"),
            DagViolation::ForwardDep { id, dep } => {
                write!(f, "{id} depends on {dep} which does not precede it")
            }
        }
    }
}

/// Errors found by the verifiers.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VerifyError {
    /// A structural invariant of the schedule DAG is broken.
    MalformedDag(DagViolation),
    /// After execution, a rank is missing contributions for a chunk.
    MissingContribution {
        /// The rank whose buffer is incomplete.
        rank: Rank,
        /// The chunk that is incomplete.
        chunk: ChunkId,
        /// How many of the `num_ranks` contributions arrived.
        have: usize,
    },
    /// The step executor made no progress although transfers remain.
    Deadlock {
        /// The step at which execution stalled.
        step: usize,
        /// Number of transfers still outstanding.
        remaining: usize,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::MalformedDag(violation) => {
                write!(f, "malformed schedule dag: {violation}")
            }
            VerifyError::MissingContribution { rank, chunk, have } => write!(
                f,
                "incomplete reduction: {rank} {chunk} has only {have} contributions"
            ),
            VerifyError::Deadlock { step, remaining } => {
                write!(
                    f,
                    "schedule deadlocked at step {step} with {remaining} transfers left"
                )
            }
        }
    }
}

impl Error for VerifyError {}

/// How logical edges map onto exclusive channels during unit-step replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelKeying {
    /// Each `(src, dst, tree)` triple is its own channel — models a
    /// machine with enough parallel links for every tree (the DGX-1's
    /// doubled NVLinks for the 2-tree C-Cube).
    PerTree,
    /// Trees share the `(src, dst)` channel — models the conflict that
    /// makes the naive overlapped double tree impossible (paper §IV-A).
    SharedAcrossTrees,
}

/// Transfers grouped into the FIFO queues of their logical channels
/// (per `keying`): one flat table of transfer ids, queues in ascending
/// channel-key order, ids ascending within a queue. The step replay,
/// the analyzer's wait-for graph and its channel-conflict witnesses
/// read it.
#[derive(Debug, Clone)]
pub(crate) struct ChannelQueues {
    /// Transfer ids sorted by `(channel key, id)`.
    ids: Vec<u32>,
    /// Queue `q` is `ids[starts[q]..starts[q + 1]]`.
    starts: Vec<u32>,
    /// The queue of each logical edge, by edge id.
    queue_of_edge: Vec<u32>,
}

impl ChannelQueues {
    /// Groups `schedule`'s transfers. Only the edge table is sorted (by
    /// channel key); the transfers are counted into their edges' queues
    /// in id order. Transfer ids are their indices (the builder assigns
    /// them densely).
    pub(crate) fn new(schedule: &Schedule, keying: ChannelKeying) -> Self {
        let edges = schedule.edges();
        let channel = |e: u32| {
            let (src, dst, tree) = edges[e as usize];
            let tree = match keying {
                ChannelKeying::PerTree => tree,
                ChannelKeying::SharedAcrossTrees => TreeIndex(0),
            };
            (src, dst, tree)
        };
        let mut by_key: Vec<u32> = (0..edges.len() as u32).collect();
        by_key.sort_unstable_by_key(|&e| (channel(e), e));
        let mut queue_of_edge = vec![0; edges.len()];
        let mut n = 0;
        for (i, &e) in by_key.iter().enumerate() {
            if i == 0 || channel(by_key[i - 1]) != channel(e) {
                n += 1;
            }
            queue_of_edge[e as usize] = n as u32 - 1;
        }
        // Counting sort: count each queue into `starts[q + 1]`, sum the
        // counts up, then fill with `starts[q]` as the write cursor, which
        // leaves it at the start of `q + 1`; shifting right by one
        // restores it.
        let transfers = schedule.transfers();
        let mut starts = vec![0u32; n + 1];
        for t in transfers {
            starts[queue_of_edge[t.edge as usize] as usize + 1] += 1;
        }
        for q in 0..n {
            starts[q + 1] += starts[q];
        }
        let mut ids = vec![0; transfers.len()];
        for t in transfers {
            let slot = &mut starts[queue_of_edge[t.edge as usize] as usize];
            ids[*slot as usize] = t.id.0;
            *slot += 1;
        }
        starts.copy_within(0..n, 1);
        starts[0] = 0;
        ChannelQueues {
            ids,
            starts,
            queue_of_edge,
        }
    }

    /// Number of queues.
    pub(crate) fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Queue `q`'s transfer ids, in FIFO order.
    pub(crate) fn get(&self, q: usize) -> &[u32] {
        &self.ids[self.starts[q] as usize..self.starts[q + 1] as usize]
    }

    /// Every queue, in channel-key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.len()).map(|q| self.get(q))
    }

    /// The queue of logical edge `edge` (an index into
    /// [`Schedule::edges`]).
    pub(crate) fn of_edge(&self, edge: usize) -> usize {
        self.queue_of_edge[edge] as usize
    }
}

/// Checks the structural invariants of a schedule DAG.
///
/// # Errors
///
/// Returns [`VerifyError::MalformedDag`] if transfer ids are not dense,
/// a dependency does not precede its dependent, an endpoint pair is a
/// self-loop, or a rank/chunk is out of range.
pub fn check_dag(schedule: &Schedule) -> Result<(), VerifyError> {
    match dag_violations(schedule).into_iter().next() {
        Some(v) => Err(VerifyError::MalformedDag(v)),
        None => Ok(()),
    }
}

/// Collects **every** structural violation of the schedule DAG, in
/// transfer order. [`check_dag`] reports the first; the analyzer reports
/// them all.
pub fn dag_violations(schedule: &Schedule) -> Vec<DagViolation> {
    let p = schedule.num_ranks();
    let k = schedule.chunking().num_chunks();
    let mut out = Vec::new();
    for (i, t) in schedule.transfers().iter().enumerate() {
        if t.id.index() != i {
            out.push(DagViolation::NonDenseId { index: i, id: t.id });
        }
        if t.src == t.dst {
            out.push(DagViolation::SelfLoop { id: t.id });
        }
        if t.src.index() >= p || t.dst.index() >= p {
            out.push(DagViolation::EndpointOutOfRange {
                id: t.id,
                src: t.src,
                dst: t.dst,
                num_ranks: p,
            });
        }
        if t.chunk.index() >= k {
            out.push(DagViolation::ChunkOutOfRange {
                id: t.id,
                chunk: t.chunk,
                num_chunks: k,
            });
        }
        for &d in schedule.deps_of(t) {
            if d.index() >= i {
                out.push(DagViolation::ForwardDep { id: t.id, dep: d });
            }
        }
    }
    out
}

/// Which ranks' inputs each buffer `(rank, chunk)` holds after a symbolic
/// replay: one flat table of bitsets, `words` words per buffer. The
/// checkers below and the analyzer's `CC003`/`CC004` read it.
pub(crate) struct Contributions {
    k: usize,
    words: usize,
    bits: Vec<u64>,
}

impl Contributions {
    /// Replays `schedule`, a DAG [`check_dag`] accepts, in id order (a
    /// valid linearization of its dependencies): a reduction takes the
    /// union of the sender's set into the receiver's, a broadcast
    /// overwrites it. `on_overlap` sees each reduction whose payload
    /// shares a contribution with the receiver's set.
    pub(crate) fn replay(schedule: &Schedule, mut on_overlap: impl FnMut(&Transfer)) -> Self {
        let (p, k) = (schedule.num_ranks(), schedule.chunking().num_chunks());
        let words = p.div_ceil(64);
        let mut table = Contributions {
            k,
            words,
            bits: vec![0; p * k * words],
        };
        for r in 0..p {
            for c in 0..k {
                let at = table.slot(r, c) + r / 64;
                table.bits[at] |= 1 << (r % 64);
            }
        }
        for t in schedule.transfers() {
            // src != dst (no self-loop), so the two buffers are disjoint.
            let src = table.slot(t.src.index(), t.chunk.index());
            let dst = table.slot(t.dst.index(), t.chunk.index());
            let bits = &mut table.bits;
            if t.phase.is_reduction() {
                let mut overlap = false;
                for w in 0..words {
                    let payload = bits[src + w];
                    overlap |= payload & bits[dst + w] != 0;
                    bits[dst + w] |= payload;
                }
                if overlap {
                    on_overlap(t);
                }
            } else {
                bits.copy_within(src..src + words, dst);
            }
        }
        table
    }

    fn slot(&self, rank: usize, chunk: usize) -> usize {
        (rank * self.k + chunk) * self.words
    }

    /// Buffer `(rank, chunk)`'s contribution set.
    fn set(&self, rank: usize, chunk: usize) -> &[u64] {
        let at = self.slot(rank, chunk);
        &self.bits[at..at + self.words]
    }

    /// How many ranks' contributions buffer `(rank, chunk)` holds.
    pub(crate) fn count(&self, rank: usize, chunk: usize) -> usize {
        let set = self.set(rank, chunk);
        set.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Buffer `(rank, chunk)` as a [`VerifyError::MissingContribution`].
    fn missing(&self, rank: usize, chunk: usize) -> VerifyError {
        VerifyError::MissingContribution {
            rank: Rank(rank as u32),
            chunk: ChunkId(chunk as u32),
            have: self.count(rank, chunk),
        }
    }
}

/// Symbolically executes `schedule` and proves it computes an AllReduce:
/// every rank must end with all `P` contributions for every chunk.
///
/// Reduction-phase transfers union the sender's contribution set into the
/// receiver's; broadcast-phase transfers overwrite it. Transfers are
/// applied in id order, which the builders guarantee is a valid
/// linearization of the dependency DAG.
///
/// # Errors
///
/// Returns a [`VerifyError`] if the DAG is malformed or any buffer ends
/// incomplete.
pub fn check_allreduce(schedule: &Schedule) -> Result<(), VerifyError> {
    let state = run_symbolic(schedule)?;
    let (p, k) = (schedule.num_ranks(), schedule.chunking().num_chunks());
    for r in 0..p {
        if let Some(c) = (0..k).find(|&c| state.count(r, c) != p) {
            return Err(state.missing(r, c));
        }
    }
    Ok(())
}

/// The result of a unit-step replay of a schedule.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// Total steps until the last transfer completed (1-based; a schedule
    /// whose last transfer runs in the first step reports 1).
    pub num_steps: usize,
    /// Completion step of each transfer, indexed by transfer id (1-based).
    pub completion_step: Vec<usize>,
    /// The step at which each chunk became fully AllReduced everywhere
    /// (i.e. its last transfer completed), indexed by chunk id.
    pub chunk_complete_step: Vec<usize>,
}

impl StepReport {
    /// The step at which the *first* chunk completed everywhere — the
    /// unit-step analog of the paper's gradient turnaround time.
    pub fn turnaround_step(&self) -> usize {
        self.chunk_complete_step.iter().copied().min().unwrap_or(0)
    }

    /// True if chunks complete in non-decreasing chunk order within each
    /// tree-parity class (the in-order property, Observation #3).
    pub fn chunks_in_order(&self, num_trees: usize) -> bool {
        for parity in 0..num_trees {
            let steps: Vec<usize> = self
                .chunk_complete_step
                .iter()
                .enumerate()
                .filter(|(c, _)| c % num_trees == parity)
                .map(|(_, &s)| s)
                .collect();
            if steps.windows(2).any(|w| w[0] > w[1]) {
                return false;
            }
        }
        true
    }
}

/// Replays `schedule` in unit-time steps: every transfer takes exactly
/// one step, each logical channel (per `keying`) carries at most one
/// transfer per step, channels serve their transfers strictly in id
/// (FIFO) order, and a transfer may start only in a step strictly after
/// all of its dependencies completed.
///
/// This is the executor used to reproduce the step counts of the paper's
/// Fig. 5 and the timing diagrams of Fig. 7.
///
/// # Errors
///
/// Returns [`VerifyError::Deadlock`] if no transfer can make progress, or
/// [`VerifyError::MalformedDag`] if the schedule is structurally invalid.
pub fn execute_steps(
    schedule: &Schedule,
    keying: ChannelKeying,
) -> Result<StepReport, VerifyError> {
    check_dag(schedule)?;
    replay_steps(schedule, &ChannelQueues::new(schedule, keying))
}

/// [`execute_steps`] over prebuilt channel queues, on a schedule that
/// [`check_dag`] accepts.
pub(crate) fn replay_steps(
    schedule: &Schedule,
    queues: &ChannelQueues,
) -> Result<StepReport, VerifyError> {
    let transfers = schedule.transfers();
    let n = transfers.len();
    let k = schedule.chunking().num_chunks();
    let mut heads = vec![0usize; queues.len()];
    let mut completion_step = vec![0usize; n];
    let mut done = vec![false; n];
    let mut remaining = n;
    let mut step = 0usize;
    let mut fired: Vec<(usize, usize)> = Vec::new();

    while remaining > 0 {
        step += 1;
        fired.clear();
        for (q, queue) in queues.iter().enumerate() {
            let Some(&tid) = queue.get(heads[q]) else {
                continue;
            };
            let ready = schedule
                .deps(TransferId(tid))
                .iter()
                .all(|d| done[d.index()] && completion_step[d.index()] < step);
            if ready {
                fired.push((q, tid as usize));
            }
        }
        if fired.is_empty() {
            return Err(VerifyError::Deadlock { step, remaining });
        }
        for &(q, tid) in &fired {
            done[tid] = true;
            completion_step[tid] = step;
            heads[q] += 1;
            remaining -= 1;
        }
    }

    let mut chunk_complete_step = vec![0usize; k];
    for t in transfers {
        let c = t.chunk.index();
        chunk_complete_step[c] = chunk_complete_step[c].max(completion_step[t.id.index()]);
    }

    Ok(StepReport {
        num_steps: step,
        completion_step,
        chunk_complete_step,
    })
}

/// Checks the DAG, then replays it symbolically.
fn run_symbolic(schedule: &Schedule) -> Result<Contributions, VerifyError> {
    check_dag(schedule)?;
    Ok(Contributions::replay(schedule, |_| {}))
}

/// Proves `schedule` is a correct **broadcast**: after execution every
/// rank holds, for every chunk, exactly one and the same contribution
/// (the root's data).
///
/// # Errors
///
/// Returns [`VerifyError::MalformedDag`] for structural problems, or a
/// [`VerifyError::MissingContribution`]-style error if any buffer
/// diverges from the root's.
pub fn check_broadcast(schedule: &Schedule) -> Result<(), VerifyError> {
    let state = run_symbolic(schedule)?;
    let (p, k) = (schedule.num_ranks(), schedule.chunking().num_chunks());
    for c in 0..k {
        // A broadcast must leave exactly one (the root's) contribution
        // everywhere; anything else is a dataflow error with the same
        // structured shape as an incomplete reduction.
        if state.count(0, c) != 1 {
            return Err(state.missing(0, c));
        }
        if let Some(r) = (1..p).find(|&r| state.set(r, c) != state.set(0, c)) {
            return Err(state.missing(r, c));
        }
    }
    Ok(())
}

/// Proves `schedule` is a correct **reduce**: after execution, for every
/// chunk, at least one of the given `roots` holds all `P` contributions.
///
/// # Errors
///
/// Returns a [`VerifyError`] if some chunk is fully reduced at none of
/// the roots.
pub fn check_reduce(schedule: &Schedule, roots: &[Rank]) -> Result<(), VerifyError> {
    let state = run_symbolic(schedule)?;
    let (p, k) = (schedule.num_ranks(), schedule.chunking().num_chunks());
    for c in 0..k {
        let best = roots
            .iter()
            .map(|r| state.count(r.index(), c))
            .max()
            .unwrap_or(0);
        if best != p {
            return Err(VerifyError::MissingContribution {
                rank: *roots.first().unwrap_or(&Rank(0)),
                chunk: ChunkId(c as u32),
                have: best,
            });
        }
    }
    Ok(())
}

/// Proves `schedule` is a correct ring **ReduceScatter**: after
/// execution, chunk `c` is fully reduced at rank `(c - 1) mod P` (the
/// standard post-RS ownership).
///
/// # Errors
///
/// Returns a [`VerifyError`] if the owning rank's chunk is incomplete.
pub fn check_reduce_scatter(schedule: &Schedule) -> Result<(), VerifyError> {
    let state = run_symbolic(schedule)?;
    let (p, k) = (schedule.num_ranks(), schedule.chunking().num_chunks());
    for c in 0..k {
        let owner = (c + p - 1) % p;
        if state.count(owner, c) != p {
            return Err(state.missing(owner, c));
        }
    }
    Ok(())
}

/// Proves `schedule` is a correct ring **AllGather** from the post-RS
/// ownership: after execution every rank holds, for every chunk, exactly
/// the owner's contribution.
///
/// # Errors
///
/// Returns a [`VerifyError`] if any buffer differs from the owner's.
pub fn check_all_gather(schedule: &Schedule) -> Result<(), VerifyError> {
    let state = run_symbolic(schedule)?;
    let (p, k) = (schedule.num_ranks(), schedule.chunking().num_chunks());
    for c in 0..k {
        let owner = (c + p - 1) % p;
        if let Some(r) = (0..p).find(|&r| state.set(r, c) != state.set(owner, c)) {
            return Err(state.missing(r, c));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::Chunking;
    use crate::ring::ring_allreduce;
    use crate::schedule::{Phase, ScheduleBuilder};
    use crate::tree::{BinaryTree, DoubleBinaryTree};
    use crate::tree_schedule::{tree_allreduce, Overlap};
    use ccube_topology::ByteSize;

    #[test]
    fn ring_is_a_correct_allreduce() {
        for p in 2..10 {
            let s = ring_allreduce(p, ByteSize::mib(1));
            check_allreduce(&s).unwrap();
        }
    }

    #[test]
    fn single_tree_is_a_correct_allreduce() {
        for p in 2..10 {
            for overlap in [Overlap::None, Overlap::ReductionBroadcast] {
                let tree = BinaryTree::inorder(p).unwrap();
                let s = tree_allreduce(
                    std::slice::from_ref(&tree),
                    &Chunking::even(ByteSize::mib(1), 5),
                    overlap,
                );
                check_allreduce(&s).unwrap();
            }
        }
    }

    #[test]
    fn double_tree_is_a_correct_allreduce() {
        for p in 2..10 {
            for overlap in [Overlap::None, Overlap::ReductionBroadcast] {
                let dt = DoubleBinaryTree::new(p).unwrap();
                let s = tree_allreduce(dt.trees(), &Chunking::even(ByteSize::mib(1), 8), overlap);
                check_allreduce(&s).unwrap();
            }
        }
    }

    /// The paper's Fig. 5: P=4 chain-shaped tree, K=4 chunks — the
    /// conventional tree needs 10 steps, the overlapped tree 7.
    #[test]
    fn fig5_step_counts() {
        // Fig. 5 uses a 2-level tree over 4 nodes: two leaves reduce into
        // a middle node, which reduces into the root. The in-order tree on
        // 4 ranks has exactly depth 2.
        let tree = BinaryTree::inorder(4).unwrap();
        assert_eq!(tree.depth(), 2);
        let chunking = Chunking::even(ByteSize::mib(4), 4);

        let baseline = tree_allreduce(std::slice::from_ref(&tree), &chunking, Overlap::None);
        let overlapped = tree_allreduce(
            std::slice::from_ref(&tree),
            &chunking,
            Overlap::ReductionBroadcast,
        );

        let rb = execute_steps(&baseline, ChannelKeying::PerTree).unwrap();
        let ro = execute_steps(&overlapped, ChannelKeying::PerTree).unwrap();

        // reduction: depth + K - 1 = 5; broadcast likewise; baseline
        // serializes them (10 steps), overlap chains them (7 steps).
        assert_eq!(rb.num_steps, 10, "conventional tree");
        assert_eq!(ro.num_steps, 7, "overlapped tree");
    }

    /// Fig. 7 generalization: steps are 2(logP + K) vs 2logP + K.
    #[test]
    fn fig7_pipeline_depths() {
        for (p, k) in [(8usize, 6usize), (8, 12), (16, 8)] {
            let tree = BinaryTree::inorder(p).unwrap();
            let d = tree.depth();
            let chunking = Chunking::even(ByteSize::mib(8), k);
            let b = tree_allreduce(std::slice::from_ref(&tree), &chunking, Overlap::None);
            let o = tree_allreduce(
                std::slice::from_ref(&tree),
                &chunking,
                Overlap::ReductionBroadcast,
            );
            let rb = execute_steps(&b, ChannelKeying::PerTree).unwrap();
            let ro = execute_steps(&o, ChannelKeying::PerTree).unwrap();
            assert_eq!(rb.num_steps, 2 * (d + k - 1), "baseline p={p} k={k}");
            assert_eq!(ro.num_steps, 2 * d + k - 1, "overlapped p={p} k={k}");
        }
    }

    #[test]
    fn overlapped_turnaround_is_much_earlier() {
        let tree = BinaryTree::inorder(8).unwrap();
        let chunking = Chunking::even(ByteSize::mib(8), 32);
        let b = tree_allreduce(std::slice::from_ref(&tree), &chunking, Overlap::None);
        let o = tree_allreduce(
            std::slice::from_ref(&tree),
            &chunking,
            Overlap::ReductionBroadcast,
        );
        let rb = execute_steps(&b, ChannelKeying::PerTree).unwrap();
        let ro = execute_steps(&o, ChannelKeying::PerTree).unwrap();
        // Baseline: first chunk usable after the whole reduction plus its
        // broadcast; overlapped: one tree round trip.
        assert!(ro.turnaround_step() * 4 < rb.turnaround_step());
    }

    #[test]
    fn tree_delivery_is_in_order() {
        let dt = DoubleBinaryTree::new(8).unwrap();
        let chunking = Chunking::even(ByteSize::mib(8), 16);
        for overlap in [Overlap::None, Overlap::ReductionBroadcast] {
            let s = tree_allreduce(dt.trees(), &chunking, overlap);
            let r = execute_steps(&s, ChannelKeying::PerTree).unwrap();
            assert!(r.chunks_in_order(2), "overlap={overlap:?}");
        }
    }

    #[test]
    fn shared_channels_slow_down_the_double_tree() {
        // When the two trees must share channels (no doubled links), the
        // replay takes longer than with per-tree channels — the conflict
        // the paper resolves with the DGX-1's extra physical channels.
        let dt = DoubleBinaryTree::new(8).unwrap();
        let chunking = Chunking::even(ByteSize::mib(8), 16);
        let s = tree_allreduce(dt.trees(), &chunking, Overlap::ReductionBroadcast);
        let dedicated = execute_steps(&s, ChannelKeying::PerTree).unwrap();
        let shared = execute_steps(&s, ChannelKeying::SharedAcrossTrees).unwrap();
        assert!(shared.num_steps >= dedicated.num_steps);
    }

    #[test]
    fn malformed_dag_is_detected() {
        let mut b = ScheduleBuilder::new();
        b.push(
            Rank(0),
            Rank(0), // self loop
            ChunkId(0),
            ByteSize::kib(1),
            Phase::Reduce,
            TreeIndex(0),
            [],
        );
        let s = b.finish("bad", 2, Chunking::even(ByteSize::kib(1), 1));
        assert!(matches!(check_dag(&s), Err(VerifyError::MalformedDag(_))));
    }

    #[test]
    fn incomplete_schedule_fails_verification() {
        // A schedule that only reduces but never broadcasts cannot be an
        // AllReduce.
        let mut b = ScheduleBuilder::new();
        b.push(
            Rank(0),
            Rank(1),
            ChunkId(0),
            ByteSize::kib(1),
            Phase::Reduce,
            TreeIndex(0),
            [],
        );
        let s = b.finish("partial", 2, Chunking::even(ByteSize::kib(1), 1));
        assert!(matches!(
            check_allreduce(&s),
            Err(VerifyError::MissingContribution { .. })
        ));
    }
}
