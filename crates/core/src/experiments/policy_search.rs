//! Schedule-policy search over the sweep executor.
//!
//! The ROADMAP's "what schedule should this machine run?" question,
//! answered by brute force: for each physical topology, sweep the
//! schedule knobs the runtime controls — chunk count, tree shape, and
//! channel arbitration policy — through the discrete-event simulator,
//! and report the configuration with the lowest AllReduce makespan.
//! Ties break on total queue wait (the [`ccube_sim::SimStats`]
//! congestion signal: a schedule that wins without queueing generalizes
//! better than one that wins by saturating a contended channel), then on
//! grid order, so the winner is deterministic.
//!
//! Every grid point is independent, so the search runs on
//! [`ccube_sim::sweep()`] and is bit-identical at any worker count.
//!
//! Before any simulation is spent, every candidate passes through the
//! static analyzer ([`ccube_collectives::analyze`]): the grid includes a
//! *naive-placement* class (the double tree dropped onto the DGX-1 with
//! the identity mapping, which collides on the doubled NVLinks), and the
//! analyzer prunes it with a channel-conflict error instead of wasting a
//! DES run on a provably conflicted schedule. [`run_full`] reports the
//! pruned candidates alongside the surviving rows.

use ccube_collectives::analyze::{self, AnalyzeOptions};
use ccube_collectives::{
    tree_allreduce, BinaryTree, Chunking, DoubleBinaryTree, Embedding, Overlap, Schedule,
};
use ccube_runtime::protocol::DEFAULT_TREE_MAILBOX_CAPACITY;
use ccube_sim::{simulate, Arbitration, SimOptions};
use ccube_topology::{dgx1, hierarchical, ByteSize, Seconds, Topology};
use std::collections::BTreeMap;
use std::fmt;

/// Tree shapes the search considers.
const SHAPES: [&str; 2] = ["single-tree", "double-tree"];

/// Chunk counts the search considers (even, so double trees split the
/// chunks evenly between the tree pair).
const CHUNKS: [usize; 5] = [4, 8, 16, 32, 64];

/// One evaluated point of the policy search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchRow {
    /// Topology name (`dgx1` or `hier16`).
    pub topology: &'static str,
    /// `single-tree` or `double-tree`.
    pub shape: &'static str,
    /// Channel arbitration policy.
    pub arbitration: Arbitration,
    /// Chunk count.
    pub k: usize,
    /// Simulated AllReduce makespan.
    pub makespan: Seconds,
    /// Total queue wait across channels — the congestion signal.
    pub queue_wait: Seconds,
    /// Whether this is the best schedule for its topology.
    pub best: bool,
}

impl fmt::Display for SearchRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<6} {:<11} {:<13} K={:<4} makespan={} wait={}{}",
            self.topology,
            self.shape,
            arbitration_name(self.arbitration),
            self.k,
            self.makespan,
            self.queue_wait,
            if self.best { "  <- best" } else { "" }
        )
    }
}

/// Stable CSV label for an arbitration policy.
pub fn arbitration_name(a: Arbitration) -> &'static str {
    match a {
        Arbitration::FifoHol => "fifo-hol",
        Arbitration::ChunkPriority => "chunk-priority",
    }
}

/// One grid point: which topology, which knob settings.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Point {
    topology: &'static str,
    shape: &'static str,
    /// `aware` = the topology-matched placement the experiments ship;
    /// `naive` = the identity placement of the same schedule (invalid on
    /// the DGX-1 for the double tree — kept in the grid so the static
    /// gate has something real to prune).
    placement: &'static str,
    arbitration: Arbitration,
    k: usize,
}

/// The knobs of a grid point that fix its schedule and embedding.
/// Arbitration only steers the simulator, so the two arbitration points
/// of a structure share its lint verdict and its certified bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Structure {
    topology: &'static str,
    shape: &'static str,
    placement: &'static str,
    k: usize,
}

impl Point {
    fn structure(&self) -> Structure {
        Structure {
            topology: self.topology,
            shape: self.shape,
            placement: self.placement,
            k: self.k,
        }
    }
}

fn build_candidate(
    topo: &Topology,
    ranks: usize,
    structure: &Structure,
    n: ByteSize,
) -> (Schedule, Embedding) {
    let chunking = Chunking::even(n, structure.k);
    let schedule = if structure.shape == "single-tree" {
        let tree = BinaryTree::inorder(ranks).expect("valid rank count");
        tree_allreduce(
            std::slice::from_ref(&tree),
            &chunking,
            Overlap::ReductionBroadcast,
        )
    } else {
        let dt = DoubleBinaryTree::new(ranks).expect("valid rank count");
        tree_allreduce(dt.trees(), &chunking, Overlap::ReductionBroadcast)
    };
    let emb = match (structure.topology, structure.shape, structure.placement) {
        (_, _, "naive") | ("dgx1", "single-tree", _) => Embedding::identity(topo, &schedule),
        ("dgx1", "double-tree", _) => Embedding::dgx1_double_tree(topo, &schedule),
        _ => Embedding::nic(topo, &schedule),
    }
    .expect("embeddable");
    (schedule, emb)
}

fn evaluate(topo: &Topology, ranks: usize, point: &Point, n: ByteSize) -> (Seconds, Seconds) {
    let (schedule, emb) = build_candidate(topo, ranks, &point.structure(), n);
    // The search only reads timings and counters, so it takes the
    // trace-off fast path.
    let opts = SimOptions {
        arbitration: point.arbitration,
        ..SimOptions::default()
    }
    .without_trace();
    let report = simulate(topo, &schedule, &emb, &opts).expect("simulates");
    (report.makespan(), report.stats().total_queue_wait())
}

/// A candidate the static gate rejected before simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct PrunedCandidate {
    /// Topology name.
    pub topology: &'static str,
    /// Tree shape.
    pub shape: &'static str,
    /// Placement class (`naive` for the identity placement).
    pub placement: &'static str,
    /// Channel arbitration policy.
    pub arbitration: Arbitration,
    /// Chunk count.
    pub k: usize,
    /// Number of error-severity diagnostics.
    pub errors: usize,
    /// The first error's lint code (e.g. `CC009`).
    pub code: String,
}

impl fmt::Display for PrunedCandidate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<6} {:<11} {:<6} {:<13} K={:<4} pruned: {} error(s), first {}",
            self.topology,
            self.shape,
            self.placement,
            arbitration_name(self.arbitration),
            self.k,
            self.errors,
            self.code
        )
    }
}

/// The full search result: surviving rows plus what the gate pruned.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// Simulated rows (candidates that linted clean), winners marked.
    pub rows: Vec<SearchRow>,
    /// Candidates rejected by the static analyzer, in grid order.
    pub pruned: Vec<PrunedCandidate>,
}

/// Runs the search serially (64 MiB message): the rows of [`run_full`].
pub fn run() -> Vec<SearchRow> {
    run_full(1).rows
}

/// The machines the search covers.
fn machines() -> [(&'static str, usize, Topology); 2] {
    [("dgx1", 8, dgx1()), ("hier16", 16, hierarchical(16))]
}

/// The rank count and topology of the machine `name`.
fn machine<'a>(
    machines: &'a [(&'static str, usize, Topology)],
    name: &str,
) -> (usize, &'a Topology) {
    let (_, ranks, topo) = machines
        .iter()
        .find(|(machine, _, _)| *machine == name)
        .expect("known topology");
    (*ranks, topo)
}

/// The full candidate grid, in stable grid order.
fn grid_points(machines: &[(&'static str, usize, Topology)]) -> Vec<Point> {
    let mut points = Vec::new();
    for (name, _, _) in machines {
        for shape in SHAPES {
            for arbitration in [Arbitration::FifoHol, Arbitration::ChunkPriority] {
                for k in CHUNKS {
                    points.push(Point {
                        topology: name,
                        shape,
                        placement: "aware",
                        arbitration,
                        k,
                    });
                }
            }
        }
    }
    // The naive-placement class: the double tree dropped onto the DGX-1
    // with the identity mapping (the paper's doubled-NVLink hazard).
    for arbitration in [Arbitration::FifoHol, Arbitration::ChunkPriority] {
        for k in CHUNKS {
            points.push(Point {
                topology: "dgx1",
                shape: "double-tree",
                placement: "naive",
                arbitration,
                k,
            });
        }
    }
    points
}

/// The analyzer options of the static gate: the runtime's bounded tree
/// mailboxes are modelled, so a back-pressure deadlock is pruned too.
fn gate_options() -> AnalyzeOptions {
    AnalyzeOptions {
        mailbox_capacity: Some(DEFAULT_TREE_MAILBOX_CAPACITY),
        ..AnalyzeOptions::default()
    }
}

/// Runs the static analyzer gate over `points`, splitting them into
/// survivors (simulable) and pruned candidates, both in grid order. Each
/// structure is linted once; its verdict — `None` when clean, else the
/// error count and the first error's code — applies to every point of it.
fn static_gate(
    machines: &[(&'static str, usize, Topology)],
    points: Vec<Point>,
    n: ByteSize,
) -> (Vec<Point>, Vec<PrunedCandidate>) {
    // Serial: linting is cheap relative to a DES run, and order
    // determinism keeps the log stable.
    let lint_opts = gate_options();
    let mut verdicts: BTreeMap<Structure, Option<(usize, &'static str)>> = BTreeMap::new();
    let mut survivors = Vec::with_capacity(points.len());
    let mut pruned = Vec::new();
    for point in points {
        let structure = point.structure();
        let verdict = *verdicts.entry(structure).or_insert_with(|| {
            let (ranks, topo) = machine(machines, structure.topology);
            let (schedule, emb) = build_candidate(topo, ranks, &structure, n);
            let report = analyze::analyze_embedded(&schedule, &emb, topo, &lint_opts);
            let first = report.errors().next()?;
            Some((report.errors().count(), first.code.as_str()))
        });
        match verdict {
            None => survivors.push(point),
            Some((errors, code)) => pruned.push(PrunedCandidate {
                topology: point.topology,
                shape: point.shape,
                placement: point.placement,
                arbitration: point.arbitration,
                k: point.k,
                errors,
                code: code.to_string(),
            }),
        }
    }
    (survivors, pruned)
}

/// The certified lower bound of each point, computed once per structure
/// ([`makespan_lower_bound`](ccube_collectives::makespan_lower_bound)
/// takes no arbitration). The default `LinkTiming` is the timing
/// `evaluate`'s default `SimOptions` lowers with, so the certificate
/// matches the simulation it prunes.
fn certified_bounds(
    machines: &[(&'static str, usize, Topology)],
    points: &[Point],
    n: ByteSize,
) -> Vec<Seconds> {
    let mut by_structure: BTreeMap<Structure, Seconds> = BTreeMap::new();
    points
        .iter()
        .map(|point| {
            let structure = point.structure();
            *by_structure.entry(structure).or_insert_with(|| {
                let (ranks, topo) = machine(machines, structure.topology);
                let (schedule, emb) = build_candidate(topo, ranks, &structure, n);
                ccube_collectives::makespan_lower_bound(
                    &schedule,
                    &emb,
                    topo,
                    &ccube_collectives::LinkTiming::default(),
                )
                .expect("gate survivor lowers")
            })
        })
        .collect()
}

/// Marks the winner per topology: lowest makespan, ties by congestion,
/// then by grid order (the index the rows already preserve).
fn mark_winners(rows: &mut [SearchRow], machines: &[(&'static str, usize, Topology)]) {
    for (name, _, _) in machines {
        let best = rows
            .iter()
            .enumerate()
            .filter(|(_, r)| r.topology == *name)
            .min_by(|(_, a), (_, b)| (a.makespan, a.queue_wait).cmp(&(b.makespan, b.queue_wait)))
            .map(|(i, _)| i)
            .expect("topology has rows");
        rows[best].best = true;
    }
}

/// Runs the full search grid — topology × tree shape × arbitration ×
/// chunk count — on `threads` sweep workers and marks the best schedule
/// per topology (`ccube search`). Deterministic at any worker count.
/// The grid is extended with the naive-placement candidate class, every
/// candidate is linted first, and candidates with error-severity
/// diagnostics are pruned (never simulated) and reported.
pub fn run_full(threads: usize) -> SearchOutcome {
    let n = ByteSize::mib(64);
    let machines = machines();
    let (survivors, pruned) = static_gate(&machines, grid_points(&machines), n);

    let mut rows = ccube_sim::sweep(&survivors, threads, |_, point| {
        let (ranks, topo) = machine(&machines, point.topology);
        let (makespan, queue_wait) = evaluate(topo, ranks, point, n);
        SearchRow {
            topology: point.topology,
            shape: point.shape,
            arbitration: point.arbitration,
            k: point.k,
            makespan,
            queue_wait,
            best: false,
        }
    });
    mark_winners(&mut rows, &machines);
    SearchOutcome { rows, pruned }
}

/// A candidate the certified lower bound skipped (never simulated): its
/// bound already exceeded an incumbent's *simulated* makespan.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundSkipped {
    /// Topology name.
    pub topology: &'static str,
    /// Tree shape.
    pub shape: &'static str,
    /// Channel arbitration policy.
    pub arbitration: Arbitration,
    /// Chunk count.
    pub k: usize,
    /// The certified lower bound that proved the skip safe.
    pub bound: Seconds,
}

impl fmt::Display for BoundSkipped {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<6} {:<11} {:<13} K={:<4} skipped: bound {} exceeds incumbent",
            self.topology,
            self.shape,
            arbitration_name(self.arbitration),
            self.k,
            self.bound,
        )
    }
}

/// The bound-pruned search result.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundedOutcome {
    /// Simulated rows in grid order, winners marked. Each row is
    /// byte-identical to the corresponding [`run_full`] row; skipped
    /// candidates are absent.
    pub rows: Vec<SearchRow>,
    /// Candidates rejected by the static analyzer, in grid order
    /// (identical to [`run_full`]'s).
    pub pruned: Vec<PrunedCandidate>,
    /// Candidates the lower bound skipped, in grid order.
    pub skipped: Vec<BoundSkipped>,
    /// Candidates that survived the static gate (the simulation count
    /// [`run_full`] would have paid).
    pub candidates: usize,
    /// Candidates actually simulated (`candidates - skipped.len()`).
    pub simulated: usize,
}

/// [`run_full`] with certified-lower-bound pruning: per topology, the
/// static-gate survivors are simulated in ascending order of their
/// [`makespan_lower_bound`](ccube_collectives::makespan_lower_bound),
/// and a candidate whose bound strictly exceeds the best makespan
/// simulated so far is skipped outright.
///
/// The skip is provably winner-preserving: a skipped candidate's true
/// makespan is at least its bound (the property-tested certificate),
/// which strictly exceeds the incumbent, which is at least the final
/// minimum — so the winner, its tie-break, and every simulated row are
/// identical to [`run_full`]'s, only fewer DES runs are paid.
pub fn run_bounded() -> BoundedOutcome {
    let n = ByteSize::mib(64);
    let machines = machines();
    let (survivors, pruned) = static_gate(&machines, grid_points(&machines), n);
    let candidates = survivors.len();

    let bounds = certified_bounds(&machines, &survivors, n);

    let mut results: Vec<Option<SearchRow>> = vec![None; survivors.len()];
    let mut skipped_at: Vec<usize> = Vec::new();
    for (name, ranks, topo) in &machines {
        // Bound-ascending order (ties by grid index) maximizes the
        // chance of meeting the eventual winner early.
        let mut order: Vec<usize> = (0..survivors.len())
            .filter(|&i| survivors[i].topology == *name)
            .collect();
        order.sort_by_key(|&i| (bounds[i], i));
        let mut incumbent: Option<Seconds> = None;
        for i in order {
            if incumbent.is_some_and(|inc| bounds[i] > inc) {
                skipped_at.push(i);
                continue;
            }
            let (makespan, queue_wait) = evaluate(topo, *ranks, &survivors[i], n);
            incumbent = Some(incumbent.map_or(makespan, |inc| inc.min(makespan)));
            results[i] = Some(SearchRow {
                topology: survivors[i].topology,
                shape: survivors[i].shape,
                arbitration: survivors[i].arbitration,
                k: survivors[i].k,
                makespan,
                queue_wait,
                best: false,
            });
        }
    }

    let mut rows: Vec<SearchRow> = results.into_iter().flatten().collect();
    mark_winners(&mut rows, &machines);
    skipped_at.sort_unstable();
    let skipped: Vec<BoundSkipped> = skipped_at
        .into_iter()
        .map(|i| BoundSkipped {
            topology: survivors[i].topology,
            shape: survivors[i].shape,
            arbitration: survivors[i].arbitration,
            k: survivors[i].k,
            bound: bounds[i],
        })
        .collect();
    let simulated = candidates - skipped.len();
    BoundedOutcome {
        rows,
        pruned,
        skipped,
        candidates,
        simulated,
    }
}

/// The winning row for a topology.
pub fn best_for<'a>(rows: &'a [SearchRow], topology: &str) -> &'a SearchRow {
    rows.iter()
        .find(|r| r.best && r.topology == topology)
        .expect("topology searched")
}

/// Renders search rows as CSV.
pub fn to_csv(rows: &[SearchRow]) -> String {
    let mut out = String::from("topology,shape,arbitration,k,makespan_us,queue_wait_us,best\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{:.2},{:.2},{}\n",
            r.topology,
            r.shape,
            arbitration_name(r.arbitration),
            r.k,
            r.makespan.as_micros(),
            r.queue_wait.as_micros(),
            r.best
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_covers_the_grid_and_crowns_one_winner_per_topology() {
        let rows = run();
        // 2 topologies x 2 shapes x 2 arbitrations x 5 chunk counts.
        assert_eq!(rows.len(), 2 * 2 * 2 * CHUNKS.len());
        for topo in ["dgx1", "hier16"] {
            let winners: Vec<_> = rows
                .iter()
                .filter(|r| r.topology == topo && r.best)
                .collect();
            assert_eq!(winners.len(), 1, "{topo}: {} winners", winners.len());
            // The winner really is the makespan minimum.
            let min = rows
                .iter()
                .filter(|r| r.topology == topo)
                .map(|r| r.makespan)
                .min()
                .unwrap();
            assert_eq!(winners[0].makespan, min);
        }
    }

    #[test]
    fn search_is_deterministic_across_worker_counts() {
        let serial = run();
        for threads in [2, 8] {
            assert_eq!(run_full(threads).rows, serial);
        }
    }

    #[test]
    fn naive_placement_class_is_pruned_before_simulation() {
        let outcome = run_full(1);
        // Every naive-placement candidate (2 arbitrations x |CHUNKS|)
        // fails the static gate with the doubled-NVLink channel conflict;
        // none reaches the simulator.
        assert_eq!(outcome.pruned.len(), 2 * CHUNKS.len());
        for p in &outcome.pruned {
            assert_eq!(p.placement, "naive");
            assert_eq!(p.code, "CC009", "{p}");
            assert!(p.errors > 0);
        }
        // The surviving rows are exactly the original grid.
        assert_eq!(outcome.rows, run());
    }

    #[test]
    fn per_structure_gate_and_bounds_match_a_direct_call_on_every_point() {
        // The gate lints, and the bound is certified, once per structure;
        // on every grid point the result must equal a direct call there.
        let n = ByteSize::mib(64);
        let machines = machines();
        let points = grid_points(&machines);
        let (survivors, pruned) = static_gate(&machines, points.clone(), n);
        let bounds = certified_bounds(&machines, &survivors, n);
        let (mut s, mut p) = (0, 0);
        for point in &points {
            let (ranks, topo) = machine(&machines, point.topology);
            let (schedule, emb) = build_candidate(topo, ranks, &point.structure(), n);
            let report = analyze::analyze_embedded(&schedule, &emb, topo, &gate_options());
            let first_error = report.errors().next().map(|d| d.code.as_str());
            if let Some(code) = first_error {
                let entry = &pruned[p];
                assert_eq!(
                    (
                        entry.topology,
                        entry.shape,
                        entry.placement,
                        entry.arbitration,
                        entry.k
                    ),
                    (
                        point.topology,
                        point.shape,
                        point.placement,
                        point.arbitration,
                        point.k
                    )
                );
                assert_eq!(entry.errors, report.errors().count(), "{entry}");
                assert_eq!(entry.code, code, "{entry}");
                p += 1;
            } else {
                assert_eq!(&survivors[s], point);
                let direct = ccube_collectives::makespan_lower_bound(
                    &schedule,
                    &emb,
                    topo,
                    &ccube_collectives::LinkTiming::default(),
                )
                .expect("survivor lowers");
                assert_eq!(bounds[s], direct, "{point:?}");
                s += 1;
            }
        }
        assert_eq!((s, p), (survivors.len(), pruned.len()));
    }

    #[test]
    fn bounded_search_matches_full_while_simulating_fewer() {
        let full = run_full(1);
        let bounded = run_bounded();
        // The static gate is shared: identical pruning log.
        assert_eq!(bounded.pruned, full.pruned);
        assert_eq!(bounded.candidates, full.rows.len());
        // The bound must actually pay for itself.
        assert!(
            bounded.simulated < bounded.candidates,
            "bound pruning skipped nothing ({} of {})",
            bounded.simulated,
            bounded.candidates
        );
        assert_eq!(bounded.rows.len(), bounded.simulated);
        assert_eq!(
            bounded.simulated + bounded.skipped.len(),
            bounded.candidates
        );
        // Every simulated row is byte-identical to run_full's row for
        // the same candidate — best flags included.
        let full_csv = to_csv(&full.rows);
        for r in &bounded.rows {
            let twin = full
                .rows
                .iter()
                .find(|f| {
                    f.topology == r.topology
                        && f.shape == r.shape
                        && f.arbitration == r.arbitration
                        && f.k == r.k
                })
                .expect("bounded row exists in the full grid");
            assert_eq!(r, twin);
        }
        for line in to_csv(&bounded.rows).lines().skip(1) {
            assert!(full_csv.contains(line), "CSV line diverged: {line}");
        }
        // Winners are unchanged.
        for topo in ["dgx1", "hier16"] {
            assert_eq!(best_for(&bounded.rows, topo), best_for(&full.rows, topo));
        }
        // The certificate held on everything it skipped: the skipped
        // candidate's full-grid makespan really is above its bound.
        for s in &bounded.skipped {
            let twin = full
                .rows
                .iter()
                .find(|f| {
                    f.topology == s.topology
                        && f.shape == s.shape
                        && f.arbitration == s.arbitration
                        && f.k == s.k
                })
                .expect("skipped row exists in the full grid");
            assert!(twin.makespan >= s.bound, "{s}: sim {}", twin.makespan);
            assert!(!twin.best, "bound pruning skipped the winner: {s}");
        }
    }

    #[test]
    fn double_tree_beats_single_tree_on_dgx1() {
        // The paper's core claim, recovered by the search: on the DGX-1
        // the conflict-free double-tree embedding outperforms a single
        // tree at the same chunk count.
        let rows = run();
        let best = best_for(&rows, "dgx1");
        assert_eq!(best.shape, "double-tree");
    }
}
