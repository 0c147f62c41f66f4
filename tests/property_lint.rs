//! Property-based agreement between the static analyzer and the rest of
//! the stack, over randomized rank counts, chunk counts and overlap modes:
//!
//! * every generated schedule lints clean, completes under the symbolic
//!   verifier, and (embedded) passes the lowering, the one input gate;
//! * dropping a data-carrying dependency is always caught as a dataflow
//!   race (CC005) even though id-order symbolic replay still passes;
//! * remapping a logical edge onto a channel with the wrong endpoints is
//!   always caught as an invalid route (CC008), by the analyzer, the
//!   lowering and the simulator alike;
//! * the lowering rejects a hand-built schedule or embedding exactly
//!   when the analyzer reports a CC001/CC007/CC008 finding, and its
//!   error carries one of the reported codes.

use ccube_collectives::analyze::{analyze, analyze_embedded, push_lower_error};
use ccube_collectives::verify::check_allreduce;
use ccube_collectives::{
    ring_allreduce, tree_allreduce, AnalyzeOptions, ChunkId, Chunking, DoubleBinaryTree, EdgeKey,
    Embedding, LintCode, LintReport, LowerError, Overlap, PreparedLowering, Rank, Schedule,
    ScheduleBuilder, Severity, Transfer, TransferId,
};
use ccube_runtime::protocol::{DEFAULT_RING_MAILBOX_CAPACITY, DEFAULT_TREE_MAILBOX_CAPACITY};
use ccube_sim::{simulate, SimError, SimOptions};
use ccube_topology::{dgx1, ByteSize, ChannelClass, GpuId, Route};
use proptest::prelude::*;

fn overlap_strategy() -> impl Strategy<Value = Overlap> {
    prop_oneof![Just(Overlap::None), Just(Overlap::ReductionBroadcast)]
}

fn opts(capacity: usize) -> AnalyzeOptions {
    AnalyzeOptions {
        mailbox_capacity: Some(capacity),
        ..AnalyzeOptions::default()
    }
}

/// Drop every data-carrying dependency (same chunk, producing into the
/// transfer's source or destination buffer) from the first transfer that
/// has one. Returns `None` when no transfer carries such a dependency.
fn drop_data_dep(s: &Schedule) -> Option<Schedule> {
    let carries = |t: &Transfer, d: &TransferId| {
        let dep = &s.transfers()[d.index()];
        dep.chunk == t.chunk && (dep.dst == t.src || dep.dst == t.dst)
    };
    let victim = s
        .transfers()
        .iter()
        .position(|t| s.deps(t.id).iter().any(|d| carries(t, d)))?;
    let mut b = ScheduleBuilder::new();
    for t in s.transfers() {
        let deps = s.deps(t.id).iter().copied();
        let dropped = t.id.index() == victim;
        b.push(
            t.src,
            t.dst,
            t.chunk,
            t.bytes,
            t.phase,
            t.tree,
            deps.filter(|d| !(dropped && carries(t, d))),
        );
    }
    Some(b.finish(
        s.algorithm().to_string(),
        s.num_ranks(),
        s.chunking().clone(),
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn clean_lint_agrees_with_the_verifier_for_rings(p in 2usize..24, kib in 1u64..512) {
        let s = ring_allreduce(p, ByteSize::kib(kib));
        let report = analyze(&s, &opts(DEFAULT_RING_MAILBOX_CAPACITY));
        prop_assert!(report.is_clean(), "{report}");
        prop_assert_eq!(report.count(Severity::Warn), 0);
        check_allreduce(&s).unwrap();
    }

    #[test]
    fn clean_lint_agrees_with_the_verifier_for_trees(
        p in 2usize..20,
        k in 2usize..24,
        overlap in overlap_strategy(),
    ) {
        let dt = DoubleBinaryTree::new(p).unwrap();
        let s = tree_allreduce(dt.trees(), &Chunking::even(ByteSize::kib(256), k), overlap);
        let report = analyze(&s, &opts(DEFAULT_TREE_MAILBOX_CAPACITY));
        prop_assert!(report.is_clean(), "{report}");
        prop_assert_eq!(report.count(Severity::Warn), 0);
        check_allreduce(&s).unwrap();
    }

    #[test]
    fn dropped_data_dependency_is_always_a_race(
        p in 3usize..16,
        k in 2usize..16,
        overlap in overlap_strategy(),
    ) {
        let dt = DoubleBinaryTree::new(p).unwrap();
        let good = tree_allreduce(dt.trees(), &Chunking::even(ByteSize::kib(256), k), overlap);
        let mutated = drop_data_dep(&good).expect("double trees carry data deps");
        // The id-order symbolic replay still passes: the bug is invisible
        // to the completion check, only the analyzer's ordering pass sees it.
        check_allreduce(&mutated).unwrap();
        let report = analyze(&mutated, &AnalyzeOptions::default());
        prop_assert!(
            report.diagnostics().iter().any(|d| d.code == LintCode::DataflowRace),
            "{report}"
        );
    }

    #[test]
    fn wrong_endpoint_remap_is_always_an_invalid_route(
        kib in 1u64..256,
        edge_seed in 0usize..64,
        chan_seed in 0usize..64,
    ) {
        let topo = dgx1();
        let s = ring_allreduce(8, ByteSize::kib(kib));
        let mut emb = Embedding::identity(&topo, &s).unwrap();
        prop_assert!(PreparedLowering::new(&s, &emb, &topo).is_ok());

        let edges = s.edges();
        let (src, dst, tree) = edges[edge_seed % edges.len()];
        let edge = EdgeKey { src, dst, tree };
        let wrong_src: Vec<_> = topo
            .channels()
            .iter()
            .filter(|c| c.src() != emb.gpu_of(edge.src))
            .collect();
        let wrong = wrong_src[chan_seed % wrong_src.len()];
        emb.set_route(
            edge,
            Route::multi(
                emb.gpu_of(edge.src),
                emb.gpu_of(edge.dst),
                vec![wrong.id()],
                ChannelClass::NvLink,
            ),
        )
        .unwrap();
        let report = analyze_embedded(&s, &emb, &topo, &AnalyzeOptions::default());
        prop_assert!(
            report.diagnostics().iter().any(|d| d.code == LintCode::InvalidRoute),
            "{report}"
        );
        let lowered = PreparedLowering::new(&s, &emb, &topo);
        prop_assert!(
            matches!(&lowered, Err(LowerError::InvalidRoute { edge: e, .. }) if *e == edge),
            "{lowered:?}"
        );
        let simulated = simulate(&topo, &s, &emb, &SimOptions::default());
        prop_assert_eq!(simulated.err(), Some(SimError::Lowering(lowered.unwrap_err())));
    }

    #[test]
    fn embedded_double_trees_pass_the_gate(k in 2usize..24, overlap in overlap_strategy()) {
        let topo = dgx1();
        let dt = DoubleBinaryTree::new(8).unwrap();
        let s = tree_allreduce(dt.trees(), &Chunking::even(ByteSize::kib(512), k), overlap);
        let emb = Embedding::dgx1_double_tree(&topo, &s).unwrap();
        prop_assert!(PreparedLowering::new(&s, &emb, &topo).is_ok());
        let report = analyze_embedded(&s, &emb, &topo, &opts(DEFAULT_TREE_MAILBOX_CAPACITY));
        prop_assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn the_lowering_fails_exactly_when_the_analyzer_reports_an_input_error(
        p in 2usize..8,
        tree in 0u8..2,
        defect in defect_strategy(),
        victim_seed in 0usize..1024,
        swap_route in 0u8..2,
    ) {
        let topo = dgx1();
        let s = if tree == 1 {
            let dt = DoubleBinaryTree::new(p.max(3)).unwrap();
            let chunking = Chunking::even(ByteSize::kib(64), 1 + victim_seed % 4);
            tree_allreduce(dt.trees(), &chunking, Overlap::ReductionBroadcast)
        } else {
            ring_allreduce(p, ByteSize::kib(64))
        };
        let s = plant(&s, defect, victim_seed % s.transfers().len());
        // Every GPU is placed, so an out-of-range rank still embeds.
        let gpus = (0..topo.num_gpus() as u32).map(GpuId).collect();
        let mut emb = Embedding::with_mapping(&topo, &s, gpus, false).unwrap();
        if swap_route == 1 && s.edges().len() > 1 {
            let key = |(src, dst, tree)| EdgeKey { src, dst, tree };
            let other = emb.route(&key(s.edges()[1])).unwrap().clone();
            emb.set_route(key(s.edges()[0]), other).unwrap();
        }

        let report = analyze_embedded(&s, &emb, &topo, &AnalyzeOptions::default());
        let input_codes = [LintCode::MalformedDag, LintCode::MissingRoute, LintCode::InvalidRoute];
        let found: Vec<LintCode> = report
            .diagnostics()
            .iter()
            .map(|d| d.code)
            .filter(|c| input_codes.contains(c))
            .collect();
        match PreparedLowering::new(&s, &emb, &topo) {
            Ok(_) => prop_assert!(found.is_empty(), "{report}"),
            Err(err) => {
                let mut alone = LintReport::default();
                push_lower_error(&mut alone, &err);
                let code = alone.diagnostics()[0].code;
                prop_assert!(found.contains(&code), "{err} ({code}) not in {report}");
            }
        }
    }
}

/// One structural defect [`ScheduleBuilder::finish_unchecked`] lets a
/// schedule carry.
#[derive(Debug, Clone, Copy)]
enum Defect {
    None,
    ForwardDep,
    OutOfRangeDep,
    RankOutOfRange,
    ChunkOutOfRange,
}

fn defect_strategy() -> impl Strategy<Value = Defect> {
    prop_oneof![
        Just(Defect::None),
        Just(Defect::ForwardDep),
        Just(Defect::OutOfRangeDep),
        Just(Defect::RankOutOfRange),
        Just(Defect::ChunkOutOfRange),
    ]
}

/// `s` rebuilt with `defect` planted at transfer `victim`.
fn plant(s: &Schedule, defect: Defect, victim: usize) -> Schedule {
    let n = s.transfers().len();
    let mut b = ScheduleBuilder::new();
    for t in s.transfers() {
        let mut deps = s.deps(t.id).to_vec();
        let (mut dst, mut chunk) = (t.dst, t.chunk);
        if t.id.index() == victim {
            match defect {
                Defect::None => {}
                Defect::ForwardDep => deps.push(TransferId((victim + 1).min(n - 1) as u32)),
                Defect::OutOfRangeDep => deps.push(TransferId((n + victim) as u32)),
                Defect::RankOutOfRange => dst = Rank(s.num_ranks() as u32),
                Defect::ChunkOutOfRange => {
                    chunk = ChunkId((s.chunking().num_chunks() + victim % 3) as u32)
                }
            }
        }
        b.push(t.src, dst, chunk, t.bytes, t.phase, t.tree, deps);
    }
    b.finish_unchecked(s.algorithm(), s.num_ranks(), s.chunking().clone())
}
