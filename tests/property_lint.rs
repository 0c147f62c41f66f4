//! Property-based agreement between the static analyzer and the rest of
//! the stack, over randomized rank counts, chunk counts and overlap modes:
//!
//! * every generated schedule lints clean, completes under the symbolic
//!   verifier, and (embedded) passes the simulator's static gate;
//! * dropping a data-carrying dependency is always caught as a dataflow
//!   race (CC005) even though id-order symbolic replay still passes;
//! * remapping a logical edge onto a channel with the wrong endpoints is
//!   always caught as an invalid route (CC008).

use ccube_collectives::analyze::{analyze, analyze_embedded, gate};
use ccube_collectives::verify::check_allreduce;
use ccube_collectives::{
    ring_allreduce, tree_allreduce, AnalyzeOptions, Chunking, DoubleBinaryTree, EdgeKey, Embedding,
    LintCode, Overlap, Schedule, ScheduleBuilder, Severity, Transfer, TransferId,
};
use ccube_runtime::protocol::{DEFAULT_RING_MAILBOX_CAPACITY, DEFAULT_TREE_MAILBOX_CAPACITY};
use ccube_topology::{dgx1, ByteSize, ChannelClass, Route};
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
        prop_assert!(gate(&s, &emb, &topo).is_clean());

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
        let report = gate(&s, &emb, &topo);
        prop_assert!(
            report.diagnostics().iter().any(|d| d.code == LintCode::InvalidRoute),
            "{report}"
        );
    }

    #[test]
    fn embedded_double_trees_pass_the_gate(k in 2usize..24, overlap in overlap_strategy()) {
        let topo = dgx1();
        let dt = DoubleBinaryTree::new(8).unwrap();
        let s = tree_allreduce(dt.trees(), &Chunking::even(ByteSize::kib(512), k), overlap);
        let emb = Embedding::dgx1_double_tree(&topo, &s).unwrap();
        prop_assert!(gate(&s, &emb, &topo).is_clean());
        let report = analyze_embedded(&s, &emb, &topo, &opts(DEFAULT_TREE_MAILBOX_CAPACITY));
        prop_assert!(report.is_clean(), "{report}");
    }
}
