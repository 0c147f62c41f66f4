//! The `ccube lint` case library: named (schedule, embedding, topology)
//! configurations run through the static analyzer.
//!
//! The first group covers every configuration the shipped experiments
//! simulate (they must lint with zero errors); the second group contains
//! deliberately broken demonstrations — the doubled-NVLink conflict of a
//! naive double-tree placement, a forced shared-channel detour, and a
//! seeded dependency deadlock — that show the analyzer's witnesses.

use ccube_collectives::analyze::{self, AnalyzeOptions, LintReport};
use ccube_collectives::{
    analyze_physical, ring_allreduce, tree_allreduce, BinaryTree, ChunkId, Chunking,
    DoubleBinaryTree, EdgeKey, Embedding, Overlap, Phase, PhysicalAnalyzeOptions, Rank, Schedule,
    ScheduleBuilder, TransferId, TreeIndex,
};
use ccube_runtime::protocol::{DEFAULT_RING_MAILBOX_CAPACITY, DEFAULT_TREE_MAILBOX_CAPACITY};
use ccube_sim::{analyze_severance, forever, FaultEvent, FaultPlan, SimOptions};
use ccube_topology::{
    dgx1, hierarchical, ByteSize, ChannelId, FabricConfig, FabricGraph, Route, Seconds, Topology,
};

/// The named lint cases, in report order.
pub const CASES: [(&str, &str); 8] = [
    (
        "dgx1-cc",
        "overlapped double tree on the DGX-1's conflict-free placement (the CC schedule)",
    ),
    (
        "dgx1-baseline",
        "baseline double tree on the DGX-1's conflict-free placement",
    ),
    (
        "dgx1-single",
        "overlapped single tree on the DGX-1, identity placement",
    ),
    (
        "dgx1-ring",
        "ring AllReduce on the DGX-1, identity placement",
    ),
    (
        "hier16",
        "overlapped double tree across the 16-GPU switch fabric (NIC routes)",
    ),
    (
        "dgx1-naive-double",
        "DEMO: double tree placed naively (identity) — collides on the doubled NVLinks",
    ),
    (
        "conflict",
        "DEMO: single tree with a forced detour sharing another edge's channel",
    ),
    (
        "deadlock",
        "DEMO: seeded dependency cycle (two transfers waiting on each other)",
    ),
];

/// The outcome of linting one named case.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// The case name (`dgx1-cc`, ...).
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// The linted schedule's algorithm name.
    pub algorithm: String,
    /// The topology the embedding targets.
    pub topology: &'static str,
    /// The analyzer's findings.
    pub report: LintReport,
}

impl CaseReport {
    /// Renders this case as the `--json` object: stable key order, the
    /// report nested under `"report"`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"case\":\"{}\",\"algorithm\":\"{}\",\"topology\":\"{}\",\"report\":{}}}",
            self.name,
            self.algorithm,
            self.topology,
            self.report.to_json()
        )
    }
}

fn tree_opts() -> AnalyzeOptions {
    AnalyzeOptions {
        mailbox_capacity: Some(DEFAULT_TREE_MAILBOX_CAPACITY),
        ..AnalyzeOptions::default()
    }
}

fn ring_opts() -> AnalyzeOptions {
    AnalyzeOptions {
        mailbox_capacity: Some(DEFAULT_RING_MAILBOX_CAPACITY),
        ..AnalyzeOptions::default()
    }
}

fn lint_embedded(
    name: &'static str,
    description: &'static str,
    topology: &'static str,
    topo: &Topology,
    schedule: &Schedule,
    embedding: &Embedding,
    opts: &AnalyzeOptions,
) -> CaseReport {
    CaseReport {
        name,
        description,
        algorithm: schedule.algorithm().to_string(),
        topology,
        report: analyze::analyze_embedded(schedule, embedding, topo, opts),
    }
}

fn double_tree(ranks: usize, k: usize, overlap: Overlap) -> Schedule {
    let dt = DoubleBinaryTree::new(ranks).expect("valid rank count");
    tree_allreduce(dt.trees(), &Chunking::even(ByteSize::mib(64), k), overlap)
}

fn single_tree(ranks: usize, k: usize) -> Schedule {
    let tree = BinaryTree::inorder(ranks).expect("valid rank count");
    tree_allreduce(
        std::slice::from_ref(&tree),
        &Chunking::even(ByteSize::mib(64), k),
        Overlap::ReductionBroadcast,
    )
}

/// Builds the forced shared-channel embedding of the `conflict` demo: the
/// first pair of same-source logical edges where the second can be
/// detoured through the first's destination is rerouted over the first
/// edge's channel, so both edges occupy it.
fn forced_conflict_embedding(topo: &Topology, schedule: &Schedule) -> Embedding {
    let mut emb = Embedding::identity(topo, schedule).expect("embeddable");
    let edges = schedule.edges();
    for (i, &(src1, dst1, tree1)) in edges.iter().enumerate() {
        for &(src2, dst2, tree2) in &edges[i + 1..] {
            if src2 != src1 || (dst2, tree2) == (dst1, tree1) {
                continue;
            }
            let e1 = EdgeKey {
                src: src1,
                dst: dst1,
                tree: tree1,
            };
            let e2 = EdgeKey {
                src: src2,
                dst: dst2,
                tree: tree2,
            };
            let (g1, g2, g3) = (emb.gpu_of(src1), emb.gpu_of(dst1), emb.gpu_of(dst2));
            // e2 will ride e1's first channel to dst1, then hop onward.
            let Some(route1) = emb.route(&e1) else {
                continue;
            };
            let first = route1.channels()[0];
            if topo.channel(first).dst() != g2 {
                continue; // e1 itself is a detour; keep looking
            }
            let Some(&onward) = topo.channels_between(g2, g3).first() else {
                continue;
            };
            emb.set_route(e2, Route::detour(g1, g3, g2, vec![first, onward]))
                .expect("e2 is in the schedule's edge table");
            return emb;
        }
    }
    unreachable!("a detourable same-source edge pair exists on the DGX-1")
}

/// Builds the `deadlock` demo schedule: two transfers that wait on each
/// other (a forward dependency closing a 2-cycle).
fn seeded_deadlock_schedule() -> Schedule {
    let mut b = ScheduleBuilder::new();
    for (src, dst, dep) in [(0, 1, 1), (1, 0, 0)] {
        b.push(
            Rank(src),
            Rank(dst),
            ChunkId(0),
            ByteSize::kib(4),
            Phase::Reduce,
            TreeIndex(0),
            [TransferId(dep)],
        );
    }
    b.finish_unchecked("seeded-deadlock", 2, Chunking::even(ByteSize::kib(8), 1))
}

/// Runs one named case, or `None` if the name is unknown.
pub fn run_case(name: &str) -> Option<CaseReport> {
    let description = CASES.iter().find(|(n, _)| *n == name)?.1;
    let report = match name {
        "dgx1-cc" => {
            let topo = dgx1();
            let s = double_tree(8, 32, Overlap::ReductionBroadcast);
            let e = Embedding::dgx1_double_tree(&topo, &s).expect("embeddable");
            lint_embedded("dgx1-cc", description, "dgx1", &topo, &s, &e, &tree_opts())
        }
        "dgx1-baseline" => {
            let topo = dgx1();
            let s = double_tree(8, 32, Overlap::None);
            let e = Embedding::dgx1_double_tree(&topo, &s).expect("embeddable");
            lint_embedded(
                "dgx1-baseline",
                description,
                "dgx1",
                &topo,
                &s,
                &e,
                &tree_opts(),
            )
        }
        "dgx1-single" => {
            let topo = dgx1();
            let s = single_tree(8, 32);
            let e = Embedding::identity(&topo, &s).expect("embeddable");
            lint_embedded(
                "dgx1-single",
                description,
                "dgx1",
                &topo,
                &s,
                &e,
                &tree_opts(),
            )
        }
        "dgx1-ring" => {
            let topo = dgx1();
            let s = ring_allreduce(8, ByteSize::mib(64));
            let e = Embedding::identity(&topo, &s).expect("embeddable");
            lint_embedded(
                "dgx1-ring",
                description,
                "dgx1",
                &topo,
                &s,
                &e,
                &ring_opts(),
            )
        }
        "hier16" => {
            let topo = hierarchical(16);
            let s = double_tree(16, 32, Overlap::ReductionBroadcast);
            let e = Embedding::nic(&topo, &s).expect("embeddable");
            lint_embedded("hier16", description, "hier16", &topo, &s, &e, &tree_opts())
        }
        "dgx1-naive-double" => {
            let topo = dgx1();
            let s = double_tree(8, 32, Overlap::ReductionBroadcast);
            let e = Embedding::identity(&topo, &s).expect("embeddable");
            lint_embedded(
                "dgx1-naive-double",
                description,
                "dgx1",
                &topo,
                &s,
                &e,
                &tree_opts(),
            )
        }
        "conflict" => {
            let topo = dgx1();
            let s = single_tree(8, 8);
            let e = forced_conflict_embedding(&topo, &s);
            lint_embedded("conflict", description, "dgx1", &topo, &s, &e, &tree_opts())
        }
        "deadlock" => {
            let s = seeded_deadlock_schedule();
            CaseReport {
                name: "deadlock",
                description,
                algorithm: s.algorithm().to_string(),
                topology: "-",
                report: analyze::analyze(&s, &tree_opts()),
            }
        }
        _ => return None,
    };
    Some(report)
}

/// Runs every named case in report order.
pub fn run_all() -> Vec<CaseReport> {
    CASES
        .iter()
        .map(|(name, _)| run_case(name).expect("listed case exists"))
        .collect()
}

/// The named physical (fabric-level) lint cases, in report order.
///
/// The first group covers shipped configurations (clean apart from the
/// analyzer's Info-severity lower-bound certificates); the second group
/// contains deliberately hazardous demonstrations, including the
/// one-slot uplink-striping skew that PR 8 could only find by running
/// the DES.
pub const PHYSICAL_CASES: [(&str, &str); 5] = [
    (
        "dgx1-cc-physical",
        "overlapped double tree on the DGX-1's single-switch fabric (bounds only)",
    ),
    (
        "hier16-physical",
        "overlapped double tree across four radix-4 leaves, two uplink slots",
    ),
    (
        "hier16-ring-uplinks",
        "DEMO: ring across four radix-4 leaves, two hash-striped uplink slots — every crossing lands on slot 1",
    ),
    (
        "hier16-oversub",
        "DEMO: ring across four radix-4 leaves at 8:1 uplink oversubscription",
    ),
    (
        "severed-ring",
        "DEMO: fault-plan severance of the hierarchical ring (permanent NIC outage vs. a finite one)",
    ),
];

/// The multi-uplink leaf/spine fabric the physical demos run on: four
/// radix-4 leaves, two uplink slots per leaf, two spines.
fn striped_fabric(topo: &Topology, oversubscription: f64) -> FabricGraph {
    FabricGraph::from_topology(
        topo,
        &FabricConfig {
            radix: Some(4),
            oversubscription,
            uplink_latency: Seconds::from_micros(1.0),
            spines: 2,
            uplinks_per_leaf: 2,
        },
    )
}

fn lint_physical(
    name: &'static str,
    description: &'static str,
    topology: &'static str,
    topo: &Topology,
    schedule: &Schedule,
    embedding: &Embedding,
    fabric: &FabricGraph,
) -> CaseReport {
    CaseReport {
        name,
        description,
        algorithm: schedule.algorithm().to_string(),
        topology,
        report: analyze_physical(
            schedule,
            embedding,
            topo,
            fabric,
            &PhysicalAnalyzeOptions::default(),
        ),
    }
}

/// Runs one named physical case, or `None` if the name is unknown.
pub fn run_physical_case(name: &str) -> Option<CaseReport> {
    let description = PHYSICAL_CASES.iter().find(|(n, _)| *n == name)?.1;
    let report = match name {
        "dgx1-cc-physical" => {
            let topo = dgx1();
            let s = double_tree(8, 32, Overlap::ReductionBroadcast);
            let e = Embedding::dgx1_double_tree(&topo, &s).expect("embeddable");
            let fabric = FabricGraph::from_topology(&topo, &FabricConfig::default());
            lint_physical(
                "dgx1-cc-physical",
                description,
                "dgx1",
                &topo,
                &s,
                &e,
                &fabric,
            )
        }
        "hier16-physical" => {
            let topo = hierarchical(16);
            let s = double_tree(16, 32, Overlap::ReductionBroadcast);
            let e = Embedding::nic(&topo, &s).expect("embeddable");
            let fabric = striped_fabric(&topo, 1.0);
            lint_physical(
                "hier16-physical",
                description,
                "hier16",
                &topo,
                &s,
                &e,
                &fabric,
            )
        }
        "hier16-ring-uplinks" => {
            let topo = hierarchical(16);
            let s = ring_allreduce(16, ByteSize::mib(64));
            let e = Embedding::nic(&topo, &s).expect("embeddable");
            let fabric = striped_fabric(&topo, 1.0);
            lint_physical(
                "hier16-ring-uplinks",
                description,
                "hier16",
                &topo,
                &s,
                &e,
                &fabric,
            )
        }
        "hier16-oversub" => {
            let topo = hierarchical(16);
            let s = ring_allreduce(16, ByteSize::mib(64));
            let e = Embedding::nic(&topo, &s).expect("embeddable");
            let fabric = striped_fabric(&topo, 8.0);
            lint_physical(
                "hier16-oversub",
                description,
                "hier16",
                &topo,
                &s,
                &e,
                &fabric,
            )
        }
        "severed-ring" => {
            let topo = hierarchical(8);
            let s = ring_allreduce(8, ByteSize::mib(64));
            let e = Embedding::nic(&topo, &s).expect("embeddable");
            // One NIC injection channel down forever (severed), the
            // same channel down for a finite window (stall).
            let plan = FaultPlan::new(vec![
                FaultEvent::LinkDown {
                    channel: ChannelId(0),
                    from: Seconds::ZERO,
                    until: forever(),
                },
                FaultEvent::LinkDown {
                    channel: ChannelId(1),
                    from: Seconds::from_micros(100.0),
                    until: Seconds::from_millis(5.0),
                },
            ])
            .expect("valid plan");
            CaseReport {
                name: "severed-ring",
                description,
                algorithm: s.algorithm().to_string(),
                topology: "hier8",
                report: analyze_severance(&plan, &topo, &s, &e, &SimOptions::default()),
            }
        }
        _ => return None,
    };
    Some(report)
}

/// Runs every named physical case in report order.
pub fn run_physical_all() -> Vec<CaseReport> {
    PHYSICAL_CASES
        .iter()
        .map(|(name, _)| run_physical_case(name).expect("listed case exists"))
        .collect()
}

/// Renders case reports as the `--json` payload: a stable JSON array.
pub fn to_json(reports: &[CaseReport]) -> String {
    let mut out = String::from("[");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&r.to_json());
    }
    out.push(']');
    out
}

/// Renders case reports as human-readable text.
pub fn to_text(reports: &[CaseReport]) -> String {
    let mut out = String::new();
    for r in reports {
        out.push_str(&format!(
            "== {} ({} on {}) ==\n   {}\n{}\n\n",
            r.name, r.algorithm, r.topology, r.description, r.report
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccube_collectives::analyze::{LintCode, Severity};

    #[test]
    fn shipped_configurations_lint_clean() {
        for name in [
            "dgx1-cc",
            "dgx1-baseline",
            "dgx1-single",
            "dgx1-ring",
            "hier16",
        ] {
            let case = run_case(name).expect("known case");
            assert!(case.report.is_clean(), "{name}:\n{}", case.report);
            assert_eq!(
                case.report.count(Severity::Warn),
                0,
                "{name}:\n{}",
                case.report
            );
        }
    }

    #[test]
    fn demo_cases_reproduce_their_findings() {
        let naive = run_case("dgx1-naive-double").expect("known case");
        assert_eq!(
            naive
                .report
                .diagnostics()
                .iter()
                .filter(|d| d.code == LintCode::ChannelConflict)
                .count(),
            2,
            "the doubled-NVLink hazard is exactly two conflicts:\n{}",
            naive.report
        );

        let conflict = run_case("conflict").expect("known case");
        assert!(conflict
            .report
            .diagnostics()
            .iter()
            .any(|d| d.code == LintCode::ChannelConflict));

        let deadlock = run_case("deadlock").expect("known case");
        assert!(deadlock
            .report
            .diagnostics()
            .iter()
            .any(|d| d.code == LintCode::WaitCycle));
    }

    #[test]
    fn unknown_case_is_none() {
        assert!(run_case("nope").is_none());
        assert!(run_physical_case("nope").is_none());
    }

    #[test]
    fn physical_cases_reproduce_their_findings() {
        // Shipped configurations: no errors, and the analyzer certifies
        // both lower bounds (channel-level and port-level).
        for name in ["dgx1-cc-physical", "hier16-physical"] {
            let case = run_physical_case(name).expect("known case");
            assert!(case.report.is_clean(), "{name}:\n{}", case.report);
            for code in [LintCode::MakespanLowerBound, LintCode::FabricLowerBound] {
                assert!(
                    case.report.diagnostics().iter().any(|d| d.code == code),
                    "{name} missing {code:?}:\n{}",
                    case.report
                );
            }
        }

        // The PR 8 hazard, caught statically: every cross-leaf crossing
        // stripes to one slot — 4 leaves x 2 directions = 8 warnings.
        let skew = run_physical_case("hier16-ring-uplinks").expect("known case");
        assert_eq!(
            skew.report
                .diagnostics()
                .iter()
                .filter(|d| d.code == LintCode::UplinkStripingSkew)
                .count(),
            8,
            "{}",
            skew.report
        );
        assert!(skew.report.is_clean());

        let oversub = run_physical_case("hier16-oversub").expect("known case");
        assert!(oversub
            .report
            .diagnostics()
            .iter()
            .any(|d| d.code == LintCode::OversubscriptionHotspot));

        // The severance demo: a permanent NIC outage is an error, the
        // finite window on the same class of channel is only a stall.
        let severed = run_physical_case("severed-ring").expect("known case");
        assert!(severed
            .report
            .diagnostics()
            .iter()
            .any(|d| d.code == LintCode::FaultSevered));
        assert!(!severed.report.is_clean());
    }
}
