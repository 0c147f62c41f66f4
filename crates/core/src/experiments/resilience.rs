//! Extension — resilience of the paper's configurations under
//! escalating fault severity.
//!
//! The paper's static detour routes and conflict-free embeddings assume
//! every NVLink the schedule was planned around stays healthy. This
//! study measures what happens when that assumption breaks: the five
//! execution modes (B, C1, R on both fabrics; the C2/CC co-simulations
//! on the DGX-1) run under fault plans sampled at escalating severity
//! from [`FaultModel::severity`] — link flaps, degraded-bandwidth
//! windows and straggler GPUs — and report the makespan inflation,
//! re-routes taken, and downtime absorbed.
//!
//! The interesting asymmetry: on the DGX-1, a downed NVLink re-routes
//! through the detour/host-bridge machinery and the run *finishes*
//! (slower); on the flat hierarchical fabric there is no alternative
//! path, so traffic stalls until repair — and a permanently-severed NIC
//! is a typed [`SimError::Unroutable`](ccube_sim::SimError).
//!
//! A healthy baseline depends only on the (fabric, mode) workload, so
//! the grid runs as two sweeps: the first builds each distinct
//! workload once and simulates its healthy baseline; the second is a
//! [`ccube_sim::sweep_seeded`] over the grid points, where each point
//! samples its fault plan from its own forked RNG stream against its
//! workload's healthy makespan and simulates only the faulted run. The
//! same seed yields byte-identical CSVs at any worker count. Study runs
//! record no trace; only [`demo_trace`] and [`fabric_demo_html`], whose
//! traces are rendered, record one.

use crate::pipeline::TrainingPipeline;
use crate::systemjob::build_iteration_job;
use ccube_collectives::{
    ring_allreduce, tree_allreduce, Chunking, DoubleBinaryTree, Embedding, Overlap, Schedule,
};
use ccube_sim::{
    diff_to_html, simulate_system_faulted, FabricSpec, FaultModel, FaultPlan, LaneLabels,
    NetworkModel, SimError, SimOptions, SimRng, SystemJob, SystemReport, UplinkPolicy,
};
use ccube_topology::{dgx1, hierarchical, ByteSize, Seconds, Topology};
use std::fmt;

/// Default seed of the sampled fault plans (`ccube faults --seed N`
/// overrides it).
pub const DEFAULT_SEED: u64 = 0xC3;

/// Highest severity level of the default grid (inclusive; level 0 is
/// the healthy fabric).
pub const MAX_SEVERITY: u32 = 3;

/// One cell of the resilience study.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Fabric name (`dgx1` or `hier16`).
    pub topology: &'static str,
    /// Execution mode (`B`, `C1`, `R`, `C2`, `CC`).
    pub mode: &'static str,
    /// Fault severity level (0 = healthy).
    pub severity: u32,
    /// `ok` or `unroutable`.
    pub status: &'static str,
    /// Faulted makespan (zero when unroutable).
    pub makespan: Seconds,
    /// Faulted / healthy makespan (zero when unroutable).
    pub slowdown: f64,
    /// Fault events that activated during the run.
    pub faults_injected: u64,
    /// Transfers moved to a surviving route after a link-down.
    pub reroutes: u64,
    /// Total time at least one channel ran degraded.
    pub time_degraded: Seconds,
    /// Summed per-channel downtime.
    pub downtime: Seconds,
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<6} {:<3} sev={} {:<10} slowdown={:.3} faults={} reroutes={}",
            self.topology,
            self.mode,
            self.severity,
            self.status,
            self.slowdown,
            self.faults_injected,
            self.reroutes
        )
    }
}

/// One (fabric, mode, severity) grid point.
#[derive(Debug, Clone, Copy)]
struct Point {
    topology: &'static str,
    mode: &'static str,
    severity: u32,
}

/// The AllReduce payload of the communication-only modes.
fn message() -> ByteSize {
    ByteSize::mib(16)
}

fn tree_schedule(ranks: usize, overlap: Overlap) -> Schedule {
    let dt = DoubleBinaryTree::new(ranks).expect("valid rank count");
    tree_allreduce(dt.trees(), &Chunking::even(message(), 16), overlap)
}

fn compute_less(schedule: Schedule) -> SystemJob {
    SystemJob {
        schedule,
        compute: vec![],
        transfer_gates: vec![],
    }
}

/// Builds the workload of one grid point: topology, job, embedding and
/// simulator options.
fn workload(topology: &'static str, mode: &'static str) -> (Topology, SystemJob, SimOptions) {
    let (topo, ranks, opts) = match topology {
        "dgx1" => (dgx1(), 8, SimOptions::default()),
        "hier16" => (hierarchical(16), 16, SimOptions::scale_out()),
        other => panic!("unknown topology {other}"),
    };
    let job = match mode {
        "B" => compute_less(tree_schedule(ranks, Overlap::None)),
        "C1" => compute_less(tree_schedule(ranks, Overlap::ReductionBroadcast)),
        "R" => compute_less(ring_allreduce(ranks, message())),
        "C2" | "CC" => {
            let pipeline = TrainingPipeline::dgx1(&ccube_dnn::resnet50(), 32);
            let overlap = if mode == "CC" {
                Overlap::ReductionBroadcast
            } else {
                Overlap::None
            };
            build_iteration_job(&pipeline, overlap, &[1.0; 8])
        }
        other => panic!("unknown mode {other}"),
    };
    (topo, job, opts)
}

fn embed(topology: &str, mode: &str, topo: &Topology, schedule: &Schedule) -> Embedding {
    match (topology, mode) {
        ("hier16", _) => Embedding::nic(topo, schedule).expect("embeds"),
        (_, "R") => Embedding::identity(topo, schedule).expect("embeds"),
        _ => Embedding::dgx1_double_tree(topo, schedule).expect("embeds"),
    }
}

/// The default grid: severities `0..=MAX_SEVERITY` of every mode —
/// B/C1/R on both fabrics, the C2/CC co-simulations on the DGX-1 only
/// (the hierarchical model has no per-node compute pipeline).
fn grid() -> Vec<Point> {
    let mut points = Vec::new();
    for severity in 0..=MAX_SEVERITY {
        for mode in ["B", "C1", "R", "C2", "CC"] {
            points.push(Point {
                topology: "dgx1",
                mode,
                severity,
            });
        }
        for mode in ["B", "C1", "R"] {
            points.push(Point {
                topology: "hier16",
                mode,
                severity,
            });
        }
    }
    points
}

/// Runs the full grid serially with the default seed.
pub fn run() -> Vec<Row> {
    run_with_network(DEFAULT_SEED, 1, NetworkModel::ChannelApprox)
}

/// Runs the grid from `seed` under `network`, fanned out over `threads`
/// workers (`ccube faults`; `--fabric switch` runs the grid on the
/// componentized switch fabric). Each grid point is one
/// [`ccube_sim::sweep_seeded`] point: its fault plan is sampled from the
/// point's forked RNG stream, so the rows are byte-identical at any
/// worker count and under replay of the seed.
pub fn run_with_network(seed: u64, threads: usize, network: NetworkModel) -> Vec<Row> {
    run_grid(&grid(), seed, threads, network)
}

/// The smallest faulty slice of the grid — severity 1 on both fabrics'
/// C1 — under `network`, for CI smoke runs (`ccube faults --smoke`).
pub fn run_smoke_network(network: NetworkModel) -> Vec<Row> {
    let points: Vec<Point> = grid()
        .into_iter()
        .filter(|p| p.severity == 1 && p.mode == "C1")
        .collect();
    run_grid(&points, DEFAULT_SEED, 1, network)
}

fn run_grid(points: &[Point], seed: u64, threads: usize, network: NetworkModel) -> Vec<Row> {
    // The distinct (fabric, mode) workloads in first-appearance order,
    // and each point's index into them.
    let mut pairs: Vec<(&'static str, &'static str)> = Vec::new();
    let pair_of: Vec<usize> = points
        .iter()
        .map(|p| {
            let key = (p.topology, p.mode);
            pairs.iter().position(|&k| k == key).unwrap_or_else(|| {
                pairs.push(key);
                pairs.len() - 1
            })
        })
        .collect();
    let baselines = ccube_sim::sweep(&pairs, threads, |_, &(topology, mode)| {
        Baseline::new(topology, mode, network)
    });
    ccube_sim::sweep_seeded(points, seed, threads, |i, p, rng| {
        cell(p, &baselines[pair_of[i]], &rng)
    })
}

/// One (fabric, mode) workload of the grid with its healthy baseline:
/// everything a cell needs except its fault plan.
struct Baseline {
    topo: Topology,
    job: SystemJob,
    emb: Embedding,
    /// The faulted runs' options: `network` applied, tracing off.
    opts: SimOptions,
    healthy: SystemReport,
}

impl Baseline {
    fn new(topology: &'static str, mode: &'static str, network: NetworkModel) -> Self {
        let (topo, job, opts) = workload(topology, mode);
        let opts = opts.with_network(network).without_trace();
        let emb = embed(topology, mode, &topo, &job.schedule);
        let healthy = healthy_run(&topo, &job, &emb, &opts);
        Baseline {
            topo,
            job,
            emb,
            opts,
            healthy,
        }
    }
}

/// Evaluates one grid point: its workload's healthy makespan fixes the
/// fault horizon and the slowdown denominator, then the plan sampled
/// from the point's own stream runs on the same job. An empty plan
/// reports the healthy run.
fn cell(p: &Point, b: &Baseline, rng: &SimRng) -> Row {
    let model = FaultModel::severity(p.severity, b.healthy.makespan);
    let plan = FaultPlan::sample(&model, &b.topo, rng);
    if plan.is_empty() {
        return row_ok(p, &b.healthy, &b.healthy);
    }
    match simulate_system_faulted(&b.topo, &b.job, &b.emb, &b.opts, &plan) {
        Ok(report) => row_ok(p, &b.healthy, &report),
        Err(SimError::Unroutable { .. }) => row_unroutable(p),
        Err(e) => panic!("{}/{} sev {}: {e}", p.topology, p.mode, p.severity),
    }
}

/// The healthy baseline of a study: `job` on a fault-free fabric with
/// the static hash-striped uplinks and tracing off, the denominator
/// every slowdown is measured against and the horizon every fault plan
/// is sampled over.
pub fn healthy_run(
    topo: &Topology,
    job: &SystemJob,
    emb: &Embedding,
    opts: &SimOptions,
) -> SystemReport {
    let opts = opts
        .with_network(opts.network.static_stripe())
        .without_trace();
    simulate_system_faulted(topo, job, emb, &opts, &FaultPlan::empty())
        .expect("healthy run simulates")
}

fn row_unroutable(p: &Point) -> Row {
    Row {
        topology: p.topology,
        mode: p.mode,
        severity: p.severity,
        status: "unroutable",
        makespan: Seconds::ZERO,
        slowdown: 0.0,
        faults_injected: 0,
        reroutes: 0,
        time_degraded: Seconds::ZERO,
        downtime: Seconds::ZERO,
    }
}

fn row_ok(p: &Point, healthy: &SystemReport, report: &SystemReport) -> Row {
    let downtime = report
        .stats
        .channel_downtime
        .iter()
        .fold(Seconds::ZERO, |acc, &d| acc + d);
    Row {
        topology: p.topology,
        mode: p.mode,
        severity: p.severity,
        status: "ok",
        makespan: report.makespan,
        slowdown: report.makespan / healthy.makespan,
        faults_injected: report.stats.faults_injected,
        reroutes: report.stats.reroutes_taken,
        time_degraded: report.stats.time_degraded,
        downtime,
    }
}

/// The demo trace behind `ccube trace`: the DGX-1 C1 double tree
/// (16 MiB in 16 chunks) under a severity-2 fault plan sampled from
/// `seed`. The trace shows transfers, queue waits, detours, re-routes,
/// failovers and fault intervals; the CLI renders it as CSV, Chrome
/// JSON, or the self-contained HTML viewer.
pub fn demo_trace(seed: u64, network: NetworkModel) -> Result<SystemReport, SimError> {
    let topo = dgx1();
    let job = compute_less(tree_schedule(8, Overlap::ReductionBroadcast));
    let e = Embedding::dgx1_double_tree(&topo, &job.schedule).expect("embeddable");
    let opts = SimOptions::default().with_network(network);
    let healthy = healthy_run(&topo, &job, &e, &opts);
    let model = FaultModel::severity(2, healthy.makespan);
    let plan = FaultPlan::sample(&model, &topo, &SimRng::new(seed));
    simulate_system_faulted(&topo, &job, &e, &opts, &plan)
}

/// Viewer lane labels matching [`demo_trace`] under `network`: channel
/// lanes under the approximation, [`ccube_topology::FabricGraph`] port
/// labels under the switch fabric.
pub fn demo_labels(title: impl Into<String>, network: &NetworkModel) -> LaneLabels {
    LaneLabels::for_network(title, &dgx1(), network)
}

/// One cell of the fabric-failover study: the C1 collective on a
/// radix-4 spine/leaf fabric over `hierarchical(16)`, under the *same*
/// seeded uplink-outage plan, across uplink counts and steering
/// policies.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricRow {
    /// Uplink slots per leaf.
    pub uplinks: usize,
    /// Steering policy across the slots.
    pub policy: UplinkPolicy,
    /// `ok` or `unroutable`.
    pub status: &'static str,
    /// Faulted makespan (zero when unroutable).
    pub makespan: Seconds,
    /// Faulted / own-healthy makespan — the cross-fabric comparable
    /// (zero when unroutable).
    pub slowdown: f64,
    /// Adaptive uplink reroutes the engine recorded.
    pub failovers: u64,
    /// Fault events that activated during the run.
    pub faults_injected: u64,
}

impl fmt::Display for FabricRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "k={} {:<12} {:<10} slowdown={:.3} failovers={}",
            self.uplinks,
            self.policy.label(),
            self.status,
            self.slowdown,
            self.failovers
        )
    }
}

/// The radix-4 spine/leaf spec of the fabric study: total uplink
/// capacity held constant across slot counts, one spine per slot.
fn fabric_spec(uplinks: usize, policy: UplinkPolicy) -> FabricSpec {
    FabricSpec {
        radix: Some(4),
        spines: uplinks,
        uplinks,
        uplink_policy: policy,
        ..FabricSpec::default()
    }
}

/// Runs the fabric-failover study with the default seed.
///
/// Every cell replays the **same** seeded plan — uplink outages sampled
/// with [`FaultPlan::sample_uplinks`] at one slot per leaf, so every
/// event targets slot 0 and the plan is valid on both the single- and
/// the multi-uplink fabric. The plan's horizon and rates derive from
/// the single-uplink healthy baseline; slowdown is each cell's makespan
/// over its *own* healthy baseline. The hash-striped baseline ignores
/// the steering policy, so there is one per uplink count.
pub fn run_fabric() -> Vec<FabricRow> {
    let reference = fabric_healthy(1);
    let plan = fabric_outage_plan(DEFAULT_SEED, reference);
    let mut rows = Vec::new();
    for (uplinks, healthy) in [(1, reference), (2, fabric_healthy(2))] {
        for policy in [
            UplinkPolicy::Hash,
            UplinkPolicy::LeastQueued,
            UplinkPolicy::Failover,
        ] {
            rows.push(fabric_cell(uplinks, policy, &plan, healthy));
        }
    }
    rows
}

/// The fabric study's workload and network options: the C1 collective
/// on `hierarchical(16)` over the radix-4 spine/leaf fabric.
fn fabric_workload(
    uplinks: usize,
    policy: UplinkPolicy,
) -> (Topology, SystemJob, Embedding, SimOptions) {
    let topo = hierarchical(16);
    let job = compute_less(tree_schedule(16, Overlap::ReductionBroadcast));
    let emb = Embedding::nic(&topo, &job.schedule).expect("embeds");
    let opts = SimOptions::scale_out()
        .with_network(NetworkModel::SwitchFabric(fabric_spec(uplinks, policy)));
    (topo, job, emb, opts)
}

/// The healthy makespan of the fabric study's workload at `uplinks`
/// slots per leaf.
fn fabric_healthy(uplinks: usize) -> Seconds {
    let (topo, job, emb, opts) = fabric_workload(uplinks, UplinkPolicy::Hash);
    healthy_run(&topo, &job, &emb, &opts).makespan
}

/// The study's shared seeded outage plan: slot-0 uplink windows sampled
/// against the single-uplink `reference` healthy makespan, so the
/// identical plan is valid on every cell's fabric.
fn fabric_outage_plan(seed: u64, reference: Seconds) -> FaultPlan {
    FaultPlan::sample_uplinks(
        4,
        1,
        reference * 0.5,
        reference * 0.25,
        reference,
        &SimRng::new(seed),
    )
}

fn fabric_cell(
    uplinks: usize,
    policy: UplinkPolicy,
    plan: &FaultPlan,
    healthy: Seconds,
) -> FabricRow {
    let (topo, job, emb, opts) = fabric_workload(uplinks, policy);
    match simulate_system_faulted(&topo, &job, &emb, &opts.without_trace(), plan) {
        Ok(report) => FabricRow {
            uplinks,
            policy,
            status: "ok",
            makespan: report.makespan,
            slowdown: report.makespan / healthy,
            failovers: report.stats.failovers,
            faults_injected: report.stats.faults_injected,
        },
        Err(SimError::Unroutable { .. }) => FabricRow {
            uplinks,
            policy,
            status: "unroutable",
            makespan: Seconds::ZERO,
            slowdown: 0.0,
            failovers: 0,
            faults_injected: 0,
        },
        Err(e) => panic!("fabric cell k={uplinks} {}: {e}", policy.label()),
    }
}

/// Renders the fabric-failover figure as a side-by-side HTML diff
/// viewer: the k=1 and k=2 `failover`-policy cells under the **same**
/// seeded slot-0 uplink outage (`ccube faults --html <out>`). The left
/// pane shows traffic stalling through the outage window with nowhere
/// to go; the right pane shows the adaptive failover absorbing it —
/// the study's headline recovery, explorable per port lane.
pub fn fabric_demo_html(seed: u64) -> String {
    let plan = fabric_outage_plan(seed, fabric_healthy(1));
    let run = |uplinks: usize| {
        let (topo, job, emb, opts) = fabric_workload(uplinks, UplinkPolicy::Failover);
        let report = simulate_system_faulted(&topo, &job, &emb, &opts, &plan)
            .expect("failover fabric absorbs the slot-0 outage");
        let labels = LaneLabels::for_network(
            format!("k={uplinks} failover, seed {seed}"),
            &topo,
            &NetworkModel::SwitchFabric(fabric_spec(uplinks, UplinkPolicy::Failover)),
        );
        (report, labels)
    };
    let (left, ll) = run(1);
    let (right, rl) = run(2);
    diff_to_html((&left.trace, &ll), (&right.trace, &rl))
}

/// Renders fabric-study rows as CSV.
pub fn fabric_to_csv(rows: &[FabricRow]) -> String {
    let mut out =
        String::from("uplinks,policy,status,makespan_us,slowdown,failovers,faults_injected\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{:.3},{:.4},{},{}\n",
            r.uplinks,
            r.policy.label(),
            r.status,
            r.makespan.as_micros(),
            r.slowdown,
            r.failovers,
            r.faults_injected
        ));
    }
    out
}

/// Renders rows as CSV.
pub fn to_csv(rows: &[Row]) -> String {
    let mut out = String::from(
        "topology,mode,severity,status,makespan_us,slowdown,faults_injected,reroutes,time_degraded_us,downtime_us\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{:.3},{:.4},{},{},{:.3},{:.3}\n",
            r.topology,
            r.mode,
            r.severity,
            r.status,
            r.makespan.as_micros(),
            r.slowdown,
            r.faults_injected,
            r.reroutes,
            r.time_degraded.as_micros(),
            r.downtime.as_micros()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_zero_is_the_healthy_baseline() {
        let rows: Vec<Row> = run_grid(
            &grid()
                .into_iter()
                .filter(|p| p.severity == 0)
                .collect::<Vec<_>>(),
            DEFAULT_SEED,
            1,
            NetworkModel::ChannelApprox,
        );
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert_eq!(r.status, "ok");
            assert!((r.slowdown - 1.0).abs() < 1e-12, "{r}");
            assert_eq!(r.faults_injected, 0);
            assert_eq!(r.reroutes, 0);
            assert!(r.time_degraded.is_zero() && r.downtime.is_zero());
        }
    }

    #[test]
    fn faults_never_speed_up_a_surviving_run_much_and_some_bite() {
        let rows = run();
        assert_eq!(rows.len(), (MAX_SEVERITY as usize + 1) * 8);
        let mut injected_anywhere = false;
        for r in &rows {
            if r.status != "ok" {
                assert_eq!(r.slowdown, 0.0);
                continue;
            }
            // Re-routing can shift contention, but a faulted run beating
            // the healthy baseline by >0.1% would mean broken accounting.
            assert!(r.slowdown > 0.999, "{r}");
            injected_anywhere |= r.faults_injected > 0;
        }
        assert!(injected_anywhere, "no severity level injected any fault");
        // The headline asymmetry: the DGX-1 re-routes somewhere in the
        // faulty rows.
        assert!(
            rows.iter().any(|r| r.topology == "dgx1" && r.reroutes > 0),
            "no dgx1 run ever re-routed"
        );
        // NIC paths never re-route.
        assert!(rows
            .iter()
            .filter(|r| r.topology == "hier16")
            .all(|r| r.reroutes == 0));
    }

    #[test]
    fn smoke_slice_is_small_and_faulty() {
        let rows = run_smoke_network(NetworkModel::ChannelApprox);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.severity == 1 && r.mode == "C1"));
    }

    #[test]
    fn fabric_study_shows_failover_recovery() {
        let rows = run_fabric();
        assert_eq!(rows.len(), 6);
        let find = |uplinks: usize, policy: UplinkPolicy| {
            rows.iter()
                .find(|r| r.uplinks == uplinks && r.policy == policy)
                .expect("grid covers the cell")
        };
        // The same seeded plan stalls the single-uplink fabric but is
        // absorbed by the 2-uplink failover fabric: at least one
        // recorded failover reroute and strictly lower slowdown.
        let single = find(1, UplinkPolicy::Failover);
        let multi = find(2, UplinkPolicy::Failover);
        assert_eq!(single.status, "ok");
        assert_eq!(multi.status, "ok");
        assert_eq!(single.failovers, 0, "one slot has nowhere to fail over");
        assert!(
            multi.failovers >= 1,
            "2-uplink failover must reroute: {multi}"
        );
        assert!(
            multi.slowdown < single.slowdown,
            "failover must recover: {multi} vs {single}"
        );
        // With one uplink every policy degenerates to hash striping.
        assert_eq!(single.slowdown, find(1, UplinkPolicy::Hash).slowdown);
        // Faults bite everywhere (the plan's windows overlap traffic).
        assert!(rows.iter().all(|r| r.faults_injected >= 1));
    }

    /// The grid cell as it was before baselines were shared: it builds
    /// its own workload, simulates its own traced healthy baseline, and
    /// runs the faulted simulation traced.
    fn reference_cell(p: &Point, rng: &SimRng, network: NetworkModel) -> Row {
        let (topo, job, opts) = workload(p.topology, p.mode);
        let opts = opts.with_network(network);
        let emb = embed(p.topology, p.mode, &topo, &job.schedule);
        let healthy = simulate_system_faulted(
            &topo,
            &job,
            &emb,
            &opts.with_network(network.static_stripe()),
            &FaultPlan::empty(),
        )
        .expect("healthy run simulates");
        let model = FaultModel::severity(p.severity, healthy.makespan);
        let plan = FaultPlan::sample(&model, &topo, rng);
        if plan.is_empty() {
            return row_ok(p, &healthy, &healthy);
        }
        match simulate_system_faulted(&topo, &job, &emb, &opts, &plan) {
            Ok(report) => row_ok(p, &healthy, &report),
            Err(SimError::Unroutable { .. }) => row_unroutable(p),
            Err(e) => panic!("{}/{} sev {}: {e}", p.topology, p.mode, p.severity),
        }
    }

    #[test]
    fn shared_baselines_match_the_per_point_reference_exactly() {
        let leafspine = NetworkModel::SwitchFabric(FabricSpec {
            uplinks: 2,
            uplink_policy: UplinkPolicy::LeastQueued,
            ..FabricSpec::default()
        });
        for network in [NetworkModel::ChannelApprox, leafspine] {
            for seed in [195, 7, 11] {
                let reference = ccube_sim::sweep_seeded(&grid(), seed, 1, |_, p, rng| {
                    reference_cell(p, &rng, network)
                });
                // `Row` equality compares every `f64` exactly.
                assert_eq!(
                    run_with_network(seed, 1, network),
                    reference,
                    "seed {seed} on {network:?}"
                );
            }
        }
    }

    #[test]
    fn fabric_study_matches_a_direct_per_cell_evaluation() {
        // Each cell simulated on its own, traced, with its own healthy
        // baseline, against the plan sampled from a traced k=1 baseline.
        let healthy = |uplinks, policy| {
            let (topo, job, emb, opts) = fabric_workload(uplinks, policy);
            let opts = opts.with_network(opts.network.static_stripe());
            simulate_system_faulted(&topo, &job, &emb, &opts, &FaultPlan::empty())
                .expect("healthy run simulates")
                .makespan
        };
        let plan = fabric_outage_plan(DEFAULT_SEED, healthy(1, UplinkPolicy::Hash));
        let mut reference = Vec::new();
        for uplinks in [1, 2] {
            for policy in [
                UplinkPolicy::Hash,
                UplinkPolicy::LeastQueued,
                UplinkPolicy::Failover,
            ] {
                let (topo, job, emb, opts) = fabric_workload(uplinks, policy);
                let report = simulate_system_faulted(&topo, &job, &emb, &opts, &plan)
                    .expect("the outage plan is routable");
                reference.push(FabricRow {
                    uplinks,
                    policy,
                    status: "ok",
                    makespan: report.makespan,
                    slowdown: report.makespan / healthy(uplinks, policy),
                    failovers: report.stats.failovers,
                    faults_injected: report.stats.faults_injected,
                });
            }
        }
        assert_eq!(run_fabric(), reference);
    }

    #[test]
    fn replaying_the_seed_reproduces_the_rows() {
        let run_seed = |seed| run_with_network(seed, 1, NetworkModel::ChannelApprox);
        let a = run_seed(DEFAULT_SEED);
        let b = run_seed(DEFAULT_SEED);
        assert_eq!(a, b);
        let other = run_seed(DEFAULT_SEED + 1);
        assert_ne!(a, other, "a different seed should sample different plans");
    }
}
