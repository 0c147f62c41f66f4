//! The traced in-process replay: each workload's commands re-run as calls
//! into the library functions the CLI calls, wrapped in [`spans`].
//!
//! * **Fresh state.** Every pass runs on a new thread after
//!   [`ccube_sim::reset_prep_cache`], as cold as a CLI process.
//! * **Same entry points.** `search` calls `policy_search::run_full(1)`,
//!   `faults` calls `resilience::run_with_network`, and so on. The fig14
//!   loop behind `ccube scaleout` is thin, so the replay calls the layers
//!   beneath it directly (topology, schedule, embedding, lowering,
//!   simulation) and rebuilds its rows.
//! * **Layer probes.** Library internals carry no spans yet, so after the
//!   entry points every workload probes each layer on inputs shaped like its
//!   own (its [`cases`]): cold and rescaled lowering, the analyzers and
//!   certified bounds, port mapping, the system, faulted and switch-fabric
//!   engines, and trace export. Probe results are checked like any other
//!   output: the certified bound must not exceed the simulated makespan
//!   and the rescaled lowering must equal the cold one.
//! * **Outputs checked.** Replay outputs go through the same
//!   [`Oracle`](crate::workloads::Oracle) as the end-to-end run.

use crate::spans::{self, span, Span};
use crate::workloads::{self, Oracle, Workload, DEFAULT_SEED};
use crate::{stats, Metric, Tally};
use ccube::experiments::policy_search::{self, BoundedOutcome, PrunedCandidate, SearchRow};
use ccube::experiments::{
    extensions, fig01, fig03, fig04, fig12, fig13, fig14, fig15, fig16, fig17, resilience,
    scaleout_fabric,
};
use ccube::lint;
use ccube_collectives::analyze::{analyze_embedded, AnalyzeOptions};
use ccube_collectives::{
    analyze_physical, fabric_lower_bound, lower_schedule, lower_to_ports, makespan_lower_bound,
    ring_allreduce, tree_allreduce, BinaryTree, Chunking, DoubleBinaryTree, Embedding,
    EmbeddingError, LinkTiming, Overlap, PhysicalAnalyzeOptions, PreparedLowering, Rank, Schedule,
    TransferSpec,
};
use ccube_sim::{
    analyze_severance, diff_csv, diff_to_html, simulate, simulate_faulted, simulate_system,
    to_html, Arbitration, ComputeTask, ComputeTaskId, FabricSpec, FaultModel, FaultPlan,
    LaneLabels, NetworkModel, SimError, SimOptions, SimRng, SimStats, SimTrace, SystemJob,
    UplinkPolicy,
};
use ccube_topology::{dgx1, hierarchical, ByteSize, FabricConfig, FabricGraph, Seconds, Topology};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::AssertUnwindSafe;
use std::time::Instant;

/// One figure of `ccube figures`: output file and the function that renders it.
pub(crate) type Figure = (&'static str, fn(NetworkModel) -> String);

/// The figure table `ccube figures` runs, in the same order and with the
/// same functions (`ccube::experiments::run_all_with_network`).
pub(crate) const FIGURES: [Figure; 20] = [
    (
        "fig01_allreduce_ratio.csv",
        |_| fig01::to_csv(&fig01::run()),
    ),
    ("fig03_granularity.csv", |_| fig03::to_csv(&fig03::run())),
    ("fig04_ring_vs_tree.csv", |_| fig04::to_csv(&fig04::run())),
    ("fig12_comm_overlap.csv", |net| {
        fig12::to_csv(&fig12::run_net(net))
    }),
    ("fig13_overall.csv", |_| fig13::to_csv(&fig13::run())),
    ("fig14_scaleout.csv", |net| {
        fig14::to_csv(&fig14::run_net(net))
    }),
    ("fig15_detour.csv", |net| {
        fig15::to_csv(&fig15::run_with_net(64, net))
    }),
    ("fig16_patterns.csv", |_| fig16::to_csv(&fig16::run())),
    ("fig17_resnet_layers.csv", |_| {
        fig17::to_csv(&fig17::run(64))
    }),
    ("ext_topology_study.csv", |_| {
        extensions::topology_to_csv(&extensions::topology_study())
    }),
    ("ext_detour_vs_host.csv", |_| {
        extensions::detour_to_csv(&extensions::detour_vs_host())
    }),
    ("ext_chunk_sensitivity.csv", |_| {
        extensions::chunk_to_csv(&extensions::chunk_sensitivity())
    }),
    ("ext_cosim_validation.csv", |_| {
        extensions::cosim_to_csv(&extensions::cosim_validation())
    }),
    ("ext_overlap_strategies.csv", |_| {
        extensions::strategy_to_csv(&extensions::overlap_strategy_study())
    }),
    ("ext_policy_search.csv", |_| {
        policy_search::to_csv(&policy_search::run())
    }),
    ("ext_resilience.csv", |net| {
        resilience::to_csv(&resilience::run_with_network(
            resilience::DEFAULT_SEED,
            1,
            net,
        ))
    }),
    ("ext_fabric_resilience.csv", |_| {
        resilience::fabric_to_csv(&resilience::run_fabric())
    }),
    ("ext_scaleout_fabric.csv", |_| {
        scaleout_fabric::fabric_to_csv(&scaleout_fabric::fabric_study())
    }),
    ("ext_nvswitch_sweep.csv", |_| {
        scaleout_fabric::sweep_to_csv(&scaleout_fabric::nvswitch_sweep())
    }),
    ("ext_torus_sweep.csv", |_| {
        scaleout_fabric::sweep_to_csv(&scaleout_fabric::torus_sweep())
    }),
];

/// Counts one pass leaves besides its spans: kernel and pool counters
/// summed over the channel-engine runs, fault, fabric and trace counts,
/// and the preparation cache's hits and misses.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Counters {
    /// Events popped by the channel engine.
    pub events_processed: u64,
    /// Events pushed into the channel engine's queue.
    pub events_scheduled: u64,
    /// Largest future-event queue seen.
    pub max_event_queue_depth: u64,
    /// Largest per-channel waiter queue seen.
    pub max_channel_queue_depth: u64,
    /// Chunk-priority force-starts.
    pub force_starts: u64,
    /// Fault events activated in faulted runs.
    pub faults_injected: u64,
    /// Transfers rerouted around downed links.
    pub reroutes: u64,
    /// Transfers steered to another uplink.
    pub failovers: u64,
    /// Records in the exported traces.
    pub trace_records: u64,
    /// Records the bounded trace rings dropped.
    pub trace_dropped: u64,
    /// Preparation-cache hits.
    pub prep_hits: u64,
    /// Preparation-cache misses.
    pub prep_misses: u64,
}

impl Counters {
    fn add_sim(&mut self, s: &SimStats) {
        self.events_processed += s.events_processed;
        self.events_scheduled += s.events_scheduled;
        self.max_event_queue_depth = self
            .max_event_queue_depth
            .max(s.max_event_queue_depth as u64);
        self.max_channel_queue_depth = self
            .max_channel_queue_depth
            .max(s.max_channel_queue_depth as u64);
        self.force_starts += s.force_starts;
    }

    fn merge(&mut self, o: &Counters) {
        self.events_processed += o.events_processed;
        self.events_scheduled += o.events_scheduled;
        self.max_event_queue_depth = self.max_event_queue_depth.max(o.max_event_queue_depth);
        self.max_channel_queue_depth = self.max_channel_queue_depth.max(o.max_channel_queue_depth);
        self.force_starts += o.force_starts;
        self.faults_injected += o.faults_injected;
        self.reroutes += o.reroutes;
        self.failovers += o.failovers;
        self.trace_records += o.trace_records;
        self.trace_dropped += o.trace_dropped;
    }
}

/// What one replay pass produced.
#[derive(Debug, Default)]
struct PassOut {
    /// `(output key, bytes)` for the oracle.
    pub outputs: Vec<(String, Vec<u8>)>,
    /// The pass's counters.
    pub counters: Counters,
    /// Failures the pass detected itself.
    pub errors: Vec<String>,
    /// Wall seconds.
    pub wall: f64,
}

struct PassCtx {
    seed: u64,
    quick: bool,
    workers: usize,
    out: PassOut,
}

impl PassCtx {
    fn output(&mut self, key: impl Into<String>, bytes: impl Into<Vec<u8>>) {
        self.out.outputs.push((key.into(), bytes.into()));
    }

    fn error(&mut self, e: impl Into<String>) {
        self.out.errors.push(e.into());
    }
}

/// Runs one replay pass of `wl` on a fresh thread. Spans it records are
/// tagged `index`.
fn pass(wl: Workload, seed: u64, quick: bool, index: u32) -> PassOut {
    let seed = if wl.seeded { seed } else { DEFAULT_SEED };
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                ccube_sim::reset_prep_cache();
                spans::set_pass(index);
                let mut pc = PassCtx {
                    seed,
                    quick,
                    workers: wl.workers,
                    out: PassOut::default(),
                };
                let t0 = Instant::now();
                let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    span("pass", || replay(wl.name, &mut pc));
                }));
                pc.out.wall = t0.elapsed().as_secs_f64();
                if let Err(p) = r {
                    let msg = p
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_default();
                    pc.error(format!("replay panicked: {msg}"));
                }
                let prep = ccube_sim::prep_cache_stats();
                pc.out.counters.prep_hits = prep.hits;
                pc.out.counters.prep_misses = prep.misses;
                pc.out
            })
            .join()
            .expect("the pass catches its own panics")
    })
}

fn replay(workload: &str, pc: &mut PassCtx) {
    match workload {
        "scaleout" => scaleout(pc),
        "search" => search(pc),
        "faults" => faults(pc),
        "figures" => figures(pc),
        other => panic!("unknown workload {other:?}"),
    }
    let cases = cases(workload, pc.quick);
    let seed = pc.seed;
    let results = spans::sweep(
        "probe",
        &cases,
        1,
        |c| format!("probe.{}", c.name),
        |c| probe(c, seed),
    );
    for (c, r) in cases.iter().zip(results) {
        match r {
            Ok(p) => {
                pc.output(format!("probe.{}", c.name), p.summary);
                pc.out.counters.merge(&p.counters);
            }
            Err(e) => pc.error(format!("probe {}: {e}", c.name)),
        }
    }
}

// ---------------------------------------------------------------------
// Workload entry points
// ---------------------------------------------------------------------

/// `ccube scaleout <P> 64 --threads 1`, decomposed into its layers.
fn scaleout(pc: &mut PassCtx) {
    let n = ByteSize::mib(64);
    let ps: Vec<usize> = std::iter::successors(Some(4usize), |p| Some(p * 2))
        .take_while(|&p| p <= workloads::scaleout_max_p(pc.quick))
        .collect();
    let points = spans::sweep(
        "core.scaleout",
        &ps,
        1,
        |p| format!("point.P{p}"),
        |&p| scaleout_point(p, n),
    );
    let mut text = String::new();
    for r in points {
        match r {
            Ok((row, stats)) => {
                let _ = writeln!(text, "{row}");
                for s in &stats {
                    pc.out.counters.add_sim(s);
                }
            }
            Err(e) => pc.error(e),
        }
    }
    pc.output("scaleout.stdout", text);
}

/// One fig14 grid point: ring, C1 and B on `hierarchical(p)`, as
/// `fig14::run_with_threads_net` computes it.
fn scaleout_point(p: usize, n: ByteSize) -> Result<(fig14::Row, Vec<SimStats>), String> {
    let topo = span("topology.build", || hierarchical(p));
    let dt = DoubleBinaryTree::new(p).map_err(|e| e.to_string())?;
    let k = fig14::chunk_count(n);
    let chunking = Chunking::even(n, k);
    let ring = span("collectives.schedule", || ring_allreduce(p, n));
    let c1 = span("collectives.schedule", || {
        tree_allreduce(dt.trees(), &chunking, Overlap::ReductionBroadcast)
    });
    let b = span("collectives.schedule", || {
        tree_allreduce(dt.trees(), &chunking, Overlap::None)
    });
    let opts = SimOptions::scale_out();
    let mut reports = Vec::with_capacity(3);
    for s in [&ring, &c1, &b] {
        let emb =
            span("collectives.embed", || Embedding::nic(&topo, s)).map_err(|e| e.to_string())?;
        lowering(&topo, s, &emb, &LinkTiming::default())?;
        let r =
            span("sim.simulate", || simulate(&topo, s, &emb, &opts)).map_err(|e| e.to_string())?;
        reports.push(r);
    }
    let [r, c, b] = &reports[..] else {
        unreachable!("three schedules simulated")
    };
    let row = fig14::Row {
        p,
        n,
        k,
        t_ring: r.makespan(),
        t_c1: c.makespan(),
        t_b: b.makespan(),
        c1_over_ring: r.makespan() / c.makespan(),
        turnaround_speedup: b.turnaround() / c.turnaround(),
    };
    Ok((row, reports.iter().map(|r| r.stats().clone()).collect()))
}

/// The text `ccube search [--bounds]` prints.
fn search_text(
    pruned: &[PrunedCandidate],
    bounded: Option<&BoundedOutcome>,
    rows: &[SearchRow],
) -> String {
    let mut t =
        String::from("schedule policy search: topology x tree shape x arbitration x chunks\n");
    let _ = writeln!(
        t,
        "static gate pruned {} invalid candidate(s) before simulation:",
        pruned.len()
    );
    for p in pruned {
        let _ = writeln!(t, "  {p}");
    }
    if let Some(b) = bounded {
        let _ = writeln!(
            t,
            "lower bounds skipped {} of {} candidate(s) ({} simulated):",
            b.skipped.len(),
            b.candidates,
            b.simulated
        );
        for s in &b.skipped {
            let _ = writeln!(t, "  {s}");
        }
    }
    for r in rows {
        let _ = writeln!(t, "{r}");
    }
    for topo in ["dgx1", "hier16"] {
        let best = policy_search::best_for(rows, topo);
        let _ = writeln!(
            t,
            "{topo}: best schedule is {} / {} / K={} (makespan {}, queue wait {})",
            best.shape,
            policy_search::arbitration_name(best.arbitration),
            best.k,
            best.makespan,
            best.queue_wait
        );
    }
    t
}

/// `ccube search --threads 1`, `search --bounds`, `lint all --json` and
/// `lint --physical all --json`.
fn search(pc: &mut PassCtx) {
    let text = span("core.search", || {
        let o = policy_search::run_full(1);
        search_text(&o.pruned, None, &o.rows)
    });
    pc.output("search.stdout", text);
    let text = span("core.search_bounded", || {
        let o = policy_search::run_bounded();
        search_text(&o.pruned, Some(&o), &o.rows)
    });
    pc.output("search_bounds.stdout", text);
    let json = span("core.lint", || lint::to_json(&lint::run_all()) + "\n");
    pc.output("lint.stdout", json);
    let json = span("core.lint_physical", || {
        lint::to_json(&lint::run_physical_all()) + "\n"
    });
    pc.output("lint_physical.stdout", json);
}

/// The spine/leaf fabric of `--fabric switch --uplinks 2 --uplink-policy
/// least-queued` (the CLI defaults the radix to 4 and one spine per slot).
fn leafspine() -> FabricSpec {
    FabricSpec {
        radix: Some(4),
        spines: 2,
        uplinks: 2,
        uplink_policy: UplinkPolicy::LeastQueued,
        ..FabricSpec::passthrough()
    }
}

/// `ccube faults --shrink <seed>`: the 1-minimal reproducer of the
/// seed's severity-3 plan on the hierarchical C1 workload.
fn shrink(seed: u64) -> Result<String, String> {
    let topo = hierarchical(16);
    let dt = DoubleBinaryTree::new(16).map_err(|e| e.to_string())?;
    let s = tree_allreduce(
        dt.trees(),
        &Chunking::even(ByteSize::mib(16), 16),
        Overlap::ReductionBroadcast,
    );
    let e = Embedding::nic(&topo, &s).map_err(|e| e.to_string())?;
    let opts = SimOptions::scale_out();
    let run = |p: &FaultPlan| span("sim.faulted", || simulate_faulted(&topo, &s, &e, &opts, p));
    let h = run(&FaultPlan::empty())
        .map_err(|e| e.to_string())?
        .makespan;
    let full = FaultPlan::sample(&FaultModel::severity(3, h), &topo, &SimRng::new(seed));
    let minimal = match run(&full) {
        Ok(r) => full.shrink(|p| run(p).map(|x| x.makespan >= r.makespan).unwrap_or(true)),
        Err(SimError::Unroutable { .. }) => {
            full.shrink(|p| matches!(run(p), Err(SimError::Unroutable { .. })))
        }
        Err(err) => return Err(format!("full plan failed unexpectedly: {err}")),
    };
    Ok(format!(
        "{} of {} events: {:?}\n",
        minimal.len(),
        full.len(),
        minimal.events()
    ))
}

/// The six commands of the `faults` workload.
fn faults(pc: &mut PassCtx) {
    let seed = pc.seed;
    let approx = NetworkModel::ChannelApprox;
    let grid = span("core.resilience", || {
        resilience::to_csv(&resilience::run_with_network(seed, 1, approx))
    });
    pc.output("grid.csv", grid);
    let leaf = span("core.fabric_resilience", || {
        resilience::to_csv(&resilience::run_with_network(
            seed,
            1,
            NetworkModel::SwitchFabric(leafspine()),
        ))
    });
    pc.output("leafspine.csv", leaf);
    match span("core.shrink", || shrink(seed)) {
        Ok(text) => pc.output("replay.shrink", text),
        Err(e) => pc.error(format!("shrink: {e}")),
    }
    let html = span("core.failover_html", || resilience::fabric_demo_html(seed));
    pc.output("failover.html", html);
    let demo = |s: u64| {
        span("sim.faulted", || resilience::demo_trace(s, approx)).map(|r| {
            (
                r.trace,
                resilience::demo_labels(format!("seed {s}"), &approx),
            )
        })
    };
    match span("core.trace_html", || {
        demo(seed).map(|(t, l)| span("sim.trace_html", || to_html(&t, &l)))
    }) {
        Ok(html) => pc.output("trace.html", html),
        Err(e) => pc.error(format!("trace --html: {e}")),
    }
    let diff = span("core.trace_diff", || -> Result<_, SimError> {
        let (lt, ll) = demo(seed)?;
        let (rt, rl) = demo(seed.wrapping_add(1))?;
        Ok(span("sim.trace_diff", || {
            let same = diff_csv(&lt.to_csv(), &rt.to_csv()).is_identical();
            (same, diff_to_html((&lt, &ll), (&rt, &rl)))
        }))
    });
    match diff {
        Ok((same, html)) => {
            if same {
                pc.error("trace --diff: seeds S and S+1 gave identical traces");
            }
            pc.output("diff.html", html);
        }
        Err(e) => pc.error(format!("trace --diff: {e}")),
    }
}

/// `ccube figures --threads 2`: the figure table on the workload's
/// workers, one span per figure.
fn figures(pc: &mut PassCtx) {
    let csvs = spans::sweep(
        "core.figures",
        &FIGURES,
        pc.workers,
        |(name, _)| format!("core.fig.{}", name.trim_end_matches(".csv")),
        |(_, render)| render(NetworkModel::ChannelApprox),
    );
    for ((name, _), csv) in FIGURES.iter().zip(csvs) {
        pc.output(format!("figs/{name}"), csv);
    }
}

// ---------------------------------------------------------------------
// Layer probes
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Machine {
    Dgx1,
    Hier(usize),
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    Ring,
    SingleTree,
    DoubleTree(Overlap),
}

/// One probe input: a collective on a machine, simulated with `opts`.
/// `deep` cases also run the fabric, fault, system and trace layers.
#[derive(Debug, Clone)]
struct Case {
    name: String,
    machine: Machine,
    shape: Shape,
    mib: u64,
    k: usize,
    opts: SimOptions,
    deep: bool,
}

impl Case {
    fn new(
        machine: Machine,
        shape: Shape,
        mib: u64,
        k: usize,
        opts: SimOptions,
        deep: bool,
    ) -> Case {
        let m = match machine {
            Machine::Dgx1 => "dgx1".to_string(),
            Machine::Hier(p) => format!("hier{p}"),
        };
        let s = match shape {
            Shape::Ring => "ring",
            Shape::SingleTree => "tree",
            Shape::DoubleTree(Overlap::None) => "B",
            Shape::DoubleTree(_) => "C1",
        };
        let arb = match opts.arbitration {
            Arbitration::FifoHol => "fifo",
            Arbitration::ChunkPriority => "prio",
        };
        Case {
            name: format!("{m}-{s}-{mib}MiB-k{k}-{arb}"),
            machine,
            shape,
            mib,
            k,
            opts,
            deep,
        }
    }

    fn ranks(&self) -> usize {
        match self.machine {
            Machine::Dgx1 => 8,
            Machine::Hier(p) => p,
        }
    }

    fn topology(&self) -> Topology {
        match self.machine {
            Machine::Dgx1 => dgx1(),
            Machine::Hier(p) => hierarchical(p),
        }
    }

    fn schedule(&self) -> Result<Schedule, String> {
        let n = ByteSize::mib(self.mib);
        let chunking = Chunking::even(n, self.k);
        Ok(match self.shape {
            Shape::Ring => ring_allreduce(self.ranks(), n),
            Shape::SingleTree => {
                let t = BinaryTree::inorder(self.ranks()).map_err(|e| e.to_string())?;
                tree_allreduce(
                    std::slice::from_ref(&t),
                    &chunking,
                    Overlap::ReductionBroadcast,
                )
            }
            Shape::DoubleTree(o) => {
                let dt = DoubleBinaryTree::new(self.ranks()).map_err(|e| e.to_string())?;
                tree_allreduce(dt.trees(), &chunking, o)
            }
        })
    }

    /// The placement the experiments ship for this machine and shape.
    fn embed(&self, topo: &Topology, s: &Schedule) -> Result<Embedding, EmbeddingError> {
        match (self.machine, self.shape) {
            (Machine::Hier(_), _) => Embedding::nic(topo, s),
            (Machine::Dgx1, Shape::DoubleTree(_)) => Embedding::dgx1_double_tree(topo, s),
            (Machine::Dgx1, _) => Embedding::identity(topo, s),
        }
    }
}

/// The probe inputs of each workload, shaped like the work it does:
/// `scaleout` a large scale-out tree, `search` the policy-search
/// candidate grid (many small distinct structures), `faults` the
/// resilience and demo-trace collectives, `figures` the fig12 DGX-1 pair
/// and a fig14 point.
fn cases(workload: &str, quick: bool) -> Vec<Case> {
    use Machine::{Dgx1, Hier};
    use Shape::{DoubleTree, Ring, SingleTree};
    let c1 = DoubleTree(Overlap::ReductionBroadcast);
    let big = if quick { 16 } else { 64 };
    let k64 = fig14::chunk_count(ByteSize::mib(64));
    let out = SimOptions::scale_out();
    match workload {
        "scaleout" => vec![Case::new(Hier(big), c1, 64, k64, out, true)],
        "search" => {
            let mut v = Vec::new();
            let ks: &[usize] = if quick { &[4, 16] } else { &[4, 8, 16, 32, 64] };
            for machine in [Dgx1, Hier(16)] {
                for shape in [SingleTree, c1] {
                    for arbitration in [Arbitration::FifoHol, Arbitration::ChunkPriority] {
                        for &k in ks {
                            let opts = SimOptions {
                                arbitration,
                                ..SimOptions::default()
                            }
                            .without_trace();
                            let deep = k == 16
                                && matches!(shape, DoubleTree(_))
                                && arbitration == Arbitration::FifoHol;
                            v.push(Case::new(machine, shape, 64, k, opts, deep));
                        }
                    }
                }
            }
            v
        }
        "faults" => vec![
            Case::new(Hier(16), c1, 16, 16, out, true),
            Case::new(Dgx1, c1, 16, 16, SimOptions::default(), true),
        ],
        "figures" => vec![
            Case::new(
                Dgx1,
                DoubleTree(Overlap::None),
                64,
                32,
                SimOptions::default(),
                true,
            ),
            Case::new(Dgx1, c1, 64, 32, SimOptions::default(), true),
            Case::new(Hier(big), Ring, 64, 1, out, false),
            Case::new(Hier(big), c1, 64, k64, out, true),
        ],
        other => panic!("unknown workload {other:?}"),
    }
}

/// Cold lowering and the rescaled path (`PreparedLowering::new` plus
/// `lower`), which must agree bit for bit.
fn lowering(
    topo: &Topology,
    s: &Schedule,
    e: &Embedding,
    timing: &LinkTiming,
) -> Result<Vec<TransferSpec>, String> {
    let cold = span("collectives.lower", || lower_schedule(s, e, topo, timing))
        .map_err(|e| e.to_string())?;
    let rescaled = span("collectives.rescale", || {
        PreparedLowering::new(s, e, topo).map(|p| p.lower(s, timing))
    })
    .map_err(|e| e.to_string())?;
    if rescaled != cold {
        return Err("rescaled lowering differs from the cold lowering".into());
    }
    Ok(cold)
}

/// A compute-gated job over `s`: every rank runs a 50 µs backward task
/// on its GPU before its first sends.
fn system_job(s: &Schedule, e: &Embedding) -> SystemJob {
    let compute = (0..s.num_ranks() as u32)
        .map(|r| ComputeTask {
            id: ComputeTaskId(r),
            gpu: e.gpu_of(Rank(r)),
            duration: Seconds::from_micros(50.0),
            deps_compute: vec![],
            deps_transfers: vec![],
            label: "bwd".into(),
        })
        .collect();
    let transfer_gates = s
        .transfers()
        .iter()
        .filter(|t| t.deps.is_empty())
        .map(|t| (t.id, ComputeTaskId(t.src.0)))
        .collect();
    SystemJob {
        schedule: s.clone(),
        compute,
        transfer_gates,
    }
}

struct ProbeOut {
    summary: String,
    counters: Counters,
}

fn bits(t: Seconds) -> String {
    format!("{:016x}", t.as_secs_f64().to_bits())
}

/// Runs every layer on one case. The summary (exact makespans, bounds,
/// lint counts and digests of the trace exports) is the case's output.
fn probe(c: &Case, seed: u64) -> Result<ProbeOut, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let topo = span("topology.build", || c.topology());
    let s = span("collectives.schedule", || c.schedule())?;
    let e = span("collectives.embed", || c.embed(&topo, &s)).map_err(|x| err(&x))?;
    let timing = LinkTiming {
        bandwidth_scale: c.opts.bandwidth_scale,
        forwarding_latency: c.opts.forwarding_latency,
    };
    let lints = span("collectives.analyze", || {
        analyze_embedded(&s, &e, &topo, &AnalyzeOptions::default())
    });
    let bound = span("collectives.bound", || {
        makespan_lower_bound(&s, &e, &topo, &timing)
    });
    let specs = lowering(&topo, &s, &e, &timing)?;
    let report = span("sim.simulate", || simulate(&topo, &s, &e, &c.opts)).map_err(|x| err(&x))?;
    if let Some(b) = bound.filter(|&b| b > report.makespan()) {
        return Err(format!(
            "certified bound {b} exceeds the simulated makespan {}",
            report.makespan()
        ));
    }
    let mut counters = Counters::default();
    counters.add_sim(report.stats());
    let mut summary = format!(
        "makespan {} turnaround {} bound {} lints {}\n",
        bits(report.makespan()),
        bits(report.turnaround()),
        bound.map_or("none".into(), bits),
        lints.diagnostics().len()
    );
    if !c.deep {
        return Ok(ProbeOut { summary, counters });
    }

    let graph = span("topology.fabric_graph", || {
        FabricGraph::from_topology(
            &topo,
            &FabricConfig {
                radix: Some(4),
                spines: 2,
                uplinks_per_leaf: 2,
                ..FabricConfig::default()
            },
        )
    });
    let popts = PhysicalAnalyzeOptions {
        timing,
        store_forward: false,
    };
    let physical = span("collectives.physical", || {
        analyze_physical(&s, &e, &topo, &graph, &popts)
    });
    let fabric_bound = span("collectives.bound", || {
        fabric_lower_bound(&s, &e, &topo, &graph, &popts)
    });
    let ports = span("collectives.ports", || lower_to_ports(&specs, &graph));
    let traced = SimOptions {
        trace_capacity: SimTrace::DEFAULT_CAPACITY,
        ..c.opts
    };
    let job = system_job(&s, &e);
    let system =
        span("sim.system", || simulate_system(&topo, &job, &e, &traced)).map_err(|x| err(&x))?;
    let plan = |seed: u64| {
        FaultPlan::sample(
            &FaultModel::severity(2, report.makespan()),
            &topo,
            &SimRng::new(seed),
        )
    };
    let (plan_a, plan_b) = (plan(seed), plan(seed.wrapping_add(1)));
    let severance = span("sim.severance", || {
        analyze_severance(&plan_a, &topo, &s, &e, &traced)
    });
    let faulted_a = span("sim.faulted", || {
        simulate_faulted(&topo, &s, &e, &traced, &plan_a)
    });
    let faulted_b = span("sim.faulted", || {
        simulate_faulted(&topo, &s, &e, &traced, &plan_b)
    });
    let fabric = span("sim.fabric", || {
        simulate(
            &topo,
            &s,
            &e,
            &c.opts.with_network(NetworkModel::SwitchFabric(leafspine())),
        )
    })
    .map_err(|x| err(&x))?;
    counters.failovers += fabric.stats().failovers;
    let mut outcome = |r: &Result<ccube_sim::SystemReport, SimError>| match r {
        Ok(r) => {
            counters.faults_injected += r.stats.faults_injected;
            counters.reroutes += r.stats.reroutes_taken;
            counters.failovers += r.stats.failovers;
            Ok(bits(r.makespan))
        }
        // A permanently severed path is a legitimate outcome of a sampled
        // plan on the hierarchical fabric.
        Err(SimError::Unroutable { .. }) => Ok("unroutable".to_string()),
        Err(x) => Err(err(x)),
    };
    let (out_a, out_b) = (outcome(&faulted_a)?, outcome(&faulted_b)?);

    // Trace layers run on the faulted traces, or on the system run's when
    // a plan severed the collective.
    let a = faulted_a.as_ref().map_or(&system.trace, |r| &r.trace);
    let b = faulted_b.as_ref().map_or(&system.trace, |r| &r.trace);
    counters.trace_records += a.len() as u64;
    counters.trace_dropped += a.dropped();
    let (csv, chrome) = span("sim.trace_export", || (a.to_csv(), a.to_chrome_json()));
    let labels = LaneLabels::for_network(c.name.clone(), &topo, &c.opts.network);
    let html = span("sim.trace_html", || to_html(a, &labels));
    let (diff, diff_html) = span("sim.trace_diff", || {
        let d = diff_csv(&csv, &b.to_csv());
        (d.to_json(), diff_to_html((a, &labels), (b, &labels)))
    });
    let d = |s: &str| workloads::digest(s.as_bytes());
    let _ = writeln!(
        summary,
        "physical {} fabric-bound {} ports {} system {} severance {} faulted {out_a} {out_b} fabric {}",
        physical.diagnostics().len(),
        fabric_bound.map_or("none".into(), bits),
        ports.iter().map(Vec::len).sum::<usize>(),
        bits(system.makespan),
        severance.diagnostics().len(),
        bits(fabric.makespan()),
    );
    let _ = writeln!(
        summary,
        "csv {} chrome {} html {} diff {} diff-html {}",
        d(&csv),
        d(&chrome),
        d(&html),
        d(&diff),
        d(&diff_html)
    );
    Ok(ProbeOut { summary, counters })
}

// ---------------------------------------------------------------------
// Running passes and deriving the metrics
// ---------------------------------------------------------------------

/// Layers timed by their spans: `<layer>_ms` is the pass total.
const LAYER_TIMES: [&str; 18] = [
    "topology.build",
    "topology.fabric_graph",
    "collectives.schedule",
    "collectives.embed",
    "collectives.analyze",
    "collectives.physical",
    "collectives.bound",
    "collectives.lower",
    "collectives.rescale",
    "collectives.ports",
    "sim.simulate",
    "sim.system",
    "sim.severance",
    "sim.faulted",
    "sim.fabric",
    "sim.trace_export",
    "sim.trace_html",
    "sim.trace_diff",
];

/// Layers whose allocations are counted: `<layer>_allocs`.
const LAYER_ALLOCS: [&str; 9] = [
    "collectives.schedule",
    "collectives.embed",
    "collectives.analyze",
    "collectives.lower",
    "collectives.rescale",
    "sim.simulate",
    "sim.faulted",
    "sim.fabric",
    "sim.trace_export",
];

/// Layers whose heap peak is reported: `<layer>_heap_mb`, the largest
/// single call's peak.
const LAYER_HEAP: [&str; 2] = ["collectives.schedule", "sim.simulate"];

/// The result of the traced replay of one workload.
#[derive(Debug)]
pub struct Replay {
    /// Per-layer metrics, by name.
    pub metrics: BTreeMap<String, Metric>,
    /// Per-entry-point timings (`core.search_ms`, `core.fig.<stem>_ms`, …).
    pub entries: BTreeMap<String, Metric>,
    /// Every span of the traced passes.
    pub spans: Vec<Span>,
    /// Wall seconds of each traced pass.
    pub traced_walls: Vec<f64>,
}

/// Per-pass totals of one span name.
#[derive(Default, Clone, Copy)]
struct Totals {
    ns: u64,
    allocs: u64,
    heap: u64,
}

/// Replays `wl` for `seconds` (at least two pairs of passes), each
/// traced pass followed by the same pass untraced to measure the tracing
/// overhead. Every pass's outputs are checked, and counters and per-layer
/// allocation counts must repeat exactly across passes.
///
/// # Errors
///
/// A digest file that cannot be read.
pub fn run(
    root: &std::path::Path,
    wl: Workload,
    seed: u64,
    seconds: f64,
    quick: bool,
    tally: &mut Tally,
) -> Result<Replay, String> {
    let mut oracle = Oracle::load(root, wl, seed, quick)?;
    let mut check = |p: &PassOut, first: Option<&PassOut>, tally: &mut Tally| {
        for (k, bytes) in &p.outputs {
            oracle.check(tally, k, bytes);
        }
        for e in &p.errors {
            tally.check(false, || e.clone());
        }
        if let Some(f) = first {
            let (mut a, mut b) = (p.counters.clone(), f.counters.clone());
            if wl.workers > 1 {
                // Each sweep worker keeps its own preparation cache, so
                // hits and misses depend on which worker ran what.
                (a.prep_hits, a.prep_misses, b.prep_hits, b.prep_misses) = (0, 0, 0, 0);
            }
            tally.check(a == b, || {
                format!("replay counters differ across passes: {a:?} vs {b:?}")
            });
        }
        p.errors.is_empty()
    };

    // Traced and untraced passes alternate, so host-speed drift hits both
    // alike and their difference is the tracing overhead.
    spans::take();
    let (mut traced, mut plain): (Vec<PassOut>, Vec<PassOut>) = (Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        spans::set_enabled(true);
        let p = pass(wl, seed, quick, traced.len() as u32);
        spans::set_enabled(false);
        let mut ok = check(&p, traced.first(), tally);
        traced.push(p);
        let p = pass(wl, seed, quick, u32::MAX);
        ok &= check(&p, traced.first(), tally);
        plain.push(p);
        if !ok || (traced.len() >= 2 && start.elapsed().as_secs_f64() >= seconds) {
            break;
        }
    }
    let recorded = spans::take();
    let (metrics, entries) = derive(&recorded, &traced, &plain, tally);
    let traced_walls = traced.iter().map(|p| p.wall).collect();
    Ok(Replay {
        metrics,
        entries,
        spans: recorded,
        traced_walls,
    })
}

/// The per-layer metrics and entry-point timings of a replay, from its spans
/// and pass results. Checks that per-layer allocation counts repeat
/// across the traced passes.
fn derive(
    recorded: &[Span],
    traced: &[PassOut],
    plain: &[PassOut],
    tally: &mut Tally,
) -> (BTreeMap<String, Metric>, BTreeMap<String, Metric>) {
    // Per-pass totals by span name.
    let mut totals: Vec<BTreeMap<&str, Totals>> = vec![BTreeMap::new(); traced.len()];
    for s in recorded {
        let t = totals[s.pass as usize].entry(&s.name).or_default();
        t.ns += s.dur();
        t.allocs += s.allocs;
        t.heap = t.heap.max(s.peak_heap);
    }
    for (i, t) in totals.iter().enumerate().skip(1) {
        for name in LAYER_ALLOCS {
            let (a, b) = (
                t.get(name).map(|x| x.allocs),
                totals[0].get(name).map(|x| x.allocs),
            );
            tally.check(a == b, || {
                format!("{name}: allocations differ between pass 0 ({b:?}) and pass {i} ({a:?})")
            });
        }
    }
    let per_pass = |name: &str, f: fn(&Totals) -> f64| -> Vec<f64> {
        totals.iter().map(|t| t.get(name).map_or(0.0, f)).collect()
    };

    let mut m = BTreeMap::new();
    for name in LAYER_TIMES {
        m.insert(
            format!("{name}_ms"),
            Metric::of(&per_pass(name, |t| t.ns as f64 / 1e6), "ms"),
        );
    }
    for name in LAYER_ALLOCS {
        m.insert(
            format!("{name}_allocs"),
            Metric::of(&per_pass(name, |t| t.allocs as f64), "count"),
        );
    }
    for name in LAYER_HEAP {
        m.insert(
            format!("{name}_heap_mb"),
            Metric::of(&per_pass(name, |t| t.heap as f64 / (1 << 20) as f64), "MB"),
        );
    }
    let sims: Vec<f64> = recorded
        .iter()
        .filter(|s| s.name == "sim.simulate")
        .map(|s| s.dur() as f64 / 1e6)
        .collect();
    m.insert(
        "sim.simulate_p50_ms".into(),
        Metric::new(stats::percentile(&sims, 50.0), "ms", sims.len()),
    );
    m.insert(
        "sim.simulate_p99_ms".into(),
        Metric::new(stats::percentile(&sims, 99.0), "ms", sims.len()),
    );
    let events: u64 = traced.iter().map(|p| p.counters.events_processed).sum();
    let sim_ns: f64 = sims.iter().sum::<f64>() * 1e6;
    m.insert(
        "sim.ns_per_event".into(),
        Metric::new(
            if events == 0 {
                0.0
            } else {
                sim_ns / events as f64
            },
            "ns",
            traced.len(),
        ),
    );
    let counter = |f: fn(&Counters) -> u64| -> Vec<f64> {
        traced.iter().map(|p| f(&p.counters) as f64).collect()
    };
    type Field = fn(&Counters) -> u64;
    let counts: [(&str, Field); 12] = [
        ("sim.events_processed", |c| c.events_processed),
        ("sim.events_scheduled", |c| c.events_scheduled),
        ("sim.max_event_queue_depth", |c| c.max_event_queue_depth),
        ("sim.max_channel_queue_depth", |c| c.max_channel_queue_depth),
        ("sim.force_starts", |c| c.force_starts),
        ("sim.faults_injected", |c| c.faults_injected),
        ("sim.reroutes", |c| c.reroutes),
        ("sim.failovers", |c| c.failovers),
        ("sim.trace_records", |c| c.trace_records),
        ("sim.trace_dropped", |c| c.trace_dropped),
        ("sim.prep_hits", |c| c.prep_hits),
        ("sim.prep_misses", |c| c.prep_misses),
    ];
    for (name, f) in counts {
        m.insert(name.into(), Metric::of(&counter(f), "count"));
    }
    let ratio: Vec<f64> = traced
        .iter()
        .map(|p| {
            let c = &p.counters;
            let all = c.prep_hits + c.prep_misses;
            if all == 0 {
                0.0
            } else {
                c.prep_hits as f64 / all as f64
            }
        })
        .collect();
    m.insert("sim.prep_hit_ratio".into(), Metric::of(&ratio, "frac"));

    // Sweep idleness: 1 - busy / (workers x wall) over every traced sweep.
    let mut busy = vec![0u64; recorded.len()];
    for s in recorded {
        if let Some(p) = s.parent.filter(|&p| recorded[p].workers > 0) {
            busy[p] += s.dur();
        }
    }
    let (mut used, mut capacity) = (0.0, 0.0);
    for (s, b) in recorded.iter().zip(&busy) {
        if s.workers > 0 {
            used += *b as f64;
            capacity += f64::from(s.workers) * s.dur() as f64;
        }
    }
    m.insert(
        "sim.sweep_idle_frac".into(),
        Metric::new(
            if capacity > 0.0 {
                1.0 - used / capacity
            } else {
                0.0
            },
            "frac",
            traced.len(),
        ),
    );

    // Entry-point time, unattributed root time, tracing overhead.
    let selfs = spans::self_times(recorded);
    let mut entry = vec![0.0; traced.len()];
    let mut root_self = vec![0.0; traced.len()];
    for (i, s) in recorded.iter().enumerate() {
        match s.parent {
            None if s.name == "pass" => {
                root_self[s.pass as usize] = selfs[i] as f64 / s.dur().max(1) as f64
            }
            Some(p) if recorded[p].parent.is_none() && s.name.starts_with("core.") => {
                entry[s.pass as usize] += s.dur() as f64 / 1e6;
            }
            _ => {}
        }
    }
    m.insert("core.entry_ms".into(), Metric::of(&entry, "ms"));
    m.insert(
        "bench.root_self_frac".into(),
        Metric::of(&root_self, "frac"),
    );
    let traced_walls: Vec<f64> = traced.iter().map(|p| p.wall).collect();
    let plain_walls: Vec<f64> = plain.iter().map(|p| p.wall).collect();
    m.insert(
        "bench.pass_ms".into(),
        Metric::of(
            &traced_walls.iter().map(|w| w * 1e3).collect::<Vec<_>>(),
            "ms",
        ),
    );
    m.insert(
        "bench.trace_overhead_frac".into(),
        Metric::new(
            stats::median(&traced_walls) / stats::median(&plain_walls) - 1.0,
            "frac",
            traced.len() + plain.len(),
        ),
    );

    let mut entries = BTreeMap::new();
    let names: std::collections::BTreeSet<&str> = recorded
        .iter()
        .filter(|s| s.name.starts_with("core."))
        .map(|s| s.name.as_str())
        .collect();
    for name in names {
        entries.insert(
            format!("{name}_ms"),
            Metric::of(&per_pass(name, |t| t.ns as f64 / 1e6), "ms"),
        );
    }
    (m, entries)
}
