//! Malformed input gets a typed error or a lint finding from every
//! library entry point — never a panic, never a certified bound — and
//! the same one in every build profile (`scripts/check.sh` runs this
//! file with `--release` as well).
//!
//! The inputs are what the public API lets a caller build: routes
//! planted with `Embedding::set_route`, schedules from
//! `ScheduleBuilder::finish_unchecked`, and `SystemJob`s whose compute
//! tasks or gates name nodes the job does not have. The embedding
//! constructors and the step executor see five `finish_unchecked`
//! defects on the DGX-1 and on a 16-node cluster: each constructor
//! either refuses a schedule with a typed error or places it for the
//! lowering to reject.

use ccube_collectives::analyze::analyze_embedded;
use ccube_collectives::verify::{execute_steps, ChannelKeying, DagViolation, VerifyError};
use ccube_collectives::{
    fabric_lower_bound, makespan_lower_bound, physical, ring_allreduce, AnalyzeOptions, ChunkId,
    Chunking, EdgeKey, Embedding, EmbeddingError, LinkTiming, LintCode, LowerError, Phase,
    PreparedLowering, Rank, RouteDefect, Schedule, ScheduleBuilder, TransferId, TreeIndex,
};
use ccube_sim::faults::{forever, FaultEvent, FaultPlan};
use ccube_sim::{
    analyze_severance, simulate, simulate_faulted, simulate_system, simulate_system_faulted,
    ComputeTask, ComputeTaskId, SimError, SimOptions, SystemJob,
};
use ccube_topology::{
    dgx1, hierarchical, ByteSize, ChannelClass, ChannelId, FabricConfig, FabricGraph, GpuId, Route,
    Seconds, Topology, TopologyError,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs `f`, failing the test (instead of unwinding) if it panics.
fn no_panic<T>(what: &str, f: impl FnOnce() -> T) -> T {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| panic!("{what} panicked"))
}

/// A valid fault plan for the DGX-1, so the faulted paths run too.
fn plan() -> FaultPlan {
    FaultPlan::new(vec![FaultEvent::LinkDown {
        channel: ChannelId(0),
        from: Seconds::ZERO,
        until: forever(),
    }])
    .unwrap()
}

/// One malformed input: a schedule and embedding on the DGX-1, and the
/// lowering error (with its lint code) every entry point must report.
struct Case {
    name: &'static str,
    schedule: Schedule,
    embedding: Embedding,
    error: LowerError,
    code: LintCode,
}

fn edge(s: &Schedule, e: usize) -> EdgeKey {
    let (src, dst, tree) = s.edges()[e];
    EdgeKey { src, dst, tree }
}

/// The 8-rank ring with edge 0's route replaced by `route(embedding)`,
/// which the lowering must reject for `defect`.
fn ring_with_route(
    name: &'static str,
    topo: &Topology,
    route: impl Fn(&Schedule, &Embedding) -> Route,
    defect: RouteDefect,
) -> Case {
    let schedule = ring_allreduce(8, ByteSize::mib(1));
    let mut embedding = Embedding::identity(topo, &schedule).unwrap();
    let planted = route(&schedule, &embedding);
    embedding.set_route(edge(&schedule, 0), planted).unwrap();
    let edge = edge(&schedule, 0);
    Case {
        name,
        schedule,
        embedding,
        error: LowerError::InvalidRoute { edge, defect },
        code: LintCode::InvalidRoute,
    }
}

/// A one-transfer schedule r0 -> r1 of one chunk, carrying `chunk` and
/// `deps`, which the lowering must reject for `violation`.
fn one_transfer(
    name: &'static str,
    topo: &Topology,
    chunk: u32,
    deps: &[u32],
    violation: DagViolation,
) -> Case {
    let mut b = ScheduleBuilder::new();
    let deps = deps.iter().map(|&d| TransferId(d));
    let size = ByteSize::kib(4);
    b.push(
        Rank(0),
        Rank(1),
        ChunkId(chunk),
        size,
        Phase::Reduce,
        TreeIndex(0),
        deps,
    );
    let schedule = b.finish_unchecked("one-transfer", 2, Chunking::even(size, 1));
    let embedding = Embedding::identity(topo, &schedule).unwrap();
    Case {
        name,
        schedule,
        embedding,
        error: LowerError::MalformedDag(violation),
        code: LintCode::MalformedDag,
    }
}

fn cases(topo: &Topology) -> [Case; 4] {
    let id = TransferId(0);
    [
        ring_with_route(
            "empty route",
            topo,
            |s, e| {
                let key = edge(s, 0);
                let (src, dst) = (e.gpu_of(key.src), e.gpu_of(key.dst));
                Route::multi(src, dst, vec![], ChannelClass::NvLink)
            },
            RouteDefect::EmptyPath,
        ),
        ring_with_route(
            "another edge's route",
            topo,
            |s, e| e.route(&edge(s, 1)).unwrap().clone(),
            RouteDefect::Endpoints((GpuId(1), GpuId(2)), (GpuId(0), GpuId(1))),
        ),
        one_transfer(
            "chunk 5 of a 1-chunk schedule",
            topo,
            5,
            &[],
            DagViolation::ChunkOutOfRange {
                id,
                chunk: ChunkId(5),
                num_chunks: 1,
            },
        ),
        one_transfer(
            "dependency on t7 in a 1-transfer schedule",
            topo,
            0,
            &[7],
            DagViolation::ForwardDep {
                id,
                dep: TransferId(7),
            },
        ),
    ]
}

#[test]
fn every_entry_point_rejects_a_malformed_schedule_or_route_with_a_typed_error() {
    let topo = dgx1();
    let fabric = FabricGraph::from_topology(&topo, &FabricConfig::default());
    let opts = SimOptions::default();
    for case in cases(&topo) {
        let Case {
            name,
            schedule: s,
            embedding: e,
            error,
            code,
        } = &case;
        let lowered = no_panic(name, || PreparedLowering::new(s, e, &topo));
        assert_eq!(lowered.err().as_ref(), Some(error), "{name}");
        let timing = LinkTiming::default();
        let bound = no_panic(name, || makespan_lower_bound(s, e, &topo, &timing));
        assert_eq!(bound, None, "{name}: certified a bound");
        let phys_opts = Default::default();
        let bound = no_panic(name, || {
            fabric_lower_bound(s, e, &topo, &fabric, &phys_opts)
        });
        assert_eq!(bound, None, "{name}: certified a port-level bound");

        // The physical and severance passes report the finding alone:
        // no CC019/CC020 bound, no fault classification.
        let physical = no_panic(name, || {
            physical::analyze_physical(s, e, &topo, &fabric, &phys_opts)
        });
        let severance = no_panic(name, || analyze_severance(&plan(), &topo, s, e, &opts));
        for report in [physical, severance] {
            let codes: Vec<LintCode> = report.diagnostics().iter().map(|d| d.code).collect();
            assert_eq!(codes, [*code], "{name}: {report}");
            assert_eq!(report.diagnostics()[0].message, error.to_string());
        }
        let lint = no_panic(name, || {
            analyze_embedded(s, e, &topo, &AnalyzeOptions::default())
        });
        assert!(
            lint.diagnostics().iter().any(|d| d.code == *code),
            "{name}: {lint}"
        );

        let expected = Some(SimError::Lowering(error.clone()));
        let run = no_panic(name, || simulate(&topo, s, e, &opts));
        assert_eq!(run.err(), expected, "{name}");
        let run = no_panic(name, || simulate_faulted(&topo, s, e, &opts, &plan()));
        assert_eq!(run.err(), expected, "{name}");
        let job = SystemJob {
            schedule: s.clone(),
            compute: Vec::new(),
            transfer_gates: Vec::new(),
        };
        let run = no_panic(name, || simulate_system(&topo, &job, e, &opts));
        assert_eq!(run.err(), expected, "{name}");
    }
}

fn task(id: u32, gpu: u32, deps_compute: &[u32], deps_transfers: &[u32]) -> ComputeTask {
    ComputeTask {
        id: ComputeTaskId(id),
        gpu: GpuId(gpu),
        duration: Seconds::from_micros(1.0),
        deps_compute: deps_compute.iter().map(|&c| ComputeTaskId(c)).collect(),
        deps_transfers: deps_transfers.iter().map(|&t| TransferId(t)).collect(),
        label: "task".to_string(),
    }
}

#[test]
fn simulate_system_rejects_a_job_whose_references_do_not_fit_it() {
    let topo = dgx1();
    let schedule = ring_allreduce(8, ByteSize::mib(1));
    let e = Embedding::identity(&topo, &schedule).unwrap();
    let nt = schedule.transfers().len() as u32;
    let job = |compute: Vec<ComputeTask>, gates: Vec<(u32, u32)>| SystemJob {
        schedule: schedule.clone(),
        compute,
        transfer_gates: gates
            .into_iter()
            .map(|(t, c)| (TransferId(t), ComputeTaskId(c)))
            .collect(),
    };
    let jobs = [
        (
            "a gate on compute task 3 of none",
            job(vec![], vec![(0, 3)]),
        ),
        (
            "a gate on transfer nt",
            job(vec![task(0, 0, &[], &[])], vec![(nt, 0)]),
        ),
        (
            "compute id 1 at index 0",
            job(vec![task(1, 0, &[], &[])], vec![]),
        ),
        (
            "compute on gpu 99",
            job(vec![task(0, 99, &[], &[])], vec![]),
        ),
        (
            "a dependency on compute task 2 of 1",
            job(vec![task(0, 0, &[2], &[])], vec![]),
        ),
        // Node nt + 1 is compute task 1: without the check this task
        // silently waits on its neighbour instead of a transfer.
        (
            "a dependency on transfer nt + 1",
            job(
                vec![task(0, 0, &[], &[nt + 1]), task(1, 1, &[], &[])],
                vec![],
            ),
        ),
    ];
    let opts = SimOptions::default();
    for (name, job) in &jobs {
        let run = no_panic(name, || simulate_system(&topo, job, &e, &opts));
        assert!(
            matches!(run, Err(SimError::JobInvalid(_))),
            "{name}: {run:?}"
        );
        let run = no_panic(name, || {
            simulate_system_faulted(&topo, job, &e, &opts, &plan())
        });
        assert!(
            matches!(run, Err(SimError::JobInvalid(_))),
            "{name}: {run:?}"
        );
    }
    // References in range simulate: task 1 waits on task 0, which
    // waits on the last transfer.
    let valid = job(
        vec![task(0, 0, &[], &[nt - 1]), task(1, 1, &[0], &[])],
        vec![],
    );
    let report = simulate_system(&topo, &valid, &e, &opts).unwrap();
    assert!(report.compute_complete[1] > report.compute_complete[0]);
}

/// What an embedding constructor does with a malformed schedule: refuse
/// it with a typed error, or place it and leave the lowering to reject
/// it.
#[derive(Debug)]
enum Placement {
    Refused(EmbeddingError),
    Lowered,
}

/// One `finish_unchecked` defect: `transfers` as `(src, dst, chunk,
/// deps)` on `ranks` ranks and one chunk, the violation the DAG check
/// reports, and what `identity`, `identity_with_host`, `nic` and
/// `with_mapping` (every GPU, in reverse order) do with it on
/// `topo`.
struct Defect {
    name: &'static str,
    ranks: usize,
    transfers: &'static [(u32, u32, u32, &'static [u32])],
    violation: DagViolation,
    placements: [Placement; 4],
}

fn defects(topo: &Topology) -> [Defect; 5] {
    use Placement::{Lowered, Refused};
    let id = TransferId(0);
    let last = GpuId(topo.num_gpus() as u32 - 1);
    let unplaced = |rank, mapped| Refused(EmbeddingError::RankOutOfRange { rank, mapped });
    let self_loop = |gpu| Refused(EmbeddingError::Routing(TopologyError::SelfLoop(gpu)));
    // The reversed mapping puts r0 -> r5 on GPUs 15 -> 10 of the
    // 16-node cluster, which no NVLink route joins.
    let far_pair = match topo.num_gpus() {
        8 => Lowered,
        _ => Refused(EmbeddingError::Routing(TopologyError::NoRoute {
            src: GpuId(15),
            dst: GpuId(10),
        })),
    };
    [
        Defect {
            name: "rank out of range",
            ranks: 2,
            transfers: &[(0, 5, 0, &[])],
            violation: DagViolation::EndpointOutOfRange {
                id,
                src: Rank(0),
                dst: Rank(5),
                num_ranks: 2,
            },
            placements: [
                unplaced(Rank(5), 2),
                unplaced(Rank(5), 2),
                unplaced(Rank(5), 2),
                far_pair,
            ],
        },
        // `nic` places a self-loop, whose NIC pair is no route of
        // its own; the lowering's `SelfLoop` check rejects it.
        Defect {
            name: "self-loop",
            ranks: 2,
            transfers: &[(0, 0, 0, &[])],
            violation: DagViolation::SelfLoop { id },
            placements: [
                self_loop(GpuId(0)),
                self_loop(GpuId(0)),
                Lowered,
                self_loop(last),
            ],
        },
        Defect {
            name: "chunk out of range",
            ranks: 2,
            transfers: &[(0, 1, 5, &[])],
            violation: DagViolation::ChunkOutOfRange {
                id,
                chunk: ChunkId(5),
                num_chunks: 1,
            },
            placements: [Lowered, Lowered, Lowered, Lowered],
        },
        Defect {
            name: "forward dep",
            ranks: 2,
            transfers: &[(0, 1, 0, &[1]), (1, 0, 0, &[])],
            violation: DagViolation::ForwardDep {
                id,
                dep: TransferId(1),
            },
            placements: [Lowered, Lowered, Lowered, Lowered],
        },
        Defect {
            name: "zero ranks",
            ranks: 0,
            transfers: &[(0, 1, 0, &[])],
            violation: DagViolation::EndpointOutOfRange {
                id,
                src: Rank(0),
                dst: Rank(1),
                num_ranks: 0,
            },
            placements: [
                unplaced(Rank(0), 0),
                unplaced(Rank(0), 0),
                unplaced(Rank(0), 0),
                Lowered,
            ],
        },
    ]
}

#[test]
fn embeddings_and_the_step_executor_reject_malformed_schedules_with_typed_errors() {
    for topo in [dgx1(), hierarchical(16)] {
        let mapping: Vec<GpuId> = (0..topo.num_gpus() as u32).rev().map(GpuId).collect();
        for defect in defects(&topo) {
            let Defect {
                name,
                ranks,
                transfers,
                violation,
                placements,
            } = defect;
            let mut b = ScheduleBuilder::new();
            let size = ByteSize::kib(4);
            for &(src, dst, chunk, deps) in transfers {
                let deps = deps.iter().map(|&d| TransferId(d));
                let (src, dst, chunk) = (Rank(src), Rank(dst), ChunkId(chunk));
                b.push(src, dst, chunk, size, Phase::Reduce, TreeIndex(0), deps);
            }
            let s = b.finish_unchecked(name, ranks, Chunking::even(size, 1));
            let gpus = topo.num_gpus();
            let placed = [
                (
                    "identity",
                    no_panic(name, || Embedding::identity(&topo, &s)),
                ),
                (
                    "identity_with_host",
                    no_panic(name, || Embedding::identity_with_host(&topo, &s)),
                ),
                ("nic", no_panic(name, || Embedding::nic(&topo, &s))),
                (
                    "with_mapping",
                    no_panic(name, || {
                        Embedding::with_mapping(&topo, &s, mapping.clone(), false)
                    }),
                ),
            ];
            for ((ctor, placed), want) in placed.into_iter().zip(placements) {
                let what = format!("{name}, {ctor} on {gpus} GPUs");
                match (placed, want) {
                    (Err(e), Placement::Refused(want)) => assert_eq!(e, want, "{what}"),
                    (Ok(e), Placement::Lowered) => {
                        let lowered = no_panic(&what, || PreparedLowering::new(&s, &e, &topo));
                        let want = LowerError::MalformedDag(violation);
                        assert_eq!(lowered.err(), Some(want), "{what}");
                    }
                    (placed, want) => panic!("{what}: {placed:?}, expected {want:?}"),
                }
            }
            for keying in [ChannelKeying::PerTree, ChannelKeying::SharedAcrossTrees] {
                let run = no_panic(name, || execute_steps(&s, keying));
                let want = VerifyError::MalformedDag(violation);
                assert_eq!(run.err(), Some(want), "{name}, {keying:?}");
            }
        }
    }
}
