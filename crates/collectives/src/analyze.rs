//! Static analysis (lints) over schedules and their physical embeddings.
//!
//! The DES and the symbolic replayer discover structural problems by
//! *running* a schedule; this module finds them *statically*, before any
//! simulation is spent — the pre-execution checking that GC3-style
//! collective compilers argue for, applied to this repo's [`Schedule`]
//! IR. Every finding is a [`Diagnostic`] with a stable lint code
//! (`CC001`..), a severity, and a [`Span`] naming the offending
//! transfers, ranks, chunks, channels, or logical edges.
//!
//! Four analysis families:
//!
//! * **Deadlock** — [`analyze`] builds the wait-for graph over transfer
//!   dependencies, per-channel FIFO grant order, and the runtime's
//!   bounded-mailbox protocol (a producer blocks when its `(tree, edge)`
//!   mailbox is full, see `ccube-runtime`), and reports every cycle as a
//!   minimal witness path (`CC002`).
//! * **Dataflow conservation** — symbolic replay proves every chunk is
//!   reduced exactly once per tree and broadcast to all ranks (`CC003`,
//!   `CC004`), an ancestor-reachability pass flags conflicting buffer
//!   accesses that no dependency path orders (`CC005`, the lint that
//!   catches a dropped dependency edge), and per-tree in-order chunk
//!   delivery — the property C2's gradient queue relies on — is checked
//!   explicitly (`CC006`).
//! * **Embedding conflicts** — [`analyze_embedded`] validates every
//!   route against the topology (`CC007`, `CC008`) and reports logical
//!   edges sharing a physical channel in overlapping steps — the paper's
//!   doubled-NVLink double-tree hazard — as errors with step witnesses
//!   (`CC009`), plus oversubscription and NIC fan-in notes (`CC010`,
//!   `CC011`, `CC012`).
//! * **Critical-path bounds** — the static step depth is compared with
//!   the paper's class formulas, `2·log P + K` for the overlapped tree
//!   and `2(log P + K)` for the baseline (`CC013`).
//!
//! # Lint codes
//!
//! The logical-layer codes, stable across releases (`ccube lint`):
//!
//! | code | name | meaning |
//! |---|---|---|
//! | `CC001` | `malformed-dag` | a structural DAG invariant is broken (dangling dep, self-loop, bad rank) |
//! | `CC002` | `wait-cycle` | the wait-for graph has a cycle — a deadlock witness path |
//! | `CC003` | `incomplete-dataflow` | a buffer ends without all contributions (incomplete reduction/broadcast) |
//! | `CC004` | `double-reduction` | a reduction folds in contributions the destination already holds |
//! | `CC005` | `dataflow-race` | two conflicting buffer accesses no dependency path orders |
//! | `CC006` | `out-of-order-delivery` | chunks complete out of order within a tree (breaks C2's gradient queue) |
//! | `CC007` | `missing-route` | the embedding has no route for a logical edge |
//! | `CC008` | `invalid-route` | a route is invalid on the topology (unknown channel, broken hop chain) |
//! | `CC009` | `channel-conflict` | two logical edges occupy one physical channel in overlapping steps — the doubled-NVLink double-tree hazard |
//! | `CC010` | `oversubscription` | edges share a channel but never in the same step (serialization pressure, not a conflict) |
//! | `CC011` | `nic-fan-in` | NIC injection/ejection channels carry several edges concurrently |
//! | `CC012` | `host-bridge-route` | a route crosses the PCIe host bridge the paper's detours avoid |
//! | `CC013` | `step-bound-exceeded` | static step depth exceeds the algorithm's class formula |
//! | `CC014` | `analysis-truncated` | an analysis was skipped (e.g. the race check past its pair budget) |
//!
//! `CC015`..`CC023` are the physical-layer analyzer's codes — fabric
//! hazards, certified lower bounds and fault severance — documented in
//! [`physical`](crate::physical).
//!
//! `CC001`, `CC007` and `CC008` are the rules of the one input gate,
//! [`PreparedLowering::new`](crate::PreparedLowering::new): the
//! analyzer reports every violation ([`push_lower_error`]), the
//! lowering rejects the first with a typed
//! [`LowerError`] before any simulation or bound.
//!
//! # Cost
//!
//! Every pass works on flat tables, so an analysis allocates per logical
//! edge and per finding, not per transfer. The transfers are grouped into
//! their per-tree channel queues once; the wait-for graph is CSR over
//! them, and an edge's `dep`/`fifo`/`mailbox` label is derived only when
//! a witness reports it. The dataflow replay keeps one contribution
//! table, the race check one ancestor bitset and one access table. The
//! unit-step replay ([`verify::execute_steps`]) runs once and is shared
//! by the delivery-order and step-bound lints and by the embedding
//! pass's conflict witnesses; it runs only on a clean logical report.
//!
//! # Examples
//!
//! ```
//! use ccube_collectives::{analyze, tree_allreduce, Chunking, DoubleBinaryTree, Embedding, Overlap};
//! use ccube_topology::{dgx1, ByteSize};
//!
//! let topo = dgx1();
//! let dt = DoubleBinaryTree::new(8).unwrap();
//! let s = tree_allreduce(dt.trees(), &Chunking::even(ByteSize::mib(64), 16),
//!                        Overlap::ReductionBroadcast);
//!
//! // The topology-aware placement lints clean...
//! let good = Embedding::dgx1_double_tree(&topo, &s).unwrap();
//! assert!(analyze::analyze_embedded(&s, &good, &topo, &Default::default()).is_clean());
//!
//! // ...the naive identity placement collides on the doubled NVLinks.
//! let naive = Embedding::identity(&topo, &s).unwrap();
//! let report = analyze::analyze_embedded(&s, &naive, &topo, &Default::default());
//! assert!(report.diagnostics().iter().any(|d| d.code == analyze::LintCode::ChannelConflict));
//! ```

use crate::chunk::ChunkId;
use crate::embedding::{EdgeKey, Embedding};
use crate::lowering::{checked_route, LowerError, RouteDefect};
use crate::rank::Rank;
use crate::schedule::{Phase, Schedule, TransferId};
use crate::verify::{self, ChannelKeying, ChannelQueues, DagViolation};
use ccube_topology::{ChannelClass, ChannelId, Topology};
use std::collections::BTreeMap;
use std::fmt;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Expected or informational — no action needed.
    Info,
    /// Suspicious but not provably wrong; worth a look.
    Warn,
    /// The schedule/embedding is invalid; running it would deadlock,
    /// corrupt data, or serialize on a conflicted channel.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warn => write!(f, "warn"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable lint codes. The numeric code (`CC001`..) and the kebab-case
/// name are both part of the output contract and never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCode {
    /// `CC001` — a structural DAG invariant is broken.
    MalformedDag,
    /// `CC002` — the wait-for graph has a cycle (deadlock).
    WaitCycle,
    /// `CC003` — a buffer ends without all contributions (incomplete
    /// reduction or broadcast).
    IncompleteDataflow,
    /// `CC004` — a reduction folds in contributions the destination
    /// already has (a chunk reduced more than once).
    DoubleReduction,
    /// `CC005` — two conflicting accesses to the same buffer with no
    /// dependency path ordering them (a data race; the signature of a
    /// dropped dependency edge).
    DataflowRace,
    /// `CC006` — chunks complete out of order within a tree (breaks the
    /// in-order delivery C2's gradient queue depends on).
    OutOfOrderDelivery,
    /// `CC007` — the embedding has no route for a logical edge.
    MissingRoute,
    /// `CC008` — a route is invalid on the topology (unknown channel,
    /// broken hop chain, wrong endpoints, or via mismatch).
    InvalidRoute,
    /// `CC009` — two logical edges occupy the same physical channel in
    /// the same step (the doubled-NVLink double-tree hazard).
    ChannelConflict,
    /// `CC010` — edges share a channel but never in the same step;
    /// correct, yet the channel is oversubscribed and any slip
    /// serializes.
    Oversubscription,
    /// `CC011` — NIC injection/ejection channels carry several edges
    /// (expected in scale-out topologies; arbitrated at runtime).
    NicFanIn,
    /// `CC012` — a route crosses the PCIe host bridge.
    HostBridgeRoute,
    /// `CC013` — the static step count exceeds the algorithm's class
    /// bound (`2·log P + K` overlapped, `2(log P + K)` baseline).
    StepBoundExceeded,
    /// `CC014` — an analysis was skipped (e.g. the race check on an
    /// oversized schedule); absence of findings is not proof.
    AnalysisTruncated,
    /// `CC015` — several logical edges pile onto one physical port (an
    /// NVLink or host-bridge lane); the embedding serializes there.
    LinkContention,
    /// `CC016` — cross-leaf transfers stripe unevenly over the uplink
    /// slots of a multi-uplink leaf (the `source_node % k` hazard:
    /// static hashing can leave whole slots idle).
    UplinkStripingSkew,
    /// `CC017` — the offered cross-leaf load drains slower through a
    /// leaf's uplink pool than through any endpoint port; the
    /// oversubscribed uplinks are the static bottleneck.
    OversubscriptionHotspot,
    /// `CC018` — a lowered route has no physical port path on the
    /// fabric (fabric/topology mismatch, a channel with no port, or a
    /// leaf crossing with no uplinks).
    UnreachablePortPath,
    /// `CC019` — certified channel-level makespan lower bound
    /// (max of dependency critical path and bottleneck congestion).
    MakespanLowerBound,
    /// `CC020` — certified port-level makespan lower bound on the
    /// switch fabric (endpoint ports exact, uplink pools amortized).
    FabricLowerBound,
    /// `CC021` — a fault window is survivable: every affected transfer
    /// has a fallback route or a surviving uplink slot.
    FaultReroutable,
    /// `CC022` — a fault window stalls traffic until repair (no
    /// fallback while down, but the outage is finite).
    FaultStall,
    /// `CC023` — a permanent fault severs live routes with no fallback;
    /// the fault engine would drain `Unroutable`.
    FaultSevered,
}

impl LintCode {
    /// The stable `CCnnn` code.
    pub fn as_str(self) -> &'static str {
        match self {
            LintCode::MalformedDag => "CC001",
            LintCode::WaitCycle => "CC002",
            LintCode::IncompleteDataflow => "CC003",
            LintCode::DoubleReduction => "CC004",
            LintCode::DataflowRace => "CC005",
            LintCode::OutOfOrderDelivery => "CC006",
            LintCode::MissingRoute => "CC007",
            LintCode::InvalidRoute => "CC008",
            LintCode::ChannelConflict => "CC009",
            LintCode::Oversubscription => "CC010",
            LintCode::NicFanIn => "CC011",
            LintCode::HostBridgeRoute => "CC012",
            LintCode::StepBoundExceeded => "CC013",
            LintCode::AnalysisTruncated => "CC014",
            LintCode::LinkContention => "CC015",
            LintCode::UplinkStripingSkew => "CC016",
            LintCode::OversubscriptionHotspot => "CC017",
            LintCode::UnreachablePortPath => "CC018",
            LintCode::MakespanLowerBound => "CC019",
            LintCode::FabricLowerBound => "CC020",
            LintCode::FaultReroutable => "CC021",
            LintCode::FaultStall => "CC022",
            LintCode::FaultSevered => "CC023",
        }
    }

    /// The kebab-case lint name.
    pub fn name(self) -> &'static str {
        match self {
            LintCode::MalformedDag => "malformed-dag",
            LintCode::WaitCycle => "wait-cycle",
            LintCode::IncompleteDataflow => "incomplete-dataflow",
            LintCode::DoubleReduction => "double-reduction",
            LintCode::DataflowRace => "dataflow-race",
            LintCode::OutOfOrderDelivery => "out-of-order-delivery",
            LintCode::MissingRoute => "missing-route",
            LintCode::InvalidRoute => "invalid-route",
            LintCode::ChannelConflict => "channel-conflict",
            LintCode::Oversubscription => "oversubscription",
            LintCode::NicFanIn => "nic-fan-in",
            LintCode::HostBridgeRoute => "host-bridge-route",
            LintCode::StepBoundExceeded => "step-bound-exceeded",
            LintCode::AnalysisTruncated => "analysis-truncated",
            LintCode::LinkContention => "link-contention",
            LintCode::UplinkStripingSkew => "uplink-striping-skew",
            LintCode::OversubscriptionHotspot => "oversubscription-hotspot",
            LintCode::UnreachablePortPath => "unreachable-port-path",
            LintCode::MakespanLowerBound => "makespan-lower-bound",
            LintCode::FabricLowerBound => "fabric-lower-bound",
            LintCode::FaultReroutable => "fault-reroutable",
            LintCode::FaultStall => "fault-stall",
            LintCode::FaultSevered => "fault-severed",
        }
    }

    /// The fixed severity of this lint.
    pub fn severity(self) -> Severity {
        match self {
            LintCode::MalformedDag
            | LintCode::WaitCycle
            | LintCode::IncompleteDataflow
            | LintCode::DoubleReduction
            | LintCode::DataflowRace
            | LintCode::MissingRoute
            | LintCode::InvalidRoute
            | LintCode::ChannelConflict
            | LintCode::UnreachablePortPath
            | LintCode::FaultSevered => Severity::Error,
            LintCode::OutOfOrderDelivery
            | LintCode::Oversubscription
            | LintCode::StepBoundExceeded
            | LintCode::LinkContention
            | LintCode::UplinkStripingSkew
            | LintCode::OversubscriptionHotspot
            | LintCode::FaultStall => Severity::Warn,
            LintCode::NicFanIn
            | LintCode::HostBridgeRoute
            | LintCode::AnalysisTruncated
            | LintCode::MakespanLowerBound
            | LintCode::FabricLowerBound
            | LintCode::FaultReroutable => Severity::Info,
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// The program locations a diagnostic points at. Every field may be
/// empty; together they name the offending transfers/ranks/chunks/
/// channels/edges precisely enough to find them in a schedule dump.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Span {
    /// Offending transfers.
    pub transfers: Vec<TransferId>,
    /// Offending ranks.
    pub ranks: Vec<Rank>,
    /// Offending chunks.
    pub chunks: Vec<ChunkId>,
    /// Offending physical channels.
    pub channels: Vec<ChannelId>,
    /// Offending logical edges.
    pub edges: Vec<EdgeKey>,
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable lint code.
    pub code: LintCode,
    /// Human-readable description of the finding.
    pub message: String,
    /// What the finding points at.
    pub span: Span,
}

impl Diagnostic {
    /// Builds a diagnostic. Public so downstream analyzer passes (the
    /// physical analyzer, the simulator's severance pass) can report
    /// through the same machinery.
    pub fn new(code: LintCode, message: String, span: Span) -> Self {
        Diagnostic {
            code,
            message,
            span,
        }
    }

    /// The severity (fixed per code).
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}",
            self.severity(),
            self.code.as_str(),
            self.message
        )
    }
}

/// The result of a lint pass: diagnostics in stable (code, discovery)
/// order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintReport {
    diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// All diagnostics.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// The error-severity diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
    }

    /// Count of diagnostics at a severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == severity)
            .count()
    }

    /// True if no **error**-severity diagnostic was found (warnings and
    /// infos do not make a schedule invalid).
    pub fn is_clean(&self) -> bool {
        self.errors().next().is_none()
    }

    /// Appends a finding. Public for downstream analyzer passes; call
    /// [`LintReport::finish`] before handing the report out.
    pub fn push(&mut self, code: LintCode, message: String, span: Span) {
        self.diagnostics.push(Diagnostic::new(code, message, span));
    }

    /// Seals a report: sorts diagnostics into the stable
    /// (code, discovery) order every renderer relies on.
    pub fn finish(mut self) -> Self {
        // Stable sort: diagnostics group by code, discovery order within.
        self.diagnostics.sort_by_key(|d| d.code);
        self
    }

    /// Renders the report as deterministic JSON (stable key order, empty
    /// span fields omitted) — the `ccube lint --json` payload.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"errors\":{},\"warnings\":{},\"infos\":{},\"diagnostics\":[",
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Info)
        ));
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"code\":\"{}\",\"name\":\"{}\",\"severity\":\"{}\",\"message\":\"{}\"",
                d.code.as_str(),
                d.code.name(),
                d.severity(),
                json_escape(&d.message)
            ));
            push_json_list(&mut out, "transfers", &d.span.transfers, |t| {
                t.0.to_string()
            });
            push_json_list(&mut out, "ranks", &d.span.ranks, |r| r.0.to_string());
            push_json_list(&mut out, "chunks", &d.span.chunks, |c| c.0.to_string());
            push_json_list(&mut out, "channels", &d.span.channels, |c| c.0.to_string());
            push_json_list(&mut out, "edges", &d.span.edges, |e| format!("\"{e}\""));
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        write!(
            f,
            "{} errors, {} warnings, {} infos",
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Info)
        )
    }
}

fn push_json_list<T>(out: &mut String, key: &str, items: &[T], render: impl Fn(&T) -> String) {
    if items.is_empty() {
        return;
    }
    out.push_str(&format!(",\"{key}\":["));
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&render(item));
    }
    out.push(']');
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Knobs of the analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalyzeOptions {
    /// Model the runtime's bounded per-`(tree, edge)` mailboxes in the
    /// wait-for graph: a message blocks until the message `capacity`
    /// positions ahead of it has been consumed. `None` models unbounded
    /// mailboxes (no such wait edges).
    pub mailbox_capacity: Option<usize>,
    /// Compare the unit-step depth against the paper's class formulas
    /// (`CC013`).
    pub check_step_bounds: bool,
    /// Skip the O(n²/64) race-reachability check above this many
    /// transfers, reporting `CC014` instead.
    pub max_race_transfers: usize,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions {
            mailbox_capacity: None,
            check_step_bounds: true,
            max_race_transfers: 16_384,
        }
    }
}

/// Why one transfer waits for another in the wait-for graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WaitKind {
    /// An explicit schedule dependency.
    Dependency,
    /// FIFO grant order on a shared logical channel.
    ChannelFifo,
    /// The runtime's bounded-mailbox back-pressure.
    MailboxCapacity,
}

impl WaitKind {
    fn label(self) -> &'static str {
        match self {
            WaitKind::Dependency => "dep",
            WaitKind::ChannelFifo => "fifo",
            WaitKind::MailboxCapacity => "mailbox",
        }
    }
}

/// Statically analyzes the **logical** schedule: DAG shape, deadlock,
/// dataflow conservation, delivery order, and step bounds.
///
/// The dataflow family assumes the schedule intends to be an AllReduce
/// (every buffer must end with all contributions); lint other collective
/// kinds with the `verify` checkers instead.
pub fn analyze(schedule: &Schedule, opts: &AnalyzeOptions) -> LintReport {
    analyze_logical(schedule, opts).report.finish()
}

/// [`analyze`] plus the embedding lints: route existence and validity,
/// channel conflicts with step witnesses, oversubscription, NIC fan-in,
/// and host-bridge usage.
pub fn analyze_embedded(
    schedule: &Schedule,
    embedding: &Embedding,
    topo: &Topology,
    opts: &AnalyzeOptions,
) -> LintReport {
    let Logical {
        mut report,
        queues,
        replay,
    } = analyze_logical(schedule, opts);
    embedding_lints(
        schedule,
        embedding,
        topo,
        &queues,
        replay.as_ref(),
        &mut report,
    );
    // The logical and embedding passes emit disjoint codes, so one sort
    // gives each code its discovery order.
    report.finish()
}

/// What the logical passes hand the embedding pass: their unsorted
/// findings, the per-tree channel queues, and the unit-step replay,
/// which exists exactly when the report is clean.
struct Logical {
    report: LintReport,
    queues: ChannelQueues,
    replay: Option<verify::StepReport>,
}

fn analyze_logical(schedule: &Schedule, opts: &AnalyzeOptions) -> Logical {
    let mut report = LintReport::default();

    // CC001: structural violations, all of them.
    let violations = verify::dag_violations(schedule);
    for &v in &violations {
        push_lower_error(&mut report, &LowerError::MalformedDag(v));
    }
    let ids_topological = violations.iter().all(|v| {
        !matches!(
            v,
            DagViolation::ForwardDep { .. } | DagViolation::NonDenseId { .. }
        )
    });

    // CC002: wait-for cycles, with minimal witnesses.
    let queues = ChannelQueues::new(schedule, ChannelKeying::PerTree);
    wait_cycle_lints(schedule, &queues, opts.mailbox_capacity, &mut report);

    let mut replay = None;
    if violations.is_empty() {
        // The remaining analyses replay the schedule in id order, which is
        // only meaningful on a structurally sound DAG.
        dataflow_lints(schedule, &mut report);
        race_lints(schedule, opts.max_race_transfers, &mut report);
        if report.is_clean() {
            // A replay deadlock is already a CC002 above. The delivery
            // and bound lints only warn, so the report stays clean.
            replay = verify::replay_steps(schedule, &queues).ok();
            if let Some(steps) = &replay {
                ordering_and_bound_lints(schedule, opts, steps, &mut report);
            }
        }
    } else if !ids_topological {
        report.push(
            LintCode::AnalysisTruncated,
            "dataflow analyses skipped: transfer ids are not a topological order".to_string(),
            Span::default(),
        );
    }

    Logical {
        report,
        queues,
        replay,
    }
}

/// Reports a [`LowerError`] with the analyzer's stable codes: `CC001`
/// for a malformed DAG, `CC007` for a missing route, `CC008` for an
/// invalid one, with the error's text as the message. The logical and
/// physical passes and fault severance (`ccube_sim::analyze_severance`)
/// all report through it.
pub fn push_lower_error(report: &mut LintReport, err: &LowerError) {
    let mut span = Span::default();
    let code = match *err {
        LowerError::MalformedDag(v) => {
            span.transfers.push(v.transfer());
            LintCode::MalformedDag
        }
        LowerError::MissingRoute(edge) => {
            span.edges.push(edge);
            LintCode::MissingRoute
        }
        LowerError::InvalidRoute { edge, defect } => {
            span.edges.push(edge);
            if let RouteDefect::UnknownChannel(c) = defect {
                span.channels.push(c);
            }
            LintCode::InvalidRoute
        }
    };
    report.push(code, err.to_string(), span);
}

// ---------------------------------------------------------------------
// CC002: wait-for graph and deadlock witnesses
// ---------------------------------------------------------------------

/// The wait-for graph as CSR: transfer `u` waits for every node of
/// `targets[offsets[u]..offsets[u + 1]]` — its dependencies, then its
/// FIFO-queue predecessor, then its mailbox consumer, the order the
/// edges are derived in. A node may list a target twice.
struct WaitGraph {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl WaitGraph {
    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    fn waits_for(&self, u: u32) -> &[u32] {
        &self.targets[self.offsets[u as usize] as usize..self.offsets[u as usize + 1] as usize]
    }
}

/// No such transfer (a queue head's predecessor, a message no send
/// consumes).
const NONE: u32 = u32::MAX;

fn wait_cycle_lints(
    schedule: &Schedule,
    queues: &ChannelQueues,
    mailbox_capacity: Option<usize>,
    report: &mut LintReport,
) {
    let transfers = schedule.transfers();
    let n = transfers.len();
    if n == 0 {
        return;
    }
    let in_range = |d: &&TransferId| d.index() < n;

    // Channel FIFO: each logical channel grants its transfers in id
    // order, so every transfer waits for its predecessor on the channel.
    // Mailboxes are keyed the same way ((tree, edge) queues in the
    // runtime), so the same queues drive the capacity edges.
    let mut fifo_prev = vec![NONE; n];
    for queue in queues.iter() {
        for w in queue.windows(2) {
            fifo_prev[w[1] as usize] = w[0];
        }
    }

    // Mailbox back-pressure: with capacity C, message m_i on an edge
    // cannot be posted until m_{i-C} has been *consumed*. The runtime's
    // workers are per-(rank, tree, direction), so a message is consumed
    // by the receiver's first *same-class* (reduction vs broadcast),
    // same-tree send that depends on it — the forward that the worker
    // blocks on between receives. A message with no such send lands in a
    // pure-sink worker (e.g. the root's reduction loop, which only posts
    // semaphores) and never exerts back-pressure.
    let mut mailbox = Vec::new();
    if let Some(cap) = mailbox_capacity.filter(|&cap| cap > 0) {
        let mut consumer = vec![NONE; n];
        for t in transfers {
            for d in schedule.deps(t.id).iter().filter(in_range) {
                let dep = &transfers[d.index()];
                if dep.dst == t.src
                    && dep.tree == t.tree
                    && dep.phase.is_reduction() == t.phase.is_reduction()
                    && consumer[d.index()] == NONE
                {
                    consumer[d.index()] = t.id.0;
                }
            }
        }
        mailbox = vec![NONE; n];
        for queue in queues.iter() {
            for i in cap..queue.len() {
                mailbox[queue[i] as usize] = consumer[queue[i - cap] as usize];
            }
        }
    }

    let deps_total: usize = transfers.iter().map(|t| t.deps.len()).sum();
    let mut graph = WaitGraph {
        offsets: Vec::with_capacity(n + 1),
        targets: Vec::with_capacity(deps_total + 2 * n),
    };
    graph.offsets.push(0);
    for (i, t) in transfers.iter().enumerate() {
        let deps = schedule.deps(t.id).iter().filter(in_range).map(|d| d.0);
        let queued = [fifo_prev[i], mailbox.get(i).copied().unwrap_or(NONE)];
        graph
            .targets
            .extend(deps.chain(queued.into_iter().filter(|&v| v != NONE)));
        graph.offsets.push(graph.targets.len() as u32);
    }

    // Why `u` waits for `v`, for a witness edge: the first of the three
    // derivations above that yields the edge.
    let kind = |u: u32, v: u32| {
        if schedule.deps(TransferId(u)).iter().any(|d| d.0 == v) {
            WaitKind::Dependency
        } else if fifo_prev[u as usize] == v {
            WaitKind::ChannelFifo
        } else {
            WaitKind::MailboxCapacity
        }
    };
    for cycle in find_cycles(&graph) {
        let witness = minimal_witness(&graph, &cycle);
        let mut msg = String::from("wait-for cycle: ");
        for (i, &u) in witness.iter().enumerate() {
            let v = witness[(i + 1) % witness.len()];
            msg.push_str(&format!("t{u} -{}-> ", kind(u, v).label()));
        }
        msg.push_str(&format!("t{}", witness[0]));
        report.push(
            LintCode::WaitCycle,
            msg,
            Span {
                transfers: witness.iter().map(|&u| TransferId(u)).collect(),
                ..Span::default()
            },
        );
    }
}

/// Strongly connected components with a cycle (size > 1, or a self
/// loop), as sorted node lists ordered by smallest member. Iterative
/// Tarjan, so deep schedules cannot overflow the stack; only a cyclic
/// component is copied out.
fn find_cycles(graph: &WaitGraph) -> Vec<Vec<u32>> {
    let n = graph.len();
    let mut index = vec![u32::MAX; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut out = Vec::new();

    // (node, next edge position) frames.
    let mut frames: Vec<(u32, usize)> = Vec::new();
    for start in 0..n as u32 {
        if index[start as usize] != u32::MAX {
            continue;
        }
        frames.push((start, 0));
        while let Some(&mut (v, ref mut ei)) = frames.last_mut() {
            let vi = v as usize;
            if *ei == 0 {
                index[vi] = next_index;
                low[vi] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[vi] = true;
            }
            if let Some(&w) = graph.waits_for(v).get(*ei) {
                *ei += 1;
                let wi = w as usize;
                if index[wi] == u32::MAX {
                    frames.push((w, 0));
                } else if on_stack[wi] {
                    low[vi] = low[vi].min(index[wi]);
                }
            } else {
                if low[vi] == index[vi] {
                    let root = stack.iter().rposition(|&w| w == v).expect("tarjan stack");
                    let scc = &stack[root..];
                    for &w in scc {
                        on_stack[w as usize] = false;
                    }
                    if scc.len() > 1 || graph.waits_for(v).contains(&v) {
                        let mut scc = scc.to_vec();
                        scc.sort_unstable();
                        out.push(scc);
                    }
                    stack.truncate(root);
                }
                frames.pop();
                if let Some(&mut (p, _)) = frames.last_mut() {
                    let pi = p as usize;
                    low[pi] = low[pi].min(low[vi]);
                }
            }
        }
    }
    out.sort_by_key(|scc| scc[0]);
    out
}

/// The shortest cycle through the smallest node of a cyclic SCC (a
/// sorted node list) — the minimal witness path reported to the user.
/// BFS restricted to the SCC.
fn minimal_witness(graph: &WaitGraph, scc: &[u32]) -> Vec<u32> {
    let start = scc[0];
    let mut prev: BTreeMap<u32, u32> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(start);
    while let Some(u) = queue.pop_front() {
        for &v in graph.waits_for(u) {
            if v == start {
                // Reconstruct start -> ... -> u, closing back to start.
                let mut path = vec![u];
                let mut cur = u;
                while cur != start {
                    cur = prev[&cur];
                    path.push(cur);
                }
                path.reverse();
                return path;
            }
            if scc.binary_search(&v).is_ok() && !prev.contains_key(&v) && v != start {
                prev.insert(v, u);
                queue.push_back(v);
            }
        }
    }
    scc.to_vec() // unreachable for a true SCC, but stay total
}

// ---------------------------------------------------------------------
// CC003 / CC004: dataflow conservation via symbolic replay
// ---------------------------------------------------------------------

fn dataflow_lints(schedule: &Schedule, report: &mut LintReport) {
    let (p, k) = (schedule.num_ranks(), schedule.chunking().num_chunks());
    let state = verify::Contributions::replay(schedule, |t| {
        report.push(
            LintCode::DoubleReduction,
            format!(
                "{} folds contributions already present at {} {}",
                t.id, t.dst, t.chunk
            ),
            Span {
                transfers: vec![t.id],
                ranks: vec![t.dst],
                chunks: vec![t.chunk],
                ..Span::default()
            },
        );
    });
    for c in 0..k {
        let incomplete: Vec<(Rank, usize)> = (0..p)
            .map(|r| (Rank(r as u32), state.count(r, c)))
            .filter(|&(_, have)| have != p)
            .collect();
        if let Some(&(worst_rank, worst_have)) = incomplete.iter().min_by_key(|&&(_, h)| h) {
            report.push(
                LintCode::IncompleteDataflow,
                format!(
                    "chunk c{c} incomplete at {} ranks (worst: {} with {}/{} contributions)",
                    incomplete.len(),
                    worst_rank,
                    worst_have,
                    p
                ),
                Span {
                    ranks: incomplete.iter().map(|&(r, _)| r).collect(),
                    chunks: vec![ChunkId(c as u32)],
                    ..Span::default()
                },
            );
        }
    }
}

// ---------------------------------------------------------------------
// CC005: unordered conflicting buffer accesses
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Access {
    /// The transfer reads the buffer (it is the sender's source).
    Read,
    /// The transfer accumulates into the buffer (reduction receive).
    Acc,
    /// The transfer overwrites the buffer (broadcast receive).
    Over,
}

impl Access {
    fn label(self) -> &'static str {
        match self {
            Access::Read => "read",
            Access::Acc => "accumulate",
            Access::Over => "overwrite",
        }
    }

    /// Acc/Acc commutes (reduction is associative-commutative) and
    /// Read/Read is harmless; every other pair needs a dependency path.
    fn conflicts_with(self, other: Access) -> bool {
        !matches!(
            (self, other),
            (Access::Read, Access::Read) | (Access::Acc, Access::Acc)
        )
    }
}

fn race_lints(schedule: &Schedule, max_transfers: usize, report: &mut LintReport) {
    let transfers = schedule.transfers();
    let n = transfers.len();
    if n > max_transfers {
        report.push(
            LintCode::AnalysisTruncated,
            format!("race analysis skipped: {n} transfers exceed the {max_transfers} cap"),
            Span::default(),
        );
        return;
    }

    // Row i of `anc` = bitset of transfers reachable from i via deps
    // (ancestors in execution order), `words` words per row. Ids are
    // topological here (checked upstream), so row i only ever reads rows
    // of smaller ids, and a dep d's row has no bit at or above d.
    let words = n.div_ceil(64);
    let mut anc = vec![0u64; n * words];
    for (i, t) in transfers.iter().enumerate() {
        let (done, rest) = anc.split_at_mut(i * words);
        let bits = &mut rest[..words];
        for d in schedule.deps(t.id) {
            let di = d.index();
            bits[di / 64] |= 1 << (di % 64);
            let row = &done[di * words..di * words + di / 64 + 1];
            for (w, a) in bits.iter_mut().zip(row) {
                *w |= a;
            }
        }
    }
    let ordered = |a: usize, b: usize| -> bool {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        anc[hi * words + lo / 64] & (1 << (lo % 64)) != 0
    };

    // Buffer accesses as CSR over buffers `rank · k + chunk` (the
    // (rank, chunk) order the findings are reported in), each buffer's
    // accesses in id order.
    let k = schedule.chunking().num_chunks();
    let buffer = |r: Rank, c: ChunkId| r.index() * k + c.index();
    let mut starts = vec![0u32; schedule.num_ranks() * k + 1];
    for t in transfers {
        starts[buffer(t.src, t.chunk) + 1] += 1;
        starts[buffer(t.dst, t.chunk) + 1] += 1;
    }
    for b in 1..starts.len() {
        starts[b] += starts[b - 1];
    }
    let mut next = starts.clone();
    let mut accesses = vec![(0u32, Access::Read); 2 * n];
    for t in transfers {
        let write = if t.phase.is_reduction() {
            Access::Acc
        } else {
            Access::Over
        };
        for (b, access) in [
            (buffer(t.src, t.chunk), Access::Read),
            (buffer(t.dst, t.chunk), write),
        ] {
            accesses[next[b] as usize] = (t.id.0, access);
            next[b] += 1;
        }
    }

    for (b, span) in starts.windows(2).enumerate() {
        let list = &accesses[span[0] as usize..span[1] as usize];
        let (rank, chunk) = (b / k, b % k);
        for i in 0..list.len() {
            for j in (i + 1)..list.len() {
                let (ta, ka) = list[i];
                let (tb, kb) = list[j];
                if ka.conflicts_with(kb) && !ordered(ta as usize, tb as usize) {
                    report.push(
                        LintCode::DataflowRace,
                        format!(
                            "unordered conflicting accesses to r{rank} c{chunk}: \
                             t{ta} ({}) vs t{tb} ({})",
                            ka.label(),
                            kb.label()
                        ),
                        Span {
                            transfers: vec![TransferId(ta), TransferId(tb)],
                            ranks: vec![Rank(rank as u32)],
                            chunks: vec![ChunkId(chunk as u32)],
                            ..Span::default()
                        },
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// CC006 / CC013: delivery order and class step bounds
// ---------------------------------------------------------------------

fn ordering_and_bound_lints(
    schedule: &Schedule,
    opts: &AnalyzeOptions,
    replay: &verify::StepReport,
    report: &mut LintReport,
) {
    let is_pure_tree = schedule
        .transfers()
        .iter()
        .all(|t| matches!(t.phase, Phase::Reduce | Phase::Broadcast));

    if is_pure_tree && !schedule.transfers().is_empty() {
        let num_trees = schedule
            .transfers()
            .iter()
            .map(|t| t.tree.index() + 1)
            .max()
            .unwrap_or(1);
        for parity in 0..num_trees {
            let per_parity: Vec<(usize, usize)> = replay
                .chunk_complete_step
                .iter()
                .enumerate()
                .filter(|(c, _)| c % num_trees == parity)
                .map(|(c, &s)| (c, s))
                .collect();
            if let Some(w) = per_parity.windows(2).find(|w| w[0].1 > w[1].1) {
                report.push(
                    LintCode::OutOfOrderDelivery,
                    format!(
                        "tree {parity}: chunk c{} (step {}) completes after chunk c{} (step {})",
                        w[0].0, w[0].1, w[1].0, w[1].1
                    ),
                    Span {
                        chunks: vec![ChunkId(w[0].0 as u32), ChunkId(w[1].0 as u32)],
                        ..Span::default()
                    },
                );
            }
        }
    }

    if opts.check_step_bounds {
        step_bound_lints(schedule, replay, report);
    }
}

fn step_bound_lints(schedule: &Schedule, replay: &verify::StepReport, report: &mut LintReport) {
    let name = schedule.algorithm();
    let p = schedule.num_ranks();
    if name == "ring" || name.ends_with("-ring") {
        // Each ring's dependency chain is its 2(P-1) sequential steps.
        let bound = 2 * (p.saturating_sub(1));
        let actual = schedule.stats().critical_path;
        if actual > bound {
            report.push(
                LintCode::StepBoundExceeded,
                format!("ring critical path {actual} exceeds 2(P-1) = {bound} at P={p}"),
                Span::default(),
            );
        }
        return;
    }
    let overlapped = name.starts_with("overlapped-");
    if !name.contains("tree") || (!overlapped && !name.starts_with("baseline-")) {
        return; // unknown class: no bound to check
    }

    // Per tree t: d_t = longest reduction chain (the tree depth a chunk
    // climbs), k_t = chunks the tree carries. The paper's Fig. 7 bounds:
    // overlapped 2·d_t + k_t - 1, baseline 2(d_t + k_t - 1); trees run on
    // disjoint channels, so the schedule bound is the max over trees.
    let transfers = schedule.transfers();
    let mut reduce_depth = vec![0usize; transfers.len()];
    let mut per_tree: BTreeMap<usize, (usize, std::collections::BTreeSet<u32>)> = BTreeMap::new();
    for t in transfers {
        let entry = per_tree.entry(t.tree.index()).or_default();
        entry.1.insert(t.chunk.0);
        if t.phase.is_reduction() {
            let base = schedule
                .deps(t.id)
                .iter()
                .filter(|d| transfers[d.index()].phase.is_reduction())
                .map(|d| reduce_depth[d.index()])
                .max()
                .unwrap_or(0);
            reduce_depth[t.id.index()] = base + 1;
            entry.0 = entry.0.max(base + 1);
        }
    }
    let bound = per_tree
        .values()
        .map(|&(d, ref chunks)| {
            let k = chunks.len();
            if overlapped {
                2 * d + k.saturating_sub(1)
            } else {
                2 * (d + k.saturating_sub(1))
            }
        })
        .max()
        .unwrap_or(0);
    if replay.num_steps > bound {
        let formula = if overlapped {
            "2·logP + K - 1"
        } else {
            "2(logP + K - 1)"
        };
        report.push(
            LintCode::StepBoundExceeded,
            format!(
                "{} steps exceed the {} class bound {} ({})",
                replay.num_steps, name, bound, formula
            ),
            Span::default(),
        );
    }
}

// ---------------------------------------------------------------------
// CC007..CC012: embedding lints
// ---------------------------------------------------------------------

fn embedding_lints(
    schedule: &Schedule,
    embedding: &Embedding,
    topo: &Topology,
    queues: &ChannelQueues,
    replay: Option<&verify::StepReport>,
    report: &mut LintReport,
) {
    // CC007/CC008 by the lowering's route rules, one finding per failing
    // edge; conflict detection over the valid routes, in logical-edge
    // order. Each edge carries its channel queue, which is its step table.
    let mut by_channel: BTreeMap<ChannelId, Vec<(EdgeKey, usize)>> = BTreeMap::new();
    let mut host_edges: Vec<EdgeKey> = Vec::new();
    for (e, &(src, dst, tree)) in schedule.edges().iter().enumerate() {
        let key = EdgeKey { src, dst, tree };
        let route = match checked_route(embedding, e, key, topo) {
            Ok(route) => route,
            Err(err) => {
                push_lower_error(report, &err);
                continue;
            }
        };
        if route.class() == ChannelClass::HostBridge {
            host_edges.push(key);
        }
        let queue = queues.of_edge(e);
        for &c in route.channels() {
            by_channel.entry(c).or_default().push((key, queue));
        }
    }

    // Unit-step completion times give the "overlapping steps" witness: a
    // shared channel is a real conflict only if two edges occupy it in
    // the same step. The replay exists only on a clean report.
    let overlap = |q1: usize, q2: usize| -> Option<(usize, u32, u32)> {
        first_common_step(replay?, queues.get(q1), queues.get(q2))
    };

    let mut nic_shared = 0usize;
    let mut nic_max_fanin = 0usize;
    for (&channel, edges) in &by_channel {
        if edges.len() < 2 {
            continue;
        }
        if topo.channel(channel).class() == ChannelClass::Nic {
            nic_shared += 1;
            nic_max_fanin = nic_max_fanin.max(edges.len());
            continue;
        }
        for i in 0..edges.len() {
            for j in (i + 1)..edges.len() {
                let ((e1, q1), (e2, q2)) = (edges[i], edges[j]);
                match overlap(q1, q2) {
                    Some((step, t1, t2)) => report.push(
                        LintCode::ChannelConflict,
                        format!(
                            "{e1} and {e2} both occupy {channel} at step {step} (t{t1}, t{t2})"
                        ),
                        Span {
                            transfers: vec![TransferId(t1), TransferId(t2)],
                            channels: vec![channel],
                            edges: vec![e1, e2],
                            ..Span::default()
                        },
                    ),
                    None if replay.is_some() => report.push(
                        LintCode::Oversubscription,
                        format!("{e1} and {e2} share {channel} (never in the same step)"),
                        Span {
                            channels: vec![channel],
                            edges: vec![e1, e2],
                            ..Span::default()
                        },
                    ),
                    // Without a step replay (schedule already errored) a
                    // shared point-to-point channel must be assumed hot.
                    None => report.push(
                        LintCode::ChannelConflict,
                        format!("{e1} and {e2} both mapped to {channel}"),
                        Span {
                            channels: vec![channel],
                            edges: vec![e1, e2],
                            ..Span::default()
                        },
                    ),
                }
            }
        }
    }

    if nic_shared > 0 {
        report.push(
            LintCode::NicFanIn,
            format!(
                "{nic_shared} nic channels carry multiple edges (max fan-in {nic_max_fanin}); \
                 arbitrated at runtime, expected in scale-out topologies"
            ),
            Span::default(),
        );
    }
    if !host_edges.is_empty() {
        report.push(
            LintCode::HostBridgeRoute,
            format!(
                "{} edges routed over the PCIe host bridge (e.g. {})",
                host_edges.len(),
                host_edges[0]
            ),
            Span {
                edges: host_edges,
                ..Span::default()
            },
        );
    }
}

/// The earliest step two logical edges both occupy, with each edge's
/// transfer at that step. An edge's step table is its channel queue read
/// through the replay: the replay fires a queue at most once per step,
/// in FIFO order, so the steps of a queue strictly ascend.
fn first_common_step(
    replay: &verify::StepReport,
    a: &[u32],
    b: &[u32],
) -> Option<(usize, u32, u32)> {
    let step = |t: u32| replay.completion_step[t as usize];
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match step(a[i]).cmp(&step(b[j])) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return Some((step(a[i]), a[i], b[j])),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::Chunking;
    use crate::lowering::PreparedLowering;
    use crate::ring::{ring_allreduce, ring_allreduce_multi};
    use crate::schedule::{ScheduleBuilder, Transfer, TreeIndex};
    use crate::tree::{BinaryTree, DoubleBinaryTree};
    use crate::tree_schedule::{tree_allreduce, Overlap};
    use ccube_topology::{dgx1, ByteSize, Route};

    fn double_tree(k: usize, overlap: Overlap) -> Schedule {
        let dt = DoubleBinaryTree::new(8).unwrap();
        tree_allreduce(dt.trees(), &Chunking::even(ByteSize::mib(64), k), overlap)
    }

    /// Pushes a 4 KiB chunk-0 reduction `src -> dst` that waits for the
    /// transfers `deps`.
    fn reduce(b: &mut ScheduleBuilder, src: u32, dst: u32, deps: &[u32]) -> TransferId {
        b.push(
            Rank(src),
            Rank(dst),
            ChunkId(0),
            ByteSize::kib(4),
            Phase::Reduce,
            TreeIndex(0),
            deps.iter().map(|&d| TransferId(d)),
        )
    }

    /// A copy of `s` named `algorithm`, with transfer `t`'s dependencies
    /// replaced by `deps_of(t)`.
    fn rebuild(
        s: &Schedule,
        algorithm: &str,
        deps_of: impl Fn(&Transfer) -> Vec<TransferId>,
    ) -> Schedule {
        let mut b = ScheduleBuilder::new();
        for t in s.transfers() {
            b.push(t.src, t.dst, t.chunk, t.bytes, t.phase, t.tree, deps_of(t));
        }
        b.finish(algorithm, s.num_ranks(), s.chunking().clone())
    }

    fn runtime_opts() -> AnalyzeOptions {
        AnalyzeOptions {
            mailbox_capacity: Some(4),
            ..AnalyzeOptions::default()
        }
    }

    #[test]
    fn shipped_schedules_lint_clean() {
        let opts = runtime_opts();
        let fwd: Vec<Rank> = (0..8).map(Rank).collect();
        let rev: Vec<Rank> = (0..8).rev().map(Rank).collect();
        for s in [
            ring_allreduce(8, ByteSize::mib(64)),
            ring_allreduce_multi(ByteSize::mib(64), &[fwd, rev]),
            double_tree(16, Overlap::ReductionBroadcast),
            double_tree(16, Overlap::None),
        ] {
            let report = analyze(&s, &opts);
            assert!(report.is_clean(), "{}:\n{report}", s.algorithm());
            assert_eq!(
                report.count(Severity::Warn),
                0,
                "{}:\n{report}",
                s.algorithm()
            );
        }
    }

    #[test]
    fn seeded_dependency_cycle_is_a_minimal_witness() {
        // t0 and t1 wait on each other: a 2-cycle.
        let mut b = ScheduleBuilder::new();
        reduce(&mut b, 0, 1, &[1]);
        reduce(&mut b, 1, 0, &[0]);
        let s = b.finish_unchecked("seeded-deadlock", 2, Chunking::even(ByteSize::kib(8), 1));
        let report = analyze(&s, &AnalyzeOptions::default());
        let cycle: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == LintCode::WaitCycle)
            .collect();
        assert_eq!(cycle.len(), 1, "{report}");
        // Minimal witness: exactly the two mutually-waiting transfers.
        assert_eq!(cycle[0].span.transfers.len(), 2, "{}", cycle[0].message);
        // The forward dep is also flagged structurally.
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.code == LintCode::MalformedDag));
    }

    #[test]
    fn mailbox_capacity_one_deadlocks_a_two_message_exchange() {
        // Edge r0->r1 carries m0 (t0) and m1 (t1); r1's forwarding send
        // t2 consumes both. With capacity 1, m1 cannot be posted until m0
        // is consumed by t2 — which waits for m1.
        let mut b = ScheduleBuilder::new();
        reduce(&mut b, 0, 1, &[]);
        reduce(&mut b, 0, 1, &[]);
        reduce(&mut b, 1, 2, &[0, 1]);
        let s = b.finish_unchecked("mailbox-exchange", 3, Chunking::even(ByteSize::kib(4), 1));
        let tight = analyze(
            &s,
            &AnalyzeOptions {
                mailbox_capacity: Some(1),
                ..AnalyzeOptions::default()
            },
        );
        assert!(
            tight
                .diagnostics()
                .iter()
                .any(|d| d.code == LintCode::WaitCycle && d.message.contains("mailbox")),
            "{tight}"
        );
        // Capacity 2 clears the back-pressure edge.
        let roomy = analyze(
            &s,
            &AnalyzeOptions {
                mailbox_capacity: Some(2),
                ..AnalyzeOptions::default()
            },
        );
        assert!(
            !roomy
                .diagnostics()
                .iter()
                .any(|d| d.code == LintCode::WaitCycle),
            "{roomy}"
        );
    }

    #[test]
    fn wait_cycle_labels_each_edge_by_why_it_waits() {
        // Edge r0->r1 carries m0 (t0), m1 (t1) and m2 (t2); r1's send t3
        // consumes m0 but also waits for m2. With capacity 1, t1 cannot be
        // posted until t3 consumes t0, t3 waits for t2, and t2 queues
        // behind t1: one cycle over a mailbox, a dep and a fifo edge.
        let mut b = ScheduleBuilder::new();
        reduce(&mut b, 0, 1, &[]);
        reduce(&mut b, 0, 1, &[]);
        reduce(&mut b, 0, 1, &[]);
        reduce(&mut b, 1, 2, &[0, 2]);
        let s = b.finish("mixed-wait-cycle", 3, Chunking::even(ByteSize::kib(4), 1));
        let report = analyze(
            &s,
            &AnalyzeOptions {
                mailbox_capacity: Some(1),
                ..AnalyzeOptions::default()
            },
        );
        let cycles: Vec<&str> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == LintCode::WaitCycle)
            .map(|d| d.message.as_str())
            .collect();
        assert_eq!(
            cycles,
            ["wait-for cycle: t1 -mailbox-> t3 -dep-> t2 -fifo-> t1"],
            "{report}"
        );
    }

    #[test]
    fn dropped_dependency_is_a_dataflow_race() {
        // Dropping a data-carrying dep leaves the symbolic (id-order)
        // replay correct but the accesses unordered — exactly CC005.
        let good = double_tree(8, Overlap::ReductionBroadcast);
        let carries = |t: &Transfer, d: &TransferId| {
            let dep = good.transfer(*d);
            dep.chunk == t.chunk && (dep.dst == t.src || dep.dst == t.dst)
        };
        let victim = good
            .transfers()
            .iter()
            .position(|t| !t.deps.is_empty() && good.deps(t.id).iter().any(|d| carries(t, d)))
            .expect("a data-carrying dependency exists");
        let keep = |t: &Transfer| -> Vec<TransferId> {
            let deps = good.deps(t.id).iter().copied();
            if t.id.index() == victim {
                deps.filter(|d| !carries(t, d)).collect()
            } else {
                deps.collect()
            }
        };
        let dropped = good.transfers()[victim].deps.len() - keep(&good.transfers()[victim]).len();
        assert!(dropped > 0);
        let mutated = rebuild(&good, good.algorithm(), keep);
        // Still "correct" under id-order symbolic replay...
        verify::check_allreduce(&mutated).unwrap();
        // ...but the analyzer sees the missing ordering.
        let report = analyze(&mutated, &AnalyzeOptions::default());
        assert!(
            report
                .diagnostics()
                .iter()
                .any(|d| d.code == LintCode::DataflowRace),
            "{report}"
        );
    }

    #[test]
    fn incomplete_and_double_reductions_are_flagged() {
        // Reduce r0 into r1 twice: the second fold double-counts r0.
        let mut b = ScheduleBuilder::new();
        reduce(&mut b, 0, 1, &[]);
        reduce(&mut b, 0, 1, &[0]);
        let s = b.finish("bad", 2, Chunking::even(ByteSize::kib(4), 1));
        let report = analyze(&s, &AnalyzeOptions::default());
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.code == LintCode::DoubleReduction));
        // And r0 never hears back: incomplete.
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.code == LintCode::IncompleteDataflow));
    }

    #[test]
    fn dgx1_double_tree_embedding_is_clean_but_identity_conflicts() {
        let topo = dgx1();
        let s = double_tree(16, Overlap::ReductionBroadcast);
        let good = Embedding::dgx1_double_tree(&topo, &s).unwrap();
        let report = analyze_embedded(&s, &good, &topo, &runtime_opts());
        assert!(report.is_clean(), "{report}");

        let naive = Embedding::identity(&topo, &s).unwrap();
        let report = analyze_embedded(&s, &naive, &topo, &runtime_opts());
        let conflicts: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == LintCode::ChannelConflict)
            .collect();
        assert!(
            !conflicts.is_empty(),
            "identity double tree must collide on the doubled NVLinks:\n{report}"
        );
        // The witness names the step and both transfers.
        assert!(conflicts[0].message.contains("step"), "{}", conflicts[0]);
        assert_eq!(conflicts[0].span.transfers.len(), 2);
    }

    #[test]
    fn nic_embedding_reports_fanin_info_only() {
        let topo = ccube_topology::hierarchical(16);
        let dt = DoubleBinaryTree::new(16).unwrap();
        let s = tree_allreduce(
            dt.trees(),
            &Chunking::even(ByteSize::mib(64), 16),
            Overlap::ReductionBroadcast,
        );
        let emb = Embedding::nic(&topo, &s).unwrap();
        let report = analyze_embedded(&s, &emb, &topo, &runtime_opts());
        assert!(report.is_clean(), "{report}");
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.code == LintCode::NicFanIn));
    }

    #[test]
    fn missing_and_invalid_routes_are_flagged() {
        let topo = dgx1();
        let s = ring_allreduce(8, ByteSize::mib(1));
        let mut emb = Embedding::identity(&topo, &s).unwrap();
        // Remap one edge onto a channel with the wrong endpoints.
        let edge = {
            let (src, dst, tree) = s.edges()[0];
            EdgeKey { src, dst, tree }
        };
        let wrong = topo
            .channels()
            .iter()
            .find(|c| c.src() != emb.gpu_of(edge.src))
            .unwrap()
            .id();
        emb.set_route(
            edge,
            Route::multi(
                emb.gpu_of(edge.src),
                emb.gpu_of(edge.dst),
                vec![wrong],
                ChannelClass::NvLink,
            ),
        )
        .unwrap();
        let report = analyze_embedded(&s, &emb, &topo, &AnalyzeOptions::default());
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.code == LintCode::InvalidRoute));
        assert!(matches!(
            PreparedLowering::new(&s, &emb, &topo),
            Err(LowerError::InvalidRoute { edge: e, .. }) if e == edge
        ));

        // A different schedule's embedding has no routes for this one.
        let tree = BinaryTree::inorder(8).unwrap();
        let other = tree_allreduce(
            std::slice::from_ref(&tree),
            &Chunking::even(ByteSize::mib(1), 4),
            Overlap::None,
        );
        let other_emb = Embedding::identity(&topo, &other).unwrap();
        let report = analyze_embedded(&s, &other_emb, &topo, &AnalyzeOptions::default());
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.code == LintCode::MissingRoute));
        assert!(matches!(
            PreparedLowering::new(&s, &other_emb, &topo),
            Err(LowerError::MissingRoute(_))
        ));
    }

    #[test]
    fn step_bound_flags_a_mislabeled_schedule() {
        // Baseline transfers labeled as overlapped exceed the overlapped
        // class bound 2·d + k - 1.
        let tree = BinaryTree::inorder(8).unwrap();
        let baseline = tree_allreduce(
            std::slice::from_ref(&tree),
            &Chunking::even(ByteSize::mib(8), 8),
            Overlap::None,
        );
        let mislabeled = rebuild(&baseline, "overlapped-tree", |t| {
            baseline.deps(t.id).to_vec()
        });
        let report = analyze(&mislabeled, &AnalyzeOptions::default());
        assert!(
            report
                .diagnostics()
                .iter()
                .any(|d| d.code == LintCode::StepBoundExceeded),
            "{report}"
        );
        // Correctly labeled, the same schedule meets its class bound.
        let report = analyze(&baseline, &AnalyzeOptions::default());
        assert!(
            !report
                .diagnostics()
                .iter()
                .any(|d| d.code == LintCode::StepBoundExceeded),
            "{report}"
        );
    }

    #[test]
    fn json_is_stable_and_escaped() {
        let mut report = LintReport::default();
        report.push(
            LintCode::MissingRoute,
            "quote \" and backslash \\".to_string(),
            Span {
                transfers: vec![TransferId(3)],
                ..Span::default()
            },
        );
        let json = report.finish().to_json();
        assert!(json.contains("\\\""));
        assert!(json.contains("\"transfers\":[3]"));
        assert!(json.starts_with("{\"errors\":1,"));
    }

    #[test]
    fn gate_is_clean_for_all_shipped_embeddings() {
        let topo = dgx1();
        let s = double_tree(16, Overlap::ReductionBroadcast);
        for emb in [
            Embedding::identity(&topo, &s).unwrap(),
            Embedding::identity_with_host(&topo, &s).unwrap(),
            Embedding::dgx1_double_tree(&topo, &s).unwrap(),
        ] {
            assert!(PreparedLowering::new(&s, &emb, &topo).is_ok());
        }
        let hier = ccube_topology::hierarchical(16);
        let dt = DoubleBinaryTree::new(16).unwrap();
        let s16 = tree_allreduce(
            dt.trees(),
            &Chunking::even(ByteSize::mib(64), 16),
            Overlap::ReductionBroadcast,
        );
        let emb = Embedding::nic(&hier, &s16).unwrap();
        assert!(PreparedLowering::new(&s16, &emb, &hier).is_ok());
    }
}
