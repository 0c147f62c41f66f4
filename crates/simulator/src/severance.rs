//! Fault-plan severance analysis: classifies every window of a
//! [`FaultPlan`] as reroutable, stall-until-repair, or permanently
//! severed — *statically*, without running the fault engine.
//!
//! The fault engine ([`simulate_faulted`](crate::simulate_faulted))
//! discovers a fatal plan by replaying it; this pass reads the plan
//! against the statically lowered routes and the fabric graph and
//! reports, per event, what the engine's recovery machinery could do
//! (diagnostic series shared with `ccube_collectives::analyze`):
//!
//! * `CC021` (Info) — every affected transfer has a surviving fallback:
//!   the channel router finds a detour/host-bridge route, or an
//!   adaptive uplink policy has a surviving slot to fail over to.
//! * `CC022` (Warn) — no fallback while down (structural NIC path, no
//!   surviving route, hash-striped uplink traffic, or exhausted slot
//!   diversity), but the outage is finite: traffic stalls until repair.
//! * `CC023` (Error) — the same, but the outage is permanent: the
//!   engine would drain [`SimError::Unroutable`](crate::SimError). A
//!   permanent uplink or spine window severs a crossing only when no
//!   slot survives the outages that never lift; when one does but
//!   finite overlapping outages block it, the crossing stalls (`CC022`),
//!   because the engine's failover pass at every uplink or spine
//!   boundary moves it once they lift.
//!
//! The classification mirrors the engine's recovery rules exactly —
//! NIC-class paths are structural and never re-routed; channel reroutes
//! run a [`Router`] with every concurrently-down channel blocked;
//! uplink failover needs a non-`Hash` policy and a surviving slot
//! (checked against every overlapping uplink/spine outage). The engine
//! moves a leaf crossing's up and down legs jointly onto one spine, so a
//! crossing survives only on a slot that is up on *both* its leaves: a
//! leaf that keeps some slot is not enough when its peer has lost that
//! very slot. An uplink or spine window therefore reports one finding
//! per leaf pair whose crossings it hits, counting that pair's
//! transfers exactly. The port graph and port routes come from the
//! scheduler's `FabricMap` under every network model; under the channel
//! approximation (the passthrough fabric) no route crosses leaves, so
//! uplink and spine windows report nothing. It is
//! evaluated against the *statically lowered* routes — one
//! [`PreparedRoute`] per logical edge, the ones the scheduler runs on —
//! and decides each route once (its port walk, its NIC-path test, its
//! reachability under the concurrent outages): a plan whose
//! windows only matter after a chain of prior reroutes may classify
//! conservatively, and a window that outlives all traffic may flag a
//! severance the engine never hits. The shipped guarantee, asserted by
//! the consistency suite, is one-directional: whenever the engine
//! reports `Unroutable`, this pass reports a `CC023`. An exhaustive
//! sweep checks it both ways for uplink and spine outages — permanent
//! ones from t = 0, alone, paired, or with one finite outage, on
//! `hierarchical(16)`'s radix-4 2-uplink fabric — and that the engine's
//! stranded endpoints lie on a crossing the `CC023` counts.
//!
//! Degraded-bandwidth and straggler windows never block progress and
//! produce no finding.

use crate::engine::SimOptions;
use crate::fabric::{FabricMap, UplinkPolicy};
use crate::faults::{FaultEvent, FaultPlan};
use ccube_collectives::analyze::{push_lower_error, LintCode, LintReport, Span};
use ccube_collectives::{Embedding, PreparedLowering, PreparedRoute, Schedule, TransferId};
use ccube_topology::{
    ChannelClass, ChannelId, FabricGraph, PortId, PortKind, Router, Seconds, Topology,
};
use std::collections::{BTreeMap, BTreeSet};

/// Inclusive-exclusive window overlap.
fn overlaps(f1: Seconds, u1: Seconds, f2: Seconds, u2: Seconds) -> bool {
    f1 < u2 && f2 < u1
}

/// Renders a fault window for messages.
fn window(from: Seconds, until: Seconds) -> String {
    if until.as_secs_f64().is_infinite() {
        format!("from {from} permanently")
    } else {
        format!("in [{from}, {until})")
    }
}

/// The uplink slots of `leaf` that are down at some point of `e`'s
/// window, from every overlapping uplink/spine event (only those that
/// never lift, if `permanent_only`).
fn down_slots(
    plan: &FaultPlan,
    graph: &FabricGraph,
    leaf: u32,
    e: &FaultEvent,
    permanent_only: bool,
) -> BTreeSet<usize> {
    plan.events()
        .iter()
        .filter(|o| overlaps(e.from(), e.until(), o.from(), o.until()))
        .filter(|o| o.is_permanent() || !permanent_only)
        .flat_map(|o| o.downed_uplinks(graph))
        .filter(|&(l, _)| l == leaf)
        .map(|(_, slot)| slot as usize)
        .collect()
}

/// The leaf crossings an uplink or spine outage `e` hits, read off the
/// static port routes (indexed like the schedule's edges) and grouped by
/// leaf pair: for each `(from, to)` pair, in order, whether each route
/// crosses it on a slot `e` downs on either leaf.
fn hit_crossings(
    graph: &FabricGraph,
    port_routes: &[Vec<PortId>],
    e: &FaultEvent,
) -> BTreeMap<(u32, u32), Vec<bool>> {
    let downed = e.downed_uplinks(graph);
    let mut pairs = BTreeMap::new();
    for (r, route) in port_routes.iter().enumerate() {
        for pair in route.windows(2) {
            let (up, dn) = (graph.port(pair[0]), graph.port(pair[1]));
            let (PortKind::UplinkUp, PortKind::UplinkDown, Some(slot)) =
                (up.kind(), dn.kind(), up.uplink())
            else {
                continue;
            };
            let (from, to) = (up.switch().0, dn.switch().0);
            if downed.contains(&(from, slot)) || downed.contains(&(to, slot)) {
                pairs
                    .entry((from, to))
                    .or_insert_with(|| vec![false; port_routes.len()])[r] = true;
            }
        }
    }
    pairs
}

/// The slots a crossing from leaf `from` to leaf `to` can fail over to
/// through `e`'s window. The engine moves a crossing's up and down legs
/// jointly (one spine), so a slot survives only if it stays up on *both*
/// leaves, under every overlapping uplink/spine outage (every one that
/// never lifts, if `permanent_only`).
fn surviving_slots(
    plan: &FaultPlan,
    graph: &FabricGraph,
    (from, to): (u32, u32),
    e: &FaultEvent,
    permanent_only: bool,
) -> Vec<usize> {
    let down = |leaf| down_slots(plan, graph, leaf, e, permanent_only);
    let (from, to) = (down(from), down(to));
    (0..graph.uplinks_per_leaf())
        .filter(|s| !from.contains(s) && !to.contains(s))
        .collect()
}

/// The transfers, in id order, whose edge is flagged in `on`.
fn transfers_on(schedule: &Schedule, on: &[bool]) -> Vec<TransferId> {
    schedule
        .transfers()
        .iter()
        .filter(|t| on[t.edge as usize])
        .map(|t| t.id)
        .collect()
}

/// Statically classifies every window of `plan` against the lowered
/// routes of `(schedule, embedding, topo)` under `opts` (whose network
/// model picks the port graph the uplink/spine events act on).
///
/// See the module docs for the exact classification rules and the
/// one-directional consistency guarantee with the fault engine.
///
/// # Examples
///
/// ```
/// use ccube_collectives::analyze::LintCode;
/// use ccube_sim::faults::{forever, FaultEvent, FaultPlan};
/// use ccube_sim::{severance, SimOptions};
/// use ccube_collectives::{ring_allreduce, Embedding};
/// use ccube_topology::{hierarchical, ByteSize, ChannelId, Seconds};
///
/// let topo = hierarchical(8);
/// let s = ring_allreduce(8, ByteSize::mib(4));
/// let e = Embedding::nic(&topo, &s).unwrap();
/// // A NIC injection channel down forever: structural, no reroute.
/// let plan = FaultPlan::new(vec![FaultEvent::LinkDown {
///     channel: ChannelId(0),
///     from: Seconds::ZERO,
///     until: forever(),
/// }])
/// .unwrap();
/// let report = severance::analyze_severance(&plan, &topo, &s, &e, &SimOptions::default());
/// assert!(report
///     .diagnostics()
///     .iter()
///     .any(|d| d.code == LintCode::FaultSevered));
/// ```
pub fn analyze_severance(
    plan: &FaultPlan,
    topo: &Topology,
    schedule: &Schedule,
    embedding: &Embedding,
    opts: &SimOptions,
) -> LintReport {
    let mut report = LintReport::default();
    let routes = match PreparedLowering::new(schedule, embedding, topo) {
        Ok(lowering) => lowering.into_routes(),
        Err(err) => {
            push_lower_error(&mut report, &err);
            return report.finish();
        }
    };
    let fabric = FabricMap::for_options(topo, opts);
    let port_routes: Vec<Vec<PortId>> = routes
        .iter()
        .map(|r| fabric.graph.port_route(r.path()))
        .collect();

    for e in plan.events() {
        match *e {
            FaultEvent::Degraded { .. } | FaultEvent::Straggler { .. } => {
                // Slows traffic, never blocks it: no severance finding.
            }
            FaultEvent::LinkDown {
                channel,
                from,
                until,
            } => {
                link_down_lints(
                    &mut report,
                    plan,
                    topo,
                    schedule,
                    embedding,
                    &routes,
                    channel,
                    from,
                    until,
                );
            }
            FaultEvent::UplinkDown { .. } | FaultEvent::SwitchDown { .. } => {
                crossing_lints(&mut report, plan, schedule, &fabric, &port_routes, e);
            }
        }
    }
    report.finish()
}

/// Reports one uplink or spine window `e`, once per leaf pair whose
/// crossings it hits: `CC021` when they fail over under an adaptive
/// policy, else blocked. Under the passthrough fabric no route crosses
/// leaves, so nothing is reported.
fn crossing_lints(
    report: &mut LintReport,
    plan: &FaultPlan,
    schedule: &Schedule,
    fabric: &FabricMap,
    port_routes: &[Vec<PortId>],
    e: &FaultEvent,
) {
    let graph = &fabric.graph;
    let adaptive = fabric.policy != UplinkPolicy::Hash;
    let policy = fabric.policy.label();
    let (what, hash_why) = match *e {
        FaultEvent::UplinkDown {
            leaf,
            uplink,
            from,
            until,
        } => (
            format!("uplink {uplink} on sw{leaf} down {}", window(from, until)),
            format!("hash striping pins them to slot {uplink}"),
        ),
        FaultEvent::SwitchDown { spine, from, until } => (
            format!("spine {spine} down {}", window(from, until)),
            "hash striping cannot leave the downed spine".to_string(),
        ),
        _ => return,
    };
    for (pair, hit) in hit_crossings(graph, port_routes, e) {
        let users = transfers_on(schedule, &hit);
        let crossings = format!("{} crossings sw{} -> sw{}", users.len(), pair.0, pair.1);
        let span = Span {
            transfers: users,
            ..Span::default()
        };
        let alive = if adaptive {
            surviving_slots(plan, graph, pair, e, false)
        } else {
            Vec::new()
        };
        if alive.is_empty() {
            // The engine runs a failover pass at every uplink or spine
            // boundary, so a stranded crossing moves onto any slot that
            // is up on both leaves once the finite outages lift: only
            // the outages that never lift can sever it.
            let lifts = adaptive
                && e.is_permanent()
                && !surviving_slots(plan, graph, pair, e, true).is_empty();
            let why = if lifts {
                "no uplink slot is up on both leaves until the overlapping outages lift"
            } else if adaptive {
                "no uplink slot is up on both leaves"
            } else {
                &hash_why
            };
            let severed = e.is_permanent() && !lifts;
            push_blocked(report, &what, &crossings, why, severed, span);
            continue;
        }
        let how = match *e {
            FaultEvent::SwitchDown { .. } => {
                let spine_slots: BTreeSet<u32> = e
                    .downed_uplinks(graph)
                    .into_iter()
                    .map(|(_, slot)| slot)
                    .collect();
                format!("fail over off slot(s) {spine_slots:?} under the {policy} policy")
            }
            _ => format!("fail over to surviving slot(s) {alive:?} under the {policy} policy"),
        };
        report.push(
            LintCode::FaultReroutable,
            format!("{what}: {crossings} {how}"),
            span,
        );
    }
}

/// Reports a window whose `blocked` traffic has no fallback while it
/// lasts: `CC023` when it is `severed` for good, `CC022` when it stalls
/// until repair.
fn push_blocked(
    report: &mut LintReport,
    what: &str,
    blocked: &str,
    why: &str,
    severed: bool,
    span: Span,
) {
    if severed {
        report.push(
            LintCode::FaultSevered,
            format!("{what}: {blocked} are severed ({why}); the fault engine drains Unroutable"),
            span,
        );
    } else {
        report.push(
            LintCode::FaultStall,
            format!("{what}: {blocked} stall until repair ({why})"),
            span,
        );
    }
}

/// Classifies one `LinkDown` window: mirrors the engine's
/// `reroute_pass` (structural NIC paths wait; everything else asks a
/// [`Router`] with every concurrently-down channel blocked). Each route
/// over `channel` is decided once, for every transfer on its edge.
/// Unlike an uplink window, a permanent link window is decided under
/// its finite overlapping outages too: the engine re-routes only when a
/// link goes down, never when one comes back up, so a transfer that
/// found no surviving route stays on the dead link.
#[allow(clippy::too_many_arguments)]
fn link_down_lints(
    report: &mut LintReport,
    plan: &FaultPlan,
    topo: &Topology,
    schedule: &Schedule,
    embedding: &Embedding,
    routes: &[PreparedRoute],
    channel: ChannelId,
    from: Seconds,
    until: Seconds,
) {
    let on: Vec<bool> = routes.iter().map(|r| r.path().contains(&channel)).collect();
    if !on.contains(&true) {
        return;
    }
    let mut router = Router::new(topo);
    for e in plan.events() {
        if let FaultEvent::LinkDown { channel: c, .. } = *e {
            // A channel outside the topology carries no route, so it
            // blocks nothing.
            if c.index() < topo.channels().len() && overlaps(from, until, e.from(), e.until()) {
                router.block_channel(c);
            }
        }
    }
    // Per edge over `channel`: `Some(structural)` when it cannot re-route.
    let stuck_edge: Vec<Option<bool>> = routes
        .iter()
        .zip(&on)
        .zip(schedule.edges())
        .map(|((r, &on), &(src, dst, _))| {
            if !on {
                None
            } else if r
                .path()
                .iter()
                .any(|&c| topo.channel(c).class() == ChannelClass::Nic)
            {
                Some(true)
            } else {
                let reachable = router
                    .route(embedding.gpu_of(src), embedding.gpu_of(dst))
                    .is_ok();
                (!reachable).then_some(false)
            }
        })
        .collect();
    let users = transfers_on(schedule, &on);
    let mut stuck: Vec<TransferId> = Vec::new();
    let mut structural = 0usize;
    for t in schedule.transfers() {
        if let Some(nic) = stuck_edge[t.edge as usize] {
            structural += usize::from(nic);
            stuck.push(t.id);
        }
    }
    let what = format!("{channel} down {}", window(from, until));
    let channels = vec![channel];
    if stuck.is_empty() {
        report.push(
            LintCode::FaultReroutable,
            format!(
                "{what}: all {} transfers on it re-route over surviving paths",
                users.len()
            ),
            Span {
                transfers: users,
                channels,
                ..Span::default()
            },
        );
        return;
    }
    let why = if structural > 0 {
        format!("{structural} on structural NIC paths that are never re-routed")
    } else {
        "no surviving route while concurrent outages last".to_string()
    };
    let blocked = format!("{} of {} transfers", stuck.len(), users.len());
    let span = Span {
        transfers: stuck,
        channels,
        ..Span::default()
    };
    let severed = until.as_secs_f64().is_infinite();
    push_blocked(report, &what, &blocked, &why, severed, span);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{FabricSpec, HopMode, NetworkModel};
    use crate::faults::forever;
    use ccube_collectives::{ring_allreduce, tree_allreduce, Chunking, DoubleBinaryTree, Overlap};
    use ccube_topology::{dgx1, hierarchical, ByteSize};

    fn hier8() -> (Topology, Schedule, Embedding) {
        let topo = hierarchical(8);
        let s = ring_allreduce(8, ByteSize::mib(4));
        let e = Embedding::nic(&topo, &s).unwrap();
        (topo, s, e)
    }

    #[test]
    fn permanent_nic_down_is_severed() {
        let (topo, s, e) = hier8();
        let plan = FaultPlan::new(vec![FaultEvent::LinkDown {
            channel: ChannelId(0),
            from: Seconds::ZERO,
            until: forever(),
        }])
        .unwrap();
        let report = analyze_severance(&plan, &topo, &s, &e, &SimOptions::default());
        assert!(!report.is_clean());
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.code == LintCode::FaultSevered));
    }

    #[test]
    fn finite_nic_down_stalls() {
        let (topo, s, e) = hier8();
        let plan = FaultPlan::new(vec![FaultEvent::LinkDown {
            channel: ChannelId(0),
            from: Seconds::from_micros(10.0),
            until: Seconds::from_micros(500.0),
        }])
        .unwrap();
        let report = analyze_severance(&plan, &topo, &s, &e, &SimOptions::default());
        assert!(report.is_clean());
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.code == LintCode::FaultStall));
    }

    /// The DGX-1 identity ring and an NVLink channel it uses.
    fn dgx1_ring() -> (Topology, Schedule, Embedding, ChannelId) {
        let topo = dgx1();
        let s = ring_allreduce(8, ByteSize::mib(4));
        let e = Embedding::identity(&topo, &s).unwrap();
        let routes = PreparedLowering::new(&s, &e, &topo).unwrap().into_routes();
        let used = routes
            .iter()
            .flat_map(|r| r.path().iter().copied())
            .find(|&c| topo.channel(c).class() == ChannelClass::NvLink)
            .unwrap();
        (topo, s, e, used)
    }

    #[test]
    fn dgx1_nvlink_down_reroutes() {
        // An NVLink used by the ring, down forever: the router finds a
        // surviving path (path diversity is the DGX-1's whole point).
        let (topo, s, e, used) = dgx1_ring();
        let plan = FaultPlan::new(vec![FaultEvent::LinkDown {
            channel: used,
            from: Seconds::ZERO,
            until: forever(),
        }])
        .unwrap();
        let report = analyze_severance(&plan, &topo, &s, &e, &SimOptions::default());
        assert!(report.is_clean(), "{report}");
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.code == LintCode::FaultReroutable));
    }

    #[test]
    fn a_channel_outside_the_topology_blocks_nothing() {
        // The engine rejects this plan; the static pass must not panic
        // on it, and the in-range window classifies as it does alone.
        let (topo, s, e, used) = dgx1_ring();
        let down = |channel| FaultEvent::LinkDown {
            channel,
            from: Seconds::ZERO,
            until: forever(),
        };
        let alone = FaultPlan::new(vec![down(used)]).unwrap();
        let bogus = FaultPlan::new(vec![down(used), down(ChannelId(100_000))]).unwrap();
        assert!(matches!(
            crate::simulate_faulted(&topo, &s, &e, &SimOptions::default(), &bogus),
            Err(crate::SimError::FaultPlanInvalid(_))
        ));
        let opts = SimOptions::default();
        assert_eq!(
            analyze_severance(&bogus, &topo, &s, &e, &opts),
            analyze_severance(&alone, &topo, &s, &e, &opts)
        );
    }

    #[test]
    fn degraded_windows_are_quiet() {
        let (topo, s, e) = hier8();
        let plan = FaultPlan::new(vec![FaultEvent::Degraded {
            channel: ChannelId(0),
            from: Seconds::ZERO,
            until: forever(),
            rate: 0.25,
        }])
        .unwrap();
        let report = analyze_severance(&plan, &topo, &s, &e, &SimOptions::default());
        assert!(report.diagnostics().is_empty());
    }

    fn fabric_opts(uplinks: usize, policy: UplinkPolicy) -> SimOptions {
        SimOptions::default().with_network(NetworkModel::SwitchFabric(FabricSpec {
            radix: Some(4),
            uplinks,
            spines: uplinks,
            uplink_policy: policy,
            hop_mode: HopMode::CutThrough,
            ..FabricSpec::passthrough()
        }))
    }

    #[test]
    fn single_uplink_permanent_outage_is_severed() {
        let (topo, s, e) = hier8();
        let plan = FaultPlan::new(vec![FaultEvent::UplinkDown {
            leaf: 0,
            uplink: 0,
            from: Seconds::ZERO,
            until: forever(),
        }])
        .unwrap();
        let report = analyze_severance(&plan, &topo, &s, &e, &fabric_opts(1, UplinkPolicy::Hash));
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.code == LintCode::FaultSevered));
    }

    #[test]
    fn failover_policy_survives_one_slot_outage() {
        let (topo, s, e) = hier8();
        // Hash striping may leave one slot idle, so down each slot in
        // turn: whichever carries traffic must fail over cleanly.
        let mut rerouted = 0;
        for slot in 0..2u32 {
            let plan = FaultPlan::new(vec![FaultEvent::UplinkDown {
                leaf: 0,
                uplink: slot,
                from: Seconds::ZERO,
                until: forever(),
            }])
            .unwrap();
            let report = analyze_severance(
                &plan,
                &topo,
                &s,
                &e,
                &fabric_opts(2, UplinkPolicy::Failover),
            );
            assert!(report.is_clean(), "{report}");
            rerouted += report
                .diagnostics()
                .iter()
                .filter(|d| d.code == LintCode::FaultReroutable)
                .count();
        }
        assert!(rerouted >= 1);
    }

    #[test]
    fn a_crossing_needs_the_same_slot_up_on_both_leaves() {
        // Slot 0 down on leaf 1 and slot 1 down on leaf 2, for good:
        // each leaf keeps a slot, but no slot is up on both, so the
        // 1 -> 2 crossings (GPU 7 -> 8) have no way across. The 2 -> 3
        // crossings (GPU 11 -> 12) on the same downed slot fail over to
        // slot 0, so the window splits into one finding per leaf pair.
        let topo = hierarchical(16);
        let s = ring_allreduce(16, ByteSize::mib(4));
        let e = Embedding::nic(&topo, &s).unwrap();
        let down = |leaf, uplink| FaultEvent::UplinkDown {
            leaf,
            uplink,
            from: Seconds::ZERO,
            until: forever(),
        };
        let plan = FaultPlan::new(vec![down(1, 0), down(2, 1)]).unwrap();
        let opts = fabric_opts(2, UplinkPolicy::Failover);
        assert!(matches!(
            crate::simulate_faulted(&topo, &s, &e, &opts, &plan),
            Err(crate::SimError::Unroutable { .. })
        ));
        let report = analyze_severance(&plan, &topo, &s, &e, &opts);
        let found: Vec<(LintCode, usize)> = report
            .diagnostics()
            .iter()
            .map(|d| (d.code, d.span.transfers.len()))
            .collect();
        assert_eq!(
            found,
            [
                (LintCode::FaultReroutable, 30),
                (LintCode::FaultSevered, 30)
            ],
            "{report}"
        );
        let messages: Vec<&str> = report
            .diagnostics()
            .iter()
            .map(|d| d.message.as_str())
            .collect();
        assert!(
            messages[0].contains("30 crossings sw2 -> sw3 fail over to surviving slot(s) [0]"),
            "{report}"
        );
        assert!(
            messages[1].contains("30 crossings sw1 -> sw2 are severed"),
            "{report}"
        );
    }

    /// C1 (the overlapped double tree) on `hierarchical(16)` at `k`
    /// chunks, on the NIC embedding.
    fn hier16_c1(k: usize, bytes: ByteSize) -> (Topology, Schedule, Embedding) {
        let topo = hierarchical(16);
        let dt = DoubleBinaryTree::new(16).unwrap();
        let chunking = Chunking::even(bytes, k);
        let s = tree_allreduce(dt.trees(), &chunking, Overlap::ReductionBroadcast);
        let e = Embedding::nic(&topo, &s).unwrap();
        (topo, s, e)
    }

    #[test]
    fn a_permanent_uplink_window_stalls_while_a_finite_outage_blocks_its_survivor() {
        // Slot 0 of leaf 0 never returns and spine 1 (slot 1 everywhere)
        // is down in [10, 200) us: leaf 0's crossings have no slot until
        // the spine returns, and then fail over to slot 1.
        let (topo, s, e) = hier16_c1(64, ByteSize::mib(1));
        let plan = FaultPlan::new(vec![
            FaultEvent::UplinkDown {
                leaf: 0,
                uplink: 0,
                from: Seconds::ZERO,
                until: forever(),
            },
            FaultEvent::SwitchDown {
                spine: 1,
                from: Seconds::from_micros(10.0),
                until: Seconds::from_micros(200.0),
            },
        ])
        .unwrap();
        for policy in [UplinkPolicy::LeastQueued, UplinkPolicy::Failover] {
            let opts = fabric_opts(2, policy);
            assert!(crate::simulate_faulted(&topo, &s, &e, &opts, &plan).is_ok());
            let report = analyze_severance(&plan, &topo, &s, &e, &opts);
            assert!(report.is_clean(), "{report}");
            let stalls: Vec<&str> = report
                .diagnostics()
                .iter()
                .filter(|d| d.code == LintCode::FaultStall)
                .map(|d| d.message.as_str())
                .collect();
            assert!(
                stalls
                    .iter()
                    .any(|m| m.starts_with("uplink 0 on sw0 down from")
                        && m.contains("until the overlapping outages lift")),
                "{report}"
            );
        }
    }

    /// Every uplink outage of `hierarchical(16)`'s radix-4, 2-uplink,
    /// 2-spine fabric (one per leaf and slot) and both spine outages,
    /// over `[from, until)`.
    fn uplink_outages(from: Seconds, until: Seconds) -> Vec<FaultEvent> {
        let uplinks = (0..4u32).flat_map(|leaf| {
            (0..2u32).map(move |uplink| FaultEvent::UplinkDown {
                leaf,
                uplink,
                from,
                until,
            })
        });
        let spines = (0..2u32).map(|spine| FaultEvent::SwitchDown { spine, from, until });
        uplinks.chain(spines).collect()
    }

    #[test]
    fn severance_and_the_engine_agree_both_ways() {
        // Every single and every pair of permanent uplink/spine outages
        // from t = 0, and every permanent one with one finite outage
        // inside the traffic: a CC023 exactly when the engine drains
        // Unroutable, whose endpoints lie on a crossing the CC023 counts.
        let ring = {
            let topo = hierarchical(16);
            let s = ring_allreduce(16, ByteSize::kib(256));
            let e = Embedding::nic(&topo, &s).unwrap();
            (topo, s, e)
        };
        let mut outcomes = [0usize; 2];
        for (topo, s, e) in [ring, hier16_c1(2, ByteSize::kib(256))] {
            for policy in [
                UplinkPolicy::Hash,
                UplinkPolicy::LeastQueued,
                UplinkPolicy::Failover,
            ] {
                let opts = fabric_opts(2, policy);
                let healthy = crate::simulate(&topo, &s, &e, &opts).unwrap().makespan();
                let permanent = uplink_outages(Seconds::ZERO, forever());
                let finite = uplink_outages(healthy * 0.25, healthy * 0.5);
                let mut plans: Vec<Vec<FaultEvent>> = Vec::new();
                for (i, &p) in permanent.iter().enumerate() {
                    plans.push(vec![p]);
                    plans.extend(permanent[i + 1..].iter().map(|&q| vec![p, q]));
                    plans.extend(finite.iter().map(|&f| vec![p, f]));
                }
                for events in plans {
                    let plan = FaultPlan::new(events).unwrap();
                    let report = analyze_severance(&plan, &topo, &s, &e, &opts);
                    let severed: Vec<_> = report
                        .diagnostics()
                        .iter()
                        .filter(|d| d.code == LintCode::FaultSevered)
                        .collect();
                    let run = crate::simulate_faulted(&topo, &s, &e, &opts, &plan);
                    let context = format!("{} {policy:?} {plan:?}\n{report}", s.algorithm());
                    match run {
                        Err(crate::SimError::Unroutable { src, dst }) => {
                            let counted =
                                severed.iter().flat_map(|d| &d.span.transfers).any(|&t| {
                                    let t = &s.transfers()[t.index()];
                                    (e.gpu_of(t.src), e.gpu_of(t.dst)) == (src, dst)
                                });
                            assert!(counted, "{src} -> {dst} not severed: {context}");
                            outcomes[0] += 1;
                        }
                        Ok(_) => {
                            assert!(severed.is_empty(), "{context}");
                            outcomes[1] += 1;
                        }
                        Err(err) => panic!("{err}: {context}"),
                    }
                }
            }
        }
        // Both outcomes occur, so neither direction holds vacuously.
        assert!(outcomes.iter().all(|&n| n > 100), "{outcomes:?}");
    }

    #[test]
    fn hash_policy_stalls_on_finite_uplink_outage() {
        let (topo, s, e) = hier8();
        let plan = FaultPlan::new(vec![FaultEvent::UplinkDown {
            leaf: 0,
            uplink: 0,
            from: Seconds::ZERO,
            until: Seconds::from_millis(2.0),
        }])
        .unwrap();
        let report = analyze_severance(&plan, &topo, &s, &e, &fabric_opts(2, UplinkPolicy::Hash));
        // Leaf 0's cross traffic stripes somewhere; if slot 0 carries
        // any of it, it stalls (never severed: the window is finite).
        assert!(report
            .diagnostics()
            .iter()
            .all(|d| d.code != LintCode::FaultSevered));
    }
}
