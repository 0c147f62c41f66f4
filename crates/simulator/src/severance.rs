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
//!   engine would drain [`SimError::Unroutable`](crate::SimError).
//!
//! The classification mirrors the engine's recovery rules exactly —
//! NIC-class paths are structural and never re-routed; channel reroutes
//! run a [`Router`] with every concurrently-down channel blocked;
//! uplink failover needs a non-`Hash` policy and a surviving slot
//! (checked against every overlapping uplink/spine outage). It is
//! evaluated against the *statically lowered* routes — one
//! [`PreparedRoute`] per logical edge, the ones the scheduler runs on —
//! and decides each route once (its port walk, its NIC-path test, its
//! reachability under the concurrent outages): a plan whose
//! windows only matter after a chain of prior reroutes may classify
//! conservatively, and a window that outlives all traffic may flag a
//! severance the engine never hits. The shipped guarantee, asserted by
//! the consistency suite, is one-directional: whenever the engine
//! reports `Unroutable`, this pass reports a `CC023`.
//!
//! Degraded-bandwidth and straggler windows never block progress and
//! produce no finding.

use crate::engine::SimOptions;
use crate::fabric::{NetworkModel, UplinkPolicy};
use crate::faults::{FaultEvent, FaultPlan};
use ccube_collectives::analyze::{LintCode, LintReport, Span};
use ccube_collectives::physical::push_lower_error;
use ccube_collectives::{Embedding, PreparedLowering, PreparedRoute, Schedule, TransferId};
use ccube_topology::{
    ChannelClass, ChannelId, FabricGraph, FabricPort, PortId, PortKind, Router, Seconds, SwitchId,
    Topology,
};
use std::collections::BTreeSet;

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

/// The uplink slots of `leaf` that are down at some point of the
/// `[from, until)` window, from every overlapping uplink/spine event.
fn down_slots(
    plan: &FaultPlan,
    graph: &FabricGraph,
    leaf: u32,
    from: Seconds,
    until: Seconds,
) -> BTreeSet<usize> {
    plan.events()
        .iter()
        .filter(|e| overlaps(from, until, e.from(), e.until()))
        .flat_map(|e| e.downed_uplinks(graph))
        .filter(|&(l, _)| l == leaf)
        .map(|(_, slot)| slot as usize)
        .collect()
}

/// Which static port routes (indexed like the schedule's edges) occupy
/// an uplink port that `hits`.
fn uplink_users(
    port_routes: &[Vec<PortId>],
    graph: &FabricGraph,
    hits: &dyn Fn(&FabricPort) -> bool,
) -> Vec<bool> {
    port_routes
        .iter()
        .map(|route| {
            route.iter().any(|&p| {
                let port = graph.port(p);
                matches!(port.kind(), PortKind::UplinkUp | PortKind::UplinkDown) && hits(port)
            })
        })
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
/// model decides whether uplink/spine events have a fabric to act on).
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
    let fabric = match &opts.network {
        NetworkModel::SwitchFabric(spec) => {
            let graph = FabricGraph::from_topology(topo, &spec.fabric_config());
            let port_routes: Vec<Vec<PortId>> =
                routes.iter().map(|r| graph.port_route(r.path())).collect();
            Some((graph, port_routes, spec.uplink_policy))
        }
        NetworkModel::ChannelApprox => None,
    };

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
            FaultEvent::UplinkDown {
                leaf,
                uplink,
                from,
                until,
            } => {
                let Some((graph, port_routes, policy)) = &fabric else {
                    continue;
                };
                let hit = uplink_users(port_routes, graph, &|p| {
                    p.switch() == SwitchId(leaf) && p.uplink() == Some(uplink)
                });
                let down = down_slots(plan, graph, leaf, from, until);
                let survivors: Vec<usize> = (0..graph.uplinks_per_leaf())
                    .filter(|s| !down.contains(s))
                    .collect();
                let adaptive = *policy != UplinkPolicy::Hash;
                let fail_over = (adaptive && !survivors.is_empty()).then(|| {
                    format!(
                        "fail over to surviving slot(s) {survivors:?} under the {} policy",
                        policy.label()
                    )
                });
                let why = if adaptive {
                    "no surviving uplink slot".to_string()
                } else {
                    format!("hash striping pins them to slot {uplink}")
                };
                let what = format!("uplink {uplink} on sw{leaf} down {}", window(from, until));
                crossing_lints(&mut report, schedule, &hit, &what, until, fail_over, &why);
            }
            FaultEvent::SwitchDown { spine, from, until } => {
                let Some((graph, port_routes, policy)) = &fabric else {
                    continue;
                };
                let k = graph.uplinks_per_leaf();
                let spine_slots: BTreeSet<usize> = e
                    .downed_uplinks(graph)
                    .into_iter()
                    .map(|(_, slot)| slot as usize)
                    .collect();
                if spine_slots.is_empty() {
                    continue;
                }
                let hit = uplink_users(port_routes, graph, &|p| {
                    p.uplink()
                        .is_some_and(|u| spine_slots.contains(&(u as usize)))
                });
                // A leaf survives if it keeps at least one slot that is
                // neither on this spine nor downed by an overlapping
                // event.
                let hit_leaves: BTreeSet<u32> = port_routes
                    .iter()
                    .zip(&hit)
                    .filter(|&(_, &h)| h)
                    .flat_map(|(route, _)| route)
                    .map(|&p| graph.port(p))
                    .filter(|p| matches!(p.kind(), PortKind::UplinkUp | PortKind::UplinkDown))
                    .map(|p| p.switch().0)
                    .collect();
                let all_survive = hit_leaves.iter().all(|&leaf| {
                    let down = down_slots(plan, graph, leaf, from, until);
                    (0..k).any(|s| !down.contains(&s))
                });
                let adaptive = *policy != UplinkPolicy::Hash;
                let fail_over = (adaptive && all_survive).then(|| {
                    format!(
                        "fail over off slot(s) {spine_slots:?} under the {} policy",
                        policy.label()
                    )
                });
                let why = if adaptive {
                    "a leaf loses every uplink slot"
                } else {
                    "hash striping cannot leave the downed spine"
                };
                let what = format!("spine {spine} down {}", window(from, until));
                crossing_lints(&mut report, schedule, &hit, &what, until, fail_over, why);
            }
        }
    }
    report.finish()
}

/// Reports one uplink or spine window over the crossings of the routes
/// flagged in `hit`, if any: `CC021` when they `fail_over` (the
/// message's tail), else blocked for `why`.
fn crossing_lints(
    report: &mut LintReport,
    schedule: &Schedule,
    hit: &[bool],
    what: &str,
    until: Seconds,
    fail_over: Option<String>,
    why: &str,
) {
    let users = transfers_on(schedule, hit);
    if users.is_empty() {
        return;
    }
    let crossings = format!("{} crossings", users.len());
    let span = Span {
        transfers: users,
        ..Span::default()
    };
    match fail_over {
        Some(how) => report.push(
            LintCode::FaultReroutable,
            format!("{what}: {crossings} {how}"),
            span,
        ),
        None => push_blocked(report, what, &crossings, why, until, span),
    }
}

/// Reports a window whose `blocked` traffic has no fallback while it
/// lasts: `CC023` when the window is permanent, `CC022` when it lifts.
fn push_blocked(
    report: &mut LintReport,
    what: &str,
    blocked: &str,
    why: &str,
    until: Seconds,
    span: Span,
) {
    if until.as_secs_f64().is_infinite() {
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
    push_blocked(report, &what, &blocked, &why, until, span);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{FabricSpec, HopMode};
    use crate::faults::forever;
    use ccube_collectives::ring_allreduce;
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
