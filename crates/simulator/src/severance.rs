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
//! evaluated against the *statically lowered* routes: a plan whose
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
use ccube_collectives::{lower_schedule, Embedding, LowerError, Schedule, TransferSpec};
use ccube_topology::{
    ChannelClass, ChannelId, FabricGraph, PortKind, Router, Seconds, SwitchId, Topology,
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

/// Spec indices whose static port route uses the up or down port of
/// uplink `slot` on `leaf`, plus the set of leaves their crossings
/// touch through any of `slots`.
fn uplink_users(
    specs: &[TransferSpec],
    graph: &FabricGraph,
    hits: &dyn Fn(&ccube_topology::FabricPort) -> bool,
) -> Vec<usize> {
    let mut out = Vec::new();
    for (i, s) in specs.iter().enumerate() {
        if s.path.is_empty() {
            continue;
        }
        let route = graph.port_route(&s.path);
        if route.iter().any(|&p| hits(graph.port(p))) {
            out.push(i);
        }
    }
    out
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
    let specs = match lower_schedule(schedule, embedding, topo, &opts.link_timing()) {
        Ok(specs) => specs,
        Err(err) => {
            match err {
                LowerError::MissingRoute(edge) => report.push(
                    LintCode::MissingRoute,
                    format!("embedding has no route for logical edge {edge}"),
                    Span {
                        edges: vec![edge],
                        ..Span::default()
                    },
                ),
                LowerError::UnknownChannel {
                    edge,
                    channel_index,
                } => report.push(
                    LintCode::InvalidRoute,
                    format!("route for {edge} references unknown channel index {channel_index}"),
                    Span {
                        edges: vec![edge],
                        ..Span::default()
                    },
                ),
            }
            return report.finish();
        }
    };
    let fabric = match &opts.network {
        NetworkModel::SwitchFabric(spec) => Some((
            FabricGraph::from_topology(topo, &spec.fabric_config()),
            spec.uplink_policy,
        )),
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
                    &specs,
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
                let Some((graph, policy)) = &fabric else {
                    continue;
                };
                let users = uplink_users(&specs, graph, &|p| {
                    matches!(p.kind(), PortKind::UplinkUp | PortKind::UplinkDown)
                        && p.switch() == SwitchId(leaf)
                        && p.uplink() == Some(uplink)
                });
                if users.is_empty() {
                    continue;
                }
                let k = graph.uplinks_per_leaf();
                let down = down_slots(plan, graph, leaf, from, until);
                let survivors: Vec<usize> = (0..k).filter(|s| !down.contains(s)).collect();
                let adaptive = *policy != UplinkPolicy::Hash;
                let span = Span {
                    transfers: users.iter().map(|&i| specs[i].id).collect(),
                    ..Span::default()
                };
                let w = window(from, until);
                if adaptive && !survivors.is_empty() {
                    report.push(
                        LintCode::FaultReroutable,
                        format!(
                            "uplink {uplink} on sw{leaf} down {w}: {} crossings fail over to \
                             surviving slot(s) {survivors:?} under the {} policy",
                            users.len(),
                            policy.label()
                        ),
                        span,
                    );
                } else {
                    let why = if adaptive {
                        "no surviving uplink slot".to_string()
                    } else {
                        format!("hash striping pins them to slot {uplink}")
                    };
                    if until.as_secs_f64().is_infinite() {
                        report.push(
                            LintCode::FaultSevered,
                            format!(
                                "uplink {uplink} on sw{leaf} down {w}: {} crossings are severed \
                                 ({why}); the fault engine drains Unroutable",
                                users.len()
                            ),
                            span,
                        );
                    } else {
                        report.push(
                            LintCode::FaultStall,
                            format!(
                                "uplink {uplink} on sw{leaf} down {w}: {} crossings stall until \
                                 repair ({why})",
                                users.len()
                            ),
                            span,
                        );
                    }
                }
            }
            FaultEvent::SwitchDown { spine, from, until } => {
                let Some((graph, policy)) = &fabric else {
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
                let users = uplink_users(&specs, graph, &|p| {
                    matches!(p.kind(), PortKind::UplinkUp | PortKind::UplinkDown)
                        && p.uplink()
                            .is_some_and(|u| spine_slots.contains(&(u as usize)))
                });
                if users.is_empty() {
                    continue;
                }
                // A leaf survives if it keeps at least one slot that is
                // neither on this spine nor downed by an overlapping
                // event.
                let hit_leaves: BTreeSet<u32> = users
                    .iter()
                    .flat_map(|&i| {
                        graph
                            .port_route(&specs[i].path)
                            .into_iter()
                            .filter(|&p| {
                                matches!(
                                    graph.port(p).kind(),
                                    PortKind::UplinkUp | PortKind::UplinkDown
                                )
                            })
                            .map(|p| graph.port(p).switch().0)
                            .collect::<Vec<_>>()
                    })
                    .collect();
                let all_survive = hit_leaves.iter().all(|&leaf| {
                    let down = down_slots(plan, graph, leaf, from, until);
                    (0..k).any(|s| !down.contains(&s))
                });
                let adaptive = *policy != UplinkPolicy::Hash;
                let span = Span {
                    transfers: users.iter().map(|&i| specs[i].id).collect(),
                    ..Span::default()
                };
                let w = window(from, until);
                if adaptive && all_survive {
                    report.push(
                        LintCode::FaultReroutable,
                        format!(
                            "spine {spine} down {w}: {} crossings fail over off slot(s) \
                             {spine_slots:?} under the {} policy",
                            users.len(),
                            policy.label()
                        ),
                        span,
                    );
                } else {
                    let why = if adaptive {
                        "a leaf loses every uplink slot".to_string()
                    } else {
                        "hash striping cannot leave the downed spine".to_string()
                    };
                    if until.as_secs_f64().is_infinite() {
                        report.push(
                            LintCode::FaultSevered,
                            format!(
                                "spine {spine} down {w}: {} crossings are severed ({why}); \
                                 the fault engine drains Unroutable",
                                users.len()
                            ),
                            span,
                        );
                    } else {
                        report.push(
                            LintCode::FaultStall,
                            format!(
                                "spine {spine} down {w}: {} crossings stall until repair ({why})",
                                users.len()
                            ),
                            span,
                        );
                    }
                }
            }
        }
    }
    report.finish()
}

/// Classifies one `LinkDown` window: mirrors the engine's
/// `reroute_pass` (structural NIC paths wait; everything else asks a
/// [`Router`] with every concurrently-down channel blocked).
#[allow(clippy::too_many_arguments)]
fn link_down_lints(
    report: &mut LintReport,
    plan: &FaultPlan,
    topo: &Topology,
    schedule: &Schedule,
    embedding: &Embedding,
    specs: &[TransferSpec],
    channel: ChannelId,
    from: Seconds,
    until: Seconds,
) {
    let users: Vec<usize> = specs
        .iter()
        .enumerate()
        .filter(|(_, s)| s.path.contains(&channel))
        .map(|(i, _)| i)
        .collect();
    if users.is_empty() {
        return;
    }
    let mut router = Router::new(topo);
    for e in plan.events() {
        if let FaultEvent::LinkDown { channel: c, .. } = *e {
            if overlaps(from, until, e.from(), e.until()) {
                router.block_channel(c);
            }
        }
    }
    let transfers = schedule.transfers();
    let mut stuck: Vec<usize> = Vec::new();
    let mut structural = 0usize;
    for &i in &users {
        if specs[i]
            .path
            .iter()
            .any(|&c| topo.channel(c).class() == ChannelClass::Nic)
        {
            structural += 1;
            stuck.push(i);
            continue;
        }
        let src = embedding.gpu_of(transfers[i].src);
        let dst = embedding.gpu_of(transfers[i].dst);
        if router.route(src, dst).is_err() {
            stuck.push(i);
        }
    }
    let w = window(from, until);
    if stuck.is_empty() {
        report.push(
            LintCode::FaultReroutable,
            format!(
                "{channel} down {w}: all {} transfers on it re-route over surviving paths",
                users.len()
            ),
            Span {
                transfers: users.iter().map(|&i| specs[i].id).collect(),
                channels: vec![channel],
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
    let span = Span {
        transfers: stuck.iter().map(|&i| specs[i].id).collect(),
        channels: vec![channel],
        ..Span::default()
    };
    if until.as_secs_f64().is_infinite() {
        report.push(
            LintCode::FaultSevered,
            format!(
                "{channel} down {w}: {} of {} transfers are severed ({why}); \
                 the fault engine drains Unroutable",
                stuck.len(),
                users.len()
            ),
            span,
        );
    } else {
        report.push(
            LintCode::FaultStall,
            format!(
                "{channel} down {w}: {} of {} transfers stall until repair ({why})",
                stuck.len(),
                users.len()
            ),
            span,
        );
    }
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

    #[test]
    fn dgx1_nvlink_down_reroutes() {
        let topo = dgx1();
        let s = ring_allreduce(8, ByteSize::mib(4));
        let e = Embedding::identity(&topo, &s).unwrap();
        // An NVLink used by the ring, down forever: the router finds a
        // surviving path (path diversity is the DGX-1's whole point).
        let opts = SimOptions::default();
        let specs = lower_schedule(&s, &e, &topo, &opts.link_timing()).unwrap();
        let used = specs
            .iter()
            .flat_map(|t| t.path.iter().copied())
            .find(|&c| topo.channel(c).class() == ChannelClass::NvLink)
            .unwrap();
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
