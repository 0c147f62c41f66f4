//! Replayable fault injection and degradation-aware re-routing.
//!
//! The reproduction's other engines only ever simulate a *healthy*
//! fabric, but the paper's whole premise — static detour routes,
//! conflict-free channel assignments — is about links being scarce,
//! shared, and occasionally gone. This module adds the missing failure
//! side:
//!
//! * a [`FaultPlan`] declares fault events — link flaps
//!   ([`FaultEvent::LinkDown`]), degraded-bandwidth windows
//!   ([`FaultEvent::Degraded`]), straggler GPUs
//!   ([`FaultEvent::Straggler`]) — either hand-written or sampled from
//!   MTBF/duration distributions ([`FaultPlan::sample`]) via
//!   [`SimRng::fork`], so every plan is a pure function of a seed;
//! * [`simulate_system_faulted`] runs a [`SystemJob`] under a plan on
//!   the same deterministic DES kernel: fault boundaries are ordinary
//!   events in the `(time, key, seq)` total order (keyed *below* every
//!   traffic completion, so a boundary at time `t` is visible to all
//!   traffic at `t`), which makes faulted runs exactly as replayable as
//!   healthy ones;
//! * on a link-down, waiting transfers whose path crosses the dead
//!   channel are **re-routed** through the existing
//!   `ccube_topology::Router` fallback (direct → detour → host bridge,
//!   with every currently-down channel blocked) — chosen statically per
//!   fault epoch, mirroring the paper's static non-minimal forwarding.
//!   If no surviving route exists the transfer simply waits for the
//!   link to return; a run whose traffic can *never* finish reports
//!   [`SimError::Unroutable`] instead of a generic deadlock;
//! * failing plans shrink to 1-minimal reproducers with
//!   [`FaultPlan::shrink`].
//!
//! Every entry point runs the same scheduler (`sched.rs`); an
//! empty plan is simply a run without fault events, so
//! [`simulate_system_faulted`] with [`FaultPlan::empty`] *is*
//! [`simulate_system`](crate::simulate_system).

use crate::engine::SimOptions;
use crate::error::SimError;
use crate::kernel::SimRng;
use crate::sched::{self, Job};
use crate::system::{SystemJob, SystemReport};
use ccube_collectives::{Embedding, Schedule};
use ccube_topology::{ChannelClass, ChannelId, FabricGraph, GpuId, Seconds, Topology};
use std::collections::HashMap;

/// The sentinel end time of a permanent fault: the event never lifts.
pub fn forever() -> Seconds {
    Seconds::new(f64::INFINITY)
}

/// One declarative fault event. `from` is inclusive, `until` exclusive;
/// `until` may be [`forever`] for a permanent fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// A link flap: the channel rejects every new grant in the window.
    /// In-flight occupants finish normally — a flap is detected at
    /// grant time, not mid-wormhole.
    LinkDown {
        /// The channel that goes down.
        channel: ChannelId,
        /// When it goes down.
        from: Seconds,
        /// When it comes back up ([`forever`] = never).
        until: Seconds,
    },
    /// A degraded-bandwidth window: the channel runs at `rate`× its
    /// nominal bandwidth. In-flight transfers are rescaled at the
    /// window boundaries; overlapping windows multiply.
    Degraded {
        /// The degraded channel.
        channel: ChannelId,
        /// When degradation begins.
        from: Seconds,
        /// When it lifts ([`forever`] = never).
        until: Seconds,
        /// Bandwidth multiplier in `(0, 1]`.
        rate: f64,
    },
    /// A straggler window: every compute task on the GPU runs
    /// `slowdown`× longer. In-flight compute is rescaled at the window
    /// boundaries; overlapping windows multiply.
    Straggler {
        /// The straggling GPU.
        gpu: GpuId,
        /// When the slowdown begins.
        from: Seconds,
        /// When it lifts ([`forever`] = never).
        until: Seconds,
        /// Compute-time multiplier, at least `1.0`.
        slowdown: f64,
    },
    /// An uplink outage on the switch fabric: the up/down port pair of
    /// slot `uplink` on leaf `leaf` rejects every new grant in the
    /// window. In-flight wormholes drain normally — the outage is
    /// detected at grant time — and queued port paths fail over to the
    /// leaf's surviving slots under an adaptive
    /// [`UplinkPolicy`](crate::UplinkPolicy); exhausted diversity
    /// degrades to stall-until-repair. Requires the `SwitchFabric`
    /// network model.
    UplinkDown {
        /// The leaf switch whose uplink goes down.
        leaf: u32,
        /// The uplink slot on that leaf.
        uplink: u32,
        /// When it goes down.
        from: Seconds,
        /// When it comes back up ([`forever`] = never).
        until: Seconds,
    },
    /// A spine-switch outage: every uplink slot attached to the spine
    /// (slots `j` with `j % spines == spine`) goes down on **every**
    /// leaf for the window — the correlated analogue of
    /// [`FaultEvent::UplinkDown`]. Requires the `SwitchFabric` network
    /// model.
    SwitchDown {
        /// The spine switch that goes down.
        spine: u32,
        /// When it goes down.
        from: Seconds,
        /// When it comes back up ([`forever`] = never).
        until: Seconds,
    },
}

impl FaultEvent {
    /// When the event activates.
    pub fn from(&self) -> Seconds {
        match *self {
            FaultEvent::LinkDown { from, .. }
            | FaultEvent::Degraded { from, .. }
            | FaultEvent::Straggler { from, .. }
            | FaultEvent::UplinkDown { from, .. }
            | FaultEvent::SwitchDown { from, .. } => from,
        }
    }

    /// When the event lifts (may be [`forever`]).
    pub fn until(&self) -> Seconds {
        match *self {
            FaultEvent::LinkDown { until, .. }
            | FaultEvent::Degraded { until, .. }
            | FaultEvent::Straggler { until, .. }
            | FaultEvent::UplinkDown { until, .. }
            | FaultEvent::SwitchDown { until, .. } => until,
        }
    }

    /// True if the event never lifts.
    pub fn is_permanent(&self) -> bool {
        self.until().as_secs_f64().is_infinite()
    }
}

/// A validated, declarative list of fault events — the replayable unit
/// of the fault model. Equal plans on equal seeds/jobs produce
/// bit-identical reports.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan (a guaranteed no-op).
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// Builds a plan from `events`, validating each one.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::FaultPlanInvalid`] if an event has a
    /// negative `from`, `until <= from`, a degrade rate outside
    /// `(0, 1]`, or a straggler slowdown below `1.0`. Channel and GPU
    /// indices are validated against the topology at simulation time.
    pub fn new(events: Vec<FaultEvent>) -> Result<Self, SimError> {
        for (i, e) in events.iter().enumerate() {
            if e.from() < Seconds::ZERO {
                return Err(SimError::FaultPlanInvalid(format!(
                    "event {i}: from must be non-negative"
                )));
            }
            if e.until() <= e.from() {
                return Err(SimError::FaultPlanInvalid(format!(
                    "event {i}: until must exceed from"
                )));
            }
            match *e {
                FaultEvent::Degraded { rate, .. } => {
                    if !(rate > 0.0 && rate <= 1.0) {
                        return Err(SimError::FaultPlanInvalid(format!(
                            "event {i}: degrade rate must be in (0, 1]"
                        )));
                    }
                }
                FaultEvent::Straggler { slowdown, .. } => {
                    if slowdown.is_nan() || slowdown < 1.0 {
                        return Err(SimError::FaultPlanInvalid(format!(
                            "event {i}: straggler slowdown must be at least 1"
                        )));
                    }
                }
                FaultEvent::LinkDown { .. }
                | FaultEvent::UplinkDown { .. }
                | FaultEvent::SwitchDown { .. } => {}
            }
        }
        Ok(FaultPlan { events })
    }

    /// The plan's events, in declaration order (the order trace records
    /// and fault indices refer to).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True if the plan has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Samples a plan from `model` over `topo`: per non-host channel,
    /// link flaps and degradation windows arrive as Poisson processes
    /// (exponential inter-arrival with the model's MTBF, exponential
    /// durations); per GPU, straggler windows likewise. Host-bridge
    /// channels never fault — they model the PCIe/CPU escape path,
    /// which is exactly what a resilience study wants to keep alive.
    ///
    /// Sampling forks one RNG stream per (resource, fault kind) from
    /// `rng`, so the plan is a pure function of the seed — independent
    /// of draw order and of any other use of `rng`.
    pub fn sample(model: &FaultModel, topo: &Topology, rng: &SimRng) -> FaultPlan {
        let mut events = Vec::new();
        for ch in topo.channels() {
            if ch.class() == ChannelClass::HostBridge {
                continue;
            }
            let ci = u64::from(ch.id().0);
            if let Some(mtbf) = model.link_mtbf {
                let mut r = rng.fork(2 * ci);
                sample_windows(
                    &mut r,
                    mtbf,
                    model.link_mttr,
                    model.horizon,
                    |from, until| {
                        events.push(FaultEvent::LinkDown {
                            channel: ch.id(),
                            from,
                            until,
                        });
                    },
                );
            }
            if let Some(mtbf) = model.degrade_mtbf {
                let mut r = rng.fork(2 * ci + 1);
                sample_windows(
                    &mut r,
                    mtbf,
                    model.degrade_duration,
                    model.horizon,
                    |from, until| {
                        events.push(FaultEvent::Degraded {
                            channel: ch.id(),
                            from,
                            until,
                            rate: model.degrade_rate,
                        });
                    },
                );
            }
        }
        if let Some(mtbf) = model.straggler_mtbf {
            for g in 0..topo.num_gpus() as u32 {
                let mut r = rng.fork(0x0001_0000 + u64::from(g));
                sample_windows(
                    &mut r,
                    mtbf,
                    model.straggler_duration,
                    model.horizon,
                    |from, until| {
                        events.push(FaultEvent::Straggler {
                            gpu: GpuId(g),
                            from,
                            until,
                            slowdown: model.straggler_slowdown,
                        });
                    },
                );
            }
        }
        FaultPlan { events }
    }

    /// Samples uplink-outage windows over a spine/leaf fabric of
    /// `num_leaves` leaves with `uplinks_per_leaf` slots each: per
    /// `(leaf, slot)` pair, outages arrive as a Poisson process
    /// (exponential inter-arrival with mean `mtbf`, exponential
    /// durations with mean `mttr`) within `[0, horizon)`.
    ///
    /// Like [`FaultPlan::sample`], one RNG stream is forked per target
    /// from `rng`, so the plan is a pure function of the seed. Sampling
    /// with `uplinks_per_leaf` *smaller* than a fabric's actual slot
    /// count yields a plan valid on every fabric with at least that many
    /// slots — the trick the resilience study uses to replay the *same*
    /// seeded plan against single- and multi-uplink fabrics.
    pub fn sample_uplinks(
        num_leaves: usize,
        uplinks_per_leaf: usize,
        mtbf: Seconds,
        mttr: Seconds,
        horizon: Seconds,
        rng: &SimRng,
    ) -> FaultPlan {
        let mut events = Vec::new();
        for leaf in 0..num_leaves as u32 {
            for slot in 0..uplinks_per_leaf as u32 {
                let key = 0x0002_0000 + u64::from(leaf) * uplinks_per_leaf as u64 + u64::from(slot);
                let mut r = rng.fork(key);
                sample_windows(&mut r, mtbf, mttr, horizon, |from, until| {
                    events.push(FaultEvent::UplinkDown {
                        leaf,
                        uplink: slot,
                        from,
                        until,
                    });
                });
            }
        }
        FaultPlan { events }
    }

    /// Greedy delta-debugging shrinker: repeatedly drops single events
    /// while `still_fails` keeps returning `true`, until no single
    /// removal preserves the failure. The result is 1-minimal — every
    /// remaining event is necessary to reproduce the failure.
    ///
    /// `still_fails` must be deterministic (replay the same simulation
    /// from the same seed); with the deterministic kernel that is the
    /// default, not an extra requirement.
    pub fn shrink(&self, mut still_fails: impl FnMut(&FaultPlan) -> bool) -> FaultPlan {
        let mut current = self.clone();
        let mut changed = true;
        while changed {
            changed = false;
            let mut i = 0;
            while i < current.events.len() {
                let mut candidate = current.clone();
                candidate.events.remove(i);
                if still_fails(&candidate) {
                    current = candidate;
                    changed = true;
                } else {
                    i += 1;
                }
            }
        }
        current
    }

    pub(crate) fn validate_against(&self, topo: &Topology) -> Result<(), SimError> {
        let num_channels = topo.channels().len();
        for (i, e) in self.events.iter().enumerate() {
            match *e {
                FaultEvent::LinkDown { channel, .. } | FaultEvent::Degraded { channel, .. } => {
                    if channel.index() >= num_channels {
                        return Err(SimError::FaultPlanInvalid(format!(
                            "event {i}: channel {} outside the topology",
                            channel.0
                        )));
                    }
                }
                FaultEvent::Straggler { gpu, .. } => {
                    if gpu.index() >= topo.num_gpus() {
                        return Err(SimError::FaultPlanInvalid(format!(
                            "event {i}: {gpu} outside the topology"
                        )));
                    }
                }
                // Fabric targets are validated against the derived port
                // graph in validate_fabric_events, once the network
                // model is known.
                FaultEvent::UplinkDown { .. } | FaultEvent::SwitchDown { .. } => {}
            }
        }
        Ok(())
    }

    /// Validates the plan's fabric-native targets against the derived
    /// port graph (`None` under the channel approximation, where no
    /// fabric exists to fault).
    pub(crate) fn validate_fabric_events(
        &self,
        graph: Option<&FabricGraph>,
    ) -> Result<(), SimError> {
        for (i, e) in self.events.iter().enumerate() {
            match *e {
                FaultEvent::UplinkDown { leaf, uplink, .. } => {
                    let Some(g) = graph else {
                        return Err(SimError::FaultPlanInvalid(format!(
                            "event {i}: UplinkDown requires the switch-fabric network model"
                        )));
                    };
                    if leaf as usize >= g.num_switches() {
                        return Err(SimError::FaultPlanInvalid(format!(
                            "event {i}: leaf {leaf} outside the fabric"
                        )));
                    }
                    let slots = g.uplinks_up(ccube_topology::SwitchId(leaf)).len();
                    if uplink as usize >= slots {
                        return Err(SimError::FaultPlanInvalid(format!(
                            "event {i}: uplink {uplink} outside leaf {leaf} \
                             ({slots} uplinks)"
                        )));
                    }
                }
                FaultEvent::SwitchDown { spine, .. } => {
                    let Some(g) = graph else {
                        return Err(SimError::FaultPlanInvalid(format!(
                            "event {i}: SwitchDown requires the switch-fabric network model"
                        )));
                    };
                    if spine as usize >= g.num_spines() {
                        return Err(SimError::FaultPlanInvalid(format!(
                            "event {i}: spine {spine} outside the fabric \
                             ({} spines)",
                            g.num_spines()
                        )));
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Per-channel link downtime (indexed by channel id) and the total
    /// time at least one channel ran degraded, both clipped to
    /// `makespan`. Fabric-port downtime has no channel to charge; it
    /// shows up in the failover counter and per-uplink busy time
    /// instead.
    pub(crate) fn downtime(
        &self,
        makespan: Seconds,
        num_channels: usize,
    ) -> (Vec<Seconds>, Seconds) {
        let mut channel_downtime = vec![Seconds::ZERO; num_channels];
        let mut per_channel: HashMap<ChannelId, Vec<(f64, f64)>> = HashMap::new();
        let mut degraded: Vec<(f64, f64)> = Vec::new();
        for e in self.events() {
            let lo = e.from().as_secs_f64();
            let hi = e.until().as_secs_f64().min(makespan.as_secs_f64());
            if hi <= lo {
                continue;
            }
            match *e {
                FaultEvent::LinkDown { channel, .. } => {
                    per_channel.entry(channel).or_default().push((lo, hi));
                }
                FaultEvent::Degraded { .. } => degraded.push((lo, hi)),
                FaultEvent::Straggler { .. }
                | FaultEvent::UplinkDown { .. }
                | FaultEvent::SwitchDown { .. } => {}
            }
        }
        for (channel, windows) in per_channel {
            channel_downtime[channel.index()] = Seconds::new(merged_total(windows));
        }
        (channel_downtime, Seconds::new(merged_total(degraded)))
    }
}

/// Draws Poisson-process windows over `[0, horizon)`: exponential
/// inter-arrival times with mean `mtbf`, exponential durations with
/// mean `duration`.
fn sample_windows(
    rng: &mut SimRng,
    mtbf: Seconds,
    duration: Seconds,
    horizon: Seconds,
    mut emit: impl FnMut(Seconds, Seconds),
) {
    let exp = |rng: &mut SimRng, mean: Seconds| -mean.as_secs_f64() * (1.0 - rng.next_f64()).ln();
    let mut t = 0.0;
    loop {
        t += exp(rng, mtbf);
        if t >= horizon.as_secs_f64() {
            return;
        }
        let d = exp(rng, duration).max(horizon.as_secs_f64() * 1e-9);
        emit(Seconds::new(t), Seconds::new(t + d));
    }
}

/// MTBF/duration distributions [`FaultPlan::sample`] draws from. A
/// `None` MTBF disables that fault kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultModel {
    /// Faults arrive within `[0, horizon)` (typically the healthy run's
    /// makespan).
    pub horizon: Seconds,
    /// Per-channel mean time between link flaps.
    pub link_mtbf: Option<Seconds>,
    /// Mean flap duration (time to repair).
    pub link_mttr: Seconds,
    /// Per-channel mean time between degradation windows.
    pub degrade_mtbf: Option<Seconds>,
    /// Mean degradation-window duration.
    pub degrade_duration: Seconds,
    /// Bandwidth multiplier inside a degradation window, in `(0, 1]`.
    pub degrade_rate: f64,
    /// Per-GPU mean time between straggler windows.
    pub straggler_mtbf: Option<Seconds>,
    /// Mean straggler-window duration.
    pub straggler_duration: Seconds,
    /// Compute-time multiplier inside a straggler window (≥ 1.0).
    pub straggler_slowdown: f64,
}

impl FaultModel {
    /// The escalating-severity ladder of the resilience sweep. Level 0
    /// is a healthy fabric (empty plans); higher levels shorten every
    /// MTBF proportionally, so faults arrive `level`× as often.
    pub fn severity(level: u32, horizon: Seconds) -> FaultModel {
        let f = f64::from(level.max(1));
        FaultModel {
            horizon,
            link_mtbf: (level > 0).then(|| horizon * (12.0 / f)),
            link_mttr: horizon * 0.125,
            degrade_mtbf: (level > 0).then(|| horizon * (16.0 / f)),
            degrade_duration: horizon * 0.25,
            degrade_rate: 0.5,
            straggler_mtbf: (level > 0).then(|| horizon * (4.0 / f)),
            straggler_duration: horizon * (1.0 / 6.0),
            straggler_slowdown: 1.5,
        }
    }
}

/// Runs `schedule` (communication only) under `plan`. See
/// [`simulate_system_faulted`].
///
/// # Errors
///
/// As [`simulate_system_faulted`].
pub fn simulate_faulted(
    topo: &Topology,
    schedule: &Schedule,
    embedding: &Embedding,
    opts: &SimOptions,
    plan: &FaultPlan,
) -> Result<SystemReport, SimError> {
    sched::run(topo, &Job::transfers(schedule), embedding, opts, plan).map(SystemReport::from_run)
}

/// [`simulate_system`](crate::simulate_system) under a [`FaultPlan`]: the same deterministic
/// DES, with fault boundaries as first-class events.
///
/// Semantics per fault kind:
///
/// * **Link down** — the channel rejects new grants (force-starts
///   included); in-flight occupants finish normally. Waiting transfers
///   whose path crosses the channel are re-routed through the static
///   direct → detour → host-bridge fallback with all currently-down
///   channels blocked (one routing pass per fault epoch); transfers
///   with no surviving route wait for the link to return. Routes do
///   not revert on link-up — re-routing is static per epoch, like the
///   paper's static detours.
/// * **Degraded** — the channel's bandwidth is multiplied by `rate`;
///   in-flight transfers have their remaining time rescaled at the
///   window boundaries. The whole wormhole occupancy (latency included)
///   scales — a modeling simplification, documented in DESIGN.md.
/// * **Straggler** — compute on the GPU stretches by `slowdown`;
///   in-flight compute rescales at the boundaries.
///
/// With an empty plan this is [`simulate_system`](crate::simulate_system).
///
/// # Errors
///
/// As [`simulate_system`](crate::simulate_system), plus [`SimError::FaultPlanInvalid`] for a
/// plan referencing channels/GPUs outside `topo` and
/// [`SimError::Unroutable`] when permanently-severed traffic can never
/// finish.
pub fn simulate_system_faulted(
    topo: &Topology,
    job: &SystemJob,
    embedding: &Embedding,
    opts: &SimOptions,
    plan: &FaultPlan,
) -> Result<SystemReport, SimError> {
    let job = Job {
        schedule: &job.schedule,
        compute: &job.compute,
        gates: &job.transfer_gates,
    };
    sched::run(topo, &job, embedding, opts, plan).map(SystemReport::from_run)
}

/// Total length of the union of `windows` (each `(lo, hi)` with
/// `hi > lo`).
fn merged_total(mut windows: Vec<(f64, f64)>) -> f64 {
    windows.sort_by(|a, b| a.partial_cmp(b).expect("finite windows"));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (lo, hi) in windows {
        match &mut cur {
            Some((_, chi)) if lo <= *chi => *chi = chi.max(hi),
            _ => {
                if let Some((clo, chi)) = cur {
                    total += chi - clo;
                }
                cur = Some((lo, hi));
            }
        }
    }
    if let Some((clo, chi)) = cur {
        total += chi - clo;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccube_topology::dgx1;

    fn us(t: f64) -> Seconds {
        Seconds::from_micros(t)
    }

    #[test]
    fn plan_validation_rejects_bad_events() {
        let inverted = FaultPlan::new(vec![FaultEvent::LinkDown {
            channel: ChannelId(0),
            from: us(5.0),
            until: us(5.0),
        }]);
        assert!(matches!(inverted, Err(SimError::FaultPlanInvalid(_))));
        let bad_rate = FaultPlan::new(vec![FaultEvent::Degraded {
            channel: ChannelId(0),
            from: us(0.0),
            until: us(1.0),
            rate: 1.5,
        }]);
        assert!(matches!(bad_rate, Err(SimError::FaultPlanInvalid(_))));
        let bad_slow = FaultPlan::new(vec![FaultEvent::Straggler {
            gpu: GpuId(0),
            from: us(0.0),
            until: us(1.0),
            slowdown: 0.5,
        }]);
        assert!(matches!(bad_slow, Err(SimError::FaultPlanInvalid(_))));
        let fine = FaultPlan::new(vec![FaultEvent::LinkDown {
            channel: ChannelId(0),
            from: us(0.0),
            until: forever(),
        }]);
        assert!(fine.is_ok());
    }

    #[test]
    fn sampling_is_a_pure_function_of_the_seed() {
        let topo = dgx1();
        let model = FaultModel::severity(2, Seconds::from_millis(2.0));
        let a = FaultPlan::sample(&model, &topo, &SimRng::new(7));
        let b = FaultPlan::sample(&model, &topo, &SimRng::new(7));
        let c = FaultPlan::sample(&model, &topo, &SimRng::new(8));
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should differ");
        assert!(!a.is_empty(), "severity 2 should produce events");
        // Host-bridge channels never fault.
        for e in a.events() {
            if let FaultEvent::LinkDown { channel, .. } | FaultEvent::Degraded { channel, .. } = e {
                assert_ne!(topo.channel(*channel).class(), ChannelClass::HostBridge);
            }
        }
    }

    #[test]
    fn severity_zero_is_an_empty_plan() {
        let topo = dgx1();
        let model = FaultModel::severity(0, Seconds::from_millis(1.0));
        let plan = FaultPlan::sample(&model, &topo, &SimRng::new(1));
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
    }

    #[test]
    fn shrink_is_one_minimal() {
        // The "failure" is: the plan contains a permanent down on
        // channel 3 AND one on channel 5 (both needed). Junk events
        // must all shrink away.
        let down = |c: u32| FaultEvent::LinkDown {
            channel: ChannelId(c),
            from: us(0.0),
            until: forever(),
        };
        let junk = |c: u32| FaultEvent::Degraded {
            channel: ChannelId(c),
            from: us(1.0),
            until: us(2.0),
            rate: 0.5,
        };
        let plan =
            FaultPlan::new(vec![junk(0), down(3), junk(1), down(5), junk(2), down(3)]).unwrap();
        let fails = |p: &FaultPlan| {
            let has = |c: u32| {
                p.events().iter().any(|e| {
                    matches!(e, FaultEvent::LinkDown { channel, .. } if channel.0 == c
                        && e.is_permanent())
                })
            };
            has(3) && has(5)
        };
        assert!(fails(&plan));
        let minimal = plan.shrink(fails);
        assert_eq!(minimal.len(), 2, "exactly one down(3) and one down(5)");
        assert!(fails(&minimal));
        for i in 0..minimal.len() {
            let mut smaller = minimal.events().to_vec();
            smaller.remove(i);
            let smaller = FaultPlan::new(smaller).unwrap();
            assert!(!fails(&smaller), "1-minimality violated at event {i}");
        }
    }

    #[test]
    fn merged_total_unions_overlaps() {
        let total = merged_total(vec![(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]);
        assert!((total - 4.0).abs() < 1e-12);
        assert_eq!(merged_total(vec![]), 0.0);
    }
}
