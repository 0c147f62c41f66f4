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
//! * [`FaultDriver`] is the same scheduling logic as a
//!   [`Component`] on the
//!   [`Simulation`](crate::kernel::Simulation) layer, for experiments
//!   built there;
//! * failing plans shrink to 1-minimal reproducers with
//!   [`FaultPlan::shrink`].
//!
//! An **empty plan is a true no-op**: [`simulate_system_faulted`]
//! delegates straight to [`simulate_system`], so golden results cannot
//! drift by construction.

use crate::engine::SimOptions;
use crate::error::SimError;
use crate::kernel::{Component, ComponentId, Ctx, Kernel, SimRng};
use crate::report::SimStats;
use crate::resource::{ChannelPool, ComputeStream};
use crate::system::{simulate_system, SystemJob, SystemReport};
use crate::trace::{SimTrace, TraceRecord};
use ccube_collectives::{lower_to_ports, Embedding, Schedule, TransferSpec};
use ccube_topology::{ChannelClass, ChannelId, GpuId, Router, Seconds, SwitchId, Topology};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

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

    fn validate_against(&self, topo: &Topology) -> Result<(), SimError> {
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
    fn validate_fabric_events(
        &self,
        graph: Option<&ccube_topology::FabricGraph>,
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

/// Events a [`FaultDriver`] schedules and receives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultSignal {
    /// Kick-off: schedule every plan event's boundaries.
    Activate,
    /// Fault `.0` (a plan index) starts now.
    Start(u32),
    /// Fault `.0` ends now.
    End(u32),
}

/// The fault-boundary scheduler as a [`Component`]: on
/// [`FaultSignal::Activate`] it emits a [`FaultSignal::Start`] at each
/// event's `from` and a [`FaultSignal::End`] at each finite `until`,
/// addressed to `target` (or to itself when none, in which case it logs
/// the boundary). Because boundaries ride the simulation's
/// `(time, key, seq)` order, a fabric component receiving them observes
/// faults in exactly the order [`simulate_system_faulted`] applies them.
pub struct FaultDriver {
    plan: FaultPlan,
    target: Option<ComponentId>,
    log: Vec<(u32, bool, Seconds)>,
}

impl FaultDriver {
    /// A driver that logs boundaries itself.
    pub fn new(plan: FaultPlan) -> Self {
        FaultDriver {
            plan,
            target: None,
            log: Vec::new(),
        }
    }

    /// A driver that addresses boundaries to `target`.
    pub fn with_target(plan: FaultPlan, target: ComponentId) -> Self {
        FaultDriver {
            plan,
            target: Some(target),
            log: Vec::new(),
        }
    }

    /// The boundaries this driver received, as
    /// `(event index, is_start, time)` in delivery order.
    pub fn log(&self) -> &[(u32, bool, Seconds)] {
        &self.log
    }
}

impl Component<FaultSignal> for FaultDriver {
    fn on_event(&mut self, event: FaultSignal, ctx: &mut Ctx<'_, FaultSignal>) {
        match event {
            FaultSignal::Activate => {
                let to = self.target.unwrap_or_else(|| ctx.self_id());
                for (i, e) in self.plan.events().iter().enumerate() {
                    ctx.emit(to, e.from() - ctx.now(), FaultSignal::Start(i as u32));
                    if !e.is_permanent() {
                        ctx.emit(to, e.until() - ctx.now(), FaultSignal::End(i as u32));
                    }
                }
            }
            FaultSignal::Start(i) => self.log.push((i, true, ctx.now())),
            FaultSignal::End(i) => self.log.push((i, false, ctx.now())),
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
    let job = SystemJob {
        schedule: schedule.clone(),
        compute: vec![],
        transfer_gates: vec![],
    };
    simulate_system_faulted(topo, &job, embedding, opts, plan)
}

/// Fault events pop *before* traffic completions at equal times: their
/// tie-break keys are the plan indices, and every traffic key is offset
/// past them.
const NODE_KEYS: u64 = 1 << 32;

#[derive(Debug, Clone, Copy)]
enum Ev {
    FaultStart(u32),
    FaultEnd(u32),
    /// Transfer completion `(id, generation)` — stale generations are
    /// rescheduled completions and get ignored.
    Transfer(u32, u32),
    /// Compute completion `(id, generation)`.
    Compute(u32, u32),
}

struct Engine<'a> {
    topo: &'a Topology,
    job: &'a SystemJob,
    embedding: &'a Embedding,
    opts: &'a SimOptions,
    plan: &'a FaultPlan,
    specs: Vec<TransferSpec>,
    /// Channel→port mapping under the switch-fabric network model:
    /// `specs` keep channel-level paths (fault events and degradation
    /// windows are declared per channel), while the pool schedules the
    /// mapped port paths.
    fabric: Option<crate::fabric::FabricMap>,
    pool: ChannelPool,
    streams: HashMap<GpuId, ComputeStream>,
    kernel: Kernel<Ev>,
    trace: SimTrace,
    nt: usize,
    /// Per-node (transfers then compute) completion-event generation;
    /// rescheduling a completion bumps it, orphaning the stale event.
    generation: Vec<u32>,
    /// Scheduled finish time per node, for boundary rescaling.
    finish_at: Vec<Seconds>,
    /// Start time per node (pool tracks transfers; this also covers
    /// compute, for occupancy accounting under changing slowdowns).
    start_at: Vec<Seconds>,
    /// Effective bandwidth rate each running transfer was scheduled at.
    eff_of: Vec<f64>,
    /// Which plan events are currently active.
    active: Vec<bool>,
    compute_running: Vec<bool>,
    /// Valid (current-generation) completion events in the kernel.
    in_flight: usize,
    faults_injected: u64,
    reroutes_taken: u64,
    failovers: u64,
}

impl Engine<'_> {
    fn transfer_key(tid: u32) -> u64 {
        NODE_KEYS + (u64::from(tid) << 1)
    }

    fn compute_key(cid: u32) -> u64 {
        NODE_KEYS + ((u64::from(cid) << 1) | 1)
    }

    /// The pool resources a channel-level path occupies (identity under
    /// the channel approximation, the port path under the fabric).
    fn res_path(&self, channels: &[ChannelId]) -> Vec<ChannelId> {
        match &self.fabric {
            Some(f) => f.resource_path(channels),
            None => channels.to_vec(),
        }
    }

    /// True if `channel` is currently down in the pool (its endpoint
    /// ports, under the fabric).
    fn is_channel_down(&self, channel: ChannelId) -> bool {
        match &self.fabric {
            Some(f) => f
                .graph
                .ports_for_channel(channel)
                .iter()
                .any(|p| self.pool.is_link_down(ChannelId(p.0))),
            None => self.pool.is_link_down(channel),
        }
    }

    /// Product of the active degradation rates on `channel`.
    fn channel_rate(&self, channel: ChannelId) -> f64 {
        let mut rate = 1.0;
        for (i, e) in self.plan.events().iter().enumerate() {
            if let FaultEvent::Degraded {
                channel: c,
                rate: r,
                ..
            } = *e
            {
                if self.active[i] && c == channel {
                    rate *= r;
                }
            }
        }
        rate
    }

    /// Effective rate of a transfer: its bottleneck degradation.
    fn path_rate(&self, tid: u32) -> f64 {
        self.specs[tid as usize]
            .path
            .iter()
            .map(|&c| self.channel_rate(c))
            .fold(1.0, f64::min)
    }

    /// Product of the active straggler slowdowns on `gpu`.
    fn gpu_slowdown(&self, gpu: GpuId) -> f64 {
        let mut slowdown = 1.0;
        for (i, e) in self.plan.events().iter().enumerate() {
            if let FaultEvent::Straggler {
                gpu: g,
                slowdown: s,
                ..
            } = *e
            {
                if self.active[i] && g == gpu {
                    slowdown *= s;
                }
            }
        }
        slowdown
    }

    fn begin_transfer(&mut self, tid: u32, now: Seconds) {
        let t = tid as usize;
        let eff = self.path_rate(tid);
        let duration = Seconds::new(self.specs[t].duration.as_secs_f64() / eff);
        let finish = now + duration;
        self.finish_at[t] = finish;
        self.start_at[t] = now;
        self.eff_of[t] = eff;
        self.kernel.schedule(
            finish,
            Self::transfer_key(tid),
            Ev::Transfer(tid, self.generation[t]),
        );
        self.in_flight += 1;
        self.trace.push(TraceRecord::TransferStart {
            id: self.specs[t].id,
            at: now,
        });
    }

    fn begin_compute(&mut self, cid: u32, now: Seconds) {
        let task = &self.job.compute[cid as usize];
        let me = self.nt + cid as usize;
        let scaled = self.streams[&task.gpu].scale(task.duration);
        let finish = now + scaled;
        self.finish_at[me] = finish;
        self.start_at[me] = now;
        self.compute_running[cid as usize] = true;
        self.kernel.schedule(
            finish,
            Self::compute_key(cid),
            Ev::Compute(cid, self.generation[me]),
        );
        self.in_flight += 1;
        self.trace.push(TraceRecord::ComputeStart {
            id: cid,
            gpu: task.gpu,
            at: now,
        });
    }

    /// Activates plan event `e` at `now`.
    fn apply_start(&mut self, e: u32, now: Seconds) {
        self.active[e as usize] = true;
        self.faults_injected += 1;
        self.trace
            .push(TraceRecord::FaultStart { fault: e, at: now });
        match self.plan.events()[e as usize] {
            FaultEvent::LinkDown { channel, .. } => {
                for r in self.res_path(&[channel]) {
                    self.pool.set_link_down(r);
                }
                self.reroute_pass(now);
            }
            FaultEvent::Degraded { channel, .. } => self.rescale_channel(channel, now),
            FaultEvent::Straggler { gpu, .. } => self.rescale_gpu(gpu, now),
            ev @ (FaultEvent::UplinkDown { .. } | FaultEvent::SwitchDown { .. }) => {
                for r in self.fault_ports(&ev) {
                    self.pool.set_link_down(r);
                }
                // Downed ports drain their in-flight wormholes (the
                // completion events stay scheduled); queued port paths
                // fail over to surviving uplinks right away.
                self.failover_pass(now);
            }
        }
    }

    /// Lifts plan event `e` at `now`.
    fn apply_end(&mut self, e: u32, now: Seconds) {
        self.active[e as usize] = false;
        self.trace.push(TraceRecord::FaultEnd { fault: e, at: now });
        match self.plan.events()[e as usize] {
            FaultEvent::LinkDown { channel, .. } => {
                for r in self.res_path(&[channel]) {
                    self.pool.set_link_up(r);
                    if !self.pool.is_link_down(r) {
                        let mut started = Vec::new();
                        self.pool
                            .serve_channel(r, now, &mut self.trace, &mut started);
                        for s in started {
                            self.begin_transfer(s, now);
                        }
                    }
                }
            }
            FaultEvent::Degraded { channel, .. } => self.rescale_channel(channel, now),
            FaultEvent::Straggler { gpu, .. } => self.rescale_gpu(gpu, now),
            ev @ (FaultEvent::UplinkDown { .. } | FaultEvent::SwitchDown { .. }) => {
                let ports = self.fault_ports(&ev);
                for &r in &ports {
                    self.pool.set_link_up(r);
                }
                // Transfers stranded on a slot that is STILL down (they
                // had no survivor to fail over to) revise onto the
                // repaired one before its waiter queues are served.
                self.failover_pass(now);
                for r in ports {
                    if !self.pool.is_link_down(r) {
                        let mut started = Vec::new();
                        self.pool
                            .serve_channel(r, now, &mut self.trace, &mut started);
                        for s in started {
                            self.begin_transfer(s, now);
                        }
                    }
                }
            }
        }
    }

    /// The pool port resources a fabric-native fault event downs: both
    /// legs of the uplink crossing (a transfer that cannot reach the
    /// spine cannot come back down it either), or every crossing homed
    /// on a downed spine.
    fn fault_ports(&self, e: &FaultEvent) -> Vec<ChannelId> {
        let Some(f) = &self.fabric else {
            return Vec::new(); // validated away under ChannelApprox
        };
        match *e {
            FaultEvent::UplinkDown { leaf, uplink, .. } => {
                let sw = SwitchId(leaf);
                let up = f.graph.uplinks_up(sw)[uplink as usize];
                let down = f.graph.uplinks_down(sw)[uplink as usize];
                vec![ChannelId(up.0), ChannelId(down.0)]
            }
            FaultEvent::SwitchDown { spine, .. } => {
                let mut out = Vec::new();
                for leaf in 0..f.graph.num_switches() {
                    let sw = SwitchId(leaf as u32);
                    let ups = f.graph.uplinks_up(sw);
                    let downs = f.graph.uplinks_down(sw);
                    for (slot, (&u, &d)) in ups.iter().zip(downs).enumerate() {
                        if f.graph.spine_of_uplink(slot as u32) == spine {
                            out.push(ChannelId(u.0));
                            out.push(ChannelId(d.0));
                        }
                    }
                }
                out
            }
            _ => Vec::new(),
        }
    }

    /// Re-slots every waiting transfer's spine crossings onto surviving
    /// (or less-queued) uplinks. Unlike [`Self::reroute_pass`] this
    /// never changes the channel-level route — slot substitution is
    /// duration-invariant by construction, so specs and cached timings
    /// stay untouched. A crossing with no surviving slot keeps its
    /// current one and stalls until repair; permanent total severance
    /// surfaces as [`SimError::Unroutable`] when the queue drains.
    fn failover_pass(&mut self, now: Seconds) {
        let Some(f) = &self.fabric else { return };
        if f.policy == crate::fabric::UplinkPolicy::Hash {
            return;
        }
        let graph = Rc::clone(&f.graph);
        let policy = f.policy;
        for tid in 0..self.nt as u32 {
            if self.pool.is_done(tid) || self.pool.is_running(tid) {
                continue;
            }
            let Some((revised, port)) =
                crate::fabric::choose_uplinks(&graph, &self.pool, self.pool.path(tid), policy)
            else {
                continue;
            };
            self.pool.reroute(tid, revised);
            self.failovers += 1;
            self.trace.push(TraceRecord::Failover {
                id: self.specs[tid as usize].id,
                port,
                at: now,
            });
            if self.pool.poke(tid, now, &mut self.trace) {
                self.begin_transfer(tid, now);
            }
        }
    }

    /// Marks `tid` ready, first revising its spine crossings under an
    /// adaptive uplink policy — the grant-time choice from live queue
    /// depths the fabric's healthy engine makes too.
    fn adapt_and_mark_ready(&mut self, tid: u32, now: Seconds) -> bool {
        if let Some(f) = &self.fabric {
            if f.policy != crate::fabric::UplinkPolicy::Hash {
                let graph = Rc::clone(&f.graph);
                let policy = f.policy;
                if let Some((revised, port)) =
                    crate::fabric::choose_uplinks(&graph, &self.pool, self.pool.path(tid), policy)
                {
                    self.pool.reroute(tid, revised);
                    self.failovers += 1;
                    self.trace.push(TraceRecord::Failover {
                        id: self.specs[tid as usize].id,
                        port,
                        at: now,
                    });
                }
            }
        }
        self.pool.mark_ready(tid, now, &mut self.trace)
    }

    /// Re-routes every waiting transfer whose path crosses a down
    /// channel onto the best surviving route, if one exists. Routes are
    /// chosen statically for the fault epoch — one `Router` per pass,
    /// allocating in transfer-id order, load-balances the pass exactly
    /// like schedule-construction-time routing would have. A transfer
    /// with no surviving route keeps its old path and waits for the
    /// link to return.
    ///
    /// NIC paths (scale-out injection/ejection pairs) are structural,
    /// not `Router`-resolved, so they are never re-routed: a downed NIC
    /// stalls its endpoint until repair, and a permanently-downed NIC
    /// makes the run [`SimError::Unroutable`] — the asymmetry the
    /// resilience sweep measures against the DGX-1's path diversity.
    fn reroute_pass(&mut self, now: Seconds) {
        let mut router = Router::new(self.topo);
        for ch in self.topo.channels() {
            if self.is_channel_down(ch.id()) {
                router.block_channel(ch.id());
            }
        }
        let transfers = self.job.schedule.transfers();
        for tid in 0..self.nt as u32 {
            let t = tid as usize;
            if self.pool.is_done(tid) || self.pool.is_running(tid) {
                continue;
            }
            let crosses = self.specs[t].path.iter().any(|&c| self.is_channel_down(c));
            if !crosses {
                continue;
            }
            let structural = self.specs[t]
                .path
                .iter()
                .any(|&c| self.topo.channel(c).class() == ChannelClass::Nic);
            if structural {
                continue; // NIC paths wait for repair instead
            }
            let src = self.embedding.gpu_of(transfers[t].src);
            let dst = self.embedding.gpu_of(transfers[t].dst);
            let Ok(route) = router.allocate(src, dst) else {
                continue; // no surviving route: wait for the link
            };
            // Mirror lower_schedule's duration model on the new path.
            let mut alpha = Seconds::ZERO;
            let mut bottleneck = f64::INFINITY;
            for &c in route.channels() {
                let ch = self.topo.channel(c);
                alpha += ch.latency();
                bottleneck = bottleneck.min(ch.bandwidth().as_bytes_per_sec());
            }
            if route.is_detour() {
                alpha += self.opts.forwarding_latency;
            }
            let serialization = Seconds::new(
                transfers[t].bytes.as_f64() / (bottleneck * self.opts.bandwidth_scale),
            );
            self.specs[t].path = route.channels().into();
            self.specs[t].via = route.via();
            self.specs[t].duration = match &self.fabric {
                Some(f) => f.duration(
                    &self.specs[t].path,
                    transfers[t].bytes,
                    route.is_detour(),
                    &self.opts.link_timing(),
                ),
                None => alpha + serialization,
            };
            let res_path = self.res_path(&self.specs[t].path);
            self.pool.reroute(tid, res_path);
            self.reroutes_taken += 1;
            self.trace.push(TraceRecord::Reroute {
                id: self.specs[t].id,
                at: now,
            });
            if self.pool.poke(tid, now, &mut self.trace) {
                self.begin_transfer(tid, now);
            }
        }
    }

    /// Rescales in-flight transfers crossing `channel` after its
    /// degradation changed: remaining work finishes at the new rate.
    fn rescale_channel(&mut self, channel: ChannelId, now: Seconds) {
        for tid in 0..self.nt as u32 {
            let t = tid as usize;
            if !self.pool.is_running(tid) || !self.specs[t].path.contains(&channel) {
                continue;
            }
            let eff_new = self.path_rate(tid);
            let eff_old = self.eff_of[t];
            if eff_new == eff_old {
                continue;
            }
            let remaining = self.finish_at[t] - now;
            let finish = now + remaining * (eff_old / eff_new);
            self.generation[t] += 1;
            self.finish_at[t] = finish;
            self.eff_of[t] = eff_new;
            self.kernel.schedule(
                finish,
                Self::transfer_key(tid),
                Ev::Transfer(tid, self.generation[t]),
            );
        }
    }

    /// Rescales in-flight compute on `gpu` after its straggler factor
    /// changed, and re-sets the stream's slowdown for future tasks.
    fn rescale_gpu(&mut self, gpu: GpuId, now: Seconds) {
        let sd_new = self.gpu_slowdown(gpu);
        let Some(stream) = self.streams.get_mut(&gpu) else {
            return; // no compute tasks ever run there
        };
        let sd_old = stream.slowdown();
        if sd_new == sd_old {
            return;
        }
        stream.set_slowdown(sd_new);
        for cid in 0..self.job.compute.len() {
            if !self.compute_running[cid] || self.job.compute[cid].gpu != gpu {
                continue;
            }
            let me = self.nt + cid;
            let remaining = self.finish_at[me] - now;
            let finish = now + remaining * (sd_new / sd_old);
            self.generation[me] += 1;
            self.finish_at[me] = finish;
            self.kernel.schedule(
                finish,
                Self::compute_key(cid as u32),
                Ev::Compute(cid as u32, self.generation[me]),
            );
        }
    }

    /// The terminal error when the event queue drained with nodes
    /// outstanding: [`SimError::Unroutable`] if some unfinished
    /// transfer is stuck behind a (necessarily permanent, by now)
    /// link-down, otherwise a plain deadlock.
    fn drained_error(&self, remaining: usize) -> SimError {
        let transfers = self.job.schedule.transfers();
        for tid in 0..self.nt as u32 {
            let t = tid as usize;
            if self.pool.is_done(tid) {
                continue;
            }
            let stuck = self.specs[t].path.iter().any(|&c| self.is_channel_down(c))
                || (self.fabric.is_some()
                    && self
                        .pool
                        .path(tid)
                        .iter()
                        .any(|&r| self.pool.is_link_down(r)));
            if stuck {
                return SimError::Unroutable {
                    src: self.embedding.gpu_of(transfers[t].src),
                    dst: self.embedding.gpu_of(transfers[t].dst),
                };
            }
        }
        SimError::Deadlock { remaining }
    }
}

/// [`simulate_system`] under a [`FaultPlan`]: the same deterministic
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
/// An empty plan delegates to [`simulate_system`] — bit-identical
/// output, zero overhead.
///
/// # Errors
///
/// As [`simulate_system`], plus [`SimError::FaultPlanInvalid`] for a
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
    if plan.is_empty() {
        return simulate_system(topo, job, embedding, opts);
    }
    plan.validate_against(topo)?;

    let transfers = job.schedule.transfers();
    let nt = transfers.len();
    let nc = job.compute.len();
    let num_channels = topo.channels().len();
    let node_count = nt + nc;

    // The fault engine re-routes specs in place (and rescales durations
    // across fault windows).
    let timing = opts.link_timing();
    let mut specs = crate::engine::gate_and_lower(topo, &job.schedule, embedding, &timing)?;

    // Under the switch-fabric model the pool schedules port paths and
    // durations follow the fabric; specs keep their channel-level paths
    // (fault events are declared per channel).
    let fabric = crate::fabric::FabricMap::for_options(topo, opts);
    plan.validate_fabric_events(fabric.as_ref().map(|f| f.graph.as_ref()))?;
    let res_paths: Vec<Arc<[ChannelId]>> = match &fabric {
        Some(f) => {
            let ports = lower_to_ports(&specs, &f.graph);
            specs
                .iter_mut()
                .zip(&ports)
                .map(|(s, route)| {
                    s.duration = f.duration_on(route, s.bytes, s.via.is_some(), &timing);
                    route.iter().map(|p| ChannelId(p.0)).collect()
                })
                .collect()
        }
        None => specs.iter().map(|s| Arc::clone(&s.path)).collect(),
    };

    // Dependency bookkeeping, identical to simulate_system.
    let mut deps_remaining = vec![0u32; node_count];
    let mut dependents: Vec<Vec<(bool, u32)>> = vec![Vec::new(); node_count]; // (is_compute, id)
    for t in transfers {
        deps_remaining[t.id.index()] += t.deps.len() as u32;
        for d in &t.deps {
            dependents[d.index()].push((false, t.id.0));
        }
    }
    for (tid, cid) in &job.transfer_gates {
        deps_remaining[tid.index()] += 1;
        dependents[nt + cid.index()].push((false, tid.0));
    }
    for c in &job.compute {
        deps_remaining[nt + c.id.index()] += (c.deps_compute.len() + c.deps_transfers.len()) as u32;
        for d in &c.deps_compute {
            dependents[nt + d.index()].push((true, c.id.0));
        }
        for d in &c.deps_transfers {
            dependents[d.index()].push((true, c.id.0));
        }
    }

    let num_resources = fabric.as_ref().map_or(num_channels, |f| f.num_ports());
    let mut pool = ChannelPool::new(num_resources, opts.arbitration);
    pool.reserve_tasks(nt);
    for (s, path) in specs.iter().zip(res_paths) {
        pool.add_task(path, (s.chunk.0, s.id.0));
    }
    let mut streams: HashMap<GpuId, ComputeStream> = HashMap::new();
    for c in &job.compute {
        streams.entry(c.gpu).or_default();
    }

    let mut eng = Engine {
        topo,
        job,
        embedding,
        opts,
        plan,
        specs,
        fabric,
        pool,
        streams,
        kernel: Kernel::with_capacity(node_count.min(num_resources + nc) + 2 * plan.len()),
        trace: opts.make_trace_for(nt.saturating_mul(4) + nc.saturating_mul(2) + 2 * plan.len()),
        nt,
        generation: vec![0; node_count],
        finish_at: vec![Seconds::ZERO; node_count],
        start_at: vec![Seconds::ZERO; node_count],
        eff_of: vec![1.0; nt],
        active: vec![false; plan.len()],
        compute_running: vec![false; nc],
        in_flight: 0,
        faults_injected: 0,
        reroutes_taken: 0,
        failovers: 0,
    };

    // Faults active from t = 0 apply BEFORE seeding, so no transfer can
    // start on (or keep a path through) an initially-down channel.
    // Later boundaries become kernel events, keyed below every traffic
    // completion so a boundary at time t is visible to all traffic at t.
    for (i, e) in plan.events().iter().enumerate() {
        let key = i as u64;
        if e.from() == Seconds::ZERO {
            eng.apply_start(i as u32, Seconds::ZERO);
        } else {
            eng.kernel.schedule(e.from(), key, Ev::FaultStart(i as u32));
        }
        if !e.is_permanent() {
            eng.kernel.schedule(e.until(), key, Ev::FaultEnd(i as u32));
        }
    }

    // Seed: dependency-free nodes, transfers first (historical order).
    for t in transfers {
        if deps_remaining[t.id.index()] == 0 && eng.adapt_and_mark_ready(t.id.0, Seconds::ZERO) {
            eng.begin_transfer(t.id.0, Seconds::ZERO);
        }
    }
    for c in &job.compute {
        if deps_remaining[nt + c.id.index()] == 0 {
            let started = eng
                .streams
                .get_mut(&c.gpu)
                .expect("gpu stream exists")
                .acquire(c.id.0);
            if started {
                eng.begin_compute(c.id.0, Seconds::ZERO);
            }
        }
    }

    let mut transfer_complete = vec![Seconds::ZERO; nt];
    let mut compute_complete = vec![Seconds::ZERO; nc];
    let mut remaining = node_count;
    let mut makespan = Seconds::ZERO;
    let mut started = Vec::new();

    while remaining > 0 {
        if eng.in_flight == 0 {
            // No completion pending: either an arbitration stall (break
            // it immediately, like the healthy engines) or all traffic
            // is waiting out a link-down (advance to the boundary).
            let now = eng.kernel.now();
            if let Some(t) = eng.pool.force_start(now, &mut eng.trace) {
                eng.begin_transfer(t, now);
                continue;
            }
        }
        let Some((now, ev)) = eng.kernel.pop() else {
            return Err(eng.drained_error(remaining));
        };
        let (is_compute, id) = match ev {
            Ev::FaultStart(e) => {
                eng.apply_start(e, now);
                continue;
            }
            Ev::FaultEnd(e) => {
                eng.apply_end(e, now);
                continue;
            }
            Ev::Transfer(i, gen) => {
                if gen != eng.generation[i as usize] {
                    continue; // rescheduled; a current-gen event exists
                }
                (false, i)
            }
            Ev::Compute(i, gen) => {
                if gen != eng.generation[nt + i as usize] {
                    continue;
                }
                (true, i)
            }
        };
        eng.in_flight -= 1;
        remaining -= 1;
        makespan = makespan.max(now);
        let me = if is_compute {
            nt + id as usize
        } else {
            id as usize
        };

        // Release the resource and record the completion.
        if is_compute {
            let ci = id as usize;
            compute_complete[ci] = now;
            eng.compute_running[ci] = false;
            eng.trace.push(TraceRecord::ComputeEnd {
                id,
                gpu: job.compute[ci].gpu,
                at: now,
            });
        } else {
            let ti = id as usize;
            transfer_complete[ti] = now;
            eng.pool.complete(id, now);
            eng.trace.push(TraceRecord::TransferEnd {
                id: eng.specs[ti].id,
                at: now,
            });
            if let Some(via) = eng.specs[ti].via {
                eng.trace.push(TraceRecord::DetourHop {
                    id: eng.specs[ti].id,
                    via,
                    at: now,
                });
            }
        }

        // Unblock dependents before serving freed resources.
        let deps = std::mem::take(&mut dependents[me]);
        for (dep_compute, dep_id) in deps {
            let di = if dep_compute {
                nt + dep_id as usize
            } else {
                dep_id as usize
            };
            deps_remaining[di] -= 1;
            if deps_remaining[di] == 0 {
                if dep_compute {
                    let gpu = job.compute[dep_id as usize].gpu;
                    let ok = eng
                        .streams
                        .get_mut(&gpu)
                        .expect("gpu stream exists")
                        .acquire(dep_id);
                    if ok {
                        eng.begin_compute(dep_id, now);
                    }
                } else if eng.adapt_and_mark_ready(dep_id, now) {
                    eng.begin_transfer(dep_id, now);
                }
            }
        }

        // Serve the freed resource's waiters.
        if is_compute {
            let ci = id as usize;
            let gpu = job.compute[ci].gpu;
            let occupancy = now - eng.start_at[me];
            let next = eng
                .streams
                .get_mut(&gpu)
                .expect("gpu stream exists")
                .release(occupancy);
            if let Some(h) = next {
                eng.begin_compute(h, now);
            }
        } else {
            started.clear();
            eng.pool.serve(id, now, &mut eng.trace, &mut started);
            for &s in &started {
                eng.begin_transfer(s, now);
            }
        }
    }

    // Post-hoc fault intervals, clipped to the run's makespan.
    let mut channel_downtime = vec![Seconds::ZERO; num_channels];
    let mut per_channel: HashMap<ChannelId, Vec<(f64, f64)>> = HashMap::new();
    let mut degraded: Vec<(f64, f64)> = Vec::new();
    for e in plan.events() {
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
            // Fabric-port downtime has no channel to charge; it shows up
            // in the failover counter and per-uplink busy time instead.
            FaultEvent::Straggler { .. }
            | FaultEvent::UplinkDown { .. }
            | FaultEvent::SwitchDown { .. } => {}
        }
    }
    for (channel, windows) in per_channel {
        channel_downtime[channel.index()] = Seconds::new(merged_total(windows));
    }
    let time_degraded = Seconds::new(merged_total(degraded));

    let gpu_busy: HashMap<GpuId, Seconds> = eng
        .streams
        .iter()
        .filter(|(_, s)| s.busy() > Seconds::ZERO)
        .map(|(&g, s)| (g, s.busy()))
        .collect();
    let kstats = eng.kernel.stats();
    let max_stream_waiting = eng
        .streams
        .values()
        .map(|s| s.max_waiting())
        .max()
        .unwrap_or(0);
    // Per-port quantities fold back to channels under the fabric model;
    // the raw per-port busy vector stays visible in the stats.
    let (channel_busy, queue_wait, port_busy, uplink_busy) = match &eng.fabric {
        Some(f) => (
            f.channel_values(eng.pool.busy(), num_channels),
            f.channel_values(eng.pool.queue_wait(), num_channels),
            eng.pool.busy().to_vec(),
            crate::fabric::uplink_busy_of(&f.graph, eng.pool.busy()),
        ),
        None => (
            eng.pool.busy().to_vec(),
            eng.pool.queue_wait().to_vec(),
            Vec::new(),
            Vec::new(),
        ),
    };
    let stats = SimStats {
        events_scheduled: kstats.events_scheduled,
        events_processed: kstats.events_processed,
        max_event_queue_depth: kstats.max_queue_depth,
        max_channel_queue_depth: eng.pool.max_waiting().max(max_stream_waiting),
        queue_wait,
        force_starts: eng.pool.force_starts(),
        faults_injected: eng.faults_injected,
        reroutes_taken: eng.reroutes_taken,
        failovers: eng.failovers,
        time_degraded,
        channel_downtime,
        port_busy,
        uplink_busy,
        ..SimStats::default()
    };

    Ok(SystemReport {
        transfer_complete,
        compute_complete,
        makespan,
        gpu_busy,
        channel_busy,
        trace: eng.trace,
        stats,
    })
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
    use crate::kernel::Simulation;
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
    fn fault_driver_schedules_boundaries_in_order() {
        let plan = FaultPlan::new(vec![
            FaultEvent::LinkDown {
                channel: ChannelId(0),
                from: us(5.0),
                until: us(9.0),
            },
            FaultEvent::Straggler {
                gpu: GpuId(1),
                from: us(2.0),
                until: forever(),
                slowdown: 2.0,
            },
        ])
        .unwrap();
        let mut sim: Simulation<FaultSignal> = Simulation::with_seed(0);
        let d = sim.add_component(FaultDriver::new(plan));
        sim.emit(Seconds::ZERO, d, FaultSignal::Activate);
        sim.run();
        assert_eq!(sim.now(), us(9.0));
        // The log is reachable only through the component box; re-run
        // with a probe target instead.
        struct Probe(Vec<(u32, bool, Seconds)>);
        impl Component<FaultSignal> for Probe {
            fn on_event(&mut self, ev: FaultSignal, ctx: &mut Ctx<'_, FaultSignal>) {
                match ev {
                    FaultSignal::Start(i) => self.0.push((i, true, ctx.now())),
                    FaultSignal::End(i) => self.0.push((i, false, ctx.now())),
                    FaultSignal::Activate => {}
                }
            }
        }
        let plan2 = FaultPlan::new(vec![
            FaultEvent::LinkDown {
                channel: ChannelId(0),
                from: us(5.0),
                until: us(9.0),
            },
            FaultEvent::Straggler {
                gpu: GpuId(1),
                from: us(2.0),
                until: forever(),
                slowdown: 2.0,
            },
        ])
        .unwrap();
        let mut sim: Simulation<FaultSignal> = Simulation::with_seed(0);
        let probe = sim.add_component(Probe(Vec::new()));
        let d = sim.add_component(FaultDriver::with_target(plan2, probe));
        sim.emit(Seconds::ZERO, d, FaultSignal::Activate);
        // Drive to completion, then inspect via a final self-query: the
        // Simulation owns the components, so assert through event count
        // and time instead.
        let processed = sim.run();
        // Activate + start(0) + end(0) + start(1); the permanent
        // straggler has no end.
        assert_eq!(processed, 4);
        assert_eq!(sim.now(), us(9.0));
    }

    #[test]
    fn merged_total_unions_overlaps() {
        let total = merged_total(vec![(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]);
        assert!((total - 4.0).abs() < 1e-12);
        assert_eq!(merged_total(vec![]), 0.0);
    }
}
