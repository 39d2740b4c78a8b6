//! One scenario, one outcome: the shape every harness run shares.
//!
//! Figure 2, the §7 overhead, ablation and oscillation runs, the traced
//! and monitored runs, the chaos and campaign grids, Table 1 and the
//! sim-vs-real comparison are all the same thing: a group running one
//! protocol stack under a seeded workload, optionally watched by a
//! recorder, the standard streaming monitors, a load sampler and a
//! profiler. A [`Scenario`] states such a run as data;
//! [`Scenario::run`] plays it on the simulator and
//! [`Scenario::run_udp`] on UDP loopback, and both return one
//! [`RunOutcome`].
//!
//! The builder owns what every run shares: capturing each process's
//! [`SwitchHandle`], running the oracle at process 0 and [`NeverOracle`]
//! everywhere else, and wiring the recorder, monitors and sampler. The
//! outcome owns the two judgements several experiments make: whether a
//! switch wedged ([`RunOutcome::wedged`]) and the post-mortem of a failed
//! run ([`RunOutcome::postmortem`]).
//!
//! ```
//! use ps_core::{Proto, SwitchConfig, SwitchVariant};
//! use ps_harness::scenario::{Policy, Scenario};
//! use ps_simnet::SimTime;
//! use ps_workload::TrafficSpec;
//!
//! let end = SimTime::from_millis(400);
//! let traffic = TrafficSpec { group: 4, senders: 2, end, ..TrafficSpec::default() };
//! let switch = SwitchConfig {
//!     variant: SwitchVariant::TokenRing { idle_hold: SimTime::from_millis(2) },
//!     observe_interval: SimTime::from_millis(20),
//!     ..SwitchConfig::default()
//! };
//! let r = Scenario::new(4, 7)
//!     .hybrid(Proto::Seq(0), Proto::Token(SimTime::from_millis(1)), switch,
//!         Policy::Manual(vec![(SimTime::from_millis(200), 1)]))
//!     .traffic(traffic.generate())
//!     .watch(SimTime::from_secs(1))
//!     .run(SimTime::from_secs(1));
//! assert!(r.handles.iter().all(|h| h.current() == 1));
//! assert!(!r.wedged() && r.violations.is_empty());
//! ```

use crate::measure::{latency_samples, LatencyStats, SteadyStateWindow};
use crate::monitor_run::{SwapFaultLayer, FAULT_NODE};
use ps_bytes::Bytes;
use ps_core::{
    hybrid_layer, LoadOracle, ManualOracle, NeverOracle, Oracle, Proto, SwitchConfig, SwitchHandle,
    ThresholdOracle,
};
use ps_net::{NetConfig, UdpGroup};
use ps_obs::{
    MetricsSampler, MonitorSet, ObsEvent, PostmortemBundle, Recorder, TimedEvent, Violation,
    DEFAULT_K_HOPS,
};
use ps_simnet::{EthernetConfig, Lossy, Medium, SharedBus, SimTime};
use ps_stack::{Driver, GroupSim, GroupSimBuilder, GroupSpec, Layer, Stack};
use ps_trace::ProcessId;
use ps_workload::Schedule;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Events the recorder ring of a watched run keeps: every quick run,
/// and every chaos run, fits whole.
const RING_CAPACITY: usize = 1 << 18;
/// Width of one load-sampling window.
const SAMPLE_INTERVAL: SimTime = SimTime::from_millis(50);
/// [`Policy::Load`]'s watermarks, in permille of the busier of the bus
/// and the sequencer's CPU: above `HIGH` go to the token, below `LOW`
/// come back.
pub(crate) const HIGH_PERMILLE: u32 = 100;
const LOW_PERMILLE: u32 = 40;
/// Consecutive qualifying windows [`Policy::Load`] waits for.
const MIN_SAMPLES: u32 = 2;
/// [`Policy::Load`]'s refractory period after a completed switch.
const LOAD_COOLDOWN: SimTime = SimTime::from_millis(400);

/// How process 0 decides to switch; every other process runs
/// [`NeverOracle`] and follows.
#[derive(Debug, Clone)]
pub enum Policy {
    /// [`ManualOracle`]: the scripted `(instant, protocol)` requests.
    Manual(Vec<(SimTime, usize)>),
    /// [`ThresholdOracle`] on the locally counted active senders.
    Threshold {
        /// Crossover point in active senders.
        threshold: usize,
        /// Half-width of the no-action band.
        hysteresis: usize,
        /// Refractory period after a completed switch.
        cooldown: SimTime,
    },
    /// [`LoadOracle`] over the scenario's own load series; the scenario
    /// must be [sampled](Scenario::sample).
    Load,
}

impl Policy {
    fn oracle(&self, sampler: &MetricsSampler) -> Box<dyn Oracle> {
        match self {
            Policy::Manual(plan) => Box::new(ManualOracle::new(plan.clone())),
            Policy::Threshold { threshold, hysteresis, cooldown } => {
                Box::new(ThresholdOracle::new(*threshold, *hysteresis).with_cooldown(*cooldown))
            }
            Policy::Load => Box::new(
                LoadOracle::new(sampler.clone(), HIGH_PERMILLE, LOW_PERMILLE)
                    .with_min_samples(MIN_SAMPLES)
                    .with_cooldown(LOAD_COOLDOWN),
            ),
        }
    }
}

enum Stacks {
    Plain(Box<dyn Fn(ProcessId) -> Vec<Box<dyn Layer>>>),
    Hybrid { from: Proto, to: Proto, switch: SwitchConfig, policy: Policy },
}

/// A group run stated as data; see the module docs.
pub struct Scenario {
    group: u16,
    seed: u64,
    medium: Option<Box<dyn Medium>>,
    loss: f64,
    service: Option<SimTime>,
    stacks: Option<Stacks>,
    swap_fault: bool,
    sends: Vec<(SimTime, ProcessId, Bytes)>,
    liveness_bound: Option<SimTime>,
    sampled: bool,
    prof: ps_prof::Profiler,
    crashes: Vec<(u16, SimTime, SimTime)>,
}

impl Scenario {
    /// A group of `group` processes whose run is seeded by `seed`, on one
    /// shared 10 Mbit Ethernet bus until told otherwise.
    pub fn new(group: u16, seed: u64) -> Self {
        Self {
            group,
            seed,
            medium: None,
            loss: 0.0,
            service: None,
            stacks: None,
            swap_fault: false,
            sends: Vec::new(),
            liveness_bound: None,
            sampled: false,
            prof: ps_prof::Profiler::disabled(),
            crashes: Vec::new(),
        }
    }

    /// Runs over `medium` instead of the shared bus (simulator only).
    pub fn medium(mut self, medium: Box<dyn Medium>) -> Self {
        self.medium = Some(medium);
        self
    }

    /// Drops every frame copy on the medium with probability `p`
    /// (simulator only).
    pub fn loss(mut self, p: f64) -> Self {
        self.loss = p;
        self
    }

    /// Every node's CPU service time per event (simulator only).
    pub fn service_time(mut self, t: SimTime) -> Self {
        self.service = Some(t);
        self
    }

    /// Every process runs `proto`.
    pub fn stack(self, proto: Proto) -> Self {
        self.layers(move |_| proto.layers())
    }

    /// Every process runs the layers `f` gives it, top first.
    pub fn layers(mut self, f: impl Fn(ProcessId) -> Vec<Box<dyn Layer>> + 'static) -> Self {
        self.stacks = Some(Stacks::Plain(Box::new(f)));
        self
    }

    /// Every process runs a [`ps_core::SwitchLayer`] between `from`
    /// (protocol 0) and `to` (protocol 1), built by [`hybrid_layer`];
    /// process 0 decides by `policy`.
    pub fn hybrid(mut self, from: Proto, to: Proto, switch: SwitchConfig, policy: Policy) -> Self {
        self.stacks = Some(Stacks::Hybrid { from, to, switch, policy });
        self
    }

    /// With `on`, splices the broken ordering layer ([`SwapFaultLayer`])
    /// on top of [`FAULT_NODE`]'s stack.
    pub fn swap_fault(mut self, on: bool) -> Self {
        self.swap_fault = on;
        self
    }

    /// Schedules every send of `schedule`.
    pub fn traffic(mut self, schedule: Schedule) -> Self {
        self.sends.extend(schedule.into_sends());
        self
    }

    /// Schedules `sender` to multicast `body` at `at`.
    pub fn send_at(mut self, at: SimTime, sender: ProcessId, body: impl AsRef<[u8]>) -> Self {
        self.sends.push((at, sender, Bytes::copy_from_slice(body.as_ref())));
        self
    }

    /// Records the run and streams it through the standard monitors, with
    /// `liveness_bound` as the longest a switch may take.
    pub fn watch(mut self, liveness_bound: SimTime) -> Self {
        self.liveness_bound = Some(liveness_bound);
        self
    }

    /// Samples the load in 50 ms windows, with process 0 as the
    /// sequencer.
    pub fn sample(mut self) -> Self {
        self.sampled = true;
        self
    }

    /// Attributes the run's host time into `prof`, the harness's own
    /// setup / run / finish phases included (simulator only).
    pub fn prof(mut self, prof: ps_prof::Profiler) -> Self {
        self.prof = prof;
        self
    }

    /// Fail-stops `victim` at `at` and recovers it at `back` (simulator
    /// only).
    pub fn crash(mut self, victim: u16, at: SimTime, back: SimTime) -> Self {
        self.crashes.push((victim, at, back));
        self
    }

    /// Plays the scenario on the simulator until `until`.
    pub fn run(mut self, until: SimTime) -> RunOutcome {
        let prof = self.prof.clone();
        let setup = prof.span(&["harness", "setup"]);
        let mut medium = self
            .medium
            .take()
            .unwrap_or_else(|| Box::new(SharedBus::new(EthernetConfig::default())));
        if self.loss > 0.0 {
            medium = Box::new(Lossy::new(medium, self.loss));
        }
        let (service, crashes) = (self.service, std::mem::take(&mut self.crashes));
        let (spec, watch) = self.into_spec();
        let mut b = GroupSimBuilder::from_spec(spec).prof(prof.clone());
        if let Some(t) = service {
            b = b.service_time(t);
        }
        let mut sim = b.medium(medium).build();
        for (victim, at, back) in crashes {
            sim.schedule_crash(at, ProcessId(victim));
            sim.schedule_recover(back, ProcessId(victim));
        }
        drop(setup);
        {
            let _run = prof.span(&["harness", "run"]);
            sim.run_until(until);
        }
        let _finish = prof.span(&["harness", "finish"]);
        watch.outcome(sim)
    }

    /// Plays the same scenario over UDP loopback — one socket and one OS
    /// thread per process — until wall-clock offset `until`. The
    /// simulator-only settings are ignored; the processes keep running
    /// until the outcome is dropped.
    pub fn run_udp(self, until: SimTime) -> RunOutcome<UdpGroup> {
        let (spec, watch) = self.into_spec();
        let mut group = UdpGroup::launch(spec, NetConfig::default());
        group.run_until(until);
        watch.outcome(group)
    }

    /// The transport-independent half: the spec every driver takes, and
    /// what reads the outcome back.
    fn into_spec(self) -> (GroupSpec, Watch) {
        let capacity = if self.liveness_bound.is_some() { RING_CAPACITY } else { 0 };
        let recorder = Recorder::with_capacity(capacity);
        let monitors = self.liveness_bound.map(|bound| {
            let m = MonitorSet::standard(u32::from(self.group), bound.as_micros());
            m.attach(&recorder);
            m
        });
        let sampler = MetricsSampler::new(SAMPLE_INTERVAL.as_micros()).with_seq_node(0);
        let handles: Rc<RefCell<Vec<SwitchHandle>>> = Rc::default();
        let stacks = self.stacks.expect("a scenario needs a stack");
        let (captured, oracle_sampler, swap_fault) =
            (Rc::clone(&handles), sampler.clone(), self.swap_fault);
        let mut spec = GroupSpec::new(self.group)
            .seed(self.seed)
            .recorder(recorder)
            .stack_factory(move |p, _, ids| {
                let mut top: Vec<Box<dyn Layer>> = Vec::new();
                if swap_fault && p == ProcessId(FAULT_NODE) {
                    top.push(Box::new(SwapFaultLayer::new()));
                }
                match &stacks {
                    Stacks::Plain(layers) => top.extend(layers(p)),
                    Stacks::Hybrid { from, to, switch, policy } => {
                        let oracle = if p == ProcessId(0) {
                            policy.oracle(&oracle_sampler)
                        } else {
                            Box::new(NeverOracle)
                        };
                        let built = hybrid_layer(ids, switch.clone(), *from, *to, oracle);
                        captured.borrow_mut().push(built.1);
                        top.extend(built.0);
                    }
                }
                Stack::with_ids(top, ids)
            })
            .sends(self.sends);
        if self.sampled {
            spec = spec.sampler(sampler.clone());
        }
        (spec, Watch { monitors, sampler, handles })
    }
}

/// What reads a finished driver back into a [`RunOutcome`].
struct Watch {
    monitors: Option<MonitorSet>,
    sampler: MetricsSampler,
    handles: Rc<RefCell<Vec<SwitchHandle>>>,
}

impl Watch {
    fn outcome<D: Driver>(self, driver: D) -> RunOutcome<D> {
        let violations = self.monitors.as_ref().map(MonitorSet::finish).unwrap_or_default();
        let sent = self.monitors.as_ref().map_or(0, |m| m.sent_count());
        RunOutcome {
            handles: self.handles.borrow().clone(),
            violations,
            sent,
            events: driver.recorder().snapshot(),
            overwritten: driver.recorder().overwritten(),
            sampler: self.sampler,
            driver,
        }
    }
}

/// What one played [`Scenario`] leaves behind.
pub struct RunOutcome<D = GroupSim> {
    /// The finished driver: the simulated group, or the loopback one.
    pub driver: D,
    /// Every process's switch handle, in process order (empty without a
    /// hybrid).
    pub handles: Vec<SwitchHandle>,
    /// The monitors' violations, sorted by detection time (empty unless
    /// watched).
    pub violations: Vec<Violation>,
    /// Application messages the monitors saw sent.
    pub sent: usize,
    /// Every event the recorder ring kept, oldest first.
    pub events: Vec<TimedEvent>,
    /// Events evicted from the ring (the monitors saw them anyway).
    pub overwritten: u64,
    /// The load series (empty unless the scenario was sampled).
    pub sampler: MetricsSampler,
}

impl<D: Driver> RunOutcome<D> {
    /// Send→deliver latency over the sends inside `window`.
    pub fn latency(&self, window: SteadyStateWindow) -> LatencyStats {
        let (lat, incomplete) = latency_samples(&self.driver, window);
        LatencyStats::of(&lat, incomplete)
    }

    /// Whether any process ended mid-switch or disagreeing with process 0
    /// about the current protocol.
    pub fn wedged(&self) -> bool {
        let Some(first) = self.handles.first() else { return false };
        self.handles.iter().any(|h| h.switching() || h.current() != first.current())
    }

    /// The flight recorder's bundle for a failed run: the violations'
    /// witnesses — or, with no verdict to point at, each node's last
    /// switch phase, where it got stuck — plus their causal past and the
    /// overlapping load samples.
    pub fn postmortem(&self, reason: &str) -> PostmortemBundle {
        let mut witnesses: Vec<TimedEvent> =
            self.violations.iter().flat_map(|v| v.context.iter().copied()).collect();
        if witnesses.is_empty() {
            let mut last: BTreeMap<u32, TimedEvent> = BTreeMap::new();
            for e in &self.events {
                if matches!(e.ev, ObsEvent::SwitchPhase { .. }) {
                    last.insert(e.node, *e);
                }
            }
            witnesses.extend(last.into_values());
        }
        PostmortemBundle::capture(
            reason,
            &self.events,
            self.overwritten,
            &witnesses,
            DEFAULT_K_HOPS,
            &self.sampler.samples(),
            &self.violations,
        )
    }
}
