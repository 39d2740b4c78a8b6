use crate::driver::{AppLog, AppProcess, Driver, GroupSpec};
use crate::layer::{Cast, Frame, IdGen, LayerId};
use crate::stack::{Stack, StackEnv};
use ps_bytes::Bytes;
use ps_simnet::{
    Agent, Dest, Medium, NetStats, NodeId, Packet, PointToPoint, Sim, SimApi, SimConfig, SimTime,
    TimerToken,
};
use ps_trace::{Message, ProcessId};

/// Builds one process's protocol stack.
///
/// Called once per process with its id, the group membership, and the
/// process-wide [`IdGen`] (so nested stacks get globally unique layer ids).
/// Every process must run the same stack (§3), so factories typically
/// ignore the process id except to parameterize roles (e.g. the sequencer).
pub type StackFactory = Box<dyn Fn(ProcessId, &[ProcessId], &mut IdGen) -> Stack>;

/// Timer-token marker for application-workload sends.
const APP_MARKER: u32 = u32::MAX;

fn pack(id: LayerId, token: u32) -> TimerToken {
    TimerToken((u64::from(id.0) << 32) | u64::from(token))
}

fn unpack(t: TimerToken) -> (u32, u32) {
    ((t.0 >> 32) as u32, (t.0 & 0xffff_ffff) as u32)
}

/// One process of a group — its stack, and the transport-independent
/// half beside it — as an [`Agent`]: the simulator runs it, and a real
/// driver runs the same agent by handing it a [`SimApi`] per callback and
/// applying the [`Action`](ps_simnet::Action)s it stages.
pub struct ProcessAgent {
    stack: Stack,
    group: Vec<ProcessId>,
    app: AppProcess,
}

impl ProcessAgent {
    /// One agent per member of a group of `n`: its stack from `factory`
    /// (with a fresh [`IdGen`]), its [`AppProcess`], and its scheduled
    /// sends as timer tokens with their due instants, for the driver to
    /// fire through [`Agent::on_timer`].
    ///
    /// # Panics
    ///
    /// Panics if a scheduled sender is out of range.
    pub fn for_group(
        n: u16,
        sends: Vec<(SimTime, ProcessId, Bytes)>,
        factory: &StackFactory,
    ) -> Vec<(Self, Vec<(SimTime, TimerToken)>)> {
        let group: Vec<ProcessId> = (0..n).map(ProcessId).collect();
        let agents = AppProcess::split(n, sends).into_iter().map(|(app, due)| {
            let stack = factory(app.me(), &group, &mut IdGen::new());
            // A scheduled send fires as an app-marker timer whose token
            // is its index into the process's schedule.
            let app_send = |(idx, at)| (at, pack(LayerId(APP_MARKER), idx as u32));
            let tokens = due.into_iter().enumerate().map(app_send).collect();
            (ProcessAgent { stack, group: group.clone(), app }, tokens)
        });
        agents.collect()
    }

    /// The process's application half, whose log a driver reads out.
    pub fn app_mut(&mut self) -> &mut AppProcess {
        &mut self.app
    }
}

struct EnvAdapter<'a, 'b> {
    group: &'a [ProcessId],
    app: &'a mut AppProcess,
    api: &'a mut SimApi<'b>,
}

impl StackEnv for EnvAdapter<'_, '_> {
    fn me(&self) -> ProcessId {
        self.app.me()
    }
    fn group(&self) -> &[ProcessId] {
        self.group
    }
    fn now(&self) -> SimTime {
        self.api.now()
    }
    fn rng(&mut self) -> &mut ps_simnet::DetRng {
        self.api.rng()
    }
    fn transmit(&mut self, frame: Frame) {
        let dest = match frame.dest {
            Cast::All => Dest::All,
            Cast::Others => Dest::Others,
            Cast::To(p) => Dest::To(NodeId::from(p.0)),
        };
        self.api.send(dest, frame.bytes);
    }
    fn deliver(&mut self, _src: ProcessId, msg: Message) {
        self.app.deliver(self.api.now(), msg, self.api.obs(), self.api.cause());
    }
    fn set_timer(&mut self, delay: SimTime, id: LayerId, token: u32) {
        self.api.set_timer(delay, pack(id, token));
    }
    fn obs(&self) -> Option<&ps_obs::Writer<'_>> {
        self.api.obs()
    }
    fn cause(&self) -> ps_obs::CauseId {
        self.api.cause()
    }
    fn set_cause(&mut self, cause: ps_obs::CauseId) -> ps_obs::CauseId {
        self.api.set_cause(cause)
    }
    fn prof(&self) -> Option<&ps_prof::Profiler> {
        self.api.prof()
    }
}

impl Agent for ProcessAgent {
    fn on_start(&mut self, api: &mut SimApi<'_>) {
        let mut env = EnvAdapter { group: &self.group, app: &mut self.app, api };
        self.stack.launch(&mut env);
    }

    fn on_packet(&mut self, pkt: Packet, api: &mut SimApi<'_>) {
        let src = ProcessId(pkt.src.0 as u16);
        let mut env = EnvAdapter { group: &self.group, app: &mut self.app, api };
        self.stack.receive(src, pkt.payload, &mut env);
    }

    fn on_restart(&mut self, api: &mut SimApi<'_>) {
        let mut env = EnvAdapter { group: &self.group, app: &mut self.app, api };
        self.stack.restart(&mut env);
    }

    fn on_timer(&mut self, token: TimerToken, api: &mut SimApi<'_>) {
        let (layer, tok) = unpack(token);
        if layer == APP_MARKER {
            // Parent the send to the firing that triggered it, then make
            // it the causal context for the frames it produces.
            let (msg, cause) = self.app.send(tok as usize, api.now(), api.obs(), api.cause());
            api.set_cause(cause);
            let mut env = EnvAdapter { group: &self.group, app: &mut self.app, api };
            self.stack.send(&msg, &mut env);
        } else {
            let mut env = EnvAdapter { group: &self.group, app: &mut self.app, api };
            self.stack.timer(LayerId(layer), tok, &mut env);
        }
    }
}

/// Builder for a [`GroupSim`]: a [`GroupSpec`] plus what names the
/// simulated medium — the medium, the service time and the profiler.
///
/// # Examples
///
/// See the crate-level example.
pub struct GroupSimBuilder {
    spec: GroupSpec,
    medium: Option<Box<dyn Medium>>,
    service_time: Option<SimTime>,
    prof: Option<ps_prof::Profiler>,
}

impl std::fmt::Debug for GroupSimBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupSimBuilder").field("spec", &self.spec).finish()
    }
}

impl GroupSimBuilder {
    /// Starts a builder for a group of `n` processes ([`GroupSpec::new`]).
    pub fn new(n: u16) -> Self {
        Self::from_spec(GroupSpec::new(n))
    }

    /// Sets the random seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec = self.spec.seed(seed);
        self
    }

    /// Sets every node's per-event CPU service time.
    pub fn service_time(mut self, t: SimTime) -> Self {
        self.service_time = Some(t);
        self
    }

    /// Sets the network model (default: 100 µs point-to-point).
    pub fn medium(mut self, medium: Box<dyn Medium>) -> Self {
        self.medium = Some(medium);
        self
    }

    /// Attaches an event recorder ([`GroupSpec::recorder`]): engine,
    /// layer, and switch-phase events of every process are recorded in it.
    pub fn recorder(mut self, rec: ps_obs::Recorder) -> Self {
        self.spec = self.spec.recorder(rec);
        self
    }

    /// Attaches a load sampler driven off the sim clock ([`GroupSpec::sampler`]).
    pub fn sampler(mut self, sampler: ps_obs::MetricsSampler) -> Self {
        self.spec = self.spec.sampler(sampler);
        self
    }

    /// Attaches a host-time profiler ([`ps_prof::Profiler`]): engine,
    /// per-layer, and observability dispatch costs are attributed into it.
    pub fn prof(mut self, prof: ps_prof::Profiler) -> Self {
        self.prof = Some(prof);
        self
    }

    /// Sets the per-process stack factory.
    pub fn stack_factory<F>(mut self, f: F) -> Self
    where
        F: Fn(ProcessId, &[ProcessId], &mut IdGen) -> Stack + 'static,
    {
        self.spec = self.spec.stack_factory(f);
        self
    }

    /// Schedules `sender` to multicast a message with `body` at time `at`.
    pub fn send_at(mut self, at: SimTime, sender: ProcessId, body: impl AsRef<[u8]>) -> Self {
        self.spec = self.spec.send_at(at, sender, body);
        self
    }

    /// Schedules a batch of sends.
    pub fn sends(mut self, batch: impl IntoIterator<Item = (SimTime, ProcessId, Bytes)>) -> Self {
        self.spec = self.spec.sends(batch);
        self
    }

    /// Lifts a transport-independent [`GroupSpec`] into a simnet builder
    /// — the simulated half of the [`Driver`] split; the real-transport
    /// half is `ps_net::UdpGroup::launch` on the same spec.
    pub fn from_spec(spec: GroupSpec) -> Self {
        Self { spec, medium: None, service_time: None, prof: None }
    }

    /// Builds the simulation.
    ///
    /// # Panics
    ///
    /// Panics if no stack factory was provided, or a scheduled sender is
    /// out of range.
    pub fn build(self) -> GroupSim {
        let spec = self.spec;
        let factory = spec.factory.expect("GroupSimBuilder requires a stack_factory");
        let medium =
            self.medium.unwrap_or_else(|| Box::new(PointToPoint::new(SimTime::from_micros(100))));
        let mut config = SimConfig {
            seed: spec.seed,
            recorder: spec.recorder.unwrap_or_default(),
            sampler: spec.sampler,
            prof: self.prof.unwrap_or_default(),
            ..SimConfig::default()
        };
        if let Some(t) = self.service_time {
            config = config.service_time(t);
        }
        let (agents, dues): (Vec<ProcessAgent>, Vec<_>) =
            ProcessAgent::for_group(spec.n, spec.sends, &factory).into_iter().unzip();
        let mut sim = Sim::new(config, medium, agents);
        for (p, due) in dues.into_iter().enumerate() {
            for (at, token) in due {
                sim.schedule(at, NodeId(p as u32), token);
            }
        }
        let group = (0..spec.n).map(ProcessId).collect();
        GroupSim { sim, group }
    }
}

/// A running group: one identical protocol stack per process over a
/// simulated network, with application-level trace capture. Run and read
/// it through [`Driver`].
pub struct GroupSim {
    sim: Sim<ProcessAgent>,
    group: Vec<ProcessId>,
}

impl std::fmt::Debug for GroupSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupSim")
            .field("group", &self.group.len())
            .field("now", &self.sim.now())
            .finish()
    }
}

impl GroupSim {
    /// Schedules a fail-stop crash of `p` at time `at` (see
    /// [`ps_simnet::Sim::schedule_crash`]).
    pub fn schedule_crash(&mut self, at: SimTime, p: ProcessId) {
        self.sim.schedule_crash(at, NodeId::from(p.0));
    }

    /// Schedules recovery of `p` at time `at`; the process's stack gets
    /// a [`crate::Layer::on_restart`] traversal to re-arm its timers.
    pub fn schedule_recover(&mut self, at: SimTime, p: ProcessId) {
        self.sim.schedule_recover(at, NodeId::from(p.0));
    }

    /// Network counters.
    pub fn net_stats(&self) -> &NetStats {
        self.sim.stats()
    }
}

impl Driver for GroupSim {
    fn run_until(&mut self, deadline: SimTime) {
        self.sim.run_until(deadline);
    }
    fn now(&self) -> SimTime {
        self.sim.now()
    }
    fn group(&self) -> &[ProcessId] {
        &self.group
    }
    fn recorder(&self) -> &ps_obs::Recorder {
        self.sim.recorder()
    }
    fn process_log(&self, p: ProcessId) -> &AppLog {
        self.sim.agent(NodeId::from(p.0)).app.log()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_trace::props::{Property, Reliability};
    use ps_trace::MsgId;

    fn passthrough(n: u16) -> GroupSimBuilder {
        GroupSimBuilder::new(n)
            .seed(1)
            .medium(Box::new(PointToPoint::new(SimTime::from_micros(200))))
            .stack_factory(|_, _, _| Stack::new(vec![]))
    }

    #[test]
    fn single_send_reaches_everyone() {
        let mut sim = passthrough(3).send_at(SimTime::from_millis(1), ProcessId(0), b"hi").build();
        sim.run_until(SimTime::from_millis(20));
        let tr = sim.app_trace();
        assert_eq!(tr.sent_ids().len(), 1);
        let group: Vec<ProcessId> = (0..3).map(ProcessId).collect();
        assert!(Reliability::new(group).holds(&tr));
    }

    #[test]
    fn send_precedes_deliveries_in_trace() {
        let mut sim = passthrough(2).send_at(SimTime::from_millis(1), ProcessId(1), b"x").build();
        sim.run_until(SimTime::from_millis(20));
        let tr = sim.app_trace();
        assert!(tr.events()[0].is_send());
        assert_eq!(tr.len(), 3); // 1 send + 2 deliveries (incl. self)
    }

    #[test]
    fn latency_accounts_for_network_and_cpu() {
        let mut sim = passthrough(2).send_at(SimTime::from_millis(1), ProcessId(0), b"x").build();
        sim.run_until(SimTime::from_millis(50));
        let lat = sim.mean_delivery_latency().unwrap();
        // 200us propagation + service times; must be positive and sane.
        assert!(lat >= SimTime::from_micros(200), "latency {lat}");
        assert!(lat < SimTime::from_millis(5), "latency {lat}");
    }

    #[test]
    fn multiple_senders_multiple_messages() {
        let mut b = passthrough(4);
        for i in 0..10u64 {
            b = b.send_at(SimTime::from_millis(1 + i), ProcessId((i % 4) as u16), format!("m{i}"));
        }
        let mut sim = b.build();
        sim.run_until(SimTime::from_millis(100));
        let tr = sim.app_trace();
        assert_eq!(tr.sent_ids().len(), 10);
        // 10 sends × 4 receivers.
        assert_eq!(tr.iter().filter(|e| e.is_deliver()).count(), 40);
    }

    #[test]
    fn seq_numbers_are_per_sender() {
        let mut sim = passthrough(2)
            .send_at(SimTime::from_millis(1), ProcessId(0), b"a")
            .send_at(SimTime::from_millis(2), ProcessId(0), b"b")
            .send_at(SimTime::from_millis(3), ProcessId(1), b"c")
            .build();
        sim.run_until(SimTime::from_millis(50));
        let ids: Vec<MsgId> = sim.send_times().into_keys().collect();
        assert!(ids.contains(&MsgId::new(ProcessId(0), 1)));
        assert!(ids.contains(&MsgId::new(ProcessId(0), 2)));
        assert!(ids.contains(&MsgId::new(ProcessId(1), 1)));
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let mut sim = passthrough(3)
                .send_at(SimTime::from_millis(1), ProcessId(0), b"a")
                .send_at(SimTime::from_millis(1), ProcessId(1), b"b")
                .build();
            sim.run_until(SimTime::from_millis(30));
            format!("{}", sim.app_trace())
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "stack_factory")]
    fn build_without_factory_panics() {
        let _ = GroupSimBuilder::new(2).build();
    }

    #[test]
    fn recorder_captures_app_send_and_deliver() {
        use ps_obs::ObsEvent;

        let rec = ps_obs::Recorder::with_capacity(1024);
        let mut sim = passthrough(3)
            .send_at(SimTime::from_millis(1), ProcessId(1), b"hi")
            .recorder(rec.clone())
            .build();
        sim.run_until(SimTime::from_millis(20));
        let events = rec.snapshot();
        let sends: Vec<_> =
            events.iter().filter(|e| matches!(e.ev, ObsEvent::AppSend { .. })).collect();
        let delivers: Vec<_> =
            events.iter().filter(|e| matches!(e.ev, ObsEvent::AppDeliver { .. })).collect();
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].node, 1);
        assert_eq!(sends[0].ev, ObsEvent::AppSend { sender: 1, seq: 1 });
        // A passthrough stack delivers at all 3 processes (incl. self);
        // the recorded sender is the originator, not the delivering node.
        assert_eq!(delivers.len(), 3);
        assert!(delivers.iter().all(|e| e.ev == ObsEvent::AppDeliver { sender: 1, seq: 1 }));
        let nodes: Vec<u32> = delivers.iter().map(|e| e.node).collect();
        assert!(nodes.contains(&0) && nodes.contains(&1) && nodes.contains(&2));
    }

    #[test]
    fn online_monitors_stay_clean_on_a_passthrough_run() {
        let rec = ps_obs::Recorder::with_capacity(64); // tiny: monitors must not care
        let monitors = ps_obs::MonitorSet::standard(3, 1_000_000);
        monitors.attach(&rec);
        let mut b = passthrough(3).recorder(rec);
        for i in 0..8u64 {
            b = b.send_at(SimTime::from_millis(1 + i), ProcessId((i % 3) as u16), format!("m{i}"));
        }
        let mut sim = b.build();
        sim.run_until(SimTime::from_millis(100));
        assert_eq!(monitors.sent_count(), 8);
        let violations = monitors.finish();
        assert!(violations.is_empty(), "clean run must monitor clean: {violations:?}");
    }

    #[test]
    fn sampler_rides_the_group_sim_clock() {
        let sampler = ps_obs::MetricsSampler::new(5_000);
        let mut sim = passthrough(2)
            .send_at(SimTime::from_millis(1), ProcessId(0), b"x")
            .sampler(sampler.clone())
            .build();
        sim.run_until(SimTime::from_millis(20));
        assert_eq!(sampler.len(), 4, "one sample per 5ms window");
        assert_eq!(sampler.samples()[0].frames_sent, 1);
    }

    #[test]
    fn recorder_captures_one_closed_span_per_handler_call() {
        use ps_obs::{LayerDir, ObsEvent};

        struct Noop;
        impl crate::Layer for Noop {
            fn name(&self) -> &'static str {
                "noop"
            }
        }

        let rec = ps_obs::Recorder::with_capacity(4096);
        let mut sim = GroupSimBuilder::new(3)
            .seed(5)
            .medium(Box::new(PointToPoint::new(SimTime::from_micros(200))))
            .recorder(rec.clone())
            .stack_factory(|_, _, _| Stack::new(vec![Box::new(Noop)]))
            .send_at(SimTime::from_millis(1), ProcessId(0), b"hi")
            .build();
        sim.run_until(SimTime::from_millis(20));

        let events = rec.snapshot();
        let spans = |dir: LayerDir| {
            events
                .iter()
                .filter(|e| match e.ev {
                    // Simulated time stands still inside a handler.
                    ObsEvent::LayerSpan { layer, dir: d, dur_us } => {
                        assert_eq!((layer, dur_us), ("noop", 0), "{e:?}");
                        d == dir
                    }
                    _ => false,
                })
                .count()
        };
        // One record per handler call: one down traversal at the sender,
        // one up per receiver, one launch per process, and nothing else.
        assert_eq!(spans(LayerDir::Down), 1);
        assert_eq!(spans(LayerDir::Up), 3);
        assert_eq!(spans(LayerDir::Launch), 3);
        let layer_records = events.iter().filter(|e| matches!(e.ev, ObsEvent::LayerSpan { .. }));
        assert_eq!(layer_records.count(), 7);
        assert!(events.iter().any(|e| matches!(e.ev, ObsEvent::FrameSend { .. })));
    }
}
