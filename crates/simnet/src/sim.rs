use crate::agent::Action;
use crate::{
    Agent, Dest, DetRng, EventQueue, Medium, NetStats, NodeId, Packet, SimApi, SimTime, TimerToken,
    TxPlan,
};
use ps_obs::{CauseId, LoadSample, MetricsSampler, ObsEvent, Recorder, Writer};
use ps_prof::Profiler;

/// Per-node execution parameters.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// CPU time consumed by each handled event (packet or timer).
    ///
    /// This is what makes hot nodes into bottlenecks: a sequencer handling
    /// every message in the group saturates when the aggregate message rate
    /// reaches `1 / service_time`.
    pub service_time: SimTime,
}

impl Default for NodeConfig {
    fn default() -> Self {
        Self { service_time: SimTime::from_micros(150) }
    }
}

/// Whole-simulation parameters; construct with builder-style methods.
///
/// # Examples
///
/// ```
/// use ps_simnet::{SimConfig, SimTime};
///
/// let cfg = SimConfig::default()
///     .seed(42)
///     .service_time(SimTime::from_micros(200));
/// assert_eq!(cfg.seed, 42);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimConfig {
    /// Seed for the run's deterministic random stream.
    pub seed: u64,
    /// Parameters applied to every node.
    pub node: NodeConfig,
    /// Event recorder the simulation taps into (disabled by default).
    ///
    /// Clones share the ring, so keep a clone of the handle you pass in
    /// and snapshot it after the run. The enabled flag is sampled once at
    /// [`Sim::new`] — enable the recorder *before* building the sim.
    pub recorder: Recorder,
    /// Periodic load sampler driven off the sim clock (`None` = off).
    ///
    /// When set, the sim pushes one [`LoadSample`] per sampler interval of
    /// *virtual* time — keep a clone of the handle to read the series. The
    /// schedule depends only on virtual time, so the series is as
    /// deterministic as the run itself.
    pub sampler: Option<MetricsSampler>,
    /// Host-time profiler the engine opens spans on (disabled by default).
    ///
    /// Clones share the span tree, so keep a clone of the handle you pass
    /// in and read it after the run. Like the recorder, the enabled flag
    /// is sampled once at [`Sim::new`] — enable *before* building the sim.
    pub prof: Profiler,
}

impl SimConfig {
    /// Sets the random seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-event CPU service time for every node.
    pub fn service_time(mut self, t: SimTime) -> Self {
        self.node.service_time = t;
        self
    }

    /// Attaches an event recorder (see [`ps_obs::Recorder`]).
    pub fn recorder(mut self, rec: Recorder) -> Self {
        self.recorder = rec;
        self
    }

    /// Attaches a periodic load sampler (see [`ps_obs::MetricsSampler`]).
    pub fn sampler(mut self, sampler: MetricsSampler) -> Self {
        self.sampler = Some(sampler);
        self
    }

    /// Attaches a host-time profiler (see [`ps_prof::Profiler`]).
    pub fn prof(mut self, prof: Profiler) -> Self {
        self.prof = prof;
        self
    }
}

/// Incarnation stamp for timers armed from outside any node (driver
/// workload via [`Sim::schedule`]): valid in every incarnation, as long as
/// the node is alive when the timer fires.
const EXTERNAL_INC: u32 = u32::MAX;

#[derive(Debug)]
enum Ev {
    Packet {
        to: NodeId,
        pkt: Packet,
        /// Causal id of the `FrameSend` that launched this copy (updated
        /// to the `CpuEnqueue` id if the copy gets parked in the FIFO).
        cause: CauseId,
    },
    Timer {
        node: NodeId,
        token: TimerToken,
        /// Causal id of the event whose callback armed the timer (updated
        /// to the `CpuEnqueue` id if the firing gets parked).
        cause: CauseId,
        /// Incarnation of the node when the timer was armed; a timer whose
        /// incarnation no longer matches died with the crash that bumped
        /// it. [`EXTERNAL_INC`] marks driver-scheduled timers, which
        /// survive recoveries (but never fire while the node is down).
        inc: u32,
    },
    /// Marker at a node's `busy_until`: drains that node's deferred-event
    /// FIFO instead of bouncing each deferred event through the global
    /// queue again.
    Wakeup { node: NodeId },
    /// Node lifecycle: `up == false` is a fail-stop crash, `up == true` a
    /// recovery (state preserved, timers dead, `on_restart` runs).
    Fault { node: NodeId, up: bool },
}

/// The discrete-event simulation loop.
///
/// Owns the agents (one per node), the medium, the event queue, and the
/// clock. Events are processed in time order; each node has a CPU that
/// serves one event at a time, so a node flooded with packets processes
/// them with queueing delay.
///
/// The steady-state event loop is allocation-free (see DESIGN.md): agent
/// callbacks record actions into a reused scratch buffer, destination
/// expansion reuses a scratch `Vec<NodeId>`, the last delivery of each
/// transmit moves the payload instead of cloning it, and each node draws
/// from a random stream forked once at startup.
pub struct Sim<A> {
    config: SimConfig,
    agents: Vec<A>,
    /// Per-node instant the CPU becomes free.
    busy_until: Vec<SimTime>,
    /// Per-node FIFO of events that arrived while the CPU was busy; a
    /// single [`Ev::Wakeup`] marker per node stands in for them in `queue`.
    pending: Vec<std::collections::VecDeque<Ev>>,
    /// Whether `queue` currently holds a wakeup marker for the node.
    wakeup_armed: Vec<bool>,
    medium: Box<dyn Medium>,
    queue: EventQueue<Ev>,
    now: SimTime,
    /// Medium stream (propagation jitter, loss draws).
    rng: DetRng,
    /// Per-node agent streams, forked from the seed once at startup.
    node_rngs: Vec<DetRng>,
    /// Reused buffer handed to [`SimApi`] for each callback.
    action_scratch: Vec<Action>,
    /// Reused buffer for destination expansion.
    dest_scratch: Vec<NodeId>,
    stats: NetStats,
    started: bool,
    /// Per-node liveness; dead nodes drop arriving frames and timers.
    alive: Vec<bool>,
    /// Per-node incarnation counter, bumped at each crash — the stamp that
    /// invalidates timers armed before the crash.
    incarnation: Vec<u32>,
    /// `config.recorder.is_enabled()`, sampled once at construction so the
    /// hot path branches on a plain bool instead of touching an atomic.
    obs_on: bool,
    /// `config.prof.is_enabled()`, sampled once at construction — same
    /// bool-cached guard as `obs_on`, for the profiler span sites.
    prof_on: bool,
    /// Frame copies scheduled for delivery but not yet begun processing.
    in_flight: u64,
    /// Reused transmit plan — the medium writes into it in place, so the
    /// steady-state send path performs no allocation.
    plan_scratch: TxPlan,
    /// Per-node cumulative CPU busy time (service time summed per event).
    cpu_busy_us: Vec<u64>,
    /// Per-node `cpu_busy_us` as of the last emitted sample (window base).
    cpu_busy_prev: Vec<u64>,
    /// Virtual time of the next load sample (meaningful only with a
    /// sampler configured).
    next_sample_at: SimTime,
    /// Window baselines for the cumulative counters sampled as deltas.
    win_medium_busy: u64,
    win_frames: u64,
    win_copies: u64,
}

impl<A> std::fmt::Debug for Sim<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let deferred: usize = self.pending.iter().map(|p| p.len()).sum();
        f.debug_struct("Sim")
            .field("nodes", &self.agents.len())
            .field("now", &self.now)
            .field("pending_events", &(self.queue.len() + deferred))
            .field("medium", &self.medium.name())
            .finish()
    }
}

impl<A: Agent> Sim<A> {
    /// Creates a simulation of `agents.len()` nodes over `medium`.
    ///
    /// # Panics
    ///
    /// Panics if `agents` is empty or has more than `u32::MAX` nodes.
    pub fn new(config: SimConfig, medium: Box<dyn Medium>, agents: Vec<A>) -> Self {
        assert!(!agents.is_empty(), "a simulation needs at least one node");
        let n = agents.len();
        assert!(u32::try_from(n).is_ok(), "too many nodes");
        // A profiled sim attributes recorder work too: `obs/record` per
        // live record, `obs/sinks/monitors` per event fed to the monitors.
        config.recorder.set_prof(&config.prof);
        let rng = DetRng::new(config.seed);
        // One independent stream per node, forked up front: the fork cost is
        // paid once, and a node's draws depend only on the seed and its id —
        // never on how events interleave with other nodes. (`+` rather than
        // `|`: identical for ids below 2^16, collision-free above.)
        let node_rngs = (0..n).map(|i| rng.fork(0x4e4f_4445_0000 + i as u64)).collect();
        let obs_on = config.recorder.is_enabled();
        let prof_on = config.prof.is_enabled();
        let next_sample_at = config
            .sampler
            .as_ref()
            .map_or(SimTime::ZERO, |s| SimTime::from_micros(s.interval_us()));
        Self {
            config,
            agents,
            busy_until: vec![SimTime::ZERO; n],
            pending: (0..n).map(|_| std::collections::VecDeque::new()).collect(),
            wakeup_armed: vec![false; n],
            medium,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            rng,
            node_rngs,
            action_scratch: Vec::new(),
            dest_scratch: Vec::with_capacity(n),
            stats: NetStats::default(),
            started: false,
            alive: vec![true; n],
            incarnation: vec![0; n],
            obs_on,
            prof_on,
            in_flight: 0,
            plan_scratch: TxPlan::default(),
            cpu_busy_us: vec![0; n],
            cpu_busy_prev: vec![0; n],
            next_sample_at,
            win_medium_busy: 0,
            win_frames: 0,
            win_copies: 0,
        }
    }

    /// Panics with `"{what} {node} out of range"` unless `node` is one of
    /// this sim's nodes — the call-time check of every `schedule*`.
    fn assert_in_range(&self, node: NodeId, what: &str) {
        assert!(node.index() < self.agents.len(), "{what} {node} out of range");
    }

    /// The attached event recorder (disabled unless one was configured).
    pub fn recorder(&self) -> &Recorder {
        &self.config.recorder
    }

    /// `Some(recorder clone)` when taps are live — the handle a run loop
    /// opens its one recording session on, and the guard every tap site
    /// branches on. The session borrows this local handle, not `self`,
    /// which an engine event goes on to mutate; one clone serves the whole
    /// loop. With taps off nothing is cloned and no session is opened.
    #[inline]
    fn obs(&self) -> Option<Recorder> {
        if self.obs_on {
            Some(self.config.recorder.clone())
        } else {
            None
        }
    }

    /// `Some(profiler clone)` when profiling is live. A span guard borrows
    /// the profiler for its lifetime, which would conflict with the `&mut
    /// self` the engine needs inside the span — so span sites clone the
    /// (Arc-backed) handle into a local first. The clone is only paid when
    /// profiling is on; the disabled path is one predictable branch.
    #[inline]
    fn prof(&self) -> Option<Profiler> {
        if self.prof_on {
            Some(self.config.prof.clone())
        } else {
            None
        }
    }

    /// Number of nodes in the simulation.
    pub fn num_nodes(&self) -> usize {
        self.agents.len()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Network counters accumulated so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Immutable access to a node's agent (for assertions and measurement).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn agent(&self, id: NodeId) -> &A {
        &self.agents[id.index()]
    }

    /// Iterates over all agents in node order.
    pub fn agents(&self) -> impl Iterator<Item = &A> {
        self.agents.iter()
    }

    /// Schedules an external timer event for `node` at absolute time `at`.
    ///
    /// Drivers use this to inject workload or trigger an oracle decision at
    /// a chosen instant.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn schedule(&mut self, at: SimTime, node: NodeId, token: TimerToken) {
        self.assert_in_range(node, "timer target");
        self.queue.push(
            at.max(self.now),
            Ev::Timer { node, token, inc: EXTERNAL_INC, cause: CauseId::NONE },
        );
    }

    /// Schedules a fail-stop crash of `node` at absolute time `at`.
    ///
    /// At that instant the node's CPU queue is cleared, every timer it has
    /// armed is invalidated (they die with the incarnation), and frames
    /// still in flight toward it are dropped on arrival. Agent state is
    /// *not* reset: the model is a process freeze with stable storage, so
    /// sequence counters and dedup sets survive into the next incarnation.
    pub fn schedule_crash(&mut self, at: SimTime, node: NodeId) {
        self.assert_in_range(node, "crash target");
        self.queue.push(at.max(self.now), Ev::Fault { node, up: false });
    }

    /// Schedules recovery of `node` at absolute time `at`: the node comes
    /// back alive and its agent's [`Agent::on_restart`] runs to re-arm
    /// timers and resume in-progress work. No-op if the node is already up.
    pub fn schedule_recover(&mut self, at: SimTime, node: NodeId) {
        self.assert_in_range(node, "recover target");
        self.queue.push(at.max(self.now), Ev::Fault { node, up: true });
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let rec = self.obs();
        let session = rec.as_ref().and_then(Recorder::writer);
        let obs = session.as_ref();
        for i in 0..self.agents.len() {
            let node = NodeId(i as u32);
            let scratch = std::mem::take(&mut self.action_scratch);
            let prof = if self.prof_on { Some(&self.config.prof) } else { None };
            let mut api = SimApi::new(
                node,
                SimTime::ZERO,
                self.agents.len(),
                &mut self.node_rngs[i],
                scratch,
                obs,
                prof,
                CauseId::NONE,
            );
            self.agents[i].on_start(&mut api);
            let mut actions = api.into_actions();
            let at = SimTime::ZERO + self.config.node.service_time;
            self.apply_actions(node, at, &mut actions, obs);
            self.action_scratch = actions;
        }
    }

    /// Expands a [`Dest`] into explicit node ids.
    fn fill_dests(total: u32, src: NodeId, dest: Dest, out: &mut Vec<NodeId>) {
        out.clear();
        match dest {
            Dest::All => out.extend((0..total).map(NodeId)),
            Dest::Others => out.extend((0..total).map(NodeId).filter(|&d| d != src)),
            Dest::To(d) => {
                assert!(d.0 < total, "destination {d} out of range");
                out.push(d);
            }
        }
    }

    /// Drains `actions` (leaving its capacity for reuse), turning sends
    /// into scheduled deliveries and timers into queue entries.
    fn apply_actions(
        &mut self,
        node: NodeId,
        effective_at: SimTime,
        actions: &mut Vec<Action>,
        obs: Option<&Writer<'_>>,
    ) {
        let prof = self.prof();
        let mut dests = std::mem::take(&mut self.dest_scratch);
        let mut plan = std::mem::take(&mut self.plan_scratch);
        for action in actions.drain(..) {
            match action {
                Action::Send { dest, payload, cause } => {
                    Self::fill_dests(self.agents.len() as u32, node, dest, &mut dests);
                    self.stats.frames_sent += 1;
                    self.stats.bytes_sent += payload.len() as u64;
                    {
                        let _sp = prof.as_ref().map(|p| p.span(&["engine", "transmit"]));
                        self.medium.transmit_into(
                            node,
                            &dests,
                            payload.len(),
                            effective_at,
                            &mut self.rng,
                            &mut plan,
                        );
                    }
                    self.stats.copies_dropped += u64::from(plan.dropped);
                    self.stats.medium_busy_us += plan.busy_us;
                    let mut send_id = CauseId::NONE;
                    if let Some(o) = obs {
                        let at = effective_at.as_micros();
                        send_id = o.record_caused(
                            at,
                            node.0,
                            cause,
                            ObsEvent::FrameSend {
                                bytes: payload.len() as u32,
                                copies: plan.deliveries.len() as u32,
                            },
                        );
                        if plan.dropped > 0 {
                            o.record_caused(
                                at,
                                node.0,
                                send_id,
                                ObsEvent::FrameDrop { copies: plan.dropped },
                            );
                        }
                    }
                    // Clone the (refcounted) payload for all deliveries but
                    // the last, which takes the original.
                    let last = plan.deliveries.len();
                    let mut payload = Some(payload);
                    for (idx, (to, at)) in plan.deliveries.drain(..).enumerate() {
                        self.stats.copies_delivered += 1;
                        self.in_flight += 1;
                        let copy = if idx + 1 == last {
                            payload.take().expect("payload taken only by the last delivery")
                        } else {
                            payload.as_ref().expect("payload present before last").clone()
                        };
                        let pkt = Packet { src: node, payload: copy };
                        let _sp = prof.as_ref().map(|p| p.span(&["engine", "wheel", "push"]));
                        self.queue.push(at, Ev::Packet { to, pkt, cause: send_id });
                    }
                }
                Action::Timer { delay, token, cause } => {
                    let inc = self.incarnation[node.index()];
                    let _sp = prof.as_ref().map(|p| p.span(&["engine", "wheel", "push"]));
                    self.queue.push(effective_at + delay, Ev::Timer { node, token, inc, cause });
                }
            }
        }
        self.dest_scratch = dests;
        self.plan_scratch = plan;
    }

    /// Runs one agent callback at `start` (the node's CPU is known free),
    /// applies its actions, and re-arms the node's wakeup if more deferred
    /// events are waiting.
    fn dispatch(&mut self, node: NodeId, start: SimTime, ev: Ev, obs: Option<&Writer<'_>>) {
        let prof = self.prof();
        let _sp = prof.as_ref().map(|p| p.span(&["engine", "dispatch"]));
        let i = node.index();
        self.now = self.now.max(start);
        let done = start + self.config.node.service_time;
        self.busy_until[i] = done;
        self.stats.events_processed += 1;
        self.cpu_busy_us[i] += self.config.node.service_time.as_micros();

        let scratch = std::mem::take(&mut self.action_scratch);
        // The run loop's one recording session: the head record, everything
        // the callback records and the frames its actions send all go
        // through the hold of the ring the loop took. The head event is
        // recorded *before* the callback runs so its id becomes the causal
        // context everything in the callback links to.
        let head_id = match (&ev, obs) {
            (Ev::Packet { pkt, cause, .. }, Some(o)) => o.record_caused(
                start.as_micros(),
                node.0,
                *cause,
                ObsEvent::FrameDeliver { src: pkt.src.0, bytes: pkt.payload.len() as u32 },
            ),
            (Ev::Timer { token, cause, .. }, Some(o)) => o.record_caused(
                start.as_micros(),
                node.0,
                *cause,
                ObsEvent::TimerFire { token: token.0 },
            ),
            _ => CauseId::NONE,
        };
        let prof_api = if self.prof_on { Some(&self.config.prof) } else { None };
        let mut api = SimApi::new(
            node,
            start,
            self.agents.len(),
            &mut self.node_rngs[i],
            scratch,
            obs,
            prof_api,
            head_id,
        );
        match ev {
            Ev::Packet { pkt, .. } => self.agents[i].on_packet(pkt, &mut api),
            Ev::Timer { token, .. } => {
                self.stats.timers_fired += 1;
                self.agents[i].on_timer(token, &mut api)
            }
            Ev::Wakeup { .. } | Ev::Fault { .. } => {
                unreachable!("wakeup markers and faults never reach dispatch")
            }
        }
        let mut actions = api.into_actions();
        self.apply_actions(node, done, &mut actions, obs);
        self.action_scratch = actions;

        if !self.pending[i].is_empty() && !self.wakeup_armed[i] {
            self.queue.push(done, Ev::Wakeup { node });
            self.wakeup_armed[i] = true;
        }
    }

    /// Emits load samples for every whole sampling interval up to `t`.
    ///
    /// Driven purely by virtual time: the sample schedule (and therefore
    /// the series) is identical for identical runs.
    #[inline]
    fn flush_samples_to(&mut self, t: SimTime) {
        if self.config.sampler.is_none() {
            return;
        }
        while self.next_sample_at <= t {
            self.emit_sample();
        }
    }

    /// Closes the window ending at `next_sample_at` into one
    /// [`LoadSample`] for the configured sampler, and opens the next.
    fn emit_sample(&mut self) {
        let prof = self.prof();
        let _sp = prof.as_ref().map(|p| p.span(&["engine", "sample"]));
        let sampler = self.config.sampler.as_ref().expect("caller checked");
        let (window_us, seq_node) = (sampler.interval_us(), sampler.seq_node());
        let mut max_cpu = 0u64;
        let mut seq_cpu = 0u64;
        for (i, (cur, prev)) in
            self.cpu_busy_us.iter().zip(self.cpu_busy_prev.iter_mut()).enumerate()
        {
            let delta = cur - *prev;
            *prev = *cur;
            max_cpu = max_cpu.max(delta);
            if seq_node == Some(i as u32) {
                seq_cpu = delta;
            }
        }
        let mut max_q = 0u32;
        let mut total_q = 0u32;
        for p in &self.pending {
            let depth = p.len() as u32;
            max_q = max_q.max(depth);
            total_q += depth;
        }
        // Busy time is attributed at transmit time, so a burst can charge
        // more busy-µs to one window than the window holds; clamp.
        let permille =
            |busy_us: u64| u32::try_from((busy_us * 1000 / window_us).min(1000)).expect("<= 1000");
        sampler.push(LoadSample {
            at_us: self.next_sample_at.as_micros(),
            frames_sent: self.stats.frames_sent - self.win_frames,
            copies_delivered: self.stats.copies_delivered - self.win_copies,
            bus_util_permille: permille(self.stats.medium_busy_us - self.win_medium_busy),
            max_cpu_permille: permille(max_cpu),
            seq_cpu_permille: permille(seq_cpu),
            max_queue_depth: max_q,
            total_queue_depth: total_q,
            in_flight: u32::try_from(self.in_flight).unwrap_or(u32::MAX),
        });
        self.win_frames = self.stats.frames_sent;
        self.win_copies = self.stats.copies_delivered;
        self.win_medium_busy = self.stats.medium_busy_us;
        self.next_sample_at = self.next_sample_at + SimTime::from_micros(window_us);
    }

    /// Applies a scheduled crash or recovery at time `at`.
    fn apply_fault(&mut self, node: NodeId, up: bool, at: SimTime, obs: Option<&Writer<'_>>) {
        let i = node.index();
        self.now = self.now.max(at);
        if up {
            if self.alive[i] {
                return;
            }
            self.alive[i] = true;
            let mut recover_id = CauseId::NONE;
            if let Some(o) = obs {
                recover_id = o.record(
                    at.as_micros(),
                    node.0,
                    ObsEvent::NodeRecover { incarnation: self.incarnation[i] },
                );
            }
            // Restart costs one service time, like any other callback.
            let done = at + self.config.node.service_time;
            self.busy_until[i] = done;
            self.cpu_busy_us[i] += self.config.node.service_time.as_micros();
            let scratch = std::mem::take(&mut self.action_scratch);
            let prof = if self.prof_on { Some(&self.config.prof) } else { None };
            let mut api = SimApi::new(
                node,
                at,
                self.agents.len(),
                &mut self.node_rngs[i],
                scratch,
                obs,
                prof,
                recover_id,
            );
            self.agents[i].on_restart(&mut api);
            let mut actions = api.into_actions();
            self.apply_actions(node, done, &mut actions, obs);
            self.action_scratch = actions;
        } else {
            if !self.alive[i] {
                return;
            }
            self.alive[i] = false;
            self.incarnation[i] += 1;
            // Whatever was parked behind the busy CPU dies with the node;
            // a stale wakeup marker is harmless (it finds an empty FIFO).
            self.pending[i].clear();
            self.busy_until[i] = at;
            if let Some(o) = obs {
                o.record(
                    at.as_micros(),
                    node.0,
                    ObsEvent::NodeCrash { incarnation: self.incarnation[i] - 1 },
                );
            }
        }
    }

    /// Processes the next event, if any. Returns `false` when the queue is
    /// exhausted.
    pub fn step(&mut self) -> bool {
        self.ensure_started();
        let rec = self.obs();
        let session = rec.as_ref().and_then(Recorder::writer);
        self.step_with(session.as_ref())
    }

    /// [`Sim::step`] inside the recording session of the loop that drives
    /// it (`None`: taps off).
    fn step_with(&mut self, obs: Option<&Writer<'_>>) -> bool {
        let popped = {
            let prof = self.prof();
            let _sp = prof.as_ref().map(|p| p.span(&["engine", "wheel", "pop"]));
            self.queue.pop()
        };
        let Some((at, mut ev)) = popped else { return false };
        // Samples due strictly before (or at) this event's time are
        // emitted first, while the popped packet still counts as in
        // flight at the sample instant.
        self.flush_samples_to(at);
        if let Ev::Packet { .. } = ev {
            self.in_flight -= 1;
        }
        if let Ev::Fault { node, up } = ev {
            self.apply_fault(node, up, at, obs);
            return true;
        }
        let node = match &ev {
            Ev::Packet { to, .. } => *to,
            Ev::Timer { node, .. } | Ev::Wakeup { node } => *node,
            Ev::Fault { .. } => unreachable!("handled above"),
        };
        let i = node.index();
        // Dead-node drop rules: frames addressed to a dead node are lost at
        // its NIC; timers never fire while the node is down, and timers
        // armed in an earlier incarnation died with the crash.
        match &ev {
            Ev::Packet { cause, .. } if !self.alive[i] => {
                self.stats.copies_dropped += 1;
                if let Some(o) = obs {
                    o.record_caused(
                        at.as_micros(),
                        node.0,
                        *cause,
                        ObsEvent::FrameDrop { copies: 1 },
                    );
                }
                return true;
            }
            Ev::Timer { inc, .. }
                if !self.alive[i] || (*inc != EXTERNAL_INC && *inc != self.incarnation[i]) =>
            {
                return true;
            }
            _ => {}
        }
        if let Ev::Wakeup { .. } = ev {
            self.wakeup_armed[i] = false;
            if self.busy_until[i] <= at {
                // CPU is free: run the longest-waiting deferred event now.
                if let Some(mut first) = self.pending[i].pop_front() {
                    if let Some(o) = obs {
                        let parked = match &first {
                            Ev::Packet { cause, .. } | Ev::Timer { cause, .. } => *cause,
                            _ => CauseId::NONE,
                        };
                        let deq_id = o.record_caused(
                            at.as_micros(),
                            node.0,
                            parked,
                            ObsEvent::CpuDequeue { depth: self.pending[i].len() as u32 },
                        );
                        // The head event (deliver / fire) recorded by
                        // dispatch links to the dequeue, which links to the
                        // enqueue, which links to the original cause.
                        match &mut first {
                            Ev::Packet { cause, .. } | Ev::Timer { cause, .. } => *cause = deq_id,
                            _ => {}
                        }
                    }
                    self.dispatch(node, at, first, obs);
                }
            } else if !self.pending[i].is_empty() {
                // The node picked up other work at this same instant before
                // the marker popped; chase the new free point.
                self.queue.push(self.busy_until[i], Ev::Wakeup { node });
                self.wakeup_armed[i] = true;
            }
            return true;
        }
        // CPU model: if the node is still busy, park the event in the
        // node's FIFO (stats untouched — it has not run yet) and make sure
        // one wakeup marker is queued for the instant the CPU frees up.
        if self.busy_until[i] > at {
            if let Some(o) = obs {
                let parked = match &ev {
                    Ev::Packet { cause, .. } | Ev::Timer { cause, .. } => *cause,
                    _ => CauseId::NONE,
                };
                let enq_id = o.record_caused(
                    at.as_micros(),
                    node.0,
                    parked,
                    ObsEvent::CpuEnqueue { depth: self.pending[i].len() as u32 + 1 },
                );
                match &mut ev {
                    Ev::Packet { cause, .. } | Ev::Timer { cause, .. } => *cause = enq_id,
                    _ => {}
                }
            }
            self.pending[i].push_back(ev);
            if !self.wakeup_armed[i] {
                self.queue.push(self.busy_until[i], Ev::Wakeup { node });
                self.wakeup_armed[i] = true;
            }
            return true;
        }
        self.dispatch(node, at, ev, obs);
        true
    }

    /// Runs until virtual time `deadline` (events at exactly `deadline`
    /// are processed) or until no events remain.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.ensure_started();
        let rec = self.obs();
        let session = rec.as_ref().and_then(Recorder::writer);
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.step_with(session.as_ref());
        }
        // Emit the idle tail of the series: windows between the last event
        // and the deadline still produce (quiet) samples.
        self.flush_samples_to(deadline);
        self.now = self.now.max(deadline);
        if self.prof_on {
            self.config.prof.note_sim_us(self.now.as_micros());
        }
    }

    /// Runs until the event queue drains completely.
    ///
    /// Only terminates for workloads that quiesce (no self-rearming
    /// timers); prefer [`Sim::run_until`] for open-ended protocols.
    pub fn run_to_quiescence(&mut self) {
        self.ensure_started();
        let rec = self.obs();
        let session = rec.as_ref().and_then(Recorder::writer);
        while self.step_with(session.as_ref()) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PointToPoint;
    use ps_bytes::Bytes;

    /// Records every packet and timer it sees.
    #[derive(Default)]
    struct Recorder {
        packets: Vec<(SimTime, NodeId)>,
        timers: Vec<(SimTime, TimerToken)>,
    }

    impl Agent for Recorder {
        fn on_start(&mut self, api: &mut SimApi<'_>) {
            if api.me() == NodeId(0) {
                api.send(Dest::Others, Bytes::from_static(b"hello"));
                api.set_timer(SimTime::from_millis(1), TimerToken(42));
            }
        }
        fn on_packet(&mut self, pkt: Packet, api: &mut SimApi<'_>) {
            self.packets.push((api.now(), pkt.src));
        }
        fn on_timer(&mut self, token: TimerToken, api: &mut SimApi<'_>) {
            self.timers.push((api.now(), token));
        }
    }

    fn sim(n: usize) -> Sim<Recorder> {
        Sim::new(
            SimConfig::default().seed(1).service_time(SimTime::from_micros(100)),
            Box::new(PointToPoint::new(SimTime::from_micros(500))),
            (0..n).map(|_| Recorder::default()).collect(),
        )
    }

    #[test]
    fn broadcast_reaches_others_not_self() {
        let mut s = sim(4);
        s.run_to_quiescence();
        assert!(s.agent(NodeId(0)).packets.is_empty());
        for i in 1..4 {
            assert_eq!(s.agent(NodeId(i)).packets.len(), 1);
            assert_eq!(s.agent(NodeId(i)).packets[0].1, NodeId(0));
        }
    }

    #[test]
    fn packet_latency_includes_service_and_propagation() {
        let mut s = sim(2);
        s.run_to_quiescence();
        // on_start completes at 100us (service), +500us propagation = 600us arrival.
        let (at, _) = s.agent(NodeId(1)).packets[0];
        assert_eq!(at, SimTime::from_micros(600));
    }

    #[test]
    fn timer_fires_after_service_plus_delay() {
        let mut s = sim(1);
        s.run_to_quiescence();
        let (at, token) = s.agent(NodeId(0)).timers[0];
        assert_eq!(token, TimerToken(42));
        assert_eq!(at, SimTime::from_micros(100) + SimTime::from_millis(1));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut s = sim(2);
        s.run_until(SimTime::from_micros(300));
        // Packet arrives at 600us — not yet processed.
        assert!(s.agent(NodeId(1)).packets.is_empty());
        assert_eq!(s.now(), SimTime::from_micros(300));
        s.run_until(SimTime::from_millis(10));
        assert_eq!(s.agent(NodeId(1)).packets.len(), 1);
    }

    #[test]
    fn external_schedule_reaches_agent() {
        let mut s = sim(3);
        s.schedule(SimTime::from_millis(5), NodeId(2), TimerToken(9));
        s.run_until(SimTime::from_millis(10));
        assert!(s.agent(NodeId(2)).timers.iter().any(|&(_, t)| t == TimerToken(9)));
    }

    #[test]
    fn cpu_busy_defers_second_packet() {
        // Two packets arrive at node 0 at the same instant: the second is
        // processed one service time after the first.
        struct Sender;
        impl Agent for Sender {
            fn on_start(&mut self, api: &mut SimApi<'_>) {
                if api.me() != NodeId(0) {
                    api.send(Dest::To(NodeId(0)), Bytes::from_static(b"x"));
                }
            }
            fn on_packet(&mut self, _: Packet, _: &mut SimApi<'_>) {}
            fn on_timer(&mut self, _: TimerToken, _: &mut SimApi<'_>) {}
        }
        struct Sink(Vec<SimTime>);
        // Use the same agent type for all nodes; distinguish by behavior.
        enum Node {
            Sender(Sender),
            Sink(Sink),
        }
        impl Agent for Node {
            fn on_start(&mut self, api: &mut SimApi<'_>) {
                if let Node::Sender(s) = self {
                    s.on_start(api);
                }
            }
            fn on_packet(&mut self, pkt: Packet, api: &mut SimApi<'_>) {
                match self {
                    Node::Sender(s) => s.on_packet(pkt, api),
                    Node::Sink(s) => s.0.push(api.now()),
                }
            }
            fn on_timer(&mut self, _: TimerToken, _: &mut SimApi<'_>) {}
        }

        let mut s = Sim::new(
            SimConfig::default().seed(2).service_time(SimTime::from_micros(100)),
            Box::new(PointToPoint::new(SimTime::from_micros(500))),
            vec![Node::Sink(Sink(Vec::new())), Node::Sender(Sender), Node::Sender(Sender)],
        );
        s.run_to_quiescence();
        let Node::Sink(sink) = s.agent(NodeId(0)) else { panic!("node 0 is the sink") };
        assert_eq!(sink.0.len(), 2);
        // Both arrive at 600us; second starts at 700us (after first's service).
        assert_eq!(sink.0[0], SimTime::from_micros(600));
        assert_eq!(sink.0[1], SimTime::from_micros(700));
    }

    #[test]
    fn stats_count_frames_and_copies() {
        let mut s = sim(4);
        s.run_to_quiescence();
        assert_eq!(s.stats().frames_sent, 1);
        assert_eq!(s.stats().copies_delivered, 3);
        assert_eq!(s.stats().copies_dropped, 0);
        assert_eq!(s.stats().timers_fired, 1);
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let run = |seed: u64| {
            let mut s = Sim::new(
                SimConfig::default().seed(seed),
                Box::new(
                    PointToPoint::new(SimTime::from_micros(500))
                        .with_jitter(SimTime::from_micros(200)),
                ),
                (0..5).map(|_| Recorder::default()).collect::<Vec<_>>(),
            );
            s.run_to_quiescence();
            s.agents()
                .flat_map(|a| a.packets.iter().map(|&(t, _)| t.as_micros()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn recorder_taps_capture_engine_events() {
        let rec = ps_obs::Recorder::with_capacity(1024);
        let mut s = Sim::new(
            SimConfig::default()
                .seed(1)
                .service_time(SimTime::from_micros(100))
                .recorder(rec.clone()),
            Box::new(PointToPoint::new(SimTime::from_micros(500))),
            (0..4).map(|_| Recorder::default()).collect::<Vec<_>>(),
        );
        s.run_to_quiescence();
        let events = rec.snapshot();
        let count = |f: fn(&ObsEvent) -> bool| events.iter().filter(|e| f(&e.ev)).count();
        assert_eq!(count(|e| matches!(e, ObsEvent::FrameSend { .. })), 1);
        assert_eq!(count(|e| matches!(e, ObsEvent::FrameDeliver { .. })), 3);
        assert_eq!(count(|e| matches!(e, ObsEvent::TimerFire { .. })), 1);
        // The broadcast leaves node 0 when its CPU frees at 100us.
        let send = events.iter().find(|e| matches!(e.ev, ObsEvent::FrameSend { .. })).unwrap();
        assert_eq!((send.at_us, send.node), (100, 0));
        if let ObsEvent::FrameSend { copies, bytes } = send.ev {
            assert_eq!((copies, bytes), (3, 5));
        }
    }

    #[test]
    fn recorder_taps_capture_cpu_queueing() {
        // Same scenario as `cpu_busy_defers_second_packet`: two packets
        // hit node 0 at the same instant, so one is parked and later
        // dequeued — both transitions must be recorded.
        struct Blaster;
        impl Agent for Blaster {
            fn on_start(&mut self, api: &mut SimApi<'_>) {
                if api.me() != NodeId(0) {
                    api.send(Dest::To(NodeId(0)), Bytes::from_static(b"x"));
                }
            }
            fn on_packet(&mut self, _: Packet, _: &mut SimApi<'_>) {}
            fn on_timer(&mut self, _: TimerToken, _: &mut SimApi<'_>) {}
        }
        let rec = ps_obs::Recorder::with_capacity(256);
        let mut s = Sim::new(
            SimConfig::default()
                .seed(2)
                .service_time(SimTime::from_micros(100))
                .recorder(rec.clone()),
            Box::new(PointToPoint::new(SimTime::from_micros(500))),
            vec![Blaster, Blaster, Blaster],
        );
        s.run_to_quiescence();
        let events = rec.snapshot();
        let enq: Vec<_> =
            events.iter().filter(|e| matches!(e.ev, ObsEvent::CpuEnqueue { .. })).collect();
        let deq: Vec<_> =
            events.iter().filter(|e| matches!(e.ev, ObsEvent::CpuDequeue { .. })).collect();
        assert_eq!(enq.len(), 1);
        assert_eq!(deq.len(), 1);
        assert_eq!(enq[0].at_us, 600);
        assert_eq!(deq[0].at_us, 700);
        assert_eq!(enq[0].node, 0);
    }

    #[test]
    fn sampler_emits_one_sample_per_interval() {
        let sampler = MetricsSampler::new(1000).with_seq_node(0);
        let mut s = Sim::new(
            SimConfig::default()
                .seed(1)
                .service_time(SimTime::from_micros(100))
                .sampler(sampler.clone()),
            Box::new(PointToPoint::new(SimTime::from_micros(500))),
            (0..4).map(|_| Recorder::default()).collect::<Vec<_>>(),
        );
        s.run_until(SimTime::from_micros(10_000));
        let samples = sampler.samples();
        assert_eq!(samples.len(), 10, "one sample per whole 1000us window");
        assert_eq!(samples[0].at_us, 1000);
        assert_eq!(samples[9].at_us, 10_000);
        // All activity (1 broadcast, 3 deliveries, 1 timer) is in window 1;
        // later windows are quiet.
        assert_eq!(samples[0].frames_sent, 1);
        assert_eq!(samples[0].copies_delivered, 3);
        assert!(samples[0].max_cpu_permille > 0);
        assert!(samples[2..].iter().all(|w| w.frames_sent == 0 && w.max_cpu_permille == 0));
        // Point-to-point never occupies a shared medium.
        assert!(samples.iter().all(|w| w.bus_util_permille == 0));
    }

    #[test]
    fn sampler_sees_in_flight_frames() {
        let sampler = MetricsSampler::new(300);
        let mut s = Sim::new(
            SimConfig::default()
                .seed(1)
                .service_time(SimTime::from_micros(100))
                .sampler(sampler.clone()),
            Box::new(PointToPoint::new(SimTime::from_micros(500))),
            (0..4).map(|_| Recorder::default()).collect::<Vec<_>>(),
        );
        s.run_until(SimTime::from_micros(1200));
        // The broadcast leaves at 100us, arrives at 600us: the 300us
        // sample catches all three copies mid-flight.
        let samples = sampler.samples();
        assert_eq!(samples[0].at_us, 300);
        assert_eq!(samples[0].in_flight, 3);
        assert_eq!(samples.last().expect("samples").in_flight, 0);
    }

    #[test]
    fn sampler_series_is_deterministic() {
        let run = || {
            let sampler = MetricsSampler::new(500);
            let mut s = Sim::new(
                SimConfig::default().seed(9).sampler(sampler.clone()),
                Box::new(
                    PointToPoint::new(SimTime::from_micros(500))
                        .with_jitter(SimTime::from_micros(200)),
                ),
                (0..5).map(|_| Recorder::default()).collect::<Vec<_>>(),
            );
            s.run_until(SimTime::from_millis(5));
            sampler.to_jsonl()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn default_config_records_nothing() {
        let mut s = sim(4);
        s.run_to_quiescence();
        assert!(!s.recorder().is_enabled());
        assert!(s.recorder().is_empty());
    }

    #[test]
    fn recorder_trace_is_deterministic_across_runs() {
        let run = || {
            let rec = ps_obs::Recorder::with_capacity(4096);
            let mut s = Sim::new(
                SimConfig::default().seed(9).recorder(rec.clone()),
                Box::new(
                    PointToPoint::new(SimTime::from_micros(500))
                        .with_jitter(SimTime::from_micros(200)),
                ),
                (0..5).map(|_| Recorder::default()).collect::<Vec<_>>(),
            );
            s.run_to_quiescence();
            ps_obs::export::to_jsonl(&rec.snapshot())
        };
        assert_eq!(run(), run());
    }

    /// Agent for lifecycle tests: periodic self-rearming timer, counts
    /// firings and restarts.
    #[derive(Default)]
    struct Ticker {
        fired: Vec<SimTime>,
        restarts: u32,
    }

    impl Agent for Ticker {
        fn on_start(&mut self, api: &mut SimApi<'_>) {
            api.set_timer(SimTime::from_millis(1), TimerToken(1));
        }
        fn on_packet(&mut self, _: Packet, _: &mut SimApi<'_>) {}
        fn on_timer(&mut self, _: TimerToken, api: &mut SimApi<'_>) {
            self.fired.push(api.now());
            api.set_timer(SimTime::from_millis(1), TimerToken(1));
        }
        fn on_restart(&mut self, api: &mut SimApi<'_>) {
            self.restarts += 1;
            api.set_timer(SimTime::from_millis(1), TimerToken(1));
        }
    }

    #[test]
    fn crash_kills_timers_and_recovery_rearms_them() {
        let mut s = Sim::new(
            SimConfig::default().seed(1).service_time(SimTime::from_micros(100)),
            Box::new(PointToPoint::new(SimTime::from_micros(500))),
            vec![Ticker::default()],
        );
        s.schedule_crash(SimTime::from_millis(5), NodeId(0));
        s.schedule_recover(SimTime::from_millis(20), NodeId(0));
        s.run_until(SimTime::from_millis(25));
        let a = s.agent(NodeId(0));
        assert_eq!(a.restarts, 1);
        // Fired roughly every ms until the crash, silent until recovery,
        // then resumed: no firing in the (5ms, 20ms) dead window.
        assert!(a.fired.iter().any(|&t| t < SimTime::from_millis(5)));
        assert!(!a
            .fired
            .iter()
            .any(|&t| t > SimTime::from_millis(5) && t < SimTime::from_millis(20)));
        assert!(a.fired.iter().any(|&t| t > SimTime::from_millis(20)));
        assert!(s.alive[0]);
    }

    #[test]
    fn frames_to_a_dead_node_are_dropped() {
        struct Pinger;
        impl Agent for Pinger {
            fn on_start(&mut self, api: &mut SimApi<'_>) {
                if api.me() == NodeId(0) {
                    api.send(Dest::To(NodeId(1)), Bytes::from_static(b"x"));
                }
            }
            fn on_packet(&mut self, _: Packet, _: &mut SimApi<'_>) {
                panic!("dead node must not process packets");
            }
            fn on_timer(&mut self, _: TimerToken, _: &mut SimApi<'_>) {}
        }
        let mut s = Sim::new(
            SimConfig::default().seed(1).service_time(SimTime::from_micros(100)),
            Box::new(PointToPoint::new(SimTime::from_micros(500))),
            vec![Pinger, Pinger],
        );
        // Crash node 1 before the frame (sent at 100us, arriving 600us).
        s.schedule_crash(SimTime::from_micros(200), NodeId(1));
        s.run_until(SimTime::from_millis(2));
        assert!(!s.alive[1]);
        assert_eq!(s.stats().copies_dropped, 1);
    }

    #[test]
    fn crash_clears_the_deferred_fifo() {
        // Two packets arrive at a busy node; a crash between arrival and
        // processing wipes the parked one.
        struct Blaster(u32);
        impl Agent for Blaster {
            fn on_start(&mut self, api: &mut SimApi<'_>) {
                if api.me() != NodeId(0) {
                    api.send(Dest::To(NodeId(0)), Bytes::from_static(b"x"));
                }
            }
            fn on_packet(&mut self, _: Packet, _: &mut SimApi<'_>) {
                self.0 += 1;
            }
            fn on_timer(&mut self, _: TimerToken, _: &mut SimApi<'_>) {}
        }
        let mut s = Sim::new(
            SimConfig::default().seed(2).service_time(SimTime::from_micros(100)),
            Box::new(PointToPoint::new(SimTime::from_micros(500))),
            vec![Blaster(0), Blaster(0), Blaster(0)],
        );
        // Both packets arrive at 600us; first processes 600-700us, second
        // is parked. Crash at 650us: the parked packet must die too.
        s.schedule_crash(SimTime::from_micros(650), NodeId(0));
        s.run_until(SimTime::from_millis(2));
        assert_eq!(s.agent(NodeId(0)).0, 1, "only the in-service packet ran");
    }

    #[test]
    fn crash_and_recovery_are_recorded() {
        let rec = ps_obs::Recorder::with_capacity(256);
        let mut s = Sim::new(
            SimConfig::default().seed(1).recorder(rec.clone()),
            Box::new(PointToPoint::new(SimTime::from_micros(500))),
            vec![Ticker::default()],
        );
        s.schedule_crash(SimTime::from_millis(2), NodeId(0));
        s.schedule_recover(SimTime::from_millis(4), NodeId(0));
        s.run_until(SimTime::from_millis(6));
        if !rec.is_enabled() {
            return; // tap feature off
        }
        let events = rec.snapshot();
        assert!(events
            .iter()
            .any(|e| e.ev == ObsEvent::NodeCrash { incarnation: 0 } && e.at_us == 2000));
        assert!(events
            .iter()
            .any(|e| e.ev == ObsEvent::NodeRecover { incarnation: 1 } && e.at_us == 4000));
    }

    #[test]
    fn double_crash_and_double_recover_are_idempotent() {
        let mut s = Sim::new(
            SimConfig::default().seed(1),
            Box::new(PointToPoint::new(SimTime::from_micros(500))),
            vec![Ticker::default()],
        );
        s.schedule_crash(SimTime::from_millis(1), NodeId(0));
        s.schedule_crash(SimTime::from_millis(2), NodeId(0));
        s.schedule_recover(SimTime::from_millis(3), NodeId(0));
        s.schedule_recover(SimTime::from_millis(4), NodeId(0));
        s.run_until(SimTime::from_millis(6));
        assert_eq!(s.agent(NodeId(0)).restarts, 1, "second recover is a no-op");
        assert!(s.alive[0]);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_sim_rejected() {
        let _ = Sim::<Recorder>::new(
            SimConfig::default(),
            Box::new(PointToPoint::new(SimTime::ZERO)),
            vec![],
        );
    }

    #[test]
    #[should_panic(expected = "timer target n3 out of range")]
    fn schedule_rejects_an_out_of_range_node_at_call_time() {
        // Like `schedule_crash` / `schedule_recover`: the bad id is named
        // where it was handed in, not found later at pop time.
        let mut s = sim(3);
        s.schedule(SimTime::from_millis(1), NodeId(3), TimerToken(1));
        s.run_until(SimTime::from_millis(2));
    }
}
