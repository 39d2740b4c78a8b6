use crate::oracle::Oracle;
use crate::sp::{Delivered, EraBook, Mode, SpCore, SpHost, Tally};
use crate::stats::SwitchHandle;
use ps_bytes::Bytes;
use ps_obs::{ObsEvent, SpPhase};
use ps_simnet::{DetRng, SimTime};
use ps_stack::{channel, Cast, ChannelId, Frame, Layer, LayerCtx, LayerId, Stack, StackEnv};
use ps_trace::{Message, MsgId, ProcessId};

/// Which switching protocol variant to run (§2 describes both).
#[derive(Debug, Clone, Copy)]
pub enum SwitchVariant {
    /// PREPARE / OK / SWITCH over broadcast control messages.
    Broadcast,
    /// A token rotating a logical ring three times per switch — the
    /// implementation the paper actually deploys, which "avoids congestion
    /// on the network … \[and\] complicating issues with multiple members
    /// trying to switch protocols concurrently". An idle NORMAL token is
    /// held `idle_hold` at each member before being passed on, and for
    /// longer once the ring has seen no switch for a while
    /// ([`IdleBackoff`](ps_protocols::IdleBackoff)); a member whose oracle
    /// then wants a switch wakes the ring.
    TokenRing {
        /// Base idle-token hold time (zero = circulate continuously).
        idle_hold: SimTime,
    },
}

/// Configuration of a [`SwitchLayer`].
#[derive(Debug, Clone)]
pub struct SwitchConfig {
    /// Protocol variant.
    pub variant: SwitchVariant,
    /// How often the oracle is consulted.
    pub observe_interval: SimTime,
    /// Sliding window over which "active senders" are counted.
    pub observe_window: SimTime,
    /// Announce each completed switch to the application as a virtually
    /// synchronous **view change** (a [`ps_trace::Message::view_change`]
    /// delivered at the flip, view number = switch era).
    ///
    /// This implements the paper's §8 future work: "virtually synchronous
    /// view changes can be used to switch protocols, and this more
    /// complicated mechanism does support the Virtual Synchrony property."
    /// The SP already guarantees every member delivers exactly the same
    /// per-sender message counts per era; announcing the era boundary as a
    /// view makes that agreement *visible*, so the application-level trace
    /// satisfies [`ps_trace::props::VirtualSynchrony`] with protocol eras
    /// as views.
    pub announce_views: bool,
    /// Abort a switch attempt that has not completed after this long: the
    /// process reverts to the old protocol and releases anything buffered,
    /// so a crash or partition during drain/flip cannot wedge the group.
    /// `SimTime::ZERO` disables the abort timer. The default is generous —
    /// healthy switches finish in milliseconds and never hit it.
    pub phase_timeout: SimTime,
    /// Broadcast variant: first retransmission delay for the manager's
    /// latest control broadcast (PREPARE until all OKs arrive, then
    /// SWITCH). Subsequent retries back off exponentially with jitter.
    /// `SimTime::ZERO` disables manager retransmission.
    pub retransmit_base: SimTime,
    /// Broadcast variant: cap on the retransmission backoff.
    pub retransmit_max: SimTime,
    /// Token variant: if the ring head sees no token for this long while
    /// idle, it regenerates a NORMAL token with a higher generation
    /// (members discard older tokens). Recovers from a token lost to a
    /// crash. `SimTime::ZERO` disables regeneration.
    pub token_regen: SimTime,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        Self {
            variant: SwitchVariant::TokenRing { idle_hold: SimTime::from_millis(2) },
            observe_interval: SimTime::from_millis(100),
            observe_window: SimTime::from_millis(500),
            announce_views: false,
            phase_timeout: SimTime::from_secs_f64(30.0),
            retransmit_base: SimTime::from_secs_f64(2.0),
            retransmit_max: SimTime::from_secs_f64(8.0),
            token_regen: SimTime::from_secs_f64(5.0),
        }
    }
}

/// The switching protocol (SP) — the paper's contribution, as a composite
/// layer embedding two complete protocol stacks.
///
/// Invariant (§2): **every process delivers all messages of the old
/// protocol before delivering any message of the new one.** In normal mode
/// application traffic flows through the current protocol; traffic
/// arriving on the other protocol's channel is buffered. When the oracle
/// requests a switch, members report how many messages they sent over the
/// current protocol; once a member has delivered that many messages from
/// every peer it flips — releasing the buffer — and the switch is complete
/// when every member has flipped. **Sends are never blocked** during
/// switching (they travel on the new protocol immediately), which is why
/// the paper reports the application-perceived hiccup is smaller than the
/// switch duration.
///
/// Assumes of the underlying protocols exactly what §2 states: no spurious
/// deliveries, at-most-once delivery, and exactly-once for switch
/// liveness. Control traffic must be loss-free (run the whole stack over a
/// reliable transport otherwise).
pub struct SwitchLayer {
    /// The two protocols, then the transport of the switch's own control
    /// traffic (Figure 1's private channel), each on its `CHANNELS` entry.
    stacks: [Stack; 3],
    /// Sequence number of the last control envelope sent.
    ctl_seq: u64,
    /// What a hosted stack other than the current protocol delivers while
    /// it runs, drained after it: empty between calls, its capacity kept.
    sink: Vec<Delivered>,
    /// Every SP decision and all SP state: this layer only hosts the
    /// stacks and routes between them and the core.
    core: SpCore,
}

impl std::fmt::Debug for SwitchLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwitchLayer")
            .field("current", &self.core.current)
            .field("era", &self.core.era)
            .field("mode", &self.core.mode)
            .field("buffered", &self.core.buffer.len())
            .finish()
    }
}

/// The channel each hosted stack's frames carry.
const CHANNELS: [ChannelId; 3] = [ChannelId::PROTO_A, ChannelId::PROTO_B, ChannelId::CONTROL];
/// The control transport's place among the hosted stacks.
const CONTROL: usize = 2;

/// Where a sub-stack's deliveries go: the current protocol's up, others' to a sink.
enum Out<'a> {
    Book(&'a mut EraBook),
    Sink(&'a mut Vec<Delivered>),
}

/// A hosted stack's environment: frames go out channel-tagged, timers pass
/// straight through (layer ids are unique per process), deliveries to `out`.
struct SubEnv<'a, 'b> {
    ctx: &'a mut LayerCtx<'b>,
    channel: ChannelId,
    out: Out<'a>,
}

impl StackEnv for SubEnv<'_, '_> {
    fn me(&self) -> ProcessId {
        self.ctx.me()
    }
    fn group(&self) -> &[ProcessId] {
        self.ctx.group_slice()
    }
    fn now(&self) -> SimTime {
        self.ctx.now()
    }
    fn rng(&mut self) -> &mut DetRng {
        self.ctx.rng()
    }
    fn transmit(&mut self, frame: Frame) {
        self.ctx.send_down(Frame::new(frame.dest, channel::mux(self.channel, frame.bytes)));
    }
    fn deliver(&mut self, src: ProcessId, msg: Message) {
        match &mut self.out {
            Out::Book(book) => {
                book.count(msg.id.sender, true, self.ctx.now(), self.ctx.group_slice());
                self.ctx.deliver_msg(src, msg);
            }
            Out::Sink(sink) => sink.push((src, msg.id.sender, msg.into_bytes())),
        }
    }
    fn deliver_bytes(&mut self, src: ProcessId, bytes: Bytes) {
        // Whatever is not exactly one message stops here, as at any
        // application boundary; what goes up is decoded once, here.
        if let Out::Sink(sink) = &mut self.out {
            if let Ok(id) = Message::peek_id(&bytes) {
                sink.push((src, id.sender, bytes));
            }
        } else if let Ok(msg) = Message::from_owned(bytes) {
            self.deliver(src, msg);
        }
    }
    fn set_timer(&mut self, delay: SimTime, id: LayerId, token: u32) {
        self.ctx.set_timer_for(id, delay, token);
    }
    fn obs(&self) -> Option<&ps_obs::Writer<'_>> {
        self.ctx.obs()
    }
    fn cause(&self) -> ps_obs::CauseId {
        self.ctx.cause()
    }
    fn set_cause(&mut self, cause: ps_obs::CauseId) -> ps_obs::CauseId {
        self.ctx.set_cause(cause)
    }
    fn prof(&self) -> Option<&ps_prof::Profiler> {
        self.ctx.prof()
    }
}

/// The SP core's effects, applied to the outer context as it makes them.
struct Host<'a, 'b> {
    ctx: &'a mut LayerCtx<'b>,
    control: &'a mut Stack,
    seq: &'a mut u64,
}

impl SpHost for Host<'_, '_> {
    fn me(&self) -> ProcessId {
        self.ctx.me()
    }
    fn group(&self) -> &[ProcessId] {
        self.ctx.group_slice()
    }
    fn now(&self) -> SimTime {
        self.ctx.now()
    }
    fn pass_up(&mut self, src: ProcessId, bytes: Bytes) {
        self.ctx.deliver_up(src, bytes);
    }
    /// Sends `bytes` through the control stack in a message envelope, so
    /// that ordinary layers can carry them. The envelope goes into the
    /// reserve in front of `bytes` when they are their buffer's only
    /// handle, as a freshly encoded token is.
    fn send_control(&mut self, dest: Cast, bytes: Bytes) {
        *self.seq += 1;
        let envelope = Message::new(self.ctx.me(), MsgId::CONTROL_SEQ_BASE + *self.seq, bytes);
        // No control stack delivers locally while it sends (a reliable
        // layer's `on_down` does not), so the core is never re-entered.
        let mut sink = Vec::new();
        let out = Out::Sink(&mut sink);
        let env = &mut SubEnv { ctx: self.ctx, channel: ChannelId::CONTROL, out };
        self.control.send_bytes(dest, envelope.into_bytes(), env);
        debug_assert!(sink.is_empty(), "a control send delivered locally");
    }
    fn set_timer(&mut self, delay: SimTime, token: u32) {
        self.ctx.set_timer(delay, token);
    }
    /// Records a switch phase if observability is on, parented to the
    /// control frame or timer being handled.
    fn phase(&mut self, phase: SpPhase, from: usize, to: usize) {
        if let Some(o) = self.ctx.obs() {
            o.record_caused(
                self.ctx.now().as_micros(),
                u32::from(self.ctx.me().0),
                self.ctx.cause(),
                ObsEvent::SwitchPhase { phase, from: from as u8, to: to as u8 },
            );
        }
    }
}

impl SwitchLayer {
    /// Creates a switch over two complete protocol stacks.
    ///
    /// `proto_a` is active first. Build both stacks with the same
    /// [`ps_stack::IdGen`] the outer stack uses, so timer routing works.
    /// The returned [`SwitchHandle`] observes this process's switch state.
    pub fn new(
        cfg: SwitchConfig,
        proto_a: Stack,
        proto_b: Stack,
        oracle: Box<dyn Oracle>,
    ) -> (Self, SwitchHandle) {
        let handle = SwitchHandle::new();
        let layer = Self {
            stacks: [proto_a, proto_b, Stack::new(vec![])],
            ctl_seq: 0,
            sink: Vec::new(),
            core: SpCore::new(cfg, oracle, handle.clone()),
        };
        (layer, handle)
    }

    /// Replaces the control-channel transport (default: none — control
    /// frames ride the raw network). The switching protocol requires its
    /// control traffic to be delivered exactly once; on a lossy network,
    /// supply a stack containing `ps_protocols::ReliableLayer`, or put one
    /// below the switch, as [`crate::hybrid_layer`] does.
    pub fn with_control_stack(mut self, stack: Stack) -> Self {
        self.stacks[CONTROL] = stack;
        self
    }

    /// Runs `f` on hosted stack `idx`, then hands the core what it put in
    /// the sink: messages to hold back, or control envelopes. The current
    /// protocol's deliveries went up as they were made, counted into the
    /// core's era book; between switches they cannot complete one, so the
    /// core is not called at all.
    fn run<R>(
        &mut self,
        idx: usize,
        ctx: &mut LayerCtx<'_>,
        f: impl FnOnce(&mut Stack, &mut SubEnv<'_, '_>) -> R,
    ) -> R {
        let current = idx == self.core.current;
        let out = if current { Out::Book(&mut self.core.book) } else { Out::Sink(&mut self.sink) };
        let r = f(&mut self.stacks[idx], &mut SubEnv { ctx, channel: CHANNELS[idx], out });
        if current && self.core.mode == Mode::Normal {
            return r;
        }
        let host = &mut Host { ctx, control: &mut self.stacks[CONTROL], seq: &mut self.ctl_seq };
        if idx != CONTROL {
            self.core.on_delivered(self.sink.drain(..), host);
            return r;
        }
        for (_, _, bytes) in self.sink.drain(..) {
            let envelope = Message::from_owned(bytes).expect("validated when it was delivered");
            self.core.on_control(envelope.id.sender, envelope.body, host);
        }
        r
    }

    /// Launches the hosted stacks (the inactive protocol keeps running, as
    /// in Horus), or restarts them so they re-arm their own timers; then
    /// the core.
    fn start(&mut self, launch: bool, ctx: &mut LayerCtx<'_>) {
        if launch {
            // Before anything can be delivered: one tally per member.
            self.core.book.tallies = vec![Tally::default(); ctx.group_slice().len()];
        }
        for idx in 0..3 {
            self.run(idx, ctx, |stack, env| match launch {
                true => stack.launch(env),
                false => stack.restart(env),
            });
        }
        let host = &mut Host { ctx, control: &mut self.stacks[CONTROL], seq: &mut self.ctl_seq };
        self.core.on_start(launch, host);
    }
}

impl Layer for SwitchLayer {
    fn name(&self) -> &'static str {
        "switch"
    }

    fn on_launch(&mut self, ctx: &mut LayerCtx<'_>) {
        self.start(true, ctx);
    }

    fn on_restart(&mut self, ctx: &mut LayerCtx<'_>) {
        self.start(false, ctx);
    }

    fn on_down(&mut self, frame: Frame, ctx: &mut LayerCtx<'_>) {
        let target = self.core.on_send();
        self.run(target, ctx, |stack, env| stack.send_bytes(frame.dest, frame.bytes, env));
    }

    fn on_up(&mut self, src: ProcessId, bytes: Bytes, ctx: &mut LayerCtx<'_>) {
        let Ok((ch, payload)) = channel::demux(bytes) else { return };
        if let Some(idx) = CHANNELS.iter().position(|&c| c == ch) {
            self.run(idx, ctx, |stack, env| stack.receive(src, payload, env));
        }
    }

    fn on_timer(&mut self, token: u32, ctx: &mut LayerCtx<'_>) {
        let host = &mut Host { ctx, control: &mut self.stacks[CONTROL], seq: &mut self.ctl_seq };
        self.core.on_timer(token, host);
    }

    fn route_timer(&mut self, id: LayerId, token: u32, ctx: &mut LayerCtx<'_>) -> bool {
        (0..3).any(|idx| self.run(idx, ctx, |stack, env| stack.timer(id, token, env)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{Control, RingToken, TokenMode};
    use crate::oracle::SwitchObs;
    use crate::sp::{ABORT_FLAG, FLAG_MASK, OBSERVE};
    use ps_check::prelude::*;
    use ps_wire::Wire;
    use std::collections::BTreeMap;
    use std::sync::{Arc, Mutex};

    fn chan(idx: usize) -> ChannelId {
        CHANNELS[idx]
    }

    const P0: ProcessId = ProcessId(0);
    const P1: ProcessId = ProcessId(1);
    const GROUP: [ProcessId; 2] = [P0, P1];

    /// Process 1 of a two-member group: what its stack handed the
    /// application and the network, and the timers it armed.
    struct Node {
        now: SimTime,
        rng: DetRng,
        delivered: Vec<Message>,
        sent: Vec<Frame>,
        timers: Vec<(LayerId, u32)>,
    }

    impl StackEnv for Node {
        fn me(&self) -> ProcessId {
            P1
        }
        fn group(&self) -> &[ProcessId] {
            &GROUP
        }
        fn now(&self) -> SimTime {
            self.now
        }
        fn rng(&mut self) -> &mut DetRng {
            &mut self.rng
        }
        fn transmit(&mut self, frame: Frame) {
            self.sent.push(frame);
        }
        fn deliver(&mut self, _src: ProcessId, msg: Message) {
            self.delivered.push(msg);
        }
        fn set_timer(&mut self, _delay: SimTime, id: LayerId, token: u32) {
            self.timers.push((id, token));
        }
    }

    /// Never asks for a switch; keeps what it was shown.
    struct Watch(Arc<Mutex<Vec<SwitchObs>>>);

    impl Oracle for Watch {
        fn decide(&mut self, obs: &SwitchObs) -> Option<usize> {
            self.0.lock().unwrap().push(*obs);
            None
        }
    }

    /// The layer in a stack, with a second handle for the test to read its
    /// private state between calls.
    struct Shared(Arc<Mutex<SwitchLayer>>);

    impl Layer for Shared {
        fn name(&self) -> &'static str {
            "switch"
        }
        fn on_launch(&mut self, ctx: &mut LayerCtx<'_>) {
            self.0.lock().unwrap().on_launch(ctx)
        }
        fn on_restart(&mut self, ctx: &mut LayerCtx<'_>) {
            self.0.lock().unwrap().on_restart(ctx)
        }
        fn on_up(&mut self, src: ProcessId, bytes: Bytes, ctx: &mut LayerCtx<'_>) {
            self.0.lock().unwrap().on_up(src, bytes, ctx)
        }
        fn on_timer(&mut self, token: u32, ctx: &mut LayerCtx<'_>) {
            self.0.lock().unwrap().on_timer(token, ctx)
        }
        fn on_down(&mut self, frame: Frame, ctx: &mut LayerCtx<'_>) {
            self.0.lock().unwrap().on_down(frame, ctx)
        }
    }

    /// A switch at process 1 over two empty protocols: what arrives on a
    /// protocol's channel is at that protocol's application boundary.
    struct Rig {
        stack: Stack,
        layer: Arc<Mutex<SwitchLayer>>,
        handle: SwitchHandle,
        node: Node,
        variant: SwitchVariant,
        /// Every observation the layer has shown its oracle.
        observed: Arc<Mutex<Vec<SwitchObs>>>,
    }

    const VARIANTS: [SwitchVariant; 2] =
        [SwitchVariant::Broadcast, SwitchVariant::TokenRing { idle_hold: SimTime::ZERO }];

    impl Rig {
        fn new(variant: SwitchVariant) -> Self {
            let cfg = SwitchConfig { variant, ..SwitchConfig::default() };
            let observed = Arc::new(Mutex::new(Vec::new()));
            let (layer, handle) = SwitchLayer::new(
                cfg,
                Stack::new(vec![]),
                Stack::new(vec![]),
                Box::new(Watch(observed.clone())),
            );
            let layer = Arc::new(Mutex::new(layer));
            let mut stack = Stack::new(vec![Box::new(Shared(layer.clone()))]);
            let mut node = Node {
                now: SimTime::ZERO,
                rng: DetRng::new(1),
                delivered: vec![],
                sent: vec![],
                timers: vec![],
            };
            stack.launch(&mut node);
            Self { stack, layer, handle, node, variant, observed }
        }

        fn receive(&mut self, channel: ChannelId, bytes: Bytes) {
            self.stack.receive(P0, channel::mux(channel, bytes), &mut self.node);
            self.check();
        }

        /// The SP's invariants, after each input the rig makes.
        fn check(&self) {
            self.layer.lock().unwrap().core.check_invariants();
        }

        /// Application message `seq` of process 0 arrives on protocol `idx`.
        fn data(&mut self, idx: usize, seq: u64) {
            self.data_from(idx, P0, seq);
        }

        /// The same with any sender in the message, member or not.
        fn data_from(&mut self, idx: usize, sender: ProcessId, seq: u64) {
            self.receive(chan(idx), Message::with_tag(sender, seq, 0).to_bytes());
        }

        fn control(&mut self, body: Bytes) {
            let envelope = Message::new(P0, MsgId::CONTROL_SEQ_BASE + 1, body);
            self.receive(ChannelId::CONTROL, envelope.to_bytes());
        }

        /// The era and round process 0's next attempt carries, and the
        /// token generation this process accepts.
        fn next_attempt(&self) -> (u64, u64, u64) {
            let layer = self.layer.lock().unwrap();
            (layer.core.era + 1, layer.core.done_round + 1, layer.core.token_gen)
        }

        /// PREPARE for the next era arrives from process 0.
        fn prepare(&mut self) {
            let (era, round, _) = self.next_attempt();
            match self.variant {
                SwitchVariant::Broadcast => {
                    self.control(Control::Prepare { era, round }.to_bytes())
                }
                SwitchVariant::TokenRing { .. } => self.control(self.token(TokenMode::Prepare, 0)),
            }
        }

        /// SWITCH for the attempt under way arrives: process 0 sent `count`
        /// old-protocol messages, this process none.
        fn switch(&mut self, count: u64) {
            match self.variant {
                SwitchVariant::Broadcast => {
                    // Until the attempt ends, its round is still the next.
                    let (era, round, _) = self.next_attempt();
                    let vector = vec![(P0, count), (P1, 0)];
                    self.control(Control::Switch { era, round, vector }.to_bytes())
                }
                SwitchVariant::TokenRing { .. } => {
                    self.control(self.token(TokenMode::Switch, count))
                }
            }
        }

        fn token(&self, mode: TokenMode, count: u64) -> Bytes {
            let (era, _, gen) = self.next_attempt();
            let counts = vec![(P0, count), (P1, 0)];
            RingToken { mode, era, initiator: P0, counts, gen }.to_bytes()
        }

        /// Fires the timer of `kind` that was armed last (an earlier one
        /// of a kind that carries a generation is stale).
        fn fire(&mut self, kind: impl Fn(u32) -> bool) {
            let &(id, token) =
                self.node.timers.iter().rfind(|(_, token)| kind(*token)).expect("armed");
            assert!(self.stack.timer(id, token, &mut self.node));
            self.check();
        }

        /// The attempt's deadline passes.
        fn abort_deadline(&mut self) {
            self.fire(|token| token & FLAG_MASK == ABORT_FLAG);
        }

        /// The observation tick comes round; what the oracle was shown.
        fn tick(&mut self) -> SwitchObs {
            self.fire(|token| token == OBSERVE);
            *self.observed.lock().unwrap().last().expect("a tick consults the oracle")
        }

        /// Sequence numbers the application has seen, in order.
        fn seen(&self) -> Vec<u64> {
            self.node.delivered.iter().map(|m| m.id.seq).collect()
        }

        fn counted_from_p0(&self) -> u64 {
            self.layer.lock().unwrap().core.book.era_count(P0, &GROUP)
        }
    }

    #[test]
    fn corrupt_bytes_at_the_current_protocols_boundary_are_dropped_and_uncounted() {
        let mut rig = Rig::new(SwitchVariant::Broadcast);
        let good = Message::with_tag(P0, 1, 0).to_bytes();
        // Cut short, extended, and plain noise: none is exactly one message.
        rig.receive(chan(0), good.slice(..good.len() - 1));
        rig.receive(chan(0), [&good[..], &[0]].concat().into());
        rig.receive(chan(0), Bytes::from_static(&[0xff, 0x01]));
        rig.receive(chan(0), Bytes::new());
        assert!(rig.node.delivered.is_empty());
        assert_eq!(rig.counted_from_p0(), 0);
        assert!(rig.layer.lock().unwrap().core.book.recent.is_empty());
        // The same on the other protocol's channel: nothing is buffered.
        rig.receive(chan(1), good.slice(..good.len() - 1));
        assert!(rig.layer.lock().unwrap().core.buffer.is_empty());
        // And the real thing still counts.
        rig.receive(chan(0), good);
        assert_eq!((rig.seen(), rig.counted_from_p0()), (vec![1], 1));
    }

    #[test]
    fn while_switching_the_old_protocol_passes_at_once_and_the_new_one_waits_for_the_flip() {
        for variant in VARIANTS {
            let mut rig = Rig::new(variant);
            rig.data(0, 1);
            assert_eq!(rig.seen(), [1], "{variant:?}: normal mode delivers at once");
            rig.prepare();
            assert!(rig.handle.switching(), "{variant:?}");

            rig.data(1, 11);
            assert_eq!(rig.seen(), [1], "{variant:?}: the new protocol is held back");
            rig.data(0, 2);
            assert_eq!(rig.seen(), [1, 2], "{variant:?}: the old protocol is not");
            rig.data(1, 12);
            assert_eq!(rig.handle.snapshot().buffered_peak, 2, "{variant:?}");
            assert_eq!(rig.counted_from_p0(), 2, "{variant:?}: buffered messages are not counted");

            // Process 0 sent three over the old protocol; one is missing.
            rig.switch(3);
            assert!(rig.handle.switching(), "{variant:?}: not drained yet");
            assert_eq!(rig.seen(), [1, 2], "{variant:?}");

            // The last old-protocol message goes up, *then* the flip
            // releases the buffer in arrival order.
            rig.data(0, 3);
            assert_eq!(rig.seen(), [1, 2, 3, 11, 12], "{variant:?}");
            assert!(!rig.handle.switching(), "{variant:?}");
            assert_eq!(rig.handle.current(), 1, "{variant:?}");
            // The released messages are the new era's first two.
            assert_eq!(rig.counted_from_p0(), 2, "{variant:?}");

            // Protocol 1 is current now: straight through.
            rig.data(1, 13);
            assert_eq!(rig.seen(), [1, 2, 3, 11, 12, 13], "{variant:?}");
            assert!(rig.layer.lock().unwrap().core.buffer.is_empty(), "{variant:?}");
        }
    }

    #[test]
    fn after_an_abort_the_other_protocol_is_absorbed_not_buffered_and_not_counted() {
        for variant in VARIANTS {
            let mut rig = Rig::new(variant);
            rig.prepare();
            rig.data(1, 11);
            assert!(rig.seen().is_empty(), "{variant:?}: buffered while switching");

            rig.abort_deadline();
            assert_eq!(rig.handle.aborted(), 1, "{variant:?}");
            assert_eq!(rig.seen(), [11], "{variant:?}: the abort releases the buffer");

            rig.data(1, 12);
            assert_eq!(rig.seen(), [11, 12], "{variant:?}: absorbed at once");
            assert!(rig.layer.lock().unwrap().core.buffer.is_empty(), "{variant:?}");
            assert_eq!(rig.handle.snapshot().buffered_peak, 1, "{variant:?}");
            // Delivered, observed as load, but outside the era's accounting.
            assert_eq!(rig.counted_from_p0(), 0, "{variant:?}");
            assert_eq!(rig.layer.lock().unwrap().core.book.recent.len(), 2, "{variant:?}");
            assert_eq!(rig.handle.current(), 0, "{variant:?}");

            rig.data(0, 1);
            assert_eq!((rig.seen(), rig.counted_from_p0()), (vec![11, 12, 1], 1), "{variant:?}");
        }
    }

    #[test]
    fn a_sender_outside_the_group_is_delivered_and_observed_as_load_but_is_no_active_sender() {
        let mut rig = Rig::new(SwitchVariant::Broadcast);
        // One past the table, and as far past it as an id goes.
        rig.data_from(0, ProcessId(2), 1);
        rig.data_from(0, ProcessId(u16::MAX), 2);
        assert_eq!(rig.seen(), [1, 2]);
        let obs = rig.tick();
        assert_eq!((obs.active_senders, obs.recent_deliveries), (0, 2));
        rig.data_from(0, P1, 3);
        let obs = rig.tick();
        assert_eq!((obs.active_senders, obs.recent_deliveries), (1, 3));

        // All three leave the window; only the member had a count to drop.
        rig.node.now = SimTime::from_secs_f64(1.0);
        let obs = rig.tick();
        assert_eq!((obs.active_senders, obs.recent_deliveries), (0, 0));
        let layer = rig.layer.lock().unwrap();
        assert!(layer.core.book.tallies.iter().all(|tally| tally.window == 0));
        // The era remembers all three, the outsiders off the table.
        let counted = SENDERS.map(|sender| layer.core.book.era_count(sender, &GROUP));
        assert_eq!(counted, [0, 1, 1, 1]);
    }

    /// Two members, the nearest outsider and the farthest.
    const SENDERS: [ProcessId; 4] = [P0, P1, ProcessId(2), ProcessId(u16::MAX)];

    props! {
        /// The per-member counts against the scan and the map they
        /// replaced, along schedules in which the window (500 ms) fills,
        /// slides and empties, in which members and outsiders send, and in
        /// which the switch does everything that touches the book: a flip
        /// starts a new era and releases the buffer, an abort releases it
        /// uncounted for the era and absorbs from then on, a restart
        /// keeps the book as it is.
        fn the_counted_active_senders_are_the_scanned_ones_on_any_schedule(
            steps in vec_of((0u8..10, 0usize..4, 0u64..200), 0..120),
            variant in 0usize..2,
        ) {
            let mut rig = Rig::new(VARIANTS[variant]);
            for (seq, (kind, who, dt)) in (1u64..).zip(steps) {
                rig.node.now += SimTime::from_millis(dt);
                let current = rig.handle.current();
                match kind {
                    0..=3 => rig.data_from(current, SENDERS[who], seq),
                    // Buffered until the next flip or abort, absorbed
                    // after an abort.
                    4 => rig.data_from(1 - current, SENDERS[who], seq),
                    5 | 6 => {
                        let obs = rig.tick();
                        let layer = rig.layer.lock().unwrap();
                        assert_eq!(
                            obs.active_senders,
                            layer.core.book.active_senders_by_scan(&GROUP)
                        );
                        assert_eq!(obs.recent_deliveries, layer.core.book.recent.len() as u64);
                        assert_eq!(obs.last_switch, layer.core.last_switch);
                    }
                    7 => {
                        rig.prepare();
                        rig.switch(rig.counted_from_p0());
                        assert_eq!(rig.handle.current(), 1 - current, "flipped");
                    }
                    8 => {
                        rig.prepare();
                        rig.data_from(1 - current, SENDERS[who], seq);
                        rig.abort_deadline();
                        assert_eq!(rig.handle.current(), current, "aborted");
                    }
                    _ => {
                        rig.stack.restart(&mut rig.node);
                        rig.check();
                    }
                }
                // At every step, not only at a tick: each count is the
                // member's entries in the window.
                let layer = rig.layer.lock().unwrap();
                for (member, tally) in GROUP.iter().zip(&layer.core.book.tallies) {
                    let recent = layer.core.book.recent.iter();
                    let entries = recent.filter(|(_, s)| s == member).count();
                    assert_eq!(tally.window as usize, entries, "{member:?}");
                }
                // Each sender's era count, member or not, is what the map
                // the table replaced holds.
                for sender in SENDERS {
                    let mapped = layer.core.book.delivered_from.get(&sender).copied().unwrap_or(0);
                    assert_eq!(layer.core.book.era_count(sender, &GROUP), mapped, "{sender:?}");
                }
                // And what a tick would show as the last switch is what the
                // handle recorded: flips move both, aborts and restarts
                // neither.
                let recorded = rig.handle.snapshot().records.last().map(|r| r.completed_at);
                assert_eq!(layer.core.last_switch, recorded);
            }
        }
    }

    /// What the application, the era book and the wire should show after
    /// each step of a schedule, kept beside the rig that runs it.
    #[derive(Default)]
    struct Model {
        current: usize,
        /// An abort left the switch passing the other protocol straight up.
        absorbing: bool,
        /// Other-protocol messages held for the next flip, in arrival order.
        buffered: Vec<(ProcessId, u64)>,
        /// Every message the application has seen, in order.
        seen: Vec<u64>,
        /// Each sender's messages counted towards the era.
        era: BTreeMap<ProcessId, u64>,
        /// Deliveries observed as load (no tick comes, so none expire).
        window: usize,
        /// The channel each application send went out on.
        sent_on: Vec<u8>,
    }

    impl Model {
        fn up(&mut self, (sender, seq): (ProcessId, u64), era: bool) {
            self.seen.push(seq);
            self.window += 1;
            if era {
                *self.era.entry(sender).or_insert(0) += 1;
            }
        }
    }

    props! {
        /// Between switches a frame on the current protocol's channel and
        /// an application send go straight to that protocol, past the
        /// switch logic. Along any schedule of current- and other-channel
        /// data, garbage on either channel, application sends, full
        /// switches and aborts, the switch still counts every current-
        /// protocol delivery once, towards the era and as load, before it
        /// passes up; passes each up exactly once, in order; counts no
        /// garbage; holds the other protocol's traffic for the flip, or
        /// after an abort passes it straight up uncounted; and sends on
        /// the current protocol's channel.
        fn between_switches_the_fast_path_keeps_the_books_the_switch_reads(
            steps in vec_of((0u8..8, 0usize..3), 0..80),
            variant in 0usize..2,
        ) {
            let mut rig = Rig::new(VARIANTS[variant]);
            let mut model = Model::default();
            let good = Message::with_tag(P0, 1, 0).to_bytes();
            let garbage =
                [good.slice(..good.len() - 1), [&good[..], &[0]].concat().into(), Bytes::new()];
            for (seq, (kind, who)) in (1u64..).zip(steps) {
                let (sender, current) = (SENDERS[who], model.current);
                match kind {
                    0 | 1 => {
                        rig.data_from(current, sender, seq);
                        model.up((sender, seq), true);
                    }
                    2 => {
                        rig.data_from(1 - current, sender, seq);
                        if model.absorbing {
                            model.up((sender, seq), false);
                        } else {
                            model.buffered.push((sender, seq));
                        }
                    }
                    3 => rig.receive(chan(who % 2), garbage[who].clone()),
                    4 => {
                        rig.stack.send(&Message::with_tag(P1, seq, 0), &mut rig.node);
                        rig.check();
                        model.sent_on.push(chan(current).0);
                    }
                    5 | 6 => {
                        rig.prepare();
                        rig.switch(rig.counted_from_p0());
                        model.current = 1 - current;
                        model.absorbing = false;
                        model.era.clear();
                        for held in std::mem::take(&mut model.buffered) {
                            model.up(held, true);
                        }
                    }
                    _ => {
                        rig.prepare();
                        rig.abort_deadline();
                        model.absorbing = true;
                        for held in std::mem::take(&mut model.buffered) {
                            model.up(held, false);
                        }
                    }
                }
                assert_eq!(rig.seen(), model.seen, "each message up once, in order");
                let tags = rig.node.sent.iter().map(|f| f.bytes[0]);
                let sent_on: Vec<u8> = tags.filter(|&tag| tag != ChannelId::CONTROL.0).collect();
                assert_eq!(sent_on, model.sent_on, "sends go to the current protocol");
                assert_eq!((rig.handle.current(), rig.handle.switching()), (model.current, false));
                let layer = rig.layer.lock().unwrap();
                for sender in SENDERS {
                    let counted = model.era.get(&sender).copied().unwrap_or(0);
                    assert_eq!(layer.core.book.era_count(sender, &GROUP), counted, "{sender:?}");
                    let mapped = layer.core.book.delivered_from.get(&sender).copied().unwrap_or(0);
                    assert_eq!(mapped, counted, "{sender:?}");
                }
                assert_eq!(layer.core.book.recent.len(), model.window, "observed as load");
                let held: Vec<u64> = layer.core.buffer.iter().map(|(_, _, b)| seq_of(b)).collect();
                assert_eq!(held, model.buffered.iter().map(|&(_, s)| s).collect::<Vec<_>>());
                assert_eq!(layer.core.absorb_other, model.absorbing);
            }
        }
    }

    fn seq_of(bytes: &Bytes) -> u64 {
        Message::peek_id(bytes).expect("buffered messages are whole").seq
    }
}
