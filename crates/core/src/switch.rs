use crate::control::{Control, CountVector, RingToken, TokenMode};
use crate::oracle::{Oracle, SwitchObs};
use crate::stats::{SwitchHandle, SwitchRecord};
use ps_bytes::Bytes;
use ps_obs::{ObsEvent, SpPhase};
use ps_protocols::IdleBackoff;
use ps_simnet::{DetRng, SimTime};
use ps_stack::{channel, ChannelId, Frame, Layer, LayerCtx, LayerId, Stack, StackEnv};
use ps_trace::{Message, MsgId, ProcessId};
use ps_wire::Wire;
use std::collections::{BTreeMap, VecDeque};

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
    /// ([`IdleBackoff`]); a member whose oracle then wants a switch wakes
    /// the ring.
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Normal,
    Switching,
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
    cfg: SwitchConfig,
    protos: [Stack; 2],
    /// Transport for the switch's own control traffic (Figure 1's private
    /// channel). Empty by default; give it a reliable layer to run the
    /// switch over lossy networks.
    control: Stack,
    ctl_seq: u64,
    oracle: Box<dyn Oracle>,
    me: Option<ProcessId>,

    current: usize,
    era: u64,
    mode: Mode,
    /// Messages I sent over the current protocol this era.
    sent_current: u64,
    /// Messages I sent over the next protocol while switching.
    sent_next: u64,
    /// What has been delivered this era; the current protocol's
    /// environment writes it as the protocol delivers.
    book: EraBook,
    /// This process's switch state as [`SwitchHandle`]s show it.
    handle: SwitchHandle,
    /// Deliveries from the non-current protocol, held back. Drained in
    /// place: its capacity outlives the switch.
    buffer: Vec<Delivered>,
    /// Where the deliveries of a hosted stack that is *not* the current
    /// protocol land while it runs, to be drained after it: empty between
    /// calls, its capacity kept.
    sink: Vec<Delivered>,
    /// The SWITCH vector, once known (`vector_known`). Cleared, never
    /// dropped: the next switch's vector is copied into its capacity.
    expected: CountVector,
    vector_known: bool,
    switch_started: SimTime,
    /// When the last switch completed here: the newest record's
    /// `completed_at`, kept beside the handle so that an oracle tick reads
    /// it without taking the handle's lock.
    last_switch: Option<SimTime>,

    // Broadcast-variant manager state.
    am_manager: bool,
    manager_oks: BTreeMap<ProcessId, u64>,

    // Token-variant state.
    /// Pending switch wish: the protocol index the oracle asked for. A
    /// wish is dropped, not executed, if the switch it asked for has
    /// already happened by the time a NORMAL token arrives (otherwise a
    /// second initiator's stale wish would flip the group right back).
    want_target: Option<usize>,
    holding_flush: Option<RingToken>,
    held_token: Option<RingToken>,
    /// What the next token off the wire is read into. A token that is
    /// passed on or dropped gives its count vector back, so a hop reads
    /// and builds its vector without the allocator.
    token_counts: CountVector,
    hold_gen: u32,
    /// How long an idle NORMAL token is held here. Switch activity (a
    /// wish, a token in any other mode, a wake) is this ring's traffic;
    /// application messages are not.
    idle: IdleBackoff,
    /// Highest token generation seen; older tokens are stale and dropped.
    token_gen: u64,
    /// When this process last accepted a token (regeneration watchdog).
    last_token_at: SimTime,

    // Fault tolerance (abort / retransmission), both variants.
    /// Attempt round this process is participating in (valid while
    /// switching; broadcast variant).
    joined_round: u64,
    /// Highest round finished here — flipped or aborted. Prepares for
    /// rounds at or below this are stragglers from a dead attempt.
    done_round: u64,
    /// Manager's latest control broadcast, kept for retransmission.
    last_ctl: Option<Bytes>,
    /// Guards against re-broadcasting SWITCH on duplicate OKs.
    switch_sent: bool,
    /// Generation counters distinguishing live from stale one-shot timers
    /// (timers cannot be cancelled).
    abort_gen: u32,
    retrans_gen: u32,
    /// Current retransmission backoff delay.
    retrans_delay: SimTime,
    /// After an abort, deliveries from the non-current protocol pass
    /// straight to the application instead of buffering: with the attempt
    /// abandoned there may never be a flip to release them. Cleared when
    /// the next attempt starts.
    absorb_other: bool,
    /// Private deterministic stream for retransmission jitter — separate
    /// from the node's stream so backoff randomness never perturbs
    /// application or protocol behaviour.
    rng: DetRng,
}

impl std::fmt::Debug for SwitchLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwitchLayer")
            .field("current", &self.current)
            .field("era", &self.era)
            .field("mode", &self.mode)
            .field("buffered", &self.buffer.len())
            .finish()
    }
}

const OBSERVE: u32 = 1;
/// Timer tokens carry a kind in the top byte and a generation in the low
/// 24 bits (one-shot timers cannot be cancelled; a stale firing's
/// generation no longer matches and is ignored).
const FLAG_MASK: u32 = 0xFF00_0000;
const GEN_MASK: u32 = 0x00FF_FFFF;
/// Idle-token hold expiry (token variant).
const HOLD_FLAG: u32 = 0x8000_0000;
/// Switch-attempt abort deadline.
const ABORT_FLAG: u32 = 0x4000_0000;
/// Manager control-broadcast retransmission (broadcast variant).
const RETRANS_FLAG: u32 = 0x2000_0000;
/// Lost-token regeneration watchdog at the ring head (token variant).
const REGEN_FLAG: u32 = 0x1000_0000;

fn chan(idx: usize) -> ChannelId {
    match idx {
        0 => ChannelId::PROTO_A,
        _ => ChannelId::PROTO_B,
    }
}

/// A sub-stack delivery that was not passed straight up: the source the
/// sub-stack attributes it to, the message's sender, and the encoded
/// message — which is what travels on, so the switch never decodes a body.
type Delivered = (ProcessId, ProcessId, Bytes);

/// One member's line in the era book.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    /// Messages from the member delivered via the current protocol this
    /// era (what the SWITCH vector is compared against).
    era: u64,
    /// Entries of `recent` the member sent: it is an active sender while
    /// this is above zero.
    window: u32,
}

/// `id`'s position in `group`. Every runtime lists a group in id order, so
/// the id is tried as the position first and the group searched only when
/// that misses. An id read off the wire — a message's sender, an entry of
/// a count vector — is looked up this way, never used as an index.
fn position(group: &[ProcessId], id: ProcessId) -> Option<usize> {
    if group.get(id.index()) == Some(&id) {
        return Some(id.index());
    }
    group.iter().position(|&member| member == id)
}

/// The delivery side of the era bookkeeping, apart from the rest of the
/// layer so that the current protocol's [`SubEnv`] can hold it while the
/// protocol itself is borrowed to run.
struct EraBook {
    /// One tally per member, at the member's position in the group. Sized
    /// at launch; a delivery finds its sender's line once.
    tallies: Vec<Tally>,
    /// Era counts of senders that are no member. A message names any
    /// sender it likes, and a count vector off the wire may too, so such a
    /// sender is counted, and read back, here.
    strangers: BTreeMap<ProcessId, u64>,
    /// Recent deliveries, for the oracle's load observation.
    recent: VecDeque<(SimTime, ProcessId)>,
    /// What the tallies replaced and must agree with: every sender's era
    /// count in one map, cleared at a flip.
    #[cfg(test)]
    delivered_from: BTreeMap<ProcessId, u64>,
}

impl EraBook {
    fn tally(&mut self, sender: ProcessId, group: &[ProcessId]) -> Option<&mut Tally> {
        position(group, sender).and_then(|slot| self.tallies.get_mut(slot))
    }

    /// Messages from `sender` the current protocol delivered this era.
    fn era_count(&self, sender: ProcessId, group: &[ProcessId]) -> u64 {
        match position(group, sender).and_then(|slot| self.tallies.get(slot)) {
            Some(tally) => tally.era,
            None => self.strangers.get(&sender).copied().unwrap_or(0),
        }
    }

    /// A flip: the new era starts with nothing delivered.
    fn next_era(&mut self) {
        self.tallies.iter_mut().for_each(|tally| tally.era = 0);
        self.strangers.clear();
        #[cfg(test)]
        self.delivered_from.clear();
    }

    /// Drops the deliveries older than `cutoff` from the window.
    fn prune(&mut self, cutoff: SimTime, group: &[ProcessId]) {
        while let Some(&(at, sender)) = self.recent.front() {
            if at >= cutoff {
                break;
            }
            self.recent.pop_front();
            if let Some(tally) = self.tally(sender, group) {
                tally.window -= 1;
            }
        }
    }

    /// Distinct group members among the senders in the window.
    fn active_senders(&self) -> usize {
        self.tallies.iter().filter(|tally| tally.window > 0).count()
    }

    /// What the window counts replaced and must agree with: every member
    /// looked for in the whole window.
    #[cfg(test)]
    fn active_senders_by_scan(&self, group: &[ProcessId]) -> usize {
        let sent = |member| self.recent.iter().any(|&(_, sender)| sender == member);
        group.iter().filter(|&&member| sent(member)).count()
    }

    /// Counts a delivery from `sender` before it passes up: as load, and
    /// towards the era's drain if the current protocol made it (`era`).
    /// One from the other protocol after an abort counts as load alone: the
    /// sender, too, zeroed its `sent_next` when its attempt aborted.
    fn count(&mut self, sender: ProcessId, era: bool, ctx: &LayerCtx<'_>) {
        #[cfg(test)]
        if era {
            *self.delivered_from.entry(sender).or_insert(0) += 1;
        }
        match self.tally(sender, ctx.group_slice()) {
            Some(tally) => {
                tally.era += u64::from(era);
                tally.window += 1;
            }
            None if era => *self.strangers.entry(sender).or_insert(0) += 1,
            None => {}
        }
        self.recent.push_back((ctx.now(), sender));
    }

    /// [`EraBook::count`]s an encoded delivery and passes it up.
    fn pass_up(&mut self, (src, sender, bytes): Delivered, era: bool, ctx: &mut LayerCtx<'_>) {
        self.count(sender, era, ctx);
        ctx.deliver_up(src, bytes);
    }
}

/// Where a sub-stack's deliveries go: the current protocol's up, others' to a sink.
enum Out<'a> {
    Book(&'a mut EraBook),
    Sink(&'a mut Vec<Delivered>),
}

/// Environment handed to a sub-stack: transmissions come out channel-
/// tagged through the outer context, timers pass straight through (layer
/// ids are globally unique per process), and deliveries go straight up
/// when the sub-stack is the current protocol — otherwise into the sink,
/// for the switch logic to buffer, absorb or (control traffic) decode.
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
                book.count(msg.id.sender, true, self.ctx);
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

/// Records one switch-phase event if observability is on, parented to the
/// event being processed (the control frame or timer that triggered the
/// phase transition).
fn record_phase(ctx: &LayerCtx<'_>, phase: SpPhase, from: usize, to: usize) {
    if let Some(o) = ctx.obs() {
        o.record_caused(
            ctx.now().as_micros(),
            u32::from(ctx.me().0),
            ctx.cause(),
            ObsEvent::SwitchPhase { phase, from: from as u8, to: to as u8 },
        );
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
        let idle_hold = match cfg.variant {
            SwitchVariant::TokenRing { idle_hold } => idle_hold,
            SwitchVariant::Broadcast => SimTime::ZERO,
        };
        let layer = Self {
            cfg,
            protos: [proto_a, proto_b],
            control: Stack::new(vec![]),
            ctl_seq: 0,
            oracle,
            me: None,
            current: 0,
            era: 0,
            mode: Mode::Normal,
            sent_current: 0,
            sent_next: 0,
            book: EraBook {
                tallies: Vec::new(),
                strangers: BTreeMap::new(),
                recent: VecDeque::new(),
                #[cfg(test)]
                delivered_from: BTreeMap::new(),
            },
            handle: handle.clone(),
            buffer: Vec::new(),
            sink: Vec::new(),
            expected: Vec::new(),
            vector_known: false,
            switch_started: SimTime::ZERO,
            last_switch: None,
            am_manager: false,
            manager_oks: BTreeMap::new(),
            want_target: None,
            holding_flush: None,
            held_token: None,
            token_counts: Vec::new(),
            hold_gen: 0,
            idle: IdleBackoff::new(idle_hold),
            token_gen: 0,
            last_token_at: SimTime::ZERO,
            joined_round: 0,
            done_round: 0,
            last_ctl: None,
            switch_sent: false,
            abort_gen: 0,
            retrans_gen: 0,
            retrans_delay: SimTime::ZERO,
            absorb_other: false,
            rng: DetRng::new(0),
        };
        (layer, handle)
    }

    /// Replaces the control-channel transport (default: none — control
    /// frames ride the raw network). The switching protocol requires its
    /// control traffic to be delivered exactly once; on a lossy network,
    /// supply a stack containing `ps_protocols::ReliableLayer`, or put one
    /// below the switch, as [`crate::hybrid_layer`] does.
    pub fn with_control_stack(mut self, stack: Stack) -> Self {
        self.control = stack;
        self
    }

    /// Sends switch-control `bytes` to `dest` through the control stack,
    /// wrapped in a message envelope so ordinary layers can transport it.
    /// The envelope goes into the reserve in front of `bytes` when they are
    /// their buffer's only handle, as a freshly encoded token is.
    fn send_control(&mut self, dest: ps_stack::Cast, bytes: Bytes, ctx: &mut LayerCtx<'_>) {
        self.ctl_seq += 1;
        let envelope = Message::new(ctx.me(), MsgId::CONTROL_SEQ_BASE + self.ctl_seq, bytes);
        self.run_control(ctx, |stack, env| stack.send_bytes(dest, envelope.into_bytes(), env));
    }

    /// Runs `f` on protocol `idx`, then applies the switch logic to what
    /// it delivered. The current protocol's deliveries have gone up as they
    /// were made; another protocol's are in the sink, to be buffered until
    /// the flip — or, after an abort, absorbed. `current` cannot change
    /// while the protocol runs: nothing of this layer does.
    /// Between switches the current protocol fills no sink and cannot
    /// complete a switch: `f` runs, and that is all.
    fn run_sub<R>(
        &mut self,
        idx: usize,
        ctx: &mut LayerCtx<'_>,
        f: impl FnOnce(&mut Stack, &mut SubEnv<'_, '_>) -> R,
    ) -> R {
        let current = idx == self.current;
        let out = if current { Out::Book(&mut self.book) } else { Out::Sink(&mut self.sink) };
        let r = f(&mut self.protos[idx], &mut SubEnv { ctx, channel: chan(idx), out });
        if current && self.mode == Mode::Normal {
            return r;
        }
        for d in self.sink.drain(..) {
            if self.absorb_other {
                self.book.pass_up(d, false, ctx);
            } else {
                self.buffer.push(d);
                let depth = self.buffer.len();
                self.handle.update(|s| s.buffered_peak = s.buffered_peak.max(depth));
            }
        }
        self.try_flip(ctx);
        r
    }

    /// Runs `f` on the control transport, then handles every envelope it
    /// delivered. A handler that sends control traffic comes back in here
    /// while the sink is out; it then works on a fresh, empty one.
    fn run_control<R>(
        &mut self,
        ctx: &mut LayerCtx<'_>,
        f: impl FnOnce(&mut Stack, &mut SubEnv<'_, '_>) -> R,
    ) -> R {
        let mut sink = std::mem::take(&mut self.sink);
        let out = Out::Sink(&mut sink);
        let r = f(&mut self.control, &mut SubEnv { ctx, channel: ChannelId::CONTROL, out });
        for (_, _, bytes) in sink.drain(..) {
            let envelope = Message::from_owned(bytes).expect("validated when it was delivered");
            self.dispatch_control(envelope, ctx);
        }
        self.sink = sink;
        r
    }

    fn enter_switching(&mut self, ctx: &mut LayerCtx<'_>) {
        if self.mode == Mode::Normal {
            self.mode = Mode::Switching;
            self.switch_started = ctx.now();
            self.vector_known = false;
            self.absorb_other = false;
            self.handle.update(|s| s.switching = true);
            record_phase(ctx, SpPhase::PrepareSeen, self.current, 1 - self.current);
            if self.cfg.phase_timeout > SimTime::ZERO {
                self.abort_gen = self.abort_gen.wrapping_add(1) & GEN_MASK;
                ctx.set_timer(self.cfg.phase_timeout, ABORT_FLAG | self.abort_gen);
            }
        }
    }

    /// Gives up on the in-flight switch attempt: revert to the old
    /// protocol, release anything buffered, and drop all attempt state so
    /// a later attempt starts clean. The era does **not** advance — eras
    /// count completed switches, and keeping it stable means members that
    /// never saw this attempt (the far side of a partition) remain in
    /// agreement with members that aborted it.
    fn abort(&mut self, ctx: &mut LayerCtx<'_>) {
        record_phase(ctx, SpPhase::Aborted, self.current, 1 - self.current);
        self.mode = Mode::Normal;
        self.vector_known = false;
        self.am_manager = false;
        self.manager_oks.clear();
        self.last_ctl = None;
        self.switch_sent = false;
        self.want_target = None;
        if let Some(token) = self.holding_flush.take() {
            self.recycle(token);
        }
        self.done_round = self.done_round.max(self.joined_round);
        // Whatever we sent over the next protocol is now outside the era
        // accounting; receivers absorb it the same way (`EraBook::count`).
        self.sent_next = 0;
        // Invalidate any token from the dead attempt that is still
        // circulating; regeneration will mint a successor generation.
        self.token_gen += 1;
        self.absorb_other = true;
        for d in self.buffer.drain(..) {
            self.book.pass_up(d, false, ctx);
        }
        self.handle.update(|s| {
            s.switching = false;
            s.aborted += 1;
        });
    }

    /// (Re)sends the manager's latest control broadcast and arms the next
    /// retransmission with exponential backoff plus jitter.
    fn send_ctl_broadcast(&mut self, bytes: Bytes, ctx: &mut LayerCtx<'_>) {
        self.last_ctl = Some(bytes.clone());
        self.send_control(ps_stack::Cast::All, bytes, ctx);
        self.retrans_delay = self.cfg.retransmit_base;
        self.arm_retransmit(ctx);
    }

    fn arm_retransmit(&mut self, ctx: &mut LayerCtx<'_>) {
        if self.retrans_delay == SimTime::ZERO {
            return;
        }
        let jitter = self.rng.jitter(SimTime::from_micros(self.retrans_delay.as_micros() / 4));
        self.retrans_gen = self.retrans_gen.wrapping_add(1) & GEN_MASK;
        ctx.set_timer(self.retrans_delay + jitter, RETRANS_FLAG | self.retrans_gen);
    }

    fn on_retransmit_timer(&mut self, ctx: &mut LayerCtx<'_>) {
        if self.mode != Mode::Switching {
            return;
        }
        let Some(bytes) = self.last_ctl.clone() else { return };
        self.send_control(ps_stack::Cast::All, bytes, ctx);
        let doubled = SimTime::from_micros(self.retrans_delay.as_micros().saturating_mul(2));
        self.retrans_delay = doubled.min(self.cfg.retransmit_max);
        self.arm_retransmit(ctx);
    }

    /// Ring-head watchdog: if no token has been seen for a full regen
    /// interval while idle, the token died with a crashed node — mint a
    /// replacement with a higher generation.
    fn on_regen_timer(&mut self, ctx: &mut LayerCtx<'_>) {
        if self.cfg.token_regen == SimTime::ZERO {
            return;
        }
        ctx.set_timer(self.cfg.token_regen, REGEN_FLAG);
        let quiet = ctx.now().saturating_sub(self.last_token_at);
        if self.mode == Mode::Normal
            && self.held_token.is_none()
            && self.holding_flush.is_none()
            && quiet >= self.cfg.token_regen
        {
            self.token_gen += 1;
            let mut token = RingToken::normal(self.era);
            token.gen = self.token_gen;
            self.handle_token(token, ctx);
        }
    }

    /// Takes `vector` as the attempt's SWITCH vector, copied into the
    /// capacity the last one left.
    fn expect(&mut self, vector: &[(ProcessId, u64)]) {
        self.expected.clear();
        self.expected.extend_from_slice(vector);
        self.vector_known = true;
    }

    /// Flips to the new protocol if the SWITCH vector is satisfied.
    fn try_flip(&mut self, ctx: &mut LayerCtx<'_>) {
        if self.mode != Mode::Switching || !self.vector_known {
            return;
        }
        let group = ctx.group_slice();
        let drained = self.expected.iter().all(|&(q, c)| self.book.era_count(q, group) >= c);
        if !drained {
            return;
        }
        record_phase(ctx, SpPhase::DrainComplete, self.current, 1 - self.current);
        // Flip.
        let from = self.current;
        self.current = 1 - self.current;
        self.era += 1;
        self.mode = Mode::Normal;
        self.sent_current = self.sent_next;
        self.sent_next = 0;
        self.book.next_era();
        self.vector_known = false;
        self.am_manager = false;
        self.manager_oks.clear();
        self.last_ctl = None;
        self.switch_sent = false;
        self.absorb_other = false;
        self.done_round = self.done_round.max(self.joined_round);
        let record = SwitchRecord {
            from,
            to: self.current,
            started_at: self.switch_started,
            completed_at: ctx.now(),
        };
        self.last_switch = Some(record.completed_at);
        self.handle.update(|s| {
            s.records.push(record);
            s.switching = false;
            s.current = 1 - from;
        });
        record_phase(ctx, SpPhase::Flip, from, self.current);
        if self.cfg.announce_views {
            // §8: the switch *is* a view change. Every member delivers the
            // same message set per era (the count vector), so announcing
            // the era boundary as a view yields a virtually synchronous
            // application trace. The announcement is fabricated
            // identically at every member (same id, same body).
            let group = ctx.group_slice();
            let vm = Message::view_change(
                group[0],
                MsgId::CONTROL_SEQ_BASE + self.era,
                self.era,
                group.to_vec(),
            );
            ctx.deliver_up(vm.id.sender, vm.into_bytes());
        }
        // Release the buffer — these are new-era deliveries.
        for d in self.buffer.drain(..) {
            self.book.pass_up(d, true, ctx);
        }
        record_phase(ctx, SpPhase::BufferRelease, from, self.current);
        // Token variant: a FLUSH held for our drain can move on now.
        if let Some(token) = self.holding_flush.take() {
            self.forward_token(token, ctx);
        }
    }

    // ---- broadcast variant -------------------------------------------------

    fn initiate_broadcast(&mut self, ctx: &mut LayerCtx<'_>) {
        self.joined_round = self.done_round + 1;
        self.enter_switching(ctx);
        self.am_manager = true;
        self.handle.update(|s| s.initiated += 1);
        let msg = Control::Prepare { era: self.era + 1, round: self.joined_round };
        self.send_ctl_broadcast(msg.to_bytes(), ctx);
    }

    /// Handles a control envelope delivered by the control stack.
    fn dispatch_control(&mut self, envelope: Message, ctx: &mut LayerCtx<'_>) {
        let origin = envelope.id.sender;
        match self.cfg.variant {
            SwitchVariant::Broadcast => self.on_control(origin, envelope.body, ctx),
            SwitchVariant::TokenRing { .. } => {
                let counts = std::mem::take(&mut self.token_counts);
                let mut token = RingToken { counts, ..RingToken::normal(0) };
                match token.read_from(&envelope.body) {
                    Ok(()) => self.handle_token(token, ctx),
                    Err(_) => self.recycle(token),
                }
            }
        }
    }

    fn on_control(&mut self, src: ProcessId, bytes: Bytes, ctx: &mut LayerCtx<'_>) {
        let Ok(msg) = Control::from_bytes(&bytes) else { return };
        match msg {
            Control::Prepare { era, round } => {
                // Rounds at or below done_round are stragglers from an
                // attempt this process already finished (flipped or
                // aborted); joining them would corrupt era accounting.
                if era != self.era + 1 || round <= self.done_round {
                    return;
                }
                if self.mode == Mode::Switching && round != self.joined_round {
                    return; // already committed to a different attempt
                }
                self.joined_round = round;
                self.enter_switching(ctx);
                // A duplicate PREPARE (manager retransmission) falls
                // through to here and idempotently re-sends the OK — the
                // original may have been lost.
                let ok = Control::Ok { era, round, member: ctx.me(), count: self.sent_current };
                self.send_control(ps_stack::Cast::To(src), ok.to_bytes(), ctx);
            }
            Control::Ok { era, round, member, count } => {
                if !self.am_manager || era != self.era + 1 || round != self.joined_round {
                    return;
                }
                self.manager_oks.insert(member, count);
                let all_ok = ctx.group_slice().iter().all(|m| self.manager_oks.contains_key(m));
                if !self.switch_sent && all_ok {
                    let vector: CountVector =
                        self.manager_oks.iter().map(|(&p, &c)| (p, c)).collect();
                    let sw = Control::Switch { era, round, vector };
                    self.switch_sent = true;
                    self.send_ctl_broadcast(sw.to_bytes(), ctx);
                }
            }
            Control::Switch { era, round, vector } => {
                if era != self.era + 1 || self.mode != Mode::Switching || round != self.joined_round
                {
                    return;
                }
                self.expect(&vector);
                self.try_flip(ctx);
            }
        }
    }

    // ---- token variant -----------------------------------------------------

    fn forward_token(&mut self, token: RingToken, ctx: &mut LayerCtx<'_>) {
        let next = ctx.ring_next();
        self.send_control(ps_stack::Cast::To(next), token.to_bytes(), ctx);
        self.recycle(token);
    }

    /// Takes back the count vector of a token that was passed on or is
    /// dropped, for the next token off the wire to be read into — or keeps
    /// the one it has, if that has more room.
    fn recycle(&mut self, token: RingToken) {
        if token.counts.capacity() > self.token_counts.capacity() {
            self.token_counts = token.counts;
        }
    }

    /// Is this in-rotation token (initiated by me) still the attempt I am
    /// executing? False once I aborted: the era did not advance, so the
    /// token's `era + 1` stamp alone cannot tell a live attempt from a
    /// dead one.
    fn my_live_attempt(&self, token: &RingToken) -> bool {
        self.mode == Mode::Switching && token.era == self.era + 1
    }

    /// Lets go of a held idle token: seized if a wish is pending, passed
    /// on otherwise.
    fn release_held(&mut self, ctx: &mut LayerCtx<'_>) {
        if let Some(token) = self.held_token.take() {
            if self.want_target.is_some() {
                self.handle_token(token, ctx);
            } else {
                self.forward_token(token, ctx);
            }
        }
    }

    fn handle_token(&mut self, mut token: RingToken, ctx: &mut LayerCtx<'_>) {
        if token.mode == TokenMode::Wake {
            // Not a token: some member has a wish and the ring may be
            // asleep. Whoever sits on the NORMAL token passes it on now.
            self.idle.traffic(ctx.now());
            self.release_held(ctx);
            return self.recycle(token);
        }
        // Generation fencing: a regenerated token obsoletes any older one
        // still circulating (or any token from an attempt we aborted).
        if token.gen < self.token_gen {
            return self.recycle(token);
        }
        self.token_gen = token.gen;
        self.last_token_at = ctx.now();
        if token.mode != TokenMode::Normal {
            self.idle.traffic(ctx.now());
        }
        let me = ctx.me();
        match token.mode {
            TokenMode::Wake => {} // handled above, ahead of the fence
            TokenMode::Normal => {
                let wanted = self.want_target.take().filter(|&t| t != self.current);
                if wanted.is_some() && self.mode == Mode::Normal {
                    self.enter_switching(ctx);
                    self.handle.update(|s| s.initiated += 1);
                    token.mode = TokenMode::Prepare;
                    token.era = self.era + 1;
                    token.initiator = me;
                    token.counts.clear();
                    token.counts.push((me, self.sent_current));
                    self.forward_token(token, ctx);
                    return;
                }
                let hold = self.idle.idle_visit();
                if hold > SimTime::ZERO {
                    self.held_token = Some(token);
                    self.hold_gen = self.hold_gen.wrapping_add(1) & GEN_MASK;
                    ctx.set_timer(hold, HOLD_FLAG | self.hold_gen);
                } else {
                    self.forward_token(token, ctx);
                }
            }
            TokenMode::Prepare => {
                if token.initiator == me {
                    if !self.my_live_attempt(&token) {
                        return self.recycle(token); // attempt aborted; let the token die
                    }
                    // Counts complete: disseminate the vector.
                    self.expect(&token.counts);
                    token.mode = TokenMode::Switch;
                    self.forward_token(token, ctx);
                    self.try_flip(ctx);
                } else {
                    if token.era != self.era + 1 {
                        return self.recycle(token); // stale
                    }
                    self.enter_switching(ctx);
                    if !token.counts.iter().any(|&(p, _)| p == me) {
                        token.counts.push((me, self.sent_current));
                    }
                    self.forward_token(token, ctx);
                }
            }
            TokenMode::Switch => {
                if token.initiator == me {
                    // Legitimate either mid-switch or just after our own
                    // flip advanced the era; dead if we aborted.
                    if !self.my_live_attempt(&token) && token.era != self.era {
                        return self.recycle(token);
                    }
                    // Vector has gone all the way around: flush rotation.
                    token.mode = TokenMode::Flush;
                    if self.mode == Mode::Normal {
                        self.forward_token(token, ctx);
                    } else {
                        self.holding_flush = Some(token);
                    }
                } else {
                    if token.era != self.era + 1 || self.mode != Mode::Switching {
                        // Stale, or of an aborted attempt: don't resurrect it.
                        return self.recycle(token);
                    }
                    self.expect(&token.counts);
                    self.forward_token(token, ctx);
                    self.try_flip(ctx);
                }
            }
            TokenMode::Flush => {
                if token.initiator == me {
                    if token.era != self.era && !self.my_live_attempt(&token) {
                        return self.recycle(token); // flush of an attempt we aborted
                    }
                    // Third rotation complete: the switch has finished at
                    // every member. Back to an idle token, which carries
                    // the vector's room on for the next PREPARE.
                    let mut counts = token.counts;
                    counts.clear();
                    let idle = RingToken { gen: token.gen, counts, ..RingToken::normal(self.era) };
                    self.handle_token(idle, ctx);
                } else if self.mode == Mode::Normal {
                    self.forward_token(token, ctx);
                } else {
                    self.holding_flush = Some(token);
                }
            }
        }
    }

    // ---- oracle ------------------------------------------------------------

    fn observe(&mut self, ctx: &mut LayerCtx<'_>) {
        let now = ctx.now();
        self.book.prune(now.saturating_sub(self.cfg.observe_window), ctx.group_slice());
        let obs = SwitchObs {
            now,
            current: self.current,
            active_senders: self.book.active_senders(),
            recent_deliveries: self.book.recent.len() as u64,
            switching: self.mode == Mode::Switching,
            last_switch: self.last_switch,
        };
        if let Some(target) = self.oracle.decide(&obs) {
            if target != self.current && self.mode == Mode::Normal {
                match self.cfg.variant {
                    SwitchVariant::Broadcast => self.initiate_broadcast(ctx),
                    SwitchVariant::TokenRing { .. } => {
                        // An oracle may repeat its wish at every tick;
                        // only the first asks the ring to wake.
                        let first = self.want_target.replace(target).is_none();
                        if self.held_token.is_some() {
                            // Sitting on the idle token: use it now.
                            self.release_held(ctx);
                        } else if first && self.idle.may_sleep(now, ctx.group_slice().len()) {
                            let wake = RingToken::wake().to_bytes();
                            self.send_control(ps_stack::Cast::Others, wake, ctx);
                        }
                        self.idle.traffic(now);
                    }
                }
            }
        }
    }
}

impl Layer for SwitchLayer {
    fn name(&self) -> &'static str {
        "switch"
    }

    fn on_launch(&mut self, ctx: &mut LayerCtx<'_>) {
        self.me = Some(ctx.me());
        // Before anything can be delivered: one tally per member.
        self.book.tallies = vec![Tally::default(); ctx.group_slice().len()];
        // Private jitter stream, seeded from identity only: deterministic
        // per process, independent of the node's main RNG stream.
        self.rng = DetRng::new(0x5317_C81A_F00D_u64 ^ u64::from(ctx.me().0));
        // Launch both sub-protocols (the inactive one keeps running — its
        // tokens rotate, its timers fire — exactly as in Horus) and the
        // control transport.
        for idx in 0..2 {
            self.run_sub(idx, ctx, |stack, env| stack.launch(env));
        }
        self.run_control(ctx, |stack, env| stack.launch(env));
        ctx.set_timer(self.cfg.observe_interval, OBSERVE);
        if let SwitchVariant::TokenRing { .. } = self.cfg.variant {
            if self.cfg.token_regen > SimTime::ZERO {
                // A sleeping rotation must not look like a lost token.
                let limit = SimTime::from_micros(self.cfg.token_regen.as_micros() / 2);
                self.idle.cap_rotation(ctx.group_slice().len(), limit);
            }
            if ctx.me() == ctx.group_slice()[0] {
                self.handle_token(RingToken::normal(0), ctx);
                if self.cfg.token_regen > SimTime::ZERO {
                    ctx.set_timer(self.cfg.token_regen, REGEN_FLAG);
                }
            }
        }
    }

    fn on_restart(&mut self, ctx: &mut LayerCtx<'_>) {
        // Forward the restart to both sub-protocols and the control
        // transport so they re-arm their own timers (retransmission
        // sweeps, ordering-token holds, …).
        for idx in 0..2 {
            self.run_sub(idx, ctx, |stack, env| stack.restart(env));
        }
        self.run_control(ctx, |stack, env| stack.restart(env));
        // Every timer below died with the crashed incarnation.
        ctx.set_timer(self.cfg.observe_interval, OBSERVE);
        if self.mode == Mode::Switching {
            if self.cfg.phase_timeout > SimTime::ZERO {
                // The attempt gets a fresh full deadline from recovery.
                self.abort_gen = self.abort_gen.wrapping_add(1) & GEN_MASK;
                ctx.set_timer(self.cfg.phase_timeout, ABORT_FLAG | self.abort_gen);
            }
            if self.am_manager {
                if let Some(bytes) = self.last_ctl.clone() {
                    // Replies may have burned while we were down; resend
                    // immediately and restart the backoff schedule.
                    self.send_ctl_broadcast(bytes, ctx);
                }
            }
        }
        if self.held_token.is_some() {
            // We crashed while sitting on the idle token; without this the
            // ring would stall until regeneration. A token is only ever
            // held for a non-zero hold: re-arm the one that was in force.
            ctx.set_timer(self.idle.hold(), HOLD_FLAG | self.hold_gen);
        }
        if let SwitchVariant::TokenRing { .. } = self.cfg.variant {
            if ctx.me() == ctx.group_slice()[0] && self.cfg.token_regen > SimTime::ZERO {
                ctx.set_timer(self.cfg.token_regen, REGEN_FLAG);
            }
        }
    }

    fn on_down(&mut self, frame: Frame, ctx: &mut LayerCtx<'_>) {
        let (target, sent) = match self.mode {
            Mode::Normal => (self.current, &mut self.sent_current),
            Mode::Switching => (1 - self.current, &mut self.sent_next),
        };
        *sent += 1;
        self.run_sub(target, ctx, |stack, env| stack.send_bytes(frame.dest, frame.bytes, env));
    }

    fn on_up(&mut self, src: ProcessId, bytes: Bytes, ctx: &mut LayerCtx<'_>) {
        let Ok((ch, payload)) = channel::demux(bytes) else { return };
        match ch {
            ChannelId::CONTROL => {
                self.run_control(ctx, |stack, env| stack.receive(src, payload, env));
            }
            ChannelId::PROTO_A | ChannelId::PROTO_B => {
                let idx = usize::from(ch.0 - 1);
                self.run_sub(idx, ctx, |stack, env| stack.receive(src, payload, env));
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, token: u32, ctx: &mut LayerCtx<'_>) {
        if token == OBSERVE {
            self.observe(ctx);
            ctx.set_timer(self.cfg.observe_interval, OBSERVE);
            return;
        }
        match token & FLAG_MASK {
            HOLD_FLAG if token & GEN_MASK == self.hold_gen => self.release_held(ctx),
            ABORT_FLAG if token & GEN_MASK == self.abort_gen => {
                if self.mode == Mode::Switching {
                    self.abort(ctx);
                }
            }
            RETRANS_FLAG if token & GEN_MASK == self.retrans_gen => {
                self.on_retransmit_timer(ctx);
            }
            REGEN_FLAG => self.on_regen_timer(ctx),
            _ => {}
        }
    }

    fn route_timer(&mut self, id: LayerId, token: u32, ctx: &mut LayerCtx<'_>) -> bool {
        for idx in 0..2 {
            if self.run_sub(idx, ctx, |stack, env| stack.timer(id, token, env)) {
                return true;
            }
        }
        // Control-transport timers (e.g. a reliable layer's retransmits).
        self.run_control(ctx, |stack, env| stack.timer(id, token, env))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_check::prelude::*;
    use std::sync::{Arc, Mutex};

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
            (layer.era + 1, layer.done_round + 1, layer.token_gen)
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
            self.layer.lock().unwrap().book.era_count(P0, &GROUP)
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
        assert!(rig.layer.lock().unwrap().book.recent.is_empty());
        // The same on the other protocol's channel: nothing is buffered.
        rig.receive(chan(1), good.slice(..good.len() - 1));
        assert!(rig.layer.lock().unwrap().buffer.is_empty());
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
            assert!(rig.layer.lock().unwrap().buffer.is_empty(), "{variant:?}");
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
            assert!(rig.layer.lock().unwrap().buffer.is_empty(), "{variant:?}");
            assert_eq!(rig.handle.snapshot().buffered_peak, 1, "{variant:?}");
            // Delivered, observed as load, but outside the era's accounting.
            assert_eq!(rig.counted_from_p0(), 0, "{variant:?}");
            assert_eq!(rig.layer.lock().unwrap().book.recent.len(), 2, "{variant:?}");
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
        assert!(layer.book.tallies.iter().all(|tally| tally.window == 0));
        // The era remembers all three, the outsiders off the table.
        let counted = SENDERS.map(|sender| layer.book.era_count(sender, &GROUP));
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
                        assert_eq!(obs.active_senders, layer.book.active_senders_by_scan(&GROUP));
                        assert_eq!(obs.recent_deliveries, layer.book.recent.len() as u64);
                        assert_eq!(obs.last_switch, layer.last_switch);
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
                    _ => rig.stack.restart(&mut rig.node),
                }
                // At every step, not only at a tick: each count is the
                // member's entries in the window.
                let layer = rig.layer.lock().unwrap();
                for (member, tally) in GROUP.iter().zip(&layer.book.tallies) {
                    let entries = layer.book.recent.iter().filter(|(_, s)| s == member).count();
                    assert_eq!(tally.window as usize, entries, "{member:?}");
                }
                // Each sender's era count, member or not, is what the map
                // the table replaced holds.
                for sender in SENDERS {
                    let mapped = layer.book.delivered_from.get(&sender).copied().unwrap_or(0);
                    assert_eq!(layer.book.era_count(sender, &GROUP), mapped, "{sender:?}");
                }
                // And what a tick would show as the last switch is what the
                // handle recorded: flips move both, aborts and restarts
                // neither.
                let recorded = rig.handle.snapshot().records.last().map(|r| r.completed_at);
                assert_eq!(layer.last_switch, recorded);
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
                    assert_eq!(layer.book.era_count(sender, &GROUP), counted, "{sender:?}");
                    let mapped = layer.book.delivered_from.get(&sender).copied().unwrap_or(0);
                    assert_eq!(mapped, counted, "{sender:?}");
                }
                assert_eq!(layer.book.recent.len(), model.window, "observed as load");
                let held: Vec<u64> = layer.buffer.iter().map(|(_, _, b)| seq_of(b)).collect();
                assert_eq!(held, model.buffered.iter().map(|&(_, s)| s).collect::<Vec<_>>());
                assert_eq!(layer.absorb_other, model.absorbing);
            }
        }
    }

    fn seq_of(bytes: &Bytes) -> u64 {
        Message::peek_id(bytes).expect("buffered messages are whole").seq
    }
}
