//! The switching protocol's decisions (§2) as a state machine that runs no
//! stack: [`SpCore`] holds all SP state and acts through an [`SpHost`] as it
//! decides. `switch.rs` hosts it; a test hosts three over nothing at all.

use crate::control::{Control, CountVector, RingToken, TokenMode};
use crate::oracle::{Oracle, SwitchObs};
use crate::stats::{SwitchHandle, SwitchRecord};
use crate::switch::{SwitchConfig, SwitchVariant};
use ps_bytes::Bytes;
use ps_obs::SpPhase;
use ps_protocols::IdleBackoff;
use ps_simnet::{DetRng, SimTime};
use ps_stack::Cast;
use ps_trace::{Message, MsgId, ProcessId};
use ps_wire::Wire;
use std::collections::{BTreeMap, VecDeque};

/// What the SP asks of whatever hosts it: three queries and four effects.
pub(crate) trait SpHost {
    fn me(&self) -> ProcessId;
    fn group(&self) -> &[ProcessId];
    fn now(&self) -> SimTime;
    /// Hands an encoded message from `src` to the application.
    fn pass_up(&mut self, src: ProcessId, bytes: Bytes);
    fn send_control(&mut self, dest: Cast, bytes: Bytes);
    /// Arms a one-shot timer that comes back as [`SpCore::on_timer`]`(token)`.
    fn set_timer(&mut self, delay: SimTime, token: u32);
    fn phase(&mut self, phase: SpPhase, from: usize, to: usize);
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    Normal,
    Switching,
}

pub(crate) const OBSERVE: u32 = 1;
/// Timer tokens carry a kind in the top byte and a generation in the low
/// 24 bits (one-shot timers cannot be cancelled; a stale firing's
/// generation no longer matches and is ignored).
pub(crate) const FLAG_MASK: u32 = 0xFF00_0000;
const GEN_MASK: u32 = 0x00FF_FFFF;
/// Idle-token hold expiry (token variant).
const HOLD_FLAG: u32 = 0x8000_0000;
/// Switch-attempt abort deadline.
pub(crate) const ABORT_FLAG: u32 = 0x4000_0000;
/// Manager control-broadcast retransmission (broadcast variant).
const RETRANS_FLAG: u32 = 0x2000_0000;
/// Lost-token regeneration watchdog at the ring head (token variant).
const REGEN_FLAG: u32 = 0x1000_0000;

/// A sub-stack delivery not passed straight up: the source the sub-stack
/// names, the sender, and the encoded message, so no body is decoded.
pub(crate) type Delivered = (ProcessId, ProcessId, Bytes);

/// One member's line in the era book.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Tally {
    /// Its messages the current protocol delivered this era.
    era: u64,
    /// Entries of `recent` it sent: an active sender while above zero.
    pub(crate) window: u32,
}

/// `id`'s position in `group`. Every runtime lists a group in id order, so
/// the id is tried as the position first. An id off the wire — a sender, a
/// count vector's entry — is looked up this way, never used as an index.
fn position(group: &[ProcessId], id: ProcessId) -> Option<usize> {
    if group.get(id.index()) == Some(&id) {
        return Some(id.index());
    }
    group.iter().position(|&member| member == id)
}

/// The delivery side of the era bookkeeping, apart from the rest of the
/// core so that the current protocol's environment can write it.
#[derive(Default)]
pub(crate) struct EraBook {
    /// One tally per member, at its position in the group; sized at launch.
    pub(crate) tallies: Vec<Tally>,
    /// Era counts of senders that are no member: a message, or a count
    /// vector off the wire, may name any sender.
    strangers: BTreeMap<ProcessId, u64>,
    /// Recent deliveries, for the oracle's load observation.
    pub(crate) recent: VecDeque<(SimTime, ProcessId)>,
    /// Every sender's era count in one map: the tallies must agree with it.
    #[cfg(test)]
    pub(crate) delivered_from: BTreeMap<ProcessId, u64>,
}

impl EraBook {
    fn tally(&mut self, sender: ProcessId, group: &[ProcessId]) -> Option<&mut Tally> {
        position(group, sender).and_then(|slot| self.tallies.get_mut(slot))
    }

    /// Messages from `sender` the current protocol delivered this era.
    pub(crate) fn era_count(&self, sender: ProcessId, group: &[ProcessId]) -> u64 {
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

    /// Counts a delivery `from` a sender at `now` before it passes up: as
    /// load, and towards the era's drain if the current protocol made it
    /// (`era`). After an abort one from the other protocol is load alone:
    /// its sender zeroed its `sent_next` too.
    pub(crate) fn count(&mut self, from: ProcessId, era: bool, now: SimTime, group: &[ProcessId]) {
        #[cfg(test)]
        if era {
            *self.delivered_from.entry(from).or_insert(0) += 1;
        }
        match self.tally(from, group) {
            Some(tally) => {
                tally.era += u64::from(era);
                tally.window += 1;
            }
            None if era => *self.strangers.entry(from).or_insert(0) += 1,
            None => {}
        }
        self.recent.push_back((now, from));
    }

    /// [`EraBook::count`]s an encoded delivery and passes it up.
    fn pass_up(&mut self, (src, sender, bytes): Delivered, era: bool, host: &mut impl SpHost) {
        self.count(sender, era, host.now(), host.group());
        host.pass_up(src, bytes);
    }
}

/// One member's switching protocol, one method per input: a start, a send,
/// what a hosted protocol delivered, a control body, a timer.
pub(crate) struct SpCore {
    cfg: SwitchConfig,
    oracle: Box<dyn Oracle>,
    pub(crate) current: usize,
    pub(crate) era: u64,
    pub(crate) mode: Mode,
    /// Messages I sent over the current protocol this era.
    sent_current: u64,
    /// Messages I sent over the next protocol while switching.
    sent_next: u64,
    /// This era's deliveries, written by the current protocol's environment.
    pub(crate) book: EraBook,
    /// This process's switch state as [`SwitchHandle`]s show it.
    handle: SwitchHandle,
    /// The other protocol's deliveries, held back; drained in place.
    pub(crate) buffer: Vec<Delivered>,
    /// The SWITCH vector once `vector_known`; cleared, never dropped.
    expected: CountVector,
    vector_known: bool,
    switch_started: SimTime,
    /// When the last switch completed here, kept beside the handle so that
    /// an oracle tick reads it without taking the handle's lock.
    pub(crate) last_switch: Option<SimTime>,

    // Broadcast-variant manager state.
    am_manager: bool,
    manager_oks: BTreeMap<ProcessId, u64>,

    // Token-variant state.
    /// The protocol the oracle wished for. A wish is dropped if its switch
    /// has happened by the time a NORMAL token arrives (or a second
    /// initiator's stale wish would flip the group right back).
    want_target: Option<usize>,
    holding_flush: Option<RingToken>,
    held_token: Option<RingToken>,
    /// What the next token off the wire is read into: a token passed on or
    /// dropped gives its count vector back, so a hop does not allocate.
    token_counts: CountVector,
    hold_gen: u32,
    /// How long an idle NORMAL token is held here. Switch activity (a wish,
    /// a token in any other mode, a wake) is this ring's traffic.
    idle: IdleBackoff,
    /// Highest token generation seen; older tokens are stale and dropped.
    pub(crate) token_gen: u64,
    /// When this process last accepted a token (regeneration watchdog).
    last_token_at: SimTime,

    // Fault tolerance (abort / retransmission), both variants.
    /// The attempt round joined (broadcast variant; valid while switching).
    joined_round: u64,
    /// Highest round finished here, flipped or aborted: a PREPARE at or
    /// below it is a straggler from a dead attempt.
    pub(crate) done_round: u64,
    /// The latest broadcast of the attempt this member manages; `None` outside one.
    last_ctl: Option<Bytes>,
    /// Guards against re-broadcasting SWITCH on duplicate OKs.
    switch_sent: bool,
    /// Generations that tell live one-shot timers from stale ones.
    abort_gen: u32,
    retrans_gen: u32,
    /// Current retransmission backoff delay.
    retrans_delay: SimTime,
    /// After an abort the other protocol's deliveries pass straight up: there
    /// may never be a flip to release them. Cleared by the next attempt.
    pub(crate) absorb_other: bool,
    /// Retransmission jitter, apart from the node's stream so that backoff
    /// never perturbs application or protocol behaviour.
    rng: DetRng,
}

impl SpCore {
    /// A member in normal mode on protocol 0, reporting to `handle`.
    pub(crate) fn new(cfg: SwitchConfig, oracle: Box<dyn Oracle>, handle: SwitchHandle) -> Self {
        let idle_hold = match cfg.variant {
            SwitchVariant::TokenRing { idle_hold } => idle_hold,
            SwitchVariant::Broadcast => SimTime::ZERO,
        };
        Self {
            cfg,
            oracle,
            current: 0,
            era: 0,
            mode: Mode::Normal,
            sent_current: 0,
            sent_next: 0,
            book: EraBook::default(),
            handle,
            buffer: Vec::new(),
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
        }
    }

    /// The hosted stacks have launched, or restarted after a crash that
    /// killed every timer: arm them all, and resend what the crash may
    /// have burned. At launch the ring head mints the token.
    pub(crate) fn on_start(&mut self, launch: bool, host: &mut impl SpHost) {
        if launch {
            // Private jitter stream, seeded from identity only: deterministic
            // per process, independent of the node's main RNG stream.
            self.rng = DetRng::new(0x5317_C81A_F00D_u64 ^ u64::from(host.me().0));
        }
        host.set_timer(self.cfg.observe_interval, OBSERVE);
        if self.mode == Mode::Switching {
            // The attempt gets a fresh full deadline from recovery.
            self.arm_abort(host);
            if let Some(bytes) = self.last_ctl.clone() {
                // A manager's replies may have burned while it was down:
                // resend at once and restart the backoff schedule.
                self.send_ctl_broadcast(bytes, host);
            }
        }
        if self.held_token.is_some() {
            // We crashed while sitting on the idle token; without this the
            // ring would stall until regeneration. A token is only ever
            // held for a non-zero hold: re-arm the one that was in force.
            host.set_timer(self.idle.hold(), HOLD_FLAG | self.hold_gen);
        }
        if let SwitchVariant::TokenRing { .. } = self.cfg.variant {
            if launch && self.cfg.token_regen > SimTime::ZERO {
                // A sleeping rotation must not look like a lost token.
                let limit = SimTime::from_micros(self.cfg.token_regen.as_micros() / 2);
                self.idle.cap_rotation(host.group().len(), limit);
            }
            if host.me() == host.group()[0] {
                if launch {
                    self.handle_token(RingToken::normal(0), host);
                }
                self.arm_regen(host);
            }
        }
    }

    /// An application send: counted, and the protocol it goes out on
    /// returned — the next one while switching, so sends never block.
    pub(crate) fn on_send(&mut self) -> usize {
        let (target, sent) = match self.mode {
            Mode::Normal => (self.current, &mut self.sent_current),
            Mode::Switching => (1 - self.current, &mut self.sent_next),
        };
        *sent += 1;
        target
    }

    /// A hosted protocol returned outside the normal-mode fast path, having
    /// delivered `delivered` of the other protocol: held back until the
    /// flip (passed up at once after an abort). Then the flip, if drained.
    pub(crate) fn on_delivered(
        &mut self,
        delivered: impl Iterator<Item = Delivered>,
        host: &mut impl SpHost,
    ) {
        for d in delivered {
            if self.absorb_other {
                self.book.pass_up(d, false, host);
            } else {
                self.buffer.push(d);
                let depth = self.buffer.len();
                self.handle.update(|s| s.buffered_peak = s.buffered_peak.max(depth));
            }
        }
        self.try_flip(host);
    }

    /// The body of a control envelope `origin` sent.
    pub(crate) fn on_control(&mut self, origin: ProcessId, body: Bytes, host: &mut impl SpHost) {
        match self.cfg.variant {
            SwitchVariant::Broadcast => self.on_broadcast(origin, body, host),
            SwitchVariant::TokenRing { .. } => {
                let counts = std::mem::take(&mut self.token_counts);
                let mut token = RingToken { counts, ..RingToken::normal(0) };
                match token.read_from(&body) {
                    Ok(()) => self.handle_token(token, host),
                    Err(_) => self.recycle(token),
                }
            }
        }
    }

    pub(crate) fn on_timer(&mut self, token: u32, host: &mut impl SpHost) {
        if token == OBSERVE {
            self.observe(host);
            host.set_timer(self.cfg.observe_interval, OBSERVE);
            return;
        }
        match token & FLAG_MASK {
            HOLD_FLAG if token & GEN_MASK == self.hold_gen => self.release_held(host),
            ABORT_FLAG if token & GEN_MASK == self.abort_gen && self.mode == Mode::Switching => {
                self.abort(host);
            }
            RETRANS_FLAG if token & GEN_MASK == self.retrans_gen => self.on_retransmit_timer(host),
            REGEN_FLAG => self.on_regen_timer(host),
            _ => {}
        }
    }

    fn arm_abort(&mut self, host: &mut impl SpHost) {
        if self.cfg.phase_timeout > SimTime::ZERO {
            self.abort_gen = self.abort_gen.wrapping_add(1) & GEN_MASK;
            host.set_timer(self.cfg.phase_timeout, ABORT_FLAG | self.abort_gen);
        }
    }

    fn arm_regen(&mut self, host: &mut impl SpHost) {
        if self.cfg.token_regen > SimTime::ZERO {
            host.set_timer(self.cfg.token_regen, REGEN_FLAG);
        }
    }

    fn enter_switching(&mut self, host: &mut impl SpHost) {
        if self.mode == Mode::Normal {
            self.mode = Mode::Switching;
            self.switch_started = host.now();
            self.vector_known = false;
            self.absorb_other = false;
            self.handle.update(|s| s.switching = true);
            host.phase(SpPhase::PrepareSeen, self.current, 1 - self.current);
            self.arm_abort(host);
        }
    }

    /// Ends the attempt under way, flipped or `aborted`: normal mode, no
    /// attempt state. What this member sent over the next protocol leaves
    /// the era accounting (a flip has moved it to `sent_current` first).
    fn end_attempt(&mut self, aborted: bool) {
        self.mode = Mode::Normal;
        self.sent_next = 0;
        self.vector_known = false;
        self.am_manager = false;
        self.manager_oks.clear();
        self.last_ctl = None;
        self.switch_sent = false;
        self.absorb_other = aborted;
        self.done_round = self.done_round.max(self.joined_round);
    }

    /// Gives up on the attempt: back to the old protocol, anything held back
    /// released, no attempt state left. The era does **not** advance: eras
    /// count completed switches, so members that never saw this attempt
    /// (the far side of a partition) agree with members that aborted it.
    fn abort(&mut self, host: &mut impl SpHost) {
        host.phase(SpPhase::Aborted, self.current, 1 - self.current);
        // Receivers absorb what this member sent over the next protocol
        // the same way (`EraBook::count`).
        self.end_attempt(true);
        self.want_target = None;
        if let Some(token) = self.holding_flush.take() {
            self.recycle(token);
        }
        // Invalidate any token from the dead attempt that is still
        // circulating; regeneration will mint a successor generation.
        self.token_gen += 1;
        for d in self.buffer.drain(..) {
            self.book.pass_up(d, false, host);
        }
        self.handle.update(|s| {
            s.switching = false;
            s.aborted += 1;
        });
    }

    /// Takes `vector` as the attempt's SWITCH vector, copied into the
    /// capacity the last one left.
    fn expect(&mut self, vector: &[(ProcessId, u64)]) {
        self.expected.clear();
        self.expected.extend_from_slice(vector);
        self.vector_known = true;
    }

    /// Flips to the new protocol if the SWITCH vector is satisfied.
    fn try_flip(&mut self, host: &mut impl SpHost) {
        if self.mode != Mode::Switching || !self.vector_known {
            return;
        }
        let group = host.group();
        let drained = self.expected.iter().all(|&(q, c)| self.book.era_count(q, group) >= c);
        if !drained {
            return;
        }
        host.phase(SpPhase::DrainComplete, self.current, 1 - self.current);
        let from = self.current;
        self.current = 1 - self.current;
        self.era += 1;
        self.sent_current = self.sent_next;
        self.end_attempt(false);
        self.book.next_era();
        let record = SwitchRecord {
            from,
            to: self.current,
            started_at: self.switch_started,
            completed_at: host.now(),
        };
        self.last_switch = Some(record.completed_at);
        self.handle.update(|s| {
            s.records.push(record);
            s.switching = false;
            s.current = 1 - from;
        });
        host.phase(SpPhase::Flip, from, self.current);
        if self.cfg.announce_views {
            // §8: the switch *is* a view change. Every member delivers the
            // same messages per era, so announcing the era boundary as a
            // view, identically everywhere, makes the trace virtually
            // synchronous.
            let group = host.group();
            let vm = Message::view_change(
                group[0],
                MsgId::CONTROL_SEQ_BASE + self.era,
                self.era,
                group.to_vec(),
            );
            host.pass_up(vm.id.sender, vm.into_bytes());
        }
        // Release the buffer — these are new-era deliveries.
        for d in self.buffer.drain(..) {
            self.book.pass_up(d, true, host);
        }
        host.phase(SpPhase::BufferRelease, from, self.current);
        // Token variant: a FLUSH held for our drain can move on now.
        if let Some(token) = self.holding_flush.take() {
            self.forward_token(token, host);
        }
    }

    // ---- broadcast variant ---------------------------------------------------

    fn initiate_broadcast(&mut self, host: &mut impl SpHost) {
        self.joined_round = self.done_round + 1;
        self.enter_switching(host);
        self.am_manager = true;
        self.handle.update(|s| s.initiated += 1);
        let msg = Control::Prepare { era: self.era + 1, round: self.joined_round };
        self.send_ctl_broadcast(msg.to_bytes(), host);
    }

    /// (Re)sends the manager's latest control broadcast and arms the next
    /// retransmission with exponential backoff plus jitter.
    fn send_ctl_broadcast(&mut self, bytes: Bytes, host: &mut impl SpHost) {
        self.last_ctl = Some(bytes.clone());
        host.send_control(Cast::All, bytes);
        self.retrans_delay = self.cfg.retransmit_base;
        self.arm_retransmit(host);
    }

    fn arm_retransmit(&mut self, host: &mut impl SpHost) {
        if self.retrans_delay == SimTime::ZERO {
            return;
        }
        let jitter = self.rng.jitter(SimTime::from_micros(self.retrans_delay.as_micros() / 4));
        self.retrans_gen = self.retrans_gen.wrapping_add(1) & GEN_MASK;
        host.set_timer(self.retrans_delay + jitter, RETRANS_FLAG | self.retrans_gen);
    }

    /// Resends the manager's latest broadcast, if an attempt it manages
    /// is still under way.
    fn on_retransmit_timer(&mut self, host: &mut impl SpHost) {
        let Some(bytes) = self.last_ctl.clone() else { return };
        host.send_control(Cast::All, bytes);
        let doubled = SimTime::from_micros(self.retrans_delay.as_micros().saturating_mul(2));
        self.retrans_delay = doubled.min(self.cfg.retransmit_max);
        self.arm_retransmit(host);
    }

    fn on_broadcast(&mut self, src: ProcessId, bytes: Bytes, host: &mut impl SpHost) {
        let Ok(msg) = Control::from_bytes(&bytes) else { return };
        match msg {
            Control::Prepare { era, round } => {
                // A round at or below `done_round` is a straggler from an
                // attempt finished here: joining it would corrupt the era.
                if era != self.era + 1 || round <= self.done_round {
                    return;
                }
                if self.mode == Mode::Switching && round != self.joined_round {
                    return; // already committed to a different attempt
                }
                self.joined_round = round;
                self.enter_switching(host);
                // A duplicate PREPARE (a retransmission) re-sends the OK:
                // the first may have been lost.
                let ok = Control::Ok { era, round, member: host.me(), count: self.sent_current };
                host.send_control(Cast::To(src), ok.to_bytes());
            }
            Control::Ok { era, round, member, count } => {
                if !self.am_manager || era != self.era + 1 || round != self.joined_round {
                    return;
                }
                self.manager_oks.insert(member, count);
                let all_ok = host.group().iter().all(|m| self.manager_oks.contains_key(m));
                if !self.switch_sent && all_ok {
                    let vector = self.manager_oks.iter().map(|(&p, &c)| (p, c)).collect();
                    let sw = Control::Switch { era, round, vector };
                    self.switch_sent = true;
                    self.send_ctl_broadcast(sw.to_bytes(), host);
                }
            }
            Control::Switch { era, round, vector } => {
                if era != self.era + 1 || self.mode != Mode::Switching || round != self.joined_round
                {
                    return;
                }
                self.expect(&vector);
                self.try_flip(host);
            }
        }
    }

    // ---- token variant -------------------------------------------------------

    /// Ring-head watchdog: no token seen for a full regeneration interval
    /// while idle means it died with a crashed node, so a replacement of a
    /// higher generation is minted. Armed only when regeneration is on.
    fn on_regen_timer(&mut self, host: &mut impl SpHost) {
        self.arm_regen(host);
        let quiet = host.now().saturating_sub(self.last_token_at);
        if self.mode == Mode::Normal
            && self.held_token.is_none()
            && self.holding_flush.is_none()
            && quiet >= self.cfg.token_regen
        {
            self.token_gen += 1;
            let token = RingToken { gen: self.token_gen, ..RingToken::normal(self.era) };
            self.handle_token(token, host);
        }
    }

    fn forward_token(&mut self, token: RingToken, host: &mut impl SpHost) {
        let group = host.group();
        let at = position(group, host.me()).expect("a member of its own group");
        host.send_control(Cast::To(group[(at + 1) % group.len()]), token.to_bytes());
        self.recycle(token);
    }

    /// Takes back the count vector of a token passed on or dropped, for the
    /// next token off the wire, unless the one it has has more room.
    fn recycle(&mut self, token: RingToken) {
        if token.counts.capacity() > self.token_counts.capacity() {
            self.token_counts = token.counts;
        }
    }

    /// Is this token I initiated still the attempt under way? False once I
    /// aborted: the era did not advance, so its `era + 1` stamp alone
    /// cannot tell a live attempt from a dead one.
    fn my_live_attempt(&self, token: &RingToken) -> bool {
        self.mode == Mode::Switching && token.era == self.era + 1
    }

    /// Lets go of a held idle token: seized if a wish is pending, passed
    /// on otherwise.
    fn release_held(&mut self, host: &mut impl SpHost) {
        if let Some(token) = self.held_token.take() {
            if self.want_target.is_some() {
                self.handle_token(token, host);
            } else {
                self.forward_token(token, host);
            }
        }
    }

    fn handle_token(&mut self, mut token: RingToken, host: &mut impl SpHost) {
        if token.mode == TokenMode::Wake {
            // Not a token: some member has a wish and the ring may be
            // asleep. Whoever sits on the NORMAL token passes it on now.
            self.idle.traffic(host.now());
            self.release_held(host);
            return self.recycle(token);
        }
        // Generation fencing: a regenerated token obsoletes any older one
        // still circulating (or any token from an attempt we aborted).
        if token.gen < self.token_gen {
            return self.recycle(token);
        }
        self.token_gen = token.gen;
        self.last_token_at = host.now();
        if token.mode != TokenMode::Normal {
            self.idle.traffic(host.now());
        }
        let me = host.me();
        match token.mode {
            TokenMode::Wake => {} // handled above, ahead of the fence
            TokenMode::Normal => {
                let wanted = self.want_target.take().filter(|&t| t != self.current);
                if wanted.is_some() && self.mode == Mode::Normal {
                    self.enter_switching(host);
                    self.handle.update(|s| s.initiated += 1);
                    token.mode = TokenMode::Prepare;
                    token.era = self.era + 1;
                    token.initiator = me;
                    token.counts.clear();
                    token.counts.push((me, self.sent_current));
                    self.forward_token(token, host);
                    return;
                }
                let hold = self.idle.idle_visit();
                if hold > SimTime::ZERO {
                    self.held_token = Some(token);
                    self.hold_gen = self.hold_gen.wrapping_add(1) & GEN_MASK;
                    host.set_timer(hold, HOLD_FLAG | self.hold_gen);
                } else {
                    self.forward_token(token, host);
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
                    self.forward_token(token, host);
                    self.try_flip(host);
                } else {
                    if token.era != self.era + 1 {
                        return self.recycle(token); // stale
                    }
                    self.enter_switching(host);
                    if !token.counts.iter().any(|&(p, _)| p == me) {
                        token.counts.push((me, self.sent_current));
                    }
                    self.forward_token(token, host);
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
                        self.forward_token(token, host);
                    } else {
                        self.holding_flush = Some(token);
                    }
                } else {
                    if token.era != self.era + 1 || self.mode != Mode::Switching {
                        // Stale, or of an aborted attempt: don't resurrect it.
                        return self.recycle(token);
                    }
                    self.expect(&token.counts);
                    self.forward_token(token, host);
                    self.try_flip(host);
                }
            }
            TokenMode::Flush => {
                if token.initiator == me {
                    if token.era != self.era && !self.my_live_attempt(&token) {
                        return self.recycle(token); // flush of an attempt we aborted
                    }
                    // Third rotation complete: the switch is done everywhere.
                    // Back to an idle token, with the vector's room kept.
                    let mut counts = token.counts;
                    counts.clear();
                    let idle = RingToken { gen: token.gen, counts, ..RingToken::normal(self.era) };
                    self.handle_token(idle, host);
                } else if self.mode == Mode::Normal {
                    self.forward_token(token, host);
                } else {
                    self.holding_flush = Some(token);
                }
            }
        }
    }

    // ---- oracle --------------------------------------------------------------

    fn observe(&mut self, host: &mut impl SpHost) {
        let now = host.now();
        self.book.prune(now.saturating_sub(self.cfg.observe_window), host.group());
        let obs = SwitchObs {
            now,
            current: self.current,
            active_senders: self.book.active_senders(),
            recent_deliveries: self.book.recent.len() as u64,
            switching: self.mode == Mode::Switching,
            last_switch: self.last_switch,
        };
        let wish = self.oracle.decide(&obs).filter(|&target| target != self.current);
        let (Some(target), Mode::Normal) = (wish, self.mode) else { return };
        match self.cfg.variant {
            SwitchVariant::Broadcast => self.initiate_broadcast(host),
            SwitchVariant::TokenRing { .. } => {
                // An oracle may repeat its wish at every tick; only the
                // first asks the ring to wake.
                let first = self.want_target.replace(target).is_none();
                if self.held_token.is_some() {
                    // Sitting on the idle token: use it now.
                    self.release_held(host);
                } else if first && self.idle.may_sleep(now, host.group().len()) {
                    host.send_control(Cast::Others, RingToken::wake().to_bytes());
                }
                self.idle.traffic(now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::NeverOracle;
    use ps_check::prelude::*;

    impl EraBook {
        /// What the window counts replaced and must agree with: every
        /// member looked for in the whole window.
        pub(crate) fn active_senders_by_scan(&self, group: &[ProcessId]) -> usize {
            let sent = |member| self.recent.iter().any(|&(_, sender)| sender == member);
            group.iter().filter(|&&member| sent(member)).count()
        }
    }

    impl SpCore {
        /// The SP's invariants, which hold between any two inputs.
        pub(crate) fn check_invariants(&self) {
            let switching = self.mode == Mode::Switching;
            assert!(!self.vector_known || switching, "a SWITCH vector outside a switch");
            assert!(self.holding_flush.is_none() || switching, "a FLUSH held outside a switch");
            assert!(!self.absorb_other || self.buffer.is_empty(), "held back while absorbing");
            let managing = switching && self.am_manager;
            assert!(self.last_ctl.is_none() || managing, "a broadcast kept outside its attempt");
            // At-most-once delivery: no sender's old-protocol messages were
            // delivered beyond the count it reported sending.
            for &(sender, sent) in self.expected.iter().filter(|_| self.vector_known) {
                let delivered = self.book.delivered_from.get(&sender).copied().unwrap_or(0);
                assert!(delivered <= sent, "{sender:?}: {delivered} delivered of {sent} sent");
            }
        }
    }

    const GROUP: [ProcessId; 3] = [ProcessId(0), ProcessId(1), ProcessId(2)];

    /// Wants protocol 1 at every tick.
    struct WantsOne;

    impl Oracle for WantsOne {
        fn decide(&mut self, _obs: &SwitchObs) -> Option<usize> {
            Some(1)
        }
    }

    /// Everything outside three cores: what is in flight between them, what
    /// each passed up, and the timers each armed.
    #[derive(Default)]
    struct World {
        now: SimTime,
        /// Control bodies in flight: (to, from, body).
        control: Vec<(usize, ProcessId, Bytes)>,
        /// Application messages in flight: (to, protocol, seq).
        data: Vec<(usize, usize, u64)>,
        /// Every message sent, by seq: its sender and the protocol it took.
        sent: Vec<(ProcessId, usize)>,
        /// What each member passed up, by seq, in order.
        up: [Vec<u64>; 3],
        /// Timer tokens each member armed that have not fired.
        timers: [Vec<u32>; 3],
    }

    /// Member `me`'s host: its effects land in the world.
    struct Fake<'a> {
        me: usize,
        world: &'a mut World,
    }

    impl SpHost for Fake<'_> {
        fn me(&self) -> ProcessId {
            GROUP[self.me]
        }
        fn group(&self) -> &[ProcessId] {
            &GROUP
        }
        fn now(&self) -> SimTime {
            self.world.now
        }
        fn pass_up(&mut self, _src: ProcessId, bytes: Bytes) {
            let id = Message::peek_id(&bytes).expect("only whole messages pass up");
            self.world.up[self.me].push(id.seq);
        }
        fn send_control(&mut self, dest: Cast, body: Bytes) {
            for (to, &member) in GROUP.iter().enumerate() {
                let sent = match dest {
                    Cast::All => true,
                    Cast::Others => to != self.me,
                    Cast::To(p) => p == member,
                };
                if sent {
                    self.world.control.push((to, GROUP[self.me], body.clone()));
                }
            }
        }
        fn set_timer(&mut self, _delay: SimTime, token: u32) {
            self.world.timers[self.me].push(token);
        }
        fn phase(&mut self, _phase: SpPhase, _from: usize, _to: usize) {}
    }

    /// Three cores and the world between them.
    struct Group {
        cores: Vec<SpCore>,
        world: World,
        /// The abort deadline has passed: the members have stopped sending
        /// and their oracles are not asked again, as the chaos matrix
        /// quiesces its workload before a partition. A member that sends
        /// on after its abort is a known defect, which
        /// `an_aborted_member_that_sends_on_is_heard_by_all` shows
        /// (docs/faults.md, "A split outcome").
        deadline: bool,
    }

    impl Group {
        fn new(variant: SwitchVariant, initiator: usize) -> Self {
            let cfg = SwitchConfig { variant, ..SwitchConfig::default() };
            let oracle = |i| -> Box<dyn Oracle> {
                if i == initiator {
                    Box::new(WantsOne)
                } else {
                    Box::new(NeverOracle)
                }
            };
            let cores = (0..3).map(|i| SpCore::new(cfg.clone(), oracle(i), SwitchHandle::new()));
            let mut group =
                Self { cores: cores.collect(), world: World::default(), deadline: false };
            for i in 0..3 {
                group.input(i, |core, host| core.on_start(true, host));
            }
            group
        }

        fn input(&mut self, i: usize, f: impl FnOnce(&mut SpCore, &mut Fake<'_>)) {
            self.world.now += SimTime::from_micros(100);
            f(&mut self.cores[i], &mut Fake { me: i, world: &mut self.world });
        }

        /// Member `i` sends: to every member, on the protocol its core picks.
        fn send(&mut self, i: usize) {
            let proto = self.cores[i].on_send();
            let seq = self.world.sent.len() as u64;
            self.world.sent.push((GROUP[i], proto));
            self.world.data.extend((0..3).map(|to| (to, proto, seq)));
        }

        /// In-flight message `k` is delivered by its protocol: what the switch
        /// layer does with it — the current protocol's counted and passed up
        /// at once, another's handed to the core — and the core's turn while
        /// it is switching.
        fn deliver(&mut self, k: usize) {
            let (to, proto, seq) = self.world.data.remove(k);
            let sender = self.world.sent[seq as usize].0;
            let bytes = Message::with_tag(sender, seq, 0).to_bytes();
            self.input(to, |core, host| {
                if proto != core.current {
                    core.on_delivered(std::iter::once((sender, sender, bytes)), host);
                    return;
                }
                core.book.count(sender, true, host.now(), &GROUP);
                host.pass_up(sender, bytes);
                if core.mode == Mode::Switching {
                    core.on_delivered(std::iter::empty(), host);
                }
            });
        }

        fn control(&mut self, k: usize) {
            let (to, from, body) = self.world.control.remove(k);
            self.input(to, |core, host| core.on_control(from, body, host));
        }

        /// Fires the armed timer `k` of member `i`.
        fn fire(&mut self, i: usize, k: usize) {
            let token = self.world.timers[i].remove(k);
            if !(self.deadline && token == OBSERVE) {
                self.input(i, |core, host| core.on_timer(token, host));
            }
        }

        /// The deadline of the attempt member `i` joined, if any, passes.
        fn abort(&mut self, i: usize) {
            let armed = self.world.timers[i].iter().rposition(|t| t & FLAG_MASK == ABORT_FLAG);
            if let Some(k) = armed {
                self.deadline = true;
                self.fire(i, k);
            }
        }

        /// After every step: the invariants; one vector, the true one, at
        /// every member that flipped; §2's guarantee at every member that
        /// did not give up — no flip and nothing of the new protocol passes
        /// up before all of the old one has, nothing passes up twice; and
        /// one token on the ring.
        fn check(&self) {
            let old = |q: ProcessId| self.world.sent.iter().filter(|&&s| s == (q, 0)).count();
            let truth: CountVector = GROUP.iter().map(|&q| (q, old(q) as u64)).collect();
            for (i, core) in self.cores.iter().enumerate() {
                core.check_invariants();
                if core.era > 0 {
                    let mut vector = core.expected.clone();
                    vector.sort_unstable();
                    assert_eq!((core.era, &vector), (1, &truth), "member {i} flipped on it");
                }
                // An aborted member absorbs: outside §2 (docs/faults.md).
                if core.handle.aborted() > 0 {
                    continue;
                }
                let mut passed = [0u64; 3];
                let mut seen = vec![false; self.world.sent.len()];
                for &seq in &self.world.up[i] {
                    assert!(!std::mem::replace(&mut seen[seq as usize], true), "{seq} twice");
                    let (sender, proto) = self.world.sent[seq as usize];
                    if proto == 0 {
                        passed[sender.index()] += 1;
                        continue;
                    }
                    assert_eq!(core.era, 1, "member {i} passed new {seq} up before its flip");
                }
                let drained = truth.iter().all(|&(q, c)| passed[q.index()] >= c);
                assert!(core.era == 0 || drained, "member {i} flipped at {passed:?} of {truth:?}");
            }
            // One token on the SP ring, in flight or held: never two of the
            // newest generation, and exactly one while nobody has aborted.
            if let SwitchVariant::TokenRing { .. } = self.cores[0].cfg.variant {
                let sent =
                    self.world.control.iter().map(|(_, _, body)| RingToken::from_bytes(body));
                let sent = sent.map(|token| token.expect("whole tokens only"));
                let held = self.cores.iter().flat_map(|c| [&c.held_token, &c.holding_flush]);
                let tokens =
                    sent.chain(held.flatten().cloned()).filter(|t| t.mode != TokenMode::Wake);
                let gens: Vec<u64> = tokens.map(|token| token.gen).collect();
                let newest =
                    gens.iter().max().map_or(0, |&g| gens.iter().filter(|&&x| x == g).count());
                assert!(newest <= 1, "{newest} tokens of generation {:?}", gens.iter().max());
                if self.cores.iter().all(|core| core.handle.aborted() == 0) {
                    assert_eq!(gens.len(), 1, "one token on the ring");
                }
            }
        }
    }

    /// One member's deadline passes after it reported its count; the
    /// others flip, and it goes on sending over the old protocol. Those
    /// messages are the other protocol's at the members that flipped, and
    /// no flip is coming there to release them.
    #[test]
    #[ignore = "known defect: a split outcome holds back the aborted member's later sends \
                (docs/faults.md, \"A split outcome\")"]
    fn an_aborted_member_that_sends_on_is_heard_by_all() {
        let mut group = Group::new(SwitchVariant::Broadcast, 0);
        group.input(0, |core, host| core.on_timer(OBSERVE, host));
        for _ in 0..3 {
            group.control(0); // the PREPAREs: three OKs go to member 0
        }
        group.abort(2);
        while !group.world.control.is_empty() {
            group.control(0); // the OKs, then the SWITCH member 2 ignores
        }
        assert_eq!(group.cores.iter().map(|core| core.era).collect::<Vec<_>>(), [1, 1, 0]);
        group.send(2);
        while !group.world.data.is_empty() {
            group.deliver(0);
        }
        for (i, up) in group.world.up.iter().enumerate() {
            assert_eq!(up, &[0], "member {i} passed member 2's message up");
        }
    }

    props! {
        #![config(cases = 1024)]

        /// §2 on three cores and no simulator: one switch from a generated
        /// initiator, in either variant, with control bodies and messages
        /// delivered in a generated order, timers firing between them and
        /// possibly one member's abort deadline passing — after which
        /// nobody sends, so an aborted attempt is checked only for what
        /// was sent before its deadline. After every step the cores'
        /// invariants hold, every member that flips does so on the same
        /// vector — what each member sent over the old protocol — no member
        /// that did not abort flips, or passes a new-protocol message up,
        /// before its old-protocol counts meet that vector, and the ring
        /// carries one token. Delivering what is left then completes the
        /// switch everywhere, unless a member aborted, with every message
        /// passed up once.
        fn three_cores_flip_on_one_vector_and_deliver_the_old_protocol_first(
            variant in 0usize..2,
            initiator in 0usize..3,
            steps in vec_of((0u8..6, 0usize..1 << 16), 0..80),
            abort in (0usize..4, 0usize..80),
        ) {
            let ring = SwitchVariant::TokenRing { idle_hold: SimTime::from_millis(1) };
            let mut group = Group::new([SwitchVariant::Broadcast, ring][variant], initiator);
            let (aborting, at) = abort;
            let steps_len = steps.len();
            for (step, (kind, pick)) in steps.into_iter().enumerate() {
                if step == at && aborting < 3 {
                    group.abort(aborting);
                }
                let (data, control) = (group.world.data.len(), group.world.control.len());
                let member = pick % 3;
                let armed = group.world.timers[member].len();
                match kind {
                    0 if !group.deadline => group.send(member),
                    1 | 2 if data > 0 => group.deliver(pick % data),
                    3 | 4 if control > 0 => group.control(pick % control),
                    5 if armed > 0 => {
                        let k = (pick / 3) % armed;
                        if group.world.timers[member][k] & FLAG_MASK != ABORT_FLAG {
                            group.fire(member, k);
                        }
                    }
                    _ => {}
                }
                group.check();
            }
            // The rest in order: the deadline if it has not come yet, the
            // initiator's wish if no tick asked, then everything in flight,
            // turning the ring while a switch is wanted or under way.
            if aborting < 3 && at >= steps_len {
                group.abort(aborting);
            }
            let idle = |core: &SpCore| core.mode == Mode::Normal && core.want_target.is_none();
            if !group.deadline && group.cores[initiator].era == 0 && idle(&group.cores[initiator]) {
                group.input(initiator, |core, host| core.on_timer(OBSERVE, host));
            }
            for _ in 0..10_000 {
                let busy = !group.cores.iter().all(idle);
                let hold = |t: &u32| t & FLAG_MASK == HOLD_FLAG;
                let timers = &group.world.timers;
                let held = (0..3).find_map(|i| Some((i, timers[i].iter().position(hold)?)));
                match held {
                    _ if !group.world.control.is_empty() => group.control(0),
                    _ if !group.world.data.is_empty() => group.deliver(0),
                    Some((i, k)) if busy => group.fire(i, k),
                    _ => break,
                }
                group.check();
            }
            if group.cores.iter().all(|core| core.handle.aborted() == 0) {
                let all: Vec<u64> = (0..group.world.sent.len() as u64).collect();
                for (i, core) in group.cores.iter().enumerate() {
                    assert_eq!((core.era, core.mode), (1, Mode::Normal), "member {i} switched");
                    let mut up = group.world.up[i].clone();
                    up.sort_unstable();
                    assert_eq!(up, all, "member {i} passed every message up");
                }
            }
        }
    }
}
