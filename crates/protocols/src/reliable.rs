use ps_bytes::Bytes;
use ps_simnet::SimTime;
use ps_stack::{Cast, Frame, Layer, LayerCtx};
use ps_trace::ProcessId;
use ps_wire::{Decoder, Encoder, Wire, WireError};
use std::collections::{BTreeSet, HashMap, VecDeque};

/// Tuning for [`ReliableLayer`].
#[derive(Debug, Clone)]
pub struct ReliableConfig {
    /// Interval between retransmission sweeps while frames are unacked.
    pub retransmit_interval: SimTime,
}

impl Default for ReliableConfig {
    fn default() -> Self {
        Self { retransmit_interval: SimTime::from_millis(20) }
    }
}

/// Reliable exactly-once multicast: positive acks, retransmission, and
/// duplicate suppression.
///
/// This provides the assumptions the switching protocol states in §2: "all
/// messages that are delivered were sent … messages are delivered at most
/// once. If switches are supposed to complete (liveness), messages have to
/// be delivered exactly once." Compose it under any protocol that must
/// survive a lossy network.
///
/// Delivery is unordered; stack a [`crate::FifoLayer`] above it when
/// per-sender order matters.
///
/// The books are kept by position, not by key: sequence numbers are dense,
/// so an unacknowledged frame sits in a ring at `seq − base`, and the
/// group is static, so who still owes an acknowledgement is a set of bits
/// over member positions and what each member has sent is a slot per
/// position. A process id that arrives in a frame — a header's `sender`,
/// the `src` of an acknowledgement — or in a [`Cast::To`] is *looked up*
/// in the group, never used as an index; one that is no member owes
/// nothing, acknowledges nothing, and is de-duplicated through a map.
#[derive(Debug)]
pub struct ReliableLayer {
    config: ReliableConfig,
    /// Sequence number of `outbound[0]`; the next one to assign is
    /// `base + outbound.len()`.
    base: u64,
    /// Sent frames from the oldest unacknowledged one on, by `seq − base`.
    /// A frame acknowledged while an older one is not stays as a spent
    /// slot until it reaches the front, so the front is never spent.
    outbound: VecDeque<Outbound>,
    /// Seen/delivered bookkeeping per sender, by the sender's position in
    /// the group (sized at the first arrival).
    inbound: Vec<Seen>,
    /// The same for senders that are no members.
    strangers: HashMap<ProcessId, Seen>,
    timer_armed: bool,
    /// Total retransmitted copies (observable for tests/experiments).
    pub retransmissions: u64,
}

#[derive(Debug)]
struct Outbound {
    /// The frame as first sent, header included: a retransmission resends
    /// these bytes, it does not re-encode them. Dropped with the last
    /// acknowledgement, wherever in the ring the slot then is.
    wrapped: Bytes,
    /// Receivers that have not acknowledged yet. The slot is spent when
    /// this is empty.
    owing: Owing,
}

/// A set of group members, as bits over their positions in the group.
#[derive(Debug, Default)]
struct Owing {
    /// Positions `0..64`.
    word: u64,
    /// Positions from 64 on, a word per 64: empty, and never allocated,
    /// in a group of up to 64.
    spill: Vec<u64>,
}

impl Owing {
    /// The first `n` positions: the whole of a group of `n`.
    fn first(n: usize) -> Self {
        let ones = |bits: usize| if bits >= 64 { u64::MAX } else { (1 << bits) - 1 };
        Owing { word: ones(n), spill: (1..n.div_ceil(64)).map(|w| ones(n - 64 * w)).collect() }
    }

    /// The members `dest` addresses. A `To` that names no member addresses
    /// none: nobody owes an acknowledgement for that frame.
    fn addressed(dest: Cast, me: ProcessId, group: &[ProcessId]) -> Self {
        match dest {
            Cast::All => Owing::first(group.len()),
            Cast::Others => {
                let mut owing = Owing::first(group.len());
                if let Some(at) = position(group, me) {
                    owing.remove(at);
                }
                owing
            }
            Cast::To(p) => {
                let mut owing = Owing::default();
                if let Some(at) = position(group, p) {
                    owing.insert(at);
                }
                owing
            }
        }
    }

    fn insert(&mut self, at: usize) {
        let word = match at / 64 {
            0 => &mut self.word,
            w => {
                self.spill.resize(self.spill.len().max(w), 0);
                &mut self.spill[w - 1]
            }
        };
        *word |= 1 << (at % 64);
    }

    /// Takes position `at` out; `false` if it was not in.
    fn remove(&mut self, at: usize) -> bool {
        let word = match at / 64 {
            0 => Some(&mut self.word),
            w => self.spill.get_mut(w - 1),
        };
        let bit = 1 << (at % 64);
        word.is_some_and(|word| {
            let was = *word & bit != 0;
            *word &= !bit;
            was
        })
    }

    fn is_empty(&self) -> bool {
        self.word == 0 && self.spill.iter().all(|&word| word == 0)
    }

    /// The positions in the set, ascending.
    fn positions(&self) -> impl Iterator<Item = usize> + '_ {
        let words = std::iter::once(self.word).chain(self.spill.iter().copied());
        words.enumerate().flat_map(|(w, mut bits)| {
            std::iter::from_fn(move || {
                let at = (bits != 0).then(|| bits.trailing_zeros() as usize)?;
                bits &= bits - 1;
                Some(64 * w + at)
            })
        })
    }
}

/// Where `id` sits in the group, if it is a member.
fn position(group: &[ProcessId], id: ProcessId) -> Option<usize> {
    group.iter().position(|&member| member == id)
}

/// Compact received-set: a low watermark plus a sparse tail.
#[derive(Debug, Default)]
struct Seen {
    /// All seqs `< low` have been delivered.
    low: u64,
    tail: BTreeSet<u64>,
}

impl Seen {
    fn insert(&mut self, seq: u64) -> bool {
        if seq == self.low && self.tail.is_empty() {
            // In-order arrival: the watermark moves, the tail is untouched.
            self.low += 1;
            return true;
        }
        if seq < self.low || !self.tail.insert(seq) {
            return false;
        }
        while self.tail.remove(&self.low) {
            self.low += 1;
        }
        true
    }
}

#[derive(Debug, PartialEq)]
enum RelHeader {
    Data { sender: ProcessId, seq: u64 },
    Ack { seq: u64 },
}

impl Wire for RelHeader {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            RelHeader::Data { sender, seq } => {
                enc.put_u8(0);
                sender.encode(enc);
                enc.put_varint(*seq);
            }
            RelHeader::Ack { seq } => {
                enc.put_u8(1);
                enc.put_varint(*seq);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        match dec.get_u8()? {
            0 => Ok(RelHeader::Data { sender: ProcessId::decode(dec)?, seq: dec.get_varint()? }),
            1 => Ok(RelHeader::Ack { seq: dec.get_varint()? }),
            tag => Err(WireError::InvalidTag { tag: tag.into(), ty: "RelHeader" }),
        }
    }
}

const SWEEP: u32 = 1;

impl ReliableLayer {
    /// Creates the layer with default tuning.
    pub fn new() -> Self {
        Self::with_config(ReliableConfig::default())
    }

    /// Creates the layer with explicit tuning.
    pub fn with_config(config: ReliableConfig) -> Self {
        Self {
            config,
            base: 0,
            outbound: VecDeque::new(),
            inbound: Vec::new(),
            strangers: HashMap::new(),
            timer_armed: false,
            retransmissions: 0,
        }
    }

    fn arm(&mut self, ctx: &mut LayerCtx<'_>) {
        if !self.timer_armed {
            self.timer_armed = true;
            ctx.set_timer(self.config.retransmit_interval, SWEEP);
        }
    }

    /// The received-set of `sender`: its slot if it is a member, an entry
    /// of the fallback map if not.
    fn seen(&mut self, sender: ProcessId, group: &[ProcessId]) -> &mut Seen {
        match position(group, sender) {
            Some(at) => {
                if self.inbound.len() < group.len() {
                    self.inbound.resize_with(group.len(), Seen::default);
                }
                &mut self.inbound[at]
            }
            None => self.strangers.entry(sender).or_default(),
        }
    }

    /// Pops the spent slots off the front of the ring.
    fn retire(&mut self) {
        while self.outbound.front().is_some_and(|out| out.owing.is_empty()) {
            self.outbound.pop_front();
            self.base += 1;
        }
    }
}

impl Default for ReliableLayer {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for ReliableLayer {
    fn name(&self) -> &'static str {
        "reliable"
    }

    fn on_restart(&mut self, ctx: &mut LayerCtx<'_>) {
        // The sweep timer died with the crashed incarnation. Outbound
        // frames survive (stable storage); resume retransmitting anything
        // still unacknowledged.
        self.timer_armed = false;
        if !self.outbound.is_empty() {
            self.arm(ctx);
        }
    }

    fn on_down(&mut self, frame: Frame, ctx: &mut LayerCtx<'_>) {
        let me = ctx.me();
        let seq = self.base + self.outbound.len() as u64;
        // Push before retaining: the frame is still uniquely owned here, so
        // the header goes into its reserve without a copy.
        let wrapped = ps_wire::push_header(&RelHeader::Data { sender: me, seq }, frame.bytes);
        let owing = Owing::addressed(frame.dest, me, ctx.group_slice());
        // Nobody to wait for (`Others` in a group of one, a `To` that names
        // no member): sent once, with nothing kept to send again.
        let retained = if owing.is_empty() { Bytes::new() } else { wrapped.clone() };
        self.outbound.push_back(Outbound { wrapped: retained, owing });
        self.retire();
        ctx.send_down(Frame::new(frame.dest, wrapped));
        self.arm(ctx);
    }

    fn on_up(&mut self, src: ProcessId, bytes: Bytes, ctx: &mut LayerCtx<'_>) {
        let Ok((hdr, payload)) = ps_wire::take_header::<RelHeader>(bytes) else {
            return;
        };
        match hdr {
            RelHeader::Data { sender, seq } => {
                // Always (re-)ack: the previous ack may have been lost.
                let ack = ps_wire::push_header(&RelHeader::Ack { seq }, Bytes::new());
                ctx.send_down(Frame::to(sender, ack));
                if self.seen(sender, ctx.group_slice()).insert(seq) {
                    ctx.deliver_up(sender, payload);
                }
            }
            RelHeader::Ack { seq } => {
                // Nothing to do for a frame already retired (below `base`)
                // or never sent (past the newest slot), for a `src` that is
                // no member or was not addressed, or for a duplicate.
                let slot = seq.checked_sub(self.base).and_then(|at| usize::try_from(at).ok());
                let Some(out) = slot.and_then(|at| self.outbound.get_mut(at)) else { return };
                let Some(who) = position(ctx.group_slice(), src) else { return };
                if out.owing.remove(who) && out.owing.is_empty() {
                    out.wrapped = Bytes::new();
                    self.retire();
                }
            }
        }
    }

    fn on_timer(&mut self, token: u32, ctx: &mut LayerCtx<'_>) {
        debug_assert_eq!(token, SWEEP);
        self.timer_armed = false;
        if self.outbound.is_empty() {
            return;
        }
        // Oldest frame first, and within a frame in ascending member order.
        for out in &self.outbound {
            for at in out.owing.positions() {
                let member = ctx.group_slice()[at];
                self.retransmissions += 1;
                ctx.send_down(Frame::to(member, out.wrapped.clone()));
            }
        }
        self.arm(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{p2p, run_group};
    use ps_simnet::{Lossy, PointToPoint};
    use ps_stack::{Driver, Stack};
    use ps_trace::props::{NoReplay, Property, Reliability};

    #[test]
    fn header_roundtrip() {
        for h in [RelHeader::Data { sender: ProcessId(2), seq: 7 }, RelHeader::Ack { seq: 7 }] {
            assert_eq!(RelHeader::from_bytes(&h.to_bytes()).unwrap(), h);
        }
    }

    #[test]
    fn seen_set_compacts_contiguous_prefix() {
        let mut s = Seen::default();
        assert!(s.insert(0));
        assert!(s.insert(2));
        assert!(s.insert(1));
        assert_eq!(s.low, 3);
        assert!(s.tail.is_empty());
        assert!(!s.insert(1), "duplicates below watermark rejected");
        assert!(!s.insert(2));
    }

    #[test]
    fn owing_covers_exactly_the_group_at_every_size() {
        for n in [0, 1, 2, 8, 63, 64, 65, 127, 128, 129, 200] {
            let mut owing = Owing::first(n);
            assert_eq!(owing.positions().collect::<Vec<_>>(), (0..n).collect::<Vec<_>>(), "{n}");
            assert_eq!(
                owing.spill.len(),
                n.saturating_sub(1) / 64,
                "one word per 64 past the first"
            );
            assert!(!owing.remove(n), "position {n} is past a group of {n}");
            for at in 0..n {
                assert!(!owing.is_empty());
                assert!(owing.remove(at));
                assert!(!owing.remove(at), "already out");
            }
            assert!(owing.is_empty());
        }
        let mut one = Owing::default();
        one.insert(130);
        one.insert(3);
        assert_eq!(one.positions().collect::<Vec<_>>(), [3, 130]);
    }

    /// A member of `group` with a bare reliable layer: what it put on the
    /// wire, what it passed up, and the layer itself to read the books of.
    struct Rig {
        stack: Stack,
        layer: std::sync::Arc<std::sync::Mutex<ReliableLayer>>,
        env: Env,
    }

    struct Env {
        me: ProcessId,
        group: Vec<ProcessId>,
        sent: Vec<Frame>,
        delivered: Vec<(ProcessId, Bytes)>,
        rng: ps_simnet::DetRng,
    }

    impl ps_stack::StackEnv for Env {
        fn me(&self) -> ProcessId {
            self.me
        }
        fn group(&self) -> &[ProcessId] {
            &self.group
        }
        fn now(&self) -> SimTime {
            SimTime::ZERO
        }
        fn rng(&mut self) -> &mut ps_simnet::DetRng {
            &mut self.rng
        }
        fn transmit(&mut self, frame: Frame) {
            self.sent.push(frame);
        }
        fn deliver(&mut self, _: ProcessId, _: ps_trace::Message) {}
        fn deliver_bytes(&mut self, src: ProcessId, bytes: Bytes) {
            self.delivered.push((src, bytes));
        }
        fn set_timer(&mut self, _: SimTime, _: ps_stack::LayerId, _: u32) {}
    }

    /// The layer in a stack, with a second handle for the test to read its
    /// private state between calls.
    struct Probe(std::sync::Arc<std::sync::Mutex<ReliableLayer>>);

    impl Layer for Probe {
        fn name(&self) -> &'static str {
            "reliable"
        }
        fn on_down(&mut self, frame: Frame, ctx: &mut LayerCtx<'_>) {
            self.0.lock().unwrap().on_down(frame, ctx)
        }
        fn on_up(&mut self, src: ProcessId, bytes: Bytes, ctx: &mut LayerCtx<'_>) {
            self.0.lock().unwrap().on_up(src, bytes, ctx)
        }
        fn on_timer(&mut self, token: u32, ctx: &mut LayerCtx<'_>) {
            self.0.lock().unwrap().on_timer(token, ctx)
        }
    }

    const BODY: &[u8] = b"a body longer than a handle holds";

    impl Rig {
        /// Process 5 of a group that is not `0..n`.
        fn new() -> Self {
            Self::in_group(&[2, 5, 9], 5)
        }

        fn in_group(group: &[u16], me: u16) -> Self {
            let layer = std::sync::Arc::new(std::sync::Mutex::new(ReliableLayer::new()));
            Rig {
                stack: Stack::new(vec![Box::new(Probe(layer.clone()))]),
                layer,
                env: Env {
                    me: ProcessId(me),
                    group: group.iter().copied().map(ProcessId).collect(),
                    sent: Vec::new(),
                    delivered: Vec::new(),
                    rng: ps_simnet::DetRng::new(0),
                },
            }
        }

        fn send(&mut self, dest: Cast) {
            self.stack.send_bytes(dest, Bytes::from_static(BODY), &mut self.env);
        }

        fn ack(&mut self, from: u16, seq: u64) {
            let ack = RelHeader::Ack { seq }.to_bytes();
            self.stack.receive(ProcessId(from), ack, &mut self.env);
        }

        fn data(&mut self, sender: u16, seq: u64) {
            let header = RelHeader::Data { sender: ProcessId(sender), seq };
            let frame = ps_wire::push_header(&header, Bytes::from_static(BODY));
            self.stack.receive(ProcessId(sender), frame, &mut self.env);
        }

        fn sweep(&mut self) -> Vec<ProcessId> {
            self.env.sent.clear();
            self.stack.timer(ps_stack::LayerId(0), SWEEP, &mut self.env);
            let to = |f: &Frame| match f.dest {
                Cast::To(p) => p,
                other => panic!("a retransmission is a unicast, not {other:?}"),
            };
            self.env.sent.iter().map(to).collect()
        }

        /// `base`, and per slot of the ring the members still owing.
        fn books(&self) -> (u64, Vec<Vec<ProcessId>>) {
            let layer = self.layer.lock().unwrap();
            let owing =
                |out: &Outbound| out.owing.positions().map(|at| self.env.group[at]).collect();
            (layer.base, layer.outbound.iter().map(owing).collect())
        }

        /// Runs `arrival` and checks it left the books as they were.
        fn assert_no_op(&mut self, what: &str, arrival: impl FnOnce(&mut Self)) {
            let before = self.books();
            arrival(self);
            assert_eq!(self.books(), before, "{what} moved the books");
        }
    }

    const P: fn(u16) -> ProcessId = ProcessId;

    #[test]
    fn acks_retire_slots_from_the_front_and_in_the_middle() {
        let mut rig = Rig::new();
        rig.send(Cast::All);
        rig.send(Cast::Others);
        rig.send(Cast::To(P(9)));
        assert_eq!(rig.books(), (0, vec![vec![P(2), P(5), P(9)], vec![P(2), P(9)], vec![P(9)]]));
        // The middle slot is spent in place; the front holds the ring.
        rig.ack(9, 1);
        rig.ack(2, 1);
        assert_eq!(rig.books(), (0, vec![vec![P(2), P(5), P(9)], vec![], vec![P(9)]]));
        assert!(rig.layer.lock().unwrap().outbound[1].wrapped.is_empty(), "its frame is dropped");
        assert_eq!(rig.sweep(), [P(2), P(5), P(9), P(9)], "oldest first, members ascending");
        // The front goes, and the spent slot behind it with it.
        for from in [5, 2, 9] {
            rig.ack(from, 0);
        }
        assert_eq!(rig.books(), (2, vec![vec![P(9)]]));
        rig.ack(9, 2);
        assert_eq!(rig.books(), (3, vec![]));
        assert!(rig.sweep().is_empty());
        // Sequence numbers go on from where they were.
        rig.send(Cast::To(P(2)));
        assert_eq!(rig.books(), (3, vec![vec![P(2)]]));
        rig.ack(2, 3);
        assert_eq!(rig.books(), (4, vec![]));
    }

    #[test]
    fn an_ack_below_base_is_a_no_op() {
        let mut rig = Rig::new();
        rig.send(Cast::To(P(2)));
        rig.ack(2, 0);
        rig.send(Cast::All);
        assert_eq!(rig.books().0, 1);
        rig.assert_no_op("an ack for a retired frame", |rig| rig.ack(2, 0));
    }

    #[test]
    fn an_ack_beyond_the_newest_slot_is_a_no_op() {
        let mut rig = Rig::new();
        rig.assert_no_op("an ack into an empty ring", |rig| rig.ack(2, 0));
        rig.send(Cast::All);
        for seq in [1, 2, 1 << 40, u64::MAX] {
            rig.assert_no_op("an ack for a frame never sent", |rig| rig.ack(2, seq));
        }
    }

    #[test]
    fn a_duplicate_ack_is_a_no_op() {
        let mut rig = Rig::new();
        rig.send(Cast::All);
        rig.send(Cast::All);
        rig.ack(9, 1);
        rig.assert_no_op("the same ack again", |rig| rig.ack(9, 1));
        // And again once the slot is spent but still in the ring.
        rig.ack(2, 1);
        rig.ack(5, 1);
        assert_eq!(rig.books(), (0, vec![vec![P(2), P(5), P(9)], vec![]]));
        rig.assert_no_op("an ack for a spent slot", |rig| rig.ack(9, 1));
    }

    #[test]
    fn an_ack_from_a_non_member_is_a_no_op() {
        let mut rig = Rig::new();
        rig.send(Cast::All);
        // 0 and 1 would be positions, were ids used as indices.
        for outsider in [0, 1, 3, 64, u16::MAX] {
            rig.assert_no_op("an outsider's ack", |rig| rig.ack(outsider, 0));
        }
    }

    #[test]
    fn an_ack_from_a_member_that_was_not_addressed_is_a_no_op() {
        let mut rig = Rig::new();
        rig.send(Cast::To(P(9)));
        rig.send(Cast::Others);
        rig.assert_no_op("an ack for a unicast to someone else", |rig| rig.ack(2, 0));
        rig.assert_no_op("the sender's own ack for `Others`", |rig| rig.ack(5, 1));
        assert_eq!(rig.books(), (0, vec![vec![P(9)], vec![P(2), P(9)]]));
    }

    #[test]
    fn data_naming_a_non_member_sender_is_delivered_once_through_the_fallback_map() {
        let mut rig = Rig::new();
        // 1 is a position in the group and no member of it.
        for outsider in [1, 700] {
            for seq in [0, 2, 2, 0, 1] {
                rig.data(outsider, seq);
            }
        }
        rig.data(9, 0);
        rig.data(9, 0);
        let from = |p: u16| rig.env.delivered.iter().filter(|(src, _)| *src == P(p)).count();
        assert_eq!((from(1), from(700), from(9)), (3, 3, 1));
        let layer = rig.layer.lock().unwrap();
        assert_eq!(layer.strangers.len(), 2);
        assert_eq!(layer.inbound.iter().map(|seen| seen.low).collect::<Vec<_>>(), [0, 0, 1]);
        // Every arrival was acknowledged to the sender its header names.
        assert_eq!(rig.env.sent.len(), 12);
        assert!(rig.env.sent[..5].iter().all(|f| f.dest == Cast::To(P(1))));
    }

    #[test]
    fn a_frame_nobody_owes_an_ack_for_is_sent_once_and_not_retained() {
        let mut alone = Rig::in_group(&[4], 4);
        alone.send(Cast::Others);
        let mut rig = Rig::new();
        rig.send(Cast::To(P(3)));
        for rig in [&mut alone, &mut rig] {
            assert_eq!(rig.env.sent.len(), 1);
            assert_eq!(rig.books(), (1, vec![]));
            assert!(rig.sweep().is_empty());
        }
        // Behind a frame still waiting, the slot is spent from the start.
        rig.send(Cast::All);
        rig.send(Cast::To(P(3)));
        assert_eq!(rig.books(), (1, vec![vec![P(2), P(5), P(9)], vec![]]));
        assert!(rig.layer.lock().unwrap().outbound[1].wrapped.is_empty());
    }

    #[test]
    fn clean_network_single_transmission() {
        let sim = run_group(3, 1, p2p(100), 6, |_, _, _| {
            Stack::new(vec![Box::new(ReliableLayer::new())])
        });
        let group: Vec<ProcessId> = sim.group().to_vec();
        let tr = sim.app_trace();
        assert!(Reliability::new(group).holds(&tr));
        assert!(NoReplay.holds(&tr));
    }

    #[test]
    fn survives_heavy_loss_exactly_once() {
        // 30% loss on every copy, including acks.
        let medium =
            Box::new(Lossy::new(Box::new(PointToPoint::new(SimTime::from_micros(200))), 0.30));
        let sim = run_group(4, 5, medium, 10, |_, _, _| {
            Stack::new(vec![Box::new(ReliableLayer::with_config(ReliableConfig {
                retransmit_interval: SimTime::from_millis(10),
            }))])
        });
        let group: Vec<ProcessId> = sim.group().to_vec();
        let tr = sim.app_trace();
        assert!(
            Reliability::new(group).holds(&tr),
            "all 10 messages must reach all 4 members despite loss"
        );
        // Exactly-once: no duplicate delivery of any message id.
        assert!(NoReplay.holds(&tr));
    }

    #[test]
    fn survives_duplication() {
        let medium = Box::new(
            Lossy::new(Box::new(PointToPoint::new(SimTime::from_micros(200))), 0.1)
                .with_duplication(0.3),
        );
        let sim =
            run_group(3, 9, medium, 8, |_, _, _| Stack::new(vec![Box::new(ReliableLayer::new())]));
        let tr = sim.app_trace();
        assert!(Reliability::new(sim.group().to_vec()).holds(&tr));
        assert!(NoReplay.holds(&tr));
    }

    #[test]
    fn without_reliability_loss_loses_messages() {
        // Control experiment: the bare stack under the same loss drops data.
        let medium =
            Box::new(Lossy::new(Box::new(PointToPoint::new(SimTime::from_micros(200))), 0.30));
        let sim = run_group(4, 5, medium, 10, |_, _, _| Stack::new(vec![]));
        let tr = sim.app_trace();
        assert!(!Reliability::new(sim.group().to_vec()).holds(&tr));
    }

    #[test]
    fn retransmissions_happen_only_under_loss() {
        let clean = run_group(3, 2, p2p(100), 5, |_, _, _| {
            Stack::new(vec![Box::new(ReliableLayer::new())])
        });
        assert_eq!(clean.net_stats().copies_dropped, 0);
        let lossy_medium =
            Box::new(Lossy::new(Box::new(PointToPoint::new(SimTime::from_micros(100))), 0.4));
        let lossy = run_group(3, 2, lossy_medium, 5, |_, _, _| {
            Stack::new(vec![Box::new(ReliableLayer::new())])
        });
        // More frames had to be sent under loss than on the clean network.
        assert!(lossy.net_stats().frames_sent > clean.net_stats().frames_sent);
    }
}
