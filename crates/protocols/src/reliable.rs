use ps_bytes::Bytes;
use ps_simnet::SimTime;
use ps_stack::{Cast, Frame, Layer, LayerCtx};
use ps_trace::ProcessId;
use ps_wire::{Decoder, Encoder, Wire, WireError};
use std::collections::{HashMap, VecDeque};

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

/// How far above a received-set's `low` an arrival may land: a window of
/// at most 1024 words (8 KiB) per sender. A sender is this far ahead only
/// while a member it addressed has not acknowledged for as many frames.
const WINDOW: u64 = 1 << 16;

/// Compact received-set: a low watermark plus a window of bits above it.
#[derive(Debug, Default)]
struct Seen {
    /// All seqs `< low` have been delivered, or were never addressed here.
    low: u64,
    /// What arrived from `low` on, a bit per seq: word `k` holds the 64 seqs
    /// from `(low / 64 + k) * 64`, and the bits below `low` in the front word
    /// mean nothing. Empty while nothing above `low` has arrived; words are
    /// popped off the front, so the capacity, once reached, is kept.
    window: VecDeque<u64>,
}

impl Seen {
    /// Records `seq`: `Some(true)` if it is new, `Some(false)` for a
    /// duplicate, `None` if it lies past the window and cannot be recorded.
    fn insert(&mut self, seq: u64) -> Option<bool> {
        if seq == u64::MAX {
            // No sender gets there, and `low` could not move past it.
            return None;
        }
        if seq == self.low && self.window.is_empty() {
            // In-order arrival: the watermark moves, the window is untouched.
            self.low += 1;
            return Some(true);
        }
        if seq < self.low {
            return Some(false);
        }
        let at = seq - self.low / 64 * 64;
        if at >= WINDOW {
            return None;
        }
        let (word, bit) = ((at / 64) as usize, 1 << (at % 64));
        if word >= self.window.len() {
            self.window.resize(word + 1, 0);
        }
        if self.window[word] & bit != 0 {
            return Some(false);
        }
        self.window[word] |= bit;
        self.settle();
        Some(true)
    }

    /// Raises `low` to the sender's stability watermark `base`: every seq
    /// below it that was addressed here was acknowledged from here, so it
    /// has been delivered, and the rest never will be.
    fn raise(&mut self, base: u64) {
        if base <= self.low {
            return;
        }
        let passed = usize::try_from(base / 64 - self.low / 64).unwrap_or(usize::MAX);
        self.window.drain(..passed.min(self.window.len()));
        self.low = base;
        self.settle();
    }

    /// Moves `low` over the run of arrived seqs at it, popping each word it
    /// leaves behind, and the last word too once nothing above `low` is in
    /// it.
    fn settle(&mut self) {
        while let Some(&word) = self.window.front() {
            let from = self.low % 64;
            let rest = word >> from;
            let run = u64::from(rest.trailing_ones());
            self.low += run;
            if from + run == 64 {
                self.window.pop_front();
            } else {
                if self.window.len() == 1 && rest >> run == 0 {
                    self.window.clear();
                }
                return;
            }
        }
    }
}

/// `Data` is `sender`'s frame `seq`; every frame of `sender`'s below `base`
/// was acknowledged by every member it addressed. On the wire `base` is
/// the distance `seq − base`.
#[derive(Debug, PartialEq)]
enum RelHeader {
    Data { sender: ProcessId, seq: u64, base: u64 },
    Ack { seq: u64 },
}

impl Wire for RelHeader {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            RelHeader::Data { sender, seq, base } => {
                enc.put_u8(0);
                sender.encode(enc);
                enc.put_varint(*seq);
                enc.put_varint(seq - base);
            }
            RelHeader::Ack { seq } => {
                enc.put_u8(1);
                enc.put_varint(*seq);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        match dec.get_u8()? {
            0 => {
                let (sender, seq, back) =
                    (ProcessId::decode(dec)?, dec.get_varint()?, dec.get_varint()?);
                let available = usize::try_from(seq).unwrap_or(usize::MAX);
                let base = seq.checked_sub(back);
                let base = base.ok_or(WireError::LengthOverflow { declared: back, available })?;
                Ok(RelHeader::Data { sender, seq, base })
            }
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
        let (base, seq) = (self.base, self.base + self.outbound.len() as u64);
        // Push before retaining: the frame is still uniquely owned here, so
        // the header goes into its reserve without a copy.
        let wrapped = ps_wire::push_header(&RelHeader::Data { sender: me, seq, base }, frame.bytes);
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
            RelHeader::Data { sender, seq, base } => {
                let seen = self.seen(sender, ctx.group_slice());
                seen.raise(base);
                // Past the window it is neither acknowledged nor delivered:
                // the sender sends it again.
                let Some(fresh) = seen.insert(seq) else { return };
                // Always (re-)ack: the previous ack may have been lost.
                let ack = ps_wire::push_header(&RelHeader::Ack { seq }, Bytes::new());
                ctx.send_down(Frame::to(sender, ack));
                if fresh {
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
    use ps_check::prelude::*;
    use ps_simnet::{Lossy, PointToPoint};
    use ps_stack::{Driver, LayerId, Stack};
    use ps_trace::props::{NoReplay, Property, Reliability};
    use std::sync::{Arc, Mutex};

    /// How many seqs above `low` have arrived.
    fn tail_len(seen: &Seen) -> usize {
        let front = seen.window.front().map_or(0, |&word| (word >> (seen.low % 64)).count_ones());
        let rest: u32 = seen.window.iter().skip(1).map(|word| word.count_ones()).sum();
        (front + rest) as usize
    }

    #[test]
    fn header_roundtrip() {
        for h in [
            RelHeader::Data { sender: ProcessId(2), seq: 7, base: 3 },
            RelHeader::Data { sender: ProcessId(2), seq: u64::MAX, base: 0 },
            RelHeader::Ack { seq: 7 },
        ] {
            assert_eq!(RelHeader::from_bytes(&h.to_bytes()).unwrap(), h);
        }
        // A watermark above the frame's own seq is no header.
        let mut enc = Encoder::new();
        enc.put_u8(0);
        ProcessId(2).encode(&mut enc);
        enc.put_varint(3);
        enc.put_varint(4);
        assert!(RelHeader::from_bytes(&enc.finish()).is_err());
    }

    #[test]
    fn seen_set_compacts_contiguous_prefix() {
        let mut s = Seen::default();
        assert_eq!(s.insert(0), Some(true));
        assert_eq!(s.insert(2), Some(true));
        assert_eq!(s.insert(1), Some(true));
        assert_eq!(s.low, 3);
        assert!(s.window.is_empty());
        assert_eq!(s.insert(1), Some(false), "duplicates below watermark rejected");
        assert_eq!(s.insert(2), Some(false));
    }

    #[test]
    fn seen_set_settles_across_words_and_keeps_its_capacity() {
        let mut s = Seen::default();
        // Every seq of three words but the first, in reverse.
        for seq in (1..192).rev() {
            assert_eq!(s.insert(seq), Some(true));
            assert_eq!(s.insert(seq), Some(false));
        }
        assert_eq!((s.low, tail_len(&s), s.window.len()), (0, 191, 3));
        let capacity = s.window.capacity();
        assert_eq!(s.insert(0), Some(true));
        assert_eq!((s.low, tail_len(&s)), (192, 0));
        assert!(s.window.is_empty());
        // A gap, then the run after it, then the gap filled.
        for seq in [200, 201, 260, 199, 198, 197, 196, 195, 194, 193] {
            assert_eq!(s.insert(seq), Some(true));
        }
        assert_eq!((s.low, tail_len(&s)), (192, 10));
        assert_eq!(s.insert(192), Some(true));
        assert_eq!((s.low, tail_len(&s)), (202, 1));
        assert_eq!(s.window.capacity(), capacity, "the window is not re-allocated");
    }

    #[test]
    fn seen_set_rises_to_the_senders_watermark() {
        let mut s = Seen::default();
        for seq in [3, 5, 70, 130, 131] {
            s.insert(seq);
        }
        s.raise(2);
        assert_eq!((s.low, tail_len(&s)), (2, 5), "below the tail: nothing to drop");
        s.raise(70);
        assert_eq!((s.low, tail_len(&s)), (71, 2), "3 and 5 dropped, 70 settled");
        s.raise(1);
        assert_eq!(s.low, 71, "a stale watermark lowers nothing");
        assert_eq!(s.insert(64), Some(false), "below the watermark is delivered or not ours");
        s.raise(1000);
        assert_eq!((s.low, tail_len(&s)), (1000, 0));
        assert!(s.window.is_empty());
    }

    #[test]
    fn seen_set_refuses_what_lies_past_its_window() {
        let mut s = Seen::default();
        for seq in [WINDOW, 1 << 40, u64::MAX] {
            assert_eq!(s.insert(seq), None);
        }
        assert_eq!(s.insert(WINDOW - 1), Some(true));
        assert_eq!(s.window.len(), (WINDOW / 64) as usize);
        s.raise(WINDOW - 64);
        assert_eq!(s.insert(WINDOW), Some(true), "the window moved with the watermark");
        // A watermark at the end of the sequence space moves `low` there,
        // and the last number is still refused, not wrapped past.
        s.raise(u64::MAX);
        assert_eq!((s.low, s.insert(u64::MAX)), (u64::MAX, None));
        assert_eq!(s.insert(u64::MAX - 1), Some(false));
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
        layer: Arc<Mutex<ReliableLayer>>,
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
    struct Probe(Arc<Mutex<ReliableLayer>>);

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
            let layer = Arc::new(Mutex::new(ReliableLayer::new()));
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
            let header = RelHeader::Data { sender: ProcessId(sender), seq, base: 0 };
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

    /// The largest received-set tail in a four-member group of
    /// `[token-order, reliable]` stacks after `msgs` multicasts. Every
    /// token hop is a unicast, so each member sees a gap in every other
    /// member's sequence numbers per hop it was not part of.
    fn largest_tail_on_a_token_ring(msgs: usize) -> usize {
        let layers: Arc<Mutex<Vec<Arc<Mutex<ReliableLayer>>>>> = Arc::default();
        let kept = layers.clone();
        let sim = run_group(4, 3, p2p(100), msgs, move |_, _, _| {
            let layer = Arc::new(Mutex::new(ReliableLayer::new()));
            kept.lock().unwrap().push(layer.clone());
            let order = crate::TokenOrderLayer::with_idle_hold(SimTime::from_millis(1));
            Stack::new(vec![Box::new(order), Box::new(Probe(layer))])
        });
        assert!(Reliability::new(sim.group().to_vec()).holds(&sim.app_trace()), "{msgs}");
        let layers = layers.lock().unwrap();
        let tails = layers.iter().flat_map(|layer| {
            let layer = layer.lock().unwrap();
            layer.inbound.iter().map(tail_len).collect::<Vec<_>>()
        });
        tails.max().expect("four members")
    }

    #[test]
    fn unicasts_leave_no_tail_behind_on_a_token_ring() {
        // Without the watermark these read 50, 200 and 800: a quarter of
        // the messages sent, one per token hop the member did not take.
        let tails = [100, 400, 1600].map(largest_tail_on_a_token_ring);
        assert!(tails.iter().all(|&tail| tail <= 4), "tails {tails:?}");
    }

    /// A group of bare reliable layers and the copies in flight between
    /// them, for the property below.
    struct Group {
        members: Vec<(Stack, Env, Arc<Mutex<ReliableLayer>>)>,
        /// `(to, from, bytes)`, oldest first.
        in_flight: Vec<(usize, ProcessId, Bytes)>,
    }

    impl Group {
        fn new(n: u16) -> Self {
            let group: Vec<ProcessId> = (0..n).map(|i| ProcessId(3 * i + 1)).collect();
            let members = group
                .iter()
                .map(|&me| {
                    let layer = Arc::new(Mutex::new(ReliableLayer::new()));
                    let env = Env {
                        me,
                        group: group.clone(),
                        sent: Vec::new(),
                        delivered: Vec::new(),
                        rng: ps_simnet::DetRng::new(0),
                    };
                    (Stack::new(vec![Box::new(Probe(layer.clone()))]), env, layer)
                })
                .collect();
            Group { members, in_flight: Vec::new() }
        }

        /// Runs `f` on member `at`, then puts what it sent in flight.
        fn on<R>(&mut self, at: usize, f: impl FnOnce(&mut Stack, &mut Env) -> R) -> R {
            let (stack, env, _) = &mut self.members[at];
            let r = f(stack, env);
            let from = env.me;
            for frame in std::mem::take(&mut env.sent) {
                for to in 0..self.members.len() {
                    if addressed(frame.dest, from, self.members[to].1.me) {
                        self.in_flight.push((to, from, frame.bytes.clone()));
                    }
                }
            }
            r
        }

        fn arrive(&mut self, (to, from, bytes): (usize, ProcessId, Bytes)) {
            self.on(to, |stack, env| stack.receive(from, bytes, env));
        }

        /// No more loss: everything in flight arrives and every member
        /// sweeps, until a sweep finds nothing to resend.
        fn quiesce(&mut self) {
            loop {
                while !self.in_flight.is_empty() {
                    let copy = self.in_flight.remove(0);
                    self.arrive(copy);
                }
                for at in 0..self.members.len() {
                    assert!(self.on(at, |stack, env| stack.timer(LayerId(0), SWEEP, env)));
                }
                if self.in_flight.is_empty() {
                    return;
                }
            }
        }
    }

    fn addressed(dest: Cast, from: ProcessId, to: ProcessId) -> bool {
        match dest {
            Cast::All => true,
            Cast::Others => to != from,
            Cast::To(p) => p == to,
        }
    }

    props! {
        #![config(cases = 64)]

        fn every_addressed_message_is_delivered_once_and_no_tail_outlives_the_watermark(
            n in 1u16..6,
            steps in vec_of((0u8..8, arb::<usize>(), arb::<usize>(), 0u8..8), 0..120),
        ) {
            let mut group = Group::new(n);
            let n = usize::from(n);
            // Who each message is for: `(sender position, body, receivers)`.
            let mut sent: Vec<(usize, Bytes, Vec<usize>)> = Vec::new();
            for (kind, a, b, fate) in steps {
                match kind {
                    0..=2 => {
                        let (who, to) = (a % n, b % n);
                        let dest = match fate % 3 {
                            0 => Cast::All,
                            1 => Cast::Others,
                            _ => Cast::To(group.members[to].1.me),
                        };
                        let body = Bytes::from(format!("{who}:{}", sent.len()).into_bytes());
                        let me = group.members[who].1.me;
                        let receivers =
                            (0..n).filter(|&r| addressed(dest, me, group.members[r].1.me)).collect();
                        sent.push((who, body.clone(), receivers));
                        group.on(who, |stack, env| stack.send_bytes(dest, body, env));
                    }
                    3..=6 if !group.in_flight.is_empty() => {
                        let at = a % group.in_flight.len();
                        match fate % 4 {
                            // Lost.
                            0 => drop(group.in_flight.remove(at)),
                            // Duplicated: arrives, and stays in flight.
                            1 => group.arrive(group.in_flight[at].clone()),
                            _ => {
                                let copy = group.in_flight.remove(at);
                                group.arrive(copy);
                            }
                        }
                    }
                    3..=6 => {}
                    _ => assert!(group.on(a % n, |stack, env| stack.timer(LayerId(0), SWEEP, env))),
                }
            }
            group.quiesce();
            for (at, (_, env, _)) in group.members.iter().enumerate() {
                let mut got: Vec<&Bytes> = env.delivered.iter().map(|(_, bytes)| bytes).collect();
                let mut owed: Vec<&Bytes> = sent
                    .iter()
                    .filter(|(_, _, receivers)| receivers.contains(&at))
                    .map(|(_, body, _)| body)
                    .collect();
                got.sort();
                owed.sort();
                assert_eq!(got, owed, "member {at}");
            }
            // One more multicast each, carrying a watermark with nothing
            // owed below it: every received-set stands at the sender's next
            // seq, with nothing above.
            for who in 0..n {
                group.on(who, |stack, env| stack.send_bytes(Cast::All, Bytes::new(), env));
            }
            group.quiesce();
            let next: Vec<u64> = group
                .members
                .iter()
                .map(|(_, _, layer)| {
                    let layer = layer.lock().unwrap();
                    assert!(layer.outbound.is_empty(), "{:?} still owed", layer.outbound);
                    layer.base
                })
                .collect();
            for (at, (_, _, layer)) in group.members.iter().enumerate() {
                let layer = layer.lock().unwrap();
                assert!(layer.strangers.is_empty());
                for (from, seen) in layer.inbound.iter().enumerate() {
                    assert_eq!((seen.low, tail_len(seen)), (next[from], 0), "{from} at {at}");
                    assert!(seen.window.is_empty());
                }
            }
        }
    }
}
