//! The reliable layer that keeps its books by position against the one it
//! replaced.
//!
//! [`reference`] is `ReliableLayer` as it stood while it kept a `BTreeMap`
//! of unacknowledged frames, a `Vec<ProcessId>` of missing receivers per
//! frame and a `HashMap` of received-sets — kept here, verbatim in
//! behaviour, as the oracle. The property drives two worlds, one per
//! implementation, through one generated schedule of sends (`All` /
//! `Others` / `To`), arrivals in any order, loss, duplication, sweeps and
//! restarts, and requires the same frames out (who sent, to whom, which
//! bytes, in order), the same deliveries up and the same `retransmissions`
//! at every step — for groups of 1, 2, 8, 64, 65 and 200 members, numbered
//! `0..n` or not.
//!
//! Memberships are ascending, as every driver builds them: the map-based
//! layer retransmitted in ascending id order, the ring retransmits in
//! ascending position order, and the two are the same order exactly then.
//! Every send addresses somebody — a `To` names a member, `Others` is not
//! used in a group of one: a frame nobody owes an acknowledgement for sat
//! in the old layer's map, and kept its sweep timer armed, for ever; the
//! new one sends it once and is done (pinned in the layer's unit tests, as
//! the one intended difference).
//!
//! The reference carries the stability watermark the shipped layer
//! carries — each data frame names the oldest frame of its sender's still
//! owed an acknowledgement, and a receiver forgets what lies below it —
//! so that the comparison stays byte for byte; it keeps its received-set
//! as the map-era `BTreeSet`, the shipped layer as a window of bits.

use ps_bytes::Bytes;
use ps_check::prelude::*;
use ps_protocols::ReliableLayer;
use ps_simnet::{DetRng, SimTime};
use ps_stack::{Cast, Frame, Layer, LayerCtx, LayerId, Stack, StackEnv};
use ps_trace::{Message, ProcessId};
use std::sync::{Arc, Mutex};

/// The layer as it was: a map entry per unacknowledged frame, a vector of
/// receivers per entry, a hashed received-set per sender.
mod reference {
    use ps_bytes::Bytes;
    use ps_protocols::ReliableConfig;
    use ps_stack::{Cast, Frame, Layer, LayerCtx};
    use ps_trace::ProcessId;
    use ps_wire::{Decoder, Encoder, Wire, WireError};
    use std::collections::{BTreeMap, BTreeSet, HashMap};

    #[derive(Debug)]
    pub struct ReliableLayer {
        config: ReliableConfig,
        next_seq: u64,
        /// Unacknowledged outbound frames.
        outbound: BTreeMap<u64, Outbound>,
        /// Per-sender seen/delivered bookkeeping.
        inbound: HashMap<ProcessId, Seen>,
        timer_armed: bool,
        pub retransmissions: u64,
    }

    #[derive(Debug)]
    struct Outbound {
        wrapped: Bytes,
        /// Receivers that have not acknowledged yet, ascending (the order
        /// the sweep retransmits in). The frame is done when this is empty.
        missing: Vec<ProcessId>,
    }

    /// Compact received-set: a low watermark plus a sparse tail.
    #[derive(Debug, Default)]
    struct Seen {
        low: u64,
        tail: BTreeSet<u64>,
    }

    impl Seen {
        /// Raises `low` to the sender's watermark, dropping the tail below.
        fn raise(&mut self, base: u64) {
            if base > self.low {
                self.low = base;
                self.tail = self.tail.split_off(&base);
                while self.tail.remove(&self.low) {
                    self.low += 1;
                }
            }
        }

        fn insert(&mut self, seq: u64) -> bool {
            if seq == self.low && self.tail.is_empty() {
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
                    let (sender, seq) = (ProcessId::decode(dec)?, dec.get_varint()?);
                    let base = seq - dec.get_varint()?;
                    Ok(RelHeader::Data { sender, seq, base })
                }
                1 => Ok(RelHeader::Ack { seq: dec.get_varint()? }),
                tag => Err(WireError::InvalidTag { tag: tag.into(), ty: "RelHeader" }),
            }
        }
    }

    const SWEEP: u32 = 1;

    impl ReliableLayer {
        pub fn new() -> Self {
            Self {
                config: ReliableConfig::default(),
                next_seq: 0,
                outbound: BTreeMap::new(),
                inbound: HashMap::new(),
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

        /// The members `dest` addresses, ascending.
        fn expected_receivers(dest: Cast, me: ProcessId, group: &[ProcessId]) -> Vec<ProcessId> {
            let mut receivers = match dest {
                Cast::All => group.to_vec(),
                Cast::Others => group.iter().copied().filter(|&p| p != me).collect(),
                Cast::To(p) => vec![p],
            };
            receivers.sort_unstable();
            receivers
        }
    }

    impl Layer for ReliableLayer {
        fn name(&self) -> &'static str {
            "reliable"
        }

        fn on_restart(&mut self, ctx: &mut LayerCtx<'_>) {
            self.timer_armed = false;
            if !self.outbound.is_empty() {
                self.arm(ctx);
            }
        }

        fn on_down(&mut self, frame: Frame, ctx: &mut LayerCtx<'_>) {
            let me = ctx.me();
            let seq = self.next_seq;
            self.next_seq += 1;
            // Everything below the oldest frame still owed an ack is stable.
            let base = self.outbound.keys().next().copied().unwrap_or(seq);
            let wrapped =
                ps_wire::push_header(&RelHeader::Data { sender: me, seq, base }, frame.bytes);
            let missing = Self::expected_receivers(frame.dest, me, ctx.group_slice());
            self.outbound.insert(seq, Outbound { wrapped: wrapped.clone(), missing });
            ctx.send_down(Frame::new(frame.dest, wrapped));
            self.arm(ctx);
        }

        fn on_up(&mut self, src: ProcessId, bytes: Bytes, ctx: &mut LayerCtx<'_>) {
            let Ok((hdr, payload)) = ps_wire::take_header::<RelHeader>(bytes) else {
                return;
            };
            match hdr {
                RelHeader::Data { sender, seq, base } => {
                    let ack = ps_wire::push_header(&RelHeader::Ack { seq }, Bytes::new());
                    ctx.send_down(Frame::to(sender, ack));
                    let seen = self.inbound.entry(sender).or_default();
                    seen.raise(base);
                    if seen.insert(seq) {
                        ctx.deliver_up(sender, payload);
                    }
                }
                RelHeader::Ack { seq } => {
                    let Some(out) = self.outbound.get_mut(&seq) else { return };
                    if let Ok(at) = out.missing.binary_search(&src) {
                        out.missing.remove(at);
                    }
                    if out.missing.is_empty() {
                        self.outbound.remove(&seq);
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
            for out in self.outbound.values() {
                for &missing in &out.missing {
                    self.retransmissions += 1;
                    ctx.send_down(Frame::to(missing, out.wrapped.clone()));
                }
            }
            self.arm(ctx);
        }
    }
}

/// Either implementation, as the harness needs it.
trait Reliable: Layer + 'static {
    fn fresh() -> Self;
    fn retransmissions(&self) -> u64;
}

impl Reliable for ReliableLayer {
    fn fresh() -> Self {
        ReliableLayer::new()
    }
    fn retransmissions(&self) -> u64 {
        self.retransmissions
    }
}

impl Reliable for reference::ReliableLayer {
    fn fresh() -> Self {
        reference::ReliableLayer::new()
    }
    fn retransmissions(&self) -> u64 {
        self.retransmissions
    }
}

/// The layer in a stack, with a second handle to read its counter through.
struct Shared<L>(Arc<Mutex<L>>);

impl<L: Reliable> Layer for Shared<L> {
    fn name(&self) -> &'static str {
        "reliable"
    }
    fn on_restart(&mut self, ctx: &mut LayerCtx<'_>) {
        self.0.lock().unwrap().on_restart(ctx)
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

/// What a member's stack did, in the order it did it.
#[derive(Debug, Clone, PartialEq)]
enum Did {
    /// Handed a frame to the network.
    Out { from: ProcessId, dest: Cast, bytes: Bytes },
    /// Passed a payload up, attributed to `src`.
    Up { at: ProcessId, src: ProcessId, bytes: Bytes },
    /// Armed its sweep timer.
    Armed { at: ProcessId },
}

struct Env {
    me: ProcessId,
    group: Arc<[ProcessId]>,
    rng: DetRng,
    did: Vec<Did>,
}

impl StackEnv for Env {
    fn me(&self) -> ProcessId {
        self.me
    }
    fn group(&self) -> &[ProcessId] {
        &self.group
    }
    fn now(&self) -> SimTime {
        SimTime::ZERO
    }
    fn rng(&mut self) -> &mut DetRng {
        &mut self.rng
    }
    fn transmit(&mut self, frame: Frame) {
        self.did.push(Did::Out { from: self.me, dest: frame.dest, bytes: frame.bytes });
    }
    fn deliver(&mut self, _: ProcessId, _: Message) {}
    fn deliver_bytes(&mut self, src: ProcessId, bytes: Bytes) {
        self.did.push(Did::Up { at: self.me, src, bytes });
    }
    fn set_timer(&mut self, _: SimTime, _: LayerId, _: u32) {
        self.did.push(Did::Armed { at: self.me });
    }
}

/// One step of a schedule; indices are reduced modulo what there is.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Member `who` sends `len` bytes: to all, to the others, or to member
    /// `to`.
    Send { who: usize, cast: u8, to: usize, len: usize },
    /// The `pick`-th copy in flight arrives (any order), is lost, or
    /// arrives and stays in flight to arrive again.
    Arrive { pick: usize, fate: u8 },
    /// The oldest `count` copies in flight arrive, in order.
    Drain { count: usize },
    /// Member `who`'s sweep timer fires.
    Sweep { who: usize },
    /// Member `who` comes back from a crash.
    Restart { who: usize },
}

/// A group of members, each a bare reliable layer of implementation `L`,
/// and the copies in flight between them.
struct World<L> {
    group: Arc<[ProcessId]>,
    members: Vec<(Stack, Env, Arc<Mutex<L>>)>,
    /// `(to, from, bytes)`, oldest first.
    in_flight: Vec<(usize, ProcessId, Bytes)>,
}

impl<L: Reliable> World<L> {
    fn new(group: &[ProcessId]) -> Self {
        let group: Arc<[ProcessId]> = group.into();
        let members = group
            .iter()
            .map(|&me| {
                let layer = Arc::new(Mutex::new(L::fresh()));
                let stack = Stack::new(vec![Box::new(Shared(layer.clone()))]);
                let env = Env { me, group: group.clone(), rng: DetRng::new(1), did: Vec::new() };
                (stack, env, layer)
            })
            .collect();
        World { group, members, in_flight: Vec::new() }
    }

    fn receive(&mut self, (to, from, bytes): (usize, ProcessId, Bytes)) {
        let (stack, env, _) = &mut self.members[to];
        stack.receive(from, bytes, env);
    }

    /// Runs one step; returns what every stack did during it, member by
    /// member, having put the frames sent in flight.
    fn step(&mut self, step: Step) -> Vec<Did> {
        let n = self.members.len();
        match step {
            Step::Send { who, cast, to, len } => {
                let dest = match cast % 3 {
                    0 => Cast::All,
                    1 if n > 1 => Cast::Others,
                    _ => Cast::To(self.group[to % n]),
                };
                let body: Vec<u8> = (0..len).map(|i| (7 * i + who % n) as u8).collect();
                let (stack, env, _) = &mut self.members[who % n];
                stack.send_bytes(dest, Bytes::from(body), env);
            }
            Step::Arrive { pick, fate } if !self.in_flight.is_empty() => {
                let at = pick % self.in_flight.len();
                match fate % 4 {
                    0 => drop(self.in_flight.remove(at)),
                    1 => self.receive(self.in_flight[at].clone()),
                    _ => {
                        let copy = self.in_flight.remove(at);
                        self.receive(copy);
                    }
                }
            }
            Step::Arrive { .. } => {}
            Step::Drain { count } => {
                let count = count.min(self.in_flight.len());
                for copy in self.in_flight.drain(..count).collect::<Vec<_>>() {
                    self.receive(copy);
                }
            }
            Step::Sweep { who } => {
                let (stack, env, _) = &mut self.members[who % n];
                stack.timer(LayerId(0), 1, env);
            }
            Step::Restart { who } => {
                let (stack, env, _) = &mut self.members[who % n];
                stack.restart(env);
            }
        }
        let did: Vec<Did> =
            self.members.iter_mut().flat_map(|(_, env, _)| env.did.drain(..)).collect();
        let group = self.group.clone();
        for d in &did {
            let Did::Out { from, dest, bytes } = d else { continue };
            let to = group.iter().enumerate().filter(|&(_, member)| match dest {
                Cast::All => true,
                Cast::Others => member != from,
                Cast::To(p) => member == p,
            });
            self.in_flight.extend(to.map(|(at, _)| (at, *from, bytes.clone())));
        }
        did
    }

    fn retransmissions(&self) -> Vec<u64> {
        self.members.iter().map(|(_, _, layer)| layer.lock().unwrap().retransmissions()).collect()
    }
}

const SIZES: [u16; 6] = [1, 2, 8, 64, 65, 200];

props! {
    #![config(cases = 96)]

    fn the_ring_does_what_the_maps_did_on_any_schedule(
        shape in (0usize..SIZES.len(), 0u16..40, 1u16..4),
        steps in vec_of((0u8..12, arb::<usize>(), arb::<usize>(), arb::<u8>(), 0usize..48), 0..80),
    ) {
        let (size, offset, stride) = shape;
        let group: Vec<ProcessId> =
            (0..SIZES[size]).map(|i| ProcessId(offset + i * stride)).collect();
        let n = group.len();
        let steps = steps.into_iter().map(|(kind, a, b, c, len)| match kind {
            0..=3 => Step::Send { who: a, cast: c, to: b, len },
            4..=6 => Step::Arrive { pick: a, fate: c },
            // Enough, now and then, to get a whole broadcast acknowledged
            // in the largest group.
            7 | 8 => Step::Drain { count: b % (3 * n + 1) },
            9 | 10 => Step::Sweep { who: a },
            _ => Step::Restart { who: a },
        });
        // Then no more loss: everything in flight arrives and every member
        // sweeps, until the group has nothing left to say.
        let quiesce = (0..2).flat_map(|_| {
            [Step::Drain { count: usize::MAX }]
                .into_iter()
                .chain((0..n).map(|who| Step::Sweep { who }))
                .chain([Step::Drain { count: usize::MAX }, Step::Drain { count: usize::MAX }])
        });

        let mut new = World::<ReliableLayer>::new(&group);
        let mut old = World::<reference::ReliableLayer>::new(&group);
        for step in steps.chain(quiesce) {
            assert_eq!(new.step(step), old.step(step), "at {step:?}");
            assert_eq!(new.retransmissions(), old.retransmissions(), "at {step:?}");
        }
        // The schedule ended in quiet, or the comparison above said little.
        assert!(new.in_flight.is_empty() && old.in_flight.is_empty());
        for who in 0..n {
            let swept = new.step(Step::Sweep { who });
            assert!(swept.is_empty(), "member {who} still retransmits: {swept:?}");
        }
    }
}
