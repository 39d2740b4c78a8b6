//! Layer drives: each crate's public types timed from outside.
//!
//! A drive builds one layer's public type, calls its public functions in
//! a loop and reports nanoseconds (and, where it matters, allocations)
//! per operation. Protocol layers run as a one-layer [`Stack`] in every
//! member of a [`LoopGroup`] — a benchmark-owned `StackEnv` that hands
//! each emitted frame straight to its receivers' stacks and keeps the
//! layers' timers on a virtual clock — so a layer is measured without
//! the simulator around it. The numbers say what a layer costs in
//! isolation; which end-to-end metric each should move is written down
//! in the README.

use crate::alloc;
use crate::spans::Tracer;
use crate::stats::median;
use ps_bytes::Bytes;
use ps_core::{hybrid_total_order, NeverOracle, SwitchConfig};
use ps_obs::{MonitorSet, ObsEvent, Recorder};
use ps_protocols::{FifoLayer, ReliableLayer, SeqOrderLayer, TokenOrderLayer};
use ps_simnet::{
    Agent, Dest, DetRng, EthernetConfig, EventQueue, Medium as _, NodeId, Packet, SharedBus, Sim,
    SimApi, SimConfig, SimTime, TimerToken, TxPlan,
};
use ps_stack::{Cast, Frame, IdGen, Layer, LayerId, Stack, StackEnv};
use ps_trace::{Message, ProcessId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Members of every drive group, as in the simulated workloads.
const GROUP: u16 = 8;
/// Batches per drive; the median batch is reported.
const BATCHES: usize = 5;

/// Median over [`BATCHES`] batches of the nanoseconds one of `ops`
/// operations took.
fn ns_per_op(ops: usize, mut op: impl FnMut()) -> f64 {
    let mut batches = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..ops {
            op();
        }
        batches.push(t.elapsed().as_nanos() as f64 / ops as f64);
    }
    median(&batches)
}

fn body(len: usize) -> Bytes {
    Bytes::from(vec![0xA5u8; len])
}

/// `ps-wire`: one header pushed and popped around a payload — the
/// operation every layer performs once per direction.
fn wire(out: &mut Vec<(&'static str, f64)>) {
    let pair = |payload: &Bytes| {
        let framed = ps_wire::push_header(&0xDEAD_BEEFu64, payload.clone());
        let (h, rest) = ps_wire::pop_header::<u64>(&framed).expect("own header");
        black_box((h, rest.len()));
    };
    let (small, large) = (body(32), body(1400));
    out.push(("wire.push_pop_ns.b32", ns_per_op(20_000, || pair(&small))));
    out.push(("wire.push_pop_ns.b1400", ns_per_op(20_000, || pair(&large))));
    let a0 = alloc::snapshot();
    pair(&large);
    out.push(("wire.push_pop_alloc_bytes.b1400", (alloc::snapshot().bytes - a0.bytes) as f64));
}

/// `ps-bytes`: an O(1) slice against a fresh copy of a full payload.
fn bytes(out: &mut Vec<(&'static str, f64)>) {
    let large = body(1400);
    out.push((
        "bytes.slice_ns",
        ns_per_op(100_000, || {
            black_box(large.slice(16..).len());
        }),
    ));
    let raw = vec![0x5Au8; 1400];
    out.push((
        "bytes.copy_ns.b1400",
        ns_per_op(20_000, || {
            black_box(Bytes::copy_from_slice(black_box(&raw)).len());
        }),
    ));
}

/// Raw engine load: every agent broadcasts once a millisecond, no stack.
struct Broadcaster {
    rounds_left: u32,
    payload: Bytes,
}

impl Agent for Broadcaster {
    fn on_start(&mut self, api: &mut SimApi<'_>) {
        api.set_timer(SimTime::from_millis(1), TimerToken(0));
    }
    fn on_packet(&mut self, pkt: Packet, _: &mut SimApi<'_>) {
        black_box(pkt.payload.len());
    }
    fn on_timer(&mut self, _: TimerToken, api: &mut SimApi<'_>) {
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            api.send(Dest::All, self.payload.clone());
            api.set_timer(SimTime::from_millis(1), TimerToken(0));
        }
    }
}

/// `ps-simnet`: the timing wheel at a steady depth, the bus model's
/// per-frame plan, and the event loop under raw agents.
fn simnet(out: &mut Vec<(&'static str, f64)>) {
    let mut q = EventQueue::new();
    let mut rng = DetRng::new(7);
    let mut now = SimTime::ZERO;
    for i in 0..1024u64 {
        q.push(SimTime::from_micros(rng.range(1, 5000)), i);
    }
    out.push((
        "simnet.wheel.push_pop_ns",
        ns_per_op(200_000, || {
            let (at, e) = q.pop().expect("depth stays 1024");
            now = at;
            q.push(now + SimTime::from_micros(rng.range(1, 5000)), e);
        }),
    ));

    let mut bus = SharedBus::new(EthernetConfig::default());
    let dests: Vec<NodeId> = (0..u32::from(GROUP)).map(NodeId).collect();
    let mut plan = TxPlan::default();
    let mut t = SimTime::ZERO;
    out.push((
        "simnet.medium.transmit_ns.d8",
        ns_per_op(100_000, || {
            t += SimTime::from_micros(100);
            bus.transmit_into(NodeId(0), &dests, 64, t, &mut rng, &mut plan);
            black_box(plan.deliveries.len());
        }),
    ));

    let mut runs = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let agents: Vec<Broadcaster> =
            (0..GROUP).map(|_| Broadcaster { rounds_left: 2000, payload: body(64) }).collect();
        let cfg = SimConfig::default().seed(7).service_time(SimTime::from_micros(5));
        let bus =
            SharedBus::new(EthernetConfig { bandwidth_bps: 100_000_000, ..Default::default() });
        let mut sim = Sim::new(cfg, Box::new(bus), agents);
        let t = Instant::now();
        sim.run_until(SimTime::from_secs(3));
        runs.push(t.elapsed().as_nanos() as f64 / sim.stats().events_processed as f64);
    }
    out.push(("simnet.sim.event_ns", median(&runs)));
}

/// A pending layer timer: `(due, tie-break, member, layer id, token)`;
/// the heap pops the earliest.
type Timers = BinaryHeap<Reverse<(SimTime, u64, u16, u32, u32)>>;

/// One member's side of a [`LoopGroup`].
struct LoopEnv<'a> {
    me: ProcessId,
    group: &'a [ProcessId],
    now: SimTime,
    rng: &'a mut DetRng,
    frames: &'a mut VecDeque<(ProcessId, Frame)>,
    timers: &'a mut Timers,
    timer_seq: &'a mut u64,
    delivered: &'a mut u64,
}

impl StackEnv for LoopEnv<'_> {
    fn me(&self) -> ProcessId {
        self.me
    }
    fn group(&self) -> &[ProcessId] {
        self.group
    }
    fn now(&self) -> SimTime {
        self.now
    }
    fn rng(&mut self) -> &mut DetRng {
        self.rng
    }
    fn transmit(&mut self, frame: Frame) {
        self.frames.push_back((self.me, frame));
    }
    fn deliver(&mut self, _src: ProcessId, msg: Message) {
        black_box(msg.id);
        *self.delivered += 1;
    }
    fn set_timer(&mut self, delay: SimTime, id: LayerId, token: u32) {
        *self.timer_seq += 1;
        self.timers.push(Reverse((self.now + delay, *self.timer_seq, self.me.0, id.0, token)));
    }
}

/// Eight stacks joined by an instantaneous, lossless loopback.
struct LoopGroup {
    group: Vec<ProcessId>,
    stacks: Vec<Stack>,
    now: SimTime,
    rng: DetRng,
    frames: VecDeque<(ProcessId, Frame)>,
    timers: Timers,
    timer_seq: u64,
    delivered: u64,
}

impl LoopGroup {
    fn new(mut stack: impl FnMut(ProcessId, &mut IdGen) -> Stack) -> Self {
        let group: Vec<ProcessId> = (0..GROUP).map(ProcessId).collect();
        let stacks = group.iter().map(|&p| stack(p, &mut IdGen::new())).collect();
        let mut g = Self {
            group,
            stacks,
            now: SimTime::ZERO,
            rng: DetRng::new(11),
            frames: VecDeque::new(),
            timers: BinaryHeap::new(),
            timer_seq: 0,
            delivered: 0,
        };
        for i in 0..g.stacks.len() {
            g.with_env(i, |s, env| s.launch(env));
        }
        g.drain_frames();
        g
    }

    fn with_env(&mut self, member: usize, f: impl FnOnce(&mut Stack, &mut LoopEnv<'_>)) {
        let mut env = LoopEnv {
            me: self.group[member],
            group: &self.group,
            now: self.now,
            rng: &mut self.rng,
            frames: &mut self.frames,
            timers: &mut self.timers,
            timer_seq: &mut self.timer_seq,
            delivered: &mut self.delivered,
        };
        f(&mut self.stacks[member], &mut env);
    }

    fn drain_frames(&mut self) {
        while let Some((src, frame)) = self.frames.pop_front() {
            for member in 0..self.group.len() {
                let p = self.group[member];
                let hears = match frame.dest {
                    Cast::All => true,
                    Cast::Others => p != src,
                    Cast::To(q) => p == q,
                };
                if hears {
                    let bytes = frame.bytes.clone();
                    self.with_env(member, |s, env| s.receive(src, bytes, env));
                }
            }
        }
    }

    /// Fires every timer due by `until`, then sets the clock there.
    fn advance(&mut self, until: SimTime) {
        while self.timers.peek().is_some_and(|t| t.0 .0 <= until) {
            let Reverse((at, _, member, layer, token)) = self.timers.pop().expect("peeked");
            self.now = at;
            self.with_env(usize::from(member), |s, env| {
                s.timer(LayerId(layer), token, env);
            });
            self.drain_frames();
        }
        self.now = until;
    }

    /// The last four members multicast `msgs` messages in turn, one every
    /// 250 µs of virtual time; runs until every member delivered all.
    fn run(&mut self, msgs: u64, body: &Bytes) {
        let senders = self.group.len() / 2;
        for k in 0..msgs {
            self.advance(self.now + SimTime::from_micros(250));
            let member = senders + (k as usize % senders);
            let msg = Message::new(self.group[member], k / senders as u64 + 1, body.clone());
            self.with_env(member, |s, env| s.send(&msg, env));
            self.drain_frames();
        }
        let want = msgs * self.group.len() as u64;
        let give_up = self.now + SimTime::from_secs(5);
        while self.delivered < want && self.now < give_up {
            self.advance(self.now + SimTime::from_millis(1));
        }
        assert_eq!(self.delivered, want, "layer drive lost deliveries");
    }
}

/// Messages per protocol drive batch.
const DRIVE_MSGS: u64 = 1000;

/// Host ns and allocator calls per multicast of a group running the
/// stack `build` makes (median over batches; each batch a fresh group).
fn group_cost(mut build: impl FnMut(ProcessId, &mut IdGen) -> Stack) -> (f64, f64) {
    let payload = body(32);
    let (mut ns, mut allocs) = (Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        let mut g = LoopGroup::new(&mut build);
        let a0 = alloc::snapshot();
        let t = Instant::now();
        g.run(DRIVE_MSGS, &payload);
        ns.push(t.elapsed().as_nanos() as f64 / DRIVE_MSGS as f64);
        allocs.push((alloc::snapshot().calls - a0.calls) as f64 / DRIVE_MSGS as f64);
    }
    (median(&ns), median(&allocs))
}

fn one_layer(layer: impl Fn() -> Box<dyn Layer>) -> impl FnMut(ProcessId, &mut IdGen) -> Stack {
    move |_, ids| Stack::with_ids(vec![layer()], ids)
}

/// `ps-stack`: a frame down and up through four layers that do nothing.
fn stack(out: &mut Vec<(&'static str, f64)>) {
    struct Noop;
    impl Layer for Noop {
        fn name(&self) -> &'static str {
            "noop"
        }
    }
    let mut g = LoopGroup::new(|_, ids| {
        Stack::with_ids((0..4).map(|_| Box::new(Noop) as Box<dyn Layer>).collect(), ids)
    });
    let msg = Message::new(ProcessId(0), 1, body(32));
    out.push((
        "stack.passthrough_ns.k4",
        ns_per_op(20_000, || {
            g.with_env(0, |s, env| s.send(&msg, env));
            // One receiver's traversal up, not the whole group's.
            let (src, frame) = g.frames.pop_front().expect("noop layers pass the frame down");
            g.with_env(1, |s, env| s.receive(src, frame.bytes, env));
        }),
    ));
}

/// `ps-protocols` and `ps-core`: each ordering / transport layer alone,
/// and the switch layer in normal mode over the same seq-order protocol.
fn protocols_and_core(out: &mut Vec<(&'static str, f64)>) {
    let (seq_ns, seq_allocs) = group_cost(one_layer(|| Box::new(SeqOrderLayer::new(ProcessId(0)))));
    out.push(("protocols.seq_order.msg_ns", seq_ns));
    out.push(("protocols.seq_order.allocs_per_msg", seq_allocs));
    let (ns, allocs) = group_cost(one_layer(|| {
        Box::new(TokenOrderLayer::with_idle_hold(SimTime::from_millis(1)))
    }));
    out.push(("protocols.token_order.msg_ns", ns));
    out.push(("protocols.token_order.allocs_per_msg", allocs));
    let (ns, allocs) = group_cost(one_layer(|| Box::new(FifoLayer::new())));
    out.push(("protocols.fifo.msg_ns", ns));
    out.push(("protocols.fifo.allocs_per_msg", allocs));
    let (ns, allocs) = group_cost(one_layer(|| Box::new(ReliableLayer::new())));
    out.push(("protocols.reliable.msg_ns", ns));
    out.push(("protocols.reliable.allocs_per_msg", allocs));

    let (switch_ns, _) = group_cost(|_, ids| {
        hybrid_total_order(ids, SwitchConfig::default(), ProcessId(0), Box::new(NeverOracle)).0
    });
    out.push(("core.switch.msg_ns", switch_ns));
    out.push(("core.switch.overhead_ratio", switch_ns / seq_ns));
}

/// `ps-obs`: one `record` call with the tap off, on, and on with the
/// standard monitors subscribed. The events are a consistent run (each
/// message sent once, delivered by all eight in one order), so the
/// monitors do their real work and retire state as they go.
fn obs(out: &mut Vec<(&'static str, f64)>) {
    let record_msgs = |rec: &Recorder| {
        let mut seq = 0u64;
        ns_per_op(20_000, || {
            seq += 1;
            rec.record(seq, 4, ObsEvent::AppSend { sender: 4, seq });
            for node in 0..u32::from(GROUP) {
                rec.record(seq, node, ObsEvent::AppDeliver { sender: 4, seq });
            }
        }) / f64::from(GROUP + 1)
    };
    out.push(("obs.record_ns.disabled", record_msgs(&Recorder::disabled())));
    out.push(("obs.record_ns.enabled", record_msgs(&Recorder::with_capacity(1 << 16))));
    let rec = Recorder::with_capacity(1 << 16);
    let monitors = MonitorSet::standard(u32::from(GROUP), 1_000_000);
    monitors.attach(&rec);
    out.push(("obs.record_ns.monitored", record_msgs(&rec)));
    assert!(monitors.finish().is_empty(), "the obs drive's event stream is a clean run");
}

/// `ps-net`: the datagram envelope around a 64-byte frame.
fn net(out: &mut Vec<(&'static str, f64)>) {
    let frame = body(64);
    out.push((
        "net.dgram.encode_decode_ns.b64",
        ns_per_op(50_000, || {
            let wire = ps_net::dgram::encode(ProcessId(1), &frame);
            let (src, payload) = ps_net::dgram::decode(&wire).expect("own datagram");
            black_box((src, payload.len()));
        }),
    ));
}

/// Runs every layer drive, each inside its own span, and returns the
/// per-layer metrics they produce.
pub fn run_all(tracer: &mut Tracer) -> Vec<(&'static str, f64)> {
    type Drive = fn(&mut Vec<(&'static str, f64)>);
    let drives: [(&'static str, Drive); 7] = [
        ("drive.wire", wire),
        ("drive.bytes", bytes),
        ("drive.simnet", simnet),
        ("drive.stack", stack),
        ("drive.protocols_core", protocols_and_core),
        ("drive.obs", obs),
        ("drive.net", net),
    ];
    tracer.set_rep("drive", 0);
    let root = tracer.begin("drives");
    let mut out = Vec::new();
    for (name, drive) in drives {
        let sp = tracer.begin(name);
        drive(&mut out);
        tracer.end(sp);
    }
    tracer.end(root);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The loopback group is a faithful enough network: every protocol
    /// layer delivers every message to every member through it (the
    /// assertion inside `run`), including the token protocol, which needs
    /// its timers to rotate the token.
    #[test]
    fn loop_group_delivers_through_every_protocol() {
        let payload = body(32);
        let mut token = LoopGroup::new(one_layer(|| {
            Box::new(TokenOrderLayer::with_idle_hold(SimTime::from_millis(1)))
        }));
        token.run(40, &payload);
        assert_eq!(token.delivered, 40 * u64::from(GROUP));
        let mut reliable = LoopGroup::new(one_layer(|| Box::new(ReliableLayer::new())));
        reliable.run(40, &payload);
        let mut hybrid = LoopGroup::new(|_, ids| {
            hybrid_total_order(ids, SwitchConfig::default(), ProcessId(0), Box::new(NeverOracle)).0
        });
        hybrid.run(40, &payload);
    }
}
