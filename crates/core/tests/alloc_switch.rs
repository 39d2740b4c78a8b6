//! A switch, counted: once warm, an eight-member `hybrid_total_order`
//! under steady traffic runs complete token-ring switches for one buffer
//! per control frame too long for a `Bytes` handle to hold — each hop of
//! the PREPARE, SWITCH and FLUSH rotations, whose token carries the count
//! vector — one per application message, its frame, and nothing else: no
//! vector per token hop, nothing per delivery, nothing per flip.
//!
//! The counter is per thread, and the whole group runs on the test's.

use ps_bytes::Bytes;
use ps_core::{hybrid_total_order, ManualOracle, NeverOracle, Oracle, SwitchConfig, SwitchHandle};
use ps_prof::alloc::{self, Counting};
use ps_simnet::{DetRng, SimTime};
use ps_stack::{Cast, ChannelId, Frame, IdGen, LayerId, Stack, StackEnv};
use ps_trace::{Message, ProcessId};
use std::collections::VecDeque;

#[global_allocator]
static ALLOC: Counting = Counting;

const MEMBERS: u16 = 8;
/// Every frame takes this long, so that a switch takes time and what the
/// new protocol delivers meanwhile is buffered until the flip.
const LATENCY: SimTime = SimTime::from_micros(100);
/// One application message per millisecond, from the members in turn.
const GAP: SimTime = SimTime::from_millis(1);
/// Member 0 asks for a switch this often, alternating the protocols.
const PERIOD: SimTime = SimTime::from_millis(50);
/// Longest content a `Bytes` handle holds without a buffer.
const IN_HANDLE: usize = 22;
/// The body every message carries: longer than a handle holds, so that a
/// send's frame is a buffer — the one allocation a send is allowed.
static BODY: [u8; 32] = [9; 32];

/// The medium and the clock: frames arrive `LATENCY` after they were sent,
/// in the order sent; timers wait in a list. Both keep their capacity.
struct Net {
    now: SimTime,
    /// Frames on their way: arrival, sender, destination, bytes.
    wire: VecDeque<(SimTime, ProcessId, Cast, Bytes)>,
    /// Armed timers: due, member position, layer, token.
    timers: Vec<(SimTime, usize, LayerId, u32)>,
    delivered: u64,
    /// Frames sent on the switch's control channel that are a buffer.
    control_buffers: u64,
}

/// One member's view of the group.
struct Env<'a> {
    at: usize,
    group: &'a [ProcessId],
    rng: &'a mut DetRng,
    net: &'a mut Net,
}

impl StackEnv for Env<'_> {
    fn me(&self) -> ProcessId {
        self.group[self.at]
    }
    fn group(&self) -> &[ProcessId] {
        self.group
    }
    fn now(&self) -> SimTime {
        self.net.now
    }
    fn rng(&mut self) -> &mut DetRng {
        self.rng
    }
    fn transmit(&mut self, frame: Frame) {
        let control = frame.bytes.first() == Some(&ChannelId::CONTROL.0);
        if control && frame.bytes.len() > IN_HANDLE {
            self.net.control_buffers += 1;
        }
        let arrival = self.net.now + LATENCY;
        self.net.wire.push_back((arrival, self.me(), frame.dest, frame.bytes));
    }
    fn deliver(&mut self, _src: ProcessId, _msg: Message) {
        self.net.delivered += 1;
    }
    fn set_timer(&mut self, delay: SimTime, id: LayerId, token: u32) {
        self.net.timers.push((self.net.now + delay, self.at, id, token));
    }
}

struct Group {
    members: Vec<ProcessId>,
    stacks: Vec<Stack>,
    rngs: Vec<DetRng>,
    handles: Vec<SwitchHandle>,
    net: Net,
    next_send: SimTime,
    sent: u64,
}

impl Group {
    /// The group, launched, with member 0 scripting a switch every
    /// `PERIOD` until `until`.
    fn launch(until: SimTime) -> Self {
        let members: Vec<ProcessId> = (0..MEMBERS).map(ProcessId).collect();
        let plan: Vec<(SimTime, usize)> = (1..)
            .map(|k| (PERIOD.mul(k), (k % 2) as usize))
            .take_while(|&(at, _)| at < until)
            .collect();
        let cfg = SwitchConfig {
            observe_interval: SimTime::from_millis(10),
            // The window's deque reaches its size within the warm-up.
            observe_window: SimTime::from_millis(100),
            ..SwitchConfig::default()
        };
        let (stacks, handles) = members
            .iter()
            .map(|&p| {
                let oracle: Box<dyn Oracle> = if p == members[0] {
                    Box::new(ManualOracle::new(plan.clone()))
                } else {
                    Box::new(NeverOracle)
                };
                hybrid_total_order(&mut IdGen::new(), cfg.clone(), members[0], oracle)
            })
            .unzip();
        let net = Net {
            now: SimTime::ZERO,
            wire: VecDeque::with_capacity(1 << 10),
            timers: Vec::with_capacity(1 << 12),
            delivered: 0,
            control_buffers: 0,
        };
        let rngs = (0..MEMBERS).map(|p| DetRng::new(u64::from(p) + 1)).collect();
        let mut group = Group {
            members,
            stacks,
            rngs,
            handles,
            net,
            next_send: SimTime::from_millis(1),
            sent: 0,
        };
        for at in 0..group.members.len() {
            group.on(at, |stack, env| stack.launch(env));
        }
        group
    }

    /// Runs `f` on member `at`'s stack, in its environment.
    fn on<R>(&mut self, at: usize, f: impl FnOnce(&mut Stack, &mut Env<'_>) -> R) -> R {
        let mut env = Env { at, group: &self.members, rng: &mut self.rngs[at], net: &mut self.net };
        f(&mut self.stacks[at], &mut env)
    }

    /// Processes every frame arrival, timer and send due up to `until`, in
    /// time order; at one instant, arrivals first, then timers in the
    /// order armed, then the send.
    fn run_until(&mut self, until: SimTime) {
        loop {
            let arrival = self.net.wire.front().map(|&(at, ..)| at);
            let timer = self.net.timers.iter().map(|&(at, ..)| at).min();
            let next = [arrival, timer, Some(self.next_send)].into_iter().flatten().min();
            let Some(now) = next.filter(|&t| t <= until) else { break };
            self.net.now = now;
            if arrival == Some(now) {
                self.arrive();
            } else if timer == Some(now) {
                let due = self.net.timers.iter().position(|&(at, ..)| at == now).expect("due");
                let (_, at, id, token) = self.net.timers.remove(due);
                assert!(self.on(at, |stack, env| stack.timer(id, token, env)), "unknown layer");
            } else {
                let at = (self.sent % u64::from(MEMBERS)) as usize;
                self.sent += 1;
                let msg = Message::new(self.members[at], self.sent, Bytes::from_static(&BODY));
                self.on(at, |stack, env| stack.send(&msg, env));
                self.next_send += GAP;
            }
        }
        self.net.now = until;
    }

    /// The frame at the head of the wire reaches its receivers; the last
    /// of them gets the sender's own handle.
    fn arrive(&mut self) {
        let (_, from, dest, mut bytes) = self.net.wire.pop_front().expect("a frame is due");
        let receives = |p: ProcessId| match dest {
            Cast::All => true,
            Cast::Others => p != from,
            Cast::To(q) => p == q,
        };
        let last = self.members.iter().rposition(|&p| receives(p));
        for at in 0..self.members.len() {
            if receives(self.members[at]) {
                let copy =
                    if Some(at) == last { std::mem::take(&mut bytes) } else { bytes.clone() };
                self.on(at, |stack, env| stack.receive(from, copy, env));
            }
        }
    }

    fn switches(&self) -> Vec<usize> {
        self.handles.iter().map(SwitchHandle::switches_completed).collect()
    }
}

#[test]
fn a_warm_switch_allocates_only_the_buffers_of_its_frames() {
    // Forty switches to warm up, twenty counted, each between two of
    // member 0's wishes. The handles' record lists hold 40 of a capacity
    // of 64 when the count starts and 60 when it ends: they do not grow.
    const WARM: u64 = 40;
    const COUNTED: u64 = 20;
    let start = PERIOD.mul(WARM) + SimTime::from_millis(25);
    let end = start + PERIOD.mul(COUNTED);
    let mut group = Group::launch(end);
    group.run_until(start);
    assert_eq!(group.switches(), vec![WARM as usize; MEMBERS.into()]);

    let before = alloc::thread().calls;
    let (sent, delivered, control_buffers) =
        (group.sent, group.net.delivered, group.net.control_buffers);
    group.run_until(end);
    let allocs = alloc::thread().calls - before;
    let sent = group.sent - sent;
    let delivered = group.net.delivered - delivered;
    let control_buffers = group.net.control_buffers - control_buffers;

    assert_eq!(group.switches(), vec![(WARM + COUNTED) as usize; MEMBERS.into()]);
    // Three rotations of eight hops, every one of them a token carrying
    // the vector; the idle token and the wake fit in the handle.
    assert_eq!(control_buffers, 3 * u64::from(MEMBERS) * COUNTED);
    assert!(delivered >= u64::from(MEMBERS) * (sent - 20), "{delivered} of {sent} multicasts");
    assert!(group.handles.iter().any(|h| h.snapshot().buffered_peak > 0), "nothing was buffered");
    assert_eq!(allocs, control_buffers + sent, "one buffer per control frame and per send");
}
