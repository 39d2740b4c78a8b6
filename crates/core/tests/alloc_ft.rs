//! A fault-tolerant multicast, counted: once warm, an eight-member
//! `hybrid_seq_token_ft` makes one allocation for each multicast's
//! headers and one more only where the sequencer relays it, never copies
//! a body, and a retransmission allocates nothing. So what a multicast
//! requests does not grow with its body, and no frame is ever joined into
//! one piece.
//!
//! The stack's one reliable layer sits below the switch, so the channel
//! tag and every header go into the reserve beside the body before the
//! layer keeps its handle, and a sweep resends the kept bytes as they
//! are. With a reliable layer inside a side, the tag would be pushed onto
//! a frame already kept — an allocation per send and per retransmission.
//!
//! The counters are per thread, and the whole group runs on the test's.

use ps_bytes::Bytes;
use ps_core::{hybrid_seq_token_ft, NeverOracle, SwitchConfig};
use ps_simnet::{DetRng, SimTime};
use ps_stack::{Cast, Frame, IdGen, LayerId, Stack, StackEnv};
use ps_trace::{Message, ProcessId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;

/// The body every message carries (a prefix of it, for a smaller one).
const BODY_LEN: usize = 1400;
static BODY: [u8; BODY_LEN] = [5; BODY_LEN];

thread_local! {
    /// `alloc` + `alloc_zeroed` + `realloc` calls made by this thread.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    /// Those of them for a body's worth of bytes or more.
    static BODIES: Cell<u64> = const { Cell::new(0) };
    /// Bytes those calls asked for.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(size: usize) {
    // `try_with`: the allocator still runs while a thread's locals are
    // being torn down.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
    if size >= BODY_LEN {
        let _ = BODIES.try_with(|c| c.set(c.get() + 1));
    }
}

/// `(all calls, body-sized calls)` so far.
fn calls() -> (u64, u64) {
    (CALLS.with(Cell::get), BODIES.with(Cell::get))
}

fn since((calls0, bodies0): (u64, u64)) -> (u64, u64) {
    let (calls1, bodies1) = calls();
    (calls1 - calls0, bodies1 - bodies0)
}

struct Counting;

// SAFETY: defers to `System` unchanged; the counting touches two
// const-initialised thread-local cells and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const MEMBERS: u16 = 8;
/// Member 0 sequences protocol 0, the one in use throughout.
const SEQUENCER: usize = 0;
/// Every frame takes this long.
const LATENCY: SimTime = SimTime::from_micros(100);
/// One application message per millisecond while warming up, from the
/// members in turn.
const GAP: SimTime = SimTime::from_millis(1);
const WARM: SimTime = SimTime::from_millis(400);
/// Long enough for a multicast to be relayed, delivered everywhere and
/// acknowledged; shorter than the sweep interval.
const SETTLE: SimTime = SimTime::from_millis(5);

/// The medium and the clock: frames arrive `LATENCY` after they were sent,
/// in the order sent; timers wait in a list. Both keep their capacity.
struct Net {
    now: SimTime,
    /// Frames on their way: arrival, sender, destination, bytes.
    wire: VecDeque<(SimTime, ProcessId, Cast, Bytes)>,
    /// Armed timers: due, member position, layer, token.
    timers: Vec<(SimTime, usize, LayerId, u32)>,
    delivered: u64,
    /// Unicasts of a body's size put on the wire.
    unicast_bodies: u64,
    /// The next copy of a body bound for this member is lost.
    lose_next_to: Option<ProcessId>,
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
        if matches!(frame.dest, Cast::To(_)) && frame.bytes.len() > BODY_LEN {
            self.net.unicast_bodies += 1;
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
    /// What every multicast carries.
    body: Bytes,
    stacks: Vec<Stack>,
    rngs: Vec<DetRng>,
    net: Net,
    sent: u64,
    /// Timers that resent a body — the reliable layer's sweeps — and the
    /// allocations made inside them.
    resending_timers: u64,
    resend_allocs: (u64, u64),
}

impl Group {
    fn launch(body_len: usize) -> Self {
        let members: Vec<ProcessId> = (0..MEMBERS).map(ProcessId).collect();
        let hold = SimTime::from_millis(1);
        let stacks = members
            .iter()
            .map(|_| {
                let (cfg, oracle) = (SwitchConfig::default(), Box::new(NeverOracle));
                let (stack, _) =
                    hybrid_seq_token_ft(&mut IdGen::new(), cfg, members[SEQUENCER], hold, oracle);
                assert_eq!(stack.layer_names(), ["switch", "reliable"]);
                stack
            })
            .collect();
        let net = Net {
            now: SimTime::ZERO,
            wire: VecDeque::with_capacity(1 << 12),
            timers: Vec::with_capacity(1 << 12),
            delivered: 0,
            unicast_bodies: 0,
            lose_next_to: None,
        };
        let rngs = (0..MEMBERS).map(|p| DetRng::new(u64::from(p) + 1)).collect();
        let mut group = Group {
            members,
            body: Bytes::from_static(&BODY[..body_len]),
            stacks,
            rngs,
            net,
            sent: 0,
            resending_timers: 0,
            resend_allocs: (0, 0),
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

    /// Member `at` multicasts the body.
    fn send(&mut self, at: usize) {
        self.sent += 1;
        let msg = Message::new(self.members[at], self.sent, self.body.clone());
        self.on(at, |stack, env| stack.send(&msg, env));
    }

    /// Processes every frame arrival and timer due up to `until`, in time
    /// order; at one instant, arrivals first, then timers in the order
    /// armed. With `traffic`, the members also multicast in turn every
    /// `GAP`.
    fn run_until(&mut self, until: SimTime, traffic: bool) {
        let mut next_send = traffic.then_some(self.net.now + GAP);
        loop {
            let arrival = self.net.wire.front().map(|&(at, ..)| at);
            let timer = self.net.timers.iter().map(|&(at, ..)| at).min();
            let next = [arrival, timer, next_send].into_iter().flatten().min();
            let Some(now) = next.filter(|&t| t <= until) else { break };
            self.net.now = now;
            if arrival == Some(now) {
                self.arrive();
            } else if timer == Some(now) {
                let due = self.net.timers.iter().position(|&(at, ..)| at == now).expect("due");
                let (_, at, id, token) = self.net.timers.remove(due);
                let (before, resent) = (calls(), self.net.unicast_bodies);
                assert!(self.on(at, |stack, env| stack.timer(id, token, env)), "unknown layer");
                if self.net.unicast_bodies > resent {
                    let (all, bodies) = since(before);
                    self.resend_allocs.0 += all;
                    self.resend_allocs.1 += bodies;
                    self.resending_timers += 1;
                }
            } else {
                self.send((self.sent % u64::from(MEMBERS)) as usize);
                next_send = next_send.map(|t| t + GAP);
            }
        }
        self.net.now = until;
    }

    /// The frame at the head of the wire reaches its receivers, but for a
    /// copy [`Net::lose_next_to`] names; the last of them gets the
    /// sender's own handle.
    fn arrive(&mut self) {
        let (_, from, dest, mut bytes) = self.net.wire.pop_front().expect("a frame is due");
        let receives = |p: ProcessId| match dest {
            Cast::All => true,
            Cast::Others => p != from,
            Cast::To(q) => p == q,
        };
        let last = self.members.iter().rposition(|&p| receives(p));
        for at in 0..self.members.len() {
            let me = self.members[at];
            if !receives(me) {
                continue;
            }
            if bytes.len() > BODY_LEN && self.net.lose_next_to == Some(me) {
                self.net.lose_next_to = None;
                continue;
            }
            let copy = if Some(at) == last { std::mem::take(&mut bytes) } else { bytes.clone() };
            self.on(at, |stack, env| stack.receive(from, copy, env));
        }
    }
}

/// Bytes requested per multicast, one from each member in turn, each
/// settled before the next, on a warm group whose bodies are `body_len`
/// long; and how many frames this thread joined over the whole run.
fn bytes_per_multicast(body_len: usize) -> (f64, u64) {
    let joins = ps_bytes::joins();
    let mut group = Group::launch(body_len);
    group.run_until(WARM, true);
    group.run_until(WARM + SETTLE, false);
    let before = BYTES.with(Cell::get);
    for at in 0..group.members.len() {
        group.send(at);
        group.run_until(group.net.now + SETTLE, false);
    }
    assert_eq!(group.net.delivered, u64::from(MEMBERS) * group.sent, "all delivered");
    let per = (BYTES.with(Cell::get) - before) as f64 / f64::from(MEMBERS);
    (per, ps_bytes::joins() - joins)
}

#[test]
fn a_multicasts_bytes_are_flat_in_its_body() {
    let (small, small_joins) = bytes_per_multicast(32);
    let (large, large_joins) = bytes_per_multicast(BODY_LEN);
    // A push onto a shared body allocates a split frame — headers beside
    // the body — where a 32-byte body is still copied: a little more for
    // the large body, nothing like its 1 368 extra bytes.
    assert!(
        large - small < 100.0,
        "{large} B per multicast with {BODY_LEN}-byte bodies, {small} with 32"
    );
    assert_eq!((small_joins, large_joins), (0, 0), "no frame was joined into one piece");
}

#[test]
fn a_warm_multicast_builds_its_body_once_and_a_retransmission_nothing() {
    let mut group = Group::launch(BODY_LEN);
    group.run_until(WARM, true);
    group.run_until(WARM + SETTLE, false);
    assert_eq!(group.net.delivered, u64::from(MEMBERS) * group.sent, "all delivered");

    // One multicast from each member in turn, each settled before the next.
    for at in 0..group.members.len() {
        let delivered = group.net.delivered;
        let before = calls();
        group.send(at);
        group.run_until(group.net.now + SETTLE, false);
        let (all, bodies) = since(before);
        assert_eq!(group.net.delivered - delivered, u64::from(MEMBERS), "member {at}'s multicast");
        // The headers beside the body; and, from anyone but the
        // sequencer, the relay's: the forwarded frame arrives sharing the
        // sender's kept split, so the sequencer's header cannot go into
        // its reserve. Neither copies the body.
        let want = if at == SEQUENCER { 1 } else { 2 };
        assert_eq!((all, bodies), (want, 0), "member {at}'s multicast (calls, body-sized)");
    }

    // A copy lost on its way out of the sequencer: the next sweep resends
    // the kept frame to the one member that did not acknowledge it.
    let (sweeps, allocs) = (group.resending_timers, group.resend_allocs);
    group.net.lose_next_to = Some(group.members[5]);
    let delivered = group.net.delivered;
    group.send(SEQUENCER);
    group.run_until(group.net.now + SimTime::from_millis(50), false);
    assert_eq!(group.net.lose_next_to, None, "the copy was lost");
    assert_eq!(group.net.delivered - delivered, u64::from(MEMBERS), "delivered once repaired");
    assert!(group.resending_timers > sweeps, "a sweep resent the body");
    assert_eq!(group.resend_allocs, allocs, "a retransmission allocates nothing");
}
