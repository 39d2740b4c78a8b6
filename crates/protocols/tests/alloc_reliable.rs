//! An acknowledged round trip through `[fifo, reliable]`, counted: the
//! data frame costs the allocator its buffer and nothing else — the two
//! headers go into the reserve, the retained copy is a handle, the ring
//! slot and the bits of who owes an acknowledgement are in place — the
//! acknowledgements cost nothing at all, built, sent, received and applied
//! (a frame that small lives in its handle), and once the tables have
//! their size no later round trip grows them.
//!
//! One `#[test]` only; the counter is per thread all the same.

use ps_bytes::Bytes;
use ps_protocols::{FifoLayer, ReliableLayer};
use ps_simnet::{DetRng, SimTime};
use ps_stack::{Cast, Frame, LayerId, Stack, StackEnv};
use ps_trace::{Message, ProcessId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `alloc` + `alloc_zeroed` + `realloc` calls made by this thread.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator still runs while a thread's locals are
    // being torn down.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

fn calls() -> u64 {
    CALLS.with(Cell::get)
}

struct Counting;

// SAFETY: defers to `System` unchanged; the counting touches one
// const-initialised thread-local cell and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const GROUP: [ProcessId; 2] = [ProcessId(0), ProcessId(1)];

/// One member's surroundings, allocation-free once warm: frames bound for
/// the network wait in a vector that keeps its capacity.
struct Env {
    me: ProcessId,
    rng: DetRng,
    out: Vec<Frame>,
    delivered: u64,
}

impl StackEnv for Env {
    fn me(&self) -> ProcessId {
        self.me
    }
    fn group(&self) -> &[ProcessId] {
        &GROUP
    }
    fn now(&self) -> SimTime {
        SimTime::ZERO
    }
    fn rng(&mut self) -> &mut DetRng {
        &mut self.rng
    }
    fn transmit(&mut self, frame: Frame) {
        self.out.push(frame);
    }
    fn deliver(&mut self, _: ProcessId, _: Message) {
        self.delivered += 1;
    }
    fn set_timer(&mut self, _: SimTime, _: LayerId, _: u32) {}
}

struct Member {
    stack: Stack,
    env: Env,
}

impl Member {
    fn new(me: ProcessId) -> Self {
        let stack = Stack::new(vec![Box::new(FifoLayer::new()), Box::new(ReliableLayer::new())]);
        Member { stack, env: Env { me, rng: DetRng::new(1), out: Vec::new(), delivered: 0 } }
    }

    /// The one frame the last call put on the wire.
    fn sent(&mut self) -> Frame {
        assert_eq!(self.env.out.len(), 1);
        self.env.out.pop().expect("one frame")
    }
}

/// Allocator calls of one round trip, by leg.
#[derive(Debug, Default, PartialEq)]
struct Cost {
    /// Sender: the message down the stack and out.
    send: u64,
    /// Both members: the data frame in, the acknowledgement out, the
    /// message up to the application.
    receive: u64,
    /// Sender: both acknowledgements in, the frame retired.
    acked: u64,
}

/// Member 0 multicasts message `seq`; both members receive it and
/// acknowledge; member 0 receives both acknowledgements.
fn round_trip(members: &mut [Member; 2], seq: u64) -> Cost {
    let msg = Message::new(GROUP[0], seq, Bytes::from_static(&[0x5A; 32]));
    let mut cost = Cost::default();

    let before = calls();
    members[0].stack.send(&msg, &mut members[0].env);
    cost.send = calls() - before;
    let data = members[0].sent();
    assert_eq!(data.dest, Cast::All);

    let before = calls();
    let mut acks: [Option<Bytes>; 2] = [None, None];
    for (member, ack) in members.iter_mut().zip(&mut acks) {
        member.stack.receive(GROUP[0], data.bytes.clone(), &mut member.env);
        let frame = member.sent();
        assert_eq!(frame.dest, Cast::To(GROUP[0]));
        *ack = Some(frame.bytes);
    }
    cost.receive = calls() - before;
    drop(data);

    let before = calls();
    for (from, ack) in GROUP.into_iter().zip(acks) {
        members[0].stack.receive(from, ack.expect("an ack per member"), &mut members[0].env);
    }
    cost.acked = calls() - before;
    assert!(members[0].env.out.is_empty(), "an acknowledgement is not answered");
    cost
}

#[test]
fn an_acknowledged_round_trip_allocates_the_data_frames_buffer_and_nothing_else() {
    let mut members = [Member::new(GROUP[0]), Member::new(GROUP[1])];
    // The work queues, the ring and the per-member tables get their size.
    for seq in 1..=8 {
        round_trip(&mut members, seq);
    }

    let before = calls();
    for seq in 9..=1008 {
        let cost = round_trip(&mut members, seq);
        assert_eq!(cost, Cost { send: 1, receive: 0, acked: 0 }, "round trip {seq}");
    }
    assert_eq!(calls() - before, 1000, "steady state: no table grows");
    assert_eq!((members[0].env.delivered, members[1].env.delivered), (1008, 1008));

    // Nothing is owed: a sweep has nothing to send again.
    assert!(members[0].stack.timer(LayerId(1), 1, &mut members[0].env));
    assert!(members[0].env.out.is_empty());

    // With frames outstanding the ring holds them — and then lets them
    // go: a burst of unacknowledged sends followed by its acknowledgements
    // leaves the layer where it was, and the next round trip costs what
    // every other did.
    let mut burst = Vec::new();
    for seq in 1009..=1040 {
        let msg = Message::new(GROUP[0], seq, Bytes::from_static(&[0x5A; 32]));
        members[0].stack.send(&msg, &mut members[0].env);
        burst.push(members[0].sent());
    }
    for data in burst {
        for member in &mut members {
            member.stack.receive(GROUP[0], data.bytes.clone(), &mut member.env);
        }
        let acks: Vec<Frame> = members.iter_mut().map(Member::sent).collect();
        for (from, ack) in GROUP.into_iter().zip(acks) {
            members[0].stack.receive(from, ack.bytes, &mut members[0].env);
        }
    }
    let cost = round_trip(&mut members, 1041);
    assert_eq!(cost, Cost { send: 1, receive: 0, acked: 0 }, "after a burst");
}
