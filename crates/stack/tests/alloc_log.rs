//! The application log pins no frame: once warm, an eight-member
//! `hybrid_seq_token_ft` group with 1 400-byte bodies holds less than a
//! body's worth of heap more per multicast after two hundred more of them.
//! Each member logs a delivery of a scheduled body as its id, so a
//! received frame is freed once every member has delivered it and the
//! reliable layer has let it go. A log that kept the received message
//! would keep at least one frame of a body's size per multicast (it reads
//! about 2.4 kB a multicast); this one reads no growth at all, give or take
//! the frames the reliable layer holds at either reading.
//!
//! The counter is per thread, and the whole group runs on the test's.

use ps_bytes::Bytes;
use ps_core::{hybrid_seq_token_ft, NeverOracle, SwitchConfig};
use ps_simnet::SimTime;
use ps_stack::{Driver, GroupSimBuilder};
use ps_trace::ProcessId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

const BODY_LEN: usize = 1400;
static BODY: [u8; BODY_LEN] = [7; BODY_LEN];

thread_local! {
    /// Bytes this thread has allocated and not yet freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn grow(by: i64) {
    // `try_with`: the allocator still runs while a thread's locals are
    // being torn down.
    let _ = LIVE.try_with(|l| l.set(l.get() + by));
}

fn live() -> i64 {
    LIVE.with(Cell::get)
}

struct Counting;

// SAFETY: defers to `System` unchanged; the counting touches one
// const-initialised thread-local cell and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as i64);
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const MEMBERS: u16 = 8;
/// One multicast every two milliseconds, from the members in turn.
const GAP: SimTime = SimTime::from_millis(2);
/// Multicasts before the first reading, and between the two.
const WARM: u64 = 400;
const MORE: u64 = 200;
/// Long enough for every multicast so far to be delivered everywhere and
/// every frame of it acknowledged and dropped by the reliable layer.
const SETTLE: SimTime = SimTime::from_millis(500);

#[test]
fn delivered_frames_are_not_kept_by_the_log() {
    // Multicast `i`'s instant; the last `MORE` wait for the warm ones to settle.
    let at = |i: u64| {
        let pause = if i < WARM { SimTime::ZERO } else { SETTLE };
        SimTime::from_micros((i + 1) * GAP.as_micros()) + pause
    };
    let sends = (0..WARM + MORE).map(|i| {
        let sender = ProcessId((i % u64::from(MEMBERS)) as u16);
        (at(i), sender, Bytes::from_static(&BODY))
    });
    let mut sim = GroupSimBuilder::new(MEMBERS)
        .seed(5)
        .stack_factory(|_, group, ids| {
            let (cfg, oracle) = (SwitchConfig::default(), Box::new(NeverOracle));
            hybrid_seq_token_ft(ids, cfg, group[0], SimTime::from_millis(1), oracle).0
        })
        .sends(sends)
        .build();

    // Warm: the logs are sized, the queues and the switch's tables full.
    sim.run_until(at(WARM - 1) + SETTLE);
    let delivered = sim.deliveries().len();
    assert_eq!(delivered as u64, WARM * u64::from(MEMBERS), "every warm multicast delivered");
    let before = live();

    sim.run_until(at(WARM + MORE - 1) + SETTLE);
    let grown = live() - before;
    let delivered = sim.deliveries().len() - delivered;
    assert_eq!(delivered as u64, MORE * u64::from(MEMBERS), "every multicast delivered");
    assert!(
        grown < (MORE as usize * BODY_LEN) as i64,
        "{MORE} more multicasts of {BODY_LEN} bytes left {grown} more bytes live"
    );
}
