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
//! So it does with a tenth of the copies lost: repaired, and reordered.
//!
//! The counter is per thread, and the whole group runs on the test's.

use ps_bytes::Bytes;
use ps_core::{hybrid_seq_token_ft, NeverOracle, SwitchConfig};
use ps_prof::alloc::{self, Counting};
use ps_simnet::{Lossy, Medium, PointToPoint, SimTime};
use ps_stack::{Driver, GroupSimBuilder};
use ps_trace::ProcessId;

const BODY_LEN: usize = 1400;
static BODY: [u8; BODY_LEN] = [7; BODY_LEN];

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
    let p2p = || Box::new(PointToPoint::new(SimTime::from_micros(100)));
    grows_less_than_a_body_a_multicast("clean", p2p());
    grows_less_than_a_body_a_multicast("lossy", Box::new(Lossy::new(p2p(), 0.10)));
}

fn grows_less_than_a_body_a_multicast(case: &str, medium: Box<dyn Medium>) {
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
        .medium(medium)
        .stack_factory(|_, group, ids| {
            let (cfg, oracle) = (SwitchConfig::default(), Box::new(NeverOracle));
            hybrid_seq_token_ft(ids, cfg, group[0], SimTime::from_millis(1), oracle).0
        })
        .sends(sends)
        .build();

    // Warm: the logs are sized, the queues and the switch's tables full.
    sim.run_until(at(WARM - 1) + SETTLE);
    let delivered = sim.deliveries().len();
    assert_eq!(
        delivered as u64,
        WARM * u64::from(MEMBERS),
        "{case}: every warm multicast delivered"
    );
    let before = alloc::thread().live;

    sim.run_until(at(WARM + MORE - 1) + SETTLE);
    let grown = alloc::thread().live - before;
    let delivered = sim.deliveries().len() - delivered;
    assert_eq!(delivered as u64, MORE * u64::from(MEMBERS), "{case}: every multicast delivered");
    assert!(
        grown < (MORE as usize * BODY_LEN) as i64,
        "{case}: {MORE} more multicasts of {BODY_LEN} bytes left {grown} more bytes live"
    );
}
