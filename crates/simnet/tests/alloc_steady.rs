//! DESIGN.md §2.1's claim, counted: once the engine's buffers have their
//! capacity, the event loop costs the allocator nothing — queue pushes and
//! pops, the medium's plan, the action buffer, the per-node CPU FIFOs.
//!
//! The counter is per thread, so tests here can run side by side.

use ps_bytes::Bytes;
use ps_prof::alloc::{self, Counting};
use ps_simnet::{
    Agent, Dest, EthernetConfig, NodeId, Packet, SharedBus, Sim, SimApi, SimConfig, SimTime,
    TimerToken,
};

#[global_allocator]
static ALLOC: Counting = Counting;

/// Broadcasts its (refcounted) payload on a self-re-arming 1 ms timer and
/// keeps a second, slower timer going beside it.
struct Chatter {
    payload: Bytes,
    received: u64,
}

impl Agent for Chatter {
    fn on_start(&mut self, api: &mut SimApi<'_>) {
        api.set_timer(SimTime::from_millis(1), TimerToken(0));
        api.set_timer(SimTime::from_millis(7), TimerToken(1));
    }
    fn on_packet(&mut self, _: Packet, _: &mut SimApi<'_>) {
        self.received += 1;
    }
    fn on_timer(&mut self, token: TimerToken, api: &mut SimApi<'_>) {
        if token == TimerToken(0) {
            api.send(Dest::All, self.payload.clone());
            api.set_timer(SimTime::from_millis(1), token);
        } else {
            api.set_timer(SimTime::from_millis(7), token);
        }
    }
}

#[test]
fn the_event_loop_is_allocation_free_in_steady_state() {
    let agents: Vec<Chatter> =
        (0..8).map(|_| Chatter { payload: Bytes::from(vec![7u8; 64]), received: 0 }).collect();
    // A non-zero service time makes same-instant arrivals queue in the
    // per-node CPU FIFOs, so those are on the measured path too.
    let cfg = SimConfig::default().seed(3).service_time(SimTime::from_micros(20));
    let mut sim = Sim::new(cfg, Box::new(SharedBus::new(EthernetConfig::default())), agents);
    // Pushes made before the run starts go to the queue's lane, as a
    // driver's workload does; the warm-up drains it.
    for i in 0..100u64 {
        sim.schedule(SimTime::from_micros(i * 100), NodeId((i % 8) as u32), TimerToken(1));
    }
    sim.run_until(SimTime::from_millis(100));

    let (events, before) = (sim.stats().events_processed, alloc::thread().calls);
    sim.run_until(SimTime::from_millis(400));
    let (events, made) = (sim.stats().events_processed - events, alloc::thread().calls - before);
    assert!(events >= 10_000, "only {events} events measured");
    assert_eq!(made, 0, "{made} allocator calls over {events} steady-state events");
    assert!(sim.agents().all(|a| a.received > 0));
}
