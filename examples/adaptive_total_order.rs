//! The paper's motivating scenario (§1 "Performance", §7): a group whose
//! load varies. Under few active senders the sequencer protocol has the
//! lowest latency; under many the token protocol wins. The hybrid — a
//! threshold oracle driving the switching protocol — follows the load.
//!
//! ```text
//! cargo run --release --example adaptive_total_order
//! ```

use protocol_switching::prelude::*;
use protocol_switching::workload::TrafficSpec;
use std::cell::RefCell;
use std::rc::Rc;

fn main() {
    let n = 10u16;
    let handles: Rc<RefCell<Vec<SwitchHandle>>> = Rc::new(RefCell::new(Vec::new()));
    let h2 = handles.clone();

    let mut builder = GroupSimBuilder::new(n)
        .seed(99)
        .medium(Box::new(SharedBus::new(EthernetConfig::default())))
        .stack_factory(move |p, _, ids| {
            let oracle: Box<dyn Oracle> = if p == ProcessId(0) {
                // Switch to the token protocol above ~5 active senders.
                Box::new(ThresholdOracle::new(5, 0))
            } else {
                Box::new(NeverOracle)
            };
            let cfg = SwitchConfig {
                variant: SwitchVariant::TokenRing { idle_hold: SimTime::from_millis(2) },
                observe_interval: SimTime::from_millis(50),
                observe_window: SimTime::from_millis(250),
                ..SwitchConfig::default()
            };
            let (stack, handle) = hybrid_total_order(ids, cfg, ProcessId(0), oracle);
            h2.borrow_mut().push(handle);
            stack
        });

    // Load profile: 2 senders → 8 senders → 2 senders, 1.5 s each phase.
    let phases = [(0u64, 2u16), (1_500, 8), (3_000, 2)];
    for (start_ms, k) in phases {
        let spec = TrafficSpec {
            group: n,
            senders: k,
            rate: 50.0,
            body_bytes: 1024,
            start: SimTime::from_millis(100 + start_ms),
            end: SimTime::from_millis(100 + start_ms + 1_500),
            seed: start_ms ^ 0xAD,
            ..TrafficSpec::default()
        };
        builder = builder.sends(spec.generate().into_sends());
    }

    let mut sim = builder.build();
    sim.run_until(SimTime::from_secs(6));

    let tr = sim.app_trace();
    println!("deliveries: {}", tr.iter().filter(|e| e.is_deliver()).count());
    println!("total order preserved: {}", TotalOrder.holds(&tr));

    let snap = handles.borrow()[0].snapshot();
    println!("switches performed by the oracle:");
    for r in &snap.records {
        let dir = if r.to == 1 { "sequencer -> token" } else { "token -> sequencer" };
        println!("  {:>10}  {dir}  (flush took {})", r.completed_at.to_string(), r.duration());
    }
    assert!(snap.records.len() >= 2, "the oracle should ride the load up and back down");
    assert!(TotalOrder.holds(&tr));
}
