//! The same hybrid total-order stack — simulator code untouched — running
//! on real OS threads over UDP loopback with wall-clock timers, switching
//! protocols live.
//!
//! ```text
//! cargo run --example real_time
//! ```

use protocol_switching::net::{NetConfig, UdpGroup};
use protocol_switching::prelude::*;
use std::sync::{Arc, Mutex};

fn main() {
    let n = 4u16;
    let handles: Arc<Mutex<Vec<SwitchHandle>>> = Arc::new(Mutex::new(Vec::new()));
    let h2 = handles.clone();

    let mut spec = GroupSpec::new(n).seed(0x27).stack_factory(move |p, _, ids| {
        let oracle: Box<dyn Oracle> = if p == ProcessId(0) {
            // Wall-clock script: switch to the token protocol 150 ms in.
            Box::new(ManualOracle::new(vec![(SimTime::from_millis(150), 1)]))
        } else {
            Box::new(NeverOracle)
        };
        let cfg =
            SwitchConfig { observe_interval: SimTime::from_millis(20), ..SwitchConfig::default() };
        let (stack, handle) = hybrid_total_order(ids, cfg, ProcessId(0), oracle);
        h2.lock().expect("handles").push(handle);
        stack
    });
    // Chat across the switch instant: one message every 8 ms.
    for i in 0..40u64 {
        spec = spec.send_at(
            SimTime::from_millis(8 * (i + 1)),
            ProcessId((i % u64::from(n)) as u16),
            format!("live-{i}"),
        );
    }

    let mut group = UdpGroup::launch(spec, NetConfig::default());
    group.run_until(SimTime::from_millis(720));
    let trace = group.app_trace();
    let report = group.shutdown();

    println!("events recorded: {}", trace.len());
    println!("deliveries per process: {:?}", report.delivered_per_process);
    for h in handles.lock().expect("handles").iter().take(1) {
        for r in h.snapshot().records {
            println!("switch {} -> {} took {} (wall clock)", r.from, r.to, r.duration());
        }
    }
    let ordered = TotalOrder.holds(&trace);
    let complete = Reliability::new((0..n).map(ProcessId)).holds(&trace);
    println!("total order preserved on real threads: {ordered}");
    println!("reliability preserved on real threads: {complete}");
    assert!(ordered && complete);
}
