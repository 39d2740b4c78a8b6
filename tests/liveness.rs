//! §2's liveness requirement, exercised: "If switches are supposed to
//! complete (liveness), messages have to be delivered exactly once."
//!
//! With at-most-once (lossy) sub-protocols a switch stalls forever; with
//! exactly-once sub-protocols it completes under the same loss.

use protocol_switching::prelude::*;
use protocol_switching::protocols::ReliableConfig;
use std::cell::RefCell;
use std::rc::Rc;

type Handles = Rc<RefCell<Vec<SwitchHandle>>>;

fn lossy() -> Box<dyn Medium> {
    Box::new(Lossy::new(Box::new(PointToPoint::new(SimTime::from_micros(300))), 0.25))
}

fn run_switch_under_loss(reliable_subprotocols: bool) -> (GroupSim, Handles) {
    let handles: Handles = Rc::new(RefCell::new(Vec::new()));
    let h2 = handles.clone();
    let plan = vec![(SimTime::from_millis(80), 1)];
    let mut b = GroupSimBuilder::new(3).seed(13).medium(lossy()).stack_factory(move |p, _, ids| {
        let sub = |ids: &mut IdGen| -> Stack {
            if reliable_subprotocols {
                Stack::with_ids(
                    vec![Box::new(ReliableLayer::with_config(ReliableConfig {
                        retransmit_interval: SimTime::from_millis(10),
                    }))],
                    ids,
                )
            } else {
                Stack::with_ids(vec![Box::new(FifoLayer::new())], ids)
            }
        };
        let a = sub(ids);
        let bb = sub(ids);
        // Control is always reliable: we are probing the *data*
        // protocols' delivery guarantees, not the control channel's.
        let control = Stack::with_ids(vec![Box::new(ReliableLayer::new())], ids);
        let oracle: Box<dyn Oracle> = if p == ProcessId(0) {
            Box::new(ManualOracle::new(plan.clone()))
        } else {
            Box::new(NeverOracle)
        };
        let (layer, handle) = SwitchLayer::new(SwitchConfig::default(), a, bb, oracle);
        h2.borrow_mut().push(handle);
        Stack::with_ids(vec![Box::new(layer.with_control_stack(control))], ids)
    });
    for i in 0..20u64 {
        b = b.send_at(SimTime::from_millis(2 + 4 * i), ProcessId((i % 3) as u16), format!("l{i}"));
    }
    let mut sim = b.build();
    sim.run_until(SimTime::from_secs(20));
    (sim, handles)
}

#[test]
fn switch_stalls_without_exactly_once_delivery() {
    let (_sim, handles) = run_switch_under_loss(false);
    // Losses mean some member never reaches its expected count: nobody
    // (or at least not everybody) completes the switch, even after 20 s.
    let completed_everywhere = handles.borrow().iter().all(|h| h.switches_completed() >= 1);
    assert!(
        !completed_everywhere,
        "a lossy at-most-once underlay must stall the switch (paper §2)"
    );
    // And at least one process is stuck mid-switch.
    assert!(
        handles.borrow().iter().any(|h| h.snapshot().switching),
        "someone should be waiting for messages that will never arrive"
    );
}

#[test]
fn switch_completes_with_exactly_once_delivery() {
    let (sim, handles) = run_switch_under_loss(true);
    assert!(
        handles.borrow().iter().all(|h| h.switches_completed() == 1),
        "exactly-once sub-protocols let every member finish the switch"
    );
    // And nothing was lost end-to-end.
    let tr = sim.app_trace();
    let group: Vec<ProcessId> = (0..3).map(ProcessId).collect();
    assert!(Reliability::new(group).holds(&tr));
    assert!(NoReplay.holds(&tr));
}

#[test]
fn switch_completes_under_partition_heal() {
    // A partition during PREPARE delays but does not doom the switch,
    // because the reliable layers retransmit across the heal. Here 25 %
    // loss stands in for the cut, a transient every retransmission can
    // outlast; tests/fault_injection.rs cuts and heals real partitions
    // (`PartitionSchedule`) across the switch window.
    let (sim, handles) = run_switch_under_loss(true);
    let finish =
        handles.borrow().iter().map(|h| h.snapshot().records[0].completed_at).max().unwrap();
    assert!(finish > SimTime::from_millis(80));
    assert!(finish < SimTime::from_secs(20));
    drop(sim);
}
