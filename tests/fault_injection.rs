//! Fault injection around the switch: transient partitions and loss spikes
//! hitting exactly the switch window. With exactly-once sub-protocols and
//! a reliable control channel, the switch completes once the network
//! heals, and no application message is lost or duplicated.

use protocol_switching::prelude::*;
use protocol_switching::protocols::ReliableConfig;
use std::cell::RefCell;
use std::rc::Rc;

type Handles = Rc<RefCell<Vec<SwitchHandle>>>;

fn reliable_hybrid(medium: Box<dyn Medium>, switch_at: SimTime) -> (GroupSimBuilder, Handles) {
    let handles: Handles = Rc::new(RefCell::new(Vec::new()));
    let h2 = handles.clone();
    let plan = vec![(switch_at, 1)];
    let b = GroupSimBuilder::new(4).seed(77).medium(medium).stack_factory(move |p, _, ids| {
        let sub = |ids: &mut IdGen| {
            Stack::with_ids(
                vec![Box::new(ReliableLayer::with_config(ReliableConfig {
                    retransmit_interval: SimTime::from_millis(10),
                }))],
                ids,
            )
        };
        let (a, bb) = (sub(ids), sub(ids));
        let control = Stack::with_ids(vec![Box::new(ReliableLayer::new())], ids);
        let oracle: Box<dyn Oracle> = if p == ProcessId(0) {
            Box::new(ManualOracle::new(plan.clone()))
        } else {
            Box::new(NeverOracle)
        };
        let cfg =
            SwitchConfig { observe_interval: SimTime::from_millis(10), ..SwitchConfig::default() };
        let (layer, handle) = SwitchLayer::new(cfg, a, bb, oracle);
        h2.borrow_mut().push(handle);
        Stack::with_ids(vec![Box::new(layer.with_control_stack(control))], ids)
    });
    (b, handles)
}

/// The members other than `node`: the one group of a partition that cuts
/// `node` off from everyone.
fn all_but(node: u32) -> Vec<NodeId> {
    (0..4).filter(|&i| i != node).map(NodeId).collect()
}

fn workload(mut b: GroupSimBuilder) -> GroupSimBuilder {
    for i in 0..24u64 {
        b = b.send_at(SimTime::from_millis(2 + 5 * i), ProcessId((i % 4) as u16), format!("f{i}"));
    }
    b
}

#[test]
fn partition_during_prepare_heals_and_switch_completes() {
    // Node 3 is cut off from everyone exactly when the switch begins, for
    // 150 ms. Retransmission carries the control ring and the data across
    // the heal.
    let medium = Box::new(
        PartitionSchedule::new(Box::new(PointToPoint::new(SimTime::from_micros(300))))
            .partition_at(SimTime::from_millis(50), vec![all_but(3)])
            .heal_at(SimTime::from_millis(200)),
    );
    let (b, handles) = reliable_hybrid(medium, SimTime::from_millis(60));
    let mut sim = workload(b).build();
    sim.run_until(SimTime::from_secs(30));

    assert!(
        handles.borrow().iter().all(|h| h.switches_completed() == 1),
        "switch must complete after the partition heals: {:?}",
        handles.borrow().iter().map(|h| h.snapshot().switching).collect::<Vec<_>>()
    );
    let tr = sim.app_trace();
    let group: Vec<ProcessId> = (0..4).map(ProcessId).collect();
    assert!(Reliability::new(group).holds(&tr), "{tr}");
    assert!(NoReplay.holds(&tr));
}

#[test]
fn loss_spike_during_switch_window() {
    // 40% loss for the entire run (covering the switch window): still
    // exactly-once, still one completed switch.
    let medium = Box::new(Lossy::new(Box::new(PointToPoint::new(SimTime::from_micros(300))), 0.40));
    let (b, handles) = reliable_hybrid(medium, SimTime::from_millis(60));
    let mut sim = workload(b).build();
    sim.run_until(SimTime::from_secs(30));

    assert!(handles.borrow().iter().all(|h| h.switches_completed() == 1));
    let tr = sim.app_trace();
    let group: Vec<ProcessId> = (0..4).map(ProcessId).collect();
    assert!(Reliability::new(group).holds(&tr));
    assert!(NoReplay.holds(&tr));
}

#[test]
fn streaming_monitors_agree_with_the_trace_checker_under_loss() {
    // The online monitors watch the same loss-spike run the trace checker
    // validates post-hoc: delivery accounting must close (exactly-once
    // survives 40% loss) and the switch must complete within its bound —
    // detected live, from the event stream, not from the trace.
    use protocol_switching::obs::{MonitorSet, Recorder};

    let medium = Box::new(Lossy::new(Box::new(PointToPoint::new(SimTime::from_micros(300))), 0.40));
    let (b, handles) = reliable_hybrid(medium, SimTime::from_millis(60));
    let rec = Recorder::with_capacity(1 << 16);
    let monitors = MonitorSet::standard(4, SimTime::from_secs(20).as_micros());
    monitors.attach(&rec);
    let mut sim = workload(b).recorder(rec.clone()).build();
    sim.run_until(SimTime::from_secs(30));

    assert!(handles.borrow().iter().all(|h| h.switches_completed() == 1));
    let group: Vec<ProcessId> = (0..4).map(ProcessId).collect();
    assert!(Reliability::new(group).holds(&sim.app_trace()));
    if rec.is_enabled() {
        assert_eq!(monitors.delivery().sent_count(), 24, "monitors saw every send");
        let lost = monitors.delivery().finish();
        assert!(lost.is_empty(), "streaming delivery accounting must close: {lost:?}");
        let stuck = monitors.liveness().finish();
        assert!(stuck.is_empty(), "every started switch must complete: {stuck:?}");
    }
}

#[test]
fn partition_of_the_initiator_delays_the_whole_switch() {
    // The initiator (p0) is isolated before it can finish the ring
    // rotations: nobody completes until the heal.
    let medium = Box::new(
        PartitionSchedule::new(Box::new(PointToPoint::new(SimTime::from_micros(300))))
            .partition_at(SimTime::from_millis(55), vec![all_but(0)])
            .heal_at(SimTime::from_millis(400)),
    );
    let (b, handles) = reliable_hybrid(medium, SimTime::from_millis(60));
    let mut sim = workload(b).build();
    sim.run_until(SimTime::from_secs(30));

    let latest = handles
        .borrow()
        .iter()
        .map(|h| h.snapshot().records.first().map(|r| r.completed_at).unwrap_or(SimTime::ZERO))
        .max()
        .unwrap();
    assert!(
        latest >= SimTime::from_millis(400),
        "the switch cannot complete while the initiator is cut off (finished at {latest})"
    );
    assert!(handles.borrow().iter().all(|h| h.switches_completed() == 1));
    let group: Vec<ProcessId> = (0..4).map(ProcessId).collect();
    assert!(Reliability::new(group).holds(&sim.app_trace()));
}
