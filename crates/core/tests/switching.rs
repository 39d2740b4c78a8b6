//! End-to-end tests of the switching protocol over live stacks.

use ps_bytes::Bytes;
use ps_core::{
    hybrid_total_order, hybrid_total_order_ft, ManualOracle, NeverOracle, Oracle, SwitchConfig,
    SwitchHandle, SwitchLayer, SwitchVariant, ThresholdOracle,
};
use ps_protocols::{FifoLayer, NoReplayLayer, SeqOrderLayer};
use ps_simnet::{NodeId, PartitionSchedule, PointToPoint, SimTime};
use ps_stack::{Driver, GroupSim, GroupSimBuilder, Stack};
use ps_trace::props::{NoReplay, Property, Reliability, TotalOrder};
use ps_trace::ProcessId;
use std::cell::RefCell;
use std::rc::Rc;

type Handles = Rc<RefCell<Vec<SwitchHandle>>>;

fn p2p(us: u64) -> Box<dyn ps_simnet::Medium> {
    Box::new(PointToPoint::new(SimTime::from_micros(us)))
}

fn decider_oracle(p: ProcessId, plan: Vec<(SimTime, usize)>) -> Box<dyn Oracle> {
    if p == ProcessId(0) {
        Box::new(ManualOracle::new(plan))
    } else {
        Box::new(NeverOracle)
    }
}

/// Hybrid total-order group with a scripted switch plan; returns the sim
/// and the per-process switch handles.
fn hybrid_sim(
    n: u16,
    seed: u64,
    variant: SwitchVariant,
    plan: Vec<(SimTime, usize)>,
    msgs: usize,
    gap: SimTime,
) -> (GroupSim, Handles) {
    let handles: Handles = Rc::new(RefCell::new(Vec::new()));
    let h2 = handles.clone();
    let mut b =
        GroupSimBuilder::new(n).seed(seed).medium(p2p(300)).stack_factory(move |p, _, ids| {
            let cfg = SwitchConfig {
                variant,
                observe_interval: SimTime::from_millis(10),
                ..SwitchConfig::default()
            };
            let (stack, handle) =
                hybrid_total_order(ids, cfg, ProcessId(0), decider_oracle(p, plan.clone()));
            h2.borrow_mut().push(handle);
            stack
        });
    for i in 0..msgs {
        b = b.send_at(
            SimTime::from_millis(2) + gap.mul(i as u64),
            ProcessId((i % n as usize) as u16),
            format!("m{i}"),
        );
    }
    let mut sim = b.build();
    sim.run_until(SimTime::from_secs(5));
    (sim, handles)
}

#[test]
fn token_ring_switch_preserves_total_order_and_reliability() {
    let plan = vec![(SimTime::from_millis(60), 1)];
    let (sim, handles) = hybrid_sim(
        5,
        1,
        SwitchVariant::TokenRing { idle_hold: SimTime::from_millis(1) },
        plan,
        40,
        SimTime::from_millis(3),
    );
    let tr = sim.app_trace();
    assert!(TotalOrder.holds(&tr), "total order must survive the switch");
    assert!(Reliability::new(sim.group().to_vec()).holds(&tr));
    assert!(NoReplay.holds(&tr), "distinct bodies: exactly-once must hold");
    // Every process completed exactly one switch, to protocol 1.
    for h in handles.borrow().iter() {
        assert_eq!(h.switches_completed(), 1, "{h:?}");
        assert_eq!(h.current(), 1);
    }
}

#[test]
fn broadcast_switch_preserves_total_order_and_reliability() {
    let plan = vec![(SimTime::from_millis(60), 1)];
    let (sim, handles) =
        hybrid_sim(5, 2, SwitchVariant::Broadcast, plan, 40, SimTime::from_millis(3));
    let tr = sim.app_trace();
    assert!(TotalOrder.holds(&tr));
    assert!(Reliability::new(sim.group().to_vec()).holds(&tr));
    for h in handles.borrow().iter() {
        assert_eq!(h.switches_completed(), 1);
        assert_eq!(h.current(), 1);
    }
}

#[test]
fn switch_back_and_forth_many_times() {
    let plan = vec![
        (SimTime::from_millis(50), 1),
        (SimTime::from_millis(100), 0),
        (SimTime::from_millis(150), 1),
        (SimTime::from_millis(200), 0),
    ];
    let (sim, handles) = hybrid_sim(
        4,
        3,
        SwitchVariant::TokenRing { idle_hold: SimTime::from_millis(1) },
        plan,
        80,
        SimTime::from_millis(3),
    );
    let tr = sim.app_trace();
    assert!(TotalOrder.holds(&tr), "total order must survive 4 switches");
    assert!(Reliability::new(sim.group().to_vec()).holds(&tr));
    for h in handles.borrow().iter() {
        assert_eq!(h.switches_completed(), 4);
        assert_eq!(h.current(), 0);
    }
}

#[test]
fn switch_under_bursty_concurrent_load() {
    // Every process sends a burst exactly while the switch is running.
    let plan = vec![(SimTime::from_millis(30), 1)];
    let (sim, handles) = hybrid_sim(
        6,
        4,
        SwitchVariant::TokenRing { idle_hold: SimTime::from_millis(1) },
        plan,
        60,
        SimTime::from_micros(800),
    );
    let tr = sim.app_trace();
    assert!(TotalOrder.holds(&tr));
    assert!(Reliability::new(sim.group().to_vec()).holds(&tr));
    assert_eq!(tr.iter().filter(|e| e.is_deliver()).count(), 60 * 6);
    assert!(handles.borrow().iter().all(|h| h.switches_completed() == 1));
}

#[test]
fn old_protocol_messages_all_precede_new_protocol_messages() {
    // The SP's core guarantee, checked directly: messages sent before the
    // switch completes on the old protocol are delivered at every process
    // before any message that the sender submitted after it entered
    // switching mode. We approximate "protocol of a message" by send time:
    // everything sent before the PREPARE instant went through protocol 0.
    let plan = vec![(SimTime::from_millis(60), 1)];
    let (sim, handles) = hybrid_sim(
        4,
        5,
        SwitchVariant::TokenRing { idle_hold: SimTime::from_millis(1) },
        plan,
        40,
        SimTime::from_millis(3),
    );
    let handles = handles.borrow();
    let started = handles[0].snapshot().records[0].started_at;
    let completed = handles.iter().map(|h| h.snapshot().records[0].completed_at).max().unwrap();
    let sends = sim.send_times();
    let tr = sim.app_trace();
    // Old messages: sent before the initiator started switching.
    // New messages: sent after every member flipped.
    for p in sim.group() {
        let mut seen_new = false;
        for m in tr.delivered_by(*p) {
            let sent_at = sends[&m.id];
            if sent_at > completed {
                seen_new = true;
            } else if sent_at < started {
                assert!(
                    !seen_new,
                    "{p} delivered old-protocol message {} after a new-protocol one",
                    m.id
                );
            }
        }
    }
}

#[test]
fn no_replay_is_not_preserved_by_switching() {
    // §6.2, live: both protocols deduplicate bodies, yet the same body
    // sent once before and once after the switch reaches the app twice.
    let run = |with_switch: bool| {
        let plan = if with_switch { vec![(SimTime::from_millis(50), 1)] } else { vec![] };
        let b = GroupSimBuilder::new(3)
            .seed(6)
            .medium(p2p(300))
            .stack_factory(move |p, _, ids| {
                let a = Stack::with_ids(
                    vec![Box::new(NoReplayLayer::new()), Box::new(FifoLayer::new())],
                    ids,
                );
                let bstack = Stack::with_ids(
                    vec![Box::new(NoReplayLayer::new()), Box::new(FifoLayer::new())],
                    ids,
                );
                let cfg = SwitchConfig {
                    variant: SwitchVariant::Broadcast,
                    observe_interval: SimTime::from_millis(10),
                    ..SwitchConfig::default()
                };
                let (layer, _handle) =
                    SwitchLayer::new(cfg, a, bstack, decider_oracle(p, plan.clone()));
                Stack::with_ids(vec![Box::new(layer)], ids)
            })
            // Same body, before and after the switch instant.
            .send_at(SimTime::from_millis(10), ProcessId(1), Bytes::from_static(b"DUP"))
            .send_at(SimTime::from_millis(120), ProcessId(2), Bytes::from_static(b"DUP"));
        let mut sim = b.build();
        sim.run_until(SimTime::from_secs(2));
        sim.app_trace()
    };
    let without = run(false);
    assert!(NoReplay.holds(&without), "single protocol suppresses the replay: {without}");
    let with = run(true);
    assert!(!NoReplay.holds(&with), "switching defeats per-protocol replay suppression: {with}");
}

#[test]
fn threshold_oracle_adapts_to_load() {
    // Start with 1 active sender (sequencer wins), ramp to 6 senders
    // (token wins): the hysteresis oracle must switch exactly once.
    let handles: Handles = Rc::new(RefCell::new(Vec::new()));
    let h2 = handles.clone();
    let mut b = GroupSimBuilder::new(8).seed(7).medium(p2p(300)).stack_factory(move |p, _, ids| {
        let oracle: Box<dyn Oracle> = if p == ProcessId(0) {
            Box::new(ThresholdOracle::new(4, 1))
        } else {
            Box::new(NeverOracle)
        };
        let cfg = SwitchConfig {
            variant: SwitchVariant::TokenRing { idle_hold: SimTime::from_millis(1) },
            observe_interval: SimTime::from_millis(50),
            observe_window: SimTime::from_millis(300),
            ..SwitchConfig::default()
        };
        let (stack, handle) = hybrid_total_order(ids, cfg, ProcessId(0), oracle);
        h2.borrow_mut().push(handle);
        stack
    });
    // Phase 1 (0–300 ms): only p1 sends.
    for i in 0..15u64 {
        b = b.send_at(SimTime::from_millis(5 + 20 * i), ProcessId(1), b"lo");
    }
    // Phase 2 (400–900 ms): six senders at 50 msg/s each.
    for i in 0..150u64 {
        b = b.send_at(SimTime::from_millis(400 + 3 * i), ProcessId((1 + i % 6) as u16), b"hi");
    }
    let mut sim = b.build();
    // Stop while the high-load phase is still active (the oracle would —
    // correctly — switch back down once the workload drains).
    sim.run_until(SimTime::from_millis(1_000));
    let tr = sim.app_trace();
    assert!(TotalOrder.holds(&tr));
    let h = &handles.borrow()[0];
    assert_eq!(h.current(), 1, "high load must move to the token protocol");
    assert_eq!(h.switches_completed(), 1, "{:?}", h.snapshot().records);
    // Run past the end of the load: the oracle adapts back down.
    sim.run_until(SimTime::from_secs(2));
    assert_eq!(handles.borrow()[0].current(), 0, "idle load returns to the sequencer");
}

#[test]
fn zero_hysteresis_oscillates_hysteresis_does_not() {
    // §7: "If switching too aggressively, the resulting protocol starts
    // oscillating." Load hovers right at the threshold.
    let run = |hysteresis: usize| {
        let handles: Handles = Rc::new(RefCell::new(Vec::new()));
        let h2 = handles.clone();
        let mut b =
            GroupSimBuilder::new(8).seed(8).medium(p2p(300)).stack_factory(move |p, _, ids| {
                let oracle: Box<dyn Oracle> = if p == ProcessId(0) {
                    Box::new(ThresholdOracle::new(4, hysteresis))
                } else {
                    Box::new(NeverOracle)
                };
                let cfg = SwitchConfig {
                    variant: SwitchVariant::TokenRing { idle_hold: SimTime::from_millis(1) },
                    observe_interval: SimTime::from_millis(40),
                    observe_window: SimTime::from_millis(200),
                    ..SwitchConfig::default()
                };
                let (stack, handle) = hybrid_total_order(ids, cfg, ProcessId(0), oracle);
                h2.borrow_mut().push(handle);
                stack
            });
        // Alternate 200 ms phases of 3 and 5 active senders around the
        // threshold of 4.
        let mut t = 5u64;
        for phase in 0..10u64 {
            let senders = if phase % 2 == 0 { 3 } else { 5 };
            for i in 0..(senders as u64 * 10) {
                b = b.send_at(
                    SimTime::from_millis(t + 2 * i),
                    ProcessId((1 + i % senders as u64) as u16),
                    b"x",
                );
            }
            t += 200;
        }
        let mut sim = b.build();
        sim.run_until(SimTime::from_secs(3));
        let n = handles.borrow()[0].switches_completed();
        n
    };
    let aggressive = run(0);
    let damped = run(2);
    assert!(
        aggressive >= damped + 2,
        "aggressive ({aggressive}) must flap more than damped ({damped})"
    );
    assert!(aggressive >= 3, "aggressive policy should oscillate, got {aggressive}");
}

#[test]
fn switch_between_identical_protocols_is_transparent() {
    // "On-line upgrading": switch between two instances of the same
    // protocol — the application must see nothing but a complete, ordered
    // stream.
    let plan = vec![(SimTime::from_millis(50), 1), (SimTime::from_millis(120), 0)];
    let mut b = GroupSimBuilder::new(4).seed(9).medium(p2p(300)).stack_factory(move |p, _, ids| {
        let a = Stack::with_ids(vec![Box::new(SeqOrderLayer::new(ProcessId(0)))], ids);
        let b2 = Stack::with_ids(vec![Box::new(SeqOrderLayer::new(ProcessId(0)))], ids);
        let cfg = SwitchConfig {
            variant: SwitchVariant::Broadcast,
            observe_interval: SimTime::from_millis(10),
            ..SwitchConfig::default()
        };
        let (layer, _) = SwitchLayer::new(cfg, a, b2, decider_oracle(p, plan.clone()));
        Stack::with_ids(vec![Box::new(layer)], ids)
    });
    for i in 0..50u64 {
        b = b.send_at(SimTime::from_millis(2 + 4 * i), ProcessId((i % 4) as u16), format!("u{i}"));
    }
    let mut sim = b.build();
    sim.run_until(SimTime::from_secs(2));
    let tr = sim.app_trace();
    assert!(TotalOrder.holds(&tr));
    assert!(Reliability::new(sim.group().to_vec()).holds(&tr));
    assert_eq!(tr.iter().filter(|e| e.is_deliver()).count(), 50 * 4);
}

#[test]
fn token_order_under_switch_with_single_member_group() {
    // Degenerate ring of one: everything is a self-loop; the switch still
    // completes.
    let plan = vec![(SimTime::from_millis(20), 1)];
    let handles: Handles = Rc::new(RefCell::new(Vec::new()));
    let h2 = handles.clone();
    let mut b =
        GroupSimBuilder::new(1).seed(10).medium(p2p(100)).stack_factory(move |p, _, ids| {
            let cfg = SwitchConfig {
                variant: SwitchVariant::TokenRing { idle_hold: SimTime::from_millis(1) },
                observe_interval: SimTime::from_millis(5),
                ..SwitchConfig::default()
            };
            let (stack, handle) =
                hybrid_total_order(ids, cfg, ProcessId(0), decider_oracle(p, plan.clone()));
            h2.borrow_mut().push(handle);
            stack
        });
    for i in 0..5u64 {
        b = b.send_at(SimTime::from_millis(1 + 10 * i), ProcessId(0), b"solo");
    }
    let mut sim = b.build();
    sim.run_until(SimTime::from_secs(1));
    assert_eq!(handles.borrow()[0].switches_completed(), 1);
    assert_eq!(sim.app_trace().iter().filter(|e| e.is_deliver()).count(), 5);
}

#[test]
fn switch_durations_are_recorded_and_ordered() {
    let plan = vec![(SimTime::from_millis(60), 1)];
    let (_, handles) = hybrid_sim(
        5,
        11,
        SwitchVariant::TokenRing { idle_hold: SimTime::from_millis(1) },
        plan,
        30,
        SimTime::from_millis(3),
    );
    for h in handles.borrow().iter() {
        let snap = h.snapshot();
        let rec = &snap.records[0];
        assert!(rec.completed_at >= rec.started_at);
        assert_eq!(rec.from, 0);
        assert_eq!(rec.to, 1);
        // A switch takes a few token rotations: strictly positive duration
        // at the initiator, bounded well under a second here.
        assert!(rec.duration() < SimTime::from_millis(500), "{rec:?}");
    }
}

#[test]
fn concurrent_initiators_broadcast_variant_converges() {
    // Two deciders fire the broadcast-variant switch at the same instant.
    // The era guard makes the duplicate PREPARE idempotent: every member
    // completes exactly one switch and ends on the same protocol.
    let handles: Handles = Rc::new(RefCell::new(Vec::new()));
    let h2 = handles.clone();
    let mut b =
        GroupSimBuilder::new(4).seed(21).medium(p2p(300)).stack_factory(move |p, _, ids| {
            let oracle: Box<dyn Oracle> = if p == ProcessId(0) || p == ProcessId(1) {
                Box::new(ManualOracle::new(vec![(SimTime::from_millis(40), 1)]))
            } else {
                Box::new(NeverOracle)
            };
            let cfg = SwitchConfig {
                variant: SwitchVariant::Broadcast,
                observe_interval: SimTime::from_millis(10),
                ..SwitchConfig::default()
            };
            let (stack, handle) = hybrid_total_order(ids, cfg, ProcessId(0), oracle);
            h2.borrow_mut().push(handle);
            stack
        });
    for i in 0..24u64 {
        b = b.send_at(SimTime::from_millis(2 + 4 * i), ProcessId((i % 4) as u16), format!("cc{i}"));
    }
    let mut sim = b.build();
    sim.run_until(SimTime::from_secs(3));
    let tr = sim.app_trace();
    assert!(TotalOrder.holds(&tr), "{tr}");
    assert!(Reliability::new(sim.group().to_vec()).holds(&tr));
    for h in handles.borrow().iter() {
        assert_eq!(h.switches_completed(), 1, "{h:?}");
        assert_eq!(h.current(), 1);
    }
}

/// Switch config for the fault-injection tests: fast fault handling so
/// recovery fits comfortably inside a short run, but a phase timeout long
/// enough that a crash the switch can survive does not abort it.
fn ft_cfg(variant: SwitchVariant, phase_timeout: SimTime) -> SwitchConfig {
    SwitchConfig {
        variant,
        observe_interval: SimTime::from_millis(10),
        phase_timeout,
        retransmit_base: SimTime::from_millis(40),
        retransmit_max: SimTime::from_millis(160),
        token_regen: SimTime::from_millis(100),
        ..SwitchConfig::default()
    }
}

#[test]
fn member_crash_during_switch_recovers_and_switch_completes() {
    // p3 fail-stops right after the switch begins and comes back 87 ms
    // later. The reliable transport keeps retransmitting the ring token
    // to the dead member, so the switch stalls rather than wedges,
    // and completes shortly after recovery.
    let plan = vec![(SimTime::from_millis(60), 1)];
    let handles: Handles = Rc::new(RefCell::new(Vec::new()));
    let h2 = handles.clone();
    let mut b =
        GroupSimBuilder::new(4).seed(31).medium(p2p(300)).stack_factory(move |p, _, ids| {
            let cfg = ft_cfg(
                SwitchVariant::TokenRing { idle_hold: SimTime::from_millis(1) },
                SimTime::from_secs(2),
            );
            let (stack, handle) = hybrid_total_order_ft(
                ids,
                cfg,
                ProcessId(0),
                ProcessId(1),
                decider_oracle(p, plan.clone()),
            );
            h2.borrow_mut().push(handle);
            stack
        });
    // Load from the three survivors throughout; the victim sends only
    // after it has recovered.
    for i in 0..30u64 {
        b = b.send_at(SimTime::from_millis(2 + 5 * i), ProcessId((i % 3) as u16), format!("f{i}"));
    }
    for i in 0..4u64 {
        b = b.send_at(SimTime::from_millis(220 + 10 * i), ProcessId(3), format!("r{i}"));
    }
    let mut sim = b.build();
    sim.schedule_crash(SimTime::from_millis(63), ProcessId(3));
    sim.schedule_recover(SimTime::from_millis(150), ProcessId(3));
    sim.run_until(SimTime::from_secs(5));
    let tr = sim.app_trace();
    assert!(TotalOrder.holds(&tr), "total order must survive crash + recovery");
    assert!(Reliability::new(sim.group().to_vec()).holds(&tr), "victim must catch up on recovery");
    for h in handles.borrow().iter() {
        assert_eq!(h.switches_completed(), 1, "{h:?}");
        assert_eq!(h.current(), 1, "{h:?}");
        assert_eq!(h.aborted(), 0, "a survivable crash must not abort: {h:?}");
        assert!(!h.switching(), "nobody may stay wedged mid-switch: {h:?}");
    }
}

#[test]
fn initiator_and_sequencer_crash_during_switch_recovers_and_completes() {
    // The worst victim: p0 is the switch manager AND the old protocol's
    // sequencer, and it dies with the PREPARE barely out. On restart the
    // manager resends its latest control broadcast, members re-OK
    // idempotently, and the switch completes.
    let plan = vec![(SimTime::from_millis(60), 1)];
    let handles: Handles = Rc::new(RefCell::new(Vec::new()));
    let h2 = handles.clone();
    let mut b =
        GroupSimBuilder::new(4).seed(32).medium(p2p(300)).stack_factory(move |p, _, ids| {
            let cfg = ft_cfg(SwitchVariant::Broadcast, SimTime::from_secs(2));
            let (stack, handle) = hybrid_total_order_ft(
                ids,
                cfg,
                ProcessId(0),
                ProcessId(1),
                decider_oracle(p, plan.clone()),
            );
            h2.borrow_mut().push(handle);
            stack
        });
    for i in 0..30u64 {
        b = b.send_at(
            SimTime::from_millis(2 + 5 * i),
            ProcessId((1 + i % 3) as u16),
            format!("s{i}"),
        );
    }
    let mut sim = b.build();
    sim.schedule_crash(SimTime::from_micros(60_500), ProcessId(0));
    sim.schedule_recover(SimTime::from_millis(150), ProcessId(0));
    sim.run_until(SimTime::from_secs(5));
    let tr = sim.app_trace();
    assert!(TotalOrder.holds(&tr));
    assert!(Reliability::new(sim.group().to_vec()).holds(&tr));
    for h in handles.borrow().iter() {
        assert_eq!(h.switches_completed(), 1, "{h:?}");
        assert_eq!(h.current(), 1, "{h:?}");
        assert_eq!(h.aborted(), 0, "{h:?}");
        assert!(!h.switching(), "{h:?}");
    }
}

#[test]
fn partition_spanning_switch_aborts_cleanly_and_self_heals() {
    // A partition splits the group before the switch attempt; the far
    // side never sees the PREPARE, so the near side's phase timeout
    // aborts the attempt and reverts to the old protocol. After the heal
    // the reliable transport's straggler PREPARE briefly lures the
    // far side into the dead attempt — their own phase timeout returns
    // them to normal mode too: the abort path is self-stabilizing.
    let plan = vec![(SimTime::from_millis(200), 1)];
    let medium = Box::new(
        PartitionSchedule::new(p2p(300))
            .partition_at(
                SimTime::from_millis(150),
                vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2), NodeId(3)]],
            )
            .heal_at(SimTime::from_millis(800)),
    );
    let handles: Handles = Rc::new(RefCell::new(Vec::new()));
    let h2 = handles.clone();
    let mut b = GroupSimBuilder::new(4).seed(33).medium(medium).stack_factory(move |p, _, ids| {
        let cfg = ft_cfg(SwitchVariant::Broadcast, SimTime::from_millis(400));
        let (stack, handle) = hybrid_total_order_ft(
            ids,
            cfg,
            ProcessId(0),
            ProcessId(1),
            decider_oracle(p, plan.clone()),
        );
        h2.borrow_mut().push(handle);
        stack
    });
    // The workload is fully quiescent before the partition forms, so the
    // abort's buffer absorption has nothing to reorder.
    for i in 0..12u64 {
        b = b.send_at(SimTime::from_millis(2 + 5 * i), ProcessId((i % 4) as u16), format!("q{i}"));
    }
    let mut sim = b.build();
    sim.run_until(SimTime::from_secs(3));
    let tr = sim.app_trace();
    assert!(TotalOrder.holds(&tr));
    assert!(Reliability::new(sim.group().to_vec()).holds(&tr));
    for h in handles.borrow().iter() {
        assert_eq!(h.switches_completed(), 0, "the spanning switch must not complete: {h:?}");
        assert_eq!(h.current(), 0, "everyone reverts to the old protocol: {h:?}");
        assert!(!h.switching(), "nobody may stay wedged mid-switch: {h:?}");
        assert_eq!(h.aborted(), 1, "each member abandons the attempt exactly once: {h:?}");
    }
}

#[test]
fn concurrent_initiators_token_variant_serialize() {
    // In the token variant only a NORMAL-token holder can initiate, so two
    // simultaneous wishes serialize by construction. Both deciders want
    // protocol 1; one seizes the token, the other's wish becomes a no-op.
    let handles: Handles = Rc::new(RefCell::new(Vec::new()));
    let h2 = handles.clone();
    let mut b =
        GroupSimBuilder::new(4).seed(22).medium(p2p(300)).stack_factory(move |p, _, ids| {
            let oracle: Box<dyn Oracle> = if p.0 <= 1 {
                Box::new(ManualOracle::new(vec![(SimTime::from_millis(40), 1)]))
            } else {
                Box::new(NeverOracle)
            };
            let cfg = SwitchConfig {
                variant: SwitchVariant::TokenRing { idle_hold: SimTime::from_millis(1) },
                observe_interval: SimTime::from_millis(10),
                ..SwitchConfig::default()
            };
            let (stack, handle) = hybrid_total_order(ids, cfg, ProcessId(0), oracle);
            h2.borrow_mut().push(handle);
            stack
        });
    for i in 0..24u64 {
        b = b.send_at(SimTime::from_millis(2 + 4 * i), ProcessId((i % 4) as u16), format!("ct{i}"));
    }
    let mut sim = b.build();
    sim.run_until(SimTime::from_secs(3));
    assert!(TotalOrder.holds(&sim.app_trace()));
    for h in handles.borrow().iter() {
        assert_eq!(h.switches_completed(), 1, "{h:?}");
        assert_eq!(h.current(), 1);
    }
}
