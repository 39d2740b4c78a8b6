//! End-to-end over real sockets: the paper's hybrid total-order stack —
//! sequencer protocol, one scripted switch, token protocol — running
//! unmodified on UDP loopback, with the standard monitor set watching.
//!
//! This is the tentpole claim in executable form: no `Layer` knows which
//! medium it is on. The same `hybrid_total_order` constructor the
//! simulator runs is handed to `UdpGroup` via a `GroupSpec`, and total
//! order must hold across the switch on a real wire, for a pair and for a
//! group of four.

use ps_core::{hybrid_total_order, ManualOracle, NeverOracle, Oracle, SwitchConfig, SwitchHandle};
use ps_net::{NetConfig, UdpGroup};
use ps_obs::{MonitorSet, Recorder};
use ps_simnet::SimTime;
use ps_stack::{Driver, GroupSpec};
use ps_trace::props::{Property, Reliability, TotalOrder};
use ps_trace::ProcessId;
use std::sync::{Arc, Mutex};

#[test]
fn hybrid_switch_over_loopback_keeps_total_order_and_monitors_clean() {
    hybrid_switch_over_loopback(2);
}

#[test]
fn hybrid_switch_over_loopback_with_four_processes() {
    hybrid_switch_over_loopback(4);
}

fn hybrid_switch_over_loopback(n: u16) {
    let rec = Recorder::with_capacity(16 * 1024);
    // Generous liveness bound: wall-clock switch latency includes OS
    // scheduling, not just protocol rounds.
    let monitors = MonitorSet::standard(u32::from(n), 2_000_000);
    monitors.attach(&rec);

    let handles: Arc<Mutex<Vec<SwitchHandle>>> = Arc::new(Mutex::new(Vec::new()));
    let handles_in = Arc::clone(&handles);

    let mut spec =
        GroupSpec::new(n).seed(0xBEEF).recorder(rec.clone()).stack_factory(move |p, _, ids| {
            let oracle: Box<dyn Oracle> = if p == ProcessId(0) {
                // Script the switch at 60 ms — mid-workload, so messages
                // straddle the sequencer→token handover.
                Box::new(ManualOracle::new(vec![(SimTime::from_millis(60), 1)]))
            } else {
                Box::new(NeverOracle)
            };
            let (stack, handle) =
                hybrid_total_order(ids, SwitchConfig::default(), ProcessId(0), oracle);
            handles_in.lock().unwrap().push(handle);
            stack
        });
    for i in 0..12u64 {
        spec = spec.send_at(
            SimTime::from_millis(5 + 8 * i),
            ProcessId((i % u64::from(n)) as u16),
            format!("e2e-{i}"),
        );
    }

    let mut group = UdpGroup::launch(spec, NetConfig::default());
    // Workload ends ~93 ms in; leave ample drain time for token rounds.
    group.run_until(SimTime::from_millis(700));
    let trace = group.app_trace();
    let report = group.shutdown();

    assert_eq!(report.malformed_per_process.iter().sum::<usize>(), 0, "every datagram must decode");

    assert_eq!(trace.sent_ids().len(), 12);
    assert!(
        Reliability::new((0..n).map(ProcessId)).holds(&trace),
        "all 12 messages delivered everywhere:\n{trace}"
    );
    assert!(
        TotalOrder.holds(&trace),
        "total order must survive the switch on a real medium:\n{trace}"
    );

    // The switch actually happened on every process (not a trivial pass
    // where the oracle never fired).
    let handles = handles.lock().unwrap();
    assert_eq!(handles.len(), usize::from(n));
    for handle in handles.iter() {
        let stats = handle.snapshot();
        assert_eq!(stats.records.len(), 1, "exactly one switch completed");
        assert_eq!(stats.current, 1, "process still on the sequencer protocol");
        assert!(!stats.switching, "switch left dangling");
        assert_eq!(stats.aborted, 0, "switch aborted on loopback");
    }

    if rec.is_enabled() {
        let violations = monitors.finish();
        assert!(violations.is_empty(), "monitor violations on loopback: {violations:?}");
        assert!(
            rec.snapshot().iter().any(|e| matches!(e.ev, ps_obs::ObsEvent::SwitchPhase { .. })),
            "switch phases should be observable over the real transport"
        );
    }
}

#[test]
fn oversize_datagram_is_counted_malformed_and_traffic_continues() {
    use ps_stack::Stack;
    use std::net::UdpSocket;

    // A small limit so the oversize datagram stays far below the
    // loopback MTU: the kernel truncates it into the node's receive
    // buffer, the length prefix then promises more than arrived, and
    // `dgram::decode` rejects it.
    let cfg = NetConfig { max_datagram: 512, ..NetConfig::default() };
    let mut spec = GroupSpec::new(2).seed(5).stack_factory(|_, _, _| Stack::new(vec![]));
    for i in 0..6u64 {
        spec = spec.send_at(SimTime::from_millis(10 + 30 * i), ProcessId((i % 2) as u16), "ok");
    }
    let mut group = UdpGroup::launch(spec, cfg);

    // Well-formed envelope, 2000-byte payload: only its size is wrong.
    let big = ps_net::dgram::encode(ProcessId(1), &ps_bytes::Bytes::from(vec![0x42u8; 2000]));
    let intruder = UdpSocket::bind("127.0.0.1:0").expect("bind intruder socket");
    group.run_until(SimTime::from_millis(50));
    intruder.send_to(&big, group.socket_addrs()[0]).expect("send oversize datagram");

    group.run_until(SimTime::from_millis(400));
    let trace = group.app_trace();
    let report = group.shutdown(); // joins the node threads: surfaces a panic

    assert_eq!(report.malformed_per_process, vec![1, 0], "counted where it landed, once");
    assert_eq!(trace.sent_ids().len(), 6);
    assert!(
        Reliability::new([ProcessId(0), ProcessId(1)]).holds(&trace),
        "messages sent before and after the oversize datagram all arrive:\n{trace}"
    );
}
