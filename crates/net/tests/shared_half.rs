//! One process half, two transports. `GroupSim` and `UdpGroup` record a
//! process's application events through the same `ps_stack::AppProcess`,
//! so the same spec — a hybrid that announces its one scripted switch as a
//! view change — must read back the same way on both: every process logs
//! the view-change delivery, the recorder holds no `AppDeliver` for it,
//! and `NetReport.delivered_per_process` counts what the log holds. Both
//! also run the process through the same `ps_stack::ProcessAgent`, so a
//! scheduled send reads as a timer firing that parents its `AppSend`.

use ps_core::{hybrid_total_order, ManualOracle, NeverOracle, Oracle, SwitchConfig};
use ps_net::{NetConfig, UdpGroup};
use ps_obs::{CauseId, ObsEvent, Recorder, TimedEvent};
use ps_simnet::SimTime;
use ps_stack::{Driver, GroupSimBuilder, GroupSpec};
use ps_trace::{Event, MsgId, ProcessId};
use std::collections::HashMap;

const N: u16 = 3;
const SENDS: u64 = 9;

fn spec(rec: Recorder) -> GroupSpec {
    let mut spec = GroupSpec::new(N).seed(0x5A1F).recorder(rec).stack_factory(|p, _, ids| {
        let oracle: Box<dyn Oracle> = if p == ProcessId(0) {
            Box::new(ManualOracle::new(vec![(SimTime::from_millis(40), 1)]))
        } else {
            Box::new(NeverOracle)
        };
        let cfg = SwitchConfig { announce_views: true, ..SwitchConfig::default() };
        hybrid_total_order(ids, cfg, ProcessId(0), oracle).0
    });
    for i in 0..SENDS {
        let sender = ProcessId((i % u64::from(N)) as u16);
        spec = spec.send_at(SimTime::from_millis(5 + 8 * i), sender, format!("m{i}"));
    }
    spec
}

/// Checks one finished run and returns each process's `Deliver` count in
/// the merged trace.
fn check(driver: &dyn Driver, medium: &str) -> Vec<usize> {
    let trace = driver.app_trace();
    let mut delivered = vec![0; usize::from(N)];
    let mut views = vec![0; usize::from(N)];
    for ev in trace.iter() {
        if let Event::Deliver(p, m) = ev {
            delivered[p.index()] += 1;
            views[p.index()] += usize::from(m.is_view_change());
        }
    }
    assert_eq!(views, vec![1; usize::from(N)], "{medium}: one view change per process:\n{trace}");
    assert_eq!(delivered, vec![SENDS as usize + 1; usize::from(N)], "{medium}:\n{trace}");

    let rec = driver.recorder();
    if rec.is_enabled() {
        assert_eq!(rec.overwritten(), 0, "{medium}: the ring must hold the whole run");
        let app_delivers: Vec<u64> = rec
            .snapshot()
            .iter()
            .filter_map(|e| match e.ev {
                ObsEvent::AppDeliver { seq, .. } => Some(seq),
                _ => None,
            })
            .collect();
        assert!(
            app_delivers.iter().all(|&seq| seq < MsgId::CONTROL_SEQ_BASE),
            "{medium}: a control envelope was recorded as an application delivery"
        );
        assert_eq!(app_delivers.len(), SENDS as usize * usize::from(N), "{medium}");
        // A scheduled send is a timer firing on both media, and its
        // `AppSend` is parented on that firing.
        let events = rec.snapshot();
        let by_id: HashMap<CauseId, &TimedEvent> = events.iter().map(|e| (e.id(), e)).collect();
        let sends: Vec<_> =
            events.iter().filter(|e| matches!(e.ev, ObsEvent::AppSend { .. })).collect();
        assert_eq!(sends.len(), SENDS as usize, "{medium}");
        for send in sends {
            let parent = by_id.get(&send.parent).map(|p| p.ev);
            assert!(
                matches!(parent, Some(ObsEvent::TimerFire { .. })),
                "{medium}: {send:?} is parented on {parent:?}, not a timer firing"
            );
        }
    }
    delivered
}

#[test]
fn the_view_change_reads_the_same_on_both_transports() {
    let mut sim = GroupSimBuilder::from_spec(spec(Recorder::with_capacity(1 << 14))).build();
    sim.run_until(SimTime::from_secs(1));
    check(&sim, "simnet");

    let mut group = UdpGroup::launch(spec(Recorder::with_capacity(1 << 14)), NetConfig::default());
    // The workload ends ~70 ms in; leave ample drain time for token rounds.
    group.run_until(SimTime::from_millis(700));
    let delivered = check(&group, "udp");
    let report = group.shutdown();
    assert_eq!(report.delivered_per_process, delivered);
}
