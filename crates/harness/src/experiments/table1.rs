//! Table 1: the eight example properties, each demonstrated live —
//! implemented by its protocol layer, violated by a baseline without it.

use crate::report::Table;
use crate::scenario::Scenario;
use ps_protocols::{
    ConfidentialityLayer, IntegrityLayer, NoReplayLayer, PriorityLayer, ReliableLayer,
    SeqOrderLayer, VsyncConfig, VsyncLayer,
};
use ps_simnet::{Lossy, Medium, PointToPoint, SimTime};
use ps_stack::{Driver, Layer};
use ps_trace::props::{
    Amoeba, Confidentiality, Integrity, NoReplay, PrioritizedDelivery, Property, Reliability,
    TotalOrder, VirtualSynchrony,
};
use ps_trace::{Event, ProcessId, Trace};

/// Outcome of one property demonstration.
#[derive(Debug, Clone)]
pub struct Demo {
    /// Property name.
    pub property: &'static str,
    /// Table-1 definition.
    pub definition: &'static str,
    /// Did the property hold with its protocol in the stack?
    pub with_protocol: bool,
    /// Did it hold on the baseline (it should not)?
    pub baseline: bool,
    /// One-line description of the adversarial scenario.
    pub scenario: &'static str,
}

fn jittery(latency_us: u64, jitter_ms: u64) -> Box<dyn Medium> {
    Box::new(
        PointToPoint::new(SimTime::from_micros(latency_us))
            .with_jitter(SimTime::from_millis(jitter_ms)),
    )
}

fn run_stack<F>(n: u16, seed: u64, medium: Box<dyn Medium>, msgs: usize, factory: F) -> Trace
where
    F: Fn(ProcessId) -> Vec<Box<dyn Layer>> + 'static,
{
    let mut s = Scenario::new(n, seed).medium(medium).layers(factory);
    for i in 0..msgs {
        let (at, sender) = (SimTime::from_millis(2 + 4 * i as u64), (i % n as usize) as u16);
        s = s.send_at(at, ProcessId(sender), format!("t1-{i}"));
    }
    s.run(SimTime::from_secs(10)).driver.app_trace()
}

/// Rebuilds the "release boundary" trace for the Amoeba demo: each send is
/// re-timed to the instant of its first delivery (a released message is in
/// flight). See `AmoebaLayer`'s docs for why the app-submission trace
/// cannot exhibit the property under an eager application.
fn release_boundary(tr: &Trace) -> Trace {
    let mut out = Vec::new();
    for e in tr.iter() {
        match e {
            Event::Send(_) => {}
            Event::Deliver(_, m) => {
                let first = !out
                    .iter()
                    .any(|x: &Event| matches!(x, Event::Deliver(_, m2) if m2.id == m.id));
                if first {
                    out.push(Event::send(m.clone()));
                }
                out.push(e.clone());
            }
        }
    }
    Trace::from_events(out)
}

/// One row: `prop` judged on the run with its protocol and on the
/// baseline run without it.
fn demo(prop: &dyn Property, with: &Trace, base: &Trace, scenario: &'static str) -> Demo {
    Demo {
        property: prop.name(),
        definition: prop.description(),
        with_protocol: prop.holds(with),
        baseline: prop.holds(base),
        scenario,
    }
}

/// Runs all eight demonstrations.
pub fn run() -> Vec<Demo> {
    let group4: Vec<ProcessId> = (0..4).map(ProcessId).collect();
    // Processes 0–2 hold the group key; process 3 does not.
    let trusted = [ProcessId(0), ProcessId(1), ProcessId(2)];

    // Reliability: 25% loss; the reliable layer retransmits, the bare
    // stack loses messages.
    let lossy =
        || Box::new(Lossy::new(Box::new(PointToPoint::new(SimTime::from_micros(200))), 0.25));
    let reliability = demo(
        &Reliability::new(group4),
        &run_stack(4, 11, lossy(), 12, |_| vec![Box::new(ReliableLayer::new())]),
        &run_stack(4, 11, lossy(), 12, |_| vec![]),
        "25% message loss",
    );

    // Total Order: heavy jitter; the sequencer restores a single order.
    let total_order = demo(
        &TotalOrder,
        &run_stack(4, 12, jittery(300, 5), 16, |_| {
            vec![Box::new(SeqOrderLayer::new(ProcessId(0)))]
        }),
        &run_stack(4, 12, jittery(300, 5), 16, |_| vec![]),
        "±5 ms network jitter reorders multicasts",
    );

    // Integrity: process 3 has no key; with the layer its traffic is
    // rejected, without it everyone delivers the untrusted sender.
    let integrity = demo(
        &Integrity::new(trusted),
        &run_stack(4, 13, jittery(200, 0), 12, move |p| {
            let l: Box<dyn Layer> = if trusted.contains(&p) {
                Box::new(IntegrityLayer::new(0xAB, trusted))
            } else {
                Box::new(IntegrityLayer::untrusted(trusted))
            };
            vec![l]
        }),
        &run_stack(4, 13, jittery(200, 0), 12, |_| vec![]),
        "process 3 is untrusted (no group key)",
    );

    // Confidentiality: process 3 has no key and must see nothing.
    let confidentiality = demo(
        &Confidentiality::new(trusted),
        &run_stack(4, 14, jittery(200, 0), 12, move |p| {
            let l: Box<dyn Layer> = if trusted.contains(&p) {
                Box::new(ConfidentialityLayer::new(0xCD))
            } else {
                Box::new(ConfidentialityLayer::keyless())
            };
            vec![l]
        }),
        &run_stack(4, 14, jittery(200, 0), 12, |_| vec![]),
        "eavesdropper without the group key",
    );

    // No Replay: the medium duplicates frames.
    let dup = || {
        Box::new(
            Lossy::new(Box::new(PointToPoint::new(SimTime::from_micros(200))), 0.0)
                .with_duplication(0.6),
        )
    };
    let no_replay = demo(
        &NoReplay,
        &run_stack(3, 15, dup(), 10, |_| vec![Box::new(NoReplayLayer::new())]),
        &run_stack(3, 15, dup(), 10, |_| vec![]),
        "network duplicates 60% of frames",
    );

    // Prioritized Delivery: jitter races other members past the master.
    let priority = demo(
        &PrioritizedDelivery::new(ProcessId(0)),
        &run_stack(4, 16, jittery(300, 4), 14, |_| {
            vec![Box::new(PriorityLayer::new(ProcessId(0)))]
        }),
        &run_stack(4, 16, jittery(300, 4), 14, |_| vec![]),
        "jitter delivers to followers before the master",
    );

    // Amoeba: eager application; the layer serializes releases. The
    // property is read at the release boundary (see docs). One eager
    // sender over a jittery network: without self-clocking, a later
    // message's fastest copy overtakes the earlier message's
    // self-delivery, violating the property at the release boundary.
    let amoeba_run = |layers: fn() -> Vec<Box<dyn Layer>>| {
        let mut s = Scenario::new(3, 17).medium(jittery(800, 3)).layers(move |_| layers());
        for i in 0..12u64 {
            s = s.send_at(SimTime::from_micros(100 + 200 * i), ProcessId(0), format!("amoeba-{i}"));
        }
        release_boundary(&s.run(SimTime::from_secs(2)).driver.app_trace())
    };
    let amoeba = demo(
        &Amoeba,
        &amoeba_run(|| vec![Box::new(ps_protocols::AmoebaLayer::new())]),
        &amoeba_run(Vec::new),
        "eager app bursts; trace read at the release boundary",
    );

    // Virtual Synchrony: process 3 starts outside the view and joins via a
    // view change; without the machinery its traffic appears out-of-view.
    let initial = vec![ProcessId(0), ProcessId(1), ProcessId(2)];
    let init2 = initial.clone();
    let vsync = demo(
        &VirtualSynchrony::new(initial),
        &run_stack(4, 18, jittery(200, 0), 16, move |_| {
            vec![Box::new(VsyncLayer::new(VsyncConfig {
                initial: Some(init2.clone()),
                changes: vec![(
                    SimTime::from_millis(20),
                    vec![ProcessId(0), ProcessId(1), ProcessId(2), ProcessId(3)],
                )],
                ..VsyncConfig::default()
            }))]
        }),
        &run_stack(4, 18, jittery(200, 0), 16, |_| vec![]),
        "process 3 joins the group mid-run",
    );

    vec![reliability, total_order, integrity, confidentiality, no_replay, priority, amoeba, vsync]
}

/// `repro table1`.
pub(crate) fn artefacts(ask: &super::Ask) -> super::Artefacts {
    super::one_table(ask, &render(&run()), 0, "default".to_owned())
}

/// Renders the demonstrations as a table.
pub fn render(demos: &[Demo]) -> Table {
    let mut t = Table::new(
        "Table 1 — example properties, implemented and violated",
        vec!["property", "with protocol", "baseline", "adversarial scenario"],
    );
    for d in demos {
        t.row(vec![
            d.property.to_owned(),
            if d.with_protocol { "✓ holds" } else { "✗ VIOLATED" }.into(),
            if d.baseline { "✓ holds (!)" } else { "✗ violated" }.into(),
            d.scenario.to_owned(),
        ]);
    }
    t.note("every row should read '✓ holds' + '✗ violated': the protocol provides the property, the bare stack does not");
    t
}
