//! The streaming monitors against the implementations they replaced.
//!
//! [`reference`] is the monitor code as it stood while it kept an entry
//! per message (and a `BTreeMap` probe per cursor) for the whole run —
//! kept here, verbatim in behaviour, as the oracle — and the switch
//! liveness check as it stood when each check was its own public type. The properties feed
//! one recorded stream to both and require [`MonitorSet::finish`] to be
//! *equal*: same violations, same order, same `detail` text, same
//! `context` events. The last test counts what the bounded monitors hold
//! and allocate over a long clean run.
//!
//! The allocation counter is per thread, so the tests can run side by
//! side.

use ps_check::prelude::*;
use ps_obs::{CauseId, MonitorSet, ObsEvent, Recorder, SpPhase, TimedEvent, Violation};
use ps_prof::alloc::{self, Counting};
use std::cell::RefCell;

#[global_allocator]
static ALLOC: Counting = Counting;

/// The monitors as they were: state for every message of the run.
mod reference {
    use ps_obs::{ObsEvent, SpPhase, TimedEvent, Violation, ViolationKind};
    use std::collections::BTreeMap;

    #[derive(Default)]
    pub struct TotalOrder {
        canonical: Vec<(u32, u64)>,
        canonical_ev: Vec<TimedEvent>,
        cursor: BTreeMap<u32, usize>,
        diverged: Vec<u32>,
        pub violations: Vec<Violation>,
    }

    impl TotalOrder {
        pub fn observe(&mut self, ev: &TimedEvent) {
            let ObsEvent::AppDeliver { sender, seq } = ev.ev else { return };
            if self.diverged.contains(&ev.node) {
                return;
            }
            let k = *self.cursor.entry(ev.node).or_insert(0);
            if k == self.canonical.len() {
                self.canonical.push((sender, seq));
                self.canonical_ev.push(*ev);
            } else if self.canonical[k] != (sender, seq) {
                let (want_sender, want_seq) = self.canonical[k];
                let witness = self.canonical_ev[k];
                self.violations.push(Violation {
                    kind: ViolationKind::TotalOrder,
                    node: ev.node,
                    at_us: ev.at_us,
                    detail: format!(
                        "delivery #{k} is ({sender},{seq}) but the agreed sequence has \
                         ({want_sender},{want_seq}) (defined at node {} at {}us)",
                        witness.node, witness.at_us
                    ),
                    context: vec![witness, *ev],
                });
                self.diverged.push(ev.node);
            }
            *self.cursor.get_mut(&ev.node).expect("cursor inserted above") += 1;
        }
    }

    #[derive(Default)]
    pub struct Fifo {
        last: BTreeMap<(u32, u32), (u64, TimedEvent)>,
        pub violations: Vec<Violation>,
    }

    impl Fifo {
        pub fn observe(&mut self, ev: &TimedEvent) {
            let ObsEvent::AppDeliver { sender, seq } = ev.ev else { return };
            match self.last.get(&(ev.node, sender)) {
                Some(&(prev_seq, prev_ev)) if seq <= prev_seq => {
                    let what = if seq == prev_seq { "duplicate" } else { "reordered" };
                    self.violations.push(Violation {
                        kind: ViolationKind::Fifo,
                        node: ev.node,
                        at_us: ev.at_us,
                        detail: format!(
                            "{what} delivery from sender {sender}: seq {seq} after seq {prev_seq}"
                        ),
                        context: vec![prev_ev, *ev],
                    });
                }
                _ => {
                    self.last.insert((ev.node, sender), (seq, *ev));
                }
            }
        }
    }

    pub struct Delivery {
        nodes: u32,
        sent: BTreeMap<(u32, u64), TimedEvent>,
        delivered: BTreeMap<(u32, u64), Vec<u32>>,
    }

    impl Delivery {
        pub fn new(nodes: u32) -> Self {
            Self { nodes, sent: BTreeMap::new(), delivered: BTreeMap::new() }
        }

        pub fn observe(&mut self, ev: &TimedEvent) {
            match ev.ev {
                ObsEvent::AppSend { sender, seq } => {
                    self.sent.entry((sender, seq)).or_insert(*ev);
                }
                ObsEvent::AppDeliver { sender, seq } => {
                    let nodes = self.delivered.entry((sender, seq)).or_default();
                    if !nodes.contains(&ev.node) {
                        nodes.push(ev.node);
                    }
                }
                _ => {}
            }
        }

        pub fn sent_count(&self) -> usize {
            self.sent.len()
        }

        pub fn finish(&self) -> Vec<Violation> {
            let mut out = Vec::new();
            for (&(sender, seq), send_ev) in &self.sent {
                let have = self.delivered.get(&(sender, seq)).map_or(0, Vec::len);
                if have < self.nodes as usize {
                    out.push(Violation {
                        kind: ViolationKind::DeliveryLoss,
                        node: sender,
                        at_us: send_ev.at_us,
                        detail: format!(
                            "message ({sender},{seq}) delivered at {have}/{} nodes",
                            self.nodes
                        ),
                        context: vec![*send_ev],
                    });
                }
            }
            out
        }
    }

    struct OpenSwitch {
        prepare: TimedEvent,
        flipped: bool,
    }

    pub struct Liveness {
        bound_us: u64,
        open: BTreeMap<u32, OpenSwitch>,
        violations: Vec<Violation>,
    }

    impl Liveness {
        pub fn new(bound_us: u64) -> Self {
            Self { bound_us, open: BTreeMap::new(), violations: Vec::new() }
        }

        pub fn observe(&mut self, ev: &TimedEvent) {
            let ObsEvent::SwitchPhase { phase, .. } = ev.ev else { return };
            match phase {
                SpPhase::PrepareSeen => {
                    self.open.insert(ev.node, OpenSwitch { prepare: *ev, flipped: false });
                }
                SpPhase::Aborted => {
                    // A clean abort closes the switch without a flip: reverting
                    // to the old protocol is a legitimate liveness outcome.
                    self.open.remove(&ev.node);
                }
                SpPhase::DrainComplete | SpPhase::Flip | SpPhase::BufferRelease => {
                    let Some(open) = self.open.get_mut(&ev.node) else { return };
                    let elapsed = ev.at_us.saturating_sub(open.prepare.at_us);
                    let prepare = open.prepare;
                    if phase == SpPhase::Flip {
                        open.flipped = true;
                    }
                    let closes = phase == SpPhase::BufferRelease;
                    if closes {
                        self.open.remove(&ev.node);
                    }
                    if elapsed > self.bound_us {
                        let bound = self.bound_us;
                        self.violations.push(Violation {
                            kind: ViolationKind::SwitchLiveness,
                            node: ev.node,
                            at_us: ev.at_us,
                            detail: format!(
                                "{} came {elapsed}us after prepare_seen (bound {bound}us)",
                                phase.as_str()
                            ),
                            context: vec![prepare, *ev],
                        });
                    }
                }
            }
        }

        pub fn finish(&self) -> Vec<Violation> {
            let mut out = self.violations.clone();
            for (&node, open) in &self.open {
                if !open.flipped {
                    out.push(Violation {
                        kind: ViolationKind::SwitchLiveness,
                        node,
                        at_us: open.prepare.at_us,
                        detail: "switch entered prepare_seen but never flipped".to_owned(),
                        context: vec![open.prepare],
                    });
                }
            }
            out
        }
    }
}

/// The reference bundle, fed and assembled and sorted as `MonitorSet` is.
struct ReferenceSet {
    total_order: reference::TotalOrder,
    fifo: reference::Fifo,
    delivery: reference::Delivery,
    liveness: reference::Liveness,
}

impl ReferenceSet {
    fn standard(nodes: u32, liveness_bound_us: u64) -> Self {
        Self {
            total_order: Default::default(),
            fifo: Default::default(),
            delivery: reference::Delivery::new(nodes),
            liveness: reference::Liveness::new(liveness_bound_us),
        }
    }

    fn observe(&mut self, ev: &TimedEvent) {
        self.total_order.observe(ev);
        self.fifo.observe(ev);
        self.delivery.observe(ev);
        self.liveness.observe(ev);
    }

    fn finish(&self) -> Vec<Violation> {
        let mut out = self.total_order.violations.clone();
        out.extend(self.fifo.violations.iter().cloned());
        out.extend(self.delivery.finish());
        out.extend(self.liveness.finish());
        out.sort_by_key(|v| (v.at_us, v.node, v.kind));
        out
    }
}

/// A recorder on a ring far smaller than any stream with the bounded
/// bundle attached, and the reference beside it.
struct Pair {
    rec: Recorder,
    bounded: MonitorSet,
    reference: RefCell<ReferenceSet>,
}

impl Pair {
    fn new(nodes: u32) -> Self {
        let rec = Recorder::with_capacity(8);
        let bounded = MonitorSet::standard(nodes, 500);
        bounded.attach(&rec);
        let reference = RefCell::new(ReferenceSet::standard(nodes, 500));
        Self { rec, bounded, reference }
    }

    /// Records `ev` (which feeds the bounded bundle), then feeds the
    /// reference the event as the recorder stamped it, so both sides see
    /// the same `seq` in the same order. A disabled recorder feeds neither.
    fn record(&self, at_us: u64, node: u32, ev: ObsEvent) {
        let id = self.rec.record(at_us, node, ev);
        if !id.is_none() {
            let stamped = TimedEvent { at_us, node, seq: id.seq(), parent: CauseId::NONE, ev };
            self.reference.borrow_mut().observe(&stamped);
        }
    }

    fn check(&self) {
        let r = self.reference.borrow();
        assert_eq!(self.bounded.finish(), r.finish());
        assert_eq!(self.bounded.sent_count(), r.delivery.sent_count());
    }
}

/// Ids drawn mostly from a handful (so sends, deliveries and duplicates
/// of one message meet), sometimes from where the monitors' dense tables
/// end — and, for a sender, where the integers do. (The recorder keeps a
/// counter per recording node, indexed by node: a node id stays modest.)
fn shape_id(raw: u64, wild: u32) -> u32 {
    match raw % 16 {
        0 => [1023, 1024, 70_000, wild][(raw >> 4) as usize % 4],
        _ => (raw >> 4) as u32 % 5,
    }
}

fn shape_seq(raw: u64) -> u64 {
    match raw % 32 {
        0 => u64::MAX - (raw >> 5) % 2,
        _ => (raw >> 5) % 10,
    }
}

const PHASES: [SpPhase; 5] = [
    SpPhase::PrepareSeen,
    SpPhase::DrainComplete,
    SpPhase::Flip,
    SpPhase::BufferRelease,
    SpPhase::Aborted,
];

/// One recorded event out of three raw draws.
fn shape_event((kind, a, b): (u64, u64, u64)) -> (u32, ObsEvent) {
    let node = shape_id(a, 5_000);
    let (sender, seq) = (shape_id(b, u32::MAX), shape_seq(b >> 8));
    let ev = match kind % 8 {
        0 | 1 => ObsEvent::AppSend { sender, seq },
        2..=5 => ObsEvent::AppDeliver { sender, seq },
        6 => ObsEvent::SwitchPhase { phase: PHASES[(b >> 3) as usize % 5], from: 0, to: 1 },
        _ => ObsEvent::TimerFire { token: b },
    };
    // A send is recorded at its sender, as the runtimes do.
    let at_sender = matches!(ev, ObsEvent::AppSend { .. }) && sender != u32::MAX;
    (if at_sender { sender } else { node }, ev)
}

props! {
    #![config(cases = 96)]

    /// Unstructured streams: every kind of event, any interleaving,
    /// duplicates and deliveries ahead of their sends included.
    fn random_streams_get_the_reference_verdict(
        nodes in arb::<u8>(),
        draws in vec_of((arb::<u64>(), arb::<u64>(), arb::<u64>()), 0..400),
    ) {
        let p = Pair::new(u32::from(nodes % 5));
        let mut at = 0;
        for (i, draw) in draws.into_iter().enumerate() {
            at += draw.0 >> 56; // up to 255 us apart: some phases overrun the bound
            let (node, ev) = shape_event(draw);
            p.record(at, node, ev);
            if i % 16 == 0 {
                p.check();
            }
        }
        p.check();
    }

    /// Clean multicasts of a `nodes`-member group, then damage: events
    /// dropped (loss), repeated (duplicates) and swapped with a later one
    /// (reorder, delivery ahead of its send), switches interleaved.
    fn damaged_multicasts_get_the_reference_verdict(
        shape in arb::<u16>(),
        damage in vec_of((arb::<u8>(), arb::<u16>(), arb::<u8>()), 0..40),
    ) {
        let nodes = 2 + u32::from(shape % 4);
        let msgs = 1 + u64::from(shape >> 4) % 60;
        let mut stream = Vec::new();
        for m in 0..msgs {
            let (sender, seq) = ((m % u64::from(nodes)) as u32, 1 + m / u64::from(nodes));
            stream.push((sender, ObsEvent::AppSend { sender, seq }));
            if m % 7 == 3 {
                for phase in [SpPhase::PrepareSeen, SpPhase::Flip, SpPhase::BufferRelease] {
                    stream.push((sender, ObsEvent::SwitchPhase { phase, from: 0, to: 1 }));
                }
            }
            for node in 0..nodes {
                stream.push((node, ObsEvent::AppDeliver { sender, seq }));
            }
        }
        for (what, at, by) in damage {
            let i = usize::from(at) % stream.len();
            match what % 3 {
                0 => {
                    stream.remove(i);
                }
                1 => stream.insert((i + usize::from(by)) % stream.len(), stream[i]),
                _ => {
                    let j = (i + usize::from(by)) % stream.len();
                    stream.swap(i, j);
                }
            }
            if stream.is_empty() {
                break;
            }
        }
        let p = Pair::new(nodes);
        for (i, (node, ev)) in stream.into_iter().enumerate() {
            p.record(10 * i as u64, node, ev);
        }
        p.check();
    }
}

#[test]
fn a_long_clean_run_holds_state_for_what_is_in_flight_only() {
    const NODES: u32 = 8;
    const SENDERS: u64 = 4;
    const IN_FLIGHT: u64 = 6;
    const WARM_UP: u64 = 1_000;
    const TOTAL: u64 = 100_000;

    let rec = Recorder::with_capacity(1 << 10);
    if !rec.is_enabled() {
        return; // tap feature off: nothing streams, nothing to count
    }
    let set = MonitorSet::standard(NODES, 1_000_000);
    set.attach(&rec);
    let id = |m: u64| ((m % SENDERS) as u32, 1 + m / SENDERS);
    let deliver_everywhere = |m: u64| {
        let (sender, seq) = id(m);
        for node in 0..NODES {
            rec.record(m, node, ObsEvent::AppDeliver { sender, seq });
        }
    };

    let mut calls_after_warm_up = 0;
    for m in 0..TOTAL {
        if m == WARM_UP {
            calls_after_warm_up = alloc::thread().calls;
        }
        let (sender, seq) = id(m);
        rec.record(m, sender, ObsEvent::AppSend { sender, seq });
        if m >= IN_FLIGHT {
            deliver_everywhere(m - IN_FLIGHT);
        }
        let open = set.unsettled_count() as u64;
        assert!(open <= IN_FLIGHT.min(m + 1), "{open} unsettled with {IN_FLIGHT} in flight");
    }
    let calls = alloc::thread().calls - calls_after_warm_up;
    // What still grows is the total-order check's agreed sequence: two
    // vectors, doubling — seven times each from 1 000 to 100 000 entries.
    assert!(calls <= 16, "{calls} allocator calls for {} multicasts", TOTAL - WARM_UP);

    assert_eq!(set.unsettled_count() as u64, IN_FLIGHT);
    for m in TOTAL - IN_FLIGHT..TOTAL {
        deliver_everywhere(m);
    }
    assert_eq!(set.unsettled_count(), 0);
    assert_eq!(set.sent_count() as u64, TOTAL);
    assert!(set.finish().is_empty());
}
