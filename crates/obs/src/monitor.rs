//! Streaming property monitors: online checks over the live event stream.
//!
//! Monitors subscribe to a [`Recorder`] through the
//! [`EventSink`] API, so they observe *every* event at record time — unlike
//! post-hoc trace analysis, they are immune to ring wrap-around. Each
//! monitor is a clonable handle sharing its state: subscribe one clone,
//! keep another to read [`Violation`]s after the run.
//!
//! The built-in monitors check the properties the paper's switching layer
//! must preserve (see DESIGN.md §"Monitors"):
//!
//! * [`TotalOrderMonitor`] — all nodes deliver the same application
//!   message sequence (prefix agreement, checked as deliveries stream in).
//! * [`FifoMonitor`] — per (node, sender), delivered sequence numbers are
//!   strictly increasing (no reorder, no duplicate; gaps are loss, which
//!   is [`DeliveryMonitor`]'s business).
//! * [`DeliveryMonitor`] — at the end of the run, every sent message was
//!   delivered at every node.
//! * [`SwitchLivenessMonitor`] — every switch a node starts completes
//!   (prepare → drain → flip → release) within a configured bound.
//!
//! A [`Violation`] carries the offending events as context, so a report
//! can show *which* deliveries disagreed, not just that they did.

use crate::event::{EventMask, ObsEvent, SpPhase, TimedEvent};
use crate::ids::IdTable;
use crate::recorder::{EventSink, Recorder};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, MutexGuard};

/// Which property a [`Violation`] breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ViolationKind {
    /// Two nodes delivered different messages at the same position.
    TotalOrder,
    /// A node delivered a sender's messages out of order (or twice).
    Fifo,
    /// A sent message was not delivered at every node.
    DeliveryLoss,
    /// A switch did not complete within the liveness bound.
    SwitchLiveness,
}

impl ViolationKind {
    /// Short snake_case name for reports.
    pub fn as_str(self) -> &'static str {
        match self {
            ViolationKind::TotalOrder => "total_order",
            ViolationKind::Fifo => "fifo",
            ViolationKind::DeliveryLoss => "delivery_loss",
            ViolationKind::SwitchLiveness => "switch_liveness",
        }
    }
}

/// One detected property violation, with the events that witnessed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which property broke.
    pub kind: ViolationKind,
    /// Node the violation was detected at.
    pub node: u32,
    /// Virtual time of detection (µs).
    pub at_us: u64,
    /// Human-readable description of what went wrong.
    pub detail: String,
    /// The offending events (e.g. the two disagreeing deliveries).
    pub context: Vec<TimedEvent>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] node {} at {}us: {}",
            self.kind.as_str(),
            self.node,
            self.at_us,
            self.detail
        )
    }
}

fn lock<T>(m: &Arc<Mutex<T>>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---- total order -----------------------------------------------------------

#[derive(Default)]
struct TotalOrderState {
    /// The agreed delivery sequence: position k is defined by the first
    /// node to deliver its k-th message.
    canonical: Vec<(u32, u64)>,
    /// The event that defined each canonical position (violation context).
    canonical_ev: Vec<TimedEvent>,
    /// Next delivery position per node.
    cursor: IdTable<Option<usize>>,
    /// Nodes already reported (one violation per diverging node).
    diverged: Vec<u32>,
    violations: Vec<Violation>,
}

/// Checks total-order agreement across nodes as deliveries stream in.
///
/// The first node to reach delivery position `k` defines the canonical
/// `k`-th message; any node later delivering a *different* message at its
/// own position `k` has diverged. This detects both reorderings and
/// holes, at the earliest instant the disagreement is observable.
#[derive(Clone, Default)]
pub struct TotalOrderMonitor {
    inner: Arc<Mutex<TotalOrderState>>,
}

impl TotalOrderMonitor {
    /// A fresh monitor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one event (sinks call this; so can a host replaying a
    /// recorded trace).
    pub fn observe(&self, ev: &TimedEvent) {
        let ObsEvent::AppDeliver { sender, seq } = ev.ev else { return };
        let mut s = lock(&self.inner);
        if s.diverged.contains(&ev.node) {
            return;
        }
        let s = &mut *s;
        let cursor = s.cursor.slot(ev.node).get_or_insert(0);
        let k = *cursor;
        *cursor += 1;
        if k == s.canonical.len() {
            s.canonical.push((sender, seq));
            s.canonical_ev.push(*ev);
        } else if s.canonical[k] != (sender, seq) {
            let (want_sender, want_seq) = s.canonical[k];
            let witness = s.canonical_ev[k];
            let v = Violation {
                kind: ViolationKind::TotalOrder,
                node: ev.node,
                at_us: ev.at_us,
                detail: format!(
                    "delivery #{k} is ({sender},{seq}) but the agreed sequence has \
                     ({want_sender},{want_seq}) (defined at node {} at {}us)",
                    witness.node, witness.at_us
                ),
                context: vec![witness, *ev],
            };
            s.violations.push(v);
            s.diverged.push(ev.node);
        }
    }

    /// Violations detected so far.
    pub fn violations(&self) -> Vec<Violation> {
        lock(&self.inner).violations.clone()
    }
}

impl EventSink for TotalOrderMonitor {
    fn on_event(&mut self, ev: &TimedEvent) {
        self.observe(ev);
    }
    fn interest(&self) -> EventMask {
        EventMask::APP
    }
    fn name(&self) -> &'static str {
        "total_order"
    }
}

// ---- per-sender FIFO -------------------------------------------------------

#[derive(Default)]
struct FifoState {
    /// Highest delivered seq and its event, per node, per sender.
    last: IdTable<IdTable<Option<(u64, TimedEvent)>>>,
    violations: Vec<Violation>,
}

/// Checks per-sender FIFO at every node: a node must deliver each sender's
/// messages with strictly increasing sequence numbers. Gaps are allowed
/// (that is loss, [`DeliveryMonitor`]'s domain); going backwards or
/// repeating a seq is a violation.
#[derive(Clone, Default)]
pub struct FifoMonitor {
    inner: Arc<Mutex<FifoState>>,
}

impl FifoMonitor {
    /// A fresh monitor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one event.
    pub fn observe(&self, ev: &TimedEvent) {
        let ObsEvent::AppDeliver { sender, seq } = ev.ev else { return };
        let mut s = lock(&self.inner);
        let s = &mut *s;
        let last = s.last.slot(ev.node).slot(sender);
        match *last {
            Some((prev_seq, prev_ev)) if seq <= prev_seq => {
                let what = if seq == prev_seq { "duplicate" } else { "reordered" };
                let v = Violation {
                    kind: ViolationKind::Fifo,
                    node: ev.node,
                    at_us: ev.at_us,
                    detail: format!(
                        "{what} delivery from sender {sender}: seq {seq} after seq {prev_seq}"
                    ),
                    context: vec![prev_ev, *ev],
                };
                s.violations.push(v);
            }
            _ => *last = Some((seq, *ev)),
        }
    }

    /// Violations detected so far.
    pub fn violations(&self) -> Vec<Violation> {
        lock(&self.inner).violations.clone()
    }
}

impl EventSink for FifoMonitor {
    fn on_event(&mut self, ev: &TimedEvent) {
        self.observe(ev);
    }
    fn interest(&self) -> EventMask {
        EventMask::APP
    }
    fn name(&self) -> &'static str {
        "fifo"
    }
}

// ---- delivery accounting ---------------------------------------------------

/// The message ids of one sender that are *settled*: sent, and delivered
/// at every expected node, so nothing recorded later can change their
/// verdict. A contiguous run `[base, low)` plus a sparse tail, the shape
/// of `ps-protocols`' reliable-layer received-set: senders' messages
/// settle in sequence order on every ordered stack, so the tail stays
/// empty and a message costs one compare here. `base` is the first id to
/// settle, whatever number the sender started counting at.
#[derive(Default)]
struct Settled {
    base: u64,
    low: u64,
    tail: BTreeSet<u64>,
}

impl Settled {
    fn contains(&self, seq: u64) -> bool {
        (self.base <= seq && seq < self.low) || self.tail.contains(&seq)
    }

    fn insert(&mut self, seq: u64) {
        // `low` is exclusive, so the run can never take in `u64::MAX`.
        match seq.checked_add(1) {
            Some(next) if self.base == self.low => (self.base, self.low) = (seq, next),
            Some(next) if seq == self.low => self.low = next,
            _ => {
                self.tail.insert(seq);
                return;
            }
        }
        while self.low < u64::MAX && self.tail.remove(&self.low) {
            self.low += 1;
        }
    }
}

/// What is known of a message that is not settled yet.
struct Unsettled {
    /// Its first `AppSend`, once seen. A delivery can arrive first: the
    /// monitor does not assume record order, since whoever calls
    /// `observe` — a replay of a trace file, a merge of several hosts'
    /// logs — need not hand a send over ahead of its deliveries.
    send: Option<TimedEvent>,
    /// The distinct nodes that delivered it, in arrival order.
    nodes: Vec<u32>,
}

#[derive(Default)]
struct DeliveryState {
    /// Messages sent or delivered that may still change verdict, by id.
    /// Bounded by what is in flight plus what was lost for good.
    open: BTreeMap<(u32, u64), Unsettled>,
    /// Settled ids, per sender.
    settled: IdTable<Option<Settled>>,
    /// Distinct message ids sent so far, settled ones included.
    sent: usize,
    /// Node lists of settled messages, emptied, for the next message.
    spare: Vec<Vec<u32>>,
}

impl DeliveryState {
    /// The open entry of `(sender, seq)`, or `None` if it is settled.
    fn unsettled(&mut self, sender: u32, seq: u64) -> Option<&mut Unsettled> {
        if self.settled.slot(sender).as_ref().is_some_and(|s| s.contains(seq)) {
            return None;
        }
        let spare = &mut self.spare;
        Some(
            self.open.entry((sender, seq)).or_insert_with(|| Unsettled {
                send: None,
                nodes: spare.pop().unwrap_or_default(),
            }),
        )
    }

    /// Forgets the open entry of `(sender, seq)`, now settled, keeping
    /// its id recognisable and its node list for reuse.
    fn retire(&mut self, sender: u32, seq: u64) {
        let mut nodes = self.open.remove(&(sender, seq)).expect("settled from its entry").nodes;
        nodes.clear();
        self.spare.push(nodes);
        self.settled.slot(sender).get_or_insert_with(Settled::default).insert(seq);
    }
}

/// Accounts deliveries against sends: at [`DeliveryMonitor::finish`],
/// every sent message must have been delivered at all `nodes` group
/// members (total-order stacks self-deliver, so the sender counts too).
///
/// State is held for what is unsettled, not for the run: a message that
/// has been sent and delivered at `nodes` distinct nodes is forgotten,
/// except that its id stays recognisable — a late duplicate send or
/// delivery of it changes nothing, as it never did.
#[derive(Clone)]
pub struct DeliveryMonitor {
    nodes: u32,
    inner: Arc<Mutex<DeliveryState>>,
}

impl DeliveryMonitor {
    /// A monitor expecting each message at `nodes` distinct nodes.
    pub fn new(nodes: u32) -> Self {
        Self { nodes, inner: Arc::new(Mutex::new(DeliveryState::default())) }
    }

    /// Feeds one event.
    pub fn observe(&self, ev: &TimedEvent) {
        let (sender, seq, is_send) = match ev.ev {
            ObsEvent::AppSend { sender, seq } => (sender, seq, true),
            ObsEvent::AppDeliver { sender, seq } => (sender, seq, false),
            _ => return,
        };
        let mut s = lock(&self.inner);
        let Some(m) = s.unsettled(sender, seq) else { return };
        if is_send {
            if m.send.is_some() {
                return;
            }
            m.send = Some(*ev);
        } else {
            if m.nodes.contains(&ev.node) {
                return;
            }
            m.nodes.push(ev.node);
        }
        let settled = m.send.is_some() && m.nodes.len() >= self.nodes as usize;
        s.sent += usize::from(is_send);
        if settled {
            s.retire(sender, seq);
        }
    }

    /// Messages sent so far.
    pub fn sent_count(&self) -> usize {
        lock(&self.inner).sent
    }

    /// Messages sent or delivered whose verdict is still open — what the
    /// monitor holds state for.
    pub fn unsettled_count(&self) -> usize {
        lock(&self.inner).open.len()
    }

    /// End-of-run check: one violation per message missing a delivery.
    pub fn finish(&self) -> Vec<Violation> {
        let s = lock(&self.inner);
        let mut out = Vec::new();
        for (&(sender, seq), m) in &s.open {
            let Some(send_ev) = &m.send else { continue };
            let have = m.nodes.len();
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

impl EventSink for DeliveryMonitor {
    fn on_event(&mut self, ev: &TimedEvent) {
        self.observe(ev);
    }
    fn interest(&self) -> EventMask {
        EventMask::APP
    }
    fn name(&self) -> &'static str {
        "delivery"
    }
}

// ---- switch liveness -------------------------------------------------------

struct OpenSwitch {
    prepare: TimedEvent,
    flipped: bool,
}

#[derive(Default)]
struct LivenessState {
    open: BTreeMap<u32, OpenSwitch>,
    violations: Vec<Violation>,
}

/// Checks switch liveness: once a node records `prepare_seen`, its `flip`
/// and `buffer_release` must follow within `bound_us`; a switch still open
/// at [`SwitchLivenessMonitor::finish`] is a violation too.
#[derive(Clone)]
pub struct SwitchLivenessMonitor {
    bound_us: u64,
    inner: Arc<Mutex<LivenessState>>,
}

impl SwitchLivenessMonitor {
    /// A monitor with the given completion bound in microseconds.
    pub fn new(bound_us: u64) -> Self {
        Self { bound_us, inner: Arc::new(Mutex::new(LivenessState::default())) }
    }

    /// Feeds one event.
    pub fn observe(&self, ev: &TimedEvent) {
        let ObsEvent::SwitchPhase { phase, .. } = ev.ev else { return };
        let mut s = lock(&self.inner);
        match phase {
            SpPhase::PrepareSeen => {
                s.open.insert(ev.node, OpenSwitch { prepare: *ev, flipped: false });
            }
            SpPhase::Aborted => {
                // A clean abort closes the switch without a flip: reverting
                // to the old protocol is a legitimate liveness outcome.
                s.open.remove(&ev.node);
            }
            SpPhase::DrainComplete | SpPhase::Flip | SpPhase::BufferRelease => {
                let Some(open) = s.open.get_mut(&ev.node) else { return };
                let elapsed = ev.at_us.saturating_sub(open.prepare.at_us);
                let prepare = open.prepare;
                if phase == SpPhase::Flip {
                    open.flipped = true;
                }
                let closes = phase == SpPhase::BufferRelease;
                if closes {
                    s.open.remove(&ev.node);
                }
                if elapsed > self.bound_us {
                    let bound = self.bound_us;
                    s.violations.push(Violation {
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

    /// Violations from phases that overran the bound, so far.
    pub fn violations(&self) -> Vec<Violation> {
        lock(&self.inner).violations.clone()
    }

    /// End-of-run check: switches that never flipped.
    pub fn finish(&self) -> Vec<Violation> {
        let s = lock(&self.inner);
        let mut out = s.violations.clone();
        for (&node, open) in &s.open {
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

impl EventSink for SwitchLivenessMonitor {
    fn on_event(&mut self, ev: &TimedEvent) {
        self.observe(ev);
    }
    fn interest(&self) -> EventMask {
        EventMask::SWITCH
    }
    fn name(&self) -> &'static str {
        "switch_liveness"
    }
}

// ---- the standard bundle ---------------------------------------------------

/// The standard monitor bundle: total order, FIFO, delivery accounting,
/// and switch liveness, attached and read as one unit.
///
/// # Examples
///
/// ```
/// use ps_obs::{MonitorSet, ObsEvent, Recorder};
///
/// let rec = Recorder::with_capacity(64);
/// let monitors = MonitorSet::standard(2, 1_000_000);
/// monitors.attach(&rec);
/// // Both nodes deliver (0,1) first: agreement.
/// rec.record(10, 0, ObsEvent::AppSend { sender: 0, seq: 1 });
/// rec.record(20, 0, ObsEvent::AppDeliver { sender: 0, seq: 1 });
/// rec.record(21, 1, ObsEvent::AppDeliver { sender: 0, seq: 1 });
/// assert!(monitors.finish().is_empty());
/// ```
#[derive(Clone)]
pub struct MonitorSet {
    total_order: TotalOrderMonitor,
    fifo: FifoMonitor,
    delivery: DeliveryMonitor,
    liveness: SwitchLivenessMonitor,
}

impl MonitorSet {
    /// The standard bundle for a group of `nodes`, with a switch-liveness
    /// bound of `liveness_bound_us` microseconds.
    pub fn standard(nodes: u32, liveness_bound_us: u64) -> Self {
        Self {
            total_order: TotalOrderMonitor::new(),
            fifo: FifoMonitor::new(),
            delivery: DeliveryMonitor::new(nodes),
            liveness: SwitchLivenessMonitor::new(liveness_bound_us),
        }
    }

    /// Subscribes the bundle to `rec` as **one** combined sink (clones
    /// share state with `self`): the recorder tests one interest mask and
    /// makes one dynamic call per relevant event, and the fan routes it to
    /// the monitors whose interest matches. Events outside `APP | SWITCH`
    /// never reach the bundle at all.
    pub fn attach(&self, rec: &Recorder) {
        rec.subscribe(Box::new(MonitorFan { set: self.clone() }));
    }

    /// The total-order monitor.
    pub fn total_order(&self) -> &TotalOrderMonitor {
        &self.total_order
    }

    /// The FIFO monitor.
    pub fn fifo(&self) -> &FifoMonitor {
        &self.fifo
    }

    /// The delivery-accounting monitor.
    pub fn delivery(&self) -> &DeliveryMonitor {
        &self.delivery
    }

    /// The switch-liveness monitor.
    pub fn liveness(&self) -> &SwitchLivenessMonitor {
        &self.liveness
    }

    /// Runs the end-of-run checks and returns all violations, sorted by
    /// detection time (then node, then kind) — deterministic for a
    /// deterministic event stream.
    pub fn finish(&self) -> Vec<Violation> {
        let mut out = self.total_order.violations();
        out.extend(self.fifo.violations());
        out.extend(self.delivery.finish());
        out.extend(self.liveness.finish());
        out.sort_by(|a, b| (a.at_us, a.node, a.kind).cmp(&(b.at_us, b.node, b.kind)));
        out
    }
}

/// The one sink a [`MonitorSet`] subscribes: fans each event out to the
/// monitors whose interest covers it. One entry in the recorder's sink
/// table instead of four, so the per-event dispatch loop does one mask
/// test and one virtual call for the whole bundle.
struct MonitorFan {
    set: MonitorSet,
}

impl EventSink for MonitorFan {
    fn on_event(&mut self, ev: &TimedEvent) {
        let kind = ev.ev.kind();
        if kind.intersects(EventMask::APP) {
            self.set.total_order.observe(ev);
            self.set.fifo.observe(ev);
            self.set.delivery.observe(ev);
        }
        if kind.intersects(EventMask::SWITCH) {
            self.set.liveness.observe(ev);
        }
    }
    fn interest(&self) -> EventMask {
        EventMask::APP | EventMask::SWITCH
    }
    fn name(&self) -> &'static str {
        "monitors"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deliver(at_us: u64, node: u32, sender: u32, seq: u64) -> TimedEvent {
        TimedEvent::new(at_us, node, ObsEvent::AppDeliver { sender, seq })
    }

    fn send(at_us: u64, sender: u32, seq: u64) -> TimedEvent {
        TimedEvent::new(at_us, sender, ObsEvent::AppSend { sender, seq })
    }

    fn phase(at_us: u64, node: u32, phase: SpPhase) -> TimedEvent {
        TimedEvent::new(at_us, node, ObsEvent::SwitchPhase { phase, from: 0, to: 1 })
    }

    #[test]
    fn total_order_accepts_agreement() {
        let m = TotalOrderMonitor::new();
        for n in 0..3u32 {
            m.observe(&deliver(10 + u64::from(n), n, 0, 1));
            m.observe(&deliver(20 + u64::from(n), n, 1, 1));
        }
        assert!(m.violations().is_empty());
    }

    #[test]
    fn total_order_flags_divergence_with_context() {
        let m = TotalOrderMonitor::new();
        m.observe(&deliver(10, 0, 0, 1));
        m.observe(&deliver(11, 0, 1, 1));
        m.observe(&deliver(12, 1, 0, 1));
        m.observe(&deliver(13, 1, 2, 5)); // node 1 disagrees at position 1
        let vs = m.violations();
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].kind, ViolationKind::TotalOrder);
        assert_eq!(vs[0].node, 1);
        assert_eq!(vs[0].at_us, 13);
        assert_eq!(vs[0].context, vec![deliver(11, 0, 1, 1), deliver(13, 1, 2, 5)]);
        // One violation per diverging node, not one per subsequent delivery.
        m.observe(&deliver(14, 1, 9, 9));
        assert_eq!(m.violations().len(), 1);
    }

    #[test]
    fn fifo_allows_gaps_but_not_reorder_or_dup() {
        let m = FifoMonitor::new();
        m.observe(&deliver(1, 0, 3, 1));
        m.observe(&deliver(2, 0, 3, 4)); // gap: fine
        assert!(m.violations().is_empty());
        m.observe(&deliver(3, 0, 3, 2)); // reorder
        m.observe(&deliver(4, 0, 3, 4)); // duplicate of the latest
        let vs = m.violations();
        assert_eq!(vs.len(), 2);
        assert!(vs[0].detail.contains("reordered"));
        assert!(vs[1].detail.contains("duplicate"));
        // Other senders and nodes are independent.
        m.observe(&deliver(5, 1, 3, 1));
        m.observe(&deliver(6, 0, 4, 1));
        assert_eq!(m.violations().len(), 2);
    }

    #[test]
    fn delivery_monitor_accounts_per_node() {
        let m = DeliveryMonitor::new(3);
        m.observe(&send(1, 0, 1));
        m.observe(&send(2, 1, 1));
        for n in 0..3u32 {
            m.observe(&deliver(10, n, 0, 1));
        }
        m.observe(&deliver(11, 0, 1, 1)); // (1,1) reaches only node 0
        m.observe(&deliver(12, 0, 1, 1)); // duplicate at the same node: no credit
        let vs = m.finish();
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].kind, ViolationKind::DeliveryLoss);
        assert!(vs[0].detail.contains("(1,1) delivered at 1/3"));
        assert_eq!(vs[0].context, vec![send(2, 1, 1)]);
    }

    /// Sends (1, 1) and delivers it at nodes `0..nodes`: settled.
    fn settle(m: &DeliveryMonitor, at_us: u64, nodes: u32) {
        m.observe(&send(at_us, 1, 1));
        for n in 0..nodes {
            m.observe(&deliver(at_us + 1, n, 1, 1));
        }
        assert_eq!(m.unsettled_count(), 0, "sent and delivered everywhere: forgotten");
    }

    #[test]
    fn delivery_recorded_before_its_send_still_counts() {
        // Robustness to record order: a replayed or merged trace can hand
        // a receiver's delivery over ahead of the sender's send.
        let m = DeliveryMonitor::new(2);
        m.observe(&deliver(5, 0, 1, 1));
        m.observe(&deliver(6, 1, 1, 1));
        assert!(m.finish().is_empty(), "never sent: nothing to account for");
        assert_eq!(m.sent_count(), 0);
        m.observe(&send(7, 1, 1));
        assert_eq!(m.sent_count(), 1);
        assert!(m.finish().is_empty(), "both deliveries were kept for the send");
        assert_eq!(m.unsettled_count(), 0);
        // One delivery short, the send last: still a loss, with the count.
        m.observe(&deliver(8, 0, 1, 2));
        m.observe(&send(9, 1, 2));
        let vs = m.finish();
        assert_eq!(vs.len(), 1);
        assert!(vs[0].detail.contains("(1,2) delivered at 1/2"));
    }

    #[test]
    fn duplicate_send_of_a_settled_message_is_not_a_new_message() {
        let m = DeliveryMonitor::new(3);
        settle(&m, 10, 3);
        m.observe(&send(99, 1, 1));
        assert!(m.finish().is_empty(), "a forgotten id re-sent must not read as 0/3");
        assert_eq!(m.sent_count(), 1);
        assert_eq!(m.unsettled_count(), 0);
    }

    #[test]
    fn duplicate_delivery_after_settling_opens_nothing() {
        let m = DeliveryMonitor::new(3);
        settle(&m, 10, 3);
        m.observe(&deliver(50, 2, 1, 1));
        m.observe(&deliver(51, 7, 1, 1));
        assert_eq!(m.unsettled_count(), 0, "late copies of a settled id hold no state");
        assert!(m.finish().is_empty());
        assert_eq!(m.sent_count(), 1);
    }

    #[test]
    fn a_node_outside_the_group_counts_as_a_distinct_node() {
        // `nodes` is how many distinct nodes must deliver, not an id bound.
        let m = DeliveryMonitor::new(3);
        m.observe(&send(1, 1, 1));
        m.observe(&deliver(2, 0, 1, 1));
        m.observe(&deliver(3, 9, 1, 1));
        m.observe(&deliver(4, u32::MAX, 1, 1));
        assert!(m.finish().is_empty());
        assert_eq!(m.unsettled_count(), 0);
        // A sender outside the group (and the dense table) is a sender.
        m.observe(&send(5, u32::MAX, u64::MAX));
        assert_eq!(m.finish().len(), 1);
        for n in 0..3 {
            m.observe(&deliver(6, n, u32::MAX, u64::MAX));
        }
        m.observe(&send(7, u32::MAX, u64::MAX));
        assert!(m.finish().is_empty());
        assert_eq!(m.sent_count(), 2);
    }

    #[test]
    fn sent_count_is_distinct_sends_settled_or_not() {
        let m = DeliveryMonitor::new(2);
        for seq in 1..=5u64 {
            m.observe(&send(seq, 0, seq));
            m.observe(&send(seq, 0, seq)); // duplicate while open
        }
        for seq in [1u64, 2, 4] {
            m.observe(&deliver(10, 0, 0, seq));
            m.observe(&deliver(10, 1, 0, seq));
            m.observe(&send(11, 0, seq)); // duplicate once settled
        }
        assert_eq!(m.sent_count(), 5);
        assert_eq!(m.unsettled_count(), 2);
        let lost: Vec<_> = m.finish().iter().map(|v| v.detail.clone()).collect();
        assert_eq!(
            lost,
            ["message (0,3) delivered at 0/2 nodes", "message (0,5) delivered at 0/2 nodes"]
        );
    }

    #[test]
    fn settled_ids_out_of_order_and_at_the_top_of_the_range() {
        let mut s = Settled::default();
        for seq in [7u64, 9, 8, 3, u64::MAX, u64::MAX - 1] {
            assert!(!s.contains(seq));
            s.insert(seq);
            assert!(s.contains(seq));
        }
        assert_eq!((s.base, s.low), (7, 10), "9 joined the run once 8 arrived");
        assert!(!s.contains(6) && !s.contains(10) && !s.contains(0));
        assert_eq!(s.tail.len(), 3);
    }

    #[test]
    fn liveness_bounds_the_switch_window() {
        let m = SwitchLivenessMonitor::new(100);
        m.observe(&phase(1000, 0, SpPhase::PrepareSeen));
        m.observe(&phase(1050, 0, SpPhase::Flip));
        m.observe(&phase(1060, 0, SpPhase::BufferRelease));
        assert!(m.finish().is_empty(), "within bound");
        m.observe(&phase(2000, 1, SpPhase::PrepareSeen));
        m.observe(&phase(2500, 1, SpPhase::Flip)); // 500us > 100us bound
        let vs = m.finish();
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].kind, ViolationKind::SwitchLiveness);
        assert_eq!(vs[0].node, 1);
    }

    #[test]
    fn liveness_flags_switch_that_never_flips() {
        let m = SwitchLivenessMonitor::new(1_000_000);
        m.observe(&phase(500, 2, SpPhase::PrepareSeen));
        let vs = m.finish();
        assert_eq!(vs.len(), 1);
        assert!(vs[0].detail.contains("never flipped"));
        assert_eq!(vs[0].context, vec![phase(500, 2, SpPhase::PrepareSeen)]);
    }

    #[test]
    fn liveness_accepts_a_clean_abort() {
        let m = SwitchLivenessMonitor::new(1_000_000);
        m.observe(&phase(500, 2, SpPhase::PrepareSeen));
        m.observe(&phase(900, 2, SpPhase::Aborted));
        assert!(m.finish().is_empty(), "an aborted switch is not wedged");
        // And a later retry opens a fresh window.
        m.observe(&phase(2000, 2, SpPhase::PrepareSeen));
        m.observe(&phase(2100, 2, SpPhase::Flip));
        m.observe(&phase(2110, 2, SpPhase::BufferRelease));
        assert!(m.finish().is_empty());
    }

    #[test]
    fn monitor_set_streams_through_a_tiny_ring() {
        // Ring capacity 2, but monitors see the whole stream: a violation
        // whose witnesses were long evicted is still caught, with context.
        let rec = Recorder::with_capacity(2);
        let set = MonitorSet::standard(2, 1_000_000);
        set.attach(&rec);
        if !rec.is_enabled() {
            return; // tap feature off: nothing streams, nothing to check
        }
        rec.record(1, 0, ObsEvent::AppSend { sender: 0, seq: 1 });
        rec.record(2, 0, ObsEvent::AppSend { sender: 0, seq: 2 });
        rec.record(10, 0, ObsEvent::AppDeliver { sender: 0, seq: 1 });
        rec.record(11, 0, ObsEvent::AppDeliver { sender: 0, seq: 2 });
        rec.record(12, 1, ObsEvent::AppDeliver { sender: 0, seq: 2 }); // diverges
        rec.record(13, 1, ObsEvent::AppDeliver { sender: 0, seq: 1 }); // and reorders
        let vs = set.finish();
        assert!(vs.iter().any(|v| v.kind == ViolationKind::TotalOrder));
        assert!(vs.iter().any(|v| v.kind == ViolationKind::Fifo));
        assert!(rec.overwritten() > 0, "the ring must actually have wrapped");
        // Sorted by detection time.
        assert!(vs.windows(2).all(|w| w[0].at_us <= w[1].at_us));
    }

    #[test]
    fn clean_stream_finishes_empty() {
        let set = MonitorSet::standard(2, 1_000_000);
        set.delivery().observe(&send(1, 0, 1));
        for node in 0..2u32 {
            let d = deliver(5, node, 0, 1);
            set.total_order().observe(&d);
            set.fifo().observe(&d);
            set.delivery().observe(&d);
        }
        assert!(set.finish().is_empty());
    }
}
