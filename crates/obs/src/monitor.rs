//! Streaming property monitors: online checks over the live event stream.
//!
//! A [`Recorder`] feeds the attached [`MonitorSet`] *every* app and switch
//! event at record time — unlike post-hoc trace analysis, the set is
//! immune to ring wrap-around. The set is a clonable handle sharing one
//! state behind one lock: attach one clone, keep another to read
//! [`Violation`]s after the run.
//!
//! It runs the four checks of the properties the paper's switching layer
//! must preserve (see DESIGN.md §"Monitors"):
//!
//! * total order — all nodes deliver the same application message
//!   sequence (prefix agreement, checked as deliveries stream in);
//! * per-sender FIFO — per (node, sender), delivered sequence numbers are
//!   strictly increasing (no reorder, no duplicate; gaps are loss, which
//!   is delivery accounting's business);
//! * delivery accounting — at the end of the run, every sent message was
//!   delivered at every node;
//! * switch liveness — every switch a node starts flips or aborts, and
//!   each of its phases comes within a configured bound.
//!
//! A [`Violation`] carries the offending events as context, so a report
//! can show *which* deliveries disagreed, not just that they did.

use crate::event::{ObsEvent, SpPhase, TimedEvent};
use crate::ids::IdTable;
use crate::recorder::Recorder;
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

// ---- total order -----------------------------------------------------------

/// Checks total-order agreement across nodes as deliveries stream in.
///
/// The first node to reach delivery position `k` defines the canonical
/// `k`-th message; any node later delivering a *different* message at its
/// own position `k` has diverged. This detects both reorderings and
/// holes, at the earliest instant the disagreement is observable.
#[derive(Default)]
struct TotalOrder {
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

impl TotalOrder {
    fn observe(&mut self, ev: &TimedEvent) {
        let ObsEvent::AppDeliver { sender, seq } = ev.ev else { return };
        if self.diverged.contains(&ev.node) {
            return;
        }
        let cursor = self.cursor.slot(ev.node).get_or_insert(0);
        let k = *cursor;
        *cursor += 1;
        if k == self.canonical.len() {
            self.canonical.push((sender, seq));
            self.canonical_ev.push(*ev);
        } else if self.canonical[k] != (sender, seq) {
            let (want_sender, want_seq) = self.canonical[k];
            let witness = self.canonical_ev[k];
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
            self.violations.push(v);
            self.diverged.push(ev.node);
        }
    }
}

// ---- per-sender FIFO -------------------------------------------------------

/// Checks per-sender FIFO at every node: a node must deliver each sender's
/// messages with strictly increasing sequence numbers. Gaps are allowed
/// (that is loss, [`Delivery`]'s domain); going backwards or repeating a
/// seq is a violation.
#[derive(Default)]
struct Fifo {
    /// Highest delivered seq and its event, per node, per sender.
    last: IdTable<IdTable<Option<(u64, TimedEvent)>>>,
    violations: Vec<Violation>,
}

impl Fifo {
    fn observe(&mut self, ev: &TimedEvent) {
        let ObsEvent::AppDeliver { sender, seq } = ev.ev else { return };
        let last = self.last.slot(ev.node).slot(sender);
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
                self.violations.push(v);
            }
            _ => *last = Some((seq, *ev)),
        }
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
    /// check does not assume record order, since whatever feeds the set
    /// — a replay of a trace file, a merge of several hosts' logs — need
    /// not hand a send over ahead of its deliveries.
    send: Option<TimedEvent>,
    /// The distinct nodes that delivered it, in arrival order.
    nodes: Vec<u32>,
}

/// Accounts deliveries against sends: at [`Delivery::finish`], every
/// sent message must have been delivered at all `nodes` group members
/// (total-order stacks self-deliver, so the sender counts too).
///
/// State is held for what is unsettled, not for the run: a message that
/// has been sent and delivered at `nodes` distinct nodes is forgotten,
/// except that its id stays recognisable — a late duplicate send or
/// delivery of it changes nothing, as it never did.
struct Delivery {
    nodes: u32,
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

impl Delivery {
    /// Expects each message at `nodes` distinct nodes.
    fn new(nodes: u32) -> Self {
        Self {
            nodes,
            open: BTreeMap::new(),
            settled: IdTable::default(),
            sent: 0,
            spare: Vec::new(),
        }
    }

    fn observe(&mut self, ev: &TimedEvent) {
        let (sender, seq, is_send) = match ev.ev {
            ObsEvent::AppSend { sender, seq } => (sender, seq, true),
            ObsEvent::AppDeliver { sender, seq } => (sender, seq, false),
            _ => return,
        };
        let nodes = self.nodes as usize;
        let Some(m) = self.unsettled(sender, seq) else { return };
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
        let settled = m.send.is_some() && m.nodes.len() >= nodes;
        self.sent += usize::from(is_send);
        if settled {
            self.retire(sender, seq);
        }
    }

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

    /// End-of-run check: one violation per message missing a delivery.
    fn finish(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        for (&(sender, seq), m) in &self.open {
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

// ---- switch liveness -------------------------------------------------------

struct OpenSwitch {
    prepare: TimedEvent,
    flipped: bool,
}

/// Checks switch liveness. Once a node records `prepare_seen`, each of its
/// `drain_complete`, `flip` and `buffer_release` must follow within
/// `bound_us`: a later one is a violation when it is recorded. At
/// [`Liveness::finish`], a switch that entered `prepare_seen` and neither
/// flipped nor aborted is a violation. A switch that flipped but never
/// released its buffer is not reported, because it cannot happen: the
/// switching layer records `flip` and `buffer_release` in one handler
/// call (`try_flip` in ps-core's `switch.rs`), so no crash or run end
/// falls between them.
struct Liveness {
    bound_us: u64,
    open: BTreeMap<u32, OpenSwitch>,
    violations: Vec<Violation>,
}

impl Liveness {
    /// Bounds each phase at `bound_us` microseconds after `prepare_seen`.
    fn new(bound_us: u64) -> Self {
        Self { bound_us, open: BTreeMap::new(), violations: Vec::new() }
    }

    fn observe(&mut self, ev: &TimedEvent) {
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
                if phase == SpPhase::BufferRelease {
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

    /// End-of-run check: the phases that overran the bound, then the
    /// switches that never flipped.
    fn finish(&self) -> Vec<Violation> {
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

// ---- the set ---------------------------------------------------------------

/// The four checks' state, behind the set's one lock.
struct Checks {
    total_order: TotalOrder,
    fifo: Fifo,
    delivery: Delivery,
    liveness: Liveness,
}

/// The standard monitors: total order, FIFO, delivery accounting, and
/// switch liveness, attached and read as one unit. Clones share one
/// state; the recorder feeds the attached set directly, so a recorded
/// app or switch event costs one match and one lock, any other event one
/// match.
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
    checks: Arc<Mutex<Checks>>,
}

impl MonitorSet {
    /// The standard monitors for a group of `nodes`, with a switch-liveness
    /// bound of `liveness_bound_us` microseconds.
    pub fn standard(nodes: u32, liveness_bound_us: u64) -> Self {
        let checks = Checks {
            total_order: TotalOrder::default(),
            fifo: Fifo::default(),
            delivery: Delivery::new(nodes),
            liveness: Liveness::new(liveness_bound_us),
        };
        Self { checks: Arc::new(Mutex::new(checks)) }
    }

    fn lock(&self) -> MutexGuard<'_, Checks> {
        self.checks.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Has `rec` feed a clone of the set (it shares state with `self`)
    /// every `AppSend`, `AppDeliver` and `SwitchPhase` it records. A
    /// disabled recorder feeds it nothing.
    ///
    /// # Panics
    ///
    /// If `rec` already feeds a set: one of the two would stop being fed
    /// and report a clean run.
    pub fn attach(&self, rec: &Recorder) {
        rec.feed(self.clone());
    }

    /// Runs the four checks on one event.
    pub(crate) fn observe(&self, ev: &TimedEvent) {
        let mut c = self.lock();
        c.total_order.observe(ev);
        c.fifo.observe(ev);
        c.delivery.observe(ev);
        c.liveness.observe(ev);
    }

    /// Distinct messages sent so far.
    pub fn sent_count(&self) -> usize {
        self.lock().delivery.sent
    }

    /// Messages sent or delivered whose delivery verdict is still open —
    /// what delivery accounting holds state for.
    pub fn unsettled_count(&self) -> usize {
        self.lock().delivery.open.len()
    }

    /// Runs the end-of-run checks and returns all violations, sorted by
    /// detection time (then node, then kind) — deterministic for a
    /// deterministic event stream.
    pub fn finish(&self) -> Vec<Violation> {
        let c = self.lock();
        let mut out = c.total_order.violations.clone();
        out.extend(c.fifo.violations.iter().cloned());
        out.extend(c.delivery.finish());
        out.extend(c.liveness.finish());
        out.sort_by_key(|v| (v.at_us, v.node, v.kind));
        out
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
        let mut m = TotalOrder::default();
        for n in 0..3u32 {
            m.observe(&deliver(10 + u64::from(n), n, 0, 1));
            m.observe(&deliver(20 + u64::from(n), n, 1, 1));
        }
        assert!(m.violations.is_empty());
    }

    #[test]
    fn total_order_flags_divergence_with_context() {
        let mut m = TotalOrder::default();
        m.observe(&deliver(10, 0, 0, 1));
        m.observe(&deliver(11, 0, 1, 1));
        m.observe(&deliver(12, 1, 0, 1));
        m.observe(&deliver(13, 1, 2, 5)); // node 1 disagrees at position 1
        let vs = &m.violations;
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].kind, ViolationKind::TotalOrder);
        assert_eq!(vs[0].node, 1);
        assert_eq!(vs[0].at_us, 13);
        assert_eq!(vs[0].context, vec![deliver(11, 0, 1, 1), deliver(13, 1, 2, 5)]);
        // One violation per diverging node, not one per subsequent delivery.
        m.observe(&deliver(14, 1, 9, 9));
        assert_eq!(m.violations.len(), 1);
    }

    #[test]
    fn fifo_allows_gaps_but_not_reorder_or_dup() {
        let mut m = Fifo::default();
        m.observe(&deliver(1, 0, 3, 1));
        m.observe(&deliver(2, 0, 3, 4)); // gap: fine
        assert!(m.violations.is_empty());
        m.observe(&deliver(3, 0, 3, 2)); // reorder
        m.observe(&deliver(4, 0, 3, 4)); // duplicate of the latest
        let vs = &m.violations;
        assert_eq!(vs.len(), 2);
        assert!(vs[0].detail.contains("reordered"));
        assert!(vs[1].detail.contains("duplicate"));
        // Other senders and nodes are independent.
        m.observe(&deliver(5, 1, 3, 1));
        m.observe(&deliver(6, 0, 4, 1));
        assert_eq!(m.violations.len(), 2);
    }

    #[test]
    fn delivery_monitor_accounts_per_node() {
        let mut m = Delivery::new(3);
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
    fn settle(m: &mut Delivery, at_us: u64, nodes: u32) {
        m.observe(&send(at_us, 1, 1));
        for n in 0..nodes {
            m.observe(&deliver(at_us + 1, n, 1, 1));
        }
        assert_eq!(m.open.len(), 0, "sent and delivered everywhere: forgotten");
    }

    #[test]
    fn delivery_recorded_before_its_send_still_counts() {
        // Robustness to record order: a replayed or merged trace can hand
        // a receiver's delivery over ahead of the sender's send.
        let mut m = Delivery::new(2);
        m.observe(&deliver(5, 0, 1, 1));
        m.observe(&deliver(6, 1, 1, 1));
        assert!(m.finish().is_empty(), "never sent: nothing to account for");
        assert_eq!(m.sent, 0);
        m.observe(&send(7, 1, 1));
        assert_eq!(m.sent, 1);
        assert!(m.finish().is_empty(), "both deliveries were kept for the send");
        assert_eq!(m.open.len(), 0);
        // One delivery short, the send last: still a loss, with the count.
        m.observe(&deliver(8, 0, 1, 2));
        m.observe(&send(9, 1, 2));
        let vs = m.finish();
        assert_eq!(vs.len(), 1);
        assert!(vs[0].detail.contains("(1,2) delivered at 1/2"));
    }

    #[test]
    fn duplicate_send_of_a_settled_message_is_not_a_new_message() {
        let mut m = Delivery::new(3);
        settle(&mut m, 10, 3);
        m.observe(&send(99, 1, 1));
        assert!(m.finish().is_empty(), "a forgotten id re-sent must not read as 0/3");
        assert_eq!(m.sent, 1);
        assert_eq!(m.open.len(), 0);
    }

    #[test]
    fn duplicate_delivery_after_settling_opens_nothing() {
        let mut m = Delivery::new(3);
        settle(&mut m, 10, 3);
        m.observe(&deliver(50, 2, 1, 1));
        m.observe(&deliver(51, 7, 1, 1));
        assert_eq!(m.open.len(), 0, "late copies of a settled id hold no state");
        assert!(m.finish().is_empty());
        assert_eq!(m.sent, 1);
    }

    #[test]
    fn a_node_outside_the_group_counts_as_a_distinct_node() {
        // `nodes` is how many distinct nodes must deliver, not an id bound.
        let mut m = Delivery::new(3);
        m.observe(&send(1, 1, 1));
        m.observe(&deliver(2, 0, 1, 1));
        m.observe(&deliver(3, 9, 1, 1));
        m.observe(&deliver(4, u32::MAX, 1, 1));
        assert!(m.finish().is_empty());
        assert_eq!(m.open.len(), 0);
        // A sender outside the group (and the dense table) is a sender.
        m.observe(&send(5, u32::MAX, u64::MAX));
        assert_eq!(m.finish().len(), 1);
        for n in 0..3 {
            m.observe(&deliver(6, n, u32::MAX, u64::MAX));
        }
        m.observe(&send(7, u32::MAX, u64::MAX));
        assert!(m.finish().is_empty());
        assert_eq!(m.sent, 2);
    }

    #[test]
    fn sent_count_is_distinct_sends_settled_or_not() {
        let mut m = Delivery::new(2);
        for seq in 1..=5u64 {
            m.observe(&send(seq, 0, seq));
            m.observe(&send(seq, 0, seq)); // duplicate while open
        }
        for seq in [1u64, 2, 4] {
            m.observe(&deliver(10, 0, 0, seq));
            m.observe(&deliver(10, 1, 0, seq));
            m.observe(&send(11, 0, seq)); // duplicate once settled
        }
        assert_eq!(m.sent, 5);
        assert_eq!(m.open.len(), 2);
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
        let mut m = Liveness::new(100);
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
        let mut m = Liveness::new(1_000_000);
        m.observe(&phase(500, 2, SpPhase::PrepareSeen));
        let vs = m.finish();
        assert_eq!(vs.len(), 1);
        assert!(vs[0].detail.contains("never flipped"));
        assert_eq!(vs[0].context, vec![phase(500, 2, SpPhase::PrepareSeen)]);
    }

    #[test]
    fn liveness_accepts_a_clean_abort() {
        let mut m = Liveness::new(1_000_000);
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
        set.observe(&send(1, 0, 1));
        for node in 0..2u32 {
            set.observe(&deliver(5, node, 0, 1));
        }
        assert!(set.finish().is_empty());
    }

    #[test]
    #[should_panic(expected = "already feeds a MonitorSet")]
    fn a_recorder_feeds_one_set() {
        let rec = Recorder::with_capacity(8);
        MonitorSet::standard(2, 1_000).attach(&rec);
        MonitorSet::standard(2, 1_000).attach(&rec);
    }
}
