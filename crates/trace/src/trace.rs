use crate::{Event, Message, MsgId, ProcessId};
use std::collections::BTreeSet;
use std::fmt;

/// An ordered sequence of [`Event`]s — the paper's central object (§3).
///
/// A trace is *well-formed* when it contains no duplicate `Send` events;
/// constructors uphold this in debug builds and [`Trace::is_well_formed`]
/// checks it explicitly (the meta-property rewrite relations are tested to
/// preserve it).
///
/// # Examples
///
/// ```
/// use ps_trace::{Event, Message, ProcessId, Trace};
///
/// let m = Message::with_tag(ProcessId(0), 1, 9);
/// let mut tr = Trace::new();
/// tr.push(Event::send(m.clone()));
/// tr.push(Event::deliver(ProcessId(1), m.clone()));
/// assert_eq!(tr.len(), 2);
/// assert_eq!(tr.deliveries_of(m.id).count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    events: Vec<Event>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self { events: Vec::new() }
    }

    /// Creates a trace from a ready-made event sequence.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the sequence contains duplicate sends.
    pub fn from_events(events: Vec<Event>) -> Self {
        let tr = Self { events };
        debug_assert!(tr.is_well_formed(), "duplicate Send events in trace");
        tr
    }

    /// Appends an event.
    pub fn push(&mut self, ev: Event) {
        self.events.push(ev);
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if the trace has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The underlying events in order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Iterates over events in order.
    pub fn iter(&self) -> std::slice::Iter<'_, Event> {
        self.events.iter()
    }

    /// True when no message is sent twice (the paper's well-formedness
    /// condition on traces).
    pub fn is_well_formed(&self) -> bool {
        let mut seen = BTreeSet::new();
        self.events.iter().filter(|e| e.is_send()).all(|e| seen.insert(e.message().id))
    }

    /// The prefix consisting of the first `n` events.
    pub fn prefix(&self, n: usize) -> Trace {
        Trace { events: self.events[..n.min(self.events.len())].to_vec() }
    }

    /// Concatenates two traces (used by the Composable relation).
    pub fn concat(&self, other: &Trace) -> Trace {
        let mut events = self.events.clone();
        events.extend(other.events.iter().cloned());
        Trace { events }
    }

    /// All processes that appear in the trace (as sender or deliverer).
    pub fn processes(&self) -> BTreeSet<ProcessId> {
        self.events.iter().map(Event::process).collect()
    }

    /// Identities of all messages sent in the trace.
    pub fn sent_ids(&self) -> BTreeSet<MsgId> {
        self.events.iter().filter(|e| e.is_send()).map(|e| e.message().id).collect()
    }

    /// Identities of every message that appears in any event.
    pub fn message_ids(&self) -> BTreeSet<MsgId> {
        self.events.iter().map(|e| e.message().id).collect()
    }

    /// All deliveries of message `id`, in trace order.
    pub fn deliveries_of(&self, id: MsgId) -> impl Iterator<Item = ProcessId> + '_ {
        self.events.iter().filter_map(move |e| match e {
            Event::Deliver(p, m) if m.id == id => Some(*p),
            _ => None,
        })
    }

    /// The subsequence of messages delivered by process `p`, in order.
    pub fn delivered_by(&self, p: ProcessId) -> Vec<&Message> {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::Deliver(q, m) if *q == p => Some(m),
                _ => None,
            })
            .collect()
    }

    /// Removes every event pertaining to any message in `ids` (the
    /// Memoryless relation's erasure).
    pub fn erase_messages(&self, ids: &BTreeSet<MsgId>) -> Trace {
        Trace {
            events: self
                .events
                .iter()
                .filter(|e| !ids.contains(&e.message().id))
                .cloned()
                .collect(),
        }
    }

    /// Swaps events `i` and `i + 1`, returning the rewritten trace.
    ///
    /// # Panics
    ///
    /// Panics if `i + 1` is out of bounds.
    pub fn swap_adjacent(&self, i: usize) -> Trace {
        let mut events = self.events.clone();
        events.swap(i, i + 1);
        Trace { events }
    }

    /// True if swapping events `i` and `i+1` would move a delivery of some
    /// message before that message's send — the causal inversion the
    /// rewrite relations must never perform.
    pub fn swap_inverts_causality(&self, i: usize) -> bool {
        match (&self.events[i], &self.events[i + 1]) {
            (Event::Send(m), Event::Deliver(_, m2)) => m.id == m2.id,
            _ => false,
        }
    }
}

impl fmt::Display for Trace {
    /// Renders as `[S(p0#1) D(p1:p0#1) …]` — the form counterexamples are
    /// printed in.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "]")
    }
}

impl FromIterator<Event> for Trace {
    fn from_iter<I: IntoIterator<Item = Event>>(iter: I) -> Self {
        Trace { events: iter.into_iter().collect() }
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

/// Convenience constructors for tests and generators.
impl Trace {
    /// Builds a trace in which each listed message is sent and then
    /// delivered to every process in `group`, message by message.
    pub fn broadcast_all(group: &[ProcessId], msgs: &[Message]) -> Trace {
        let mut tr = Trace::new();
        for m in msgs {
            tr.push(Event::send(m.clone()));
            for &p in group {
                tr.push(Event::deliver(p, m.clone()));
            }
        }
        tr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u16) -> ProcessId {
        ProcessId(i)
    }

    fn msg(s: u16, seq: u64) -> Message {
        Message::with_tag(p(s), seq, (s as u8) ^ (seq as u8))
    }

    fn sample() -> Trace {
        let a = msg(0, 1);
        let b = msg(1, 1);
        Trace::from_events(vec![
            Event::send(a.clone()),
            Event::deliver(p(0), a.clone()),
            Event::send(b.clone()),
            Event::deliver(p(1), a.clone()),
            Event::deliver(p(0), b.clone()),
            Event::deliver(p(1), b.clone()),
        ])
    }

    #[test]
    fn well_formedness_rejects_duplicate_sends() {
        let a = msg(0, 1);
        let tr = Trace { events: vec![Event::send(a.clone()), Event::send(a)] };
        assert!(!tr.is_well_formed());
        assert!(sample().is_well_formed());
    }

    #[test]
    fn prefix_truncates() {
        let tr = sample();
        assert_eq!(tr.prefix(2).len(), 2);
        assert_eq!(tr.prefix(100).len(), tr.len());
        assert!(tr.prefix(0).is_empty());
    }

    #[test]
    fn concat_appends() {
        let tr = sample();
        let c = tr.concat(&tr.prefix(0));
        assert_eq!(c, tr);
        let d = tr.prefix(1).concat(&tr.prefix(1));
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn queries() {
        let tr = sample();
        assert_eq!(tr.processes().len(), 2);
        assert_eq!(tr.sent_ids().len(), 2);
        let a_id = MsgId::new(p(0), 1);
        assert_eq!(tr.deliveries_of(a_id).collect::<Vec<_>>(), vec![p(0), p(1)]);
        assert_eq!(tr.delivered_by(p(0)).len(), 2);
    }

    #[test]
    fn erase_messages_removes_all_events_of_message() {
        let tr = sample();
        let mut ids = BTreeSet::new();
        ids.insert(MsgId::new(p(0), 1));
        let erased = tr.erase_messages(&ids);
        assert_eq!(erased.len(), 3);
        assert!(erased.iter().all(|e| e.message().id != MsgId::new(p(0), 1)));
    }

    #[test]
    fn swap_detects_causal_inversion() {
        let tr = sample();
        // Index 0: Send(a), index 1: Deliver(p0:a) → inversion.
        assert!(tr.swap_inverts_causality(0));
        // Index 2: Send(b), index 3: Deliver(p1:a) → different messages, fine.
        assert!(!tr.swap_inverts_causality(2));
        let swapped = tr.swap_adjacent(2);
        assert_eq!(swapped.events()[2], tr.events()[3]);
        assert_eq!(swapped.events()[3], tr.events()[2]);
    }

    #[test]
    fn broadcast_all_builder() {
        let group = [p(0), p(1), p(2)];
        let msgs = [msg(0, 1), msg(1, 1)];
        let tr = Trace::broadcast_all(&group, &msgs);
        assert_eq!(tr.len(), 2 * (1 + 3));
        assert!(tr.is_well_formed());
    }

    #[test]
    fn display_shows_events() {
        let tr = sample().prefix(2);
        assert_eq!(tr.to_string(), "[S(p0#1) D(p0:p0#1)]");
    }
}
