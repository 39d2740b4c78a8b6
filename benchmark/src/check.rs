//! Correctness of one rep's output, counted into `failed`.
//!
//! `ps_trace::props::TotalOrder` compares every pair of messages at every
//! pair of processes — fine for the paper's small traces, hours on a
//! 12 000-multicast rep. So the full trace is judged by a linear check
//! written here (every member delivers every scheduled message exactly
//! once, all in one order, each sender's in send order), and the library
//! property cross-examines a bounded prefix of the same trace.

use ps_trace::props::{Property, TotalOrder};
use ps_trace::{Event, MsgId, ProcessId, Trace};
use std::collections::{BTreeMap, BTreeSet};

/// Messages whose events are handed to `ps_trace::props::TotalOrder`.
const PROPERTY_PREFIX: usize = 128;

/// What a rep got wrong. `failed == 0` is a correct rep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Verdict {
    /// (message, member) deliveries the schedule calls for.
    pub attempted: u64,
    /// Missing or surplus deliveries, ordering and FIFO violations, and
    /// whatever the caller adds (monitor violations, unfinished switches).
    pub failed: u64,
    /// One line per kind of failure found.
    pub reasons: Vec<String>,
    /// Scheduled messages every member delivered.
    pub fully_delivered: u64,
    /// Trace events inspected.
    pub events: u64,
}

impl Verdict {
    /// Counts `count` failures of one kind (no-op for 0).
    pub fn fail(&mut self, count: u64, what: &str) {
        if count > 0 {
            self.failed += count;
            self.reasons.push(format!("{what}: {count}"));
        }
    }
}

/// Judges the application trace of a rep in which `scheduled` multicasts
/// were due in a group of `n`.
pub fn check_trace(trace: &Trace, n: u16, scheduled: usize) -> Verdict {
    let mut v = Verdict { attempted: scheduled as u64 * u64::from(n), ..Verdict::default() };
    let mut sent: BTreeSet<MsgId> = BTreeSet::new();
    let mut delivered: BTreeMap<ProcessId, Vec<MsgId>> = BTreeMap::new();
    for ev in trace.iter() {
        v.events += 1;
        match ev {
            Event::Send(m) => {
                sent.insert(m.id);
            }
            Event::Deliver(p, m) => delivered.entry(*p).or_default().push(m.id),
        }
    }
    v.fail((scheduled as u64).abs_diff(sent.len() as u64), "scheduled sends that never fired");

    // Exactly once, everywhere.
    let mut reached: BTreeMap<MsgId, u32> = BTreeMap::new();
    let mut surplus = 0u64;
    for seq in delivered.values() {
        let mut seen = BTreeSet::new();
        for id in seq {
            if sent.contains(id) && seen.insert(*id) {
                *reached.entry(*id).or_default() += 1;
            } else {
                surplus += 1;
            }
        }
    }
    let observed: u64 = reached.values().map(|&c| u64::from(c)).sum();
    v.fully_delivered = reached.values().filter(|&&c| c == u32::from(n)).count() as u64;
    v.fail(v.attempted.saturating_sub(observed), "deliveries withheld");
    v.fail(surplus, "duplicate or unsent deliveries");

    // One order: rank messages by the first member's delivery sequence; at
    // every other member the ranks of the messages both delivered must
    // ascend. Each descent is one pair delivered in opposite orders.
    let mut members = delivered.values();
    if let Some(reference) = members.next() {
        let rank: BTreeMap<MsgId, usize> =
            reference.iter().enumerate().map(|(i, id)| (*id, i)).collect();
        let mut descents = 0u64;
        for seq in members {
            let ranks: Vec<usize> = seq.iter().filter_map(|id| rank.get(id).copied()).collect();
            descents += ranks.windows(2).filter(|w| w[0] > w[1]).count() as u64;
        }
        v.fail(descents, "total-order violations");
    }

    // Per-sender FIFO: a sender's sequence numbers ascend at each member.
    let mut fifo = 0u64;
    for seq in delivered.values() {
        let mut last: BTreeMap<ProcessId, u64> = BTreeMap::new();
        for id in seq {
            if last.insert(id.sender, id.seq).is_some_and(|prev| prev >= id.seq) {
                fifo += 1;
            }
        }
    }
    v.fail(fifo, "per-sender FIFO violations");

    // The library's own (quadratic) property on a prefix.
    let prefix: BTreeSet<MsgId> = trace
        .iter()
        .filter_map(|e| if let Event::Send(m) = e { Some(m.id) } else { None })
        .take(PROPERTY_PREFIX)
        .collect();
    let sample: Vec<Event> =
        trace.iter().filter(|e| prefix.contains(&e.message().id)).cloned().collect();
    if !TotalOrder.holds(&Trace::from_events(sample)) {
        v.fail(1, "ps_trace::props::TotalOrder on the trace prefix");
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_trace::Message;

    fn clean(n: u16, msgs: u64) -> Vec<Event> {
        let mut evs = Vec::new();
        for seq in 1..=msgs {
            for sender in 0..2u16 {
                let m = Message::with_tag(ProcessId(sender), seq, 0);
                evs.push(Event::send(m.clone()));
                evs.extend((0..n).map(|p| Event::deliver(ProcessId(p), m.clone())));
            }
        }
        evs
    }

    #[test]
    fn a_clean_trace_passes() {
        let v = check_trace(&Trace::from_events(clean(3, 5)), 3, 10);
        assert_eq!((v.attempted, v.failed, v.fully_delivered), (30, 0, 10), "{:?}", v.reasons);
        assert_eq!(v.events, 40);
    }

    #[test]
    fn a_withheld_delivery_is_counted() {
        let mut evs = clean(3, 5);
        let victim = evs.iter().rposition(Event::is_deliver).unwrap();
        evs.remove(victim);
        let v = check_trace(&Trace::from_events(evs), 3, 10);
        assert_eq!(v.failed, 1, "{:?}", v.reasons);
        assert_eq!(v.fully_delivered, 9);
        assert!(v.reasons[0].starts_with("deliveries withheld"));
    }

    #[test]
    fn a_swapped_pair_breaks_total_order_and_a_duplicate_is_surplus() {
        let mut evs = clean(2, 2);
        // Process 1 delivers (p0,1) and (p1,1) in the opposite order: the
        // two deliveries sit at indices 2 and 5.
        evs.swap(2, 5);
        let v = check_trace(&Trace::from_events(evs.clone()), 2, 4);
        assert!(v.reasons.iter().any(|r| r.starts_with("total-order")), "{:?}", v.reasons);
        assert!(v.reasons.iter().any(|r| r.starts_with("ps_trace")), "{:?}", v.reasons);
        let dup = evs[1].clone();
        evs.push(dup);
        assert!(check_trace(&Trace::from_events(evs), 2, 4)
            .reasons
            .iter()
            .any(|r| r.starts_with("duplicate")));
    }

    #[test]
    fn a_sender_overtaking_itself_breaks_fifo() {
        let m1 = Message::with_tag(ProcessId(0), 1, 0);
        let m2 = Message::with_tag(ProcessId(0), 2, 0);
        let evs = vec![
            Event::send(m1.clone()),
            Event::send(m2.clone()),
            Event::deliver(ProcessId(0), m2),
            Event::deliver(ProcessId(0), m1),
        ];
        let v = check_trace(&Trace::from_events(evs), 1, 2);
        assert_eq!(v.reasons, vec!["per-sender FIFO violations: 1".to_owned()]);
    }
}
