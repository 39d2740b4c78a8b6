use crate::props::Property;
use crate::{MsgId, Trace};
use std::collections::HashMap;

/// **Total Order** (Table 1): processes that deliver the same two messages
/// deliver them in the same order.
///
/// The pairwise formulation makes the predicate local to each process's
/// delivery subsequence, which is why total order is preserved under the
/// asynchrony and delayable rewrites — no cross-process ordering is
/// constrained. The paper's §7 evaluates two implementations of this
/// property (a fixed sequencer and a rotating token) and switches between
/// them.
#[derive(Debug, Clone, Copy, Default)]
pub struct TotalOrder;

impl Property for TotalOrder {
    fn name(&self) -> &'static str {
        "Total Order"
    }

    fn description(&self) -> &'static str {
        "processes that deliver the same two messages deliver them in the same order"
    }

    fn holds(&self, tr: &Trace) -> bool {
        let per_process = positions(tr);
        let procs: Vec<_> = per_process.values().collect();
        // Positions are distinct within a process, so two processes agree
        // on every common pair exactly when, with the common messages laid
        // out in the first one's order, the second's positions only rise.
        let mut common: Vec<(usize, usize)> = Vec::new();
        for (i, sp) in procs.iter().enumerate() {
            for sq in &procs[i + 1..] {
                common.clear();
                common.extend(sp.iter().filter_map(|(id, &at_p)| Some((at_p, *sq.get(id)?))));
                common.sort_unstable();
                if common.windows(2).any(|w| w[0].1 > w[1].1) {
                    return false;
                }
            }
        }
        true
    }
}

/// For each process, the position of each delivered message in its local
/// delivery sequence (first delivery counts; duplicates are No-Replay's
/// concern).
fn positions(tr: &Trace) -> HashMap<crate::ProcessId, HashMap<MsgId, usize>> {
    let mut per_process: HashMap<crate::ProcessId, HashMap<MsgId, usize>> = HashMap::new();
    for e in tr.iter() {
        if let crate::Event::Deliver(p, m) = e {
            let seq = per_process.entry(*p).or_default();
            let next = seq.len();
            seq.entry(m.id).or_insert(next);
        }
    }
    per_process
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, Message, ProcessId};
    use ps_check::prelude::*;

    fn p(i: u16) -> ProcessId {
        ProcessId(i)
    }

    fn m(s: u16, seq: u64) -> Message {
        Message::with_tag(p(s), seq, 0)
    }

    /// The definition read literally — every process pair, every pair of
    /// messages both delivered — kept as the oracle for `holds`.
    fn holds_all_pairs(tr: &Trace) -> bool {
        let per_process = positions(tr);
        let procs: Vec<_> = per_process.values().collect();
        for (i, sp) in procs.iter().enumerate() {
            for sq in &procs[i + 1..] {
                let common: Vec<MsgId> =
                    sp.keys().filter(|id| sq.contains_key(id)).copied().collect();
                for (a_idx, a) in common.iter().enumerate() {
                    for b in &common[a_idx + 1..] {
                        if sp[a].cmp(&sp[b]) != sq[a].cmp(&sq[b]) {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }

    /// Four processes each deliver a subsequence of one agreed order of up
    /// to 12 messages — `draws` decides, per (process, message), a gap, a
    /// delivery, or a delivery followed by the previous message again (a
    /// duplicate, or an inversion if that one was a gap here) — and each
    /// `swaps` entry then exchanges two deliveries of one process: a
    /// planted inversion, unless it hits a duplicate or a message nobody
    /// else has.
    fn trace_from(draws: &[u8], swaps: &[(u8, u8, u8)]) -> Trace {
        let n = (draws.len() / 4).min(12);
        let mut per_proc: Vec<Vec<Message>> = vec![Vec::new(); 4];
        for (pi, seq) in per_proc.iter_mut().enumerate() {
            for k in 0..n {
                match draws[pi * n + k] % 8 {
                    0 | 1 => {}
                    2 if k > 0 => seq.extend([m(0, k as u64), m(0, k as u64 - 1)]),
                    _ => seq.push(m(0, k as u64)),
                }
            }
        }
        for &(pi, a, b) in swaps {
            let seq = &mut per_proc[usize::from(pi) % 4];
            if !seq.is_empty() {
                let len = seq.len();
                seq.swap(usize::from(a) % len, usize::from(b) % len);
            }
        }
        let sends = (0..n).map(|k| Event::send(m(0, k as u64)));
        let delivers = per_proc.into_iter().enumerate().flat_map(|(pi, seq)| {
            seq.into_iter().map(move |msg| Event::deliver(p(pi as u16), msg))
        });
        Trace::from_events(sends.chain(delivers).collect())
    }

    props! {
        #![config(cases = 256)]

        fn sorted_check_agrees_with_all_pairs(
            draws in vec_of(arb::<u8>(), 0..48),
            swaps in vec_of((arb::<u8>(), arb::<u8>(), arb::<u8>()), 0..3),
        ) {
            let tr = trace_from(&draws, &swaps);
            assert_eq!(TotalOrder.holds(&tr), holds_all_pairs(&tr));
        }
    }

    #[test]
    fn generated_traces_cover_both_verdicts() {
        assert!(TotalOrder.holds(&trace_from(&[7; 48], &[])));
        assert!(!TotalOrder.holds(&trace_from(&[7; 48], &[(0, 2, 9)])));
    }

    #[test]
    fn consistent_orders_hold() {
        let (a, b, c) = (m(0, 1), m(1, 1), m(2, 1));
        let tr = Trace::from_events(vec![
            Event::send(a.clone()),
            Event::send(b.clone()),
            Event::send(c.clone()),
            Event::deliver(p(0), a.clone()),
            Event::deliver(p(0), b.clone()),
            Event::deliver(p(1), a.clone()),
            Event::deliver(p(0), c.clone()),
            Event::deliver(p(1), b.clone()),
            Event::deliver(p(1), c.clone()),
        ]);
        assert!(TotalOrder.holds(&tr));
    }

    #[test]
    fn gaps_are_allowed() {
        // q skips message b entirely; only common pairs constrain.
        let (a, b, c) = (m(0, 1), m(1, 1), m(2, 1));
        let tr = Trace::from_events(vec![
            Event::send(a.clone()),
            Event::send(b.clone()),
            Event::send(c.clone()),
            Event::deliver(p(0), a.clone()),
            Event::deliver(p(0), b.clone()),
            Event::deliver(p(0), c.clone()),
            Event::deliver(p(1), a.clone()),
            Event::deliver(p(1), c.clone()),
        ]);
        assert!(TotalOrder.holds(&tr));
    }

    #[test]
    fn inversion_detected() {
        let (a, b) = (m(0, 1), m(1, 1));
        let tr = Trace::from_events(vec![
            Event::send(a.clone()),
            Event::send(b.clone()),
            Event::deliver(p(0), a.clone()),
            Event::deliver(p(0), b.clone()),
            Event::deliver(p(1), b.clone()),
            Event::deliver(p(1), a.clone()),
        ]);
        assert!(!TotalOrder.holds(&tr));
    }

    #[test]
    fn duplicate_delivery_uses_first_position() {
        let (a, b) = (m(0, 1), m(1, 1));
        let tr = Trace::from_events(vec![
            Event::send(a.clone()),
            Event::send(b.clone()),
            Event::deliver(p(0), a.clone()),
            Event::deliver(p(0), b.clone()),
            Event::deliver(p(0), a.clone()), // duplicate after b
            Event::deliver(p(1), a.clone()),
            Event::deliver(p(1), b.clone()),
        ]);
        assert!(TotalOrder.holds(&tr));
    }

    #[test]
    fn single_process_always_ordered() {
        let (a, b) = (m(0, 1), m(0, 2));
        let tr = Trace::from_events(vec![
            Event::send(a.clone()),
            Event::send(b.clone()),
            Event::deliver(p(0), b),
            Event::deliver(p(0), a),
        ]);
        assert!(TotalOrder.holds(&tr));
    }
}
