//! Exhaustive (bounded) checking of the meta-property matrix.
//!
//! The second candidate source for [`crate::check`]'s one judgement. Where
//! [`crate::check::check_cell`] samples generator output, this module
//! enumerates **every** well-formed trace over a small event universe and
//! yields the **full closure** of each rewrite relation. Within the bound
//! this is bounded model checking: a ✗ is a definitive counterexample, and
//! a ✓ means *no* counterexample exists among all traces of the universe —
//! the strongest evidence short of the paper's Nuprl proofs.
//!
//! A universe is a set of candidate events: one `Send` per message plus one
//! `Deliver` per (process, message) pair. Traces are all ordered
//! arrangements of distinct subsets up to a length bound.

use crate::check::{judge, rewrites, CellVerdict};
use crate::meta::{async_swap_sites, compose_disjoint, delayable_swap_sites, prefixes, MetaKind};
use crate::props::Property;
use crate::{Event, Message, ProcessId, Trace};
use std::collections::{BTreeSet, HashSet, VecDeque};

/// The candidate events over `procs` processes and the given messages:
/// each message's send, and its delivery at every process.
pub fn event_universe(procs: u16, msgs: &[Message]) -> Vec<Event> {
    let mut events = Vec::new();
    for m in msgs {
        events.push(Event::send(m.clone()));
        for p in 0..procs {
            events.push(Event::deliver(ProcessId(p), m.clone()));
        }
    }
    events
}

/// Every arrangement of distinct universe events with length `<= max_len`
/// (including the empty trace). All results are well-formed because each
/// send appears at most once.
///
/// Size grows as `sum_k P(n, k)`; keep `max_len` small (≤ 5 for a 12-event
/// universe ⇒ ~100k traces).
pub fn enumerate_traces(universe: &[Event], max_len: usize) -> Vec<Trace> {
    let n = universe.len();
    let mut out = vec![Trace::new()];
    let mut frontier: Vec<Vec<usize>> = vec![vec![]];
    for _ in 0..max_len {
        let mut next = Vec::new();
        for seq in &frontier {
            for i in 0..n {
                if !seq.contains(&i) {
                    let mut s = seq.clone();
                    s.push(i);
                    out.push(s.iter().map(|&j| universe[j].clone()).collect());
                    next.push(s);
                }
            }
        }
        frontier = next;
    }
    out
}

/// The full reflexive-transitive closure of an adjacent-swap relation,
/// explored breadth-first (capped for safety; a trace of length L has at
/// most L! permutations).
pub fn swap_closure(tr: &Trace, sites: fn(&Trace) -> Vec<usize>, cap: usize) -> Vec<Trace> {
    let mut seen: HashSet<Trace> = HashSet::new();
    let mut queue: VecDeque<Trace> = VecDeque::new();
    let mut out = Vec::new();
    seen.insert(tr.clone());
    queue.push_back(tr.clone());
    while let Some(cur) = queue.pop_front() {
        for i in sites(&cur) {
            let next = cur.swap_adjacent(i);
            if seen.insert(next.clone()) {
                out.push(next.clone());
                if out.len() >= cap {
                    return out;
                }
                queue.push_back(next);
            }
        }
    }
    out
}

/// All erasures: one per non-empty subset of the trace's messages.
fn all_erasures(tr: &Trace) -> Vec<Trace> {
    let ids: Vec<_> = tr.message_ids().into_iter().collect();
    let mut out = Vec::new();
    for mask in 1u32..(1 << ids.len().min(20)) {
        let subset: BTreeSet<_> = ids
            .iter()
            .enumerate()
            .filter(|&(i, _)| mask & (1 << i) != 0)
            .map(|(_, &id)| id)
            .collect();
        out.push(tr.erase_messages(&subset));
    }
    out
}

/// All one- and two-send extensions drawn from `extension_msgs` (fresh
/// messages not in the universe).
fn all_extensions(tr: &Trace, extension_msgs: &[Message]) -> Vec<Trace> {
    let mut out = Vec::new();
    for m in extension_msgs {
        let mut t = tr.clone();
        t.push(Event::send(m.clone()));
        out.push(t.clone());
        for m2 in extension_msgs {
            if m2.id != m.id {
                let mut t2 = t.clone();
                t2.push(Event::send(m2.clone()));
                out.push(t2);
            }
        }
    }
    out
}

/// Budget for the exhaustive search.
#[derive(Debug, Clone)]
pub struct ExhaustiveConfig {
    /// Maximum trace length enumerated.
    pub max_len: usize,
    /// Cap on each swap closure (ample for `max_len ≤ 6`).
    pub closure_cap: usize,
    /// Cap on composable pairs (pairs are enumerated in deterministic
    /// order; the cap bounds worst-case cost on large satisfying pools).
    pub max_pairs: usize,
    /// Fresh messages available to the Send-Enabled relation.
    pub extension_msgs: Vec<Message>,
}

impl Default for ExhaustiveConfig {
    fn default() -> Self {
        Self {
            max_len: 5,
            closure_cap: 1_000,
            max_pairs: 60_000,
            extension_msgs: vec![
                Message::with_tag(ProcessId(0), 900, 10),
                Message::with_tag(ProcessId(1), 901, 20),
            ],
        }
    }
}

/// Exhaustively checks one cell over all traces of `universe`: judges every
/// satisfying trace's prefixes, swap closure, extensions or erasures, or
/// the first `max_pairs` ordered pairs of them for Composable.
pub fn check_cell_exhaustive(
    prop: &dyn Property,
    meta: MetaKind,
    universe: &[Event],
    cfg: &ExhaustiveConfig,
) -> CellVerdict {
    let pool: Vec<Trace> =
        enumerate_traces(universe, cfg.max_len).into_iter().filter(|tr| prop.holds(tr)).collect();
    match meta {
        MetaKind::Safety => judge(prop, meta, rewrites(&pool, prefixes)),
        MetaKind::Asynchrony | MetaKind::Delayable => {
            let sites =
                if meta == MetaKind::Asynchrony { async_swap_sites } else { delayable_swap_sites };
            judge(prop, meta, rewrites(&pool, |below| swap_closure(below, sites, cfg.closure_cap)))
        }
        MetaKind::SendEnabled => {
            judge(prop, meta, rewrites(&pool, |below| all_extensions(below, &cfg.extension_msgs)))
        }
        MetaKind::Memoryless => judge(prop, meta, rewrites(&pool, all_erasures)),
        MetaKind::Composable => {
            let pairs = pool
                .iter()
                .flat_map(|a| pool.iter().map(move |b| (a, Some(b), compose_disjoint(a, b))));
            judge(prop, meta, pairs.take(cfg.max_pairs))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props::{NoReplay, Reliability, TotalOrder};

    fn universe() -> Vec<Event> {
        event_universe(
            2,
            &[Message::with_tag(ProcessId(0), 1, 7), Message::with_tag(ProcessId(1), 1, 7)],
        )
    }

    #[test]
    fn enumeration_counts_match_permutations() {
        // 3 events, max_len 2: 1 + 3 + 3·2 = 10 traces.
        let u = &event_universe(1, &[Message::with_tag(ProcessId(0), 1, 1)])[..2];
        let mut u = u.to_vec();
        u.push(Event::deliver(ProcessId(0), Message::with_tag(ProcessId(0), 2, 2)));
        let traces = enumerate_traces(&u, 2);
        assert_eq!(traces.len(), 10);
        assert!(traces.iter().all(Trace::is_well_formed));
    }

    #[test]
    fn closure_reaches_all_commutations() {
        // Two independent events at different processes: closure = 1 other
        // ordering.
        let a = Message::with_tag(ProcessId(0), 1, 1);
        let b = Message::with_tag(ProcessId(1), 1, 2);
        let tr = Trace::from_events(vec![Event::send(a), Event::send(b)]);
        let closure = swap_closure(&tr, async_swap_sites, 100);
        assert_eq!(closure.len(), 1);
    }

    #[test]
    fn reliability_safety_fails_exhaustively() {
        let v = check_cell_exhaustive(
            &Reliability::new([ProcessId(0), ProcessId(1)]),
            MetaKind::Safety,
            &universe(),
            &ExhaustiveConfig::default(),
        );
        assert!(!v.preserved);
    }

    #[test]
    fn total_order_asynchrony_holds_exhaustively() {
        let v = check_cell_exhaustive(
            &TotalOrder,
            MetaKind::Asynchrony,
            &universe(),
            &ExhaustiveConfig::default(),
        );
        assert!(v.preserved, "{:?}", v.counterexample);
        assert!(v.samples > 1_000);
    }

    #[test]
    fn no_replay_composable_fails_exhaustively() {
        // The universe's two messages share a body: composition replays it.
        let v = check_cell_exhaustive(
            &NoReplay,
            MetaKind::Composable,
            &universe(),
            &ExhaustiveConfig::default(),
        );
        assert!(!v.preserved);
    }
}
