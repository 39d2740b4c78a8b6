//! Seeded generators of traces *satisfying* each Table-1 property.
//!
//! The preservation checker (Equation 1) needs `tr_below` traces for which
//! `P(tr_below)` holds; random traces almost never satisfy the stronger
//! properties, so each property ships a dedicated generator. Generators are
//! deliberately "tight": events that could violate a property under a
//! rewrite are generated adjacent to each other often, so ✗ cells are found
//! quickly.
//!
//! All generators draw from a tiny body alphabet (`BODY_ALPHABET`). Body
//! collisions across distinct messages are exactly what the No-Replay
//! composability counterexample requires.

use crate::{Event, Message, ProcessId, Trace};

/// The deterministic generator trace generation draws from (xoshiro256++,
/// re-exported so downstream code never names the RNG crate directly).
pub use ps_rand::Xoshiro256pp as Rng;

/// The small payload alphabet generators draw bodies from.
pub(crate) const BODY_ALPHABET: [u8; 4] = [10, 20, 30, 40];

/// A seeded source of traces satisfying some condition.
pub trait TraceGen: std::fmt::Debug {
    /// Short name for diagnostics.
    fn name(&self) -> &'static str;

    /// Produces one trace with roughly `size` events.
    fn generate(&self, rng: &mut Rng, size: usize) -> Trace;
}

fn pick(rng: &mut Rng, n: usize) -> usize {
    rng.random_range(0..n.max(1))
}

fn body(rng: &mut Rng) -> u8 {
    BODY_ALPHABET[pick(rng, BODY_ALPHABET.len())]
}

/// Deterministic seeded RNG helper for tests and benchmarks.
pub fn seeded(seed: u64) -> Rng {
    Rng::seed_from_u64(seed)
}

/// Completely random well-formed traces (sends first come, deliveries drawn
/// from already-sent messages — causally plausible, satisfying no property
/// in particular). The checker filters these by `P(below)`.
#[derive(Debug, Clone)]
pub struct UniversalGen {
    /// Number of processes events are drawn over.
    pub procs: u16,
}

impl TraceGen for UniversalGen {
    fn name(&self) -> &'static str {
        "universal"
    }

    fn generate(&self, rng: &mut Rng, size: usize) -> Trace {
        let mut tr = Trace::new();
        let mut sent: Vec<Message> = Vec::new();
        let mut next_seq = vec![1u64; usize::from(self.procs)];
        for _ in 0..size {
            let send_it = sent.is_empty() || rng.random_bool(0.4);
            if send_it {
                let s = pick(rng, usize::from(self.procs));
                let m = Message::with_tag(ProcessId(s as u16), next_seq[s], body(rng));
                next_seq[s] += 1;
                sent.push(m.clone());
                tr.push(Event::send(m));
            } else {
                let m = sent[pick(rng, sent.len())].clone();
                let p = ProcessId(pick(rng, usize::from(self.procs)) as u16);
                tr.push(Event::deliver(p, m));
            }
        }
        tr
    }
}

/// Traces in which every sent message is delivered to the whole group
/// (satisfies Reliability; delivery order is shuffled).
#[derive(Debug, Clone)]
pub(crate) struct ReliableGen {
    /// The receiver group.
    pub(crate) group: Vec<ProcessId>,
}

impl TraceGen for ReliableGen {
    fn name(&self) -> &'static str {
        "reliable"
    }

    fn generate(&self, rng: &mut Rng, size: usize) -> Trace {
        let per_msg = self.group.len() + 1;
        let n_msgs = (size / per_msg).max(1);
        let mut pending: Vec<Event> = Vec::new();
        let mut tr = Trace::new();
        for i in 0..n_msgs {
            let sender = self.group[pick(rng, self.group.len())];
            let m = Message::with_tag(sender, (i + 1) as u64, body(rng));
            tr.push(Event::send(m.clone()));
            for &p in &self.group {
                pending.push(Event::deliver(p, m.clone()));
            }
            // Flush a random amount of pending deliveries to interleave.
            while !pending.is_empty() && rng.random_bool(0.7) {
                let idx = pick(rng, pending.len());
                tr.push(pending.swap_remove(idx));
            }
        }
        for e in pending {
            tr.push(e);
        }
        tr
    }
}

/// Traces with a global total order on messages; each process delivers a
/// random subsequence of that order (satisfies Total Order).
#[derive(Debug, Clone)]
pub(crate) struct TotalOrderGen {
    /// Processes that may deliver.
    pub(crate) group: Vec<ProcessId>,
}

impl TraceGen for TotalOrderGen {
    fn name(&self) -> &'static str {
        "total-order"
    }

    fn generate(&self, rng: &mut Rng, size: usize) -> Trace {
        let n_msgs = (size / (self.group.len().max(1) + 1)).max(2);
        let msgs: Vec<Message> = (0..n_msgs)
            .map(|i| {
                let sender = self.group[pick(rng, self.group.len())];
                Message::with_tag(sender, (i + 1) as u64, body(rng))
            })
            .collect();
        let mut tr = Trace::new();
        for m in &msgs {
            tr.push(Event::send(m.clone()));
        }
        // Per-process cursor into the global order; advance cursors in
        // random interleavings, sometimes skipping a message.
        let mut cursor = vec![0usize; self.group.len()];
        loop {
            let live: Vec<usize> =
                (0..self.group.len()).filter(|&i| cursor[i] < msgs.len()).collect();
            if live.is_empty() {
                break;
            }
            let i = live[pick(rng, live.len())];
            let m = &msgs[cursor[i]];
            cursor[i] += 1;
            if rng.random_bool(0.85) {
                tr.push(Event::deliver(self.group[i], m.clone()));
            } // else: this process skips the message (gaps are allowed).
        }
        tr
    }
}

/// Traces in which only trusted processes send, and every delivery follows
/// its send (satisfies Integrity; also satisfies Confidentiality when the
/// receivers are drawn from the trusted set, controlled by
/// `confidential`).
#[derive(Debug, Clone)]
pub(crate) struct TrustedGen {
    /// The trusted processes.
    pub(crate) trusted: Vec<ProcessId>,
    /// All processes (receivers are drawn from here unless `confidential`).
    pub(crate) everyone: Vec<ProcessId>,
    /// Restrict receivers of trusted traffic to the trusted set.
    pub(crate) confidential: bool,
}

impl TraceGen for TrustedGen {
    fn name(&self) -> &'static str {
        if self.confidential {
            "confidential"
        } else {
            "trusted"
        }
    }

    fn generate(&self, rng: &mut Rng, size: usize) -> Trace {
        let mut tr = Trace::new();
        let mut sent: Vec<Message> = Vec::new();
        let mut seq = 1u64;
        let receivers: &[ProcessId] =
            if self.confidential { &self.trusted } else { &self.everyone };
        for _ in 0..size {
            if sent.is_empty() || rng.random_bool(0.4) {
                let sender = self.trusted[pick(rng, self.trusted.len())];
                let m = Message::with_tag(sender, seq, body(rng));
                seq += 1;
                sent.push(m.clone());
                tr.push(Event::send(m));
            } else {
                let m = sent[pick(rng, sent.len())].clone();
                let p = receivers[pick(rng, receivers.len())];
                tr.push(Event::deliver(p, m));
            }
        }
        tr
    }
}

/// Traces in which no process delivers the same body twice (satisfies No
/// Replay) — bodies still collide *across* generated traces, which the
/// composability check needs.
#[derive(Debug, Clone)]
pub(crate) struct NoReplayGen {
    /// Number of processes.
    pub(crate) procs: u16,
}

impl TraceGen for NoReplayGen {
    fn name(&self) -> &'static str {
        "no-replay"
    }

    fn generate(&self, rng: &mut Rng, size: usize) -> Trace {
        let mut tr = Trace::new();
        let mut seq = 1u64;
        let mut used: std::collections::HashSet<(ProcessId, u8)> = std::collections::HashSet::new();
        let mut sent: Vec<(Message, u8)> = Vec::new();
        for _ in 0..size {
            if sent.is_empty() || rng.random_bool(0.5) {
                let s = ProcessId(pick(rng, usize::from(self.procs)) as u16);
                let b = body(rng);
                let m = Message::with_tag(s, seq, b);
                seq += 1;
                sent.push((m.clone(), b));
                tr.push(Event::send(m));
            } else {
                let (m, b) = sent[pick(rng, sent.len())].clone();
                let p = ProcessId(pick(rng, usize::from(self.procs)) as u16);
                if used.insert((p, b)) {
                    tr.push(Event::deliver(p, m));
                }
            }
        }
        tr
    }
}

/// Traces in which the master always delivers first (satisfies Prioritized
/// Delivery). Master and follower deliveries are frequently adjacent —
/// exactly the window the asynchrony rewrite exploits.
#[derive(Debug, Clone)]
pub(crate) struct PriorityGen {
    /// The master process.
    pub(crate) master: ProcessId,
    /// All processes.
    pub(crate) group: Vec<ProcessId>,
}

impl TraceGen for PriorityGen {
    fn name(&self) -> &'static str {
        "prioritized"
    }

    fn generate(&self, rng: &mut Rng, size: usize) -> Trace {
        let mut tr = Trace::new();
        let n_msgs = (size / 4).max(1);
        for i in 0..n_msgs {
            let sender = self.group[pick(rng, self.group.len())];
            let m = Message::with_tag(sender, (i + 1) as u64, body(rng));
            tr.push(Event::send(m.clone()));
            tr.push(Event::deliver(self.master, m.clone()));
            for &p in &self.group {
                if p != self.master && rng.random_bool(0.7) {
                    tr.push(Event::deliver(p, m.clone()));
                }
            }
        }
        tr
    }
}

/// Traces of send → self-deliver → send chains (satisfies Amoeba). A chain
/// sometimes ends with an outstanding (undelivered) send — the pattern
/// whose concatenation breaks composability.
#[derive(Debug, Clone)]
pub(crate) struct AmoebaGen {
    /// Number of processes.
    pub(crate) procs: u16,
}

impl TraceGen for AmoebaGen {
    fn name(&self) -> &'static str {
        "amoeba"
    }

    fn generate(&self, rng: &mut Rng, size: usize) -> Trace {
        let mut tr = Trace::new();
        let mut seq = 1u64;
        for _ in 0..(size / 3).max(1) {
            let p = ProcessId(pick(rng, usize::from(self.procs)) as u16);
            let m = Message::with_tag(p, seq, body(rng));
            seq += 1;
            tr.push(Event::send(m.clone()));
            // Usually the self-delivery arrives (other deliveries too);
            // occasionally leave the send outstanding at trace end.
            if rng.random_bool(0.8) {
                tr.push(Event::deliver(p, m.clone()));
                if rng.random_bool(0.5) {
                    let q = ProcessId(pick(rng, usize::from(self.procs)) as u16);
                    tr.push(Event::deliver(q, m));
                }
            } else {
                break; // outstanding send terminates this trace
            }
        }
        tr
    }
}

/// Causally ordered traces: messages are delivered respecting potential
/// causality (a delivery is legal once all of the message's causal
/// predecessors that the process will ever deliver are delivered — here we
/// enforce the stronger, simpler discipline: all predecessors delivered
/// first). Sends pick up the sender's causal context, so chains form.
#[derive(Debug, Clone)]
pub struct CausalGen {
    /// Number of processes.
    pub procs: u16,
}

impl TraceGen for CausalGen {
    fn name(&self) -> &'static str {
        "causal"
    }

    fn generate(&self, rng: &mut Rng, size: usize) -> Trace {
        use std::collections::{BTreeSet, HashMap};
        let mut tr = Trace::new();
        let mut seq = 1u64;
        // Per-process causal context and per-message predecessor sets.
        let mut context: HashMap<ProcessId, BTreeSet<crate::MsgId>> = HashMap::new();
        let mut preds: HashMap<crate::MsgId, BTreeSet<crate::MsgId>> = HashMap::new();
        let mut sent: Vec<Message> = Vec::new();
        let mut delivered: HashMap<ProcessId, BTreeSet<crate::MsgId>> = HashMap::new();
        for _ in 0..size {
            let p = ProcessId(pick(rng, usize::from(self.procs)) as u16);
            if sent.is_empty() || rng.random_bool(0.4) {
                let m = Message::with_tag(p, seq, body(rng));
                seq += 1;
                let ctx = context.entry(p).or_default();
                preds.insert(m.id, ctx.clone());
                ctx.insert(m.id);
                sent.push(m.clone());
                tr.push(Event::send(m));
            } else {
                // Deliver a random message whose predecessors p has already
                // delivered (or will trivially satisfy: none pending).
                let dset = delivered.entry(p).or_default();
                let eligible: Vec<&Message> = sent
                    .iter()
                    .filter(|m| {
                        !dset.contains(&m.id) && preds[&m.id].iter().all(|q| dset.contains(q))
                    })
                    .collect();
                if let Some(&m) = eligible.get(pick(rng, eligible.len().max(1))) {
                    let m = m.clone();
                    dset.insert(m.id);
                    let ctx = context.entry(p).or_default();
                    ctx.extend(preds[&m.id].iter().copied());
                    ctx.insert(m.id);
                    tr.push(Event::deliver(p, m));
                }
            }
        }
        tr
    }
}

/// Virtually synchronous traces: epochs separated by view changes, with
/// joins and leaves, every current member delivering every epoch message
/// (satisfies Virtual Synchrony).
#[derive(Debug, Clone)]
pub(crate) struct VsyncGen {
    /// View 0's membership (the group).
    pub(crate) initial: Vec<ProcessId>,
}

impl TraceGen for VsyncGen {
    fn name(&self) -> &'static str {
        "vsync"
    }

    fn generate(&self, rng: &mut Rng, size: usize) -> Trace {
        let mut tr = Trace::new();
        let mut members = self.initial.clone();
        let mut view_no = 0u64;
        let mut seq = 1u64;
        let epochs = (size / 6).max(1);
        for _ in 0..epochs {
            // A couple of data messages, delivered by every member.
            for _ in 0..rng.random_range(1..3usize) {
                if members.is_empty() {
                    break;
                }
                let sender = members[pick(rng, members.len())];
                let m = Message::with_tag(sender, seq, body(rng));
                seq += 1;
                tr.push(Event::send(m.clone()));
                for &p in &members {
                    tr.push(Event::deliver(p, m.clone()));
                }
            }
            // View change: join an absent process or drop a member.
            let absent: Vec<ProcessId> = self
                .initial
                .iter()
                .copied()
                .chain([ProcessId(self.initial.len() as u16)])
                .filter(|p| !members.contains(p))
                .collect();
            let mut next = members.clone();
            if !absent.is_empty() && (members.len() <= 1 || rng.random_bool(0.5)) {
                next.push(absent[pick(rng, absent.len())]);
            } else if members.len() > 1 {
                next.remove(pick(rng, next.len()));
            }
            view_no += 1;
            let installer = members.first().copied().unwrap_or(ProcessId(0));
            let vm = Message::view_change(installer, seq, view_no, next.clone());
            seq += 1;
            tr.push(Event::send(vm.clone()));
            for &p in &next {
                tr.push(Event::deliver(p, vm.clone()));
            }
            // Old members not in the next view simply stop delivering.
            members = next;
        }
        tr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props::{
        Amoeba, Confidentiality, Integrity, NoReplay, PrioritizedDelivery, Property, Reliability,
        TotalOrder, VirtualSynchrony,
    };

    fn group(n: u16) -> Vec<ProcessId> {
        (0..n).map(ProcessId).collect()
    }

    /// Every generator must actually produce traces satisfying its property.
    fn assert_satisfies(g: &dyn TraceGen, p: &dyn Property, seeds: u64) {
        for seed in 0..seeds {
            let mut rng = seeded(seed);
            for size in [4usize, 12, 30] {
                let tr = g.generate(&mut rng, size);
                assert!(tr.is_well_formed(), "{} produced ill-formed trace {tr}", g.name());
                assert!(p.holds(&tr), "{} produced a trace violating {}: {tr}", g.name(), p.name());
            }
        }
    }

    #[test]
    fn reliable_gen_satisfies_reliability() {
        let g = ReliableGen { group: group(3) };
        assert_satisfies(&g, &Reliability::new(group(3)), 30);
    }

    #[test]
    fn total_order_gen_satisfies_total_order() {
        let g = TotalOrderGen { group: group(3) };
        assert_satisfies(&g, &TotalOrder, 30);
    }

    #[test]
    fn trusted_gen_satisfies_integrity() {
        let trusted = vec![ProcessId(0), ProcessId(2)];
        let g = TrustedGen { trusted: trusted.clone(), everyone: group(4), confidential: false };
        assert_satisfies(&g, &Integrity::new(trusted), 30);
    }

    #[test]
    fn confidential_gen_satisfies_confidentiality() {
        let trusted = vec![ProcessId(0), ProcessId(2)];
        let g = TrustedGen { trusted: trusted.clone(), everyone: group(4), confidential: true };
        assert_satisfies(&g, &Confidentiality::new(trusted), 30);
    }

    #[test]
    fn no_replay_gen_satisfies_no_replay() {
        let g = NoReplayGen { procs: 3 };
        assert_satisfies(&g, &NoReplay, 30);
    }

    #[test]
    fn priority_gen_satisfies_prioritized_delivery() {
        let g = PriorityGen { master: ProcessId(0), group: group(3) };
        assert_satisfies(&g, &PrioritizedDelivery::new(ProcessId(0)), 30);
    }

    #[test]
    fn amoeba_gen_satisfies_amoeba() {
        let g = AmoebaGen { procs: 3 };
        assert_satisfies(&g, &Amoeba, 30);
    }

    #[test]
    fn vsync_gen_satisfies_virtual_synchrony() {
        let g = VsyncGen { initial: group(3) };
        assert_satisfies(&g, &VirtualSynchrony::new(group(3)), 30);
    }

    #[test]
    fn universal_gen_is_well_formed_and_varied() {
        let g = UniversalGen { procs: 3 };
        let mut rng = seeded(1);
        let a = g.generate(&mut rng, 20);
        let b = g.generate(&mut rng, 20);
        assert!(a.is_well_formed() && b.is_well_formed());
        assert_ne!(a, b);
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let g = ReliableGen { group: group(3) };
        let a = g.generate(&mut seeded(7), 20);
        let b = g.generate(&mut seeded(7), 20);
        assert_eq!(a, b);
    }
}
