//! The post-mortem flight recorder: a bounded, self-describing causal
//! slice captured when something goes wrong.
//!
//! When a monitor reports a [`Violation`] — or a chaos/campaign run
//! wedges — the host calls [`PostmortemBundle::capture`] with the
//! recorder snapshot, the witness events, and the sampler series. The
//! bundle holds exactly what a human needs to explain the failure:
//!
//! - the monitors' verdicts;
//! - the witnesses plus their **k-hop causal past** (not the whole ring);
//! - the load-sampler window overlapping the slice;
//! - enough metadata (`truncated_parents`, eviction count) that
//!   `trace_lint` can validate the slice as a *slice* without false
//!   dangling-parent errors.
//!
//! Serialization is deterministic: the slice is in canonical
//! `(at_us, node, seq)` order and every line is fixed-key-order compact
//! JSON, so the same seed produces a byte-identical bundle whether the
//! run was swept serially or on worker threads. The bundle does no file IO —
//! hosts write [`PostmortemBundle::to_jsonl`] and
//! [`PostmortemBundle::to_chrome`] wherever `--postmortem PATH` pointed.

use crate::causal::CausalGraph;
use crate::event::{CauseId, TimedEvent};
use crate::export;
use crate::monitor::Violation;
use crate::sample::LoadSample;
use std::fmt::Write as _;

/// Default causal-past depth for captured slices: deep enough to cross a
/// few network hops and a timer arming, small enough to stay readable.
pub const DEFAULT_K_HOPS: usize = 16;

/// A captured post-mortem: verdicts, witness slice, and load context.
#[derive(Debug, Clone)]
pub struct PostmortemBundle {
    /// Why the bundle was captured (e.g. `monitor_violation`, `wedged`).
    pub reason: String,
    /// The hop bound the slice was cut at.
    pub k_hops: usize,
    /// The recorder's eviction count at capture time.
    pub overwritten: u64,
    /// Causal ids of the witness events the slice grew from (sorted).
    pub witnesses: Vec<CauseId>,
    /// Parents referenced by the slice but outside it (sorted) — declared
    /// so lint can excuse them.
    pub truncated_parents: Vec<CauseId>,
    /// The monitors' verdicts, in the order the caller reported them.
    pub verdicts: Vec<Violation>,
    /// The causal slice in canonical `(at_us, node, seq)` order.
    pub slice: Vec<TimedEvent>,
    /// Load samples overlapping the slice's time range (±1 sample each
    /// side for context).
    pub samples: Vec<LoadSample>,
}

impl PostmortemBundle {
    /// Cuts a bundle out of a recorder snapshot.
    ///
    /// `witnesses` seed the slice: each violation's context events plus
    /// whatever the host considers incriminating. Witnesses without a
    /// causal id (hand-built, `seq` 0) are included verbatim. `samples`
    /// is the full sampler series; only the window overlapping the slice
    /// is kept.
    pub fn capture(
        reason: &str,
        events: &[TimedEvent],
        overwritten: u64,
        witnesses: &[TimedEvent],
        k_hops: usize,
        samples: &[LoadSample],
        verdicts: &[Violation],
    ) -> Self {
        let graph = CausalGraph::new(events);
        let mut seeds: Vec<CauseId> =
            witnesses.iter().map(TimedEvent::id).filter(|id| !id.is_none()).collect();
        seeds.sort();
        seeds.dedup();
        let mut slice = graph.causal_past(&seeds, k_hops);
        // Id-less witnesses cannot anchor a causal walk but still belong
        // in the bundle — splice them into canonical position.
        for w in witnesses {
            if w.id().is_none() && !slice.events.contains(w) {
                let at = slice
                    .events
                    .partition_point(|e| (e.at_us, e.node, e.seq) <= (w.at_us, w.node, w.seq));
                slice.events.insert(at, *w);
            }
        }
        let window = match (slice.events.first(), slice.events.last()) {
            (Some(a), Some(b)) => Some((a.at_us, b.at_us)),
            _ => None,
        };
        let kept = match window {
            None => Vec::new(),
            Some((lo, hi)) => {
                let start = samples.partition_point(|s| s.at_us < lo).saturating_sub(1);
                let end = (samples.partition_point(|s| s.at_us <= hi) + 1).min(samples.len());
                samples[start..end].to_vec()
            }
        };
        Self {
            reason: reason.to_owned(),
            k_hops,
            overwritten,
            witnesses: seeds,
            truncated_parents: slice.truncated_parents,
            verdicts: verdicts.to_vec(),
            slice: slice.events,
            samples: kept,
        }
    }

    /// Whether the bundle carries neither verdicts nor a slice (nothing
    /// worth writing to disk).
    pub fn is_empty(&self) -> bool {
        self.verdicts.is_empty() && self.slice.is_empty()
    }

    /// Renders the bundle as JSON-lines:
    ///
    /// 1. one meta line declaring the schema version (2), reason, hop
    ///    bound, eviction count, witness ids, and truncated parents;
    /// 2. one line per monitor verdict;
    /// 3. the causal slice in [`export::to_jsonl`] event format;
    /// 4. one line per kept load sample.
    ///
    /// `causal::parse_jsonl` reads this back (verdict and sample lines
    /// are skipped as non-events), and `trace_lint` accepts it because
    /// the truncation is declared.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.slice.len() * 80 + 512);
        let _ = write!(
            out,
            "{{\"meta\":\"postmortem\",\"version\":{},\"reason\":",
            export::JSONL_VERSION
        );
        export::json_str(&mut out, &self.reason);
        let _ = write!(
            out,
            ",\"k_hops\":{},\"overwritten\":{},\"witnesses\":[",
            self.k_hops, self.overwritten
        );
        for (i, id) in self.witnesses.iter().enumerate() {
            let _ = write!(out, "{}{}", if i > 0 { "," } else { "" }, id.0);
        }
        out.push_str("],\"truncated_parents\":[");
        for (i, id) in self.truncated_parents.iter().enumerate() {
            let _ = write!(out, "{}{}", if i > 0 { "," } else { "" }, id.0);
        }
        out.push_str("]}\n");
        for v in &self.verdicts {
            let _ = write!(
                out,
                "{{\"verdict\":\"{}\",\"node\":{},\"at_us\":{},\"detail\":",
                v.kind.as_str(),
                v.node,
                v.at_us
            );
            export::json_str(&mut out, &v.detail);
            out.push_str("}\n");
        }
        out.push_str(&export::to_jsonl(&self.slice));
        for s in &self.samples {
            out.push_str(&s.to_json());
            out.push('\n');
        }
        out
    }

    /// The slice as a Chrome `trace_event` document (see
    /// [`export::to_chrome_with`]) for visual post-mortems.
    pub fn to_chrome(&self) -> String {
        export::to_chrome_with(&self.slice, self.overwritten)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causal::parse_jsonl;
    use crate::event::{ObsEvent, SpPhase};
    use crate::json;
    use crate::monitor::ViolationKind;

    fn mk(at_us: u64, node: u32, seq: u32, parent: CauseId, ev: ObsEvent) -> TimedEvent {
        TimedEvent { at_us, node, seq, parent, ev }
    }

    fn trace() -> Vec<TimedEvent> {
        let id = CauseId::new;
        vec![
            mk(10, 0, 1, CauseId::NONE, ObsEvent::TimerFire { token: 1 }),
            mk(10, 0, 2, id(0, 1), ObsEvent::FrameSend { bytes: 24, copies: 1 }),
            mk(80, 1, 1, id(0, 2), ObsEvent::FrameDeliver { src: 0, bytes: 24 }),
            mk(80, 1, 2, id(1, 1), ObsEvent::AppDeliver { sender: 0, seq: 1 }),
            mk(
                500,
                1,
                3,
                CauseId::NONE,
                ObsEvent::SwitchPhase { phase: SpPhase::PrepareSeen, from: 0, to: 1 },
            ),
        ]
    }

    fn verdict(at_us: u64, context: Vec<TimedEvent>) -> Violation {
        Violation {
            kind: ViolationKind::TotalOrder,
            node: 1,
            at_us,
            detail: "position 1: node 1 delivered (0,1) but canonical is (2,1)".to_owned(),
            context,
        }
    }

    #[test]
    fn capture_slices_the_witness_past_and_keeps_verdicts() {
        let events = trace();
        let witness = events[3]; // the app_deliver
        let samples = vec![
            LoadSample { at_us: 0, ..LoadSample::default() },
            LoadSample { at_us: 50, frames_sent: 1, ..LoadSample::default() },
            LoadSample { at_us: 100, ..LoadSample::default() },
            LoadSample { at_us: 100_000, ..LoadSample::default() },
        ];
        let v = verdict(80, vec![witness]);
        let b = PostmortemBundle::capture(
            "monitor_violation",
            &events,
            0,
            &v.context.clone(),
            DEFAULT_K_HOPS,
            &samples,
            &[v],
        );
        assert!(!b.is_empty());
        assert_eq!(b.witnesses, vec![witness.id()]);
        // Slice = witness + full past; the unrelated switch phase is cut.
        assert_eq!(b.slice.len(), 4);
        assert!(b.truncated_parents.is_empty());
        // Sampler window clips to the slice's range (10..80) ± one sample.
        let kept: Vec<u64> = b.samples.iter().map(|s| s.at_us).collect();
        assert_eq!(kept, vec![0, 50, 100]);
    }

    #[test]
    fn shallow_capture_declares_truncation_and_lints_clean() {
        let events = trace();
        let witness = events[3];
        let b = PostmortemBundle::capture("wedged", &events, 0, &[witness], 1, &[], &[]);
        assert_eq!(b.slice.len(), 2, "witness + 1 hop");
        assert_eq!(b.truncated_parents.len(), 1);
        let parsed = parse_jsonl(&b.to_jsonl()).expect("bundle parses");
        assert_eq!(parsed.events, b.slice);
        assert_eq!(parsed.truncated_parents, b.truncated_parents);
        let g = CausalGraph::new(&parsed.events);
        assert!(g.lint(parsed.overwritten, &parsed.truncated_parents).is_empty());
    }

    #[test]
    fn jsonl_is_valid_deterministic_and_self_describing() {
        let events = trace();
        let v = verdict(80, vec![events[3]]);
        let b = PostmortemBundle::capture(
            "monitor_violation",
            &events,
            2,
            &v.context.clone(),
            4,
            &[LoadSample { at_us: 50, ..LoadSample::default() }],
            &[v],
        );
        let text = b.to_jsonl();
        assert!(json::validate_lines(&text).is_ok());
        assert_eq!(text, b.to_jsonl());
        let first = text.lines().next().unwrap();
        assert!(first.starts_with(
            "{\"meta\":\"postmortem\",\"version\":2,\"reason\":\"monitor_violation\""
        ));
        assert!(first.contains("\"k_hops\":4"));
        assert!(first.contains("\"overwritten\":2"));
        assert!(text.contains("{\"verdict\":\"total_order\",\"node\":1,\"at_us\":80"));
        assert!(text.contains("\"kind\":\"app_deliver\""));
        assert!(text.contains("\"frames_sent\":0"));
        let chrome = b.to_chrome();
        assert!(json::validate(&chrome).is_ok());
        assert!(chrome.contains("\"overwritten\":2"));
    }

    #[test]
    fn idless_witnesses_are_spliced_into_the_slice() {
        let events = trace();
        let bare = TimedEvent::new(300, 2, ObsEvent::FrameDrop { copies: 3 });
        let b = PostmortemBundle::capture("wedged", &events, 0, &[bare], 8, &[], &[]);
        assert!(b.witnesses.is_empty(), "no causal seeds");
        assert_eq!(b.slice, vec![bare]);
        assert!(!b.is_empty());
    }
}
