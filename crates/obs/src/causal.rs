//! Causal trace analysis: the [`CausalGraph`] over recorded parent links,
//! switch-attempt critical paths, and per-phase latency attribution.
//!
//! Every [`TimedEvent`] carries a [`CauseId`] parent link minted by the
//! [`Recorder`](crate::Recorder); this module turns a snapshot of those
//! events into a queryable graph. Events are kept in **canonical order**
//! — sorted by `(at_us, node, seq)` — so every analysis output depends
//! only on the event *multiset*, never on the order the source handed the
//! events over in: a recorder snapshot, a parsed JSONL file and a
//! post-mortem slice of the same run all analyze identically.
//!
//! The headline analysis is [`CausalGraph::switch_attempts`]: for each
//! group-wide switch attempt it walks the causal chain behind each phase
//! milestone and attributes the phase's latency to network transit, CPU
//! service, queueing wait, or timer slack — the paper's "switching
//! overhead" decomposed into *why*.

use crate::event::{CauseId, LayerDir, ObsEvent, SpPhase, TimedEvent};
use crate::timeline::check_well_nested;
use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;

/// A trace parsed back from the JSONL exporter's output (see
/// [`parse_jsonl`]).
#[derive(Debug, Clone, Default)]
pub struct ParsedTrace {
    /// The events, in file order.
    pub events: Vec<TimedEvent>,
    /// The recorder's eviction count from the meta line (0 if absent).
    pub overwritten: u64,
    /// Parent ids a post-mortem bundle declared as sliced away (empty for
    /// ordinary traces); `lint` excuses dangling links to these.
    pub truncated_parents: Vec<CauseId>,
}

/// Extracts an unsigned integer field `"key":N` from a compact JSON line.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let i = line.find(&pat)? + pat.len();
    let rest = &line[i..];
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts a string field `"key":"value"` (minimal unescaping).
fn field_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let i = line.find(&pat)? + pat.len();
    let mut out = String::new();
    let mut chars = line[i..].chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

/// Interns a parsed layer name into a `&'static str` (layer names in
/// [`ObsEvent`] are static by design; a lint pass over a file has to
/// leak each *distinct* name once — a handful per trace).
fn intern(name: &str) -> &'static str {
    use std::sync::{Mutex, OnceLock};
    static POOL: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(Vec::new()));
    let mut p = pool.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(s) = p.iter().find(|s| **s == name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    p.push(leaked);
    leaked
}

fn parse_dir(s: &str) -> Option<LayerDir> {
    Some(match s {
        "launch" => LayerDir::Launch,
        "down" => LayerDir::Down,
        "up" => LayerDir::Up,
        "timer" => LayerDir::Timer,
        "restart" => LayerDir::Restart,
        _ => return None,
    })
}

fn parse_phase(s: &str) -> Option<SpPhase> {
    Some(match s {
        "prepare_seen" => SpPhase::PrepareSeen,
        "drain_complete" => SpPhase::DrainComplete,
        "flip" => SpPhase::Flip,
        "buffer_release" => SpPhase::BufferRelease,
        "aborted" => SpPhase::Aborted,
        _ => return None,
    })
}

/// Parses one `{"kind":..}` event line back into a [`TimedEvent`]; `None`
/// for a version-1 `layer_end`, whose span its `layer_begin` already
/// stands for.
fn parse_event_line(full: &str) -> Result<Option<TimedEvent>, String> {
    let head = |k: &str| field_u64(full, k).ok_or_else(|| format!("missing \"{k}\": {full}"));
    let at_us = head("at_us")?;
    let node = head("node")? as u32;
    let seq = field_u64(full, "seq").unwrap_or(0) as u32;
    let parent = CauseId(field_u64(full, "parent").unwrap_or(0));
    // Variant fields live after "kind": — slicing there keeps the app-level
    // "seq" of app_send/app_deliver distinct from the causal "seq" above.
    let kind_at = full.find("\"kind\":").ok_or_else(|| format!("missing \"kind\": {full}"))?;
    let line = &full[kind_at..];
    let need = |k: &str| field_u64(line, k).ok_or_else(|| format!("missing \"{k}\": {full}"));
    let kind = field_str(line, "kind").ok_or_else(|| format!("missing \"kind\": {full}"))?;
    let ev = match kind.as_str() {
        "frame_send" => {
            ObsEvent::FrameSend { bytes: need("bytes")? as u32, copies: need("copies")? as u32 }
        }
        "frame_deliver" => {
            ObsEvent::FrameDeliver { src: need("src")? as u32, bytes: need("bytes")? as u32 }
        }
        "frame_drop" => ObsEvent::FrameDrop { copies: need("copies")? as u32 },
        "cpu_enqueue" => ObsEvent::CpuEnqueue { depth: need("depth")? as u32 },
        "cpu_dequeue" => ObsEvent::CpuDequeue { depth: need("depth")? as u32 },
        "timer_fire" => ObsEvent::TimerFire { token: need("token")? },
        // Version 1 wrote `layer_begin` where version 2 writes `layer`,
        // with no duration.
        "layer" | "layer_begin" => ObsEvent::LayerSpan {
            layer: intern(
                &field_str(line, "layer").ok_or_else(|| format!("missing \"layer\": {line}"))?,
            ),
            dir: parse_dir(
                &field_str(line, "dir").ok_or_else(|| format!("missing \"dir\": {line}"))?,
            )
            .ok_or_else(|| format!("bad \"dir\": {line}"))?,
            dur_us: if kind == "layer" { need("dur_us")? as u32 } else { 0 },
        },
        "layer_end" => return Ok(None),
        "switch_phase" => ObsEvent::SwitchPhase {
            phase: parse_phase(
                &field_str(line, "phase").ok_or_else(|| format!("missing \"phase\": {line}"))?,
            )
            .ok_or_else(|| format!("bad \"phase\": {line}"))?,
            from: need("from")? as u8,
            to: need("to")? as u8,
        },
        "app_send" => ObsEvent::AppSend { sender: need("sender")? as u32, seq: need("seq")? },
        "app_deliver" => ObsEvent::AppDeliver { sender: need("sender")? as u32, seq: need("seq")? },
        "node_crash" => ObsEvent::NodeCrash { incarnation: need("incarnation")? as u32 },
        "node_recover" => ObsEvent::NodeRecover { incarnation: need("incarnation")? as u32 },
        other => return Err(format!("unknown kind \"{other}\": {full}")),
    };
    Ok(Some(TimedEvent { at_us, node, seq, parent, ev }))
}

/// Parses a JSONL trace produced by [`export::to_jsonl_with`] or a
/// post-mortem bundle back into events plus metadata. Lines that are not
/// events (verdicts, load samples) are skipped; malformed *event* lines
/// are errors. Version-1 files read as version 2 would have written them,
/// except that their spans have no duration and keep the seqs their
/// `layer_end` lines used up.
///
/// [`export::to_jsonl_with`]: crate::export::to_jsonl_with
pub fn parse_jsonl(input: &str) -> Result<ParsedTrace, String> {
    let mut out = ParsedTrace::default();
    for line in input.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line.contains("\"meta\":") {
            out.overwritten = field_u64(line, "overwritten").unwrap_or(0);
            if let Some(i) = line.find("\"truncated_parents\":[") {
                let rest = &line[i + "\"truncated_parents\":[".len()..];
                if let Some(end) = rest.find(']') {
                    for n in rest[..end].split(',').filter(|s| !s.is_empty()) {
                        match n.trim().parse() {
                            Ok(v) => out.truncated_parents.push(CauseId(v)),
                            Err(_) => return Err(format!("bad truncated_parents: {line}")),
                        }
                    }
                }
            }
            continue;
        }
        if !line.contains("\"kind\":") {
            continue; // verdict or sampler line inside a bundle
        }
        out.events.extend(parse_event_line(line)?);
    }
    Ok(out)
}

/// A bounded causal slice: `events` plus the parent ids that fell outside
/// it (beyond the hop budget, evicted from the ring, or genuinely absent).
#[derive(Debug, Clone, Default)]
pub struct CausalSlice {
    /// Slice events in canonical `(at_us, node, seq)` order.
    pub events: Vec<TimedEvent>,
    /// Parents referenced by slice events but not contained in it, sorted.
    pub truncated_parents: Vec<CauseId>,
}

/// Latency buckets a causal edge can fall into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bucket {
    Transit,
    Cpu,
    Queue,
    Slack,
    Other,
}

/// Classifies the causal edge `parent -> child` into a latency bucket.
fn classify(parent: &TimedEvent, child: &TimedEvent) -> Bucket {
    use ObsEvent::*;
    match (parent.ev, child.ev) {
        (FrameSend { .. }, FrameDeliver { .. })
        | (FrameSend { .. }, CpuEnqueue { .. })
        | (FrameSend { .. }, FrameDrop { .. }) => Bucket::Transit,
        (CpuEnqueue { .. }, CpuDequeue { .. }) => Bucket::Queue,
        (_, TimerFire { .. }) => Bucket::Slack,
        _ if parent.node == child.node => Bucket::Cpu,
        _ => Bucket::Other,
    }
}

/// One switch phase's latency, attributed along the causal critical path
/// ending at the phase's closing milestone event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseAttribution {
    /// Phase name: `prepare`, `drain`, `flip`, `release`, or `abort`.
    pub phase: &'static str,
    /// Phase window start (µs) — the previous milestone.
    pub start_us: u64,
    /// Phase window end (µs) — this phase's group-wide milestone.
    pub end_us: u64,
    /// Time spent in network transit (frame send → deliver/enqueue/drop).
    pub transit_us: u64,
    /// Time spent in CPU service (same-node handler chains).
    pub cpu_us: u64,
    /// Time spent waiting in a busy node's deferred FIFO.
    pub queue_us: u64,
    /// Time spent waiting for armed timers to fire.
    pub slack_us: u64,
    /// Residue: edges with no recorded cause inside the window (root
    /// events, evicted parents, cross-node context edges).
    pub other_us: u64,
}

impl PhaseAttribution {
    /// The phase's total wall (sim) duration.
    pub fn total_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// Sum of the attributed buckets (≤ [`PhaseAttribution::total_us`];
    /// equality when the causal chain covers the whole window).
    pub fn attributed_us(&self) -> u64 {
        self.transit_us + self.cpu_us + self.queue_us + self.slack_us + self.other_us
    }
}

/// One group-wide switch attempt with its per-phase critical-path
/// attribution (see [`CausalGraph::switch_attempts`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPath {
    /// 1-based attempt number in trace order.
    pub attempt: usize,
    /// Protocol index switched away from.
    pub from: u8,
    /// Protocol index switched to.
    pub to: u8,
    /// Earliest `prepare_seen` across the group (µs).
    pub start_us: u64,
    /// Latest closing milestone across the group (µs).
    pub end_us: u64,
    /// Whether any member flipped (false = the attempt aborted everywhere
    /// or is still open at the end of the trace).
    pub completed: bool,
    /// Whether any member aborted the attempt.
    pub aborted: bool,
    /// Per-phase attribution, in phase order; phases whose milestone never
    /// happened (e.g. `release` of an aborted attempt) are absent.
    pub phases: Vec<PhaseAttribution>,
}

impl CriticalPath {
    /// The attempt's total wall (sim) duration.
    pub fn total_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// Internal accumulator for one group-wide attempt.
struct AttemptAgg {
    from: u8,
    to: u8,
    prepared: BTreeSet<u32>,
    prepare_first: TimedEvent,
    prepare_last: TimedEvent,
    drain_last: Option<TimedEvent>,
    flip_last: Option<TimedEvent>,
    release_last: Option<TimedEvent>,
    abort_last: Option<TimedEvent>,
}

/// A causal view over a recorded event slice.
///
/// Construction sorts events into canonical `(at_us, node, seq)` order —
/// see the module docs for why — and indexes them by [`CauseId`].
pub struct CausalGraph {
    events: Vec<TimedEvent>,
    index: HashMap<u64, usize>,
    duplicate_ids: Vec<CauseId>,
}

impl CausalGraph {
    /// Builds the graph from any event slice (a recorder snapshot, a
    /// parsed trace, a post-mortem slice).
    pub fn new(events: &[TimedEvent]) -> Self {
        let mut events = events.to_vec();
        events.sort_by_key(|e| (e.at_us, e.node, e.seq));
        let mut index = HashMap::with_capacity(events.len());
        let mut duplicate_ids = Vec::new();
        for (i, e) in events.iter().enumerate() {
            if e.seq != 0 && index.insert(e.id().0, i).is_some() {
                duplicate_ids.push(e.id());
            }
        }
        Self { events, index, duplicate_ids }
    }

    /// The events in canonical `(at_us, node, seq)` order.
    pub fn events(&self) -> &[TimedEvent] {
        &self.events
    }

    /// Looks an event up by its causal id.
    pub fn get(&self, id: CauseId) -> Option<&TimedEvent> {
        self.index.get(&id.0).map(|&i| &self.events[i])
    }

    /// Whether following parent links can never loop. (True for any trace
    /// a recorder produced — parents are minted before children — but a
    /// property the lint re-verifies on untrusted input.)
    pub fn is_acyclic(&self) -> bool {
        // 0 = unvisited, 1 = on the current chain, 2 = known acyclic.
        let mut color = vec![0u8; self.events.len()];
        for start in 0..self.events.len() {
            if color[start] != 0 {
                continue;
            }
            let mut chain = Vec::new();
            let mut cur = start;
            loop {
                if color[cur] == 1 {
                    return false; // revisited the chain in progress
                }
                if color[cur] == 2 {
                    break;
                }
                color[cur] = 1;
                chain.push(cur);
                let parent = self.events[cur].parent;
                match self.index.get(&parent.0) {
                    Some(&next) if !parent.is_none() => cur = next,
                    _ => break,
                }
            }
            for i in chain {
                color[i] = 2;
            }
        }
        true
    }

    /// Whether `e`'s parent chain terminates at a root (an event with no
    /// parent). False if the chain hits a dangling id or loops.
    pub fn reaches_root(&self, e: &TimedEvent) -> bool {
        let mut cur = e;
        let mut steps = 0usize;
        while !cur.parent.is_none() {
            steps += 1;
            if steps > self.events.len() {
                return false;
            }
            match self.get(cur.parent) {
                Some(p) => cur = p,
                None => return false,
            }
        }
        true
    }

    /// The bounded causal past: every slice seed plus parents up to
    /// `k_hops` links away, with the parents that fell outside recorded
    /// in [`CausalSlice::truncated_parents`].
    pub fn causal_past(&self, seeds: &[CauseId], k_hops: usize) -> CausalSlice {
        let mut in_slice = vec![false; self.events.len()];
        let mut frontier: Vec<usize> = Vec::new();
        for id in seeds {
            if let Some(&i) = self.index.get(&id.0) {
                if !in_slice[i] {
                    in_slice[i] = true;
                    frontier.push(i);
                }
            }
        }
        for _ in 0..k_hops {
            let mut next = Vec::new();
            for &i in &frontier {
                let parent = self.events[i].parent;
                if parent.is_none() {
                    continue;
                }
                if let Some(&p) = self.index.get(&parent.0) {
                    if !in_slice[p] {
                        in_slice[p] = true;
                        next.push(p);
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
        let mut events = Vec::new();
        let mut truncated: BTreeSet<CauseId> = BTreeSet::new();
        for (i, e) in self.events.iter().enumerate() {
            if !in_slice[i] {
                continue;
            }
            events.push(*e);
            if e.parent.is_none() {
                continue;
            }
            let inside = self.index.get(&e.parent.0).is_some_and(|&p| in_slice[p]);
            if !inside {
                truncated.insert(e.parent);
            }
        }
        CausalSlice { events, truncated_parents: truncated.into_iter().collect() }
    }

    /// Validates the causal structure. Returns one message per violation
    /// (empty = clean):
    ///
    /// - duplicate [`CauseId`]s;
    /// - dangling parents — excused when the ring evicted history
    ///   (`overwritten > 0`) or the trace declared them sliced away
    ///   (`truncated_parents`);
    /// - a parent recorded *after* its child in sim time;
    /// - causal cycles;
    /// - switch-phase events that are not well-nested.
    pub fn lint(&self, overwritten: u64, truncated_parents: &[CauseId]) -> Vec<String> {
        let mut out = Vec::new();
        for id in &self.duplicate_ids {
            out.push(format!("duplicate cause id {} (node {} seq {})", id.0, id.node(), id.seq()));
        }
        for e in &self.events {
            if e.parent.is_none() {
                continue;
            }
            match self.get(e.parent) {
                None => {
                    if overwritten == 0 && !truncated_parents.contains(&e.parent) {
                        out.push(format!(
                            "dangling parent {} at node {} seq {} ({}us)",
                            e.parent.0, e.node, e.seq, e.at_us
                        ));
                    }
                }
                Some(p) => {
                    if p.at_us > e.at_us {
                        out.push(format!(
                            "parent {} at {}us is later than child (node {} seq {}) at {}us",
                            e.parent.0, p.at_us, e.node, e.seq, e.at_us
                        ));
                    }
                }
            }
        }
        if !self.is_acyclic() {
            out.push("causal graph has a cycle".to_owned());
        }
        if let Err(msg) = check_well_nested(&self.events) {
            out.push(format!("switch phases not well-nested: {msg}"));
        }
        out
    }

    /// Groups the trace's switch-phase events into group-wide attempts
    /// and attributes each phase's latency along the causal critical path
    /// ending at the phase's closing milestone:
    ///
    /// - `prepare`: first `prepare_seen` → last member's `prepare_seen`;
    /// - `drain`: → last `drain_complete`;
    /// - `flip`: → last `flip`;
    /// - `release`: → last `buffer_release`;
    /// - `abort` (failed attempts): → last `aborted`.
    pub fn switch_attempts(&self) -> Vec<CriticalPath> {
        let mut aggs: Vec<AttemptAgg> = Vec::new();
        let mut cur: Option<AttemptAgg> = None;
        for e in &self.events {
            let ObsEvent::SwitchPhase { phase, from, to } = e.ev else { continue };
            match phase {
                SpPhase::PrepareSeen => {
                    let fresh = match &cur {
                        None => true,
                        Some(a) => a.prepared.contains(&e.node),
                    };
                    if fresh {
                        if let Some(done) = cur.take() {
                            aggs.push(done);
                        }
                        cur = Some(AttemptAgg {
                            from,
                            to,
                            prepared: BTreeSet::from([e.node]),
                            prepare_first: *e,
                            prepare_last: *e,
                            drain_last: None,
                            flip_last: None,
                            release_last: None,
                            abort_last: None,
                        });
                    } else if let Some(a) = &mut cur {
                        a.prepared.insert(e.node);
                        a.prepare_last = *e;
                    }
                }
                SpPhase::DrainComplete => {
                    if let Some(a) = &mut cur {
                        a.drain_last = Some(*e);
                    }
                }
                SpPhase::Flip => {
                    if let Some(a) = &mut cur {
                        a.flip_last = Some(*e);
                    }
                }
                SpPhase::BufferRelease => {
                    if let Some(a) = &mut cur {
                        a.release_last = Some(*e);
                    }
                }
                SpPhase::Aborted => {
                    if let Some(a) = &mut cur {
                        a.abort_last = Some(*e);
                    }
                }
            }
        }
        if let Some(done) = cur.take() {
            aggs.push(done);
        }

        let mut out = Vec::new();
        for (i, a) in aggs.iter().enumerate() {
            let mut phases = Vec::new();
            let mut prev_at = a.prepare_first.at_us;
            let mut push = |name: &'static str, m: &Option<TimedEvent>, prev_at: &mut u64| {
                if let Some(m) = m {
                    phases.push(self.attribute(name, *prev_at, m));
                    *prev_at = m.at_us;
                }
            };
            push("prepare", &Some(a.prepare_last), &mut prev_at);
            push("drain", &a.drain_last, &mut prev_at);
            push("flip", &a.flip_last, &mut prev_at);
            push("release", &a.release_last, &mut prev_at);
            push("abort", &a.abort_last, &mut prev_at);
            out.push(CriticalPath {
                attempt: i + 1,
                from: a.from,
                to: a.to,
                start_us: a.prepare_first.at_us,
                end_us: prev_at,
                completed: a.flip_last.is_some(),
                aborted: a.abort_last.is_some(),
                phases,
            });
        }
        out
    }

    /// Walks the causal chain back from `milestone` until it crosses
    /// `start_us`, attributing each edge's clamped duration to a bucket.
    fn attribute(
        &self,
        phase: &'static str,
        start_us: u64,
        milestone: &TimedEvent,
    ) -> PhaseAttribution {
        let mut a = PhaseAttribution {
            phase,
            start_us,
            end_us: milestone.at_us,
            ..PhaseAttribution::default()
        };
        let mut child = *milestone;
        let mut steps = 0usize;
        let mut covered = 0u64;
        while child.at_us > start_us && !child.parent.is_none() && steps <= self.events.len() {
            steps += 1;
            let Some(p) = self.get(child.parent).copied() else { break };
            let span = child.at_us.min(a.end_us).saturating_sub(p.at_us.max(start_us));
            covered += span;
            match classify(&p, &child) {
                Bucket::Transit => a.transit_us += span,
                Bucket::Cpu => a.cpu_us += span,
                Bucket::Queue => a.queue_us += span,
                Bucket::Slack => a.slack_us += span,
                Bucket::Other => a.other_us += span,
            }
            child = p;
        }
        // Whatever the chain did not cover (roots above start, evicted
        // parents) is unattributable residue.
        a.other_us += a.total_us().saturating_sub(covered);
        a
    }
}

/// Renders the deterministic per-phase attribution table `repro explain`
/// prints. One block per attempt; durations in µs, columns fixed-width.
pub fn attribution_table(paths: &[CriticalPath]) -> String {
    let mut out = String::new();
    if paths.is_empty() {
        out.push_str("no switch attempts in trace\n");
        return out;
    }
    for p in paths {
        let outcome = match (p.completed, p.aborted) {
            (true, false) => "completed",
            (true, true) => "completed (partial abort)",
            (false, true) => "aborted",
            (false, false) => "open",
        };
        let _ = writeln!(
            out,
            "switch attempt {}: proto {} -> {}, {}us .. {}us ({}us), {}",
            p.attempt,
            p.from,
            p.to,
            p.start_us,
            p.end_us,
            p.total_us(),
            outcome
        );
        let _ = writeln!(
            out,
            "  {:<8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "phase", "total", "transit", "cpu", "queue", "slack", "other"
        );
        let mut tot = PhaseAttribution { phase: "total", ..PhaseAttribution::default() };
        for ph in &p.phases {
            let _ = writeln!(
                out,
                "  {:<8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
                ph.phase,
                ph.total_us(),
                ph.transit_us,
                ph.cpu_us,
                ph.queue_us,
                ph.slack_us,
                ph.other_us
            );
            tot.transit_us += ph.transit_us;
            tot.cpu_us += ph.cpu_us;
            tot.queue_us += ph.queue_us;
            tot.slack_us += ph.slack_us;
            tot.other_us += ph.other_us;
        }
        let _ = writeln!(
            out,
            "  {:<8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "total",
            p.total_us(),
            tot.transit_us,
            tot.cpu_us,
            tot.queue_us,
            tot.slack_us,
            tot.other_us
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export;

    /// A hand-minted causal chain: timer root → send → deliver → enqueue
    /// → dequeue → switch phases.
    fn chain() -> Vec<TimedEvent> {
        let mk = |at_us, node, seq, parent: u64, ev| TimedEvent {
            at_us,
            node,
            seq,
            parent: CauseId(parent),
            ev,
        };
        let id = |node: u32, seq: u32| CauseId::new(node, seq).0;
        vec![
            mk(100, 0, 1, 0, ObsEvent::TimerFire { token: 1 }),
            mk(100, 0, 2, id(0, 1), ObsEvent::FrameSend { bytes: 16, copies: 1 }),
            mk(180, 1, 1, id(0, 2), ObsEvent::FrameDeliver { src: 0, bytes: 16 }),
            mk(
                180,
                1,
                2,
                id(1, 1),
                ObsEvent::SwitchPhase { phase: SpPhase::PrepareSeen, from: 0, to: 1 },
            ),
            mk(200, 1, 3, id(1, 2), ObsEvent::FrameSend { bytes: 8, copies: 1 }),
            mk(260, 0, 3, id(1, 3), ObsEvent::CpuEnqueue { depth: 1 }),
            mk(300, 0, 4, id(0, 3), ObsEvent::CpuDequeue { depth: 0 }),
            mk(
                310,
                0,
                5,
                id(0, 4),
                ObsEvent::SwitchPhase { phase: SpPhase::DrainComplete, from: 0, to: 1 },
            ),
            mk(312, 0, 6, id(0, 5), ObsEvent::SwitchPhase { phase: SpPhase::Flip, from: 0, to: 1 }),
            mk(
                315,
                0,
                7,
                id(0, 6),
                ObsEvent::SwitchPhase { phase: SpPhase::BufferRelease, from: 0, to: 1 },
            ),
        ]
    }

    #[test]
    fn graph_indexes_and_resolves_parents() {
        let g = CausalGraph::new(&chain());
        let deliver = g.events().iter().find(|e| matches!(e.ev, ObsEvent::FrameDeliver { .. }));
        let p = g.get(deliver.unwrap().parent).expect("send parent");
        assert!(matches!(p.ev, ObsEvent::FrameSend { bytes: 16, .. }));
        assert!(g.is_acyclic());
        for e in g.events() {
            assert!(g.reaches_root(e), "event at {}us must reach a root", e.at_us);
        }
    }

    #[test]
    fn lint_accepts_the_clean_chain() {
        let g = CausalGraph::new(&chain());
        assert_eq!(g.lint(0, &[]), Vec::<String>::new());
    }

    #[test]
    fn lint_flags_dangling_late_and_cyclic_parents() {
        let mut bad = chain();
        bad[2].parent = CauseId::new(9, 9); // dangling
        let g = CausalGraph::new(&bad);
        let msgs = g.lint(0, &[]);
        assert!(msgs.iter().any(|m| m.contains("dangling parent")), "{msgs:?}");
        // Excused by eviction or declared truncation.
        assert!(g.lint(1, &[]).is_empty());
        assert!(g.lint(0, &[CauseId::new(9, 9)]).is_empty());

        let mut late = chain();
        late[0].at_us = 500; // parent now after its child
        let g = CausalGraph::new(&late);
        assert!(g.lint(0, &[]).iter().any(|m| m.contains("later than child")));

        let mut cyc = chain();
        cyc[0].parent = cyc[1].id(); // timer ← send ← timer
        let g = CausalGraph::new(&cyc);
        assert!(g.lint(0, &[]).iter().any(|m| m.contains("cycle")));
        assert!(!g.is_acyclic());

        let mut dup = chain();
        dup[5].node = 0;
        dup[5].seq = 4; // collides with the dequeue's id
        let g = CausalGraph::new(&dup);
        assert!(g.lint(0, &[]).iter().any(|m| m.contains("duplicate")));
    }

    #[test]
    fn causal_past_bounds_hops_and_reports_truncation() {
        let g = CausalGraph::new(&chain());
        let flip = g
            .events()
            .iter()
            .find(|e| matches!(e.ev, ObsEvent::SwitchPhase { phase: SpPhase::Flip, .. }));
        let seed = flip.unwrap().id();
        let s2 = g.causal_past(&[seed], 2);
        assert_eq!(s2.events.len(), 3, "seed + 2 hops");
        assert_eq!(s2.truncated_parents.len(), 1, "the cut edge is declared");
        let all = g.causal_past(&[seed], 100);
        assert_eq!(all.events.len(), 9, "whole chain back to the timer root");
        assert!(all.truncated_parents.is_empty());
        // The slice lints clean given its own truncation declaration.
        let sliced = CausalGraph::new(&s2.events);
        assert!(sliced.lint(0, &s2.truncated_parents).is_empty());
        assert!(!sliced.lint(0, &[]).is_empty(), "undeclared cut must fail lint");
    }

    #[test]
    fn attribution_buckets_follow_the_chain() {
        let g = CausalGraph::new(&chain());
        let paths = g.switch_attempts();
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!((p.from, p.to, p.completed, p.aborted), (0, 1, true, false));
        assert_eq!((p.start_us, p.end_us), (180, 315));
        let names: Vec<_> = p.phases.iter().map(|ph| ph.phase).collect();
        assert_eq!(names, ["prepare", "drain", "flip", "release"]);
        // Drain window 180..310: send 180→200 is cpu (same-node chain),
        // transit 200→260, queue 260→300, dequeue→drain 300→310 cpu.
        let drain = &p.phases[1];
        assert_eq!(drain.total_us(), 130);
        assert_eq!(drain.transit_us, 60);
        assert_eq!(drain.queue_us, 40);
        assert_eq!(drain.cpu_us, 30);
        assert_eq!(drain.slack_us, 0);
        assert_eq!(drain.other_us, 0);
        for ph in &p.phases {
            assert!(ph.attributed_us() <= ph.total_us().max(ph.attributed_us()));
            assert_eq!(ph.attributed_us(), ph.total_us(), "windows are fully covered");
        }
        // Critical-path length never exceeds the attempt's sim duration.
        let attributed: u64 = p.phases.iter().map(|ph| ph.total_us()).sum();
        assert!(attributed <= p.total_us());
    }

    #[test]
    fn table_is_deterministic_and_readable() {
        let g = CausalGraph::new(&chain());
        let t1 = attribution_table(&g.switch_attempts());
        let t2 = attribution_table(&g.switch_attempts());
        assert_eq!(t1, t2);
        assert!(t1.contains("switch attempt 1: proto 0 -> 1"));
        assert!(t1.contains("prepare"));
        assert!(t1.contains("total"));
        assert_eq!(attribution_table(&[]), "no switch attempts in trace\n");
    }

    #[test]
    fn jsonl_round_trips_through_the_parser() {
        let events = chain();
        let text = export::to_jsonl_with(&events, 3);
        let parsed = parse_jsonl(&text).expect("parse");
        assert_eq!(parsed.overwritten, 3);
        assert_eq!(parsed.events, events);
        // Layer events round-trip too (name interning), and the app-level
        // "seq" key stays distinct from the causal one.
        let tricky = vec![
            TimedEvent {
                seq: 1,
                ..TimedEvent::new(
                    5,
                    2,
                    ObsEvent::LayerSpan { layer: "seq", dir: LayerDir::Down, dur_us: 12 },
                )
            },
            TimedEvent {
                seq: 2,
                parent: CauseId::new(2, 1),
                ..TimedEvent::new(6, 2, ObsEvent::AppDeliver { sender: 7, seq: 41 })
            },
        ];
        let parsed = parse_jsonl(&export::to_jsonl(&tricky)).expect("parse");
        assert_eq!(parsed.events, tricky);
    }

    #[test]
    fn aborted_attempts_get_an_abort_phase() {
        let mk = |at_us, node, seq, parent: u64, phase| TimedEvent {
            at_us,
            node,
            seq,
            parent: CauseId(parent),
            ev: ObsEvent::SwitchPhase { phase, from: 0, to: 1 },
        };
        let events = vec![
            mk(100, 0, 1, 0, SpPhase::PrepareSeen),
            mk(900, 0, 2, CauseId::new(0, 1).0, SpPhase::Aborted),
            // Retry, same node: a second prepare starts attempt 2.
            mk(2000, 0, 3, 0, SpPhase::PrepareSeen),
            mk(2050, 0, 4, CauseId::new(0, 3).0, SpPhase::Flip),
        ];
        let g = CausalGraph::new(&events);
        let paths = g.switch_attempts();
        assert_eq!(paths.len(), 2);
        assert!(paths[0].aborted && !paths[0].completed);
        assert_eq!(paths[0].phases.last().unwrap().phase, "abort");
        assert!(paths[1].completed && !paths[1].aborted);
    }
}
