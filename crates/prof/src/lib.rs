//! # ps-prof
//!
//! An in-engine host-time profiler for the protocol-switching workspace:
//! a sampling-free span-stack [`Profiler`] that attributes host
//! wall-clock time to named engine components (event-queue ops, medium
//! transmit, per-layer handler execution, recording and monitor feeding)
//! via RAII [`Span`] guards.
//!
//! The design splits every measurement into two halves:
//!
//! - a **deterministic structural side** — the span tree shape, enter
//!   counts, and the virtual time covered — which is golden-testable and
//!   byte-identical across same-seed runs ([`Profiler::structure`]), and
//! - **nondeterministic nanosecond totals**, exported as a per-component
//!   cost table ([`Profiler::rows`]), a collapsed-stack flamegraph
//!   ([`Profiler::flamegraph`], `inferno`-compatible text), and a
//!   self-describing JSON summary ([`Profiler::json_summary`]).
//!
//! ## The contract
//!
//! - **Disabled means free.** [`Profiler::span`] on a disabled profiler
//!   is one predictable branch; hosts cache [`Profiler::is_enabled`]
//!   into a plain bool so hot paths don't even touch the atomic. With
//!   the `prof` cargo feature off, span entry compiles away entirely —
//!   the same two-level gate as ps-obs's `tap`.
//! - **Fixed paths, dynamic timing.** A span names its *absolute* path
//!   in the component tree (`&["engine", "dispatch"]`), independent of
//!   what happens to be on the live stack — so the tree shape is a
//!   stable vocabulary, not an artifact of call nesting. Timing still
//!   follows the live stack: when a span exits, its elapsed time is
//!   charged to the span *beneath it on the stack*, so self-times are
//!   disjoint and sum to the root's total.
//! - **Panic-safe nesting.** Guards are plain RAII; unwinding drops them
//!   in reverse order, so the live stack always well-nests and the
//!   internal locks are poison-proof.
//!
//! ```
//! use ps_prof::Profiler;
//!
//! let prof = Profiler::enabled();
//! {
//!     let _run = prof.span(&[]); // the implicit root, named "run"
//!     let _d = prof.span(&["engine", "dispatch"]);
//! }
//! assert_eq!(prof.rows().iter().filter(|r| r.path == "engine/dispatch").count(), 1);
//! assert!(prof.structure().contains("engine/dispatch 1"));
//! ```
//!
//! [`alloc::Counting`] is the allocation tests' one counting global
//! allocator: per thread calls, bytes and live bytes, and every thread's
//! calls. It is compiled whatever the `prof` feature.

#![deny(missing_docs)]

pub mod alloc;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Root component name (the implicit ancestor of every span path).
const ROOT: &str = "run";

/// One node of the component tree.
#[derive(Debug, Clone)]
struct Node {
    name: &'static str,
    children: Vec<usize>,
    /// Completed entries (counted on exit, so a panic that unwinds the
    /// guard still counts).
    enters: u64,
    /// Wall time from enter to exit, summed over entries.
    total_ns: u64,
    /// `total_ns` minus time spent in spans stacked above this one.
    self_ns: u64,
}

impl Node {
    fn new(name: &'static str) -> Self {
        Self { name, children: Vec::new(), enters: 0, total_ns: 0, self_ns: 0 }
    }
}

/// A live (entered, not yet exited) span on the stack.
#[derive(Debug)]
struct Live {
    node: usize,
    start: Instant,
    /// Nanoseconds already attributed to spans that ran above this one.
    child_ns: u64,
}

#[derive(Debug)]
struct Core {
    nodes: Vec<Node>,
    stack: Vec<Live>,
    sim_us: u64,
}

impl Core {
    fn new() -> Self {
        Self { nodes: vec![Node::new(ROOT)], stack: Vec::new(), sim_us: 0 }
    }

    /// Finds or creates the node at `path` (absolute, root-relative).
    fn locate(&mut self, path: &[&'static str]) -> usize {
        let mut at = 0usize;
        for seg in path {
            let found =
                self.nodes[at].children.iter().copied().find(|&c| self.nodes[c].name == *seg);
            at = match found {
                Some(c) => c,
                None => {
                    let idx = self.nodes.len();
                    self.nodes.push(Node::new(seg));
                    self.nodes[at].children.push(idx);
                    idx
                }
            };
        }
        at
    }

    /// Depth-first walk: calls `f(path, node)` for every node, root
    /// included (root's path is the empty string).
    fn walk(&self, f: &mut dyn FnMut(&str, &Node)) {
        fn rec(core: &Core, at: usize, prefix: &str, f: &mut dyn FnMut(&str, &Node)) {
            f(prefix, &core.nodes[at]);
            for &c in &core.nodes[at].children {
                let name = core.nodes[c].name;
                let path =
                    if prefix.is_empty() { name.to_owned() } else { format!("{prefix}/{name}") };
                rec(core, c, &path, f);
            }
        }
        rec(self, 0, "", f);
    }
}

#[derive(Debug)]
struct Shared {
    enabled: AtomicBool,
    core: Mutex<Core>,
}

/// One flattened component-table row (see [`Profiler::rows`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// `/`-joined absolute path; the root is the empty string.
    pub path: String,
    /// Completed span entries.
    pub enters: u64,
    /// Inclusive wall time.
    pub total_ns: u64,
    /// Exclusive wall time (total minus stacked-above spans).
    pub self_ns: u64,
}

/// A clonable handle to one profiler. Clones share the span tree and
/// its one live stack, so a profiler belongs to one thread at a time.
#[derive(Debug, Clone)]
pub struct Profiler {
    inner: Arc<Shared>,
}

impl Default for Profiler {
    fn default() -> Self {
        Self::disabled()
    }
}

/// RAII span guard returned by [`Profiler::span`]; exiting (dropping)
/// charges the elapsed time. Guards on a disabled profiler hold nothing
/// and drop for free.
#[derive(Debug)]
pub struct Span<'a> {
    prof: Option<&'a Profiler>,
    node: usize,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(p) = self.prof {
            p.exit(self.node);
        }
    }
}

/// Like [`Span`], but owns an `Arc` clone of its profiler. For call
/// sites that cannot keep a borrow of the profiler alive while the
/// guard exists (the stack gets its profiler from a `&mut` environment
/// it must hand back to the layer handler).
#[derive(Debug)]
pub struct OwnedSpan {
    prof: Option<Profiler>,
    node: usize,
}

impl Drop for OwnedSpan {
    fn drop(&mut self) {
        if let Some(p) = &self.prof {
            p.exit(self.node);
        }
    }
}

impl Profiler {
    /// A detached profiler: spans are one-branch no-ops until
    /// [`Profiler::set_enabled`] turns it on.
    pub fn disabled() -> Self {
        Self {
            inner: Arc::new(Shared {
                enabled: AtomicBool::new(false),
                core: Mutex::new(Core::new()),
            }),
        }
    }

    /// A recording profiler.
    pub fn enabled() -> Self {
        let p = Self::disabled();
        p.set_enabled(true);
        p
    }

    /// Turns recording on or off. With the `prof` cargo feature off this
    /// is a no-op and the profiler stays permanently disabled.
    pub fn set_enabled(&self, on: bool) {
        #[cfg(feature = "prof")]
        self.inner.enabled.store(on, Ordering::SeqCst);
        #[cfg(not(feature = "prof"))]
        let _ = on;
    }

    /// Whether spans currently record. Hosts on hot paths should cache
    /// this into a plain bool (the recorder pattern).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        #[cfg(feature = "prof")]
        return self.inner.enabled.load(Ordering::Relaxed);
        #[cfg(not(feature = "prof"))]
        false
    }

    /// Poison-proof lock: a panic inside an observed region must not
    /// wedge the profiler (guards keep dropping during unwind).
    fn core(&self) -> MutexGuard<'_, Core> {
        self.inner.core.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enters the span at absolute `path` (empty slice = the root
    /// "run"). Returns a guard; dropping it exits the span.
    #[inline]
    pub fn span(&self, path: &[&'static str]) -> Span<'_> {
        #[cfg(feature = "prof")]
        {
            if self.is_enabled() {
                return self.enter(path);
            }
        }
        let _ = path;
        Span { prof: None, node: 0 }
    }

    #[cfg(feature = "prof")]
    fn enter(&self, path: &[&'static str]) -> Span<'_> {
        let mut core = self.core();
        let node = core.locate(path);
        core.stack.push(Live { node, start: Instant::now(), child_ns: 0 });
        Span { prof: Some(self), node }
    }

    /// [`Profiler::span`] with a guard that holds its own handle clone
    /// instead of borrowing `self`.
    #[inline]
    pub fn owned_span(&self, path: &[&'static str]) -> OwnedSpan {
        #[cfg(feature = "prof")]
        {
            if self.is_enabled() {
                let mut core = self.core();
                let node = core.locate(path);
                core.stack.push(Live { node, start: Instant::now(), child_ns: 0 });
                drop(core);
                return OwnedSpan { prof: Some(self.clone()), node };
            }
        }
        let _ = path;
        OwnedSpan { prof: None, node: 0 }
    }

    fn exit(&self, node: usize) {
        let mut core = self.core();
        let Some(live) = core.stack.pop() else { return };
        debug_assert_eq!(live.node, node, "span guards must drop in stack order");
        let elapsed = u64::try_from(live.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let n = &mut core.nodes[live.node];
        n.enters += 1;
        n.total_ns += elapsed;
        n.self_ns += elapsed.saturating_sub(live.child_ns);
        if let Some(below) = core.stack.last_mut() {
            below.child_ns += elapsed;
        }
    }

    /// Records the highest virtual time this profiler's run covered
    /// (kept as a max, so repeated runs compose).
    pub fn note_sim_us(&self, us: u64) {
        let mut core = self.core();
        core.sim_us = core.sim_us.max(us);
    }

    /// The deterministic structural side: one `path enters` line per
    /// entered component, lexicographically sorted, plus the covered
    /// virtual time. `engine/sample` is left out: load sampling rides
    /// the clock cadence rather than the workload. The root's line (if
    /// entered) is `run N`.
    pub fn structure(&self) -> String {
        let core = self.core();
        let mut lines = Vec::new();
        core.walk(&mut |path, node| {
            if node.enters == 0 || path == "engine/sample" {
                return;
            }
            let shown = if path.is_empty() { ROOT } else { path };
            lines.push(format!("{shown} {}", node.enters));
        });
        lines.sort();
        lines.push(format!("sim_us {}", core.sim_us));
        let mut out = lines.join("\n");
        out.push('\n');
        out
    }

    /// Every component node, flattened and sorted by path (root first,
    /// with the empty path). Interior nodes that were named in a path
    /// but never entered themselves appear with `enters == 0`.
    pub fn rows(&self) -> Vec<Row> {
        let core = self.core();
        let mut rows = Vec::new();
        core.walk(&mut |path, node| {
            rows.push(Row {
                path: path.to_owned(),
                enters: node.enters,
                total_ns: node.total_ns,
                self_ns: node.self_ns,
            });
        });
        rows.sort_by(|a, b| a.path.cmp(&b.path));
        rows
    }

    /// Total measured wall time (the root span's inclusive time; zero
    /// if the caller never wrapped the run in a root span).
    pub fn total_ns(&self) -> u64 {
        self.core().nodes[0].total_ns
    }

    /// Wall time not attributed to any named component (the root's
    /// exclusive time — reported as `other`).
    pub fn other_ns(&self) -> u64 {
        self.core().nodes[0].self_ns
    }

    /// Covered virtual time in microseconds.
    pub fn sim_us(&self) -> u64 {
        self.core().sim_us
    }

    /// Fraction of the measured run attributed to named components, in
    /// `[0, 1]`; `1.0` when nothing was measured.
    pub fn attributed_fraction(&self) -> f64 {
        let core = self.core();
        let total = core.nodes[0].total_ns;
        if total == 0 {
            return 1.0;
        }
        1.0 - (core.nodes[0].self_ns as f64 / total as f64)
    }

    /// Collapsed-stack flamegraph text (`inferno` / `flamegraph.pl`
    /// compatible): one `run;a;b self_ns` line per entered component,
    /// sorted. Self-times are disjoint by construction, so the rendered
    /// widths are exact.
    pub fn flamegraph(&self) -> String {
        let core = self.core();
        let mut lines = Vec::new();
        core.walk(&mut |path, node| {
            if node.enters == 0 {
                return;
            }
            let stack = if path.is_empty() {
                ROOT.to_owned()
            } else {
                format!("{ROOT};{}", path.replace('/', ";"))
            };
            lines.push(format!("{stack} {}", node.self_ns));
        });
        lines.sort();
        let mut out = lines.join("\n");
        out.push('\n');
        out
    }

    /// Self-describing single-line JSON summary (nondeterministic ns
    /// totals plus the deterministic structure), suitable for embedding
    /// in a run-ledger row.
    pub fn json_summary(&self) -> String {
        let rows = self.rows();
        let core = self.core();
        let total = core.nodes[0].total_ns;
        let other = core.nodes[0].self_ns;
        let sim_us = core.sim_us;
        drop(core);
        let attributed =
            if total == 0 { 100.0 } else { 100.0 * (1.0 - other as f64 / total as f64) };
        let mut out = format!(
            "{{\"kind\":\"ps-prof\",\"v\":1,\"total_ns\":{total},\"other_ns\":{other},\"attributed_pct\":{attributed:.1},\"sim_us\":{sim_us},\"spans\":["
        );
        let mut first = true;
        for r in rows.iter().filter(|r| !r.path.is_empty()) {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"path\":\"{}\",\"enters\":{},\"total_ns\":{},\"self_ns\":{}}}",
                r.path, r.enters, r.total_ns, r.self_ns
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let p = Profiler::disabled();
        {
            let _a = p.span(&["engine", "dispatch"]);
        }
        assert_eq!(p.rows().len(), 1); // just the (un-entered) root
        assert_eq!(p.structure(), "sim_us 0\n");
        assert_eq!(p.total_ns(), 0);
        assert_eq!(p.attributed_fraction(), 1.0);
    }

    #[test]
    fn fixed_paths_are_independent_of_call_nesting() {
        let p = Profiler::enabled();
        {
            let _root = p.span(&[]);
            let _a = p.span(&["engine", "dispatch"]);
            // Entered while dispatch is live, but lands at its own
            // absolute path, not under engine/dispatch.
            let _b = p.span(&["obs", "record"]);
        }
        let rows = p.rows();
        let paths: Vec<&str> = rows.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(paths, vec!["", "engine", "engine/dispatch", "obs", "obs/record"]);
        // "engine" exists as an interior node but was never entered
        // itself. Interior nodes only appear in rows once entered or as
        // ancestors; enters stays 0.
        let engine = &p.rows()[1];
        assert_eq!(engine.enters, 0);
    }

    #[test]
    fn self_times_are_disjoint_and_sum_to_total() {
        let p = Profiler::enabled();
        {
            let _root = p.span(&[]);
            for _ in 0..10 {
                let _a = p.span(&["engine", "dispatch"]);
                let _b = p.span(&["stack", "layer"]);
                std::hint::black_box(0u64);
            }
        }
        let rows = p.rows();
        let total = p.total_ns();
        let self_sum: u64 = rows.iter().map(|r| r.self_ns).sum();
        assert!(total > 0);
        // Exclusive times partition the root total exactly (all
        // arithmetic is on the same monotonic samples).
        assert_eq!(self_sum, total);
        assert!(p.attributed_fraction() <= 1.0);
    }

    #[test]
    fn structure_counts_enters_and_sorts() {
        let p = Profiler::enabled();
        for _ in 0..3 {
            let _a = p.span(&["engine", "wheel", "pop"]);
        }
        {
            let _s = p.span(&["engine", "sample"]);
        }
        p.note_sim_us(500);
        assert_eq!(p.structure(), "engine/wheel/pop 3\nsim_us 500\n");
    }

    #[test]
    fn flamegraph_lines_parse_as_stack_and_count() {
        let p = Profiler::enabled();
        {
            let _root = p.span(&[]);
            let _a = p.span(&["engine", "transmit"]);
        }
        for line in p.flamegraph().lines() {
            let (stack, n) = line.rsplit_once(' ').expect("collapsed line");
            assert!(stack.starts_with(ROOT));
            let _: u64 = n.parse().expect("self ns");
        }
        assert!(p.flamegraph().contains("run;engine;transmit "));
    }

    #[test]
    fn json_summary_is_self_describing() {
        let p = Profiler::enabled();
        {
            let _root = p.span(&[]);
            let _a = p.span(&["obs", "record"]);
        }
        let j = p.json_summary();
        assert!(j.starts_with("{\"kind\":\"ps-prof\",\"v\":1,"));
        assert!(j.contains("\"path\":\"obs/record\""));
        assert!(j.contains("\"attributed_pct\":"));
    }
}
