//! `repro explain` — switch critical-path attribution from the causal
//! trace.
//!
//! The explain run is the monitored crossover scenario
//! ([`crate::monitor_run`]) re-read through `ps-obs`'s [`CausalGraph`]:
//! every switch attempt in the trace gets a deterministic per-phase
//! attribution table (network transit / CPU service / queueing wait /
//! timer slack along the prepare→drain→flip→release critical path). If
//! any streaming monitor reported a violation, the run also captures a
//! [`PostmortemBundle`] ([`RunOutcome::postmortem`]: the violation
//! witnesses plus their k-hop causal past and the overlapping
//! load-sampler window), which `--out DIR` writes to disk as
//! JSON-lines plus a Chrome trace.
//!
//! Everything here is deterministic: the same seed renders byte-identical
//! tables and writes byte-identical bundles, so `explain` output can be
//! diffed across engines and invocations.

use crate::experiments::{Artefacts, Ask};
use crate::monitor_run::{self, MonitorRunConfig};
use crate::scenario::RunOutcome;
use ps_obs::{attribution_table, CausalGraph, CriticalPath, PostmortemBundle};
use std::fmt::Write as _;

/// Result of `repro explain`.
pub struct ExplainResult {
    /// Per-attempt critical paths, in trace order.
    pub paths: Vec<CriticalPath>,
    /// Causal-graph lint findings (empty on a healthy trace).
    pub lint: Vec<String>,
    /// Post-mortem of the failure, when there was one.
    pub bundle: Option<PostmortemBundle>,
    /// The underlying monitored run.
    pub run: RunOutcome,
}

/// Runs the monitored crossover scenario and explains its switches.
pub fn run(cfg: &MonitorRunConfig) -> ExplainResult {
    let r = monitor_run::run(cfg);
    let graph = CausalGraph::new(&r.events);
    let lint = graph.lint(r.overwritten, &[]);
    let paths = graph.switch_attempts();
    let bundle = (!r.violations.is_empty()).then(|| r.postmortem("monitor_violation"));
    ExplainResult { paths, lint, bundle, run: r }
}

/// `repro explain`: the attribution tables and, when a monitor fired,
/// the post-mortem. Never fails: it explains runs, it does not judge them.
pub(crate) fn artefacts(ask: &Ask) -> Artefacts {
    let cfg = ask.monitor_cfg();
    let res = run(&cfg);
    Artefacts::new(render(&res), cfg.seed, format!("{cfg:?}")).postmortem(res.bundle.as_ref())
}

/// Renders the per-attempt attribution tables plus the trace verdicts.
pub fn render(res: &ExplainResult) -> String {
    let mut out = String::new();
    out.push_str("explain — switch critical-path attribution (causal trace)\n\n");
    out.push_str(&attribution_table(&res.paths));
    out.push('\n');
    if res.lint.is_empty() {
        let _ = writeln!(out, "causal lint: clean ({} events)", res.run.events.len());
    } else {
        let _ = writeln!(out, "causal lint: {} finding(s)", res.lint.len());
        for l in &res.lint {
            let _ = writeln!(out, "  {l}");
        }
    }
    match res.run.violations.len() {
        0 => out.push_str("monitors: no violations\n"),
        n => {
            let _ = writeln!(out, "monitors: {n} violation(s)");
            for v in &res.run.violations {
                let _ = writeln!(out, "  {}", crate::report::violation(v));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_obs::ObsEvent;

    #[test]
    fn clean_quick_run_attributes_both_switches() {
        let res = run(&MonitorRunConfig::quick());
        if res.run.sent == 0 {
            return; // tap feature off: no events recorded
        }
        assert!(res.lint.is_empty(), "{:?}", res.lint);
        assert!(res.run.violations.is_empty());
        assert!(res.bundle.is_none(), "clean run must not capture a post-mortem");
        // The quick crossover scenario completes a forward and a reverse
        // switch; both must appear with full phase coverage.
        assert!(res.paths.len() >= 2, "{:?}", res.paths);
        for p in &res.paths {
            assert!(p.completed, "{p:?}");
            let names: Vec<&str> = p.phases.iter().map(|ph| ph.phase).collect();
            assert_eq!(names, ["prepare", "drain", "flip", "release"], "{p:?}");
            for ph in &p.phases {
                assert!(ph.attributed_us() == ph.total_us(), "buckets must sum exactly: {ph:?}");
            }
        }
        let text = render(&res);
        assert!(text.contains("switch attempt 1"));
        assert!(text.contains("causal lint: clean"));
    }

    #[test]
    fn fault_run_captures_a_lintable_bundle_with_the_witness() {
        let cfg = MonitorRunConfig { inject_fault: true, ..MonitorRunConfig::quick() };
        let res = run(&cfg);
        if res.run.sent == 0 {
            return; // tap feature off
        }
        let bundle = res.bundle.as_ref().expect("violation must produce a bundle");
        assert_eq!(bundle.reason, "monitor_violation");
        assert!(!bundle.witnesses.is_empty());
        assert!(bundle.slice.iter().any(|e| matches!(e.ev, ObsEvent::AppDeliver { .. })
            && e.node == u32::from(monitor_run::FAULT_NODE)));
        // The bundle round-trips through the parser and lints clean.
        let parsed = ps_obs::parse_jsonl(&bundle.to_jsonl()).expect("bundle parses");
        let g = CausalGraph::new(&parsed.events);
        assert!(g.lint(parsed.overwritten, &parsed.truncated_parents).is_empty());
    }
}
