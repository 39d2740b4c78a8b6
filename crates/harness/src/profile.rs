//! `repro profile` — host-time attribution of the monitored crossover
//! run.
//!
//! Runs the same scenario as `repro monitor` with an enabled
//! [`ps_prof::Profiler`] attached: the engine (dispatch, event queue,
//! medium transmit, load sampling), every protocol layer, and the
//! observability dispatch (recording, per-sink fan-out) attribute their
//! wall-clock cost into fixed-path spans. The per-component table and
//! collapsed-stack flamegraph come straight from the profiler.
//!
//! Two sides, deliberately separated: the span *structure* (which
//! components ran, how many times, over how much virtual time) is
//! deterministic — byte-identical across same-seed runs — while the
//! nanosecond totals are host noise. The rendered table keeps the
//! deterministic columns first, and `--out DIR` writes them on their own
//! as `DIR/profile.enters.csv`.

use crate::experiments::{Artefacts, Ask};
use crate::monitor_run::{self, MonitorRunConfig};
use crate::report::{self, Table};
use crate::scenario::RunOutcome;
use ps_prof::Profiler;

/// A profiled run: the profiler (query it for tables/flamegraphs) plus
/// the underlying monitor-run result (violations, samples, handles).
pub struct ProfileResult {
    /// The profiler every component attributed into.
    pub prof: Profiler,
    /// The scenario's own outcome, same as a `repro monitor` run's.
    pub run: RunOutcome,
}

/// Runs the monitored crossover scenario under an enabled profiler,
/// with the whole run wrapped in the root span so unattributed host
/// time surfaces as `other`.
pub fn run(cfg: &MonitorRunConfig) -> ProfileResult {
    let prof = Profiler::enabled();
    let run = {
        let _root = prof.span(&[]);
        monitor_run::scenario(cfg).prof(prof.clone()).run(cfg.horizon())
    };
    // Covered virtual time is noted by the engine itself at the end of
    // `run_until`, so nothing to stamp here.
    ProfileResult { prof, run }
}

/// Nanoseconds as a `ms.micros` string.
fn ms(ns: u64) -> String {
    report::ms(ns / 1000)
}

/// `repro profile`: the cost table (host time, so not exact), its
/// `component,enters` columns (exact), the collapsed-stack flamegraph and
/// the profiler's JSON summary for the ledger. Fails on any violation.
pub(crate) fn artefacts(ask: &Ask) -> Artefacts {
    let cfg = ask.monitor_cfg();
    let r = run(&cfg);
    let t = render_table(&r.prof);
    let csv = t.to_csv();
    let rows = csv.lines().filter(|l| !l.starts_with('#'));
    let enters: String =
        rows.map(|l| l.split(',').take(2).collect::<Vec<_>>().join(",") + "\n").collect();
    let violations = r.run.violations.len();
    let mut a = Artefacts::new(ask.print(&t), cfg.seed, format!("{cfg:?}"))
        .count("violations", violations)
        .count("components", t.len())
        .file("enters.csv", true, enters)
        .file("folded", false, r.prof.flamegraph())
        .fail_if(violations > 0, || {
            format!("profile: {violations} property violation(s) detected")
        });
    a.stdout.exact = false;
    a.row.profile = Some(r.prof.json_summary());
    a
}

/// Renders the per-component cost table: one row per entered component
/// (deterministic columns first), a final `other` row for unattributed
/// time, and totals in the notes.
fn render_table(prof: &Profiler) -> Table {
    let mut t = Table::new(
        "profile — host-time attribution by component",
        vec!["component", "enters", "total (ms)", "self (ms)", "self %"],
    );
    let total = prof.total_ns().max(1);
    let pct = |ns: u64| format!("{:.1}", 100.0 * ns as f64 / total as f64);
    for r in prof.rows() {
        if r.enters == 0 || r.path.is_empty() {
            continue; // interior path segments and the root (shown as `other`/notes)
        }
        t.row(vec![r.path, r.enters.to_string(), ms(r.total_ns), ms(r.self_ns), pct(r.self_ns)]);
    }
    let other = prof.other_ns();
    t.row(vec!["other".into(), "-".into(), ms(other), ms(other), pct(other)]);
    t.note(format!(
        "total {} ms host time covering {} ms virtual time",
        ms(prof.total_ns()),
        report::ms(prof.sim_us())
    ));
    t.note(format!(
        "{:.1}% attributed to named components; `other` is the run outside any span",
        100.0 * prof.attributed_fraction()
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> MonitorRunConfig {
        MonitorRunConfig::quick()
    }

    #[test]
    fn profiled_run_attributes_and_stays_clean() {
        let r = run(&quick());
        assert!(r.run.violations.is_empty(), "{:?}", r.run.violations);
        if !r.prof.is_enabled() {
            return; // ps-prof's `prof` feature is off: spans compile away
        }
        assert!(r.prof.total_ns() > 0, "root span must cover the run");
        // The acceptance bar: at least 95% of measured host time lands
        // in named components.
        let frac = r.prof.attributed_fraction();
        assert!(frac >= 0.95, "attributed only {:.1}%", 100.0 * frac);
        let table = render_table(&r.prof);
        assert!(!table.is_empty());
        let text = table.to_string();
        for want in ["engine/dispatch", "engine/transmit", "obs/record", "stack/", "other"] {
            assert!(text.contains(want), "missing {want} in:\n{text}");
        }
        // Flamegraph lines parse as `stack ns` with `;`-joined frames.
        for line in r.prof.flamegraph().lines() {
            let (stack, n) = line.rsplit_once(' ').expect("stack ns");
            assert!(stack.starts_with("run"), "{line}");
            n.parse::<u64>().expect("self ns");
        }
    }
}
