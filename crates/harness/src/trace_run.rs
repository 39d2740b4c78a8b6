//! `repro trace` — a fully instrumented switch run.
//!
//! One group, one controlled switch in each direction, with a `ps-obs`
//! recorder attached to the simulator. The run produces:
//!
//! * a structured event trace, exportable as JSON-lines or as a Chrome
//!   `trace_event` file (`--trace out.json --trace-format chrome`);
//! * the per-process switch-phase timeline table — the paper's §7
//!   switching-overhead measurement, but read back out of the recorder
//!   instead of the live [`ps_core::SwitchHandle`] counters (the two must agree;
//!   `tests/obs_props.rs` checks that they do).
//!
//! Everything is virtual-time deterministic: two runs with the same seed
//! export byte-identical files, serial or under the parallel sweep runner.

use crate::report::{ms, Table};
use crate::scenario::{Policy, RunOutcome, Scenario};
use ps_core::{Proto, SwitchConfig, SwitchVariant};
use ps_obs::export;
use ps_simnet::SimTime;
use ps_workload::TrafficSpec;

/// Message body size.
const BODY_BYTES: usize = 512;

/// Output format for the exported trace file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceFormat {
    /// One JSON object per event, one event per line.
    #[default]
    Jsonl,
    /// A Chrome `trace_event` document for `about://tracing` / Perfetto.
    Chrome,
}

impl TraceFormat {
    /// Parses a `--trace-format` argument.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "jsonl" => Some(Self::Jsonl),
            "chrome" => Some(Self::Chrome),
            _ => None,
        }
    }
}

/// Configuration of the traced switch run.
#[derive(Debug, Clone)]
pub struct TraceRunConfig {
    /// Group size.
    pub group: u16,
    /// Active senders.
    pub senders: u16,
    /// Per-sender rate (msg/s).
    pub rate: f64,
    /// When the forward (0→1) switch fires.
    pub switch_at: SimTime,
    /// When the reverse (1→0) switch fires.
    pub switch_back_at: SimTime,
    /// Workload end.
    pub end: SimTime,
    /// Seed.
    pub seed: u64,
}

impl Default for TraceRunConfig {
    fn default() -> Self {
        Self {
            group: 6,
            senders: 3,
            rate: 40.0,
            switch_at: SimTime::from_millis(600),
            switch_back_at: SimTime::from_millis(1400),
            end: SimTime::from_secs(2),
            seed: 0x0B5,
        }
    }
}

impl TraceRunConfig {
    /// Reduced run for tests and the CI smoke.
    pub fn quick() -> Self {
        Self {
            group: 4,
            senders: 2,
            rate: 25.0,
            switch_at: SimTime::from_millis(300),
            switch_back_at: SimTime::from_millis(700),
            end: SimTime::from_secs(1),
            ..Self::default()
        }
    }
}

/// Runs the instrumented switch scenario.
pub fn run(cfg: &TraceRunConfig) -> RunOutcome {
    let traffic = TrafficSpec {
        group: cfg.group,
        senders: cfg.senders,
        rate: cfg.rate,
        body_bytes: BODY_BYTES,
        end: cfg.end,
        seed: cfg.seed,
        ..TrafficSpec::default()
    };
    let switch = SwitchConfig {
        variant: SwitchVariant::TokenRing { idle_hold: SimTime::from_millis(2) },
        observe_interval: SimTime::from_millis(20),
        ..SwitchConfig::default()
    };
    let plan = vec![(cfg.switch_at, 1), (cfg.switch_back_at, 0)];
    Scenario::new(cfg.group, cfg.seed ^ 0x7ace)
        .hybrid(Proto::Seq(0), Proto::Token(SimTime::from_millis(1)), switch, Policy::Manual(plan))
        .traffic(traffic.generate())
        .watch(SimTime::from_millis(500))
        .run(cfg.end + SimTime::from_secs(1))
}

/// Exports the recorded events in the requested format. Both formats
/// carry the ring's eviction count, so downstream tooling (`trace_lint`)
/// can tell a complete trace from a wrapped one.
pub fn export(result: &RunOutcome, format: TraceFormat) -> String {
    match format {
        TraceFormat::Jsonl => export::to_jsonl_with(&result.events, result.overwritten),
        TraceFormat::Chrome => export::to_chrome_with(&result.events, result.overwritten),
    }
}

/// Renders the per-process switch-phase timeline — §7's overhead
/// measurement as a view over the recorder.
pub fn render_timeline(result: &RunOutcome) -> Table {
    let mut t = Table::new(
        "trace — per-process switch-phase timeline (from the event recorder)",
        vec![
            "process",
            "direction",
            "prepare (ms)",
            "drain (ms)",
            "flip (ms)",
            "release (ms)",
            "duration (ms)",
        ],
    );
    let opt = |v: Option<u64>| v.map_or_else(|| "-".to_owned(), ms);
    for iv in &ps_obs::switch_timeline(&result.events) {
        t.row(vec![
            iv.node.to_string(),
            format!("{} → {}", iv.from, iv.to),
            ms(iv.prepare_at_us),
            opt(iv.drain_at_us),
            opt(iv.flip_at_us),
            opt(iv.release_at_us),
            opt(iv.duration_us()),
        ]);
    }
    t.note("duration = PREPARE seen → flip, per process; matches SwitchRecord::duration()");
    if result.overwritten > 0 {
        t.note(format!(
            "ring overflowed: {} oldest events evicted — shorten the run for a full trace",
            result.overwritten
        ));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_run_completes_both_switches_everywhere() {
        let cfg = TraceRunConfig::quick();
        let r = run(&cfg);
        assert_eq!(r.overwritten, 0, "quick run must fit in the ring");
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        // Every process completed the forward and the reverse switch.
        let timeline = ps_obs::switch_timeline(&r.events);
        let complete = timeline.iter().filter(|iv| iv.flip_at_us.is_some()).count();
        assert_eq!(complete, usize::from(cfg.group) * 2, "{timeline:?}");
        ps_obs::check_well_nested(&r.events).expect("switch phases well-nested");
    }

    #[test]
    fn recorder_timeline_agrees_with_live_handles() {
        let r = run(&TraceRunConfig::quick());
        for (node, handle) in r.handles.iter().enumerate() {
            let live = handle.snapshot().records;
            let reconstructed = ps_core::SwitchRecord::from_events(node as u32, &r.events);
            assert_eq!(reconstructed, live, "node {node}");
        }
    }

    #[test]
    fn exports_are_deterministic_across_runs() {
        let cfg = TraceRunConfig::quick();
        let (a, b) = (run(&cfg), run(&cfg));
        assert_eq!(export(&a, TraceFormat::Jsonl), export(&b, TraceFormat::Jsonl));
        assert_eq!(export(&a, TraceFormat::Chrome), export(&b, TraceFormat::Chrome));
        assert!(!export(&a, TraceFormat::Jsonl).is_empty());
    }

    #[test]
    fn exports_validate_as_json() {
        let r = run(&TraceRunConfig::quick());
        ps_obs::json::validate_lines(&export(&r, TraceFormat::Jsonl)).expect("jsonl");
        ps_obs::json::validate(&export(&r, TraceFormat::Chrome)).expect("chrome");
    }

    #[test]
    fn timeline_table_has_a_row_per_completed_switch() {
        let r = run(&TraceRunConfig::quick());
        let t = render_timeline(&r);
        assert_eq!(t.len(), ps_obs::switch_timeline(&r.events).len());
    }
}
