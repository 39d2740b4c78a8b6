//! §7 oscillation: "If switching too aggressively, the resulting protocol
//! starts oscillating. If we make our protocol less aggressive (by adding
//! a hysteresis), we ran into an unexpected hitch" — the flush cost
//! depending on the old protocol's latency, measured in
//! [`crate::experiments::overhead`].
//!
//! Here: a load that hovers around the crossover, swept over hysteresis
//! widths. Aggressive policies flap; hysteresis damps the flapping and
//! improves delivered latency.

use crate::measure::SteadyStateWindow;
use crate::report::Table;
use crate::scenario::{Policy, Scenario};
use ps_core::{Proto, SwitchConfig, SwitchVariant};
use ps_simnet::SimTime;
use ps_workload::TrafficSpec;

/// Group size.
const GROUP: u16 = 10;
/// Oracle threshold, at the crossover.
const THRESHOLD: usize = 5;
/// Per-sender rate (msg/s) and message body size.
const RATE: f64 = 50.0;
const BODY_BYTES: usize = 1024;
/// The experiment's seed.
pub const SEED: u64 = 0x05C1;

/// Configuration of the oscillation experiment.
#[derive(Debug, Clone)]
pub struct OscillationConfig {
    /// Hysteresis widths to sweep.
    pub hysteresis: Vec<usize>,
    /// Load alternates between one sender below and one above the
    /// threshold every `phase`.
    pub phase: SimTime,
    /// Number of load phases.
    pub phases: usize,
}

impl Default for OscillationConfig {
    fn default() -> Self {
        Self { hysteresis: vec![0, 1, 2], phase: SimTime::from_millis(400), phases: 10 }
    }
}

impl OscillationConfig {
    /// Reduced sweep for tests.
    pub fn quick() -> Self {
        Self { hysteresis: vec![0, 2], phases: 6, ..Self::default() }
    }
}

/// Result for one hysteresis setting.
#[derive(Debug, Clone)]
pub struct OscillationPoint {
    /// Hysteresis width.
    pub hysteresis: usize,
    /// Completed switches over the run.
    pub switches: usize,
    /// Mean delivered latency over the whole run.
    pub mean_latency: SimTime,
}

/// Runs the sweep.
pub fn run(cfg: &OscillationConfig) -> Vec<OscillationPoint> {
    cfg.hysteresis
        .iter()
        .map(|&h| {
            let switch = SwitchConfig {
                variant: SwitchVariant::TokenRing { idle_hold: SimTime::from_millis(2) },
                observe_interval: SimTime::from_millis(50),
                observe_window: SimTime::from_millis(250),
                ..SwitchConfig::default()
            };
            let policy =
                Policy::Threshold { threshold: THRESHOLD, hysteresis: h, cooldown: SimTime::ZERO };
            let mut scenario = Scenario::new(GROUP, SEED ^ ((h as u64) << 4)).hybrid(
                Proto::Seq(0),
                Proto::Token(SimTime::from_millis(1)),
                switch,
                policy,
            );
            // Alternating load phases straddling the threshold.
            let mut t = SimTime::from_millis(100);
            for phase in 0..cfg.phases {
                let k = if phase % 2 == 0 { THRESHOLD - 1 } else { THRESHOLD + 1 };
                let traffic = TrafficSpec {
                    group: GROUP,
                    senders: k as u16,
                    rate: RATE,
                    body_bytes: BODY_BYTES,
                    start: t,
                    end: t + cfg.phase,
                    seed: SEED ^ ((phase as u64) << 8),
                    ..TrafficSpec::default()
                };
                scenario = scenario.traffic(traffic.generate());
                t += cfg.phase;
            }
            let r = scenario.run(t + SimTime::from_secs(2));
            let switches = r.handles.iter().map(|h| h.switches_completed()).max().unwrap_or(0);
            let stats = r.latency(SteadyStateWindow::between(SimTime::from_millis(100), t));
            OscillationPoint { hysteresis: h, switches, mean_latency: stats.mean }
        })
        .collect()
}

/// Renders the sweep.
pub fn render(points: &[OscillationPoint]) -> Table {
    let mut t = Table::new(
        "§7 — oscillation vs. hysteresis (load hovering at the cross-over)",
        vec!["hysteresis", "switches", "mean latency (ms)"],
    );
    for p in points {
        t.row(vec![
            p.hysteresis.to_string(),
            p.switches.to_string(),
            format!("{:.2}", p.mean_latency.as_millis_f64()),
        ]);
    }
    t.note("aggressive (hysteresis 0) switching flaps with the load; wider bands damp it");
    t
}
