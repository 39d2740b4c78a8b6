//! §7 switching overhead: "the overhead of switching near the cross-over
//! point is about 31 msecs. Processes are never blocked from sending
//! during switching, so the perceived hiccup is often less than that."
//!
//! We trigger one controlled switch in each direction at several load
//! levels and report: (a) the switch duration — PREPARE seen to buffer
//! released, maximised over members; and (b) the application-perceived
//! hiccup — the largest delivery gap at a non-initiator during the switch
//! window, compared against the steady-state gap. The paper's observation
//! that overhead tracks the latency of the protocol being switched *away
//! from* shows up as token→sequencer switches costing more than
//! sequencer→token at low load, and the reverse under congestion.

use crate::measure::max_delivery_gap;
use crate::report::Table;
use crate::scenario::{Policy, Scenario};
use ps_core::{Proto, SwitchConfig, SwitchVariant};
use ps_simnet::SimTime;
use ps_trace::ProcessId;
use ps_workload::TrafficSpec;

/// Group size.
const GROUP: u16 = 10;
/// Per-sender rate (msg/s) and message body size: Figure 2's load.
const RATE: f64 = 50.0;
const BODY_BYTES: usize = 2048;
/// When the forward (0→1) and the reverse (1→0) switch fire.
const SWITCH_AT: SimTime = SimTime::from_secs(1);
const SWITCH_BACK_AT: SimTime = SimTime::from_secs(2);
/// Workload end.
const END: SimTime = SimTime::from_secs(3);
/// The experiment's seed.
pub const SEED: u64 = 0x0E4D;

/// Configuration of the overhead experiment.
#[derive(Debug, Clone)]
pub struct OverheadConfig {
    /// Active-sender counts to probe (defaults bracket the crossover).
    pub senders: Vec<u16>,
}

impl Default for OverheadConfig {
    fn default() -> Self {
        Self { senders: vec![2, 4, 5, 6] }
    }
}

impl OverheadConfig {
    /// Reduced probe for tests.
    pub fn quick() -> Self {
        Self { senders: vec![2, 5] }
    }
}

/// Measurements for one switch at one load level.
#[derive(Debug, Clone)]
pub struct SwitchCost {
    /// Active senders during the switch.
    pub senders: u16,
    /// Direction: `(from, to)` protocol indices.
    pub direction: (usize, usize),
    /// Duration at the initiator.
    pub initiator_duration: SimTime,
    /// Worst duration across members.
    pub max_duration: SimTime,
    /// Largest delivery gap at a probe member during the switch window.
    pub hiccup: SimTime,
    /// Largest delivery gap at the same member in steady state.
    pub steady_gap: SimTime,
}

/// Full result: one row per (load, direction).
#[derive(Debug, Clone)]
pub struct OverheadResult {
    /// All measured switches.
    pub costs: Vec<SwitchCost>,
}

/// Runs the experiment.
pub fn run(cfg: &OverheadConfig) -> OverheadResult {
    let mut costs = Vec::new();
    for &k in &cfg.senders {
        let traffic = TrafficSpec {
            group: GROUP,
            senders: k,
            rate: RATE,
            body_bytes: BODY_BYTES,
            end: END,
            seed: SEED ^ u64::from(k),
            ..TrafficSpec::default()
        };
        let switch = SwitchConfig {
            variant: SwitchVariant::TokenRing { idle_hold: SimTime::from_millis(2) },
            observe_interval: SimTime::from_millis(20),
            ..SwitchConfig::default()
        };
        let plan = vec![(SWITCH_AT, 1), (SWITCH_BACK_AT, 0)];
        let r = Scenario::new(GROUP, SEED ^ (u64::from(k) << 10))
            .hybrid(
                Proto::Seq(0),
                Proto::Token(SimTime::from_millis(1)),
                switch,
                Policy::Manual(plan),
            )
            .traffic(traffic.generate())
            .run(END + SimTime::from_secs(2));

        // The probe member for hiccup measurement: the last process (a
        // plain member, not sequencer or initiator).
        let probe = ProcessId(GROUP - 1);
        // Steady-state gap, measured well before the first switch.
        let steady_gap = max_delivery_gap(
            &r.driver,
            probe,
            SimTime::from_millis(300),
            SWITCH_AT.saturating_sub(SimTime::from_millis(100)),
        );
        for (i, &(from, to)) in [(0usize, 1usize), (1, 0)].iter().enumerate() {
            let recs: Vec<_> =
                r.handles.iter().filter_map(|h| h.snapshot().records.get(i).cloned()).collect();
            if recs.len() < usize::from(GROUP) {
                continue; // switch did not complete everywhere
            }
            let initiator_duration = recs[0].duration();
            let max_duration = recs.iter().map(|r| r.duration()).max().unwrap();
            let start = recs.iter().map(|r| r.started_at).min().unwrap();
            let finish = recs.iter().map(|r| r.completed_at).max().unwrap();
            let hiccup = max_delivery_gap(
                &r.driver,
                probe,
                start.saturating_sub(SimTime::from_millis(50)),
                finish + SimTime::from_millis(50),
            );
            costs.push(SwitchCost {
                senders: k,
                direction: (from, to),
                initiator_duration,
                max_duration,
                hiccup,
                steady_gap,
            });
        }
    }
    OverheadResult { costs }
}

/// Renders the result table.
pub fn render(result: &OverheadResult) -> Table {
    let mut t = Table::new(
        "§7 — switching overhead vs. load (paper: ~31 ms near the cross-over)",
        vec![
            "senders",
            "direction",
            "initiator (ms)",
            "worst member (ms)",
            "hiccup (ms)",
            "steady gap (ms)",
        ],
    );
    for c in &result.costs {
        let dir = match c.direction {
            (0, 1) => "seq → token",
            (1, 0) => "token → seq",
            _ => "?",
        };
        t.row(vec![
            c.senders.to_string(),
            dir.into(),
            format!("{:.1}", c.initiator_duration.as_millis_f64()),
            format!("{:.1}", c.max_duration.as_millis_f64()),
            format!("{:.1}", c.hiccup.as_millis_f64()),
            format!("{:.1}", c.steady_gap.as_millis_f64()),
        ]);
    }
    t.note("duration = PREPARE seen → old protocol drained & buffer released, per member");
    t.note("hiccup = worst delivery gap at a plain member during the switch; sends never block");
    t
}
