//! `repro chaos` — crash/recovery and partition fault injection for the
//! switching protocol, run as a declarative scenario matrix.
//!
//! Each scenario runs the fault-tolerant hybrid stack (two sequencer
//! protocols over reliable transport, reliable switch-control channel —
//! [`ps_core::hybrid_total_order_ft`]'s pair) through one scripted
//! switch while a fault fires around it:
//!
//! * **crash/recovery** — one node fail-stops before, during, or after
//!   the switch and comes back a while later (state kept, timers dead);
//!   the victim is either the sequencer/initiator (process 0) or a plain
//!   member;
//! * **partition** — the group splits before the switch attempt so the
//!   PREPARE can never reach the far side; the near side's phase timeout
//!   must abort the attempt and revert;
//! * **loss** — every frame copy (including control traffic) is dropped
//!   with 0–40% probability, alone or on top of a crash.
//!
//! Every run streams its event feed through the standard
//! [`ps_obs::MonitorSet`] (total order, per-sender FIFO, delivery accounting,
//! switch liveness), so each row of the report proves its properties
//! held *while the fault was active*. A scenario passes iff its final
//! outcome matches the expectation (`completed` or `aborted` — never
//! `wedged`) and no monitor reported a violation.
//!
//! The matrix is deterministic: scenario seeds are fixed, and the sweep
//! runner merges results in input order, so the rendered report is
//! byte-identical across runs and worker counts.

use crate::report::{self, Table};
use crate::scenario::{Policy, Scenario};
use crate::sweep::SweepRunner;
use ps_core::{Proto, SwitchConfig, SwitchHandle, SwitchVariant};
use ps_obs::{ObsEvent, SpPhase, TimedEvent, Violation};
use ps_simnet::{Medium, NodeId, PartitionSchedule, PointToPoint, SimTime};
use ps_trace::ProcessId;

/// Group size (process 0 is sequencer of protocol 0 and the decider;
/// process 1 is sequencer of protocol 1).
const GROUP: u16 = 4;
/// Virtual end of every run (faults all resolve well before this).
const END: SimTime = SimTime::from_secs(3);
/// Switch-liveness bound for the monitors; must exceed the longest crash
/// outage a switch is expected to ride out.
const LIVENESS_BOUND: SimTime = SimTime::from_millis(1500);

/// When the victim fail-stops, relative to the scripted switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashTiming {
    /// Down before the switch starts and still down when it is requested.
    BeforeSwitch,
    /// Fail-stop a few milliseconds into the switch.
    DuringSwitch,
    /// Fail-stop after the whole group has flipped.
    AfterSwitch,
}

impl CrashTiming {
    fn as_str(self) -> &'static str {
        match self {
            CrashTiming::BeforeSwitch => "before",
            CrashTiming::DuringSwitch => "during",
            CrashTiming::AfterSwitch => "after",
        }
    }
}

/// The fault a scenario injects.
#[derive(Debug, Clone, Copy)]
pub enum Fault {
    /// No structural fault (loss-only baseline rows).
    None,
    /// Fail-stop `victim` at `at`; recover it at `back`.
    Crash {
        /// Node that fail-stops.
        victim: u16,
        /// Crash instant.
        at: SimTime,
        /// Recovery instant.
        back: SimTime,
    },
    /// Split nodes `0..split` from `split..group` at `at`; heal at `back`.
    Partition {
        /// First node of the far side.
        split: u16,
        /// Partition instant.
        at: SimTime,
        /// Heal instant.
        back: SimTime,
    },
}

/// How a scenario ended, judged from the per-process switch handles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Every process completed the switch and runs the new protocol.
    Completed,
    /// Nobody completed it; at least one process abandoned the attempt on
    /// timeout and everyone reverted to the old protocol.
    Aborted,
    /// Disagreement or a process stuck in switching mode — the failure
    /// the abort path exists to prevent.
    Wedged,
}

impl Outcome {
    fn as_str(self) -> &'static str {
        match self {
            Outcome::Completed => "completed",
            Outcome::Aborted => "aborted",
            Outcome::Wedged => "WEDGED",
        }
    }
}

/// One declarative chaos scenario.
#[derive(Debug, Clone)]
pub struct ChaosScenario {
    /// Row label, unique within a matrix.
    pub name: String,
    /// Simulation seed.
    pub seed: u64,
    /// Switching-protocol variant under test.
    pub variant: SwitchVariant,
    /// When the scripted oracle requests the 0→1 switch.
    pub switch_at: SimTime,
    /// The injected fault.
    pub fault: Fault,
    /// Per-copy frame loss probability (0.0–1.0).
    pub loss: f64,
    /// Switch-attempt abort deadline for this scenario.
    pub phase_timeout: SimTime,
    /// The outcome the scenario must end as.
    pub expect: Outcome,
}

/// The scenario matrix.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// The scenarios to run.
    pub scenarios: Vec<ChaosScenario>,
}

const SWITCH_AT: SimTime = SimTime::from_millis(60);

fn variant_tag(v: SwitchVariant) -> &'static str {
    match v {
        SwitchVariant::Broadcast => "bcast",
        SwitchVariant::TokenRing { .. } => "token",
    }
}

fn crash_scenario(
    variant: SwitchVariant,
    timing: CrashTiming,
    victim: u16,
    loss: f64,
    seed: u64,
) -> ChaosScenario {
    let (at, back) = match timing {
        CrashTiming::BeforeSwitch => (SimTime::from_millis(30), SimTime::from_millis(110)),
        CrashTiming::DuringSwitch => (SimTime::from_millis(63), SimTime::from_millis(150)),
        CrashTiming::AfterSwitch => (SimTime::from_millis(95), SimTime::from_millis(160)),
    };
    let role = if victim == 0 { "seq" } else { "member" };
    ChaosScenario {
        name: format!(
            "{}/crash-{}/{}{}",
            variant_tag(variant),
            timing.as_str(),
            role,
            if loss > 0.0 { format!("/loss{}", (loss * 100.0) as u32) } else { String::new() }
        ),
        seed,
        variant,
        switch_at: SWITCH_AT,
        fault: Fault::Crash { victim, at, back },
        loss,
        phase_timeout: SimTime::from_secs(2),
        expect: Outcome::Completed,
    }
}

fn loss_baseline(variant: SwitchVariant, loss: f64, seed: u64) -> ChaosScenario {
    ChaosScenario {
        name: format!("{}/loss{}", variant_tag(variant), (loss * 100.0) as u32),
        seed,
        variant,
        switch_at: SWITCH_AT,
        fault: Fault::None,
        loss,
        phase_timeout: SimTime::from_secs(2),
        expect: Outcome::Completed,
    }
}

fn partition_scenario(seed: u64) -> ChaosScenario {
    ChaosScenario {
        name: "bcast/partition-spanning-switch".to_owned(),
        seed,
        variant: SwitchVariant::Broadcast,
        // The group is split 150–800 ms; the switch is requested at 200 ms
        // with the workload already quiescent, so the PREPARE can never
        // cross and the attempt must abort on the phase timeout.
        switch_at: SimTime::from_millis(200),
        fault: Fault::Partition {
            split: 2,
            at: SimTime::from_millis(150),
            back: SimTime::from_millis(800),
        },
        loss: 0.0,
        phase_timeout: SimTime::from_millis(400),
        expect: Outcome::Aborted,
    }
}

fn token_variant() -> SwitchVariant {
    SwitchVariant::TokenRing { idle_hold: SimTime::from_millis(1) }
}

impl ChaosConfig {
    /// The full matrix: crash before/during/after the switch × sequencer
    /// vs. member victim × both protocol variants, loss sweeps, loss-only
    /// baselines, and the partition-spanning abort.
    pub fn full() -> Self {
        let mut scenarios = Vec::new();
        let mut seed = 0xC4A0_5000u64;
        let mut next = || {
            seed += 1;
            seed
        };
        for variant in [SwitchVariant::Broadcast, token_variant()] {
            for timing in
                [CrashTiming::BeforeSwitch, CrashTiming::DuringSwitch, CrashTiming::AfterSwitch]
            {
                for victim in [0u16, 2] {
                    scenarios.push(crash_scenario(variant, timing, victim, 0.0, next()));
                }
            }
            // Crash-during-switch under frame loss: both fault kinds live.
            for loss in [0.2, 0.4] {
                scenarios.push(crash_scenario(variant, CrashTiming::DuringSwitch, 2, loss, next()));
            }
            // Loss alone must not wedge a switch either.
            scenarios.push(loss_baseline(variant, 0.4, next()));
        }
        scenarios.push(partition_scenario(next()));
        Self { scenarios }
    }

    /// A reduced matrix for tests and the CI smoke: one crash per victim
    /// role, one lossy crash, and the partition abort.
    pub fn quick() -> Self {
        let scenarios = vec![
            crash_scenario(
                SwitchVariant::Broadcast,
                CrashTiming::DuringSwitch,
                0,
                0.0,
                0xC4A0_5101,
            ),
            crash_scenario(token_variant(), CrashTiming::DuringSwitch, 2, 0.0, 0xC4A0_5102),
            crash_scenario(
                SwitchVariant::Broadcast,
                CrashTiming::DuringSwitch,
                2,
                0.4,
                0xC4A0_5103,
            ),
            partition_scenario(0xC4A0_5104),
        ];
        Self { scenarios }
    }
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self::full()
    }
}

/// Result of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// The scenario that ran.
    pub scenario: ChaosScenario,
    /// How the run actually ended.
    pub outcome: Outcome,
    /// Switching-protocol phase the victim was in when it crashed
    /// (`normal` if it was not mid-switch; `None` without a crash fault).
    pub phase_at_crash: Option<String>,
    /// Completed switches per process.
    pub completed: Vec<usize>,
    /// Abandoned attempts per process.
    pub aborted: Vec<u64>,
    /// All monitor violations.
    pub violations: Vec<Violation>,
    /// Application messages the monitors saw sent.
    pub sent: usize,
    /// Whether outcome matched the expectation with zero violations.
    pub pass: bool,
    /// Post-mortem flight-recorder bundle, captured iff the scenario
    /// failed (`repro chaos --postmortem PATH` writes the first one).
    pub postmortem: Option<ps_obs::PostmortemBundle>,
}

/// The switching-protocol phase `victim` was in when it first crashed
/// (`normal` outside a switch; `None` if it never crashed), read off the
/// recorded events — a chaos run fits the recorder's ring whole.
fn phase_at_crash(events: &[TimedEvent], victim: u32) -> Option<String> {
    let mut phase = None;
    for e in events.iter().filter(|e| e.node == victim) {
        match e.ev {
            // BufferRelease and Aborted both end the switching interval:
            // afterwards the node is in normal mode again.
            ObsEvent::SwitchPhase { phase: SpPhase::BufferRelease | SpPhase::Aborted, .. } => {
                phase = None;
            }
            ObsEvent::SwitchPhase { phase: p, .. } => phase = Some(p),
            ObsEvent::NodeCrash { .. } => {
                return Some(phase.map_or("normal", SpPhase::as_str).to_owned());
            }
            _ => {}
        }
    }
    None
}

/// Runs one scenario and judges it.
pub fn run_scenario(sc: &ChaosScenario) -> ScenarioResult {
    let mut medium: Box<dyn Medium> = Box::new(PointToPoint::new(SimTime::from_micros(300)));
    if let Fault::Partition { split, at, back } = sc.fault {
        let near: Vec<NodeId> = (0..u32::from(split)).map(NodeId).collect();
        let far: Vec<NodeId> = (u32::from(split)..u32::from(GROUP)).map(NodeId).collect();
        medium = Box::new(
            PartitionSchedule::new(medium).partition_at(at, vec![near, far]).heal_at(back),
        );
    }
    let switch = SwitchConfig {
        variant: sc.variant,
        observe_interval: SimTime::from_millis(10),
        phase_timeout: sc.phase_timeout,
        retransmit_base: SimTime::from_millis(40),
        retransmit_max: SimTime::from_millis(160),
        token_regen: SimTime::from_millis(100),
        ..SwitchConfig::default()
    };
    let mut s = Scenario::new(GROUP, sc.seed)
        .medium(medium)
        .loss(sc.loss)
        .hybrid(Proto::SeqFt(0), Proto::SeqFt(1), switch, Policy::Manual(vec![(sc.switch_at, 1)]))
        .watch(LIVENESS_BOUND);

    // Workload: for crash scenarios the victim stays quiet until after its
    // recovery; the partition scenario quiesces entirely before the split
    // (the abort's buffer absorption then has nothing to reorder).
    match sc.fault {
        Fault::Partition { at, .. } => {
            let mut t = SimTime::from_millis(2);
            let mut i = 0u64;
            while t + SimTime::from_millis(20) < at {
                s = s.send_at(t, ProcessId((i % u64::from(GROUP)) as u16), format!("q{i}"));
                t += SimTime::from_millis(5);
                i += 1;
                if i >= 12 {
                    break;
                }
            }
        }
        Fault::Crash { victim, at, back } => {
            let senders: Vec<u16> = (0..GROUP).filter(|&p| p != victim).collect();
            for i in 0..30u64 {
                let p = senders[(i as usize) % senders.len()];
                s = s.send_at(SimTime::from_millis(2 + 5 * i), ProcessId(p), format!("c{i}"));
            }
            for i in 0..3u64 {
                s = s.send_at(
                    back + SimTime::from_millis(50 + 10 * i),
                    ProcessId(victim),
                    format!("v{i}"),
                );
            }
            s = s.crash(victim, at, back);
        }
        Fault::None => {
            for i in 0..30u64 {
                s = s.send_at(
                    SimTime::from_millis(2 + 5 * i),
                    ProcessId((i % u64::from(GROUP)) as u16),
                    format!("n{i}"),
                );
            }
        }
    }

    let r = s.run(END);
    let completed: Vec<usize> = r.handles.iter().map(SwitchHandle::switches_completed).collect();
    let aborted: Vec<u64> = r.handles.iter().map(SwitchHandle::aborted).collect();
    let outcome = if r.wedged() {
        Outcome::Wedged
    } else if r.handles.iter().all(|h| h.switches_completed() == 1 && h.current() == 1) {
        Outcome::Completed
    } else if r.handles.iter().all(|h| h.switches_completed() == 0 && h.current() == 0)
        && aborted.iter().any(|&a| a > 0)
    {
        Outcome::Aborted
    } else {
        Outcome::Wedged
    };
    let phase_at_crash = match sc.fault {
        Fault::Crash { victim, .. } => phase_at_crash(&r.events, u32::from(victim)),
        _ => None,
    };
    let pass = outcome == sc.expect && r.violations.is_empty();
    let postmortem = (!pass).then(|| {
        let reason = if r.violations.is_empty() {
            format!("{}: {}", outcome.as_str(), sc.name)
        } else {
            format!("monitor_violation: {}", sc.name)
        };
        r.postmortem(&reason)
    });
    ScenarioResult {
        scenario: sc.clone(),
        outcome,
        phase_at_crash,
        completed,
        aborted,
        sent: r.sent,
        violations: r.violations,
        pass,
        postmortem,
    }
}

/// Runs the whole matrix on `runner`; results are in scenario order and
/// byte-identical to a serial run regardless of worker count.
pub fn run_with(cfg: &ChaosConfig, runner: &SweepRunner) -> Vec<ScenarioResult> {
    runner.run(cfg.scenarios.clone(), |_, sc| run_scenario(&sc))
}

/// Renders the scenario matrix report.
pub fn render(results: &[ScenarioResult]) -> Table {
    let mut t = Table::new(
        "chaos — fault-injection scenario matrix",
        vec![
            "scenario",
            "loss",
            "phase@crash",
            "outcome",
            "expected",
            "switches",
            "aborts",
            "violations",
            "verdict",
        ],
    );
    for r in results {
        let sum = |v: &[usize]| v.iter().sum::<usize>().to_string();
        t.row(vec![
            r.scenario.name.clone(),
            format!("{}%", (r.scenario.loss * 100.0) as u32),
            r.phase_at_crash.clone().unwrap_or_else(|| "-".to_owned()),
            r.outcome.as_str().to_owned(),
            r.scenario.expect.as_str().to_owned(),
            sum(&r.completed),
            r.aborted.iter().sum::<u64>().to_string(),
            r.violations.len().to_string(),
            if r.pass { "PASS".to_owned() } else { "FAIL".to_owned() },
        ]);
        for v in &r.violations {
            t.note(format!("  {}: {}", r.scenario.name, report::violation(v)));
        }
    }
    t.note("switches/aborts are summed over the group; phase@crash is the victim's SP phase when it died");
    t.note("a run passes iff the outcome matches the expectation and the streaming monitors saw no violation");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_matrix_passes_clean() {
        let cfg = ChaosConfig::quick();
        let results = run_with(&cfg, &SweepRunner::serial());
        assert_eq!(results.len(), cfg.scenarios.len());
        for r in &results {
            assert!(
                r.pass,
                "{}: outcome {:?} (expected {:?}), violations {:?}",
                r.scenario.name, r.outcome, r.scenario.expect, r.violations
            );
        }
    }

    #[test]
    fn partition_scenario_aborts_without_wedging() {
        let cfg = ChaosConfig::quick();
        let sc = cfg.scenarios.iter().find(|s| matches!(s.fault, Fault::Partition { .. })).unwrap();
        let r = run_scenario(sc);
        assert_eq!(r.outcome, Outcome::Aborted, "{r:?}");
        assert_eq!(r.completed.iter().sum::<usize>(), 0);
        assert!(r.aborted.iter().sum::<u64>() > 0);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn crash_during_flip_regression_is_pinned() {
        // Seeded regression: the exact outcome of one crash-during-switch
        // scenario is pinned — the victim dies mid-switch, the group
        // completes without an abort, and the victim's phase at death is
        // stable for this seed.
        let cfg = ChaosConfig::quick();
        let sc = &cfg.scenarios[0]; // bcast/crash-during/seq
        assert_eq!(sc.name, "bcast/crash-during/seq");
        let r = run_scenario(sc);
        if r.sent == 0 {
            return; // tap feature off: no events stream, nothing observable
        }
        assert!(r.pass, "{r:?}");
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(r.completed, vec![1, 1, 1, 1]);
        assert_eq!(r.aborted, vec![0, 0, 0, 0]);
        assert_eq!(r.phase_at_crash.as_deref(), Some("prepare_seen"));
    }

    #[test]
    fn report_is_deterministic_across_worker_counts() {
        let cfg = ChaosConfig::quick();
        let serial = render(&run_with(&cfg, &SweepRunner::serial())).to_string();
        let parallel = render(&run_with(&cfg, &SweepRunner::new(4))).to_string();
        assert_eq!(serial, parallel);
    }
}
