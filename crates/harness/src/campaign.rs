//! `repro campaign` — the judged campaign grid: every traffic profile ×
//! every switching stack × every fault, one monitored run per cell.
//!
//! The grid is the full cross-product of
//!
//! * **profiles** (`ps-workload`): steady, diurnal ramp, flash crowd,
//!   hot-sender skew, correlated bursts, sender churn;
//! * **stacks**: plain sequencer total order, plain token total order
//!   (both over reliable transport), and the fault-tolerant
//!   sequencer↔token hybrid ([`ps_core::hybrid_seq_token_ft`]'s pair)
//!   driven by a live [`ps_core::LoadOracle`] over the sampled load
//!   series;
//! * **faults**: none, 10% and 40% per-copy frame loss, and a
//!   crash/recovery of a non-sending member in the middle of the run.
//!
//! Every cell streams its event feed through the standard
//! [`ps_obs::MonitorSet`] (total order, per-sender FIFO, delivery
//! accounting, switch liveness) and records the
//! [`ps_obs::MetricsSampler`] load series the hybrid's oracle reads. A cell **passes** iff the monitors saw no violation and — for
//! the hybrid — no process is wedged mid-switch or disagreeing about the
//! current protocol. The rendered grid report (events, switches, latency
//! percentiles, peak load, verdicts) is deterministic: cell seeds are
//! fixed, every statistic is integer-valued, and the sweep runner merges
//! results in input order, so serial and parallel runs are
//! byte-identical.
//!
//! Each cell's traffic carries a byte-deterministic [`Manifest`]
//! (profile, seed, scale, derived totals); `repro campaign --out DIR`
//! writes them to `DIR/campaign.manifests.jsonl` as JSON-lines
//! provenance for the whole grid.

use crate::experiments::{Artefacts, Ask};
use crate::measure::{LatencyStats, SteadyStateWindow};
use crate::report::{self, ms, Table};
use crate::scenario::{Policy, Scenario};
use crate::sweep::SweepRunner;
use ps_core::{Proto, SwitchConfig, SwitchVariant};
use ps_obs::{SeriesSummary, Violation};
use ps_simnet::SimTime;
use ps_workload::{Manifest, Profile, TrafficSpec};

/// Message body size.
const BODY_BYTES: usize = 256;
/// Workload span start.
const START: SimTime = SimTime::from_millis(100);
/// Token protocol idle hold.
const TOKEN_IDLE_HOLD: SimTime = SimTime::from_millis(5);
/// Switch-liveness bound for the monitors.
const LIVENESS_BOUND: SimTime = SimTime::from_secs(2);
/// Hybrid switch-attempt abort deadline.
const PHASE_TIMEOUT: SimTime = SimTime::from_millis(600);
/// Node that fail-stops in [`FaultKind::Crash`] cells. Must not be a
/// sender: a crashed sender's pending sends vanish silently, which would
/// make delivery accounting meaningless.
const CRASH_VICTIM: u16 = 1;

/// The protocol stack a cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackKind {
    /// Sequencer total order over FIFO over reliable transport.
    Seq,
    /// Token total order over reliable transport.
    Token,
    /// The fault-tolerant sequencer↔token hybrid
    /// ([`ps_core::hybrid_seq_token_ft`]'s pair) with a
    /// [`ps_core::LoadOracle`] at process 0.
    Hybrid,
}

impl StackKind {
    fn as_str(self) -> &'static str {
        match self {
            StackKind::Seq => "seq",
            StackKind::Token => "token",
            StackKind::Hybrid => "hybrid",
        }
    }
}

/// The fault a cell injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fault-free baseline.
    None,
    /// Every frame copy dropped with `permille`/1000 probability.
    Loss {
        /// Per-copy loss probability in permille.
        permille: u32,
    },
    /// The configured victim fail-stops mid-run and recovers later.
    Crash,
}

impl FaultKind {
    fn label(self) -> String {
        match self {
            FaultKind::None => "none".to_owned(),
            FaultKind::Loss { permille } => format!("loss{}", permille / 10),
            FaultKind::Crash => "crash".to_owned(),
        }
    }
}

/// One grid cell: a (profile, stack, fault) combination with its seed.
#[derive(Debug, Clone)]
pub struct CampaignCell {
    /// Traffic profile driving the cell.
    pub profile: Profile,
    /// Protocol stack under test.
    pub stack: StackKind,
    /// Injected fault.
    pub fault: FaultKind,
    /// Workload seed (the sim seed derives from it).
    pub seed: u64,
    /// Splice the broken ordering layer
    /// ([`crate::monitor_run::SwapFaultLayer`]) in at
    /// [`crate::monitor_run::FAULT_NODE`] — the seeded-failure path
    /// `--fault` exercises.
    pub inject_fault: bool,
}

impl CampaignCell {
    /// The cell's row label, unique within a grid.
    pub fn name(&self) -> String {
        format!("{}/{}/{}", self.profile.name(), self.stack.as_str(), self.fault.label())
    }
}

/// The campaign grid plus shared run parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Group size (process 0 sequences; process 1 is the crash victim and
    /// never sends — senders are the *last* [`CampaignConfig::senders`]
    /// members).
    pub group: u16,
    /// Base sending-subgroup size.
    pub senders: u16,
    /// Base per-sender rate (msg/s).
    pub rate: f64,
    /// Workload span end.
    pub end: SimTime,
    /// Extra virtual time past the span for retransmission and recovery
    /// to drain.
    pub drain: SimTime,
    /// Crash instant of [`FaultKind::Crash`] cells.
    pub crash_at: SimTime,
    /// Recovery instant.
    pub crash_back: SimTime,
    /// The cells to run.
    pub cells: Vec<CampaignCell>,
}

fn grid(group: u16, rate: f64, end: SimTime, seed_base: u64) -> Vec<CampaignCell> {
    let span_us = end.as_micros() - START.as_micros();
    let at = |permille: u64| SimTime::from_micros(START.as_micros() + span_us * permille / 1000);
    // The flash burst recruits every member except the sequencer and the
    // crash victim, so the victim stays a pure receiver in every cell.
    let profiles = [
        Profile::Steady,
        Profile::Diurnal { peak: 3 },
        Profile::FlashCrowd {
            burst_senders: group - 2,
            burst_rate: rate * 3.0,
            from: at(400),
            until: at(700),
        },
        Profile::HotSkew { s_x100: 150 },
        Profile::CorrelatedBursts { bursts: 3, peak: 4, duty_permille: 250 },
        Profile::Churn { sessions: 3 },
    ];
    let mut cells = Vec::new();
    let mut seed = seed_base;
    for profile in profiles {
        for stack in [StackKind::Seq, StackKind::Token, StackKind::Hybrid] {
            for fault in [
                FaultKind::None,
                FaultKind::Loss { permille: 100 },
                FaultKind::Loss { permille: 400 },
                FaultKind::Crash,
            ] {
                seed += 1;
                cells.push(CampaignCell { profile, stack, fault, seed, inject_fault: false });
            }
        }
    }
    cells
}

impl CampaignConfig {
    /// The full grid: 6 profiles × 3 stacks × 4 faults over a 3 s span.
    pub fn full() -> Self {
        let end = SimTime::from_secs(3);
        Self {
            group: 6,
            senders: 3,
            // Group 6 amplifies every multicast into more copies, acks
            // and ordering traffic than the quick group-4 grid: a lower
            // base rate and smaller bodies keep burst peaks below bus
            // saturation (a saturated cell can never drain its 40%-loss
            // retransmission backlog, which reads as delivery loss).
            rate: 8.0,
            end,
            // Generous: a 40%-loss cell's last messages can need many
            // rounds of backed-off retransmission to reach everyone.
            drain: SimTime::from_millis(5000),
            crash_at: SimTime::from_millis(1300),
            crash_back: SimTime::from_millis(1600),
            cells: grid(6, 8.0, end, 0xCA44_1100),
        }
    }

    /// The same full cross-product on a smaller, shorter group — the CI
    /// smoke and test configuration.
    pub fn quick() -> Self {
        let end = SimTime::from_millis(1200);
        Self {
            group: 4,
            senders: 2,
            rate: 20.0,
            end,
            drain: SimTime::from_millis(2000),
            crash_at: SimTime::from_millis(550),
            crash_back: SimTime::from_millis(750),
            cells: grid(4, 20.0, end, 0xCA44_1150),
            ..Self::full()
        }
    }

    /// Arms the seeded failure path: the broken ordering layer is
    /// spliced into the first fault-free sequencer cell, which must then
    /// report exactly one total-order violation and fail the grid.
    pub fn with_seeded_fault(mut self) -> Self {
        let cell = self
            .cells
            .iter_mut()
            .find(|c| c.stack == StackKind::Seq && c.fault == FaultKind::None)
            .expect("grid has a fault-free sequencer cell");
        cell.inject_fault = true;
        self
    }
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self::full()
    }
}

/// Result of one campaign cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The cell that ran.
    pub cell: CampaignCell,
    /// Manifest of the traffic the cell ran under.
    pub manifest: Manifest,
    /// Completed switches summed over the group (hybrid cells only).
    pub switches: usize,
    /// Abandoned switch attempts summed over the group.
    pub aborts: u64,
    /// Send→deliver latency over the workload span.
    pub latency: LatencyStats,
    /// Aggregates of the sampled load series.
    pub load: SeriesSummary,
    /// All monitor violations.
    pub violations: Vec<Violation>,
    /// Whether any process ended mid-switch or disagreeing on the
    /// current protocol.
    pub wedged: bool,
    /// `true` iff no violations and not wedged.
    pub pass: bool,
    /// Post-mortem flight-recorder bundle, captured iff the cell failed
    /// (`repro campaign --out DIR` writes the first one).
    pub postmortem: Option<ps_obs::PostmortemBundle>,
}

/// Runs one cell and judges it.
pub fn run_cell(cfg: &CampaignConfig, cell: &CampaignCell) -> CellResult {
    let schedule = TrafficSpec {
        profile: cell.profile,
        group: cfg.group,
        senders: cfg.senders,
        rate: cfg.rate,
        body_bytes: BODY_BYTES,
        start: START,
        end: cfg.end,
        seed: cell.seed,
        ..TrafficSpec::default()
    }
    .generate();
    let manifest = schedule.manifest();

    let loss = match cell.fault {
        FaultKind::Loss { permille } => f64::from(permille) / 1000.0,
        _ => 0.0,
    };
    let mut s = Scenario::new(cfg.group, cell.seed ^ 0x7a11).loss(loss);
    s = match cell.stack {
        StackKind::Seq => s.stack(Proto::SeqFt(0)),
        StackKind::Token => s.stack(Proto::TokenFt(TOKEN_IDLE_HOLD)),
        StackKind::Hybrid => {
            let switch = SwitchConfig {
                variant: SwitchVariant::TokenRing { idle_hold: SimTime::from_millis(10) },
                observe_interval: SimTime::from_millis(50),
                phase_timeout: PHASE_TIMEOUT,
                retransmit_base: SimTime::from_millis(40),
                retransmit_max: SimTime::from_millis(160),
                token_regen: SimTime::from_millis(100),
                ..SwitchConfig::default()
            };
            s.hybrid(Proto::SeqFt(0), Proto::TokenFt(TOKEN_IDLE_HOLD), switch, Policy::Load)
        }
    };
    if cell.fault == FaultKind::Crash {
        s = s.crash(CRASH_VICTIM, cfg.crash_at, cfg.crash_back);
    }
    let r = s
        .swap_fault(cell.inject_fault)
        .traffic(schedule)
        .watch(LIVENESS_BOUND)
        .sample()
        .run(cfg.end + cfg.drain);

    let wedged = r.wedged();
    let pass = r.violations.is_empty() && !wedged;
    let postmortem = (!pass).then(|| {
        let reason = if r.violations.is_empty() { "wedged" } else { "monitor_violation" };
        r.postmortem(&format!("{reason}: {}", cell.name()))
    });
    CellResult {
        cell: cell.clone(),
        manifest,
        switches: r.handles.iter().map(|h| h.switches_completed()).sum(),
        aborts: r.handles.iter().map(|h| h.aborted()).sum(),
        latency: r.latency(SteadyStateWindow::between(START, cfg.end)),
        load: r.sampler.summary(),
        wedged,
        pass,
        postmortem,
        violations: r.violations,
    }
}

/// Runs the whole grid on `runner`; results are in cell order and
/// byte-identical to a serial run regardless of worker count.
pub(crate) fn run_with(cfg: &CampaignConfig, runner: &SweepRunner) -> Vec<CellResult> {
    runner.run(cfg.cells.clone(), |_, cell| run_cell(cfg, &cell))
}

/// `repro campaign`: the grid, the per-cell manifests and the first
/// failed cell's post-mortem. `--fault` seeds the broken ordering layer
/// into one cell. Fails when any cell does.
pub(crate) fn artefacts(ask: &Ask) -> Artefacts {
    let mut cfg = ask.budget(CampaignConfig::quick, Default::default);
    if ask.fault {
        cfg = cfg.with_seeded_fault();
    }
    let results = run_with(&cfg, &ask.runner);
    let failed = results.iter().filter(|r| !r.pass).count();
    Artefacts::new(ask.print(&render(&results)), 0, format!("{cfg:?}"))
        .count("cells", results.len())
        .count("failed", failed)
        .file("manifests.jsonl", true, manifests_jsonl(&results))
        .postmortem(results.iter().find_map(|r| r.postmortem.as_ref()))
        .fail_if(failed > 0, || {
            format!("campaign: {failed} cell(s) failed (wedged switch or property violation)")
        })
}

/// Renders the grid report.
fn render(results: &[CellResult]) -> Table {
    let mut t = Table::new(
        "campaign — judged profile × stack × fault grid",
        vec![
            "cell",
            "events",
            "switches",
            "aborts",
            "p50 (ms)",
            "p99 (ms)",
            "undelivered",
            "peak bus \u{2030}",
            "violations",
            "verdict",
        ],
    );
    for r in results {
        t.row(vec![
            r.cell.name(),
            r.manifest.events.to_string(),
            r.switches.to_string(),
            r.aborts.to_string(),
            ms(r.latency.p50.as_micros()),
            ms(r.latency.p99.as_micros()),
            r.latency.incomplete.to_string(),
            r.load.peak_bus_permille.to_string(),
            r.violations.len().to_string(),
            if r.pass { "PASS".to_owned() } else { "FAIL".to_owned() },
        ]);
        for v in &r.violations {
            t.note(format!("  {}: {}", r.cell.name(), report::violation(v)));
        }
        if r.wedged {
            t.note(format!("  {}: WEDGED — a process ended mid-switch", r.cell.name()));
        }
    }
    t.note("latency percentiles are send→deliver over the workload span; undelivered counts messages some process never delivered");
    t.note("a cell passes iff the streaming monitors saw no violation and no process wedged mid-switch");
    t
}

/// The per-cell traffic manifests as JSON-lines, in cell order — the
/// grid's provenance record.
fn manifests_jsonl(results: &[CellResult]) -> String {
    let mut out = String::new();
    for r in results {
        out.push_str(&r.manifest.to_json());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor_run::FAULT_NODE;
    use ps_obs::ViolationKind;

    /// One representative cell per judged dimension, kept small so the
    /// debug-profile suite stays fast; `repro campaign --quick` (release)
    /// covers the full grid.
    fn representative(cfg: &CampaignConfig) -> Vec<CampaignCell> {
        let pick = |stack: StackKind, fault: FaultKind| {
            cfg.cells
                .iter()
                .find(|c| c.stack == stack && c.fault == fault)
                .expect("grid covers the full cross-product")
                .clone()
        };
        vec![
            pick(StackKind::Seq, FaultKind::None),
            pick(StackKind::Token, FaultKind::Loss { permille: 100 }),
            pick(StackKind::Hybrid, FaultKind::Crash),
        ]
    }

    #[test]
    fn grid_is_the_full_cross_product() {
        let cfg = CampaignConfig::quick();
        assert_eq!(cfg.cells.len(), 6 * 3 * 4);
        let mut names: Vec<String> = cfg.cells.iter().map(CampaignCell::name).collect();
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "cell names must be unique");
        let mut seeds: Vec<u64> = cfg.cells.iter().map(|c| c.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), total, "cell seeds must be unique");
    }

    #[test]
    fn representative_cells_pass_clean() {
        let cfg = CampaignConfig::quick();
        for cell in representative(&cfg) {
            let r = run_cell(&cfg, &cell);
            assert!(r.pass, "{}: violations {:?} wedged {}", cell.name(), r.violations, r.wedged);
            assert!(r.manifest.events > 0);
            assert!(r.latency.samples > 0, "{}: no latency samples", cell.name());
        }
    }

    #[test]
    fn seeded_fault_cell_reports_exactly_one_total_order_violation() {
        let cfg = CampaignConfig::quick().with_seeded_fault();
        let cell = cfg.cells.iter().find(|c| c.inject_fault).unwrap();
        assert_eq!((cell.stack, cell.fault), (StackKind::Seq, FaultKind::None));
        let r = run_cell(&cfg, cell);
        if r.latency.samples == 0 {
            return; // tap feature off: no events stream, nothing observable
        }
        assert!(!r.pass, "the seeded fault must fail the cell");
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].kind, ViolationKind::TotalOrder);
        assert_eq!(r.violations[0].node, u32::from(FAULT_NODE));
        assert!(!r.pass);
    }
}
