//! `repro chaos` and `repro campaign` — the judged grids: every cell is
//! one monitored run, judged against what it must end as.
//!
//! A [`Cell`] is a name, a plain-data spec and an [`Expect`]ation. Each
//! command is a [`List`] of cells over its own spec type, which says only
//! what differs between them: how a spec becomes a [`Scenario`] and a
//! horizon (a scenario is not `Send`, so every worker builds its own from
//! the spec), what its table shows between the name and the verdict, and
//! campaign's manifests. The rest is the grid's:
//!
//! * **the judge** — every run streams its event feed through the standard
//!   [`ps_obs::MonitorSet`] (total order, per-sender FIFO, delivery
//!   accounting, switch liveness), so a verdict proves its properties held
//!   *while the fault was active*. The run's [`Outcome`] is read off the
//!   per-process switch handles, and a cell passes iff its expectation
//!   admits that outcome and no monitor reported a violation;
//! * **the sweep** — cells run on the [`SweepRunner`], which merges results
//!   in cell order;
//! * **the report and the artefacts** — a failed cell carries the flight
//!   recorder's post-mortem (`--out DIR` writes the first one), the ledger
//!   counts the cells and the failed ones, and the run fails when any cell
//!   does.
//!
//! **chaos** runs the fault-tolerant hybrid stack (two sequencer protocols
//! over reliable transport, reliable switch-control channel —
//! [`ps_core::hybrid_total_order_ft`]'s pair) through one scripted switch
//! while a fault fires around it:
//!
//! * **crash/recovery** — one node fail-stops before, during, or after the
//!   switch and comes back a while later (state kept, timers dead); the
//!   victim is either the sequencer/initiator (process 0) or a plain
//!   member;
//! * **partition** — the group splits before the switch attempt so the
//!   PREPARE can never reach the far side; the near side's phase timeout
//!   must abort the attempt and revert;
//! * **loss** — every frame copy (including control traffic) is dropped
//!   with 0–40% probability, alone or on top of a crash.
//!
//! Each chaos cell must end *completed* or, for the partition, *aborted*.
//!
//! **campaign** is the full cross-product of
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
//! A campaign cell switches as often as its load says, so it need only end
//! *not wedged*. Each cell's traffic carries a byte-deterministic
//! [`Manifest`] (profile, seed, scale, derived totals); `repro campaign
//! --out DIR` writes them to `DIR/campaign.manifests.jsonl` as JSON-lines
//! provenance for the whole grid. `--fault` splices the broken ordering
//! layer into one cell, which must then fail the grid.
//!
//! Both grids are deterministic: cell seeds are fixed, every statistic is
//! integer-valued, and the sweep merges in cell order, so the reports are
//! byte-identical across runs and worker counts.

use crate::experiments::{Artefacts, Ask};
use crate::measure::{LatencyStats, SteadyStateWindow};
use crate::report::{self, ms, Table};
use crate::scenario::{Policy, RunOutcome, Scenario};
use crate::sweep::SweepRunner;
use ps_core::{Proto, SwitchConfig, SwitchHandle, SwitchVariant};
use ps_obs::{ObsEvent, PostmortemBundle, SeriesSummary, SpPhase, TimedEvent, Violation};
use ps_simnet::{Medium, NodeId, PartitionSchedule, PointToPoint, SimTime};
use ps_trace::ProcessId;
use ps_workload::{Manifest, Profile, TrafficSpec};
use std::fmt;

/// What a cell must end as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// Every process completed exactly one switch and runs protocol 1.
    Completed,
    /// Nobody completed the switch, everyone is on protocol 0, and at least
    /// one process abandoned the attempt on timeout.
    Aborted,
    /// No process ended mid-switch or disagreeing about the current
    /// protocol, however many switches completed or aborted — the rule for
    /// a load-driven hybrid and for a plain stack.
    NotWedged,
}

impl Expect {
    fn as_str(self) -> &'static str {
        match self {
            Expect::Completed => "completed",
            Expect::Aborted => "aborted",
            Expect::NotWedged => "not wedged",
        }
    }

    fn admits(self, outcome: Outcome) -> bool {
        match self {
            Expect::Completed => outcome == Outcome::Completed,
            Expect::Aborted => outcome == Outcome::Aborted,
            Expect::NotWedged => outcome != Outcome::Wedged,
        }
    }
}

/// How a run ended, read off its per-process switch handles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// Every process completed exactly one switch and runs protocol 1.
    Completed,
    /// Nobody completed a switch; at least one process abandoned the
    /// attempt on timeout and everyone reverted to protocol 0.
    Aborted,
    /// Neither, but not wedged either: a plain stack, or a hybrid that
    /// switched some other number of times and agrees where it ended.
    Settled,
    /// Disagreement or a process stuck in switching mode — the failure the
    /// abort path exists to prevent.
    Wedged,
}

impl Outcome {
    fn of(r: &RunOutcome) -> Self {
        let h = &r.handles;
        if r.wedged() {
            Outcome::Wedged
        } else if !h.is_empty() && h.iter().all(|h| h.switches_completed() == 1 && h.current() == 1)
        {
            Outcome::Completed
        } else if h.iter().all(|h| h.switches_completed() == 0 && h.current() == 0)
            && h.iter().any(|h| h.aborted() > 0)
        {
            Outcome::Aborted
        } else {
            Outcome::Settled
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            Outcome::Completed => "completed",
            Outcome::Aborted => "aborted",
            Outcome::Settled => "settled",
            Outcome::Wedged => "WEDGED",
        }
    }
}

/// One judged run: a name unique within its list, the plain-data spec the
/// list plays, and what the run must end as.
#[derive(Debug, Clone)]
struct Cell<S> {
    name: String,
    spec: S,
    expect: Expect,
}

/// One cell's run, judged.
struct Judged<S, K> {
    cell: Cell<S>,
    outcome: Outcome,
    /// Completed switches, summed over the group.
    switches: usize,
    /// Abandoned switch attempts, summed over the group.
    aborts: u64,
    violations: Vec<Violation>,
    /// The expectation admits the outcome and no monitor saw a violation.
    pass: bool,
    /// The flight recorder's bundle, captured iff the cell failed.
    postmortem: Option<PostmortemBundle>,
    /// What the cell's list keeps of the run for its row.
    kept: K,
}

/// Judges one played cell. A failure's post-mortem reason names the
/// violation, or the outcome when there is none, and the cell.
fn judge<S, K>(cell: Cell<S>, r: RunOutcome, kept: K) -> Judged<S, K> {
    let outcome = Outcome::of(&r);
    let pass = cell.expect.admits(outcome) && r.violations.is_empty();
    let postmortem = (!pass).then(|| {
        let why = if r.violations.is_empty() { outcome.as_str() } else { "monitor_violation" };
        r.postmortem(&format!("{why}: {}", cell.name))
    });
    Judged {
        outcome,
        switches: r.handles.iter().map(SwitchHandle::switches_completed).sum(),
        aborts: r.handles.iter().map(SwitchHandle::aborted).sum(),
        violations: r.violations,
        pass,
        postmortem,
        kept,
        cell,
    }
}

/// What one cell list says of its own; everything else is the grid's.
struct List<S, K> {
    /// The command, as its failure line names it.
    cmd: &'static str,
    title: &'static str,
    /// What the list calls one cell: the name column's heading, and the
    /// ledger count (plural) and failure line's unit.
    unit: &'static str,
    /// The columns between the name and the verdict, and one row's values
    /// for them.
    columns: &'static [&'static str],
    row: fn(&Judged<S, K>) -> Vec<String>,
    /// The notes under the table.
    notes: [&'static str; 2],
    /// Runs one spec's scenario to its horizon; returns the run and what
    /// its row keeps of it.
    play: fn(&S) -> (RunOutcome, K),
}

impl<S: fmt::Debug + Send + Sync, K: Send> List<S, K> {
    /// Plays and judges every cell on `runner`; results are in cell order
    /// and byte-identical to a serial run regardless of worker count.
    fn sweep(&self, runner: &SweepRunner, cells: Vec<Cell<S>>) -> Vec<Judged<S, K>> {
        runner.run(cells, |_, cell| {
            let (r, kept) = (self.play)(&cell.spec);
            judge(cell, r, kept)
        })
    }

    /// The report: one row per cell, a note per violation and per wedged
    /// cell, then the list's notes.
    fn table(&self, results: &[Judged<S, K>]) -> Table {
        let mut header = vec![self.unit];
        header.extend(self.columns);
        header.extend(["violations", "verdict"]);
        let mut t = Table::new(self.title, header);
        for r in results {
            let name = &r.cell.name;
            let mut row = vec![name.clone()];
            row.extend((self.row)(r));
            row.push(r.violations.len().to_string());
            row.push(if r.pass { "PASS".to_owned() } else { "FAIL".to_owned() });
            t.row(row);
            for v in &r.violations {
                t.note(format!("  {name}: {}", report::violation(v)));
            }
            if r.outcome == Outcome::Wedged {
                t.note(format!("  {name}: WEDGED — a process ended mid-switch"));
            }
        }
        for note in self.notes {
            t.note(note);
        }
        t
    }

    /// The command's artefacts: the report, the list's own `files`, then
    /// the first failed cell's post-mortem. The ledger row digests the
    /// cells that ran and counts them and the failed ones; any failed cell
    /// fails the run.
    fn artefacts(
        &self,
        ask: &Ask,
        results: &[Judged<S, K>],
        files: Vec<(&'static str, String)>,
    ) -> Artefacts {
        let cells: Vec<&Cell<S>> = results.iter().map(|r| &r.cell).collect();
        let failed = results.iter().filter(|r| !r.pass).count();
        let mut a = Artefacts::new(ask.print(&self.table(results)), 0, format!("{cells:?}"))
            .count(&format!("{}s", self.unit), results.len())
            .count("failed", failed);
        for (name, body) in files {
            a = a.file(name, true, body);
        }
        a.postmortem(results.iter().find_map(|r| r.postmortem.as_ref())).fail_if(failed > 0, || {
            let (cmd, unit) = (self.cmd, self.unit);
            format!("{cmd}: {failed} {unit}(s) failed (wedged switch or property violation)")
        })
    }
}

/// The switch of every hybrid cell: control retransmission and token
/// regeneration fast enough to ride out the grids' crashes and loss.
fn switch_config(
    variant: SwitchVariant,
    observe_interval: SimTime,
    phase_timeout: SimTime,
) -> SwitchConfig {
    SwitchConfig {
        variant,
        observe_interval,
        phase_timeout,
        retransmit_base: SimTime::from_millis(40),
        retransmit_max: SimTime::from_millis(160),
        token_regen: SimTime::from_millis(100),
        ..SwitchConfig::default()
    }
}

/// Chaos group size (process 0 is sequencer of protocol 0 and the decider;
/// process 1 is sequencer of protocol 1).
const CHAOS_GROUP: u16 = 4;
/// Virtual end of every chaos run (faults all resolve well before this).
const CHAOS_END: SimTime = SimTime::from_secs(3);
/// Chaos switch-liveness bound for the monitors; must exceed the longest
/// crash outage a switch is expected to ride out.
const CHAOS_LIVENESS: SimTime = SimTime::from_millis(1500);
const SWITCH_AT: SimTime = SimTime::from_millis(60);

/// When the victim fail-stops, relative to the scripted switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CrashTiming {
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

/// The structural fault a chaos cell injects.
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// No structural fault (loss-only baseline rows).
    None,
    /// Fail-stop `victim` at `at`; recover it at `back`.
    Crash { victim: u16, at: SimTime, back: SimTime },
    /// Split nodes `0..split` from `split..group` at `at`; heal at `back`.
    Partition { split: u16, at: SimTime, back: SimTime },
}

/// A chaos cell: one scripted 0→1 switch under a fault.
#[derive(Debug, Clone)]
struct ChaosSpec {
    /// Simulation seed.
    seed: u64,
    /// Switching-protocol variant under test.
    variant: SwitchVariant,
    /// When the scripted oracle requests the 0→1 switch.
    switch_at: SimTime,
    fault: Fault,
    /// Per-copy frame loss probability (0.0–1.0).
    loss: f64,
    /// Switch-attempt abort deadline.
    phase_timeout: SimTime,
}

fn variant_tag(v: SwitchVariant) -> &'static str {
    match v {
        SwitchVariant::Broadcast => "bcast",
        SwitchVariant::TokenRing { .. } => "token",
    }
}

/// A cell whose switch is requested at [`SWITCH_AT`] with a 2 s abort
/// deadline, and must complete despite `fault` and `loss`.
fn completing(
    name: String,
    variant: SwitchVariant,
    fault: Fault,
    loss: f64,
    seed: u64,
) -> Cell<ChaosSpec> {
    let phase_timeout = SimTime::from_secs(2);
    let spec = ChaosSpec { seed, variant, switch_at: SWITCH_AT, fault, loss, phase_timeout };
    Cell { name, spec, expect: Expect::Completed }
}

fn crash_cell(
    variant: SwitchVariant,
    timing: CrashTiming,
    victim: u16,
    loss: f64,
    seed: u64,
) -> Cell<ChaosSpec> {
    let (at, back) = match timing {
        CrashTiming::BeforeSwitch => (SimTime::from_millis(30), SimTime::from_millis(110)),
        CrashTiming::DuringSwitch => (SimTime::from_millis(63), SimTime::from_millis(150)),
        CrashTiming::AfterSwitch => (SimTime::from_millis(95), SimTime::from_millis(160)),
    };
    let role = if victim == 0 { "seq" } else { "member" };
    let name = format!(
        "{}/crash-{}/{}{}",
        variant_tag(variant),
        timing.as_str(),
        role,
        if loss > 0.0 { format!("/loss{}", (loss * 100.0) as u32) } else { String::new() }
    );
    completing(name, variant, Fault::Crash { victim, at, back }, loss, seed)
}

fn loss_baseline(variant: SwitchVariant, loss: f64, seed: u64) -> Cell<ChaosSpec> {
    let name = format!("{}/loss{}", variant_tag(variant), (loss * 100.0) as u32);
    completing(name, variant, Fault::None, loss, seed)
}

fn partition_cell(seed: u64) -> Cell<ChaosSpec> {
    Cell {
        name: "bcast/partition-spanning-switch".to_owned(),
        spec: ChaosSpec {
            seed,
            variant: SwitchVariant::Broadcast,
            // The group is split 150–800 ms; the switch is requested at
            // 200 ms with the workload already quiescent, so the PREPARE
            // can never cross and the attempt must abort on the phase
            // timeout.
            switch_at: SimTime::from_millis(200),
            fault: Fault::Partition {
                split: 2,
                at: SimTime::from_millis(150),
                back: SimTime::from_millis(800),
            },
            loss: 0.0,
            phase_timeout: SimTime::from_millis(400),
        },
        expect: Expect::Aborted,
    }
}

fn token_variant() -> SwitchVariant {
    SwitchVariant::TokenRing { idle_hold: SimTime::from_millis(1) }
}

/// The full chaos matrix: crash before/during/after the switch × sequencer
/// vs. member victim × both protocol variants, loss sweeps, loss-only
/// baselines, and the partition-spanning abort.
fn chaos_full() -> Vec<Cell<ChaosSpec>> {
    let mut cells = Vec::new();
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
                cells.push(crash_cell(variant, timing, victim, 0.0, next()));
            }
        }
        // Crash-during-switch under frame loss: both fault kinds live.
        for loss in [0.2, 0.4] {
            cells.push(crash_cell(variant, CrashTiming::DuringSwitch, 2, loss, next()));
        }
        // Loss alone must not wedge a switch either.
        cells.push(loss_baseline(variant, 0.4, next()));
    }
    cells.push(partition_cell(next()));
    cells
}

/// A reduced chaos matrix for tests and the CI smoke: one crash per victim
/// role, one lossy crash, and the partition abort.
fn chaos_quick() -> Vec<Cell<ChaosSpec>> {
    let during = CrashTiming::DuringSwitch;
    vec![
        crash_cell(SwitchVariant::Broadcast, during, 0, 0.0, 0xC4A0_5101),
        crash_cell(token_variant(), during, 2, 0.0, 0xC4A0_5102),
        crash_cell(SwitchVariant::Broadcast, during, 2, 0.4, 0xC4A0_5103),
        partition_cell(0xC4A0_5104),
    ]
}

/// The switching-protocol phase `victim` was in when it first crashed
/// (`normal` outside a switch; `None` if it never crashed), read off the
/// recorded events — a chaos run fits the recorder's ring whole.
fn phase_at_crash(events: &[TimedEvent], victim: u32) -> Option<&'static str> {
    let mut phase = None;
    for e in events.iter().filter(|e| e.node == victim) {
        match e.ev {
            // BufferRelease and Aborted both end the switching interval:
            // afterwards the node is in normal mode again.
            ObsEvent::SwitchPhase { phase: SpPhase::BufferRelease | SpPhase::Aborted, .. } => {
                phase = None;
            }
            ObsEvent::SwitchPhase { phase: p, .. } => phase = Some(p),
            ObsEvent::NodeCrash { .. } => return Some(phase.map_or("normal", SpPhase::as_str)),
            _ => {}
        }
    }
    None
}

/// Plays one chaos cell; its row keeps the victim's phase at the crash.
fn play_chaos(sc: &ChaosSpec) -> (RunOutcome, Option<&'static str>) {
    let mut medium: Box<dyn Medium> = Box::new(PointToPoint::new(SimTime::from_micros(300)));
    if let Fault::Partition { split, at, back } = sc.fault {
        let near: Vec<NodeId> = (0..u32::from(split)).map(NodeId).collect();
        let far: Vec<NodeId> = (u32::from(split)..u32::from(CHAOS_GROUP)).map(NodeId).collect();
        medium = Box::new(
            PartitionSchedule::new(medium).partition_at(at, vec![near, far]).heal_at(back),
        );
    }
    let switch = switch_config(sc.variant, SimTime::from_millis(10), sc.phase_timeout);
    let mut s = Scenario::new(CHAOS_GROUP, sc.seed)
        .medium(medium)
        .loss(sc.loss)
        .hybrid(Proto::SeqFt(0), Proto::SeqFt(1), switch, Policy::Manual(vec![(sc.switch_at, 1)]))
        .watch(CHAOS_LIVENESS);

    // Workload: for crash scenarios the victim stays quiet until after its
    // recovery; the partition scenario quiesces entirely before the split
    // (the abort's buffer absorption then has nothing to reorder).
    match sc.fault {
        Fault::Partition { at, .. } => {
            let mut t = SimTime::from_millis(2);
            let mut i = 0u64;
            while t + SimTime::from_millis(20) < at {
                s = s.send_at(t, ProcessId((i % u64::from(CHAOS_GROUP)) as u16), format!("q{i}"));
                t += SimTime::from_millis(5);
                i += 1;
                if i >= 12 {
                    break;
                }
            }
        }
        Fault::Crash { victim, at, back } => {
            let senders: Vec<u16> = (0..CHAOS_GROUP).filter(|&p| p != victim).collect();
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
                    ProcessId((i % u64::from(CHAOS_GROUP)) as u16),
                    format!("n{i}"),
                );
            }
        }
    }

    let r = s.run(CHAOS_END);
    let phase = match sc.fault {
        Fault::Crash { victim, .. } => phase_at_crash(&r.events, u32::from(victim)),
        _ => None,
    };
    (r, phase)
}

const CHAOS: List<ChaosSpec, Option<&'static str>> = List {
    cmd: "chaos",
    title: "chaos — fault-injection scenario matrix",
    unit: "scenario",
    columns: &["loss", "phase@crash", "outcome", "expected", "switches", "aborts"],
    row: |r| {
        vec![
            format!("{}%", (r.cell.spec.loss * 100.0) as u32),
            r.kept.unwrap_or("-").to_owned(),
            r.outcome.as_str().to_owned(),
            r.cell.expect.as_str().to_owned(),
            r.switches.to_string(),
            r.aborts.to_string(),
        ]
    },
    notes: [
        "switches/aborts are summed over the group; phase@crash is the victim's SP phase when it died",
        "a run passes iff the outcome matches the expectation and the streaming monitors saw no violation",
    ],
    play: play_chaos,
};

/// `repro chaos`: the scenario matrix and the first failed scenario's
/// post-mortem. Fails when any scenario deviates from its expectation.
pub(crate) fn chaos(ask: &Ask) -> Artefacts {
    let results = CHAOS.sweep(&ask.runner, ask.budget(chaos_quick, chaos_full));
    CHAOS.artefacts(ask, &results, Vec::new())
}

/// Campaign message body size.
const BODY_BYTES: usize = 256;
/// Campaign workload span start.
const SPAN_START: SimTime = SimTime::from_millis(100);
/// Token protocol idle hold.
const TOKEN_IDLE_HOLD: SimTime = SimTime::from_millis(5);
/// Campaign switch-liveness bound for the monitors.
const CAMPAIGN_LIVENESS: SimTime = SimTime::from_secs(2);
/// Hybrid switch-attempt abort deadline.
const PHASE_TIMEOUT: SimTime = SimTime::from_millis(600);
/// Node that fail-stops in crash cells. Must not be a sender: a crashed
/// sender's pending sends vanish silently, which would make delivery
/// accounting meaningless.
const CRASH_VICTIM: u16 = 1;

/// The protocol stack a campaign cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StackKind {
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

/// A campaign cell: one traffic profile on one stack under one fault.
#[derive(Debug, Clone)]
struct CampaignSpec {
    /// The cell's traffic; its seed seeds the simulation too.
    traffic: TrafficSpec,
    stack: StackKind,
    /// Per-copy frame loss probability.
    loss: f64,
    /// [`CRASH_VICTIM`] fail-stops at `.0` and recovers at `.1`.
    crash: Option<(SimTime, SimTime)>,
    /// Extra virtual time past the span for retransmission and recovery to
    /// drain.
    drain: SimTime,
    /// Splice the broken ordering layer
    /// ([`crate::monitor_run::SwapFaultLayer`]) in at
    /// [`crate::monitor_run::FAULT_NODE`] — the seeded-failure path
    /// `--fault` exercises.
    inject_fault: bool,
}

/// The campaign grid: every profile × stack × fault, each cell on
/// `traffic` with its own profile and a seed counting up from
/// `traffic.seed`. The members are `traffic.group`: process 0 sequences,
/// process 1 is the crash victim and never sends (senders are the *last*
/// `traffic.senders` members).
fn campaign_grid(
    traffic: TrafficSpec,
    drain: SimTime,
    crash: (SimTime, SimTime),
) -> Vec<Cell<CampaignSpec>> {
    let span_us = traffic.end.as_micros() - SPAN_START.as_micros();
    let at =
        |permille: u64| SimTime::from_micros(SPAN_START.as_micros() + span_us * permille / 1000);
    // The flash burst recruits every member except the sequencer and the
    // crash victim, so the victim stays a pure receiver in every cell.
    let profiles = [
        Profile::Steady,
        Profile::Diurnal { peak: 3 },
        Profile::FlashCrowd {
            burst_senders: traffic.group - 2,
            burst_rate: traffic.rate * 3.0,
            from: at(400),
            until: at(700),
        },
        Profile::HotSkew { s_x100: 150 },
        Profile::CorrelatedBursts { bursts: 3, peak: 4, duty_permille: 250 },
        Profile::Churn { sessions: 3 },
    ];
    let faults = [
        ("none", 0.0, None),
        ("loss10", 0.1, None),
        ("loss40", 0.4, None),
        ("crash", 0.0, Some(crash)),
    ];
    let mut cells = Vec::new();
    let mut seed = traffic.seed;
    for profile in profiles {
        for stack in [StackKind::Seq, StackKind::Token, StackKind::Hybrid] {
            for (label, loss, crash) in faults {
                seed += 1;
                cells.push(Cell {
                    name: format!("{}/{}/{label}", profile.name(), stack.as_str()),
                    spec: CampaignSpec {
                        traffic: TrafficSpec {
                            profile,
                            body_bytes: BODY_BYTES,
                            start: SPAN_START,
                            seed,
                            ..traffic.clone()
                        },
                        stack,
                        loss,
                        crash,
                        drain,
                        inject_fault: false,
                    },
                    expect: Expect::NotWedged,
                });
            }
        }
    }
    cells
}

/// The full campaign grid: 6 profiles × 3 stacks × 4 faults over a 3 s
/// span.
fn campaign_full() -> Vec<Cell<CampaignSpec>> {
    let traffic = TrafficSpec {
        group: 6,
        senders: 3,
        // Group 6 amplifies every multicast into more copies, acks and
        // ordering traffic than the quick group-4 grid: a lower base rate
        // and smaller bodies keep burst peaks below bus saturation (a
        // saturated cell can never drain its 40%-loss retransmission
        // backlog, which reads as delivery loss).
        rate: 8.0,
        end: SimTime::from_secs(3),
        seed: 0xCA44_1100,
        ..TrafficSpec::default()
    };
    // Generous: a 40%-loss cell's last messages can need many rounds of
    // backed-off retransmission to reach everyone.
    let drain = SimTime::from_millis(5000);
    let crash = (SimTime::from_millis(1300), SimTime::from_millis(1600));
    campaign_grid(traffic, drain, crash)
}

/// The same full cross-product on a smaller, shorter group — the CI smoke
/// and test configuration.
fn campaign_quick() -> Vec<Cell<CampaignSpec>> {
    let traffic = TrafficSpec {
        group: 4,
        senders: 2,
        rate: 20.0,
        end: SimTime::from_millis(1200),
        seed: 0xCA44_1150,
        ..TrafficSpec::default()
    };
    let crash = (SimTime::from_millis(550), SimTime::from_millis(750));
    campaign_grid(traffic, SimTime::from_millis(2000), crash)
}

/// Arms the seeded failure path: the broken ordering layer is spliced into
/// the first fault-free sequencer cell, which must then report exactly one
/// total-order violation and fail the grid.
fn seed_fault(cells: &mut [Cell<CampaignSpec>]) {
    let cell = cells
        .iter_mut()
        .find(|c| c.spec.stack == StackKind::Seq && c.spec.loss == 0.0 && c.spec.crash.is_none())
        .expect("grid has a fault-free sequencer cell");
    cell.spec.inject_fault = true;
}

/// What a campaign row keeps of its run.
struct Measured {
    /// Manifest of the traffic the cell ran under.
    manifest: Manifest,
    /// Send→deliver latency over the workload span.
    latency: LatencyStats,
    /// Aggregates of the sampled load series.
    load: SeriesSummary,
}

/// Plays one campaign cell.
fn play_campaign(spec: &CampaignSpec) -> (RunOutcome, Measured) {
    let t = &spec.traffic;
    let schedule = t.generate();
    let manifest = schedule.manifest();
    let mut s = Scenario::new(t.group, t.seed ^ 0x7a11).loss(spec.loss);
    s = match spec.stack {
        StackKind::Seq => s.stack(Proto::SeqFt(0)),
        StackKind::Token => s.stack(Proto::TokenFt(TOKEN_IDLE_HOLD)),
        StackKind::Hybrid => {
            let variant = SwitchVariant::TokenRing { idle_hold: SimTime::from_millis(10) };
            let switch = switch_config(variant, SimTime::from_millis(50), PHASE_TIMEOUT);
            s.hybrid(Proto::SeqFt(0), Proto::TokenFt(TOKEN_IDLE_HOLD), switch, Policy::Load)
        }
    };
    if let Some((at, back)) = spec.crash {
        s = s.crash(CRASH_VICTIM, at, back);
    }
    let r = s
        .swap_fault(spec.inject_fault)
        .traffic(schedule)
        .watch(CAMPAIGN_LIVENESS)
        .sample()
        .run(t.end + spec.drain);
    let latency = r.latency(SteadyStateWindow::between(SPAN_START, t.end));
    let load = r.sampler.summary();
    (r, Measured { manifest, latency, load })
}

const CAMPAIGN: List<CampaignSpec, Measured> = List {
    cmd: "campaign",
    title: "campaign — judged profile × stack × fault grid",
    unit: "cell",
    columns: &[
        "events",
        "switches",
        "aborts",
        "p50 (ms)",
        "p99 (ms)",
        "undelivered",
        "peak bus \u{2030}",
    ],
    row: |r| {
        let m = &r.kept;
        vec![
            m.manifest.events.to_string(),
            r.switches.to_string(),
            r.aborts.to_string(),
            ms(m.latency.p50.as_micros()),
            ms(m.latency.p99.as_micros()),
            m.latency.incomplete.to_string(),
            m.load.peak_bus_permille.to_string(),
        ]
    },
    notes: [
        "latency percentiles are send→deliver over the workload span; undelivered counts messages some process never delivered",
        "a cell passes iff the streaming monitors saw no violation and no process wedged mid-switch",
    ],
    play: play_campaign,
};

/// `repro campaign`: the grid, the per-cell manifests and the first failed
/// cell's post-mortem. `--fault` seeds the broken ordering layer into one
/// cell. Fails when any cell does.
pub(crate) fn campaign(ask: &Ask) -> Artefacts {
    let mut cells = ask.budget(campaign_quick, campaign_full);
    if ask.fault {
        seed_fault(&mut cells);
    }
    let results = CAMPAIGN.sweep(&ask.runner, cells);
    // The per-cell traffic manifests as JSON-lines, in cell order — the
    // grid's provenance record.
    let manifests = results.iter().map(|r| r.kept.manifest.to_json() + "\n").collect();
    CAMPAIGN.artefacts(ask, &results, vec![("manifests.jsonl", manifests)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor_run::{self, MonitorRunConfig, FAULT_NODE};
    use ps_obs::{Recorder, ViolationKind};
    use ps_stack::Driver;
    use ps_trace::props::{self, Property};

    fn find<S>(cells: Vec<Cell<S>>, name: &str) -> Cell<S> {
        cells.into_iter().find(|c| c.name == name).expect("the list has the cell")
    }

    #[test]
    fn quick_matrix_passes_clean() {
        let results = CHAOS.sweep(&SweepRunner::serial(), chaos_quick());
        assert_eq!(results.len(), 4);
        for r in &results {
            assert!(
                r.pass,
                "{}: outcome {:?} (expected {:?}), violations {:?}",
                r.cell.name, r.outcome, r.cell.expect, r.violations
            );
        }
    }

    #[test]
    fn partition_scenario_aborts_without_wedging() {
        // The same run judged twice: against its own expectation it
        // passes; expected to complete, it fails, and the post-mortem
        // names the outcome and the cell.
        let partition = find(chaos_quick(), "bcast/partition-spanning-switch");
        let completed = Cell { expect: Expect::Completed, ..partition.clone() };
        let results = CHAOS.sweep(&SweepRunner::serial(), vec![partition, completed]);
        for r in &results {
            assert_eq!(r.outcome, Outcome::Aborted, "{:?}", r.violations);
            assert_eq!(r.switches, 0);
            assert!(r.aborts > 0);
            assert!(r.violations.is_empty(), "{:?}", r.violations);
        }
        assert!(results[0].pass && results[0].postmortem.is_none());
        assert!(!results[1].pass, "expected completed, judged aborted: must fail");
        let pm = results[1].postmortem.as_ref().expect("a failed cell carries its post-mortem");
        assert_eq!(pm.reason, "aborted: bcast/partition-spanning-switch");
        let a = CHAOS.artefacts(&Ask::default(), &results, Vec::new());
        let row = a.stdout.body.lines().filter(|l| l.starts_with("bcast/partition")).nth(1);
        let words: Vec<&str> = row.expect("one row per cell").split_whitespace().collect();
        assert_eq!((words[3], words[4], words[8]), ("aborted", "completed", "FAIL"));
        assert_eq!(
            a.failure.as_deref(),
            Some("chaos: 1 scenario(s) failed (wedged switch or property violation)")
        );
        assert_eq!(
            a.files.iter().map(|f| f.name).collect::<Vec<_>>(),
            ["postmortem.jsonl", "postmortem.chrome.json"]
        );
    }

    #[test]
    fn crash_during_flip_regression_is_pinned() {
        // Seeded regression: the exact outcome of one crash-during-switch
        // scenario is pinned — the victim dies mid-switch, the group
        // completes without an abort, and the victim's phase at death is
        // stable for this seed.
        let cell = chaos_quick().remove(0);
        assert_eq!(cell.name, "bcast/crash-during/seq");
        let (r, phase) = play_chaos(&cell.spec);
        if r.sent == 0 {
            return; // tap feature off: no events stream, nothing observable
        }
        let r = judge(cell, r, phase);
        assert!(r.pass, "{:?}", r.violations);
        // Completed: each of the four processes completed exactly one switch.
        assert_eq!((r.outcome, r.switches, r.aborts), (Outcome::Completed, 4, 0));
        assert_eq!(r.kept, Some("prepare_seen"));
    }

    #[test]
    fn grid_is_the_full_cross_product() {
        let cells = campaign_quick();
        assert_eq!(cells.len(), 6 * 3 * 4);
        let mut names: Vec<&str> = cells.iter().map(|c| c.name.as_str()).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "cell names must be unique");
        let mut seeds: Vec<u64> = cells.iter().map(|c| c.spec.traffic.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), total, "cell seeds must be unique");
    }

    /// One representative cell per judged dimension, kept small so the
    /// debug-profile suite stays fast; `repro campaign --quick` (release)
    /// covers the full grid.
    #[test]
    fn representative_cells_pass_clean() {
        let picked = ["steady/seq/none", "steady/token/loss10", "steady/hybrid/crash"]
            .map(|name| find(campaign_quick(), name));
        for r in CAMPAIGN.sweep(&SweepRunner::serial(), picked.into()) {
            let name = &r.cell.name;
            assert!(r.pass, "{name}: outcome {:?}, violations {:?}", r.outcome, r.violations);
            assert!(r.kept.manifest.events > 0);
            assert!(r.kept.latency.samples > 0, "{name}: no latency samples");
        }
    }

    #[test]
    fn seeded_fault_cell_reports_exactly_one_total_order_violation() {
        let mut cells = campaign_quick();
        seed_fault(&mut cells);
        cells.retain(|c| c.spec.inject_fault);
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].name, "steady/seq/none");
        let r = CAMPAIGN.sweep(&SweepRunner::serial(), cells).remove(0);
        if r.kept.latency.samples == 0 {
            return; // tap feature off: no events stream, nothing observable
        }
        assert!(!r.pass, "the seeded fault must fail the cell");
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].kind, ViolationKind::TotalOrder);
        assert_eq!(r.violations[0].node, u32::from(FAULT_NODE));
        let pm = r.postmortem.as_ref().expect("a failed cell carries its post-mortem");
        assert_eq!(pm.reason, "monitor_violation: steady/seq/none");
    }

    /// Whether a run breaks total order and whether it loses a delivery,
    /// as the monitors judged it and as ps-trace's definitions judge its
    /// application trace.
    fn verdicts(r: &RunOutcome) -> [(bool, bool); 2] {
        let seen = |kind| r.violations.iter().any(|v| v.kind == kind);
        let tr = r.driver.app_trace();
        let reliability = props::Reliability::new(r.driver.group().iter().copied());
        [
            (seen(ViolationKind::TotalOrder), seen(ViolationKind::DeliveryLoss)),
            (!props::TotalOrder.holds(&tr), !reliability.holds(&tr)),
        ]
    }

    /// The monitors against the properties they stand for, on every quick
    /// chaos cell, every quick campaign cell with the seeded fault armed,
    /// and the quick monitor run with and without its fault. A
    /// disagreement is a finding about one side or the other.
    #[test]
    fn the_monitors_agree_with_the_trace_properties() {
        if !Recorder::with_capacity(1).is_enabled() {
            return; // tap feature off: the monitors are never fed
        }
        let runner = SweepRunner::new(2);
        let mut campaign = campaign_quick();
        seed_fault(&mut campaign);
        let mut runs = runner.run(chaos_quick(), |_, c| (c.name, verdicts(&play_chaos(&c.spec).0)));
        runs.extend(runner.run(campaign, |_, c| (c.name, verdicts(&play_campaign(&c.spec).0))));
        for inject_fault in [false, true] {
            let cfg = MonitorRunConfig { inject_fault, ..MonitorRunConfig::quick() };
            runs.push((format!("monitor/fault={inject_fault}"), verdicts(&monitor_run::run(&cfg))));
        }
        assert_eq!(runs.len(), 4 + 72 + 2);
        for (name, [monitors, trace]) in &runs {
            assert_eq!(monitors, trace, "{name}: (total order, delivery loss) monitors vs trace");
        }
        let violating: Vec<&str> =
            runs.iter().filter(|(_, [m, _])| m.0 || m.1).map(|(name, _)| name.as_str()).collect();
        assert_eq!(violating, ["steady/seq/none", "monitor/fault=true"]);
    }
}
