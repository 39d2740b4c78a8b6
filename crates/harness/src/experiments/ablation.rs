//! Ablation: the switching-protocol variant (§2's design choice).
//!
//! "In order to avoid congestion on the network, our implementation of SP
//! does not actually do network-level broadcasts, but rotates a token
//! message in a logical ring." This experiment quantifies that trade-off:
//! per switch, the broadcast variant costs O(n) control messages in ~2
//! round trips, while the token needs 3 full ring rotations (latency grows
//! with n) but keeps per-link load flat and serializes concurrent
//! initiators for free.

use crate::report::Table;
use crate::scenario::{Policy, RunOutcome, Scenario};
use crate::sweep::SweepRunner;
use ps_core::{Proto, SwitchConfig, SwitchVariant};
use ps_simnet::SimTime;
use ps_workload::TrafficSpec;

/// Active senders (fixed moderate load), their rate (msg/s) and body
/// size.
const SENDERS: u16 = 3;
const RATE: f64 = 40.0;
const BODY_BYTES: usize = 1024;
/// When the measured switch fires, and the workload end.
const SWITCH_AT: SimTime = SimTime::from_millis(600);
const END: SimTime = SimTime::from_millis(1_500);
/// The experiment's seed.
const SEED: u64 = 0xAB1A;

/// Configuration of the variant ablation.
#[derive(Debug, Clone)]
pub struct AblationConfig {
    /// Group sizes to sweep.
    pub group_sizes: Vec<u16>,
}

impl Default for AblationConfig {
    fn default() -> Self {
        Self { group_sizes: vec![4, 8, 12, 16] }
    }
}

impl AblationConfig {
    /// Reduced sweep for tests.
    pub fn quick() -> Self {
        Self { group_sizes: vec![4, 10] }
    }
}

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct AblationPoint {
    /// Group size.
    pub group: u16,
    /// Variant name.
    pub variant: &'static str,
    /// Initiator's switch duration.
    pub initiator: SimTime,
    /// Worst member's switch duration.
    pub worst: SimTime,
    /// Control-frame overhead: frames beyond an identical run that never
    /// switches.
    pub extra_frames: i64,
}

fn run_one(n: u16, variant: SwitchVariant, do_switch: bool) -> RunOutcome {
    let traffic = TrafficSpec {
        group: n,
        senders: SENDERS,
        rate: RATE,
        body_bytes: BODY_BYTES,
        end: END,
        seed: SEED ^ u64::from(n),
        ..TrafficSpec::default()
    };
    let switch = SwitchConfig {
        variant,
        observe_interval: SimTime::from_millis(20),
        ..SwitchConfig::default()
    };
    let plan = if do_switch { vec![(SWITCH_AT, 1usize)] } else { vec![] };
    Scenario::new(n, SEED ^ (u64::from(n) << 6))
        .hybrid(Proto::Seq(0), Proto::Token(SimTime::from_millis(1)), switch, Policy::Manual(plan))
        .traffic(traffic.generate())
        .run(END + SimTime::from_secs(1))
}

/// Runs the ablation serially.
pub fn run(cfg: &AblationConfig) -> Vec<AblationPoint> {
    run_with(cfg, &SweepRunner::serial())
}

/// Runs the ablation on `runner`, one (group size × variant) cell per
/// sweep job; cells come back in grid order, so output matches [`run`]'s.
pub(crate) fn run_with(cfg: &AblationConfig, runner: &SweepRunner) -> Vec<AblationPoint> {
    let grid: Vec<(u16, (&'static str, SwitchVariant))> = cfg
        .group_sizes
        .iter()
        .flat_map(|&n| {
            [
                ("broadcast", SwitchVariant::Broadcast),
                ("token-ring", SwitchVariant::TokenRing { idle_hold: SimTime::from_millis(2) }),
            ]
            .into_iter()
            .map(move |v| (n, v))
        })
        .collect();
    let points = runner.run(grid, |_, (n, (name, variant))| {
        // Per-variant baseline without a switch, so the frame
        // subtraction isolates the switch and what it switches to (the
        // idle rings sleep in both runs).
        let base = run_one(n, variant, false);
        let r = run_one(n, variant, true);
        let recs: Vec<_> =
            r.handles.iter().filter_map(|h| h.snapshot().records.first().cloned()).collect();
        if recs.len() < usize::from(n) {
            return None;
        }
        Some(AblationPoint {
            group: n,
            variant: name,
            initiator: recs[0].duration(),
            worst: recs.iter().map(|r| r.duration()).max().unwrap(),
            extra_frames: r.driver.net_stats().frames_sent as i64
                - base.driver.net_stats().frames_sent as i64,
        })
    });
    points.into_iter().flatten().collect()
}

/// `repro ablation`.
pub(crate) fn artefacts(ask: &super::Ask) -> super::Artefacts {
    let cfg = ask.budget(AblationConfig::quick, Default::default);
    super::one_table(ask, &render(&run_with(&cfg, &ask.runner)), SEED, format!("{cfg:?}"))
}

/// Renders the ablation table.
fn render(points: &[AblationPoint]) -> Table {
    let mut t = Table::new(
        "Ablation — switching-protocol variant (one switch, moderate load)",
        vec!["group", "variant", "initiator (ms)", "worst member (ms)", "Δ frames vs no-switch"],
    );
    for p in points {
        t.row(vec![
            p.group.to_string(),
            p.variant.into(),
            format!("{:.1}", p.initiator.as_millis_f64()),
            format!("{:.1}", p.worst.as_millis_f64()),
            p.extra_frames.to_string(),
        ]);
    }
    t.note("broadcast: 2 broadcast rounds + n unicasts; token: 3 ring rotations (duration grows with n)");
    t.note("Δ frames is POSITIVE: both rings sleep through the run that never switches; the switch lands on the token data protocol, which saves a frame per message (1 vs the sequencer's 2) but whose token then rotates at the base hold for as long as there is load — the token protocol's own price, paid only while it is the current protocol");
    t
}
