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
use crate::sweep::SweepRunner;
use crate::workload::{periodic_senders, WorkloadSpec};
use ps_core::{
    hybrid_total_order, ManualOracle, NeverOracle, Oracle, SwitchConfig, SwitchHandle,
    SwitchVariant,
};
use ps_simnet::{EthernetConfig, SharedBus, SimTime};
use ps_stack::GroupSimBuilder;
use ps_trace::ProcessId;
use std::cell::RefCell;
use std::rc::Rc;

/// Configuration of the variant ablation.
#[derive(Debug, Clone)]
pub struct AblationConfig {
    /// Group sizes to sweep.
    pub group_sizes: Vec<u16>,
    /// Active senders (fixed moderate load).
    pub senders: u16,
    /// Per-sender rate.
    pub rate: f64,
    /// When the measured switch fires.
    pub switch_at: SimTime,
    /// Run end.
    pub end: SimTime,
    /// Seed.
    pub seed: u64,
}

impl Default for AblationConfig {
    fn default() -> Self {
        Self {
            group_sizes: vec![4, 8, 12, 16],
            senders: 3,
            rate: 40.0,
            switch_at: SimTime::from_millis(600),
            end: SimTime::from_millis(1_500),
            seed: 0xAB1A,
        }
    }
}

impl AblationConfig {
    /// Reduced sweep for tests.
    pub fn quick() -> Self {
        Self { group_sizes: vec![4, 10], ..Self::default() }
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

fn run_one(
    cfg: &AblationConfig,
    n: u16,
    sw_variant: SwitchVariant,
    do_switch: bool,
) -> (u64, Vec<SwitchHandle>) {
    let handles: Rc<RefCell<Vec<SwitchHandle>>> = Rc::new(RefCell::new(Vec::new()));
    let h2 = handles.clone();
    let plan = if do_switch { vec![(cfg.switch_at, 1usize)] } else { vec![] };
    let spec = WorkloadSpec {
        rate_per_sender: cfg.rate,
        body_bytes: 1024,
        start: SimTime::from_millis(100),
        end: cfg.end,
        seed: cfg.seed ^ u64::from(n),
        ..WorkloadSpec::for_group(n, cfg.senders)
    };
    let mut b = GroupSimBuilder::new(n)
        .seed(cfg.seed ^ (u64::from(n) << 6))
        .medium(Box::new(SharedBus::new(EthernetConfig::default())))
        .stack_factory(move |p, _, ids| {
            let oracle: Box<dyn Oracle> = if p == ProcessId(0) {
                Box::new(ManualOracle::new(plan.clone()))
            } else {
                Box::new(NeverOracle)
            };
            let sw_cfg = SwitchConfig {
                variant: sw_variant,
                observe_interval: SimTime::from_millis(20),
                ..SwitchConfig::default()
            };
            let (stack, handle) = hybrid_total_order(ids, sw_cfg, ProcessId(0), oracle);
            h2.borrow_mut().push(handle);
            stack
        });
    b = b.sends(periodic_senders(&spec));
    let mut sim = b.build();
    sim.run_until(cfg.end + SimTime::from_secs(1));
    let frames = sim.net_stats().frames_sent;
    let handles = handles.borrow().clone();
    (frames, handles)
}

/// Runs the ablation serially.
pub fn run(cfg: &AblationConfig) -> Vec<AblationPoint> {
    run_with(cfg, &SweepRunner::serial())
}

/// Runs the ablation on `runner`, one (group size × variant) cell per
/// sweep job; cells come back in grid order, so output matches [`run`]'s.
pub fn run_with(cfg: &AblationConfig, runner: &SweepRunner) -> Vec<AblationPoint> {
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
        let (base_frames, _) = run_one(cfg, n, variant, false);
        let (frames, handles) = run_one(cfg, n, variant, true);
        let recs: Vec<_> =
            handles.iter().filter_map(|h| h.snapshot().records.first().cloned()).collect();
        if recs.len() < usize::from(n) {
            return None;
        }
        Some(AblationPoint {
            group: n,
            variant: name,
            initiator: recs[0].duration(),
            worst: recs.iter().map(|r| r.duration()).max().unwrap(),
            extra_frames: frames as i64 - base_frames as i64,
        })
    });
    points.into_iter().flatten().collect()
}

/// Renders the ablation table.
pub fn render(points: &[AblationPoint]) -> Table {
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
