//! `repro real` — the same seeded scenario on simnet and on a real wire.
//!
//! The transport split (`ps_stack::Driver` / `ps_stack::GroupSpec`) makes
//! this a controlled experiment: **one** [`Scenario`] — group size,
//! seeded `ps-workload` schedule, the hybrid total-order stack with a
//! scripted mid-run switch — played by two drivers. [`Scenario::run`]
//! plays it on the simulator; [`Scenario::run_udp`] plays the same
//! `GroupSpec` through `ps_net::UdpGroup` on UDP loopback, one OS thread
//! and one socket per process. No `Layer` sees which one it is on.
//!
//! `--compare` runs both and diffs them along the axes the media *should*
//! agree on:
//!
//! * **deterministic fields** — messages sent, per-monitor verdicts
//!   (total order, per-sender FIFO, delivery accounting, switch
//!   liveness), delivery counts, switch completions/aborts. These must
//!   match exactly; any divergence is a finding and exits 1.
//! * **wall-clock fields** — latency quantiles and their sim/real
//!   ratios, run wall time. These are host measurements; rows carry a
//!   `(wall)` marker so tooling (and the CI determinism check) can
//!   filter them before diffing two reports.
//!
//! The scripted [`ps_core::ManualOracle`] — rather than the load-driven oracle the
//! monitor scenario uses — is deliberate: both media must attempt the
//! switch at the same scenario time, so that verdict rows compare switch
//! *execution*, not oracle *timing* under different clocks. See
//! `docs/transport.md` for the methodology and the known divergences.

use crate::measure::{LatencyStats, SteadyStateWindow};
use crate::report::Table;
use crate::scenario::{Policy, RunOutcome, Scenario};
use ps_core::{Proto, SwitchConfig};
use ps_obs::{TimedEvent, Violation, ViolationKind};
use ps_simnet::{PointToPoint, SimTime};
use ps_stack::Driver;
use ps_workload::TrafficSpec;

/// Sending subgroup size (the workload generator's convention).
const SENDERS: u16 = 2;
/// Message body size.
const BODY_BYTES: usize = 64;
/// Switch-liveness bound for the monitors. Generous: it must hold under
/// OS scheduling jitter, not just simulated rounds.
const LIVENESS_BOUND: SimTime = SimTime::from_secs(2);
/// Seed for the workload schedule and both drivers.
pub const SEED: u64 = 0x5EA1;

/// Configuration shared by both media.
#[derive(Debug, Clone)]
pub struct RealRunConfig {
    /// Group size (process 0 is the sequencer and scripts the switch).
    pub group: u16,
    /// Per-sender rate (msg/s). Kept low: the comparison wants zero
    /// loopback loss, not a throughput stress.
    pub rate: f64,
    /// Workload end (the run drains past it).
    pub end: SimTime,
    /// Scenario time of the scripted sequencer→token switch.
    pub switch_at: SimTime,
    /// Drain time past the workload end before the run is read out.
    pub drain: SimTime,
}

impl Default for RealRunConfig {
    fn default() -> Self {
        Self {
            group: 4,
            rate: 25.0,
            end: SimTime::from_millis(1600),
            switch_at: SimTime::from_millis(800),
            drain: SimTime::from_millis(600),
        }
    }
}

impl RealRunConfig {
    /// Reduced run for tests and the CI smoke (~1 s of wall clock).
    pub fn quick() -> Self {
        Self {
            group: 3,
            rate: 30.0,
            end: SimTime::from_millis(700),
            switch_at: SimTime::from_millis(350),
            drain: SimTime::from_millis(400),
        }
    }

    /// Instant the run stops and is read out.
    pub fn horizon(&self) -> SimTime {
        self.end + self.drain
    }
}

/// One medium's readout, in fields both media can produce.
#[derive(Clone)]
pub struct MediumReport {
    /// `"simnet"` or `"udp-loopback"`.
    pub medium: &'static str,
    /// Application messages the run sent (the whole schedule on both
    /// media; diffed anyway as a sanity anchor).
    pub sent: usize,
    /// Application (message, receiver) deliveries.
    pub deliveries: usize,
    /// Messages some receiver never delivered.
    pub incomplete: usize,
    /// Streaming-monitor violations.
    pub violations: Vec<Violation>,
    /// Completed switches, minimum across processes (every process must
    /// finish the scripted switch for this to be 1).
    pub switches_min: usize,
    /// Aborted switch attempts, summed across processes.
    pub aborts: u64,
    /// Send→deliver latency statistics over the whole run. Simulated
    /// microseconds on simnet, wall-clock microseconds on loopback.
    pub latency: LatencyStats,
    /// The recorder's event snapshot (for `--trace-*` exports).
    pub events: Vec<TimedEvent>,
    /// Ring evictions (monitors stream, so verdicts are unaffected).
    pub overwritten: u64,
    /// Host wall time the run took, in milliseconds. Wall-clock field.
    pub wall_ms: u64,
}

impl MediumReport {
    /// Violation count for one monitor kind.
    pub fn violations_of(&self, kind: ViolationKind) -> usize {
        self.violations.iter().filter(|v| v.kind == kind).count()
    }
}

/// The one scenario both media run: same stacks, same schedule, same
/// seed. The medium only matters on the simulator, where the clean
/// 100 µs point-to-point wire is the closest analogue of an idle
/// loopback.
fn scenario(cfg: &RealRunConfig) -> Scenario {
    let traffic = TrafficSpec {
        group: cfg.group,
        senders: SENDERS,
        rate: cfg.rate,
        body_bytes: BODY_BYTES,
        end: cfg.end,
        seed: SEED,
        ..TrafficSpec::default()
    };
    let policy = Policy::Manual(vec![(cfg.switch_at, 1)]);
    Scenario::new(cfg.group, SEED)
        .medium(Box::new(PointToPoint::new(SimTime::from_micros(100))))
        .hybrid(
            Proto::Seq(0),
            Proto::Token(SimTime::from_millis(1)),
            SwitchConfig::default(),
            policy,
        )
        .traffic(traffic.generate())
        .watch(LIVENESS_BOUND)
        .sample()
}

/// Reads a finished run out into the common report shape.
fn read_out<D: Driver>(medium: &'static str, r: RunOutcome<D>, wall_ms: u64) -> MediumReport {
    let latency = r.latency(SteadyStateWindow::all());
    MediumReport {
        medium,
        sent: r.driver.send_times().len(),
        deliveries: r.driver.deliveries().len(),
        incomplete: latency.incomplete,
        switches_min: r.handles.iter().map(|h| h.switches_completed()).min().unwrap_or(0),
        aborts: r.handles.iter().map(|h| h.aborted()).sum(),
        latency,
        violations: r.violations,
        events: r.events,
        overwritten: r.overwritten,
        wall_ms,
    }
}

/// Runs the scenario on the simulated medium.
pub fn run_sim(cfg: &RealRunConfig) -> MediumReport {
    let started = std::time::Instant::now();
    let r = scenario(cfg).run(cfg.horizon());
    read_out("simnet", r, started.elapsed().as_millis() as u64)
}

/// Runs the *same* scenario over UDP loopback: real sockets, real OS
/// threads, wall-clock time.
pub fn run_real(cfg: &RealRunConfig) -> MediumReport {
    let started = std::time::Instant::now();
    let r = scenario(cfg).run_udp(cfg.horizon());
    read_out("udp-loopback", r, started.elapsed().as_millis() as u64)
}

/// Renders one medium's report. Rows whose values are host measurements
/// carry the `(wall)` marker.
pub fn render_medium(r: &MediumReport) -> Table {
    let mut t = Table::new(&format!("real — {} run", r.medium), vec!["field", "value"]);
    t.row(vec!["messages sent".into(), r.sent.to_string()]);
    t.row(vec!["deliveries (msg × receiver)".into(), r.deliveries.to_string()]);
    t.row(vec!["incomplete messages".into(), r.incomplete.to_string()]);
    for kind in MONITOR_KINDS {
        t.row(vec![format!("monitor: {}", kind.as_str()), verdict_str(r.violations_of(*kind))]);
    }
    t.row(vec!["switches completed (min over processes)".into(), r.switches_min.to_string()]);
    t.row(vec!["switch aborts".into(), r.aborts.to_string()]);
    t.row(vec!["latency p50 µs (wall)".into(), r.latency.p50.as_micros().to_string()]);
    t.row(vec!["latency p99 µs (wall)".into(), r.latency.p99.as_micros().to_string()]);
    t.row(vec!["latency mean µs (wall)".into(), r.latency.mean.as_micros().to_string()]);
    t.row(vec!["run wall time ms (wall)".into(), r.wall_ms.to_string()]);
    if r.overwritten > 0 {
        t.note(format!("ring evicted {} events (monitors streamed regardless)", r.overwritten));
    }
    t
}

/// The monitors both media are judged by, in report order.
const MONITOR_KINDS: &[ViolationKind] = &[
    ViolationKind::TotalOrder,
    ViolationKind::Fifo,
    ViolationKind::DeliveryLoss,
    ViolationKind::SwitchLiveness,
];

fn verdict_str(violations: usize) -> String {
    if violations == 0 {
        "ok".into()
    } else {
        format!("{violations} violation(s)")
    }
}

/// A sim-vs-real comparison: both reports plus the diff verdict.
pub struct CompareResult {
    /// The simulated run.
    pub sim: MediumReport,
    /// The loopback run.
    pub real: MediumReport,
}

impl CompareResult {
    /// The deterministic fields as `(field, simnet, udp-loopback)`, in
    /// report order.
    fn deterministic(&self) -> Vec<(String, String, String)> {
        let (s, r) = (&self.sim, &self.real);
        let row = |field: &str, sim: usize, real: usize| {
            (field.to_owned(), sim.to_string(), real.to_string())
        };
        let mut rows = vec![
            row("messages sent", s.sent, r.sent),
            row("deliveries (msg × receiver)", s.deliveries, r.deliveries),
            row("incomplete messages", s.incomplete, r.incomplete),
        ];
        rows.extend(MONITOR_KINDS.iter().map(|&kind| {
            let (sim, real) =
                (verdict_str(s.violations_of(kind)), verdict_str(r.violations_of(kind)));
            (format!("monitor: {}", kind.as_str()), sim, real)
        }));
        rows.push(row("switches completed", s.switches_min, r.switches_min));
        rows.push(("switch aborts".to_owned(), s.aborts.to_string(), r.aborts.to_string()));
        rows
    }

    /// Deterministic-field divergences, one line each (empty = media
    /// agree everywhere they are required to).
    pub fn divergences(&self) -> Vec<String> {
        let diverged = self.deterministic().into_iter().filter(|(_, sim, real)| sim != real);
        diverged
            .map(|(field, sim, real)| format!("{field}: simnet={sim} udp-loopback={real}"))
            .collect()
    }

    /// Whether the media agree on every deterministic field.
    pub fn media_agree(&self) -> bool {
        self.divergences().is_empty()
    }
}

/// Runs the scenario on both media.
pub fn run_compare(cfg: &RealRunConfig) -> CompareResult {
    CompareResult { sim: run_sim(cfg), real: run_real(cfg) }
}

/// Renders the sim-vs-real diff. Deterministic rows first (must be
/// byte-identical across same-seed invocations); `(wall)` rows are host
/// measurements and excluded from determinism expectations.
pub fn render_compare(r: &CompareResult) -> Table {
    let mut t = Table::new(
        "real — sim vs udp-loopback (same seeded scenario, same stacks)",
        vec!["field", "simnet", "udp-loopback", "verdict"],
    );
    for (field, sim, real) in r.deterministic() {
        let verdict = if sim == real { "match" } else { "DIVERGED" };
        t.row(vec![field, sim, real, verdict.into()]);
    }

    let ratio = |sim: SimTime, real: SimTime| -> String {
        if sim.as_micros() == 0 {
            "n/a".into()
        } else {
            format!("×{:.2}", real.as_micros() as f64 / sim.as_micros() as f64)
        }
    };
    for (name, sim_v, real_v) in [
        ("latency p50 µs (wall)", r.sim.latency.p50, r.real.latency.p50),
        ("latency p99 µs (wall)", r.sim.latency.p99, r.real.latency.p99),
        ("latency mean µs (wall)", r.sim.latency.mean, r.real.latency.mean),
        ("latency max µs (wall)", r.sim.latency.max, r.real.latency.max),
    ] {
        t.row(vec![
            name.into(),
            sim_v.as_micros().to_string(),
            real_v.as_micros().to_string(),
            ratio(sim_v, real_v),
        ]);
    }
    t.row(vec![
        "run wall time ms (wall)".into(),
        r.sim.wall_ms.to_string(),
        r.real.wall_ms.to_string(),
        "-".into(),
    ]);
    t.note("deterministic rows must match; (wall) rows are host measurements — the sim column is simulated time, the real column wall-clock time, so the ratio reads 'real medium is N× the simulated wire'");
    t.note("latency samples are per (message, receiver) over the whole run; see docs/transport.md for tolerances and known divergences");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_matches_sim_on_deterministic_fields() {
        let cfg = RealRunConfig::quick();
        let r = run_compare(&cfg);
        assert!(r.sim.sent > 0, "workload generated no messages");
        assert!(
            r.media_agree(),
            "media diverged on deterministic fields:\n{}",
            r.divergences().join("\n")
        );
        assert_eq!(r.sim.switches_min, 1, "sim must complete the scripted switch");
        assert_eq!(r.real.switches_min, 1, "loopback must complete the scripted switch");
        assert!(r.sim.violations.is_empty() && r.real.violations.is_empty());
    }

    #[test]
    fn sim_side_is_deterministic() {
        let cfg = RealRunConfig::quick();
        let (a, b) = (run_sim(&cfg), run_sim(&cfg));
        assert_eq!(a.deliveries, b.deliveries);
        assert_eq!(a.latency, b.latency);
        assert_eq!(
            ps_obs::export::to_jsonl(&a.events),
            ps_obs::export::to_jsonl(&b.events),
            "same-seed sim traces must be byte-identical"
        );
    }

    #[test]
    fn compare_report_filters_to_a_deterministic_core() {
        let cfg = RealRunConfig::quick();
        let (a, b) = (run_compare(&cfg), run_compare(&cfg));
        let core = |t: &Table| -> String {
            t.to_string().lines().filter(|l| !l.contains("(wall)")).collect::<Vec<_>>().join("\n")
        };
        assert_eq!(
            core(&render_compare(&a)),
            core(&render_compare(&b)),
            "compare report must be deterministic modulo (wall) rows"
        );
    }
}
