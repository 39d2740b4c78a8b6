//! `repro monitor` — live monitoring of a metrics-driven switch run.
//!
//! One group under a ramping load, with the full live-observability loop
//! closed:
//!
//! * a [`ps_obs::MetricsSampler`] rides the simulator clock and emits a
//!   load time series (medium utilization, CPU pressure, queue depths,
//!   in-flight frames) every 50 ms;
//! * a [`ps_core::LoadOracle`] at the sequencer polls that
//!   series and schedules sequencer↔token switches when measured load
//!   crosses its watermarks — the paper's §7 crossover policy driven by
//!   *measured* load instead of a scripted plan;
//! * a [`ps_obs::MonitorSet`] streams every recorded event through the online
//!   property monitors (total order, per-sender FIFO, delivery
//!   accounting, switch liveness), so the run proves its own properties
//!   held *while they were being exercised by the switch*.
//!
//! The scenario ramps: a single quiet sender, then a burst of fast
//! senders that pushes bus utilization over the oracle's high watermark
//! (switch to token), then quiet again so it falls below the low
//! watermark (switch back to the sequencer). The traffic is
//! `ps-workload`'s flash-crowd profile, which reproduces this module's
//! original hand-rolled base + burst workload pair draw for draw (same
//! base seed, burst stream `seed ^ 0xB425`).
//!
//! With [`MonitorRunConfig::inject_fault`] set, a deliberately broken
//! ordering layer is spliced above the switch at one node
//! ([`FAULT_NODE`]): it swaps two adjacent deliveries from different
//! senders, which violates exactly total order (per-sender FIFO and
//! delivery accounting are untouched) — the monitor report must show
//! exactly that one violation, with the two disagreeing deliveries as
//! context.

use crate::report::{ms, Table};
use crate::scenario::{Policy, RunOutcome, Scenario};
use ps_bytes::Bytes;
use ps_core::{Proto, SwitchConfig, SwitchVariant};
use ps_simnet::SimTime;
use ps_stack::{Layer, LayerCtx};
use ps_trace::{Message, ProcessId};
use ps_workload::{Profile, TrafficSpec};

/// Node that gets the broken ordering layer when
/// [`MonitorRunConfig::inject_fault`] is set.
pub const FAULT_NODE: u16 = 2;

/// The one sender active for the whole run, and its rate (msg/s).
const BASE_SENDERS: u16 = 1;
const BASE_RATE: f64 = 20.0;
/// Message body size.
const BODY_BYTES: usize = 512;
/// Switch-liveness bound for the monitors.
const LIVENESS_BOUND: SimTime = SimTime::from_millis(500);
/// Token protocol idle hold (its latency floor and idle bus cost).
const TOKEN_IDLE_HOLD: SimTime = SimTime::from_millis(5);

/// Configuration of the monitored crossover run.
#[derive(Debug, Clone)]
pub struct MonitorRunConfig {
    /// Group size (process 0 is the sequencer and runs the oracle).
    pub group: u16,
    /// Senders active only during the burst.
    pub burst_senders: u16,
    /// Per-sender rate of the burst load (msg/s).
    pub burst_rate: f64,
    /// Burst start.
    pub burst_from: SimTime,
    /// Burst end.
    pub burst_until: SimTime,
    /// Workload end (the run drains past it).
    pub end: SimTime,
    /// Seed.
    pub seed: u64,
    /// Splice the broken ordering layer in at [`FAULT_NODE`].
    pub inject_fault: bool,
}

impl Default for MonitorRunConfig {
    fn default() -> Self {
        Self {
            group: 6,
            burst_senders: 5,
            burst_rate: 40.0,
            burst_from: SimTime::from_millis(1200),
            burst_until: SimTime::from_millis(2400),
            end: SimTime::from_secs(3),
            seed: 0x40B5,
            inject_fault: false,
        }
    }
}

impl MonitorRunConfig {
    /// Reduced run for tests and the CI smoke.
    pub fn quick() -> Self {
        Self {
            group: 4,
            burst_senders: 3,
            burst_rate: 60.0,
            burst_from: SimTime::from_millis(500),
            burst_until: SimTime::from_millis(1100),
            end: SimTime::from_millis(1500),
            ..Self::default()
        }
    }

    /// Instant the run stops: the workload end plus its drain.
    pub fn horizon(&self) -> SimTime {
        self.end + SimTime::from_millis(800)
    }
}

/// A deliberately broken ordering layer: once, it swaps two adjacent
/// upward deliveries that came from *different* senders. Sitting above a
/// total-order stack, that breaks total order at its node while leaving
/// per-sender FIFO and delivery accounting intact — the cleanest possible
/// seeded fault for the monitors to catch. Shared with `repro campaign`,
/// whose `--fault` mode splices it into one grid cell.
pub struct SwapFaultLayer {
    armed: bool,
    held: Option<(ProcessId, Bytes)>,
}

impl SwapFaultLayer {
    /// A fresh, armed fault layer (fires on the first eligible pair).
    pub fn new() -> Self {
        Self { armed: true, held: None }
    }
}

impl Default for SwapFaultLayer {
    fn default() -> Self {
        Self::new()
    }
}

/// The sender of an *application* message, if `bytes` is one.
fn app_sender(bytes: &Bytes) -> Option<ProcessId> {
    let id = Message::peek_id(bytes).ok()?;
    (!id.is_control()).then_some(id.sender)
}

impl Layer for SwapFaultLayer {
    fn name(&self) -> &'static str {
        "swap-fault"
    }

    fn on_up(&mut self, src: ProcessId, bytes: Bytes, ctx: &mut LayerCtx<'_>) {
        if !self.armed {
            ctx.deliver_up(src, bytes);
            return;
        }
        let Some(sender) = app_sender(&bytes) else {
            // Control envelopes pass straight through, even while holding.
            ctx.deliver_up(src, bytes);
            return;
        };
        match self.held.take() {
            None => self.held = Some((src, bytes)),
            Some((held_src, held_bytes)) => {
                let held_sender = app_sender(&held_bytes).expect("held frame was an app message");
                if held_sender != sender {
                    // The fault: the later delivery jumps the queue.
                    ctx.deliver_up(src, bytes);
                    ctx.deliver_up(held_src, held_bytes);
                    self.armed = false;
                } else {
                    ctx.deliver_up(held_src, held_bytes);
                    self.held = Some((src, bytes));
                }
            }
        }
    }
}

/// The monitored crossover scenario, ready to run (`repro profile`
/// attaches its profiler before running it).
pub fn scenario(cfg: &MonitorRunConfig) -> Scenario {
    let traffic = TrafficSpec {
        profile: Profile::FlashCrowd {
            burst_senders: cfg.burst_senders,
            burst_rate: cfg.burst_rate,
            from: cfg.burst_from,
            until: cfg.burst_until,
        },
        group: cfg.group,
        senders: BASE_SENDERS,
        rate: BASE_RATE,
        body_bytes: BODY_BYTES,
        end: cfg.end,
        seed: cfg.seed,
        ..TrafficSpec::default()
    };
    // A slow idle rotation keeps the switch's own control ring from
    // dominating the sampled load — the oracle should see the
    // application traffic, not the instrumentation.
    let switch = SwitchConfig {
        variant: SwitchVariant::TokenRing { idle_hold: SimTime::from_millis(10) },
        observe_interval: SimTime::from_millis(50),
        ..SwitchConfig::default()
    };
    Scenario::new(cfg.group, cfg.seed ^ 0x7a11)
        .hybrid(Proto::Seq(0), Proto::Token(TOKEN_IDLE_HOLD), switch, Policy::Load)
        .swap_fault(cfg.inject_fault)
        .traffic(traffic.generate())
        .watch(LIVENESS_BOUND)
        .sample()
}

/// Runs the monitored crossover scenario.
pub fn run(cfg: &MonitorRunConfig) -> RunOutcome {
    scenario(cfg).run(cfg.horizon())
}

/// Renders the sampled load time series.
pub fn render_series(result: &RunOutcome) -> Table {
    let mut t = Table::new(
        "monitor — sampled load time series (one row per window)",
        vec![
            "t (ms)",
            "frames",
            "copies",
            "bus \u{2030}",
            "max cpu \u{2030}",
            "seq cpu \u{2030}",
            "max queue",
            "in flight",
        ],
    );
    for s in &result.sampler.samples() {
        t.row(vec![
            ms(s.at_us),
            s.frames_sent.to_string(),
            s.copies_delivered.to_string(),
            s.bus_util_permille.to_string(),
            s.max_cpu_permille.to_string(),
            s.seq_cpu_permille.to_string(),
            s.max_queue_depth.to_string(),
            s.in_flight.to_string(),
        ]);
    }
    t.note("permille shares are of the sampling window; the LoadOracle watches max(bus, seq cpu)");
    t
}

/// Renders the oracle-driven switch records, one row per completed
/// switch per process.
pub fn render_switches(result: &RunOutcome) -> Table {
    let mut t = Table::new(
        "monitor — load-driven switches",
        vec!["process", "direction", "prepare (ms)", "flip (ms)", "duration (ms)"],
    );
    for (node, h) in result.handles.iter().enumerate() {
        for r in h.snapshot().records {
            t.row(vec![
                node.to_string(),
                format!("{} \u{2192} {}", r.from, r.to),
                ms(r.started_at.as_micros()),
                ms(r.completed_at.as_micros()),
                ms(r.duration().as_micros()),
            ]);
        }
    }
    t.note("protocol 0 = sequencer, 1 = token; switches are scheduled by the LoadOracle from the sampled series above");
    t
}

/// Renders the violation report, with each violation's witnessing events.
pub fn render_report(result: &RunOutcome) -> Table {
    let mut t = Table::new(
        "monitor — streaming property violations",
        vec!["property", "node", "at (ms)", "detail"],
    );
    for v in &result.violations {
        t.row(vec![v.kind.as_str().to_owned(), v.node.to_string(), ms(v.at_us), v.detail.clone()]);
        for ev in &v.context {
            t.note(format!("  witness: {}us node {} {:?}", ev.at_us, ev.node, ev.ev));
        }
    }
    if result.violations.is_empty() {
        t.note(format!(
            "no violations: total order, per-sender FIFO, delivery of all {} sends, and switch liveness held",
            result.sent
        ));
    }
    if result.overwritten > 0 {
        t.note(format!(
            "ring evicted {} events; the streaming monitors saw every event regardless",
            result.overwritten
        ));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::HIGH_PERMILLE;
    use ps_obs::ViolationKind;

    #[test]
    fn clean_run_switches_on_measured_load_and_stays_violation_free() {
        let cfg = MonitorRunConfig::quick();
        let r = run(&cfg);
        assert!(r.violations.is_empty(), "clean run must have no violations: {:?}", r.violations);
        assert_eq!(r.overwritten, 0, "quick run must fit in the ring");
        assert!(!r.sampler.is_empty());

        // The oracle saw the burst cross the high watermark and left the
        // sequencer; after the burst it came back.
        let records = r.handles[0].snapshot().records;
        assert!(
            records.len() >= 2,
            "expected a forward and a reverse switch, got {records:?}\nseries:\n{}",
            r.sampler.to_csv()
        );
        assert_eq!((records[0].from, records[0].to), (0, 1));
        assert!(records[0].started_at >= cfg.burst_from, "{records:?}");
        assert_eq!((records[1].from, records[1].to), (1, 0));
        assert!(records[1].started_at >= cfg.burst_until, "{records:?}");
        // Every process completed the same switches.
        for h in &r.handles {
            assert_eq!(h.switches_completed(), records.len());
        }
    }

    #[test]
    fn sampled_series_shows_the_burst() {
        let cfg = MonitorRunConfig::quick();
        let r = run(&cfg);
        let samples = r.sampler.samples();
        let util_at = |t: SimTime| {
            samples.iter().rfind(|s| s.at_us <= t.as_micros()).map_or(0, |s| s.bus_util_permille)
        };
        let quiet = util_at(cfg.burst_from);
        let busy = samples
            .iter()
            .filter(|s| {
                s.at_us > cfg.burst_from.as_micros() && s.at_us <= cfg.burst_until.as_micros()
            })
            .map(|s| s.bus_util_permille)
            .max()
            .unwrap_or(0);
        assert!(
            busy > HIGH_PERMILLE && quiet < HIGH_PERMILLE,
            "burst must be visible in the series: quiet={quiet} busy={busy}\n{}",
            r.sampler.to_csv()
        );
    }

    #[test]
    fn fault_run_reports_exactly_the_seeded_total_order_violation() {
        let cfg = MonitorRunConfig { inject_fault: true, ..MonitorRunConfig::quick() };
        let r = run(&cfg);
        if r.sent == 0 {
            return; // tap feature off: no events stream, nothing observable
        }
        assert_eq!(
            r.violations.len(),
            1,
            "the swap must break exactly total order: {:?}",
            r.violations
        );
        let v = &r.violations[0];
        assert_eq!(v.kind, ViolationKind::TotalOrder);
        assert_eq!(v.node, u32::from(FAULT_NODE));
        assert_eq!(v.context.len(), 2, "witness + disagreeing delivery");
        assert!(v.context.iter().all(|e| matches!(e.ev, ps_obs::ObsEvent::AppDeliver { .. })));
    }

    #[test]
    fn series_and_report_are_deterministic() {
        let cfg = MonitorRunConfig::quick();
        let (a, b) = (run(&cfg), run(&cfg));
        assert_eq!(a.sampler.to_jsonl(), b.sampler.to_jsonl());
        assert_eq!(a.sampler.to_csv(), b.sampler.to_csv());
        assert_eq!(render_report(&a).to_string(), render_report(&b).to_string());
        assert_eq!(render_switches(&a).to_string(), render_switches(&b).to_string());
    }
}
