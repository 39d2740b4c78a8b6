//! Figure 2: message latency vs. number of active senders.
//!
//! Paper setup: "a group of ten processes … A subgroup of varying size is
//! sending 50 messages per second per member. In this case, there is a
//! cross-over point when the size of the subset is between 5 and 6 active
//! senders." The sequencer's latency is low until the shared medium and
//! its own CPU saturate; the token protocol pays roughly half a ring
//! rotation regardless of load. We additionally run the paper's hybrid —
//! the switch with a threshold oracle — which should track the lower
//! envelope of the two curves.

use crate::measure::{latency_samples, LatencyStats, SteadyStateWindow};
use crate::report::Table;
use crate::scenario::{Policy, RunOutcome, Scenario};
use crate::sweep::SweepRunner;
use ps_core::{Proto, SwitchConfig, SwitchVariant};
use ps_simnet::SimTime;
use ps_workload::TrafficSpec;

/// Per-sender message rate (paper: 50 msg/s).
const RATE: f64 = 50.0;
/// Message body size: 2 KiB puts the sequencer's saturation, and so the
/// crossover, between 5 and 6 senders on the 10 Mbit bus.
const BODY_BYTES: usize = 2048;
/// Token idle hold: the token protocol's latency floor.
const IDLE_HOLD: SimTime = SimTime::from_millis(1);
/// Per-node CPU service time per event.
const SERVICE: SimTime = SimTime::from_micros(150);
/// The hybrid oracle's threshold (active senders) and hysteresis.
const THRESHOLD: usize = 5;
const HYSTERESIS: usize = 0;
/// Workload start.
const START: SimTime = SimTime::from_millis(100);

/// Parameters of the Figure-2 sweep; defaults are the calibrated testbed
/// stand-in (see DESIGN.md §1 and EXPERIMENTS.md).
#[derive(Debug, Clone)]
pub struct Fig2Config {
    /// Group size (paper: 10).
    pub group: u16,
    /// Active-sender counts to sweep (paper: 1..=10).
    pub senders: Vec<u16>,
    /// Workload warm-up excluded from measurement.
    pub warmup: SimTime,
    /// Measured workload duration.
    pub measure: SimTime,
    /// Random seed.
    pub seed: u64,
}

impl Default for Fig2Config {
    fn default() -> Self {
        Self {
            group: 10,
            senders: (1..=10).collect(),
            warmup: SimTime::from_millis(800),
            measure: SimTime::from_secs(4),
            seed: 0xF162,
        }
    }
}

impl Fig2Config {
    /// A reduced sweep for tests and CI.
    pub fn quick() -> Self {
        Self {
            senders: vec![1, 2, 4, 5, 6, 8, 10],
            warmup: SimTime::from_millis(500),
            measure: SimTime::from_millis(1500),
            ..Self::default()
        }
    }

    /// The measured window: the workload after its warm-up.
    fn window(&self) -> SteadyStateWindow {
        SteadyStateWindow::between(START + self.warmup, START + self.warmup + self.measure)
    }
}

/// Which protocol a sweep runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Series {
    /// Fixed-sequencer total order.
    Sequencer,
    /// Rotating-token total order.
    Token,
    /// The switching hybrid with a threshold oracle.
    Hybrid,
}

impl Series {
    /// All three series.
    pub const ALL: [Series; 3] = [Series::Sequencer, Series::Token, Series::Hybrid];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Series::Sequencer => "sequencer",
            Series::Token => "token",
            Series::Hybrid => "hybrid",
        }
    }
}

/// One sweep point.
#[derive(Debug, Clone)]
pub struct Fig2Point {
    /// Active senders.
    pub senders: u16,
    /// Latency per series, in [`Series::ALL`] order.
    pub latency: [LatencyStats; 3],
    /// Switches the hybrid performed at this point.
    pub hybrid_switches: usize,
    /// Protocol the hybrid settled on (0 = sequencer, 1 = token).
    pub hybrid_final: usize,
    /// Hybrid latency measured only after its last switch settled —
    /// isolates steady state from the one-off switching transient.
    pub hybrid_settled: LatencyStats,
}

/// The full figure.
#[derive(Debug, Clone)]
pub struct Fig2Result {
    /// Sweep points in sender order.
    pub points: Vec<Fig2Point>,
    /// Sender counts `(k, k')` between which sequencer and token mean
    /// latencies cross, if they do.
    pub crossover: Option<(u16, u16)>,
    /// Hybrid latency pooled over the whole sweep: every point's samples
    /// together (each point possibly measured on a different worker
    /// thread).
    pub hybrid_overall: LatencyStats,
}

/// Runs one configuration (protocol × sender count); for the hybrid the
/// outcome carries its switch handles.
pub fn run_point(cfg: &Fig2Config, series: Series, k: u16) -> RunOutcome {
    let end = cfg.window().to;
    let traffic = TrafficSpec {
        group: cfg.group,
        senders: k,
        rate: RATE,
        body_bytes: BODY_BYTES,
        start: START,
        end,
        seed: cfg.seed ^ u64::from(k),
        ..TrafficSpec::default()
    };
    let scenario = Scenario::new(cfg.group, cfg.seed ^ (u64::from(k) << 8)).service_time(SERVICE);
    let scenario = match series {
        Series::Sequencer => scenario.stack(Proto::Seq(0)),
        Series::Token => scenario.stack(Proto::Token(IDLE_HOLD)),
        Series::Hybrid => {
            // React quickly: the paper's §7 warning is that waiting too
            // long to leave a congesting protocol makes the flush (and so
            // the switch) expensive.
            let switch = SwitchConfig {
                variant: SwitchVariant::TokenRing { idle_hold: SimTime::from_millis(2) },
                observe_interval: SimTime::from_millis(50),
                observe_window: SimTime::from_millis(250),
                ..SwitchConfig::default()
            };
            // The cooldown stops the post-flip drain stall from being
            // mistaken for an idle group (a flap back to the congested
            // protocol would be catastrophic at high load).
            let policy = Policy::Threshold {
                threshold: THRESHOLD,
                hysteresis: HYSTERESIS,
                cooldown: SimTime::from_secs(1),
            };
            scenario.hybrid(Proto::Seq(0), Proto::Token(IDLE_HOLD), switch, policy)
        }
    };
    // Let in-flight messages drain past the workload end.
    scenario.traffic(traffic.generate()).run(end + SimTime::from_secs(2))
}

/// What one (protocol × sender count) run contributes to its sweep point
/// — plain data, so points can be evaluated on worker threads and merged
/// in input order: its latency and, for the hybrid, the switches, the
/// protocol it settled on, its settled latency and its sorted latency
/// samples (µs).
type SeriesEval = (LatencyStats, Option<(usize, usize, LatencyStats, Vec<u64>)>);

/// Builds, runs, and measures one (protocol × sender count) simulation.
fn eval_series(cfg: &Fig2Config, series: Series, k: u16) -> SeriesEval {
    let window = cfg.window();
    let r = run_point(cfg, series, k);
    if series != Series::Hybrid {
        return (r.latency(window), None);
    }
    // Report the state at workload end (afterwards the oracle correctly
    // adapts back down to the idle-optimal protocol).
    let records = r.handles[0].snapshot().records;
    let during: Vec<_> = records.iter().filter(|rec| rec.completed_at <= window.to).collect();
    let switches = during.len();
    let settled_on = during.last().map_or(0, |rec| rec.to);
    // Steady state after the last mid-workload switch (every member must
    // have flipped, hence the global max).
    let all_flipped = r
        .handles
        .iter()
        .flat_map(|h| h.snapshot().records)
        .filter(|rec| rec.completed_at <= window.to)
        .map(|rec| rec.completed_at)
        .max();
    let settled_from =
        all_flipped.map(|t| t + SimTime::from_millis(200)).unwrap_or(window.from).max(window.from);
    let settled = r.latency(SteadyStateWindow::between(settled_from, window.to));
    let (samples, incomplete) = latency_samples(&r.driver, window);
    (LatencyStats::of(&samples, incomplete), Some((switches, settled_on, settled, samples)))
}

/// Runs the whole sweep serially.
pub fn run(cfg: &Fig2Config) -> Fig2Result {
    run_with(cfg, &SweepRunner::serial())
}

/// Runs the whole sweep on `runner`, fanning the independent
/// (protocol × sender count) points across its workers. Each point owns
/// its simulation and seed, and results are merged in grid order, so the
/// result is identical to [`run`]'s whatever the worker count.
pub(crate) fn run_with(cfg: &Fig2Config, runner: &SweepRunner) -> Fig2Result {
    let grid: Vec<(u16, Series)> =
        cfg.senders.iter().flat_map(|&k| Series::ALL.into_iter().map(move |s| (k, s))).collect();
    let evals = runner.run(grid, |_, (k, series)| eval_series(cfg, series, k));
    // Pool the per-point hybrid samples (each measured on whichever
    // worker ran its point) into one sweep-wide latency distribution.
    let (mut pooled, mut incomplete) = (Vec::new(), 0);
    let points = cfg
        .senders
        .iter()
        .zip(evals.chunks_exact(Series::ALL.len()))
        .map(|(&k, chunk)| {
            let (switches, settled_on, settled, samples) =
                chunk[2].1.as_ref().expect("the hybrid is the third series");
            pooled.extend_from_slice(samples);
            incomplete += chunk[2].0.incomplete;
            Fig2Point {
                senders: k,
                latency: [chunk[0].0, chunk[1].0, chunk[2].0],
                hybrid_switches: *switches,
                hybrid_final: *settled_on,
                hybrid_settled: *settled,
            }
        })
        .collect::<Vec<_>>();
    let crossover = find_crossover(&points);
    pooled.sort_unstable();
    Fig2Result { points, crossover, hybrid_overall: LatencyStats::of(&pooled, incomplete) }
}

/// Finds adjacent sender counts where the sequencer goes from faster to
/// slower than the token protocol.
pub fn find_crossover(points: &[Fig2Point]) -> Option<(u16, u16)> {
    points.windows(2).find_map(|w| {
        let below = w[0].latency[0].mean <= w[0].latency[1].mean;
        let above = w[1].latency[0].mean > w[1].latency[1].mean;
        (below && above).then_some((w[0].senders, w[1].senders))
    })
}

/// `repro fig2`.
pub(crate) fn artefacts(ask: &super::Ask) -> super::Artefacts {
    let cfg = ask.budget(Fig2Config::quick, Default::default);
    super::one_table(ask, &render(&run_with(&cfg, &ask.runner)), cfg.seed, format!("{cfg:?}"))
}

/// One of `stats`' latencies in ms, or `-` when its window held no
/// sample: an empty window's zeroes are not a latency.
fn ms(stats: &LatencyStats, latency: SimTime) -> String {
    if stats.samples == 0 {
        "-".into()
    } else {
        format!("{:.2}", latency.as_millis_f64())
    }
}

/// Renders the figure as a text table (one row per sender count).
fn render(result: &Fig2Result) -> Table {
    let mut t = Table::new(
        "Figure 2 — message latency (ms) vs. active senders (n=10, 50 msg/s each)",
        vec![
            "senders",
            "sequencer",
            "token",
            "hybrid",
            "hybrid settled",
            "hybrid p50",
            "hybrid p99",
            "hybrid proto",
            "switches",
        ],
    );
    for p in &result.points {
        t.row(vec![
            p.senders.to_string(),
            ms(&p.latency[0], p.latency[0].mean),
            ms(&p.latency[1], p.latency[1].mean),
            ms(&p.latency[2], p.latency[2].mean),
            ms(&p.hybrid_settled, p.hybrid_settled.mean),
            ms(&p.latency[2], p.latency[2].p50),
            ms(&p.latency[2], p.latency[2].p99),
            if p.hybrid_final == 0 { "sequencer".into() } else { "token".into() },
            p.hybrid_switches.to_string(),
        ]);
    }
    t.note("'hybrid settled' excludes the one-off switching transient: it counts messages sent from 200 ms after the last switch on, '-' when the workload ended before that; at high load the transient is dominated by draining the congested old protocol (the paper's §7 caveat)");
    t.note("hybrid p50/p99 are exact: the sample at index round((n-1)·q) of the sorted latencies, in ms");
    t.note(format!(
        "hybrid latency pooled over the sweep (every point's samples): p50={:.2} ms, p99={:.2} ms over {} samples",
        result.hybrid_overall.p50.as_millis_f64(),
        result.hybrid_overall.p99.as_millis_f64(),
        result.hybrid_overall.samples,
    ));
    match result.crossover {
        Some((a, b)) => t.note(format!(
            "sequencer/token cross-over between {a} and {b} active senders (paper: between 5 and 6)"
        )),
        None => t.note("no cross-over found in the sweep"),
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_empty_settled_window_renders_as_a_dash() {
        let measured = LatencyStats::of(&[3_000, 4_000, 5_000], 0);
        let empty = LatencyStats::of(&[], 0);
        let point = |hybrid_settled| Fig2Point {
            senders: 10,
            latency: [measured; 3],
            hybrid_switches: 1,
            hybrid_final: 1,
            hybrid_settled,
        };
        let result = Fig2Result {
            points: vec![point(measured), point(empty)],
            crossover: None,
            hybrid_overall: measured,
        };
        let csv = render(&result).to_csv();
        let rows: Vec<Vec<&str>> = csv
            .lines()
            .filter(|l| !l.starts_with('#'))
            .skip(1)
            .map(|l| l.split(',').collect())
            .collect();
        assert_eq!(rows[0][1..7], ["4.00", "4.00", "4.00", "4.00", "4.00", "5.00"]);
        assert_eq!(rows[1][1..7], ["4.00", "4.00", "4.00", "-", "4.00", "5.00"]);
    }
}
