//! Raw simulator engine throughput: events/sec on the bare [`ps_simnet::Sim`]
//! loop (no protocol stack), at 10/100/1000 nodes, under a broadcast-heavy
//! workload (fan-out packets hammer the queue and the per-node busy/pending
//! machinery) and a timer-heavy one (self-re-arming timers with delays
//! spread from 10 µs to 50 ms).
//!
//! Each case processes a fixed, deterministic number of events, so the
//! per-iteration wall time is directly comparable across engine changes;
//! divide the event count (printed nowhere, but stable by construction)
//! by `median_ns` for events/sec. Baselines live in `BENCH_engine.json`.
//!
//! The `*_obs` variants attach a `ps-obs` recorder that is compiled in
//! but *disabled* — the configuration every untraced run now pays for —
//! and the `*_prof` variants do the same with a `ps-prof` profiler. The
//! binary asserts both families' in-run slowdown against their plain
//! siblings stays under 3% (skipped under `PS_BENCH_ITERS` smoke runs,
//! name filters, or `PS_BENCH_NO_BASELINE_CHECK=1`).

use ps_bench::timing::Bench;
use ps_bytes::Bytes;
use ps_obs::Recorder;
use ps_prof::Profiler;
use ps_simnet::{Agent, Dest, Packet, PointToPoint, Sim, SimApi, SimConfig, SimTime, TimerToken};
use std::hint::black_box;

/// First `talkers` nodes broadcast to everyone else every `period`, for a
/// fixed number of rounds, then the run quiesces.
struct Broadcaster {
    rounds_left: u32,
    period: SimTime,
    payload: Bytes,
    received: u64,
}

impl Agent for Broadcaster {
    fn on_start(&mut self, api: &mut SimApi<'_>) {
        if self.rounds_left > 0 {
            api.set_timer(self.period, TimerToken(0));
        }
    }
    fn on_packet(&mut self, _: Packet, _: &mut SimApi<'_>) {
        self.received += 1;
    }
    fn on_timer(&mut self, _: TimerToken, api: &mut SimApi<'_>) {
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            api.send(Dest::Others, self.payload.clone());
            if self.rounds_left > 0 {
                api.set_timer(self.period, TimerToken(0));
            }
        }
    }
}

/// A recorder in the state every untraced run carries: allocated,
/// attached, switched off.
fn idle_recorder() -> Recorder {
    let rec = Recorder::with_capacity(1 << 12);
    rec.set_enabled(false);
    rec
}

/// A profiler in the state every unprofiled run carries: allocated,
/// attached, switched off.
fn idle_profiler() -> Profiler {
    Profiler::disabled()
}

fn broadcast_run(
    nodes: u16,
    talkers: u16,
    rounds: u32,
    rec: Option<Recorder>,
    prof: Option<Profiler>,
) -> u64 {
    let payload = Bytes::from_static(&[0xB7; 256]);
    let agents = (0..nodes)
        .map(|i| Broadcaster {
            rounds_left: if i < talkers { rounds } else { 0 },
            period: SimTime::from_micros(500),
            payload: payload.clone(),
            received: 0,
        })
        .collect();
    let mut cfg = SimConfig::default().seed(7).service_time(SimTime::from_micros(5));
    if let Some(rec) = rec {
        cfg = cfg.recorder(rec);
    }
    if let Some(prof) = prof {
        cfg = cfg.prof(prof);
    }
    let mut sim = Sim::new(cfg, Box::new(PointToPoint::new(SimTime::from_micros(120))), agents);
    sim.run_to_quiescence();
    sim.stats().events_processed
}

/// Every node keeps four self-timers alive, re-arming each with a
/// pseudo-random delay from its node stream (10 µs to 50 ms) until its
/// round budget runs out.
struct TimerChurn {
    rounds_left: u32,
}

impl Agent for TimerChurn {
    fn on_start(&mut self, api: &mut SimApi<'_>) {
        for t in 0..4u64 {
            api.set_timer(SimTime::from_micros(10 + t * 97), TimerToken(t));
        }
    }
    fn on_packet(&mut self, _: Packet, _: &mut SimApi<'_>) {}
    fn on_timer(&mut self, token: TimerToken, api: &mut SimApi<'_>) {
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            let delay = SimTime::from_micros(api.rng().range(10, 50_000));
            api.set_timer(delay, token);
        }
    }
}

fn timer_run(nodes: u16, rounds: u32, rec: Option<Recorder>, prof: Option<Profiler>) -> u64 {
    let agents = (0..nodes).map(|_| TimerChurn { rounds_left: rounds }).collect();
    let mut cfg = SimConfig::default().seed(11).service_time(SimTime::from_micros(1));
    if let Some(rec) = rec {
        cfg = cfg.recorder(rec);
    }
    if let Some(prof) = prof {
        cfg = cfg.prof(prof);
    }
    let mut sim = Sim::new(cfg, Box::new(PointToPoint::new(SimTime::from_micros(120))), agents);
    sim.run_to_quiescence();
    sim.stats().events_processed
}

/// Median per-bench slowdown of the `*_obs` and `*_prof` variants must
/// stay under 3%.
///
/// The gating comparison is in-run: each variant bench against its plain
/// sibling measured seconds earlier in the same process, using `min_ns`
/// (the least scheduler-noise-prone estimator of the true cost), with the
/// median then taken across benches. The stored `BENCH_engine.json`
/// medians from before observability existed are reported alongside for
/// trend-watching, but machine drift between sessions makes them too
/// noisy to gate on.
fn assert_disabled_recorder_overhead(bench: &Bench) {
    if std::env::var("PS_BENCH_ITERS").is_ok()
        || std::env::var("PS_BENCH_NO_BASELINE_CHECK").is_ok()
        || bench.config().filter.is_some()
    {
        return; // smoke/filtered runs have too few or missing samples
    }
    let min_of = |id: &str| {
        bench.results().iter().find(|r| r.id == id).map(|r| r.stats.min_ns).filter(|&n| n > 0)
    };
    let mut ratios: Vec<f64> = Vec::new();
    for r in bench.results() {
        let Some(base_name) = r.id.strip_suffix("_obs").or_else(|| r.id.strip_suffix("_prof"))
        else {
            continue;
        };
        if let Some(base_min) = min_of(base_name) {
            ratios.push(r.stats.min_ns as f64 / base_min as f64);
        }
    }
    if ratios.is_empty() {
        return;
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    let median = ratios[ratios.len() / 2];
    eprintln!(
        "[engine_throughput] disabled recorder/profiler overhead: median ratio {median:.3} over {} benches",
        ratios.len()
    );
    report_against_stored_baseline(bench);
    assert!(
        median < 1.03,
        "disabled recorder/profiler costs {:.1}% on the engine hot path (budget: 3%)",
        (median - 1.0) * 100.0
    );
}

/// Prints how this session's plain benches compare to `BENCH_engine.json`
/// (informational: catches slow drift without failing on machine noise).
fn report_against_stored_baseline(bench: &Bench) {
    let Ok(baseline) = std::fs::read_to_string("BENCH_engine.json")
        .or_else(|_| std::fs::read_to_string("../../BENCH_engine.json"))
    else {
        return;
    };
    // Our own fixed JSON-lines shape: pull "bench" and "median_ns" fields.
    let field = |line: &str, key: &str| -> Option<String> {
        let tag = format!("\"{key}\":");
        let rest = &line[line.find(&tag)? + tag.len()..];
        let rest = rest.trim_start_matches('"');
        let end = rest.find(|c| c == '"' || c == ',' || c == '}')?;
        Some(rest[..end].to_owned())
    };
    for r in bench.results() {
        if r.id.ends_with("_obs") || r.id.ends_with("_prof") {
            continue;
        }
        let base = baseline.lines().find_map(|l| {
            (field(l, "bench").as_deref() == Some(r.id.as_str()))
                .then(|| field(l, "median_ns")?.parse::<u64>().ok())?
        });
        if let Some(base_median) = base.filter(|&b| b > 0) {
            eprintln!(
                "[engine_throughput] {} vs stored baseline: {:.3}x",
                r.id,
                r.stats.median_ns as f64 / base_median as f64
            );
        }
    }
}

fn main() {
    let mut bench = Bench::from_args();
    {
        let mut g = bench.group("engine_throughput");
        g.iters(20);
        // Broadcast-heavy: sends × (n − 1) packet deliveries dominate.
        g.bench("broadcast_10", || black_box(broadcast_run(10, 10, 500, None, None)));
        g.bench("broadcast_100", || black_box(broadcast_run(100, 20, 50, None, None)));
        g.bench("broadcast_1000", || black_box(broadcast_run(1000, 4, 25, None, None)));
        // Timer-heavy: 4 × rounds self-re-arming timers per node.
        g.bench("timer_10", || black_box(timer_run(10, 2500, None, None)));
        g.bench("timer_100", || black_box(timer_run(100, 250, None, None)));
        g.bench("timer_1000", || black_box(timer_run(1000, 25, None, None)));
        // Same loads with an attached-but-disabled recorder: the cost of
        // having observability compiled in must be noise.
        g.bench("broadcast_10_obs", || {
            black_box(broadcast_run(10, 10, 500, Some(idle_recorder()), None))
        });
        g.bench("broadcast_100_obs", || {
            black_box(broadcast_run(100, 20, 50, Some(idle_recorder()), None))
        });
        g.bench("timer_10_obs", || black_box(timer_run(10, 2500, Some(idle_recorder()), None)));
        g.bench("timer_100_obs", || black_box(timer_run(100, 250, Some(idle_recorder()), None)));
        // Same loads with an attached-but-disabled profiler: compiled-in
        // profiling must also be noise.
        g.bench("broadcast_10_prof", || {
            black_box(broadcast_run(10, 10, 500, None, Some(idle_profiler())))
        });
        g.bench("broadcast_100_prof", || {
            black_box(broadcast_run(100, 20, 50, None, Some(idle_profiler())))
        });
        g.bench("timer_10_prof", || black_box(timer_run(10, 2500, None, Some(idle_profiler()))));
        g.bench("timer_100_prof", || black_box(timer_run(100, 250, None, Some(idle_profiler()))));
    }
    assert_disabled_recorder_overhead(&bench);
    bench.finish();
}
