//! What an attached but switched-off instrument costs the bare [`Sim`]
//! loop: every untraced run carries a disabled `ps-obs` [`Recorder`], every
//! unprofiled one a disabled `ps-prof` [`Profiler`], and neither may cost
//! more than 3 %.
//!
//! Four loads with no protocol stack — broadcast-heavy (fan-out packets
//! hammer the queue and the per-node busy/pending machinery) and
//! timer-heavy (self-re-arming timers spread from 10 µs to 50 ms), at 10
//! and 100 nodes — each run plain, with the recorder (`_obs`) and with the
//! profiler (`_prof`). Per load the three variants take turns: 3 untimed
//! rounds, then 20 timed ones, keeping each variant's fastest run (the
//! estimator least moved by scheduler noise). The gate is the median of
//! the eight `variant / plain` ratios, below 1.03; it takes no arguments,
//! reads no environment and always asserts.
//!
//! "Plain" still carries `SimConfig`'s defaults, a zero-capacity disabled
//! recorder and a disabled profiler, so the ratio prices what *attaching*
//! an instrument adds. Work added to every disabled path is paid on both
//! sides and does not show here.
//!
//! ```text
//! cargo bench -p ps-simnet --bench instruments_off
//! ```

use ps_bytes::Bytes;
use ps_obs::Recorder;
use ps_prof::Profiler;
use ps_simnet::{Agent, Dest, Packet, PointToPoint, Sim, SimApi, SimConfig, SimTime, TimerToken};
use std::hint::black_box;
use std::time::Instant;

const WARMUP: u32 = 3;
const ITERS: u32 = 20;
const BUDGET: f64 = 1.03;

/// First `talkers` nodes broadcast to everyone else every `period`, for a
/// fixed number of rounds, then the run quiesces.
struct Broadcaster {
    rounds_left: u32,
    period: SimTime,
    payload: Bytes,
}

impl Agent for Broadcaster {
    fn on_start(&mut self, api: &mut SimApi<'_>) {
        if self.rounds_left > 0 {
            api.set_timer(self.period, TimerToken(0));
        }
    }
    fn on_packet(&mut self, _: Packet, _: &mut SimApi<'_>) {}
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

/// Which instrument rides along, attached and switched off.
#[derive(Clone, Copy)]
enum Variant {
    Plain,
    Obs,
    Prof,
}

const VARIANTS: [Variant; 3] = [Variant::Plain, Variant::Obs, Variant::Prof];

impl Variant {
    fn suffix(self) -> &'static str {
        match self {
            Variant::Plain => "",
            Variant::Obs => "_obs",
            Variant::Prof => "_prof",
        }
    }

    /// Runs `agents` to quiescence under this variant and returns the
    /// number of events processed. The instrument is built inside the
    /// timed run, as every run that carries one builds it.
    fn run<A: Agent>(self, seed: u64, service_us: u64, agents: Vec<A>) -> u64 {
        let cfg = SimConfig::default().seed(seed).service_time(SimTime::from_micros(service_us));
        let cfg = match self {
            Variant::Plain => cfg,
            Variant::Obs => {
                let rec = Recorder::with_capacity(1 << 12);
                rec.set_enabled(false);
                cfg.recorder(rec)
            }
            Variant::Prof => cfg.prof(Profiler::disabled()),
        };
        let mut sim = Sim::new(cfg, Box::new(PointToPoint::new(SimTime::from_micros(120))), agents);
        sim.run_to_quiescence();
        sim.stats().events_processed
    }
}

fn broadcast_run(v: Variant, nodes: u16, talkers: u16, rounds: u32) -> u64 {
    let payload = Bytes::from_static(&[0xB7; 256]);
    let agents = (0..nodes)
        .map(|i| Broadcaster {
            rounds_left: if i < talkers { rounds } else { 0 },
            period: SimTime::from_micros(500),
            payload: payload.clone(),
        })
        .collect();
    v.run(7, 5, agents)
}

fn timer_run(v: Variant, nodes: u16, rounds: u32) -> u64 {
    v.run(11, 1, (0..nodes).map(|_| TimerChurn { rounds_left: rounds }).collect())
}

/// The fastest of `ITERS` timed runs of each variant, in nanoseconds, the
/// variants taking turns so that host drift lands on all three alike.
fn min_ns(load: impl Fn(Variant) -> u64) -> [u64; 3] {
    let plain_events = load(Variant::Plain);
    for _ in 0..WARMUP {
        for v in VARIANTS {
            assert_eq!(black_box(load(v)), plain_events, "a disabled instrument changed the run");
        }
    }
    let mut best = [u64::MAX; 3];
    for _ in 0..ITERS {
        for (i, v) in VARIANTS.into_iter().enumerate() {
            let start = Instant::now();
            black_box(load(v));
            best[i] = best[i].min(start.elapsed().as_nanos() as u64);
        }
    }
    best
}

fn main() {
    let loads: [(&str, &dyn Fn(Variant) -> u64); 4] = [
        // Broadcast-heavy: sends × (n − 1) packet deliveries dominate.
        ("broadcast_10", &|v| broadcast_run(v, 10, 10, 500)),
        ("broadcast_100", &|v| broadcast_run(v, 100, 20, 50)),
        // Timer-heavy: 4 × rounds self-re-arming timers per node.
        ("timer_10", &|v| timer_run(v, 10, 2500)),
        ("timer_100", &|v| timer_run(v, 100, 250)),
    ];
    let mut ratios = Vec::new();
    for (name, load) in loads {
        let best = min_ns(load);
        for (v, &ns) in VARIANTS.iter().zip(&best).skip(1) {
            ratios.push((format!("{name}{}", v.suffix()), ns as f64 / best[0] as f64));
        }
    }
    ratios.sort_by(|a, b| a.1.total_cmp(&b.1));
    let median = ratios[ratios.len() / 2].1;
    println!(
        "instruments_off: disabled recorder/profiler overhead, median ratio {median:.3} over {} \
         pairs (budget {BUDGET})",
        ratios.len()
    );
    assert!(
        median < BUDGET,
        "a disabled recorder/profiler costs {:.1} % on the engine hot path (budget 3 %): {ratios:.3?}",
        (median - 1.0) * 100.0
    );
}
