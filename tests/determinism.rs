//! Seed-replayability regression tests: the whole point of the std-only
//! RNG swap is that a `(seed, config)` pair still pins down one exact
//! simulated execution. These tests freeze that contract end to end —
//! from the jittered-periodic workload generator through the medium
//! jitter to the delivered application trace.

use ps_harness::experiments::fig2::{run_point, Fig2Config, Series};
use ps_simnet::SimTime;
use ps_stack::Driver;

fn small_cfg(seed: u64) -> Fig2Config {
    Fig2Config {
        group: 5,
        senders: vec![2],
        warmup: SimTime::from_millis(100),
        measure: SimTime::from_millis(400),
        seed,
    }
}

fn run(series: Series, seed: u64) -> (String, u64, u64) {
    let cfg = small_cfg(seed);
    let mut sim = run_point(&cfg, series, 2).driver;
    sim.run_until(SimTime::from_secs(2));
    let stats = sim.net_stats();
    (sim.app_trace().to_string(), stats.frames_sent, stats.events_processed)
}

#[test]
fn same_seed_gives_identical_traces_across_all_series() {
    for series in Series::ALL {
        let a = run(series, 0xFEED);
        let b = run(series, 0xFEED);
        assert_eq!(a, b, "series {} not replayable", series.name());
        assert!(!a.0.is_empty(), "series {} produced an empty trace", series.name());
    }
}

#[test]
fn different_seeds_give_different_executions() {
    // Weak sanity check on the inverse direction: with jittered send
    // intervals and jittered media, two seeds virtually never schedule
    // identically.
    let a = run(Series::ALL[0], 1);
    let b = run(Series::ALL[0], 2);
    assert_ne!(a, b);
}
