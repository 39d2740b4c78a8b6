//! Figure 2 as a benchmark: one sweep point per protocol per load level.
//! The harness statistics quantify the simulation cost; the *scientific*
//! output (latencies, crossover) is printed by `repro fig2`.

use ps_bench::timing::Bench;
use ps_harness::experiments::fig2::{run_point, Fig2Config, Series};
use std::hint::black_box;

fn main() {
    let cfg = Fig2Config {
        warmup: ps_simnet::SimTime::from_millis(200),
        measure: ps_simnet::SimTime::from_millis(600),
        ..Fig2Config::default()
    };
    let mut bench = Bench::from_args();
    let mut group = bench.group("fig2");
    group.iters(10);
    for series in Series::ALL {
        for k in [2u16, 8] {
            group.bench(format!("{}/{k}", series.name()), || {
                let r = run_point(black_box(&cfg), series, k);
                black_box(r.driver.net_stats().frames_sent)
            });
        }
    }
    drop(group);
    bench.finish();
}
