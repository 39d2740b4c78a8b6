//! The parallel sweep runner must be invisible in the output, on seeds
//! beyond the `--quick` ones too: for each config and seed, the rendered
//! reports and exported files are byte-identical to the serial path's,
//! whatever the worker count. (Every `--quick` run is pinned, serial and
//! on four workers, by `experiment_table.rs` against `pins.jsonl`.)
//!
//! The multi-seed outputs are pinned here too: their FNV-64 digests were
//! recorded while every harness module still assembled its runs by hand,
//! before they went through `ps_harness::scenario`. A byte that moves in
//! any of them fails here. The two pins over recorded events were
//! re-pinned once since, when a layer span became one record closed in
//! place rather than a begin/end pair (JSON-lines schema version 2).

use ps_harness::ledger::fnv1a;
use ps_harness::{explain, monitor_run, profile, trace_run, SweepRunner};

#[track_caller]
fn pinned(what: &str, text: &str, want: u64) {
    let got = fnv1a(text.as_bytes());
    assert_eq!(got, want, "{what} moved: digest {got:#018x}, pinned {want:#018x}");
}

#[test]
fn traced_runs_are_byte_identical_under_the_parallel_runner() {
    // Instrumented sims with per-run recorders, fanned across workers:
    // every exported trace must match its serial twin byte for byte.
    let seeds: Vec<u64> = vec![1, 2, 3, 4];
    let job = |_: usize, seed: u64| {
        let cfg = trace_run::TraceRunConfig { seed, ..trace_run::TraceRunConfig::quick() };
        let r = trace_run::run(&cfg);
        (
            ps_obs::export::to_jsonl_with(&r.events, r.overwritten),
            ps_obs::export::to_chrome_with(&r.events, r.overwritten),
        )
    };
    let serial = SweepRunner::serial().run(seeds.clone(), job);
    let parallel = SweepRunner::new(4).run(seeds, job);
    assert_eq!(serial, parallel);
    assert!(serial.iter().all(|(j, c)| !j.is_empty() && !c.is_empty()));
    let exports: String = serial.iter().map(|(j, c)| format!("{j}{c}")).collect();
    // Re-pinned for one span record per handler call (was
    // 0xd7d3fde6c5f92b4f with `layer_begin` / `layer_end` pairs): the
    // JSONL loses its `layer_end` lines and their seqs, the Chrome file
    // writes one `X` event per span.
    pinned("trace JSONL + Chrome exports", &exports, 0x7fc5c2ed5c66a8a6);
}

#[test]
fn monitor_series_is_byte_identical_under_the_parallel_runner() {
    // Monitored runs — sampler, streaming monitors, and a load-driven
    // oracle all live — fanned across workers: the exported time series
    // and the rendered reports must match the serial run byte for byte.
    let seeds: Vec<u64> = vec![0x40B5, 7, 19];
    let job = |_: usize, seed: u64| {
        let cfg = monitor_run::MonitorRunConfig { seed, ..monitor_run::MonitorRunConfig::quick() };
        let r = monitor_run::run(&cfg);
        (
            r.sampler.to_jsonl(),
            r.sampler.to_csv(),
            monitor_run::render_report(&r).to_string(),
            monitor_run::render_switches(&r).to_string(),
        )
    };
    let serial = SweepRunner::serial().run(seeds.clone(), job);
    let parallel = SweepRunner::new(4).run(seeds, job);
    assert_eq!(serial, parallel);
    assert!(serial.iter().all(|(jsonl, csv, ..)| !jsonl.is_empty() && !csv.is_empty()));
    pinned("monitor series, report and switches", &format!("{serial:?}"), 0x547a5ff0b03705d8);
}

#[test]
fn explain_attribution_and_postmortem_are_byte_identical_under_the_parallel_runner() {
    // The causal analyzer end to end — rendered critical-path attribution
    // tables for clean runs, flight-recorder bundles (JSONL and Chrome
    // trace) for the fault run — fanned across workers: every byte must
    // be independent of the worker count. A second seed rides along so
    // the causal graph of a different interleaving is checked too.
    let quick = monitor_run::MonitorRunConfig::quick;
    let cfgs: Vec<monitor_run::MonitorRunConfig> = vec![
        quick(),
        monitor_run::MonitorRunConfig { seed: 7, ..quick() },
        monitor_run::MonitorRunConfig { inject_fault: true, ..quick() },
    ];
    let job = |_: usize, cfg: monitor_run::MonitorRunConfig| {
        let res = explain::run(&cfg);
        let bundle = res.bundle.as_ref().map(|b| (b.to_jsonl(), b.to_chrome()));
        (explain::render(&res), bundle, res.lint.len(), res.paths.len())
    };
    let serial = SweepRunner::serial().run(cfgs.clone(), job);
    let parallel = SweepRunner::new(4).run(cfgs, job);
    assert_eq!(serial, parallel);
    // Clean runs attribute switches and carry no bundle; the fault run
    // trips a monitor and must produce one. Lint is clean throughout.
    assert!(serial.iter().all(|(render, _, lint, _)| !render.is_empty() && *lint == 0));
    assert!(serial[0].1.is_none() && serial[1].1.is_none());
    assert!(serial[2].1.is_some(), "fault run must yield a post-mortem bundle");
    assert!(serial[0].3 >= 2, "clean quick run attributes both switches");
    // Re-pinned for one span record per handler call (was
    // 0x17790b6327113c1d): the lint line counts fewer events, and the
    // bundle's ids, meta line and Chrome spans follow the new schema.
    // Re-pinned again when multi-segment runs were deleted (was
    // 0x31d97db918292050): the seed-7 run moved from two segments onto the
    // one bus. The new value was computed on the commit before the
    // deletion with this config; the deletion itself moved no byte.
    pinned("explain + fault bundle", &format!("{serial:?}"), 0x43447efdd3336baf);
}

#[test]
fn profile_structure_is_byte_identical_under_the_parallel_runner() {
    // Profiled runs fanned across workers: each run gets its own
    // profiler, and the *structural* side (span tree, enter counts,
    // covered virtual time) must match the serial twin byte for byte.
    // The nanosecond totals are host noise and are deliberately not
    // compared.
    let seeds: Vec<u64> = vec![0x40B5, 7, 19];
    let job = |_: usize, seed: u64| {
        let cfg = monitor_run::MonitorRunConfig { seed, ..monitor_run::MonitorRunConfig::quick() };
        let r = profile::run(&cfg);
        (r.prof.structure(), r.run.violations.len())
    };
    let serial = SweepRunner::serial().run(seeds.clone(), job);
    let parallel = SweepRunner::new(4).run(seeds, job);
    assert_eq!(serial, parallel);
    assert!(serial.iter().all(|(_, violations)| *violations == 0));
    // (Runtime probe: the `prof` feature lives in ps-prof, not here.)
    if ps_prof::Profiler::enabled().is_enabled() {
        assert!(serial.iter().all(|(s, _)| s.contains("engine/dispatch")), "{serial:?}");
    }
}
