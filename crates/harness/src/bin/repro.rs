//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [table1|table2|fig2|overhead|oscillation|ablation|trace|monitor|explain|chaos|campaign|profile|real|all]
//!       [--quick] [--csv] [--counterexamples] [--serial]
//!       [--trace PATH] [--trace-format jsonl|chrome]
//!       [--fault] [--series PATH] [--manifests PATH]
//!       [--postmortem PATH] [--topology segments:<n>]
//!       [--flame PATH] [--ledger PATH]
//!       [--compare] [--trace-sim PATH] [--trace-real PATH]
//! ```
//!
//! Sweeps run on a worker pool by default (`PS_SWEEP_WORKERS` overrides
//! the size); the output is byte-identical to `--serial` either way.
//! `--trace PATH` writes the instrumented run's event trace to `PATH`
//! (JSON-lines by default, a Chrome `trace_event` file with
//! `--trace-format chrome`); same-seed invocations write byte-identical
//! files.
//!
//! `repro monitor` runs the live-monitoring scenario: streaming property
//! monitors over the event stream, a sampled load time series, and a
//! `LoadOracle` switching on the measured load. `--series PATH` writes
//! the time series (JSON-lines, or CSV with `--csv`); `--fault` splices
//! in the broken ordering layer. Exits 1 if any monitor reports a
//! violation.
//!
//! `repro chaos` runs the fault-injection scenario matrix (crash/recovery
//! around the switch, a partition-spanning switch attempt, frame loss),
//! each run streamed through the property monitors. Exits 1 if any
//! scenario's outcome deviates from its expectation or any monitor
//! reports a violation. See docs/faults.md.
//!
//! `repro campaign` runs the judged campaign grid: every `ps-workload`
//! traffic profile × {sequencer, token, load-driven hybrid} × {no fault,
//! 10%/40% loss, mid-run crash}, each cell monitored. `--manifests PATH`
//! writes the per-cell traffic manifests as JSON-lines; `--fault` splices
//! the broken ordering layer into one cell (which must then fail). Exits
//! 1 if any cell reports a violation or a wedged switch.
//!
//! `repro explain` runs the monitored crossover scenario and prints each
//! switch attempt's **critical-path attribution**: per phase (prepare,
//! drain, flip, release), how much of the wall time the causal chain
//! spent in network transit, CPU service, queueing wait, and timer
//! slack. Deterministic: same seed, byte-identical table. Always exits 0
//! — it explains runs, it does not judge them.
//!
//! `--postmortem PATH` (explain, monitor, chaos, campaign) arms the
//! flight recorder: when the run fails (monitor violation, or a wedged /
//! unexpected scenario outcome), a bounded causal slice — the witnesses,
//! their k-hop causal past, monitor verdicts, and the overlapping load
//! samples — is written to `PATH` (JSON-lines, `trace_lint`-clean) and
//! `PATH.chrome.json` (Chrome trace). Nothing is written when the run is
//! clean.
//!
//! `--topology segments:<n>` (monitor, explain, campaign) spreads the
//! group over `n` bridged shared-Ethernet segments instead of one bus;
//! the same grid runs unchanged, monitors and all.
//!
//! `repro profile` runs the monitored crossover scenario under the
//! in-engine host-time profiler and prints the per-component cost
//! table (engine dispatch/queue/transmit/sampling, each protocol
//! layer, observability record + per-sink fan-out). The `component`
//! and `enters` columns are deterministic; the nanosecond columns are
//! host measurements. `--flame PATH` writes a collapsed-stack
//! flamegraph (`inferno` / `flamegraph.pl` compatible). Not part of
//! `all` (its output is host-dependent by design). Exits 1 if the run
//! has violations.
//!
//! `repro real` runs the same seeded scenario (hybrid total-order stack,
//! scripted mid-run switch, `ps-workload` schedule) over **UDP loopback**
//! — real sockets, one OS thread per process, unmodified layers — with
//! the monitors streaming. With `--compare` it also runs the simulated
//! medium and prints the sim-vs-real diff: deterministic rows (monitor
//! verdicts, delivery counts, switch completions) must match, `(wall)`
//! rows are host measurements. `--trace-sim` / `--trace-real` export
//! either side's event trace (JSON-lines, `trace_lint`-clean). Not part
//! of `all` (its latency columns are wall-clock by design). Exits 1 on any
//! monitor violation or deterministic-field divergence. See
//! docs/transport.md.
//!
//! `--ledger PATH` (every subcommand) appends one self-describing
//! JSON line per subcommand run to `PATH`: the command, seed, a
//! digest of the effective config, tier-0 metrics including a digest
//! of the rendered output, and — for `profile` — the profiler's JSON
//! summary. `ledger_check A.jsonl B.jsonl` diffs two ledger files.

use ps_harness::experiments::{ablation, fig2, oscillation, overhead, table1, table2};
use ps_harness::ledger::LedgerEntry;
use ps_harness::{campaign, chaos, explain, monitor_run, profile, real, trace_run, SweepRunner};

#[derive(Default)]
struct Opts {
    what: String,
    quick: bool,
    csv: bool,
    counterexamples: bool,
    runner: SweepRunner,
    trace_path: Option<String>,
    trace_format: trace_run::TraceFormat,
    fault: bool,
    series_path: Option<String>,
    manifests_path: Option<String>,
    postmortem_path: Option<String>,
    segments: u32,
    flame_path: Option<String>,
    ledger_path: Option<String>,
    compare: bool,
    trace_sim_path: Option<String>,
    trace_real_path: Option<String>,
}

impl Opts {
    /// The `--quick` budget, or the full one.
    fn budget<T>(&self, quick: fn() -> T, full: fn() -> T) -> T {
        if self.quick {
            quick()
        } else {
            full()
        }
    }

    /// The monitored crossover run as the flags ask for it (monitor,
    /// explain and profile share it).
    fn monitor_cfg(&self) -> monitor_run::MonitorRunConfig {
        monitor_run::MonitorRunConfig {
            inject_fault: self.fault,
            segments: self.segments,
            ..self.budget(monitor_run::MonitorRunConfig::quick, Default::default)
        }
    }
}

/// Reports a command-line mistake and exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn parse() -> Opts {
    let mut o = Opts { what: "all".to_owned(), segments: 1, ..Opts::default() };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => o.quick = true,
            "--csv" => o.csv = true,
            "--counterexamples" => o.counterexamples = true,
            "--serial" => o.runner = SweepRunner::serial(),
            "--fault" => o.fault = true,
            "--compare" => o.compare = true,
            "--topology" => {
                o.segments = args
                    .next()
                    .as_deref()
                    .and_then(|v| v.strip_prefix("segments:"))
                    .and_then(|n| n.parse::<u32>().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage_error("--topology needs segments:<n> with n >= 1"));
            }
            "--trace-format" => {
                o.trace_format = args
                    .next()
                    .as_deref()
                    .and_then(trace_run::TraceFormat::parse)
                    .unwrap_or_else(|| usage_error("--trace-format needs jsonl or chrome"));
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [table1|table2|fig2|overhead|oscillation|ablation|trace|monitor|explain|chaos|campaign|profile|real|all] [--quick] [--csv] [--counterexamples] [--serial] [--trace PATH] [--trace-format jsonl|chrome] [--fault] [--series PATH] [--manifests PATH] [--postmortem PATH] [--topology segments:<n>] [--flame PATH] [--ledger PATH] [--compare] [--trace-sim PATH] [--trace-real PATH]"
                );
                std::process::exit(0);
            }
            w if !w.starts_with('-') => o.what = w.to_owned(),
            // Every other flag takes a file path, or is unknown.
            flag => {
                let slot = match flag {
                    "--trace" => &mut o.trace_path,
                    "--trace-sim" => &mut o.trace_sim_path,
                    "--trace-real" => &mut o.trace_real_path,
                    "--series" => &mut o.series_path,
                    "--manifests" => &mut o.manifests_path,
                    "--postmortem" => &mut o.postmortem_path,
                    "--flame" => &mut o.flame_path,
                    "--ledger" => &mut o.ledger_path,
                    other => usage_error(&format!("unknown flag {other}; try --help")),
                };
                *slot = args.next();
                if slot.is_none() {
                    usage_error(&format!("{flag} needs a file path"));
                }
            }
        }
    }
    o
}

/// Appends one ledger row where `--ledger` pointed (no-op otherwise).
fn append_ledger(opts: &Opts, entry: LedgerEntry) {
    if let Some(path) = &opts.ledger_path {
        if let Err(e) = entry.append(std::path::Path::new(path)) {
            eprintln!("cannot append ledger row to {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// Prints a one-table experiment and appends its ledger row.
fn report_table(opts: &Opts, cmd: &str, seed: u64, config: &str, t: &ps_harness::Table) {
    emit(opts, t);
    let row = LedgerEntry::new(cmd, seed).config(config).metric("rows", t.len() as u64);
    append_ledger(opts, row.output(&t.to_string()));
}

/// Writes `body` to `path`, or says why it could not and exits 1.
fn write_or_exit(path: &str, what: &str, body: impl AsRef<[u8]>) {
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("cannot write {what} to {path}: {e}");
        std::process::exit(1);
    }
}

/// Writes a failure bundle (JSONL + Chrome trace) where `--postmortem`
/// pointed, or reports that nothing failed.
fn write_postmortem(path: &str, bundle: Option<&ps_obs::PostmortemBundle>) {
    match bundle {
        Some(b) => {
            write_or_exit(path, "post-mortem", b.to_jsonl());
            write_or_exit(&format!("{path}.chrome.json"), "post-mortem", b.to_chrome());
            eprintln!(
                "wrote post-mortem ({}; {} events, {} verdicts) to {path} and {path}.chrome.json",
                b.reason,
                b.slice.len(),
                b.verdicts.len()
            );
        }
        None => eprintln!("clean run: no post-mortem written to {path}"),
    }
}

fn emit(opts: &Opts, t: &ps_harness::Table) {
    if opts.csv {
        print!("{}", t.to_csv());
    } else {
        println!("{t}");
    }
}

fn main() {
    let opts = parse();
    let all = opts.what == "all";

    if all || opts.what == "table1" {
        report_table(&opts, "table1", 0, "default", &table1::render(&table1::run()));
    }
    if all || opts.what == "table2" {
        let cfg = opts.budget(table2::Table2Config::quick, Default::default);
        let rows = table2::run_with(&cfg, &opts.runner);
        let t = table2::render(&rows);
        emit(&opts, &t);
        let (agree, pinned) = table2::agreement(&rows);
        println!("paper-pinned cells in agreement: {agree}/{pinned}\n");
        if opts.counterexamples {
            println!("{}", table2::render_counterexamples(&rows));
        }
        append_ledger(
            &opts,
            LedgerEntry::new("table2", 0)
                .config(&format!("{cfg:?}"))
                .metric("agree", agree as u64)
                .metric("pinned", pinned as u64)
                .output(&t.to_string()),
        );
    }
    if all || opts.what == "fig2" {
        let cfg = opts.budget(fig2::Fig2Config::quick, Default::default);
        let t = fig2::render(&fig2::run_with(&cfg, &opts.runner));
        report_table(&opts, "fig2", cfg.seed, &format!("{cfg:?}"), &t);
    }
    if all || opts.what == "overhead" {
        let cfg = opts.budget(overhead::OverheadConfig::quick, Default::default);
        let t = overhead::render(&overhead::run(&cfg));
        report_table(&opts, "overhead", overhead::SEED, &format!("{cfg:?}"), &t);
    }
    if all || opts.what == "ablation" {
        let cfg = opts.budget(ablation::AblationConfig::quick, Default::default);
        let t = ablation::render(&ablation::run_with(&cfg, &opts.runner));
        report_table(&opts, "ablation", ablation::SEED, &format!("{cfg:?}"), &t);
    }
    if all || opts.what == "oscillation" {
        let cfg = opts.budget(oscillation::OscillationConfig::quick, Default::default);
        let t = oscillation::render(&oscillation::run(&cfg));
        report_table(&opts, "oscillation", oscillation::SEED, &format!("{cfg:?}"), &t);
    }
    if all || opts.what == "trace" || opts.trace_path.is_some() {
        let cfg = opts.budget(trace_run::TraceRunConfig::quick, Default::default);
        let r = trace_run::run(&cfg);
        let t = trace_run::render_timeline(&r);
        emit(&opts, &t);
        if let Some(path) = &opts.trace_path {
            write_or_exit(path, "trace", trace_run::export(&r, opts.trace_format));
            eprintln!("wrote {} events to {path}", r.events.len());
        }
        append_ledger(
            &opts,
            LedgerEntry::new("trace", cfg.seed)
                .config(&format!("{cfg:?}"))
                .metric("events", r.events.len() as u64)
                .output(&t.to_string()),
        );
    }
    if all || opts.what == "monitor" {
        let cfg = opts.monitor_cfg();
        let r = monitor_run::run(&cfg);
        emit(&opts, &monitor_run::render_series(&r));
        let switches = monitor_run::render_switches(&r);
        let report = monitor_run::render_report(&r);
        emit(&opts, &switches);
        emit(&opts, &report);
        append_ledger(
            &opts,
            LedgerEntry::new("monitor", cfg.seed)
                .config(&format!("{cfg:?}"))
                .metric("violations", r.violations.len() as u64)
                .metric("sent", r.sent as u64)
                .metric("samples", r.sampler.len() as u64)
                .metric("switches", switches.len() as u64)
                .output(&format!("{switches}{report}")),
        );
        if let Some(path) = &opts.series_path {
            let body = if opts.csv { r.sampler.to_csv() } else { r.sampler.to_jsonl() };
            write_or_exit(path, "series", body);
            eprintln!("wrote {} load samples to {path}", r.sampler.len());
        }
        if let Some(path) = &opts.postmortem_path {
            let bundle = (!r.violations.is_empty()).then(|| r.postmortem("monitor_violation"));
            write_postmortem(path, bundle.as_ref());
        }
        if !r.violations.is_empty() {
            eprintln!("monitor: {} property violation(s) detected", r.violations.len());
            std::process::exit(1);
        }
    }
    if all || opts.what == "explain" {
        let cfg = opts.monitor_cfg();
        let res = explain::run(&cfg);
        let rendered = explain::render(&res);
        print!("{rendered}");
        if let Some(path) = &opts.postmortem_path {
            write_postmortem(path, res.bundle.as_ref());
        }
        append_ledger(
            &opts,
            LedgerEntry::new("explain", cfg.seed).config(&format!("{cfg:?}")).output(&rendered),
        );
    }
    if all || opts.what == "campaign" {
        let mut cfg = opts.budget(campaign::CampaignConfig::quick, Default::default);
        if opts.fault {
            cfg = cfg.with_seeded_fault();
        }
        cfg.segments = opts.segments;
        let results = campaign::run_with(&cfg, &opts.runner);
        let failed = results.iter().filter(|r| !r.pass).count();
        let t = campaign::render(&results);
        emit(&opts, &t);
        append_ledger(
            &opts,
            LedgerEntry::new("campaign", 0)
                .config(&format!("{cfg:?}"))
                .metric("cells", results.len() as u64)
                .metric("failed", failed as u64)
                .output(&t.to_string()),
        );
        if let Some(path) = &opts.manifests_path {
            write_or_exit(path, "manifests", campaign::manifests_jsonl(&results));
            eprintln!("wrote {} cell manifests to {path}", results.len());
        }
        if let Some(path) = &opts.postmortem_path {
            let bundle = results.iter().find_map(|r| r.postmortem.as_ref());
            write_postmortem(path, bundle);
        }
        if failed > 0 {
            eprintln!("campaign: {failed} cell(s) failed (wedged switch or property violation)");
            std::process::exit(1);
        }
    }
    if all || opts.what == "chaos" {
        let cfg = opts.budget(chaos::ChaosConfig::quick, Default::default);
        let results = chaos::run_with(&cfg, &opts.runner);
        let failed = results.iter().filter(|r| !r.pass).count();
        let t = chaos::render(&results);
        emit(&opts, &t);
        append_ledger(
            &opts,
            LedgerEntry::new("chaos", 0)
                .config(&format!("{cfg:?}"))
                .metric("scenarios", results.len() as u64)
                .metric("failed", failed as u64)
                .output(&t.to_string()),
        );
        if let Some(path) = &opts.postmortem_path {
            let bundle = results.iter().find_map(|r| r.postmortem.as_ref());
            write_postmortem(path, bundle);
        }
        if failed > 0 {
            eprintln!("chaos: {failed} scenario(s) failed (wedged switch or property violation)");
            std::process::exit(1);
        }
    }
    // Not part of `all`: the run takes real wall-clock time and its
    // latency columns are host measurements by design.
    if opts.what == "real" {
        let cfg = opts.budget(real::RealRunConfig::quick, Default::default);
        let write_trace = |path: &Option<String>, which: &str, m: &real::MediumReport| {
            if let Some(path) = path {
                let body = ps_obs::export::to_jsonl_with(&m.events, m.overwritten);
                write_or_exit(path, &format!("{which} trace"), body);
                eprintln!("wrote {} {which} events to {path}", m.events.len());
            }
        };
        let (violations, diverged, rendered) = if opts.compare {
            let r = real::run_compare(&cfg);
            let t = real::render_compare(&r);
            emit(&opts, &t);
            write_trace(&opts.trace_sim_path, "simnet", &r.sim);
            write_trace(&opts.trace_real_path, "udp-loopback", &r.real);
            for d in r.divergences() {
                eprintln!("real: media diverged on {d}");
            }
            (r.sim.violations.len() + r.real.violations.len(), !r.media_agree(), t.to_string())
        } else {
            let m = real::run_real(&cfg);
            let t = real::render_medium(&m);
            emit(&opts, &t);
            write_trace(&opts.trace_real_path, "udp-loopback", &m);
            (m.violations.len(), false, t.to_string())
        };
        append_ledger(
            &opts,
            LedgerEntry::new("real", real::SEED)
                .config(&format!("{cfg:?} compare={}", opts.compare))
                .metric("violations", violations as u64)
                .metric("diverged", u64::from(diverged))
                .output(&rendered),
        );
        if violations > 0 || diverged {
            eprintln!("real: {violations} violation(s), deterministic divergence: {diverged}");
            std::process::exit(1);
        }
    }
    // Not part of `all`: the ns columns are host measurements, so the
    // output is nondeterministic by design.
    if opts.what == "profile" {
        let cfg = opts.monitor_cfg();
        let r = profile::run(&cfg);
        let t = profile::render_table(&r.prof);
        emit(&opts, &t);
        if let Some(path) = &opts.flame_path {
            write_or_exit(path, "flamegraph", r.prof.flamegraph());
            eprintln!("wrote collapsed-stack flamegraph to {path}");
        }
        append_ledger(
            &opts,
            LedgerEntry::new("profile", cfg.seed)
                .config(&format!("{cfg:?}"))
                .metric("violations", r.run.violations.len() as u64)
                .metric("components", t.len() as u64)
                .metric("attributed_pct", (100.0 * r.prof.attributed_fraction()) as u64)
                .output(&t.to_string())
                .profile(r.prof.json_summary()),
        );
        if !r.run.violations.is_empty() {
            eprintln!("profile: {} property violation(s) detected", r.run.violations.len());
            std::process::exit(1);
        }
    }
}
