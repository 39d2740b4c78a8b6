//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [COMMAND] [--quick] [--csv] [--counterexamples] [--serial]
//!       [--fault] [--compare] [--ledger PATH] [--out DIR]
//! ```
//!
//! The commands are the rows of `ps_harness::experiments::EXPERIMENTS`;
//! `all` (the default) runs every row but `real` and `profile`, whose
//! reports are host measurements by design. An unknown command is a
//! usage error (exit 2).
//!
//! | command | prints | `--out DIR` writes (exact unless marked) |
//! |---|---|---|
//! | `table1`, `table2`, `fig2`, `overhead`, `ablation`, `oscillation` | the paper's tables and figure | — |
//! | `trace` | per-process switch-phase timeline | `trace.jsonl`, `trace.chrome.json` |
//! | `monitor` | load series, load-driven switches, monitor verdicts | `monitor.series.jsonl`, `monitor.series.csv` |
//! | `explain` | per-switch critical-path attribution | — |
//! | `campaign` | judged profile × stack × fault grid | `campaign.manifests.jsonl` |
//! | `chaos` | crash / partition / loss scenario matrix | — |
//! | `real` | the scenario on UDP loopback; with `--compare`, sim vs real | `real.udp.jsonl` (host), `real.simnet.jsonl` |
//! | `profile` | host-time cost per component | `profile.enters.csv`, `profile.folded` (host) |
//!
//! `monitor`, `explain`, `campaign` and `chaos` also write
//! `<command>.postmortem.jsonl` and `.postmortem.chrome.json` — the
//! failure's witnesses, their causal past, the monitor verdicts and the
//! overlapping load samples — when a run failed, and nothing when it was
//! clean.
//!
//! * `--quick` runs the reduced configs (the CI smoke and the committed
//!   pins, `crates/harness/pins.jsonl`, use them).
//! * `--csv` prints tables as CSV. `--counterexamples` makes `table2`
//!   print each ✗ cell's witness trace.
//! * Sweeps run on a worker pool (`PS_SWEEP_WORKERS` sets its size), or
//!   on one thread with `--serial`; the output is the same either way.
//! * `--fault` splices a broken ordering layer in (`monitor`, `explain`,
//!   `profile`; one `campaign` cell), which the monitors must catch.
//! * `--compare` makes `real` run simnet beside loopback and diff them:
//!   rows without `(wall)` must match. See docs/transport.md.
//! * `--ledger PATH` appends one row per command run
//!   (`ps_harness::ledger`); `ledger_check` diffs two ledgers.
//!
//! Same seed, same bytes: every exact artefact is identical across
//! invocations and worker counts. Exits 1 when a run fails — a monitor
//! violation, a failed chaos scenario or campaign cell, a sim/real
//! divergence — after printing and writing everything it produced;
//! `explain` never fails, it explains.

use ps_harness::experiments::{Ask, Experiment, EXPERIMENTS};
use ps_harness::SweepRunner;
use std::io::Write as _;
use std::path::PathBuf;

struct Opts {
    what: String,
    ask: Ask,
    ledger: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    format!(
        "usage: repro [{}|all] [--quick] [--csv] [--counterexamples] [--serial] [--fault] [--compare] [--ledger PATH] [--out DIR]",
        names.join("|")
    )
}

/// Reports a command-line mistake and exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\n{}", usage());
    std::process::exit(2);
}

/// Reports why the run stops and exits 1.
fn fail(msg: &str) -> ! {
    let _ = std::io::stdout().flush();
    eprintln!("{msg}");
    std::process::exit(1);
}

fn parse() -> Opts {
    let mut o = Opts { what: "all".to_owned(), ask: Ask::default(), ledger: None, out: None };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => o.ask.quick = true,
            "--csv" => o.ask.csv = true,
            "--counterexamples" => o.ask.counterexamples = true,
            "--serial" => o.ask.runner = SweepRunner::serial(),
            "--fault" => o.ask.fault = true,
            "--compare" => o.ask.compare = true,
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            "--ledger" | "--out" => {
                let path = args.next().map(PathBuf::from);
                let path = path.unwrap_or_else(|| usage_error(&format!("{arg} needs a path")));
                *(if arg == "--ledger" { &mut o.ledger } else { &mut o.out }) = Some(path);
            }
            w if !w.starts_with('-') => o.what = w.to_owned(),
            other => usage_error(&format!("unknown flag {other}")),
        }
    }
    o
}

fn main() {
    let o = parse();
    let chosen: Vec<&Experiment> = match o.what.as_str() {
        "all" => EXPERIMENTS.iter().filter(|e| e.in_all).collect(),
        name => match EXPERIMENTS.iter().find(|e| e.name == name) {
            Some(e) => vec![e],
            None => usage_error(&format!("unknown command {name}")),
        },
    };
    if let Some(dir) = &o.out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            fail(&format!("cannot create {}: {e}", dir.display()));
        }
    }
    for exp in chosen {
        let a = (exp.run)(&o.ask);
        print!("{}", a.stdout.body);
        if let Some(path) = &o.ledger {
            if let Err(e) = a.ledger(&exp.key(&o.ask)).append(path) {
                fail(&format!("cannot append ledger row to {}: {e}", path.display()));
            }
        }
        if let Some(dir) = &o.out {
            for f in &a.files {
                let path = dir.join(format!("{}.{}", exp.name, f.name));
                match std::fs::write(&path, &f.body) {
                    Ok(()) => eprintln!("wrote {}", path.display()),
                    Err(e) => fail(&format!("cannot write {}: {e}", path.display())),
                }
            }
        }
        if let Some(line) = &a.failure {
            fail(line);
        }
    }
}
