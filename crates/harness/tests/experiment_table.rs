//! The experiment table against its pins, and `repro` against the table.
//!
//! `pins.jsonl` is a ledger: one row per row of `EXPERIMENTS` run
//! `--quick` (`real` with `--compare`), plus one per `--fault` variant of
//! each experiment that reads `--fault`. Each row holds the experiment's
//! ledger counts and the FNV-64 of every exact artefact — the printed
//! report when it is exact, and every exact file. Its values were
//! computed from the outputs of the commit before this table existed,
//! written through that `repro`'s per-file flags, so a byte that moves in
//! any exact output of any command fails here, serial or on four workers.
//! CI checks a release-build ledger against the same file with
//! `ledger_check --strict`.

use ps_harness::experiments::{Ask, EXPERIMENTS};
use ps_harness::{ledger, SweepRunner};

#[test]
fn every_quick_run_reproduces_its_pinned_ledger_row() {
    let pins = ledger::read(include_str!("../pins.jsonl"));
    for runner in [SweepRunner::serial(), SweepRunner::new(4)] {
        let (mut rows, mut failed) = (String::new(), Vec::new());
        for fault in [false, true] {
            let ask = Ask { quick: true, fault, compare: true, runner, ..Ask::default() };
            for exp in EXPERIMENTS.iter().filter(|e| !fault || e.key(&ask) != e.name) {
                let key = exp.key(&ask);
                let a = (exp.run)(&ask);
                if a.failure.is_some() {
                    failed.push(key.clone());
                }
                rows += &a.ledger(&key).to_json();
                rows.push('\n');
            }
        }
        let diff = ledger::diff(&pins, &ledger::read(&rows), "pins.jsonl", "this run");
        assert!(diff.is_empty(), "{} worker(s):\n{}", runner.workers(), diff.join("\n"));
        // Clean runs pass; the seeded fault fails every run that judges
        // (explain explains, it does not judge).
        assert_eq!(failed, ["monitor+fault", "campaign+fault", "profile+fault"]);
    }
}

#[test]
fn an_unknown_command_is_a_usage_error_that_names_the_commands() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["tabel2", "--quick"])
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command tabel2"), "{stderr}");
    for exp in EXPERIMENTS {
        assert!(stderr.contains(exp.name), "{stderr}");
    }
}
