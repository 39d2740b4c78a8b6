//! Every `repro` command as one row of [`EXPERIMENTS`], plus one module
//! per paper artifact, each with a `Config`, a typed result and a
//! `run`/`render` pair. A row's `run` turns an [`Ask`] into
//! [`Artefacts`]; `repro` prints and writes them, and
//! [`Artefacts::ledger`] makes the one ledger row that
//! `crates/harness/pins.jsonl` pins for every `--quick` run.

pub mod ablation;
pub mod fig2;
pub mod oscillation;
pub mod overhead;
pub mod table1;
pub mod table2;

use crate::ledger::{fnv1a, LedgerEntry};
use crate::monitor_run::MonitorRunConfig;
use crate::report::Table;
use crate::{explain, grid, monitor_run, profile, real, trace_run, SweepRunner};

/// The flags of one `repro` invocation that change what runs or what is
/// printed.
#[derive(Debug, Clone, Default)]
pub struct Ask {
    /// The reduced `quick()` configs rather than the full ones.
    pub quick: bool,
    /// Splice the broken ordering layer in (experiments that read it).
    pub fault: bool,
    /// `real`: run simnet beside loopback and diff them.
    pub compare: bool,
    /// `table2`: print every ✗ cell's counterexample.
    pub counterexamples: bool,
    /// Print tables as CSV.
    pub csv: bool,
    /// Where sweeps run; the output is the same on any worker count.
    pub runner: SweepRunner,
}

impl Ask {
    /// The `--quick` budget, or the full one.
    pub(crate) fn budget<T>(&self, quick: fn() -> T, full: fn() -> T) -> T {
        if self.quick {
            quick()
        } else {
            full()
        }
    }

    /// The monitored crossover run (monitor, explain and profile share it).
    pub(crate) fn monitor_cfg(&self) -> MonitorRunConfig {
        MonitorRunConfig {
            inject_fault: self.fault,
            ..self.budget(MonitorRunConfig::quick, Default::default)
        }
    }

    /// A table as printed: CSV, or the aligned text and a blank line.
    pub(crate) fn print(&self, t: &Table) -> String {
        if self.csv {
            t.to_csv()
        } else {
            format!("{t}\n")
        }
    }
}

/// One output of a run.
#[derive(Debug, Clone)]
pub struct Artefact {
    /// `repro --out DIR` writes it to `DIR/<experiment>.<name>`.
    pub name: &'static str,
    /// Same seed, same bytes; `false` for host measurements.
    pub(crate) exact: bool,
    /// The content.
    pub body: String,
}

/// Everything one experiment run produced.
#[derive(Debug, Clone)]
pub struct Artefacts {
    /// The report printed on stdout (named `stdout`).
    pub stdout: Artefact,
    /// The files `--out` writes, in order.
    pub files: Vec<Artefact>,
    /// The stderr line of a failed run; `repro` then exits 1.
    pub failure: Option<String>,
    /// The ledger row so far: seed, config digest, counts and any
    /// profiler summary; [`ledger`](Self::ledger) adds the rest.
    pub(crate) row: LedgerEntry,
}

impl Artefacts {
    /// A run whose stdout is `stdout`, filed under `seed` and the
    /// rendered effective `config`.
    pub(crate) fn new(stdout: String, seed: u64, config: String) -> Self {
        let config_fnv = fnv1a(config.as_bytes());
        Self {
            stdout: Artefact { name: "stdout", exact: true, body: stdout },
            files: Vec::new(),
            failure: None,
            row: LedgerEntry {
                cmd: String::new(),
                seed,
                config_fnv,
                metrics: Vec::new(),
                profile: None,
            },
        }
    }

    /// Adds one ledger count.
    pub(crate) fn count(mut self, key: &str, value: usize) -> Self {
        self.row.metrics.push((key.to_owned(), value as u64));
        self
    }

    /// Adds one file.
    pub(crate) fn file(mut self, name: &'static str, exact: bool, body: String) -> Self {
        self.files.push(Artefact { name, exact, body });
        self
    }

    /// Adds a post-mortem bundle's two files, when there is one.
    pub(crate) fn postmortem(self, bundle: Option<&ps_obs::PostmortemBundle>) -> Self {
        match bundle {
            Some(b) => self.file("postmortem.jsonl", true, b.to_jsonl()).file(
                "postmortem.chrome.json",
                true,
                b.to_chrome(),
            ),
            None => self,
        }
    }

    /// Marks the run failed with `line` when `failed`.
    pub(crate) fn fail_if(mut self, failed: bool, line: impl FnOnce() -> String) -> Self {
        if failed {
            self.failure = Some(line());
        }
        self
    }

    /// The ledger row filed as `cmd`: the counts, then `<name>_fnv` for
    /// the stdout and each exact file.
    pub fn ledger(&self, cmd: &str) -> LedgerEntry {
        let mut row = LedgerEntry { cmd: cmd.to_owned(), ..self.row.clone() };
        let exact = std::iter::once(&self.stdout).chain(&self.files).filter(|a| a.exact);
        row.metrics.extend(exact.map(|a| (format!("{}_fnv", a.name), fnv1a(a.body.as_bytes()))));
        row
    }
}

/// A one-table experiment: the table as printed and its row count.
fn one_table(ask: &Ask, t: &Table, seed: u64, config: String) -> Artefacts {
    Artefacts::new(ask.print(t), seed, config).count("rows", t.len())
}

/// One `repro` command.
pub struct Experiment {
    /// The command name.
    pub name: &'static str,
    /// Whether `repro all` runs it.
    pub in_all: bool,
    /// Whether `--fault` changes it.
    reads_fault: bool,
    /// Runs it.
    pub run: fn(&Ask) -> Artefacts,
}

impl Experiment {
    /// The ledger row's `cmd`: the name, with `+fault` when the run
    /// splices the fault in.
    pub fn key(&self, ask: &Ask) -> String {
        if ask.fault && self.reads_fault {
            format!("{}+fault", self.name)
        } else {
            self.name.to_owned()
        }
    }
}

/// Every `repro` command, in `repro all` order; `real` and `profile`
/// (host measurements by design) are not part of `all`.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment { name: "table1", in_all: true, reads_fault: false, run: table1::artefacts },
    Experiment { name: "table2", in_all: true, reads_fault: false, run: table2::artefacts },
    Experiment { name: "fig2", in_all: true, reads_fault: false, run: fig2::artefacts },
    Experiment { name: "overhead", in_all: true, reads_fault: false, run: overhead::artefacts },
    Experiment { name: "ablation", in_all: true, reads_fault: false, run: ablation::artefacts },
    Experiment {
        name: "oscillation",
        in_all: true,
        reads_fault: false,
        run: oscillation::artefacts,
    },
    Experiment { name: "trace", in_all: true, reads_fault: false, run: trace_run::artefacts },
    Experiment { name: "monitor", in_all: true, reads_fault: true, run: monitor_run::artefacts },
    Experiment { name: "explain", in_all: true, reads_fault: true, run: explain::artefacts },
    Experiment { name: "campaign", in_all: true, reads_fault: true, run: grid::campaign },
    Experiment { name: "chaos", in_all: true, reads_fault: false, run: grid::chaos },
    Experiment { name: "real", in_all: false, reads_fault: false, run: real::artefacts },
    Experiment { name: "profile", in_all: false, reads_fault: true, run: profile::artefacts },
];
