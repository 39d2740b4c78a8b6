//! Experiment harness: regenerates every table and figure of the paper.
//!
//! | Experiment | Paper artifact | Entry point |
//! |---|---|---|
//! | [`experiments::table1`] | Table 1 — each property implemented and violated | `repro table1` |
//! | [`experiments::table2`] | Table 2 — properties × meta-properties matrix | `repro table2` |
//! | [`experiments::fig2`] | Figure 2 — latency vs. active senders, sequencer vs. token vs. hybrid | `repro fig2` |
//! | [`experiments::overhead`] | §7 — switching overhead near the crossover (~31 ms in the paper) | `repro overhead` |
//! | [`experiments::oscillation`] | §7 — aggressive switching oscillates; hysteresis damps it | `repro oscillation` |
//! | [`trace_run`] | §7 — instrumented switch run: event trace + phase timeline | `repro trace --out DIR` |
//! | [`monitor_run`] | §7 — live monitors + load sampling + metrics-driven switch oracle | `repro monitor --out DIR` |
//! | [`chaos`] | §2/§8 — crash/recovery + partition fault injection, monitored scenario matrix | `repro chaos` |
//! | [`explain`] | §7 — causal critical-path attribution per switch + post-mortem flight recorder | `repro explain` |
//! | [`campaign`] | §7 — judged campaign grid: traffic profiles × stacks × faults, monitored | `repro campaign` |
//! | [`profile`] | host-time attribution of the monitored run (engine/layer/obs components) | `repro profile --out DIR` |
//! | [`real`] | sim-vs-real: the same seeded scenario on simnet and UDP loopback, diffed | `repro real --compare` |
//! | [`scenario`] | the one run shape every group run above is stated in: group, seed, medium, stack, traffic, watchers, faults → one [`scenario::RunOutcome`] | (library) |
//!
//! `repro` dispatches over [`experiments::EXPERIMENTS`], which lists
//! every command above once; `crates/harness/pins.jsonl` pins each one's
//! `--quick` ledger row.
//!
//! Every experiment is deterministic given its config (all randomness is
//! seeded) and returns a typed result that the CLI renders and the tests
//! assert on. Absolute numbers come from the simulated testbed
//! (DESIGN.md §1), so the *shape* of each result is the claim, not the
//! milliseconds.

pub mod campaign;
pub mod chaos;
pub mod experiments;
pub mod explain;
pub mod ledger;
pub mod measure;
pub mod monitor_run;
pub mod profile;
pub mod real;
pub mod report;
pub mod scenario;
pub mod sweep;
pub mod trace_run;

pub use measure::{latency_histogram, LatencyStats, SteadyStateWindow};
pub use report::Table;
pub use sweep::SweepRunner;
#[cfg(test)]
mod workload;
