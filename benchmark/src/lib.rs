//! End-to-end benchmark of the protocol-switching workspace: what a
//! multicast costs the host through the real hybrid switching stack, on
//! the simulator and on UDP loopback, with a per-layer breakdown.
//!
//! See `benchmark/README.md` for the workloads, the metrics and how to
//! read the output; `BENCHMARK.json` at the repository root is the
//! contract later changes are judged by.

pub mod alloc;
pub mod check;
pub mod clock;
pub mod drives;
pub mod metrics;
pub mod reference;
pub mod report;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;

/// Every allocation of the benchmark process — the system under test runs
/// in-process — goes through the counting allocator.
#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;
