//! Seeded traffic-profile generation for the protocol-switching testbed.
//!
//! Every experiment so far drove the stacks with hand-rolled traffic
//! (Figure 2's uniform senders, the monitor run's quiet→burst→quiet).
//! This crate turns "scenario diversity" into a *typed, enumerable* space:
//! a [`TrafficSpec`] names a [`Profile`] — steady, diurnal ramp, flash
//! crowd, hot-sender skew, correlated bursts, sender churn — and
//! [`TrafficSpec::generate`] expands it into a [`Schedule`] of per-node
//! send events plus a byte-deterministic JSON [`Manifest`].
//!
//! Three contracts, all pinned by tests:
//!
//! * **determinism** — the same `(profile, seed, scale)` always yields a
//!   byte-identical schedule and manifest, on every platform;
//! * **seed sensitivity** — different seeds yield different schedules;
//! * **linear scaling** — the `scale` factor multiplies total event count
//!   linearly (within jitter tolerance), so one knob sweeps a profile
//!   from smoke test to stress run.
//!
//! The steady shape is the jittered-periodic walker every steady harness
//! experiment runs (Figure 2, the §7 runs, the traced run), so schedules
//! compose with — and reproduce — the experiments' traffic.
//!
//! # Examples
//!
//! ```
//! use ps_simnet::SimTime;
//! use ps_workload::{Profile, TrafficSpec};
//!
//! let spec = TrafficSpec {
//!     profile: Profile::HotSkew { s_x100: 100 },
//!     group: 6,
//!     senders: 4,
//!     rate: 40.0,
//!     end: SimTime::from_secs(2),
//!     ..TrafficSpec::default()
//! };
//! let schedule = spec.generate();
//! assert_eq!(schedule, spec.generate()); // same seed, same bytes
//! let manifest = schedule.manifest();
//! assert!(manifest.to_json().starts_with("{\"profile\":\"hot_skew\""));
//! ```

#![deny(missing_docs)]

mod gen;
mod manifest;

pub use gen::{Profile, Schedule, SendEvent, TrafficSpec};
pub use manifest::Manifest;
