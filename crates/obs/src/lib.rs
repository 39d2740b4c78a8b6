//! # ps-obs
//!
//! Observability for the protocol-switching stack: a zero-alloc
//! ring-buffer event [`Recorder`] that feeds the attached online property
//! monitors ([`MonitorSet`]) as it records, a virtual-time load sampler
//! ([`MetricsSampler`]), and exporters for JSON-lines dumps, Chrome
//! `trace_event` files, and per-process switch-phase timelines.
//!
//! This crate sits near the bottom of the workspace dependency graph —
//! the simulator, stack, and switching layer all record into it — so it
//! depends only on `ps-prof` (the host-time profiler it opens record and
//! monitor spans on) and speaks in raw microseconds (`u64`) and node ids (`u32`)
//! rather than simulator types.
//!
//! ## The contract
//!
//! - **Disabled means free.** `Recorder::record` on a disabled recorder is
//!   one predictable branch; hosts cache [`Recorder::is_enabled`] into a
//!   plain bool so the hot path doesn't even touch the atomic. With the
//!   `tap` cargo feature off, recording compiles away entirely.
//! - **Enabled means no allocation.** The ring is sized once; events are
//!   `Copy` with `&'static str` names. PR 2's allocation-free event loop
//!   stays allocation-free with tracing on.
//! - **Deterministic.** Everything keys off the host's virtual clock and
//!   call order; exports are byte-identical across same-seed runs.
//!
//! ```
//! use ps_obs::{export, ObsEvent, SpPhase, TimedEvent};
//!
//! // Events normally come from `Recorder::snapshot()` after a run.
//! let events = [
//!     TimedEvent::new(100, 0, ObsEvent::SwitchPhase { phase: SpPhase::PrepareSeen, from: 0, to: 1 }),
//!     TimedEvent::new(160, 0, ObsEvent::SwitchPhase { phase: SpPhase::Flip, from: 0, to: 1 }),
//! ];
//! let timeline = ps_obs::switch_timeline(&events);
//! assert_eq!(timeline[0].duration_us(), Some(60));
//! assert!(ps_obs::json::validate_lines(&export::to_jsonl(&events)).is_ok());
//! ```

#![deny(missing_docs)]

pub mod causal;
pub mod event;
pub mod export;
mod ids;
pub mod json;
pub mod monitor;
pub mod postmortem;
pub mod recorder;
pub mod sample;
pub mod timeline;

pub use causal::{
    attribution_table, parse_jsonl, CausalGraph, CausalSlice, CriticalPath, ParsedTrace,
    PhaseAttribution,
};
pub use event::{CauseId, LayerDir, ObsEvent, SpPhase, TimedEvent};
pub use monitor::{MonitorSet, Violation, ViolationKind};
pub use postmortem::{PostmortemBundle, DEFAULT_K_HOPS};
pub use recorder::{OpenSpan, Recorder, Writer};
pub use sample::{LoadSample, MetricsSampler, SeriesSummary};
pub use timeline::{check_well_nested, switch_timeline, SwitchInterval};
