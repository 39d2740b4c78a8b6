//! Executable version of the paper's formal model (§3–§6).
//!
//! The paper reasons about *traces* — ordered sequences of `Send(m)` and
//! `Deliver(p:m)` events — and about *properties*, predicates on traces
//! (Table 1). To classify which properties survive protocol switching it
//! introduces *meta-properties* (properties of properties), each defined by
//! preservation through a relation on traces (Equation 1):
//!
//! ```text
//! P(tr_below)  ∧  tr_above R tr_below   ⟹   P(tr_above)
//! ```
//!
//! This crate makes the whole apparatus executable:
//!
//! * [`Event`], [`Message`], [`Trace`] — the trace model. View changes
//!   (needed for the Virtual Synchrony property) are encoded as
//!   distinguished *messages*, not a new event kind, mirroring how
//!   view-synchronous systems actually disseminate views and keeping the
//!   model exactly Send/Deliver as in the paper.
//! * [`props::Property`] and the eight Table-1 properties in [`props`].
//! * The six meta-properties in [`meta`]: Safety, Asynchrony, Delayable,
//!   Send Enabled, Memoryless, Composable — each a trace-rewriting
//!   relation.
//! * [`check`] — the preservation checker that regenerates Table 2 by
//!   generator-driven search plus randomized rewriting. Where the paper
//!   proves preservation in Nuprl, we *test* it and report concrete
//!   counterexample traces for every ✗ cell.
//! * [`exhaustive`] — bounded model checking: every trace over a small
//!   event universe, every rewrite in the relation's closure.
//!
//! One modelling note: the rewrite relations never move a `Deliver` of a
//! message before its `Send`. Layering delays can reorder independent
//! events, but no delay inverts causality; without this guard even
//! Integrity would be "non-asynchronous", contradicting the paper's
//! Table 2.
//!
//! # Examples
//!
//! ```
//! use ps_trace::{Event, Message, ProcessId, Trace};
//! use ps_trace::props::{Property, TotalOrder};
//!
//! let p0 = ProcessId(0);
//! let p1 = ProcessId(1);
//! let a = Message::with_tag(p0, 1, 7);
//! let b = Message::with_tag(p1, 1, 8);
//!
//! // Both processes deliver a then b: totally ordered.
//! let tr = Trace::from_events(vec![
//!     Event::send(a.clone()),
//!     Event::send(b.clone()),
//!     Event::deliver(p0, a.clone()),
//!     Event::deliver(p1, a.clone()),
//!     Event::deliver(p0, b.clone()),
//!     Event::deliver(p1, b.clone()),
//! ]);
//! assert!(TotalOrder.holds(&tr));
//!
//! // p1 delivers them in the opposite order: violation.
//! let bad = Trace::from_events(vec![
//!     Event::send(a.clone()),
//!     Event::send(b.clone()),
//!     Event::deliver(p0, a.clone()),
//!     Event::deliver(p0, b.clone()),
//!     Event::deliver(p1, b),
//!     Event::deliver(p1, a),
//! ]);
//! assert!(!TotalOrder.holds(&bad));
//! ```

mod event;
mod trace;

pub mod check;
pub mod exhaustive;
pub mod gen;
pub mod meta;
pub mod props;

pub use event::{Event, Message, MsgId, ProcessId, ViewInfo};
pub use trace::Trace;
