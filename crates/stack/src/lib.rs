//! Horus-style composable protocol layers and the group runtime.
//!
//! The paper's §3 system model: "protocols are closed under composition: a
//! stack of protocols is another protocol … much like Lego™ blocks", with
//! every process running the same stack. This crate provides:
//!
//! * [`Layer`] — the block interface: data flows *down* (toward the
//!   network) as [`Frame`]s and *up* (toward the application) as raw
//!   bytes; every layer pushes its header going down and pops it going up.
//! * [`Stack`] — an ordered composition of layers with an explicit work
//!   queue (no re-entrant callbacks), pluggable into anything implementing
//!   [`StackEnv`].
//! * [`channel`] — the paper's MULTIPLEX component (Figure 1): tagging
//!   frames with a [`ChannelId`] so several protocols share one transport;
//!   the switching protocol runs each underlying protocol (and its own
//!   control traffic) on a private channel.
//! * [`GroupSim`] — the runtime: runs one [`ProcessAgent`] (an identical
//!   stack plus its [`AppProcess`]) per process on a `ps-simnet`
//!   simulation, schedules application workload, and records the
//!   application-level [`ps_trace::Trace`] — so any run's output can be
//!   fed straight into the property checkers. `ps-net` hosts the same
//!   agents on real sockets.
//! * [`driver`] — the transport split: a [`GroupSpec`] describes a run
//!   without naming a medium, and the [`Driver`] trait is what any
//!   transport (simnet here, UDP loopback in `ps-net`) exposes back, so
//!   the same unmodified layers run simulated or over real sockets.
//!
//! # Examples
//!
//! A two-process group over a perfect network with empty stacks (messages
//! go straight to the wire and up again):
//!
//! ```
//! use ps_simnet::{PointToPoint, SimTime};
//! use ps_stack::{Driver, GroupSimBuilder, Stack};
//! use ps_trace::props::{Property, Reliability};
//! use ps_trace::ProcessId;
//!
//! let mut sim = GroupSimBuilder::new(2)
//!     .medium(Box::new(PointToPoint::new(SimTime::from_micros(100))))
//!     .stack_factory(|_, _, _| Stack::new(vec![]))
//!     .send_at(SimTime::from_millis(1), ProcessId(0), b"hello".as_ref())
//!     .build();
//! sim.run_until(SimTime::from_millis(50));
//!
//! let tr = sim.app_trace();
//! assert!(Reliability::new([ProcessId(0), ProcessId(1)]).holds(&tr));
//! ```

pub mod channel;
pub mod driver;
mod layer;
mod runtime;
mod stack;

pub use channel::ChannelId;
pub use driver::{AppLog, AppProcess, DeliveryRecord, Driver, GroupSpec};
pub use layer::{Cast, Frame, IdGen, Layer, LayerCtx, LayerId};
pub use runtime::{GroupSim, GroupSimBuilder, ProcessAgent, StackFactory};
pub use stack::{Stack, StackEnv};
