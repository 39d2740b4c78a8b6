//! Real transport: unmodified protocol stacks over UDP loopback.
//!
//! The simulator answers "does the switching logic behave?"; this crate
//! answers "does the *same code* behave on a real medium?". It takes the
//! exact [`GroupSpec`](ps_stack::GroupSpec) a simulated run is built
//! from — same stack factory, same seeded workload — and runs each
//! process on its own OS thread with its own `UdpSocket`, loopback
//! datagrams standing in for the simulated medium. No [`Layer`] code
//! changes, nor the code around it: each thread hosts the simulator's own
//! [`ProcessAgent`](ps_stack::ProcessAgent) through a
//! [`SimApi`](ps_simnet::SimApi) per callback, so only the socket, the
//! wall clock and the timer queue are this crate's.
//!
//! Two things make the runs comparable rather than merely analogous:
//!
//! * **Identical observability.** Node threads record into the same
//!   `ps-obs` [`Recorder`](ps_obs::Recorder) schema as the engine —
//!   `AppSend`/`AppDeliver`/`FrameSend`/`FrameDeliver`/`TimerFire`, with
//!   wall-clock microseconds in place of simulated ones — so monitors
//!   and the [`MetricsSampler`](ps_obs::MetricsSampler) evaluate real
//!   runs with zero changes.
//! * **A real wire format.** Frames leave the process through
//!   [`dgram`]'s `ps-wire` header (magic, version, source id,
//!   length-prefixed payload), so serialization is exercised for real:
//!   a malformed datagram is counted and dropped, never trusted.
//!
//! What is *not* promised: byte-identity with the simulator. Wall-clock
//! jitter reorders same-instant events, the OS may drop datagrams under
//! load, and cross-process causal edges are not ferried over the wire.
//! `docs/transport.md` catalogs the divergences and the tolerances the
//! `repro real --compare` diff applies on top of them.
//!
//! [`Layer`]: ps_stack::Layer
//!
//! # Example
//!
//! ```
//! use ps_net::{NetConfig, UdpGroup};
//! use ps_simnet::SimTime;
//! use ps_stack::{Driver, GroupSpec, Stack};
//! use ps_trace::ProcessId;
//!
//! let spec = GroupSpec::new(2)
//!     .seed(7)
//!     .stack_factory(|_, _, _| Stack::new(vec![]))
//!     .send_at(SimTime::from_millis(2), ProcessId(0), b"hello".as_ref());
//! let mut group = UdpGroup::launch(spec, NetConfig::default());
//! group.run_until(SimTime::from_millis(80));
//! let trace = group.app_trace();
//! group.shutdown();
//! assert_eq!(trace.sent_ids().len(), 1);
//! ```

#![deny(missing_docs)]

pub mod dgram;
mod runtime;

pub use runtime::{NetConfig, NetReport, UdpGroup};
