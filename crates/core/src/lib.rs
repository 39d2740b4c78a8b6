//! The switching protocol (SP) from *"Protocol Switching: Exploiting
//! Meta-Properties"* — run-time hot-swap between group communication
//! protocols.
//!
//! The paper's §2 in one paragraph: the SP is "yet another protocol layered
//! over the two protocols of interest"; the application only ever talks to
//! the SP. In normal mode traffic flows through the current protocol. To
//! switch, members agree (via PREPARE/OK/SWITCH messages, or a ring token
//! passing three times) on how many messages each member sent over the old
//! protocol; each member keeps delivering old-protocol messages until it
//! has all of them, buffering anything the new protocol delivers early,
//! then flips. Sends are never blocked. The guarantee: **every process
//! delivers all messages of the old protocol before any message of the
//! new protocol**.
//!
//! What survives such a switch is the subject of the paper's meta-property
//! theory, implemented in `ps-trace`: properties that are Safe,
//! Asynchronous, Delayable, Send Enabled, Memoryless and Composable (Total
//! Order, Integrity, Confidentiality, …) are preserved; No Replay, Amoeba,
//! Prioritized Delivery and Virtual Synchrony are not — and this crate's
//! tests demonstrate both sides on live protocol stacks.
//!
//! * [`SwitchLayer`] — the SP as a composite [`ps_stack::Layer`] embedding
//!   two complete protocol stacks ([`SwitchVariant::Broadcast`] and
//!   [`SwitchVariant::TokenRing`]).
//! * [`Oracle`]s — scripted, threshold and hysteresis policies (§7).
//! * [`hybrid_layer`] — a switch between two [`Proto`] sub-stacks, and
//!   [`hybrid_total_order`] — the paper's sequencer/token hybrid — with
//!   its two fault-tolerant variants built on it.
//!
//! # Examples
//!
//! A five-member group switching from sequencer to token total order at
//! t = 50 ms, under load, preserving total order end to end:
//!
//! ```
//! use ps_core::{hybrid_total_order, ManualOracle, NeverOracle, Oracle, SwitchConfig};
//! use ps_simnet::{PointToPoint, SimTime};
//! use ps_stack::{Driver, GroupSimBuilder};
//! use ps_trace::props::{Property, TotalOrder};
//! use ps_trace::ProcessId;
//!
//! let mut builder = GroupSimBuilder::new(5)
//!     .seed(42)
//!     .medium(Box::new(PointToPoint::new(SimTime::from_micros(300))))
//!     .stack_factory(|p, _, ids| {
//!         let oracle: Box<dyn Oracle> = if p == ProcessId(0) {
//!             Box::new(ManualOracle::new(vec![(SimTime::from_millis(50), 1)]))
//!         } else {
//!             Box::new(NeverOracle)
//!         };
//!         hybrid_total_order(ids, SwitchConfig::default(), ProcessId(0), oracle).0
//!     });
//! for i in 0..30u64 {
//!     builder = builder.send_at(
//!         SimTime::from_millis(2 + 3 * i),
//!         ProcessId((i % 5) as u16),
//!         format!("m{i}"),
//!     );
//! }
//! let mut sim = builder.build();
//! sim.run_until(SimTime::from_secs(2));
//! assert!(TotalOrder.holds(&sim.app_trace()));
//! ```

#![deny(missing_docs)]

mod control;
mod hybrid;
mod oracle;
mod sp;
mod stats;
mod switch;

pub use control::{Control, CountVector, RingToken, TokenMode};
pub use hybrid::{
    hybrid_layer, hybrid_seq_token_ft, hybrid_total_order, hybrid_total_order_ft, Proto,
};
pub use oracle::{LoadOracle, ManualOracle, NeverOracle, Oracle, SwitchObs, ThresholdOracle};
pub use stats::{SwitchHandle, SwitchRecord, SwitchStats};
pub use switch::{SwitchConfig, SwitchLayer, SwitchVariant};
