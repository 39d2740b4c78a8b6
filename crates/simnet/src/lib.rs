//! Deterministic discrete-event network simulator.
//!
//! This crate stands in for the paper's testbed (SparcStation-20s on a
//! 10 Mbit shared Ethernet): a seeded, single-threaded simulation of a group
//! of nodes exchanging packets over a configurable medium.
//!
//! The pieces:
//!
//! * [`SimTime`] — microsecond-resolution virtual clock.
//! * [`EventQueue`] — stable priority queue of timestamped events.
//! * [`DetRng`] — seeded RNG; the same seed always produces the same run.
//! * [`Medium`] — pluggable network models: an idealized point-to-point
//!   network ([`PointToPoint`]), a shared-bus Ethernet with frame
//!   serialization and contention ([`SharedBus`]), and fault-injection
//!   wrappers ([`Lossy`], [`PartitionSchedule`]).
//! * [`Sim`] — the event loop, generic over an [`Agent`] (the per-node
//!   behaviour; protocol stacks implement this in `ps-stack`), with a
//!   per-node CPU service-time model so busy nodes (e.g. a sequencer)
//!   queue work and become bottlenecks.
//!
//! # Examples
//!
//! A two-node ping-pong:
//!
//! ```
//! use ps_bytes::Bytes;
//! use ps_simnet::{Agent, Dest, NodeId, Packet, PointToPoint, Sim, SimApi, SimConfig, SimTime, TimerToken};
//!
//! struct Pinger { got: u32 }
//!
//! impl Agent for Pinger {
//!     fn on_start(&mut self, api: &mut SimApi<'_>) {
//!         if api.me() == NodeId(0) {
//!             api.send(Dest::To(NodeId(1)), Bytes::from_static(b"ping"));
//!         }
//!     }
//!     fn on_packet(&mut self, pkt: Packet, api: &mut SimApi<'_>) {
//!         self.got += 1;
//!         if self.got < 3 {
//!             api.send(Dest::To(pkt.src), pkt.payload);
//!         }
//!     }
//!     fn on_timer(&mut self, _: TimerToken, _: &mut SimApi<'_>) {}
//! }
//!
//! let mut sim = Sim::new(
//!     SimConfig::default().seed(7),
//!     Box::new(PointToPoint::new(SimTime::from_micros(500))),
//!     vec![Pinger { got: 0 }, Pinger { got: 0 }],
//! );
//! sim.run_until(SimTime::from_millis(100));
//! // Each side echoes until it has seen 3 packets: 5 packets total in flight.
//! assert_eq!(sim.agent(NodeId(0)).got + sim.agent(NodeId(1)).got, 5);
//! ```

mod agent;
mod medium;
mod queue;
mod rng;
mod sim;
mod stats;
mod time;

pub use agent::{Action, Agent, SimApi, TimerToken};
pub use medium::{
    EthernetConfig, Lossy, Medium, PartitionSchedule, PointToPoint, SharedBus, TxPlan,
};
pub use queue::EventQueue;
pub use rng::DetRng;
pub use sim::{NodeConfig, Sim, SimConfig};
pub use stats::NetStats;
pub use time::SimTime;

use ps_bytes::Bytes;
use std::fmt;

/// Identifier of a simulated node (a process in the paper's model).
///
/// Nodes are numbered densely from zero; `NodeId` doubles as an index into
/// per-node tables throughout the workspace. Ids stay 32-bit: the trace
/// schema and the benchmark carry a `u32`, and a `(NodeId, SimTime)`
/// delivery is 16 bytes at either width, so narrowing would save nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's position as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<u16> for NodeId {
    fn from(v: u16) -> Self {
        NodeId(u32::from(v))
    }
}

/// Addressing mode of an outgoing packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dest {
    /// Every node in the simulation, including the sender (a bus broadcast
    /// is heard by its own sender).
    All,
    /// Every node except the sender.
    Others,
    /// A single node (which may be the sender itself).
    To(NodeId),
}

/// A packet in flight: opaque payload plus source address.
///
/// Channel multiplexing, headers, and message identity all live in the
/// payload bytes; the simulator only meters size and moves bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// The node that transmitted the packet.
    pub src: NodeId,
    /// Opaque payload (already framed by the protocol stack).
    pub payload: Bytes,
}
