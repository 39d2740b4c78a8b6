//! # protocol-switching
//!
//! A from-scratch Rust reproduction of *"Protocol Switching: Exploiting
//! Meta-Properties"* (Liu, van Renesse, Bickford, Kreitz, Constable —
//! WARGC/ICDCS-W 2001): a generic layer that hot-swaps between group
//! communication protocols at run time, plus the executable version of the
//! paper's meta-property theory that says exactly *which* communication
//! properties survive the swap.
//!
//! This crate is a facade re-exporting the workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`switch`] | `ps-core` | the switching protocol (broadcast & token-ring variants), oracles, hybrids |
//! | [`protocols`] | `ps-protocols` | FIFO, reliable, sequencer/token total order, integrity, confidentiality, no-replay, priority, Amoeba, virtual synchrony |
//! | [`stack`] | `ps-stack` | Horus-style layer composition and the group runtime |
//! | [`trace`] | `ps-trace` | traces, the Table-1 properties, the six meta-properties, the Table-2 checker |
//! | [`simnet`] | `ps-simnet` | deterministic discrete-event network simulator (shared-Ethernet model, fault injection) |
//! | [`wire`] | `ps-wire` | binary codec and header framing |
//! | [`net`] | `ps-net` | real transport: the same stacks on OS threads over UDP loopback sockets, recorded for sim-vs-real diffing |
//! | [`obs`] | `ps-obs` | structured tracing: ring-buffer recorder, streaming property monitors, JSON-lines / Chrome-trace exporters |
//! | [`prof`] | `ps-prof` | in-engine host-time profiler: RAII span stacks, cost tables, collapsed-stack flamegraphs |
//! | [`workload`] | `ps-workload` | seeded traffic-profile generator: typed profiles, deterministic schedules, byte-stable manifests |
//! | [`harness`] | `ps-harness` | the experiments regenerating every table and figure |
//!
//! ## Quickstart
//!
//! ```
//! use protocol_switching::prelude::*;
//!
//! // A five-member group running the paper's hybrid total order:
//! // sequencer-based at first, switching to token-based at t = 50 ms.
//! let mut builder = GroupSimBuilder::new(5)
//!     .seed(7)
//!     .medium(Box::new(PointToPoint::new(SimTime::from_micros(300))))
//!     .stack_factory(|p, _, ids| {
//!         let oracle: Box<dyn Oracle> = if p == ProcessId(0) {
//!             Box::new(ManualOracle::new(vec![(SimTime::from_millis(50), 1)]))
//!         } else {
//!             Box::new(NeverOracle)
//!         };
//!         hybrid_total_order(ids, SwitchConfig::default(), ProcessId(0), oracle).0
//!     });
//! for i in 0..20u64 {
//!     builder = builder.send_at(
//!         SimTime::from_millis(2 + 5 * i),
//!         ProcessId((i % 5) as u16),
//!         format!("msg-{i}"),
//!     );
//! }
//! let mut sim = builder.build();
//! sim.run_until(SimTime::from_secs(2));
//!
//! // The application-level trace survives the switch totally ordered.
//! assert!(TotalOrder.holds(&sim.app_trace()));
//! ```

pub use ps_core as switch;
pub use ps_harness as harness;
pub use ps_net as net;
pub use ps_obs as obs;
pub use ps_prof as prof;
pub use ps_protocols as protocols;
pub use ps_simnet as simnet;
pub use ps_stack as stack;
pub use ps_trace as trace;
pub use ps_wire as wire;
pub use ps_workload as workload;

/// The most commonly used items, importable in one line.
pub mod prelude {
    pub use ps_core::{
        hybrid_total_order, hybrid_total_order_ft, ManualOracle, NeverOracle, Oracle, SwitchConfig,
        SwitchHandle, SwitchLayer, SwitchVariant, ThresholdOracle,
    };
    pub use ps_protocols::{
        AmoebaLayer, CausalOrderLayer, ConfidentialityLayer, CreditControlLayer, FifoLayer,
        IntegrityLayer, NoReplayLayer, PriorityLayer, RateControlLayer, ReliableLayer,
        SeqOrderLayer, TokenOrderLayer, VsyncConfig, VsyncLayer,
    };
    pub use ps_simnet::{
        Dest, DetRng, EthernetConfig, Lossy, Medium, NodeId, Packet, PartitionSchedule,
        PointToPoint, SharedBus, SimConfig, SimTime,
    };
    pub use ps_stack::{
        Cast, ChannelId, Driver, Frame, GroupSim, GroupSimBuilder, GroupSpec, IdGen, Layer,
        LayerCtx, Stack, StackEnv,
    };
    pub use ps_trace::props::{
        standard_suite, Amoeba, CausalOrder, Confidentiality, Integrity, NoReplay,
        PrioritizedDelivery, Property, Reliability, TotalOrder, VirtualSynchrony,
    };
    pub use ps_trace::{Event, Message, MsgId, ProcessId, Trace};
}
