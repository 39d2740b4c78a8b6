//! Concrete group-communication protocol layers — one per Table-1 property
//! (plus plumbing), each a [`ps_stack::Layer`] composable into stacks and
//! switchable by `ps-core`.
//!
//! | Layer | Property it implements | Mechanism |
//! |---|---|---|
//! | [`FifoLayer`] | per-sender FIFO (plumbing) | per-sender sequence numbers + reorder buffer |
//! | [`ReliableLayer`] | Reliability (exactly-once) | positive acks, retransmission, duplicate suppression |
//! | [`SeqOrderLayer`] | Total Order | fixed sequencer (Kaashoek-style: low latency, sequencer bottleneck) |
//! | [`TokenOrderLayer`] | Total Order | rotating token (Chang–Maxemchuk-style: no bottleneck, token-wait latency) |
//! | [`IntegrityLayer`] | Integrity | keyed MAC over payload+sender (toy hash — simulates the property, not crypto) |
//! | [`ConfidentialityLayer`] | Confidentiality | keystream cipher + enciphered checksum; keyless processes cannot read |
//! | [`NoReplayLayer`] | No Replay | per-process body-hash dedup |
//! | [`PriorityLayer`] | Prioritized Delivery | master delivers first, then releases the group |
//! | [`AmoebaLayer`] | Amoeba | next send held until the previous one self-delivers |
//! | [`VsyncLayer`] | Virtual Synchrony | count-vector flush on view change, views delivered as messages |
//! | [`RateControlLayer`] / [`CreditControlLayer`] | flow control (§1's H-RMC hybrid, switchable) | open-loop token bucket vs. closed-loop credit window |
//! | [`CausalOrderLayer`] | Causal Order (extension) | vector clocks (Birman–Schiper–Stephenson) |
//!
//! The two total-order layers are the stars of the paper's §7: their
//! latency/load trade-off (Figure 2) is what protocol switching exploits.

mod amoeba;
mod causal_order;
mod confidentiality;
mod fifo;
mod flow;
mod idle;
mod integrity;
pub mod mac;
mod no_replay;
mod obuf;
mod priority;
mod reliable;
mod seq_order;
mod token_order;
mod vsync;

pub use amoeba::AmoebaLayer;
pub use causal_order::CausalOrderLayer;
pub use confidentiality::ConfidentialityLayer;
pub use fifo::FifoLayer;
pub use flow::{CreditControlLayer, RateControlLayer};
pub use idle::IdleBackoff;
pub use integrity::IntegrityLayer;
pub use no_replay::NoReplayLayer;
pub use priority::PriorityLayer;
pub use reliable::{ReliableConfig, ReliableLayer};
pub use seq_order::SeqOrderLayer;
pub use token_order::TokenOrderLayer;
pub use vsync::{VsyncConfig, VsyncLayer};

#[cfg(test)]
pub(crate) mod testutil {
    use ps_bytes::Bytes;
    use ps_simnet::{Medium, PointToPoint, SimTime};
    use ps_stack::{Driver, GroupSimBuilder, IdGen, Stack};
    use ps_trace::ProcessId;

    /// Standard test rig: `n` processes, the given stack factory, `msgs`
    /// scheduled sends spread over senders and time.
    pub fn run_group<F>(
        n: u16,
        seed: u64,
        medium: Box<dyn Medium>,
        msgs: usize,
        factory: F,
    ) -> ps_stack::GroupSim
    where
        F: Fn(ProcessId, &[ProcessId], &mut IdGen) -> Stack + 'static,
    {
        let mut b = GroupSimBuilder::new(n).seed(seed).medium(medium).stack_factory(factory);
        for i in 0..msgs {
            let sender = ProcessId((i % n as usize) as u16);
            let at = SimTime::from_millis(1 + 3 * i as u64);
            b = b.send_at(at, sender, Bytes::from(format!("msg-{i}")));
        }
        let mut sim = b.build();
        sim.run_until(SimTime::from_secs(5));
        sim
    }

    /// Point-to-point medium helper.
    pub fn p2p(us: u64) -> Box<dyn Medium> {
        Box::new(PointToPoint::new(SimTime::from_micros(us)))
    }
}
