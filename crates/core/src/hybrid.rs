//! Convenience constructors for the hybrid protocols the paper discusses.

use crate::oracle::Oracle;
use crate::stats::SwitchHandle;
use crate::switch::{SwitchConfig, SwitchLayer};
use ps_protocols::{FifoLayer, ReliableLayer, SeqOrderLayer, TokenOrderLayer};
use ps_simnet::SimTime;
use ps_stack::{IdGen, Layer, Stack};
use ps_trace::ProcessId;

/// A total-order sub-stack, as one side of a hybrid (or a plain group)
/// runs it. As a side, a fault-tolerant shape leaves out its
/// [`ReliableLayer`]: [`hybrid_layer`] puts one under the switch instead.
#[derive(Debug, Clone, Copy)]
pub enum Proto {
    /// Sequencer total order, sequenced by process `ProcessId(s)`.
    Seq(u16),
    /// Token total order with this base idle hold.
    Token(SimTime),
    /// Sequencer total order over FIFO over reliable transport: the
    /// [`FifoLayer`] restores the per-sender order [`ReliableLayer`]'s
    /// retransmissions lose before the sequencer assigns global order.
    SeqFt(u16),
    /// Token total order over reliable transport (its global-sequence
    /// reorder buffer needs no FIFO restorer).
    TokenFt(SimTime),
}

impl Proto {
    /// The sub-stack's layers, top first.
    pub fn layers(self) -> Vec<Box<dyn Layer>> {
        let mut layers = self.ordering();
        if self.fault_tolerant() {
            layers.push(Box::new(ReliableLayer::new()));
        }
        layers
    }

    /// [`Proto::layers`] without the reliable transport: what a hybrid
    /// hosts as one of its sides.
    fn ordering(self) -> Vec<Box<dyn Layer>> {
        match self {
            Proto::Seq(s) => vec![Box::new(SeqOrderLayer::new(ProcessId(s)))],
            Proto::Token(hold) | Proto::TokenFt(hold) => {
                vec![Box::new(TokenOrderLayer::with_idle_hold(hold))]
            }
            Proto::SeqFt(s) => {
                vec![Box::new(SeqOrderLayer::new(ProcessId(s))), Box::new(FifoLayer::new())]
            }
        }
    }

    fn fault_tolerant(self) -> bool {
        matches!(self, Proto::SeqFt(_) | Proto::TokenFt(_))
    }
}

/// Builds one process's [`SwitchLayer`] between `from` (protocol 0) and
/// `to` (protocol 1), drawing layer ids from `ids` in the order the two
/// sub-stacks are listed; returns the layers to stack, top first. When
/// either side is fault-tolerant, one [`ReliableLayer`] goes below the
/// switch and carries both protocols and the control channel: as the
/// bottom of the stack it keeps each frame with the channel tag already
/// in it, and a retransmission resends those bytes unchanged.
pub fn hybrid_layer(
    ids: &mut IdGen,
    cfg: SwitchConfig,
    from: Proto,
    to: Proto,
    oracle: Box<dyn Oracle>,
) -> (Vec<Box<dyn Layer>>, SwitchHandle) {
    let a = Stack::with_ids(from.ordering(), ids);
    let b = Stack::with_ids(to.ordering(), ids);
    let (layer, handle) = SwitchLayer::new(cfg, a, b, oracle);
    let mut layers: Vec<Box<dyn Layer>> = vec![Box::new(layer)];
    if from.fault_tolerant() || to.fault_tolerant() {
        layers.push(Box::new(ReliableLayer::new()));
    }
    (layers, handle)
}

/// Builds the §7 hybrid total-order stack for one process: a switch
/// between sequencer-based (protocol 0) and token-based (protocol 1) total
/// order.
///
/// "Clearly, a hybrid protocol formed by switching at the cross-over point
/// would achieve the best of both worlds."
///
/// # Examples
///
/// ```
/// use ps_core::{hybrid_total_order, NeverOracle, SwitchConfig};
/// use ps_stack::IdGen;
/// use ps_trace::ProcessId;
///
/// let mut ids = IdGen::new();
/// let (stack, handle) = hybrid_total_order(
///     &mut ids,
///     SwitchConfig::default(),
///     ProcessId(0),
///     Box::new(NeverOracle),
/// );
/// assert_eq!(stack.layer_names(), vec!["switch"]);
/// assert_eq!(handle.current(), 0);
/// ```
pub fn hybrid_total_order(
    ids: &mut IdGen,
    cfg: SwitchConfig,
    sequencer: ProcessId,
    oracle: Box<dyn Oracle>,
) -> (Stack, SwitchHandle) {
    let token = Proto::Token(SimTime::from_millis(1));
    let (layers, handle) = hybrid_layer(ids, cfg, Proto::Seq(sequencer.0), token, oracle);
    (Stack::with_ids(layers, ids), handle)
}

/// Builds a **fault-tolerant** hybrid total-order stack: two
/// sequencer-based total-order protocols ([`Proto::SeqFt`], protocol 0
/// sequenced by `seq_a`, protocol 1 by `seq_b`) over one reliable
/// transport, which carries the switch's control traffic too.
///
/// This is the configuration the chaos harness drives: retransmission
/// below, and the switch's own phase timeout / control retransmission /
/// token regeneration above, keep both the data plane and the switching
/// protocol live across crashes, recoveries, frame loss, and (bounded)
/// partitions. Switching between two instances of the "same" protocol
/// under different sequencers is the paper's on-line reconfiguration
/// use case.
pub fn hybrid_total_order_ft(
    ids: &mut IdGen,
    cfg: SwitchConfig,
    seq_a: ProcessId,
    seq_b: ProcessId,
    oracle: Box<dyn Oracle>,
) -> (Stack, SwitchHandle) {
    let (from, to) = (Proto::SeqFt(seq_a.0), Proto::SeqFt(seq_b.0));
    let (layers, handle) = hybrid_layer(ids, cfg, from, to, oracle);
    (Stack::with_ids(layers, ids), handle)
}

/// Builds the **fault-tolerant sequencer↔token** hybrid: [`Proto::SeqFt`]
/// sequenced by `sequencer` as protocol 0, [`Proto::TokenFt`] with
/// `idle_hold` as its base idle hold as protocol 1, over one reliable
/// transport, which carries the switch's control traffic too.
///
/// This is [`hybrid_total_order`]'s protocol pair with
/// [`hybrid_total_order_ft`]'s transports: the §7 crossover hybrid, but
/// able to ride out frame loss and crash/recovery.
pub fn hybrid_seq_token_ft(
    ids: &mut IdGen,
    cfg: SwitchConfig,
    sequencer: ProcessId,
    idle_hold: SimTime,
    oracle: Box<dyn Oracle>,
) -> (Stack, SwitchHandle) {
    let (from, to) = (Proto::SeqFt(sequencer.0), Proto::TokenFt(idle_hold));
    let (layers, handle) = hybrid_layer(ids, cfg, from, to, oracle);
    (Stack::with_ids(layers, ids), handle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::NeverOracle;

    #[test]
    fn builds_one_switch_layer() {
        let mut ids = IdGen::new();
        let (stack, handle) = hybrid_total_order(
            &mut ids,
            SwitchConfig::default(),
            ProcessId(0),
            Box::new(NeverOracle),
        );
        assert_eq!(stack.len(), 1);
        assert_eq!(handle.switches_completed(), 0);
    }

    #[test]
    fn seq_token_ft_builds_one_switch_layer() {
        let mut ids = IdGen::new();
        let (stack, handle) = hybrid_seq_token_ft(
            &mut ids,
            SwitchConfig::default(),
            ProcessId(0),
            SimTime::from_millis(5),
            Box::new(NeverOracle),
        );
        assert_eq!(stack.layer_names(), vec!["switch", "reliable"]);
        assert_eq!(handle.current(), 0);
    }

    /// The layer names of `from`↔`to`'s stack, and how many layers it
    /// has in all, the sides' included.
    fn built(from: Proto, to: Proto) -> (Vec<&'static str>, u32) {
        let mut ids = IdGen::new();
        let (layers, _) =
            hybrid_layer(&mut ids, SwitchConfig::default(), from, to, Box::new(NeverOracle));
        let names = Stack::with_ids(layers, &mut ids).layer_names();
        (names, ids.next_id().0)
    }

    #[test]
    fn one_fault_tolerant_side_puts_one_reliable_transport_under_the_switch() {
        let hold = SimTime::from_millis(1);
        let ft = vec!["switch", "reliable"];
        // Either order: the sides are seq-order and token-order alone.
        assert_eq!(built(Proto::Seq(0), Proto::TokenFt(hold)), (ft.clone(), 4));
        assert_eq!(built(Proto::TokenFt(hold), Proto::Seq(0)), (ft.clone(), 4));
        assert_eq!(built(Proto::SeqFt(0), Proto::SeqFt(1)), (ft, 6));
        assert_eq!(built(Proto::Seq(0), Proto::Token(hold)), (vec!["switch"], 3));
    }

    #[test]
    fn a_plain_stack_keeps_its_reliable_transport() {
        let names = |p: Proto| p.layers().iter().map(|l| l.name()).collect::<Vec<_>>();
        assert_eq!(names(Proto::SeqFt(0)), ["seq-order", "fifo", "reliable"]);
        assert_eq!(names(Proto::TokenFt(SimTime::ZERO)), ["token-order", "reliable"]);
        assert_eq!(names(Proto::Seq(0)), ["seq-order"]);
    }
}
