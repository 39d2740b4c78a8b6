//! Convenience constructors for the hybrid protocols the paper discusses.

use crate::oracle::Oracle;
use crate::stats::SwitchHandle;
use crate::switch::{SwitchConfig, SwitchLayer};
use ps_protocols::{FifoLayer, ReliableLayer, SeqOrderLayer, TokenOrderLayer};
use ps_simnet::SimTime;
use ps_stack::{IdGen, Stack};
use ps_trace::ProcessId;

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
    let seq = Stack::with_ids(vec![Box::new(SeqOrderLayer::new(sequencer))], ids);
    let token = Stack::with_ids(
        vec![Box::new(TokenOrderLayer::with_idle_hold(SimTime::from_millis(1)))],
        ids,
    );
    let (layer, handle) = SwitchLayer::new(cfg, seq, token, oracle);
    (Stack::with_ids(vec![Box::new(layer)], ids), handle)
}

/// Builds a **fault-tolerant** hybrid total-order stack: two
/// sequencer-based total-order protocols (protocol 0 sequenced by `seq_a`,
/// protocol 1 by `seq_b`) each over reliable exactly-once transport, with
/// the switch's control traffic on its own reliable stack.
///
/// [`ReliableLayer`] delivers *unordered* (retransmitted frames overtake
/// later ones), so a [`FifoLayer`] sits between the sequencer and the
/// transport: it restores per-sender order before the sequencer assigns
/// global order, making the composed stack FIFO *and* totally ordered
/// even under loss — the §4 layering argument in miniature.
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
    let a = Stack::with_ids(
        vec![
            Box::new(SeqOrderLayer::new(seq_a)),
            Box::new(FifoLayer::new()),
            Box::new(ReliableLayer::new()),
        ],
        ids,
    );
    let b = Stack::with_ids(
        vec![
            Box::new(SeqOrderLayer::new(seq_b)),
            Box::new(FifoLayer::new()),
            Box::new(ReliableLayer::new()),
        ],
        ids,
    );
    let control = Stack::with_ids(vec![Box::new(ReliableLayer::new())], ids);
    let (layer, handle) = SwitchLayer::new(cfg, a, b, oracle);
    let layer = layer.with_control_stack(control);
    (Stack::with_ids(vec![Box::new(layer)], ids), handle)
}

/// Builds the **fault-tolerant sequencer↔token** hybrid: protocol 0 is
/// sequencer-based total order (sequenced by `sequencer`) over FIFO over
/// reliable transport; protocol 1 is token-based total order (with
/// `idle_hold` as its base idle hold) directly over reliable transport,
/// with the switch's control traffic on its own reliable stack.
///
/// This is [`hybrid_total_order`]'s protocol pair with
/// [`hybrid_total_order_ft`]'s transports: the §7 crossover hybrid, but
/// able to ride out frame loss and crash/recovery. The token protocol
/// needs no FIFO restorer — it delivers from a global-sequence reorder
/// buffer, so retransmitted frames overtaking later ones cannot reorder
/// its output.
pub fn hybrid_seq_token_ft(
    ids: &mut IdGen,
    cfg: SwitchConfig,
    sequencer: ProcessId,
    idle_hold: SimTime,
    oracle: Box<dyn Oracle>,
) -> (Stack, SwitchHandle) {
    let seq = Stack::with_ids(
        vec![
            Box::new(SeqOrderLayer::new(sequencer)),
            Box::new(FifoLayer::new()),
            Box::new(ReliableLayer::new()),
        ],
        ids,
    );
    let token = Stack::with_ids(
        vec![Box::new(TokenOrderLayer::with_idle_hold(idle_hold)), Box::new(ReliableLayer::new())],
        ids,
    );
    let control = Stack::with_ids(vec![Box::new(ReliableLayer::new())], ids);
    let (layer, handle) = SwitchLayer::new(cfg, seq, token, oracle);
    let layer = layer.with_control_stack(control);
    (Stack::with_ids(vec![Box::new(layer)], ids), handle)
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
        assert_eq!(stack.layer_names(), vec!["switch"]);
        assert_eq!(handle.current(), 0);
    }
}
