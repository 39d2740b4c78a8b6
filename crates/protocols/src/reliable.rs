use ps_bytes::Bytes;
use ps_simnet::SimTime;
use ps_stack::{Cast, Frame, Layer, LayerCtx};
use ps_trace::ProcessId;
use ps_wire::{Decoder, Encoder, Wire, WireError};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Tuning for [`ReliableLayer`].
#[derive(Debug, Clone)]
pub struct ReliableConfig {
    /// Interval between retransmission sweeps while frames are unacked.
    pub retransmit_interval: SimTime,
}

impl Default for ReliableConfig {
    fn default() -> Self {
        Self { retransmit_interval: SimTime::from_millis(20) }
    }
}

/// Reliable exactly-once multicast: positive acks, retransmission, and
/// duplicate suppression.
///
/// This provides the assumptions the switching protocol states in §2: "all
/// messages that are delivered were sent … messages are delivered at most
/// once. If switches are supposed to complete (liveness), messages have to
/// be delivered exactly once." Compose it under any protocol that must
/// survive a lossy network.
///
/// Delivery is unordered; stack a [`crate::FifoLayer`] above it when
/// per-sender order matters.
#[derive(Debug)]
pub struct ReliableLayer {
    config: ReliableConfig,
    next_seq: u64,
    /// Unacknowledged outbound frames.
    outbound: BTreeMap<u64, Outbound>,
    /// Per-sender seen/delivered bookkeeping.
    inbound: HashMap<ProcessId, Seen>,
    timer_armed: bool,
    /// Total retransmitted copies (observable for tests/experiments).
    pub retransmissions: u64,
}

#[derive(Debug)]
struct Outbound {
    /// The frame as first sent, header included: a retransmission resends
    /// these bytes, it does not re-encode them.
    wrapped: Bytes,
    /// Receivers that have not acknowledged yet, ascending (the order the
    /// sweep retransmits in). The frame is done when this is empty.
    missing: Vec<ProcessId>,
}

/// Compact received-set: a low watermark plus a sparse tail.
#[derive(Debug, Default)]
struct Seen {
    /// All seqs `< low` have been delivered.
    low: u64,
    tail: BTreeSet<u64>,
}

impl Seen {
    fn insert(&mut self, seq: u64) -> bool {
        if seq == self.low && self.tail.is_empty() {
            // In-order arrival: the watermark moves, the tail is untouched.
            self.low += 1;
            return true;
        }
        if seq < self.low || !self.tail.insert(seq) {
            return false;
        }
        while self.tail.remove(&self.low) {
            self.low += 1;
        }
        true
    }
}

#[derive(Debug, PartialEq)]
enum RelHeader {
    Data { sender: ProcessId, seq: u64 },
    Ack { seq: u64 },
}

impl Wire for RelHeader {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            RelHeader::Data { sender, seq } => {
                enc.put_u8(0);
                sender.encode(enc);
                enc.put_varint(*seq);
            }
            RelHeader::Ack { seq } => {
                enc.put_u8(1);
                enc.put_varint(*seq);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        match dec.get_u8()? {
            0 => Ok(RelHeader::Data { sender: ProcessId::decode(dec)?, seq: dec.get_varint()? }),
            1 => Ok(RelHeader::Ack { seq: dec.get_varint()? }),
            tag => Err(WireError::InvalidTag { tag: tag.into(), ty: "RelHeader" }),
        }
    }
}

const SWEEP: u32 = 1;

impl ReliableLayer {
    /// Creates the layer with default tuning.
    pub fn new() -> Self {
        Self::with_config(ReliableConfig::default())
    }

    /// Creates the layer with explicit tuning.
    pub fn with_config(config: ReliableConfig) -> Self {
        Self {
            config,
            next_seq: 0,
            outbound: BTreeMap::new(),
            inbound: HashMap::new(),
            timer_armed: false,
            retransmissions: 0,
        }
    }

    fn arm(&mut self, ctx: &mut LayerCtx<'_>) {
        if !self.timer_armed {
            self.timer_armed = true;
            ctx.set_timer(self.config.retransmit_interval, SWEEP);
        }
    }

    /// The members `dest` addresses, ascending.
    fn expected_receivers(dest: Cast, me: ProcessId, group: &[ProcessId]) -> Vec<ProcessId> {
        let mut receivers = match dest {
            Cast::All => group.to_vec(),
            Cast::Others => group.iter().copied().filter(|&p| p != me).collect(),
            Cast::To(p) => vec![p],
        };
        receivers.sort_unstable();
        receivers
    }
}

impl Default for ReliableLayer {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for ReliableLayer {
    fn name(&self) -> &'static str {
        "reliable"
    }

    fn on_restart(&mut self, ctx: &mut LayerCtx<'_>) {
        // The sweep timer died with the crashed incarnation. Outbound
        // frames survive (stable storage); resume retransmitting anything
        // still unacknowledged.
        self.timer_armed = false;
        if !self.outbound.is_empty() {
            self.arm(ctx);
        }
    }

    fn on_down(&mut self, frame: Frame, ctx: &mut LayerCtx<'_>) {
        let me = ctx.me();
        let seq = self.next_seq;
        self.next_seq += 1;
        // Push before retaining: the frame is still uniquely owned here, so
        // the header goes into its reserve without a copy.
        let wrapped = ps_wire::push_header(&RelHeader::Data { sender: me, seq }, frame.bytes);
        let missing = Self::expected_receivers(frame.dest, me, ctx.group_slice());
        self.outbound.insert(seq, Outbound { wrapped: wrapped.clone(), missing });
        ctx.send_down(Frame::new(frame.dest, wrapped));
        self.arm(ctx);
    }

    fn on_up(&mut self, src: ProcessId, bytes: Bytes, ctx: &mut LayerCtx<'_>) {
        let Ok((hdr, payload)) = ps_wire::take_header::<RelHeader>(bytes) else {
            return;
        };
        match hdr {
            RelHeader::Data { sender, seq } => {
                // Always (re-)ack: the previous ack may have been lost.
                let ack = ps_wire::push_header(&RelHeader::Ack { seq }, Bytes::new());
                ctx.send_down(Frame::to(sender, ack));
                let seen = self.inbound.entry(sender).or_default();
                if seen.insert(seq) {
                    ctx.deliver_up(sender, payload);
                }
            }
            RelHeader::Ack { seq } => {
                let Some(out) = self.outbound.get_mut(&seq) else { return };
                if let Ok(at) = out.missing.binary_search(&src) {
                    out.missing.remove(at);
                }
                if out.missing.is_empty() {
                    self.outbound.remove(&seq);
                }
            }
        }
    }

    fn on_timer(&mut self, token: u32, ctx: &mut LayerCtx<'_>) {
        debug_assert_eq!(token, SWEEP);
        self.timer_armed = false;
        if self.outbound.is_empty() {
            return;
        }
        for out in self.outbound.values() {
            for &missing in &out.missing {
                self.retransmissions += 1;
                ctx.send_down(Frame::to(missing, out.wrapped.clone()));
            }
        }
        self.arm(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{p2p, run_group};
    use ps_simnet::{Lossy, PointToPoint};
    use ps_stack::Stack;
    use ps_trace::props::{NoReplay, Property, Reliability};

    #[test]
    fn header_roundtrip() {
        for h in [RelHeader::Data { sender: ProcessId(2), seq: 7 }, RelHeader::Ack { seq: 7 }] {
            assert_eq!(RelHeader::from_bytes(&h.to_bytes()).unwrap(), h);
        }
    }

    #[test]
    fn seen_set_compacts_contiguous_prefix() {
        let mut s = Seen::default();
        assert!(s.insert(0));
        assert!(s.insert(2));
        assert!(s.insert(1));
        assert_eq!(s.low, 3);
        assert!(s.tail.is_empty());
        assert!(!s.insert(1), "duplicates below watermark rejected");
        assert!(!s.insert(2));
    }

    #[test]
    fn clean_network_single_transmission() {
        let sim = run_group(3, 1, p2p(100), 6, |_, _, _| {
            Stack::new(vec![Box::new(ReliableLayer::new())])
        });
        let group: Vec<ProcessId> = sim.group().to_vec();
        let tr = sim.app_trace();
        assert!(Reliability::new(group).holds(&tr));
        assert!(NoReplay.holds(&tr));
    }

    #[test]
    fn survives_heavy_loss_exactly_once() {
        // 30% loss on every copy, including acks.
        let medium =
            Box::new(Lossy::new(Box::new(PointToPoint::new(SimTime::from_micros(200))), 0.30));
        let sim = run_group(4, 5, medium, 10, |_, _, _| {
            Stack::new(vec![Box::new(ReliableLayer::with_config(ReliableConfig {
                retransmit_interval: SimTime::from_millis(10),
            }))])
        });
        let group: Vec<ProcessId> = sim.group().to_vec();
        let tr = sim.app_trace();
        assert!(
            Reliability::new(group).holds(&tr),
            "all 10 messages must reach all 4 members despite loss"
        );
        // Exactly-once: no duplicate delivery of any message id.
        assert!(NoReplay.holds(&tr));
    }

    #[test]
    fn survives_duplication() {
        let medium = Box::new(
            Lossy::new(Box::new(PointToPoint::new(SimTime::from_micros(200))), 0.1)
                .with_duplication(0.3),
        );
        let sim =
            run_group(3, 9, medium, 8, |_, _, _| Stack::new(vec![Box::new(ReliableLayer::new())]));
        let tr = sim.app_trace();
        assert!(Reliability::new(sim.group().to_vec()).holds(&tr));
        assert!(NoReplay.holds(&tr));
    }

    #[test]
    fn without_reliability_loss_loses_messages() {
        // Control experiment: the bare stack under the same loss drops data.
        let medium =
            Box::new(Lossy::new(Box::new(PointToPoint::new(SimTime::from_micros(200))), 0.30));
        let sim = run_group(4, 5, medium, 10, |_, _, _| Stack::new(vec![]));
        let tr = sim.app_trace();
        assert!(!Reliability::new(sim.group().to_vec()).holds(&tr));
    }

    #[test]
    fn retransmissions_happen_only_under_loss() {
        let clean = run_group(3, 2, p2p(100), 5, |_, _, _| {
            Stack::new(vec![Box::new(ReliableLayer::new())])
        });
        assert_eq!(clean.net_stats().copies_dropped, 0);
        let lossy_medium =
            Box::new(Lossy::new(Box::new(PointToPoint::new(SimTime::from_micros(100))), 0.4));
        let lossy = run_group(3, 2, lossy_medium, 5, |_, _, _| {
            Stack::new(vec![Box::new(ReliableLayer::new())])
        });
        // More frames had to be sent under loss than on the clean network.
        assert!(lossy.net_stats().frames_sent > clean.net_stats().frames_sent);
    }
}
