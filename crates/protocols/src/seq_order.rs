use crate::obuf::OrderedBuf;
use ps_bytes::Bytes;
use ps_stack::{Frame, Layer, LayerCtx};
use ps_trace::ProcessId;
use ps_wire::{Decoder, Encoder, Wire, WireError};

/// Sequencer-based total order (the paper's first §7 mechanism, after
/// Kaashoek's Amoeba broadcast).
///
/// "Messages are sent in FIFO order to the sequencer, and then the
/// sequencer forwards these messages by multicast, again in FIFO order."
/// Latency is low — "basically twice the network latency" — but every
/// message crosses the sequencer's CPU, so the sequencer "may become a
/// bottleneck when there are many active senders". Figure 2's left-hand
/// regime belongs to this layer; its saturation produces the crossover.
#[derive(Debug)]
pub struct SeqOrderLayer {
    sequencer: ProcessId,
    next_gseq: u64,
    buf: OrderedBuf,
}

#[derive(Debug, PartialEq)]
enum SeqHeader {
    /// Sender → sequencer: please order this.
    Forward { orig: ProcessId },
    /// Sequencer → everyone: globally ordered message.
    Ordered { gseq: u64, orig: ProcessId },
}

impl Wire for SeqHeader {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            SeqHeader::Forward { orig } => {
                enc.put_u8(0);
                orig.encode(enc);
            }
            SeqHeader::Ordered { gseq, orig } => {
                enc.put_u8(1);
                enc.put_varint(*gseq);
                orig.encode(enc);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        match dec.get_u8()? {
            0 => Ok(SeqHeader::Forward { orig: ProcessId::decode(dec)? }),
            1 => Ok(SeqHeader::Ordered { gseq: dec.get_varint()?, orig: ProcessId::decode(dec)? }),
            tag => Err(WireError::InvalidTag { tag: tag.into(), ty: "SeqHeader" }),
        }
    }
}

impl SeqOrderLayer {
    /// Creates the layer with the given fixed sequencer (conventionally
    /// process 0).
    pub fn new(sequencer: ProcessId) -> Self {
        Self { sequencer, next_gseq: 0, buf: OrderedBuf::default() }
    }

    /// The configured sequencer.
    pub fn sequencer(&self) -> ProcessId {
        self.sequencer
    }

    fn order_and_broadcast(&mut self, orig: ProcessId, payload: Bytes, ctx: &mut LayerCtx<'_>) {
        let gseq = self.next_gseq;
        self.next_gseq += 1;
        let hdr = SeqHeader::Ordered { gseq, orig };
        ctx.send_down(Frame::all(ps_wire::push_header(&hdr, payload)));
    }
}

impl Layer for SeqOrderLayer {
    fn name(&self) -> &'static str {
        "seq-order"
    }

    fn on_down(&mut self, frame: Frame, ctx: &mut LayerCtx<'_>) {
        let me = ctx.me();
        if me == self.sequencer {
            self.order_and_broadcast(me, frame.bytes, ctx);
        } else {
            let hdr = SeqHeader::Forward { orig: me };
            ctx.send_down(Frame::to(self.sequencer, ps_wire::push_header(&hdr, frame.bytes)));
        }
    }

    fn on_up(&mut self, _src: ProcessId, bytes: Bytes, ctx: &mut LayerCtx<'_>) {
        let Ok((hdr, payload)) = ps_wire::take_header::<SeqHeader>(bytes) else {
            return;
        };
        match hdr {
            SeqHeader::Forward { orig } => {
                if ctx.me() == self.sequencer {
                    self.order_and_broadcast(orig, payload, ctx);
                }
                // Forwards reaching a non-sequencer are dropped (stale
                // routing); they will be retransmitted by layers below.
            }
            SeqHeader::Ordered { gseq, orig } => {
                self.buf.offer(gseq, orig, payload, |o, p| ctx.deliver_up(o, p));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{p2p, run_group};
    use ps_simnet::{PointToPoint, SimTime};
    use ps_stack::{Driver, Stack};
    use ps_trace::props::{Property, Reliability, TotalOrder};

    fn seq_stack() -> impl Fn(ProcessId, &[ProcessId], &mut ps_stack::IdGen) -> Stack + 'static {
        |_, _, _| Stack::new(vec![Box::new(SeqOrderLayer::new(ProcessId(0)))])
    }

    #[test]
    fn header_roundtrip() {
        for h in [
            SeqHeader::Forward { orig: ProcessId(4) },
            SeqHeader::Ordered { gseq: 12, orig: ProcessId(1) },
        ] {
            assert_eq!(SeqHeader::from_bytes(&h.to_bytes()).unwrap(), h);
        }
    }

    #[test]
    fn provides_total_order_and_reliability() {
        let sim = run_group(4, 3, p2p(300), 12, seq_stack());
        let tr = sim.app_trace();
        assert!(TotalOrder.holds(&tr));
        assert!(Reliability::new(sim.group().to_vec()).holds(&tr));
    }

    #[test]
    fn total_order_survives_jitter() {
        // Jitter reorders network arrivals; the gseq buffer restores order.
        let medium = Box::new(
            PointToPoint::new(SimTime::from_micros(300)).with_jitter(SimTime::from_millis(2)),
        );
        let sim = run_group(5, 11, medium, 20, seq_stack());
        assert!(TotalOrder.holds(&sim.app_trace()));
    }

    #[test]
    fn all_processes_deliver_identical_sequences() {
        let sim = run_group(3, 7, p2p(200), 9, seq_stack());
        let tr = sim.app_trace();
        let seq0: Vec<_> = tr.delivered_by(ProcessId(0)).iter().map(|m| m.id).collect();
        for p in 1..3 {
            let seqp: Vec<_> = tr.delivered_by(ProcessId(p)).iter().map(|m| m.id).collect();
            assert_eq!(seq0, seqp, "p{p} diverged");
        }
        assert_eq!(seq0.len(), 9);
    }

    #[test]
    fn sequencer_messages_also_ordered() {
        // Only the sequencer sends: still delivered everywhere in order.
        let mut b =
            ps_stack::GroupSimBuilder::new(3).seed(1).medium(p2p(100)).stack_factory(seq_stack());
        for i in 0..5u64 {
            b = b.send_at(SimTime::from_millis(1 + i), ProcessId(0), format!("s{i}"));
        }
        let mut sim = b.build();
        sim.run_until(SimTime::from_secs(1));
        let tr = sim.app_trace();
        assert!(TotalOrder.holds(&tr));
        assert_eq!(tr.delivered_by(ProcessId(2)).len(), 5);
    }

    #[test]
    fn latency_is_about_two_hops_for_non_sequencer() {
        // One message from p1: forward hop + broadcast hop + service times.
        let mut sim = ps_stack::GroupSimBuilder::new(4)
            .seed(1)
            .medium(p2p(500))
            .stack_factory(seq_stack())
            .send_at(SimTime::from_millis(1), ProcessId(1), b"x")
            .build();
        sim.run_until(SimTime::from_secs(1));
        let lat = sim.mean_delivery_latency().unwrap();
        // 2 × 500us propagation + a few 150us service quanta.
        assert!(lat >= SimTime::from_millis(1), "latency {lat}");
        assert!(lat <= SimTime::from_millis(3), "latency {lat}");
    }
}
