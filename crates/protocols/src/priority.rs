use ps_bytes::Bytes;
use ps_stack::{Frame, Layer, LayerCtx};
use ps_trace::ProcessId;
use ps_wire::{Decoder, Encoder, Wire, WireError};
use std::collections::{HashMap, HashSet};

/// Prioritized Delivery: "the master process always delivers a message
/// before any one else" (Table 1).
///
/// Data is broadcast tagged `(sender, seq)`. The master delivers on
/// receipt and broadcasts a `Release` for the message; everyone else
/// buffers data until the matching release arrives. Because the property
/// constrains the order of events *at different processes*, it is not
/// asynchronous (§5.2) and not preserved by switching — the Table-2
/// checker exhibits the counterexample.
#[derive(Debug)]
pub struct PriorityLayer {
    master: ProcessId,
    next_seq: u64,
    /// Buffered data awaiting release, keyed by (sender, seq).
    held: HashMap<(ProcessId, u64), Bytes>,
    /// Releases that arrived before their data.
    released: HashSet<(ProcessId, u64)>,
}

#[derive(Debug, PartialEq)]
enum PrioHeader {
    Data { sender: ProcessId, seq: u64 },
    Release { sender: ProcessId, seq: u64 },
}

impl Wire for PrioHeader {
    fn encode(&self, enc: &mut Encoder) {
        let (tag, sender, seq) = match self {
            PrioHeader::Data { sender, seq } => (0u8, sender, seq),
            PrioHeader::Release { sender, seq } => (1, sender, seq),
        };
        enc.put_u8(tag);
        sender.encode(enc);
        enc.put_varint(*seq);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let tag = dec.get_u8()?;
        let sender = ProcessId::decode(dec)?;
        let seq = dec.get_varint()?;
        match tag {
            0 => Ok(PrioHeader::Data { sender, seq }),
            1 => Ok(PrioHeader::Release { sender, seq }),
            t => Err(WireError::InvalidTag { tag: t.into(), ty: "PrioHeader" }),
        }
    }
}

impl PriorityLayer {
    /// Creates the layer with the given master.
    pub fn new(master: ProcessId) -> Self {
        Self { master, next_seq: 0, held: HashMap::new(), released: HashSet::new() }
    }

    /// The configured master.
    pub fn master(&self) -> ProcessId {
        self.master
    }
}

impl Layer for PriorityLayer {
    fn name(&self) -> &'static str {
        "priority"
    }

    fn on_down(&mut self, frame: Frame, ctx: &mut LayerCtx<'_>) {
        let hdr = PrioHeader::Data { sender: ctx.me(), seq: self.next_seq };
        self.next_seq += 1;
        ctx.send_down(Frame::all(ps_wire::push_header(&hdr, frame.bytes)));
    }

    fn on_up(&mut self, _src: ProcessId, bytes: Bytes, ctx: &mut LayerCtx<'_>) {
        let Ok((hdr, payload)) = ps_wire::take_header::<PrioHeader>(bytes) else {
            return;
        };
        let me = ctx.me();
        match hdr {
            PrioHeader::Data { sender, seq } => {
                if me == self.master {
                    ctx.deliver_up(sender, payload);
                    let rel = PrioHeader::Release { sender, seq };
                    ctx.send_down(Frame::new(
                        ps_stack::Cast::Others,
                        ps_wire::push_header(&rel, Bytes::new()),
                    ));
                } else if self.released.remove(&(sender, seq)) {
                    ctx.deliver_up(sender, payload);
                } else {
                    self.held.insert((sender, seq), payload);
                }
            }
            PrioHeader::Release { sender, seq } => {
                if me == self.master {
                    return; // own releases echoed back
                }
                if let Some(payload) = self.held.remove(&(sender, seq)) {
                    ctx.deliver_up(sender, payload);
                } else {
                    self.released.insert((sender, seq));
                }
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
    use ps_trace::props::{PrioritizedDelivery, Property, Reliability};

    fn prio_stack() -> impl Fn(ProcessId, &[ProcessId], &mut ps_stack::IdGen) -> Stack + 'static {
        |_, _, _| Stack::new(vec![Box::new(PriorityLayer::new(ProcessId(0)))])
    }

    #[test]
    fn header_roundtrip() {
        for h in [
            PrioHeader::Data { sender: ProcessId(1), seq: 3 },
            PrioHeader::Release { sender: ProcessId(1), seq: 3 },
        ] {
            assert_eq!(PrioHeader::from_bytes(&h.to_bytes()).unwrap(), h);
        }
    }

    #[test]
    fn master_always_delivers_first() {
        let sim = run_group(4, 5, p2p(400), 12, prio_stack());
        let tr = sim.app_trace();
        assert!(PrioritizedDelivery::new(ProcessId(0)).holds(&tr));
        assert!(Reliability::new(sim.group().to_vec()).holds(&tr));
    }

    #[test]
    fn holds_under_jitter() {
        // Jitter can race releases past data and vice versa; buffering on
        // both sides keeps the property.
        let medium = Box::new(
            PointToPoint::new(SimTime::from_micros(400)).with_jitter(SimTime::from_millis(3)),
        );
        let sim = run_group(4, 23, medium, 16, prio_stack());
        let tr = sim.app_trace();
        assert!(PrioritizedDelivery::new(ProcessId(0)).holds(&tr));
        assert_eq!(tr.iter().filter(|e| e.is_deliver()).count(), 16 * 4);
    }

    #[test]
    fn without_layer_property_fails_under_jitter() {
        let medium = Box::new(
            PointToPoint::new(SimTime::from_micros(400)).with_jitter(SimTime::from_millis(3)),
        );
        let sim = run_group(4, 23, medium, 16, |_, _, _| Stack::new(vec![]));
        assert!(!PrioritizedDelivery::new(ProcessId(0)).holds(&sim.app_trace()));
    }

    #[test]
    fn masters_own_messages_also_gated() {
        // Even messages sent by a non-master are delivered at the master
        // before the sender itself delivers them.
        let sim = run_group(3, 9, p2p(500), 9, prio_stack());
        let tr = sim.app_trace();
        for e in tr.iter() {
            if let ps_trace::Event::Deliver(p, m) = e {
                if *p != ProcessId(0) {
                    // By this point the master must already have it.
                    let master_pos = tr
                        .iter()
                        .position(|e2| matches!(e2, ps_trace::Event::Deliver(q, m2) if *q == ProcessId(0) && m2.id == m.id));
                    let my_pos = tr.iter().position(|e2| e2 == e);
                    assert!(master_pos.unwrap() < my_pos.unwrap());
                }
            }
        }
    }
}
