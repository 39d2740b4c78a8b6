use ps_bytes::Bytes;
use ps_stack::{Frame, Layer, LayerCtx};
use ps_trace::ProcessId;
use ps_wire::{Decoder, Encoder, Wire, WireError};
use std::collections::{BTreeMap, HashMap};

/// Per-sender FIFO ordering.
///
/// Stamps each downward frame with `(sender, seq)`; receivers hold back
/// out-of-order frames and deliver each sender's stream in sequence. This
/// is plumbing most of the ordering protocols assume (the sequencer
/// receives each sender's messages "in FIFO order" in the paper's §7).
///
/// Gaps stall the stream — compose over [`crate::ReliableLayer`] on lossy
/// networks.
#[derive(Debug, Default)]
pub struct FifoLayer {
    next_out: u64,
    /// Per sender: next expected seq and held-back frames.
    inbound: HashMap<ProcessId, Inbound>,
}

#[derive(Debug, Default)]
struct Inbound {
    next: u64,
    held: BTreeMap<u64, Bytes>,
}

#[derive(Debug, PartialEq)]
struct FifoHeader {
    sender: ProcessId,
    seq: u64,
}

impl Wire for FifoHeader {
    fn encode(&self, enc: &mut Encoder) {
        self.sender.encode(enc);
        enc.put_varint(self.seq);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(FifoHeader { sender: ProcessId::decode(dec)?, seq: dec.get_varint()? })
    }
}

impl FifoLayer {
    /// Creates the layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for FifoLayer {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn on_down(&mut self, frame: Frame, ctx: &mut LayerCtx<'_>) {
        let hdr = FifoHeader { sender: ctx.me(), seq: self.next_out };
        self.next_out += 1;
        ctx.send_down(Frame::new(frame.dest, ps_wire::push_header(&hdr, frame.bytes)));
    }

    fn on_up(&mut self, _src: ProcessId, bytes: Bytes, ctx: &mut LayerCtx<'_>) {
        let Ok((hdr, payload)) = ps_wire::take_header::<FifoHeader>(bytes) else {
            return; // malformed: drop
        };
        let inbound = self.inbound.entry(hdr.sender).or_default();
        if hdr.seq < inbound.next {
            return; // stale duplicate
        }
        if hdr.seq == inbound.next && inbound.held.is_empty() {
            // In order with nothing held back: no container is touched.
            inbound.next += 1;
            ctx.deliver_up(hdr.sender, payload);
            return;
        }
        inbound.held.insert(hdr.seq, payload);
        while let Some(payload) = inbound.held.remove(&inbound.next) {
            inbound.next += 1;
            ctx.deliver_up(hdr.sender, payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{p2p, run_group};
    use ps_simnet::{PointToPoint, SimTime};
    use ps_stack::{Driver, Stack};
    use ps_trace::{Event, MsgId};

    #[test]
    fn header_roundtrip() {
        let h = FifoHeader { sender: ProcessId(3), seq: 999 };
        let b = h.to_bytes();
        assert_eq!(FifoHeader::from_bytes(&b).unwrap(), h);
    }

    #[test]
    fn delivers_in_send_order_despite_jitter() {
        // Heavy jitter reorders frames in flight; FIFO restores order.
        let medium = Box::new(
            PointToPoint::new(SimTime::from_micros(100)).with_jitter(SimTime::from_millis(8)),
        );
        let sim =
            run_group(3, 7, medium, 12, |_, _, _| Stack::new(vec![Box::new(FifoLayer::new())]));
        let tr = sim.app_trace();
        // Per receiver, messages from each sender must arrive seq-ascending.
        for p in sim.group() {
            let mut last: HashMap<ProcessId, u64> = HashMap::new();
            for m in tr.delivered_by(*p) {
                if let Some(&prev) = last.get(&m.id.sender) {
                    assert!(m.id.seq > prev, "{p} saw {} after seq {prev}", m.id);
                }
                last.insert(m.id.sender, m.id.seq);
            }
        }
        // And nothing is lost on a loss-free medium.
        assert_eq!(tr.iter().filter(|e| e.is_deliver()).count(), 12 * 3);
    }

    /// Captures what reaches the application; everything else is inert.
    struct Env {
        delivered: Vec<(ProcessId, Bytes)>,
        rng: ps_simnet::DetRng,
    }
    impl ps_stack::StackEnv for Env {
        fn me(&self) -> ProcessId {
            ProcessId(1)
        }
        fn group(&self) -> &[ProcessId] {
            &[ProcessId(0), ProcessId(1)]
        }
        fn now(&self) -> SimTime {
            SimTime::ZERO
        }
        fn rng(&mut self) -> &mut ps_simnet::DetRng {
            &mut self.rng
        }
        fn transmit(&mut self, _: Frame) {}
        fn deliver(&mut self, src: ProcessId, msg: ps_trace::Message) {
            self.delivered.push((src, msg.body));
        }
        fn set_timer(&mut self, _: SimTime, _: ps_stack::LayerId, _: u32) {}
    }

    /// Sender `sender`'s frame number `seq`, carrying a one-byte body.
    fn framed(sender: u16, seq: u64, tag: u8) -> Bytes {
        let msg = ps_trace::Message::with_tag(ProcessId(sender), seq, tag);
        ps_wire::push_header(&FifoHeader { sender: ProcessId(sender), seq }, msg.to_bytes())
    }

    #[test]
    fn duplicate_frames_are_suppressed() {
        // A layer-level unit test: feed the same frame up twice.
        let mut env = Env { delivered: Vec::new(), rng: ps_simnet::DetRng::new(0) };
        let mut stack = Stack::new(vec![Box::new(FifoLayer::new())]);
        stack.receive(ProcessId(0), framed(0, 0, 5), &mut env);
        stack.receive(ProcessId(0), framed(0, 0, 5), &mut env);
        assert_eq!(env.delivered.len(), 1);
    }

    #[test]
    fn in_order_fast_path_and_hold_back_path_deliver_the_same_stream() {
        let mut env = Env { delivered: Vec::new(), rng: ps_simnet::DetRng::new(0) };
        let mut stack = Stack::new(vec![Box::new(FifoLayer::new())]);
        let tags = |env: &Env| env.delivered.iter().map(|(_, b)| b[0]).collect::<Vec<u8>>();
        let mut feed = |seq: u64, env: &mut Env| {
            stack.receive(ProcessId(0), framed(0, seq, seq as u8), env);
        };
        // In order: straight through, nothing held.
        feed(0, &mut env);
        feed(1, &mut env);
        assert_eq!(tags(&env), [0, 1]);
        // A gap: 3 and 4 wait (4 twice — the copy changes nothing), and a
        // stale 1 is dropped without disturbing them.
        feed(3, &mut env);
        feed(4, &mut env);
        feed(4, &mut env);
        feed(1, &mut env);
        assert_eq!(tags(&env), [0, 1]);
        // 2 is in order but must not overtake the hold-back queue's turn:
        // it goes first, then 3 and 4 follow it out.
        feed(2, &mut env);
        assert_eq!(tags(&env), [0, 1, 2, 3, 4]);
        // The queue is empty again: back on the fast path, and a duplicate
        // of what it released is stale.
        feed(5, &mut env);
        feed(3, &mut env);
        assert_eq!(tags(&env), [0, 1, 2, 3, 4, 5]);
        // Another sender's stream is independent.
        stack.receive(ProcessId(1), framed(1, 0, 9), &mut env);
        assert_eq!(env.delivered.last().unwrap().0, ProcessId(1));
    }

    #[test]
    fn malformed_frame_is_dropped() {
        let sim = {
            let medium = p2p(100);
            run_group(2, 1, medium, 2, |_, _, _| Stack::new(vec![Box::new(FifoLayer::new())]))
        };
        // Sanity: normal traffic flows.
        assert!(sim.app_trace().deliveries_of(MsgId::new(ProcessId(0), 1)).count() > 0);
        // Malformed input directly:
        let mut layer = FifoLayer::new();
        struct NullEnv(ps_simnet::DetRng);
        impl ps_stack::StackEnv for NullEnv {
            fn me(&self) -> ProcessId {
                ProcessId(0)
            }
            fn group(&self) -> &[ProcessId] {
                &[ProcessId(0)]
            }
            fn now(&self) -> SimTime {
                SimTime::ZERO
            }
            fn rng(&mut self) -> &mut ps_simnet::DetRng {
                &mut self.0
            }
            fn transmit(&mut self, _: Frame) {}
            fn deliver(&mut self, _: ProcessId, _: ps_trace::Message) {
                panic!("malformed frame must not deliver");
            }
            fn set_timer(&mut self, _: SimTime, _: ps_stack::LayerId, _: u32) {}
        }
        let mut env = NullEnv(ps_simnet::DetRng::new(0));
        let mut ctx_holder = Stack::new(vec![]);
        let _ = &mut ctx_holder;
        // Call through a stack to exercise the real path.
        let mut stack = Stack::new(vec![Box::new(std::mem::take(&mut layer))]);
        stack.receive(ProcessId(0), Bytes::new(), &mut env);
    }

    #[test]
    fn event_counts_match_on_clean_network() {
        let sim =
            run_group(4, 2, p2p(200), 8, |_, _, _| Stack::new(vec![Box::new(FifoLayer::new())]));
        let tr = sim.app_trace();
        assert_eq!(tr.iter().filter(|e| matches!(e, Event::Send(_))).count(), 8);
        assert_eq!(tr.iter().filter(|e| e.is_deliver()).count(), 8 * 4);
    }
}
