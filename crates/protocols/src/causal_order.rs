use ps_bytes::Bytes;
use ps_stack::{Frame, Layer, LayerCtx};
use ps_trace::ProcessId;
use ps_wire::{Decoder, Encoder, Wire, WireError};

/// Causal-order multicast via vector clocks (Birman–Schiper–Stephenson).
///
/// Each message carries the sender's vector clock; a receiver delays a
/// message until it has delivered everything the sender had seen when it
/// sent. Implements the [`ps_trace::props::CausalOrder`] property — an
/// extension beyond the paper's Table 1 that, like Reliability, is
/// preserved by the switching protocol *despite* failing one of the six
/// meta-properties (Delayable); see `crates/trace/tests/causal_row.rs`.
///
/// Assumes loss-free transport (compose over [`crate::ReliableLayer`]
/// otherwise) and a static group.
#[derive(Debug, Default)]
pub struct CausalOrderLayer {
    /// `vc[k]` = number of messages from process `k` this process has
    /// *delivered*.
    vc: Vec<u64>,
    /// Number of messages this process has *sent* (its own sends are in
    /// its causal past immediately, before the loopback copy arrives).
    sent: u64,
    /// Messages waiting for their causal predecessors.
    held: Vec<(CausalHeader, Bytes)>,
}

#[derive(Debug, Clone, PartialEq)]
struct CausalHeader {
    sender: ProcessId,
    /// The sender's vector clock *after* counting this message.
    vc: Vec<u64>,
}

impl Wire for CausalHeader {
    fn encode(&self, enc: &mut Encoder) {
        self.sender.encode(enc);
        enc.put_varint(self.vc.len() as u64);
        for &v in &self.vc {
            enc.put_varint(v);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let sender = ProcessId::decode(dec)?;
        let n = dec.get_varint()?;
        if n > 4096 {
            return Err(WireError::LengthOverflow { declared: n, available: dec.remaining() });
        }
        let mut vc = Vec::with_capacity(n as usize);
        for _ in 0..n {
            vc.push(dec.get_varint()?);
        }
        Ok(CausalHeader { sender, vc })
    }
}

impl CausalOrderLayer {
    /// Creates the layer.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure_size(&mut self, n: usize) {
        if self.vc.len() < n {
            self.vc.resize(n, 0);
        }
    }

    /// BSS delivery condition: `h.vc[s] == vc[s] + 1` and
    /// `h.vc[k] <= vc[k]` for all `k != s`.
    fn deliverable(&self, h: &CausalHeader) -> bool {
        let s = h.sender.index();
        h.vc.iter().enumerate().all(|(k, &v)| {
            if k == s {
                v == self.vc.get(k).copied().unwrap_or(0) + 1
            } else {
                v <= self.vc.get(k).copied().unwrap_or(0)
            }
        })
    }

    fn drain(&mut self, ctx: &mut LayerCtx<'_>) {
        loop {
            let Some(idx) = self.held.iter().position(|(h, _)| self.deliverable(h)) else {
                return;
            };
            let (h, payload) = self.held.remove(idx);
            self.vc[h.sender.index()] += 1;
            ctx.deliver_up(h.sender, payload);
        }
    }
}

impl Layer for CausalOrderLayer {
    fn name(&self) -> &'static str {
        "causal-order"
    }

    fn on_down(&mut self, frame: Frame, ctx: &mut LayerCtx<'_>) {
        let n = ctx.group_slice().len();
        self.ensure_size(n);
        let me = ctx.me();
        // The clock carries: everything we have delivered from others,
        // plus *all* our own sends so far (our own earlier messages are in
        // our causal past even before their loopback copies come back).
        self.sent += 1;
        let mut vc = self.vc.clone();
        vc[me.index()] = self.sent;
        let hdr = CausalHeader { sender: me, vc };
        ctx.send_down(Frame::all(ps_wire::push_header(&hdr, frame.bytes)));
    }

    fn on_up(&mut self, _src: ProcessId, bytes: Bytes, ctx: &mut LayerCtx<'_>) {
        let Ok((hdr, payload)) = ps_wire::take_header::<CausalHeader>(bytes) else {
            return;
        };
        if hdr.sender.index() >= hdr.vc.len() {
            return; // a sender outside its own clock: no process builds that
        }
        self.ensure_size(hdr.vc.len().max(ctx.group_slice().len()));
        self.held.push((hdr, payload));
        self.drain(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{p2p, run_group};
    use ps_simnet::{PointToPoint, SimTime};
    use ps_stack::{Driver, Stack};
    use ps_trace::props::{CausalOrder, Property, Reliability};

    fn causal_stack() -> impl Fn(ProcessId, &[ProcessId], &mut ps_stack::IdGen) -> Stack + 'static {
        |_, _, _| Stack::new(vec![Box::new(CausalOrderLayer::new())])
    }

    #[test]
    fn header_roundtrip() {
        let h = CausalHeader { sender: ProcessId(2), vc: vec![3, 0, 7] };
        assert_eq!(CausalHeader::from_bytes(&h.to_bytes()).unwrap(), h);
    }

    #[test]
    fn provides_causal_order_and_reliability() {
        let sim = run_group(4, 21, p2p(300), 16, causal_stack());
        let tr = sim.app_trace();
        assert!(CausalOrder.holds(&tr), "{tr}");
        assert!(Reliability::new(sim.group().to_vec()).holds(&tr));
    }

    #[test]
    fn causal_order_survives_heavy_jitter() {
        let medium = Box::new(
            PointToPoint::new(SimTime::from_micros(300)).with_jitter(SimTime::from_millis(6)),
        );
        let sim = run_group(4, 22, medium, 20, causal_stack());
        let tr = sim.app_trace();
        assert!(CausalOrder.holds(&tr), "{tr}");
        assert_eq!(tr.iter().filter(|e| e.is_deliver()).count(), 20 * 4);
    }

    #[test]
    fn bare_stack_violates_causality_under_jitter() {
        // The trace-level causal property needs actual reply chains to be
        // violated; with round-robin app sends and jitter the per-sender
        // FIFO edges are enough (same-sender messages are causally
        // ordered).
        let medium = Box::new(
            PointToPoint::new(SimTime::from_micros(300)).with_jitter(SimTime::from_millis(6)),
        );
        let sim = run_group(2, 23, medium, 20, |_, _, _| Stack::new(vec![]));
        assert!(!CausalOrder.holds(&sim.app_trace()));
    }

    #[test]
    fn self_messages_deliver_immediately_in_order() {
        let mut b = ps_stack::GroupSimBuilder::new(2)
            .seed(3)
            .medium(p2p(400))
            .stack_factory(causal_stack());
        for i in 0..5u64 {
            b = b.send_at(SimTime::from_micros(10 + i), ProcessId(0), format!("s{i}"));
        }
        let mut sim = b.build();
        sim.run_until(SimTime::from_secs(1));
        let tr = sim.app_trace();
        let own: Vec<u64> = tr.delivered_by(ProcessId(0)).iter().map(|m| m.id.seq).collect();
        assert_eq!(own, vec![1, 2, 3, 4, 5]);
        assert!(CausalOrder.holds(&tr));
    }
}
