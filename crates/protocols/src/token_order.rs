use crate::idle::IdleBackoff;
use crate::obuf::OrderedBuf;
use ps_bytes::Bytes;
use ps_simnet::SimTime;
use ps_stack::{Cast, Frame, Layer, LayerCtx};
use ps_trace::ProcessId;
use ps_wire::{Decoder, Encoder, Wire, WireError};
use std::collections::VecDeque;

/// Token-based total order (the paper's second §7 mechanism, after
/// Chang–Maxemchuk).
///
/// "Processes that wish to multicast have to await the token before they
/// can send. The sequence number on the token is incremented in that
/// case." No single process is a bottleneck, but "the latency is
/// relatively high under low load since processes have to await the token"
/// — on average half a ring rotation. Figure 2's flat right-hand series
/// belongs to this layer.
///
/// An idle ring goes quiet ([`IdleBackoff`]): the hold doubles while the
/// token circulates empty, and a member that gets a message to send while
/// the ring may be asleep broadcasts a one-byte wake, on which the holder
/// forwards at once. Under load the ring runs at the base hold throughout.
///
/// The token is assumed not to be lost (run over [`crate::ReliableLayer`]
/// or a loss-free control channel otherwise); process 0 injects it at
/// launch. A lost wake only delays: the token still arrives, at the
/// backed-off rate.
#[derive(Debug)]
pub struct TokenOrderLayer {
    /// Frames queued while awaiting the token.
    pending: VecDeque<Bytes>,
    buf: OrderedBuf,
    /// Holding the token (with the gseq it carries) during an idle-hold.
    holding: Option<u64>,
    hold_gen: u32,
    /// How long to keep an idle token before passing it on.
    idle: IdleBackoff,
    /// Times this process has forwarded the token (observable).
    pub token_passes: u64,
}

#[derive(Debug, PartialEq)]
enum TokHeader {
    /// The rotating token carrying the next global sequence number.
    Token { next_gseq: u64 },
    /// A globally ordered message.
    Ordered { gseq: u64, orig: ProcessId },
    /// A member has work and the ring may be asleep: whoever holds the
    /// token forwards it now.
    Wake,
}

impl Wire for TokHeader {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            TokHeader::Token { next_gseq } => {
                enc.put_u8(0);
                enc.put_varint(*next_gseq);
            }
            TokHeader::Ordered { gseq, orig } => {
                enc.put_u8(1);
                enc.put_varint(*gseq);
                orig.encode(enc);
            }
            TokHeader::Wake => enc.put_u8(2),
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        match dec.get_u8()? {
            0 => Ok(TokHeader::Token { next_gseq: dec.get_varint()? }),
            1 => Ok(TokHeader::Ordered { gseq: dec.get_varint()?, orig: ProcessId::decode(dec)? }),
            2 => Ok(TokHeader::Wake),
            tag => Err(WireError::InvalidTag { tag: tag.into(), ty: "TokHeader" }),
        }
    }
}

impl TokenOrderLayer {
    /// Creates the layer with a continuously circulating token.
    pub fn new() -> Self {
        Self::with_idle_hold(SimTime::ZERO)
    }

    /// Creates the layer; an idle token is held `idle_hold` before being
    /// forwarded (reduces idle control traffic at the cost of latency),
    /// and for up to 64 times as long once the ring has gone quiet. Zero
    /// keeps the token circulating continuously.
    pub fn with_idle_hold(idle_hold: SimTime) -> Self {
        Self {
            pending: VecDeque::new(),
            buf: OrderedBuf::default(),
            holding: None,
            hold_gen: 0,
            idle: IdleBackoff::new(idle_hold),
            token_passes: 0,
        }
    }

    /// Stamps and broadcasts everything pending, returning the advanced
    /// gseq.
    fn flush_pending(&mut self, mut gseq: u64, ctx: &mut LayerCtx<'_>) -> u64 {
        let me = ctx.me();
        while let Some(payload) = self.pending.pop_front() {
            let hdr = TokHeader::Ordered { gseq, orig: me };
            gseq += 1;
            ctx.send_down(Frame::all(ps_wire::push_header(&hdr, payload)));
        }
        gseq
    }

    fn forward_token(&mut self, gseq: u64, ctx: &mut LayerCtx<'_>) {
        self.token_passes += 1;
        let next = ctx.ring_next();
        let hdr = TokHeader::Token { next_gseq: gseq };
        ctx.send_down(Frame::to(next, ps_wire::push_header(&hdr, Bytes::new())));
    }

    fn handle_token(&mut self, gseq: u64, ctx: &mut LayerCtx<'_>) {
        let had_work = !self.pending.is_empty();
        let gseq = self.flush_pending(gseq, ctx);
        let hold = if had_work { SimTime::ZERO } else { self.idle.idle_visit() };
        if hold > SimTime::ZERO {
            self.holding = Some(gseq);
            self.hold_gen = self.hold_gen.wrapping_add(1);
            ctx.set_timer(hold, self.hold_gen);
        } else {
            self.forward_token(gseq, ctx);
        }
    }
}

impl Default for TokenOrderLayer {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for TokenOrderLayer {
    fn name(&self) -> &'static str {
        "token-order"
    }

    fn on_launch(&mut self, ctx: &mut LayerCtx<'_>) {
        // Process 0 materializes the token.
        if ctx.me() == ctx.group_slice()[0] {
            self.handle_token(0, ctx);
        }
    }

    fn on_restart(&mut self, ctx: &mut LayerCtx<'_>) {
        // If we crashed while sitting on the idle token, the hold timer
        // died with us and the ring would stall forever; re-arm it, with
        // the hold that was in force.
        if self.holding.is_some() {
            ctx.set_timer(self.idle.hold(), self.hold_gen);
        }
    }

    fn on_down(&mut self, frame: Frame, ctx: &mut LayerCtx<'_>) {
        self.pending.push_back(frame.bytes);
        if let Some(gseq) = self.holding.take() {
            // We were sitting on an idle token: use it right away.
            let gseq = self.flush_pending(gseq, ctx);
            self.forward_token(gseq, ctx);
        } else if self.pending.len() == 1 && self.idle.may_sleep(ctx.now(), ctx.group_slice().len())
        {
            // One wake per wait, from its first message: when the network
            // is what keeps the token away, more wakes are more load.
            let wake = ps_wire::push_header(&TokHeader::Wake, Bytes::new());
            ctx.send_down(Frame::new(Cast::Others, wake));
        }
        self.idle.traffic(ctx.now());
    }

    fn on_up(&mut self, _src: ProcessId, bytes: Bytes, ctx: &mut LayerCtx<'_>) {
        let Ok((hdr, payload)) = ps_wire::take_header::<TokHeader>(bytes) else {
            return;
        };
        match hdr {
            TokHeader::Token { next_gseq } => self.handle_token(next_gseq, ctx),
            TokHeader::Ordered { gseq, orig } => {
                self.idle.traffic(ctx.now());
                self.buf.offer(gseq, orig, payload, |o, p| ctx.deliver_up(o, p));
            }
            TokHeader::Wake => {
                self.idle.traffic(ctx.now());
                if let Some(gseq) = self.holding.take() {
                    self.forward_token(gseq, ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, token: u32, ctx: &mut LayerCtx<'_>) {
        if token == self.hold_gen {
            if let Some(gseq) = self.holding.take() {
                self.forward_token(gseq, ctx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{p2p, run_group};
    use ps_simnet::PointToPoint;
    use ps_stack::{Driver, Stack};
    use ps_trace::props::{Property, Reliability, TotalOrder};

    fn token_stack() -> impl Fn(ProcessId, &[ProcessId], &mut ps_stack::IdGen) -> Stack + 'static {
        |_, _, _| Stack::new(vec![Box::new(TokenOrderLayer::new())])
    }

    #[test]
    fn header_roundtrip() {
        for h in [
            TokHeader::Token { next_gseq: 42 },
            TokHeader::Ordered { gseq: 7, orig: ProcessId(2) },
            TokHeader::Wake,
        ] {
            assert_eq!(TokHeader::from_bytes(&h.to_bytes()).unwrap(), h);
        }
        assert_eq!(&TokHeader::Wake.to_bytes()[..], [2], "a wake is its tag and nothing else");
        assert!(TokHeader::from_bytes(&[3]).is_err());
    }

    #[test]
    fn provides_total_order_and_reliability() {
        let sim = run_group(4, 3, p2p(300), 12, token_stack());
        let tr = sim.app_trace();
        assert!(TotalOrder.holds(&tr));
        assert!(Reliability::new(sim.group().to_vec()).holds(&tr));
    }

    #[test]
    fn identical_delivery_sequences_everywhere() {
        let sim = run_group(5, 13, p2p(200), 15, token_stack());
        let tr = sim.app_trace();
        let base: Vec<_> = tr.delivered_by(ProcessId(0)).iter().map(|m| m.id).collect();
        assert_eq!(base.len(), 15);
        for p in 1..5 {
            let other: Vec<_> = tr.delivered_by(ProcessId(p)).iter().map(|m| m.id).collect();
            assert_eq!(base, other);
        }
    }

    #[test]
    fn total_order_survives_jitter() {
        let medium = Box::new(
            PointToPoint::new(SimTime::from_micros(300)).with_jitter(SimTime::from_millis(2)),
        );
        let sim = run_group(4, 17, medium, 16, token_stack());
        assert!(TotalOrder.holds(&sim.app_trace()));
    }

    #[test]
    fn token_keeps_circulating_when_idle() {
        let mut sim = ps_stack::GroupSimBuilder::new(3)
            .seed(2)
            .medium(p2p(300))
            .stack_factory(token_stack())
            .build();
        sim.run_until(SimTime::from_millis(100));
        // ~100ms / (3 hops × ~450us/hop) ≈ dozens of passes.
        assert!(sim.net_stats().frames_sent > 30, "{}", sim.net_stats());
    }

    #[test]
    fn idle_hold_reduces_control_traffic() {
        let run = |hold_us: u64| {
            let mut sim = ps_stack::GroupSimBuilder::new(3)
                .seed(2)
                .medium(p2p(300))
                .stack_factory(move |_, _, _| {
                    Stack::new(vec![Box::new(TokenOrderLayer::with_idle_hold(
                        SimTime::from_micros(hold_us),
                    ))])
                })
                .build();
            sim.run_until(SimTime::from_millis(100));
            sim.net_stats().frames_sent
        };
        assert!(run(2_000) < run(0) / 2);
    }

    #[test]
    fn latency_includes_token_wait() {
        // A single send must wait for the token: latency is around half a
        // rotation plus a broadcast, far above one network hop.
        let mut sim = ps_stack::GroupSimBuilder::new(8)
            .seed(4)
            .medium(p2p(300))
            .stack_factory(token_stack())
            .send_at(SimTime::from_millis(10), ProcessId(3), b"x")
            .build();
        sim.run_until(SimTime::from_secs(1));
        let lat = sim.mean_delivery_latency().unwrap();
        assert!(lat > SimTime::from_millis(1), "token wait missing: {lat}");
    }
}
