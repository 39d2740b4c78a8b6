//! Flow-control layers: rate-based and credit-based.
//!
//! The paper's §1 motivates switching with exactly this pair: "H-RMC has
//! investigated a hybrid between rate and credit-based flow control
//! protocols" — built there as a bespoke hybrid, here as two plain layers
//! the generic switching protocol can swap at run time.
//!
//! * [`RateControlLayer`] — open-loop token bucket: messages leave at a
//!   fixed rate, no feedback traffic, but the rate must be provisioned.
//! * [`CreditControlLayer`] — closed-loop window: at most `window`
//!   multicasts outstanding (unacknowledged by some member); adapts to
//!   receiver speed at the cost of ack traffic.

use ps_bytes::Bytes;
use ps_simnet::SimTime;
use ps_stack::{Frame, Layer, LayerCtx};
use ps_trace::ProcessId;
use ps_wire::{Decoder, Encoder, Wire, WireError};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Open-loop rate limiting: queued frames are released at a fixed rate.
#[derive(Debug)]
pub struct RateControlLayer {
    interval: SimTime,
    queue: VecDeque<Frame>,
    draining: bool,
    /// High-water mark of the send queue (observable back-pressure).
    pub max_queue: usize,
}

const DRAIN: u32 = 1;

impl RateControlLayer {
    /// Creates the layer releasing at most `rate_per_sec` messages per
    /// second.
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_sec` is not positive.
    pub fn new(rate_per_sec: f64) -> Self {
        assert!(rate_per_sec > 0.0, "rate must be positive");
        Self {
            interval: SimTime::from_secs_f64(1.0 / rate_per_sec),
            queue: VecDeque::new(),
            draining: false,
            max_queue: 0,
        }
    }
}

impl Layer for RateControlLayer {
    fn name(&self) -> &'static str {
        "rate-control"
    }

    fn on_restart(&mut self, ctx: &mut LayerCtx<'_>) {
        // The pacing timer died with the crash; restart the drain if
        // frames are still queued behind it.
        if self.draining {
            ctx.set_timer(self.interval, DRAIN);
        }
    }

    fn on_down(&mut self, frame: Frame, ctx: &mut LayerCtx<'_>) {
        if self.draining {
            self.queue.push_back(frame);
            self.max_queue = self.max_queue.max(self.queue.len());
        } else {
            // Bucket idle: send immediately and start pacing.
            ctx.send_down(frame);
            self.draining = true;
            ctx.set_timer(self.interval, DRAIN);
        }
    }

    fn on_timer(&mut self, token: u32, ctx: &mut LayerCtx<'_>) {
        debug_assert_eq!(token, DRAIN);
        match self.queue.pop_front() {
            Some(frame) => {
                ctx.send_down(frame);
                ctx.set_timer(self.interval, DRAIN);
            }
            None => self.draining = false,
        }
    }
}

/// Closed-loop credit window: at most `window` multicasts outstanding.
#[derive(Debug)]
pub struct CreditControlLayer {
    window: usize,
    next_seq: u64,
    /// Outstanding sends: seq → members yet to acknowledge.
    outstanding: BTreeMap<u64, BTreeSet<ProcessId>>,
    queue: VecDeque<Frame>,
    /// High-water mark of the send queue (observable back-pressure).
    pub max_queue: usize,
}

#[derive(Debug, PartialEq)]
enum CreditHeader {
    Data { sender: ProcessId, seq: u64 },
    Credit { seq: u64 },
}

impl Wire for CreditHeader {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            CreditHeader::Data { sender, seq } => {
                enc.put_u8(0);
                sender.encode(enc);
                enc.put_varint(*seq);
            }
            CreditHeader::Credit { seq } => {
                enc.put_u8(1);
                enc.put_varint(*seq);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        match dec.get_u8()? {
            0 => Ok(CreditHeader::Data { sender: ProcessId::decode(dec)?, seq: dec.get_varint()? }),
            1 => Ok(CreditHeader::Credit { seq: dec.get_varint()? }),
            tag => Err(WireError::InvalidTag { tag: tag.into(), ty: "CreditHeader" }),
        }
    }
}

impl CreditControlLayer {
    /// Creates the layer with the given window of outstanding multicasts.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "a zero window would never send");
        Self {
            window,
            next_seq: 0,
            outstanding: BTreeMap::new(),
            queue: VecDeque::new(),
            max_queue: 0,
        }
    }

    fn release(&mut self, frame: Frame, ctx: &mut LayerCtx<'_>) {
        let me = ctx.me();
        let seq = self.next_seq;
        self.next_seq += 1;
        // Await a credit from everyone but ourselves.
        let waiting: BTreeSet<ProcessId> =
            ctx.group_slice().iter().copied().filter(|&p| p != me).collect();
        self.outstanding.insert(seq, waiting);
        let hdr = CreditHeader::Data { sender: me, seq };
        ctx.send_down(Frame::all(ps_wire::push_header(&hdr, frame.bytes)));
    }

    fn pump(&mut self, ctx: &mut LayerCtx<'_>) {
        while self.outstanding.len() < self.window {
            let Some(frame) = self.queue.pop_front() else { return };
            self.release(frame, ctx);
        }
    }
}

impl Layer for CreditControlLayer {
    fn name(&self) -> &'static str {
        "credit-control"
    }

    fn on_down(&mut self, frame: Frame, ctx: &mut LayerCtx<'_>) {
        self.queue.push_back(frame);
        self.max_queue = self.max_queue.max(self.queue.len());
        self.pump(ctx);
    }

    fn on_up(&mut self, src: ProcessId, bytes: Bytes, ctx: &mut LayerCtx<'_>) {
        let Ok((hdr, payload)) = ps_wire::take_header::<CreditHeader>(bytes) else {
            return;
        };
        match hdr {
            CreditHeader::Data { sender, seq } => {
                if sender != ctx.me() {
                    // Grant a credit back to the sender.
                    let credit = CreditHeader::Credit { seq };
                    ctx.send_down(Frame::to(sender, ps_wire::push_header(&credit, Bytes::new())));
                }
                ctx.deliver_up(sender, payload);
            }
            CreditHeader::Credit { seq } => {
                let done = if let Some(waiting) = self.outstanding.get_mut(&seq) {
                    waiting.remove(&src);
                    waiting.is_empty()
                } else {
                    false
                };
                if done {
                    self.outstanding.remove(&seq);
                    self.pump(ctx);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{p2p, run_group};
    use ps_stack::{Driver, GroupSimBuilder, Stack};
    use ps_trace::props::{NoReplay, Property, Reliability};

    #[test]
    fn credit_header_roundtrip() {
        for h in
            [CreditHeader::Data { sender: ProcessId(1), seq: 9 }, CreditHeader::Credit { seq: 9 }]
        {
            assert_eq!(CreditHeader::from_bytes(&h.to_bytes()).unwrap(), h);
        }
    }

    #[test]
    fn rate_layer_paces_a_burst() {
        // 10 messages burst at t=0 through a 100 msg/s limiter: the last
        // leaves ~90 ms after the first.
        let mut b = GroupSimBuilder::new(2).seed(1).medium(p2p(100)).stack_factory(|_, _, ids| {
            Stack::with_ids(vec![Box::new(RateControlLayer::new(100.0))], ids)
        });
        for i in 0..10u64 {
            b = b.send_at(SimTime::from_micros(10 + i), ProcessId(0), format!("r{i}"));
        }
        let mut sim = b.build();
        sim.run_until(SimTime::from_secs(2));
        let deliveries = sim.deliveries();
        let at_p1: Vec<SimTime> =
            deliveries.iter().filter(|d| d.process == ProcessId(1)).map(|d| d.at).collect();
        assert_eq!(at_p1.len(), 10);
        let span = *at_p1.iter().max().unwrap() - *at_p1.iter().min().unwrap();
        assert!(span >= SimTime::from_millis(85), "span {span}");
        assert!(span <= SimTime::from_millis(120), "span {span}");
    }

    #[test]
    fn rate_layer_idle_sends_immediately() {
        let mut sim = GroupSimBuilder::new(2)
            .seed(2)
            .medium(p2p(100))
            .stack_factory(|_, _, ids| {
                Stack::with_ids(vec![Box::new(RateControlLayer::new(10.0))], ids)
            })
            .send_at(SimTime::from_millis(1), ProcessId(0), b"solo")
            .build();
        sim.run_until(SimTime::from_secs(1));
        let lat = sim.mean_delivery_latency().unwrap();
        assert!(lat < SimTime::from_millis(2), "no pacing delay when idle: {lat}");
    }

    #[test]
    fn credit_layer_delivers_everything_with_bounded_outstanding() {
        let sim = run_group(3, 3, p2p(200), 15, |_, _, _| {
            Stack::new(vec![Box::new(CreditControlLayer::new(2))])
        });
        let tr = sim.app_trace();
        assert!(Reliability::new(sim.group().to_vec()).holds(&tr));
        assert!(NoReplay.holds(&tr));
    }

    #[test]
    fn credit_window_throttles_a_burst() {
        // Window 1 serializes: each message waits for the previous one's
        // credits (one round trip), so 6 messages take >= 5 RTTs.
        let mut b = GroupSimBuilder::new(2).seed(4).medium(p2p(1000)).stack_factory(|_, _, ids| {
            Stack::with_ids(vec![Box::new(CreditControlLayer::new(1))], ids)
        });
        for i in 0..6u64 {
            b = b.send_at(SimTime::from_micros(10 + i), ProcessId(0), format!("c{i}"));
        }
        let mut sim = b.build();
        sim.run_until(SimTime::from_secs(2));
        let at_p1: Vec<SimTime> = sim
            .deliveries()
            .into_iter()
            .filter(|d| d.process == ProcessId(1))
            .map(|d| d.at)
            .collect();
        assert_eq!(at_p1.len(), 6);
        let span = *at_p1.iter().max().unwrap() - *at_p1.iter().min().unwrap();
        // 5 further messages × ~2 ms round trip each.
        assert!(span >= SimTime::from_millis(9), "span {span}");
    }

    #[test]
    fn larger_window_is_faster() {
        let run = |window: usize| {
            let mut b = GroupSimBuilder::new(2).seed(5).medium(p2p(1000)).stack_factory(
                move |_, _, ids| {
                    Stack::with_ids(vec![Box::new(CreditControlLayer::new(window))], ids)
                },
            );
            for i in 0..8u64 {
                b = b.send_at(SimTime::from_micros(10 + i), ProcessId(0), format!("w{i}"));
            }
            let mut sim = b.build();
            sim.run_until(SimTime::from_secs(2));
            sim.deliveries().into_iter().map(|d| d.at).max().unwrap()
        };
        assert!(run(4) < run(1));
    }
}
