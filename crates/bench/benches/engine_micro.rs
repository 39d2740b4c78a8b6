//! Substrate micro-benchmarks: the event queue, wire codec, shared-bus
//! model, and the end-to-end simulator event loop.

use ps_bench::plain_group;
use ps_bench::timing::Bench;
use ps_bytes::Bytes;
use ps_obs::{MonitorSet, Recorder};
use ps_simnet::{
    Agent, Dest, DetRng, EthernetConfig, EventQueue, Medium as _, NodeId, Packet, PointToPoint,
    SharedBus, Sim, SimApi, SimConfig, SimTime, TimerToken,
};
use ps_wire::{Decoder, Encoder};
use std::hint::black_box;

fn event_queue(bench: &mut Bench) {
    let mut g = bench.group("event_queue");
    g.bench("push_pop_10k", || {
        let mut q = EventQueue::new();
        for i in 0..10_000u64 {
            q.push(SimTime::from_micros(i * 37 % 5000), i);
        }
        let mut acc = 0u64;
        while let Some((_, e)) = q.pop() {
            acc = acc.wrapping_add(e);
        }
        black_box(acc)
    });
}

fn codec(bench: &mut Bench) {
    let mut g = bench.group("wire_codec");
    g.batch(64);
    let payload = vec![0xA5u8; 1024];
    g.bench("encode_1k_frame", || {
        let mut enc = Encoder::with_capacity(1100);
        enc.put_varint(black_box(123456));
        enc.put_u16(7);
        enc.put_bytes(&payload);
        black_box(enc.finish())
    });
    let mut enc = Encoder::new();
    enc.put_varint(123456);
    enc.put_u16(7);
    enc.put_bytes(&payload);
    let framed = enc.finish();
    g.bench("decode_1k_frame", || {
        let mut dec = Decoder::new(black_box(&framed));
        let a = dec.get_varint().unwrap();
        let b2 = dec.get_u16().unwrap();
        let p = dec.get_bytes().unwrap();
        black_box((a, b2, p.len()))
    });
    let body = Bytes::from(payload.clone());
    g.bench("header_push_pop", || {
        let framed = ps_wire::push_header(&0xDEAD_BEEFu64, body.clone());
        let (h, rest) = ps_wire::pop_header::<u64>(&framed).unwrap();
        black_box((h, rest.len()))
    });
    // The 1-byte varint path in isolation: real headers are dominated by
    // small values (channel ids, process ids, sub-128 lengths), so this
    // is the shape the put/get_varint fast paths are judged on.
    g.bench("varint_small_encode", || {
        let mut enc = Encoder::with_capacity(64);
        for v in 0..32u64 {
            enc.put_varint(black_box(v));
        }
        black_box(enc.finish())
    });
    let mut enc = Encoder::new();
    for v in 0..32u64 {
        enc.put_varint(v);
    }
    let small = enc.finish();
    g.bench("varint_small_decode", || {
        let mut dec = Decoder::new(black_box(&small));
        let mut acc = 0u64;
        for _ in 0..32 {
            acc = acc.wrapping_add(dec.get_varint().unwrap());
        }
        black_box(acc)
    });
}

fn bus_model(bench: &mut Bench) {
    let mut g = bench.group("bus_model");
    g.batch(64);
    let mut bus = SharedBus::new(EthernetConfig::default());
    let mut rng = DetRng::new(1);
    let dests: Vec<NodeId> = (0..10).map(NodeId).collect();
    let mut t = SimTime::ZERO;
    let mut plan = ps_simnet::TxPlan::default();
    g.bench("shared_bus_transmit_plan", || {
        t += SimTime::from_micros(100);
        bus.transmit_into(NodeId(0), &dests, 1024, t, &mut rng, &mut plan);
        black_box(plan.deliveries.len())
    });
    // The broadcast fan-out shape (1000 destinations) into the scratch plan
    // the simulator hot path uses.
    let wide: Vec<NodeId> = (0..1000).map(NodeId).collect();
    g.bench("bus_transmit_1000_scratch", || {
        t += SimTime::from_micros(100);
        bus.transmit_into(NodeId(0), &wide, 256, t, &mut rng, &mut plan);
        black_box(plan.deliveries.len())
    });
}

/// First four nodes broadcast to everyone every 500 µs for 25 rounds —
/// the `broadcast_1000` shape from `engine_throughput`, reproduced here
/// for the causal-observability A/B pair.
struct Broadcaster {
    rounds_left: u32,
    payload: Bytes,
    received: u64,
}

impl Agent for Broadcaster {
    fn on_start(&mut self, api: &mut SimApi<'_>) {
        if self.rounds_left > 0 {
            api.set_timer(SimTime::from_micros(500), TimerToken(0));
        }
    }
    fn on_packet(&mut self, _: Packet, _: &mut SimApi<'_>) {
        self.received += 1;
    }
    fn on_timer(&mut self, _: TimerToken, api: &mut SimApi<'_>) {
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            api.send(Dest::Others, self.payload.clone());
            if self.rounds_left > 0 {
                api.set_timer(SimTime::from_micros(500), TimerToken(0));
            }
        }
    }
}

fn broadcast_1000(rec: Option<Recorder>) -> u64 {
    let payload = Bytes::from_static(&[0xB7; 256]);
    let agents = (0..1000u16)
        .map(|i| Broadcaster {
            rounds_left: if i < 4 { 25 } else { 0 },
            payload: payload.clone(),
            received: 0,
        })
        .collect();
    let mut cfg = SimConfig::default().seed(7).service_time(SimTime::from_micros(5));
    if let Some(rec) = rec {
        cfg = cfg.recorder(rec);
    }
    let mut sim = Sim::new(cfg, Box::new(PointToPoint::new(SimTime::from_micros(120))), agents);
    sim.run_to_quiescence();
    sim.stats().events_processed
}

fn causal_obs(bench: &mut Bench) {
    // A/B pair at the broadcast_1000 shape: the full observability stack
    // live — recorder enabled (every event carrying its causal parent
    // link) with the standard monitor set streaming each one — against
    // the fully detached baseline. This prices *enabled* causal tracing;
    // the <3% budget on the *disabled* configuration is asserted by
    // `engine_throughput`.
    let mut g = bench.group("causal_obs");
    g.iters(10);
    g.bench("broadcast_1000_detached", || black_box(broadcast_1000(None)));
    g.bench("broadcast_1000_attached", || {
        let rec = Recorder::with_capacity(1 << 18);
        let monitors = MonitorSet::standard(1000, 1_000_000);
        monitors.attach(&rec);
        black_box(broadcast_1000(Some(rec)))
    });
}

fn sim_loop(bench: &mut Bench) {
    let mut g = bench.group("sim_event_loop");
    g.iters(10);
    g.bench("fifo_group_200_messages", || {
        let mut sim = plain_group(5, 200, || Box::new(ps_protocols::FifoLayer::new()));
        sim.run_until(SimTime::from_secs(2));
        black_box(sim.net_stats().events_processed)
    });
    g.bench("token_order_group_100_messages", || {
        let mut sim = plain_group(5, 100, || Box::new(ps_protocols::TokenOrderLayer::new()));
        sim.run_until(SimTime::from_secs(1));
        black_box(sim.net_stats().events_processed)
    });
}

fn main() {
    let mut bench = Bench::from_args();
    event_queue(&mut bench);
    codec(&mut bench);
    bus_model(&mut bench);
    causal_obs(&mut bench);
    sim_loop(&mut bench);
    bench.finish();
}
