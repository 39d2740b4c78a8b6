//! Wire identity pin: the bytes the stacks put on the wire, frozen.
//!
//! The determinism pins elsewhere freeze application traces and recorded
//! events; none freezes the frames themselves. This one does: a digest
//! layer under the hybrid stack folds every transmitted frame — sender,
//! destination, length and bytes, in transmit order — into one FNV-1a
//! value, for a short seeded run with one scripted switch. Any change to
//! how a header is encoded, in which order frames leave, or to a single
//! payload byte moves them.
//!
//! The golden values were first computed on the commit *before* frames
//! became zero-copy and held through every host-side change since. They
//! were regenerated once, on purpose, when the idle rings learned to back
//! off: the frames that went are idle tokens (1101 → 294 and 2434 → 843
//! frames in these runs), and a member that finds its ring asleep now
//! sends a one-byte wake first. That is a protocol change, which is what
//! this pin is there to make deliberate. The fault-tolerant pin moved once
//! more, on purpose, when its reliable transport moved below the switch:
//! one reliable layer now carries both protocols and the control channel,
//! so a data frame is the channel tag inside the reliable header instead
//! of the other way round, every data frame carries its sender's stability
//! watermark, and one sweep timer takes the place of three; the run puts
//! 838 frames on the wire where it put 843. `hybrid_total_order` runs no
//! reliable layer and its pin did not move.

use protocol_switching::prelude::*;
use protocol_switching::switch::hybrid_seq_token_ft;
use std::sync::{Arc, Mutex};

/// FNV-1a over everything transmitted, plus the frame count.
#[derive(Clone, Default)]
struct Digest(Arc<Mutex<(u64, u64)>>);

impl Digest {
    fn new() -> Self {
        Digest(Arc::new(Mutex::new((0xcbf2_9ce4_8422_2325, 0))))
    }
    fn fold(&self, bytes: &[u8]) {
        let mut d = self.0.lock().unwrap();
        for &b in bytes {
            d.0 = (d.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn read(&self) -> (u64, u64) {
        *self.0.lock().unwrap()
    }
}

struct DigestLayer(Digest);

impl Layer for DigestLayer {
    fn name(&self) -> &'static str {
        "wire-digest"
    }
    fn on_down(&mut self, frame: Frame, ctx: &mut LayerCtx<'_>) {
        let dest = match frame.dest {
            Cast::All => [0, 0, 0],
            Cast::Others => [1, 0, 0],
            Cast::To(p) => [2, p.0 as u8, (p.0 >> 8) as u8],
        };
        self.0.fold(&ctx.me().0.to_le_bytes());
        self.0.fold(&dest);
        self.0.fold(&(frame.bytes.len() as u64).to_le_bytes());
        for part in frame.bytes.parts() {
            self.0.fold(part);
        }
        self.0 .0.lock().unwrap().1 += 1;
        ctx.send_down(frame);
    }
}

type Hybrid = fn(&mut IdGen, SwitchConfig, Box<dyn Oracle>) -> (Stack, SwitchHandle);

/// Five members on a shared bus, 48 messages of 1–600 bytes from three
/// senders, member 0 scripting one seq→token switch mid-traffic.
fn run(hybrid: Hybrid) -> (u64, u64) {
    let digest = Digest::new();
    let handles: Arc<Mutex<Vec<SwitchHandle>>> = Arc::default();
    let (d, h) = (digest.clone(), handles.clone());
    let mut b = GroupSimBuilder::new(5)
        .seed(0x5EED)
        .medium(Box::new(SharedBus::new(EthernetConfig::default())))
        .stack_factory(move |p, _, ids| {
            let oracle: Box<dyn Oracle> = if p == ProcessId(0) {
                Box::new(ManualOracle::new(vec![(SimTime::from_millis(120), 1)]))
            } else {
                Box::new(NeverOracle)
            };
            let cfg = SwitchConfig {
                observe_interval: SimTime::from_millis(10),
                ..SwitchConfig::default()
            };
            let (mut stack, handle) = hybrid(ids, cfg, oracle);
            stack.push_bottom(Box::new(DigestLayer(d.clone())), ids);
            h.lock().unwrap().push(handle);
            stack
        });
    for i in 0..48u64 {
        let body: Vec<u8> = (0..1 + (i * 37) % 600).map(|k| (k ^ i) as u8).collect();
        b = b.send_at(SimTime::from_millis(5 + 5 * i), ProcessId(2 + (i % 3) as u16), body);
    }
    let mut sim = b.build();
    sim.run_until(SimTime::from_millis(900));

    let trace = sim.app_trace();
    let group: Vec<ProcessId> = (0..5).map(ProcessId).collect();
    assert!(Reliability::new(group).holds(&trace), "the pinned run must be a healthy one");
    for handle in handles.lock().unwrap().iter() {
        let s = handle.snapshot();
        assert_eq!((s.records.len(), s.aborted, s.current), (1, 0, 1), "one completed switch");
    }
    digest.read()
}

#[test]
fn hybrid_total_order_wire_bytes_are_pinned() {
    let (fnv, frames) = run(|ids, cfg, oracle| hybrid_total_order(ids, cfg, ProcessId(0), oracle));
    assert_eq!((fnv, frames), (0x63cd_1a61_185e_9efd, 294), "got ({fnv:#018x}, {frames})");
}

#[test]
fn hybrid_seq_token_ft_wire_bytes_are_pinned() {
    let (fnv, frames) = run(|ids, cfg, oracle| {
        hybrid_seq_token_ft(ids, cfg, ProcessId(0), SimTime::from_millis(1), oracle)
    });
    assert_eq!((fnv, frames), (0x562f_abb6_3d0f_722c, 838), "got ({fnv:#018x}, {frames})");
}
