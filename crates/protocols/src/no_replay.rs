use crate::mac::keyed_hash;
use ps_bytes::Bytes;
use ps_stack::{Layer, LayerCtx};
use ps_trace::ProcessId;
use ps_wire::Wire as _;
use std::collections::HashSet;

/// No Replay: "a message body can be delivered at most once to a process"
/// (Table 1).
///
/// Remembers a hash of every payload delivered and drops repeats. As the
/// paper notes for exactly this property, a memory*less* predicate still
/// demands a state*ful* implementation — the layer must remember bodies
/// forever (bounded here only by the run's length).
///
/// The paper's §6.2 point is that two instances of this layer, each
/// correct, do **not** compose across a protocol switch: each instance's
/// memory is private, so a body delivered once by protocol A and once by
/// protocol B reaches the application twice. The integration tests
/// demonstrate that failure.
#[derive(Debug, Default)]
pub struct NoReplayLayer {
    seen: HashSet<u64>,
    /// Replays suppressed (observable).
    pub suppressed: u64,
}

const LABEL: u8 = 0x77;

impl NoReplayLayer {
    /// Creates the layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for NoReplayLayer {
    fn name(&self) -> &'static str {
        "no-replay"
    }

    fn on_up(&mut self, src: ProcessId, bytes: Bytes, ctx: &mut LayerCtx<'_>) {
        // At a protocol-top boundary the bytes decode as a Message; the
        // property is about *bodies*, so hash only the body there. Fall
        // back to hashing the whole frame elsewhere in a stack.
        let h = match ps_trace::Message::from_frame(&bytes) {
            Ok(msg) => keyed_hash(0, LABEL, &msg.body),
            Err(_) => keyed_hash(1, LABEL, &bytes),
        };
        if self.seen.insert(h) {
            ctx.deliver_up(src, bytes);
        } else {
            self.suppressed += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{p2p, run_group};
    use ps_simnet::{Lossy, PointToPoint, SimTime};
    use ps_stack::{Driver, Stack};
    use ps_trace::props::{NoReplay, Property};

    #[test]
    fn suppresses_duplicated_frames() {
        // 50% duplication on the medium; the layer keeps delivery unique.
        let medium = Box::new(
            Lossy::new(Box::new(PointToPoint::new(SimTime::from_micros(100))), 0.0)
                .with_duplication(0.5),
        );
        let sim =
            run_group(3, 3, medium, 8, |_, _, _| Stack::new(vec![Box::new(NoReplayLayer::new())]));
        let tr = sim.app_trace();
        assert!(NoReplay.holds(&tr));
        assert_eq!(tr.iter().filter(|e| e.is_deliver()).count(), 24);
    }

    #[test]
    fn without_layer_duplication_violates_no_replay() {
        let medium = Box::new(
            Lossy::new(Box::new(PointToPoint::new(SimTime::from_micros(100))), 0.0)
                .with_duplication(0.9),
        );
        let sim = run_group(3, 3, medium, 8, |_, _, _| Stack::new(vec![]));
        assert!(!NoReplay.holds(&sim.app_trace()));
    }

    #[test]
    fn clean_traffic_passes_untouched() {
        let sim = run_group(2, 1, p2p(100), 5, |_, _, _| {
            Stack::new(vec![Box::new(NoReplayLayer::new())])
        });
        let tr = sim.app_trace();
        assert_eq!(tr.iter().filter(|e| e.is_deliver()).count(), 10);
        assert!(NoReplay.holds(&tr));
    }

    #[test]
    fn dedup_is_by_body_content() {
        let mut layer = NoReplayLayer::new();
        struct Env {
            up: usize,
            rng: ps_simnet::DetRng,
        }
        impl ps_stack::StackEnv for Env {
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
                &mut self.rng
            }
            fn transmit(&mut self, _: ps_stack::Frame) {}
            fn deliver(&mut self, _: ProcessId, _: ps_trace::Message) {
                self.up += 1;
            }
            fn set_timer(&mut self, _: SimTime, _: ps_stack::LayerId, _: u32) {}
        }
        let mut env = Env { up: 0, rng: ps_simnet::DetRng::new(0) };
        let mut stack = Stack::new(vec![Box::new(std::mem::take(&mut layer))]);
        let m1 = ps_trace::Message::with_tag(ProcessId(0), 1, 7);
        let m2 = ps_trace::Message::with_tag(ProcessId(0), 2, 7); // same body, new id
        use ps_wire::Wire;
        let m3 = ps_trace::Message::with_tag(ProcessId(0), 3, 8); // different body
        stack.receive(ProcessId(0), m1.to_bytes(), &mut env);
        stack.receive(ProcessId(0), m1.to_bytes(), &mut env); // exact replay
        stack.receive(ProcessId(0), m2.to_bytes(), &mut env); // same body, new id: still a replay
        stack.receive(ProcessId(0), m3.to_bytes(), &mut env); // fresh body passes
        assert_eq!(env.up, 2, "only the two distinct bodies reach the app");
    }
}
