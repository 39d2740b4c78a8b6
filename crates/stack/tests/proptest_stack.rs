//! Property-based tests of the layer-composition framework: arbitrary
//! stacks of header-pushing layers are transparent end to end.

use ps_bytes::Bytes;
use ps_check::prelude::*;
use ps_simnet::{PointToPoint, SimTime};
use ps_stack::{Driver, Frame, GroupSimBuilder, Layer, LayerCtx, Stack};
use ps_trace::props::{Property, Reliability};
use ps_trace::ProcessId;

/// A layer that pushes an arbitrary tag value on the way down and verifies
/// and pops it on the way up.
struct Tagger {
    tag: u64,
}

impl Layer for Tagger {
    fn name(&self) -> &'static str {
        "tagger"
    }
    fn on_down(&mut self, frame: Frame, ctx: &mut LayerCtx<'_>) {
        ctx.send_down(Frame::new(frame.dest, ps_wire::push_header(&self.tag, frame.bytes)));
    }
    fn on_up(&mut self, src: ProcessId, bytes: Bytes, ctx: &mut LayerCtx<'_>) {
        let Ok((tag, rest)) = ps_wire::pop_header::<u64>(&bytes) else { return };
        if tag == self.tag {
            ctx.deliver_up(src, rest);
        }
        // Wrong tag: drop (misrouted frame).
    }
}

props! {
    #![config(cases = 32)]

    /// Whatever the depth and tags of the stack, every message makes it
    /// through intact to every member.
    fn arbitrary_tagger_stacks_are_transparent(
        tags in vec_of(arb::<u64>(), 0..8),
        n in 2u16..5,
        msgs in 1usize..8,
        seed in arb::<u64>(),
    ) {
        let tags2 = tags.clone();
        let mut b = GroupSimBuilder::new(n)
            .seed(seed)
            .medium(Box::new(PointToPoint::new(SimTime::from_micros(200))))
            .stack_factory(move |_, _, ids| {
                let layers: Vec<Box<dyn Layer>> =
                    tags2.iter().map(|&t| Box::new(Tagger { tag: t }) as Box<dyn Layer>).collect();
                Stack::with_ids(layers, ids)
            });
        for i in 0..msgs {
            b = b.send_at(
                SimTime::from_millis(1 + i as u64),
                ProcessId((i % n as usize) as u16),
                format!("pt-{i}"),
            );
        }
        let mut sim = b.build();
        sim.run_until(SimTime::from_secs(1));
        let tr = sim.app_trace();
        let group: Vec<ProcessId> = (0..n).map(ProcessId).collect();
        assert!(Reliability::new(group).holds(&tr));
        assert_eq!(tr.iter().filter(|e| e.is_deliver()).count(), msgs * usize::from(n));
        // Bodies survive the full stack round trip.
        for e in tr.iter().filter(|e| e.is_deliver()) {
            let body = &e.message().body;
            assert!(body.starts_with(b"pt-"));
        }
    }

    /// Layer ids from a shared generator never collide across nested
    /// stacks, so timers route unambiguously.
    fn id_generator_yields_unique_ids(count in 1usize..200) {
        let mut ids = ps_stack::IdGen::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..count {
            assert!(seen.insert(ids.next_id()));
        }
    }
}
