//! Boundary taps: record the Send/Deliver trace at *any* point in a stack.
//!
//! The paper's meta-property story is about the relation between the trace
//! seen **above** a layer (e.g. above the switching protocol) and the trace
//! at the boundary **below** it (the underlying protocol's interface). A
//! [`TapLayer`] inserted at a boundary whose currency is an encoded
//! [`Message`] (the top of any protocol stack, including the switching
//! protocol's sub-stacks) records exactly that boundary's trace, so tests
//! can check a property below the switch and watch it hold or break above.

use crate::layer::{Frame, Layer, LayerCtx};
use ps_bytes::Bytes;
use ps_simnet::SimTime;
use ps_trace::{Event, Message, ProcessId, Trace};
use ps_wire::Wire;
use std::sync::{Arc, Mutex};

/// Shared handle to a tap's recorded events (thread-safe so taps work in
/// both the simulator and the real-time runtime).
#[derive(Debug, Clone, Default)]
pub struct TapLog {
    events: Arc<Mutex<Vec<(SimTime, u16, Event)>>>,
}

impl TapLog {
    /// Creates an empty log, shareable across the taps of all processes.
    pub fn new() -> Self {
        Self::default()
    }

    /// The merged trace across all tapped processes, in time order.
    pub fn trace(&self) -> Trace {
        let mut evs = self.events.lock().expect("tap log poisoned").clone();
        evs.sort_by_key(|&(at, node, _)| (at, node));
        evs.into_iter().map(|(_, _, e)| e).collect()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("tap log poisoned").len()
    }

    /// Returns `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn record(&self, at: SimTime, node: ProcessId, ev: Event) {
        self.events.lock().expect("tap log poisoned").push((at, node.0, ev));
    }
}

/// A transparent layer that records the boundary trace flowing through it.
///
/// Downward frames are recorded as `Send` events, upward bytes as `Deliver`
/// events — both only when the bytes decode as a [`Message`] (i.e. the tap
/// sits at a protocol-top boundary); anything else passes through
/// unrecorded.
#[derive(Debug)]
pub struct TapLayer {
    log: TapLog,
}

impl TapLayer {
    /// Creates a tap writing into `log`.
    pub fn new(log: TapLog) -> Self {
        Self { log }
    }
}

impl Layer for TapLayer {
    fn name(&self) -> &'static str {
        "tap"
    }

    fn on_down(&mut self, frame: Frame, ctx: &mut LayerCtx<'_>) {
        if let Ok(msg) = Message::from_frame(&frame.bytes) {
            self.log.record(ctx.now(), ctx.me(), Event::send(msg));
        }
        ctx.send_down(frame);
    }

    fn on_up(&mut self, src: ProcessId, bytes: Bytes, ctx: &mut LayerCtx<'_>) {
        if let Ok(msg) = Message::from_frame(&bytes) {
            self.log.record(ctx.now(), ctx.me(), Event::deliver(ctx.me(), msg));
        }
        ctx.deliver_up(src, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Driver, GroupSimBuilder, Stack};
    use ps_simnet::PointToPoint;

    #[test]
    fn tap_records_both_directions() {
        let log = TapLog::new();
        let log2 = log.clone();
        let mut sim = GroupSimBuilder::new(2)
            .seed(3)
            .medium(Box::new(PointToPoint::new(SimTime::from_micros(100))))
            .stack_factory(move |_, _, _| Stack::new(vec![Box::new(TapLayer::new(log2.clone()))]))
            .send_at(SimTime::from_millis(1), ProcessId(0), b"x")
            .build();
        sim.run_until(SimTime::from_millis(10));
        let tr = log.trace();
        // One send tapped at the sender + two deliveries (one per node).
        assert_eq!(tr.iter().filter(|e| e.is_send()).count(), 1);
        assert_eq!(tr.iter().filter(|e| e.is_deliver()).count(), 2);
        // The tap boundary trace equals the app trace for a tap at the top.
        assert_eq!(tr.to_string(), sim.app_trace().to_string());
    }

    #[test]
    fn empty_log_reports_empty() {
        let log = TapLog::new();
        assert!(log.is_empty());
        assert_eq!(log.len(), 0);
        assert!(log.trace().is_empty());
    }
}
