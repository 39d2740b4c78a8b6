use crate::layer::{Frame, Layer, LayerCtx, LayerId, LayerOut};
use ps_bytes::Bytes;
use ps_obs::{CauseId, LayerDir, ObsEvent, Recorder};
use ps_simnet::{DetRng, SimTime};
use ps_trace::{Message, ProcessId};
use ps_wire::Wire;
use std::collections::VecDeque;
use std::fmt;

/// The stack's window onto the outside world: identity, time, randomness,
/// the network below, the application above, and timers.
///
/// Implemented by the runtime ([`crate::GroupSim`]) and, recursively, by
/// composite layers that host nested stacks (the switching protocol wraps
/// the outer environment so a nested stack's transmissions come out
/// channel-tagged).
pub trait StackEnv {
    /// This process's identity.
    fn me(&self) -> ProcessId;
    /// Current group membership, borrowed (called on every frame — no
    /// implementation should clone).
    fn group(&self) -> &[ProcessId];
    /// Current virtual time.
    fn now(&self) -> SimTime;
    /// Deterministic random stream for this process.
    fn rng(&mut self) -> &mut DetRng;
    /// A frame leaving the bottom of the stack, bound for the network.
    fn transmit(&mut self, frame: Frame);
    /// A message leaving the top of the stack, bound for the application.
    fn deliver(&mut self, src: ProcessId, msg: Message);
    /// [`StackEnv::deliver`] together with the encoded bytes `msg` was
    /// decoded from (its body is a slice of them). This is what the stack
    /// calls; the default drops the bytes. An environment that passes the
    /// message on in encoded form — a composite layer hosting this stack —
    /// overrides it and forwards `bytes` instead of re-encoding `msg`.
    fn deliver_encoded(&mut self, src: ProcessId, msg: Message, bytes: Bytes) {
        let _ = bytes;
        self.deliver(src, msg);
    }
    /// Arm a one-shot timer for layer `id`.
    fn set_timer(&mut self, delay: SimTime, id: LayerId, token: u32);
    /// The live event recorder, or `None` when observability is off.
    ///
    /// The default keeps every existing environment (tests, `ps-rt`)
    /// observability-free; the simulator runtime forwards the recorder the
    /// sim was configured with, pre-folded with its enabled flag.
    fn obs(&self) -> Option<&Recorder> {
        None
    }
    /// Causal id of the event this environment is currently processing
    /// (the context new records should be parented to). Defaults to
    /// [`CauseId::NONE`] for environments without causal tracing.
    fn cause(&self) -> CauseId {
        CauseId::NONE
    }
    /// Replaces the causal context, returning the previous one. The
    /// default is a no-op so observability-free environments (tests,
    /// `ps-rt`) pay nothing.
    fn set_cause(&mut self, cause: CauseId) -> CauseId {
        let _ = cause;
        CauseId::NONE
    }
    /// The live host-time profiler, or `None` when profiling is off.
    ///
    /// When present, the stack opens a `stack/<layer>` span around every
    /// handler call so per-layer host cost is attributed. The default
    /// keeps every existing environment profiler-free.
    fn prof(&self) -> Option<&ps_prof::Profiler> {
        None
    }
}

/// Opens a `stack/<layer>` profiler span around a handler call. The
/// guard owns its handle (it must not borrow `env`, which the handler
/// needs mutably); profiling off means a free no-op guard.
fn prof_span(env: &dyn StackEnv, name: &'static str) -> Option<ps_prof::OwnedSpan> {
    env.prof().map(|p| p.owned_span(&["stack", name]))
}

/// Opens a layer span: records `LayerBegin` caused by the current env
/// context and makes the span the causal context for everything the
/// handler does. Returns the begin event's id for [`span_close`].
fn span_open(env: &mut dyn StackEnv, layer: &'static str, dir: LayerDir) -> CauseId {
    let begin = match env.obs() {
        Some(o) => o.record_caused(
            env.now().as_micros(),
            u32::from(env.me().0),
            env.cause(),
            ObsEvent::LayerBegin { layer, dir },
        ),
        None => return CauseId::NONE,
    };
    env.set_cause(begin);
    begin
}

/// Closes a layer span: records `LayerEnd` caused by the span's begin
/// event, so the span's extent is recoverable from the causal graph.
fn span_close(env: &mut dyn StackEnv, layer: &'static str, dir: LayerDir, begin: CauseId) {
    if let Some(o) = env.obs() {
        o.record_caused(
            env.now().as_micros(),
            u32::from(env.me().0),
            begin,
            ObsEvent::LayerEnd { layer, dir },
        );
    }
}

struct Slot {
    id: LayerId,
    layer: Box<dyn Layer>,
}

impl fmt::Debug for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}@{:?}", self.layer.name(), self.id)
    }
}

enum Work {
    /// Give to layer `next` going down; `next == len` means transmit.
    /// `cause` is the span (or head event) that emitted the frame.
    Down { next: usize, frame: Frame, cause: CauseId },
    /// Give to layer `next` going up; `None` means deliver to the app.
    /// `cause` is the span (or head event) that emitted the bytes.
    Up { next: Option<usize>, src: ProcessId, bytes: Bytes, cause: CauseId },
}

/// An ordered composition of layers: index 0 is the top (application side),
/// the last index is the bottom (network side).
///
/// A stack is itself "another protocol" (§3): the switching protocol embeds
/// two of them. Processing uses an explicit queue, so a layer emitting
/// multiple frames never re-enters itself or its neighbours.
pub struct Stack {
    slots: Vec<Slot>,
}

impl fmt::Debug for Stack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Stack").field("layers", &self.slots).finish()
    }
}

impl Stack {
    /// Builds a stack from `layers` (top first), allocating ids internally.
    ///
    /// Use [`Stack::with_ids`] when layer ids must be globally unique
    /// across nested stacks of one process.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        let mut ids = crate::IdGen::new();
        Self::with_ids(layers, &mut ids)
    }

    /// Builds a stack from `layers` (top first) drawing ids from `ids`.
    pub fn with_ids(layers: Vec<Box<dyn Layer>>, ids: &mut crate::IdGen) -> Self {
        Self { slots: layers.into_iter().map(|layer| Slot { id: ids.next_id(), layer }).collect() }
    }

    /// Adds `layer` below the current bottom layer (the network side),
    /// drawing its id from `ids` — how a tap or a transport layer goes
    /// under a stack some constructor already assembled.
    pub fn push_bottom(&mut self, layer: Box<dyn Layer>, ids: &mut crate::IdGen) {
        self.slots.push(Slot { id: ids.next_id(), layer });
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` for the empty (pass-through) stack.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Layer names from top to bottom.
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.slots.iter().map(|s| s.layer.name()).collect()
    }

    /// Launches every layer, top to bottom (starts tokens rotating, arms
    /// initial timers, …).
    pub fn launch(&mut self, env: &mut dyn StackEnv) {
        for i in 0..self.slots.len() {
            let id = self.slots[i].id;
            let name = self.slots[i].layer.name();
            let span = span_open(env, name, LayerDir::Launch);
            let _psp = prof_span(env, name);
            let mut ctx = LayerCtx::new(env, id);
            self.slots[i].layer.on_launch(&mut ctx);
            self.slots[i].layer.launch_nested(&mut ctx);
            let outs = std::mem::take(&mut ctx.outs);
            drop(_psp);
            span_close(env, name, LayerDir::Launch, span);
            self.run(outs_to_work(outs, i, self.slots.len(), env.cause()), env);
        }
    }

    /// Restarts every layer, top to bottom, after the hosting node
    /// recovers from a crash (see [`Layer::on_restart`]): state survived,
    /// timers did not — each layer re-arms what it needs.
    pub fn restart(&mut self, env: &mut dyn StackEnv) {
        for i in 0..self.slots.len() {
            let id = self.slots[i].id;
            let name = self.slots[i].layer.name();
            let span = span_open(env, name, LayerDir::Restart);
            let _psp = prof_span(env, name);
            let mut ctx = LayerCtx::new(env, id);
            self.slots[i].layer.on_restart(&mut ctx);
            let outs = std::mem::take(&mut ctx.outs);
            drop(_psp);
            span_close(env, name, LayerDir::Restart, span);
            self.run(outs_to_work(outs, i, self.slots.len(), env.cause()), env);
        }
    }

    /// Injects an application message at the top (an app `Send`).
    pub fn send(&mut self, msg: &Message, env: &mut dyn StackEnv) {
        let frame = Frame::all(msg.to_bytes());
        self.run(vec![Work::Down { next: 0, frame, cause: env.cause() }], env);
    }

    /// Injects an already-encoded frame at the top (used by composite
    /// layers such as the switching protocol, which feed their sub-stacks
    /// the application's bytes without re-encoding).
    pub fn send_bytes(&mut self, dest: crate::Cast, bytes: Bytes, env: &mut dyn StackEnv) {
        let work = Work::Down { next: 0, frame: Frame::new(dest, bytes), cause: env.cause() };
        self.run(vec![work], env);
    }

    /// Injects bytes arriving from the network at the bottom.
    pub fn receive(&mut self, src: ProcessId, bytes: Bytes, env: &mut dyn StackEnv) {
        let next = self.slots.len().checked_sub(1);
        self.run(vec![Work::Up { next, src, bytes, cause: env.cause() }], env);
    }

    /// Delivers a timer firing to the owning layer (searching nested
    /// stacks). Returns `false` if no layer claims `id`.
    pub fn timer(&mut self, id: LayerId, token: u32, env: &mut dyn StackEnv) -> bool {
        for i in 0..self.slots.len() {
            let slot_id = self.slots[i].id;
            if slot_id == id {
                let name = self.slots[i].layer.name();
                let span = span_open(env, name, LayerDir::Timer);
                let _psp = prof_span(env, name);
                let mut ctx = LayerCtx::new(env, slot_id);
                self.slots[i].layer.on_timer(token, &mut ctx);
                let outs = std::mem::take(&mut ctx.outs);
                drop(_psp);
                span_close(env, name, LayerDir::Timer, span);
                self.run(outs_to_work(outs, i, self.slots.len(), env.cause()), env);
                return true;
            }
            // Search nested stacks (composite layers).
            let mut ctx = LayerCtx::new(env, slot_id);
            let handled = self.slots[i].layer.route_timer(id, token, &mut ctx);
            let outs = std::mem::take(&mut ctx.outs);
            if handled {
                self.run(outs_to_work(outs, i, self.slots.len(), env.cause()), env);
                return true;
            }
            debug_assert!(outs.is_empty(), "route_timer emitted without handling");
        }
        false
    }

    fn run(&mut self, initial: Vec<Work>, env: &mut dyn StackEnv) {
        let mut queue: VecDeque<Work> = initial.into();
        let n = self.slots.len();
        while let Some(work) = queue.pop_front() {
            match work {
                Work::Down { next, frame, cause } => {
                    if next == n {
                        let prev = env.set_cause(cause);
                        env.transmit(frame);
                        env.set_cause(prev);
                        continue;
                    }
                    let id = self.slots[next].id;
                    let name = self.slots[next].layer.name();
                    let prev = env.set_cause(cause);
                    let span = span_open(env, name, LayerDir::Down);
                    let _psp = prof_span(env, name);
                    let mut ctx = LayerCtx::new(env, id);
                    self.slots[next].layer.on_down(frame, &mut ctx);
                    let outs = std::mem::take(&mut ctx.outs);
                    drop(_psp);
                    span_close(env, name, LayerDir::Down, span);
                    let out_cause = env.cause();
                    env.set_cause(prev);
                    queue.extend(outs_to_work(outs, next, n, out_cause));
                }
                Work::Up { next, src, bytes, cause } => {
                    let Some(idx) = next else {
                        match Message::from_frame(&bytes) {
                            Ok(msg) => {
                                let prev = env.set_cause(cause);
                                env.deliver_encoded(src, msg, bytes);
                                env.set_cause(prev);
                            }
                            Err(_) => {
                                // Corrupt frame reaching the app boundary:
                                // dropped, per robustness convention.
                            }
                        }
                        continue;
                    };
                    let id = self.slots[idx].id;
                    let name = self.slots[idx].layer.name();
                    let prev = env.set_cause(cause);
                    let span = span_open(env, name, LayerDir::Up);
                    let _psp = prof_span(env, name);
                    let mut ctx = LayerCtx::new(env, id);
                    self.slots[idx].layer.on_up(src, bytes, &mut ctx);
                    let outs = std::mem::take(&mut ctx.outs);
                    drop(_psp);
                    span_close(env, name, LayerDir::Up, span);
                    let out_cause = env.cause();
                    env.set_cause(prev);
                    queue.extend(outs_to_work(outs, idx, n, out_cause));
                }
            }
        }
    }
}

/// Converts a layer's emissions (at position `idx` of `n`) into queue
/// work, each item carrying the causal context it was emitted under.
fn outs_to_work(outs: Vec<LayerOut>, idx: usize, n: usize, cause: CauseId) -> Vec<Work> {
    let _ = n;
    outs.into_iter()
        .map(|out| match out {
            LayerOut::Down(frame) => Work::Down { next: idx + 1, frame, cause },
            LayerOut::Up(src, bytes) => Work::Up { next: idx.checked_sub(1), src, bytes, cause },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Cast;

    /// Minimal in-memory environment capturing boundary crossings.
    struct TestEnv {
        me: ProcessId,
        group: Vec<ProcessId>,
        rng: DetRng,
        transmitted: Vec<Frame>,
        delivered: Vec<(ProcessId, Message)>,
        timers: Vec<(SimTime, LayerId, u32)>,
    }

    impl TestEnv {
        fn new(me: u16, n: u16) -> Self {
            Self {
                me: ProcessId(me),
                group: (0..n).map(ProcessId).collect(),
                rng: DetRng::new(1),
                transmitted: Vec::new(),
                delivered: Vec::new(),
                timers: Vec::new(),
            }
        }
    }

    impl StackEnv for TestEnv {
        fn me(&self) -> ProcessId {
            self.me
        }
        fn group(&self) -> &[ProcessId] {
            &self.group
        }
        fn now(&self) -> SimTime {
            SimTime::ZERO
        }
        fn rng(&mut self) -> &mut DetRng {
            &mut self.rng
        }
        fn transmit(&mut self, frame: Frame) {
            self.transmitted.push(frame);
        }
        fn deliver(&mut self, src: ProcessId, msg: Message) {
            self.delivered.push((src, msg));
        }
        fn set_timer(&mut self, delay: SimTime, id: LayerId, token: u32) {
            self.timers.push((delay, id, token));
        }
    }

    /// Layer that pushes/pops a constant byte header and counts traffic.
    struct Tagger {
        tag: u8,
        downs: u32,
        ups: u32,
    }

    impl Layer for Tagger {
        fn name(&self) -> &'static str {
            "tagger"
        }
        fn on_down(&mut self, frame: Frame, ctx: &mut LayerCtx<'_>) {
            self.downs += 1;
            let bytes = ps_wire::push_header(&self.tag, frame.bytes);
            ctx.send_down(Frame::new(frame.dest, bytes));
        }
        fn on_up(&mut self, src: ProcessId, bytes: Bytes, ctx: &mut LayerCtx<'_>) {
            self.ups += 1;
            let (tag, rest) = ps_wire::pop_header::<u8>(&bytes).expect("tag header");
            assert_eq!(tag, self.tag, "headers must pop in reverse push order");
            ctx.deliver_up(src, rest);
        }
    }

    fn msg(sender: u16, seq: u64) -> Message {
        Message::with_tag(ProcessId(sender), seq, 9)
    }

    #[test]
    fn empty_stack_passes_send_to_wire_and_back() {
        let mut env = TestEnv::new(0, 2);
        let mut stack = Stack::new(vec![]);
        let m = msg(0, 1);
        stack.send(&m, &mut env);
        assert_eq!(env.transmitted.len(), 1);
        assert_eq!(env.transmitted[0].dest, Cast::All);

        let bytes = env.transmitted[0].bytes.clone();
        stack.receive(ProcessId(0), bytes, &mut env);
        assert_eq!(env.delivered.len(), 1);
        assert_eq!(env.delivered[0].1, m);
    }

    #[test]
    fn headers_nest_in_stack_order() {
        let mut env = TestEnv::new(0, 2);
        let mut stack = Stack::new(vec![
            Box::new(Tagger { tag: 1, downs: 0, ups: 0 }),
            Box::new(Tagger { tag: 2, downs: 0, ups: 0 }),
        ]);
        let m = msg(0, 1);
        stack.send(&m, &mut env);
        // Bottom layer's header is outermost.
        let bytes = env.transmitted[0].bytes.clone();
        let (outer, rest) = ps_wire::pop_header::<u8>(&bytes).unwrap();
        assert_eq!(outer, 2);
        let (inner, _) = ps_wire::pop_header::<u8>(&rest).unwrap();
        assert_eq!(inner, 1);

        stack.receive(ProcessId(0), bytes, &mut env);
        assert_eq!(env.delivered[0].1, m);
    }

    #[test]
    fn corrupt_frame_at_app_boundary_is_dropped() {
        let mut env = TestEnv::new(0, 2);
        let mut stack = Stack::new(vec![]);
        stack.receive(ProcessId(1), Bytes::from_static(&[0xff, 0x01]), &mut env);
        assert!(env.delivered.is_empty());
    }

    /// Layer that fans one frame out into two (tests queue, no recursion).
    struct Duplicator;
    impl Layer for Duplicator {
        fn name(&self) -> &'static str {
            "dup"
        }
        fn on_down(&mut self, frame: Frame, ctx: &mut LayerCtx<'_>) {
            ctx.send_down(frame.clone());
            ctx.send_down(frame);
        }
    }

    #[test]
    fn fan_out_is_processed_in_order() {
        let mut env = TestEnv::new(0, 2);
        let mut stack = Stack::new(vec![Box::new(Duplicator)]);
        stack.send(&msg(0, 1), &mut env);
        assert_eq!(env.transmitted.len(), 2);
        assert_eq!(env.transmitted[0], env.transmitted[1]);
    }

    /// Layer that arms a timer on launch and resends on fire.
    struct Beacon;
    impl Layer for Beacon {
        fn name(&self) -> &'static str {
            "beacon"
        }
        fn on_launch(&mut self, ctx: &mut LayerCtx<'_>) {
            ctx.set_timer(SimTime::from_millis(5), 42);
        }
        fn on_timer(&mut self, token: u32, ctx: &mut LayerCtx<'_>) {
            assert_eq!(token, 42);
            ctx.send_down(Frame::all(Bytes::from_static(b"beacon")));
        }
    }

    #[test]
    fn launch_arms_timer_and_timer_routes_back() {
        let mut env = TestEnv::new(0, 2);
        let mut stack = Stack::new(vec![Box::new(Beacon)]);
        stack.launch(&mut env);
        assert_eq!(env.timers.len(), 1);
        let (_, id, token) = env.timers[0];
        assert!(stack.timer(id, token, &mut env));
        assert_eq!(env.transmitted.len(), 1);
        assert!(!stack.timer(LayerId(999), 0, &mut env));
    }

    #[test]
    fn layer_ids_are_unique_across_stacks_with_shared_gen() {
        let mut ids = crate::IdGen::new();
        let a = Stack::with_ids(vec![Box::new(Duplicator)], &mut ids);
        let b = Stack::with_ids(vec![Box::new(Duplicator)], &mut ids);
        assert_ne!(a.slots[0].id, b.slots[0].id);
    }
}
