use crate::layer::{Frame, Layer, LayerCtx, LayerId};
use ps_bytes::Bytes;
use ps_obs::{CauseId, LayerDir, OpenSpan, Writer};
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
    /// Bytes leaving the top of the stack: one encoded [`Message`], or
    /// garbage. This is what the stack calls. The default decodes once,
    /// consuming `bytes` (the message's body is that same handle), and
    /// calls [`StackEnv::deliver`]; bytes that are not exactly one message
    /// are dropped, per robustness convention. An environment that passes
    /// the message on in encoded form — a composite layer hosting this
    /// stack — overrides it and never builds the `Message`.
    fn deliver_bytes(&mut self, src: ProcessId, bytes: Bytes) {
        if let Ok(msg) = Message::from_owned(bytes) {
            self.deliver(src, msg);
        }
    }
    /// Arm a one-shot timer for layer `id`.
    fn set_timer(&mut self, delay: SimTime, id: LayerId, token: u32);
    /// The live recording session, or `None` when observability is off.
    ///
    /// The default keeps test environments observability-free; the
    /// simulator runtime forwards the session its run loop opened on
    /// the recorder the sim was configured with (see
    /// [`ps_obs::Recorder::writer`] for what that excludes).
    fn obs(&self) -> Option<&Writer<'_>> {
        None
    }
    /// Causal id of the event this environment is currently processing
    /// (the context new records should be parented to). Defaults to
    /// [`CauseId::NONE`] for environments without causal tracing.
    fn cause(&self) -> CauseId {
        CauseId::NONE
    }
    /// Replaces the causal context, returning the previous one. The
    /// default is a no-op so observability-free test environments pay
    /// nothing.
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

/// Which instruments are attached, read from the environment once per
/// stack entry: a sub-stack's environment answers three composite layers
/// deep, and between two entries the answer cannot change. With neither
/// attached a handler call asks the environment nothing.
#[derive(Clone, Copy)]
pub(crate) struct Instruments {
    /// A recorder: handler calls get spans, work items carry causes.
    pub(crate) obs: bool,
    /// A profiler: handler calls get `stack/<layer>` spans.
    prof: bool,
}

impl Instruments {
    fn of(env: &dyn StackEnv) -> Self {
        Self { obs: env.obs().is_some(), prof: env.prof().is_some() }
    }
}

/// Opens a `stack/<layer>` profiler span around a handler call. The
/// guard owns its handle (it must not borrow `env`, which the handler
/// needs mutably).
fn prof_span(env: &dyn StackEnv, name: &'static str) -> Option<ps_prof::OwnedSpan> {
    env.prof().map(|p| p.owned_span(&["stack", name]))
}

/// Opens a layer span: records the handler call's `LayerSpan`, caused by
/// the current env context, and makes it the causal context for everything
/// the handler does. Returns the open record for [`span_close`].
fn span_open(env: &mut dyn StackEnv, layer: &'static str, dir: LayerDir) -> Option<OpenSpan> {
    let span =
        env.obs()?.open_span(env.now().as_micros(), u32::from(env.me().0), env.cause(), layer, dir);
    env.set_cause(span.id);
    Some(span)
}

/// Closes a layer span in place: the open record takes the time the
/// handler ran as its duration. No record is added, and a clock that has
/// not moved — the simulator's, inside a handler — leaves nothing to store.
fn span_close(env: &dyn StackEnv, span: Option<OpenSpan>) {
    let Some(span) = span else { return };
    let now = env.now().as_micros();
    if let Some(o) = env.obs().filter(|_| now != span.at_us) {
        o.close_span(span, now);
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

/// One pending hand-over between layers.
pub(crate) struct Work {
    /// The causal context (the span, or the head event) it was emitted
    /// under.
    pub(crate) cause: CauseId,
    pub(crate) step: Step,
}

pub(crate) enum Step {
    /// Give to layer `next` going down; `next == len` means transmit.
    Down { next: usize, frame: Frame },
    /// Give to layer `next` going up; `None` means deliver to the app.
    Up { next: Option<usize>, src: ProcessId, bytes: Bytes },
    /// Deliver a message decoded at the top to the app. In parts: beside
    /// `src`, a `Message` would cost the step the niche that tells the
    /// kinds apart, and a tag of its own (OPTIMIZATION_LOG round 20).
    Deliver { src: ProcessId, sender: ProcessId, seq: u64, body: Bytes },
}

const _: () = assert!(std::mem::size_of::<Work>() <= 72);

/// Stamps `cause` onto everything queued at or after `mark` — what one
/// handler call emitted. Handlers push without a cause because the context
/// they leave behind is only known once they return.
fn stamp(queue: &mut VecDeque<Work>, mark: usize, cause: CauseId) {
    for work in queue.range_mut(mark..) {
        work.cause = cause;
    }
}

/// An ordered composition of layers: index 0 is the top (application side),
/// the last index is the bottom (network side).
///
/// A stack is itself "another protocol" (§3): the switching protocol embeds
/// two of them. Processing uses an explicit queue, so a layer emitting
/// multiple frames never re-enters itself or its neighbours.
pub struct Stack {
    slots: Vec<Slot>,
    /// Emissions not yet handed on. Handlers push here through their
    /// [`LayerCtx`]; every entry point drains it before returning, so it is
    /// empty between calls and only its capacity outlives one.
    queue: VecDeque<Work>,
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
        let slots = layers.into_iter().map(|layer| Slot { id: ids.next_id(), layer }).collect();
        Self { slots, queue: VecDeque::new() }
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
        let on = Instruments::of(env);
        for i in 0..self.slots.len() {
            self.call(i, LayerDir::Launch, env, on, |layer, ctx| {
                layer.on_launch(ctx);
                layer.launch_nested(ctx);
            });
            self.run(env, on);
        }
    }

    /// Restarts every layer, top to bottom, after the hosting node
    /// recovers from a crash (see [`Layer::on_restart`]): state survived,
    /// timers did not — each layer re-arms what it needs.
    pub fn restart(&mut self, env: &mut dyn StackEnv) {
        let on = Instruments::of(env);
        for i in 0..self.slots.len() {
            self.call(i, LayerDir::Restart, env, on, |layer, ctx| layer.on_restart(ctx));
            self.run(env, on);
        }
    }

    /// Injects an application message at the top (an app `Send`).
    pub fn send(&mut self, msg: &Message, env: &mut dyn StackEnv) {
        self.send_bytes(crate::Cast::All, msg.to_bytes(), env);
    }

    /// Injects an already-encoded frame at the top (used by composite
    /// layers such as the switching protocol, which feed their sub-stacks
    /// the application's bytes without re-encoding).
    pub fn send_bytes(&mut self, dest: crate::Cast, bytes: Bytes, env: &mut dyn StackEnv) {
        self.inject(Step::Down { next: 0, frame: Frame::new(dest, bytes) }, env);
    }

    /// Injects bytes arriving from the network at the bottom.
    pub fn receive(&mut self, src: ProcessId, bytes: Bytes, env: &mut dyn StackEnv) {
        let next = self.slots.len().checked_sub(1);
        self.inject(Step::Up { next, src, bytes }, env);
    }

    /// Delivers a timer firing to the owning layer (searching nested
    /// stacks). Returns `false` if no layer claims `id`.
    pub fn timer(&mut self, id: LayerId, token: u32, env: &mut dyn StackEnv) -> bool {
        let on = Instruments::of(env);
        for i in 0..self.slots.len() {
            if self.slots[i].id == id {
                self.call(i, LayerDir::Timer, env, on, |layer, ctx| layer.on_timer(token, ctx));
                self.run(env, on);
                return true;
            }
            // Search nested stacks (composite layers).
            let mark = self.queue.len();
            let slot = &mut self.slots[i];
            let mut ctx = LayerCtx::new(env, slot.id, i, on, &mut self.queue);
            if slot.layer.route_timer(id, token, &mut ctx) {
                if on.obs {
                    stamp(&mut self.queue, mark, env.cause());
                }
                self.run(env, on);
                return true;
            }
            // The queue outlives this call: an emission left here would
            // run as part of the next send or receive.
            debug_assert_eq!(self.queue.len(), mark, "route_timer emitted without handling");
            self.queue.truncate(mark);
        }
        false
    }

    /// Processes work arriving from outside the stack. It is handed on
    /// directly, not queued: the queue is empty on entry, so it would be
    /// the first popped anyway.
    fn inject(&mut self, step: Step, env: &mut dyn StackEnv) {
        // A layer cannot reach the stack it sits in, so nothing calls in
        // while `run` is draining: whatever is queued here was left behind.
        debug_assert!(self.queue.is_empty(), "an earlier call left work queued");
        let on = Instruments::of(env);
        let cause = if on.obs { env.cause() } else { CauseId::NONE };
        self.hand_on(Work { cause, step }, env, on);
        self.run(env, on);
    }

    /// Calls one handler of layer `idx` inside the spans of whichever
    /// instruments are `on`, then stamps what it emitted with the causal
    /// context it left behind.
    fn call(
        &mut self,
        idx: usize,
        dir: LayerDir,
        env: &mut dyn StackEnv,
        on: Instruments,
        handler: impl FnOnce(&mut dyn Layer, &mut LayerCtx<'_>),
    ) {
        let slot = &mut self.slots[idx];
        let name = if on.obs || on.prof { slot.layer.name() } else { "" };
        let span = if on.obs { span_open(env, name, dir) } else { None };
        let psp = if on.prof { prof_span(env, name) } else { None };
        let mark = self.queue.len();
        handler(slot.layer.as_mut(), &mut LayerCtx::new(env, slot.id, idx, on, &mut self.queue));
        drop(psp);
        if on.obs {
            span_close(env, span);
            stamp(&mut self.queue, mark, env.cause());
        }
    }

    /// Hands queued work on until none is left.
    fn run(&mut self, env: &mut dyn StackEnv, on: Instruments) {
        while let Some(work) = self.queue.pop_front() {
            self.hand_on(work, env, on);
        }
    }

    /// Gives one work item to the layer, the wire or the application it
    /// names.
    fn hand_on(&mut self, Work { cause, step }: Work, env: &mut dyn StackEnv, on: Instruments) {
        // Each arm sets and restores the cause itself: one pair hoisted
        // around the match measured 2–3 % slower on `steady_small`
        // (OPTIMIZATION_LOG round 6).
        match step {
            Step::Down { next, frame } => {
                let prev = if on.obs { env.set_cause(cause) } else { CauseId::NONE };
                if next == self.slots.len() {
                    env.transmit(frame);
                } else {
                    self.call(next, LayerDir::Down, env, on, |layer, ctx| {
                        layer.on_down(frame, ctx)
                    });
                }
                if on.obs {
                    env.set_cause(prev);
                }
            }
            Step::Up { next, src, bytes } => {
                let prev = if on.obs { env.set_cause(cause) } else { CauseId::NONE };
                match next {
                    Some(idx) => self.call(idx, LayerDir::Up, env, on, |layer, ctx| {
                        layer.on_up(src, bytes, ctx)
                    }),
                    None => env.deliver_bytes(src, bytes),
                }
                if on.obs {
                    env.set_cause(prev);
                }
            }
            Step::Deliver { src, sender, seq, body } => {
                let prev = if on.obs { env.set_cause(cause) } else { CauseId::NONE };
                env.deliver(src, Message::new(sender, seq, body));
                if on.obs {
                    env.set_cause(prev);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Cast;
    use ps_obs::ObsEvent;

    /// Minimal in-memory environment capturing boundary crossings.
    struct TestEnv<'r> {
        me: ProcessId,
        group: Vec<ProcessId>,
        rng: DetRng,
        transmitted: Vec<Frame>,
        delivered: Vec<(ProcessId, Message)>,
        timers: Vec<(SimTime, LayerId, u32)>,
        /// When set, boundary crossings are recorded under `cause`, the
        /// way the simulator runtime records them.
        obs: Option<Writer<'r>>,
        cause: CauseId,
        /// A clock that moves a microsecond each time it is read, the way
        /// a wall clock moves under a real medium; stands still when unset.
        ticks: Option<std::cell::Cell<u64>>,
    }

    impl TestEnv<'_> {
        fn new(me: u16, n: u16) -> Self {
            Self {
                me: ProcessId(me),
                group: (0..n).map(ProcessId).collect(),
                rng: DetRng::new(1),
                transmitted: Vec::new(),
                delivered: Vec::new(),
                timers: Vec::new(),
                obs: None,
                cause: CauseId::NONE,
                ticks: None,
            }
        }
    }

    impl StackEnv for TestEnv<'_> {
        fn me(&self) -> ProcessId {
            self.me
        }
        fn group(&self) -> &[ProcessId] {
            &self.group
        }
        fn now(&self) -> SimTime {
            let t = self.ticks.as_ref().map_or(0, |c| c.replace(c.get() + 1));
            SimTime::from_micros(t)
        }
        fn rng(&mut self) -> &mut DetRng {
            &mut self.rng
        }
        fn transmit(&mut self, frame: Frame) {
            if let Some(o) = &self.obs {
                let ev = ObsEvent::FrameSend { bytes: frame.bytes.len() as u32, copies: 1 };
                o.record_caused(0, u32::from(self.me.0), self.cause, ev);
            }
            self.transmitted.push(frame);
        }
        fn deliver(&mut self, src: ProcessId, msg: Message) {
            if let Some(o) = &self.obs {
                let ev = ObsEvent::AppDeliver { sender: u32::from(src.0), seq: msg.id.seq };
                o.record_caused(0, u32::from(self.me.0), self.cause, ev);
            }
            self.delivered.push((src, msg));
        }
        fn set_timer(&mut self, delay: SimTime, id: LayerId, token: u32) {
            self.timers.push((delay, id, token));
        }
        fn obs(&self) -> Option<&Writer<'_>> {
            self.obs.as_ref()
        }
        fn cause(&self) -> CauseId {
            self.cause
        }
        fn set_cause(&mut self, cause: CauseId) -> CauseId {
            std::mem::replace(&mut self.cause, cause)
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
            let (tag, rest) = ps_wire::take_header::<u8>(bytes).expect("tag header");
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

    type Log = std::sync::Arc<std::sync::Mutex<Vec<String>>>;

    fn note(log: &Log, who: &str, bytes: &Bytes) {
        log.lock().unwrap().push(format!("{who} {}", String::from_utf8_lossy(bytes)));
    }

    fn suffixed(bytes: &Bytes, suffix: u8) -> Bytes {
        let mut v = bytes.to_vec();
        v.push(suffix);
        Bytes::from(v)
    }

    /// Top layer: turns one send into frames "x" and "y"; absorbs ups.
    struct Fan(Log);
    impl Layer for Fan {
        fn name(&self) -> &'static str {
            "fan"
        }
        fn on_down(&mut self, _frame: Frame, ctx: &mut LayerCtx<'_>) {
            ctx.send_down(Frame::all(Bytes::from_static(b"x")));
            ctx.send_down(Frame::all(Bytes::from_static(b"y")));
        }
        fn on_up(&mut self, _src: ProcessId, bytes: Bytes, _ctx: &mut LayerCtx<'_>) {
            note(&self.0, "fan up", &bytes);
        }
    }

    /// Emits down, up, down from one handler call.
    struct Spray(Log);
    impl Layer for Spray {
        fn name(&self) -> &'static str {
            "spray"
        }
        fn on_down(&mut self, frame: Frame, ctx: &mut LayerCtx<'_>) {
            note(&self.0, "spray", &frame.bytes);
            ctx.send_down(Frame::all(suffixed(&frame.bytes, b'1')));
            ctx.deliver_up(ctx.me(), suffixed(&frame.bytes, b'2'));
            ctx.send_down(Frame::all(suffixed(&frame.bytes, b'3')));
        }
    }

    /// Bottom layer: logs what goes down; one arrival becomes two going up.
    struct Twice(Log);
    impl Layer for Twice {
        fn name(&self) -> &'static str {
            "twice"
        }
        fn on_down(&mut self, frame: Frame, ctx: &mut LayerCtx<'_>) {
            note(&self.0, "twice down", &frame.bytes);
            ctx.send_down(frame);
        }
        fn on_up(&mut self, src: ProcessId, bytes: Bytes, ctx: &mut LayerCtx<'_>) {
            ctx.deliver_up(src, suffixed(&bytes, b'a'));
            ctx.deliver_up(src, suffixed(&bytes, b'b'));
        }
    }

    #[test]
    fn mixed_emissions_run_in_emission_order_behind_earlier_work() {
        let log = Log::default();
        let mut env = TestEnv::new(0, 2);
        let mut stack = Stack::new(vec![
            Box::new(Fan(log.clone())),
            Box::new(Spray(log.clone())),
            Box::new(Twice(log.clone())),
        ]);
        stack.send(&msg(0, 1), &mut env);
        // "y" was queued before anything "x" caused, so the spray sees it
        // first; after that each call's three emissions run in the order
        // they were made, up and down interleaved.
        assert_eq!(
            *log.lock().unwrap(),
            [
                "spray x",
                "spray y",
                "twice down x1",
                "fan up x2",
                "twice down x3",
                "twice down y1",
                "fan up y2",
                "twice down y3",
            ]
        );
        let sent: Vec<&[u8]> = env.transmitted.iter().map(|f| &f.bytes[..]).collect();
        assert_eq!(sent, [&b"x1"[..], b"x3", b"y1", b"y3"]);
    }

    /// Environment a composite layer hands its nested stack: transmissions
    /// come out through the composite's own context.
    struct Nested<'a, 'b>(&'a mut LayerCtx<'b>);
    impl StackEnv for Nested<'_, '_> {
        fn me(&self) -> ProcessId {
            self.0.me()
        }
        fn group(&self) -> &[ProcessId] {
            self.0.group_slice()
        }
        fn now(&self) -> SimTime {
            self.0.now()
        }
        fn rng(&mut self) -> &mut DetRng {
            self.0.rng()
        }
        fn transmit(&mut self, frame: Frame) {
            self.0.send_down(frame);
        }
        fn deliver(&mut self, _src: ProcessId, _msg: Message) {}
        fn set_timer(&mut self, delay: SimTime, id: LayerId, token: u32) {
            self.0.set_timer_for(id, delay, token);
        }
    }

    /// Composite layer: what arrives goes up a nested stack.
    struct Host(Log, Stack);
    impl Layer for Host {
        fn name(&self) -> &'static str {
            "host"
        }
        fn on_up(&mut self, src: ProcessId, bytes: Bytes, ctx: &mut LayerCtx<'_>) {
            note(&self.0, "host up", &bytes);
            self.1.receive(src, bytes, &mut Nested(ctx));
        }
    }

    /// Nested layer: answers every arrival with a frame going down.
    struct Echo;
    impl Layer for Echo {
        fn name(&self) -> &'static str {
            "echo"
        }
        fn on_up(&mut self, _src: ProcessId, bytes: Bytes, ctx: &mut LayerCtx<'_>) {
            ctx.send_down(Frame::all(suffixed(&bytes, b'!')));
        }
    }

    #[test]
    fn nested_stack_transmission_lands_behind_already_queued_work() {
        let log = Log::default();
        let mut env = TestEnv::new(0, 2);
        let nested = Stack::new(vec![Box::new(Echo)]);
        let mut stack =
            Stack::new(vec![Box::new(Host(log.clone(), nested)), Box::new(Twice(log.clone()))]);
        stack.receive(ProcessId(1), Bytes::from_static(b"m"), &mut env);
        // The nested stack ran to completion inside `host up ma`, yet its
        // reply waits behind "mb", which the outer stack had queued first.
        assert_eq!(
            *log.lock().unwrap(),
            ["host up ma", "host up mb", "twice down ma!", "twice down mb!"]
        );
        assert_eq!(env.transmitted.len(), 2);
    }

    #[test]
    fn recorded_spans_and_frame_causes_match_the_golden_trace() {
        let rec = ps_obs::Recorder::with_capacity(64);
        let mut env = TestEnv::new(3, 4);
        env.obs = rec.writer();
        let mut stack =
            Stack::new(vec![Box::new(Duplicator), Box::new(Tagger { tag: 7, downs: 0, ups: 0 })]);
        stack.launch(&mut env);
        env.cause = CauseId::NONE;
        stack.send(&msg(3, 1), &mut env);
        let wire = env.transmitted[0].bytes.clone();
        stack.receive(ProcessId(3), wire, &mut env);
        drop(env); // the session ends; the ring can be read
        assert_eq!(ps_obs::export::to_jsonl(&rec.snapshot()), GOLDEN_TRACE);
    }

    /// One record per handler call, re-pinned when a begin/end pair of
    /// records became one span closed in place: every span, parent
    /// link and frame cause is where the pair-era trace (written by the
    /// stack before it owned its queue, and kept as ps-obs's version-1
    /// fixture) had it; only the seqs the `layer_end` lines used are gone.
    const GOLDEN_TRACE: &str = r#"{"at_us":0,"node":3,"seq":1,"parent":0,"kind":"layer","layer":"dup","dir":"launch","dur_us":0}
{"at_us":0,"node":3,"seq":2,"parent":12884901889,"kind":"layer","layer":"tagger","dir":"launch","dur_us":0}
{"at_us":0,"node":3,"seq":3,"parent":0,"kind":"layer","layer":"dup","dir":"down","dur_us":0}
{"at_us":0,"node":3,"seq":4,"parent":12884901891,"kind":"layer","layer":"tagger","dir":"down","dur_us":0}
{"at_us":0,"node":3,"seq":5,"parent":12884901891,"kind":"layer","layer":"tagger","dir":"down","dur_us":0}
{"at_us":0,"node":3,"seq":6,"parent":12884901892,"kind":"frame_send","bytes":6,"copies":1}
{"at_us":0,"node":3,"seq":7,"parent":12884901893,"kind":"frame_send","bytes":6,"copies":1}
{"at_us":0,"node":3,"seq":8,"parent":0,"kind":"layer","layer":"tagger","dir":"up","dur_us":0}
{"at_us":0,"node":3,"seq":9,"parent":12884901896,"kind":"layer","layer":"dup","dir":"up","dur_us":0}
{"at_us":0,"node":3,"seq":10,"parent":12884901897,"kind":"app_deliver","sender":3,"seq":1}
"#;

    #[test]
    fn a_span_on_a_moving_clock_is_closed_with_the_time_its_handler_took() {
        let rec = ps_obs::Recorder::with_capacity(64);
        let mut env = TestEnv::new(0, 2);
        env.obs = rec.writer();
        env.ticks = Some(std::cell::Cell::new(100));
        let mut stack =
            Stack::new(vec![Box::new(Duplicator), Box::new(Tagger { tag: 7, downs: 0, ups: 0 })]);
        stack.send(&msg(0, 1), &mut env);
        drop(env);
        // Each span reads the clock at open and at close, and nothing in
        // between does: one tick apart.
        let spans: Vec<(u64, u32)> = rec
            .snapshot()
            .iter()
            .filter_map(|e| match e.ev {
                ObsEvent::LayerSpan { dur_us, .. } => Some((e.at_us, dur_us)),
                _ => None,
            })
            .collect();
        assert_eq!(spans, [(100, 1), (102, 1), (104, 1)]);
    }

    #[test]
    fn layer_ids_are_unique_across_stacks_with_shared_gen() {
        let mut ids = crate::IdGen::new();
        let a = Stack::with_ids(vec![Box::new(Duplicator)], &mut ids);
        let b = Stack::with_ids(vec![Box::new(Duplicator)], &mut ids);
        assert_ne!(a.slots[0].id, b.slots[0].id);
    }

    /// What crossed the stack's boundary, in the order it crossed.
    struct Boundary {
        rng: DetRng,
        crossed: Vec<&'static str>,
    }

    impl StackEnv for Boundary {
        fn me(&self) -> ProcessId {
            ProcessId(0)
        }
        fn group(&self) -> &[ProcessId] {
            &[ProcessId(0)]
        }
        fn now(&self) -> SimTime {
            SimTime::ZERO
        }
        fn rng(&mut self) -> &mut DetRng {
            &mut self.rng
        }
        fn transmit(&mut self, _: Frame) {
            self.crossed.push("transmit");
        }
        fn deliver(&mut self, _: ProcessId, _: Message) {
            self.crossed.push("deliver");
        }
        fn set_timer(&mut self, _: SimTime, _: LayerId, _: u32) {}
    }

    /// On every frame up, delivers it or sends it back down, in the
    /// order given (`true` delivers).
    struct Emit(Vec<bool>);

    impl Layer for Emit {
        fn name(&self) -> &'static str {
            "emit"
        }
        fn on_up(&mut self, src: ProcessId, bytes: Bytes, ctx: &mut LayerCtx<'_>) {
            for &up in &self.0 {
                if up {
                    ctx.deliver_up(src, bytes.clone());
                } else {
                    ctx.send_down(Frame::all(bytes.clone()));
                }
            }
        }
    }

    #[test]
    fn a_delivery_handed_over_at_once_leaves_in_the_order_it_was_emitted() {
        // The first delivery of a handler that has queued nothing goes out
        // at once; one behind a queued transmission waits its turn.
        let frame = Message::with_tag(ProcessId(0), 1, 0).to_bytes();
        for emits in [vec![true, false, true], vec![false, true, true], vec![true, true, false]] {
            let mut env = Boundary { rng: DetRng::new(1), crossed: Vec::new() };
            let mut stack = Stack::new(vec![Box::new(Emit(emits.clone()))]);
            stack.receive(ProcessId(0), frame.clone(), &mut env);
            let emitted: Vec<_> =
                emits.iter().map(|&up| if up { "deliver" } else { "transmit" }).collect();
            assert_eq!(env.crossed, emitted, "{emits:?}");
        }
    }
}
