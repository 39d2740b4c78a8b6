use crate::stack::{StackEnv, Step, Work};
use ps_bytes::Bytes;
use ps_obs::CauseId;
use ps_simnet::{DetRng, SimTime};
use ps_trace::ProcessId;
use std::collections::VecDeque;
use std::fmt;

/// Addressing of a frame traveling down a stack (process-id space; the
/// runtime maps it onto the simulator's node addressing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cast {
    /// Every group member, including the sender.
    All,
    /// Every group member except the sender.
    Others,
    /// One process.
    To(ProcessId),
}

/// A frame between layers: destination plus opaque bytes.
///
/// Layers prepend their headers to `bytes` on the way down (see
/// [`ps_wire::push_header`]) and pop them on the way up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Where the frame should go.
    pub dest: Cast,
    /// Header-wrapped payload.
    pub bytes: Bytes,
}

impl Frame {
    /// Creates a frame.
    pub fn new(dest: Cast, bytes: Bytes) -> Self {
        Self { dest, bytes }
    }

    /// A broadcast frame (including the sender).
    pub fn all(bytes: Bytes) -> Self {
        Self::new(Cast::All, bytes)
    }

    /// A unicast frame.
    pub fn to(dest: ProcessId, bytes: Bytes) -> Self {
        Self::new(Cast::To(dest), bytes)
    }
}

/// Identifier of a layer instance within one process, unique across nested
/// stacks; used to route timer firings back to the layer that armed them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayerId(pub u32);

/// Allocator of [`LayerId`]s for one process's (possibly nested) stacks.
#[derive(Debug, Default)]
pub struct IdGen {
    next: u32,
}

impl IdGen {
    /// Creates an allocator starting at id 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates the next id.
    pub fn next_id(&mut self) -> LayerId {
        let id = LayerId(self.next);
        self.next += 1;
        id
    }
}

/// A protocol layer — one Lego block of the paper's §3 model.
///
/// Conventions:
///
/// * **Down** ([`Layer::on_down`]): a frame from the layer above. Push your
///   header, possibly change the destination, and call
///   [`LayerCtx::send_down`] — or absorb the frame (e.g. buffer it) and
///   emit later from a timer.
/// * **Up** ([`Layer::on_up`]): bytes from the layer below, together with
///   the *logical source* the lower layer attributes them to. Pop your
///   header and call [`LayerCtx::deliver_up`], possibly with a corrected
///   source (a sequencer relays other processes' messages).
/// * **Timers**: [`LayerCtx::set_timer`] arms one-shot timers delivered to
///   [`Layer::on_timer`]. There is no cancellation; keep a generation
///   counter and ignore stale firings.
///
/// Layers must be deterministic given their inputs and [`LayerCtx::rng`],
/// and `Send` so stacks can run on real threads (`ps-net`) as well as in
/// the simulator.
pub trait Layer: Send {
    /// Short name for diagnostics ("fifo", "seq-order", …).
    fn name(&self) -> &'static str;

    /// Called once when the stack starts (e.g. to start a token rotating).
    fn on_launch(&mut self, ctx: &mut LayerCtx<'_>) {
        let _ = ctx;
    }

    /// Called when the hosting node recovers from a crash.
    ///
    /// Crash semantics are fail-stop with state preserved: layer memory
    /// (sequence counters, dedup sets) survives, but every timer armed
    /// before the crash died with the old incarnation. Re-arm periodic
    /// timers and resume any in-progress work here. Composite layers must
    /// forward the restart to their nested stacks. Default: no-op.
    fn on_restart(&mut self, ctx: &mut LayerCtx<'_>) {
        let _ = ctx;
    }

    /// A frame traveling toward the network. Default: pass through.
    fn on_down(&mut self, frame: Frame, ctx: &mut LayerCtx<'_>) {
        ctx.send_down(frame);
    }

    /// Bytes traveling toward the application. Default: pass through.
    fn on_up(&mut self, src: ProcessId, bytes: Bytes, ctx: &mut LayerCtx<'_>) {
        ctx.deliver_up(src, bytes);
    }

    /// A timer armed by this layer fired.
    fn on_timer(&mut self, token: u32, ctx: &mut LayerCtx<'_>) {
        let _ = (token, ctx);
    }

    /// Routes a timer to a *nested* layer (composite layers like the
    /// switching protocol override this to search their sub-stacks).
    /// Returns `true` if the id was found and handled.
    fn route_timer(&mut self, id: LayerId, token: u32, ctx: &mut LayerCtx<'_>) -> bool {
        let _ = (id, token, ctx);
        false
    }

    /// Forwards launch to nested layers (composites override).
    fn launch_nested(&mut self, ctx: &mut LayerCtx<'_>) {
        let _ = ctx;
    }
}

impl fmt::Debug for dyn Layer + '_ {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Layer({})", self.name())
    }
}

/// The layer's handle to its surroundings during a callback.
///
/// Emissions go onto the work queue of the stack the layer sits in and are
/// processed after the callback returns, so layer code never re-enters.
pub struct LayerCtx<'a> {
    env: &'a mut dyn StackEnv,
    self_id: LayerId,
    /// The layer's position in its stack: emissions go to `idx ± 1`.
    idx: usize,
    queue: &'a mut VecDeque<Work>,
}

impl fmt::Debug for LayerCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LayerCtx")
            .field("self_id", &self.self_id)
            .field("queued", &self.queue.len())
            .finish()
    }
}

impl<'a> LayerCtx<'a> {
    pub(crate) fn new(
        env: &'a mut dyn StackEnv,
        self_id: LayerId,
        idx: usize,
        queue: &'a mut VecDeque<Work>,
    ) -> Self {
        Self { env, self_id, idx, queue }
    }

    /// This process's id.
    pub fn me(&self) -> ProcessId {
        self.env.me()
    }

    /// The group membership (static for the lifetime of the run), borrowed.
    pub fn group_slice(&self) -> &[ProcessId] {
        self.env.group()
    }

    /// Number of group members.
    pub fn group_len(&self) -> usize {
        self.env.group().len()
    }

    /// The member after this process on the logical ring the group forms
    /// in membership order (wrapping) — where a rotating token goes next.
    ///
    /// # Panics
    ///
    /// Panics if this process is not in its own group.
    pub fn ring_next(&self) -> ProcessId {
        let group = self.env.group();
        let me = self.env.me();
        let idx = group.iter().position(|&p| p == me).expect("member of own group");
        group[(idx + 1) % group.len()]
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.env.now()
    }

    /// Deterministic per-process random stream.
    pub fn rng(&mut self) -> &mut DetRng {
        self.env.rng()
    }

    /// The live recording session, or `None` when observability is off.
    ///
    /// Layers with phase structure worth tracing (the switching protocol)
    /// record through this; plain layers get their spans recorded by the
    /// stack around each handler call.
    pub fn obs(&self) -> Option<&ps_obs::Writer<'_>> {
        self.env.obs()
    }

    /// The live host-time profiler, or `None` when profiling is off.
    /// Composite layers forward this into their sub-stack environments
    /// so nested layers attribute their own handler cost.
    pub fn prof(&self) -> Option<&ps_prof::Profiler> {
        self.env.prof()
    }

    /// Causal id of the event the surrounding environment is processing
    /// (the span wrapping this callback, when observability is on).
    pub fn cause(&self) -> ps_obs::CauseId {
        self.env.cause()
    }

    /// Replaces the environment's causal context, returning the previous
    /// one. Composite layers thread sub-stack causality through this;
    /// restore the previous context before returning.
    pub fn set_cause(&mut self, cause: ps_obs::CauseId) -> ps_obs::CauseId {
        self.env.set_cause(cause)
    }

    /// Emits a frame to the layer below (or the network, at the bottom).
    pub fn send_down(&mut self, frame: Frame) {
        self.push(Step::Down { next: self.idx + 1, frame });
    }

    /// Emits bytes to the layer above (or the application, at the top).
    pub fn deliver_up(&mut self, src: ProcessId, bytes: Bytes) {
        self.push(Step::Up { next: self.idx.checked_sub(1), src, bytes });
    }

    /// Queues an emission; the stack fills in its cause once the handler
    /// has returned.
    fn push(&mut self, step: Step) {
        self.queue.push_back(Work { cause: CauseId::NONE, step });
    }

    /// Arms a one-shot timer for this layer.
    pub fn set_timer(&mut self, delay: SimTime, token: u32) {
        let id = self.self_id;
        self.env.set_timer(delay, id, token);
    }

    /// Arms a timer on behalf of a nested layer (composites only).
    pub fn set_timer_for(&mut self, id: LayerId, delay: SimTime, token: u32) {
        self.env.set_timer(delay, id, token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idgen_is_sequential_and_unique() {
        let mut g = IdGen::new();
        let a = g.next_id();
        let b = g.next_id();
        assert_eq!(a, LayerId(0));
        assert_eq!(b, LayerId(1));
        assert_ne!(a, b);
    }

    #[test]
    fn frame_constructors() {
        let f = Frame::all(Bytes::from_static(b"x"));
        assert_eq!(f.dest, Cast::All);
        let f = Frame::to(ProcessId(3), Bytes::new());
        assert_eq!(f.dest, Cast::To(ProcessId(3)));
    }
}
