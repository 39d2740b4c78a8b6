use crate::{Dest, DetRng, NodeId, Packet, SimTime};
use ps_bytes::Bytes;
use ps_obs::{CauseId, Writer};
use ps_prof::Profiler;

/// Opaque timer identifier chosen by the agent.
///
/// The simulator never interprets tokens; agents route them to the layer
/// that armed the timer. There is no cancellation — layers that re-arm
/// timers should carry a generation counter in their own state and ignore
/// stale firings, which keeps the simulator core simple and allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TimerToken(pub u64);

/// Per-node behaviour plugged into the simulator.
///
/// A node's protocol stack implements this trait: the simulator calls in
/// with packets and timer firings, the agent calls out through [`SimApi`].
/// All callbacks run on the simulation thread; agents need no locking.
pub trait Agent {
    /// Called once at simulation start (virtual time zero).
    fn on_start(&mut self, api: &mut SimApi<'_>);

    /// Called when a packet addressed to this node arrives.
    fn on_packet(&mut self, pkt: Packet, api: &mut SimApi<'_>);

    /// Called when a timer armed via [`SimApi::set_timer`] (or scheduled
    /// externally with [`crate::Sim::schedule`]) fires.
    fn on_timer(&mut self, token: TimerToken, api: &mut SimApi<'_>);

    /// Called when the node recovers from a fail-stop crash (see
    /// [`crate::Sim::schedule_recover`]).
    ///
    /// Agent state survives the crash (stable-storage model), but every
    /// timer armed before it is dead — re-arm periodic timers and resume
    /// in-progress work here. Default: no-op.
    fn on_restart(&mut self, api: &mut SimApi<'_>) {
        let _ = api;
    }
}

/// What an agent asked its driver to do during one callback: the
/// simulator applies these, and so does any other host of an [`Agent`].
///
/// Each action carries the causal id of the event being processed when the
/// agent requested it ([`SimApi::cause`]), so the resulting frame or timer
/// firing links back to what triggered it.
#[derive(Debug)]
pub enum Action {
    /// [`SimApi::send`]: transmit `payload` to `dest`.
    Send { dest: Dest, payload: Bytes, cause: CauseId },
    /// [`SimApi::set_timer`]: fire `token` `delay` after the event.
    Timer { delay: SimTime, token: TimerToken, cause: CauseId },
}

/// The agent's handle to the simulator during a callback.
///
/// Outgoing packets and timers requested through the API take effect when
/// the node finishes processing the current event (i.e. after its CPU
/// service time) — a node cannot transmit faster than it computes.
#[derive(Debug)]
pub struct SimApi<'a> {
    me: NodeId,
    now: SimTime,
    num_nodes: usize,
    rng: &'a mut DetRng,
    pub(crate) actions: Vec<Action>,
    /// The recording session of the run loop stepping this event, `None`
    /// when observability is off (the simulator pre-folds the enabled
    /// check into this option).
    obs: Option<&'a Writer<'a>>,
    /// Live host-time profiler, `None` when profiling is off (same
    /// pre-folded enabled check as `obs`). Stacks open per-layer spans on
    /// it around handler calls.
    prof: Option<&'a Profiler>,
    /// Causal id of the event currently being processed ([`CauseId::NONE`]
    /// when observability is off). Stacks override it around layer spans
    /// via [`SimApi::set_cause`] so outgoing actions link to the span.
    cause: CauseId,
}

impl<'a> SimApi<'a> {
    /// The handle for one callback of node `me` at `now`. `actions` is the
    /// driver's scratch buffer (cleared, capacity retained across events
    /// so the hot path never allocates); it is handed back via
    /// [`SimApi::into_actions`].
    pub fn new(
        me: NodeId,
        now: SimTime,
        num_nodes: usize,
        rng: &'a mut DetRng,
        actions: Vec<Action>,
        obs: Option<&'a Writer<'a>>,
        prof: Option<&'a Profiler>,
        cause: CauseId,
    ) -> Self {
        debug_assert!(actions.is_empty());
        Self { me, now, num_nodes, rng, actions, obs, prof, cause }
    }

    /// Consumes the API, returning the recorded actions (and the scratch
    /// buffer's capacity with them).
    pub fn into_actions(self) -> Vec<Action> {
        self.actions
    }

    /// This node's identity.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Current virtual time (the instant this event began processing).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of nodes in the simulation.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Transmits `payload` to `dest` when the current event finishes
    /// processing.
    pub fn send(&mut self, dest: Dest, payload: Bytes) {
        self.actions.push(Action::Send { dest, payload, cause: self.cause });
    }

    /// Arms a one-shot timer that fires `delay` after the current event
    /// finishes processing.
    pub fn set_timer(&mut self, delay: SimTime, token: TimerToken) {
        self.actions.push(Action::Timer { delay, token, cause: self.cause });
    }

    /// The node's deterministic random stream.
    pub fn rng(&mut self) -> &mut DetRng {
        self.rng
    }

    /// The live recording session, or `None` when observability is off.
    ///
    /// Stacks record layer spans and switch phases through this; a plain
    /// `if let Some(o) = api.obs()` keeps the disabled path branch-cheap.
    /// The engine holds the recorder's ring for the whole callback (see
    /// [`ps_obs::Recorder::writer`]): record through this, never through
    /// a `Recorder` handle of the same ring.
    pub fn obs(&self) -> Option<&'a Writer<'a>> {
        self.obs
    }

    /// The live host-time profiler, or `None` when profiling is off.
    ///
    /// Stacks open `stack/<layer>` spans on this around handler calls so
    /// per-layer host cost shows up in the profile.
    pub fn prof(&self) -> Option<&'a Profiler> {
        self.prof
    }

    /// Causal id of the event currently being processed — the parent new
    /// records and outgoing actions should link to. [`CauseId::NONE`]
    /// when observability is off.
    pub fn cause(&self) -> CauseId {
        self.cause
    }

    /// Replaces the current causal context, returning the previous one.
    ///
    /// Layer spans thread their own ids through the stack: set the span's
    /// id around the handler call and restore the old id afterwards.
    pub fn set_cause(&mut self, cause: CauseId) -> CauseId {
        std::mem::replace(&mut self.cause, cause)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn api_records_actions_in_order() {
        let mut rng = DetRng::new(0);
        let mut api = SimApi::new(
            NodeId(2),
            SimTime::from_micros(5),
            4,
            &mut rng,
            Vec::new(),
            None,
            None,
            CauseId::NONE,
        );
        assert_eq!(api.me(), NodeId(2));
        assert_eq!(api.now(), SimTime::from_micros(5));
        assert_eq!(api.num_nodes(), 4);
        api.send(Dest::All, Bytes::from_static(b"x"));
        let prev = api.set_cause(CauseId::new(2, 9));
        assert_eq!(prev, CauseId::NONE);
        api.set_timer(SimTime::from_micros(10), TimerToken(7));
        assert_eq!(api.actions.len(), 2);
        assert!(matches!(
            api.actions[0],
            Action::Send { dest: Dest::All, cause: CauseId::NONE, .. }
        ));
        assert!(matches!(
            api.actions[1],
            Action::Timer { token: TimerToken(7), cause, .. } if cause == CauseId::new(2, 9)
        ));
    }
}
