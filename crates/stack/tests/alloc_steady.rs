//! The steady-state handler path, counted: once its containers have
//! their capacity, a message travelling down a stack and back up costs the
//! allocator nothing beyond the frame `Message::to_bytes` builds — through
//! plain layers and through the switching layer in normal mode alike, and
//! with a recorder and the standard monitors watching.
//!
//! The counter is per thread, so the tests here can run side by side.

use ps_bytes::Bytes;
use ps_core::{hybrid_total_order, NeverOracle, SwitchConfig};
use ps_obs::{CauseId, MonitorSet, ObsEvent, Recorder, Writer};
use ps_prof::alloc::{self, Counting};
use ps_simnet::{DetRng, SimTime};
use ps_stack::{Cast, Frame, IdGen, Layer, LayerId, Stack, StackEnv};
use ps_trace::{Message, ProcessId};

#[global_allocator]
static ALLOC: Counting = Counting;

/// One process's surroundings, itself allocation-free once warm: the last
/// broadcast is kept for the test to loop back, deliveries are counted,
/// timers wait in a vector that keeps its capacity.
struct Env<'r> {
    group: [ProcessId; 2],
    rng: DetRng,
    now: SimTime,
    broadcast: Option<Bytes>,
    delivered: u64,
    timers: Vec<(SimTime, LayerId, u32)>,
    /// The recording session of the round trip under way, if it is watched.
    obs: Option<Writer<'r>>,
    cause: CauseId,
}

impl Env<'_> {
    fn new() -> Self {
        Self {
            group: [ProcessId(0), ProcessId(1)],
            rng: DetRng::new(1),
            now: SimTime::ZERO,
            broadcast: None,
            delivered: 0,
            timers: Vec::new(),
            obs: None,
            cause: CauseId::NONE,
        }
    }
}

impl StackEnv for Env<'_> {
    fn me(&self) -> ProcessId {
        self.group[0]
    }
    fn group(&self) -> &[ProcessId] {
        &self.group
    }
    fn now(&self) -> SimTime {
        self.now
    }
    fn rng(&mut self) -> &mut DetRng {
        &mut self.rng
    }
    fn transmit(&mut self, frame: Frame) {
        // Unicasts (tokens bound for the other member) leave and are gone.
        if frame.dest == Cast::All {
            self.broadcast = Some(frame.bytes);
        }
    }
    fn deliver(&mut self, _src: ProcessId, msg: Message) {
        if let Some(o) = &self.obs {
            let ev = ObsEvent::AppDeliver { sender: u32::from(msg.id.sender.0), seq: msg.id.seq };
            o.record_caused(self.now.as_micros(), 0, self.cause, ev);
        }
        self.delivered += 1;
    }
    fn set_timer(&mut self, delay: SimTime, id: LayerId, token: u32) {
        self.timers.push((self.now + delay, id, token));
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

/// Advances the clock by a millisecond, fires what came due, then sends
/// `msg` and loops the resulting broadcast back in. Returns the allocator
/// calls made by the receive alone.
fn round_trip(stack: &mut Stack, env: &mut Env<'_>, msg: &Message) -> u64 {
    env.now += SimTime::from_millis(1);
    while let Some(due) = env.timers.iter().position(|&(at, _, _)| at <= env.now) {
        let (_, id, token) = env.timers.swap_remove(due);
        assert!(stack.timer(id, token, env), "timer of an unknown layer");
    }
    stack.send(msg, env);
    let wire = env.broadcast.take().expect("the send broadcast a frame");
    let before = alloc::thread().calls;
    stack.receive(ProcessId(0), wire, env);
    alloc::thread().calls - before
}

/// Process 0's message `seq`, with a body longer than a handle holds: its
/// frame is a buffer — the one allocation a send is allowed. (A message of
/// a few bytes would live in its handle and cost none.)
fn message(seq: u64) -> Message {
    Message::new(ProcessId(0), seq, Bytes::from_static(&[9; 32]))
}

/// A layer that keeps every default: frames pass through untouched.
struct PassThrough;
impl Layer for PassThrough {
    fn name(&self) -> &'static str {
        "pass"
    }
}

#[test]
fn pass_through_stack_allocates_only_the_frame() {
    let mut env = Env::new();
    let mut stack = Stack::new(vec![
        Box::new(PassThrough),
        Box::new(PassThrough),
        Box::new(PassThrough),
        Box::new(PassThrough),
    ]);
    let msg = message(1);
    round_trip(&mut stack, &mut env, &msg); // the work queue gets its capacity

    let before = alloc::thread().calls;
    let mut in_receive = 0;
    for _ in 0..1000 {
        in_receive += round_trip(&mut stack, &mut env, &msg);
    }
    assert_eq!(alloc::thread().calls - before, 1000, "one frame per send and nothing else");
    assert_eq!(in_receive, 0, "the way up allocates nothing");
    assert_eq!(env.delivered, 1001);
}

#[test]
fn hybrid_in_normal_mode_allocates_only_the_frame() {
    let mut env = Env::new();
    let cfg = SwitchConfig::default();
    // The switch remembers who delivered during its observe window; that
    // memory stops growing once the window has passed.
    let warm_up = 2 * cfg.observe_window.as_micros() / 1000;
    let (mut stack, handle) =
        hybrid_total_order(&mut IdGen::new(), cfg, ProcessId(0), Box::new(NeverOracle));
    stack.launch(&mut env);
    // Process 0 is the sequencer: its sends are ordered on the spot and
    // come back in order, so no reorder buffer ever holds anything.
    let msg = message(1);
    for _ in 0..warm_up {
        round_trip(&mut stack, &mut env, &msg);
    }

    let before = alloc::thread().calls;
    let mut in_receive = 0;
    for _ in 0..1000 {
        in_receive += round_trip(&mut stack, &mut env, &msg);
    }
    // A simulated second went by: ten observe ticks fired in there too.
    assert_eq!(alloc::thread().calls - before, 1000, "one frame per send and nothing else");
    assert_eq!(in_receive, 0, "the way up allocates nothing");
    assert_eq!(env.delivered, warm_up + 1000);
    assert_eq!(handle.current(), 0);
}

#[test]
fn watched_hybrid_still_allocates_only_the_frame() {
    // Every handler call is a recorded span, every send and delivery goes
    // to the standard monitors — one session per round trip, as an engine
    // event holds one. A group of one as far as delivery accounting goes:
    // the loopback reaches process 0 only, where each message settles.
    let rec = Recorder::with_capacity(256);
    let monitors = MonitorSet::standard(1, 1_000_000);
    monitors.attach(&rec);
    let mut env = Env::new();
    let cfg = SwitchConfig::default();
    let warm_up = 2 * cfg.observe_window.as_micros() / 1000;
    let (mut stack, _handle) =
        hybrid_total_order(&mut IdGen::new(), cfg, ProcessId(0), Box::new(NeverOracle));
    stack.launch(&mut env);

    // The monitors tell messages apart by id, so each trip sends its own.
    let msgs: Vec<Message> = (0..warm_up + 1000).map(message).collect();
    let mut watched_round_trip = |msg: &Message| {
        let session = rec.writer().expect("recorder enabled");
        env.cause = session.record(
            env.now.as_micros(),
            0,
            ObsEvent::AppSend { sender: 0, seq: msg.id.seq },
        );
        env.obs = Some(session);
        let in_receive = round_trip(&mut stack, &mut env, msg);
        env.obs = None;
        in_receive
    };
    let (warm, counted) = msgs.split_at(warm_up as usize);
    for m in warm {
        watched_round_trip(m);
    }

    let before = alloc::thread().calls;
    let in_receive: u64 = counted.iter().map(&mut watched_round_trip).sum();
    // What a watched run adds: the total-order monitor's agreed sequence,
    // two vectors that double (a capacity is the next power of two).
    let log2_cap = |len: u64| u64::from(len.next_power_of_two().trailing_zeros());
    let doublings = 2 * (log2_cap(warm_up + 1000) - log2_cap(warm_up));
    assert_eq!(
        alloc::thread().calls - before,
        1000 + doublings,
        "one frame per send, plus the agreed sequence"
    );
    assert!(in_receive <= doublings, "the way up allocates nothing else");
    assert!(rec.overwritten() > 0, "the ring wrapped: nothing above leaned on its size");
    assert_eq!(monitors.sent_count() as u64, warm_up + 1000);
    assert_eq!(monitors.unsettled_count(), 0);
    assert!(monitors.finish().is_empty());
}
