//! The UDP-loopback group runtime: one OS thread + one socket per process.
//!
//! Each node thread hosts the process's [`ProcessAgent`] — the same
//! stack-plus-application agent the simulator runs — handing it a
//! [`SimApi`] per callback and applying the [`Action`]s it stages: a send
//! becomes datagrams to its peers (`dgram` module) and its own copy a
//! handle on an in-memory queue, a timer an entry in an [`EventQueue`]
//! keyed by microseconds from a shared epoch, wall-clock time mapped onto
//! [`SimTime`] the same way. Datagrams arrive through `recv_from`, and
//! the run records into `ps-obs` like a simulated run:
//! `AppSend`/`AppDeliver`/`FrameSend`/`FrameDeliver`/`TimerFire` events
//! with wall-clock `at_us`, monitors and the `MetricsSampler` fed
//! identically.

use crate::dgram;
use ps_bytes::Bytes;
use ps_obs::{CauseId, ObsEvent};
use ps_simnet::{
    Action, Agent, Dest, DetRng, EventQueue, NodeId, Packet, SimApi, SimTime, TimerToken,
};
use ps_stack::{AppLog, Driver, GroupSpec, ProcessAgent};
use ps_trace::ProcessId;
use std::collections::VecDeque;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Transport parameters for a [`UdpGroup`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Address the per-process sockets bind on (port 0 = OS-assigned).
    /// Loopback by default; the driver never leaves the host.
    pub bind_addr: &'static str,
    /// Largest acceptable datagram. Sending a larger frame panics the
    /// sender thread rather than silently truncating on the wire; the
    /// receive buffer is this size too, so a larger datagram from
    /// anywhere else arrives truncated, fails to decode and is counted
    /// as malformed.
    pub max_datagram: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self { bind_addr: "127.0.0.1:0", max_datagram: 60_000 }
    }
}

/// Upper bound on one receive wait — the granularity at which idle node
/// threads re-check timers and the stop flag.
const MAX_WAIT: Duration = Duration::from_millis(5);

/// Everything a finished run produced (beyond the [`Driver`] accessors).
#[derive(Debug, Clone)]
pub struct NetReport {
    /// Messages delivered per process: the `Deliver` entries of its log.
    pub delivered_per_process: Vec<usize>,
    /// Datagrams received that failed [`dgram::decode`], per process.
    pub malformed_per_process: Vec<usize>,
}

/// Shared counters the sampler thread drains each window.
#[derive(Default)]
struct NetCounters {
    frames_sent: AtomicU64,
    copies_delivered: AtomicU64,
}

/// One process, shared between its node thread and the [`UdpGroup`] that
/// reads its log.
type SharedAgent = Arc<Mutex<ProcessAgent>>;

fn lock(agent: &SharedAgent) -> MutexGuard<'_, ProcessAgent> {
    agent.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Wall-clock time since `epoch`, on the simulator's microsecond scale.
fn since(epoch: Instant) -> SimTime {
    SimTime::from_micros(epoch.elapsed().as_micros() as u64)
}

/// How long a node waits on its socket at `now` when its next timer is
/// due at `next`: until then, but at least 200 µs and at most
/// [`MAX_WAIT`].
fn wait(next: Option<SimTime>, now: SimTime) -> Duration {
    next.map_or(MAX_WAIT, |at| Duration::from_micros(at.saturating_sub(now).as_micros()))
        .clamp(Duration::from_micros(200), MAX_WAIT)
}

/// One node thread: the process's [`ProcessAgent`] — the very agent a
/// simulated run hosts — driven off a socket and a timer queue. Only
/// [`NodeThread::run`] reads the clock; every other method is handed the
/// instant.
struct NodeThread {
    me: ProcessId,
    agent: SharedAgent,
    socket: UdpSocket,
    peers: Vec<SocketAddr>,
    epoch: Instant,
    rng: DetRng,
    cfg: NetConfig,
    rec: ps_obs::Recorder,
    rec_on: bool,
    counters: Arc<NetCounters>,
    stop: Arc<AtomicBool>,
    malformed: usize,
    queue: EventQueue<TimerToken>,
    /// What the last callback staged; drained after it, so it keeps its
    /// capacity from one callback to the next.
    actions: Vec<Action>,
    /// The datagram being sent: envelope, then the frame's bytes. It grows
    /// to the largest datagram this node sends and no further.
    send_buf: Vec<u8>,
    /// `max_datagram` bytes, allocated with the node before its thread
    /// starts, so that a run's memory does not depend on when the OS
    /// gets round to starting it.
    recv_buf: Vec<u8>,
    /// The copies this node addressed to itself, oldest first, for a later
    /// turn to hand over; built with room for a few, like `recv_buf`.
    local: VecDeque<Bytes>,
}

impl NodeThread {
    /// Runs one agent callback at `now`, then applies what it staged:
    /// timers into the queue, frames onto the wire. With the recorder on,
    /// `head` (what triggered the call; a causal root), everything the
    /// agent records and a `FrameSend` per staged frame go through one
    /// hold of the shared ring, released before any socket write.
    fn dispatch(
        &mut self,
        now: SimTime,
        head: Option<ObsEvent>,
        f: impl FnOnce(&mut ProcessAgent, &mut SimApi<'_>),
    ) {
        let session = if self.rec_on { self.rec.writer() } else { None };
        let (obs, node) = (session.as_ref(), u32::from(self.me.0));
        let cause = match (obs, head) {
            (Some(w), Some(ev)) => w.record(now.as_micros(), node, ev),
            _ => CauseId::NONE,
        };
        let actions = std::mem::take(&mut self.actions);
        let n = self.peers.len();
        let mut api =
            SimApi::new(NodeId::from(self.me.0), now, n, &mut self.rng, actions, obs, None, cause);
        f(&mut lock(&self.agent), &mut api);
        let mut actions = api.into_actions();
        if let Some(o) = obs {
            for action in &actions {
                let Action::Send { dest, payload, cause } = action else { continue };
                let copies = match dest {
                    Dest::All => n,
                    Dest::Others => n - 1,
                    Dest::To(_) => 1,
                };
                let ev = ObsEvent::FrameSend { bytes: payload.len() as u32, copies: copies as u32 };
                o.record_caused(now.as_micros(), node, *cause, ev);
            }
        }
        drop(session);
        for action in actions.drain(..) {
            match action {
                Action::Send { dest, payload, .. } => self.transmit(dest, payload),
                Action::Timer { delay, token, .. } => self.queue.push(now + delay, token),
            }
        }
        self.actions = actions;
    }

    /// Sends one frame to every process `dest` names: a datagram to each
    /// peer, and this node's own copy — the same handle — onto `local`.
    fn transmit(&mut self, dest: Dest, payload: Bytes) {
        self.counters.frames_sent.fetch_add(1, Ordering::Relaxed);
        let me = self.me.index();
        let hears = |d: usize| match dest {
            Dest::All => true,
            Dest::Others => d != me,
            Dest::To(p) => d == p.index(),
        };
        // A frame only this node hears is not encoded at all.
        if (0..self.peers.len()).any(|d| d != me && hears(d)) {
            dgram::encode_into(self.me, &payload, &mut self.send_buf);
            assert!(
                self.send_buf.len() <= self.cfg.max_datagram,
                "{}: frame of {} bytes exceeds max_datagram {}",
                self.me,
                self.send_buf.len(),
                self.cfg.max_datagram
            );
            for (d, peer) in self.peers.iter().enumerate() {
                if d != me && hears(d) {
                    // A peer that already shut its socket is fine to ignore.
                    let _ = self.socket.send_to(&self.send_buf, peer);
                }
            }
        }
        if hears(me) {
            self.local.push_back(payload);
        }
    }

    /// Fires the earliest timer if it is due at `now`; whether it did. A
    /// scheduled send is a timer like any other.
    fn fire_due(&mut self, now: SimTime) -> bool {
        if self.queue.peek_time().is_none_or(|at| at > now) {
            return false;
        }
        let (_, token) = self.queue.pop().expect("peeked");
        let head = self.rec_on.then_some(ObsEvent::TimerFire { token: token.0 });
        self.dispatch(now, head, |agent, api| agent.on_timer(token, api));
        true
    }

    /// Hands the agent the oldest copy this node addressed to itself, at
    /// `now`; whether there was one.
    fn deliver_own(&mut self, now: SimTime) -> bool {
        let Some(payload) = self.local.pop_front() else { return false };
        self.deliver(now, self.me, payload);
        true
    }

    /// Handles the datagram `recv_buf[..len]`, received at `now`: a
    /// malformed one is counted, a well-formed one delivered.
    fn receive(&mut self, now: SimTime, len: usize) {
        match dgram::decode(&self.recv_buf[..len]) {
            Ok((src, payload)) => self.deliver(now, src, payload),
            Err(_) => self.malformed += 1,
        }
    }

    /// Hands the agent one copy of a frame from `src`, at `now`.
    fn deliver(&mut self, now: SimTime, src: ProcessId, payload: Bytes) {
        self.counters.copies_delivered.fetch_add(1, Ordering::Relaxed);
        // Causal root: a peer's FrameSend lives on another host's
        // timeline and its CauseId is not ferried across the wire (a
        // documented sim-vs-real divergence; docs/transport.md), and a
        // copy of this node's own is a root like any other.
        let head = self.rec_on.then_some(ObsEvent::FrameDeliver {
            src: u32::from(src.0),
            bytes: payload.len() as u32,
        });
        let pkt = Packet { src: NodeId::from(src.0), payload };
        self.dispatch(now, head, |agent, api| agent.on_packet(pkt, api));
    }

    fn run(mut self) -> usize {
        // The scheduled sends were queued before spawn; launch the stack.
        self.dispatch(since(self.epoch), None, |agent, api| agent.on_start(api));
        while !self.stop.load(Ordering::Relaxed) {
            // The clock is read again for each firing, so what falls due
            // while others fire does not wait out a receive.
            while self.fire_due(since(self.epoch)) {}
            // One own copy a turn, and no wait on the socket while any is left.
            if self.deliver_own(since(self.epoch)) {
                continue;
            }
            let timeout = wait(self.queue.peek_time(), since(self.epoch));
            // Fails only on a zero duration, and `timeout` is at least 200 µs.
            self.socket.set_read_timeout(Some(timeout)).expect("set_read_timeout");
            match self.socket.recv_from(&mut self.recv_buf) {
                Ok((len, _addr)) => self.receive(since(self.epoch), len),
                Err(e) if wait_ended(e.kind()) => {}
                Err(e) => panic!("recv_from failed on {}: {e}", self.me),
            }
        }
        self.malformed
    }
}

/// Whether a failed receive only says the wait ended with nothing read:
/// the read timeout ran out (`WouldBlock` on Unix, `TimedOut` on
/// Windows), or a signal handler ran — `recvfrom` on a socket with a
/// receive timeout is never restarted after one (signal(7)).
fn wait_ended(kind: std::io::ErrorKind) -> bool {
    use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
    matches!(kind, WouldBlock | TimedOut | Interrupted)
}

/// A group of processes over UDP loopback, one OS thread and one socket
/// each, running unmodified protocol stacks from a [`GroupSpec`].
///
/// The real-transport half of the [`Driver`] split; see the
/// [crate docs](crate) and `docs/transport.md` for the contract and the
/// known divergences from the simulated driver.
pub struct UdpGroup {
    group: Vec<ProcessId>,
    addrs: Vec<SocketAddr>,
    epoch: Instant,
    agents: Vec<SharedAgent>,
    /// Every process's log as of the first read since the last
    /// [`Driver::run_until`]: what earlier read-outs took, then what this
    /// one took from the node. The node threads keep appending to theirs.
    logs: OnceLock<Vec<AppLog>>,
    /// What the read-outs before the last `run_until` took, by process;
    /// the next read-out moves it into `logs`.
    earlier: Mutex<Vec<AppLog>>,
    rec: ps_obs::Recorder,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<usize>>,
    sampler_thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for UdpGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UdpGroup")
            .field("processes", &self.group.len())
            .field("now", &Driver::now(self))
            .finish()
    }
}

impl UdpGroup {
    /// Binds one loopback socket per process, builds every stack with the
    /// spec's factory (on the caller's thread — factories may capture
    /// non-`Send` state), and spawns the node threads. Scheduled sends
    /// fire at their offsets from this call's instant.
    ///
    /// # Panics
    ///
    /// Panics if the spec has no stack factory, a scheduled sender is out
    /// of range, a socket cannot bind, or the OS refuses a thread.
    pub fn launch(spec: GroupSpec, cfg: NetConfig) -> Self {
        let factory = spec.factory.as_ref().expect("GroupSpec requires a stack_factory");
        let group = spec.group();
        let agents = ProcessAgent::for_group(spec.n, spec.sends, factory);

        let sockets: Vec<UdpSocket> = (0..group.len())
            .map(|_| UdpSocket::bind(cfg.bind_addr).expect("bind loopback socket"))
            .collect();
        let peers: Vec<SocketAddr> =
            sockets.iter().map(|s| s.local_addr().expect("local_addr")).collect();

        let rec = spec.recorder.clone().unwrap_or_default();
        let rec_on = rec.is_enabled();
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(NetCounters::default());
        let epoch = Instant::now();

        let mut shared = Vec::new();
        let mut threads = Vec::new();
        for ((me, socket), (agent, due)) in group.iter().copied().zip(sockets).zip(agents) {
            let agent = Arc::new(Mutex::new(agent));
            shared.push(Arc::clone(&agent));
            let mut queue = EventQueue::new();
            for (at, token) in due {
                queue.push(at, token);
            }
            let node = NodeThread {
                me,
                agent,
                socket,
                peers: peers.clone(),
                epoch,
                rng: DetRng::new(spec.seed ^ (u64::from(me.0) << 16)),
                cfg: cfg.clone(),
                rec: rec.clone(),
                rec_on,
                counters: Arc::clone(&counters),
                stop: Arc::clone(&stop),
                malformed: 0,
                queue,
                actions: Vec::new(),
                send_buf: Vec::new(),
                recv_buf: vec![0; cfg.max_datagram],
                local: VecDeque::with_capacity(8),
            };
            // Unnamed, as is the sampler's: std copies a thread's name on
            // the new thread as it starts (for its stack-overflow report),
            // an allocation that would land in the run whenever the OS
            // starts the thread late.
            threads.push(
                std::thread::Builder::new().spawn(move || node.run()).expect("spawn node thread"),
            );
        }

        let sampler_thread = spec.sampler.clone().map(|sampler| {
            let stop = Arc::clone(&stop);
            let counters = Arc::clone(&counters);
            let interval = Duration::from_micros(sampler.interval_us());
            std::thread::Builder::new()
                .spawn(move || {
                    let mut window_end = epoch + interval;
                    while !stop.load(Ordering::Relaxed) {
                        let now = Instant::now();
                        if now < window_end {
                            std::thread::park_timeout(window_end - now);
                            continue;
                        }
                        // Utilization and queue-depth fields stay 0: the
                        // OS gives no per-window bus/CPU shares for a real
                        // socket run (documented divergence).
                        sampler.push(ps_obs::LoadSample {
                            at_us: (window_end - epoch).as_micros() as u64,
                            frames_sent: counters.frames_sent.swap(0, Ordering::Relaxed),
                            copies_delivered: counters.copies_delivered.swap(0, Ordering::Relaxed),
                            ..Default::default()
                        });
                        window_end += interval;
                    }
                })
                .expect("spawn sampler thread")
        });

        Self {
            earlier: Mutex::new(vec![AppLog::default(); group.len()]),
            group,
            addrs: peers,
            epoch,
            agents: shared,
            logs: OnceLock::new(),
            rec,
            stop,
            threads,
            sampler_thread,
        }
    }

    /// Where each process's socket is bound, by process index — for tests
    /// and tools that aim datagrams of their own at a node.
    pub fn socket_addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    fn earlier_mut(&mut self) -> &mut Vec<AppLog> {
        self.earlier.get_mut().unwrap_or_else(PoisonError::into_inner)
    }

    /// Stops every node thread (and the sampler), joins them, and returns
    /// the per-process tallies. Call after [`Driver::run_until`]. A node
    /// or sampler thread's panic is re-raised here.
    pub fn shutdown(mut self) -> NetReport {
        self.raise_stop();
        let malformed_per_process =
            self.threads.drain(..).map(|t| t.join().expect("node thread panicked")).collect();
        if let Some(t) = self.sampler_thread.take() {
            t.join().expect("sampler thread panicked");
        }
        let taken = self.logs.take().unwrap_or_else(|| std::mem::take(self.earlier_mut()));
        let delivered_per_process = self
            .agents
            .iter()
            .zip(&taken)
            .map(|(agent, taken)| taken.delivered() + lock(agent).app_mut().log().delivered())
            .collect();
        NetReport { delivered_per_process, malformed_per_process }
    }

    /// Tells every thread to stop, and unparks the sampler from its window.
    fn raise_stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        self.sampler_thread.iter().for_each(|t| t.thread().unpark());
    }
}

impl Drop for UdpGroup {
    fn drop(&mut self) {
        // Never leak node threads if the caller skipped `shutdown`.
        self.raise_stop();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        if let Some(t) = self.sampler_thread.take() {
            let _ = t.join();
        }
    }
}

impl Driver for UdpGroup {
    /// Sleeps until wall-clock `deadline` (offset from launch) has
    /// passed. Node threads keep processing in the background; a deadline
    /// already in the past returns immediately.
    fn run_until(&mut self, deadline: SimTime) {
        if let Some(logs) = self.logs.take() {
            *self.earlier_mut() = logs;
        }
        let target = self.epoch + Duration::from_micros(deadline.as_micros());
        std::thread::sleep(target.saturating_duration_since(Instant::now()));
    }

    fn now(&self) -> SimTime {
        since(self.epoch)
    }

    fn group(&self) -> &[ProcessId] {
        &self.group
    }

    fn recorder(&self) -> &ps_obs::Recorder {
        &self.rec
    }

    /// Process `p`'s log as of the first log read since the last
    /// [`Driver::run_until`]: the node threads keep running, so every
    /// accessor of one read-out sees the same instant. That read moves
    /// each node's entries out ([`ps_stack::AppProcess::take_log`]) and appends
    /// them to what earlier read-outs took; nothing is copied.
    fn process_log(&self, p: ProcessId) -> &AppLog {
        let logs = self.logs.get_or_init(|| {
            let mut earlier = self.earlier.lock().unwrap_or_else(PoisonError::into_inner);
            earlier
                .iter_mut()
                .zip(&self.agents)
                .map(|(before, agent)| {
                    let mut log = std::mem::take(before);
                    log.append(lock(agent).app_mut().take_log());
                    log
                })
                .collect()
        });
        &logs[p.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_stack::Stack;
    use ps_trace::Message;
    use ps_wire::Wire;

    #[test]
    fn an_interrupted_receive_is_an_ended_wait() {
        use std::io::ErrorKind::*;
        for kind in [WouldBlock, TimedOut, Interrupted] {
            assert!(wait_ended(kind), "{kind:?}");
        }
        for kind in [ConnectionRefused, PermissionDenied, InvalidInput, Other] {
            assert!(!wait_ended(kind), "{kind:?}");
        }
    }

    /// Process 0 of `spec`'s group as a node no thread runs, launched at
    /// instant zero, with the sockets bound for its peers' addresses.
    fn node(spec: GroupSpec) -> (NodeThread, Vec<UdpSocket>) {
        let factory = spec.factory.as_ref().expect("factory");
        let (agent, due) = ProcessAgent::for_group(spec.n, spec.sends, factory).swap_remove(0);
        let mut sockets: Vec<UdpSocket> =
            (0..spec.n).map(|_| UdpSocket::bind("127.0.0.1:0").expect("bind")).collect();
        let mut queue = EventQueue::new();
        due.into_iter().for_each(|(at, token)| queue.push(at, token));
        let mut node = NodeThread {
            me: ProcessId(0),
            agent: Arc::new(Mutex::new(agent)),
            peers: sockets.iter().map(|s| s.local_addr().expect("local_addr")).collect(),
            socket: sockets.remove(0),
            epoch: Instant::now(),
            rng: DetRng::new(1),
            cfg: NetConfig::default(),
            rec: ps_obs::Recorder::disabled(),
            rec_on: false,
            counters: Arc::default(),
            stop: Arc::default(),
            malformed: 0,
            queue,
            actions: Vec::new(),
            send_buf: Vec::new(),
            recv_buf: vec![0; NetConfig::default().max_datagram],
            local: VecDeque::new(),
        };
        node.dispatch(SimTime::ZERO, None, |agent, api| agent.on_start(api));
        (node, sockets)
    }

    fn log(node: &NodeThread) -> Vec<(SimTime, ps_trace::Event)> {
        lock(&node.agent).app_mut().log().events().collect()
    }

    #[test]
    fn a_scheduled_send_fires_at_the_first_wake_at_or_after_its_instant() {
        let t = SimTime::from_millis(10);
        let (mut node, _peers) = node(spec(2).send_at(t, ProcessId(0), b"x"));
        assert!(!node.fire_due(SimTime::from_micros(t.as_micros() - 1)), "not due 1 µs early");
        assert!(log(&node).is_empty());
        assert!(node.fire_due(t), "due at its instant");
        assert!(!node.fire_due(t), "fired once");
        let log = log(&node);
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].0, t);
        assert!(log[0].1.is_send());
    }

    #[test]
    fn a_malformed_datagram_is_counted_and_the_next_one_delivered() {
        let (mut node, _peers) = node(spec(2));
        let now = SimTime::from_millis(3);
        node.recv_buf[..3].copy_from_slice(&[0xFF, 1, 2]);
        node.receive(now, 3);
        assert_eq!(node.malformed, 1);
        assert!(log(&node).is_empty());

        let msg = Message::new(ProcessId(1), 1, Bytes::copy_from_slice(b"y"));
        let datagram = dgram::encode(ProcessId(1), &msg.to_bytes());
        node.recv_buf[..datagram.len()].copy_from_slice(&datagram);
        node.receive(now, datagram.len());
        assert_eq!(node.malformed, 1);
        let log = log(&node);
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].0, now);
        assert!(log[0].1.is_deliver());
        assert_eq!(log[0].1.message().id, msg.id);
    }

    /// Whether `socket` holds no datagram (it is left non-blocking).
    fn holds_none(socket: &UdpSocket) -> bool {
        socket.set_nonblocking(true).expect("set_nonblocking");
        let err = socket.recv_from(&mut [0; 64]).expect_err("no datagram");
        err.kind() == std::io::ErrorKind::WouldBlock
    }

    #[test]
    fn a_multicast_reaches_the_peer_by_socket_and_the_sender_by_hand() {
        let t = SimTime::from_millis(4);
        let (mut node, peers) = node(spec(2).send_at(t, ProcessId(0), b"x"));
        assert!(node.fire_due(t));
        // The peer's datagram is in its socket when `send_to` returns on
        // loopback; the bound only keeps a broken build from hanging.
        peers[0].set_read_timeout(Some(Duration::from_secs(5))).expect("set_read_timeout");
        let (len, _) = peers[0].recv_from(&mut node.recv_buf).expect("the peer's datagram");
        let (src, _) = dgram::decode(&node.recv_buf[..len]).expect("well-formed");
        assert_eq!(src, ProcessId(0));
        assert!(holds_none(&peers[0]), "one datagram for the peer");
        assert!(holds_none(&node.socket), "none for the sender");
        assert_eq!(node.counters.frames_sent.load(Ordering::Relaxed), 1);

        let now = SimTime::from_millis(5);
        assert!(node.deliver_own(now), "the next turn hands the sender its copy");
        assert!(!node.deliver_own(now), "once");
        let log = log(&node);
        assert_eq!(log.len(), 2);
        assert!(log[0].1.is_send());
        assert_eq!(log[1].0, now);
        assert!(log[1].1.is_deliver());
        assert_eq!(log[1].1.message().id, log[0].1.message().id);
        assert_eq!(node.counters.copies_delivered.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn a_frame_to_itself_is_a_frame_sent_and_no_datagram() {
        let (mut node, peers) = node(spec(2));
        let msg = Message::new(ProcessId(0), 1, Bytes::copy_from_slice(b"z"));
        node.transmit(Dest::To(NodeId::from(0u16)), msg.to_bytes());
        assert_eq!(node.counters.frames_sent.load(Ordering::Relaxed), 1);
        assert!(node.send_buf.is_empty(), "not encoded");
        assert!(holds_none(&peers[0]));
        assert!(holds_none(&node.socket));
        assert!(node.deliver_own(SimTime::from_millis(1)));
        let log = log(&node);
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].1.message().id, msg.id);
    }

    #[test]
    fn a_group_of_one_delivers_every_send_to_itself_without_a_datagram() {
        let due = [SimTime::from_millis(1), SimTime::from_millis(2), SimTime::from_millis(3)];
        let s = due.iter().fold(spec(1), |s, &at| s.send_at(at, ProcessId(0), [7; 40]));
        let (mut node, peers) = node(s);
        assert!(peers.is_empty());
        for at in due {
            assert!(node.fire_due(at));
            assert!(node.deliver_own(at));
            assert!(!node.deliver_own(at));
        }
        let log = log(&node);
        assert_eq!(log.iter().filter(|(_, e)| e.is_send()).count(), 3);
        assert_eq!(log.iter().filter(|(_, e)| e.is_deliver()).count(), 3);
        assert_eq!(node.malformed, 0);
        assert!(node.send_buf.is_empty(), "nothing encoded");
        assert!(holds_none(&node.socket));
        let counters = &node.counters;
        assert_eq!(counters.frames_sent.load(Ordering::Relaxed), 3);
        assert_eq!(counters.copies_delivered.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn shutdown_wakes_a_sampler_waiting_out_its_window() {
        let ten_s = ps_obs::MetricsSampler::new(10_000_000);
        let mut g = UdpGroup::launch(spec(2).sampler(ten_s.clone()), NetConfig::default());
        // Long enough for the sampler to start and wait on its window.
        g.run_until(SimTime::from_millis(20));
        let started = Instant::now();
        g.shutdown();
        assert!(started.elapsed() < Duration::from_secs(1), "took {:?}", started.elapsed());
        assert!(ten_s.is_empty(), "no window ended");
    }

    #[test]
    fn the_wait_runs_to_the_next_timer_within_its_bounds() {
        let now = SimTime::from_secs(2);
        assert_eq!(wait(None, now), MAX_WAIT, "nothing due");
        assert_eq!(wait(Some(SimTime::from_secs(1)), now), Duration::from_micros(200), "overdue");
        let ms_away = now + SimTime::from_millis(1);
        assert_eq!(wait(Some(ms_away), now), Duration::from_millis(1));
        assert_eq!(wait(Some(now + SimTime::from_secs(1)), now), MAX_WAIT, "1 s away");
        assert_eq!(MAX_WAIT, Duration::from_millis(5));
    }

    fn spec(n: u16) -> GroupSpec {
        GroupSpec::new(n).seed(9).stack_factory(|_, _, _| Stack::new(vec![]))
    }

    #[test]
    fn empty_stack_group_delivers_everywhere() {
        let s = spec(3).send_at(SimTime::from_millis(5), ProcessId(0), b"a").send_at(
            SimTime::from_millis(10),
            ProcessId(1),
            b"b",
        );
        let mut g = UdpGroup::launch(s, NetConfig::default());
        g.run_until(SimTime::from_millis(150));
        let tr = g.app_trace();
        assert_eq!(tr.sent_ids().len(), 2);
        let report = g.shutdown();
        assert_eq!(report.delivered_per_process.iter().sum::<usize>(), 6);
        assert_eq!(report.malformed_per_process.iter().sum::<usize>(), 0);
    }

    #[test]
    fn a_second_read_out_extends_the_first() {
        let s = spec(3)
            .send_at(SimTime::from_millis(5), ProcessId(0), b"a")
            .send_at(SimTime::from_millis(10), ProcessId(1), b"b")
            .send_at(SimTime::from_millis(150), ProcessId(2), b"c")
            .send_at(SimTime::from_millis(155), ProcessId(0), b"d");
        let mut g = UdpGroup::launch(s, NetConfig::default());
        g.run_until(SimTime::from_millis(100));
        let events = |g: &UdpGroup, p| g.process_log(p).events().collect::<Vec<_>>();
        let first: Vec<_> = g.group().iter().map(|&p| events(&g, p)).collect();
        assert_eq!(g.deliveries().len(), 6, "two messages, three receivers");
        g.run_until(SimTime::from_millis(250));
        for (&p, before) in g.group().iter().zip(&first) {
            let log = events(&g, p);
            assert_eq!(&log[..before.len()], &before[..], "{p} keeps the first read's entries");
            assert!(log.windows(2).all(|w| w[0].0 <= w[1].0), "{p}'s log is in time order");
        }
        assert_eq!(g.app_trace().sent_ids().len(), 4);
        assert_eq!(g.deliveries().len(), 12, "four messages, three receivers");
        let report = g.shutdown();
        assert_eq!(report.delivered_per_process, vec![4; 3], "taken entries count too");
    }

    #[test]
    fn recorder_and_sampler_are_fed() {
        let rec = ps_obs::Recorder::with_capacity(4096);
        let sampler = ps_obs::MetricsSampler::new(20_000);
        let s = spec(2).recorder(rec.clone()).sampler(sampler.clone()).send_at(
            SimTime::from_millis(5),
            ProcessId(0),
            b"x",
        );
        let mut g = UdpGroup::launch(s, NetConfig::default());
        g.run_until(SimTime::from_millis(120));
        g.shutdown();
        if !rec.is_enabled() {
            return; // tap feature off: nothing recorded by design.
        }
        let events = rec.snapshot();
        let sends = events.iter().filter(|e| matches!(e.ev, ObsEvent::AppSend { .. })).count();
        let delivers =
            events.iter().filter(|e| matches!(e.ev, ObsEvent::AppDeliver { .. })).count();
        assert_eq!(sends, 1);
        assert_eq!(delivers, 2, "both processes deliver (incl. self)");
        assert!(events.iter().any(|e| matches!(e.ev, ObsEvent::FrameSend { .. })));
        assert!(events.iter().any(|e| matches!(e.ev, ObsEvent::FrameDeliver { .. })));
        assert!(!sampler.is_empty(), "sampler saw at least one window");
        let total_frames: u64 = sampler.samples().iter().map(|s| s.frames_sent).sum();
        assert!(total_frames >= 1);
    }

    #[test]
    fn mean_latency_is_positive_and_sane() {
        let s = spec(2).send_at(SimTime::from_millis(2), ProcessId(0), b"x");
        let mut g = UdpGroup::launch(s, NetConfig::default());
        g.run_until(SimTime::from_millis(100));
        let lat = g.mean_delivery_latency().expect("something delivered");
        assert!(lat < SimTime::from_millis(60), "loopback latency {lat} way too high");
        g.shutdown();
    }

    #[test]
    #[should_panic(expected = "stack_factory")]
    fn launch_without_factory_panics() {
        let _ = UdpGroup::launch(GroupSpec::new(2), NetConfig::default());
    }
}
