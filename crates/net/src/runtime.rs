//! The UDP-loopback group runtime: one OS thread + one socket per process.
//!
//! Each node thread runs its stack beside the process's
//! [`AppProcess`] — the transport-independent half the simulated driver
//! runs too — stages the stack's effects and applies them after the call,
//! keeps timers and scheduled workload in a [`ps_simnet::EventQueue`]
//! keyed by microseconds from a shared epoch, and maps wall-clock time
//! onto [`SimTime`] the same way. Frames leave the process as real
//! datagrams (`dgram` module) and arrive through `recv_from`, and the run
//! records into `ps-obs` exactly like a simulated run:
//! `AppSend`/`AppDeliver`/`FrameSend`/`FrameDeliver`/`TimerFire` events
//! with wall-clock `at_us`, monitors and the `MetricsSampler` fed
//! identically.

use crate::dgram;
use ps_simnet::{DetRng, EventQueue, SimTime};
use ps_stack::{AppLog, AppProcess, Cast, Driver, Frame, GroupSpec, LayerId, Stack, StackEnv};
use ps_trace::{Message, ProcessId};
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

/// One process's application half, shared between its node thread and
/// the [`UdpGroup`] that reads its log.
type SharedApp = Arc<Mutex<AppProcess>>;

fn lock(app: &SharedApp) -> MutexGuard<'_, AppProcess> {
    app.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What a node's event queue fires.
enum Pending {
    /// A layer timer: `(layer, token)`.
    Timer(LayerId, u32),
    /// The node's scheduled application send at this index.
    App(usize),
}

/// The stack's environment inside a node thread. Emissions are staged and
/// applied after each stack call, as in the simulated runtime.
struct NetEnv<'a> {
    me: ProcessId,
    group: &'a [ProcessId],
    epoch: Instant,
    rng: &'a mut DetRng,
    outbox: &'a mut Vec<Frame>,
    new_timers: &'a mut Vec<(SimTime, LayerId, u32)>,
    app: &'a mut AppProcess,
    /// The recording session of the node-loop event being processed,
    /// `None` when the recorder is off.
    obs: Option<&'a ps_obs::Writer<'a>>,
    cause: ps_obs::CauseId,
}

impl StackEnv for NetEnv<'_> {
    fn me(&self) -> ProcessId {
        self.me
    }
    fn group(&self) -> &[ProcessId] {
        self.group
    }
    fn now(&self) -> SimTime {
        since(self.epoch)
    }
    fn rng(&mut self) -> &mut DetRng {
        self.rng
    }
    fn transmit(&mut self, frame: Frame) {
        // Record the send intent here (where the causal context lives);
        // the socket write happens when effects are applied.
        if let Some(o) = self.obs {
            let copies = match frame.dest {
                Cast::All => self.group.len(),
                Cast::Others => self.group.len() - 1,
                Cast::To(_) => 1,
            };
            o.record_caused(
                self.now().as_micros(),
                u32::from(self.me.0),
                self.cause,
                ps_obs::ObsEvent::FrameSend {
                    bytes: frame.bytes.len() as u32,
                    copies: copies as u32,
                },
            );
        }
        self.outbox.push(frame);
    }
    fn deliver(&mut self, _src: ProcessId, msg: Message) {
        self.app.deliver(self.now(), msg, self.obs, self.cause);
    }
    fn set_timer(&mut self, delay: SimTime, id: LayerId, token: u32) {
        self.new_timers.push((delay, id, token));
    }
    fn obs(&self) -> Option<&ps_obs::Writer<'_>> {
        self.obs
    }
    fn cause(&self) -> ps_obs::CauseId {
        self.cause
    }
    fn set_cause(&mut self, cause: ps_obs::CauseId) -> ps_obs::CauseId {
        std::mem::replace(&mut self.cause, cause)
    }
}

/// Wall-clock time since `epoch`, on the simulator's microsecond scale.
fn since(epoch: Instant) -> SimTime {
    SimTime::from_micros(epoch.elapsed().as_micros() as u64)
}

struct NodeThread {
    me: ProcessId,
    group: Vec<ProcessId>,
    stack: Stack,
    app: SharedApp,
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
    queue: EventQueue<Pending>,
    /// Frames and timers a stack call staged; `apply` drains both, so they
    /// keep their capacity from one call to the next.
    outbox: Vec<Frame>,
    new_timers: Vec<(SimTime, LayerId, u32)>,
    /// The datagram being sent: envelope, then the frame's bytes. It grows
    /// to the largest datagram this node sends and no further.
    send_buf: Vec<u8>,
    /// `max_datagram` bytes, allocated with the node before its thread
    /// starts, so that a run's memory does not depend on when the OS
    /// gets round to starting it.
    recv_buf: Vec<u8>,
}

impl NodeThread {
    /// Applies staged effects: arm timers, put frames on the wire.
    fn apply(&mut self) {
        let now = since(self.epoch);
        for (delay, id, token) in self.new_timers.drain(..) {
            self.queue.push(now + delay, Pending::Timer(id, token));
        }
        for frame in self.outbox.drain(..) {
            dgram::encode_into(self.me, &frame.bytes, &mut self.send_buf);
            assert!(
                self.send_buf.len() <= self.cfg.max_datagram,
                "{}: frame of {} bytes exceeds max_datagram {}",
                self.me,
                self.send_buf.len(),
                self.cfg.max_datagram
            );
            self.counters.frames_sent.fetch_add(1, Ordering::Relaxed);
            for &d in &self.group {
                let hears = match frame.dest {
                    Cast::All => true,
                    Cast::Others => d != self.me,
                    Cast::To(p) => d == p,
                };
                if hears {
                    // A peer that already shut its socket is fine to ignore.
                    let _ = self.socket.send_to(&self.send_buf, self.peers[d.index()]);
                }
            }
        }
    }

    /// Runs one stack call, then applies what it staged. With the
    /// recorder on, `head` (what triggered the call; a causal root) and
    /// everything the stack records go through one hold of the shared
    /// ring, released before any socket write.
    fn with_env<R>(
        &mut self,
        head: Option<ps_obs::ObsEvent>,
        f: impl FnOnce(&mut Stack, &mut NetEnv<'_>) -> R,
    ) -> R {
        let session = if self.rec_on { self.rec.writer() } else { None };
        let cause = match (&session, head) {
            (Some(w), Some(ev)) => {
                w.record(since(self.epoch).as_micros(), u32::from(self.me.0), ev)
            }
            _ => ps_obs::CauseId::NONE,
        };
        let mut app = lock(&self.app);
        let mut env = NetEnv {
            me: self.me,
            group: &self.group,
            epoch: self.epoch,
            rng: &mut self.rng,
            outbox: &mut self.outbox,
            new_timers: &mut self.new_timers,
            app: &mut app,
            obs: session.as_ref(),
            cause,
        };
        let r = f(&mut self.stack, &mut env);
        drop(app);
        drop(session);
        self.apply();
        r
    }

    fn fire_due(&mut self) {
        while self.queue.peek_time().is_some_and(|at| at <= since(self.epoch)) {
            let (_, pending) = self.queue.pop().expect("peeked");
            match pending {
                Pending::App(idx) => self.with_env(None, |stack, env| {
                    // The send is a causal root here: the simulator
                    // parents it on the engine's timer event, but a real
                    // schedule has no recorded trigger.
                    let (msg, cause) = env.app.send(idx, env.now(), env.obs, ps_obs::CauseId::NONE);
                    env.cause = cause;
                    stack.send(&msg, env);
                }),
                Pending::Timer(id, token) => {
                    let head = self.rec_on.then_some(ps_obs::ObsEvent::TimerFire {
                        token: (u64::from(id.0) << 32) | u64::from(token),
                    });
                    self.with_env(head, |stack, env| stack.timer(id, token, env));
                }
            }
        }
    }

    fn run(mut self) -> usize {
        // The scheduled sends were queued before spawn; launch the stack.
        self.with_env(None, |stack, env| stack.launch(env));
        while !self.stop.load(Ordering::Relaxed) {
            self.fire_due();
            let wait = self
                .queue
                .peek_time()
                .map(|at| Duration::from_micros(at.saturating_sub(since(self.epoch)).as_micros()))
                .unwrap_or(MAX_WAIT)
                .clamp(Duration::from_micros(200), MAX_WAIT);
            // Fails only on a zero duration, and `wait` is at least 200 µs.
            self.socket.set_read_timeout(Some(wait)).expect("set_read_timeout");
            match self.socket.recv_from(&mut self.recv_buf) {
                Ok((n, _addr)) => match dgram::decode(&self.recv_buf[..n]) {
                    Ok((src, payload)) => {
                        self.counters.copies_delivered.fetch_add(1, Ordering::Relaxed);
                        // Causal root: the sender's FrameSend lives on
                        // another host's timeline and its CauseId is
                        // not ferried across the wire (a documented
                        // sim-vs-real divergence; docs/transport.md).
                        let head = self.rec_on.then_some(ps_obs::ObsEvent::FrameDeliver {
                            src: u32::from(src.0),
                            bytes: payload.len() as u32,
                        });
                        self.with_env(head, |stack, env| stack.receive(src, payload, env));
                    }
                    Err(_) => self.malformed += 1,
                },
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
    apps: Vec<SharedApp>,
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
        let halves = AppProcess::split(spec.n, spec.sends);

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

        let mut apps = Vec::new();
        let mut threads = Vec::new();
        for ((me, socket), (app, due)) in group.iter().copied().zip(sockets).zip(halves) {
            let mut ids = ps_stack::IdGen::new();
            let stack = factory(me, &group, &mut ids);
            let app = Arc::new(Mutex::new(app));
            apps.push(Arc::clone(&app));
            let mut queue = EventQueue::new();
            for (idx, at) in due.into_iter().enumerate() {
                queue.push(at, Pending::App(idx));
            }
            let node = NodeThread {
                me,
                group: group.clone(),
                stack,
                app,
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
                outbox: Vec::new(),
                new_timers: Vec::new(),
                send_buf: Vec::new(),
                recv_buf: vec![0; cfg.max_datagram],
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
                            std::thread::sleep((window_end - now).min(Duration::from_millis(5)));
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
            apps,
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
        self.stop.store(true, Ordering::Relaxed);
        let malformed_per_process =
            self.threads.drain(..).map(|t| t.join().expect("node thread panicked")).collect();
        if let Some(t) = self.sampler_thread.take() {
            t.join().expect("sampler thread panicked");
        }
        let taken = self.logs.take().unwrap_or_else(|| std::mem::take(self.earlier_mut()));
        let delivered_per_process = self
            .apps
            .iter()
            .zip(&taken)
            .map(|(app, taken)| taken.delivered() + lock(app).log().delivered())
            .collect();
        NetReport { delivered_per_process, malformed_per_process }
    }
}

impl Drop for UdpGroup {
    fn drop(&mut self) {
        // Never leak node threads if the caller skipped `shutdown`.
        self.stop.store(true, Ordering::Relaxed);
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
        loop {
            let now = Instant::now();
            if now >= target {
                break;
            }
            std::thread::sleep((target - now).min(Duration::from_millis(20)));
        }
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
    /// each node's entries out ([`AppProcess::take_log`]) and appends
    /// them to what earlier read-outs took; nothing is copied.
    fn process_log(&self, p: ProcessId) -> &AppLog {
        let logs = self.logs.get_or_init(|| {
            let mut earlier = self.earlier.lock().unwrap_or_else(PoisonError::into_inner);
            earlier
                .iter_mut()
                .zip(&self.apps)
                .map(|(before, app)| {
                    let mut log = std::mem::take(before);
                    log.append(lock(app).take_log());
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
        let sends =
            events.iter().filter(|e| matches!(e.ev, ps_obs::ObsEvent::AppSend { .. })).count();
        let delivers =
            events.iter().filter(|e| matches!(e.ev, ps_obs::ObsEvent::AppDeliver { .. })).count();
        assert_eq!(sends, 1);
        assert_eq!(delivers, 2, "both processes deliver (incl. self)");
        assert!(events.iter().any(|e| matches!(e.ev, ps_obs::ObsEvent::FrameSend { .. })));
        assert!(events.iter().any(|e| matches!(e.ev, ps_obs::ObsEvent::FrameDeliver { .. })));
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
