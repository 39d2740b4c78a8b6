//! The UDP-loopback group runtime: one OS thread + one socket per process.
//!
//! Each node thread stages its stack's effects and applies them after the
//! call, keeps a due-heap for timers and scheduled workload, and maps
//! wall-clock time onto [`SimTime`] microseconds from a shared epoch.
//! Frames leave the process as real datagrams (`dgram` module) and arrive
//! through `recv_from`, and the run records into `ps-obs` exactly like a
//! simulated run: `AppSend`/`AppDeliver`/`FrameSend`/`FrameDeliver`/
//! `TimerFire` events with wall-clock `at_us`, monitors and the
//! `MetricsSampler` fed identically.

use crate::dgram;
use ps_bytes::Bytes;
use ps_simnet::{DetRng, SimTime};
use ps_stack::{Cast, Driver, Frame, GroupSpec, LayerId, Stack, StackEnv};
use ps_trace::{Event, Message, MsgId, ProcessId, Trace};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
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
    /// Application messages delivered per process.
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

type SharedLog = Arc<Mutex<Vec<(SimTime, u16, Event)>>>;

/// What a due-heap entry fires.
#[derive(PartialEq, Eq)]
enum Pending {
    /// A layer timer: `(layer, token)`.
    Timer(LayerId, u32),
    /// The node's scheduled application send at this index.
    App(usize),
}

/// Heap entry ordered by due instant, FIFO on ties.
#[derive(PartialEq, Eq)]
struct Due(Reverse<Instant>, u64, Pending);

impl PartialOrd for Due {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Due {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0).then(Reverse(self.1).cmp(&Reverse(other.1)))
    }
}

/// The stack's environment inside a node thread. Emissions are staged and
/// applied after each stack call, as in the simulated runtime.
struct NetEnv<'a> {
    me: ProcessId,
    group: &'a [ProcessId],
    epoch: Instant,
    rng: &'a mut DetRng,
    outbox: &'a mut Vec<(Frame, ps_obs::CauseId)>,
    new_timers: &'a mut Vec<(Duration, LayerId, u32)>,
    log: &'a SharedLog,
    delivered: &'a mut usize,
    /// The recording session of the node-loop event being processed,
    /// `None` when the recorder is off.
    obs: Option<&'a ps_obs::Writer<'a>>,
    cause: ps_obs::CauseId,
}

impl NetEnv<'_> {
    fn at_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

impl StackEnv for NetEnv<'_> {
    fn me(&self) -> ProcessId {
        self.me
    }
    fn group(&self) -> &[ProcessId] {
        self.group
    }
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.at_us())
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
                self.at_us(),
                u32::from(self.me.0),
                self.cause,
                ps_obs::ObsEvent::FrameSend {
                    bytes: frame.bytes.len() as u32,
                    copies: copies as u32,
                },
            );
        }
        let cause = self.cause;
        self.outbox.push((frame, cause));
    }
    fn deliver(&mut self, _src: ProcessId, msg: Message) {
        *self.delivered += 1;
        let at = self.now();
        if let Some(o) = self.obs.filter(|_| !msg.id.is_control()) {
            // Same filter as the simulated runtime: control envelopes
            // (reserved seq space) are not application traffic.
            o.record_caused(
                at.as_micros(),
                u32::from(self.me.0),
                self.cause,
                ps_obs::ObsEvent::AppDeliver {
                    sender: u32::from(msg.id.sender.0),
                    seq: msg.id.seq,
                },
            );
        }
        self.log.lock().expect("net log poisoned").push((
            at,
            self.me.0,
            Event::deliver(self.me, msg),
        ));
    }
    fn set_timer(&mut self, delay: SimTime, id: LayerId, token: u32) {
        self.new_timers.push((Duration::from_micros(delay.as_micros()), id, token));
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

struct NodeThread {
    me: ProcessId,
    group: Vec<ProcessId>,
    stack: Stack,
    socket: UdpSocket,
    peers: Vec<SocketAddr>,
    epoch: Instant,
    rng: DetRng,
    cfg: NetConfig,
    next_seq: u64,
    scheduled: Vec<Bytes>,
    log: SharedLog,
    rec: ps_obs::Recorder,
    rec_on: bool,
    counters: Arc<NetCounters>,
    stop: Arc<AtomicBool>,
    delivered: usize,
    malformed: usize,
    heap: BinaryHeap<Due>,
    heap_seq: u64,
    /// Frames and timers a stack call staged; `apply` drains both, so they
    /// keep their capacity from one call to the next.
    outbox: Vec<(Frame, ps_obs::CauseId)>,
    new_timers: Vec<(Duration, LayerId, u32)>,
}

impl NodeThread {
    fn push_due(&mut self, at: Instant, item: Pending) {
        self.heap_seq += 1;
        self.heap.push(Due(Reverse(at), self.heap_seq, item));
    }

    /// Applies staged effects: arm timers, put frames on the wire.
    fn apply(&mut self) {
        let now = Instant::now();
        let mut timers = std::mem::take(&mut self.new_timers);
        for (delay, id, token) in timers.drain(..) {
            self.push_due(now + delay, Pending::Timer(id, token));
        }
        self.new_timers = timers;
        let mut outbox = std::mem::take(&mut self.outbox);
        for (frame, _cause) in outbox.drain(..) {
            let wire = dgram::encode(self.me, &frame.bytes);
            assert!(
                wire.len() <= self.cfg.max_datagram,
                "frame of {} bytes exceeds max_datagram {}",
                wire.len(),
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
                    let _ = self.socket.send_to(&wire, self.peers[d.index()]);
                }
            }
        }
        self.outbox = outbox;
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
            (Some(w), Some(ev)) => w.record(self.at_us(), u32::from(self.me.0), ev),
            _ => ps_obs::CauseId::NONE,
        };
        let mut env = NetEnv {
            me: self.me,
            group: &self.group,
            epoch: self.epoch,
            rng: &mut self.rng,
            outbox: &mut self.outbox,
            new_timers: &mut self.new_timers,
            log: &self.log,
            delivered: &mut self.delivered,
            obs: session.as_ref(),
            cause,
        };
        let r = f(&mut self.stack, &mut env);
        drop(session);
        self.apply();
        r
    }

    fn at_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn fire_due(&mut self) {
        loop {
            let due = self.heap.peek().is_some_and(|d| d.0 .0 <= Instant::now());
            if !due {
                break;
            }
            let Due(_, _, pending) = self.heap.pop().expect("peeked");
            match pending {
                Pending::App(idx) => {
                    let body = self.scheduled[idx].clone();
                    let msg = Message::new(self.me, self.next_seq, body);
                    self.next_seq += 1;
                    // The send is a causal root here: the simulator
                    // parents it on the engine's timer event, but a
                    // real schedule has no recorded trigger.
                    let head = self.rec_on.then_some(ps_obs::ObsEvent::AppSend {
                        sender: u32::from(msg.id.sender.0),
                        seq: msg.id.seq,
                    });
                    self.log.lock().expect("net log poisoned").push((
                        SimTime::from_micros(self.at_us()),
                        self.me.0,
                        Event::send(msg.clone()),
                    ));
                    self.with_env(head, |stack, env| stack.send(&msg, env));
                }
                Pending::Timer(id, token) => {
                    let head = self.rec_on.then_some(ps_obs::ObsEvent::TimerFire {
                        token: (u64::from(id.0) << 32) | u64::from(token),
                    });
                    self.with_env(head, |stack, env| {
                        stack.timer(id, token, env);
                    });
                }
            }
        }
    }

    fn run(mut self) -> (usize, usize) {
        // First scheduled sends were pushed before spawn; launch the stack.
        self.with_env(None, |stack, env| stack.launch(env));
        let mut buf = vec![0u8; self.cfg.max_datagram];
        while !self.stop.load(Ordering::Relaxed) {
            self.fire_due();
            let wait = self
                .heap
                .peek()
                .map(|d| d.0 .0.saturating_duration_since(Instant::now()))
                .unwrap_or(MAX_WAIT)
                .clamp(Duration::from_micros(200), MAX_WAIT);
            self.socket.set_read_timeout(Some(wait)).expect("set_read_timeout");
            match self.socket.recv_from(&mut buf) {
                Ok((n, _addr)) => match dgram::decode(&buf[..n]) {
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
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(e) => panic!("recv_from failed on {}: {e}", self.me),
            }
        }
        (self.delivered, self.malformed)
    }
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
    log: SharedLog,
    rec: ps_obs::Recorder,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<(usize, usize)>>,
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
    /// of range, or a socket cannot bind.
    pub fn launch(spec: GroupSpec, cfg: NetConfig) -> Self {
        let factory = spec.factory.as_ref().expect("GroupSpec requires a stack_factory");
        let group = spec.group();
        let n = group.len();

        // Sort workload per process; heap ties break FIFO, so same-offset
        // sends fire in schedule order exactly like the simulated driver.
        let mut per_node: Vec<Vec<(SimTime, Bytes)>> = vec![Vec::new(); n];
        for (at, p, body) in &spec.sends {
            assert!(p.index() < n, "scheduled sender {p} out of range");
            per_node[p.index()].push((*at, body.clone()));
        }
        for sends in &mut per_node {
            sends.sort_by_key(|(at, _)| *at);
        }

        let sockets: Vec<UdpSocket> =
            (0..n).map(|_| UdpSocket::bind(cfg.bind_addr).expect("bind loopback socket")).collect();
        let peers: Vec<SocketAddr> =
            sockets.iter().map(|s| s.local_addr().expect("local_addr")).collect();

        let rec = spec.recorder.clone().unwrap_or_default();
        let rec_on = rec.is_enabled();
        let log: SharedLog = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(NetCounters::default());
        let epoch = Instant::now();

        let mut threads = Vec::new();
        for (i, socket) in sockets.into_iter().enumerate() {
            let me = ProcessId(i as u16);
            let mut ids = ps_stack::IdGen::new();
            let stack = factory(me, &group, &mut ids);
            let mut node = NodeThread {
                me,
                group: group.clone(),
                stack,
                socket,
                peers: peers.clone(),
                epoch,
                rng: DetRng::new(spec.seed ^ ((i as u64) << 16)),
                cfg: cfg.clone(),
                next_seq: 1,
                scheduled: per_node[i].iter().map(|(_, b)| b.clone()).collect(),
                log: Arc::clone(&log),
                rec: rec.clone(),
                rec_on,
                counters: Arc::clone(&counters),
                stop: Arc::clone(&stop),
                delivered: 0,
                malformed: 0,
                heap: BinaryHeap::new(),
                heap_seq: 0,
                outbox: Vec::new(),
                new_timers: Vec::new(),
            };
            for (idx, (at, _)) in per_node[i].iter().enumerate() {
                node.push_due(epoch + Duration::from_micros(at.as_micros()), Pending::App(idx));
            }
            threads.push(
                std::thread::Builder::new()
                    .name(format!("ps-net-p{i}"))
                    .spawn(move || node.run())
                    .expect("spawn node thread"),
            );
        }

        let sampler_thread = spec.sampler.clone().map(|sampler| {
            let stop = Arc::clone(&stop);
            let counters = Arc::clone(&counters);
            let interval = Duration::from_micros(sampler.interval_us());
            std::thread::Builder::new()
                .name("ps-net-sampler".into())
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

        Self { group, addrs: peers, epoch, log, rec, stop, threads, sampler_thread }
    }

    /// Where each process's socket is bound, by process index — for tests
    /// and tools that aim datagrams of their own at a node.
    pub fn socket_addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Stops every node thread (and the sampler), joins them, and returns
    /// the per-process tallies. Call after [`Driver::run_until`] — the
    /// results surface any node-thread panic.
    pub fn shutdown(mut self) -> NetReport {
        self.stop.store(true, Ordering::Relaxed);
        let mut delivered_per_process = Vec::new();
        let mut malformed_per_process = Vec::new();
        for t in self.threads.drain(..) {
            let (delivered, malformed) = t.join().expect("node thread panicked");
            delivered_per_process.push(delivered);
            malformed_per_process.push(malformed);
        }
        if let Some(t) = self.sampler_thread.take() {
            t.join().expect("sampler thread panicked");
        }
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
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    fn group(&self) -> &[ProcessId] {
        &self.group
    }

    fn app_trace(&self) -> Trace {
        let mut evs = self.log.lock().expect("net log poisoned").clone();
        // Stable sort: same-microsecond events at one node keep their
        // thread-local order, mirroring the simulated driver's (at, node,
        // log-index) key.
        evs.sort_by_key(|&(at, node, _)| (at, node));
        evs.into_iter().map(|(_, _, e)| e).collect()
    }

    fn send_times(&self) -> BTreeMap<MsgId, SimTime> {
        let mut out = BTreeMap::new();
        for (at, _, ev) in self.log.lock().expect("net log poisoned").iter() {
            if let Event::Send(m) = ev {
                out.insert(m.id, *at);
            }
        }
        out
    }

    fn deliveries(&self) -> Vec<ps_stack::DeliveryRecord> {
        let mut out = Vec::new();
        for (at, _, ev) in self.log.lock().expect("net log poisoned").iter() {
            if let Event::Deliver(p, m) = ev {
                out.push(ps_stack::DeliveryRecord { msg: m.id, process: *p, at: *at });
            }
        }
        out
    }

    fn recorder(&self) -> &ps_obs::Recorder {
        &self.rec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
