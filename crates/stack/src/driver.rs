//! Medium-agnostic group drivers: one description, many transports.
//!
//! A [`GroupSpec`] is everything about a group run that does **not**
//! depend on how frames move: the membership size, the seed, the stack
//! factory, the scheduled application sends, and the observability
//! handles. A *driver* turns a spec into a running group over some
//! transport and exposes the run's results behind the [`Driver`] trait:
//!
//! * [`GroupSim`](crate::GroupSim) (this crate) runs the spec over the
//!   deterministic discrete-event simulator (`ps-simnet`) — build it with
//!   [`GroupSimBuilder::from_spec`](crate::GroupSimBuilder::from_spec);
//! * `ps_net::UdpGroup` runs the *identical* spec over real UDP sockets
//!   between OS threads, one per process.
//!
//! The point of the split is the paper's own claim: protocol switching
//! exploits meta-properties of the *stack*, not of the simulator. Because
//! a spec names no transport, the same unmodified `Layer` code can run in
//! simulation and over a real network, and the harness can diff the two
//! (`repro real --compare`; see `docs/transport.md`).
//!
//! What the trait deliberately does **not** promise: byte-identity across
//! drivers. A simulated run is deterministic for a seed; a socket run's
//! timestamps are wall-clock. The comparable surface is the one the trait
//! exposes — the application-level trace (property verdicts), delivery
//! records (counts, latencies), and the recorder stream (monitors).

use crate::runtime::StackFactory;
use crate::{IdGen, Stack};
use ps_bytes::Bytes;
use ps_obs::{CauseId, ObsEvent, Writer};
use ps_simnet::SimTime;
use ps_trace::{Event, Message, MsgId, ProcessId, Trace};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The transport-independent description of a group run.
///
/// Feed one to [`GroupSimBuilder::from_spec`](crate::GroupSimBuilder::from_spec)
/// for a simulated run, or to `ps_net::UdpGroup::launch` for a real one.
/// A [`GroupSimBuilder`](crate::GroupSimBuilder) holds one and adds only
/// what names the simulated medium.
pub struct GroupSpec {
    /// Group size; processes are `ProcessId(0..n)`.
    pub n: u16,
    /// Seed for every deterministic random stream the run forks.
    pub seed: u64,
    /// Scheduled application multicasts: `(at, sender, body)`. For real
    /// drivers `at` is an offset from the run's start instant.
    pub sends: Vec<(SimTime, ProcessId, Bytes)>,
    /// Builds one process's stack (same contract as
    /// [`GroupSimBuilder::stack_factory`](crate::GroupSimBuilder::stack_factory)).
    pub factory: Option<StackFactory>,
    /// Event recorder both drivers record into (monitors attach here).
    pub recorder: Option<ps_obs::Recorder>,
    /// Periodic load sampler; simulated runs drive it off the sim clock,
    /// real runs off the wall clock.
    pub sampler: Option<ps_obs::MetricsSampler>,
}

impl std::fmt::Debug for GroupSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupSpec")
            .field("n", &self.n)
            .field("seed", &self.seed)
            .field("scheduled_sends", &self.sends.len())
            .finish()
    }
}

impl GroupSpec {
    /// Starts a spec for a group of `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: u16) -> Self {
        assert!(n > 0, "a group needs at least one process");
        Self { n, seed: 0, sends: Vec::new(), factory: None, recorder: None, sampler: None }
    }

    /// Sets the random seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-process stack factory.
    pub fn stack_factory<F>(mut self, f: F) -> Self
    where
        F: Fn(ProcessId, &[ProcessId], &mut IdGen) -> Stack + 'static,
    {
        self.factory = Some(Box::new(f));
        self
    }

    /// Attaches an event recorder; keep a clone to read it after the run.
    pub fn recorder(mut self, rec: ps_obs::Recorder) -> Self {
        self.recorder = Some(rec);
        self
    }

    /// Attaches a periodic load sampler; keep a clone to read the series.
    pub fn sampler(mut self, sampler: ps_obs::MetricsSampler) -> Self {
        self.sampler = Some(sampler);
        self
    }

    /// Schedules `sender` to multicast `body` at offset `at`.
    pub fn send_at(mut self, at: SimTime, sender: ProcessId, body: impl AsRef<[u8]>) -> Self {
        self.sends.push((at, sender, Bytes::copy_from_slice(body.as_ref())));
        self
    }

    /// Schedules a batch of sends.
    pub fn sends(mut self, batch: impl IntoIterator<Item = (SimTime, ProcessId, Bytes)>) -> Self {
        self.sends.extend(batch);
        self
    }

    /// The group membership this spec describes.
    pub fn group(&self) -> Vec<ProcessId> {
        (0..self.n).map(ProcessId).collect()
    }
}

/// One application-level delivery observed during a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// Which message.
    pub msg: MsgId,
    /// Which process delivered it.
    pub process: ProcessId,
    /// When.
    pub at: SimTime,
}

/// The bodies of a run's scheduled sends, shared by every process of the
/// group: `[sender][seq - 1]`, where seq `k` is the sender's `k`-th due send.
type Schedule = Arc<[Vec<Bytes>]>;

/// One entry of an [`AppLog`]: the instant, and either the id of a
/// scheduled message — whose body is the schedule's — or the position of
/// the whole message in the log's side table.
#[derive(Debug, Clone, Copy)]
struct Entry {
    at: SimTime,
    /// The seq of a scheduled message; the side-table index otherwise.
    key: u64,
    sender: u16,
    send: bool,
    side: bool,
}

// An entry is a third of the `(SimTime, Event)` it replaces, and holds no
// handle on a frame.
const _: () = assert!(std::mem::size_of::<Entry>() <= 24);

/// One process's application log: its sends and deliveries with their
/// instants, in the order it made them.
///
/// A send of the schedule, and a delivery whose body equals the scheduled
/// body for its id, are kept as the id alone against the group's one
/// shared table of scheduled bodies; any other message — a view change, a control envelope, an
/// id outside the schedule, an altered body — is kept whole beside them.
/// [`AppLog::events`] therefore reads back exactly the messages the
/// process sent and delivered, and the log pins no received frame.
#[derive(Debug, Clone, Default)]
pub struct AppLog {
    me: ProcessId,
    schedule: Schedule,
    entries: Vec<Entry>,
    side: Vec<Message>,
}

impl AppLog {
    /// Number of deliveries logged.
    pub fn delivered(&self) -> usize {
        self.entries.iter().filter(|e| !e.send).count()
    }

    /// Every entry as the event it logs, with its instant. A body is a
    /// handle cloned from the schedule or the side table, not a copy.
    pub fn events(&self) -> impl Iterator<Item = (SimTime, Event)> + '_ {
        self.entries.iter().map(|e| (e.at, self.event(e)))
    }

    /// Appends `later`'s entries to this log's: what one process logged
    /// after what it logged before. An empty log takes `later` as it is.
    pub fn append(&mut self, mut later: AppLog) {
        if self.entries.is_empty() {
            *self = later;
            return;
        }
        let base = self.side.len() as u64;
        let rebase = |e: &Entry| if e.side { Entry { key: e.key + base, ..*e } } else { *e };
        self.entries.extend(later.entries.iter().map(rebase));
        self.side.append(&mut later.side);
    }

    /// The scheduled body of `(sender, seq)`, if the schedule has one.
    fn scheduled(&self, sender: ProcessId, seq: u64) -> Option<&Bytes> {
        let idx = usize::try_from(seq.checked_sub(1)?).ok()?;
        self.schedule.get(sender.index())?.get(idx)
    }

    /// Logs `msg`, by id when `compact` and whole otherwise.
    fn push(&mut self, at: SimTime, msg: Message, send: bool, compact: bool) {
        let (key, sender) = if compact {
            (msg.id.seq, msg.id.sender.0)
        } else {
            self.side.push(msg);
            (self.side.len() as u64 - 1, 0)
        };
        self.entries.push(Entry { at, key, sender, send, side: !compact });
    }

    /// The id an entry logs, read off the entry.
    fn id(&self, e: &Entry) -> MsgId {
        if e.side {
            self.side[e.key as usize].id
        } else {
            MsgId::new(ProcessId(e.sender), e.key)
        }
    }

    fn event(&self, e: &Entry) -> Event {
        let msg = if e.side {
            self.side[e.key as usize].clone()
        } else {
            let sender = ProcessId(e.sender);
            let body = self.scheduled(sender, e.key).expect("a compact entry is scheduled");
            Message::new(sender, e.key, body.clone())
        };
        if e.send {
            Event::send(msg)
        } else {
            Event::deliver(self.me, msg)
        }
    }
}

/// The transport-independent half of one process, which every driver
/// runs beside the process's stack: its share of the scheduled sends, the
/// numbering of its messages, and its application log.
#[derive(Debug)]
pub struct AppProcess {
    next_seq: u64,
    log: AppLog,
    /// Entries a run of the scheduled workload appends to `log`: one per
    /// send of the group (its delivery here) plus one per own send.
    log_room: usize,
}

impl AppProcess {
    pub(crate) fn me(&self) -> ProcessId {
        self.log.me
    }

    /// One process half per member of a group of `n`, each with the due
    /// instants of its scheduled sends: [`AppProcess::send`] of `i` is due
    /// at the `i`-th. Same-instant sends keep their schedule order. The
    /// bodies go into one table the halves share.
    ///
    /// # Panics
    ///
    /// Panics if a scheduled sender is out of range.
    pub fn split(n: u16, sends: Vec<(SimTime, ProcessId, Bytes)>) -> Vec<(Self, Vec<SimTime>)> {
        let group_sends = sends.len();
        let mut per_node: Vec<Vec<(SimTime, Bytes)>> = vec![Vec::new(); usize::from(n)];
        for (at, p, body) in sends {
            assert!(p.index() < per_node.len(), "scheduled sender {p} out of range");
            per_node[p.index()].push((at, body));
        }
        let mut dues = Vec::with_capacity(per_node.len());
        let schedule: Schedule = per_node
            .into_iter()
            .map(|mut own| {
                own.sort_by_key(|(at, _)| *at);
                let (due, bodies) = own.into_iter().unzip();
                dues.push(due);
                bodies
            })
            .collect();
        (0..n)
            .zip(dues)
            .map(|(me, due): (u16, Vec<SimTime>)| {
                let app = AppProcess {
                    next_seq: 1,
                    log: AppLog {
                        me: ProcessId(me),
                        schedule: Arc::clone(&schedule),
                        entries: Vec::new(),
                        side: Vec::new(),
                    },
                    log_room: group_sends + due.len(),
                };
                (app, due)
            })
            .collect()
    }

    /// Numbers and logs scheduled send `idx` for the caller to multicast.
    /// With a recorder session, records `AppSend` under `parent` and
    /// returns its id as the cause of the multicast's frames; else `parent`.
    pub fn send(
        &mut self,
        idx: usize,
        at: SimTime,
        obs: Option<&Writer<'_>>,
        parent: CauseId,
    ) -> (Message, CauseId) {
        let body = self.log.schedule[self.me().index()][idx].clone();
        let msg = Message::new(self.me(), self.next_seq, body);
        self.next_seq += 1;
        let node = u32::from(self.me().0);
        let ev = ObsEvent::AppSend { sender: node, seq: msg.id.seq };
        let cause = obs.map_or(parent, |o| o.record_caused(at.as_micros(), node, parent, ev));
        let compact = msg.id.seq == idx as u64 + 1;
        self.append(at, msg.clone(), true, compact);
        (msg, cause)
    }

    /// Logs the delivery of `msg`, recording `AppDeliver` unless `msg` is
    /// a control envelope: the reserved sequence space is not application
    /// traffic, and streaming monitors would misread it as reordering.
    pub fn deliver(&mut self, at: SimTime, msg: Message, obs: Option<&Writer<'_>>, cause: CauseId) {
        if let Some(o) = obs.filter(|_| !msg.id.is_control()) {
            let ev = ObsEvent::AppDeliver { sender: u32::from(msg.id.sender.0), seq: msg.id.seq };
            o.record_caused(at.as_micros(), u32::from(self.me().0), cause, ev);
        }
        let compact = self.log.scheduled(msg.id.sender, msg.id.seq) == Some(&msg.body);
        self.append(at, msg, false, compact);
    }

    /// This process's sends and deliveries with their times, in the order
    /// it made them.
    pub fn log(&self) -> &AppLog {
        &self.log
    }

    /// Hands over the log so far and starts an empty one: a read-out
    /// that moves the entries instead of copying them. The room the
    /// scheduled workload asks of the log shrinks by what was handed
    /// over, so the next append reserves only the remainder.
    pub fn take_log(&mut self) -> AppLog {
        self.log_room = self.log_room.saturating_sub(self.log.entries.len());
        AppLog {
            me: self.me(),
            schedule: Arc::clone(&self.log.schedule),
            entries: std::mem::take(&mut self.log.entries),
            side: std::mem::take(&mut self.log.side),
        }
    }

    /// The first append sizes the log for the scheduled workload — inside
    /// the run, so that building a group touches no memory the run may
    /// never use, and once, instead of doubling through re-copied entries.
    fn append(&mut self, at: SimTime, msg: Message, send: bool, compact: bool) {
        if self.log.entries.capacity() == 0 {
            self.log.entries.reserve_exact(self.log_room);
        }
        self.log.push(at, msg, send, compact);
    }
}

/// A completed (or running) group over some transport.
///
/// Implementations: [`GroupSim`](crate::GroupSim) over `ps-simnet`,
/// `ps_net::UdpGroup` over UDP loopback. The accessors expose exactly the
/// surface the sim-vs-real diff compares; see the module docs for what is
/// and is not promised across drivers. Every accessor but the clock and
/// the recorder reads the per-process logs, so a driver implements
/// [`Driver::process_log`] and inherits the rest.
pub trait Driver {
    /// Runs until `deadline` — virtual time for simulated drivers, offset
    /// from the run's start instant for real ones.
    fn run_until(&mut self, deadline: SimTime);

    /// The driver's current clock, on the same scale as `run_until`.
    fn now(&self) -> SimTime;

    /// The group membership.
    fn group(&self) -> &[ProcessId];

    /// The recorder this driver records into (disabled if none attached).
    fn recorder(&self) -> &ps_obs::Recorder;

    /// Process `p`'s application log ([`AppProcess::log`]).
    fn process_log(&self, p: ProcessId) -> &AppLog;

    /// The application-level trace of the whole run: every process's
    /// `Send` and `Deliver` events merged in time order (ties by process,
    /// then by log order) — ready for the `ps-trace` property checkers.
    /// Entries are ordered by a 16-byte key, reserved exactly; only then
    /// is each one's message rebuilt.
    fn app_trace(&self) -> Trace {
        let mut logs: Vec<&AppLog> = self.group().iter().map(|&p| self.process_log(p)).collect();
        logs.sort_by_key(|log| log.me);
        let mut order = Vec::with_capacity(logs.iter().map(|log| log.entries.len()).sum());
        for (node, log) in (0u16..).zip(&logs) {
            order.extend(log.entries.iter().zip(0u32..).map(|(e, idx)| (e.at, node, idx)));
        }
        order.sort_unstable();
        let entry = |(_, node, idx): (SimTime, u16, u32)| {
            let log = logs[usize::from(node)];
            log.event(&log.entries[idx as usize])
        };
        order.into_iter().map(entry).collect()
    }

    /// Send time of every message, by id. Reads ids and instants only.
    fn send_times(&self) -> BTreeMap<MsgId, SimTime> {
        let mut out = BTreeMap::new();
        for &p in self.group() {
            let log = self.process_log(p);
            for e in log.entries.iter().filter(|e| e.send) {
                out.insert(log.id(e), e.at);
            }
        }
        out
    }

    /// Every delivery observed, process by process in log order. Reads
    /// ids and instants only.
    fn deliveries(&self) -> Vec<DeliveryRecord> {
        let logs = self.group().iter().map(|&p| self.process_log(p));
        let mut out = Vec::with_capacity(logs.clone().map(AppLog::delivered).sum());
        for log in logs {
            for e in log.entries.iter().filter(|e| !e.send) {
                out.push(DeliveryRecord { msg: log.id(e), process: log.me, at: e.at });
            }
        }
        out
    }

    /// Mean latency from send to delivery over all completed
    /// (message, receiver) pairs; `None` if nothing was delivered.
    fn mean_delivery_latency(&self) -> Option<SimTime> {
        let sends = self.send_times();
        let mut total: u64 = 0;
        let mut count: u64 = 0;
        for d in self.deliveries() {
            if let Some(&sent) = sends.get(&d.msg) {
                total += d.at.saturating_sub(sent).as_micros();
                count += 1;
            }
        }
        if count == 0 {
            None
        } else {
            Some(SimTime::from_micros(total / count))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GroupSimBuilder;

    fn spec(n: u16) -> GroupSpec {
        GroupSpec::new(n).seed(3).stack_factory(|_, _, _| Stack::new(vec![]))
    }

    #[test]
    fn spec_builds_a_group_sim() {
        let spec = spec(3).send_at(SimTime::from_millis(1), ProcessId(0), b"hi");
        let mut sim = GroupSimBuilder::from_spec(spec).build();
        sim.run_until(SimTime::from_millis(30));
        let tr = Driver::app_trace(&sim);
        assert_eq!(tr.sent_ids().len(), 1);
        assert_eq!(tr.iter().filter(|e| e.is_deliver()).count(), 3);
    }

    #[test]
    fn driver_trait_objects_work() {
        let spec = spec(2).send_at(SimTime::from_millis(1), ProcessId(1), b"x");
        let mut driver: Box<dyn Driver> = Box::new(GroupSimBuilder::from_spec(spec).build());
        driver.run_until(SimTime::from_millis(30));
        assert_eq!(driver.group().len(), 2);
        assert_eq!(driver.deliveries().len(), 2);
        assert!(driver.mean_delivery_latency().is_some());
        assert!(driver.now() >= SimTime::from_millis(30));
    }

    #[test]
    fn spec_group_lists_members() {
        assert_eq!(GroupSpec::new(2).group(), vec![ProcessId(0), ProcessId(1)]);
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn zero_process_spec_rejected() {
        let _ = GroupSpec::new(0);
    }

    fn body(b: &[u8]) -> Bytes {
        Bytes::copy_from_slice(b)
    }

    #[test]
    fn same_instant_sends_fire_in_schedule_order() {
        let at = SimTime::from_millis;
        let sends = vec![
            (at(5), ProcessId(0), body(b"late")),
            (at(1), ProcessId(0), body(b"first")),
            (at(1), ProcessId(1), body(b"elsewhere")),
            (at(1), ProcessId(0), body(b"second")),
        ];
        let mut halves = AppProcess::split(2, sends.clone());
        let (app, due) = &mut halves[0];
        assert_eq!(*due, vec![at(1), at(1), at(5)]);
        let fired: Vec<(u64, Bytes)> = (0..due.len())
            .map(|i| app.send(i, due[i], None, CauseId::NONE).0)
            .map(|m| (m.id.seq, m.body))
            .collect();
        assert_eq!(fired, vec![(1, body(b"first")), (2, body(b"second")), (3, body(b"late"))]);
        assert_eq!(halves[1].1, vec![at(1)]);

        // The simulated driver fires them the same way.
        let mut sim = GroupSimBuilder::from_spec(spec(2).sends(sends)).build();
        sim.run_until(at(30));
        let order: Vec<Bytes> = sim
            .process_log(ProcessId(0))
            .events()
            .filter(|(_, e)| e.is_send())
            .map(|(_, e)| e.message().body.clone())
            .collect();
        assert_eq!(order, vec![body(b"first"), body(b"second"), body(b"late")]);
    }

    #[test]
    fn app_send_is_parented_on_the_callers_cause() {
        let rec = ps_obs::Recorder::with_capacity(16);
        let Some(w) = rec.writer() else { return }; // `tap` feature off
        let parent = w.record(7, 0, ObsEvent::TimerFire { token: 1 });
        let sends = vec![
            (SimTime::ZERO, ProcessId(0), body(b"a")),
            (SimTime::ZERO, ProcessId(0), body(b"b")),
        ];
        let mut app = AppProcess::split(1, sends).remove(0).0;
        let (msg, cause) = app.send(0, SimTime::from_micros(7), Some(&w), parent);
        // Without a session the caller's cause passes straight through.
        assert_eq!(app.send(1, SimTime::from_micros(8), None, parent).1, parent);
        drop(w);
        let events = rec.snapshot();
        let send = events.iter().find(|e| matches!(e.ev, ObsEvent::AppSend { .. })).unwrap();
        assert_eq!(send.ev, ObsEvent::AppSend { sender: 0, seq: msg.id.seq });
        assert_eq!(send.parent, parent);
        assert_eq!(send.id(), cause);
        assert_eq!(app.log().entries.len(), 2, "both sends are logged");
    }

    #[test]
    fn take_log_hands_over_the_entries_and_shrinks_the_room() {
        let sends = (0..3).map(|i| (SimTime::from_micros(i), ProcessId(0), body(b"s"))).collect();
        let mut app = AppProcess::split(2, sends).remove(0).0;
        // Three sends of the group delivered here, plus its own three.
        assert_eq!(app.log_room, 6);
        let (a, _) = app.send(0, SimTime::from_micros(1), None, CauseId::NONE);
        app.deliver(SimTime::from_micros(2), a, None, CauseId::NONE);
        let first = app.take_log();
        assert_eq!(first.entries.len(), 2);
        assert_eq!(first.entries.capacity(), 6, "moved out as sized, not copied");
        assert!(app.log().entries.is_empty());
        assert_eq!(app.log_room, 4);
        // The next append reserves only what the workload has left.
        let (b, _) = app.send(1, SimTime::from_micros(3), None, CauseId::NONE);
        assert_eq!(app.log.entries.capacity(), 4);
        app.deliver(SimTime::from_micros(4), b, None, CauseId::NONE);
        assert_eq!(app.take_log().entries.len(), 2);
        assert_eq!(app.log_room, 2);
        // More entries than the schedule foresaw leave no room, not less.
        for at in 5..10 {
            let m = Message::new(ProcessId(1), at, body(b"x"));
            app.deliver(SimTime::from_micros(at), m, None, CauseId::NONE);
        }
        assert_eq!(app.take_log().entries.len(), 5);
        assert_eq!(app.log_room, 0);
    }

    #[test]
    fn a_control_delivery_is_logged_but_not_recorded() {
        let rec = ps_obs::Recorder::with_capacity(16);
        let Some(w) = rec.writer() else { return }; // `tap` feature off
        let mut app = AppProcess::split(2, Vec::new()).remove(1).0;
        let view = Message::view_change(ProcessId(0), MsgId::CONTROL_SEQ_BASE + 1, 1, vec![]);
        app.deliver(SimTime::from_micros(3), view, Some(&w), CauseId::NONE);
        app.deliver(
            SimTime::from_micros(4),
            Message::new(ProcessId(0), 1, body(b"m")),
            Some(&w),
            CauseId::NONE,
        );
        drop(w);
        assert_eq!(app.log().entries.len(), 2);
        assert!(app.log().events().next().unwrap().1.message().is_view_change());
        let recorded: Vec<ObsEvent> = rec.snapshot().iter().map(|e| e.ev).collect();
        assert_eq!(recorded, vec![ObsEvent::AppDeliver { sender: 0, seq: 1 }]);
    }
}
