//! The fixed-capacity ring-buffer event recorder.
//!
//! Invariants (see DESIGN.md §"Observability"):
//!
//! - **No allocation when enabled.** The ring is allocated once at
//!   construction; `record` writes into it in place. Events are `Copy` with
//!   `&'static str` names, so there is nothing to allocate.
//! - **No-op when disabled.** A disabled recorder's `record` is one
//!   always-false branch. Hosts that poll [`Recorder::is_enabled`] once at
//!   startup (the simulator caches it into a plain `bool`) pay only a
//!   branch the predictor learns immediately.
//! - **Compile-time off switch.** With the `tap` cargo feature disabled,
//!   `record` compiles to an empty inline function and every recorder is
//!   permanently disabled.
//! - **One record path, held per burst.** [`Recorder::writer`] locks the
//!   ring and returns a [`Writer`] session; every record goes through a
//!   session, and `Recorder::record*` is a session of one. A host whose
//!   unit of work records a burst (an engine event: head record, layer
//!   spans, deliveries, frame sends) opens one session for it and lends
//!   that down the stack — see [`Recorder::writer`] for what must not be
//!   called meanwhile.
//! - **Deterministic.** Event order is the host's call order; timestamps
//!   are the host's virtual clock. Nothing here reads wall-clock time, so
//!   same-seed runs snapshot byte-identical event sequences.

use crate::event::{CauseId, EventMask, ObsEvent, TimedEvent};
use ps_prof::Profiler;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};

/// A streaming consumer of recorded events.
///
/// Sinks subscribed via [`Recorder::subscribe`] see every event at record
/// time, *before* ring placement — so a sink observes the complete event
/// stream even when the ring wraps and evicts history. Online property
/// monitors (see [`crate::monitor`]) are the intended implementors.
///
/// A disabled recorder forwards nothing: the zero-overhead contract is
/// unchanged, sinks included.
pub trait EventSink: Send {
    /// Called once per recorded event, in record order.
    fn on_event(&mut self, ev: &TimedEvent);

    /// The event kinds this sink consumes (default: everything).
    ///
    /// Sampled once at [`Recorder::subscribe`]: the recorder caches the
    /// mask and never dispatches events outside it, and events no
    /// subscriber wants skip the dispatch loop entirely — a monitor that
    /// only reads app/switch events costs nothing on frame traffic.
    fn interest(&self) -> EventMask {
        EventMask::ALL
    }

    /// Short static name, used as the sink's profiler span label
    /// (`obs/sinks/<name>`). Sampled once at subscribe time.
    fn name(&self) -> &'static str {
        "sink"
    }
}

/// A subscribed sink plus its subscribe-time-cached interest and name.
struct SinkEntry {
    sink: Box<dyn EventSink>,
    mask: EventMask,
    name: &'static str,
}

struct Ring {
    /// Event storage; grows (by pushes) only until it reaches `cap`.
    buf: Vec<TimedEvent>,
    /// Capacity fixed at construction; `buf.len() <= cap` always.
    cap: usize,
    /// Next write position once the ring is full.
    next: usize,
    /// Events overwritten after the ring filled (oldest-first).
    overwritten: u64,
    /// Streaming subscribers; fed under the same lock as the ring so sinks
    /// observe exactly the record order.
    sinks: Vec<SinkEntry>,
    /// Union of all subscribed interests — the one-test early-out that
    /// skips the dispatch loop for events nobody wants.
    sink_union: EventMask,
    /// Host-time profiler for `obs/record` / `obs/sinks/*` spans; only an
    /// *enabled* profiler is ever stored (see [`Recorder::set_prof`]).
    prof: Option<Profiler>,
    /// Per-node causal sequence counters (`seqs[node]` = last seq issued).
    /// Grows on a node's first event — the one amortized exception to the
    /// no-allocation-when-enabled rule, and only up to the highest node id.
    seqs: Vec<u32>,
}

impl Ring {
    /// Issues the next 1-based causal sequence number for `node`.
    fn next_seq(&mut self, node: u32) -> u32 {
        let i = node as usize;
        if i >= self.seqs.len() {
            self.seqs.resize(i + 1, 0);
        }
        self.seqs[i] += 1;
        self.seqs[i]
    }

    /// Feeds sinks and places `e` in the ring (the record-order critical
    /// section; callers hold the lock via `&mut self`). `prof` is the
    /// caller's clone of `self.prof` (cloned outside the field borrow).
    #[inline]
    fn push(&mut self, e: TimedEvent, prof: Option<&Profiler>) {
        // Sinks first: they must see the event even if the ring write
        // below evicts older history (streaming beats the ring). The
        // cached union mask skips the loop when no subscriber cares.
        let kind = e.ev.kind();
        if self.sink_union.intersects(kind) {
            for entry in self.sinks.iter_mut() {
                if entry.mask.intersects(kind) {
                    let path = ["obs", "sinks", entry.name];
                    let _sp = prof.map(|p| p.span(&path));
                    entry.sink.on_event(&e);
                }
            }
        }
        if self.buf.len() < self.cap {
            self.buf.push(e);
        } else {
            let i = self.next;
            self.buf[i] = e;
            self.overwritten += 1;
        }
        // `next < cap` always, so the wrap is a compare, not a division.
        self.next += 1;
        if self.next == self.cap {
            self.next = 0;
        }
    }
}

struct Shared {
    enabled: AtomicBool,
    /// The `RefCell` lets a [`Writer`] — one hold of the mutex — record
    /// through a shared reference; whoever holds the mutex is alone with
    /// it, so every other access goes through `get_mut`.
    ring: Mutex<RefCell<Ring>>,
}

/// A clonable handle to one shared ring of [`TimedEvent`]s.
///
/// Clones share the ring (it is an `Arc` inside), so the driver keeps one
/// handle to snapshot from while the simulator records through another.
///
/// # Examples
///
/// ```
/// use ps_obs::{ObsEvent, Recorder};
///
/// let rec = Recorder::with_capacity(4);
/// rec.record(10, 0, ObsEvent::TimerFire { token: 7 });
/// rec.record(20, 1, ObsEvent::FrameDrop { copies: 2 });
/// let events = rec.snapshot();
/// // With the `tap` feature off, recording is a no-op by design.
/// assert_eq!(events.len(), if rec.is_enabled() { 2 } else { 0 });
/// ```
#[derive(Clone)]
pub struct Recorder {
    shared: Arc<Shared>,
}

impl Default for Recorder {
    /// The disabled recorder: capacity zero, recording off.
    fn default() -> Self {
        Self::disabled()
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("Recorder");
        d.field("enabled", &self.is_enabled());
        // Never block: `{:?}` may run inside a callback whose engine event
        // holds this ring through a [`Writer`] on the same thread.
        let mut ring = match self.shared.ring.try_lock() {
            Ok(ring) => ring,
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) => return d.field("ring", &"<held>").finish(),
        };
        let ring = ring.get_mut();
        d.field("capacity", &ring.cap)
            .field("len", &ring.buf.len())
            .field("overwritten", &ring.overwritten)
            .finish()
    }
}

impl Recorder {
    /// An enabled recorder whose ring holds the `capacity` most recent
    /// events. A zero capacity yields a disabled recorder.
    ///
    /// With the `tap` cargo feature off this is still constructed (so
    /// call sites need no cfg), but recording is permanently off.
    pub fn with_capacity(capacity: usize) -> Self {
        let on = capacity > 0 && cfg!(feature = "tap");
        Self {
            shared: Arc::new(Shared {
                enabled: AtomicBool::new(on),
                ring: Mutex::new(RefCell::new(Ring {
                    buf: Vec::with_capacity(capacity),
                    cap: capacity,
                    next: 0,
                    overwritten: 0,
                    sinks: Vec::new(),
                    sink_union: EventMask::NONE,
                    prof: None,
                    seqs: Vec::new(),
                })),
            }),
        }
    }

    /// A permanently disabled recorder — the hot-path no-op.
    pub fn disabled() -> Self {
        Self::with_capacity(0)
    }

    fn lock(&self) -> MutexGuard<'_, RefCell<Ring>> {
        // Poison-proof: the ring holds plain data, valid after any panic.
        self.shared.ring.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Runs `f` on the ring under its lock (blocks while a [`Writer`] of
    /// this ring is alive).
    fn with_ring<R>(&self, f: impl FnOnce(&mut Ring) -> R) -> R {
        f(self.lock().get_mut())
    }

    /// Whether `record` currently stores events.
    ///
    /// Hosts with a hot path should read this once and branch on the
    /// cached bool; the flag is not meant to flip mid-run.
    pub fn is_enabled(&self) -> bool {
        cfg!(feature = "tap") && self.shared.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording off (on a non-zero-capacity recorder, back on with
    /// [`Recorder::set_enabled`]). Hosts that cached the flag keep their
    /// cached value — this is a between-runs switch, not a live one.
    pub fn set_enabled(&self, on: bool) {
        let can = cfg!(feature = "tap") && self.with_ring(|r| r.cap > 0);
        self.shared.enabled.store(on && can, Ordering::Relaxed);
    }

    /// Opens a recording session: the ring stays locked until the
    /// returned [`Writer`] is dropped, so a burst of records (everything
    /// one engine event produces) pays for one lock, not one per record.
    /// `None` when disabled — the one enabled check of the record path.
    ///
    /// While a session is alive, every other use of this ring —
    /// [`Recorder::record`] and friends, `snapshot`, `len`, `is_empty`,
    /// `overwritten`, `clear`, `subscribe`, `set_prof`, `set_enabled`,
    /// another `writer()` — blocks until it is dropped;
    /// on the *same* thread that is a self-deadlock. Hosts therefore
    /// hand the session itself (not the recorder) to the code they call,
    /// and read the ring only between sessions (after `run_until`).
    /// Sinks are fed under the lock, as they always were, and must not
    /// call back into their recorder. (`{:?}` never blocks.)
    #[inline]
    pub fn writer(&self) -> Option<Writer<'_>> {
        self.is_enabled().then(|| Writer { ring: self.lock() })
    }

    /// Records one root event (no causal parent) and returns its
    /// [`CauseId`]. No-op (returning [`CauseId::NONE`]) when disabled;
    /// never allocates when enabled, except the one-time growth of the
    /// per-node seq counter table.
    #[inline]
    pub fn record(&self, at_us: u64, node: u32, ev: ObsEvent) -> CauseId {
        self.record_caused(at_us, node, CauseId::NONE, ev)
    }

    /// Records one event with a causal `parent` link and returns the
    /// fresh event's own [`CauseId`] so callers can chain lineage.
    /// [`CauseId::NONE`] when disabled. A session of one record: see
    /// [`Recorder::writer`] for what a burst should use instead.
    #[inline]
    pub fn record_caused(&self, at_us: u64, node: u32, parent: CauseId, ev: ObsEvent) -> CauseId {
        match self.writer() {
            Some(w) => w.record_caused(at_us, node, parent, ev),
            None => CauseId::NONE,
        }
    }

    /// The recorded events, oldest first. If the ring wrapped, the oldest
    /// surviving event leads.
    pub fn snapshot(&self) -> Vec<TimedEvent> {
        self.with_ring(|ring| {
            if ring.buf.len() < ring.cap || ring.buf.is_empty() {
                ring.buf.clone()
            } else {
                let mut out = Vec::with_capacity(ring.buf.len());
                out.extend_from_slice(&ring.buf[ring.next..]);
                out.extend_from_slice(&ring.buf[..ring.next]);
                out
            }
        })
    }

    /// Events recorded and still in the ring.
    pub fn len(&self) -> usize {
        self.with_ring(|r| r.buf.len())
    }

    /// Whether nothing has been recorded (or everything cleared).
    pub fn is_empty(&self) -> bool {
        self.with_ring(|r| r.buf.is_empty())
    }

    /// Events lost to ring wrap-around since construction or last clear.
    pub fn overwritten(&self) -> u64 {
        self.with_ring(|r| r.overwritten)
    }

    /// Empties the ring and resets the per-node causal seq counters
    /// (capacity, enabled flag, and subscribers are kept).
    pub fn clear(&self) {
        self.with_ring(|ring| {
            ring.buf.clear();
            ring.next = 0;
            ring.overwritten = 0;
            ring.seqs.clear();
        });
    }

    /// Attaches a streaming [`EventSink`]: from now on it sees every
    /// recorded event at record time, immune to ring wrap-around.
    ///
    /// Monitors are typically clonable handles — subscribe one clone and
    /// keep the other to read results after the run. Subscribing to a
    /// disabled recorder is allowed but the sink will never fire.
    pub fn subscribe(&self, sink: Box<dyn EventSink>) {
        let mask = sink.interest();
        let name = sink.name();
        self.with_ring(|ring| {
            ring.sink_union |= mask;
            ring.sinks.push(SinkEntry { sink, mask, name });
        });
    }

    /// Attaches a host-time profiler: every `record*` call opens an
    /// `obs/record` span and each sink dispatch opens `obs/sinks/<name>`.
    /// A disabled profiler is ignored — the recording hot path only ever
    /// pays for a profiler that is actually collecting.
    pub fn set_prof(&self, prof: &Profiler) {
        self.with_ring(|ring| ring.prof = prof.is_enabled().then(|| prof.clone()));
    }
}

/// A recording session: the ring of one [`Recorder`], held locked for a
/// burst of records (see [`Recorder::writer`] for what blocks meanwhile).
///
/// Records through a shared reference, so the host can lend the session
/// down a call chain that also needs the host mutably; it is neither
/// `Send` nor `Sync`.
pub struct Writer<'a> {
    ring: MutexGuard<'a, RefCell<Ring>>,
}

impl std::fmt::Debug for Writer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Writer").finish_non_exhaustive()
    }
}

impl Writer<'_> {
    /// Records one root event (no causal parent); see
    /// [`Recorder::record`].
    #[inline]
    pub fn record(&self, at_us: u64, node: u32, ev: ObsEvent) -> CauseId {
        self.record_caused(at_us, node, CauseId::NONE, ev)
    }

    /// Records one event with a causal `parent` link and returns the
    /// fresh event's own [`CauseId`]. This is the one live record path:
    /// [`Recorder::record_caused`] opens a session and calls it.
    #[inline]
    pub fn record_caused(&self, at_us: u64, node: u32, parent: CauseId, ev: ObsEvent) -> CauseId {
        let mut ring = self.ring.borrow_mut();
        // Clone the (Arc-backed) handle out of the field so the span
        // guard does not hold a borrow of the ring we mutate below.
        let prof = ring.prof.clone();
        let _sp = prof.as_ref().map(|p| p.span(&["obs", "record"]));
        let seq = ring.next_seq(node);
        let e = TimedEvent { at_us, node, seq, parent, ev };
        ring.push(e, prof.as_ref());
        e.id()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(n: u64) -> ObsEvent {
        ObsEvent::TimerFire { token: n }
    }

    #[cfg(feature = "tap")]
    mod enabled {
        use super::*;

        #[test]
        fn records_in_order() {
            let r = Recorder::with_capacity(8);
            for i in 0..5u64 {
                r.record(i * 10, i as u32, ev(i));
            }
            let s = r.snapshot();
            assert_eq!(s.len(), 5);
            assert_eq!(s.iter().map(|e| e.at_us).collect::<Vec<_>>(), [0, 10, 20, 30, 40]);
            assert_eq!(r.overwritten(), 0);
        }

        #[test]
        fn wraps_keeping_most_recent() {
            let r = Recorder::with_capacity(4);
            for i in 0..10u64 {
                r.record(i, 0, ev(i));
            }
            let s = r.snapshot();
            assert_eq!(s.iter().map(|e| e.at_us).collect::<Vec<_>>(), [6, 7, 8, 9]);
            assert_eq!(r.overwritten(), 6);
            assert_eq!(r.len(), 4);
        }

        #[test]
        fn ring_never_grows_past_capacity() {
            let r = Recorder::with_capacity(3);
            for i in 0..100u64 {
                r.record(i, 0, ev(i));
            }
            assert_eq!(r.len(), 3);
        }

        #[test]
        fn disabled_recorder_drops_everything() {
            let r = Recorder::disabled();
            assert!(!r.is_enabled());
            r.record(1, 1, ev(1));
            assert!(r.is_empty());
        }

        #[test]
        fn set_enabled_toggles() {
            let r = Recorder::with_capacity(4);
            r.set_enabled(false);
            r.record(1, 0, ev(1));
            assert!(r.is_empty());
            r.set_enabled(true);
            r.record(2, 0, ev(2));
            assert_eq!(r.len(), 1);
            // Zero-capacity recorders can never be enabled.
            let d = Recorder::disabled();
            d.set_enabled(true);
            assert!(!d.is_enabled());
        }

        #[test]
        fn clones_share_the_ring() {
            let r = Recorder::with_capacity(4);
            let r2 = r.clone();
            r.record(1, 0, ev(1));
            assert_eq!(r2.len(), 1);
            r2.clear();
            assert!(r.is_empty());
        }

        /// Counting sink sharing its tally through an `Arc`.
        struct CountSink(std::sync::Arc<std::sync::Mutex<Vec<u64>>>);
        impl EventSink for CountSink {
            fn on_event(&mut self, ev: &TimedEvent) {
                self.0.lock().unwrap().push(ev.at_us);
            }
        }

        #[test]
        fn sink_on_a_tiny_ring_still_sees_every_event() {
            // The ring holds 4 events; the sink must observe all 100.
            let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
            let r = Recorder::with_capacity(4);
            r.subscribe(Box::new(CountSink(seen.clone())));
            for i in 0..100u64 {
                r.record(i, 0, ev(i));
            }
            assert_eq!(r.len(), 4);
            assert_eq!(r.overwritten(), 96);
            let seen = seen.lock().unwrap();
            assert_eq!(seen.len(), 100, "sink missed events the ring evicted");
            assert_eq!(seen.iter().copied().collect::<Vec<_>>(), (0..100).collect::<Vec<_>>());
        }

        #[test]
        fn disabled_recorder_never_feeds_sinks() {
            let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
            let r = Recorder::with_capacity(8);
            r.subscribe(Box::new(CountSink(seen.clone())));
            r.set_enabled(false);
            r.record(1, 0, ev(1));
            assert!(seen.lock().unwrap().is_empty());
            r.set_enabled(true);
            r.record(2, 0, ev(2));
            assert_eq!(seen.lock().unwrap().len(), 1);
        }

        #[test]
        fn sinks_survive_clear() {
            let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
            let r = Recorder::with_capacity(8);
            r.subscribe(Box::new(CountSink(seen.clone())));
            r.record(1, 0, ev(1));
            r.clear();
            r.record(2, 0, ev(2));
            assert_eq!(seen.lock().unwrap().len(), 2);
        }

        #[test]
        fn record_mints_per_node_causal_ids() {
            let r = Recorder::with_capacity(8);
            let a = r.record(1, 0, ev(1));
            let b = r.record(2, 3, ev(2));
            let c = r.record_caused(3, 0, a, ev(3));
            assert_eq!(a, CauseId::new(0, 1));
            assert_eq!(b, CauseId::new(3, 1), "seqs are per node");
            assert_eq!(c, CauseId::new(0, 2));
            let s = r.snapshot();
            assert_eq!(s[0].parent, CauseId::NONE);
            assert_eq!(s[2].parent, a);
            assert_eq!(s[2].id(), c);
        }

        #[test]
        fn clear_resets_causal_counters() {
            let r = Recorder::with_capacity(8);
            r.record(1, 0, ev(1));
            r.record(2, 0, ev(2));
            r.clear();
            assert_eq!(r.record(3, 0, ev(3)), CauseId::new(0, 1));
        }

        /// Sink logging `(node, seq, at_us)` of what it is fed, in order.
        struct OrderSink(std::sync::Arc<std::sync::Mutex<Vec<(u32, u32, u64)>>>);
        impl EventSink for OrderSink {
            fn on_event(&mut self, ev: &TimedEvent) {
                self.0.lock().unwrap().push((ev.node, ev.seq, ev.at_us));
            }
        }

        #[test]
        fn a_session_records_exactly_what_single_records_would() {
            // The same 40 calls twice: all through `record*`, and in
            // bursts through `writer()` with single records in between.
            // A ring of 16 wraps, so `overwritten` is compared too.
            let run = |bursts: bool| {
                let fed = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
                let r = Recorder::with_capacity(16);
                r.subscribe(Box::new(OrderSink(fed.clone())));
                let mut ids = Vec::new();
                let mut parent = CauseId::NONE;
                for burst in 0..8u64 {
                    let session = if bursts && burst % 2 == 0 { r.writer() } else { None };
                    for i in 0..5u64 {
                        let (at, node) = (burst * 10 + i, (i % 3) as u32);
                        parent = match (&session, i) {
                            (Some(w), 0) => w.record(at, node, ev(i)),
                            (Some(w), _) => w.record_caused(at, node, parent, ev(i)),
                            (None, 0) => r.record(at, node, ev(i)),
                            (None, _) => r.record_caused(at, node, parent, ev(i)),
                        };
                        ids.push(parent);
                    }
                }
                ids.push(r.record(100, 1, ev(0)));
                let fed = fed.lock().unwrap().clone();
                (r.snapshot(), ids, fed, r.overwritten())
            };
            let (single, session) = (run(false), run(true));
            assert_eq!(single.0.len(), 16);
            assert_eq!(single.3, 25);
            assert_eq!(*single.1.last().unwrap(), CauseId::new(1, 17));
            assert_eq!(single, session);
        }

        #[test]
        fn debug_never_waits_for_a_session() {
            let r = Recorder::with_capacity(4);
            r.record(1, 0, ev(1));
            assert!(format!("{r:?}").contains("len: 1"));
            let w = r.writer().expect("enabled");
            assert!(format!("{r:?}").contains("<held>"), "must not block on its own thread");
            drop(w);
            assert!(format!("{r:?}").contains("len: 1"));
        }

        #[test]
        fn a_disabled_recorder_opens_no_session() {
            assert!(Recorder::disabled().writer().is_none());
            let r = Recorder::with_capacity(4);
            r.set_enabled(false);
            assert!(r.writer().is_none());
        }

        #[test]
        fn clear_resets_wrap_state() {
            let r = Recorder::with_capacity(2);
            for i in 0..5u64 {
                r.record(i, 0, ev(i));
            }
            r.clear();
            assert_eq!(r.overwritten(), 0);
            r.record(9, 0, ev(9));
            assert_eq!(r.snapshot()[0].at_us, 9);
        }
    }

    #[cfg(not(feature = "tap"))]
    #[test]
    fn tap_off_means_permanently_disabled() {
        let r = Recorder::with_capacity(64);
        assert!(!r.is_enabled());
        r.set_enabled(true);
        assert!(!r.is_enabled());
        r.record(1, 0, ev(1));
        assert!(r.is_empty());
    }
}
