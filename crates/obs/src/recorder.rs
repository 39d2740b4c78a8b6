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
//!   unit of work records a burst (a simulator run loop, a real node's
//!   stack call) opens one session for it and lends that down the stack —
//!   see [`Recorder::writer`] for what must not be called meanwhile.
//! - **One record per layer span, closed in place** by the same session
//!   ([`Writer::open_span`] / [`Writer::close_span`]).
//! - **The recorder feeds the attached [`MonitorSet`]** every app and
//!   switch event at record time, before ring placement, so the monitors
//!   see the whole stream however small the ring.
//! - **Deterministic.** Event order is the host's call order; timestamps
//!   are the host's virtual clock. Nothing here reads wall-clock time, so
//!   same-seed runs snapshot byte-identical event sequences.

use crate::event::{CauseId, LayerDir, ObsEvent, TimedEvent};
use crate::ids::IdTable;
use crate::monitor::MonitorSet;
use ps_prof::Profiler;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};

struct Ring {
    /// Event storage; grows (by pushes) only until it reaches `cap`.
    buf: Vec<TimedEvent>,
    /// Capacity fixed at construction; `buf.len() <= cap` always.
    cap: usize,
    /// Next write position once the ring is full.
    next: usize,
    /// Events overwritten after the ring filled (oldest-first).
    overwritten: u64,
    /// The attached monitors ([`MonitorSet::attach`]); fed under the same
    /// lock as the ring so they observe exactly the record order.
    monitors: Option<MonitorSet>,
    /// Host-time profiler for `obs/record` / `obs/sinks/monitors` spans; only an
    /// *enabled* profiler is ever stored (see [`Recorder::set_prof`]).
    prof: Option<Profiler>,
    /// Per-node causal sequence counters (last seq issued). Grows on a
    /// node's first event — the one amortized exception to the
    /// no-allocation-when-enabled rule — by a map entry above node 1 023.
    seqs: IdTable<u32>,
}

impl Ring {
    /// Issues the next 1-based causal sequence number for `node`.
    fn next_seq(&mut self, node: u32) -> u32 {
        let seq = self.seqs.slot(node);
        *seq += 1;
        *seq
    }

    /// Feeds the monitors and places `e` in the ring, returning its slot
    /// (the record-order critical section; callers hold the lock via `&mut
    /// self`). `prof` is the caller's clone of `self.prof`.
    #[inline]
    fn push(&mut self, e: TimedEvent, prof: Option<&Profiler>) -> usize {
        // The monitors first: they must see the event even if the ring
        // write below evicts older history (streaming beats the ring).
        // They read app and switch events only.
        if let Some(monitors) = &self.monitors {
            use ObsEvent::{AppDeliver, AppSend, SwitchPhase};
            if matches!(e.ev, AppSend { .. } | AppDeliver { .. } | SwitchPhase { .. }) {
                let _sp = prof.map(|p| p.span(&["obs", "sinks", "monitors"]));
                monitors.observe(&e);
            }
        }
        // Until the ring fills, `next` is also its length.
        let slot = self.next;
        if self.buf.len() < self.cap {
            self.buf.push(e);
        } else {
            self.buf[slot] = e;
            self.overwritten += 1;
        }
        // `next < cap` always, so the wrap is a compare, not a division.
        self.next += 1;
        if self.next == self.cap {
            self.next = 0;
        }
        slot
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
        // Never block: `{:?}` may run inside a callback whose run loop
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
                    monitors: None,
                    prof: None,
                    seqs: IdTable::default(),
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
    /// a run loop produces) pays for one lock, not one per record.
    /// `None` when disabled — the one enabled check of the record path.
    ///
    /// While a session is alive, every other use of this ring —
    /// [`Recorder::record`] and friends, `snapshot`, `len`, `is_empty`,
    /// `overwritten`, `set_prof`, `set_enabled`, [`MonitorSet::attach`],
    /// another `writer()` — blocks until it is dropped;
    /// on the *same* thread that is a self-deadlock. Hosts therefore
    /// hand the session itself (not the recorder) to the code they call,
    /// and read the ring only between sessions (after `run_until`).
    /// The recorder feeds the attached [`MonitorSet`] under the same
    /// lock. (`{:?}` never blocks.)
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

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.with_ring(|r| r.buf.is_empty())
    }

    /// Events lost to ring wrap-around since construction.
    pub fn overwritten(&self) -> u64 {
        self.with_ring(|r| r.overwritten)
    }

    /// Starts feeding `monitors`; panics if a set is already fed (see
    /// [`MonitorSet::attach`]).
    pub(crate) fn feed(&self, monitors: MonitorSet) {
        self.with_ring(|ring| {
            assert!(ring.monitors.is_none(), "this recorder already feeds a MonitorSet");
            ring.monitors = Some(monitors);
        });
    }

    /// Attaches a host-time profiler: every `record*` call opens an
    /// `obs/record` span and each event fed to the attached
    /// [`MonitorSet`] opens `obs/sinks/monitors`.
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
    /// fresh event's own [`CauseId`]. [`Recorder::record_caused`] opens a
    /// session and calls it.
    #[inline]
    pub fn record_caused(&self, at_us: u64, node: u32, parent: CauseId, ev: ObsEvent) -> CauseId {
        self.place(at_us, node, parent, ev).id
    }

    /// Records the [`ObsEvent::LayerSpan`] of a handler call being entered
    /// (`dur_us` 0 until [`Writer::close_span`]). Its
    /// [`OpenSpan::id`] is the causal context of everything the handler
    /// emits.
    #[inline]
    pub fn open_span(
        &self,
        at_us: u64,
        node: u32,
        parent: CauseId,
        layer: &'static str,
        dir: LayerDir,
    ) -> OpenSpan {
        self.place(at_us, node, parent, ObsEvent::LayerSpan { layer, dir, dur_us: 0 })
    }

    /// Closes `span` in place at `at_us`: its record's `dur_us` becomes
    /// `at_us` minus its start. Writes nothing if the ring has since
    /// reused the slot (the record was evicted), so a close never touches
    /// another event and `overwritten` counts records only. Not a record,
    /// so no `obs/record` span: its few stores are the caller's.
    #[inline]
    pub fn close_span(&self, span: OpenSpan, at_us: u64) {
        let mut ring = self.ring.borrow_mut();
        if let Some(e) = ring.buf.get_mut(span.slot).filter(|e| e.id() == span.id) {
            if let ObsEvent::LayerSpan { dur_us, .. } = &mut e.ev {
                *dur_us = u32::try_from(at_us.saturating_sub(e.at_us)).unwrap_or(u32::MAX);
            }
        }
    }

    /// The one live record path: mints the seq, feeds the monitors,
    /// places the event, and says where it went.
    #[inline]
    fn place(&self, at_us: u64, node: u32, parent: CauseId, ev: ObsEvent) -> OpenSpan {
        let mut ring = self.ring.borrow_mut();
        // Clone the (Arc-backed) handle out of the field so the span
        // guard does not hold a borrow of the ring we mutate below.
        let prof = ring.prof.clone();
        let _sp = prof.as_ref().map(|p| p.span(&["obs", "record"]));
        let seq = ring.next_seq(node);
        let e = TimedEvent { at_us, node, seq, parent, ev };
        let slot = ring.push(e, prof.as_ref());
        OpenSpan { id: e.id(), at_us, slot }
    }
}

/// A layer-span record written by [`Writer::open_span`], not yet closed:
/// its identity and the ring slot [`Writer::close_span`] writes into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenSpan {
    /// The record's causal identity.
    pub id: CauseId,
    /// The record's `at_us`: a close at this time has nothing to store.
    pub at_us: u64,
    slot: usize,
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
            r2.record(2, 0, ev(2));
            assert_eq!(r.len(), 2);
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
        fn a_session_records_exactly_what_single_records_would() {
            // The same 40 calls twice: all through `record*`, and in
            // bursts through `writer()` with single records in between.
            // A ring of 16 wraps, so `overwritten` is compared too.
            let run = |bursts: bool| {
                let r = Recorder::with_capacity(16);
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
                (r.snapshot(), ids, r.overwritten())
            };
            let (single, session) = (run(false), run(true));
            assert_eq!(single.0.len(), 16);
            assert_eq!(single.2, 25);
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

        fn durations(r: &Recorder) -> Vec<u32> {
            let spans = r.snapshot().into_iter().filter_map(|e| match e.ev {
                ObsEvent::LayerSpan { dur_us, .. } => Some(dur_us),
                _ => None,
            });
            spans.collect()
        }

        #[test]
        fn a_span_is_one_record_closed_in_place() {
            let r = Recorder::with_capacity(8);
            let w = r.writer().expect("enabled");
            let span = w.open_span(10, 2, CauseId::NONE, "fifo", LayerDir::Down);
            let inner = w.record_caused(10, 2, span.id, ev(1));
            w.close_span(span, 13);
            drop(w);
            assert_eq!((span.id, inner), (CauseId::new(2, 1), CauseId::new(2, 2)));
            assert_eq!(r.len(), 2, "the close adds no record");
            assert_eq!(durations(&r), [3]);
            assert_eq!(r.snapshot()[0].at_us, 10, "a span keeps its entry time");
        }

        #[test]
        fn a_close_never_writes_into_a_reused_slot() {
            // A handler records more than the ring holds inside its own
            // span: four nested spans, each closed at once, reuse every
            // slot, the outer span's among them.
            let r = Recorder::with_capacity(4);
            let w = r.writer().expect("enabled");
            let first = w.open_span(0, 0, CauseId::NONE, "a", LayerDir::Up);
            w.close_span(first, 0);
            let outer = w.open_span(20, 0, first.id, "a", LayerDir::Up);
            for _ in 0..4 {
                let nested = w.open_span(21, 0, outer.id, "b", LayerDir::Up);
                w.close_span(nested, 21);
            }
            w.close_span(outer, 30);
            drop(w);
            assert_eq!(r.overwritten(), 2, "six records, four slots: a close is not a record");
            let kept: Vec<_> = r.snapshot().iter().map(|e| (e.seq, e.parent)).collect();
            assert_eq!(kept, (3..7).map(|seq| (seq, outer.id)).collect::<Vec<_>>());
            assert_eq!(durations(&r), [0; 4], "the outer close left the slot's new owner alone");
        }

        #[test]
        fn a_disabled_recorder_opens_no_session() {
            assert!(Recorder::disabled().writer().is_none());
            let r = Recorder::with_capacity(4);
            r.set_enabled(false);
            assert!(r.writer().is_none());
        }

        fn send(r: &Recorder, seq: u64) {
            r.record(seq, 0, ObsEvent::AppSend { sender: 0, seq });
        }

        #[test]
        fn sink_on_a_tiny_ring_still_sees_every_event() {
            // The ring holds 4 events; the monitors must count all 100.
            let r = Recorder::with_capacity(4);
            let monitors = MonitorSet::standard(2, 1_000);
            monitors.attach(&r);
            for seq in 1..=100 {
                send(&r, seq);
            }
            assert_eq!((r.len(), r.overwritten()), (4, 96));
            assert_eq!(monitors.sent_count(), 100, "the monitors missed what the ring evicted");
        }

        #[test]
        fn disabled_recorder_never_feeds_sinks() {
            let r = Recorder::with_capacity(8);
            let monitors = MonitorSet::standard(2, 1_000);
            monitors.attach(&r);
            r.set_enabled(false);
            send(&r, 1);
            assert_eq!(monitors.sent_count(), 0);
            r.set_enabled(true);
            send(&r, 2);
            assert_eq!(monitors.sent_count(), 1);

            let d = Recorder::disabled();
            let monitors = MonitorSet::standard(2, 1_000);
            monitors.attach(&d);
            send(&d, 1);
            d.set_enabled(true);
            send(&d, 2);
            assert_eq!(monitors.sent_count(), 0);
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
