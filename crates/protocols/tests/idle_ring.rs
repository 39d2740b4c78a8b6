//! Boundary points of the token ring's idle policy.
//!
//! An idle ring backs its hold off and is woken on demand — a timer-
//! suppression mechanism, and the places such a mechanism breaks are where
//! a suppressed timer and the message that un-suppresses it meet (the
//! STRESS method). Each property below aims a run at one of those points
//! — the wake landing in the instant the hold expires, two wakers in one
//! instant, the wake lost, the holder crashing mid-hold — with `ps-check`
//! choosing which hold, which members and which microsecond.
//!
//! Everything is read off the wire: a tap under the ordering layer logs
//! each frame by its tag byte, so the tests need no access to the layer.

use ps_bytes::Bytes;
use ps_check::prelude::*;
use ps_protocols::TokenOrderLayer;
use ps_simnet::{Medium, NodeId, PartitionSchedule, PointToPoint, SimTime};
use ps_stack::{Cast, Frame, GroupSim, GroupSimBuilder, Layer, LayerCtx, Stack};
use ps_trace::props::{Property, Reliability, TotalOrder};
use ps_trace::ProcessId;
use std::sync::{Arc, Mutex};

const N: u16 = 8;
const BASE: SimTime = SimTime::from_millis(1);
/// The hold once the ring sleeps: 64 × `BASE`.
const CAP: SimTime = SimTime::from_millis(64);
const HOP: SimTime = SimTime::from_micros(300);
/// By now an untouched ring has backed off all the way.
const ASLEEP: SimTime = SimTime::from_millis(700);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Token,
    Ordered,
    Wake,
}

/// One frame passing the tap: where it was going if on its way down, `None`
/// if it arrived.
#[derive(Clone, Copy, Debug)]
struct Seen {
    at: SimTime,
    node: ProcessId,
    kind: Kind,
    to: Option<Cast>,
}

#[derive(Clone, Default)]
struct WireLog(Arc<Mutex<Vec<Seen>>>);

impl WireLog {
    fn push(&self, ctx: &LayerCtx<'_>, bytes: &Bytes, to: Option<Cast>) {
        let kind = match bytes[0] {
            0 => Kind::Token,
            1 => Kind::Ordered,
            2 => Kind::Wake,
            tag => panic!("unknown token-order tag {tag}"),
        };
        self.0.lock().unwrap().push(Seen { at: ctx.now(), node: ctx.me(), kind, to });
    }

    /// Frames of `kind` handed to the network, in order.
    fn sent(&self, kind: Kind) -> Vec<Seen> {
        let log = self.0.lock().unwrap();
        log.iter().filter(|s| s.kind == kind && s.to.is_some()).copied().collect()
    }

    /// Frames of `kind` that arrived, in order.
    fn arrived(&self, kind: Kind) -> Vec<Seen> {
        let log = self.0.lock().unwrap();
        log.iter().filter(|s| s.kind == kind && s.to.is_none()).copied().collect()
    }
}

struct WireTap(WireLog);

impl Layer for WireTap {
    fn name(&self) -> &'static str {
        "wire-tap"
    }
    fn on_down(&mut self, frame: Frame, ctx: &mut LayerCtx<'_>) {
        self.0.push(ctx, &frame.bytes, Some(frame.dest));
        ctx.send_down(frame);
    }
    fn on_up(&mut self, src: ProcessId, bytes: Bytes, ctx: &mut LayerCtx<'_>) {
        self.0.push(ctx, &bytes, None);
        ctx.deliver_up(src, bytes);
    }
}

fn p2p() -> Box<dyn Medium> {
    Box::new(PointToPoint::new(HOP))
}

/// Eight members of token-order (1 ms base hold) over `medium`, with the
/// given application sends; not yet run.
fn ring(
    service: SimTime,
    medium: Box<dyn Medium>,
    sends: &[(SimTime, ProcessId)],
) -> (GroupSim, WireLog) {
    let log = WireLog::default();
    let tap = log.clone();
    let mut b = GroupSimBuilder::new(N).seed(9).service_time(service).medium(medium).stack_factory(
        move |_, _, _| {
            Stack::new(vec![
                Box::new(TokenOrderLayer::with_idle_hold(BASE)),
                Box::new(WireTap(tap.clone())),
            ])
        },
    );
    for (i, &(at, sender)) in sends.iter().enumerate() {
        b = b.send_at(at, sender, format!("m{i}"));
    }
    (b.build(), log)
}

/// One hold of the sleeping ring: `holder` sits on the token until `until`.
#[derive(Clone, Copy, Debug)]
struct Hold {
    holder: ProcessId,
    from: SimTime,
    until: SimTime,
}

/// The holds of an untouched ring once it sleeps, learned from a dry run.
/// A run with sends is the same run up to its first send.
fn sleeping_holds(service: SimTime) -> Vec<Hold> {
    let (mut sim, log) = ring(service, p2p(), &[]);
    sim.run_until(SimTime::from_millis(1500));
    let passes = log.sent(Kind::Token);
    let holds: Vec<Hold> = passes
        .windows(2)
        .filter(|w| w[0].at >= ASLEEP)
        .map(|w| Hold { holder: w[1].node, from: w[0].at, until: w[1].at })
        .collect();
    assert!(holds.len() >= 8, "{} holds", holds.len());
    for h in &holds {
        let held = h.until.saturating_sub(h.from);
        assert!(held >= CAP && held < CAP + BASE, "the ring is not asleep: held {held}");
    }
    holds
}

fn service_time(busy: bool) -> SimTime {
    if busy {
        SimTime::from_micros(150)
    } else {
        SimTime::ZERO
    }
}

/// A member other than `holder`, chosen by `pick`.
fn other_than(holder: ProcessId, pick: u16) -> ProcessId {
    ProcessId((holder.0 + 1 + pick % (N - 1)) % N)
}

/// Exactly one token is in the ring from `since` on: every pass goes to
/// the member that makes the next one.
fn assert_one_token(log: &WireLog, since: SimTime) {
    let passes: Vec<Seen> = log.sent(Kind::Token).into_iter().filter(|s| s.at >= since).collect();
    assert!(passes.len() >= usize::from(N), "the ring stopped: {} passes", passes.len());
    for w in passes.windows(2) {
        assert_eq!(
            w[0].to,
            Some(Cast::To(w[1].node)),
            "a second token: {:?} then {:?}",
            w[0],
            w[1]
        );
    }
}

fn assert_delivered_in_order(sim: &GroupSim, msgs: usize) {
    let trace = sim.app_trace();
    assert!(TotalOrder.holds(&trace));
    assert!(Reliability::new(sim.group().to_vec()).holds(&trace));
    assert_eq!(sim.deliveries().len(), msgs * usize::from(N));
}

props! {
    #![config(cases = 48)]

    /// The wake reaches the holder within a few microseconds of its hold
    /// timer: whichever is handled first passes the token on, and the other
    /// must find nothing left to pass.
    fn a_wake_racing_the_hold_expiry_leaves_exactly_one_token(
        hold in 0usize..8,
        waker in 0u16..7,
        early_us in 0u64..7,
        busy in arb::<bool>(),
    ) {
        let service = service_time(busy);
        let hold = sleeping_holds(service)[hold];
        let waker = other_than(hold.holder, waker);
        // How long a wake takes from the application send to the holder,
        // measured mid-hold where nothing else is going on.
        let probe_at = hold.from + SimTime::from_millis(20);
        let (mut probe, log) = ring(service, p2p(), &[(probe_at, waker)]);
        probe.run_until(hold.until);
        let arrived = log.arrived(Kind::Wake);
        let at_holder = arrived.iter().find(|s| s.node == hold.holder).expect("wake reached the holder");
        let flight = at_holder.at - probe_at;

        // Aimed at the expiry instant, three microseconds either side.
        let send_at = hold.until + SimTime::from_micros(3) - flight - SimTime::from_micros(early_us);
        let (mut sim, log) = ring(service, p2p(), &[(send_at, waker)]);
        sim.run_until(send_at + SimTime::from_secs(1));

        assert_eq!(log.sent(Kind::Wake).len(), 1);
        let first = log.sent(Kind::Token).into_iter().find(|s| s.at >= send_at).unwrap();
        assert_eq!(first.node, hold.holder);
        assert!(first.at <= hold.until + service, "passed on at {}, due {}", first.at, hold.until);
        assert_one_token(&log, send_at);
        assert_delivered_in_order(&sim, 1);
    }

    /// Two members get work in the same instant on a sleeping ring: both
    /// wake it, the holder passes the token on once.
    fn two_members_waking_at_once_get_one_token_between_them(
        hold in 0usize..8,
        first in 0u16..7,
        second in 0u16..6,
        into_hold_ms in 1u64..60,
        busy in arb::<bool>(),
    ) {
        let service = service_time(busy);
        let hold = sleeping_holds(service)[hold];
        let a = other_than(hold.holder, first);
        let b = (0..N).map(ProcessId).filter(|&p| p != hold.holder && p != a).nth(usize::from(second)).unwrap();
        let at = hold.from + SimTime::from_millis(into_hold_ms);
        let (mut sim, log) = ring(service, p2p(), &[(at, a), (at, b)]);
        sim.run_until(at + SimTime::from_secs(1));

        assert_eq!(log.sent(Kind::Wake).len(), 2, "each saw a sleeping ring");
        let first = log.sent(Kind::Token).into_iter().find(|s| s.at >= at).unwrap();
        assert!(first.at < hold.until, "the holder did not wait for its timer");
        assert_one_token(&log, at);
        assert_delivered_in_order(&sim, 2);
        // Woken, the ring serves both within a base rotation.
        let rotation = (BASE + HOP + service).mul(u64::from(N) + 2);
        assert!(sim.deliveries().iter().all(|d| d.at <= at + rotation));
    }

    /// The wake never arrives (the waker is cut off for the millisecond in
    /// which it is sent; no reliable layer underneath). Nobody resets, and
    /// the token still comes round at the sleeping rate: the message waits
    /// at most a sleeping rotation, `cap × n`.
    fn a_lost_wake_only_delays_to_the_sleeping_rotation(
        hold in 0usize..8,
        waker in 0u16..7,
        into_hold_ms in 1u64..60,
        busy in arb::<bool>(),
    ) {
        let service = service_time(busy);
        let hold = sleeping_holds(service)[hold];
        let waker = other_than(hold.holder, waker);
        let at = hold.from + SimTime::from_millis(into_hold_ms);
        let others = (0..N).filter(|&i| i != waker.0).map(|i| NodeId(u32::from(i))).collect();
        let cut = PartitionSchedule::new(p2p())
            .partition_at(at, vec![others])
            .heal_at(at + SimTime::from_millis(1));
        let (mut sim, log) = ring(service, Box::new(cut), &[(at, waker)]);
        sim.run_until(at + SimTime::from_secs(2));

        assert_eq!(log.sent(Kind::Wake).len(), 1);
        assert!(log.arrived(Kind::Wake).is_empty(), "the wake was meant to be lost");
        assert_one_token(&log, at);
        assert_delivered_in_order(&sim, 1);
        let sleeping_rotation = (CAP + HOP + service).mul(u64::from(N));
        let last = sim.deliveries().iter().map(|d| d.at).max().unwrap();
        assert!(last <= at + sleeping_rotation, "delivered {} after the send", last - at);
        let first = log.sent(Kind::Token).into_iter().find(|s| s.at >= at).unwrap();
        assert!(first.at >= hold.until, "nobody was woken: the holder waits for its timer");
    }

    /// The holder of a sleeping ring crashes mid-hold and comes back: it
    /// resumes the hold that was in force, not the base hold.
    fn a_holder_that_crashed_asleep_resumes_the_backed_off_hold(
        hold in 0usize..8,
        into_hold_ms in 1u64..40,
        down_ms in 1u64..20,
        busy in arb::<bool>(),
    ) {
        let service = service_time(busy);
        let hold = sleeping_holds(service)[hold];
        let crash = hold.from + SimTime::from_millis(into_hold_ms);
        let back = crash + SimTime::from_millis(down_ms);
        let (mut sim, log) = ring(service, p2p(), &[]);
        sim.schedule_crash(crash, hold.holder);
        sim.schedule_recover(back, hold.holder);
        sim.run_until(back + SimTime::from_secs(1));

        let next = log.sent(Kind::Token).into_iter().find(|s| s.at >= crash).unwrap();
        assert_eq!(next.node, hold.holder);
        assert!(
            next.at >= back + CAP && next.at <= back + CAP + service,
            "re-armed for {}, hold in force {CAP}",
            next.at - back
        );
        assert!(log.sent(Kind::Wake).is_empty());
        assert_one_token(&log, crash);
    }
}

/// Every member sends every 4 ms, half a millisecond apart: each sees
/// traffic between two visits of the token, so the ring stays at the base
/// hold, nobody ever wakes it, and the token is passed exactly as often as
/// before there was an idle policy (the pinned count is the parent
/// commit's, from this same test).
#[test]
fn under_steady_load_no_wake_is_sent_and_the_token_is_passed_as_often_as_ever() {
    let mut sends = Vec::new();
    for round in 0..500u64 {
        for p in 0..N {
            let at = SimTime::from_micros(1_000 + 4_000 * round + 500 * u64::from(p));
            sends.push((at, ProcessId(p)));
        }
    }
    let (mut sim, log) = ring(SimTime::from_micros(20), p2p(), &sends);
    sim.run_until(SimTime::from_millis(2_100));
    assert_delivered_in_order(&sim, sends.len());
    assert!(log.sent(Kind::Wake).is_empty());
    // While the load lasts; the tail of the run is an idle ring again.
    let loaded = SimTime::from_millis(2_000);
    assert_eq!(log.sent(Kind::Token).iter().filter(|s| s.at < loaded).count(), 3998);
}

/// The same ring with nothing to send, for ten seconds: at most a pinned
/// number of frames and timers (the always-rotating ring needed 7 462 of
/// each).
#[test]
fn an_idle_ring_goes_quiet() {
    let (mut sim, log) = ring(SimTime::from_micros(20), p2p(), &[]);
    sim.run_until(SimTime::from_secs(10));
    let stats = sim.net_stats();
    assert!(log.sent(Kind::Wake).is_empty());
    assert!(stats.frames_sent <= 195, "{stats}");
    assert!(stats.timers_fired <= 195, "{stats}");
}
