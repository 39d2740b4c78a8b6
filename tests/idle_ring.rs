//! The switching protocol's NORMAL ring asleep: what an idle hybrid costs,
//! that a wish wakes it, that its sleep is never mistaken for a lost token,
//! and that a member which crashes on a backed-off token resumes it.
//!
//! The ring is watched from below: a tap under the switch decodes every
//! control frame back into the [`RingToken`] it carries.

use protocol_switching::prelude::*;
use protocol_switching::stack::channel;
use protocol_switching::switch::{RingToken, TokenMode};
use protocol_switching::wire::Wire;
use ps_check::prelude::*;
use std::sync::{Arc, Mutex};

const N: u16 = 8;
const HOP: SimTime = SimTime::from_micros(300);
/// `GroupSimBuilder`'s default per-event CPU time.
const SERVICE: SimTime = SimTime::from_micros(150);

/// A ring token handed to the network.
#[derive(Clone, Debug)]
struct Pass {
    at: SimTime,
    node: ProcessId,
    to: Cast,
    token: RingToken,
}

#[derive(Clone, Default)]
struct ControlLog(Arc<Mutex<Vec<Pass>>>);

impl ControlLog {
    fn passes(&self) -> Vec<Pass> {
        self.0.lock().unwrap().clone()
    }
    fn in_mode(&self, mode: TokenMode) -> Vec<Pass> {
        self.passes().into_iter().filter(|p| p.token.mode == mode).collect()
    }
}

struct ControlTap(ControlLog);

impl Layer for ControlTap {
    fn name(&self) -> &'static str {
        "control-tap"
    }
    fn on_down(&mut self, frame: Frame, ctx: &mut LayerCtx<'_>) {
        if let Ok((ChannelId::CONTROL, payload)) = channel::demux(frame.bytes.clone()) {
            let envelope = Message::from_bytes(&payload).expect("control frames carry an envelope");
            let token = RingToken::from_bytes(&envelope.body).expect("and the envelope a token");
            let pass = Pass { at: ctx.now(), node: ctx.me(), to: frame.dest, token };
            self.0 .0.lock().unwrap().push(pass);
        }
        ctx.send_down(frame);
    }
}

type Handles = Arc<Mutex<Vec<SwitchHandle>>>;

/// Eight members of `hybrid_total_order` with the SP ring's base hold at
/// `idle_hold`; `wish` makes one member's oracle ask for protocol 1.
fn hybrid(
    idle_hold: SimTime,
    wish: Option<(SimTime, ProcessId)>,
    sends: &[(SimTime, ProcessId)],
) -> (GroupSim, ControlLog, Handles) {
    let log = ControlLog::default();
    let handles = Handles::default();
    let (tap, sink) = (log.clone(), handles.clone());
    let mut b = GroupSimBuilder::new(N)
        .seed(17)
        .medium(Box::new(PointToPoint::new(HOP)))
        .stack_factory(move |p, _, ids| {
            let oracle: Box<dyn Oracle> = match wish {
                Some((at, who)) if who == p => Box::new(ManualOracle::new(vec![(at, 1)])),
                _ => Box::new(NeverOracle),
            };
            let cfg = SwitchConfig {
                variant: SwitchVariant::TokenRing { idle_hold },
                observe_interval: SimTime::from_millis(10),
                ..SwitchConfig::default()
            };
            let (mut stack, handle) = hybrid_total_order(ids, cfg, ProcessId(0), oracle);
            stack.push_bottom(Box::new(ControlTap(tap.clone())), ids);
            sink.lock().unwrap().push(handle);
            stack
        });
    for (i, &(at, sender)) in sends.iter().enumerate() {
        b = b.send_at(at, sender, format!("m{i}"));
    }
    (b.build(), log, handles)
}

/// Exactly one NORMAL token from `since` on, never regenerated: every pass
/// goes to the member that makes the next one, at generation zero.
fn assert_one_original_token(passes: &[Pass], since: SimTime) {
    let normal: Vec<&Pass> =
        passes.iter().filter(|p| p.token.mode == TokenMode::Normal && p.at >= since).collect();
    assert!(normal.len() >= 2, "the ring stopped");
    for w in normal.windows(2) {
        assert_eq!(w[0].to, Cast::To(w[1].node), "a second token: {:?} then {:?}", w[0], w[1]);
    }
    for p in passes {
        assert_eq!(p.token.gen, 0, "regenerated: {p:?}");
    }
}

/// An idle hybrid — nothing to send, nothing to switch — for ten simulated
/// seconds. Both rings back off, so what is left is two rings at their
/// sleeping rate and, of the timers, 800 oracle ticks (eight members,
/// 100 ms) and two watchdog checks. With both rings always rotating this
/// run sent 10 076 frames and fired 10 869 timers.
#[test]
fn an_idle_hybrid_group_goes_quiet() {
    let log = ControlLog::default();
    let tap = log.clone();
    let mut sim = GroupSimBuilder::new(N)
        .seed(17)
        .medium(Box::new(PointToPoint::new(HOP)))
        .stack_factory(move |_, _, ids| {
            let oracle = Box::new(NeverOracle);
            let (mut stack, _) =
                hybrid_total_order(ids, SwitchConfig::default(), ProcessId(0), oracle);
            stack.push_bottom(Box::new(ControlTap(tap.clone())), ids);
            stack
        })
        .build();
    sim.run_until(SimTime::from_secs(10));
    let stats = sim.net_stats();
    assert!(stats.frames_sent <= 311, "{stats}");
    assert!(stats.timers_fired <= 1104, "{stats}");
    assert!(log.in_mode(TokenMode::Wake).is_empty());
    assert_one_original_token(&log.passes(), SimTime::ZERO);
}

props! {
    #![config(cases = 24)]

    /// Past two watchdog checks (5 s, 10 s) of an idle group, one member's
    /// oracle asks for a switch. Whatever the base hold, the sleeping ring
    /// was never taken for dead, one wake gets the token moving, and the
    /// switch starts within a base rotation and completes everywhere.
    fn a_wish_on_a_sleeping_ring_wakes_it_and_the_switch_completes(
        hold_ms in 0usize..3,
        wisher in 0u16..8,
        after_ms in 0u64..1000,
    ) {
        let idle_hold = SimTime::from_millis([1, 2, 10][hold_ms]);
        let wisher = ProcessId(wisher);
        let wish_at = SimTime::from_secs(11) + SimTime::from_millis(after_ms);
        // One message per member around the switch.
        let sends: Vec<(SimTime, ProcessId)> = (0..N)
            .map(|p| (wish_at + SimTime::from_millis(5 * u64::from(p)), ProcessId(p)))
            .collect();
        let (mut sim, log, handles) = hybrid(idle_hold, Some((wish_at, wisher)), &sends);
        sim.run_until(wish_at + SimTime::from_secs(2));

        assert_one_original_token(&log.passes(), SimTime::ZERO);
        let wakes = log.in_mode(TokenMode::Wake);
        assert!(wakes.len() <= 1, "{wakes:?}");
        assert!(wakes.iter().all(|w| w.node == wisher && w.to == Cast::Others));
        let handles = handles.lock().unwrap();
        for h in handles.iter() {
            let s = h.snapshot();
            assert_eq!((s.records.len(), s.aborted, s.current), (1, 0, 1), "{h:?}");
        }
        // The oracle is asked every 10 ms; from its wish, a ring at the
        // base hold brings the token within a rotation.
        let started = handles[usize::from(wisher.0)].snapshot().records[0].started_at;
        let rotation = (idle_hold + HOP + SERVICE).mul(u64::from(N) + 1);
        assert!(
            started <= wish_at + SimTime::from_millis(10) + rotation,
            "wished at {wish_at}, seized the token at {started}"
        );
        let trace = sim.app_trace();
        assert!(TotalOrder.holds(&trace));
        assert!(Reliability::new(sim.group().to_vec()).holds(&trace));
    }

    /// The member sitting on the sleeping ring's token crashes mid-hold and
    /// recovers: it waits out the hold that was in force (64 × 2 ms), the
    /// watchdog stays quiet, and there is still one token.
    fn a_member_that_crashed_on_a_backed_off_token_resumes_its_hold(
        pass in 0usize..8,
        into_hold_ms in 1u64..100,
        down_ms in 1u64..20,
    ) {
        let idle_hold = SimTime::from_millis(2);
        let asleep = SimTime::from_millis(1500);
        let (mut dry, log, _) = hybrid(idle_hold, None, &[]);
        dry.run_until(SimTime::from_secs(4));
        let passes: Vec<Pass> = log.passes().into_iter().filter(|p| p.at >= asleep).collect();
        let (from, holder, until) = (passes[pass].at, passes[pass + 1].node, passes[pass + 1].at);
        let in_force = SimTime::from_millis(128);
        assert!(until - from >= in_force && until - from < in_force + SimTime::from_millis(1));

        let crash = from + SimTime::from_millis(into_hold_ms);
        let back = crash + SimTime::from_millis(down_ms);
        let (mut sim, log, _) = hybrid(idle_hold, None, &[]);
        sim.schedule_crash(crash, holder);
        sim.schedule_recover(back, holder);
        sim.run_until(back + SimTime::from_secs(7));

        let passes = log.passes();
        let next = passes.iter().find(|p| p.at >= crash).unwrap();
        assert_eq!(next.node, holder);
        assert!(
            next.at >= back + in_force && next.at <= back + in_force + SERVICE,
            "re-armed for {}, hold in force {in_force}",
            next.at - back
        );
        assert_one_original_token(&passes, crash);
    }
}
