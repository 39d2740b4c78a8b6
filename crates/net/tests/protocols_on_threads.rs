//! The protocol stacks on real OS threads over UDP loopback, one socket
//! per process, with wall-clock timers. Assertions are on trace
//! properties, never exact timings. The switching protocol's case is in
//! `loopback_e2e.rs`.

use ps_bytes::Bytes;
use ps_net::{NetConfig, NetReport, UdpGroup};
use ps_protocols::{ReliableConfig, ReliableLayer, SeqOrderLayer, TokenOrderLayer};
use ps_simnet::SimTime;
use ps_stack::{Driver, GroupSpec, Layer, LayerCtx, Stack};
use ps_trace::props::{NoReplay, Property, Reliability, TotalOrder};
use ps_trace::{ProcessId, Trace};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Share of received frames the drop layer discards.
const LOSS: f64 = 0.25;

/// Drops each frame it receives with probability [`LOSS`], drawing on the
/// process's seeded stream, and counts what it dropped. At the bottom of
/// a stack it is a lossy medium as far as every layer above can tell:
/// the frame went out on a real socket and never arrived.
struct DropLayer {
    dropped: Arc<AtomicUsize>,
}

impl Layer for DropLayer {
    fn name(&self) -> &'static str {
        "drop"
    }

    fn on_up(&mut self, src: ProcessId, bytes: Bytes, ctx: &mut LayerCtx<'_>) {
        if ctx.rng().chance(LOSS) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            ctx.deliver_up(src, bytes);
        }
    }
}

/// Runs `spec` with `msgs` sends round-robin over its members, `gap`
/// apart from 5 ms in, until `until`; returns the trace and the tallies.
fn run(mut spec: GroupSpec, msgs: u64, gap: SimTime, until: SimTime) -> (Trace, NetReport) {
    let n = u64::from(spec.n);
    for i in 0..msgs {
        let at = SimTime::from_micros(5_000 + i * gap.as_micros());
        spec = spec.send_at(at, ProcessId((i % n) as u16), format!("m-{i}"));
    }
    let mut group = UdpGroup::launch(spec, NetConfig::default());
    group.run_until(until);
    let trace = group.app_trace();
    (trace, group.shutdown())
}

#[test]
fn sequencer_total_order_on_threads() {
    let n = 4;
    let spec = GroupSpec::new(n).seed(0x27).stack_factory(|_, _, ids| {
        Stack::with_ids(vec![Box::new(SeqOrderLayer::new(ProcessId(0)))], ids)
    });
    let (trace, report) = run(spec, 16, SimTime::from_millis(3), SimTime::from_millis(350));
    assert!(TotalOrder.holds(&trace), "{trace}");
    assert!(Reliability::new((0..n).map(ProcessId)).holds(&trace));
    assert_eq!(report.delivered_per_process.iter().sum::<usize>(), 16 * 4);
}

#[test]
fn token_total_order_on_threads() {
    let n = 3;
    let spec = GroupSpec::new(n).seed(0x27).stack_factory(|_, _, ids| {
        Stack::with_ids(
            vec![Box::new(TokenOrderLayer::with_idle_hold(SimTime::from_millis(1)))],
            ids,
        )
    });
    let (trace, _) = run(spec, 12, SimTime::from_millis(4), SimTime::from_millis(450));
    assert!(TotalOrder.holds(&trace), "{trace}");
    assert!(Reliability::new((0..n).map(ProcessId)).holds(&trace));
}

#[test]
fn reliable_exactly_once_under_loss_on_threads() {
    let n = 3;
    let dropped = Arc::new(AtomicUsize::new(0));
    let dropped_in = Arc::clone(&dropped);
    let spec = GroupSpec::new(n).seed(0x27).stack_factory(move |_, _, ids| {
        Stack::with_ids(
            vec![
                Box::new(ReliableLayer::with_config(ReliableConfig {
                    retransmit_interval: SimTime::from_millis(5),
                })),
                Box::new(DropLayer { dropped: Arc::clone(&dropped_in) }),
            ],
            ids,
        )
    });
    // Give retransmissions room to finish.
    let (trace, _) = run(spec, 10, SimTime::from_millis(3), SimTime::from_millis(750));
    assert!(dropped.load(Ordering::Relaxed) > 0, "the drop layer must have dropped something");
    assert!(Reliability::new((0..n).map(ProcessId)).holds(&trace), "{trace}");
    assert!(NoReplay.holds(&trace));
}
