//! The compact application log reads back exactly what a full log would.
//!
//! A process logs a scheduled message by id against the group's shared
//! schedule, and anything else whole beside it (`ps_stack::AppLog`). Here
//! a reference layer at the top of every stack keeps the log the plain
//! way — each send and delivery as a `(SimTime, Event)` with its own body —
//! and the driver's `app_trace`, `send_times` and `deliveries` must equal
//! what that reference log gives on four runs: a steady hybrid, a hybrid
//! in which one member's delivered bodies are altered and forged, a
//! virtually synchronous group that delivers view changes, and a hybrid
//! over UDP loopback that announces its switch as a view change.

use ps_bytes::Bytes;
use ps_core::{hybrid_layer, ManualOracle, NeverOracle, Oracle, Proto, SwitchConfig};
use ps_net::{NetConfig, UdpGroup};
use ps_protocols::{VsyncConfig, VsyncLayer};
use ps_simnet::SimTime;
use ps_stack::{DeliveryRecord, Driver, Frame, GroupSimBuilder, GroupSpec, Layer, LayerCtx, Stack};
use ps_trace::{Event, Message, MsgId, ProcessId, Trace};
use ps_wire::Wire;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

const N: u16 = 4;

/// Every process's log as a full log keeps it, by process.
type FullLogs = Arc<Mutex<Vec<Vec<(SimTime, Event)>>>>;

/// Logs each message the application sends or is delivered, whole, at the
/// instant it passes. Sits at the top of the stack, so it sees what the
/// application does, in the same handler call.
struct Reference(FullLogs);

impl Layer for Reference {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn on_down(&mut self, frame: Frame, ctx: &mut LayerCtx<'_>) {
        let msg = Message::from_frame(&frame.bytes).expect("the application sends messages");
        self.0.lock().unwrap()[ctx.me().index()].push((ctx.now(), Event::send(msg)));
        ctx.send_down(frame);
    }

    fn on_up(&mut self, src: ProcessId, bytes: Bytes, ctx: &mut LayerCtx<'_>) {
        if let Ok(msg) = Message::from_frame(&bytes) {
            let ev = Event::deliver(ctx.me(), msg);
            self.0.lock().unwrap()[ctx.me().index()].push((ctx.now(), ev));
        }
        ctx.deliver_up(src, bytes);
    }
}

/// At process 2, alters the body of sender 1's second message and moves
/// sender 3's first message to an id no schedule has.
struct Tamper;

impl Layer for Tamper {
    fn name(&self) -> &'static str {
        "tamper"
    }

    fn on_up(&mut self, src: ProcessId, bytes: Bytes, ctx: &mut LayerCtx<'_>) {
        let tampered = match Message::from_frame(&bytes) {
            Ok(m) if ctx.me() == ProcessId(2) && m.id == MsgId::new(ProcessId(1), 2) => {
                let mut body = m.body.to_vec();
                body[0] ^= 0xFF;
                Message::new(m.id.sender, m.id.seq, Bytes::copy_from_slice(&body)).to_bytes()
            }
            Ok(m) if ctx.me() == ProcessId(2) && m.id == MsgId::new(ProcessId(3), 1) => {
                Message::new(m.id.sender, 1_000, m.body).to_bytes()
            }
            _ => bytes,
        };
        ctx.deliver_up(src, tampered);
    }
}

/// What the driver's read-out was before the log became compact, over
/// full logs: [`Driver::app_trace`], [`Driver::send_times`] and
/// [`Driver::deliveries`].
struct Expected {
    trace: Trace,
    send_times: BTreeMap<MsgId, SimTime>,
    deliveries: Vec<DeliveryRecord>,
}

impl Expected {
    fn of(logs: &[Vec<(SimTime, Event)>]) -> Self {
        let mut events: Vec<(SimTime, usize, usize, &Event)> = Vec::new();
        for (p, log) in logs.iter().enumerate() {
            events.extend(log.iter().enumerate().map(|(idx, (at, ev))| (*at, p, idx, ev)));
        }
        events.sort_by_key(|&(at, p, idx, _)| (at, p, idx));
        let trace = events.into_iter().map(|(.., ev)| ev.clone()).collect();
        let mut send_times = BTreeMap::new();
        let mut deliveries = Vec::new();
        for (at, ev) in logs.iter().flatten() {
            match ev {
                Event::Send(m) => {
                    send_times.insert(m.id, *at);
                }
                Event::Deliver(p, m) => {
                    deliveries.push(DeliveryRecord { msg: m.id, process: *p, at: *at })
                }
            }
        }
        Expected { trace, send_times, deliveries }
    }

    fn check(&self, driver: &dyn Driver, run: &str) {
        assert_eq!(driver.app_trace(), self.trace, "{run}: app_trace");
        assert_eq!(driver.send_times(), self.send_times, "{run}: send_times");
        assert_eq!(driver.deliveries(), self.deliveries, "{run}: deliveries");
    }
}

/// Three sends from each member; bodies from 1 to 40 bytes, so that some
/// live in their handle and some in a buffer, and two of them alike.
fn sends() -> Vec<(SimTime, ProcessId, Bytes)> {
    (0..3 * u64::from(N))
        .map(|i| {
            let body =
                if i == 5 { vec![b'b'; 4] } else { vec![b'a' + i as u8; 1 + 3 * i as usize] };
            let sender = ProcessId((i % u64::from(N)) as u16);
            (SimTime::from_millis(5 + 4 * i), sender, Bytes::from(body))
        })
        .collect()
}

/// A group of `N` over `layers`, with a reference layer on top.
fn spec(full: &FullLogs, layers: impl Fn(ProcessId) -> Vec<Box<dyn Layer>> + 'static) -> GroupSpec {
    let full = Arc::clone(full);
    GroupSpec::new(N).seed(0xC0FF).sends(sends()).stack_factory(move |p, _, ids| {
        let mut stack: Vec<Box<dyn Layer>> = vec![Box::new(Reference(Arc::clone(&full)))];
        stack.extend(layers(p));
        Stack::with_ids(stack, ids)
    })
}

fn events(log: &[(SimTime, Event)]) -> Vec<&Event> {
    log.iter().map(|(_, e)| e).collect()
}

fn full_logs() -> FullLogs {
    Arc::new(Mutex::new(vec![Vec::new(); usize::from(N)]))
}

/// The sequencer/token hybrid; with `views`, process 0 switches at 30 ms
/// and the switch announces it as a view change.
fn hybrid(views: bool) -> impl Fn(ProcessId) -> Vec<Box<dyn Layer>> {
    move |p| {
        let oracle: Box<dyn Oracle> = if views && p == ProcessId(0) {
            Box::new(ManualOracle::new(vec![(SimTime::from_millis(30), 1)]))
        } else {
            Box::new(NeverOracle)
        };
        let cfg = SwitchConfig { announce_views: views, ..SwitchConfig::default() };
        let token = Proto::Token(SimTime::from_millis(1));
        hybrid_layer(&mut ps_stack::IdGen::new(), cfg, Proto::Seq(0), token, oracle).0
    }
}

fn simulated(full: &FullLogs, spec: GroupSpec, run: &str) {
    let mut sim = GroupSimBuilder::from_spec(spec).build();
    sim.run_until(SimTime::from_secs(1));
    let logs = full.lock().unwrap();
    let deliveries = logs.iter().flatten().filter(|(_, e)| e.is_deliver()).count();
    assert!(deliveries >= 3 * usize::from(N * N), "{run}: {deliveries} deliveries");
    Expected::of(&logs).check(&sim, run);
}

#[test]
fn a_steady_hybrid_reads_back_exactly() {
    let full = full_logs();
    simulated(&full, spec(&full, hybrid(false)), "steady hybrid");
}

#[test]
fn an_altered_or_forged_delivery_reads_back_as_delivered() {
    let full = full_logs();
    let layers = |p| {
        let mut layers: Vec<Box<dyn Layer>> = vec![Box::new(Tamper)];
        layers.extend(hybrid(false)(p));
        layers
    };
    simulated(&full, spec(&full, layers), "tampered hybrid");
    let logs = full.lock().unwrap();
    let at_2: Vec<&Message> = logs[2].iter().map(|(_, e)| e.message()).collect();
    assert!(at_2.iter().any(|m| m.id == MsgId::new(ProcessId(1), 2) && m.body[0] != b'b'));
    assert!(at_2.iter().any(|m| m.id == MsgId::new(ProcessId(3), 1_000)));
}

#[test]
fn view_changes_read_back_exactly() {
    let full = full_logs();
    let changes = vec![
        (SimTime::from_millis(15), vec![ProcessId(0), ProcessId(1), ProcessId(2)]),
        (SimTime::from_millis(35), (0..N).map(ProcessId).collect()),
    ];
    let layers = move |_| -> Vec<Box<dyn Layer>> {
        let cfg = VsyncConfig { changes: changes.clone(), ..VsyncConfig::default() };
        vec![Box::new(VsyncLayer::new(cfg))]
    };
    simulated(&full, spec(&full, layers), "vsync");
    let logs = full.lock().unwrap();
    let views = logs.iter().flatten().filter(|(_, e)| e.message().is_view_change()).count();
    assert!(views >= 2 * usize::from(N) - 1, "{views} view deliveries");
}

#[test]
fn a_loopback_group_reads_back_exactly() {
    let full = full_logs();
    let mut group = UdpGroup::launch(spec(&full, hybrid(true)), NetConfig::default());
    group.run_until(SimTime::from_millis(600));
    // A socket run's clock moves on between the reference layer's call and
    // the application's, so the reference takes each entry's instant from
    // the driver's log, once the two hold the same events in the same order.
    let timed: Vec<Vec<(SimTime, Event)>> = {
        let logs = full.lock().unwrap();
        group
            .group()
            .iter()
            .zip(logs.iter())
            .map(|(&p, reference)| {
                let compact: Vec<(SimTime, Event)> = group.process_log(p).events().collect();
                assert_eq!(events(&compact), events(reference), "{p}'s events");
                compact
            })
            .collect()
    };
    Expected::of(&timed).check(&group, "loopback hybrid");
    let views = timed.iter().flatten().filter(|(_, e)| e.message().is_view_change()).count();
    assert_eq!(views, usize::from(N), "one view change per process");
    let delivered = group.shutdown().delivered_per_process;
    assert_eq!(delivered, vec![3 * usize::from(N) + 1; usize::from(N)]);
}
