//! The six workloads and the code that runs one rep of each.
//!
//! A rep is: generate the seeded schedule, build the stacks, drive the
//! group to its horizon, read the results out, check them. The system is
//! driven only through its public API and receives only the generated
//! schedule; the seed stays on this side.

use crate::alloc;
use crate::check::{check_trace, Verdict};
use crate::clock::process_cpu_ns;
use crate::reference;
use crate::spans::Tracer;
use crate::stats::{due_latencies, mean_us, quantile_us};
use ps_core::{
    hybrid_seq_token_ft, hybrid_total_order, ManualOracle, NeverOracle, Oracle, SwitchConfig,
    SwitchHandle,
};
use ps_net::{NetConfig, UdpGroup};
use ps_obs::{MetricsSampler, MonitorSet, Recorder};
use ps_prof::Profiler;
use ps_simnet::{EthernetConfig, Lossy, Medium, NetStats, SharedBus, SimTime};
use ps_stack::{Driver, GroupSimBuilder, GroupSpec, IdGen, Stack};
use ps_trace::ProcessId;
use ps_workload::{Profile, TrafficSpec};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Builds one member's stack around the given oracle.
pub type StackBuilder =
    fn(ProcessId, &mut IdGen, SwitchConfig, Box<dyn Oracle>) -> (Stack, SwitchHandle);

/// `hybrid_total_order`: one `SwitchLayer` over seq-order / token-order,
/// member 0 sequencing.
fn hybrid(
    _: ProcessId,
    ids: &mut IdGen,
    cfg: SwitchConfig,
    oracle: Box<dyn Oracle>,
) -> (Stack, SwitchHandle) {
    hybrid_total_order(ids, cfg, ProcessId(0), oracle)
}

/// `hybrid_seq_token_ft`: seq-order + fifo + reliable / token-order +
/// reliable, with a reliable control stack, member 0 sequencing.
fn hybrid_ft(
    _: ProcessId,
    ids: &mut IdGen,
    cfg: SwitchConfig,
    oracle: Box<dyn Oracle>,
) -> (Stack, SwitchHandle) {
    hybrid_seq_token_ft(ids, cfg, ProcessId(0), SimTime::from_millis(1), oracle)
}

/// What carries the frames.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Wire {
    /// `ps-simnet`: a 100 Mbit/s shared bus dropping this share of copies.
    Simnet { loss: f64 },
    /// `ps-net`: real UDP sockets on the host's loopback interface.
    UdpLoopback,
}

/// One workload: a fixed scenario, varied only by the seed.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line and in every report.
    pub name: &'static str,
    /// Why the workload exists (one line; mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// Builds the stack under test.
    pub stack: StackBuilder,
    /// Application body size in bytes.
    pub body_bytes: usize,
    /// Scripted alternating seq↔token switch period, if any.
    pub switch_every: Option<SimTime>,
    /// Attach an enabled recorder, the standard monitors and a sampler.
    pub observed: bool,
    /// The medium.
    pub wire: Wire,
}

/// Members / senders / per-sender rate of the simulated group. Four
/// senders at 100 msg/s keep the modelled bus and CPUs below saturation.
const SIM_GROUP: u16 = 8;
const SIM_SENDERS: u16 = 4;
const SIM_RATE: f64 = 100.0;
/// One OS thread and one socket per member: two members fill this host.
const UDP_GROUP: u16 = 2;
const UDP_RATE: f64 = 200.0;
/// Traffic starts after the stacks have launched and the run drains past
/// the last send before it is read out.
const START: SimTime = SimTime::from_millis(100);
const DRAIN: SimTime = SimTime::from_millis(400);

/// The benchmark's workloads, in report order.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "steady_small",
        why: "1-layer hybrid, 32 B bodies, no switch: per-message fixed cost; zero-copy and recorder changes must not move it",
        stack: hybrid,
        body_bytes: 32,
        switch_every: None,
        observed: false,
        wire: Wire::Simnet { loss: 0.0 },
    },
    Workload {
        name: "steady_large",
        why: "4-layer fault-tolerant hybrid, 1400 B bodies: header push/pop copies and byte allocation dominate; where zero-copy must show",
        stack: hybrid_ft,
        body_bytes: 1400,
        switch_every: None,
        observed: false,
        wire: Wire::Simnet { loss: 0.0 },
    },
    Workload {
        name: "switch_storm",
        why: "steady_small with a scripted seq<->token switch every 50 ms of simulated time: PREPARE/drain/flip/release and buffering do the work",
        stack: hybrid,
        body_bytes: 32,
        switch_every: Some(SimTime::from_millis(50)),
        observed: false,
        wire: Wire::Simnet { loss: 0.0 },
    },
    Workload {
        name: "observed",
        why: "steady_small with recorder, standard monitors and sampler attached: obs/record and sink fan-out carry the delta",
        stack: hybrid,
        body_bytes: 32,
        switch_every: None,
        observed: true,
        wire: Wire::Simnet { loss: 0.0 },
    },
    Workload {
        name: "lossy_ft",
        why: "steady_large's stack, 32 B bodies, 10% frame loss: reliable/fifo on their slow path (timers, retransmission, reorder buffers)",
        stack: hybrid_ft,
        body_bytes: 32,
        switch_every: None,
        observed: false,
        wire: Wire::Simnet { loss: 0.10 },
    },
    Workload {
        name: "udp_steady",
        why: "1-layer hybrid over real UDP sockets on host loopback (not a real link), open loop, one switch mid-run: dgram codec, syscalls, node loop",
        stack: hybrid,
        body_bytes: 64,
        switch_every: None,
        observed: false,
        wire: Wire::UdpLoopback,
    },
];

impl Workload {
    /// Group size: eight simulated members, or one per core on loopback.
    pub fn members(&self) -> u16 {
        match self.wire {
            Wire::Simnet { .. } => SIM_GROUP,
            Wire::UdpLoopback => UDP_GROUP,
        }
    }
}

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How much traffic one rep carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Simulated traffic span of a simnet rep.
    pub sim_traffic: SimTime,
    /// Wall-clock traffic span of a loopback rep.
    pub udp_traffic: SimTime,
}

impl Scale {
    /// The measured size: 30 simulated seconds (12 000 multicasts), 2 s of
    /// loopback traffic (800 multicasts).
    pub const FULL: Scale =
        Scale { sim_traffic: SimTime::from_secs(30), udp_traffic: SimTime::from_secs(2) };
    /// `--quick`, warm-up and the tests: a tenth of that on simnet.
    pub const QUICK: Scale =
        Scale { sim_traffic: SimTime::from_secs(3), udp_traffic: SimTime::from_millis(700) };
}

/// Per-rep switches for the traced run and the failure-detection tests.
#[derive(Default)]
pub struct RepOpts {
    /// Attach this (enabled) profiler to the simulated engine.
    pub prof: Option<Profiler>,
    /// Builds each member's stack instead of the workload's own builder —
    /// the tests splice a deliberately broken layer in this way to prove
    /// `failed` notices.
    pub stack: Option<StackBuilder>,
}

/// Switching as seen through every member's `SwitchHandle`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SwitchSummary {
    /// Switches the scripting member initiated.
    pub initiated: u64,
    /// Fewest completed switches at any member.
    pub completed_min: u64,
    /// Most completed switches at any member.
    pub completed_max: u64,
    /// Aborted attempts, summed over members.
    pub aborted: u64,
    /// Largest buffered-message backlog at any member.
    pub buffered_peak: u64,
    /// Duration of every completed switch at every member, ascending, in
    /// the run's own microseconds.
    pub durations_us: Vec<u64>,
}

/// Counters only one of the two media provides.
#[derive(Debug, Clone, PartialEq)]
pub enum MediumCounters {
    /// The simulator's network counters.
    Sim(NetStats),
    /// What the socket run can tell.
    Udp {
        /// Frames put on the wire, from the load sampler's windows.
        frames: u64,
        /// Datagrams that failed to decode, summed over members.
        malformed: u64,
        /// Host time of `UdpGroup::launch`.
        launch_ns: u64,
        /// Host time of `UdpGroup::shutdown`.
        shutdown_ns: u64,
    },
}

/// Everything one rep measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Rep {
    /// Multicasts scheduled.
    pub scheduled: u64,
    /// Correctness verdict (`attempted`, `failed`, reasons).
    pub verdict: Verdict,
    /// Host ns: schedule generation.
    pub generate_ns: u64,
    /// Host ns: stack factories + `build()` / `launch()`.
    pub build_ns: u64,
    /// Host wall ns inside `run_until`.
    pub run_wall_ns: u64,
    /// Process CPU ns (all threads) inside `run_until`.
    pub run_cpu_ns: u64,
    /// Host ns: reading the driver out.
    pub read_out_ns: u64,
    /// Host ns: checking the output.
    pub check_ns: u64,
    /// Allocator calls inside `run_until`.
    pub allocs: u64,
    /// Bytes requested inside `run_until`.
    pub alloc_bytes: u64,
    /// Peak live heap of the rep above what was live when it began.
    pub peak_bytes: u64,
    /// Mean due→deliver latency in the run's own microseconds (simulated
    /// on simnet, wall-clock on loopback).
    pub deliver_mean_us: f64,
    /// Due→deliver latency quantiles, same clock.
    pub deliver_p50_us: f64,
    /// See [`Rep::deliver_p50_us`].
    pub deliver_p90_us: f64,
    /// See [`Rep::deliver_p50_us`].
    pub deliver_p99_us: f64,
    /// p99 of how late sends left the application after their due time.
    pub lateness_p99_us: f64,
    /// Median latency from the recorded send (not the due instant).
    pub send_to_deliver_p50_us: f64,
    /// The instant the run was driven to, in its own microseconds.
    pub horizon_us: u64,
    /// Switching, from the members' handles.
    pub switches: SwitchSummary,
    /// Events the recorder took (ring content + overwritten).
    pub obs_events: u64,
    /// Events the ring evicted.
    pub obs_overwritten: u64,
    /// Load-sampler windows collected.
    pub sampler_samples: u64,
    /// Medium-specific counters.
    pub medium: MediumCounters,
    /// CPU ns one pass of the reference kernel took around this rep (see
    /// `reference`); 0 when the caller did not measure it.
    pub reference_ns: f64,
}

impl Rep {
    /// Multicasts every member delivered — the divisor of every
    /// per-message metric (at least 1, so a broken rep still divides).
    pub fn msgs(&self) -> f64 {
        self.verdict.fully_delivered.max(1) as f64
    }

    /// Generation + build: everything before the first send.
    pub fn setup_ns(&self) -> u64 {
        self.generate_ns + self.build_ns
    }

    /// Factor that takes this rep's host clocks to the reference speed:
    /// below 1 when the host ran slower than [`reference::QUIET_NS`]
    /// around the rep, 1 when the reference was not measured.
    pub fn speed_correction(&self) -> f64 {
        if self.reference_ns > 0.0 {
            reference::QUIET_NS / self.reference_ns
        } else {
            1.0
        }
    }

    /// The values that must be bit-equal between two reps of one seed on
    /// the simulator: every count and every simulated-time statistic.
    pub fn exact(&self) -> Vec<(&'static str, f64)> {
        let MediumCounters::Sim(net) = &self.medium else { return Vec::new() };
        vec![
            ("scheduled", self.scheduled as f64),
            ("failed", self.verdict.failed as f64),
            ("allocs", self.allocs as f64),
            ("alloc_bytes", self.alloc_bytes as f64),
            ("peak_bytes", self.peak_bytes as f64),
            ("deliver_mean_us", self.deliver_mean_us),
            ("deliver_p50_us", self.deliver_p50_us),
            ("deliver_p90_us", self.deliver_p90_us),
            ("deliver_p99_us", self.deliver_p99_us),
            ("events", net.events_processed as f64),
            ("frames", net.frames_sent as f64),
            ("wire_bytes", net.bytes_sent as f64),
            ("timers", net.timers_fired as f64),
            ("bus_busy_us", net.medium_busy_us as f64),
            ("switches", self.switches.completed_min as f64),
            ("switch_us_sum", self.switches.durations_us.iter().sum::<u64>() as f64),
            ("obs_events", self.obs_events as f64),
        ]
    }
}

type Handles = Arc<Mutex<Vec<SwitchHandle>>>;

/// The scripted switch plan: alternate 1, 0, 1… every `period` while
/// traffic flows, ending early enough for the last switch to complete.
fn switch_plan(period: SimTime, traffic_end: SimTime) -> Vec<(SimTime, usize)> {
    let mut plan = Vec::new();
    let mut at = START + period;
    while at + period <= traffic_end {
        plan.push((at, (plan.len() + 1) % 2));
        at += period;
    }
    plan
}

/// The spec both media are built from, minus the schedule. Member 0
/// scripts the switches; every other member's oracle never fires.
fn group_spec(
    w: &Workload,
    n: u16,
    seed: u64,
    plan: Vec<(SimTime, usize)>,
    opts: &RepOpts,
) -> (GroupSpec, Handles) {
    let handles: Handles = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&handles);
    let build = opts.stack.unwrap_or(w.stack);
    // The oracle is consulted five times per scripted period.
    let cfg = match w.switch_every {
        Some(p) => SwitchConfig {
            observe_interval: SimTime::from_micros(p.as_micros() / 5),
            ..SwitchConfig::default()
        },
        None => SwitchConfig::default(),
    };
    let spec = GroupSpec::new(n).seed(seed).stack_factory(move |p, _, ids| {
        let oracle: Box<dyn Oracle> = if p == ProcessId(0) && !plan.is_empty() {
            Box::new(ManualOracle::new(plan.clone()))
        } else {
            Box::new(NeverOracle)
        };
        let (stack, handle) = build(p, ids, cfg.clone(), oracle);
        sink.lock().expect("handle list poisoned").push(handle);
        stack
    });
    (spec, handles)
}

fn summarize_switches(handles: &Handles) -> SwitchSummary {
    let handles = handles.lock().expect("handle list poisoned");
    let stats: Vec<_> = handles.iter().map(SwitchHandle::snapshot).collect();
    let completed = |s: &ps_core::SwitchStats| s.records.len() as u64;
    let mut durations_us: Vec<u64> =
        stats.iter().flat_map(|s| s.records.iter().map(|r| r.duration().as_micros())).collect();
    durations_us.sort_unstable();
    SwitchSummary {
        initiated: stats.iter().map(|s| s.initiated).sum(),
        completed_min: stats.iter().map(completed).min().unwrap_or(0),
        completed_max: stats.iter().map(completed).max().unwrap_or(0),
        aborted: stats.iter().map(|s| s.aborted).sum(),
        buffered_peak: stats.iter().map(|s| s.buffered_peak as u64).max().unwrap_or(0),
        durations_us,
    }
}

/// What the timed region cost the host.
struct Timed {
    wall_ns: u64,
    cpu_ns: u64,
    allocs: u64,
    alloc_bytes: u64,
}

/// Runs `driver` to `horizon` and measures only that.
fn timed_run(driver: &mut dyn Driver, horizon: SimTime, prof: Option<&Profiler>) -> Timed {
    let a0 = alloc::snapshot();
    let c0 = process_cpu_ns();
    let t0 = Instant::now();
    {
        // The profiler's root span, so unattributed time shows as `other`.
        let _root = prof.map(|p| p.span(&[]));
        driver.run_until(horizon);
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let cpu_ns = process_cpu_ns() - c0;
    let a1 = alloc::snapshot();
    Timed { wall_ns, cpu_ns, allocs: a1.calls - a0.calls, alloc_bytes: a1.bytes - a0.bytes }
}

/// Runs one rep of `w`. Spans go to `tracer` (a disabled one costs
/// nothing); the rep id must have been set by the caller.
pub fn run_rep(w: &Workload, seed: u64, scale: Scale, opts: &RepOpts, tracer: &mut Tracer) -> Rep {
    let heap_before = alloc::reset_peak();
    let udp = w.wire == Wire::UdpLoopback;
    let (n, senders, rate, span) = if udp {
        (UDP_GROUP, UDP_GROUP, UDP_RATE, scale.udp_traffic)
    } else {
        (SIM_GROUP, SIM_SENDERS, SIM_RATE, scale.sim_traffic)
    };
    let traffic_end = START + span;
    let horizon = traffic_end + DRAIN;

    let sp = tracer.begin("workload.generate");
    let t = Instant::now();
    let schedule = TrafficSpec {
        profile: Profile::Steady,
        group: n,
        senders,
        rate,
        scale: 1.0,
        body_bytes: w.body_bytes,
        start: START,
        end: traffic_end,
        seed,
    }
    .generate();
    let due: Vec<(SimTime, ProcessId)> = schedule.events.iter().map(|e| (e.at, e.sender)).collect();
    let generate_ns = t.elapsed().as_nanos() as u64;
    tracer.end(sp);

    let sp = tracer.begin("stack.build");
    let t = Instant::now();
    let plan = match (w.switch_every, udp) {
        (Some(period), _) => switch_plan(period, traffic_end),
        // The loopback run switches once, at mid-run.
        (None, true) => vec![(START + SimTime::from_micros(span.as_micros() / 2), 1)],
        (None, false) => Vec::new(),
    };
    let (mut spec, handles) = group_spec(w, n, seed, plan, opts);
    let recorder = if w.observed { Recorder::with_capacity(1 << 16) } else { Recorder::disabled() };
    let monitors = w.observed.then(|| {
        let m = MonitorSet::standard(u32::from(n), SimTime::from_secs(2).as_micros());
        m.attach(&recorder);
        m
    });
    // The socket run has no other frame counter than the sampler's.
    let sampler = (w.observed || udp).then(|| MetricsSampler::new(100_000));
    if w.observed {
        spec = spec.recorder(recorder.clone());
    }
    if let Some(s) = &sampler {
        spec = spec.sampler(s.clone());
    }
    spec = spec.sends(schedule.into_sends());
    let mut driver: Running = match w.wire {
        Wire::UdpLoopback => Running::Udp(UdpGroup::launch(spec, NetConfig::default())),
        Wire::Simnet { loss } => {
            let bus = SharedBus::new(EthernetConfig {
                bandwidth_bps: 100_000_000,
                ..EthernetConfig::default()
            });
            let medium: Box<dyn Medium> =
                if loss > 0.0 { Box::new(Lossy::new(Box::new(bus), loss)) } else { Box::new(bus) };
            let mut b = GroupSimBuilder::from_spec(spec)
                .medium(medium)
                .service_time(SimTime::from_micros(20));
            if let Some(p) = &opts.prof {
                b = b.prof(p.clone());
            }
            Running::Sim(Box::new(b.build()))
        }
    };
    let build_ns = t.elapsed().as_nanos() as u64;
    tracer.end(sp);

    let sp = tracer.begin("driver.run_until");
    let timed = timed_run(driver.as_driver(), horizon, opts.prof.as_ref());
    tracer.end(sp);

    let sp = tracer.begin("driver.read_out");
    let t = Instant::now();
    let d = driver.as_driver();
    let trace = d.app_trace();
    let lat = due_latencies(&due, &d.send_times(), &d.deliveries());
    let switches = summarize_switches(&handles);
    let violations = monitors.map_or(0, |m| m.finish().len() as u64);
    let obs_overwritten = recorder.overwritten();
    let obs_events = recorder.len() as u64 + obs_overwritten;
    let sampler_samples = sampler.as_ref().map_or(0, |s| s.len() as u64);
    let medium = match driver {
        Running::Sim(sim) => MediumCounters::Sim(sim.net_stats().clone()),
        Running::Udp(group) => {
            let frames = sampler.map_or(0, |s| s.samples().iter().map(|x| x.frames_sent).sum());
            let t = Instant::now();
            let report = group.shutdown();
            MediumCounters::Udp {
                frames,
                malformed: report.malformed_per_process.iter().sum::<usize>() as u64,
                launch_ns: build_ns,
                shutdown_ns: t.elapsed().as_nanos() as u64,
            }
        }
    };
    let read_out_ns = t.elapsed().as_nanos() as u64;
    tracer.end(sp);

    let sp = tracer.begin("trace.check");
    let t = Instant::now();
    let mut verdict = check_trace(&trace, n, due.len());
    verdict.fail(lat.unmatched, "deliveries of messages outside the schedule");
    verdict.fail(violations, "monitor violations");
    verdict.fail(switches.aborted, "aborted switches");
    verdict.fail(
        switches.initiated.abs_diff(switches.completed_min)
            + (switches.completed_max - switches.completed_min),
        "scripted switches some member did not complete",
    );
    if let MediumCounters::Udp { malformed, .. } = medium {
        verdict.fail(malformed, "malformed datagrams");
    }
    let check_ns = t.elapsed().as_nanos() as u64;
    drop(trace);
    tracer.end(sp);

    Rep {
        scheduled: due.len() as u64,
        verdict,
        generate_ns,
        build_ns,
        run_wall_ns: timed.wall_ns,
        run_cpu_ns: timed.cpu_ns,
        read_out_ns,
        check_ns,
        allocs: timed.allocs,
        alloc_bytes: timed.alloc_bytes,
        peak_bytes: alloc::peak().saturating_sub(heap_before) as u64,
        deliver_mean_us: mean_us(&lat.deliver_us),
        deliver_p50_us: quantile_us(&lat.deliver_us, 0.50),
        deliver_p90_us: quantile_us(&lat.deliver_us, 0.90),
        deliver_p99_us: quantile_us(&lat.deliver_us, 0.99),
        lateness_p99_us: quantile_us(&lat.lateness_us, 0.99),
        send_to_deliver_p50_us: quantile_us(&lat.send_to_deliver_us, 0.50),
        horizon_us: horizon.as_micros(),
        switches,
        obs_events,
        obs_overwritten,
        sampler_samples,
        medium,
        reference_ns: 0.0,
    }
}

/// The group while it runs, on either medium.
enum Running {
    Sim(Box<ps_stack::GroupSim>),
    Udp(UdpGroup),
}

impl Running {
    fn as_driver(&mut self) -> &mut dyn Driver {
        match self {
            Running::Sim(sim) => sim.as_mut(),
            Running::Udp(group) => group,
        }
    }
}
