//! A plain [`Sim`] over a multi-segment [`SegmentedBus`], end to end.
//!
//! The same `Chatty` agents run on a bridged topology with the recorder,
//! the load sampler and (where it matters) the profiler attached. What is
//! pinned:
//!
//! 1. an FNV digest of everything a run produces — recorder events,
//!    sampler series, network stats and per-agent receive digests — for
//!    three seeds, so an engine edit that moves a single byte fails here;
//! 2. run boundaries are invisible: two half-length `run_until` calls
//!    equal one full-length run;
//! 3. observability does not perturb the run;
//! 4. the causal layer on top of the trace is sound and a post-mortem
//!    bundle captures a slice of it;
//! 5. frames really cross bridges;
//! 6. the profiler's structure names the engine's spans.

use ps_bytes::Bytes;
use ps_obs::{MetricsSampler, Recorder};
use ps_simnet::{
    Agent, Dest, NetStats, NodeId, SegmentedBus, Sim, SimApi, SimConfig, SimTime, TimerToken,
    Topology,
};
use std::sync::Arc;

const PING: &[u8] = b"ping-payload-0123456789abcdef"; // 29 B, padded to min frame
const PONG: &[u8] = b"pong";

/// A node that periodically broadcasts on its segment or pings a random
/// (often remote) node, sometimes answers pings, and keeps an
/// order-sensitive digest of everything it receives.
struct Chatty {
    sends_left: u32,
    received: u64,
    /// FNV-style rolling hash over (arrival µs, source) in arrival order —
    /// any reordering or divergence changes it.
    digest: u64,
    /// Every source that reached this node, in arrival order.
    srcs: Vec<u32>,
}

impl Chatty {
    fn new(sends: u32) -> Self {
        Self { sends_left: sends, received: 0, digest: 0xcbf2_9ce4_8422_2325, srcs: Vec::new() }
    }

    fn note(&mut self, at: SimTime, src: NodeId) {
        self.received += 1;
        self.digest = self.digest.wrapping_mul(0x0000_0100_0000_01b3)
            ^ (at.as_micros() << 20)
            ^ u64::from(src.0);
        self.srcs.push(src.0);
    }
}

impl Agent for Chatty {
    fn on_start(&mut self, api: &mut SimApi<'_>) {
        let delay = SimTime::from_micros(50 + api.rng().below(500));
        api.set_timer(delay, TimerToken(1));
    }

    fn on_packet(&mut self, pkt: ps_simnet::Packet, api: &mut SimApi<'_>) {
        self.note(api.now(), pkt.src);
        // Answer a fifth of the pings (never the answers — no cascades).
        if pkt.payload.as_ref() == PING && api.rng().chance(0.2) {
            api.send(Dest::To(pkt.src), Bytes::from_static(PONG));
        }
    }

    fn on_timer(&mut self, _token: TimerToken, api: &mut SimApi<'_>) {
        if self.sends_left == 0 {
            return;
        }
        self.sends_left -= 1;
        if api.rng().chance(0.35) {
            // Targeted send to a uniformly random *other* node — with more
            // than one segment this is usually a bridge crossing.
            let n = api.num_nodes() as u64;
            let me = u64::from(api.me().0);
            let off = 1 + api.rng().below(n - 1);
            api.send(Dest::To(NodeId(((me + off) % n) as u32)), Bytes::from_static(PING));
        } else {
            api.send(Dest::Segment, Bytes::from_static(PING));
        }
        let delay = SimTime::from_micros(200 + api.rng().below(800));
        api.set_timer(delay, TimerToken(1));
    }
}

const DEADLINE: SimTime = SimTime::from_micros(30_000);

fn topo(nodes: u32, segments: u32) -> Arc<Topology> {
    Arc::new(Topology::uniform(nodes, segments, SimTime::from_micros(120)))
}

/// An observed config over `topology`: a fresh recorder and sampler
/// attached, handles returned for reading after the run.
fn config(seed: u64, topology: &Arc<Topology>) -> (SimConfig, Recorder, MetricsSampler) {
    let rec = Recorder::with_capacity(1 << 16);
    let sampler = MetricsSampler::new(1_000).with_seq_node(0);
    let cfg = SimConfig::default()
        .seed(seed)
        .service_time(SimTime::from_micros(30))
        .recorder(rec.clone())
        .sampler(sampler.clone())
        .topology(Arc::clone(topology));
    (cfg, rec, sampler)
}

/// `Chatty` agents on a plain sim over `topology`'s bridged bus.
fn sim(cfg: SimConfig, topology: &Arc<Topology>) -> Sim<Chatty> {
    let medium = Box::new(SegmentedBus::new(Arc::clone(topology), cfg.seed));
    Sim::new(cfg, medium, (0..topology.num_nodes()).map(|_| Chatty::new(6)).collect())
}

/// [`config`] with the recorder and sampler left off.
fn unobserved(seed: u64, topology: &Arc<Topology>) -> Sim<Chatty> {
    let (cfg, _, _) = config(seed, topology);
    sim(SimConfig { recorder: Recorder::disabled(), sampler: None, ..cfg }, topology)
}

/// Everything a run produces, for equality assertions.
#[derive(PartialEq, Debug)]
struct RunOutput {
    events: Vec<ps_obs::TimedEvent>,
    samples: Vec<ps_obs::LoadSample>,
    stats: NetStats,
    digests: Vec<(u64, u64)>,
}

impl RunOutput {
    fn read(sim: &Sim<Chatty>, rec: &Recorder, sampler: &MetricsSampler) -> Self {
        Self {
            events: rec.snapshot(),
            samples: sampler.samples(),
            stats: sim.stats().clone(),
            digests: sim.agents().map(|a| (a.received, a.digest)).collect(),
        }
    }

    /// FNV-1a over the trace and series as exported, the stats counters
    /// and the agent digests.
    fn fnv(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut feed = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        feed(ps_obs::export::to_jsonl(&self.events).as_bytes());
        for s in &self.samples {
            feed(format!("{s:?}").as_bytes());
        }
        let s = &self.stats;
        for v in [
            s.frames_sent,
            s.bytes_sent,
            s.copies_delivered,
            s.copies_dropped,
            s.timers_fired,
            s.events_processed,
            s.medium_busy_us,
        ] {
            feed(&v.to_le_bytes());
        }
        for &(received, digest) in &self.digests {
            feed(&received.to_le_bytes());
            feed(&digest.to_le_bytes());
        }
        h
    }
}

fn run(seed: u64, topology: &Arc<Topology>) -> RunOutput {
    let (cfg, rec, sampler) = config(seed, topology);
    let mut sim = sim(cfg, topology);
    sim.run_until(DEADLINE);
    RunOutput::read(&sim, &rec, &sampler)
}

#[test]
fn plain_run_matches_its_pinned_digest() {
    // Computed before `Sim` lost the sharded engine's hooks: deleting
    // them moved no byte of any output.
    for (seed, pinned) in
        [(1u64, 0xdd44_2873_69bb_2658u64), (7, 0xfb16_0eeb_0777_5e26), (42, 0x030b_2c3f_a8bc_8831)]
    {
        let out = run(seed, &topo(24, 4));
        assert!(out.stats.copies_delivered > 0, "workload actually ran");
        assert!(!out.events.is_empty() && !out.samples.is_empty(), "observed");
        assert_eq!(out.fnv(), pinned, "seed {seed}: {} events", out.events.len());
    }
}

#[test]
fn repeated_run_until_calls_continue_deterministically() {
    // Two half-length runs equal one full-length run: a run boundary
    // flushes nothing early and loses nothing.
    let topology = topo(24, 4);
    let (cfg, rec, sampler) = config(21, &topology);
    let mut sim = sim(cfg, &topology);
    sim.run_until(SimTime::from_micros(DEADLINE.as_micros() / 2));
    sim.run_until(DEADLINE);
    let halves = RunOutput::read(&sim, &rec, &sampler);
    assert!(!halves.events.is_empty());
    assert_eq!(halves, run(21, &topology));
}

#[test]
fn observability_does_not_perturb_the_run() {
    // No recorder, no sampler: the run itself — stats and every agent's
    // receive digest — is the observed run's, and reproducible.
    let topology = topo(30, 5);
    let bare = || {
        let mut sim = unobserved(13, &topology);
        sim.run_until(DEADLINE);
        let digests: Vec<(u64, u64)> = sim.agents().map(|a| (a.received, a.digest)).collect();
        (sim.stats().clone(), digests)
    };
    let observed = run(13, &topology);
    assert_eq!(bare(), (observed.stats.clone(), observed.digests.clone()));
    assert_eq!(bare(), bare());
}

#[test]
fn causal_graph_is_lint_clean_and_a_postmortem_bundle_captures_a_slice() {
    // The causal layer on top of a bridged run: links form a DAG with no
    // lint findings, and a bounded slice seeded from the tail of the run
    // (stand-ins for violation witnesses) serializes identically every
    // time.
    let topology = topo(24, 4);
    let bundle = |out: &RunOutput| {
        let witnesses: Vec<ps_obs::TimedEvent> =
            out.events.iter().rev().take(3).rev().copied().collect();
        let b = ps_obs::PostmortemBundle::capture(
            "segmented",
            &out.events,
            0,
            &witnesses,
            ps_obs::DEFAULT_K_HOPS,
            &out.samples,
            &[],
        );
        assert!(!b.is_empty(), "bundle captured a slice");
        (b.to_jsonl(), b.to_chrome())
    };
    let out = run(17, &topology);
    let graph = ps_obs::CausalGraph::new(&out.events);
    assert!(graph.is_acyclic(), "cycle in causal links");
    let findings = graph.lint(0, &[]);
    assert!(findings.is_empty(), "lint findings: {findings:?}");
    assert_eq!(bundle(&out), bundle(&run(17, &topology)));
}

#[test]
fn cross_segment_traffic_flows() {
    // The targeted pings cross a bridge with probability 5/6.
    let topology = topo(36, 6);
    let mut sim = unobserved(8, &topology);
    sim.run_until(DEADLINE);
    let mut received = 0u64;
    let mut cross = 0u64;
    for n in 0..36u32 {
        for &src in &sim.agent(NodeId(n)).srcs {
            received += 1;
            if !topology.same_segment(NodeId(n), NodeId(src)) {
                cross += 1;
            }
        }
    }
    assert!(received > 0, "traffic flowed");
    assert!(cross > 0, "some traffic crossed a bridge");
    assert_eq!(sim.stats().copies_delivered, received);
}

#[test]
fn profiler_structure_names_the_engine_spans() {
    // The structural side (span tree, enter counts, covered virtual time)
    // is deterministic; nanosecond totals are host noise and not compared.
    let topology = topo(24, 4);
    let structure = || {
        let prof = ps_prof::Profiler::enabled();
        let (cfg, _, _) = config(17, &topology);
        sim(cfg.prof(prof.clone()), &topology).run_until(DEADLINE);
        prof.structure()
    };
    let reference = structure();
    if reference == "sim_us 0\n" {
        return; // prof feature off: nothing structural to check
    }
    for want in ["engine/dispatch", "engine/wheel/pop", "engine/transmit", "obs/record", "sim_us"] {
        assert!(reference.contains(want), "missing {want} in:\n{reference}");
    }
    assert_eq!(reference, structure());
}
