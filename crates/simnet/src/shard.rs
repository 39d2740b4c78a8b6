//! Sharded deterministic-parallel simulation.
//!
//! [`ShardedSim`] runs a multi-segment [`Topology`] as `k` independent
//! [`Sim`] shards — one event queue, one RNG domain, one slice of the
//! global node range each — synchronized at **epoch barriers** sized by the
//! topology's minimum cross-segment latency (a conservative-window
//! lookahead, the classic PDES recipe). The same seed produces the same
//! run whether the shards execute on one thread
//! ([`ShardedSim::run_until_serial`]) or on a [`std::thread::scope`] pool
//! ([`ShardedSim::run_until`]): **the parallel driver is byte-identical to
//! the serial driver** — events, traces, monitor verdicts, stats, and
//! sampler series — just as the harness's `SweepRunner` is invisible in
//! experiment output. With one shard, the run is additionally
//! byte-identical to a plain [`Sim`] over the same topology and medium.
//!
//! # Why determinism survives parallelism
//!
//! * **Placement-independent draws.** Node RNG streams are forked from the
//!   seed by *global* node id (exactly as a standalone [`Sim`] forks them),
//!   and the [`crate::SegmentedBus`] draws jitter from per-segment streams
//!   owned by the medium — so no random draw depends on which shard hosts a
//!   node or on how events interleave across shards.
//! * **Conservative lookahead.** Every epoch ends at `min + w`, where `min`
//!   is the earliest pending event across all shards and `w` is
//!   [`Topology::min_cross_latency`]. A frame transmitted during the epoch
//!   leaves at `t ≥ min` and arrives on a remote segment no earlier than
//!   `t + w ≥ min + w`, i.e. never inside the epoch that produced it —
//!   exchanging cross-shard frames at the barrier can therefore never
//!   deliver an event into a shard's past.
//! * **Total ingress order.** Cross-shard frames are injected in
//!   `(arrival, sending shard, send order)` order — a total order both
//!   drivers compute identically, so the per-shard queues receive identical
//!   insertion sequences.
//!
//! Epochs adapt to the workload: `min` is the actual earliest pending
//! event, so idle stretches are skipped in one hop instead of being walked
//! window by window.

use crate::sim::{OutFrame, RawWindow};
use crate::{Agent, NodeId, Packet, SegmentedBus, Sim, SimConfig, SimTime, TimerToken, Topology};
use ps_obs::{CauseId, EventSink, MetricsSampler, Recorder, TimedEvent};
use ps_prof::Profiler;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

/// Collects a shard's recorder stream for later replay into the global
/// recorder in epoch order.
struct BufSink(Arc<Mutex<Vec<TimedEvent>>>);

impl EventSink for BufSink {
    fn on_event(&mut self, ev: &TimedEvent) {
        self.0.lock().expect("sink buffer poisoned").push(*ev);
    }
}

/// A cross-shard frame queued for injection at an epoch barrier.
struct Ingress {
    at: SimTime,
    to: NodeId,
    pkt: Packet,
    /// Shard that transmitted the frame (second sort key).
    src_shard: u32,
    /// Send order within the source shard (third sort key).
    seq: u64,
    /// Causal id of the sending shard's `FrameSend`, carried across the
    /// barrier so the delivery's parent link survives sharding.
    cause: CauseId,
}

/// Shared state of one parallel run: published peeks, per-shard mailboxes,
/// and the epoch barrier.
struct EpochState {
    barrier: Barrier,
    /// Each shard's next pending event time in µs (`u64::MAX` = idle),
    /// published every epoch so all workers compute the same epoch end.
    peeks: Vec<AtomicU64>,
    /// `mailboxes[d]`: frames bound for shard `d`, posted by senders during
    /// the exchange phase, drained by `d` after the barrier.
    mailboxes: Vec<Mutex<Vec<Ingress>>>,
    /// First global node id of each shard, plus a final sentinel.
    node_base: Vec<u32>,
    window_us: u64,
    deadline_us: u64,
}

impl EpochState {
    fn shard_of(&self, node: NodeId) -> usize {
        debug_assert!(node.0 < *self.node_base.last().expect("sentinel"));
        self.node_base.partition_point(|&b| b <= node.0) - 1
    }

    /// Posts a shard's outbox into the destination mailboxes.
    fn post(&self, src_shard: usize, outbox: Vec<OutFrame>) {
        for f in outbox {
            let d = self.shard_of(f.to);
            debug_assert_ne!(d, src_shard, "outbox frames are never shard-local");
            self.mailboxes[d].lock().expect("mailbox poisoned").push(Ingress {
                at: f.at,
                to: f.to,
                pkt: f.pkt,
                src_shard: src_shard as u32,
                seq: f.seq,
                cause: f.cause,
            });
        }
    }

    /// Drains shard `k`'s mailbox and injects the frames in the canonical
    /// total order.
    fn inject<A: Agent>(&self, k: usize, shard: &mut Sim<A>) {
        let mut frames = {
            let mut mb = self.mailboxes[k].lock().expect("mailbox poisoned");
            std::mem::take(&mut *mb)
        };
        frames.sort_unstable_by_key(|f| (f.at, f.src_shard, f.seq));
        for f in frames {
            shard.inject_frame(f.at, f.to, f.pkt, f.cause);
        }
    }

    /// The exclusive end of the next epoch given the published peeks, or
    /// `None` when the run is over. Every worker computes this from the
    /// same published values, so all of them agree.
    fn epoch_end(&self) -> Option<SimTime> {
        let min = self.peeks.iter().map(|p| p.load(Ordering::Acquire)).min().expect("≥1 shard");
        if min == u64::MAX || min > self.deadline_us {
            return None;
        }
        // `+ 1`: `run_until` is inclusive of events at exactly `deadline`,
        // and `run_before` is exclusive.
        Some(SimTime::from_micros((min + self.window_us).min(self.deadline_us + 1)))
    }
}

/// A multi-segment simulation partitioned into deterministic parallel
/// shards. See the module-level docs in `shard.rs` for the
/// synchronization scheme and the determinism argument.
///
/// The medium is always a [`SegmentedBus`] over the given topology — the
/// one medium whose transmit plans provably depend only on source-segment
/// state. Construct, [`schedule`](ShardedSim::schedule) workload, then
/// [`run_until`](ShardedSim::run_until) (threaded) or
/// [`run_until_serial`](ShardedSim::run_until_serial) (reference driver).
pub struct ShardedSim<A> {
    shards: Vec<Sim<A>>,
    topo: Arc<Topology>,
    /// First global node id per shard + sentinel (`node_base[k]..node_base[k+1]`).
    node_base: Vec<u32>,
    /// Conservative lookahead window (≥ 1 µs, asserted at construction).
    window: SimTime,
    /// Global recorder: shard streams are replayed into it in epoch order.
    recorder: Recorder,
    /// Global sampler: merged from the shards' raw windows.
    sampler: Option<MetricsSampler>,
    /// Global profiler: shard span trees are absorbed into it when a run
    /// closes. Each shard profiles onto its *own* handle (span stacks are
    /// per-profiler, so worker threads never interleave frames).
    prof: Profiler,
    /// Per-shard profiler handles (all disabled when `prof` is).
    shard_profs: Vec<Profiler>,
    /// Per-shard recorder capture buffers (empty when taps are off).
    bufs: Vec<Arc<Mutex<Vec<TimedEvent>>>>,
    /// `marks[k][e]`: length of `bufs[k]` at the end of epoch `e`.
    marks: Vec<Vec<usize>>,
    now: SimTime,
}

impl<A: Agent> ShardedSim<A> {
    /// Partitions `topo` into `shards` contiguous segment runs (balanced by
    /// node count) and builds one [`Sim`] per shard over a shared-seed
    /// [`SegmentedBus`]. `config.recorder` / `config.sampler` become the
    /// *global* trace and sample outputs; `agents[i]` is global node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `agents.len() != topo.num_nodes()`, if `shards` is zero or
    /// exceeds the segment count, or if `topo.min_cross_latency()` is below
    /// 1 µs (no lookahead window to parallelize in).
    pub fn new(config: SimConfig, topo: Arc<Topology>, shards: usize, mut agents: Vec<A>) -> Self {
        assert_eq!(agents.len(), topo.num_nodes() as usize, "one agent per topology node required");
        let window = topo.min_cross_latency();
        assert!(
            window >= SimTime::from_micros(1),
            "min_cross_latency must be ≥ 1µs for conservative-window sharding"
        );
        let plan = topo.shard_plan(u32::try_from(shards).expect("shard count"));
        let recorder = config.recorder.clone();
        let sampler = config.sampler.clone();
        let prof = config.prof.clone();
        // The global recorder only sees the epoch-ordered replay, but its
        // sink dispatch (monitors etc.) is real per-event work — profile
        // it exactly as a standalone sim would.
        recorder.set_prof(&prof, true);
        let total = topo.num_nodes();

        let mut node_base = Vec::with_capacity(plan.len() + 1);
        let mut sims = Vec::with_capacity(plan.len());
        let mut bufs = Vec::with_capacity(plan.len());
        let mut shard_profs = Vec::with_capacity(plan.len());
        for segs in &plan {
            let first = topo.segment_range(segs.start).start;
            let end = topo.segment_range(segs.end - 1).end;
            node_base.push(first);
            let rest = agents.split_off((end - first) as usize);
            let shard_agents = std::mem::replace(&mut agents, rest);

            // Each shard gets its own recorder whose stream we capture via
            // a sink (the tiny ring is never read); the global ring only
            // sees the epoch-ordered replay.
            let buf = Arc::new(Mutex::new(Vec::new()));
            let shard_rec = if recorder.is_enabled() {
                let r = Recorder::with_capacity(1);
                r.subscribe(Box::new(BufSink(Arc::clone(&buf))));
                r
            } else {
                Recorder::disabled()
            };
            // Each shard likewise profiles onto its own handle: the span
            // stack stays single-threaded per profiler, and the trees merge
            // into the global one at close-out. Sink profiling stays off on
            // the capture recorder (the buffer sink is driver plumbing, and
            // spanning it would make shard structure diverge from plain).
            let shard_prof =
                if prof.is_enabled() { Profiler::enabled() } else { Profiler::disabled() };
            shard_rec.set_prof(&shard_prof, false);
            let shard_cfg = SimConfig {
                seed: config.seed,
                node: config.node.clone(),
                recorder: shard_rec,
                sampler: None,
                topology: Some(Arc::clone(&topo)),
                prof: shard_prof.clone(),
            };
            // Every shard builds the bus from the same (topo, seed), so
            // segment state and jitter streams are identical no matter how
            // many shards the segments are spread over.
            let medium = Box::new(SegmentedBus::new(Arc::clone(&topo), config.seed));
            let mut sim = Sim::new_shard(shard_cfg, medium, shard_agents, first, total);
            if let Some(s) = &sampler {
                sim.enable_raw_sampling(s.interval_us(), s.seq_node());
            }
            sims.push(sim);
            bufs.push(buf);
            shard_profs.push(shard_prof);
        }
        node_base.push(total);
        let marks = vec![Vec::new(); sims.len()];
        Self {
            shards: sims,
            topo,
            node_base,
            window,
            recorder,
            sampler,
            prof,
            shard_profs,
            bufs,
            marks,
            now: SimTime::ZERO,
        }
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total number of nodes.
    pub fn num_nodes(&self) -> usize {
        *self.node_base.last().expect("sentinel") as usize
    }

    /// Current virtual time (the deadline of the last run).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The global event recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Merged network counters across all shards.
    pub fn stats(&self) -> crate::NetStats {
        let mut total = crate::NetStats::default();
        for s in &self.shards {
            total.merge(s.stats());
        }
        total
    }

    /// Rough resident size across all shards, in bytes.
    pub fn approx_mem_bytes(&self) -> usize {
        self.shards.iter().map(Sim::approx_mem_bytes).sum()
    }

    fn shard_of(&self, node: NodeId) -> usize {
        assert!((node.0 as usize) < self.num_nodes(), "node {node} out of range");
        self.node_base.partition_point(|&b| b <= node.0) - 1
    }

    /// Immutable access to a node's agent.
    pub fn agent(&self, node: NodeId) -> &A {
        self.shards[self.shard_of(node)].agent(node)
    }

    /// Mutable access to a node's agent.
    pub fn agent_mut(&mut self, node: NodeId) -> &mut A {
        let k = self.shard_of(node);
        self.shards[k].agent_mut(node)
    }

    /// Iterates over all agents in global node order.
    pub fn agents(&self) -> impl Iterator<Item = &A> {
        self.shards.iter().flat_map(|s| s.agents())
    }

    /// Schedules an external timer for `node` at absolute time `at`
    /// (workload injection), routed to the owning shard.
    pub fn schedule(&mut self, at: SimTime, node: NodeId, token: TimerToken) {
        let k = self.shard_of(node);
        self.shards[k].schedule(at, node, token);
    }

    /// Schedules a fail-stop crash of `node` at `at`.
    pub fn schedule_crash(&mut self, at: SimTime, node: NodeId) {
        let k = self.shard_of(node);
        self.shards[k].schedule_crash(at, node);
    }

    /// Schedules recovery of `node` at `at`.
    pub fn schedule_recover(&mut self, at: SimTime, node: NodeId) {
        let k = self.shard_of(node);
        self.shards[k].schedule_recover(at, node);
    }

    fn epoch_state(&self, deadline: SimTime) -> EpochState {
        EpochState {
            barrier: Barrier::new(self.shards.len()),
            peeks: self.shards.iter().map(|_| AtomicU64::new(u64::MAX)).collect(),
            mailboxes: self.shards.iter().map(|_| Mutex::new(Vec::new())).collect(),
            node_base: self.node_base.clone(),
            window_us: self.window.as_micros(),
            deadline_us: deadline.as_micros(),
        }
    }

    /// Runs shards to `deadline` on the current thread, epoch by epoch —
    /// the reference driver the parallel one must match byte for byte.
    pub fn run_until_serial(&mut self, deadline: SimTime) {
        let state = self.epoch_state(deadline);
        // Start phase: on_start runs everywhere, then its cross-shard
        // frames are exchanged — epoch 0.
        for (k, shard) in self.shards.iter_mut().enumerate() {
            shard.start();
            let out = shard.take_outbox();
            state.post(k, out);
        }
        for (k, shard) in self.shards.iter_mut().enumerate() {
            state.inject(k, shard);
            self.marks[k].push(self.bufs[k].lock().expect("buffer").len());
        }
        loop {
            for (k, shard) in self.shards.iter_mut().enumerate() {
                let peek = shard.next_event_time().map_or(u64::MAX, |t| t.as_micros());
                state.peeks[k].store(peek, Ordering::Release);
            }
            let Some(end) = state.epoch_end() else { break };
            for (k, shard) in self.shards.iter_mut().enumerate() {
                // The epoch span wraps the epoch machinery *and* the event
                // work; the engine spans opened inside `run_before` nest
                // under it, so the span's self-time is the pure
                // barrier/exchange overhead satellite profiling chases.
                let _sp = self.shard_profs[k].span(&["driver", "epoch"]);
                shard.run_before(end);
                let out = shard.take_outbox();
                state.post(k, out);
            }
            for (k, shard) in self.shards.iter_mut().enumerate() {
                let _sp = self.shard_profs[k].span(&["driver", "epoch"]);
                state.inject(k, shard);
                self.marks[k].push(self.bufs[k].lock().expect("buffer").len());
            }
        }
        for shard in &mut self.shards {
            shard.finish_at(deadline);
        }
        self.merge_outputs(deadline);
    }

    /// Closes a run: replays shard recorder streams into the global
    /// recorder in epoch order and merges raw sample windows into the
    /// global sampler. Both drivers end with exactly this call, so their
    /// outputs are assembled identically.
    fn merge_outputs(&mut self, deadline: SimTime) {
        self.now = self.now.max(deadline);
        // One session for the whole replay (`None`: recorder off).
        if let Some(w) = self.recorder.writer() {
            let _sp = self.prof.span(&["driver", "replay"]);
            let mut starts = vec![0usize; self.shards.len()];
            let epochs = self.marks.iter().map(Vec::len).max().unwrap_or(0);
            for e in 0..epochs {
                for (k, buf) in self.bufs.iter().enumerate() {
                    let buf = buf.lock().expect("buffer");
                    let end = self.marks[k].get(e).copied().unwrap_or(buf.len());
                    for ev in &buf[starts[k]..end] {
                        // Replay verbatim: shard-minted causal ids (and the
                        // parent links built on them) stay valid because
                        // each node records on exactly one shard, so its
                        // (node, seq) stream is unique globally.
                        w.record_timed(ev);
                    }
                    starts[k] = end;
                }
            }
            for (k, buf) in self.bufs.iter().enumerate() {
                let mut buf = buf.lock().expect("buffer");
                debug_assert_eq!(starts[k], buf.len(), "events recorded outside an epoch");
                buf.clear();
            }
        }
        for m in &mut self.marks {
            m.clear();
        }
        if let Some(sampler) = &self.sampler {
            let window_us = sampler.interval_us();
            let mut merged: Vec<RawWindow> = Vec::new();
            for shard in &mut self.shards {
                for (i, w) in shard.take_raw_windows().into_iter().enumerate() {
                    match merged.get_mut(i) {
                        Some(m) => m.merge(&w),
                        None => merged.push(w),
                    }
                }
            }
            for w in merged {
                sampler.push(w.finalize(window_us));
            }
        }
        // Fold the shard span trees into the global profiler. Absorb
        // drains the sources, so repeated runs on the same ShardedSim keep
        // accumulating without double counting.
        if self.prof.is_enabled() {
            for p in &self.shard_profs {
                self.prof.absorb(p);
            }
        }
    }

    /// Runs shards to `deadline` in parallel, one thread per shard,
    /// synchronizing at epoch barriers. Byte-identical to
    /// [`run_until_serial`](ShardedSim::run_until_serial) for the same
    /// seed and schedule.
    pub fn run_until(&mut self, deadline: SimTime)
    where
        A: Send,
    {
        // With one shard, or one hardware thread, concurrency cannot help:
        // take the identical serial schedule and skip the thread+barrier
        // tax. Output is byte-identical either way (pinned by tests), so
        // this is purely a performance decision.
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        if self.shards.len() == 1 || hw == 1 {
            return self.run_until_serial(deadline);
        }
        self.run_until_threaded(deadline);
    }

    /// Runs the epoch loop on one thread per shard unconditionally, even
    /// when the host has nothing to parallelize on.
    /// [`run_until`](ShardedSim::run_until) normally decides for you; the
    /// determinism suite calls this directly so the threaded path is
    /// exercised regardless of the machine it runs on.
    pub fn run_until_threaded(&mut self, deadline: SimTime)
    where
        A: Send,
    {
        let state = self.epoch_state(deadline);
        let marks = &mut self.marks;
        let bufs = &self.bufs;
        let profs = &self.shard_profs;
        std::thread::scope(|scope| {
            for ((k, shard), (mk, buf)) in
                self.shards.iter_mut().enumerate().zip(marks.iter_mut().zip(bufs.iter()))
            {
                let state = &state;
                scope.spawn(move || {
                    // Each worker spans onto its shard's own profiler —
                    // span stacks never cross threads. Barrier waits stay
                    // outside the spans: blocked time is not epoch work.
                    let prof = &profs[k];
                    shard.start();
                    let out = shard.take_outbox();
                    state.post(k, out);
                    state.barrier.wait(); // all start-phase frames posted
                    state.inject(k, shard);
                    mk.push(buf.lock().expect("buffer").len());
                    state.barrier.wait(); // all injected before first peek
                    loop {
                        let peek = shard.next_event_time().map_or(u64::MAX, |t| t.as_micros());
                        state.peeks[k].store(peek, Ordering::Release);
                        state.barrier.wait(); // all peeks published
                                              // Every worker computes the same epoch end from the
                                              // same published peeks, so they all break together.
                        let Some(end) = state.epoch_end() else { break };
                        {
                            let _sp = prof.span(&["driver", "epoch"]);
                            shard.run_before(end);
                            let out = shard.take_outbox();
                            state.post(k, out);
                        }
                        state.barrier.wait(); // all ran + posted
                        {
                            let _sp = prof.span(&["driver", "epoch"]);
                            state.inject(k, shard);
                            mk.push(buf.lock().expect("buffer").len());
                        }
                        state.barrier.wait(); // all injected before next peek
                    }
                    shard.finish_at(deadline);
                });
            }
        });
        self.merge_outputs(deadline);
    }
}

impl<A> std::fmt::Debug for ShardedSim<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSim")
            .field("nodes", &self.node_base.last().copied().unwrap_or(0))
            .field("segments", &self.topo.num_segments())
            .field("shards", &self.shards.len())
            .field("window", &self.window)
            .field("now", &self.now)
            .finish()
    }
}
