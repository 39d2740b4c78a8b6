use crate::{DetRng, NodeId, SimTime};

/// The planned fate of one transmitted frame: per-destination arrival times,
/// plus a count of copies the medium dropped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TxPlan {
    /// `(destination, arrival time)` for every copy that survives.
    pub deliveries: Vec<(NodeId, SimTime)>,
    /// Copies lost in transit (per-destination, not per-frame).
    pub dropped: u32,
    /// Microseconds this frame occupied the medium (its serialization
    /// time on a shared bus; 0 on media that never serialize). The
    /// simulator accumulates this into `NetStats::medium_busy_us`, which
    /// is what the load sampler's utilization figure is computed from.
    pub busy_us: u64,
}

/// A network model: decides when (and whether) each destination receives a
/// transmitted frame.
///
/// Implementations may hold state — the shared-bus model tracks when the
/// medium frees up, which is what produces contention under load.
pub trait Medium: Send {
    /// Plans the transmission of a single frame of `size_bytes` from `src`
    /// to each node in `dests`, starting no earlier than `now`, into `plan`
    /// — overwriting whatever it held and reusing its `deliveries` buffer.
    ///
    /// The simulator calls this with a scratch plan it owns, so planning a
    /// frame never touches the allocator. A wrapper medium lets its inner
    /// medium fill `plan`, then filters `plan.deliveries` in place.
    fn transmit_into(
        &mut self,
        src: NodeId,
        dests: &[NodeId],
        size_bytes: usize,
        now: SimTime,
        rng: &mut DetRng,
        plan: &mut TxPlan,
    );

    /// Human-readable model name for experiment logs.
    fn name(&self) -> &'static str;
}

impl TxPlan {
    /// Resets the plan for reuse, keeping the `deliveries` allocation.
    pub fn clear(&mut self) {
        self.deliveries.clear();
        self.dropped = 0;
        self.busy_us = 0;
    }

    /// Keeps the copies whose destination satisfies `keep` and counts the
    /// rest as dropped — how a partition wrapper edits its inner plan.
    fn retain(&mut self, mut keep: impl FnMut(NodeId) -> bool) {
        let planned = self.deliveries.len();
        self.deliveries.retain(|&(d, _)| keep(d));
        self.dropped += (planned - self.deliveries.len()) as u32;
    }
}

/// Idealized point-to-point network: fixed one-way latency, infinite
/// bandwidth, no loss. A multicast reaches every destination independently.
///
/// Useful for unit tests where contention effects would only add noise.
#[derive(Debug, Clone)]
pub struct PointToPoint {
    latency: SimTime,
    jitter: SimTime,
}

impl PointToPoint {
    /// Creates the model with a fixed one-way `latency` and no jitter.
    pub fn new(latency: SimTime) -> Self {
        Self { latency, jitter: SimTime::ZERO }
    }

    /// Adds uniform per-destination jitter in `[0, jitter)`.
    pub fn with_jitter(mut self, jitter: SimTime) -> Self {
        self.jitter = jitter;
        self
    }
}

impl Medium for PointToPoint {
    fn transmit_into(
        &mut self,
        _src: NodeId,
        dests: &[NodeId],
        _size_bytes: usize,
        now: SimTime,
        rng: &mut DetRng,
        plan: &mut TxPlan,
    ) {
        plan.clear();
        plan.deliveries
            .extend(dests.iter().map(|&d| (d, now + self.latency + rng.jitter(self.jitter))));
    }

    fn name(&self) -> &'static str {
        "point-to-point"
    }
}

/// Parameters of the shared-bus Ethernet model.
///
/// Defaults approximate the paper's testbed: a 10 Mbit/s half-duplex
/// segment, ~42 bytes of Ethernet/IP/UDP framing overhead, and tens of
/// microseconds of propagation plus NIC latency.
#[derive(Debug, Clone)]
pub struct EthernetConfig {
    /// Raw medium bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// Link-layer + IP + UDP overhead added to every frame, in bytes.
    pub frame_overhead: usize,
    /// Propagation plus interface latency after serialization completes.
    pub propagation: SimTime,
    /// Uniform extra delay in `[0, jitter)` applied per destination.
    pub jitter: SimTime,
    /// Minimum on-wire frame size in bytes (Ethernet pads to 64).
    pub min_frame: usize,
}

impl Default for EthernetConfig {
    fn default() -> Self {
        Self {
            bandwidth_bps: 10_000_000,
            frame_overhead: 42,
            propagation: SimTime::from_micros(50),
            jitter: SimTime::from_micros(20),
            min_frame: 64,
        }
    }
}

/// Shared-bus Ethernet: one frame on the wire at a time.
///
/// A frame queues until the medium is free, occupies it for its
/// serialization time, then arrives everywhere (a bus broadcast costs one
/// frame regardless of the destination count — the property that makes
/// broadcast-based protocols attractive on a LAN). Contention emerges
/// naturally: when offered load approaches the bandwidth, queueing delay
/// grows without bound, which is one of the two effects behind the paper's
/// Figure 2.
#[derive(Debug, Clone)]
pub struct SharedBus {
    config: EthernetConfig,
    busy_until: SimTime,
}

impl SharedBus {
    /// Creates a bus with the given configuration.
    pub fn new(config: EthernetConfig) -> Self {
        Self { config, busy_until: SimTime::ZERO }
    }

    /// Serialization time of a frame of `size_bytes` (payload + overhead,
    /// padded to the minimum frame).
    fn serialization_time(&self, size_bytes: usize) -> SimTime {
        let on_wire = (size_bytes + self.config.frame_overhead).max(self.config.min_frame);
        let bits = (on_wire as u64) * 8;
        SimTime::from_micros(bits * 1_000_000 / self.config.bandwidth_bps)
    }

    /// The instant the medium next becomes idle.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }
}

impl Medium for SharedBus {
    fn transmit_into(
        &mut self,
        _src: NodeId,
        dests: &[NodeId],
        size_bytes: usize,
        now: SimTime,
        rng: &mut DetRng,
        plan: &mut TxPlan,
    ) {
        let tx_start = now.max(self.busy_until);
        let ser = self.serialization_time(size_bytes);
        let tx_end = tx_start + ser;
        self.busy_until = tx_end;
        let base = tx_end + self.config.propagation;
        plan.clear();
        plan.deliveries.extend(dests.iter().map(|&d| (d, base + rng.jitter(self.config.jitter))));
        plan.busy_us = ser.as_micros();
    }

    fn name(&self) -> &'static str {
        "shared-bus"
    }
}

/// Fault-injection wrapper: drops (and optionally duplicates) copies.
///
/// Loss and duplication are decided independently per destination, matching
/// how a receiver-side buffer overflow or a retransmit race behaves on a
/// real LAN.
pub struct Lossy {
    inner: Box<dyn Medium>,
    drop_prob: f64,
    dup_prob: f64,
}

impl std::fmt::Debug for Lossy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lossy")
            .field("inner", &self.inner.name())
            .field("drop_prob", &self.drop_prob)
            .field("dup_prob", &self.dup_prob)
            .finish()
    }
}

impl Lossy {
    /// Wraps `inner`, dropping each delivered copy with probability
    /// `drop_prob`.
    ///
    /// # Panics
    ///
    /// Panics if `drop_prob` is outside `[0, 1]`.
    pub fn new(inner: Box<dyn Medium>, drop_prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&drop_prob), "drop_prob must be a probability");
        Self { inner, drop_prob, dup_prob: 0.0 }
    }

    /// Additionally duplicates each surviving copy with probability
    /// `dup_prob` (the duplicate arrives 1 ms later).
    ///
    /// # Panics
    ///
    /// Panics if `dup_prob` is outside `[0, 1]`.
    pub fn with_duplication(mut self, dup_prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&dup_prob), "dup_prob must be a probability");
        self.dup_prob = dup_prob;
        self
    }
}

impl Medium for Lossy {
    fn transmit_into(
        &mut self,
        src: NodeId,
        dests: &[NodeId],
        size_bytes: usize,
        now: SimTime,
        rng: &mut DetRng,
        plan: &mut TxPlan,
    ) {
        self.inner.transmit_into(src, dests, size_bytes, now, rng, plan);
        // Compact in place: `d[..w]` is output, `d[r..]` unread input. A
        // drop opens a hole (`w < r`); a duplicate fills one if there is
        // one and otherwise shifts the unread tail up by a slot.
        let d = &mut plan.deliveries;
        let (mut r, mut w) = (0, 0);
        while r < d.len() {
            let (to, at) = d[r];
            r += 1;
            if rng.chance(self.drop_prob) {
                plan.dropped += 1;
                continue;
            }
            d[w] = (to, at);
            w += 1;
            if rng.chance(self.dup_prob) {
                let dup = (to, at + SimTime::from_millis(1));
                if w == r {
                    d.insert(w, dup);
                    r += 1;
                } else {
                    d[w] = dup;
                }
                w += 1;
            }
        }
        d.truncate(w);
    }

    fn name(&self) -> &'static str {
        "lossy"
    }
}

/// Fault-injection wrapper: a scripted sequence of partition configurations
/// applied over virtual time — `partition_at(t, groups)` severs traffic
/// between groups from `t` on, `heal_at(t)` restores full connectivity.
///
/// Any number of reconfigurations, each described as a list of
/// connectivity groups. A delivery survives only if source and destination
/// share a group under the configuration active at transmit time; a node
/// appearing in no group is isolated (it still receives its own
/// self-copies). One transient cut is `partition_at(from, ..)` followed by
/// `heal_at(until)`: severed while `from <= now < until`.
pub struct PartitionSchedule {
    inner: Box<dyn Medium>,
    /// `(from, groups)` sorted by time; `None` = fully connected.
    schedule: Vec<(SimTime, Option<Vec<Vec<NodeId>>>)>,
}

impl std::fmt::Debug for PartitionSchedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionSchedule")
            .field("inner", &self.inner.name())
            .field("events", &self.schedule.len())
            .finish()
    }
}

impl PartitionSchedule {
    /// Wraps `inner` with an empty schedule (fully connected).
    pub fn new(inner: Box<dyn Medium>) -> Self {
        Self { inner, schedule: Vec::new() }
    }

    /// From `at` on, only nodes sharing one of `groups` can communicate.
    pub fn partition_at(mut self, at: SimTime, groups: Vec<Vec<NodeId>>) -> Self {
        self.insert(at, Some(groups));
        self
    }

    /// From `at` on, connectivity is fully restored.
    pub fn heal_at(mut self, at: SimTime) -> Self {
        self.insert(at, None);
        self
    }

    fn insert(&mut self, at: SimTime, groups: Option<Vec<Vec<NodeId>>>) {
        let idx = self.schedule.partition_point(|(t, _)| *t <= at);
        self.schedule.insert(idx, (at, groups));
    }

    /// The groups active at `now`, `None` when fully connected.
    fn active(&self, now: SimTime) -> Option<&[Vec<NodeId>]> {
        let idx = self.schedule.partition_point(|(t, _)| *t <= now);
        idx.checked_sub(1).and_then(|i| self.schedule[i].1.as_deref())
    }

    fn connected(groups: &[Vec<NodeId>], a: NodeId, b: NodeId) -> bool {
        if a == b {
            return true;
        }
        groups.iter().any(|g| g.contains(&a) && g.contains(&b))
    }
}

impl Medium for PartitionSchedule {
    fn transmit_into(
        &mut self,
        src: NodeId,
        dests: &[NodeId],
        size_bytes: usize,
        now: SimTime,
        rng: &mut DetRng,
        plan: &mut TxPlan,
    ) {
        self.inner.transmit_into(src, dests, size_bytes, now, rng, plan);
        if let Some(groups) = self.active(now) {
            plan.retain(|d| Self::connected(groups, src, d));
        }
    }

    fn name(&self) -> &'static str {
        "partition-schedule"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dests(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    /// One frame's plan in a fresh buffer.
    fn tx(
        m: &mut dyn Medium,
        src: NodeId,
        dests: &[NodeId],
        size_bytes: usize,
        now: SimTime,
        rng: &mut DetRng,
    ) -> TxPlan {
        let mut plan = TxPlan::default();
        m.transmit_into(src, dests, size_bytes, now, rng, &mut plan);
        plan
    }

    #[test]
    fn point_to_point_fixed_latency() {
        let mut m = PointToPoint::new(SimTime::from_micros(500));
        let mut rng = DetRng::new(1);
        let plan = tx(&mut m, NodeId(0), &dests(3), 100, SimTime::from_micros(10), &mut rng);
        assert_eq!(plan.dropped, 0);
        for (_, at) in &plan.deliveries {
            assert_eq!(*at, SimTime::from_micros(510));
        }
    }

    #[test]
    fn shared_bus_serialization_time() {
        let bus = SharedBus::new(EthernetConfig::default());
        // 1024 B payload + 42 B overhead = 1066 B = 8528 bits @ 10 Mbit/s = 852 us.
        assert_eq!(bus.serialization_time(1024), SimTime::from_micros(852));
        // Tiny frames pad to 64 B = 512 bits = 51 us.
        assert_eq!(bus.serialization_time(1), SimTime::from_micros(51));
    }

    #[test]
    fn shared_bus_contention_queues_frames() {
        let mut cfg = EthernetConfig::default();
        cfg.jitter = SimTime::ZERO;
        cfg.propagation = SimTime::ZERO;
        let mut bus = SharedBus::new(cfg);
        let mut rng = DetRng::new(1);
        let t0 = SimTime::ZERO;
        let p1 = tx(&mut bus, NodeId(0), &dests(1), 1024, t0, &mut rng);
        let p2 = tx(&mut bus, NodeId(1), &dests(1), 1024, t0, &mut rng);
        let a1 = p1.deliveries[0].1;
        let a2 = p2.deliveries[0].1;
        // Second frame waits for the first to clear the wire.
        assert_eq!(a2, a1 + SimTime::from_micros(852));
    }

    #[test]
    fn shared_bus_broadcast_costs_one_frame() {
        let mut cfg = EthernetConfig::default();
        cfg.jitter = SimTime::ZERO;
        let mut bus = SharedBus::new(cfg);
        let mut rng = DetRng::new(1);
        let plan = tx(&mut bus, NodeId(0), &dests(10), 1024, SimTime::ZERO, &mut rng);
        assert_eq!(plan.deliveries.len(), 10);
        let first = plan.deliveries[0].1;
        assert!(plan.deliveries.iter().all(|&(_, at)| at == first));
        // Medium busy only once.
        assert_eq!(bus.busy_until(), SimTime::from_micros(852));
    }

    #[test]
    fn busy_us_reports_serialization_only_on_the_bus() {
        let mut rng = DetRng::new(1);
        let mut p2p = PointToPoint::new(SimTime::from_micros(500));
        let plan = tx(&mut p2p, NodeId(0), &dests(2), 1024, SimTime::ZERO, &mut rng);
        assert_eq!(plan.busy_us, 0, "point-to-point never occupies a shared medium");

        let mut cfg = EthernetConfig::default();
        cfg.jitter = SimTime::ZERO;
        let mut bus = SharedBus::new(cfg);
        let plan = tx(&mut bus, NodeId(0), &dests(10), 1024, SimTime::ZERO, &mut rng);
        // One broadcast frame occupies the wire for its serialization time,
        // regardless of the destination count.
        assert_eq!(plan.busy_us, 852);

        // Wrappers pass the inner medium's occupancy through untouched.
        let mut cfg = EthernetConfig::default();
        cfg.jitter = SimTime::ZERO;
        let mut lossy = Lossy::new(Box::new(SharedBus::new(cfg)), 1.0);
        let plan = tx(&mut lossy, NodeId(0), &dests(3), 1024, SimTime::ZERO, &mut rng);
        assert_eq!(plan.deliveries.len(), 0);
        assert_eq!(plan.busy_us, 852, "dropped copies still burned wire time");
    }

    #[test]
    fn lossy_drops_at_configured_rate() {
        let inner = Box::new(PointToPoint::new(SimTime::from_micros(1)));
        let mut m = Lossy::new(inner, 0.25);
        let mut rng = DetRng::new(2);
        let mut delivered = 0usize;
        let mut dropped = 0u32;
        for _ in 0..4000 {
            let plan = tx(&mut m, NodeId(0), &dests(1), 10, SimTime::ZERO, &mut rng);
            delivered += plan.deliveries.len();
            dropped += plan.dropped;
        }
        let rate = f64::from(dropped) / 4000.0;
        assert!((rate - 0.25).abs() < 0.03, "drop rate {rate}");
        assert_eq!(delivered + dropped as usize, 4000);
    }

    #[test]
    fn lossy_duplicates_arrive_later() {
        let inner = Box::new(PointToPoint::new(SimTime::from_micros(1)));
        let mut m = Lossy::new(inner, 0.0).with_duplication(1.0);
        let mut rng = DetRng::new(3);
        let plan = tx(&mut m, NodeId(0), &dests(1), 10, SimTime::ZERO, &mut rng);
        assert_eq!(plan.deliveries.len(), 2);
        assert!(plan.deliveries[1].1 > plan.deliveries[0].1);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn lossy_rejects_bad_probability() {
        let inner = Box::new(PointToPoint::new(SimTime::ZERO));
        let _ = Lossy::new(inner, 1.5);
    }

    #[test]
    fn timed_partition_blocks_only_in_window() {
        let inner = Box::new(PointToPoint::new(SimTime::from_micros(1)));
        let mut m = PartitionSchedule::new(inner)
            .partition_at(SimTime::from_millis(10), vec![vec![NodeId(0)], vec![NodeId(1)]])
            .heal_at(SimTime::from_millis(20));
        let mut rng = DetRng::new(7);
        // Before the window: everything flows.
        let plan = tx(&mut m, NodeId(0), &dests(2), 10, SimTime::from_millis(5), &mut rng);
        assert_eq!(plan.deliveries.len(), 2);
        // Inside: the pair is severed.
        let plan = tx(&mut m, NodeId(0), &dests(2), 10, SimTime::from_millis(15), &mut rng);
        assert_eq!(plan.deliveries.len(), 1);
        assert_eq!(plan.dropped, 1);
        // After: healed.
        let plan = tx(&mut m, NodeId(0), &dests(2), 10, SimTime::from_millis(20), &mut rng);
        assert_eq!(plan.deliveries.len(), 2);
    }

    #[test]
    fn timed_partition_isolate_cuts_all_traffic() {
        let inner = Box::new(PointToPoint::new(SimTime::from_micros(1)));
        let mut m = PartitionSchedule::new(inner)
            .partition_at(SimTime::ZERO, vec![vec![NodeId(0), NodeId(1), NodeId(3)]])
            .heal_at(SimTime::from_secs(1));
        let mut rng = DetRng::new(8);
        let plan = tx(&mut m, NodeId(2), &dests(4), 10, SimTime::from_millis(1), &mut rng);
        // Only the self-copy survives.
        assert_eq!(plan.deliveries.iter().map(|&(d, _)| d).collect::<Vec<_>>(), vec![NodeId(2)]);
        let plan = tx(&mut m, NodeId(0), &dests(4), 10, SimTime::from_millis(1), &mut rng);
        assert!(plan.deliveries.iter().all(|&(d, _)| d != NodeId(2)));
    }

    #[test]
    fn partition_schedule_follows_the_script() {
        let inner = Box::new(PointToPoint::new(SimTime::from_micros(1)));
        // Split {0,1} | {2,3} at 10ms, heal at 20ms, isolate 0 at 30ms.
        let mut m = PartitionSchedule::new(inner)
            .partition_at(
                SimTime::from_millis(10),
                vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2), NodeId(3)]],
            )
            .heal_at(SimTime::from_millis(20))
            .partition_at(SimTime::from_millis(30), vec![vec![NodeId(1), NodeId(2), NodeId(3)]]);
        let mut rng = DetRng::new(5);
        let reached = |m: &mut PartitionSchedule, rng: &mut DetRng, at_ms: u64| {
            tx(m, NodeId(0), &dests(4), 10, SimTime::from_millis(at_ms), rng)
                .deliveries
                .iter()
                .map(|&(d, _)| d)
                .collect::<Vec<_>>()
        };
        // Before any event: fully connected.
        assert_eq!(reached(&mut m, &mut rng, 5).len(), 4);
        // During the split: 0 reaches only its own side (and itself).
        assert_eq!(reached(&mut m, &mut rng, 15), vec![NodeId(0), NodeId(1)]);
        // Healed.
        assert_eq!(reached(&mut m, &mut rng, 25).len(), 4);
        // Isolated: only the self-copy survives.
        assert_eq!(reached(&mut m, &mut rng, 35), vec![NodeId(0)]);
    }

    #[test]
    fn partition_schedule_events_apply_in_time_order() {
        let inner = Box::new(PointToPoint::new(SimTime::from_micros(1)));
        // Inserted out of order; the schedule must still resolve by time.
        let mut m = PartitionSchedule::new(inner)
            .heal_at(SimTime::from_millis(20))
            .partition_at(SimTime::from_millis(10), vec![vec![NodeId(0)], vec![NodeId(1)]]);
        let mut rng = DetRng::new(6);
        let plan = tx(&mut m, NodeId(0), &dests(2), 10, SimTime::from_millis(15), &mut rng);
        assert_eq!(plan.deliveries.len(), 1);
        let plan = tx(&mut m, NodeId(0), &dests(2), 10, SimTime::from_millis(20), &mut rng);
        assert_eq!(plan.deliveries.len(), 2);
    }

    #[test]
    fn partition_blocks_and_heals() {
        let inner = Box::new(PointToPoint::new(SimTime::from_micros(1)));
        // Sever 0 <-> 1 only: both still share a group with 2.
        let mut m = PartitionSchedule::new(inner)
            .partition_at(
                SimTime::ZERO,
                vec![vec![NodeId(0), NodeId(2)], vec![NodeId(1), NodeId(2)]],
            )
            .heal_at(SimTime::from_millis(1));
        let mut rng = DetRng::new(4);
        let plan = tx(&mut m, NodeId(0), &dests(3), 10, SimTime::ZERO, &mut rng);
        let reached: Vec<NodeId> = plan.deliveries.iter().map(|&(d, _)| d).collect();
        assert_eq!(reached, vec![NodeId(0), NodeId(2)]);
        assert_eq!(plan.dropped, 1);

        let plan = tx(&mut m, NodeId(0), &dests(3), 10, SimTime::from_millis(1), &mut rng);
        assert_eq!(plan.deliveries.len(), 3);
    }

    #[test]
    fn transmit_into_overwrites_the_plan_and_keeps_its_buffer() {
        let make = || {
            let inner = Box::new(SharedBus::new(EthernetConfig::default()));
            Lossy::new(inner, 0.3).with_duplication(0.3)
        };
        let (mut reusing, mut fresh) = (make(), make());
        let mut rng_a = DetRng::new(11);
        let mut rng_b = DetRng::new(11);
        // A wide first frame sizes the buffer and leaves stale entries behind.
        let mut reused = TxPlan::default();
        reusing.transmit_into(NodeId(0), &dests(64), 200, SimTime::ZERO, &mut rng_a, &mut reused);
        let _ = tx(&mut fresh, NodeId(0), &dests(64), 200, SimTime::ZERO, &mut rng_b);
        let buf = reused.deliveries.as_ptr();
        for i in 1..50u64 {
            let now = SimTime::from_micros(i * 10);
            reusing.transmit_into(NodeId(0), &dests(4), 200, now, &mut rng_a, &mut reused);
            assert_eq!(reused, tx(&mut fresh, NodeId(0), &dests(4), 200, now, &mut rng_b));
        }
        assert_eq!(reused.deliveries.as_ptr(), buf, "the buffer is reused, not replaced");
    }

    #[test]
    fn lossy_in_place_matches_the_copying_formulation() {
        // The wrapper used to build a second plan; this is that loop, kept
        // as the oracle for the in-place compaction's output *and* its RNG
        // draw order (one drop draw per copy, one dup draw per survivor).
        fn copying(base: &TxPlan, drop: f64, dup: f64, rng: &mut DetRng) -> TxPlan {
            let mut out = TxPlan { deliveries: Vec::new(), ..base.clone() };
            for &(d, at) in &base.deliveries {
                if rng.chance(drop) {
                    out.dropped += 1;
                    continue;
                }
                out.deliveries.push((d, at));
                if rng.chance(dup) {
                    out.deliveries.push((d, at + SimTime::from_millis(1)));
                }
            }
            out
        }
        let mut seeds = DetRng::new(99);
        for case in 0..200u64 {
            let (drop, dup) = match case % 4 {
                0 => (0.0, 1.0), // every dup needs a shift
                1 => (0.5, 0.9),
                2 => (seeds.unit(), 0.0),
                _ => (seeds.unit(), seeds.unit()),
            };
            let n = seeds.range(0, 12) as u32;
            let mut rng_base = DetRng::new(case);
            let mut rng_a = rng_base.clone();
            let mut p2p = PointToPoint::new(SimTime::from_micros(7));
            let base = tx(&mut p2p, NodeId(0), &dests(n), 10, SimTime::ZERO, &mut rng_base);
            let want = copying(&base, drop, dup, &mut rng_base);
            let mut m = Lossy::new(Box::new(p2p), drop).with_duplication(dup);
            let got = tx(&mut m, NodeId(0), &dests(n), 10, SimTime::ZERO, &mut rng_a);
            assert_eq!(got, want, "case {case}: drop {drop} dup {dup} n {n}");
            assert_eq!(rng_a.next_u64(), rng_base.next_u64(), "case {case}: draw count");
        }
    }
}
