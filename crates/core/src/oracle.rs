//! Switch-decision oracles.
//!
//! The paper: "We assume that some kind of oracle decides when a switch is
//! necessary. … Which protocol is best at any time is an orthogonal
//! problem." These oracles make the experiments runnable: a scripted one
//! for controlled measurements, and load-threshold ones (with and without
//! hysteresis) for §7's adaptation and oscillation discussion.

use ps_obs::MetricsSampler;
use ps_simnet::SimTime;

/// What the switch layer can observe locally when consulting the oracle.
#[derive(Debug, Clone, Copy)]
pub struct SwitchObs {
    /// Current virtual time.
    pub now: SimTime,
    /// Index of the active protocol (0 or 1).
    pub current: usize,
    /// Distinct senders seen in the observation window.
    pub active_senders: usize,
    /// Messages delivered in the observation window.
    pub recent_deliveries: u64,
    /// Whether a switch is already in progress.
    pub switching: bool,
    /// When this process completed its most recent switch, if any.
    pub last_switch: Option<SimTime>,
}

impl SwitchObs {
    /// A switch is under way, or the last one completed less than
    /// `cooldown` ago: a load oracle asks for none now.
    fn holds_off(&self, cooldown: SimTime) -> bool {
        self.switching || self.last_switch.is_some_and(|at| self.now.saturating_sub(at) < cooldown)
    }
}

/// Decides when (and to which protocol) to switch.
pub trait Oracle: Send {
    /// Inspect the observation; return `Some(target)` to request a switch.
    fn decide(&mut self, obs: &SwitchObs) -> Option<usize>;
}

/// Never switches. The default for processes that are not the decider.
#[derive(Debug, Clone, Copy, Default)]
pub struct NeverOracle;

impl Oracle for NeverOracle {
    fn decide(&mut self, _obs: &SwitchObs) -> Option<usize> {
        None
    }
}

/// Scripted switches at fixed times — the controlled-measurement oracle.
///
/// # Examples
///
/// ```
/// use ps_core::{ManualOracle, Oracle, SwitchObs};
/// use ps_simnet::SimTime;
///
/// let mut o = ManualOracle::new(vec![(SimTime::from_millis(100), 1)]);
/// let mut obs = SwitchObs {
///     now: SimTime::from_millis(50),
///     current: 0,
///     active_senders: 0,
///     recent_deliveries: 0,
///     switching: false,
///     last_switch: None,
/// };
/// assert_eq!(o.decide(&obs), None);
/// obs.now = SimTime::from_millis(120);
/// assert_eq!(o.decide(&obs), Some(1));
/// assert_eq!(o.decide(&obs), None); // one-shot
/// ```
#[derive(Debug, Clone)]
pub struct ManualOracle {
    plan: Vec<(SimTime, usize)>,
    next: usize,
}

impl ManualOracle {
    /// Creates the oracle from `(when, target)` pairs (must be sorted by
    /// time).
    pub fn new(plan: Vec<(SimTime, usize)>) -> Self {
        debug_assert!(plan.windows(2).all(|w| w[0].0 <= w[1].0), "plan must be time-sorted");
        Self { plan, next: 0 }
    }
}

impl Oracle for ManualOracle {
    fn decide(&mut self, obs: &SwitchObs) -> Option<usize> {
        if self.next < self.plan.len() && obs.now >= self.plan[self.next].0 {
            let target = self.plan[self.next].1;
            self.next += 1;
            if target != obs.current {
                return Some(target);
            }
        }
        None
    }
}

/// Load-threshold oracle with hysteresis and an optional post-switch
/// cooldown, for the sequencer/token hybrid.
///
/// Below `threshold - hysteresis` active senders it prefers protocol
/// `low_proto` (the sequencer: low latency at low load); above
/// `threshold + hysteresis` it prefers `high_proto` (the token: scalable
/// under high load). Inside the band it leaves the current protocol alone —
/// the paper's fix for oscillation ("If switching too aggressively, the
/// resulting protocol starts oscillating. If we make our protocol less
/// aggressive (by adding a hysteresis)…", §7). Set `hysteresis` to zero to
/// reproduce the oscillation.
#[derive(Debug, Clone)]
pub struct ThresholdOracle {
    /// Crossover point in active senders.
    pub threshold: usize,
    /// Half-width of the no-action band.
    pub hysteresis: usize,
    /// Protocol index to use under low load.
    pub low_proto: usize,
    /// Protocol index to use under high load.
    pub high_proto: usize,
    /// Refractory period after a completed switch. Delivery can stall
    /// briefly while a flipped member's buffer drains; without a cooldown
    /// that stall reads as "no active senders" and triggers a flap back.
    pub cooldown: SimTime,
}

impl ThresholdOracle {
    /// Creates the oracle; protocol 0 is used under low load, protocol 1
    /// under high load.
    pub fn new(threshold: usize, hysteresis: usize) -> Self {
        Self { threshold, hysteresis, low_proto: 0, high_proto: 1, cooldown: SimTime::ZERO }
    }

    /// Adds a refractory period after each completed switch.
    pub fn with_cooldown(mut self, cooldown: SimTime) -> Self {
        self.cooldown = cooldown;
        self
    }
}

impl Oracle for ThresholdOracle {
    fn decide(&mut self, obs: &SwitchObs) -> Option<usize> {
        if obs.holds_off(self.cooldown) {
            return None;
        }
        let n = obs.active_senders;
        if n > self.threshold + self.hysteresis && obs.current != self.high_proto {
            Some(self.high_proto)
        } else if n + self.hysteresis < self.threshold && obs.current != self.low_proto {
            Some(self.low_proto)
        } else {
            None
        }
    }
}

/// Metrics-driven oracle: switches on *measured* load from the sim's
/// [`MetricsSampler`] instead of the switch layer's local sender count.
///
/// Each decision reads the latest [`LoadSample`](ps_obs::LoadSample) and
/// reduces it to one load figure — the maximum of shared-medium
/// utilization and the sequencer node's CPU utilization, both in permille.
/// Those are exactly the two resources whose saturation produces the
/// paper's Figure 2 crossover: the bus fills with per-message sequencer
/// traffic, and the sequencer's CPU serializes every message in the group.
/// Sustained load at or above `high_permille` requests `high_proto` (the
/// token protocol); load at or below `low_permille` requests `low_proto`
/// (the sequencer). The gap between the two watermarks is the hysteresis
/// band, and `cooldown` adds the same post-switch refractory period as
/// [`ThresholdOracle`].
///
/// `min_samples` consecutive qualifying samples are required before either
/// switch fires, so one bursty window cannot flap the group.
#[derive(Debug, Clone)]
pub struct LoadOracle {
    sampler: MetricsSampler,
    /// Load (permille) at or above which `high_proto` is requested.
    pub high_permille: u32,
    /// Load (permille) at or below which `low_proto` is requested.
    pub low_permille: u32,
    /// Protocol index for the low-load regime (the sequencer).
    pub low_proto: usize,
    /// Protocol index for the high-load regime (the token ring).
    pub high_proto: usize,
    /// Refractory period after a completed switch.
    pub cooldown: SimTime,
    /// Consecutive qualifying samples required before switching.
    pub min_samples: u32,
    /// Timestamp of the newest sample already counted (avoids counting
    /// one window twice when decisions outpace sampling).
    seen_up_to_us: u64,
    high_streak: u32,
    low_streak: u32,
}

impl LoadOracle {
    /// Creates the oracle reading from `sampler`, requesting protocol 1
    /// when load reaches `high_permille` and protocol 0 when it falls to
    /// `low_permille`.
    ///
    /// # Panics
    ///
    /// Panics unless `low_permille < high_permille` (the watermarks must
    /// leave a hysteresis band).
    pub fn new(sampler: MetricsSampler, high_permille: u32, low_permille: u32) -> Self {
        assert!(low_permille < high_permille, "watermarks must leave a hysteresis band");
        Self {
            sampler,
            high_permille,
            low_permille,
            low_proto: 0,
            high_proto: 1,
            cooldown: SimTime::ZERO,
            min_samples: 2,
            seen_up_to_us: 0,
            high_streak: 0,
            low_streak: 0,
        }
    }

    /// Adds a refractory period after each completed switch.
    pub fn with_cooldown(mut self, cooldown: SimTime) -> Self {
        self.cooldown = cooldown;
        self
    }

    /// Sets how many consecutive qualifying samples arm a switch.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_min_samples(mut self, n: u32) -> Self {
        assert!(n > 0, "at least one sample must qualify");
        self.min_samples = n;
        self
    }

    /// The load figure a sample reduces to: the busier of the shared
    /// medium and the sequencer's CPU, in permille.
    fn load_of(sample: &ps_obs::LoadSample) -> u32 {
        sample.bus_util_permille.max(sample.seq_cpu_permille)
    }
}

impl Oracle for LoadOracle {
    fn decide(&mut self, obs: &SwitchObs) -> Option<usize> {
        // Consume fresh samples even while held, so the streaks reflect
        // the full load history rather than pausing with the protocol.
        if let Some(sample) = self.sampler.latest() {
            if sample.at_us > self.seen_up_to_us {
                self.seen_up_to_us = sample.at_us;
                let load = Self::load_of(&sample);
                self.high_streak =
                    if load >= self.high_permille { self.high_streak + 1 } else { 0 };
                self.low_streak = if load <= self.low_permille { self.low_streak + 1 } else { 0 };
            }
        }
        if obs.holds_off(self.cooldown) {
            return None;
        }
        if self.high_streak >= self.min_samples && obs.current != self.high_proto {
            Some(self.high_proto)
        } else if self.low_streak >= self.min_samples && obs.current != self.low_proto {
            Some(self.low_proto)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(now_ms: u64, current: usize, active: usize) -> SwitchObs {
        SwitchObs {
            now: SimTime::from_millis(now_ms),
            current,
            active_senders: active,
            recent_deliveries: active as u64 * 10,
            switching: false,
            last_switch: None,
        }
    }

    #[test]
    fn never_never_switches() {
        assert_eq!(NeverOracle.decide(&obs(1, 0, 100)), None);
    }

    #[test]
    fn manual_fires_in_order() {
        let mut o =
            ManualOracle::new(vec![(SimTime::from_millis(10), 1), (SimTime::from_millis(20), 0)]);
        assert_eq!(o.decide(&obs(5, 0, 0)), None);
        assert_eq!(o.decide(&obs(11, 0, 0)), Some(1));
        assert_eq!(o.decide(&obs(12, 1, 0)), None);
        assert_eq!(o.decide(&obs(25, 1, 0)), Some(0));
        assert_eq!(o.decide(&obs(99, 0, 0)), None);
    }

    #[test]
    fn manual_skips_noop_switches() {
        let mut o = ManualOracle::new(vec![(SimTime::from_millis(10), 0)]);
        assert_eq!(o.decide(&obs(11, 0, 0)), None);
    }

    #[test]
    fn threshold_switches_up_and_down() {
        let mut o = ThresholdOracle::new(5, 1);
        // Low load on the low protocol: stay.
        assert_eq!(o.decide(&obs(1, 0, 2)), None);
        // High load: go to protocol 1.
        assert_eq!(o.decide(&obs(2, 0, 7)), Some(1));
        // In-band: stay wherever you are.
        assert_eq!(o.decide(&obs(3, 1, 5)), None);
        assert_eq!(o.decide(&obs(4, 0, 5)), None);
        // Load drops: back to protocol 0.
        assert_eq!(o.decide(&obs(5, 1, 3)), Some(0));
    }

    #[test]
    fn threshold_holds_during_switch() {
        let mut o = ThresholdOracle::new(5, 0);
        let mut observation = obs(1, 0, 10);
        observation.switching = true;
        assert_eq!(o.decide(&observation), None);
    }

    #[test]
    fn cooldown_suppresses_rapid_flapping() {
        let mut o = ThresholdOracle::new(5, 0).with_cooldown(SimTime::from_millis(500));
        let mut observation = obs(100, 1, 0); // load vanished right after a switch
        observation.last_switch = Some(SimTime::from_millis(80));
        assert_eq!(o.decide(&observation), None, "inside the cooldown");
        observation.now = SimTime::from_millis(700);
        assert_eq!(o.decide(&observation), Some(0), "after the cooldown");
    }

    #[test]
    fn load_oracle_needs_a_sustained_crossing() {
        use ps_obs::LoadSample;
        let sampler = MetricsSampler::new(1000);
        let mut o = LoadOracle::new(sampler.clone(), 300, 100).with_min_samples(2);
        let push = |at_us: u64, bus: u32| {
            sampler.push(LoadSample { at_us, bus_util_permille: bus, ..LoadSample::default() })
        };
        // No samples yet: no opinion.
        assert_eq!(o.decide(&obs(1, 0, 0)), None);
        // One hot window is not enough…
        push(1000, 500);
        assert_eq!(o.decide(&obs(2, 0, 0)), None);
        // …two consecutive hot windows are.
        push(2000, 400);
        assert_eq!(o.decide(&obs(3, 0, 0)), Some(1));
        // Already on the high protocol: nothing to do.
        assert_eq!(o.decide(&obs(4, 1, 0)), None);
        // A single cool window resets nothing downward yet…
        push(3000, 50);
        assert_eq!(o.decide(&obs(5, 1, 0)), None);
        // …but sustained quiet brings the sequencer back.
        push(4000, 0);
        assert_eq!(o.decide(&obs(6, 1, 0)), Some(0));
    }

    #[test]
    fn load_oracle_takes_the_max_of_bus_and_sequencer_cpu() {
        use ps_obs::LoadSample;
        let sampler = MetricsSampler::new(1000);
        let mut o = LoadOracle::new(sampler.clone(), 300, 100).with_min_samples(1);
        // Bus idle but the sequencer CPU is saturated: still high load.
        sampler.push(LoadSample {
            at_us: 1000,
            bus_util_permille: 10,
            seq_cpu_permille: 900,
            ..LoadSample::default()
        });
        assert_eq!(o.decide(&obs(1, 0, 0)), Some(1));
    }

    #[test]
    fn load_oracle_respects_switching_and_cooldown() {
        use ps_obs::LoadSample;
        let sampler = MetricsSampler::new(1000);
        let mut o = LoadOracle::new(sampler.clone(), 300, 100)
            .with_min_samples(1)
            .with_cooldown(SimTime::from_millis(500));
        sampler.push(LoadSample { at_us: 1000, bus_util_permille: 999, ..LoadSample::default() });
        let mut observation = obs(2, 0, 0);
        observation.switching = true;
        assert_eq!(o.decide(&observation), None, "held mid-switch");
        observation.switching = false;
        observation.last_switch = Some(SimTime::from_millis(1));
        assert_eq!(o.decide(&observation), None, "held in cooldown");
        observation.now = SimTime::from_millis(600);
        assert_eq!(o.decide(&observation), Some(1), "fires after cooldown");
    }

    #[test]
    fn load_oracle_counts_each_window_once() {
        use ps_obs::LoadSample;
        let sampler = MetricsSampler::new(1000);
        let mut o = LoadOracle::new(sampler.clone(), 300, 100).with_min_samples(2);
        sampler.push(LoadSample { at_us: 1000, bus_util_permille: 500, ..LoadSample::default() });
        // Two decisions against the same sample must not double-count it.
        assert_eq!(o.decide(&obs(1, 0, 0)), None);
        assert_eq!(o.decide(&obs(2, 0, 0)), None);
    }

    #[test]
    #[should_panic(expected = "hysteresis band")]
    fn load_oracle_rejects_inverted_watermarks() {
        let _ = LoadOracle::new(MetricsSampler::new(1000), 100, 100);
    }

    #[test]
    fn zero_hysteresis_flaps_at_the_boundary() {
        let mut o = ThresholdOracle::new(5, 0);
        // 6 senders → high protocol; 4 senders → low protocol; repeat.
        assert_eq!(o.decide(&obs(1, 0, 6)), Some(1));
        assert_eq!(o.decide(&obs(2, 1, 4)), Some(0));
        assert_eq!(o.decide(&obs(3, 0, 6)), Some(1));
    }
}
