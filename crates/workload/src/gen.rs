//! Profile definitions and schedule generation.

use crate::manifest::Manifest;
use ps_bytes::Bytes;
use ps_simnet::{DetRng, SimTime};
use ps_trace::ProcessId;

/// Seed-stream tag for a flash crowd's burst overlay (the monitor run has
/// derived its burst stream as `seed ^ 0xB425` since PR 4; keeping the
/// constant keeps those schedules reproducible).
const BURST_STREAM: u64 = 0xB425;

/// Typed traffic shape. Each variant carries only its shape parameters;
/// the common knobs (group, rate, span, seed, scale) live on
/// [`TrafficSpec`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Profile {
    /// Uniform load: every active sender at the base rate for the whole
    /// span — Figure 2's workload shape.
    Steady,
    /// Diurnal ramp: the rate climbs piecewise from the base rate to
    /// `peak ×` base at mid-span and back down, in eight slices.
    Diurnal {
        /// Rate multiplier at the peak of the ramp (≥ 1).
        peak: u32,
    },
    /// Flash crowd: a quiet baseline plus a sudden burst window in which
    /// the last `burst_senders` members also send at `burst_rate`.
    FlashCrowd {
        /// Extra senders active only during the burst.
        burst_senders: u16,
        /// Per-sender rate of the burst load (msg/s, before scaling).
        burst_rate: f64,
        /// Burst start.
        from: SimTime,
        /// Burst end.
        until: SimTime,
    },
    /// Hot-sender skew: sender ranks get zipf-like weights
    /// `1 / (rank + 1)^s` (s = `s_x100` / 100), normalized so the group
    /// total matches the steady profile's.
    HotSkew {
        /// Zipf exponent × 100 (100 ⇒ the classic 1/(rank+1) weights).
        s_x100: u32,
    },
    /// Correlated bursts: all senders surge together in `bursts` evenly
    /// spaced windows covering `duty_permille` of each cycle, at `peak ×`
    /// base rate; base rate in between.
    CorrelatedBursts {
        /// Number of synchronized burst windows across the span.
        bursts: u32,
        /// Rate multiplier inside a burst window (≥ 1).
        peak: u32,
        /// Share of each cycle spent bursting, in permille.
        duty_permille: u32,
    },
    /// Sender churn: each sender is only active during `sessions` drawn
    /// join/leave windows, so the sending population turns over during
    /// the run.
    Churn {
        /// Active windows drawn per sender.
        sessions: u32,
    },
}

impl Profile {
    /// Stable machine name, used in manifests and campaign row labels.
    pub fn name(&self) -> &'static str {
        match self {
            Profile::Steady => "steady",
            Profile::Diurnal { .. } => "diurnal",
            Profile::FlashCrowd { .. } => "flash_crowd",
            Profile::HotSkew { .. } => "hot_skew",
            Profile::CorrelatedBursts { .. } => "correlated_bursts",
            Profile::Churn { .. } => "churn",
        }
    }
}

/// A fully parameterized traffic specification: profile + common knobs.
///
/// `senders` selects the *last* `senders` members of the group (the
/// Figure-2 convention: process 0 — the sequencer — only sends when
/// everyone does). `scale` multiplies every rate in the profile, scaling
/// total traffic linearly.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficSpec {
    /// The load shape.
    pub profile: Profile,
    /// Group size.
    pub group: u16,
    /// Size of the sending subgroup (the last `senders` members).
    pub senders: u16,
    /// Base per-sender message rate (msg/s) before scaling.
    pub rate: f64,
    /// Linear load multiplier applied to every rate in the profile.
    pub scale: f64,
    /// Message body size in bytes (bodies are padded to at least 8).
    pub body_bytes: usize,
    /// Workload start.
    pub start: SimTime,
    /// Workload end (exclusive).
    pub end: SimTime,
    /// Root seed; every draw in the schedule derives from it.
    pub seed: u64,
}

impl Default for TrafficSpec {
    fn default() -> Self {
        Self {
            profile: Profile::Steady,
            group: 6,
            senders: 3,
            rate: 30.0,
            scale: 1.0,
            body_bytes: 512,
            start: SimTime::from_millis(100),
            end: SimTime::from_secs(3),
            seed: 0x1F0AD,
        }
    }
}

/// One scheduled application send.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendEvent {
    /// Send instant.
    pub at: SimTime,
    /// Sending process.
    pub sender: ProcessId,
    /// Message body (sender id + per-phase counter, padded).
    pub body: Bytes,
}

/// A generated schedule: the events, in canonical `(time, sender)` order,
/// plus the spec that produced them.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// The spec this schedule was generated from.
    pub spec: TrafficSpec,
    /// All send events, sorted by `(at, sender)`.
    pub events: Vec<SendEvent>,
}

impl Schedule {
    /// The events as `(time, sender, body)` tuples, cloning bodies —
    /// directly feedable to `GroupSimBuilder::sends`.
    pub fn sends(&self) -> impl Iterator<Item = (SimTime, ProcessId, Bytes)> + '_ {
        self.events.iter().map(|e| (e.at, e.sender, e.body.clone()))
    }

    /// Consumes the schedule into `(time, sender, body)` tuples.
    pub fn into_sends(self) -> impl Iterator<Item = (SimTime, ProcessId, Bytes)> {
        self.events.into_iter().map(|e| (e.at, e.sender, e.body))
    }

    /// The byte-deterministic manifest describing this schedule.
    pub fn manifest(&self) -> Manifest {
        Manifest::describe(self)
    }
}

/// One constant-rate stretch of a sender's timeline.
#[derive(Debug, Clone, Copy)]
struct Segment {
    from: SimTime,
    to: SimTime,
    rate: f64,
}

impl Segment {
    fn clipped(from: SimTime, to: SimTime, rate: f64, span: (SimTime, SimTime)) -> Option<Self> {
        let from = from.max(span.0);
        let to = to.min(span.1);
        (from < to && rate > 0.0).then_some(Segment { from, to, rate })
    }
}

/// Message body: sender id (2 bytes LE) + per-phase counter (6 bytes LE),
/// zero-padded to `body_bytes`, so bodies stay distinct and debuggable.
fn body(body_bytes: usize, sender: ProcessId, k: u64) -> Bytes {
    let mut b = vec![0u8; body_bytes.max(8)];
    b[..2].copy_from_slice(&sender.0.to_le_bytes());
    b[2..8].copy_from_slice(&k.to_le_bytes()[..6]);
    Bytes::from(b)
}

/// Walks one sender's segments with its private RNG stream, emitting
/// jittered-periodic sends (interval jittered ±25% so senders never
/// phase-lock; a fresh phase draw at each segment entry). On a single
/// segment this is the generator behind every steady harness workload:
/// Figure 2, the §7 runs, the traced run and the sim-vs-real scenario.
fn walk(
    out: &mut Vec<SendEvent>,
    rng: &mut DetRng,
    sender: ProcessId,
    segments: &[Segment],
    body_bytes: usize,
) {
    let mut k = 0u64;
    for seg in segments {
        let interval = SimTime::from_secs_f64(1.0 / seg.rate);
        let mut t = seg.from + rng.jitter(interval);
        while t < seg.to {
            out.push(SendEvent { at: t, sender, body: body(body_bytes, sender, k) });
            k += 1;
            let jitter_range = interval.as_micros() / 2;
            let base = interval.as_micros() - jitter_range / 2;
            t += SimTime::from_micros(base + rng.below(jitter_range.max(1)));
        }
    }
}

/// One generation phase: a sender set with per-sender segments, drawn
/// from its own seed stream.
struct Phase {
    seed: u64,
    /// `(sender, segments)` in sender order.
    plan: Vec<(ProcessId, Vec<Segment>)>,
}

impl Phase {
    fn emit(&self, out: &mut Vec<SendEvent>, body_bytes: usize) {
        let root = DetRng::new(self.seed);
        for (sender, segments) in &self.plan {
            let mut rng = root.fork(u64::from(sender.0));
            walk(out, &mut rng, *sender, segments, body_bytes);
        }
    }
}

impl TrafficSpec {
    /// The sending subgroup: the last `senders` members.
    ///
    /// # Panics
    ///
    /// Panics if `senders > group`.
    pub fn sender_set(&self) -> Vec<ProcessId> {
        assert!(self.senders <= self.group, "cannot have more senders than members");
        (self.group - self.senders..self.group).map(ProcessId).collect()
    }

    /// Expands the spec into its deterministic schedule.
    ///
    /// # Panics
    ///
    /// Panics if `rate` or `scale` is not positive, `start >= end`, or
    /// the profile's sender counts exceed the group.
    pub fn generate(&self) -> Schedule {
        assert!(self.rate > 0.0, "rate must be positive");
        assert!(self.scale > 0.0, "scale must be positive");
        assert!(self.start < self.end, "empty workload span");
        let span = (self.start, self.end);
        let base_rate = self.rate * self.scale;
        let senders = self.sender_set();
        let steady = |rate: f64| -> Vec<(ProcessId, Vec<Segment>)> {
            senders
                .iter()
                .map(|&p| (p, Segment::clipped(span.0, span.1, rate, span).into_iter().collect()))
                .collect()
        };

        let mut phases: Vec<Phase> = Vec::new();
        match self.profile {
            Profile::Steady => {
                phases.push(Phase { seed: self.seed, plan: steady(base_rate) });
            }
            Profile::Diurnal { peak } => {
                assert!(peak >= 1, "diurnal peak multiplier must be >= 1");
                const SLICES: u64 = 8;
                let span_us = (self.end - self.start).as_micros();
                let plan = senders
                    .iter()
                    .map(|&p| {
                        let segments = (0..SLICES)
                            .filter_map(|i| {
                                let from = self.start + SimTime::from_micros(span_us * i / SLICES);
                                let to =
                                    self.start + SimTime::from_micros(span_us * (i + 1) / SLICES);
                                // Triangular ramp 0 → 1 → 0 across slices.
                                let x = i as f64 / (SLICES - 1) as f64;
                                let tri = 1.0 - (2.0 * x - 1.0).abs();
                                let rate = base_rate * (1.0 + f64::from(peak - 1) * tri);
                                Segment::clipped(from, to, rate, span)
                            })
                            .collect();
                        (p, segments)
                    })
                    .collect();
                phases.push(Phase { seed: self.seed, plan });
            }
            Profile::FlashCrowd { burst_senders, burst_rate, from, until } => {
                assert!(burst_senders <= self.group, "burst subgroup exceeds group");
                phases.push(Phase { seed: self.seed, plan: steady(base_rate) });
                let crowd: Vec<ProcessId> =
                    (self.group - burst_senders..self.group).map(ProcessId).collect();
                let plan = crowd
                    .iter()
                    .map(|&p| {
                        let seg = Segment::clipped(from, until, burst_rate * self.scale, span);
                        (p, seg.into_iter().collect())
                    })
                    .collect();
                phases.push(Phase { seed: self.seed ^ BURST_STREAM, plan });
            }
            Profile::HotSkew { s_x100 } => {
                let s = f64::from(s_x100) / 100.0;
                let weights: Vec<f64> =
                    (0..senders.len()).map(|r| 1.0 / ((r + 1) as f64).powf(s)).collect();
                let total: f64 = weights.iter().sum();
                let group_rate = base_rate * senders.len() as f64;
                let plan = senders
                    .iter()
                    .zip(&weights)
                    .map(|(&p, w)| {
                        let rate = group_rate * w / total;
                        (p, Segment::clipped(span.0, span.1, rate, span).into_iter().collect())
                    })
                    .collect();
                phases.push(Phase { seed: self.seed, plan });
            }
            Profile::CorrelatedBursts { bursts, peak, duty_permille } => {
                assert!(bursts >= 1, "need at least one burst window");
                assert!(peak >= 1, "burst peak multiplier must be >= 1");
                assert!(duty_permille <= 1000, "duty cycle is a permille share");
                let span_us = (self.end - self.start).as_micros();
                let cycle = span_us / u64::from(bursts);
                let on = cycle * u64::from(duty_permille) / 1000;
                // Shared window boundaries correlate the senders.
                let mut segments: Vec<Segment> = Vec::new();
                for j in 0..u64::from(bursts) {
                    let cycle_start = self.start + SimTime::from_micros(j * cycle);
                    let burst_end = cycle_start + SimTime::from_micros(on);
                    let cycle_end = self.start + SimTime::from_micros((j + 1) * cycle);
                    segments.extend(Segment::clipped(
                        cycle_start,
                        burst_end,
                        base_rate * f64::from(peak),
                        span,
                    ));
                    segments.extend(Segment::clipped(burst_end, cycle_end, base_rate, span));
                }
                let plan = senders.iter().map(|&p| (p, segments.clone())).collect();
                phases.push(Phase { seed: self.seed, plan });
            }
            Profile::Churn { sessions } => {
                assert!(sessions >= 1, "each sender needs at least one session");
                let span_us = (self.end - self.start).as_micros();
                let len_base = (span_us / u64::from(sessions + 1)).max(1);
                let windows_root = DetRng::new(self.seed ^ 0xC0_5E55);
                let plan = senders
                    .iter()
                    .map(|&p| {
                        // Windows come from a dedicated stream so the event
                        // walk's draws stay aligned with the other profiles.
                        let mut wrng = windows_root.fork(u64::from(p.0));
                        let mut windows: Vec<(u64, u64)> = (0..sessions)
                            .map(|_| {
                                let from = wrng.below(span_us);
                                let len = len_base / 2 + wrng.below(len_base);
                                (from, (from + len).min(span_us))
                            })
                            .collect();
                        windows.sort_unstable();
                        // Merge overlaps so segments stay disjoint.
                        let mut merged: Vec<(u64, u64)> = Vec::new();
                        for w in windows {
                            match merged.last_mut() {
                                Some(last) if w.0 <= last.1 => last.1 = last.1.max(w.1),
                                _ => merged.push(w),
                            }
                        }
                        let segments = merged
                            .into_iter()
                            .filter_map(|(f, t)| {
                                Segment::clipped(
                                    self.start + SimTime::from_micros(f),
                                    self.start + SimTime::from_micros(t),
                                    base_rate,
                                    span,
                                )
                            })
                            .collect();
                        (p, segments)
                    })
                    .collect();
                phases.push(Phase { seed: self.seed, plan });
            }
        }

        let mut events = Vec::new();
        for phase in &phases {
            phase.emit(&mut events, self.body_bytes);
        }
        // Canonical order; the sort is stable, so same-instant events keep
        // their deterministic phase order.
        events.sort_by(|a, b| (a.at, a.sender).cmp(&(b.at, b.sender)));
        Schedule { spec: self.clone(), events }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(profile: Profile) -> TrafficSpec {
        TrafficSpec { profile, ..TrafficSpec::default() }
    }

    /// All six shapes at small parameters, for shape-level tests.
    pub(crate) fn gallery() -> Vec<TrafficSpec> {
        let end = TrafficSpec::default().end;
        vec![
            spec(Profile::Steady),
            spec(Profile::Diurnal { peak: 4 }),
            spec(Profile::FlashCrowd {
                burst_senders: 5,
                burst_rate: 80.0,
                from: SimTime::from_millis(1000),
                until: SimTime::from_millis(1800),
            }),
            spec(Profile::HotSkew { s_x100: 150 }),
            spec(Profile::CorrelatedBursts { bursts: 4, peak: 5, duty_permille: 250 }),
            TrafficSpec { senders: 5, ..spec(Profile::Churn { sessions: 3 }) },
        ]
        .into_iter()
        .map(|s| TrafficSpec { end, ..s })
        .collect()
    }

    #[test]
    fn steady_matches_rate_and_span() {
        let s = TrafficSpec { rate: 50.0, senders: 4, ..spec(Profile::Steady) };
        let sched = s.generate();
        let secs = (s.end - s.start).as_secs_f64();
        let expected = 4.0 * 50.0 * secs;
        let got = sched.events.len() as f64;
        assert!((got - expected).abs() / expected < 0.05, "got {got}, expected ~{expected}");
        assert!(sched.events.iter().all(|e| e.at >= s.start && e.at < s.end));
    }

    #[test]
    fn events_are_sorted_and_senders_in_subgroup() {
        for s in gallery() {
            let sched = s.generate();
            assert!(!sched.events.is_empty(), "{} produced no traffic", s.profile.name());
            assert!(
                sched.events.windows(2).all(|w| (w[0].at, w[0].sender) <= (w[1].at, w[1].sender)),
                "{} schedule not in canonical order",
                s.profile.name()
            );
            let low = match s.profile {
                Profile::FlashCrowd { burst_senders, .. } => s.group - s.senders.max(burst_senders),
                _ => s.group - s.senders,
            };
            assert!(sched.events.iter().all(|e| (low..s.group).contains(&e.sender.0)));
        }
    }

    #[test]
    fn diurnal_peaks_mid_run() {
        let s = TrafficSpec { rate: 40.0, ..spec(Profile::Diurnal { peak: 6 }) };
        let sched = s.generate();
        let span_us = (s.end - s.start).as_micros();
        let count_in = |lo: u64, hi: u64| {
            sched
                .events
                .iter()
                .filter(|e| {
                    let off = (e.at - s.start).as_micros();
                    (lo..hi).contains(&off)
                })
                .count()
        };
        let edge = count_in(0, span_us / 8);
        let mid = count_in(span_us * 3 / 8, span_us / 2);
        assert!(mid * 8 > edge * 3 * 3, "mid-run slice must far outrate the edge: {mid} vs {edge}");
    }

    #[test]
    fn hot_skew_concentrates_on_the_head() {
        let s = TrafficSpec { senders: 5, rate: 40.0, ..spec(Profile::HotSkew { s_x100: 150 }) };
        let sched = s.generate();
        let per: Vec<usize> = s
            .sender_set()
            .iter()
            .map(|&p| sched.events.iter().filter(|e| e.sender == p).count())
            .collect();
        assert!(per[0] > 3 * per[4], "head sender must dominate the tail: {per:?}");
        let total: usize = per.iter().sum();
        let uniform = (5.0 * 40.0 * (s.end - s.start).as_secs_f64()) as usize;
        assert!(
            (total as f64 - uniform as f64).abs() / (uniform as f64) < 0.1,
            "skew must preserve the group total: {total} vs {uniform}"
        );
    }

    #[test]
    fn churn_senders_have_quiet_gaps() {
        let s = TrafficSpec { senders: 4, rate: 60.0, ..spec(Profile::Churn { sessions: 2 }) };
        let sched = s.generate();
        for &p in &s.sender_set() {
            let times: Vec<SimTime> =
                sched.events.iter().filter(|e| e.sender == p).map(|e| e.at).collect();
            if times.len() < 2 {
                continue;
            }
            let max_gap_us = times.windows(2).map(|w| (w[1] - w[0]).as_micros()).max().unwrap_or(0);
            let active_us = (*times.last().unwrap() - times[0]).as_micros();
            let span_us = (s.end - s.start).as_micros();
            assert!(
                max_gap_us > span_us / 8 || active_us < span_us * 9 / 10,
                "churn sender {p} looks active across the whole span (max gap {max_gap_us}us, active {active_us}us)"
            );
        }
    }

    #[test]
    fn correlated_bursts_are_synchronized() {
        let s = TrafficSpec {
            senders: 4,
            rate: 20.0,
            ..spec(Profile::CorrelatedBursts { bursts: 3, peak: 8, duty_permille: 200 })
        };
        let sched = s.generate();
        let span_us = (s.end - s.start).as_micros();
        let cycle = span_us / 3;
        let on = cycle / 5;
        let in_burst =
            sched.events.iter().filter(|e| (e.at - s.start).as_micros() % cycle < on).count();
        // 8× rate over 20% of the time ⇒ bursts carry ~2/3 of the events.
        assert!(
            in_burst * 2 > sched.events.len(),
            "bursts must dominate: {in_burst}/{}",
            sched.events.len()
        );
    }

    #[test]
    fn bodies_are_distinct_within_a_phase() {
        let s = spec(Profile::Steady);
        let sched = s.generate();
        let mut bodies: Vec<&Bytes> = sched.events.iter().map(|e| &e.body).collect();
        bodies.sort();
        let before = bodies.len();
        bodies.dedup();
        assert_eq!(bodies.len(), before, "steady bodies must not collide");
    }

    #[test]
    #[should_panic(expected = "more senders")]
    fn oversized_subgroup_rejected() {
        let _ = TrafficSpec { group: 3, senders: 4, ..TrafficSpec::default() }.generate();
    }
}
