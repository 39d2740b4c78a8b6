//! Latency measurement over any finished [`Driver`] run.
//!
//! Originally written against [`ps_stack::GroupSim`]; since the transport
//! split these functions take `&dyn Driver`, so the same statistics come
//! off a simulated run or a `ps-net` loopback run unchanged — which is
//! what makes `repro real --compare`'s sim-vs-real columns commensurable.

use ps_simnet::SimTime;
use ps_stack::Driver;
use ps_trace::{MsgId, ProcessId};
use std::collections::{BTreeMap, BTreeSet};

/// Which part of a run to measure: drop warm-up and drain phases so the
/// numbers describe steady state.
#[derive(Debug, Clone, Copy)]
pub struct SteadyStateWindow {
    /// Sends before this instant are ignored.
    pub from: SimTime,
    /// Sends after this instant are ignored.
    pub to: SimTime,
}

impl SteadyStateWindow {
    /// The whole run.
    pub fn all() -> Self {
        Self { from: SimTime::ZERO, to: SimTime::MAX }
    }

    /// A window between two instants.
    pub fn between(from: SimTime, to: SimTime) -> Self {
        Self { from, to }
    }

    /// Whether a send time falls in the window.
    pub fn contains(&self, t: SimTime) -> bool {
        t >= self.from && t <= self.to
    }
}

/// Summary statistics of send→deliver latency, over all (message,
/// receiver) pairs with the send inside the measurement window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Number of (message, receiver) samples.
    pub samples: usize,
    /// Mean latency.
    pub mean: SimTime,
    /// Median latency.
    pub p50: SimTime,
    /// 99th percentile latency.
    pub p99: SimTime,
    /// Maximum latency.
    pub max: SimTime,
    /// Messages sent in the window that some receiver never delivered.
    pub incomplete: usize,
}

impl LatencyStats {
    /// The statistics of `sorted`, every latency sample in microseconds in
    /// ascending order, with `incomplete` messages never fully delivered.
    pub(crate) fn of(sorted: &[u64], incomplete: usize) -> Self {
        let mean = sorted.iter().sum::<u64>().checked_div(sorted.len() as u64).unwrap_or(0);
        let at = |q| SimTime::from_micros(quantile(sorted, q));
        LatencyStats {
            samples: sorted.len(),
            mean: SimTime::from_micros(mean),
            p50: at(0.5),
            p99: at(0.99),
            max: at(1.0),
            incomplete,
        }
    }
}

/// The one quantile rule of every report: the sample at index
/// `round((n − 1)·q)` of `sorted` (ascending), or 0 when it is empty.
pub(crate) fn quantile(sorted: &[u64], q: f64) -> u64 {
    match sorted.len() {
        0 => 0,
        n => sorted[((n - 1) as f64 * q).round() as usize],
    }
}

/// Every send→deliver latency (µs) over all (message, receiver) pairs
/// with the send inside `window`, sorted, and how many messages sent in
/// the window some receiver never delivered.
///
/// Expects `sim` to have finished running; a message counts as incomplete
/// if fewer than `sim.group().len()` distinct processes delivered it (a
/// duplicate delivery at one process does not stand in for another's).
pub(crate) fn latency_samples(sim: &dyn Driver, window: SteadyStateWindow) -> (Vec<u64>, usize) {
    let sends = sim.send_times();
    let n = sim.group().len();
    let mut lat: Vec<u64> = Vec::new();
    let mut receivers: BTreeMap<MsgId, BTreeSet<ProcessId>> = BTreeMap::new();
    for d in sim.deliveries() {
        let Some(&sent) = sends.get(&d.msg) else { continue };
        if !window.contains(sent) {
            continue;
        }
        lat.push(d.at.saturating_sub(sent).as_micros());
        receivers.entry(d.msg).or_default().insert(d.process);
    }
    let in_window = sends.values().filter(|&&t| window.contains(t)).count();
    let complete = receivers.values().filter(|r| r.len() >= n).count();
    lat.sort_unstable();
    (lat, in_window.saturating_sub(complete))
}

/// The largest gap between consecutive deliveries at `process` within
/// `[from, to]` — the application-perceived "hiccup" of §7.
pub(crate) fn max_delivery_gap(
    sim: &dyn Driver,
    process: ProcessId,
    from: SimTime,
    to: SimTime,
) -> SimTime {
    let mut times: Vec<SimTime> = sim
        .deliveries()
        .into_iter()
        .filter(|d| d.process == process && d.at >= from && d.at <= to)
        .map(|d| d.at)
        .collect();
    times.sort_unstable();
    times.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(SimTime::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_obs::CauseId;
    use ps_simnet::PointToPoint;
    use ps_stack::{AppLog, AppProcess, GroupSim, GroupSimBuilder, Stack};

    fn stats(sim: &dyn Driver, window: SteadyStateWindow) -> LatencyStats {
        let (lat, incomplete) = latency_samples(sim, window);
        LatencyStats::of(&lat, incomplete)
    }

    fn run() -> GroupSim {
        let mut b = GroupSimBuilder::new(3)
            .seed(1)
            .medium(Box::new(PointToPoint::new(SimTime::from_micros(500))))
            .stack_factory(|_, _, _| Stack::new(vec![]));
        for i in 0..10u64 {
            b = b.send_at(SimTime::from_millis(1 + i), ProcessId(0), b"x");
        }
        let mut sim = b.build();
        sim.run_until(SimTime::from_secs(1));
        sim
    }

    #[test]
    fn stats_cover_all_samples() {
        let sim = run();
        let s = stats(&sim, SteadyStateWindow::all());
        assert_eq!(s.samples, 30); // 10 msgs × 3 receivers
        assert_eq!(s.incomplete, 0);
        assert!(s.mean >= SimTime::from_micros(500));
        assert!(s.p50 <= s.p99);
        assert!(s.p99 <= s.max);
    }

    #[test]
    fn window_filters_sends() {
        let sim = run();
        let s = stats(
            &sim,
            SteadyStateWindow::between(SimTime::from_millis(5), SimTime::from_millis(8)),
        );
        assert_eq!(s.samples, 4 * 3); // sends at 5,6,7,8 ms
    }

    #[test]
    fn gap_measures_pauses() {
        let sim = run();
        // Deliveries are ~1 ms apart.
        let gap = max_delivery_gap(&sim, ProcessId(1), SimTime::ZERO, SimTime::from_secs(1));
        assert!(gap >= SimTime::from_micros(900) && gap <= SimTime::from_millis(3), "{gap}");
    }

    /// A finished group of two as its driver reports it: message 1 was
    /// delivered twice at process 0 and never at process 1; message 2 at
    /// both.
    struct DuplicateDelivery {
        group: Vec<ProcessId>,
        logs: Vec<AppLog>,
        recorder: ps_obs::Recorder,
    }

    impl Driver for DuplicateDelivery {
        fn run_until(&mut self, _: SimTime) {}
        fn now(&self) -> SimTime {
            SimTime::from_millis(10)
        }
        fn group(&self) -> &[ProcessId] {
            &self.group
        }
        fn recorder(&self) -> &ps_obs::Recorder {
            &self.recorder
        }
        fn process_log(&self, p: ProcessId) -> &AppLog {
            &self.logs[p.index()]
        }
    }

    #[test]
    fn a_duplicate_delivery_does_not_complete_a_message() {
        let at = SimTime::from_millis;
        let sends = (1..=2).map(|ms| (at(ms), ProcessId(0), ps_bytes::Bytes::new())).collect();
        let mut apps: Vec<AppProcess> =
            AppProcess::split(2, sends).into_iter().map(|(app, _)| app).collect();
        let (m1, _) = apps[0].send(0, at(1), None, CauseId::NONE);
        let (m2, _) = apps[0].send(1, at(2), None, CauseId::NONE);
        for (p, m, ms) in [(0, &m1, 2), (0, &m1, 3), (0, &m2, 3), (1, &m2, 4)] {
            apps[p].deliver(at(ms), m.clone(), None, CauseId::NONE);
        }
        let driver = DuplicateDelivery {
            group: vec![ProcessId(0), ProcessId(1)],
            logs: apps.iter_mut().map(AppProcess::take_log).collect(),
            recorder: ps_obs::Recorder::disabled(),
        };
        let s = stats(&driver, SteadyStateWindow::all());
        assert_eq!(s.samples, 4, "every delivery record is a latency sample");
        assert_eq!(s.incomplete, 1, "process 1 never delivered message 1");
    }

    #[test]
    fn empty_window_is_zeroes() {
        let sim = run();
        let s = stats(
            &sim,
            SteadyStateWindow::between(SimTime::from_secs(100), SimTime::from_secs(200)),
        );
        assert_eq!(s.samples, 0);
        assert_eq!(s.mean, SimTime::ZERO);
    }
}
