//! Order statistics the benchmark reports, and the due-time latency
//! matcher.

use ps_simnet::SimTime;
use ps_stack::DeliveryRecord;
use ps_trace::{MsgId, ProcessId};
use std::collections::BTreeMap;

/// Median and quartiles of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

/// Quartiles by the rule of Python's `statistics.quantiles(v, n=4)` (the
/// exclusive method), so the quartiles printed here are the ones the acceptance check takes.
/// Fewer than two samples give a degenerate summary.
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => return Summary { n, q1: 0.0, median: 0.0, q3: 0.0 },
        1 => return Summary { n, q1: v[0], median: v[0], q3: v[0] },
        _ => {}
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary { n, q1: cut(1), median: cut(2), q3: cut(3) }
}

/// Median of a sample set (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// Mean of integer-microsecond latencies (0 when empty).
pub fn mean_us(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<u64>() as f64 / samples.len() as f64
    }
}

/// The `p`-quantile (`0 < p < 1`) of integer-microsecond latencies.
///
/// The clocks behind these samples tick in whole microseconds, so many
/// samples tie. Each tied value `v` is treated as the interval
/// `[v - 0.5, v + 0.5)` with its samples spread evenly across it (the
/// grouped-data quantile), which keeps the estimate continuous in the
/// data instead of jumping between integers. `sorted` must be ascending.
pub fn quantile_us(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let target = p * sorted.len() as f64;
    let at = (target as usize).min(sorted.len() - 1);
    let v = sorted[at];
    let below = sorted.partition_point(|&x| x < v);
    let upto = sorted.partition_point(|&x| x <= v);
    let within = (target - below as f64) / (upto - below) as f64;
    v as f64 - 0.5 + within.clamp(0.0, 1.0)
}

/// Latencies of one rep, measured from the instant each send was **due**.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DueLatencies {
    /// One entry per delivery whose message is in the schedule: delivery
    /// time minus the send's scheduled time, ascending.
    pub deliver_us: Vec<u64>,
    /// One entry per send: how late after its due time it actually left
    /// the application, ascending.
    pub lateness_us: Vec<u64>,
    /// One entry per matched delivery: delivery time minus the recorded
    /// send time (the generator's lateness excluded), ascending.
    pub send_to_deliver_us: Vec<u64>,
    /// Deliveries of messages the schedule does not contain.
    pub unmatched: u64,
}

/// Matches deliveries to the schedule that caused them.
///
/// Both drivers number a sender's messages 1, 2, 3… in the order its
/// scheduled sends fire, so message `(sender, k)` is that sender's `k`-th
/// scheduled send. Timing from the due offset rather than from the
/// recorded send keeps an open-loop generator honest: a stall that delays
/// the send itself still counts against every delivery behind it.
pub fn due_latencies(
    schedule: &[(SimTime, ProcessId)],
    sent: &BTreeMap<MsgId, SimTime>,
    deliveries: &[DeliveryRecord],
) -> DueLatencies {
    let mut due: BTreeMap<ProcessId, Vec<SimTime>> = BTreeMap::new();
    for &(at, sender) in schedule {
        due.entry(sender).or_default().push(at);
    }
    for times in due.values_mut() {
        times.sort();
    }
    let due_of = |id: &MsgId| -> Option<SimTime> {
        let k = usize::try_from(id.seq.checked_sub(1)?).ok()?;
        due.get(&id.sender)?.get(k).copied()
    };
    let mut out = DueLatencies::default();
    for d in deliveries {
        match due_of(&d.msg) {
            Some(at) => out.deliver_us.push(d.at.saturating_sub(at).as_micros()),
            None => out.unmatched += 1,
        }
        if let Some(&at) = sent.get(&d.msg) {
            out.send_to_deliver_us.push(d.at.saturating_sub(at).as_micros());
        }
    }
    for (id, &at) in sent {
        if let Some(due_at) = due_of(id) {
            out.lateness_us.push(at.saturating_sub(due_at).as_micros());
        }
    }
    out.deliver_us.sort_unstable();
    out.lateness_us.sort_unstable();
    out.send_to_deliver_us.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn binned_quantile_interpolates_inside_ties() {
        // Four samples at 10: the median sits in the middle of the bin.
        assert_eq!(quantile_us(&[10, 10, 10, 10], 0.5), 10.0);
        // Distinct values: p50 of 1..=4 falls at the lower edge of 3's bin.
        assert_eq!(quantile_us(&[1, 2, 3, 4], 0.5), 2.5);
        // Ties move the estimate smoothly rather than snapping to 7.
        let q = quantile_us(&[5, 7, 7, 7, 9], 0.5);
        assert!(q > 6.5 && q < 7.5, "{q}");
        assert_eq!(quantile_us(&[], 0.5), 0.0);
        assert_eq!(mean_us(&[1, 2, 6]), 3.0);
        assert_eq!(mean_us(&[]), 0.0);
    }

    fn us(v: u64) -> SimTime {
        SimTime::from_micros(v)
    }

    /// The matcher on a synthetic schedule: latency is taken from the due
    /// instant, not from the (late) recorded send; the k-th message of a
    /// sender pairs with its k-th scheduled send even when the schedule is
    /// given out of order; strangers are counted, not timed.
    #[test]
    fn due_matcher_pairs_kth_send_with_kth_due_time() {
        let (p0, p1) = (ProcessId(0), ProcessId(1));
        // p1's sends are due at 100 and 300, p0's at 200 (unsorted input).
        let schedule = [(us(300), p1), (us(200), p0), (us(100), p1)];
        let mut sent = BTreeMap::new();
        sent.insert(MsgId::new(p1, 1), us(100)); // on time
        sent.insert(MsgId::new(p1, 2), us(340)); // 40 late
        sent.insert(MsgId::new(p0, 1), us(205)); // 5 late
        let deliver = |msg, process, at| DeliveryRecord { msg, process, at: us(at) };
        let deliveries = [
            deliver(MsgId::new(p1, 1), p0, 150),
            deliver(MsgId::new(p1, 2), p0, 400), // 100 after due, 60 after the send
            deliver(MsgId::new(p0, 1), p1, 230),
            deliver(MsgId::new(p0, 9), p1, 999), // not in the schedule
            deliver(MsgId::new(p0, 0), p1, 999), // seq 0 never exists
        ];
        let got = due_latencies(&schedule, &sent, &deliveries);
        assert_eq!(got.deliver_us, vec![30, 50, 100]);
        assert_eq!(got.lateness_us, vec![0, 5, 40]);
        assert_eq!(got.send_to_deliver_us, vec![25, 50, 60]);
        assert_eq!(got.unmatched, 2);
    }
}
