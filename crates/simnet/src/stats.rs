use std::fmt;

/// Aggregate counters for one simulation run.
///
/// Exposed for experiment reports; none of the protocol logic reads these.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Frames handed to the medium (a multicast counts once).
    pub frames_sent: u64,
    /// Payload bytes handed to the medium (a multicast counts once).
    pub bytes_sent: u64,
    /// Per-destination copies that arrived.
    pub copies_delivered: u64,
    /// Per-destination copies the medium dropped.
    pub copies_dropped: u64,
    /// Timer firings dispatched.
    pub timers_fired: u64,
    /// Total events processed (packets + timers).
    pub events_processed: u64,
    /// Microseconds the medium spent occupied (serialization time summed
    /// over frames; stays 0 on non-serializing media). Dividing a window's
    /// delta by the window length gives medium utilization.
    pub medium_busy_us: u64,
}

impl NetStats {
    /// Fraction of copies lost, or zero if nothing was transmitted.
    fn loss_rate(&self) -> f64 {
        let total = self.copies_delivered + self.copies_dropped;
        if total == 0 {
            0.0
        } else {
            self.copies_dropped as f64 / total as f64
        }
    }
}

impl fmt::Display for NetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "frames={} bytes={} delivered={} dropped={} ({:.2}% loss) timers={} events={} busy_us={}",
            self.frames_sent,
            self.bytes_sent,
            self.copies_delivered,
            self.copies_dropped,
            self.loss_rate() * 100.0,
            self.timers_fired,
            self.events_processed,
            self.medium_busy_us,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_rate_handles_zero() {
        assert_eq!(NetStats::default().loss_rate(), 0.0);
    }

    #[test]
    fn loss_rate_computes_fraction() {
        let s = NetStats { copies_delivered: 75, copies_dropped: 25, ..Default::default() };
        assert!((s.loss_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn loss_rate_all_dropped_is_one() {
        let s = NetStats { copies_dropped: 7, ..Default::default() };
        assert_eq!(s.loss_rate(), 1.0);
    }

    #[test]
    fn loss_rate_never_leaves_unit_interval() {
        for (d, x) in [(0u64, 0u64), (1, 0), (0, 1), (u64::MAX / 2, u64::MAX / 2)] {
            let s = NetStats { copies_delivered: d, copies_dropped: x, ..Default::default() };
            let r = s.loss_rate();
            assert!((0.0..=1.0).contains(&r), "loss_rate {r} for delivered={d} dropped={x}");
        }
    }

    #[test]
    fn loss_rate_rounds_to_sensible_percentages() {
        // 1 of 3: the Display rounding shows 33.33%, not 33.34% or 33.3%.
        let s = NetStats { copies_delivered: 2, copies_dropped: 1, ..Default::default() };
        assert!((s.loss_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert!(s.to_string().contains("(33.33% loss)"));
    }

    #[test]
    fn display_mentions_key_counters() {
        let s = NetStats { frames_sent: 3, ..Default::default() };
        let out = s.to_string();
        assert!(out.contains("frames=3"));
    }

    #[test]
    fn display_golden() {
        let s = NetStats {
            frames_sent: 10,
            bytes_sent: 2048,
            copies_delivered: 36,
            copies_dropped: 4,
            timers_fired: 5,
            events_processed: 51,
            medium_busy_us: 4430,
        };
        assert_eq!(
            s.to_string(),
            "frames=10 bytes=2048 delivered=36 dropped=4 (10.00% loss) timers=5 events=51 busy_us=4430"
        );
    }
}
