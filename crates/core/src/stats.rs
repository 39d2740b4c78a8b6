//! Observable switching-protocol state, shared out of the layer through a
//! cheap clonable handle. The handle is `Arc<Mutex<..>>`, not `Rc`: the
//! parallel sweep runner reads handles from worker threads, and `Layer`
//! itself is `Send` so stacks can run on real threads (`ps-net`). Reads are
//! poison-proof — the stats are plain counters, valid after any panic.
//! Nothing in here moves per message: the lock is taken when a switch
//! changes phase or buffers a message, never on a delivery.
//!
//! The same switch phases also flow into the `ps-obs` event recorder when
//! one is attached; [`SwitchRecord::from_events`] rebuilds these records
//! from that event stream, and the two views must agree (property-tested
//! in `ps-harness`).

use ps_simnet::SimTime;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

/// One completed switch as seen by one process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchRecord {
    /// Protocol index switched away from.
    pub from: usize,
    /// Protocol index switched to.
    pub to: usize,
    /// When this process entered switching mode (PREPARE seen).
    pub started_at: SimTime,
    /// When this process flipped (old protocol drained, buffer released).
    pub completed_at: SimTime,
}

impl SwitchRecord {
    /// How long this process spent in switching mode.
    pub fn duration(&self) -> SimTime {
        self.completed_at.saturating_sub(self.started_at)
    }

    /// Rebuilds `node`'s completed switch records from a recorded event
    /// stream — the [`SwitchStats`] view over a `ps-obs` recorder.
    ///
    /// Only completed switches (those whose flip made it into the ring)
    /// are returned, in completion order, matching what the live
    /// [`SwitchStats::records`] accumulated at that process.
    pub fn from_events(node: u32, events: &[ps_obs::TimedEvent]) -> Vec<SwitchRecord> {
        ps_obs::switch_timeline(events)
            .into_iter()
            .filter(|iv| iv.node == node)
            .filter_map(|iv| {
                iv.flip_at_us.map(|flip| SwitchRecord {
                    from: usize::from(iv.from),
                    to: usize::from(iv.to),
                    started_at: SimTime::from_micros(iv.prepare_at_us),
                    completed_at: SimTime::from_micros(flip),
                })
            })
            .collect()
    }
}

/// Counters maintained by a [`crate::SwitchLayer`].
#[derive(Debug, Clone, Default)]
pub struct SwitchStats {
    /// Completed switches, in order.
    pub records: Vec<SwitchRecord>,
    /// Switches this process initiated (as manager/initiator).
    pub initiated: u64,
    /// Switch attempts this process abandoned on timeout, reverting to the
    /// old protocol (see `SwitchConfig::phase_timeout`).
    pub aborted: u64,
    /// Largest number of new-protocol messages buffered at once.
    pub buffered_peak: usize,
    /// Index of the currently active protocol.
    pub current: usize,
    /// Whether the process is mid-switch right now.
    pub switching: bool,
}

/// Clonable, thread-safe view onto a switch layer's [`SwitchStats`].
#[derive(Clone, Default)]
pub struct SwitchHandle {
    inner: Arc<Mutex<SwitchStats>>,
}

impl fmt::Debug for SwitchHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.lock();
        let (current, switches, switching) = (s.current, s.records.len(), s.switching);
        write!(f, "SwitchHandle(current={current}, switches={switches}, switching={switching})")
    }
}

impl SwitchHandle {
    /// Creates a fresh handle (one per process).
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of the stats.
    pub fn snapshot(&self) -> SwitchStats {
        self.lock().clone()
    }

    fn lock(&self) -> MutexGuard<'_, SwitchStats> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of completed switches at this process.
    pub fn switches_completed(&self) -> usize {
        self.lock().records.len()
    }

    /// The currently active protocol index.
    pub fn current(&self) -> usize {
        self.lock().current
    }

    /// Switch attempts this process abandoned on timeout.
    pub fn aborted(&self) -> u64 {
        self.lock().aborted
    }

    /// Whether the process is mid-switch right now.
    pub fn switching(&self) -> bool {
        self.lock().switching
    }

    pub(crate) fn update<R>(&self, f: impl FnOnce(&mut SwitchStats) -> R) -> R {
        f(&mut self.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_duration() {
        let r = SwitchRecord {
            from: 0,
            to: 1,
            started_at: SimTime::from_millis(10),
            completed_at: SimTime::from_millis(41),
        };
        assert_eq!(r.duration(), SimTime::from_millis(31));
    }

    #[test]
    fn from_events_rebuilds_completed_switches() {
        use ps_obs::{ObsEvent, SpPhase, TimedEvent};
        let sp = |at_us, node, phase, from, to| {
            TimedEvent::new(at_us, node, ObsEvent::SwitchPhase { phase, from, to })
        };
        let events = vec![
            sp(100, 0, SpPhase::PrepareSeen, 0, 1),
            sp(130, 1, SpPhase::PrepareSeen, 0, 1),
            sp(150, 0, SpPhase::DrainComplete, 0, 1),
            sp(150, 0, SpPhase::Flip, 0, 1),
            sp(150, 0, SpPhase::BufferRelease, 0, 1),
            // Node 1 never flips: in-flight switch, must be excluded.
        ];
        let recs = SwitchRecord::from_events(0, &events);
        assert_eq!(
            recs,
            vec![SwitchRecord {
                from: 0,
                to: 1,
                started_at: SimTime::from_micros(100),
                completed_at: SimTime::from_micros(150),
            }]
        );
        assert_eq!(recs[0].duration(), SimTime::from_micros(50));
        assert!(SwitchRecord::from_events(1, &events).is_empty());
    }

    #[test]
    fn handle_shares_state() {
        let h = SwitchHandle::new();
        let h2 = h.clone();
        h.update(|s| s.initiated += 1);
        assert_eq!(h2.snapshot().initiated, 1);
        assert_eq!(h2.switches_completed(), 0);
    }
}
