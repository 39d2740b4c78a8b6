//! Periodic load sampling: a virtual-time time series of run load.
//!
//! A [`MetricsSampler`] is a clonable handle the simulator drives off its
//! own clock (see `SimConfig::sampler` in `ps-simnet`): at every sampling
//! interval it pushes one [`LoadSample`] capturing medium utilization,
//! CPU-queue pressure, and in-flight frames over the window just ended.
//! Because sampling is driven purely by virtual time, the series is
//! deterministic — byte-identical across serial and parallel runs of the
//! same seed.
//!
//! The same handle feeds two consumers:
//!
//! * a `LoadOracle` (`ps-core`) polls [`MetricsSampler::latest`] to decide
//!   when measured load has crossed the sequencer↔token crossover;
//! * reports export the whole series via [`MetricsSampler::to_jsonl`] /
//!   [`MetricsSampler::to_csv`].
//!
//! Utilizations are in permille (0–1000) to stay integer-exact: floats
//! would make "byte-identical across runs" hostage to formatting.

use std::sync::{Arc, Mutex, MutexGuard};

/// One sampling window's load measurements. All fields are integers so
/// exports are byte-stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoadSample {
    /// Virtual time at the *end* of the window (µs).
    pub at_us: u64,
    /// Frames sent during the window.
    pub frames_sent: u64,
    /// Frame copies delivered during the window.
    pub copies_delivered: u64,
    /// Share of the window the shared medium spent busy, in permille
    /// (0 for point-to-point media, which never serialize).
    pub bus_util_permille: u32,
    /// Share of the window the busiest node's CPU spent busy, in permille.
    pub max_cpu_permille: u32,
    /// Share of the window the sequencer node's CPU spent busy, in
    /// permille (the sampler's `seq_node`; 0 when unset).
    pub seq_cpu_permille: u32,
    /// Deepest CPU deferred-FIFO depth observed at any node, sampled at
    /// window end.
    pub max_queue_depth: u32,
    /// Sum of CPU deferred-FIFO depths across nodes at window end.
    pub total_queue_depth: u32,
    /// Frames scheduled but not yet delivered, at window end.
    pub in_flight: u32,
}

impl LoadSample {
    /// The sampler's JSONL key order, fixed for byte-stable output.
    pub const FIELDS: &'static [&'static str] = &[
        "at_us",
        "frames_sent",
        "copies_delivered",
        "bus_util_permille",
        "max_cpu_permille",
        "seq_cpu_permille",
        "max_queue_depth",
        "total_queue_depth",
        "in_flight",
    ];

    fn values(&self) -> [u64; 9] {
        [
            self.at_us,
            self.frames_sent,
            self.copies_delivered,
            u64::from(self.bus_util_permille),
            u64::from(self.max_cpu_permille),
            u64::from(self.seq_cpu_permille),
            u64::from(self.max_queue_depth),
            u64::from(self.total_queue_depth),
            u64::from(self.in_flight),
        ]
    }

    /// One JSON object, keys in [`LoadSample::FIELDS`] order.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(160);
        out.push('{');
        for (i, (k, v)) in Self::FIELDS.iter().zip(self.values()).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(k);
            out.push_str("\":");
            out.push_str(&v.to_string());
        }
        out.push('}');
        out
    }
}

/// Whole-series aggregates of a sampled run, integer-valued so reports
/// embedding them stay byte-stable. Peaks are over all windows; totals
/// sum the per-window counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SeriesSummary {
    /// Number of sampling windows in the series.
    pub samples: u64,
    /// Total frames sent across all windows.
    pub frames_sent: u64,
    /// Highest per-window medium busy share, in permille.
    pub peak_bus_permille: u32,
    /// Highest per-window busiest-node CPU busy share, in permille.
    pub peak_cpu_permille: u32,
    /// Highest per-window sequencer CPU busy share, in permille.
    pub peak_seq_cpu_permille: u32,
    /// Deepest CPU deferred-FIFO depth observed in any window.
    pub peak_queue_depth: u32,
    /// Most frames in flight at any window end.
    pub peak_in_flight: u32,
}

#[derive(Default)]
struct SamplerState {
    samples: Vec<LoadSample>,
}

/// A clonable, thread-safe collector of [`LoadSample`]s.
///
/// The simulator owns one clone and pushes into it; the harness keeps
/// another to read the series afterwards (and an oracle may hold a third,
/// polling [`MetricsSampler::latest`] mid-run).
#[derive(Clone)]
pub struct MetricsSampler {
    interval_us: u64,
    seq_node: Option<u32>,
    inner: Arc<Mutex<SamplerState>>,
}

impl std::fmt::Debug for MetricsSampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsSampler")
            .field("interval_us", &self.interval_us)
            .field("seq_node", &self.seq_node)
            .field("samples", &self.len())
            .finish()
    }
}

impl MetricsSampler {
    /// A sampler producing one [`LoadSample`] every `interval_us` of
    /// virtual time. `interval_us` must be non-zero.
    pub fn new(interval_us: u64) -> Self {
        assert!(interval_us > 0, "sampling interval must be non-zero");
        Self { interval_us, seq_node: None, inner: Arc::new(Mutex::new(SamplerState::default())) }
    }

    /// Designates `node` as the sequencer whose CPU busy share is broken
    /// out into [`LoadSample::seq_cpu_permille`].
    pub fn with_seq_node(mut self, node: u32) -> Self {
        self.seq_node = Some(node);
        self
    }

    /// The sampling interval in microseconds.
    pub fn interval_us(&self) -> u64 {
        self.interval_us
    }

    /// The designated sequencer node, if any.
    pub fn seq_node(&self) -> Option<u32> {
        self.seq_node
    }

    fn lock(&self) -> MutexGuard<'_, SamplerState> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Appends one sample (the simulator calls this at window ends).
    pub fn push(&self, sample: LoadSample) {
        self.lock().samples.push(sample);
    }

    /// The most recent sample, if any.
    pub fn latest(&self) -> Option<LoadSample> {
        self.lock().samples.last().copied()
    }

    /// Number of samples collected.
    pub fn len(&self) -> usize {
        self.lock().samples.len()
    }

    /// `true` when no samples have been collected yet.
    pub fn is_empty(&self) -> bool {
        self.lock().samples.is_empty()
    }

    /// A snapshot of the whole series.
    pub fn samples(&self) -> Vec<LoadSample> {
        self.lock().samples.clone()
    }

    /// Aggregates the series into one [`SeriesSummary`] (all zeros when
    /// no samples were collected).
    pub fn summary(&self) -> SeriesSummary {
        let s = self.lock();
        let mut out = SeriesSummary { samples: s.samples.len() as u64, ..SeriesSummary::default() };
        for sample in &s.samples {
            out.frames_sent += sample.frames_sent;
            out.peak_bus_permille = out.peak_bus_permille.max(sample.bus_util_permille);
            out.peak_cpu_permille = out.peak_cpu_permille.max(sample.max_cpu_permille);
            out.peak_seq_cpu_permille = out.peak_seq_cpu_permille.max(sample.seq_cpu_permille);
            out.peak_queue_depth = out.peak_queue_depth.max(sample.max_queue_depth);
            out.peak_in_flight = out.peak_in_flight.max(sample.in_flight);
        }
        out
    }

    /// The series as JSON-lines, one object per sample, keys in
    /// [`LoadSample::FIELDS`] order. Deterministic for a deterministic run.
    ///
    /// ```
    /// use ps_obs::{LoadSample, MetricsSampler};
    /// let s = MetricsSampler::new(1000);
    /// s.push(LoadSample { at_us: 1000, frames_sent: 2, ..LoadSample::default() });
    /// assert_eq!(
    ///     s.to_jsonl(),
    ///     "{\"at_us\":1000,\"frames_sent\":2,\"copies_delivered\":0,\
    ///      \"bus_util_permille\":0,\"max_cpu_permille\":0,\"seq_cpu_permille\":0,\
    ///      \"max_queue_depth\":0,\"total_queue_depth\":0,\"in_flight\":0}\n"
    /// );
    /// ```
    pub fn to_jsonl(&self) -> String {
        let s = self.lock();
        let mut out = String::with_capacity(s.samples.len() * 160 + 1);
        for sample in &s.samples {
            out.push_str(&sample.to_json());
            out.push('\n');
        }
        out
    }

    /// The series as CSV with a header row, columns in
    /// [`LoadSample::FIELDS`] order.
    pub fn to_csv(&self) -> String {
        let s = self.lock();
        let mut out = String::with_capacity(s.samples.len() * 64 + 128);
        out.push_str(&LoadSample::FIELDS.join(","));
        out.push('\n');
        for sample in &s.samples {
            let vals = sample.values();
            for (i, v) in vals.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&v.to_string());
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(at_us: u64, bus: u32) -> LoadSample {
        LoadSample { at_us, bus_util_permille: bus, ..LoadSample::default() }
    }

    #[test]
    fn collects_in_order_and_reports_latest() {
        let s = MetricsSampler::new(500).with_seq_node(3);
        assert!(s.is_empty());
        assert_eq!(s.latest(), None);
        s.push(sample(500, 10));
        s.push(sample(1000, 20));
        assert_eq!(s.len(), 2);
        assert_eq!(s.latest(), Some(sample(1000, 20)));
        assert_eq!(s.interval_us(), 500);
        assert_eq!(s.seq_node(), Some(3));
        let all = s.samples();
        assert_eq!(all[0].at_us, 500);
        assert_eq!(all[1].at_us, 1000);
    }

    #[test]
    fn clones_share_the_series() {
        let a = MetricsSampler::new(100);
        let b = a.clone();
        a.push(sample(100, 1));
        assert_eq!(b.len(), 1);
        b.push(sample(200, 2));
        assert_eq!(a.samples(), vec![sample(100, 1), sample(200, 2)]);
    }

    #[test]
    fn csv_has_header_and_matching_columns() {
        let s = MetricsSampler::new(100);
        s.push(LoadSample {
            at_us: 100,
            frames_sent: 1,
            copies_delivered: 2,
            bus_util_permille: 3,
            max_cpu_permille: 4,
            seq_cpu_permille: 5,
            max_queue_depth: 6,
            total_queue_depth: 7,
            in_flight: 8,
        });
        let csv = s.to_csv();
        let mut lines = csv.lines();
        let header = lines.next().expect("header");
        assert_eq!(header.split(',').count(), LoadSample::FIELDS.len());
        assert_eq!(lines.next(), Some("100,1,2,3,4,5,6,7,8"));
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn summary_aggregates_peaks_and_totals() {
        let s = MetricsSampler::new(100);
        assert_eq!(s.summary(), SeriesSummary::default());
        s.push(LoadSample {
            at_us: 100,
            frames_sent: 3,
            bus_util_permille: 200,
            max_cpu_permille: 50,
            seq_cpu_permille: 40,
            max_queue_depth: 2,
            in_flight: 1,
            ..LoadSample::default()
        });
        s.push(LoadSample {
            at_us: 200,
            frames_sent: 5,
            bus_util_permille: 150,
            max_cpu_permille: 90,
            seq_cpu_permille: 10,
            max_queue_depth: 1,
            in_flight: 7,
            ..LoadSample::default()
        });
        let sum = s.summary();
        assert_eq!(sum.samples, 2);
        assert_eq!(sum.frames_sent, 8);
        assert_eq!(sum.peak_bus_permille, 200);
        assert_eq!(sum.peak_cpu_permille, 90);
        assert_eq!(sum.peak_seq_cpu_permille, 40);
        assert_eq!(sum.peak_queue_depth, 2);
        assert_eq!(sum.peak_in_flight, 7);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_interval_panics() {
        let _ = MetricsSampler::new(0);
    }
}
