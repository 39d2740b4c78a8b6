//! Fixed-bucket log-linear histograms.
//!
//! The histogram uses 8 linear sub-buckets per power of two (HdrHistogram's
//! scheme at 3 significant bits): bucket boundaries are exact up to 8 and
//! within 12.5% relative error above, with a fixed 496-bucket array that
//! covers the full `u64` range. Recording is an index computation plus one
//! increment — no allocation, no floating point.

use std::sync::{Arc, Mutex, MutexGuard};

/// Linear sub-buckets per power of two (2^3 = 8).
const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;
/// 8 exact buckets for 0..8, then 8 per doubling up to 2^64.
const BUCKETS: usize = SUB + (64 - (SUB_BITS as usize + 1)) * SUB + SUB;

/// Index of the bucket containing `v`.
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let bl = 64 - v.leading_zeros(); // >= SUB_BITS + 1
        let group = (bl - SUB_BITS - 1) as usize;
        let sub = ((v >> (bl - SUB_BITS - 1)) & (SUB as u64 - 1)) as usize;
        SUB + group * SUB + sub
    }
}

/// Smallest value that lands in bucket `idx` (its representative).
fn bucket_floor(idx: usize) -> u64 {
    if idx < SUB {
        idx as u64
    } else {
        let group = (idx - SUB) / SUB;
        let sub = (idx - SUB) % SUB;
        ((SUB + sub) as u64) << group
    }
}

struct Hist {
    buckets: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

/// The quantile summary every report prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistSummary {
    /// Recorded samples.
    pub count: u64,
    /// Bucket-floor estimate of the median (≤12.5% relative error).
    pub p50: u64,
    /// Bucket-floor estimate of the 90th percentile.
    pub p90: u64,
    /// Bucket-floor estimate of the 99th percentile.
    pub p99: u64,
    /// Exact smallest sample (0 when empty).
    pub min: u64,
    /// Exact largest sample (0 when empty).
    pub max: u64,
    /// Mean rounded to the nearest integer (0 when empty).
    pub mean: u64,
}

/// A fixed-bucket log-linear histogram. Clones share the buckets.
///
/// # Examples
///
/// ```
/// use ps_obs::Histogram;
///
/// let h = Histogram::new();
/// for v in [100u64, 200, 300, 400, 10_000] {
///     h.record(v);
/// }
/// let s = h.summary();
/// assert_eq!(s.count, 5);
/// assert_eq!(s.max, 10_000);
/// assert!(s.p50 <= 300 && s.p50 >= 256);
/// ```
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<Mutex<Hist>>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Histogram({:?})", self.summary())
    }
}

impl Histogram {
    /// An empty histogram (one 4 KiB bucket array, allocated here, never
    /// again).
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Mutex::new(Hist {
                buckets: Box::new([0; BUCKETS]),
                count: 0,
                sum: 0,
                min: u64::MAX,
                max: 0,
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Hist> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records one sample. Allocation-free.
    #[inline]
    pub fn record(&self, v: u64) {
        let mut h = self.lock();
        h.buckets[bucket_index(v)] += 1;
        h.count += 1;
        h.sum += u128::from(v);
        h.min = h.min.min(v);
        h.max = h.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.lock().count
    }

    /// Bucket-floor estimate of quantile `q` in `[0, 1]`; the exact max
    /// for `q = 1`. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let h = self.lock();
        if h.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return h.max;
        }
        // Rank of the target sample, 1-based, clamped into range.
        let rank = ((q * h.count as f64).ceil() as u64).clamp(1, h.count);
        let mut seen = 0u64;
        for (idx, &c) in h.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Clamp to the exact extremes: the floor of the first
                // occupied bucket can undershoot min, the last overshoot max.
                return bucket_floor(idx).clamp(h.min, h.max);
            }
        }
        h.max
    }

    /// Folds `other` into `self`, bucket-wise.
    ///
    /// Because every histogram shares the same fixed bucket layout, the
    /// merged quantiles are exactly what a single histogram fed the union
    /// of both sample streams would report — parallel sweep workers can
    /// aggregate per-point histograms without losing bucket precision.
    /// Merging a histogram into itself doubles it.
    pub fn merge(&self, other: &Self) {
        // Snapshot `other` first so the two locks are never held together
        // (deadlock-free even if two threads merge in opposite directions).
        let (buckets, count, sum, min, max) = {
            let o = other.lock();
            (*o.buckets, o.count, o.sum, o.min, o.max)
        };
        if count == 0 {
            return;
        }
        let mut h = self.lock();
        for (mine, theirs) in h.buckets.iter_mut().zip(buckets.iter()) {
            *mine += theirs;
        }
        h.count += count;
        h.sum += sum;
        h.min = h.min.min(min);
        h.max = h.max.max(max);
    }

    /// The p50/p90/p99/min/max/mean summary.
    pub fn summary(&self) -> HistSummary {
        let (count, sum, min, max) = {
            let h = self.lock();
            (h.count, h.sum, h.min, h.max)
        };
        if count == 0 {
            return HistSummary::default();
        }
        HistSummary {
            count,
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            min,
            max,
            mean: (sum / u128::from(count)) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_total() {
        // Exhaustive near the linear/log seam, spot checks beyond.
        let mut last = 0;
        for v in 0..4096u64 {
            let idx = bucket_index(v);
            assert!(idx >= last, "index must not decrease at v={v}");
            last = idx;
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(7), 7);
        assert_eq!(bucket_index(8), 8);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_floor_inverts_index() {
        for idx in 0..BUCKETS {
            let floor = bucket_floor(idx);
            assert_eq!(bucket_index(floor), idx, "floor of bucket {idx} maps back");
        }
    }

    #[test]
    fn relative_error_bounded() {
        // Any sample's bucket floor is within 12.5% below the sample.
        for v in [9u64, 100, 999, 12_345, 1 << 33, u64::MAX / 3] {
            let floor = bucket_floor(bucket_index(v));
            assert!(floor <= v);
            assert!((v - floor) as f64 / v as f64 <= 0.125, "error too large at {v}");
        }
    }

    #[test]
    fn quantiles_of_uniform_range() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        // ≤12.5% bucket error below the true quantile.
        assert!((437..=500).contains(&s.p50), "p50={}", s.p50);
        assert!((787..=900).contains(&s.p90), "p90={}", s.p90);
        assert!((866..=990).contains(&s.p99), "p99={}", s.p99);
        assert_eq!(s.mean, 500);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.summary(), HistSummary::default());
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn single_sample_quantiles_are_exact_extremes() {
        let h = Histogram::new();
        h.record(777);
        let s = h.summary();
        // One sample: clamping pins every quantile to the sample itself.
        assert_eq!((s.p50, s.p99, s.min, s.max), (777, 777, 777, 777));
    }

    #[test]
    fn merge_equals_union_feed() {
        let a = Histogram::new();
        let b = Histogram::new();
        let union = Histogram::new();
        for v in [1u64, 5, 100, 1 << 20] {
            a.record(v);
            union.record(v);
        }
        for v in [3u64, 99, 12_345, u64::MAX / 7] {
            b.record(v);
            union.record(v);
        }
        a.merge(&b);
        assert_eq!(a.summary(), union.summary());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile(q), union.quantile(q), "q={q}");
        }
    }

    #[test]
    fn merge_with_empty_is_identity_and_self_merge_doubles() {
        let h = Histogram::new();
        h.record(42);
        let before = h.summary();
        h.merge(&Histogram::new());
        assert_eq!(h.summary(), before);
        let clone_sees = h.clone();
        h.merge(&clone_sees); // shared state: must not deadlock
        assert_eq!(h.count(), 2);
        assert_eq!(h.summary().mean, 42);
    }
}
