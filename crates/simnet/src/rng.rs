use crate::SimTime;
use ps_rand::Xoshiro256pp;

/// Deterministic random source for a simulation run.
///
/// Thin wrapper over a seeded [`Xoshiro256pp`] exposing only the operations
/// the simulator needs.
/// Two `DetRng`s created from the same seed produce identical streams, which
/// makes every experiment in this workspace replayable.
///
/// # Examples
///
/// ```
/// use ps_simnet::DetRng;
///
/// let mut a = DetRng::new(42);
/// let mut b = DetRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    inner: Xoshiro256pp,
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        Self { inner: Xoshiro256pp::seed_from_u64(seed) }
    }

    /// Derives an independent substream; useful for giving each node its own
    /// stream so one node's draws don't perturb another's.
    pub fn fork(&self, stream: u64) -> Self {
        // Mix the stream id through splitmix64 so adjacent ids diverge.
        let mut z = stream.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let mut clone = self.clone();
        let base = clone.next_u64();
        DetRng::new(base ^ z ^ (z >> 31))
    }

    /// Next raw 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform draw in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        self.inner.random_range(0..n)
    }

    /// Uniform draw in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        self.inner.random_range(lo..hi)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.inner.unit() < p
        }
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.unit()
    }

    /// Uniform jitter in `[0, max)`; returns zero when `max` is zero.
    pub fn jitter(&mut self, max: SimTime) -> SimTime {
        if max == SimTime::ZERO {
            SimTime::ZERO
        } else {
            SimTime::from_micros(self.below(max.as_micros().max(1)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(1);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// Golden regression vector: the first 16 draws from seed `0xDECAF`.
    ///
    /// A change here means the RNG algorithm (splitmix64 seeding or the
    /// xoshiro256++ step) changed, which silently invalidates every
    /// recorded experiment seed in the repo. Do not update these values
    /// without bumping the seeds documented alongside the figures.
    #[test]
    fn golden_first_16_draws() {
        let mut r = DetRng::new(0xDECAF);
        let expected: [u64; 16] = [
            0x25070068784b14f6,
            0x44cda37bce062dc7,
            0x5c94a597a993c67a,
            0x80e4d5d6f6bf8641,
            0x0c2035466a55e34a,
            0xa4e130b44b1cbb01,
            0x0a0d38d036aab9ad,
            0x002c2373f15022aa,
            0x5162c15b9739f5fa,
            0xd2248983c627b484,
            0x7b6fb46d516c66d3,
            0xf9bfa795d4939b5f,
            0x0a866ab1c507bd83,
            0x2e047807e68696c8,
            0xb418a33a16370d78,
            0xb6d30a736b307a0d,
        ];
        for (i, want) in expected.into_iter().enumerate() {
            assert_eq!(r.next_u64(), want, "draw {i} diverged from golden vector");
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn fork_is_deterministic_and_distinct() {
        let root = DetRng::new(9);
        let mut f1 = root.fork(0);
        let mut f1_again = root.fork(0);
        let mut f2 = root.fork(1);
        assert_eq!(f1.next_u64(), f1_again.next_u64());
        assert_ne!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = DetRng::new(3);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
            let v = r.range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(4);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn jitter_zero_max() {
        let mut r = DetRng::new(6);
        assert_eq!(r.jitter(SimTime::ZERO), SimTime::ZERO);
        assert!(r.jitter(SimTime::from_micros(10)) < SimTime::from_micros(10));
    }
}
