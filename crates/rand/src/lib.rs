//! Std-only deterministic pseudo-random numbers for the workspace.
//!
//! Every seeded draw in the simulator, the trace generators and the
//! property-testing harness flows through [`Xoshiro256pp`]: xoshiro256++
//! (Blackman & Vigna) state-advanced from a 64-bit seed via
//! [`SplitMix64`]. The generator is:
//!
//! * **deterministic** — the same seed always yields the same stream, on
//!   every platform (no `usize`-width or endianness dependence);
//! * **splittable** — [`SplitMix64`] derives independent substreams from
//!   stream ids, so per-node RNGs don't perturb each other;
//! * **std-only** — no external crates, so offline builds work.
//!
//! This is a statistics-grade generator, **not** a cryptographic one; the
//! confidentiality layer's toy cipher seeds from it for tests only.
//!
//! # Examples
//!
//! ```
//! use ps_rand::Xoshiro256pp;
//!
//! let mut a = Xoshiro256pp::seed_from_u64(7);
//! let mut b = Xoshiro256pp::seed_from_u64(7);
//! assert_eq!(a.next_u64(), b.next_u64());
//! assert!(a.random_range(10u64..20) < 20);
//! ```

use std::ops::Range;

/// SplitMix64: a tiny 64-bit generator used to expand seeds and derive
/// substream ids. One output per [`SplitMix64::next_u64`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator with the given state.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.state)
    }
}

/// The splitmix64 finalizer: a strong 64-bit mixing function, also useful
/// on its own for hashing stream ids.
pub const fn mix(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// xoshiro256++: the workspace's general-purpose deterministic generator.
///
/// 256 bits of state, 64-bit outputs, period 2^256 − 1. Replaces
/// `rand::SmallRng` from the pre-hermetic builds (which, on 64-bit
/// targets, was this same algorithm).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Expands a 64-bit seed into the full 256-bit state via splitmix64.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        // The all-zero state is the one fixed point; splitmix64 cannot
        // produce four consecutive zeros, but guard against future
        // constructors that take raw state.
        debug_assert!(s.iter().any(|&w| w != 0));
        Xoshiro256pp { s }
    }

    /// Next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, span)` (unbiased, Lemire's method).
    ///
    /// # Panics
    ///
    /// Panics if `span == 0`.
    pub fn below(&mut self, span: u64) -> u64 {
        assert!(span > 0, "below(0) is meaningless");
        let mut x = self.next_u64();
        let mut m = u128::from(x) * u128::from(span);
        let mut low = m as u64;
        if low < span {
            let threshold = span.wrapping_neg() % span;
            while low < threshold {
                x = self.next_u64();
                m = u128::from(x) * u128::from(span);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform draw from a half-open integer range, e.g.
    /// `rng.random_range(0..n)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn random_range<T: UniformInt>(&mut self, range: Range<T>) -> T {
        let lo = range.start.as_u64();
        let hi = range.end.as_u64();
        assert!(lo < hi, "random_range on empty range");
        T::from_u64(lo + self.below(hi - lo))
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn random_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Exponentially distributed draw with the given mean (inverse-CDF).
    pub fn exp(&mut self, mean: f64) -> f64 {
        let u = self.unit().max(1e-12);
        -u.ln() * mean
    }

    /// Derives an independent generator for substream `id`.
    ///
    /// Forking advances `self` by one draw, and mixes `id` so adjacent ids
    /// diverge immediately.
    pub fn fork(&mut self, id: u64) -> Self {
        let base = self.next_u64();
        Xoshiro256pp::seed_from_u64(base ^ mix(id.wrapping_add(0x9e37_79b9_7f4a_7c15)))
    }
}

/// Integer types [`Xoshiro256pp::random_range`] can sample uniformly.
///
/// All arithmetic is done in `u64`, so behaviour is identical across
/// 32-/64-bit targets.
pub trait UniformInt: Copy {
    /// Widens to the common sampling domain.
    fn as_u64(self) -> u64;
    /// Narrows from the common sampling domain (value guaranteed in range).
    fn from_u64(v: u64) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformInt for $t {
            fn as_u64(self) -> u64 {
                self as u64
            }
            fn from_u64(v: u64) -> Self {
                v as $t
            }
        }
    )*};
}

impl_uniform_int!(u8, u16, u32, u64, usize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // First outputs for seed 1234567, cross-checked against the
        // published splitmix64 reference implementation.
        let mut sm = SplitMix64::new(1234567);
        let got: Vec<u64> = (0..3).map(|_| sm.next_u64()).collect();
        assert_eq!(got, vec![6457827717110365317, 3203168211198807973, 9817491932198370423]);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Xoshiro256pp::seed_from_u64(42);
        let mut b = Xoshiro256pp::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = Xoshiro256pp::seed_from_u64(1);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[r.below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn random_range_typed() {
        let mut r = Xoshiro256pp::seed_from_u64(2);
        for _ in 0..200 {
            let a: u16 = r.random_range(2u16..5);
            assert!((2..5).contains(&a));
            let b: usize = r.random_range(0usize..1);
            assert_eq!(b, 0);
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        Xoshiro256pp::seed_from_u64(0).random_range(3u64..3);
    }

    #[test]
    fn unit_bounds_and_mean() {
        let mut r = Xoshiro256pp::seed_from_u64(3);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let avg = sum / f64::from(n);
        assert!((avg - 0.5).abs() < 0.01, "avg {avg}");
    }

    #[test]
    fn fork_streams_are_independent_and_deterministic() {
        let mut a = Xoshiro256pp::seed_from_u64(9);
        let mut b = Xoshiro256pp::seed_from_u64(9);
        let mut fa = a.fork(0);
        let mut fb = b.fork(0);
        assert_eq!(fa.next_u64(), fb.next_u64());
        let mut fc = b.fork(1);
        assert_ne!(fa.next_u64(), fc.next_u64());
    }

    #[test]
    fn exp_mean_is_close() {
        let mut r = Xoshiro256pp::seed_from_u64(5);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| r.exp(0.02)).sum();
        let avg = total / f64::from(n);
        assert!((avg - 0.02).abs() < 0.001, "avg {avg}");
    }
}
