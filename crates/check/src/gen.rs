//! Built-in generators and combinators for [`check`](crate::check).
//!
//! A [`Gen`] is a pure function from `(rng, size)` to a value. `size` is
//! the runner's minimization lever: collection generators scale their
//! length with it, so the ascending-size search in the runner finds small
//! counterexamples. Scalar generators ignore `size` — a `u64` is no
//! "smaller" for our purposes when it is numerically small.

use crate::Rng;
use ps_rand::UniformInt;
use std::marker::PhantomData;
use std::ops::Range;

/// A seeded, sized value generator.
pub trait Gen {
    /// The type of generated values.
    type Value;

    /// Produces one value. Must be deterministic in `(rng state, size)`.
    fn generate(&self, rng: &mut Rng, size: usize) -> Self::Value;
}

/// Combinator extensions for every [`Gen`].
pub trait GenExt: Gen + Sized {
    /// Maps generated values through `f`. Named `prop_map` (after the
    /// proptest combinator) rather than `map` so ranges — which are both
    /// `Gen`s and `Iterator`s — keep their ordinary `Iterator::map`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F> {
        Map { inner: self, f }
    }
}

impl<G: Gen> GenExt for G {}

/// See [`GenExt::prop_map`].
pub struct Map<G, F> {
    inner: G,
    f: F,
}

impl<G: Gen, U, F: Fn(G::Value) -> U> Gen for Map<G, F> {
    type Value = U;
    fn generate(&self, rng: &mut Rng, size: usize) -> U {
        (self.f)(self.inner.generate(rng, size))
    }
}

/// Full-range generator for a primitive type; see [`arb`].
pub struct ArbGen<T> {
    _marker: PhantomData<T>,
}

/// Generates any value of `T` (the `any::<T>()` equivalent).
///
/// Integer generators inject the boundary values `0`, `1` and `MAX` with
/// probability 1/8 each case, since off-by-one bugs live there.
pub fn arb<T: Arb>() -> ArbGen<T> {
    ArbGen { _marker: PhantomData }
}

impl<T: Arb> Gen for ArbGen<T> {
    type Value = T;
    fn generate(&self, rng: &mut Rng, _size: usize) -> T {
        T::arbitrary(rng)
    }
}

/// Types with a canonical full-range generator.
pub trait Arb: Sized {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut Rng) -> Self;
}

macro_rules! impl_arb_int {
    ($($t:ty),*) => {$(
        impl Arb for $t {
            fn arbitrary(rng: &mut Rng) -> Self {
                if rng.random_bool(0.125) {
                    let specials = [0 as $t, 1 as $t, <$t>::MAX];
                    specials[rng.random_range(0usize..specials.len())]
                } else {
                    rng.next_u64() as $t
                }
            }
        }
    )*};
}

impl_arb_int!(u8, u16, u32, u64, usize);

impl Arb for i64 {
    fn arbitrary(rng: &mut Rng) -> Self {
        if rng.random_bool(0.125) {
            let specials = [0i64, 1, -1, i64::MIN, i64::MAX];
            specials[rng.random_range(0usize..specials.len())]
        } else {
            rng.next_u64() as i64
        }
    }
}

impl Arb for bool {
    fn arbitrary(rng: &mut Rng) -> Self {
        rng.random_bool(0.5)
    }
}

impl Arb for f64 {
    fn arbitrary(rng: &mut Rng) -> Self {
        if rng.random_bool(0.125) {
            let specials = [0.0f64, 1.0, -1.0, f64::INFINITY, f64::NEG_INFINITY];
            specials[rng.random_range(0usize..specials.len())]
        } else {
            // Finite, roughly symmetric around zero, spanning magnitudes.
            let mantissa = rng.unit() * 2.0 - 1.0;
            let exp = rng.random_range(0u64..64) as i32 - 32;
            mantissa * 2f64.powi(exp)
        }
    }
}

/// Half-open integer ranges are generators of their own element type, so
/// `2u16..5` can be used directly as a `Gen`.
impl<T: UniformInt> Gen for Range<T> {
    type Value = T;
    fn generate(&self, rng: &mut Rng, _size: usize) -> T {
        rng.random_range(self.start..self.end)
    }
}

/// See [`vec_of`].
pub struct VecOf<G> {
    inner: G,
    len: Range<usize>,
}

/// Generates a `Vec` of values from `inner` with length drawn from `len`,
/// additionally capped by the runner's current size so counterexamples
/// minimize (the `proptest::collection::vec` equivalent).
pub fn vec_of<G: Gen>(inner: G, len: Range<usize>) -> VecOf<G> {
    VecOf { inner, len }
}

impl<G: Gen> Gen for VecOf<G> {
    type Value = Vec<G::Value>;
    fn generate(&self, rng: &mut Rng, size: usize) -> Vec<G::Value> {
        let lo = self.len.start;
        let hi = self.len.end.max(lo + 1);
        // Cap the span by `size`, keeping at least the minimum length.
        let hi = hi.min(lo + size + 1).max(lo + 1);
        let n = rng.random_range(lo..hi);
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.inner.generate(rng, size));
        }
        out
    }
}

/// See [`strings`].
pub struct Strings {
    len: Range<usize>,
}

/// Generates strings with `len` chars (capped by size), mixing ASCII with
/// multi-byte code points so UTF-8 handling gets exercised.
pub fn strings(len: Range<usize>) -> Strings {
    Strings { len }
}

impl Gen for Strings {
    type Value = String;
    fn generate(&self, rng: &mut Rng, size: usize) -> String {
        const EXOTIC: [char; 8] = ['é', 'ß', 'λ', '中', '\u{80}', '\u{7ff}', '\u{ffff}', '🦀'];
        let lo = self.len.start;
        let hi = self.len.end.max(lo + 1).min(lo + size + 1).max(lo + 1);
        let n = rng.random_range(lo..hi);
        let mut out = String::new();
        for _ in 0..n {
            out.push(if rng.random_bool(0.2) {
                EXOTIC[rng.random_range(0usize..EXOTIC.len())]
            } else {
                // Printable ASCII.
                char::from(rng.random_range(0x20u8..0x7f))
            });
        }
        out
    }
}

macro_rules! impl_gen_tuple {
    ($($g:ident : $idx:tt),+) => {
        impl<$($g: Gen),+> Gen for ($($g,)+) {
            type Value = ($($g::Value,)+);
            fn generate(&self, rng: &mut Rng, size: usize) -> Self::Value {
                ($(self.$idx.generate(rng, size),)+)
            }
        }
    };
}

impl_gen_tuple!(A: 0);
impl_gen_tuple!(A: 0, B: 1);
impl_gen_tuple!(A: 0, B: 1, C: 2);
impl_gen_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_gen_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_gen_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::seed_from_u64(7)
    }

    #[test]
    fn range_gen_stays_in_range() {
        let g = 2u16..5;
        let mut r = rng();
        for _ in 0..200 {
            assert!((2..5).contains(&g.generate(&mut r, 10)));
        }
    }

    #[test]
    fn vec_len_respects_bounds_and_size() {
        let g = vec_of(arb::<u8>(), 3..10);
        let mut r = rng();
        for size in [0, 1, 5, 100] {
            for _ in 0..50 {
                let v = g.generate(&mut r, size);
                assert!(v.len() >= 3 && v.len() < 10, "len {} size {size}", v.len());
                assert!(v.len() <= 3 + size.max(0), "len {} size {size}", v.len());
            }
        }
    }

    #[test]
    fn map_applies() {
        let g = (0u64..10).prop_map(|v| v * 2);
        let mut r = rng();
        for _ in 0..50 {
            assert_eq!(g.generate(&mut r, 0) % 2, 0);
        }
    }

    #[test]
    fn strings_are_valid_utf8_and_bounded() {
        let g = strings(0..16);
        let mut r = rng();
        for _ in 0..100 {
            let s = g.generate(&mut r, 50);
            assert!(s.chars().count() < 16);
            assert_eq!(s, String::from_utf8(s.as_bytes().to_vec()).unwrap());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let g = (arb::<u64>(), vec_of(arb::<u8>(), 0..32), strings(0..8));
        let a = g.generate(&mut Rng::seed_from_u64(1), 20);
        let b = g.generate(&mut Rng::seed_from_u64(1), 20);
        assert_eq!(a, b);
    }
}
