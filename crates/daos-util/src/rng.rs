//! Deterministic pseudo-random number generation: xoshiro256++ seeded
//! via SplitMix64.
//!
//! # Stream stability guarantee
//!
//! Every figure and experiment in this repository is regenerated from
//! seeded simulations, so the exact `u64` stream produced for a given
//! seed is part of the repository's *interface*: results recorded in
//! `results/` must be bit-identical across machines, architectures and
//! future PRs. Concretely:
//!
//! * [`SmallRng::seed_from_u64`] expands the seed with the reference
//!   SplitMix64 sequence (four draws) into the xoshiro256++ state.
//! * [`SmallRng::next_u64`] is the reference xoshiro256++ algorithm
//!   (Blackman & Vigna, <https://prng.di.unimi.it/>).
//! * The derived draws ([`SmallRng::random`], [`SmallRng::random_range`],
//!   [`SmallRng::sample_index`]) each consume a documented number of
//!   `next_u64` outputs and map them with the fixed formulas below.
//!
//! Changing any of these mappings is a breaking change to every recorded
//! experiment and must regenerate `results/`. The known-answer tests in
//! `crates/daos-util/tests/rng_determinism.rs` pin the streams — raw
//! draws, and `random_range` values with the draw that follows each.
//!
//! ## Integer ranges without a division per draw
//!
//! An integer draw from `[0, bound)` is Lemire's widening multiply with
//! rejection: `m = x · bound` over 128 bits, accept when the low word
//! `m mod 2⁶⁴` is at least `t = 2⁶⁴ mod bound`, return the high word. `t`
//! costs a 64-bit division, and the monitor draws once per region per
//! sampling tick. Since `t < bound`, a low word of at least `bound` is
//! accepted without knowing `t`, so `lemire_u64` divides only when the
//! low word is below `bound` — probability `bound / 2⁶⁴`, which for the
//! monitor's page counts is practically never. Every draw is accepted or
//! rejected exactly as the divide-every-call form decided, so the values
//! and the `next_u64` consumption are bit-identical to it; a seeded
//! property test holds the two forms equal.

/// The reference SplitMix64 step: advances `state` and returns the next
/// output. Used for seed expansion so that similar seeds (0, 1, 2, …)
/// still yield well-decorrelated xoshiro states.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small, fast, deterministic generator: xoshiro256++.
///
/// The name keeps the `rand::rngs::SmallRng` spelling the simulation
/// code was written against, but unlike `rand`'s `SmallRng` (whose
/// algorithm is explicitly unspecified and has changed between
/// releases), this one is pinned forever — see the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    /// Seed via four SplitMix64 draws (the reference seeding procedure).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SmallRng { s }
    }

    /// The reference xoshiro256++ step.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0]
            .wrapping_add(s[3])
            .rotate_left(23)
            .wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform draw of type `T` (one `next_u64` consumed):
    /// `f64` in `[0, 1)` with 53 bits, `f32` in `[0, 1)` with 24 bits,
    /// integers over their full range, `bool` from the top bit.
    #[inline]
    pub fn random<T: FromU64>(&mut self) -> T {
        T::from_u64(self.next_u64())
    }

    /// A uniform draw from an integer or float range
    /// (`lo..hi` or `lo..=hi`). Integer draws use 128-bit widening
    /// multiplication with rejection (Lemire), so they are unbiased;
    /// float draws map one 53-bit unit draw affinely onto the interval.
    ///
    /// Panics on an empty range.
    #[inline]
    pub fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// A uniform index into a collection of length `len`.
    ///
    /// Panics if `len == 0`.
    #[inline]
    pub fn sample_index(&mut self, len: usize) -> usize {
        self.random_range(0..len)
    }
}

/// Types producible from one uniform `u64` draw ([`SmallRng::random`]).
pub trait FromU64 {
    /// Map one uniform 64-bit draw onto `Self`.
    fn from_u64(bits: u64) -> Self;
}

impl FromU64 for u64 {
    #[inline]
    fn from_u64(bits: u64) -> u64 {
        bits
    }
}

impl FromU64 for u32 {
    #[inline]
    fn from_u64(bits: u64) -> u32 {
        (bits >> 32) as u32
    }
}

impl FromU64 for bool {
    #[inline]
    fn from_u64(bits: u64) -> bool {
        (bits >> 63) != 0
    }
}

impl FromU64 for f64 {
    /// Top 53 bits scaled by 2⁻⁵³ — uniform in `[0, 1)`.
    #[inline]
    fn from_u64(bits: u64) -> f64 {
        (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl FromU64 for f32 {
    /// Top 24 bits scaled by 2⁻²⁴ — uniform in `[0, 1)`.
    #[inline]
    fn from_u64(bits: u64) -> f32 {
        (bits >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Ranges [`SmallRng::random_range`] can sample from.
pub trait SampleRange<T> {
    /// Draw one uniform value from the range.
    fn sample(self, rng: &mut SmallRng) -> T;
}

/// Unbiased draw from `[0, bound)` via Lemire's widening-multiply
/// method with rejection, in its nearly-divisionless form (see the
/// module docs): the threshold is computed only for a low word below
/// `bound`.
#[inline]
fn lemire_u64(rng: &mut SmallRng, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    let mut m = (rng.next_u64() as u128) * (bound as u128);
    if (m as u64) < bound {
        // Reject draws falling in the short final stripe so every
        // residue class is equally likely.
        let threshold = bound.wrapping_neg() % bound;
        while (m as u64) < threshold {
            m = (rng.next_u64() as u128) * (bound as u128);
        }
    }
    (m >> 64) as u64
}

macro_rules! int_sample_range {
    ($($t:ty),+) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample(self, rng: &mut SmallRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(lemire_u64(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            #[inline]
            fn sample(self, rng: &mut SmallRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // Full u64 domain.
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(lemire_u64(rng, span) as $t)
            }
        }
    )+};
}

int_sample_range!(u8, u16, u32, u64, usize);

macro_rules! signed_sample_range {
    ($($t:ty => $u:ty),+) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample(self, rng: &mut SmallRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                self.start.wrapping_add(lemire_u64(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            #[inline]
            fn sample(self, rng: &mut SmallRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as i64).wrapping_sub(lo as i64) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(lemire_u64(rng, span + 1) as $t)
            }
        }
    )+};
}

signed_sample_range!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

impl SampleRange<f64> for core::ops::Range<f64> {
    #[inline]
    fn sample(self, rng: &mut SmallRng) -> f64 {
        assert!(self.start < self.end, "empty range");
        let x = self.start + rng.random::<f64>() * (self.end - self.start);
        // Affine rounding can land exactly on `end`; fold it back.
        if x >= self.end {
            self.start
        } else {
            x
        }
    }
}

impl SampleRange<f64> for core::ops::RangeInclusive<f64> {
    #[inline]
    fn sample(self, rng: &mut SmallRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range");
        let x = lo + rng.random::<f64>() * (hi - lo);
        x.clamp(lo, hi)
    }
}

impl SampleRange<f32> for core::ops::Range<f32> {
    #[inline]
    fn sample(self, rng: &mut SmallRng) -> f32 {
        assert!(self.start < self.end, "empty range");
        let x = self.start + rng.random::<f32>() * (self.end - self.start);
        if x >= self.end {
            self.start
        } else {
            x
        }
    }
}

impl SampleRange<f32> for core::ops::RangeInclusive<f32> {
    #[inline]
    fn sample(self, rng: &mut SmallRng) -> f32 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range");
        let x = lo + rng.random::<f32>() * (hi - lo);
        x.clamp(lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_expansion_matches_reference() {
        // State words for seed 0, per the reference SplitMix64.
        let rng = SmallRng::seed_from_u64(0);
        assert_eq!(
            rng.s,
            [
                16294208416658607535,
                7960286522194355700,
                487617019471545679,
                17909611376780542444
            ]
        );
    }

    #[test]
    fn full_domain_inclusive_ranges() {
        let mut rng = SmallRng::seed_from_u64(9);
        let _: u64 = rng.random_range(0..=u64::MAX);
        let _: i64 = rng.random_range(i64::MIN..=i64::MAX);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = SmallRng::seed_from_u64(1);
        let _ = rng.random_range(5u32..5);
    }
}
