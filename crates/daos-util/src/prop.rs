//! A deterministic, seeded property-test harness — the in-tree
//! replacement for `proptest`.
//!
//! Differences from proptest are deliberate simplifications:
//!
//! * **Fixed case count**, chosen per suite, run from a **deterministic
//!   base seed** (`0xDA05` ^ a hash of the test name), so a failure on
//!   one machine is a failure on every machine.
//! * The failing **case seed is printed** in the panic message; re-run
//!   just that case by setting `DAOS_PROP_SEED=<seed>`.
//! * **Simple halving shrink**: after a failure the harness repeatedly
//!   asks the strategy for a halved input (integers halve toward the
//!   range floor, collections halve their length, tuples shrink one
//!   component at a time) and keeps the smallest input that still fails.
//!   There is no backtracking shrink tree.

use crate::rng::SmallRng;

/// A failed test case (assertion message).
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

impl TestCaseError {
    /// Build a failure from any displayable message.
    pub fn fail(msg: impl std::fmt::Display) -> Self {
        TestCaseError(msg.to_string())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// A property body's outcome.
pub type TestCaseResult = Result<(), TestCaseError>;

/// A value generator with an optional one-step shrinker.
pub trait Strategy {
    /// The generated value type.
    type Value: Clone + std::fmt::Debug;

    /// Draw one value.
    fn generate(&self, rng: &mut SmallRng) -> Self::Value;

    /// Propose a strictly "smaller" value, or `None` when minimal.
    fn shrink(&self, _v: &Self::Value) -> Option<Self::Value> {
        None
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut SmallRng) -> Self::Value {
        (**self).generate(rng)
    }
    fn shrink(&self, v: &Self::Value) -> Option<Self::Value> {
        (**self).shrink(v)
    }
}

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;
    fn generate(&self, rng: &mut SmallRng) -> Self::Value {
        (**self).generate(rng)
    }
    fn shrink(&self, v: &Self::Value) -> Option<Self::Value> {
        (**self).shrink(v)
    }
}

// ---------------------------------------------------------------- ranges

macro_rules! int_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut SmallRng) -> $t {
                rng.random_range(self.clone())
            }
            fn shrink(&self, v: &$t) -> Option<$t> {
                let lo = self.start;
                if *v > lo {
                    Some(lo + (*v - lo) / 2)
                } else {
                    None
                }
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut SmallRng) -> $t {
                rng.random_range(self.clone())
            }
            fn shrink(&self, v: &$t) -> Option<$t> {
                let lo = *self.start();
                if *v > lo {
                    Some(lo + (*v - lo) / 2)
                } else {
                    None
                }
            }
        }
    )+};
}

int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut SmallRng) -> f64 {
        rng.random_range(self.clone())
    }
    fn shrink(&self, v: &f64) -> Option<f64> {
        let lo = self.start;
        let mid = lo + (*v - lo) / 2.0;
        if (*v - lo).abs() > 1e-9 && mid != *v {
            Some(mid)
        } else {
            None
        }
    }
}

impl Strategy for core::ops::RangeInclusive<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut SmallRng) -> f64 {
        rng.random_range(self.clone())
    }
    fn shrink(&self, v: &f64) -> Option<f64> {
        let lo = *self.start();
        let mid = lo + (*v - lo) / 2.0;
        if (*v - lo).abs() > 1e-9 && mid != *v {
            Some(mid)
        } else {
            None
        }
    }
}

// ------------------------------------------------------------ primitives

/// Uniform `bool` strategy (shrinks `true` → `false`).
#[derive(Debug, Clone, Copy)]
pub struct AnyBool;

impl Strategy for AnyBool {
    type Value = bool;
    fn generate(&self, rng: &mut SmallRng) -> bool {
        rng.random()
    }
    fn shrink(&self, v: &bool) -> Option<bool> {
        if *v {
            Some(false)
        } else {
            None
        }
    }
}

/// Uniform `bool` strategy value.
pub fn any_bool() -> AnyBool {
    AnyBool
}

/// A constant strategy: always `value`, never shrinks.
#[derive(Debug, Clone, Copy)]
pub struct Just<T>(pub T);

impl<T: Clone + std::fmt::Debug> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut SmallRng) -> T {
        self.0.clone()
    }
}

/// Uniformly pick one of the given values.
pub fn select<T: Clone + std::fmt::Debug>(options: Vec<T>) -> Select<T> {
    assert!(!options.is_empty(), "select() needs at least one option");
    Select(options)
}

/// Strategy returned by [`select`].
#[derive(Debug, Clone)]
pub struct Select<T>(Vec<T>);

impl<T: Clone + std::fmt::Debug> Strategy for Select<T> {
    type Value = T;
    fn generate(&self, rng: &mut SmallRng) -> T {
        self.0[rng.sample_index(self.0.len())].clone()
    }
}

// ----------------------------------------------------------- combinators

/// Map a strategy's output through a function. Mapped values cannot be
/// shrunk (the mapping is not invertible).
#[derive(Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, T> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> T,
    T: Clone + std::fmt::Debug,
{
    type Value = T;
    fn generate(&self, rng: &mut SmallRng) -> T {
        (self.f)(self.inner.generate(rng))
    }
}

/// Extension adapter: `strategy.prop_map(f)`.
pub trait StrategyExt: Strategy + Sized {
    /// Map generated values through `f`.
    fn prop_map<F, T>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Value) -> T,
        T: Clone + std::fmt::Debug,
    {
        Map { inner: self, f }
    }

    /// Erase the concrete strategy type (needed by [`one_of!`](crate::one_of)).
    fn boxed(self) -> Box<dyn Strategy<Value = Self::Value>>
    where
        Self: 'static,
    {
        Box::new(self)
    }
}

impl<S: Strategy + Sized> StrategyExt for S {}

/// Uniformly delegate to one of several boxed strategies of the same
/// value type. Use via the [`one_of!`](crate::one_of) macro.
pub struct OneOf<T>(pub Vec<Box<dyn Strategy<Value = T>>>);

impl<T: Clone + std::fmt::Debug> Strategy for OneOf<T> {
    type Value = T;
    fn generate(&self, rng: &mut SmallRng) -> T {
        self.0[rng.sample_index(self.0.len())].generate(rng)
    }
}

/// `one_of![a, b, c]` — uniformly pick a branch, then draw from it (the
/// replacement for `prop_oneof!`).
#[macro_export]
macro_rules! one_of {
    ($($s:expr),+ $(,)?) => {
        $crate::prop::OneOf(vec![$($crate::prop::StrategyExt::boxed($s)),+])
    };
}

// ----------------------------------------------------------- collections

/// Length specification for collection strategies: a fixed `usize` or a
/// `usize` range.
pub trait IntoLenStrategy {
    /// The concrete length strategy.
    type Strat: Strategy<Value = usize>;
    /// Convert into a length strategy.
    fn into_len_strategy(self) -> Self::Strat;
}

impl IntoLenStrategy for usize {
    type Strat = Just<usize>;
    fn into_len_strategy(self) -> Just<usize> {
        Just(self)
    }
}

impl IntoLenStrategy for core::ops::Range<usize> {
    type Strat = core::ops::Range<usize>;
    fn into_len_strategy(self) -> Self {
        self
    }
}

impl IntoLenStrategy for core::ops::RangeInclusive<usize> {
    type Strat = core::ops::RangeInclusive<usize>;
    fn into_len_strategy(self) -> Self {
        self
    }
}

/// `Vec<T>` strategy: a length drawn from `len`, elements from `elem`.
/// Shrinks by halving the length toward the minimum, then by shrinking
/// the first shrinkable element.
pub fn vec_of<S: Strategy, L: IntoLenStrategy>(elem: S, len: L) -> VecOf<S, L::Strat> {
    VecOf { elem, len: len.into_len_strategy() }
}

/// Strategy returned by [`vec_of`].
pub struct VecOf<S, L> {
    elem: S,
    len: L,
}

impl<S: Strategy, L: Strategy<Value = usize>> Strategy for VecOf<S, L> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut SmallRng) -> Vec<S::Value> {
        let n = self.len.generate(rng);
        (0..n).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, v: &Vec<S::Value>) -> Option<Vec<S::Value>> {
        if let Some(half) = self.len.shrink(&v.len()) {
            return Some(v[..half].to_vec());
        }
        for (i, x) in v.iter().enumerate() {
            if let Some(smaller) = self.elem.shrink(x) {
                let mut out = v.clone();
                out[i] = smaller;
                return Some(out);
            }
        }
        None
    }
}

/// `BTreeSet<T>` strategy: *up to* the drawn count of distinct elements
/// (duplicates collapse, as with proptest's `btree_set`).
pub fn btree_set_of<S, L>(elem: S, len: L) -> BTreeSetOf<S, L::Strat>
where
    S: Strategy,
    S::Value: Ord,
    L: IntoLenStrategy,
{
    BTreeSetOf { elem, len: len.into_len_strategy() }
}

/// Strategy returned by [`btree_set_of`].
pub struct BTreeSetOf<S, L> {
    elem: S,
    len: L,
}

impl<S, L> Strategy for BTreeSetOf<S, L>
where
    S: Strategy,
    S::Value: Ord,
    L: Strategy<Value = usize>,
{
    type Value = std::collections::BTreeSet<S::Value>;

    fn generate(&self, rng: &mut SmallRng) -> Self::Value {
        let n = self.len.generate(rng);
        (0..n).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, v: &Self::Value) -> Option<Self::Value> {
        if v.len() > 1 {
            Some(v.iter().take(v.len() / 2).cloned().collect())
        } else {
            None
        }
    }
}

/// Hostile-input generator for parser fuzz suites: a run of pieces,
/// each either one of `tokens` (so inputs get past the first check of
/// the parser under test) or a few arbitrary bytes.
pub fn fuzz_bytes(tokens: &'static [&'static str]) -> impl Strategy<Value = Vec<u8>> {
    let piece = crate::one_of![
        select(tokens.to_vec()).prop_map(|t| t.as_bytes().to_vec()),
        vec_of(0u8..=255, 1usize..4),
    ];
    vec_of(piece, 0usize..48).prop_map(|pieces| pieces.concat())
}

// ---------------------------------------------------------------- tuples

macro_rules! tuple_strategy {
    ($(($($S:ident / $idx:tt),+))+) => {$(
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);

            fn generate(&self, rng: &mut SmallRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, v: &Self::Value) -> Option<Self::Value> {
                // Shrink the first component that still can.
                $(
                    if let Some(smaller) = self.$idx.shrink(&v.$idx) {
                        let mut out = v.clone();
                        out.$idx = smaller;
                        return Some(out);
                    }
                )+
                None
            }
        }
    )+};
}

tuple_strategy! {
    (A/0)
    (A/0, B/1)
    (A/0, B/1, C/2)
    (A/0, B/1, C/2, D/3)
    (A/0, B/1, C/2, D/3, E/4)
    (A/0, B/1, C/2, D/3, E/4, F/5)
    (A/0, B/1, C/2, D/3, E/4, F/5, G/6)
    (A/0, B/1, C/2, D/3, E/4, F/5, G/6, H/7)
}

// ---------------------------------------------------------------- runner

/// Maximum accepted shrink steps after a failure.
const MAX_SHRINK_STEPS: usize = 256;

fn name_hash(name: &str) -> u64 {
    // FNV-1a, good enough to decorrelate per-test streams.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Run `cases` deterministic cases of the property `f` over inputs drawn
/// from `strat`. Panics (with the case seed and the minimal failing
/// input found) on the first failure.
///
/// Set `DAOS_PROP_SEED=<seed>` to re-run exactly one failing case.
pub fn run_cases<S: Strategy>(
    name: &str,
    cases: u32,
    strat: S,
    f: impl Fn(S::Value) -> TestCaseResult,
) {
    let replay: Option<u64> = std::env::var("DAOS_PROP_SEED")
        .ok()
        .and_then(|s| s.parse().ok());
    let base = 0xDA05_u64 ^ name_hash(name);
    let seeds: Vec<u64> = match replay {
        Some(seed) => vec![seed],
        None => (0..cases as u64).map(|i| base.wrapping_add(i)).collect(),
    };
    for seed in seeds {
        let mut rng = SmallRng::seed_from_u64(seed);
        let input = strat.generate(&mut rng);
        #[expect(clippy::panic, reason = "the property harness reports failures by panicking, like #[test]")]
        if let Err(err) = f(input.clone()) {
            let (min_input, min_err, steps) = shrink_failure(&strat, &f, input, err);
            panic!(
                "property '{name}' failed (seed {seed}, re-run with \
                 DAOS_PROP_SEED={seed}): {min_err}\n  minimal input \
                 (after {steps} shrink steps): {min_input:?}"
            );
        }
    }
}

fn shrink_failure<S: Strategy>(
    strat: &S,
    f: &impl Fn(S::Value) -> TestCaseResult,
    mut failing: S::Value,
    mut err: TestCaseError,
) -> (S::Value, TestCaseError, usize) {
    let mut steps = 0;
    while steps < MAX_SHRINK_STEPS {
        let Some(candidate) = strat.shrink(&failing) else {
            break;
        };
        match f(candidate.clone()) {
            // Candidate passes: the halving walk is over (no backtracking).
            Ok(()) => break,
            Err(e) => {
                failing = candidate;
                err = e;
                steps += 1;
            }
        }
    }
    (failing, err, steps)
}

/// Declare deterministic property tests (the `proptest!` replacement):
///
/// ```ignore
/// daos_util::proptest! {
///     cases = 64;
///
///     fn sum_commutes(a in 0u32..1000, b in 0u32..1000) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// ```
///
/// Each binding draws from a [`Strategy`]; the body returns
/// [`TestCaseResult`] implicitly (use `prop_assert!`/`prop_assert_eq!`
/// or `return Err(TestCaseError::fail(..))`).
#[macro_export]
macro_rules! proptest {
    (cases = $cases:expr; $($(#[$meta:meta])* fn $name:ident( $($p:pat_param in $s:expr),+ $(,)? ) $body:block)+) => {
        $(
            #[test]
            $(#[$meta])*
            fn $name() {
                let strat = ($($s,)+);
                $crate::prop::run_cases(
                    concat!(module_path!(), "::", stringify!($name)),
                    $cases,
                    strat,
                    |($($p,)+)| {
                        $body
                        #[allow(unreachable_code)]
                        Ok(())
                    },
                );
            }
        )+
    };
}

/// Fail the current property case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::prop::TestCaseError::fail(concat!(
                "assertion failed: ",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::prop::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fail the current property case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err($crate::prop::TestCaseError::fail(format!(
                "assertion failed: {:?} != {:?}",
                l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err($crate::prop::TestCaseError::fail(format!(
                "assertion failed: {:?} != {:?}: {}",
                l, r, format!($($fmt)+)
            )));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generation() {
        let strat = (0u64..1000, vec_of(0u32..10, 1..5));
        let mut a = SmallRng::seed_from_u64(123);
        let mut b = SmallRng::seed_from_u64(123);
        assert_eq!(strat.generate(&mut a), strat.generate(&mut b));
    }

    #[test]
    fn int_shrink_halves_toward_floor() {
        let strat = 10u32..100;
        let mut v = 90;
        let mut trail = vec![v];
        while let Some(s) = strat.shrink(&v) {
            v = s;
            trail.push(v);
        }
        assert_eq!(*trail.last().unwrap(), 10);
        assert!(trail.windows(2).all(|w| w[1] < w[0]));
    }

    #[test]
    fn vec_shrink_halves_length() {
        let strat = vec_of(0u8..=255, 2..64);
        let v: Vec<u8> = (0..40).collect();
        let s = strat.shrink(&v).unwrap();
        assert_eq!(s.len(), 21); // len shrink: 2 + (40-2)/2
    }

    #[test]
    fn shrink_walk_finds_boundary() {
        // Property: x < 60. Failing inputs halve toward the range floor;
        // the walk stops at the last failing value on the path.
        let strat = 0u32..1000;
        let (min, _err, _steps) = shrink_failure(
            &strat,
            &|x| {
                if x < 60 {
                    Ok(())
                } else {
                    Err(TestCaseError::fail("too big"))
                }
            },
            999,
            TestCaseError::fail("too big"),
        );
        assert!(min >= 60 && min < 125, "halving walk landed at {min}");
    }

    #[test]
    #[should_panic(expected = "DAOS_PROP_SEED")]
    fn failure_reports_seed() {
        run_cases("always_fails", 4, 0u32..10, |_| {
            Err(TestCaseError::fail("nope"))
        });
    }

    proptest! {
        cases = 32;

        fn macro_smoke(a in 0u32..100, b in 0u32..100, flip in any_bool()) {
            let (a, b) = if flip { (b, a) } else { (a, b) };
            prop_assert_eq!(a + b, b + a);
            prop_assert!(a as u64 + b as u64 <= 198, "draws stay in range");
        }

        fn combinators_smoke(
            xs in vec_of(0u64..50, 1..8),
            tag in one_of![Just(0u8), Just(1u8), 2u8..5],
            pick in select(vec!["a", "b"]),
        ) {
            prop_assert!(xs.len() < 8);
            prop_assert!(tag < 5);
            prop_assert!(pick == "a" || pick == "b");
        }
    }
}
