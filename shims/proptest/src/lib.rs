//! A self-contained, offline stand-in for the `proptest` crate.
//!
//! Implements the subset this workspace uses: the `proptest!` macro with an
//! optional `#![proptest_config(...)]` header, range / tuple / `prop_map` /
//! `prop_oneof!` / collection / option strategies, `any::<T>()`, and the
//! `prop_assert*` macros.  Cases are sampled from a deterministic RNG (no
//! shrinking): a failing case panics with the bound values visible in the
//! assert message, and re-running reproduces it exactly because the seed
//! only depends on the case index.

use std::ops::{Range, RangeInclusive};

/// Deterministic per-case random source (xorshift64*).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Build the RNG for one test case.
    pub fn for_case(case: u32) -> Self {
        let mut z = (case as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Self {
            state: (z ^ (z >> 31)).max(1),
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A recoverable test-case failure (helpers can return
/// `Result<_, TestCaseError>` and use `?` inside `proptest!` bodies).
#[derive(Debug, Clone)]
pub struct TestCaseError {
    reason: String,
}

impl TestCaseError {
    /// Fail the current case with a reason.
    pub fn fail(reason: impl Into<String>) -> Self {
        Self {
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.reason)
    }
}

impl std::error::Error for TestCaseError {}

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases sampled per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 48 }
    }
}

impl ProptestConfig {
    /// A configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

/// A source of random values of one type.
pub trait Strategy {
    /// The produced value type.
    type Value;

    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform produced values.
    fn prop_map<T, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> T,
    {
        Map { inner: self, f }
    }

    /// Erase the strategy type (used by `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(std::rc::Rc::new(self))
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<T>(std::rc::Rc<dyn Strategy<Value = T>>);

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        self.0.sample(rng)
    }
}

/// Always produces a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// The result of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.sample(rng))
    }
}

/// Weighted choice between strategies of one value type (`prop_oneof!`).
pub struct Union<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
    total: u64,
}

impl<T> Union<T> {
    /// Build from `(weight, strategy)` arms.
    pub fn new_weighted(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        let total = arms.iter().map(|(w, _)| *w as u64).sum::<u64>().max(1);
        Self { arms, total }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        let mut x = rng.next_u64() % self.total;
        for (w, s) in &self.arms {
            if x < *w as u64 {
                return s.sample(rng);
            }
            x -= *w as u64;
        }
        self.arms.last().expect("non-empty union").1.sample(rng)
    }
}

macro_rules! int_strategy_impl {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + ((rng.next_u64() as u128) % span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty strategy range");
                let span = (end as i128 - start as i128) as u128 + 1;
                (start as i128 + ((rng.next_u64() as u128) % span) as i128) as $t
            }
        }
    )*};
}

int_strategy_impl!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

macro_rules! float_strategy_impl {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let x = self.start as f64
                    + rng.next_f64() * (self.end as f64 - self.start as f64);
                if x >= self.end as f64 { self.start } else { x as $t }
            }
        }
    )*};
}

float_strategy_impl!(f32, f64);

macro_rules! tuple_strategy_impl {
    ($(($($s:ident : $i:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$i.sample(rng),)+)
            }
        }
    )*};
}

tuple_strategy_impl! {
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
}

/// `any::<T>()` support.
pub trait Arbitrary: Sized {
    /// Draw an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_int_impl {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

arbitrary_int_impl!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// The strategy returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// A strategy producing arbitrary values of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Size bounds for collection strategies.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    min: usize,
    /// Exclusive upper bound.
    max: usize,
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty collection size range");
        Self {
            min: r.start,
            max: r.end,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        Self {
            min: *r.start(),
            max: *r.end() + 1,
        }
    }
}

impl SizeRange {
    fn pick(&self, rng: &mut TestRng) -> usize {
        self.min + (rng.next_u64() as usize) % (self.max - self.min)
    }
}

/// Strategy namespace mirroring `proptest::prelude::prop`.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{SizeRange, Strategy, TestRng};
        use std::collections::BTreeSet;

        /// Vectors with a size drawn from `size` and elements from
        /// `element`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }

        /// The strategy returned by [`vec()`](fn@vec).
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let n = self.size.pick(rng);
                (0..n).map(|_| self.element.sample(rng)).collect()
            }
        }

        /// Ordered sets with a size drawn from `size`.
        pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
        where
            S: Strategy,
            S::Value: Ord,
        {
            BTreeSetStrategy {
                element,
                size: size.into(),
            }
        }

        /// The strategy returned by [`btree_set`].
        pub struct BTreeSetStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for BTreeSetStrategy<S>
        where
            S::Value: Ord,
        {
            type Value = BTreeSet<S::Value>;

            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let target = self.size.pick(rng);
                let mut out = BTreeSet::new();
                // Duplicates shrink the set; retry a bounded number of
                // times to respect the minimum size.
                let mut attempts = 0;
                while out.len() < target && attempts < 64 * target.max(1) {
                    out.insert(self.element.sample(rng));
                    attempts += 1;
                }
                out
            }
        }
    }

    /// Option strategies.
    pub mod option {
        use super::super::{Strategy, TestRng};

        /// `None` or `Some(inner)`, roughly evenly.
        pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
            OptionStrategy { inner }
        }

        /// The strategy returned by [`of`].
        pub struct OptionStrategy<S> {
            inner: S,
        }

        impl<S: Strategy> Strategy for OptionStrategy<S> {
            type Value = Option<S::Value>;

            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                if rng.next_u64() & 1 == 0 {
                    None
                } else {
                    Some(self.inner.sample(rng))
                }
            }
        }
    }

    /// Value-set sampling strategies.
    pub mod sample {
        use super::super::{Strategy, TestRng};

        /// Pick uniformly from a fixed list of values.
        pub fn select<T: Clone + 'static>(options: Vec<T>) -> Select<T> {
            assert!(!options.is_empty(), "select needs at least one option");
            Select { options }
        }

        /// The strategy returned by [`select`].
        pub struct Select<T> {
            options: Vec<T>,
        }

        impl<T: Clone> Strategy for Select<T> {
            type Value = T;

            fn sample(&self, rng: &mut TestRng) -> T {
                self.options[(rng.next_u64() as usize) % self.options.len()].clone()
            }
        }
    }
}

/// Everything a test module needs.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Arbitrary,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError, TestRng,
    };
}

/// Declare property tests.
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(24))]
///     #[test]
///     fn my_property(x in 0i64..100, v in prop::collection::vec(any::<u64>(), 1..8)) {
///         prop_assert!(x >= 0);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            for case in 0..config.cases {
                let mut proptest_rng = $crate::TestRng::for_case(case);
                $(let $arg = $crate::Strategy::sample(&($strat), &mut proptest_rng);)+
                // Run the body in a closure so helpers returning
                // `Result<_, TestCaseError>` compose with `?`.
                #[allow(clippy::redundant_closure_call)]
                let outcome: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                    { $body };
                    Ok(())
                })();
                if let Err(e) = outcome {
                    panic!("property {} failed at case {case}: {e}", stringify!($name));
                }
            }
        }
    )*};
}

/// Assert inside a property (panics with the formatted message).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond);
    };
    ($cond:expr, $($fmt:tt)+) => {
        assert!($cond, $($fmt)+);
    };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        assert_eq!($a, $b, $($fmt)+);
    };
}

/// Assert inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {
        assert_ne!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        assert_ne!($a, $b, $($fmt)+);
    };
}

/// Weighted (or unweighted) choice between strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strat:expr),+ $(,)?) => {
        $crate::Union::new_weighted(vec![
            $(($weight, $crate::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new_weighted(vec![
            $((1u32, $crate::Strategy::boxed($strat))),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #[test]
        fn ranges_respect_bounds(x in 10i64..20, y in 1usize..=3) {
            prop_assert!((10..20).contains(&x));
            prop_assert!((1..=3).contains(&y));
        }

        #[test]
        fn collections_respect_sizes(
            v in prop::collection::vec(0u32..5, 2..6),
            s in prop::collection::btree_set(0i64..1_000, 1..10),
        ) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert!(!s.is_empty() && s.len() < 10);
        }

        #[test]
        fn map_and_oneof_compose(
            x in (0i64..10, 0i64..10).prop_map(|(a, b)| a + b),
            y in prop_oneof![3 => (0u32..1).prop_map(|_| "low"), 1 => (0u32..1).prop_map(|_| "high")],
        ) {
            prop_assert!((0..19).contains(&x));
            prop_assert!(y == "low" || y == "high");
        }

        #[test]
        fn options_appear_both_ways(o in prop::option::of(0i64..5)) {
            if let Some(x) = o {
                prop_assert!((0..5).contains(&x));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(7))]
        #[test]
        fn config_header_is_accepted(x in any::<u64>()) {
            let _ = x;
        }
    }
}
