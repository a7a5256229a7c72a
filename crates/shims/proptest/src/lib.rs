//! Offline drop-in stand-in for the `proptest` crate.
//!
//! Supports the surface this workspace's property tests use: the
//! [`proptest!`] macro with an optional `#![proptest_config(...)]`
//! header, numeric-range strategies, `prop::collection::vec`,
//! `prop_map`, and the `prop_assert!` / `prop_assert_eq!` /
//! `prop_assume!` macros.
//!
//! Unlike the real crate there is no shrinking and no failure
//! persistence: cases are generated from a seed derived
//! deterministically from the test name and case index, so a failure
//! reproduces on every run at the reported case number.

use rand::rngs::StdRng;

pub use rand::Rng as __Rng;

/// Configuration, mirroring `proptest::test_runner`.
pub mod test_runner {
    /// How many cases to run per property.
    #[derive(Debug, Clone, Copy)]
    pub struct ProptestConfig {
        /// Number of generated cases.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A configuration running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }
}

/// A value generator, mirroring `proptest::strategy::Strategy`.
pub trait Strategy: Sized {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F> {
        Map { inner: self, f }
    }

    /// Uniformly permutes generated collections (mirrors the real
    /// crate's `Strategy::prop_shuffle`).
    fn prop_shuffle(self) -> Shuffle<Self>
    where
        Self::Value: Shuffleable,
    {
        Shuffle { inner: self }
    }
}

/// A constant-value strategy, mirroring `proptest::strategy::Just`.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

/// Collections [`Strategy::prop_shuffle`] can permute in place.
pub trait Shuffleable {
    /// Applies a uniform random permutation.
    fn shuffle(&mut self, rng: &mut StdRng);
}

impl<T> Shuffleable for Vec<T> {
    fn shuffle(&mut self, rng: &mut StdRng) {
        use rand::Rng;
        // Fisher–Yates; uniform given a uniform `gen_range`.
        for i in (1..self.len()).rev() {
            let j = rng.gen_range(0..=i);
            self.swap(i, j);
        }
    }
}

/// The result of [`Strategy::prop_shuffle`].
pub struct Shuffle<S> {
    inner: S,
}

impl<S: Strategy> Strategy for Shuffle<S>
where
    S::Value: Shuffleable,
{
    type Value = S::Value;

    fn generate(&self, rng: &mut StdRng) -> S::Value {
        let mut value = self.inner.generate(rng);
        value.shuffle(rng);
        value
    }
}

impl<T: rand::SampleUniform> Strategy for core::ops::Range<T> {
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: rand::SampleUniform> Strategy for core::ops::RangeInclusive<T> {
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        T::sample_closed(*self.start(), *self.end(), rng)
    }
}

/// The result of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut StdRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use super::{SizeRange, Strategy};
    use rand::rngs::StdRng;
    use rand::Rng;

    /// A strategy producing `Vec`s of `element` values with a length
    /// drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// The result of [`vec`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = if self.size.lo == self.size.hi {
                self.size.lo
            } else {
                rng.gen_range(self.size.lo..=self.size.hi)
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// An inclusive length range for collection strategies.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n }
    }
}

impl From<core::ops::Range<usize>> for SizeRange {
    fn from(r: core::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl From<core::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: core::ops::RangeInclusive<usize>) -> Self {
        SizeRange {
            lo: *r.start(),
            hi: *r.end(),
        }
    }
}

/// Everything a test module needs in scope.
pub mod prelude {
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest, Just, Strategy};

    /// Mirrors the real prelude's `prop` module alias.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Runs `cases` deterministic cases of property `name`.
///
/// # Panics
/// Panics with the case number and message when a case fails, so the
/// failure is reproducible by rerunning the test.
pub fn run_cases(cases: u32, name: &str, mut case: impl FnMut(&mut StdRng) -> Result<(), String>) {
    use rand::SeedableRng;
    // FNV-1a over the test name decorrelates the per-test streams.
    let mut name_hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        name_hash ^= u64::from(b);
        name_hash = name_hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    for i in 0..cases {
        let seed = name_hash ^ (u64::from(i)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut rng = StdRng::seed_from_u64(seed);
        if let Err(msg) = case(&mut rng) {
            panic!("property `{name}` failed at case {i}: {msg}");
        }
    }
}

/// The `proptest!` macro: a config header plus `#[test]` functions
/// whose arguments are drawn from strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config = $cfg;
            $crate::run_cases(__config.cases, stringify!($name), |__rng| {
                $(let $arg = $crate::Strategy::generate(&($strat), __rng);)+
                $body
                Ok(())
            });
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// Fails the current case when `cond` is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err(format!($($fmt)+));
        }
    };
}

/// Fails the current case when the two values differ.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let __left = &$left;
        let __right = &$right;
        if !(__left == __right) {
            return Err(format!(
                "assertion failed: `{}` == `{}`\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                __left,
                __right
            ));
        }
    }};
}

/// Skips the current case when `cond` is false (vacuous pass; the real
/// crate resamples instead).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return Ok(());
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(x in 3usize..10, y in -1.0f32..=1.0) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-1.0..=1.0).contains(&y), "y = {}", y);
        }

        #[test]
        fn vec_lengths_follow_the_size_spec(
            fixed in prop::collection::vec(0u64..5, 4),
            ranged in prop::collection::vec(0.0f64..1.0, 1..7),
        ) {
            prop_assert_eq!(fixed.len(), 4);
            prop_assert!((1..7).contains(&ranged.len()));
        }

        #[test]
        fn prop_map_applies(v in prop::collection::vec(1usize..4, 3).prop_map(|v| v.len())) {
            prop_assert_eq!(v, 3);
        }

        #[test]
        fn assume_skips(n in 0usize..10) {
            prop_assume!(n % 2 == 0);
            prop_assert!(n % 2 == 0);
        }

        #[test]
        fn just_is_constant(v in Just(vec![1u8, 2, 3])) {
            prop_assert_eq!(v, vec![1u8, 2, 3]);
        }

        #[test]
        fn shuffle_permutes(v in Just((0u32..16).collect::<Vec<_>>()).prop_shuffle()) {
            let mut sorted = v.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0u32..16).collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failures_panic_with_case_number() {
        crate::run_cases(8, "always_fails", |_| Err("boom".to_string()));
    }

    #[test]
    fn cases_are_deterministic() {
        use rand::Rng;
        let mut first = Vec::new();
        crate::run_cases(4, "det", |rng| {
            first.push(rng.gen::<u64>());
            Ok(())
        });
        let mut second = Vec::new();
        crate::run_cases(4, "det", |rng| {
            second.push(rng.gen::<u64>());
            Ok(())
        });
        assert_eq!(first, second);
    }
}
