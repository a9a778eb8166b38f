//! Offline stand-in for the `proptest` crate.
//!
//! Supports the subset this workspace's property tests use: range and tuple
//! strategies, `prop_map` / `prop_flat_map`, `proptest::collection::vec`,
//! the `proptest!` macro with an optional `#![proptest_config(...)]` header,
//! and `prop_assert!` / `prop_assert_eq!`. Failing cases are reported with
//! their case number and re-runnable via the fixed per-case seeding, but are
//! not shrunk.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates values of `Self::Value` from a seeded RNG.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }
}

/// Always yields a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

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

pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;

    fn generate(&self, rng: &mut StdRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

pub mod collection {
    use super::Strategy;

    /// Size specifications accepted by [`vec()`]: an exact length or a range.
    pub trait SizeRange {
        fn pick(&self, rng: &mut rand::rngs::StdRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut rand::rngs::StdRng) -> usize {
            *self
        }
    }

    impl SizeRange for std::ops::Range<usize> {
        fn pick(&self, rng: &mut rand::rngs::StdRng) -> usize {
            use rand::Rng;
            rng.gen_range(self.clone())
        }
    }

    impl SizeRange for std::ops::RangeInclusive<usize> {
        fn pick(&self, rng: &mut rand::rngs::StdRng) -> usize {
            use rand::Rng;
            rng.gen_range(self.clone())
        }
    }

    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    /// `proptest::collection::vec(strategy, len_or_range)`.
    pub fn vec<S: Strategy, L: SizeRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }

    impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut rand::rngs::StdRng) -> Vec<S::Value> {
            let n = self.len.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod test_runner {
    /// Runner configuration; only `cases` is honored.
    #[derive(Clone, Debug)]
    pub struct Config {
        pub cases: u32,
    }

    impl Config {
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Self { cases: 256 }
        }
    }
}

pub use test_runner::Config as ProptestConfig;

/// Drives one property over `config.cases` generated inputs. Used by the
/// [`proptest!`] macro; call directly for programmatic runs.
pub fn run_cases<S: Strategy>(
    test_name: &str,
    config: &ProptestConfig,
    strategy: &S,
    body: impl Fn(S::Value),
) {
    for case in 0..config.cases {
        // Fixed per-case seeding keeps failures reproducible without a
        // persistence file.
        let mut rng = StdRng::seed_from_u64(0xC0FF_EE00 ^ u64::from(case));
        let value = strategy.generate(&mut rng);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(value)));
        if let Err(payload) = result {
            eprintln!("proptest {test_name}: failing case {case}/{}", config.cases);
            std::panic::resume_unwind(payload);
        }
    }
}

pub mod prelude {
    pub use crate::collection;
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, Strategy};
}

/// The `proptest!` block macro: an optional config header followed by
/// `#[test] fn name(arg in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config = $cfg;
            let strategy = ($($strat,)+);
            $crate::run_cases(stringify!($name), &config, &strategy, |($($arg,)+)| $body);
        }

        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// `prop_assert!` — panics on failure (no shrinking in this stand-in).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// `prop_assert_eq!` — panics on failure.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// `prop_assert_ne!` — panics on failure.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 1usize..10, y in -2.0f32..2.0) {
            prop_assert!((1..10).contains(&x));
            prop_assert!((-2.0..2.0).contains(&y));
        }

        #[test]
        fn flat_map_threads_dependent_sizes(v in (1usize..6).prop_flat_map(|n| collection::vec(0u32..100, n * 2))) {
            prop_assert_eq!(v.len() % 2, 0);
            prop_assert!(!v.is_empty() && v.len() < 12);
        }

        #[test]
        fn map_applies(v in (0u32..5).prop_map(|x| x * 10)) {
            prop_assert!(v % 10 == 0 && v < 50);
        }
    }

    #[test]
    fn generated_tests_exist_and_pass() {
        ranges_stay_in_bounds();
        flat_map_threads_dependent_sizes();
        map_applies();
    }

    #[test]
    fn vec_with_exact_len() {
        let strat = collection::vec(0.0f32..1.0, 7usize);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        use crate::Strategy;
        use rand::SeedableRng;
        assert_eq!(strat.generate(&mut rng).len(), 7);
    }
}
