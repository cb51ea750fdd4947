//! Offline stand-in for the `proptest` crate.
//!
//! Provides the subset of proptest's API used by this workspace's
//! property tests: `Strategy` + `prop_map`, integer-range and tuple
//! strategies, `collection::vec`, `bool::weighted`, the `proptest!`
//! macro with `#![proptest_config]`, and `prop_assert!`/
//! `prop_assert_eq!`. Inputs are generated from a per-test deterministic
//! seed (derived from the test name) so failures are reproducible;
//! shrinking is not implemented — failing inputs are printed instead.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The RNG handed to strategies.
pub type TestRng = StdRng;

/// Runner configuration (only the case count is honored).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// A generator of random values.
pub trait Strategy {
    /// The value type produced.
    type Value: std::fmt::Debug + Clone;

    /// Produce one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        U: std::fmt::Debug + Clone,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

/// Output of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    U: std::fmt::Debug + Clone,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// A strategy producing one fixed value.
#[derive(Clone, Debug)]
pub struct Just<T>(pub T);

impl<T: std::fmt::Debug + Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rand::Rng::gen_range(rng, self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rand::Rng::gen_range(rng, self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($(($($n:tt $s:ident),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$n.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};

    /// Length specifications accepted by [`vec()`].
    pub trait IntoSizeRange {
        /// Draw a length.
        fn sample_len(&self, rng: &mut TestRng) -> usize;
    }

    impl IntoSizeRange for usize {
        fn sample_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl IntoSizeRange for std::ops::Range<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            rand::Rng::gen_range(rng, self.clone())
        }
    }

    impl IntoSizeRange for std::ops::RangeInclusive<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            rand::Rng::gen_range(rng, self.clone())
        }
    }

    /// Strategy for `Vec`s of values from `element`, with length drawn
    /// from `size`.
    pub fn vec<S: Strategy, R: IntoSizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }

    /// Output of [`vec()`].
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S: Strategy, R: IntoSizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.sample_len(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Boolean strategies.
pub mod bool {
    use super::{Strategy, TestRng};

    /// Strategy producing `true` with probability `p`.
    pub fn weighted(p: f64) -> Weighted {
        Weighted { p }
    }

    /// Output of [`weighted`].
    #[derive(Clone, Debug)]
    pub struct Weighted {
        p: f64,
    }

    impl Strategy for Weighted {
        type Value = bool;

        fn generate(&self, rng: &mut TestRng) -> bool {
            rand::Rng::gen_bool(rng, self.p)
        }
    }
}

/// Everything a property test needs.
pub mod prelude {
    pub use crate::{prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy, TestRng};
}

/// Stable 64-bit seed from a test's name (FNV-1a), so each test draws an
/// independent, reproducible stream.
pub fn seed_for(name: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Run `cases` generated inputs through `body` (used by [`proptest!`]).
pub fn run_cases<V: std::fmt::Debug + std::panic::RefUnwindSafe>(
    test_name: &str,
    cases: u32,
    generate: impl Fn(&mut TestRng) -> V,
    body: impl Fn(&V) + std::panic::RefUnwindSafe,
) {
    let mut rng = TestRng::seed_from_u64(seed_for(test_name));
    for case in 0..cases {
        let input = generate(&mut rng);
        let r = std::panic::catch_unwind(|| body(&input));
        if let Err(e) = r {
            eprintln!("proptest case {case}/{cases} of `{test_name}` failed.\nInput: {input:#?}");
            std::panic::resume_unwind(e);
        }
    }
}

/// Assert inside a property test (panics with the failing input printed
/// by the runner).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Equality assert inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Define property tests: each function's `arg in strategy` bindings are
/// generated `cases` times from a deterministic per-test seed.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::ProptestConfig = $cfg;
                $crate::run_cases(
                    concat!(module_path!(), "::", stringify!($name)),
                    cfg.cases,
                    |rng| {
                        ( $( $crate::Strategy::generate(&($strat), rng), )* )
                    },
                    |__input| {
                        let ( $( $arg, )* ) = __input.clone();
                        $body
                    },
                );
            }
        )*
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $(
                $(#[$meta])*
                fn $name ( $($arg in $strat),* ) $body
            )*
        }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn seeds_are_stable() {
        assert_eq!(super::seed_for("abc"), super::seed_for("abc"));
        assert_ne!(super::seed_for("abc"), super::seed_for("abd"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(50))]

        #[test]
        fn ranges_stay_in_bounds(x in -5i64..=5, y in 0u8..4) {
            prop_assert!((-5..=5).contains(&x));
            prop_assert!(y < 4);
        }

        #[test]
        fn vec_lengths_respected(v in crate::collection::vec(0i32..10, 2..5)) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
            prop_assert!(v.iter().all(|&e| (0..10).contains(&e)));
        }

        #[test]
        fn prop_map_applies(s in (0u8..3, 1i8..=2).prop_map(|(a, b)| (a as i64) + (b as i64))) {
            prop_assert!((1..=4).contains(&s));
        }
    }
}
