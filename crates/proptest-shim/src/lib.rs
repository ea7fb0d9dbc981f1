//! Minimal, dependency-free stand-in for the subset of `proptest` this
//! workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors this shim and maps the `proptest` dependency name onto it
//! (see the root `Cargo.toml`). It keeps the same *test-author* API —
//! `proptest! { fn f(x in strategy) { ... } }`, `any::<T>()`, integer
//! ranges, `prop::collection::vec`, `prop::array::uniform32`,
//! `prop_assert*!`, `prop_assume!`, `ProptestConfig::with_cases` — but
//! the execution model is simpler than real proptest:
//!
//! * cases are generated from a deterministic per-test seed (derived
//!   from the test's name), so failures reproduce exactly;
//! * there is **no shrinking** — a failing case panics with the normal
//!   assertion message, and the case index is printed so it can be
//!   replayed;
//! * `.proptest-regressions` files are ignored.
//!
//! The default case count is 64 (override with the `PROPTEST_CASES`
//! environment variable, like real proptest honours).

use rand::{Rng as _, SeedableRng as _};

pub use rand::rngs::StdRng;

/// Runner configuration (only the `cases` knob is modelled).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

impl ProptestConfig {
    /// A configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }

    /// Effective case count, honouring `PROPTEST_CASES`.
    pub fn effective_cases(&self) -> u32 {
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(self.cases)
    }
}

/// Derives a stable 64-bit seed from a test's name (FNV-1a).
pub fn seed_for(test_name: &str, case: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ ((case as u64) << 32 | case as u64)
}

/// Builds the deterministic generator for one test case (used by the
/// [`proptest!`] expansion; callers never need it directly).
pub fn rng_for(test_name: &str, case: u32) -> StdRng {
    StdRng::seed_from_u64(seed_for(test_name, case))
}

/// A value generator (real proptest's `Strategy`, minus shrinking).
pub trait Strategy {
    /// The generated type.
    type Value;
    /// Draws one value.
    fn sample(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f` (real proptest's `prop_map`).
    fn prop_map<T, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> T,
    {
        Map { inner: self, f }
    }
}

/// Output of [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;
    fn sample(&self, rng: &mut StdRng) -> T {
        (self.f)(self.inner.sample(rng))
    }
}

/// Constant strategy (real proptest's `Just`).
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

/// Weighted choice over boxed strategies; built by [`prop_oneof!`].
pub struct OneOf<T> {
    arms: Vec<(u32, Box<dyn Strategy<Value = T>>)>,
}

impl<T> Default for OneOf<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> OneOf<T> {
    /// An empty choice; sampling panics until an arm is added.
    pub fn new() -> Self {
        Self { arms: Vec::new() }
    }

    /// Adds an arm with relative `weight`.
    pub fn or(mut self, weight: u32, s: impl Strategy<Value = T> + 'static) -> Self {
        assert!(weight > 0, "prop_oneof! weights must be positive");
        self.arms.push((weight, Box::new(s)));
        self
    }
}

impl<T> Strategy for OneOf<T> {
    type Value = T;
    fn sample(&self, rng: &mut StdRng) -> T {
        let total: u32 = self.arms.iter().map(|(w, _)| *w).sum();
        let mut pick = rng.gen_range(0..total);
        for (w, s) in &self.arms {
            if pick < *w {
                return s.sample(rng);
            }
            pick -= *w;
        }
        unreachable!("weights sum covers the sampled range")
    }
}

/// `prop_oneof! { w1 => s1, w2 => s2, ... }` (or unweighted arms):
/// picks one arm per sample, weighted (real proptest's macro, minus
/// shrinking across arms).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strat:expr),+ $(,)?) => {
        $crate::OneOf::new()$(.or($weight, $strat))+
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::OneOf::new()$(.or(1, $strat))+
    };
}

// ---- integer / bool strategies ----------------------------------------

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Marker returned by [`any`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Any<T>(std::marker::PhantomData<T>);

/// Full-domain strategy for `T` (`any::<u8>()`, `any::<bool>()`, ...).
pub fn any<T>() -> Any<T>
where
    Any<T>: Strategy,
{
    Any(std::marker::PhantomData)
}

macro_rules! impl_any {
    ($($t:ty),*) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.gen()
            }
        }
    )*};
}
impl_any!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool);

// ---- tuple strategies --------------------------------------------------

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut StdRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);

// ---- collection / array strategies ------------------------------------

/// `prop::collection` equivalents.
pub mod collection {
    use super::{StdRng, Strategy};
    use rand::Rng as _;

    /// Strategy for variable-length vectors.
    pub struct VecStrategy<S> {
        element: S,
        size: std::ops::Range<usize>,
    }

    /// `prop::collection::vec(element, size_range)`.
    pub fn vec<S: Strategy>(element: S, size: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut StdRng) -> Self::Value {
            let n = rng.gen_range(self.size.clone());
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// `prop::array` equivalents.
pub mod array {
    use super::{StdRng, Strategy};

    /// Strategy for `[T; 32]`.
    pub struct Uniform32<S>(S);

    /// `prop::array::uniform32(element)`.
    pub fn uniform32<S: Strategy>(element: S) -> Uniform32<S> {
        Uniform32(element)
    }

    impl<S: Strategy> Strategy for Uniform32<S> {
        type Value = [S::Value; 32];
        fn sample(&self, rng: &mut StdRng) -> Self::Value {
            std::array::from_fn(|_| self.0.sample(rng))
        }
    }

    /// Strategy for `[T; 16]`.
    pub struct Uniform16<S>(S);

    /// `prop::array::uniform16(element)`.
    pub fn uniform16<S: Strategy>(element: S) -> Uniform16<S> {
        Uniform16(element)
    }

    impl<S: Strategy> Strategy for Uniform16<S> {
        type Value = [S::Value; 16];
        fn sample(&self, rng: &mut StdRng) -> Self::Value {
            std::array::from_fn(|_| self.0.sample(rng))
        }
    }
}

/// The `prop` path alias (`prop::collection::vec`, `prop::array::...`).
pub mod prop {
    pub use crate::array;
    pub use crate::collection;
}

/// Everything a test module imports.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Just, ProptestConfig, Strategy,
    };
}

// ---- macros ------------------------------------------------------------

/// `proptest! { ... }` — generates one `#[test]` fn per body fn; each
/// runs `cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[macro_export]
macro_rules! __proptest_fns {
    (cfg = $cfg:expr; $( $(#[$meta:meta])* fn $name:ident ( $($args:tt)* ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let cases = config.effective_cases();
                for case in 0..cases {
                    let mut __proptest_rng =
                        $crate::rng_for(concat!(module_path!(), "::", stringify!($name)), case);
                    // One closure per case so `prop_assume!` can skip it
                    // with an early return.
                    let mut one_case = || {
                        $crate::__proptest_bind!(__proptest_rng, $($args)*);
                        $body
                    };
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(&mut one_case));
                    if let Err(payload) = outcome {
                        eprintln!(
                            "proptest case {case}/{cases} of {} failed (deterministic seed; \
                             rerun reproduces it)",
                            stringify!($name),
                        );
                        std::panic::resume_unwind(payload);
                    }
                }
            }
        )*
    };
}

/// Implementation detail of [`proptest!`]: binds `pat in strategy` args.
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident $(,)?) => {};
    ($rng:ident, $pat:pat in $strat:expr $(, $($rest:tt)*)?) => {
        let $pat = $crate::Strategy::sample(&$strat, &mut $rng);
        $crate::__proptest_bind!($rng $(, $($rest)*)?);
    };
}

/// Assertion macros — plain `assert*!` (no shrinking to report back to).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// See [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// See [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Skips the current case when its inputs don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn strategies_sample_in_domain() {
        let mut rng = crate::rng_for("strategies_sample_in_domain", 0);
        for _ in 0..100 {
            let v = (0u64..10).sample(&mut rng);
            assert!(v < 10);
            let t = (0u8..4, any::<bool>()).sample(&mut rng);
            assert!(t.0 < 4);
            let xs = prop::collection::vec(0u32..7, 1..9).sample(&mut rng);
            assert!((1..9).contains(&xs.len()));
            assert!(xs.iter().all(|&x| x < 7));
            let arr = prop::array::uniform32(0u8..=63).sample(&mut rng);
            assert!(arr.iter().all(|&x| x <= 63));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The macro surface itself: bindings, assume, asserts.
        #[test]
        fn macro_roundtrip(x in 1u64..100, (a, b) in (0u8..10, 0u8..10), v in prop::collection::vec(any::<u8>(), 0..5)) {
            prop_assume!(x != 99);
            prop_assert!((1..100).contains(&x));
            prop_assert_eq!(a as u16 + b as u16, b as u16 + a as u16, "commutativity {} {}", a, b);
            prop_assert_ne!(x, 0);
            prop_assert!(v.len() < 5);
        }
    }

    proptest! {
        #[test]
        fn default_config_runs(y in any::<u64>()) {
            let _ = y;
        }
    }
}
