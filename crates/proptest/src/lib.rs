//! A vendored, self-contained subset of the `proptest` API.
//!
//! The build environment has no network access to crates.io, so the real
//! `proptest` crate cannot be fetched. This crate implements exactly the
//! surface the workspace's property tests use — `proptest!`,
//! `prop_assert*!`, `prop_assume!`, `any::<T>()`, integer/float range
//! strategies, tuple strategies, `prop::collection::vec`, and
//! `prop::array::uniform16/32` — so the test files compile unchanged.
//!
//! Differences from the real crate, by design:
//!
//! - **No shrinking.** A failing case panics with the formatted assertion
//!   message; rerun under a debugger or add prints to inspect inputs.
//! - **Deterministic generation.** Cases derive from a splitmix64 stream
//!   seeded by the test's name, so every run (and every machine) explores
//!   the same inputs. There is no persistence/regression-file machinery.
//! - **`prop_assume!` rejections** simply skip the case; they still count
//!   toward the case budget.
//!
//! # Examples
//!
//! ```
//! use proptest::prelude::*;
//!
//! proptest! {
//!     #![proptest_config(ProptestConfig::with_cases(16))]
//!     fn addition_commutes(a in 0u64..1000, b in any::<u64>()) {
//!         prop_assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
//!     }
//! }
//! # fn main() {} // (#[test] items are compiled out of doctests)
//! ```

/// Test-runner plumbing: RNG, config, and the case-level error type.
pub mod test_runner {
    /// Why a single generated case did not pass.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum TestCaseError {
        /// `prop_assume!` rejected the inputs; skip the case.
        Reject,
        /// An assertion failed, with its formatted message.
        Fail(String),
    }

    /// Per-`proptest!`-block configuration.
    #[derive(Clone, Copy, Debug)]
    pub struct ProptestConfig {
        /// Number of random cases to run per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 64 }
        }
    }

    /// The deterministic splitmix64 generator driving value generation.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds the stream from a test name (FNV-1a), so each property
        /// explores a fixed, name-stable input sequence.
        pub fn deterministic(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            Self { state: h }
        }

        /// Next 64 uniformly random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value in `0..bound`; 0 when `bound == 0`.
        pub fn below(&mut self, bound: u64) -> u64 {
            if bound == 0 {
                return 0;
            }
            ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
        }

        /// Uniform `f64` in `[0, 1)`.
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

/// The [`Strategy`](strategy::Strategy) trait and implementations for
/// ranges and tuples.
pub mod strategy {
    use crate::test_runner::TestRng;
    use core::ops::{Range, RangeInclusive};

    /// A recipe for generating values of type `Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value from `rng`.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;
    }

    macro_rules! unsigned_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let width = self.end as u64 - self.start as u64;
                    self.start + rng.below(width) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty range strategy");
                    let width = (end as u64).wrapping_sub(start as u64).wrapping_add(1);
                    if width == 0 {
                        // Full-domain inclusive range of a 64-bit type.
                        return rng.next_u64() as $t;
                    }
                    start + rng.below(width) as $t
                }
            }
        )*};
    }
    unsigned_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! signed_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let width = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                    (self.start as i64).wrapping_add(rng.below(width) as i64) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty range strategy");
                    let width = (end as i64).wrapping_sub(start as i64) as u64;
                    let width = width.wrapping_add(1);
                    if width == 0 {
                        return rng.next_u64() as $t;
                    }
                    (start as i64).wrapping_add(rng.below(width) as i64) as $t
                }
            }
        )*};
    }
    signed_range_strategy!(i8, i16, i32, i64, isize);

    macro_rules! float_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let f = rng.next_f64();
                    let v = self.start as f64 + f * (self.end as f64 - self.start as f64);
                    v as $t
                }
            }
        )*};
    }
    float_range_strategy!(f32, f64);

    macro_rules! tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case, reason = "type parameters double as binding names")]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }
    tuple_strategy!(A);
    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
    tuple_strategy!(A, B, C, D, E);

    /// A strategy always yielding a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }
}

/// `any::<T>()` — full-domain generation.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use core::marker::PhantomData;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    /// The strategy returned by [`any`].
    #[derive(Clone, Copy, Debug, Default)]
    pub struct Any<T>(PhantomData<T>);

    /// A strategy generating any value of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            rng.next_f64()
        }
    }

    impl Arbitrary for f32 {
        fn arbitrary(rng: &mut TestRng) -> f32 {
            rng.next_f64() as f32
        }
    }
}

/// `prop::collection` — sized collections of strategy-generated elements.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use core::ops::{Range, RangeInclusive};

    /// Anything usable as a collection size: an exact `usize` or a range.
    pub trait SizeRange {
        /// Picks a size.
        fn select(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn select(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for Range<usize> {
        fn select(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty size range");
            self.start + rng.below((self.end - self.start) as u64) as usize
        }
    }

    impl SizeRange for RangeInclusive<usize> {
        fn select(&self, rng: &mut TestRng) -> usize {
            assert!(self.start() <= self.end(), "empty size range");
            self.start() + rng.below((self.end() - self.start() + 1) as u64) as usize
        }
    }

    /// The strategy returned by [`vec()`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    /// Generates a `Vec` whose length is drawn from `size` and whose
    /// elements are drawn from `element`.
    pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }

    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.select(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// `prop::array` — fixed-size arrays of strategy-generated elements.
pub mod array {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// The strategy returned by the `uniform*` constructors.
    #[derive(Clone, Debug)]
    pub struct ArrayStrategy<S, const N: usize>(S);

    impl<S: Strategy, const N: usize> Strategy for ArrayStrategy<S, N> {
        type Value = [S::Value; N];
        fn generate(&self, rng: &mut TestRng) -> [S::Value; N] {
            core::array::from_fn(|_| self.0.generate(rng))
        }
    }

    macro_rules! uniform {
        ($($fn_name:ident => $n:literal),*) => {$(
            /// Generates a fixed-size array, each element from `element`.
            pub fn $fn_name<S: Strategy>(element: S) -> ArrayStrategy<S, $n> {
                ArrayStrategy(element)
            }
        )*};
    }
    uniform!(uniform4 => 4, uniform8 => 8, uniform16 => 16, uniform32 => 32);
}

/// Everything a property-test file needs, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};

    /// The `prop::` namespace (`prop::collection::vec`, `prop::array::…`).
    pub mod prop {
        pub use crate::array;
        pub use crate::collection;
    }
}

/// Defines `#[test]` functions from property specifications.
///
/// Supports the standard form:
///
/// ```text
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(32))]
///     fn prop_name(x in 0u64..100, mut v in prop::collection::vec(any::<u8>(), 1..9)) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!(($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr)) => {};
    (($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        #[test]
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut rng = $crate::test_runner::TestRng::deterministic(concat!(
                module_path!(), "::", stringify!($name)
            ));
            for case in 0..config.cases {
                let outcome = (|rng: &mut $crate::test_runner::TestRng|
                    -> ::core::result::Result<(), $crate::test_runner::TestCaseError> {
                    $(let $pat = $crate::strategy::Strategy::generate(&($strat), rng);)+
                    $body
                    ::core::result::Result::Ok(())
                })(&mut rng);
                match outcome {
                    Ok(()) | Err($crate::test_runner::TestCaseError::Reject) => {}
                    Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                        panic!("property {} failed on case {case}: {msg}", stringify!($name));
                    }
                }
            }
        }
        $crate::__proptest_fns!(($cfg) $($rest)*);
    };
}

/// Asserts a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Asserts two expressions are equal inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (lhs, rhs) = (&$a, &$b);
        $crate::prop_assert!(lhs == rhs, "assertion failed: {:?} != {:?}", lhs, rhs);
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (lhs, rhs) = (&$a, &$b);
        $crate::prop_assert!(
            lhs == rhs,
            "assertion failed: {:?} != {:?} ({})",
            lhs,
            rhs,
            format!($($fmt)+)
        );
    }};
}

/// Asserts two expressions are unequal inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (lhs, rhs) = (&$a, &$b);
        $crate::prop_assert!(lhs != rhs, "assertion failed: {:?} == {:?}", lhs, rhs);
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (lhs, rhs) = (&$a, &$b);
        $crate::prop_assert!(
            lhs != rhs,
            "assertion failed: {:?} == {:?} ({})",
            lhs,
            rhs,
            format!($($fmt)+)
        );
    }};
}

/// Skips the current case when its inputs don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        fn ranges_stay_in_bounds(
            a in 3u64..17,
            b in 0u8..=255,
            c in -30f32..30f32,
            d in -5i32..5,
        ) {
            prop_assert!((3..17).contains(&a));
            let _ = b;
            prop_assert!((-30.0..30.0).contains(&c));
            prop_assert!((-5..5).contains(&d));
        }

        fn collections_respect_size(
            v in prop::collection::vec((0u64..4096, any::<bool>()), 1..400),
            exact in prop::collection::vec(0u32..2000, 128),
            arr in prop::array::uniform16(any::<u8>()),
        ) {
            prop_assert!(!v.is_empty() && v.len() < 400);
            prop_assert_eq!(exact.len(), 128);
            prop_assert_eq!(arr.len(), 16);
            prop_assert!(v.iter().all(|&(x, _)| x < 4096));
        }

        fn assume_rejects_quietly(x in 0u64..10) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0, "x = {}", x);
        }

        fn mut_bindings_work(mut v in prop::collection::vec(0u64..50, 2..20)) {
            v.sort_unstable();
            prop_assert!(v.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn generation_is_deterministic_per_name() {
        let mut a = TestRng::deterministic("name");
        let mut b = TestRng::deterministic("name");
        let mut c = TestRng::deterministic("other");
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1))]
        #[should_panic(expected = "property")]
        fn failures_panic_with_message(x in 0u64..10) {
            prop_assert!(x > 100, "x was {}", x);
        }
    }
}
