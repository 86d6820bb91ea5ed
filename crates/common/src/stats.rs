//! Lightweight statistics primitives used by caches, predictors, and the
//! simulator: hit/miss counters, ratios, and checked measurement windows.
//!
//! Every counter struct the simulator reports is declared once, through
//! [`counters!`](crate::counters!). The declaration's field list
//! generates the struct's [`Counters`] implementation: the checked
//! measurement window ([`Counters::since`]), the snapshot encoding
//! ([`Counters::to_json`] / [`Counters::from_json`]) and a leaf walk in
//! declaration order ([`Counters::visit`] / [`Counters::from_leaves`])
//! that the sampled-run estimator and the monotonicity oracle consume. A
//! field added to the declaration reaches every consumer; none can be
//! forgotten.

// Stat counters are u64: a narrowing cast here would silently truncate one.
#![deny(clippy::cast_possible_truncation)]

use crate::json::{codec, Value};
use core::fmt;
use core::fmt::Write as _;

/// A value made of monotone `u64` event counters: a bare counter, a
/// fixed-size array of counter structs, or a struct declared through
/// [`counters!`](crate::counters!).
///
/// The leaves are the `u64` counters themselves, walked depth-first in
/// declaration order. Only `u64`-based types implement the trait, so a
/// float field in a counter struct does not compile.
pub trait Counters: Sized {
    /// Number of `u64` leaves [`Counters::visit`] walks.
    const LEAVES: usize;

    /// Counts accumulated since `baseline`, for warmup-excluding
    /// measurement windows. Every leaf goes through [`window_sub`], so a
    /// counter that went backwards panics in every build profile.
    fn since(&self, baseline: &Self) -> Self;

    /// Encodes the counters for snapshots.
    fn to_json(&self) -> Value;

    /// Decodes counters produced by [`Counters::to_json`].
    fn from_json(v: &Value) -> Result<Self, String>;

    /// Decodes the field `key` of the JSON object `v`.
    fn from_json_field(v: &Value, key: &str) -> Result<Self, String> {
        Self::from_json(codec::field(v, key)?)
    }

    /// Calls `f(name, value)` for every leaf in declaration order. Names
    /// are dotted field paths (`ctr_cache.demand.hits`); array elements
    /// are named by index (`tenant_ctr.1.misses`).
    fn visit(&self, mut f: impl FnMut(&str, u64)) {
        self.visit_at(&mut String::new(), &mut f);
    }

    /// [`Counters::visit`] with every name prefixed by `path`.
    fn visit_at(&self, path: &mut String, f: &mut dyn FnMut(&str, u64));

    /// Rebuilds a value from leaf values in [`Counters::visit`] order.
    ///
    /// # Panics
    ///
    /// Panics if `leaves` yields fewer than [`Counters::LEAVES`] values.
    fn from_leaves(leaves: &mut dyn Iterator<Item = u64>) -> Self;
}

impl Counters for u64 {
    const LEAVES: usize = 1;

    fn since(&self, baseline: &Self) -> Self {
        window_sub(*self, *baseline)
    }

    fn to_json(&self) -> Value {
        Value::UInt(*self)
    }

    fn from_json(v: &Value) -> Result<Self, String> {
        v.as_u64().ok_or_else(|| "expected a u64".to_string())
    }

    fn from_json_field(v: &Value, key: &str) -> Result<Self, String> {
        codec::u64_field(v, key)
    }

    fn visit_at(&self, path: &mut String, f: &mut dyn FnMut(&str, u64)) {
        f(path, *self);
    }

    fn from_leaves(leaves: &mut dyn Iterator<Item = u64>) -> Self {
        leaves
            .next()
            .expect("leaf list shorter than the counter walk it rebuilds")
    }
}

impl<T: Counters, const N: usize> Counters for [T; N] {
    const LEAVES: usize = N * T::LEAVES;

    fn since(&self, baseline: &Self) -> Self {
        core::array::from_fn(|i| self[i].since(&baseline[i]))
    }

    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(T::to_json).collect())
    }

    fn from_json(v: &Value) -> Result<Self, String> {
        buckets_from_json(v, "counter array")
    }

    fn from_json_field(v: &Value, key: &str) -> Result<Self, String> {
        buckets_from_json(codec::field(v, key)?, &format!("field `{key}`"))
    }

    fn visit_at(&self, path: &mut String, f: &mut dyn FnMut(&str, u64)) {
        for (i, x) in self.iter().enumerate() {
            visit_field(x, path, i, f);
        }
    }

    fn from_leaves(leaves: &mut dyn Iterator<Item = u64>) -> Self {
        core::array::from_fn(|_| T::from_leaves(leaves))
    }
}

fn buckets_from_json<T: Counters, const N: usize>(v: &Value, what: &str) -> Result<[T; N], String> {
    let buckets: Vec<T> = v
        .as_array()
        .ok_or_else(|| format!("{what}: expected an array"))?
        .iter()
        .map(T::from_json)
        .collect::<Result<_, _>>()?;
    buckets
        .try_into()
        .map_err(|_| format!("{what}: expected {N} buckets"))
}

/// Walks `x` with `name` appended to `path` as one more dotted segment.
/// Used by [`counters!`](crate::counters!) expansions; not part of the
/// stable API.
#[doc(hidden)]
pub fn visit_field<T: Counters>(
    x: &T,
    path: &mut String,
    name: impl fmt::Display,
    f: &mut dyn FnMut(&str, u64),
) {
    let len = path.len();
    if len > 0 {
        path.push('.');
    }
    // Writing into a `String` cannot fail.
    let _ = write!(path, "{name}");
    x.visit_at(path, f);
    path.truncate(len);
}

/// Declares a counter struct and implements [`Counters`] for it, field by
/// field in declaration order. Doc comments, derives and field visibility
/// pass through; every field type must implement [`Counters`].
///
/// The JSON encoding is an object whose keys are the field names in
/// declaration order.
///
/// One struct, `cosmos_core::SimStats`, also carries a record that is not
/// a counter. For it, a trailing `field: Vec<T> => rebase` clause after
/// the struct body appends a `Vec` field whose elements have inherent
/// `to_json`/`from_json` methods. The field is serialized after the
/// counters, left out of the leaf walk (rebuilt empty by `from_leaves`),
/// and windowed by calling `rebase(&current, &baseline)`.
///
/// # Examples
///
/// ```
/// use cosmos_common::counters;
/// use cosmos_common::stats::Counters;
///
/// counters! {
///     /// Demo counters.
///     #[derive(Clone, Debug, Default, PartialEq)]
///     pub struct DemoStats {
///         /// Requests served.
///         pub served: u64,
///         /// Requests dropped, per priority class.
///         pub dropped: [u64; 2],
///     }
/// }
///
/// let early = DemoStats { served: 3, dropped: [1, 0] };
/// let late = DemoStats { served: 10, dropped: [4, 2] };
/// assert_eq!(late.since(&early), DemoStats { served: 7, dropped: [3, 2] });
/// assert_eq!(late.to_json().to_string(), r#"{"served":10,"dropped":[4,2]}"#);
/// let mut names = Vec::new();
/// late.visit(|name, _| names.push(name.to_string()));
/// assert_eq!(names, ["served", "dropped.0", "dropped.1"]);
/// assert_eq!(DemoStats::LEAVES, 3);
/// ```
///
/// Only `u64` and arrays of counters implement [`Counters`], so a float
/// field, whose merged value would depend on summation order, does not
/// compile:
///
/// ```compile_fail
/// use cosmos_common::counters;
///
/// counters! {
///     #[derive(Clone, Debug, Default)]
///     pub struct FloatStats {
///         pub served: u64,
///         pub ipc_sum: f64,
///     }
/// }
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fattr:meta])* $fvis:vis $field:ident : $ty:ty ),* $(,)?
        }
        $(
            $(#[$xattr:meta])*
            $xvis:vis $xfield:ident : Vec<$xty:ty> => $rebase:path
        )?
    ) => {
        $(#[$attr])*
        $vis struct $name {
            $( $(#[$fattr])* $fvis $field: $ty, )*
            $( $(#[$xattr])* $xvis $xfield: ::std::vec::Vec<$xty>, )?
        }

        impl $crate::stats::Counters for $name {
            const LEAVES: usize = 0 $( + <$ty as $crate::stats::Counters>::LEAVES )*;

            fn since(&self, baseline: &Self) -> Self {
                Self {
                    $( $field: $crate::stats::Counters::since(&self.$field, &baseline.$field), )*
                    $( $xfield: $rebase(self, baseline), )?
                }
            }

            fn to_json(&self) -> $crate::json::Value {
                let mut map = $crate::json::Map::new();
                $( map.insert(
                    stringify!($field),
                    $crate::stats::Counters::to_json(&self.$field),
                ); )*
                $( map.insert(
                    stringify!($xfield),
                    $crate::json::Value::Array(
                        self.$xfield.iter().map(<$xty>::to_json).collect(),
                    ),
                ); )?
                $crate::json::Value::Object(map)
            }

            fn from_json(
                v: &$crate::json::Value,
            ) -> ::std::result::Result<Self, ::std::string::String> {
                ::std::result::Result::Ok(Self {
                    $( $field: <$ty as $crate::stats::Counters>::from_json_field(
                        v,
                        stringify!($field),
                    )?, )*
                    $( $xfield: $crate::json::codec::field(v, stringify!($xfield))?
                        .as_array()
                        .ok_or_else(|| ::std::format!(
                            "field `{}`: expected an array",
                            stringify!($xfield),
                        ))?
                        .iter()
                        .map(<$xty>::from_json)
                        .collect::<::std::result::Result<_, _>>()?, )?
                })
            }

            fn visit_at(
                &self,
                path: &mut ::std::string::String,
                f: &mut dyn FnMut(&str, u64),
            ) {
                $( $crate::stats::visit_field(&self.$field, path, stringify!($field), f); )*
            }

            fn from_leaves(leaves: &mut dyn ::std::iter::Iterator<Item = u64>) -> Self {
                Self {
                    $( $field: <$ty as $crate::stats::Counters>::from_leaves(leaves), )*
                    $( $xfield: ::std::vec::Vec::<$xty>::new(), )?
                }
            }
        }
    };
}

counters! {
    /// A hit/miss (or success/failure) counter pair.
    ///
    /// # Examples
    ///
    /// ```
    /// use cosmos_common::stats::HitMiss;
    /// let mut hm = HitMiss::new();
    /// hm.hit();
    /// hm.miss();
    /// hm.miss();
    /// assert_eq!(hm.total(), 3);
    /// assert!((hm.miss_rate() - 2.0 / 3.0).abs() < 1e-12);
    /// ```
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct HitMiss {
        hits: u64,
        misses: u64,
    }
}

impl HitMiss {
    /// Creates a zeroed counter.
    pub const fn new() -> Self {
        Self { hits: 0, misses: 0 }
    }

    /// Records a hit.
    #[inline]
    pub fn hit(&mut self) {
        self.hits += 1;
    }

    /// Records a miss.
    #[inline]
    pub fn miss(&mut self) {
        self.misses += 1;
    }

    /// Records a hit or a miss depending on `was_hit`.
    #[inline]
    pub fn record(&mut self, was_hit: bool) {
        if was_hit {
            self.hit();
        } else {
            self.miss();
        }
    }

    /// Number of hits recorded.
    pub const fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of misses recorded.
    pub const fn misses(&self) -> u64 {
        self.misses
    }

    /// Total events recorded.
    pub const fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit fraction in `[0, 1]`; `0.0` when empty.
    pub fn hit_rate(&self) -> f64 {
        ratio(self.hits, self.total())
    }

    /// Miss fraction in `[0, 1]`; `0.0` when empty.
    pub fn miss_rate(&self) -> f64 {
        ratio(self.misses, self.total())
    }

    /// Builds a counter from explicit counts (useful when reconstructing
    /// statistics from estimates).
    pub const fn from_counts(hits: u64, misses: u64) -> Self {
        Self { hits, misses }
    }
}

impl fmt::Display for HitMiss {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.1}% miss)",
            self.hits,
            self.misses,
            self.miss_rate() * 100.0
        )
    }
}

/// Checked stat-window subtraction: `current - baseline` for a monotone
/// counter pair taken from the *same* run.
///
/// The whole `since()` family is built on this. It panics — in release
/// builds too, not just under `debug_assert!` — when `baseline > current`,
/// because that can only mean the counter was reset (or the caller swapped
/// the operands) and the resulting window would be wrapped or silently
/// saturated garbage.
///
/// # Panics
///
/// Panics if `baseline > current`.
///
/// # Examples
///
/// ```
/// use cosmos_common::stats::window_sub;
/// assert_eq!(window_sub(10, 4), 6);
/// ```
#[inline]
#[track_caller]
pub fn window_sub(current: u64, baseline: u64) -> u64 {
    current.checked_sub(baseline).expect(
        "stat-window baseline exceeds the current counter; a window baseline must be an \
         earlier snapshot of the same monotone counter",
    )
}

/// Safe ratio helper: `num / den`, or `0.0` when `den == 0`.
#[inline]
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hitmiss_rates() {
        let mut hm = HitMiss::new();
        assert_eq!(hm.hit_rate(), 0.0);
        for _ in 0..3 {
            hm.hit();
        }
        hm.miss();
        assert_eq!(hm.total(), 4);
        assert_eq!(hm.hit_rate(), 0.75);
        assert_eq!(hm.miss_rate(), 0.25);
    }

    #[test]
    fn hitmiss_since_subtracts() {
        let early = HitMiss::from_counts(3, 1);
        let late = HitMiss::from_counts(10, 4);
        assert_eq!(late.since(&early), HitMiss::from_counts(7, 3));
    }

    /// A baseline ahead of the counter means the counter was reset. The
    /// subtraction is checked (not a `debug_assert!`), so this panics in
    /// release builds too — the test runs under both profiles on purpose.
    #[test]
    #[should_panic(expected = "stat-window baseline exceeds the current counter")]
    fn hitmiss_since_rejects_backwards_counter() {
        let early = HitMiss::from_counts(3, 1);
        let late = HitMiss::from_counts(10, 4);
        let _ = early.since(&late);
    }

    #[test]
    fn window_sub_subtracts() {
        assert_eq!(window_sub(10, 10), 0);
        assert_eq!(window_sub(u64::MAX, 1), u64::MAX - 1);
        assert_eq!(window_sub(7, 0), 7);
    }

    #[test]
    #[should_panic(expected = "stat-window baseline exceeds the current counter")]
    fn window_sub_rejects_backwards_counter_in_all_profiles() {
        let _ = window_sub(3, 4);
    }

    #[test]
    fn hitmiss_json_round_trip() {
        let hm = HitMiss::from_counts(5, 2);
        assert_eq!(HitMiss::from_json(&hm.to_json()).unwrap(), hm);
        let err = HitMiss::from_json(&crate::json!({"hits": 1})).unwrap_err();
        assert!(err.contains("misses"), "error names the field: {err}");
    }

    #[test]
    fn ratio_handles_zero() {
        assert_eq!(ratio(5, 0), 0.0);
        assert_eq!(ratio(1, 2), 0.5);
    }
}
