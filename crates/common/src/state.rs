//! Snapshot state: what a checkpoint saves of each simulator part.
//!
//! [`State`] saves a value as JSON and restores JSON *into* a value the
//! configuration already built, so the built value decides what a snapshot
//! must hold: a `Vec` keeps its length, an `Option` its presence (unless
//! its contents can be made [fresh](State::fresh)), and a configuration
//! leaf its value. Each struct a snapshot carries lists its saved fields
//! once, in a [`state!`](crate::state!) declaration; counters are leaves
//! through their [`Counters`] encoding.

use crate::{json::Value, stats::Counters, timing::ServiceQueue, Cycle, SplitMix64};

/// A part of the simulator that a snapshot saves and restores in place.
pub trait State: Sized {
    /// What the part is called when a snapshot lacks it or has it extra.
    const WHAT: &'static str = "part";

    /// A value to restore into when the snapshot has a part that was not
    /// built. `None`, the default, makes presence a design decision that
    /// the snapshot must match.
    fn fresh() -> Option<Self> {
        None
    }

    /// Why the value cannot be saved, if it cannot.
    fn savable(&self) -> Result<(), String> {
        Ok(())
    }

    /// Encodes the value.
    fn save(&self) -> Value;

    /// Restores [`State::save`] output into `self`. On error `self` is left
    /// memory-safe but unspecified.
    fn load(&mut self, v: &Value) -> Result<(), String>;
}

/// Prefixes `err` with the field or index it came from, so errors name a
/// dotted path: ``field `llc.words`: length 63 does not match expected 64``.
fn at(key: impl core::fmt::Display, err: String) -> String {
    match err.strip_prefix("field `") {
        Some(rest) => format!("field `{key}.{rest}"),
        None => format!("field `{key}`: {err}"),
    }
}

/// Loads field `key` of the object `v` through `load`.
pub fn field(v: &Value, key: &str, load: impl FnOnce(&Value) -> LoadResult) -> LoadResult {
    let sub = v.get(key).ok_or_else(|| format!("missing field `{key}`"))?;
    load(sub).map_err(|e| at(key, e))
}

/// What [`State::load`] returns.
pub type LoadResult = Result<(), String>;

/// Checks that `v` is exactly what the constructed `want` saves.
pub fn same(want: &impl State, v: &Value) -> LoadResult {
    let want = want.save();
    match *v == want {
        true => Ok(()),
        false => Err(format!("snapshot geometry {v} does not match {want}")),
    }
}

/// Decodes an array of any length, each element restored into a copy of
/// `proto`, which carries the geometry every element must have.
pub fn seq<T: State + Clone>(v: &Value, proto: &T) -> Result<Vec<T>, String> {
    let mut out = vec![proto.clone(); v.as_array().map_or(0, <[Value]>::len)];
    out.load(v).map(|()| out)
}

fn uint<T: TryFrom<u64>>(v: &Value) -> Option<T> {
    v.as_u64()?.try_into().ok()
}

/// Leaves: `$t` saves through `$save(x)` and restores from `$load(v)`.
macro_rules! leaf {
    ($($t:ty: $save:expr, $load:expr;)*) => {$(
        impl State for $t {
            fn save(&self) -> Value { $save(*self) }

            fn load(&mut self, v: &Value) -> LoadResult {
                *self = $load(v).ok_or(concat!("expected a ", stringify!($t)))?;
                Ok(())
            }
        }
    )*};
}

leaf! {
    u8: Value::from, uint;
    u32: Value::from, uint;
    usize: Value::from, uint;
    i8: Value::from, |v: &Value| v.as_i64()?.try_into().ok();
    // The IEEE bit pattern, so a restore is bit-exact.
    f32: |x: f32| x.to_bits().into(), |v| uint(v).map(f32::from_bits);
    Cycle: |c: Cycle| c.value().into(), |v| uint(v).map(Cycle::new);
    SplitMix64: |r: SplitMix64| r.state().into(), |v| uint(v).map(SplitMix64::new);
    ServiceQueue: |q: ServiceQueue| q.busy_until().value().into(),
        |v| uint(v).map(|x| ServiceQueue::resume(Cycle::new(x)));
}

impl<T: State> State for Option<T> {
    fn savable(&self) -> LoadResult {
        self.as_ref().map_or(Ok(()), T::savable)
    }

    fn save(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::save)
    }

    fn load(&mut self, v: &Value) -> LoadResult {
        let saved = !matches!(v, Value::Null);
        if saved != self.is_some() {
            let what = T::WHAT;
            let fresh = T::fresh().ok_or_else(|| match saved {
                true => format!("snapshot carries a {what} but this design has none"),
                false => format!("snapshot has no {what} but this design expects one"),
            })?;
            *self = saved.then_some(fresh);
        }
        self.as_mut().map_or(Ok(()), |x| x.load(v))
    }
}

/// Counter structs, counters and counter arrays, through
/// [`Counters::to_json`]; fresh as all zeros, so an optional one loads
/// whether or not it was built.
impl<T: Counters> State for T {
    fn fresh() -> Option<Self> {
        Some(T::from_leaves(&mut core::iter::repeat(0)))
    }

    fn save(&self) -> Value {
        self.to_json()
    }

    fn load(&mut self, v: &Value) -> LoadResult {
        *self = T::from_json(v)?;
        Ok(())
    }
}

/// Keeps the length the configuration built.
impl<T: State> State for Vec<T> {
    fn savable(&self) -> LoadResult {
        self.iter().try_for_each(T::savable)
    }

    fn save(&self) -> Value {
        Value::Array(self.iter().map(T::save).collect())
    }

    fn load(&mut self, v: &Value) -> LoadResult {
        let items = v.as_array().ok_or("expected an array")?;
        if items.len() != self.len() {
            let (got, want) = (items.len(), self.len());
            return Err(format!("length {got} does not match expected {want}"));
        }
        for (i, (x, item)) in self.iter_mut().zip(items).enumerate() {
            x.load(item).map_err(|e| at(i, e))?;
        }
        Ok(())
    }
}

/// Implements [`State`] for a struct from the list of its saved fields,
/// the sibling of [`counters!`](crate::counters!). Fields left off the list
/// (configuration, scratch buffers, observers) are neither saved nor
/// touched by a restore. The saved form is an object with one key per
/// entry, in list order. An entry is one of:
///
/// - `field`, saved through its own [`State`], or `key = field` to save it
///   under another key;
/// - `field: fixed`, a configuration leaf that a restore requires to equal
///   the constructed value ([`same`]), or `key: fixed(get)` for a value
///   derived by `get(&self)`, checked after the entries before it load;
/// - `key: via(get, set)`, derived state: `get(&self)` returns the
///   [`State`] value to save and `set(&mut self, &Value)` restores it.
///
/// Before the name, `#[savable(path)]` names a `fn(&Self) -> Result<(),
/// String>` that refuses values no snapshot can hold, and `#[check(path)]`
/// one that validates the restored value. After it, `as "name"` sets
/// [`State::WHAT`], and `-> Value` or `-> Result` adds inherent
/// `save_state` and `load_state` methods; with `-> Result`, `save_state`
/// refuses whatever [`State::savable`] refuses, in the value or any of its
/// fields, and `load_state` always does. One invocation may declare
/// several structs.
///
/// # Examples
///
/// ```
/// use cosmos_common::json::Value;
///
/// struct Table {
///     slots: usize,
///     hits: Vec<u64>,
///     scratch: Vec<u64>,
/// }
///
/// cosmos_common::state! {
///     Table -> Value { slots: fixed, counts = hits }
/// }
///
/// let t = Table { slots: 2, hits: vec![3, 4], scratch: vec![9] };
/// assert_eq!(t.save_state().to_string(), r#"{"slots":2,"counts":[3,4]}"#);
/// let mut u = Table { slots: 2, hits: vec![0; 2], scratch: Vec::new() };
/// u.load_state(&t.save_state()).unwrap();
/// assert_eq!(u.hits, [3, 4]);
/// let mut wide = Table { slots: 3, hits: vec![0; 3], scratch: Vec::new() };
/// assert!(wide.load_state(&t.save_state()).unwrap_err().contains("slots"));
/// ```
#[macro_export]
macro_rules! state {
    () => {};
    ($(#[savable($savable:path)])? $(#[check($check:path)])?
     $name:ident $(as $what:literal)? $(-> $ret:ident)? {
        $($key:ident $(= $field:ident)? $(: $kind:ident $(($($arg:path),+))?)?),* $(,)?
    } $($rest:tt)*) => {
        impl $crate::state::State for $name {
            $(const WHAT: &'static str = $what;)?

            fn savable(&self) -> $crate::state::LoadResult {
                $($savable(self)?;)?
                $($crate::state!(@savable self [$($field)? $key] $($kind $(($($arg),+))?)?);)*
                Ok(())
            }

            fn save(&self) -> $crate::json::Value {
                let mut map = $crate::json::Map::new();
                $(map.insert(stringify!($key), $crate::state!(
                    @save self [$($field)? $key] $($kind $(($($arg),+))?)?
                ));)*
                map.into()
            }

            fn load(&mut self, v: &$crate::json::Value) -> $crate::state::LoadResult {
                $($crate::state::field(v, stringify!($key), |v| $crate::state!(
                    @load self v [$($field)? $key] $($kind $(($($arg),+))?)?
                ))?;)*
                $($check(self)?;)?
                Ok(())
            }
        }
        $(impl $name {
            $crate::state!(@$ret);

            /// Restores [`Self::save_state`] output into a value built from
            /// the same configuration, which then continues exactly as the
            /// saved one would have. Fails, naming the field, on anything
            /// the configuration could not have produced.
            pub fn load_state(&mut self, v: &$crate::json::Value) -> $crate::state::LoadResult {
                $crate::state::State::savable(self)?;
                $crate::state::State::load(self, v)
            }
        })?
        $crate::state!($($rest)*);
    };
    (@savable $s:ident [$f:ident $($k:ident)?]) => { $crate::state::State::savable(&$s.$f)? };
    (@savable $s:ident [$($k:ident)+] $($kind:tt)+) => {};
    (@save $s:ident [$f:ident $($k:ident)?] $(fixed)?) => { $crate::state::State::save(&$s.$f) };
    (@save $s:ident [$k:ident] $kind:ident($get:path $(, $set:path)?)) => {
        $crate::state::State::save(&$get($s))
    };
    (@load $s:ident $v:ident [$f:ident $($k:ident)?]) => { $crate::state::State::load(&mut $s.$f, $v) };
    (@load $s:ident $v:ident [$f:ident] fixed) => { $crate::state::same(&$s.$f, $v) };
    (@load $s:ident $v:ident [$k:ident] fixed($get:path)) => { $crate::state::same(&$get($s), $v) };
    (@load $s:ident $v:ident [$k:ident] via($get:path, $set:path)) => { $set($s, $v) };
    (@Value) => {
        /// Saves the fields this type's `state!` declaration lists: what a
        /// snapshot carries of it.
        pub fn save_state(&self) -> $crate::json::Value { $crate::state::State::save(self) }
    };
    (@Result) => {
        /// Saves the fields this type's `state!` declaration lists: what a
        /// snapshot carries of it. Fails for a value no snapshot can hold.
        pub fn save_state(&self) -> Result<$crate::json::Value, String> {
            $crate::state::State::savable(self).map(|()| $crate::state::State::save(self))
        }
    };
}
