//! The exact-recency tag store: LRU and LCR sets as MRU-ordered words.
//!
//! A set is `ways` words ordered most- to least-recently used, with the
//! empty word (all ones) in its unused ways at the tail. A word is
//! `line << 1 | dirty`, and its width is fixed by the store's user
//! ([`Word`]):
//!
//! - a `u64` word holds any line below 2^52, and in an LCR store also the
//!   line's locality hint in bits 54–63 (present, good, 8-bit score). An
//!   8-way set is one 64 B host line. The MT cache and the LRU/LCR CTR
//!   caches use it: their metadata lines sit at 2^34 and above.
//! - a `u32` word holds an LRU line below [`LineAddr::DATA_LIMIT`]
//!   (2^31 − 1), so a 16-way set is one 64 B host line. The data
//!   hierarchy uses it, at half the tag bytes of `u64` words.
//!
//! A touch moves a word to the front; a fill shifts the words before the
//! victim right by one and writes the new word at the front.
//!
//! The victims are exactly those of the generic [`Cache`](crate::Cache)
//! under the same policy, whose inline arms pick them off per-way touch
//! stamps. Empty ways fill first. LRU evicts the tail: the oldest touch.
//! LCR (paper Algorithm 2) evicts the highest-score bad line, or, if every
//! line is good, the lowest-score good line; an unhinted line is bad with
//! score 0. `Cache` breaks a tie toward the older touch stamp, and since
//! stamps are unique per touch, position order is stamp order, so a tie
//! here goes to the older position.
//!
//! A snapshot saves every word in its `u64` form, the empty word as
//! [`EMPTY`], so a line saves the same bytes at either width. A restore
//! rejects a word whose line does not fit the store's width.
//!
//! The fill and last-touch stamps of a victim are read only by telemetry.
//! A store built with stamps keeps its access clock and each line's
//! stamps beside the words, in the same MRU order; one built without them
//! reports stamps of 0 and pays one branch per access.

use crate::cache::{AccessResult, Eviction, LocalityHint};
use crate::config::CacheConfig;
use crate::policies::PolicyKind;
use crate::stats::CacheStats;
use cosmos_common::json::Value;
use cosmos_common::state::{LoadResult, State};
use cosmos_common::LineAddr;

/// The saved form of an empty way, at either width. No line a store can
/// hold has its tag bits.
pub const EMPTY: u64 = u64::MAX;

const DIRTY: u64 = 1;
/// `line << 1` of a saved word: the bits a `u64` lookup compares.
const TAG: u64 = (1 << HINT_SHIFT) - 2;
const HINT_SHIFT: u32 = 54;
const HINT_SCORE: u64 = 0xFF << HINT_SHIFT;
const HINT_GOOD: u64 = 1 << 62;
const HINT_PRESENT: u64 = 1 << 63;
const HINT: u64 = HINT_PRESENT | HINT_GOOD | HINT_SCORE;

mod sealed {
    pub trait Sealed {}
    impl Sealed for u64 {}
    impl Sealed for u32 {}
}

/// The width of a store's tag words: `u64` or `u32` (see the module docs).
pub trait Word: sealed::Sealed + Copy + Eq + core::fmt::Debug {
    /// The word of an empty way: all ones.
    const EMPTY: Self;
    /// Lines a word can hold: `line << 1` stays below the hint bits and
    /// differs from the empty word's.
    const LINE_LIMIT: u64;
    /// Whether a word carries an LCR hint, so the store can run LCR.
    const HINTS: bool;

    /// The word `line << 1 | dirty` of a line below
    /// [`LINE_LIMIT`](Word::LINE_LIMIT), with no hint.
    fn new(line: u64, dirty: bool) -> Self;
    /// The bits a lookup compares: `line << 1`.
    fn tag(self) -> Self;
    /// The word with `dirty` ORed into its dirty bit.
    fn dirtied(self, dirty: bool) -> Self;
    /// The word's hint bits replaced by `hint` (a `u32` word has none).
    fn hinted(self, hint: u64) -> Self;
    /// The line a resident word holds.
    fn line(self) -> u64;
    /// Whether a resident word is dirty.
    fn is_dirty(self) -> bool;
    /// The word as a snapshot saves it.
    fn widen(self) -> u64;
    /// The word of a saved one that [`RecencyStore`]'s restore checked.
    fn narrow(saved: u64) -> Self;
}

impl Word for u64 {
    const EMPTY: Self = EMPTY;
    const LINE_LIMIT: u64 = 1 << 52;
    const HINTS: bool = true;

    #[inline(always)]
    fn new(line: u64, dirty: bool) -> Self {
        line << 1 | u64::from(dirty)
    }
    #[inline(always)]
    fn tag(self) -> Self {
        self & TAG
    }
    #[inline(always)]
    fn dirtied(self, dirty: bool) -> Self {
        self | u64::from(dirty)
    }
    #[inline(always)]
    fn hinted(self, hint: u64) -> Self {
        self & !HINT | hint
    }
    #[inline(always)]
    fn line(self) -> u64 {
        (self & TAG) >> 1
    }
    #[inline(always)]
    fn is_dirty(self) -> bool {
        self & DIRTY != 0
    }
    fn widen(self) -> u64 {
        self
    }
    fn narrow(saved: u64) -> Self {
        saved
    }
}

impl Word for u32 {
    const EMPTY: Self = u32::MAX;
    const LINE_LIMIT: u64 = LineAddr::DATA_LIMIT;
    const HINTS: bool = false;

    #[inline(always)]
    fn new(line: u64, dirty: bool) -> Self {
        (line as u32) << 1 | u32::from(dirty)
    }
    #[inline(always)]
    fn tag(self) -> Self {
        self & !1
    }
    #[inline(always)]
    fn dirtied(self, dirty: bool) -> Self {
        self | u32::from(dirty)
    }
    #[inline(always)]
    fn hinted(self, _hint: u64) -> Self {
        self
    }
    #[inline(always)]
    fn line(self) -> u64 {
        u64::from(self >> 1)
    }
    #[inline(always)]
    fn is_dirty(self) -> bool {
        self & 1 != 0
    }
    fn widen(self) -> u64 {
        match self {
            u32::MAX => EMPTY,
            w => u64::from(w),
        }
    }
    fn narrow(saved: u64) -> Self {
        match saved {
            EMPTY => u32::MAX,
            w => w as u32,
        }
    }
}

/// The hint bits of a word that carries `hint`.
#[inline]
fn hint_bits(hint: LocalityHint) -> u64 {
    HINT_PRESENT | u64::from(hint.good) << 62 | u64::from(hint.score) << HINT_SHIFT
}

/// LCR's eviction rank of a full way's word: every bad line (unhinted
/// ones too) outranks every good one, a bad line ranks by its score and a
/// good one by its inverted score.
#[inline]
fn lcr_rank(word: u64) -> u32 {
    let score = ((word & HINT_SCORE) >> HINT_SHIFT) as u32;
    match word & HINT_GOOD != 0 {
        true => 255 - score,
        false => 256 + score,
    }
}

/// The LCR victim of a full set: the highest rank, ties to the older way.
/// Kept out of line so the LRU callers' inlined access stays small.
#[inline(never)]
fn lcr_victim<W: Word>(set: &[W]) -> usize {
    let mut best = (0, lcr_rank(set[0].widen()));
    for (pos, &w) in set.iter().enumerate().skip(1) {
        let rank = lcr_rank(w.widen());
        if rank >= best.1 {
            best = (pos, rank);
        }
    }
    best.0
}

/// Writes `word` at the front of `set`, moving `set[..pos]` one way back,
/// and returns the word that was at `pos`. For a set of a few words this
/// loop is cheaper than the `memmove` call of `copy_within`.
#[inline(always)]
fn push_front<W: Word>(set: &mut [W], pos: usize, word: W) -> W {
    let mut carry = word;
    for slot in &mut set[..=pos] {
        carry = core::mem::replace(slot, carry);
    }
    carry
}

/// The access clock and `[fill_at, last_touch_at]` of every way, in the
/// order of the words.
#[derive(Clone, Debug)]
struct Stamps {
    clock: u64,
    at: Vec<[u64; 2]>,
}

impl Stamps {
    /// Moves way `pos` of the set at `base` to the front as just touched,
    /// keeping its fill stamp or, when `fill`, stamping it filled now.
    /// Returns the stamps the way had. Cold: only telemetry reads stamps.
    #[cold]
    #[inline(never)]
    fn touch(&mut self, base: usize, ways: usize, pos: usize, fill: bool) -> [u64; 2] {
        self.clock += 1;
        let set = &mut self.at[base..base + ways];
        let old = set[pos];
        set.copy_within(..pos, 1);
        set[0] = [if fill { self.clock } else { old[0] }, self.clock];
        old
    }
}

/// An exact-recency tag store of `W` words with an LRU or LCR policy
/// over a modulo index (see the module docs).
///
/// # Examples
///
/// ```
/// use cosmos_cache::{CacheConfig, PolicyKind, RecencyStore};
/// use cosmos_common::LineAddr;
///
/// // 1 set x 2 ways of u32 words.
/// let mut s = RecencyStore::<u32>::new(CacheConfig::new(128, 2), PolicyKind::Lru, false);
/// s.access(LineAddr::new(1), true, None);
/// s.access(LineAddr::new(2), false, None);
/// let r = s.access(LineAddr::new(3), false, None);
/// let victim = r.evicted.unwrap();
/// assert_eq!((victim.line, victim.dirty), (LineAddr::new(1), true));
/// ```
#[derive(Clone, Debug)]
pub struct RecencyStore<W: Word> {
    /// `sets × ways` words, each set MRU-first with empty words at the tail.
    words: Vec<W>,
    ways: usize,
    set_mask: u64,
    lcr: bool,
    stamps: Option<Stamps>,
}

impl<W: Word> RecencyStore<W> {
    /// Creates an empty store with `config`'s geometry under `policy`,
    /// keeping access stamps when `stamps` is set.
    ///
    /// # Panics
    ///
    /// Panics if `policy` is neither LRU nor LCR, if it is LCR over `u32`
    /// words, or if `config` does not use the modulo index: other policies
    /// and indexes need way slots (use [`Cache`](crate::Cache)).
    pub fn new(config: CacheConfig, policy: PolicyKind, stamps: bool) -> Self {
        assert!(
            Self::supports(&config, policy),
            "a recency store of {}-bit words runs LRU{} over a modulo index, not {policy:?} over {}",
            core::mem::size_of::<W>() * 8,
            if W::HINTS { " or LCR" } else { "" },
            config.index().name()
        );
        let lines = config.num_lines();
        Self {
            words: vec![W::EMPTY; lines],
            ways: config.ways(),
            set_mask: config.num_sets() as u64 - 1,
            lcr: policy == PolicyKind::Lcr,
            stamps: stamps.then(|| Stamps {
                clock: 0,
                at: vec![[0; 2]; lines],
            }),
        }
    }

    /// Whether a store of `W` words can run `policy` over `config`'s
    /// index: LRU, or LCR where `W` carries hints, over the modulo index.
    pub fn supports(config: &CacheConfig, policy: PolicyKind) -> bool {
        let policy_ok = match policy {
            PolicyKind::Lru => true,
            PolicyKind::Lcr => W::HINTS,
            _ => false,
        };
        policy_ok && matches!(config.index(), crate::IndexKind::Modulo)
    }

    /// Touches `line`: on a hit moves it to the front of its set, ORing
    /// `write` into its dirty bit; on a miss inserts it there, evicting
    /// the policy's victim from a full set. An LCR store stores `hint` on
    /// a fill and replaces its stored hint with it on a hit; an LRU store
    /// ignores hints.
    ///
    /// Always inlined: the data hierarchy calls it five ways per access,
    /// and a caller that passes no hint drops the hint arm.
    #[inline(always)]
    pub fn access(
        &mut self,
        line: LineAddr,
        write: bool,
        hint: Option<LocalityHint>,
    ) -> AccessResult {
        let line = line.index();
        debug_assert!(
            line < W::LINE_LIMIT,
            "line {line:#x} does not fit a {}-bit tag word",
            core::mem::size_of::<W>() * 8
        );
        let (ways, key) = (self.ways, W::new(line, false));
        let base = (line & self.set_mask) as usize * ways;
        let lcr = W::HINTS && self.lcr;
        let hint = hint.filter(|_| lcr).map(hint_bits);
        let set = &mut self.words[base..base + ways];
        if let Some(pos) = set.iter().position(|&w| w.tag() == key) {
            let mut word = set[pos].dirtied(write);
            if let Some(h) = hint {
                word = word.hinted(h);
            }
            push_front(set, pos, word);
            if let Some(st) = &mut self.stamps {
                st.touch(base, ways, pos, false);
            }
            return AccessResult {
                hit: true,
                evicted: None,
                first_use_of_prefetch: false,
            };
        }
        let last = ways - 1;
        let pos = match lcr && set[last] != W::EMPTY {
            true => lcr_victim(set),
            false => last,
        };
        let mut word = key.dirtied(write);
        if let Some(h) = hint {
            word = word.hinted(h);
        }
        let victim = push_front(set, pos, word);
        let [fill_at, last_touch_at] = match &mut self.stamps {
            Some(st) => st.touch(base, ways, pos, true),
            None => [0; 2],
        };
        AccessResult {
            hit: false,
            evicted: (victim != W::EMPTY).then(|| Eviction {
                line: LineAddr::new(victim.line()),
                dirty: victim.is_dirty(),
                fill_at,
                last_touch_at,
                lru_deviated: pos != last,
            }),
            first_use_of_prefetch: false,
        }
    }

    /// The access clock: one tick per access, or 0 without stamps. The
    /// stamps of an [`Eviction`] are values of this clock.
    pub fn access_clock(&self) -> u64 {
        self.stamps.as_ref().map_or(0, |st| st.clock)
    }

    /// All resident lines, set by set.
    pub fn resident_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.words
            .iter()
            .filter(|&&w| w != W::EMPTY)
            .map(|&w| LineAddr::new(w.line()))
    }

    /// Resident lines with their dirty bits, set by set, each set ordered
    /// least- to most-recently used: the order that primes a shadow model
    /// whose sets are MRU lists.
    pub fn resident_entries_lru_to_mru(&self) -> Vec<(LineAddr, bool)> {
        self.words
            .chunks_exact(self.ways)
            .flat_map(|set| set.iter().rev())
            .filter(|&&w| w != W::EMPTY)
            .map(|&w| (LineAddr::new(w.line()), w.is_dirty()))
            .collect()
    }

    /// Rejects any saved word array that no sequence of accesses could
    /// have produced.
    fn check_sets(&self, saved: &[u64]) -> LoadResult {
        for (set, ways) in saved.chunks_exact(self.ways).enumerate() {
            self.check_set(set, ways)
                .map_err(|e| format!("set {set}: {e}"))?;
        }
        Ok(())
    }

    /// A saved set is valid when its resident words form a prefix, each
    /// maps to `set`, no line appears twice, each carries hint bits only
    /// in an LCR store, and a score or good flag only with a hint, and
    /// each line fits the store's words.
    fn check_set(&self, set: usize, ways: &[u64]) -> LoadResult {
        let valid = ways.iter().take_while(|&&w| w != EMPTY).count();
        if ways[valid..].iter().any(|&w| w != EMPTY) {
            return Err(format!("a resident line follows the empty way {valid}"));
        }
        for (i, &w) in ways[..valid].iter().enumerate() {
            let line = (w & TAG) >> 1;
            let home = (line & self.set_mask) as usize;
            if home != set {
                return Err(format!("line {line} belongs to set {home}"));
            }
            if ways[..i].iter().any(|&p| p & TAG == w & TAG) {
                return Err(format!("line {line} is stored twice"));
            }
            if w & HINT != 0 && !self.lcr {
                return Err(format!("line {line} carries hint bits in an LRU store"));
            }
            if w & HINT != 0 && w & HINT_PRESENT == 0 {
                return Err(format!("line {line} carries a hint score without a hint"));
            }
            if line >= W::LINE_LIMIT {
                return Err(format!(
                    "line {line} does not fit a {}-bit tag word",
                    core::mem::size_of::<W>() * 8
                ));
            }
        }
        Ok(())
    }
}

/// Saved as the word array in its `u64` form; a restore checks every set
/// and, in a store with stamps, restarts the clock (snapshots carry no
/// telemetry).
impl<W: Word> State for RecencyStore<W> {
    fn save(&self) -> Value {
        let saved: Vec<u64> = self.words.iter().map(|w| w.widen()).collect();
        saved.save()
    }

    fn load(&mut self, v: &Value) -> LoadResult {
        let mut saved = vec![EMPTY; self.words.len()];
        saved.load(v)?;
        self.check_sets(&saved)?;
        for (w, &s) in self.words.iter_mut().zip(&saved) {
            *w = W::narrow(s);
        }
        if let Some(st) = &mut self.stamps {
            st.clock = 0;
            st.at.fill([0; 2]);
        }
        Ok(())
    }
}

/// A metadata cache on a `u64` [`RecencyStore`]: the store, its geometry,
/// and the [`CacheStats`] of its accesses, all of which are demand
/// accesses.
#[derive(Clone, Debug)]
pub struct RecencyCache {
    config: CacheConfig,
    tags: RecencyStore<u64>,
    stats: CacheStats,
}

// The MRU-ordered words and the statistics.
cosmos_common::state! { RecencyCache -> Value { words = tags, stats } }

impl RecencyCache {
    /// Creates an empty cache; see [`RecencyStore::new`].
    ///
    /// # Panics
    ///
    /// Panics where [`RecencyStore::new`] does.
    pub fn new(config: CacheConfig, policy: PolicyKind, stamps: bool) -> Self {
        Self {
            tags: RecencyStore::new(config, policy, stamps),
            config,
            stats: CacheStats::default(),
        }
    }

    /// A demand access through [`RecencyStore::access`], counted in the
    /// statistics.
    #[inline]
    pub fn access(
        &mut self,
        line: LineAddr,
        write: bool,
        hint: Option<LocalityHint>,
    ) -> AccessResult {
        let r = self.tags.access(line, write, hint);
        self.stats.demand.record(r.hit);
        if let Some(ev) = r.evicted {
            self.stats.evictions += 1;
            self.stats.writebacks += u64::from(ev.dirty);
        }
        r
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The tag store (residency and recency).
    pub fn store(&self) -> &RecencyStore<u64> {
        &self.tags
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cache;
    use proptest::prelude::*;

    /// `(line, write, hint)` from generated `(line, write, kind, score)`:
    /// kind 0 carries no hint, 1 a bad one, 2 a good one.
    fn op(
        (line, write, kind, score): (u64, bool, u8, u8),
    ) -> (LineAddr, bool, Option<LocalityHint>) {
        let hint = (kind > 0).then_some(LocalityHint {
            good: kind == 2,
            score,
        });
        (LineAddr::new(line), write, hint)
    }

    /// Runs `ops` through a store of `W` words and a [`Cache`] with the
    /// same geometry and policy, comparing every access's hit, victim,
    /// dirty bit and LRU deviation and the statistics after it (counted
    /// as [`RecencyCache`] counts them); with stamps, also the victim's
    /// stamps and the access clock.
    fn check_against_cache<W: Word>(
        ways: usize,
        sets: usize,
        policy: PolicyKind,
        stamps: bool,
        ops: &[(u64, bool, u8, u8)],
    ) -> Result<(), String> {
        let config = CacheConfig::new(ways * sets * 64, ways);
        let mut store = RecencyStore::<W>::new(config, policy, stamps);
        let mut stats = CacheStats::default();
        let mut cache = Cache::new(config, policy);
        for (i, &raw) in ops.iter().enumerate() {
            let (line, write, hint) = op(raw);
            let mut got = store.access(line, write, hint);
            stats.demand.record(got.hit);
            if let Some(ev) = got.evicted {
                stats.evictions += 1;
                stats.writebacks += u64::from(ev.dirty);
            }
            let mut want = cache.access(line, write, hint);
            if !stamps {
                for ev in want.evicted.iter_mut().chain(got.evicted.iter_mut()) {
                    (ev.fill_at, ev.last_touch_at) = (0, 0);
                }
            }
            let clocks = match stamps {
                true => (store.access_clock(), cache.access_clock()),
                false => (0, 0),
            };
            if got != want || &stats != cache.stats() || clocks.0 != clocks.1 {
                return Err(format!(
                    "{}-bit words, access {i} ({line:?}, write {write}, {hint:?}): {got:?} \
                     {stats:?} clock {} vs Cache {want:?} {:?} clock {}",
                    core::mem::size_of::<W>() * 8,
                    clocks.0,
                    cache.stats(),
                    clocks.1
                ));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// `u64` words under the drawn policy, and `u32` words under LRU
        /// (an LRU store ignores the hints).
        fn matches_cache_access_for_access(
            ways in 1usize..17,
            sets_log2 in 0u32..3,
            lcr in any::<bool>(),
            stamps in any::<bool>(),
            ops in prop::collection::vec((0u64..96, any::<bool>(), 0u8..3, any::<u8>()), 1..400),
        ) {
            let policy = if lcr { PolicyKind::Lcr } else { PolicyKind::Lru };
            let sets = 1 << sets_log2;
            let outcome = check_against_cache::<u64>(ways, sets, policy, stamps, &ops)
                .and_then(|()| check_against_cache::<u32>(ways, sets, PolicyKind::Lru, stamps, &ops));
            prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }
    }

    #[test]
    fn lcr_with_few_scores_matches_cache_under_many_ties() {
        // Scores 0..3 make rank ties the common case.
        let mut rng = cosmos_common::SplitMix64::new(0x71E5);
        let ops: Vec<_> = (0..20_000)
            .map(|_| {
                let kind = rng.next_below(3) as u8;
                (
                    rng.next_below(64),
                    rng.chance(0.3),
                    kind,
                    rng.next_below(3) as u8,
                )
            })
            .collect();
        for ways in [1, 2, 3, 8, 16] {
            check_against_cache::<u64>(ways, 2, PolicyKind::Lcr, true, &ops).unwrap();
        }
    }

    /// A 2-set x 4-way cache with some history, and its saved state.
    fn saved(policy: PolicyKind) -> (RecencyCache, Value) {
        let mut c = RecencyCache::new(CacheConfig::new(512, 4), policy, false);
        let mut rng = cosmos_common::SplitMix64::new(0x5AFE);
        for _ in 0..300 {
            let (line, write, hint) = op((rng.next_below(24), rng.chance(0.4), 2, 7));
            c.access(line, write, hint);
        }
        let v = c.save_state();
        (c, v)
    }

    /// `v` with its word array edited by `f`.
    fn tamper(v: &Value, f: impl FnOnce(&mut Vec<u64>)) -> Value {
        let mut words = cosmos_common::json::codec::u64_array(v, "words").unwrap();
        f(&mut words);
        let mut v = v.clone();
        let Value::Object(m) = &mut v else {
            panic!("saved state is an object")
        };
        m.insert("words", cosmos_common::json::codec::from_u64s(words));
        v
    }

    fn load_err(policy: PolicyKind, v: &Value) -> String {
        RecencyCache::new(CacheConfig::new(512, 4), policy, false)
            .load_state(v)
            .expect_err("tampered state must be rejected")
    }

    #[test]
    fn round_trip_continues_identically() {
        for policy in [PolicyKind::Lru, PolicyKind::Lcr] {
            let (mut live, v) = saved(policy);
            let mut restored = RecencyCache::new(CacheConfig::new(512, 4), policy, false);
            restored.load_state(&v).unwrap();
            assert_eq!(restored.save_state(), v);
            let mut rng = cosmos_common::SplitMix64::new(9);
            for i in 0..500 {
                let (line, write, hint) = op((rng.next_below(24), rng.chance(0.4), 1, i as u8));
                let (a, b) = (
                    live.access(line, write, hint),
                    restored.access(line, write, hint),
                );
                assert_eq!(a, b, "{policy:?} access {i}");
            }
            assert_eq!(live.stats(), restored.stats());
        }
    }

    #[test]
    fn load_rejects_line_in_wrong_set() {
        let (_, v) = saved(PolicyKind::Lcr);
        let err = load_err(PolicyKind::Lcr, &tamper(&v, |w| w[0] = 1 << 1));
        assert!(
            err.contains("set 0") && err.contains("belongs to set 1"),
            "{err}"
        );
    }

    #[test]
    fn load_rejects_duplicate_line() {
        let (_, v) = saved(PolicyKind::Lcr);
        let err = load_err(PolicyKind::Lcr, &tamper(&v, |w| w[1] = w[0] ^ DIRTY));
        assert!(err.contains("stored twice"), "{err}");
    }

    #[test]
    fn load_rejects_resident_line_after_empty_way() {
        let (_, v) = saved(PolicyKind::Lru);
        let err = load_err(
            PolicyKind::Lru,
            &tamper(&v, |w| {
                w[3] = EMPTY;
                w[1] = EMPTY;
            }),
        );
        assert!(err.contains("follows the empty way 1"), "{err}");
    }

    #[test]
    fn load_rejects_hint_bits_in_an_lru_store() {
        let (_, v) = saved(PolicyKind::Lcr);
        assert!(v.to_string() != saved(PolicyKind::Lru).1.to_string());
        let err = load_err(PolicyKind::Lru, &v);
        assert!(err.contains("hint bits in an LRU store"), "{err}");
    }

    #[test]
    fn load_rejects_a_score_without_a_hint() {
        let (_, v) = saved(PolicyKind::Lcr);
        let err = load_err(PolicyKind::Lcr, &tamper(&v, |w| w[0] &= !HINT_PRESENT));
        assert!(err.contains("without a hint"), "{err}");
    }

    #[test]
    fn restore_restarts_the_stamps() {
        let mut c = RecencyCache::new(CacheConfig::new(512, 4), PolicyKind::Lru, true);
        for line in 0..20 {
            c.access(LineAddr::new(line), false, None);
        }
        assert_eq!(c.store().access_clock(), 20);
        let v = c.save_state();
        c.load_state(&v).unwrap();
        assert_eq!(c.store().access_clock(), 0);
    }

    #[test]
    fn entries_are_lru_to_mru_within_each_set() {
        let mut s = RecencyStore::<u32>::new(CacheConfig::new(256, 2), PolicyKind::Lru, false);
        for line in [0, 1, 2, 0, 3] {
            s.access(LineAddr::new(line), line == 2, None);
        }
        let entries: Vec<_> = s
            .resident_entries_lru_to_mru()
            .into_iter()
            .map(|(l, d)| (l.index(), d))
            .collect();
        assert_eq!(entries, [(2, true), (0, false), (1, false), (3, false)]);
    }

    #[test]
    #[should_panic(expected = "modulo index")]
    fn rejects_a_keyed_index() {
        let config = CacheConfig::new(512, 2).with_index(crate::IndexKind::Random { key: 1 });
        RecencyStore::<u64>::new(config, PolicyKind::Lru, false);
    }

    #[test]
    #[should_panic(expected = "32-bit words runs LRU over")]
    fn u32_words_reject_lcr() {
        RecencyStore::<u32>::new(CacheConfig::new(512, 2), PolicyKind::Lcr, false);
    }

    /// A 2-set x 4-way `u32` store with some history, saved.
    fn saved_u32() -> Value {
        let mut s = RecencyStore::<u32>::new(CacheConfig::new(512, 4), PolicyKind::Lru, false);
        for line in 0..11 {
            s.access(LineAddr::new(line), line % 3 == 0, None);
        }
        s.save()
    }

    fn load_u32(v: &Value) -> LoadResult {
        RecencyStore::<u32>::new(CacheConfig::new(512, 4), PolicyKind::Lru, false).load(v)
    }

    #[test]
    fn u32_words_save_their_u64_form() {
        let v = saved_u32();
        let mut wide = RecencyStore::<u64>::new(CacheConfig::new(512, 4), PolicyKind::Lru, false);
        for line in 0..11 {
            wide.access(LineAddr::new(line), line % 3 == 0, None);
        }
        assert_eq!(v.to_string(), wide.save().to_string());
        let mut restored =
            RecencyStore::<u32>::new(CacheConfig::new(512, 4), PolicyKind::Lru, false);
        restored.load(&v).unwrap();
        assert_eq!(restored.save().to_string(), v.to_string());
    }

    #[test]
    fn u32_restore_rejects_a_line_that_does_not_fit() {
        let words = |v: &Value| -> Vec<u64> {
            let items = v.as_array().expect("saved words are an array");
            items.iter().map(|w| w.as_u64().unwrap()).collect()
        };
        let mut wide = words(&saved_u32());
        // Set 0's MRU word moves to the first line past the u32 bound that
        // still belongs to set 0; a u64 store takes the same word.
        let line = LineAddr::DATA_LIMIT + 1;
        assert_eq!(line % 2, 0);
        wide[0] = line << 1;
        let v = cosmos_common::json::codec::from_u64s(wide);
        let err = load_u32(&v).expect_err("a line past the u32 bound must be rejected");
        assert!(
            err.contains("set 0") && err.contains("does not fit a 32-bit tag word"),
            "{err}"
        );
        RecencyStore::<u64>::new(CacheConfig::new(512, 4), PolicyKind::Lru, false)
            .load(&v)
            .unwrap();
        // The last line below the bound fits.
        let mut wide = words(&saved_u32());
        wide[0] = (LineAddr::DATA_LIMIT - 1) << 1 | 1;
        load_u32(&cosmos_common::json::codec::from_u64s(wide)).unwrap();
    }
}
