//! The generic set-associative cache.
//!
//! Tag state is kept in structure-of-arrays form — one contiguous `u64`
//! tag array (with a sentinel for invalid ways) plus parallel flag/score
//! byte arrays — so the way-lookup scan on the access hot path touches one
//! dense cache line per set instead of striding over fat AoS entries. The
//! two policies on the simulator's hot paths (LRU for most caches, LCR for
//! the COSMOS CTR cache) are dispatched inline through `PolicyImpl`,
//! sharing one recency array; every other policy goes through the boxed
//! [`ReplacementPolicy`] object exactly as before.

use crate::config::CacheConfig;
use crate::policies::{Lcr, Lru, PolicyKind, ReplacementPolicy, WayView};
use crate::stats::CacheStats;
use cosmos_common::json::Value;
use cosmos_common::state::{self, LoadResult, State};
use cosmos_common::LineAddr;

/// An RL-provided locality annotation attached to a cached line, used by the
/// LCR replacement policy (paper §4.3: a 1-bit flag + 8-bit score per line).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LocalityHint {
    /// `true` = predicted good locality.
    pub good: bool,
    /// Quantized Q-value magnitude backing the prediction (0–255).
    pub score: u8,
}

/// What happened to an evicted line.
///
/// Besides the line and its dirtiness, an eviction carries the victim's
/// recency provenance off the cache's access clock — when it was filled,
/// when it was last touched, and whether the chosen victim deviates from
/// what strict LRU would have picked. These stamps are identical whichever
/// dispatch path (inline or boxed) selected the victim: they come from
/// cache-owned state, not from the policy object. A
/// [`RecencyStore`](crate::RecencyStore) built without stamps reports
/// them as 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Eviction {
    /// The line that was evicted.
    pub line: LineAddr,
    /// Whether it was dirty (needs a writeback).
    pub dirty: bool,
    /// Access-clock value when the victim was (last) filled.
    pub fill_at: u64,
    /// Access-clock value when the victim was last touched.
    pub last_touch_at: u64,
    /// Whether the victim differs from the least-recently-touched way of
    /// its set — `true` marks a policy-steered (non-LRU) choice.
    pub lru_deviated: bool,
}

/// The line an access pushed out and whether it was dirty: what the
/// secure path's correctness observers see of an eviction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Victim {
    /// The line that was evicted.
    pub line: LineAddr,
    /// Whether it was dirty (needs a writeback).
    pub dirty: bool,
}

impl From<Eviction> for Victim {
    fn from(ev: Eviction) -> Self {
        Self {
            line: ev.line,
            dirty: ev.dirty,
        }
    }
}

/// Result of a cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the access hit.
    pub hit: bool,
    /// A line evicted to make room (only possible on a miss fill).
    pub evicted: Option<Eviction>,
    /// Whether the hit line had been brought in by a prefetch and this is
    /// its first demand use.
    pub first_use_of_prefetch: bool,
}

/// Sentinel tag for an invalid way. `CacheConfig::tag_of` returns the full
/// line index, and line indices stay far below `u64::MAX` (metadata tops
/// out under 2^43), so the sentinel can never collide with a real tag.
const INVALID_TAG: u64 = u64::MAX;

/// Per-way flag bits (parallel to the tag array).
const F_DIRTY: u8 = 1 << 0;
const F_PREFETCHED: u8 = 1 << 1;
const F_DEMAND_USED: u8 = 1 << 2;
const F_HINT_PRESENT: u8 = 1 << 3;
const F_HINT_GOOD: u8 = 1 << 4;

/// Replacement-policy dispatch: the two hot policies are inlined (no
/// virtual calls, no `WayView` materialization); everything else keeps the
/// boxed trait object. Recency state (clock and per-way stamps) is owned
/// by the [`Cache`] itself and maintained for *every* policy, so eviction
/// provenance and LRU-deviation flags are policy-independent.
enum PolicyImpl {
    /// True LRU, equivalent to [`Lru`].
    Lru,
    /// Locality-Centric Replacement, equivalent to [`Lcr`].
    Lcr,
    /// Any other policy, behind the trait object.
    Boxed(Box<dyn ReplacementPolicy>),
}

impl PolicyImpl {
    fn name(&self) -> &'static str {
        match self {
            PolicyImpl::Lru => "LRU",
            PolicyImpl::Lcr => "LCR",
            PolicyImpl::Boxed(p) => p.name(),
        }
    }
}

/// Saved by name. Only the inline policies can be saved: a boxed policy
/// keeps private state behind the trait object.
impl State for PolicyImpl {
    fn savable(&self) -> LoadResult {
        match self {
            PolicyImpl::Boxed(p) => Err(format!("cannot snapshot boxed policy `{}`", p.name())),
            _ => Ok(()),
        }
    }

    fn save(&self) -> Value {
        self.name().into()
    }

    fn load(&mut self, v: &Value) -> LoadResult {
        state::same(self, v)
    }
}

/// A set-associative cache with a pluggable replacement policy.
///
/// The cache is *line-granular*: callers pass [`LineAddr`]s. It models tag
/// state only (no data payload — the functional secure-memory layer keeps
/// payloads in its own store).
///
/// # Examples
///
/// ```
/// use cosmos_cache::{Cache, CacheConfig, PolicyKind};
/// use cosmos_common::LineAddr;
/// let mut c = Cache::new(CacheConfig::new(8192, 2), PolicyKind::Lru);
/// c.access(LineAddr::new(1), true, None);
/// assert!(c.contains(LineAddr::new(1)));
/// ```
pub struct Cache {
    config: CacheConfig,
    /// Per-way tags ([`INVALID_TAG`] = empty way), SoA with `flags`/`scores`.
    tags: Vec<u64>,
    flags: Vec<u8>,
    /// Locality-hint scores (meaningful only where `F_HINT_PRESENT` is set).
    scores: Vec<u8>,
    policy: PolicyImpl,
    stats: CacheStats,
    /// Logical access clock: +1 per touch (hit or fill). Drives the
    /// cache-owned recency stamps below for every policy, inline or boxed.
    clock: u64,
    /// Per-way last-touch stamps off `clock` (0 = never touched).
    last_touch: Vec<u64>,
    /// Per-way fill stamps off `clock` (the touch that installed the line).
    fill_at: Vec<u64>,
    /// Valid-line count, maintained on fill/invalidate so `occupancy` is
    /// O(1) instead of a scan over every line.
    occupied: usize,
    /// Reusable victim-selection buffer for boxed policies: `fill_internal`
    /// runs on every miss, and rebuilding a fresh `Vec<WayView>` per
    /// eviction was the hottest allocation in the simulator.
    scratch: Vec<WayView>,
}

// Tags, flag bits, hint scores, recency stamps and statistics: the whole
// replacement-visible state. The victim scratch buffer is empty between
// accesses.
cosmos_common::state! {
    #[check(Self::check_occupancy)]
    Cache -> Result { policy, tags, flags, scores, occupied, clock, last_touch, fill_at, stats }
}

impl core::fmt::Debug for Cache {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Cache")
            .field("config", &self.config)
            .field("policy", &self.policy.name())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Cache {
    /// Creates a cache with the given geometry and replacement policy.
    pub fn new(config: CacheConfig, policy: PolicyKind) -> Self {
        let policy = match policy {
            PolicyKind::Lru => PolicyImpl::Lru,
            PolicyKind::Lcr => PolicyImpl::Lcr,
            other => PolicyImpl::Boxed(other.build(config.num_sets(), config.ways())),
        };
        Self::with_impl(config, policy)
    }

    /// Creates a cache with a custom policy object.
    pub fn with_policy(config: CacheConfig, policy: Box<dyn ReplacementPolicy>) -> Self {
        Self::with_impl(config, PolicyImpl::Boxed(policy))
    }

    fn with_impl(config: CacheConfig, policy: PolicyImpl) -> Self {
        assert!(
            config.index().is_uniform() || !matches!(policy, PolicyImpl::Boxed(_)),
            "skewed-associative indexing supports the inline LRU/LCR policies only \
             (boxed policies reason in set/way coordinates that skewing breaks)"
        );
        Self {
            config,
            tags: vec![INVALID_TAG; config.num_lines()],
            flags: vec![0; config.num_lines()],
            scores: vec![0; config.num_lines()],
            policy,
            stats: CacheStats::default(),
            clock: 0,
            last_touch: vec![0; config.num_lines()],
            fill_at: vec![0; config.num_lines()],
            occupied: 0,
            scratch: Vec::with_capacity(config.ways()),
        }
    }

    /// Advances the access clock and stamps way `idx` as just touched.
    #[inline]
    fn touch(&mut self, idx: usize) {
        self.clock += 1;
        self.last_touch[idx] = self.clock;
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Non-modifying presence check (no LRU update, no stats).
    pub fn contains(&self, line: LineAddr) -> bool {
        if self.config.index().is_uniform() {
            self.find_way(line).is_some()
        } else {
            self.find_slot_skewed(line.index(), self.config.tag_of(line.index()))
                .is_some()
        }
    }

    /// Performs a demand access: on hit, updates recency; on miss, fills the
    /// line (evicting if needed) and returns the eviction.
    ///
    /// `hint` attaches/refreshes an RL locality annotation (LCR policy); it
    /// is stored on fill and refreshed on hit when provided.
    // cosmos-lint: hot
    pub fn access(
        &mut self,
        line: LineAddr,
        write: bool,
        hint: Option<LocalityHint>,
    ) -> AccessResult {
        let tag = self.config.tag_of(line.index());
        if !self.config.index().is_uniform() {
            return self.access_skewed(line, tag, write, hint);
        }
        let set = self.config.set_of(line.index());
        let base = set * self.config.ways();
        if let Some(way) = self.find_way_in_set(base, tag) {
            let first_use = self.hit_at(base + way, write, hint);
            if let PolicyImpl::Boxed(p) = &mut self.policy {
                p.on_hit(set, way, line);
            }
            return AccessResult {
                hit: true,
                evicted: None,
                first_use_of_prefetch: first_use,
            };
        }
        self.stats.demand.miss();
        let evicted = self.fill_internal(set, tag, line, write, hint, false);
        AccessResult {
            hit: false,
            evicted,
            first_use_of_prefetch: false,
        }
    }

    /// Hit-path bookkeeping shared by the uniform and skewed lookup paths:
    /// flag/score updates, demand-hit statistics, and the recency touch.
    /// Returns whether this was the first demand use of a prefetched line.
    // cosmos-lint: hot
    #[inline]
    fn hit_at(&mut self, idx: usize, write: bool, hint: Option<LocalityHint>) -> bool {
        let f = self.flags[idx];
        let first_use = f & F_PREFETCHED != 0 && f & F_DEMAND_USED == 0;
        let mut nf = f | F_DEMAND_USED;
        if write {
            nf |= F_DIRTY;
        }
        if let Some(h) = hint {
            nf |= F_HINT_PRESENT;
            if h.good {
                nf |= F_HINT_GOOD;
            } else {
                nf &= !F_HINT_GOOD;
            }
            self.scores[idx] = h.score;
        }
        self.flags[idx] = nf;
        self.stats.demand.hit();
        if first_use {
            self.stats.prefetch_useful += 1;
        }
        self.touch(idx);
        first_use
    }

    /// Inserts a line brought in by a prefetch (no demand hit/miss counted).
    ///
    /// Returns the eviction caused, if any. A line already present is left
    /// untouched (the prefetch is redundant and counted as such).
    pub fn prefetch_fill(
        &mut self,
        line: LineAddr,
        hint: Option<LocalityHint>,
    ) -> Option<Eviction> {
        let tag = self.config.tag_of(line.index());
        if !self.config.index().is_uniform() {
            if self.find_slot_skewed(line.index(), tag).is_some() {
                self.stats.prefetch_redundant += 1;
                return None;
            }
            self.stats.prefetch_issued += 1;
            return self.fill_skewed(line, tag, false, hint, true);
        }
        let set = self.config.set_of(line.index());
        let base = set * self.config.ways();
        if self.find_way_in_set(base, tag).is_some() {
            self.stats.prefetch_redundant += 1;
            return None;
        }
        self.stats.prefetch_issued += 1;
        self.fill_internal(set, tag, line, false, hint, true)
    }

    /// Removes a line if present; returns whether it was dirty.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<bool> {
        let tag = self.config.tag_of(line.index());
        let idx = if self.config.index().is_uniform() {
            let set = self.config.set_of(line.index());
            let base = set * self.config.ways();
            let way = self.find_way_in_set(base, tag)?;
            let idx = base + way;
            let reused = self.flags[idx] & F_DEMAND_USED != 0;
            if let PolicyImpl::Boxed(p) = &mut self.policy {
                p.on_evict(set, way, line, reused);
            }
            idx
        } else {
            self.find_slot_skewed(line.index(), tag)?
        };
        let dirty = self.flags[idx] & F_DIRTY != 0;
        self.tags[idx] = INVALID_TAG;
        self.flags[idx] = 0;
        self.scores[idx] = 0;
        self.occupied -= 1;
        Some(dirty)
    }

    /// Number of valid lines currently cached (O(1): maintained on
    /// fill/invalidate rather than scanned).
    pub fn occupancy(&self) -> usize {
        self.occupied
    }

    /// Iterates over all valid resident lines.
    pub fn resident_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.tags
            .iter()
            .filter(|&&t| t != INVALID_TAG)
            .map(|&t| LineAddr::new(t))
    }

    /// The cache's logical access clock: one tick per touch (hit or
    /// fill). Eviction stamps ([`Eviction::fill_at`] /
    /// [`Eviction::last_touch_at`]) are values of this clock, so callers
    /// can relate accesses and evictions on one deterministic timeline.
    pub fn access_clock(&self) -> u64 {
        self.clock
    }

    /// Resident lines with their dirty bits, ordered least- to
    /// most-recently touched — the priming order for shadow models
    /// attached to a restored simulator. Boxed policies are rejected like
    /// in [`Cache::save_state`] (their victim choice may not follow the
    /// cache-owned stamps).
    pub fn resident_entries_lru_to_mru(&self) -> Result<Vec<(LineAddr, bool)>, String> {
        if let PolicyImpl::Boxed(p) = &self.policy {
            return Err(format!(
                "recency ordering unavailable for boxed replacement policy `{}`",
                p.name()
            ));
        }
        let mut entries: Vec<(u64, LineAddr, bool)> = self
            .tags
            .iter()
            .enumerate()
            .filter(|(_, &t)| t != INVALID_TAG)
            .map(|(idx, &t)| {
                (
                    self.last_touch[idx],
                    LineAddr::new(t),
                    self.flags[idx] & F_DIRTY != 0,
                )
            })
            .collect();
        entries.sort_unstable_by_key(|&(touch, _, _)| touch);
        Ok(entries
            .into_iter()
            .map(|(_, line, dirty)| (line, dirty))
            .collect())
    }

    /// A restored tag array's valid lines must match its saved occupancy.
    fn check_occupancy(&self) -> LoadResult {
        let saved = self.occupied;
        let valid = self.tags.iter().filter(|&&t| t != INVALID_TAG).count();
        match saved == valid {
            true => Ok(()),
            false => Err(format!("occupancy {saved}, but {valid} tags are valid")),
        }
    }

    fn find_way(&self, line: LineAddr) -> Option<usize> {
        let set = self.config.set_of(line.index());
        let tag = self.config.tag_of(line.index());
        self.find_way_in_set(set * self.config.ways(), tag)
    }

    /// Way lookup with the set/tag decomposition already done — the public
    /// entry points compute `set`/`tag` exactly once and share them with
    /// the fill path instead of re-deriving them per lookup. Invalid ways
    /// hold [`INVALID_TAG`], which no real line can equal, so the scan is a
    /// single branch-free compare per way over one dense array.
    #[inline]
    fn find_way_in_set(&self, base: usize, tag: u64) -> Option<usize> {
        let set = &self.tags[base..base + self.config.ways()];
        set.iter().position(|&t| t == tag)
    }

    /// The locality hint stored at `idx`, if any (test observability).
    #[cfg(test)]
    fn hint_at(&self, idx: usize) -> Option<LocalityHint> {
        (self.flags[idx] & F_HINT_PRESENT != 0).then(|| LocalityHint {
            good: self.flags[idx] & F_HINT_GOOD != 0,
            score: self.scores[idx],
        })
    }

    // cosmos-lint: hot
    fn fill_internal(
        &mut self,
        set: usize,
        tag: u64,
        line: LineAddr,
        write: bool,
        hint: Option<LocalityHint>,
        prefetched: bool,
    ) -> Option<Eviction> {
        let ways = self.config.ways();
        let base = set * ways;
        // Prefer an invalid way.
        let invalid = self.tags[base..base + ways]
            .iter()
            .position(|&t| t == INVALID_TAG);
        let (way, eviction) = match invalid {
            Some(w) => {
                self.occupied += 1;
                (w, None)
            }
            None => {
                let victim = self.choose_victim(set, base, ways);
                debug_assert!(victim < ways, "victim way {victim} >= {ways}");
                // A victim other than the way strict LRU would evict is a
                // policy deviation. The LRU arm chose exactly that way.
                let lru_deviated = match self.policy {
                    PolicyImpl::Lru => false,
                    _ => victim != self.lru_way(base, ways),
                };
                let idx = base + victim;
                let reused = self.flags[idx] & F_DEMAND_USED != 0;
                let victim_line = LineAddr::new(self.tags[idx]);
                if let PolicyImpl::Boxed(p) = &mut self.policy {
                    p.on_evict(set, victim, victim_line, reused);
                }
                let ev = self.evict_bookkeeping(idx, lru_deviated);
                (victim, Some(ev))
            }
        };
        let idx = base + way;
        self.install_at(idx, tag, write, hint, prefetched);
        if let PolicyImpl::Boxed(p) = &mut self.policy {
            p.on_fill(set, way, line, hint);
        }
        eviction
    }

    /// Eviction bookkeeping shared by the uniform and skewed fill paths:
    /// builds the [`Eviction`] record off the cache-owned stamps and
    /// updates eviction/writeback/prefetch statistics. Does not clear the
    /// slot — the caller overwrites it with the incoming line.
    // cosmos-lint: hot
    fn evict_bookkeeping(&mut self, idx: usize, lru_deviated: bool) -> Eviction {
        let ev = Eviction {
            line: LineAddr::new(self.tags[idx]),
            dirty: self.flags[idx] & F_DIRTY != 0,
            fill_at: self.fill_at[idx],
            last_touch_at: self.last_touch[idx],
            lru_deviated,
        };
        let reused = self.flags[idx] & F_DEMAND_USED != 0;
        if self.flags[idx] & F_PREFETCHED != 0 && !reused {
            self.stats.prefetch_unused += 1;
        }
        self.stats.evictions += 1;
        if ev.dirty {
            self.stats.writebacks += 1;
        }
        ev
    }

    /// Writes the incoming line's tag, flags, hint score, and recency
    /// stamps into slot `idx` — the common tail of every fill path.
    // cosmos-lint: hot
    #[inline]
    fn install_at(
        &mut self,
        idx: usize,
        tag: u64,
        write: bool,
        hint: Option<LocalityHint>,
        prefetched: bool,
    ) {
        self.tags[idx] = tag;
        let mut f = if write { F_DIRTY } else { 0 };
        if prefetched {
            f |= F_PREFETCHED;
        } else {
            f |= F_DEMAND_USED;
        }
        if let Some(h) = hint {
            f |= F_HINT_PRESENT;
            if h.good {
                f |= F_HINT_GOOD;
            }
            self.scores[idx] = h.score;
        } else {
            self.scores[idx] = 0;
        }
        self.flags[idx] = f;
        self.touch(idx);
        self.fill_at[idx] = self.clock;
    }

    /// The least-recently-touched way of the set at `base`: the first
    /// minimum of the cache-owned stamps, matching `Iterator::min_by_key`.
    // cosmos-lint: hot
    #[inline]
    fn lru_way(&self, base: usize, ways: usize) -> usize {
        let touches = &self.last_touch[base..base + ways];
        let mut best = 0;
        for (w, &t) in touches.iter().enumerate().skip(1) {
            if t < touches[best] {
                best = w;
            }
        }
        best
    }

    /// Victim selection for a full set. The inline LRU/LCR arms reproduce
    /// [`Lru::choose_victim`] / [`Lcr::choose_victim`] decision-for-decision
    /// (first-minimum tie-breaks and all) straight off the SoA arrays;
    /// boxed policies get the same `WayView` scratch slice as before.
    // cosmos-lint: hot
    fn choose_victim(&mut self, set: usize, base: usize, ways: usize) -> usize {
        match &mut self.policy {
            PolicyImpl::Lru => self.lru_way(base, ways),
            PolicyImpl::Lcr => {
                // Paper Algorithm 2 with LRU tie-breaks: highest-score bad
                // line first; if all good, lowest-score good line.
                // Unannotated ways count as bad with score 0.
                let mut best_bad: Option<(usize, u8, u64)> = None; // way, score, touch
                let mut best_good: Option<(usize, u8, u64)> = None;
                for w in 0..ways {
                    let idx = base + w;
                    let f = self.flags[idx];
                    let (good, score) = if f & F_HINT_PRESENT != 0 {
                        (f & F_HINT_GOOD != 0, self.scores[idx])
                    } else {
                        (false, 0)
                    };
                    let touch = self.last_touch[idx];
                    let cand = (w, score, touch);
                    if good {
                        // Lowest good score; tie -> older (smaller touch).
                        best_good = Some(match best_good {
                            None => cand,
                            Some(cur) if (score, touch) < (cur.1, cur.2) => cand,
                            Some(cur) => cur,
                        });
                    } else {
                        // Highest bad score; tie -> older.
                        best_bad = Some(match best_bad {
                            None => cand,
                            Some(cur)
                                if (core::cmp::Reverse(score), touch)
                                    < (core::cmp::Reverse(cur.1), cur.2) =>
                            {
                                cand
                            }
                            Some(cur) => cur,
                        });
                    }
                }
                best_bad
                    .or(best_good)
                    .map(|(w, _, _)| w)
                    .expect("victim search ran over a full set; every way is a candidate")
            }
            PolicyImpl::Boxed(p) => {
                self.scratch.clear();
                for w in 0..ways {
                    let idx = base + w;
                    self.scratch.push(WayView {
                        line: LineAddr::new(self.tags[idx]),
                        hint: (self.flags[idx] & F_HINT_PRESENT != 0).then(|| LocalityHint {
                            good: self.flags[idx] & F_HINT_GOOD != 0,
                            score: self.scores[idx],
                        }),
                        dirty: self.flags[idx] & F_DIRTY != 0,
                        demand_used: self.flags[idx] & F_DEMAND_USED != 0,
                    });
                }
                let victim = p.choose_victim(set, &self.scratch);
                assert!(victim < ways, "policy returned way {victim} >= {ways}");
                victim
            }
        }
    }

    // --- Skewed-associative paths (DESIGN.md §16) -----------------------
    //
    // Under `IndexKind::Skewed` a line's candidate slots lie in a
    // different set per way, so the contiguous `base..base+ways` slot row
    // the uniform paths scan does not exist. These paths walk the `ways`
    // candidate slots individually (re-hashing per way — splitmix64 is a
    // handful of arithmetic ops, cheaper than materializing a slot list)
    // and reuse the shared hit/install/evict bookkeeping, so statistics
    // and eviction provenance are identical between index kinds.

    /// Flat slot index of way `way`'s candidate slot for a line.
    #[inline]
    fn slot_of_way(&self, line_index: u64, way: usize) -> usize {
        self.config.set_of_way(line_index, way) * self.config.ways() + way
    }

    /// Looks a line up across its per-way candidate slots.
    // cosmos-lint: hot
    #[inline]
    fn find_slot_skewed(&self, line_index: u64, tag: u64) -> Option<usize> {
        for w in 0..self.config.ways() {
            let idx = self.slot_of_way(line_index, w);
            if self.tags[idx] == tag {
                return Some(idx);
            }
        }
        None
    }

    /// Demand access under skewed indexing.
    // cosmos-lint: hot
    fn access_skewed(
        &mut self,
        line: LineAddr,
        tag: u64,
        write: bool,
        hint: Option<LocalityHint>,
    ) -> AccessResult {
        if let Some(idx) = self.find_slot_skewed(line.index(), tag) {
            let first_use = self.hit_at(idx, write, hint);
            return AccessResult {
                hit: true,
                evicted: None,
                first_use_of_prefetch: first_use,
            };
        }
        self.stats.demand.miss();
        let evicted = self.fill_skewed(line, tag, write, hint, false);
        AccessResult {
            hit: false,
            evicted,
            first_use_of_prefetch: false,
        }
    }

    /// Fill under skewed indexing: prefer an invalid candidate slot (first
    /// way wins, mirroring the uniform fill's invalid-way preference),
    /// otherwise evict the policy's pick among the candidate slots.
    // cosmos-lint: hot
    fn fill_skewed(
        &mut self,
        line: LineAddr,
        tag: u64,
        write: bool,
        hint: Option<LocalityHint>,
        prefetched: bool,
    ) -> Option<Eviction> {
        let ways = self.config.ways();
        let mut invalid = None;
        for w in 0..ways {
            let idx = self.slot_of_way(line.index(), w);
            if self.tags[idx] == INVALID_TAG {
                invalid = Some(idx);
                break;
            }
        }
        let (idx, eviction) = match invalid {
            Some(idx) => {
                self.occupied += 1;
                (idx, None)
            }
            None => {
                let victim = self.choose_victim_skewed(line.index());
                // Least-recently-touched candidate slot: the skewed
                // analogue of the strict-LRU reference way.
                let mut lru_slot = self.slot_of_way(line.index(), 0);
                for w in 1..ways {
                    let s = self.slot_of_way(line.index(), w);
                    if self.last_touch[s] < self.last_touch[lru_slot] {
                        lru_slot = s;
                    }
                }
                let ev = self.evict_bookkeeping(victim, victim != lru_slot);
                (victim, Some(ev))
            }
        };
        self.install_at(idx, tag, write, hint, prefetched);
        eviction
    }

    /// Victim selection among a line's candidate slots — the same LRU/LCR
    /// decisions as [`Cache::choose_victim`], ranged over per-way slots
    /// instead of a contiguous set. Boxed policies are rejected at
    /// construction for skewed caches, so only the inline arms exist.
    // cosmos-lint: hot
    fn choose_victim_skewed(&self, line_index: u64) -> usize {
        let ways = self.config.ways();
        match &self.policy {
            PolicyImpl::Lru => {
                let mut best = self.slot_of_way(line_index, 0);
                for w in 1..ways {
                    let idx = self.slot_of_way(line_index, w);
                    if self.last_touch[idx] < self.last_touch[best] {
                        best = idx;
                    }
                }
                best
            }
            PolicyImpl::Lcr => {
                // Paper Algorithm 2 with LRU tie-breaks, as in the uniform
                // arm: highest-score bad line first; if all good, lowest-
                // score good line. Unannotated slots count as bad, score 0.
                let mut best_bad: Option<(usize, u8, u64)> = None; // slot, score, touch
                let mut best_good: Option<(usize, u8, u64)> = None;
                for w in 0..ways {
                    let idx = self.slot_of_way(line_index, w);
                    let f = self.flags[idx];
                    let (good, score) = if f & F_HINT_PRESENT != 0 {
                        (f & F_HINT_GOOD != 0, self.scores[idx])
                    } else {
                        (false, 0)
                    };
                    let touch = self.last_touch[idx];
                    let cand = (idx, score, touch);
                    if good {
                        best_good = Some(match best_good {
                            None => cand,
                            Some(cur) if (score, touch) < (cur.1, cur.2) => cand,
                            Some(cur) => cur,
                        });
                    } else {
                        best_bad = Some(match best_bad {
                            None => cand,
                            Some(cur)
                                if (core::cmp::Reverse(score), touch)
                                    < (core::cmp::Reverse(cur.1), cur.2) =>
                            {
                                cand
                            }
                            Some(cur) => cur,
                        });
                    }
                }
                best_bad
                    .or(best_good)
                    .map(|(idx, _, _)| idx)
                    .expect("victim search ran over the candidate slots; every slot is a candidate")
            }
            #[expect(
                clippy::unreachable,
                reason = "skewed construction rejects boxed policies, so this arm is dead by invariant"
            )]
            PolicyImpl::Boxed(_) => {
                // cosmos-lint: allow(H4): skewed construction rejects boxed policies, so this arm is dead by invariant
                unreachable!("skewed caches reject boxed policies at construction")
            }
        }
    }
}

/// The reference (boxed) implementations the inline arms must match: used
/// by the equivalence tests below and available to callers via
/// [`Cache::with_policy`].
pub fn reference_policy(kind: PolicyKind, sets: usize, ways: usize) -> Box<dyn ReplacementPolicy> {
    match kind {
        PolicyKind::Lru => Box::new(Lru::new(sets, ways)),
        PolicyKind::Lcr => Box::new(Lcr::new(sets, ways)),
        other => other.build(sets, ways),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_lru() -> Cache {
        // 4 sets x 2 ways.
        Cache::new(CacheConfig::new(512, 2), PolicyKind::Lru)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small_lru();
        let r = c.access(LineAddr::new(0), false, None);
        assert!(!r.hit);
        let r = c.access(LineAddr::new(0), false, None);
        assert!(r.hit);
        assert_eq!(c.stats().demand.hits(), 1);
        assert_eq!(c.stats().demand.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small_lru();
        // Set 0 holds lines 0, 4, 8, ... (4 sets).
        c.access(LineAddr::new(0), false, None);
        c.access(LineAddr::new(4), false, None);
        c.access(LineAddr::new(0), false, None); // 0 is now MRU
        let r = c.access(LineAddr::new(8), false, None); // evicts 4
        assert_eq!(r.evicted.unwrap().line, LineAddr::new(4));
        assert!(c.contains(LineAddr::new(0)));
        assert!(!c.contains(LineAddr::new(4)));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small_lru();
        c.access(LineAddr::new(0), true, None);
        c.access(LineAddr::new(4), false, None);
        let r = c.access(LineAddr::new(8), false, None);
        let ev = r.evicted.unwrap();
        assert_eq!(ev.line, LineAddr::new(0));
        assert!(ev.dirty);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small_lru();
        c.access(LineAddr::new(0), false, None);
        c.access(LineAddr::new(0), true, None);
        assert_eq!(c.invalidate(LineAddr::new(0)), Some(true));
    }

    #[test]
    fn invalidate_absent_line() {
        let mut c = small_lru();
        assert_eq!(c.invalidate(LineAddr::new(3)), None);
    }

    #[test]
    fn prefetch_fill_and_first_use() {
        let mut c = small_lru();
        assert!(c.prefetch_fill(LineAddr::new(12), None).is_none());
        assert_eq!(c.stats().prefetch_issued, 1);
        let r = c.access(LineAddr::new(12), false, None);
        assert!(r.hit);
        assert!(r.first_use_of_prefetch);
        assert_eq!(c.stats().prefetch_useful, 1);
        // Second use is not a "first use".
        let r = c.access(LineAddr::new(12), false, None);
        assert!(!r.first_use_of_prefetch);
    }

    #[test]
    fn redundant_prefetch_counted() {
        let mut c = small_lru();
        c.access(LineAddr::new(3), false, None);
        c.prefetch_fill(LineAddr::new(3), None);
        assert_eq!(c.stats().prefetch_redundant, 1);
        assert_eq!(c.stats().prefetch_issued, 0);
    }

    #[test]
    fn unused_prefetch_counted_on_eviction() {
        let mut c = small_lru();
        c.prefetch_fill(LineAddr::new(0), None);
        c.access(LineAddr::new(4), false, None);
        c.access(LineAddr::new(8), false, None); // evicts one of them
        c.access(LineAddr::new(12), false, None); // evicts the other
        assert_eq!(c.stats().prefetch_unused, 1);
    }

    #[test]
    fn occupancy_is_bounded_by_capacity() {
        let mut c = small_lru();
        for i in 0..100 {
            c.access(LineAddr::new(i), false, None);
        }
        assert_eq!(c.occupancy(), 8);
    }

    #[test]
    fn occupancy_counter_matches_scan() {
        let scan = |c: &Cache| c.tags.iter().filter(|&&t| t != INVALID_TAG).count();
        let mut c = small_lru();
        assert_eq!(c.occupancy(), 0);
        // Mixed fills, prefetches, invalidations, and evictions.
        for i in 0..6 {
            c.access(LineAddr::new(i), i % 2 == 0, None);
            assert_eq!(c.occupancy(), scan(&c));
        }
        c.prefetch_fill(LineAddr::new(20), None);
        assert_eq!(c.occupancy(), scan(&c));
        c.invalidate(LineAddr::new(2));
        c.invalidate(LineAddr::new(2)); // absent: no change
        assert_eq!(c.occupancy(), scan(&c));
        for i in 0..64 {
            c.access(LineAddr::new(100 + i), false, None);
        }
        assert_eq!(c.occupancy(), scan(&c));
        assert_eq!(c.occupancy(), 8); // full again after the sweep
    }

    #[test]
    fn contains_does_not_touch_stats() {
        let mut c = small_lru();
        c.access(LineAddr::new(0), false, None);
        let before = *c.stats();
        assert!(c.contains(LineAddr::new(0)));
        assert!(!c.contains(LineAddr::new(99)));
        assert_eq!(*c.stats(), before);
    }

    #[test]
    fn hint_stored_and_refreshed() {
        let mut c = small_lru();
        let h1 = LocalityHint {
            good: true,
            score: 10,
        };
        c.access(LineAddr::new(0), false, Some(h1));
        // Hit without hint keeps the old one; hit with hint refreshes.
        c.access(LineAddr::new(0), false, None);
        assert_eq!(c.hint_at(0), Some(h1));
        let h2 = LocalityHint {
            good: false,
            score: 99,
        };
        c.access(LineAddr::new(0), false, Some(h2));
        assert_eq!(c.hint_at(0), Some(h2));
        assert!(c.contains(LineAddr::new(0)));
    }

    /// Drives an inline-policy cache and a boxed reference cache through an
    /// identical access stream and asserts every externally visible outcome
    /// (hit/miss, evicted line, dirtiness, stats) matches.
    fn assert_equivalent_to_boxed(kind: PolicyKind, seed: u64) {
        let cfg = CacheConfig::new(2048, 4); // 8 sets x 4 ways
        let mut fast = Cache::new(cfg, kind);
        let mut refc = Cache::with_policy(cfg, reference_policy(kind, cfg.num_sets(), cfg.ways()));
        assert!(
            !matches!(fast.policy, PolicyImpl::Boxed(_)),
            "{kind:?} must take the inline path"
        );
        let mut rng = cosmos_common::SplitMix64::new(seed);
        for i in 0..20_000u64 {
            let line = LineAddr::new(rng.next_index(96) as u64);
            let write = rng.chance(0.3);
            let hint = rng.chance(0.5).then(|| LocalityHint {
                good: rng.chance(0.5),
                score: rng.next_index(256) as u8,
            });
            let a = fast.access(line, write, hint);
            let b = refc.access(line, write, hint);
            assert_eq!(a, b, "access {i} diverged for {kind:?}");
            if rng.chance(0.05) {
                let inv = LineAddr::new(rng.next_index(96) as u64);
                assert_eq!(fast.invalidate(inv), refc.invalidate(inv), "access {i}");
            }
        }
        assert_eq!(fast.stats(), refc.stats());
        assert_eq!(fast.occupancy(), refc.occupancy());
    }

    /// A restored cache must be behaviorally indistinguishable from one that
    /// never stopped: drive two caches through an identical prefix, snapshot
    /// one into a fresh instance, then verify every subsequent access (and
    /// the stats) stay in lockstep.
    fn assert_snapshot_transparent(kind: PolicyKind, seed: u64) {
        let cfg = CacheConfig::new(2048, 4);
        let mut live = Cache::new(cfg, kind);
        let mut rng = cosmos_common::SplitMix64::new(seed);
        let drive = |c: &mut Cache, rng: &mut cosmos_common::SplitMix64| {
            let line = LineAddr::new(rng.next_index(96) as u64);
            let write = rng.chance(0.3);
            let hint = rng.chance(0.5).then(|| LocalityHint {
                good: rng.chance(0.5),
                score: rng.next_index(256) as u8,
            });
            (c.access(line, write, hint), *c.stats())
        };
        for _ in 0..5_000 {
            drive(&mut live, &mut rng);
        }
        let saved = live.save_state().unwrap();
        let mut restored = Cache::new(cfg, kind);
        restored.load_state(&saved).unwrap();
        assert_eq!(restored.occupancy(), live.occupancy());
        let mut rng2 = rng; // identical tail stream for both caches
        for i in 0..5_000 {
            let a = drive(&mut live, &mut rng);
            let b = drive(&mut restored, &mut rng2);
            assert_eq!(a, b, "post-restore access {i} diverged for {kind:?}");
        }
    }

    #[test]
    fn snapshot_restores_lru_exactly() {
        assert_snapshot_transparent(PolicyKind::Lru, 0x5EED);
    }

    #[test]
    fn snapshot_restores_lcr_exactly() {
        assert_snapshot_transparent(PolicyKind::Lcr, 0x5EEE);
    }

    #[test]
    fn snapshot_rejects_mismatch_and_corruption() {
        let cfg = CacheConfig::new(512, 2);
        let mut c = Cache::new(cfg, PolicyKind::Lru);
        c.access(LineAddr::new(1), true, None);
        let saved = c.save_state().unwrap();

        // Policy mismatch.
        let mut lcr = Cache::new(cfg, PolicyKind::Lcr);
        let err = lcr.load_state(&saved).unwrap_err();
        assert!(err.contains("LRU") && err.contains("LCR"), "{err}");

        // Geometry mismatch (different line count).
        let mut small = Cache::new(CacheConfig::new(256, 2), PolicyKind::Lru);
        let err = small.load_state(&saved).unwrap_err();
        assert!(err.contains("length"), "{err}");

        // Corrupted occupancy.
        let mut bad = saved.clone();
        if let cosmos_common::json::Value::Object(m) = &mut bad {
            m.insert("occupied", cosmos_common::json::Value::UInt(7));
        }
        let err = Cache::new(cfg, PolicyKind::Lru)
            .load_state(&bad)
            .unwrap_err();
        assert!(err.contains("occupancy"), "{err}");

        // Boxed policies refuse to snapshot.
        let boxed = Cache::with_policy(cfg, reference_policy(PolicyKind::Lru, 4, 2));
        assert!(boxed.save_state().unwrap_err().contains("boxed"));
    }

    #[test]
    fn inline_lru_matches_boxed_lru() {
        assert_equivalent_to_boxed(PolicyKind::Lru, 0xA11CE);
    }

    #[test]
    fn inline_lcr_matches_boxed_lcr() {
        assert_equivalent_to_boxed(PolicyKind::Lcr, 0xB0B);
    }

    use crate::config::IndexKind;

    /// Exercises the full access/fill/prefetch/invalidate surface under a
    /// non-modulo index and cross-checks the O(1) occupancy counter,
    /// capacity bound, and hit/miss accounting against a scan.
    fn drive_indexed(index: IndexKind, policy: PolicyKind) {
        let cfg = CacheConfig::new(2048, 4).with_index(index); // 8 sets x 4 ways
        let mut c = Cache::new(cfg, policy);
        let scan = |c: &Cache| c.tags.iter().filter(|&&t| t != INVALID_TAG).count();
        // Miss-then-hit on one line.
        assert!(!c.access(LineAddr::new(7), false, None).hit);
        assert!(c.access(LineAddr::new(7), false, None).hit);
        assert!(c.contains(LineAddr::new(7)));
        // A dirty line comes back dirty on invalidate.
        c.access(LineAddr::new(9), true, None);
        assert_eq!(c.invalidate(LineAddr::new(9)), Some(true));
        assert_eq!(c.invalidate(LineAddr::new(9)), None);
        // Prefetch + first demand use.
        assert!(c.prefetch_fill(LineAddr::new(11), None).is_none());
        assert!(
            c.access(LineAddr::new(11), false, None)
                .first_use_of_prefetch
        );
        // Sweep far past capacity: occupancy saturates at num_lines and
        // always matches the scan; every eviction's line was resident.
        let mut rng = cosmos_common::SplitMix64::new(5);
        for i in 0..4_000u64 {
            let line = LineAddr::new(rng.next_below(1 << 20));
            let r = c.access(line, rng.chance(0.3), None);
            if let Some(ev) = r.evicted {
                assert_ne!(ev.line, line, "evicted the line being filled at {i}");
            }
            assert!(c.contains(line), "just-filled line absent at {i}");
            assert_eq!(c.occupancy(), scan(&c), "occupancy drifted at {i}");
        }
        assert_eq!(c.occupancy(), cfg.num_lines());
        let s = c.stats();
        assert_eq!(s.demand.hits() + s.demand.misses(), 4_000 + 4);
    }

    #[test]
    fn random_index_cache_is_well_behaved() {
        drive_indexed(IndexKind::Random { key: 0xFEED }, PolicyKind::Lru);
        drive_indexed(IndexKind::Random { key: 0xFEED }, PolicyKind::Lcr);
    }

    #[test]
    fn skewed_index_cache_is_well_behaved() {
        drive_indexed(IndexKind::Skewed { key: 0xFEED }, PolicyKind::Lru);
        drive_indexed(IndexKind::Skewed { key: 0xFEED }, PolicyKind::Lcr);
    }

    #[test]
    fn random_index_is_a_set_permutation_of_lru_semantics() {
        // Within one set's conflict group the randomized index still runs
        // strict LRU: find lines that collide under the keyed index and
        // check eviction order.
        let cfg = CacheConfig::new(512, 2).with_index(IndexKind::Random { key: 3 });
        let mut c = Cache::new(cfg, PolicyKind::Lru);
        let target = cfg.set_of(0);
        let collide: Vec<u64> = (1..2_000u64).filter(|&l| cfg.set_of(l) == target).collect();
        assert!(collide.len() >= 2, "no colliding lines found");
        c.access(LineAddr::new(0), false, None);
        c.access(LineAddr::new(collide[0]), false, None);
        c.access(LineAddr::new(0), false, None); // line 0 is MRU
        let r = c.access(LineAddr::new(collide[1]), false, None);
        assert_eq!(r.evicted.unwrap().line, LineAddr::new(collide[0]));
        assert!(c.contains(LineAddr::new(0)));
    }

    #[test]
    fn skewed_victim_is_least_recent_candidate_slot() {
        let cfg = CacheConfig::new(2048, 4).with_index(IndexKind::Skewed { key: 9 });
        let mut c = Cache::new(cfg, PolicyKind::Lru);
        // Fill the whole cache so every candidate slot of the next line is
        // valid, then check the eviction matches the oldest candidate.
        let mut line = 0u64;
        while c.occupancy() < cfg.num_lines() {
            c.access(LineAddr::new(line), false, None);
            line += 1;
        }
        let probe = line + 10_000;
        let expect_slot = (0..cfg.ways())
            .map(|w| cfg.set_of_way(probe, w) * cfg.ways() + w)
            .min_by_key(|&idx| c.last_touch[idx])
            .unwrap();
        let expect_line = LineAddr::new(c.tags[expect_slot]);
        let r = c.access(LineAddr::new(probe), false, None);
        let ev = r.evicted.expect("full cache must evict");
        assert_eq!(ev.line, expect_line);
        assert!(!ev.lru_deviated, "LRU never deviates from itself");
    }

    #[test]
    #[should_panic(expected = "skewed-associative")]
    fn skewed_rejects_boxed_policies() {
        let cfg = CacheConfig::new(512, 2).with_index(IndexKind::Skewed { key: 1 });
        let _ = Cache::new(cfg, PolicyKind::Random { seed: 1 });
    }

    #[test]
    fn snapshot_restores_indexed_caches_exactly() {
        for index in [
            IndexKind::Random { key: 0x1234 },
            IndexKind::Skewed { key: 0x1234 },
        ] {
            let cfg = CacheConfig::new(2048, 4).with_index(index);
            let mut live = Cache::new(cfg, PolicyKind::Lru);
            let mut rng = cosmos_common::SplitMix64::new(0xC0DE);
            for _ in 0..3_000 {
                live.access(LineAddr::new(rng.next_below(4096)), rng.chance(0.3), None);
            }
            let saved = live.save_state().unwrap();
            let mut restored = Cache::new(cfg, PolicyKind::Lru);
            restored.load_state(&saved).unwrap();
            let mut rng2 = rng;
            for i in 0..3_000 {
                let line = LineAddr::new(rng.next_below(4096));
                let write = rng.chance(0.3);
                let line2 = LineAddr::new(rng2.next_below(4096));
                let write2 = rng2.chance(0.3);
                assert_eq!(
                    live.access(line, write, None),
                    restored.access(line2, write2, None),
                    "post-restore access {i} diverged under {index:?}"
                );
            }
            assert_eq!(live.stats(), restored.stats());
        }
    }
}
