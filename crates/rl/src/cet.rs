//! The CTR Evaluation Table (CET).
//!
//! An LRU-managed buffer of recent CTR accesses (paper §4.1.1/§4.2,
//! Table 2: 8,192 entries × (64-bit address + 1-bit prediction)). It serves
//! two roles in Algorithm 1:
//!
//! - **Reward oracle**: a new CTR access that finds itself (or a neighbour
//!   within ±32 lines) in the CET demonstrates good locality; a miss
//!   demonstrates bad locality; an eviction demonstrates that the entry was
//!   never re-referenced within the temporal window.
//! - **Bootstrap source**: the TD update bootstraps on the most recent
//!   entry's `(state, action)` (`CET.head` in Algorithm 1).
//!
//! The table is probed and updated on **every** CTR access of the COSMOS-CP
//! designs, so its layout is the predictor hot path. An entry is a 16-byte
//! slot in a flat arena: the line address and the links of an intrusive
//! doubly-linked recency list (head = MRU, tail = LRU victim), with the
//! action in the top bit of one link. Nothing the address determines is
//! stored: an entry's RL state is [`Cet::state_of`] its address, computed
//! when it is evicted or saved, and the head is the newest entry's.
//! Lookup goes through an open-addressing index at a load factor of at
//! most 1/2 (linear probing, splitmix64 hash, backward-shift deletion) —
//! no `HashMap`/`BTreeMap` nodes, no SipHash, no allocation after warm-up.
//! [`Cet::touch`] makes one probe that both answers the hit check and
//! inserts or refreshes the entry.

use crate::locality::Locality;
use cosmos_common::hash::{hash_address, splitmix64};
use cosmos_common::json::Value;
use cosmos_common::state::{self, LoadResult};
use cosmos_common::LineAddr;

/// An entry evicted from the CET (feeds the eviction rewards
/// `R_C_eg` / `R_C_eb`), and the form a snapshot saves an entry in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CetEvicted {
    /// The evicted CTR line address.
    pub addr: u64,
    /// The RL state of the address.
    pub state: usize,
    /// The locality prediction of its latest access.
    pub action: Locality,
}

/// Arena slot: the address plus intrusive recency-list links, the
/// entry's action in the top bit of `older`.
#[derive(Clone, Copy, Debug)]
struct Slot {
    addr: u64,
    /// Next-more-recent slot (`NONE` at the MRU head).
    newer: u32,
    /// Next-less-recent slot (`NONE` at the LRU tail) in the low 31 bits;
    /// [`GOOD`] iff the action is [`Locality::Good`].
    older: u32,
}

/// The action bit of [`Slot::older`].
const GOOD: u32 = 1 << 31;
/// Null link / empty-bucket marker; slot numbers lie below it.
const NONE: u32 = GOOD - 1;

impl Slot {
    #[inline]
    fn older(&self) -> u32 {
        self.older & NONE
    }

    #[inline]
    fn set_older(&mut self, older: u32) {
        self.older = self.older & GOOD | older;
    }

    #[inline]
    fn action(&self) -> Locality {
        match self.older & GOOD != 0 {
            true => Locality::Good,
            false => Locality::Bad,
        }
    }

    #[inline]
    fn set_action(&mut self, action: Locality) {
        self.older = self.older & NONE | if action.is_good() { GOOD } else { 0 };
    }
}

/// LRU table of recent CTR accesses with neighbourhood lookup.
///
/// # Examples
///
/// ```
/// use cosmos_rl::{Cet, Locality};
/// let mut cet = Cet::new(8192, 32, 16384);
/// assert_eq!(cet.touch(1000, Locality::Good), (false, None));
/// assert!(cet.check_nearby(1010)); // within ±32 lines
/// assert!(!cet.check_nearby(2000));
/// assert_eq!(cet.head(), Some((cet.state_of(1000), Locality::Good)));
/// ```
#[derive(Clone, Debug)]
pub struct Cet {
    capacity: usize,
    radius: u64,
    /// Q-table states an address hashes into.
    num_states: usize,
    /// Entry arena; slots are allocated once and recycled via `free`.
    slots: Vec<Slot>,
    /// Open-addressing index: bucket -> arena slot (`NONE` = empty).
    /// Power-of-two sized at ≥ 2× capacity, linear probing.
    index: Vec<u32>,
    mask: usize,
    /// Recency list ends (`NONE` when empty).
    mru: u32,
    lru: u32,
    /// Recycled slot from the last eviction (`NONE` if the arena grows).
    free: u32,
    len: usize,
}

impl Cet {
    /// Creates a CET with `capacity` entries and a ±`radius` neighbourhood,
    /// whose entries' states index a Q-table of `num_states` states.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or not below 2^31 − 2, or if
    /// `num_states` is not a power of two.
    pub fn new(capacity: usize, radius: u64, num_states: usize) -> Self {
        assert!(capacity > 0, "CET must have capacity");
        // One transient extra entry: a touch links the newcomer before the
        // LRU victim is evicted, so occupancy peaks at capacity + 1.
        assert!(
            capacity < NONE as usize - 1,
            "CET capacity {capacity} exceeds its 31-bit slot links"
        );
        assert!(
            num_states.is_power_of_two(),
            "num_states must be a power of two, got {num_states}"
        );
        let buckets = (2 * (capacity + 1)).next_power_of_two();
        Self {
            capacity,
            radius,
            num_states,
            slots: Vec::with_capacity(capacity + 1),
            index: vec![NONE; buckets],
            mask: buckets - 1,
            mru: NONE,
            lru: NONE,
            free: NONE,
            len: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The RL state of CTR line `addr`: its line address hashed into the
    /// Q-table's states.
    #[inline]
    pub fn state_of(&self, addr: u64) -> usize {
        hash_address(LineAddr::new(addr).base(), self.num_states)
    }

    /// The newest entry's `(state, action)` (`CET.head`).
    pub fn head(&self) -> Option<(usize, Locality)> {
        if self.mru == NONE {
            return None;
        }
        let s = &self.slots[self.mru as usize];
        Some((self.state_of(s.addr), s.action()))
    }

    #[inline]
    fn bucket(&self, addr: u64) -> usize {
        splitmix64(addr) as usize & self.mask
    }

    /// The arena slot holding `addr`, if present.
    #[inline]
    fn find(&self, addr: u64) -> Option<u32> {
        let mut b = self.bucket(addr);
        loop {
            let s = self.index[b];
            if s == NONE {
                return None;
            }
            if self.slots[s as usize].addr == addr {
                return Some(s);
            }
            b = (b + 1) & self.mask;
        }
    }

    /// Whether `addr` or any line within ±radius is present.
    pub fn check_nearby(&self, addr: u64) -> bool {
        self.find(addr).is_some() || self.neighbour_present(addr)
    }

    /// Whether any line within ±radius of `addr`, other than `addr`, is
    /// present.
    fn neighbour_present(&self, addr: u64) -> bool {
        (1..=self.radius).any(|d| {
            self.find(addr.wrapping_add(d)).is_some() || self.find(addr.wrapping_sub(d)).is_some()
        })
    }

    /// Unlinks `slot` from the recency list.
    #[inline]
    fn unlink(&mut self, slot: u32) {
        let s = self.slots[slot as usize];
        let (newer, older) = (s.newer, s.older());
        if newer == NONE {
            self.mru = older;
        } else {
            self.slots[newer as usize].set_older(older);
        }
        if older == NONE {
            self.lru = newer;
        } else {
            self.slots[older as usize].newer = newer;
        }
    }

    /// Links `slot` in as the most recent entry.
    #[inline]
    fn push_mru(&mut self, slot: u32) {
        let old_mru = self.mru;
        {
            let s = &mut self.slots[slot as usize];
            s.newer = NONE;
            s.set_older(old_mru);
        }
        if old_mru != NONE {
            self.slots[old_mru as usize].newer = slot;
        }
        self.mru = slot;
        if self.lru == NONE {
            self.lru = slot;
        }
    }

    /// Removes `addr` from the index with backward-shift deletion, keeping
    /// every remaining probe chain unbroken without tombstones.
    fn index_remove(&mut self, addr: u64) {
        let mut b = self.bucket(addr);
        loop {
            let s = self.index[b];
            debug_assert!(s != NONE, "index_remove of absent address");
            if s != NONE && self.slots[s as usize].addr == addr {
                break;
            }
            b = (b + 1) & self.mask;
        }
        let mut hole = b;
        let mut j = b;
        loop {
            j = (j + 1) & self.mask;
            let s = self.index[j];
            if s == NONE {
                break;
            }
            let ideal = self.bucket(self.slots[s as usize].addr);
            // The entry at j may move into the hole iff the hole still lies
            // on its probe path, i.e. its displacement from `ideal` reaches
            // at least as far as the hole.
            let dist_to_j = j.wrapping_sub(ideal) & self.mask;
            let dist_to_hole = j.wrapping_sub(hole) & self.mask;
            if dist_to_j >= dist_to_hole {
                self.index[hole] = s;
                hole = j;
            }
        }
        self.index[hole] = NONE;
    }

    /// Makes `addr` the newest entry, with `action`: refreshes it if it is
    /// present, else inserts it, evicting the LRU entry when the table
    /// overflows. One probe of the index finds the entry or the empty
    /// bucket a new one takes.
    ///
    /// Returns whether `addr` or a line within ±radius was present before
    /// the touch (Algorithm 1's hit check), and the evicted entry. The
    /// neighbours are probed only when `addr` was absent; an evicted
    /// neighbour counts, as it was present before.
    pub fn touch(&mut self, addr: u64, action: Locality) -> (bool, Option<CetEvicted>) {
        let mut b = self.bucket(addr);
        loop {
            let s = self.index[b];
            if s == NONE {
                break;
            }
            if self.slots[s as usize].addr == addr {
                // Refresh: update the action, move to MRU. No eviction.
                self.slots[s as usize].set_action(action);
                self.unlink(s);
                self.push_mru(s);
                return (true, None);
            }
            b = (b + 1) & self.mask;
        }
        let slot = match self.free {
            NONE => {
                self.slots.push(Slot {
                    addr,
                    newer: NONE,
                    older: NONE,
                });
                self.slots.len() as u32 - 1
            }
            free => {
                self.free = NONE;
                self.slots[free as usize].addr = addr;
                free
            }
        };
        self.slots[slot as usize].set_action(action);
        self.index[b] = slot;
        self.push_mru(slot);
        self.len += 1;
        let evicted = (self.len > self.capacity).then(|| self.evict_lru());
        let near = self.radius > 0
            && (evicted.is_some_and(|e| self.within_radius(addr, e.addr))
                || self.neighbour_present(addr));
        (near, evicted)
    }

    /// Whether `other` lies within ±radius of `addr` (wrapping).
    fn within_radius(&self, addr: u64, other: u64) -> bool {
        addr.wrapping_sub(other).min(other.wrapping_sub(addr)) <= self.radius
    }

    /// Evicts the LRU entry, which is not the newest.
    fn evict_lru(&mut self) -> CetEvicted {
        let victim = self.lru;
        debug_assert!(
            victim != NONE && victim != self.mru,
            "LRU victim is the newcomer"
        );
        let v = self.slots[victim as usize];
        self.unlink(victim);
        self.index_remove(v.addr);
        self.free = victim;
        self.len -= 1;
        CetEvicted {
            addr: v.addr,
            state: self.state_of(v.addr),
            action: v.action(),
        }
    }

    /// The entries in LRU→MRU order: the canonical form of the table,
    /// which equal logical states share whatever their slot layout.
    fn saved_entries(&self) -> Vec<CetEvicted> {
        let mut entries = Vec::with_capacity(self.len);
        let mut slot = self.lru;
        while slot != NONE {
            let s = &self.slots[slot as usize];
            entries.push(CetEvicted {
                addr: s.addr,
                state: self.state_of(s.addr),
                action: s.action(),
            });
            slot = s.newer;
        }
        entries
    }

    /// Rebuilds the arena, index and recency list by touching the saved
    /// entries in LRU→MRU order in an empty table, after checking that
    /// each entry's state is its address's; the saved head must then be
    /// the newest entry's.
    fn rebuild(&mut self, v: &Value) -> LoadResult {
        let entries = state::seq(v, &CetEvicted::default())?;
        *self = Cet::new(self.capacity, self.radius, self.num_states);
        for e in &entries {
            if e.state >= self.num_states {
                return Err(format!(
                    "CET entry state {} is out of {} states",
                    e.state, self.num_states
                ));
            }
            let want = self.state_of(e.addr);
            if e.state != want {
                return Err(format!(
                    "CET entry {} has state {}, not its address's state {want}",
                    e.addr, e.state
                ));
            }
            self.touch(e.addr, e.action);
        }
        match self.len == entries.len() {
            true => Ok(()),
            false => Err("snapshot CET entries overflow its capacity or repeat".into()),
        }
    }

    fn saved_head(&self) -> Option<Head> {
        self.head().map(|(state, action)| Head { state, action })
    }
}

/// The bootstrap head as a snapshot stores it.
struct Head {
    state: usize,
    action: Locality,
}

// The logical state only: entries by their address, state and action, the
// fields an eviction reports. Arena slot numbers, the recycled slot and
// the index layout are unobservable and rebuilt on restore.
cosmos_common::state! {
    CetEvicted { addr, state, action }
    Head { state, action }
    Cet -> Value {
        capacity: fixed, radius: fixed,
        entries: via(Self::saved_entries, Self::rebuild),
        head: fixed(Self::saved_head),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATES: usize = 1024;

    #[test]
    fn exact_and_nearby_hits() {
        let mut cet = Cet::new(16, 32, STATES);
        cet.touch(100, Locality::Good);
        assert!(cet.check_nearby(100));
        assert!(cet.check_nearby(132));
        assert!(cet.check_nearby(68));
        assert!(!cet.check_nearby(133));
        assert!(!cet.check_nearby(67));
    }

    #[test]
    fn zero_radius_is_exact_match_only() {
        let mut cet = Cet::new(16, 0, STATES);
        cet.touch(10, Locality::Bad);
        assert!(cet.check_nearby(10));
        assert!(!cet.check_nearby(11));
    }

    #[test]
    fn lru_eviction_order() {
        let mut cet = Cet::new(2, 0, STATES);
        assert!(cet.touch(1, Locality::Good).1.is_none());
        assert!(cet.touch(2, Locality::Bad).1.is_none());
        let ev = cet.touch(3, Locality::Good).1.unwrap();
        assert_eq!(ev.addr, 1);
        assert_eq!(ev.state, cet.state_of(1));
        assert_eq!(ev.action, Locality::Good);
        assert_eq!(cet.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_recency() {
        let mut cet = Cet::new(2, 0, STATES);
        cet.touch(1, Locality::Good);
        cet.touch(2, Locality::Good);
        assert_eq!(cet.touch(1, Locality::Bad), (true, None)); // refresh 1
        let ev = cet.touch(3, Locality::Good).1.unwrap();
        assert_eq!(ev.addr, 2, "refreshed entry must not be the LRU victim");
    }

    #[test]
    fn refresh_updates_action() {
        let mut cet = Cet::new(2, 0, STATES);
        cet.touch(1, Locality::Good);
        cet.touch(1, Locality::Bad);
        cet.touch(2, Locality::Good);
        let ev = cet.touch(3, Locality::Good).1.unwrap();
        assert_eq!(ev.addr, 1);
        assert_eq!(
            ev.action,
            Locality::Bad,
            "refresh must overwrite the action"
        );
    }

    #[test]
    fn head_tracks_most_recent() {
        let mut cet = Cet::new(4, 0, STATES);
        assert_eq!(cet.head(), None);
        cet.touch(1, Locality::Good);
        cet.touch(2, Locality::Bad);
        assert_eq!(cet.head(), Some((cet.state_of(2), Locality::Bad)));
        cet.touch(1, Locality::Bad);
        assert_eq!(cet.head(), Some((cet.state_of(1), Locality::Bad)));
    }

    #[test]
    fn len_never_exceeds_capacity() {
        let mut cet = Cet::new(8, 4, STATES);
        for i in 0..100u64 {
            cet.touch(i * 1000, Locality::Good);
            assert!(cet.len() <= 8);
        }
    }

    #[test]
    fn eviction_stream_stays_consistent() {
        // Hammer the index's backward-shift deletion: a capacity-small CET
        // with clustered addresses (maximal probe-chain overlap) must keep
        // exact membership across thousands of insert/evict cycles.
        let mut cet = Cet::new(32, 0, STATES);
        let mut model = std::collections::VecDeque::new(); // recency: front = LRU
        let mut rng = cosmos_common::SplitMix64::new(0xCE7);
        for _ in 0..50_000 {
            let addr = rng.next_index(96) as u64; // dense: constant collisions
            let (hit, evicted) = cet.touch(addr, Locality::Good);
            assert_eq!(hit, model.contains(&addr));
            if let Some(pos) = model.iter().position(|&a| a == addr) {
                model.remove(pos);
            }
            model.push_back(addr);
            if model.len() > 32 {
                let lru = model.pop_front().unwrap();
                assert_eq!(evicted.map(|e| e.addr), Some(lru));
            } else {
                assert!(evicted.is_none());
            }
            assert_eq!(cet.len(), model.len());
            for &a in &model {
                assert!(cet.check_nearby(a), "live entry {a} lost");
            }
            assert!(!cet.check_nearby(1_000_000));
        }
    }

    /// A neighbour the touch itself evicts was present before it, so it
    /// counts as a hit, as it did when the check ran before the insert.
    #[test]
    fn an_evicted_neighbour_still_counts() {
        let mut cet = Cet::new(2, 1, STATES);
        cet.touch(10, Locality::Good);
        cet.touch(50, Locality::Good);
        let (hit, evicted) = cet.touch(11, Locality::Bad);
        assert_eq!(evicted.map(|e| e.addr), Some(10));
        assert!(hit, "line 10 was within ±1 of line 11 before the touch");
        assert!(!cet.check_nearby(9));
        let (hit, evicted) = cet.touch(100, Locality::Bad);
        assert_eq!(evicted.map(|e| e.addr), Some(50));
        assert!(!hit);
    }
}
