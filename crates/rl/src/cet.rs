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
//! designs, so its layout is the predictor hot path. Entries live in a flat
//! arena threaded onto an intrusive doubly-linked recency list (head = MRU,
//! tail = LRU victim), and lookup goes through an open-addressing index
//! (linear probing, splitmix64 hash, backward-shift deletion) — no
//! `HashMap`/`BTreeMap` nodes, no SipHash, no allocation after warm-up.

use crate::locality::Locality;
use cosmos_common::hash::splitmix64;
use cosmos_common::json::Value;
use cosmos_common::state::{self, LoadResult};

/// An entry evicted from the CET (feeds the eviction rewards
/// `R_C_eg` / `R_C_eb`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CetEvicted {
    /// The evicted CTR line address.
    pub addr: u64,
    /// The RL state recorded at insertion.
    pub state: usize,
    /// The locality prediction recorded at insertion.
    pub action: Locality,
}

/// Arena slot: payload plus intrusive recency-list links.
#[derive(Clone, Copy, Debug)]
struct Slot {
    addr: u64,
    state: usize,
    action: Locality,
    /// Next-more-recent slot (`NONE` at the MRU head).
    newer: u32,
    /// Next-less-recent slot (`NONE` at the LRU tail).
    older: u32,
}

/// Null link / empty-bucket marker.
const NONE: u32 = u32::MAX;

/// LRU table of recent CTR accesses with neighbourhood lookup.
///
/// # Examples
///
/// ```
/// use cosmos_rl::{Cet, Locality};
/// let mut cet = Cet::new(8192, 32);
/// cet.insert(1000, 5, Locality::Good);
/// assert!(cet.check_nearby(1010)); // within ±32 lines
/// assert!(!cet.check_nearby(2000));
/// ```
#[derive(Clone, Debug)]
pub struct Cet {
    capacity: usize,
    radius: u64,
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
    head: Option<(usize, Locality)>,
}

impl Cet {
    /// Creates a CET with `capacity` entries and a ±`radius` neighbourhood.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, radius: u64) -> Self {
        assert!(capacity > 0, "CET must have capacity");
        // One transient extra entry: insert links the newcomer before the
        // LRU victim is evicted, so occupancy peaks at capacity + 1.
        let buckets = (2 * (capacity + 1)).next_power_of_two();
        Self {
            capacity,
            radius,
            slots: Vec::with_capacity(capacity + 1),
            index: vec![NONE; buckets],
            mask: buckets - 1,
            mru: NONE,
            lru: NONE,
            free: NONE,
            len: 0,
            head: None,
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

    /// The most recently inserted `(state, action)` (`CET.head`).
    pub fn head(&self) -> Option<(usize, Locality)> {
        self.head
    }

    /// The arena slot holding `addr`, if present.
    // cosmos-lint: hot
    #[inline]
    fn find(&self, addr: u64) -> Option<u32> {
        let mut b = splitmix64(addr) as usize & self.mask;
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
    // cosmos-lint: hot
    pub fn check_nearby(&self, addr: u64) -> bool {
        if self.find(addr).is_some() {
            return true;
        }
        for d in 1..=self.radius {
            if self.find(addr.wrapping_add(d)).is_some()
                || self.find(addr.wrapping_sub(d)).is_some()
            {
                return true;
            }
        }
        false
    }

    /// Unlinks `slot` from the recency list.
    #[inline]
    fn unlink(&mut self, slot: u32) {
        let Slot { newer, older, .. } = self.slots[slot as usize];
        if newer == NONE {
            self.mru = older;
        } else {
            self.slots[newer as usize].older = older;
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
            s.older = old_mru;
        }
        if old_mru != NONE {
            self.slots[old_mru as usize].newer = slot;
        }
        self.mru = slot;
        if self.lru == NONE {
            self.lru = slot;
        }
    }

    /// Registers `slot` (already holding `addr`) in the index.
    #[inline]
    fn index_insert(&mut self, addr: u64, slot: u32) {
        let mut b = splitmix64(addr) as usize & self.mask;
        while self.index[b] != NONE {
            b = (b + 1) & self.mask;
        }
        self.index[b] = slot;
    }

    /// Removes `addr` from the index with backward-shift deletion, keeping
    /// every remaining probe chain unbroken without tombstones.
    fn index_remove(&mut self, addr: u64) {
        let mut b = splitmix64(addr) as usize & self.mask;
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
            let ideal = splitmix64(self.slots[s as usize].addr) as usize & self.mask;
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

    /// Inserts (or refreshes) an entry; returns the LRU entry evicted when
    /// the table overflows.
    // cosmos-lint: hot
    pub fn insert(&mut self, addr: u64, state: usize, action: Locality) -> Option<CetEvicted> {
        self.head = Some((state, action));
        if let Some(slot) = self.find(addr) {
            // Refresh: update payload, move to MRU. No eviction possible.
            let s = &mut self.slots[slot as usize];
            s.state = state;
            s.action = action;
            self.unlink(slot);
            self.push_mru(slot);
            return None;
        }
        let slot = if self.free != NONE {
            let slot = self.free;
            self.free = NONE;
            let s = &mut self.slots[slot as usize];
            s.addr = addr;
            s.state = state;
            s.action = action;
            slot
        } else {
            let slot = self.slots.len() as u32;
            self.slots.push(Slot {
                addr,
                state,
                action,
                newer: NONE,
                older: NONE,
            });
            slot
        };
        self.index_insert(addr, slot);
        self.push_mru(slot);
        self.len += 1;
        if self.len > self.capacity {
            let victim = self.lru;
            debug_assert!(
                victim != NONE && victim != slot,
                "LRU victim is the newcomer"
            );
            let Slot {
                addr: v_addr,
                state: v_state,
                action: v_action,
                ..
            } = self.slots[victim as usize];
            self.unlink(victim);
            self.index_remove(v_addr);
            self.free = victim;
            self.len -= 1;
            return Some(CetEvicted {
                addr: v_addr,
                state: v_state,
                action: v_action,
            });
        }
        None
    }

    /// The entries in LRU→MRU order: the canonical form of the table,
    /// which equal logical states share whatever their slot layout.
    pub(crate) fn saved_entries(&self) -> Vec<CetEvicted> {
        let mut entries = Vec::with_capacity(self.len);
        let mut slot = self.lru;
        while slot != NONE {
            let s = &self.slots[slot as usize];
            entries.push(CetEvicted {
                addr: s.addr,
                state: s.state,
                action: s.action,
            });
            slot = s.newer;
        }
        entries
    }

    /// Rebuilds the arena, index and recency list by inserting the saved
    /// entries in LRU→MRU order into an empty table; every insert moves
    /// the head, which the saved head must then match.
    fn rebuild(&mut self, v: &Value) -> LoadResult {
        let entries = state::seq(v, &CetEvicted::default())?;
        *self = Cet::new(self.capacity, self.radius);
        for e in &entries {
            self.insert(e.addr, e.state, e.action);
        }
        match self.len == entries.len() {
            true => Ok(()),
            false => Err("snapshot CET entries overflow its capacity or repeat".into()),
        }
    }

    fn saved_head(&self) -> Option<Head> {
        self.head.map(|(state, action)| Head { state, action })
    }
}

/// The bootstrap head as a snapshot stores it.
struct Head {
    state: usize,
    action: Locality,
}

// The logical state only: entries by their payload, the fields an eviction
// reports. Arena slot numbers, the recycled slot and the index layout are
// unobservable and rebuilt on restore.
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

    #[test]
    fn exact_and_nearby_hits() {
        let mut cet = Cet::new(16, 32);
        cet.insert(100, 1, Locality::Good);
        assert!(cet.check_nearby(100));
        assert!(cet.check_nearby(132));
        assert!(cet.check_nearby(68));
        assert!(!cet.check_nearby(133));
        assert!(!cet.check_nearby(67));
    }

    #[test]
    fn zero_radius_is_exact_match_only() {
        let mut cet = Cet::new(16, 0);
        cet.insert(10, 0, Locality::Bad);
        assert!(cet.check_nearby(10));
        assert!(!cet.check_nearby(11));
    }

    #[test]
    fn lru_eviction_order() {
        let mut cet = Cet::new(2, 0);
        assert!(cet.insert(1, 10, Locality::Good).is_none());
        assert!(cet.insert(2, 20, Locality::Bad).is_none());
        let ev = cet.insert(3, 30, Locality::Good).unwrap();
        assert_eq!(ev.addr, 1);
        assert_eq!(ev.state, 10);
        assert_eq!(ev.action, Locality::Good);
        assert_eq!(cet.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_recency() {
        let mut cet = Cet::new(2, 0);
        cet.insert(1, 0, Locality::Good);
        cet.insert(2, 0, Locality::Good);
        cet.insert(1, 1, Locality::Bad); // refresh 1
        let ev = cet.insert(3, 0, Locality::Good).unwrap();
        assert_eq!(ev.addr, 2, "refreshed entry must not be the LRU victim");
    }

    #[test]
    fn refresh_updates_payload() {
        let mut cet = Cet::new(2, 0);
        cet.insert(1, 10, Locality::Good);
        cet.insert(1, 77, Locality::Bad);
        cet.insert(2, 0, Locality::Good);
        let ev = cet.insert(3, 0, Locality::Good).unwrap();
        assert_eq!(ev.addr, 1);
        assert_eq!(ev.state, 77, "refresh must overwrite the stored state");
        assert_eq!(ev.action, Locality::Bad);
    }

    #[test]
    fn head_tracks_most_recent() {
        let mut cet = Cet::new(4, 0);
        assert_eq!(cet.head(), None);
        cet.insert(1, 7, Locality::Good);
        cet.insert(2, 9, Locality::Bad);
        assert_eq!(cet.head(), Some((9, Locality::Bad)));
    }

    #[test]
    fn len_never_exceeds_capacity() {
        let mut cet = Cet::new(8, 4);
        for i in 0..100u64 {
            cet.insert(i * 1000, i as usize, Locality::Good);
            assert!(cet.len() <= 8);
        }
    }

    #[test]
    fn eviction_stream_stays_consistent() {
        // Hammer the index's backward-shift deletion: a capacity-small CET
        // with clustered addresses (maximal probe-chain overlap) must keep
        // exact membership across thousands of insert/evict cycles.
        let mut cet = Cet::new(32, 0);
        let mut model = std::collections::VecDeque::new(); // recency: front = LRU
        let mut rng = cosmos_common::SplitMix64::new(0xCE7);
        for _ in 0..50_000 {
            let addr = rng.next_index(96) as u64; // dense: constant collisions
            let evicted = cet.insert(addr, 0, Locality::Good);
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
}
