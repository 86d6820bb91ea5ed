//! Property-based tests for the RL substrate.

use cosmos_common::{LineAddr, PhysAddr};
use cosmos_rl::params::RlParams;
use cosmos_rl::{Cet, CtrLocalityPredictor, DataLocation, DataLocationPredictor, Locality, QTable};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

/// Q-table states of the CETs below.
const STATES: usize = 256;

/// The state [`Cet`] derives from an address.
fn state_of(addr: u64) -> usize {
    cosmos_common::hash::hash_address(LineAddr::new(addr).base(), STATES)
}

/// Reference CET semantics: the pre-flattening map/tree implementation
/// (`HashMap` for membership + `BTreeMap<time, addr>` for recency),
/// storing each entry's state. The arena/open-addressing [`Cet`] must be
/// observationally identical to it.
struct RefCet {
    capacity: usize,
    radius: u64,
    map: HashMap<u64, (usize, Locality, u64)>,
    lru: BTreeMap<u64, u64>,
    clock: u64,
    head: Option<(usize, Locality)>,
}

impl RefCet {
    fn new(capacity: usize, radius: u64) -> Self {
        Self {
            capacity,
            radius,
            map: HashMap::new(),
            lru: BTreeMap::new(),
            clock: 0,
            head: None,
        }
    }

    fn check_nearby(&self, addr: u64) -> bool {
        if self.map.contains_key(&addr) {
            return true;
        }
        for d in 1..=self.radius {
            if self.map.contains_key(&addr.wrapping_add(d))
                || self.map.contains_key(&addr.wrapping_sub(d))
            {
                return true;
            }
        }
        false
    }

    fn insert(
        &mut self,
        addr: u64,
        state: usize,
        action: Locality,
    ) -> Option<(u64, usize, Locality)> {
        self.clock += 1;
        if let Some((_, _, old_time)) = self.map.insert(addr, (state, action, self.clock)) {
            self.lru.remove(&old_time);
        }
        self.lru.insert(self.clock, addr);
        self.head = Some((state, action));
        if self.map.len() > self.capacity {
            let (&t, &victim) = self.lru.iter().next().unwrap();
            self.lru.remove(&t);
            let (s, a, _) = self.map.remove(&victim).unwrap();
            return Some((victim, s, a));
        }
        None
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn qtable_stays_bounded_under_bounded_rewards(
        updates in prop::collection::vec((0usize..64, 0usize..2, -30f32..30f32), 1..500)
    ) {
        let mut q = QTable::new(64);
        let gamma = 0.88f32;
        let bound = 30.0 / (1.0 - gamma) + 1.0;
        for &(s, a, r) in &updates {
            let target = r + gamma * q.max_q(s);
            q.update_toward(s, a, target, 0.09);
        }
        for s in 0..64 {
            for a in 0..2 {
                prop_assert!(q.q(s, a).abs() <= bound);
            }
        }
    }

    #[test]
    fn cet_never_exceeds_capacity_and_evictions_balance(
        inserts in prop::collection::vec(0u64..10_000, 1..300),
        cap in 1usize..64,
    ) {
        let mut cet = Cet::new(cap, 0, STATES);
        let mut evictions = 0usize;
        let mut unique = std::collections::HashSet::new();
        for &a in &inserts {
            unique.insert(a);
            if cet.touch(a, Locality::Good).1.is_some() {
                evictions += 1;
            }
            prop_assert!(cet.len() <= cap);
        }
        // Every live entry is a distinct inserted address, and evictions
        // can never exceed the number of insertions.
        prop_assert!(cet.len() <= unique.len().min(cap));
        prop_assert!(evictions <= inserts.len());
        // Net balance: entries that went in either stayed or were evicted
        // (re-insertions of evicted addresses may repeat the cycle).
        prop_assert!(cet.len() + evictions >= unique.len().min(cap));
    }

    #[test]
    fn cet_nearby_respects_radius(center in 1_000u64..1_000_000, radius in 0u64..64, d in 0u64..128) {
        let mut cet = Cet::new(16, radius, STATES);
        cet.touch(center, Locality::Bad);
        let probe = center + d;
        prop_assert_eq!(cet.check_nearby(probe), d <= radius);
    }

    #[test]
    fn data_predictor_converges_on_consistent_oracle(
        addrs in prop::collection::vec(0u64..32, 50..200),
    ) {
        // Oracle: even hashed-lines are on-chip, odd are off-chip — a
        // deterministic function of the address.
        let params = RlParams { epsilon: 0.0, ..RlParams::data_defaults() };
        let mut p = DataLocationPredictor::new(params, 9);
        let oracle = |a: u64| if a.is_multiple_of(2) { DataLocation::OnChip } else { DataLocation::OffChip };
        for _round in 0..30 {
            for &a in &addrs {
                let addr = PhysAddr::new(a * (1 << 20));
                let pred = p.predict(addr);
                p.learn(addr, pred, oracle(a));
            }
        }
        let mut correct = 0;
        for &a in &addrs {
            if p.greedy(PhysAddr::new(a * (1 << 20))) == oracle(a) {
                correct += 1;
            }
        }
        prop_assert!(correct * 10 >= addrs.len() * 9, "{correct}/{}", addrs.len());
    }

    #[test]
    fn locality_stats_are_consistent(ctrs in prop::collection::vec(0u64..64, 1..300)) {
        let mut p = CtrLocalityPredictor::new(RlParams::ctr_defaults(), 32, 0, 7);
        for &c in &ctrs {
            p.classify(LineAddr::new((1 << 34) + c));
        }
        let s = p.stats();
        prop_assert_eq!(s.predictions, ctrs.len() as u64);
        prop_assert!(s.predicted_good <= s.predictions);
        prop_assert!(s.cet_hits <= s.predictions);
        prop_assert!(s.agreements <= s.predictions);
        prop_assert!(s.good_fraction() >= 0.0 && s.good_fraction() <= 1.0);
    }

    /// The flattened `Vec<f32>` Q-table performs bit-identical float ops to
    /// the nested `q[state][action]` layout it replaced.
    #[test]
    fn flat_qtable_matches_nested_reference(
        ops in prop::collection::vec((0usize..32, 0usize..2, -40f32..40f32, 0usize..32), 1..400)
    ) {
        let mut flat = QTable::new(32);
        let mut nested = vec![[0.0f32; 2]; 32];
        let (alpha, gamma) = (0.1f32, 0.9f32);
        for &(s, a, r, boot_s) in &ops {
            let ref_max = nested[boot_s][0].max(nested[boot_s][1]);
            prop_assert_eq!(flat.max_q(boot_s), ref_max);
            let target = r + gamma * ref_max;
            let returned = flat.update_toward(s, a, target, alpha);
            let q = &mut nested[s][a];
            *q += alpha * (target - *q);
            prop_assert_eq!(returned, *q);
        }
        for (s, row) in nested.iter().enumerate() {
            prop_assert_eq!(flat.pair(s), *row);
            let ref_best = usize::from(row[1] > row[0]);
            prop_assert_eq!(flat.best_action(s), ref_best);
            for (a, &rq) in row.iter().enumerate() {
                prop_assert_eq!(flat.q(s, a), rq);
            }
        }
    }

    /// The arena/open-addressing CET is observationally identical to the
    /// map/tree reference over arbitrary touch streams: the same hit check
    /// (a touch's, and a separate neighbourhood check before it), same
    /// membership, same head, same eviction victims in the same order.
    #[test]
    fn cet_matches_map_tree_reference(
        ops in prop::collection::vec((0u64..200, any::<bool>()), 1..600),
        cap in 1usize..48,
        radius in 0u64..8,
    ) {
        let mut cet = Cet::new(cap, radius, STATES);
        let mut reference = RefCet::new(cap, radius);
        for &(addr, good) in &ops {
            let action = if good { Locality::Good } else { Locality::Bad };
            let near = reference.check_nearby(addr);
            prop_assert_eq!(cet.check_nearby(addr), near);
            let (hit, ev) = cet.touch(addr, action);
            prop_assert_eq!(hit, near);
            let ref_ev = reference.insert(addr, state_of(addr), action);
            prop_assert_eq!(ev.map(|e| (e.addr, e.state, e.action)), ref_ev);
            prop_assert_eq!(cet.len(), reference.map.len());
            prop_assert_eq!(cet.head(), reference.head);
        }
        // Post-stream membership sweep over the full address range.
        for probe in 0..208u64 {
            prop_assert_eq!(cet.check_nearby(probe), reference.check_nearby(probe));
        }
    }
}
