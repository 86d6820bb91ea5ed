//! Property-based tests for the shadow reference models: the naive
//! re-implementations must agree with the production structures on
//! arbitrary inputs, not just on curated traces.

use cosmos_cache::{Cache, CacheConfig, PolicyKind, RecencyCache, Victim};
use cosmos_common::LineAddr;
use cosmos_secure::{CounterScheme, CounterStore, IncrementOutcome};
use cosmos_verify::{DenseCounterStore, ShadowCache, ShadowMode};
use proptest::prelude::*;

fn arb_ops() -> impl Strategy<Value = Vec<(u64, bool)>> {
    prop::collection::vec((0u64..256, any::<bool>()), 1..400)
}

const MIRROR_POLICIES: [PolicyKind; 6] = [
    PolicyKind::Random { seed: 3 },
    PolicyKind::Rrip,
    PolicyKind::Drrip,
    PolicyKind::Ship,
    PolicyKind::Mockingjay,
    PolicyKind::Lcr,
];

const SCHEMES: [CounterScheme; 3] = [
    CounterScheme::Monolithic,
    CounterScheme::Split,
    CounterScheme::MorphCtr,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The exact shadow predicts every hit/miss and every victim of a
    /// real LRU cache, and their residency sets stay identical.
    #[test]
    fn exact_shadow_agrees_with_real_lru(ops in arb_ops()) {
        // 2 KB, 2-way -> 16 sets of 2, matching the satellite's "2-way
        // real cache" target: small enough that evictions are constant.
        let mut real = Cache::new(CacheConfig::new(2048, 2), PolicyKind::Lru);
        let mut shadow = ShadowCache::new("prop-ctr", 16, 2, ShadowMode::Exact);
        let mut violations = Vec::new();
        for &(line, write) in &ops {
            let r = real.access(LineAddr::new(line), write, None);
            shadow.demand(LineAddr::new(line), write, r.hit, r.evicted.map(Victim::from), &mut violations);
            prop_assert!(violations.is_empty(), "{violations:?}");
        }
        shadow.diff_residency(real.resident_lines(), &mut violations);
        prop_assert!(violations.is_empty(), "{violations:?}");
    }

    /// The exact shadow, primed from a real LRU recency store halfway
    /// through the stream, predicts every later hit/miss and victim.
    #[test]
    fn exact_shadow_primed_from_a_recency_store_agrees(ops in arb_ops()) {
        let mut real = RecencyCache::new(CacheConfig::new(2048, 2), PolicyKind::Lru, false);
        let mut shadow = ShadowCache::new("prop-mt", 16, 2, ShadowMode::Exact);
        let (head, tail) = ops.split_at(ops.len() / 2);
        for &(line, write) in head {
            real.access(LineAddr::new(line), write, None);
        }
        shadow.prime(&real.store().resident_entries_lru_to_mru());
        let mut violations = Vec::new();
        for &(line, write) in tail {
            let r = real.access(LineAddr::new(line), write, None);
            shadow.demand(LineAddr::new(line), write, r.hit, r.evicted.map(Victim::from), &mut violations);
            prop_assert!(violations.is_empty(), "{violations:?}");
        }
        shadow.diff_residency(real.store().resident_lines(), &mut violations);
        prop_assert!(violations.is_empty(), "{violations:?}");
    }

    /// The mirror shadow never reports a false structural violation for
    /// any real replacement policy, and residency still matches (the
    /// shadow applies real outcomes, so contents must agree even when
    /// victim *choice* is policy-specific).
    #[test]
    fn mirror_shadow_agrees_with_every_policy(ops in arb_ops()) {
        for policy in MIRROR_POLICIES {
            let mut real = Cache::new(CacheConfig::new(2048, 4), policy);
            let mut shadow = ShadowCache::new("prop-mirror", 8, 4, ShadowMode::Mirror);
            let mut violations = Vec::new();
            for &(line, write) in &ops {
                let r = real.access(LineAddr::new(line), write, None);
                shadow.demand(LineAddr::new(line), write, r.hit, r.evicted.map(Victim::from), &mut violations);
                prop_assert!(violations.is_empty(), "{policy:?}: {violations:?}");
            }
            shadow.diff_residency(real.resident_lines(), &mut violations);
            prop_assert!(violations.is_empty(), "{policy:?}: {violations:?}");
        }
    }

    /// The dense counter store tracks `CounterStore::value` exactly for
    /// every scheme, agreeing increment-by-increment on overflows.
    #[test]
    fn dense_store_agrees_with_counter_store(
        lines in prop::collection::vec(0u64..192, 1..500)
    ) {
        for scheme in SCHEMES {
            let mut real = CounterStore::new(scheme);
            let mut dense = DenseCounterStore::new(scheme);
            for &l in &lines {
                let line = LineAddr::new(l);
                let real_overflowed =
                    matches!(real.increment(line), IncrementOutcome::Overflow { .. });
                let dense_overflowed = dense.increment(line);
                prop_assert_eq!(
                    dense_overflowed, real_overflowed,
                    "{:?}: divergent overflow on line {}", scheme, l
                );
            }
            for l in 0..192 {
                let line = LineAddr::new(l);
                prop_assert_eq!(
                    dense.value(line), real.value(line),
                    "{:?}: value mismatch on line {}", scheme, l
                );
            }
            prop_assert_eq!(dense.overflows(), real.overflows());
        }
    }

    /// Split counters overflow at exactly the 7-bit minor boundary: both
    /// models agree the 127th bump is fine and the 128th overflows the
    /// block (when a single line is hammered).
    #[test]
    fn split_overflow_boundary_is_exact(line in 0u64..192, extra in 0u64..40) {
        let scheme = CounterScheme::Split;
        let mut real = CounterStore::new(scheme);
        let mut dense = DenseCounterStore::new(scheme);
        let target = LineAddr::new(line);
        for i in 0..127 + extra {
            let r = matches!(real.increment(target), IncrementOutcome::Overflow { .. });
            let d = dense.increment(target);
            prop_assert_eq!(d, r, "iteration {}", i);
            // The minor cap is 127; the first overflow is bump #128, and
            // after the reset the cycle repeats.
            prop_assert_eq!(d, (i + 1) % 128 == 0, "iteration {}", i);
            prop_assert_eq!(dense.value(target), real.value(target));
        }
    }

    /// MorphCtr's format ladder: a block with many distinct nonzero
    /// minors overflows when no ZCC format fits, and both models place
    /// that boundary identically (covering morph transitions on the way).
    #[test]
    fn morphctr_overflow_boundary_is_exact(
        hot in 0u64..128, rounds in 1u64..12
    ) {
        let scheme = CounterScheme::MorphCtr;
        let mut real = CounterStore::new(scheme);
        let mut dense = DenseCounterStore::new(scheme);
        // Touch 65 slots of block 0 once (past every max_nonzero <= 64
        // format), then hammer one hot line until the uniform bound (7)
        // breaks and the block must overflow.
        for l in 0..65 {
            let line = LineAddr::new(l);
            let r = matches!(real.increment(line), IncrementOutcome::Overflow { .. });
            prop_assert_eq!(dense.increment(line), r);
        }
        let mut overflows = 0u64;
        for _ in 0..rounds * 8 {
            let line = LineAddr::new(hot);
            let r = matches!(real.increment(line), IncrementOutcome::Overflow { .. });
            let d = dense.increment(line);
            prop_assert_eq!(d, r);
            overflows += u64::from(d);
            prop_assert_eq!(dense.value(line), real.value(line));
        }
        prop_assert_eq!(dense.overflows(), real.overflows());
        prop_assert!(overflows > 0 || rounds < 2, "hammering never overflowed");
    }
}
