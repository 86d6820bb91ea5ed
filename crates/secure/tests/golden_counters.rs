//! Golden `CounterStore::save_state` bytes for each counter scheme.
//!
//! The fixtures under `tests/golden/` were recorded from the dense store,
//! which kept all `coverage` minors of every touched block. A fixed write
//! sequence drives each scheme through a MorphCtr morph and overflow, a
//! Split overflow, and a block touched again after others were. Any edit
//! to the store that moves one counter, one event count, or the snapshot
//! encoding fails here. The `counters_far_*` fixtures were recorded from
//! the ordered-map store: blocks on both sides of 64-block edges, far
//! apart, and up to the block of the last line below 2^31 − 1, touched out
//! of index order, must still save in ascending index order.

use cosmos_common::LineAddr;
use cosmos_secure::{CounterScheme, CounterStore};

/// The fixed write sequence, as `(line, repeats)` runs.
fn writes() -> Vec<(u64, usize)> {
    let mut runs = vec![
        // One hot line: a Split overflow at the 128th write; a wide ZCC
        // minor under MorphCtr.
        (7, 130),
        // A second hot line in the same block: MorphCtr morphs
        // Uniform -> ZCC 64x5 at 8, then -> ZCC 32x10 at 32.
        (3, 40),
    ];
    // 65 lines at minor 8 in one MorphCtr block: no format fits, so the
    // block overflows part-way through.
    runs.extend((256..321).map(|line| (line, 8)));
    // Another block, then the first block touched again.
    runs.extend([(200, 1), (5, 1), (7, 1)]);
    runs
}

fn store_after_writes(scheme: CounterScheme) -> CounterStore {
    let mut store = CounterStore::new(scheme);
    for (line, repeats) in writes() {
        for _ in 0..repeats {
            store.increment(LineAddr::new(line));
        }
    }
    store
}

#[test]
fn save_state_matches_golden_bytes() {
    for (scheme, golden) in [
        (
            CounterScheme::Monolithic,
            include_str!("golden/counters_mono.json"),
        ),
        (
            CounterScheme::Split,
            include_str!("golden/counters_split.json"),
        ),
        (
            CounterScheme::MorphCtr,
            include_str!("golden/counters_morphctr.json"),
        ),
    ] {
        let got = store_after_writes(scheme).save_state().to_string();
        assert_eq!(got, golden.trim_end(), "{scheme}: snapshot bytes moved");
    }
}

#[test]
fn golden_sequence_covers_morphs_and_overflows() {
    let split = store_after_writes(CounterScheme::Split);
    assert_eq!(split.overflows(), 1);
    let morph = store_after_writes(CounterScheme::MorphCtr);
    assert!(morph.morphs() >= 2, "morphs: {}", morph.morphs());
    assert_eq!(morph.overflows(), 1);
}

/// Block indices that straddle the edges of 64-block runs, lie far apart,
/// and end at the block of the last line below 2^31 − 1, touched out of
/// index order.
fn far_blocks(scheme: CounterScheme) -> Vec<u64> {
    let last = ((1 << 31) - 2) / scheme.coverage();
    vec![last, 64, 63, 1_000_003, 128, 127, 65, 4096, 4095, last - 1]
}

/// Per block of [`far_blocks`]: one write to slot 0, three to the last
/// slot, and at block 64 also 130 writes to slot 5 (a Split overflow).
fn store_after_far_writes(scheme: CounterScheme) -> CounterStore {
    let mut store = CounterStore::new(scheme);
    let cov = scheme.coverage();
    for block in far_blocks(scheme) {
        let mut runs = vec![(0, 1), (cov - 1, 3)];
        if block == 64 {
            runs.push((5, 130));
        }
        for (slot, repeats) in runs {
            for _ in 0..repeats {
                store.increment(LineAddr::new(block * cov + slot));
            }
        }
    }
    store
}

#[test]
fn far_apart_blocks_match_golden_bytes() {
    for (scheme, golden) in [
        (
            CounterScheme::Monolithic,
            include_str!("golden/counters_far_mono.json"),
        ),
        (
            CounterScheme::Split,
            include_str!("golden/counters_far_split.json"),
        ),
        (
            CounterScheme::MorphCtr,
            include_str!("golden/counters_far_morphctr.json"),
        ),
    ] {
        let store = store_after_far_writes(scheme);
        let got = store.save_state().to_string();
        assert_eq!(got, golden.trim_end(), "{scheme}: snapshot bytes moved");
        let mut want = far_blocks(scheme);
        want.sort_unstable();
        let blocks: Vec<u64> = store.materialized_blocks().map(|(idx, _)| idx).collect();
        assert_eq!(blocks, want, "{scheme}: blocks not in index order");
    }
}
