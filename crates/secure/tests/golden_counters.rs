//! Golden `CounterStore::save_state` bytes for each counter scheme.
//!
//! The fixtures under `tests/golden/` were recorded from the dense store,
//! which kept all `coverage` minors of every touched block. A fixed write
//! sequence drives each scheme through a MorphCtr morph and overflow, a
//! Split overflow, and a block touched again after others were. Any edit
//! to the store that moves one counter, one event count, or the snapshot
//! encoding fails here.

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
