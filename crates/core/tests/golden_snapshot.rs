//! Golden digests of whole-simulator snapshots, and the snapshot
//! rejection probe.
//!
//! The digests were recorded for snapshot format 3, in which the data
//! caches, the MT cache and the LRU/LCR CTR caches save MRU-ordered words.
//! Each is the FNV-1a hash of `Simulator::save_state()`'s
//! compact text after a write-heavy run that morphs and overflows counter
//! blocks and fills the CET, so any change to a saved key, its order or its
//! encoding fails here. Digests, not bytes, are committed: even at this
//! small geometry a snapshot holds tens of thousands of array elements.

use cosmos_common::hash::fnv1a;
use cosmos_common::json::Value;
use cosmos_common::{MemAccess, PhysAddr, SplitMix64, Trace};
use cosmos_core::{Design, SimConfig, Simulator};

const ACCESSES: usize = 24_000;

/// `(design, digest of the saved state after the golden run)`.
#[rustfmt::skip]
const GOLDEN: [(Design, u64); 6] = [
    (Design::Np, 0xe024_57b1_382d_a188),
    (Design::MorphCtr, 0xd98f_3bd7_7efc_5804),
    (Design::Emcc, 0xd81a_8ffd_3430_b1f1),
    (Design::CosmosDp, 0xf2ae_37bd_e351_b2ab),
    (Design::CosmosCp, 0x503e_90b2_5f05_1b80),
    (Design::Cosmos, 0xb234_ba05_1556_d15b),
];

/// Scalar leaves (arrays contributing their element 0) of a COSMOS
/// snapshot's state; each is mutated twice by the rejection probe.
const COSMOS_LEAVES: usize = 130;

/// Small caches, a 1 GiB protected region, 1024-state Q-tables and a
/// 64-entry CET, so the run below fills the CET many times over.
fn config(design: Design) -> SimConfig {
    let mut c = SimConfig::paper_default(design);
    c.cores = 2;
    c.l1.size_bytes = 4096;
    c.l2.size_bytes = 16 * 1024;
    c.llc.size_bytes = 64 * 1024;
    c.ctr_cache.size_bytes = 8192;
    c.mt_cache.size_bytes = 8192;
    c.protected_bytes = 1 << 30;
    c.data_rl.num_states = 1024;
    c.ctr_rl.num_states = 1024;
    c.cet_entries = 64;
    c
}

/// Three writes in four. Most go to a dense 1536-line region, so its
/// counter blocks fill with non-zero minors and overflow; a quarter go to
/// 64 lines one counter block apart, which all share LLC set 0, keep being
/// written back and morph their blocks to wider formats; the rest are
/// scattered over 64 MiB, so the CET keeps evicting.
fn trace() -> Trace {
    let mut rng = SplitMix64::new(0x5_4A7E);
    (0..ACCESSES)
        .map(|_| {
            let line = match rng.next_below(20) {
                0..=12 => rng.next_below(1536),
                13..=17 => (1 << 14) + rng.next_below(64) * 128,
                _ => rng.next_below(1 << 20),
            };
            let addr = PhysAddr::new(line * 64);
            let core = (rng.next_u32() % 2) as u8;
            if rng.chance(0.75) {
                MemAccess::write(core, addr, 2)
            } else {
                MemAccess::read(core, addr, 2)
            }
        })
        .collect()
}

fn run(design: Design) -> Simulator {
    let mut sim = Simulator::new(config(design));
    for a in trace().iter() {
        sim.step(a);
    }
    sim
}

#[test]
fn snapshots_match_golden_digests() {
    let mut got = Vec::new();
    for (design, _) in GOLDEN {
        let sim = run(design);
        if let Some(sp) = sim.secure() {
            assert!(sp.counters().morphs() > 0, "{design}: no block morphed");
            assert!(sp.overflows() > 0, "{design}: no counter overflowed");
            if let Some(loc) = sp.locality() {
                assert_eq!(loc.cet().len(), 64, "{design}: CET not full");
            }
        }
        let text = sim.save_state().expect("design can snapshot").to_string();
        got.push((design, fnv1a(text.as_bytes())));
    }
    let want: Vec<_> = GOLDEN.to_vec();
    assert_eq!(got, want, "snapshot digests moved:\n{got:#x?}");
}

#[test]
fn rmcc_refuses_to_snapshot_its_ship_policy() {
    let err = match run(Design::Rmcc).save_state() {
        Ok(_) => panic!("RMCC's SHiP CTR policy cannot be saved"),
        Err(e) => e,
    };
    assert!(err.contains("SHiP"), "{err}");
}

/// Paths of every scalar leaf under `v`, taking element 0 of each array.
fn leaves(v: &Value, path: &mut Vec<Step>, out: &mut Vec<Vec<Step>>) {
    match v {
        Value::Object(m) => {
            for (k, child) in m.iter() {
                path.push(Step::Key(k.to_string()));
                leaves(child, path, out);
                path.pop();
            }
        }
        Value::Array(items) => {
            if let Some(first) = items.first() {
                path.push(Step::Index0);
                leaves(first, path, out);
                path.pop();
            }
        }
        _ => out.push(path.clone()),
    }
}

#[derive(Clone, Debug)]
enum Step {
    Key(String),
    Index0,
}

fn at<'a>(v: &'a mut Value, path: &[Step]) -> &'a mut Value {
    path.iter().fold(v, |v, step| match (step, v) {
        (Step::Key(k), Value::Object(m)) => m.get_mut(k).expect("leaf path exists"),
        (Step::Index0, Value::Array(items)) => &mut items[0],
        _ => panic!("leaf path does not match the state's shape"),
    })
}

/// Every scalar leaf of a COSMOS snapshot, set to `-1` and then to `"x"`,
/// makes `load_state` return an error rather than restore or panic.
#[test]
fn every_mutated_leaf_is_rejected() {
    let mut state = run(Design::Cosmos)
        .save_state()
        .expect("COSMOS can snapshot");
    let mut paths = Vec::new();
    leaves(&state, &mut Vec::new(), &mut paths);
    assert_eq!(paths.len(), COSMOS_LEAVES, "leaf count moved");
    let mut accepted = Vec::new();
    for path in &paths {
        for bad in [Value::Int(-1), Value::Str("x".into())] {
            let old = std::mem::replace(at(&mut state, path), bad.clone());
            if Simulator::new(config(Design::Cosmos))
                .load_state(&state)
                .is_ok()
            {
                accepted.push((path.clone(), bad));
            }
            *at(&mut state, path) = old;
        }
    }
    assert!(accepted.is_empty(), "mutations restored: {accepted:?}");
}
