//! The lockstep observer: shadow models attached to a live simulator.
//!
//! [`ShadowHook`] implements [`cosmos_core::SecureObserver`] over a shared
//! [`ShadowState`], so the checked runner keeps a handle to the state while
//! the simulator owns the hook. Everything runs on one thread (simulators
//! are constructed inside their worker threads), so an `Rc<RefCell<_>>` is
//! the whole synchronization story.

// cosmos-lint: allow-file(H2): the lockstep observer runs only in checked
// diagnostic runs, never in measured throughput configurations; per-event
// violation batches are the price of lockstep verification.

use crate::invariants::Violation;
use crate::shadow::{DenseCounterStore, ShadowCache, ShadowMode};
use cosmos_cache::{CacheConfig, PolicyKind, Victim};
use cosmos_common::LineAddr;
use cosmos_core::secure_path::SecurePath;
use cosmos_core::{SecureObserver, SimConfig};
use cosmos_crypto::Sha256;
use cosmos_secure::merkle::Hash;
use cosmos_secure::{CounterScheme, MerkleTree};
use std::cell::RefCell;
use std::rc::Rc;

/// Hard cap on retained violations; beyond it only the count grows.
const VIOLATION_CAP: usize = 64;

/// All shadow models for one checked run, plus the violations they found.
#[derive(Debug)]
pub struct ShadowState {
    scheme: CounterScheme,
    ctr_shadow: ShadowCache,
    mt_shadow: ShadowCache,
    counters: DenseCounterStore,
    /// Incrementally-maintained Merkle tree over shadow counter blocks.
    merkle: MerkleTree,
    ctr_blocks: u64,
    /// Counter blocks whose leaves we updated (replay targets).
    touched_blocks: Vec<u64>,
    violations: Vec<Violation>,
    /// Total violations seen, including ones dropped past the cap.
    total_violations: u64,
    /// Observer events delivered (coverage telemetry for the fuzzer).
    events: u64,
}

impl ShadowState {
    /// Builds shadow models matching `config`'s metadata geometry. Returns
    /// `None` for non-secure designs (there is no metadata to shadow).
    pub fn new(config: &SimConfig) -> Option<Self> {
        if !config.design.is_secure() {
            return None;
        }
        let ctr_geom = CacheConfig::new(config.ctr_cache.size_bytes, config.ctr_cache.ways);
        let mt_geom = CacheConfig::new(config.mt_cache.size_bytes, config.mt_cache.ways);
        let ctr_index = config.ctr_index.to_cache(config.seed);
        // The shadow predicts victims only where the real policy is true
        // LRU over per-set recency — which survives a keyed-random index
        // (the hash just permutes lines across sets) but not a skewed one
        // (per-way candidate sets have no per-set LRU order). Skewed
        // shadows collapse to one fully-associative Mirror pool; LCR/SHiP
        // victims are policy state we mirror instead.
        let ctr_shadow = if matches!(ctr_index, cosmos_cache::IndexKind::Skewed { .. }) {
            ShadowCache::new(
                "ctr-cache",
                1,
                ctr_geom.num_sets() * config.ctr_cache.ways,
                ShadowMode::Mirror,
            )
            .with_index(ctr_index)
        } else {
            let ctr_mode = if config.ctr_policy == PolicyKind::Lru {
                ShadowMode::Exact
            } else {
                ShadowMode::Mirror
            };
            ShadowCache::new(
                "ctr-cache",
                ctr_geom.num_sets(),
                config.ctr_cache.ways,
                ctr_mode,
            )
            .with_index(ctr_index)
        };
        let layout = cosmos_secure::MetadataLayout::new(config.protected_bytes, config.scheme);
        let ctr_blocks = layout.ctr_blocks();
        Some(Self {
            scheme: config.scheme,
            ctr_shadow,
            // The real MT cache is hardcoded LRU (secure_path.rs).
            mt_shadow: ShadowCache::new(
                "mt-cache",
                mt_geom.num_sets(),
                config.mt_cache.ways,
                ShadowMode::Exact,
            ),
            counters: DenseCounterStore::new(config.scheme),
            merkle: MerkleTree::with_default_leaf(
                ctr_blocks,
                cosmos_secure::MetadataLayout::DEFAULT_ARITY,
                Self::empty_block_leaf(config.scheme),
            ),
            ctr_blocks,
            touched_blocks: Vec::new(),
            violations: Vec::new(),
            total_violations: 0,
            events: 0,
        })
    }

    /// Builds shadow models *primed* from a restored simulator's secure
    /// path — `--check` on the resumed half of a checkpointed run. The
    /// shadow caches adopt the real residency in recency order, the dense
    /// store adopts every materialized counter block, and the Merkle tree
    /// is rebuilt over the adopted leaves, so the oracles judge only what
    /// happens *after* the resume point.
    ///
    /// Fails when the real structures cannot expose priming state (boxed
    /// replacement policies — same set as snapshot support).
    pub fn primed(config: &SimConfig, real: &SecurePath) -> Result<Self, String> {
        let mut s = Self::new(config)
            .ok_or_else(|| "cannot prime shadows for a non-secure design".to_string())?;
        s.ctr_shadow
            .prime(&real.ctr_cache().resident_entries_lru_to_mru()?);
        s.mt_shadow
            .prime(&real.mt_cache().store().resident_entries_lru_to_mru());
        s.counters.prime_from(real.counters());
        let blocks: Vec<u64> = real
            .counters()
            .materialized_blocks()
            .map(|(idx, _)| idx)
            .filter(|&idx| idx < s.ctr_blocks)
            .collect();
        for block in blocks {
            s.touched_blocks.push(block);
            let leaf = s.block_leaf_hash(block);
            s.merkle.update_leaf(block, leaf);
        }
        Ok(s)
    }

    /// Leaf hash of a counter block: SHA-256 over the major followed by
    /// every minor slot, little-endian.
    fn block_leaf_hash(&self, block: u64) -> Hash {
        let mut h = Sha256::new();
        let coverage = self.scheme.coverage();
        let first = block * coverage;
        let major_line = LineAddr::new(first);
        h.update(&(self.counters.value(major_line) >> 20).to_le_bytes());
        for idx in first..first + coverage {
            let line = LineAddr::new(idx);
            h.update(&(self.counters.value(line) & ((1 << 20) - 1)).to_le_bytes());
        }
        h.finalize()
    }

    /// The default leaf: an all-zero block under `scheme`.
    fn empty_block_leaf(scheme: CounterScheme) -> Hash {
        let mut h = Sha256::new();
        h.update(&0u64.to_le_bytes());
        for _ in 0..scheme.coverage() {
            h.update(&0u64.to_le_bytes());
        }
        h.finalize()
    }

    fn record(&mut self, batch: Vec<Violation>) {
        self.total_violations += batch.len() as u64;
        for v in batch {
            if self.violations.len() < VIOLATION_CAP {
                self.violations.push(v);
            }
        }
    }

    /// Violations found so far (capped at `VIOLATION_CAP`).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Total violations seen, including any dropped past the cap.
    pub fn total_violations(&self) -> u64 {
        self.total_violations
    }

    /// Observer events delivered so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// End-of-run checks against the real secure path: residency sets,
    /// per-line counter values and overflow counts, and a Merkle replay —
    /// the incrementally-maintained tree must match a tree rebuilt from
    /// scratch out of the final leaf hashes.
    pub fn final_checks(&mut self, real: &SecurePath) {
        let mut out = Vec::new();
        self.ctr_shadow
            .diff_residency(real.ctr_cache().resident_lines(), &mut out);
        self.mt_shadow
            .diff_residency(real.mt_cache().store().resident_lines(), &mut out);
        self.counters.diff(real.counters(), 8, &mut out);
        if real.overflows() != self.counters.overflows() {
            out.push(Violation::new(
                "counter-overflows",
                format!(
                    "secure path reports {} overflows, dense store saw {}",
                    real.overflows(),
                    self.counters.overflows()
                ),
            ));
        }

        // Merkle replay: rebuild from final shadow leaves and compare roots.
        let mut replay = MerkleTree::with_default_leaf(
            self.ctr_blocks,
            cosmos_secure::MetadataLayout::DEFAULT_ARITY,
            Self::empty_block_leaf(self.scheme),
        );
        let mut blocks = self.touched_blocks.clone();
        blocks.sort_unstable();
        blocks.dedup();
        for &b in &blocks {
            replay.update_leaf(b, self.block_leaf_hash(b));
        }
        if replay.root() != self.merkle.root() {
            out.push(Violation::new(
                "merkle-replay",
                format!(
                    "incremental root differs from a from-scratch rebuild over {} touched blocks",
                    blocks.len()
                ),
            ));
        }
        self.record(out);
    }
}

/// The [`SecureObserver`] handed to the simulator; shares [`ShadowState`]
/// with the checked runner.
#[derive(Debug)]
pub struct ShadowHook {
    state: Rc<RefCell<ShadowState>>,
}

impl ShadowHook {
    /// Wraps shared state in an observer hook.
    pub fn new(state: Rc<RefCell<ShadowState>>) -> Self {
        Self { state }
    }
}

impl SecureObserver for ShadowHook {
    fn ctr_access(&mut self, ctr_line: LineAddr, write: bool, hit: bool, evicted: Option<Victim>) {
        let mut s = self.state.borrow_mut();
        s.events += 1;
        let mut out = Vec::new();
        s.ctr_shadow.demand(ctr_line, write, hit, evicted, &mut out);
        s.record(out);
    }

    fn ctr_prefetch(&mut self, ctr_line: LineAddr, evicted: Option<Victim>) {
        let mut s = self.state.borrow_mut();
        s.events += 1;
        let mut out = Vec::new();
        s.ctr_shadow.prefetch(ctr_line, evicted, &mut out);
        s.record(out);
    }

    fn ctr_increment(&mut self, data_line: LineAddr) {
        let mut s = self.state.borrow_mut();
        s.events += 1;
        s.counters.increment(data_line);
        let block = s.scheme.block_of(data_line);
        // Out-of-layout blocks (traces touching beyond the protected
        // region) have no leaf; the counter diff still covers them.
        if block < s.ctr_blocks {
            s.touched_blocks.push(block);
            let leaf = s.block_leaf_hash(block);
            s.merkle.update_leaf(block, leaf);
        }
    }

    fn mt_access(&mut self, node: LineAddr, write: bool, hit: bool, evicted: Option<Victim>) {
        let mut s = self.state.borrow_mut();
        s.events += 1;
        let mut out = Vec::new();
        s.mt_shadow.demand(node, write, hit, evicted, &mut out);
        s.record(out);
    }
}
