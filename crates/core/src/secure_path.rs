//! The memory controller's secure path: CTR cache, Merkle-tree metadata
//! cache, counter store, and MAC traffic accounting.
//!
//! Timing follows the paper's model:
//!
//! - a CTR cache hit costs the cache latency + 1-cycle counter combination
//!   + 40-cycle AES (the OTP can then decrypt the arriving data);
//! - a CTR cache miss adds a counter DRAM trip and the Merkle verification
//!   walk: each tree level is looked up in the MT metadata cache, and the
//!   walk stops at the first cached (already-verified) ancestor — misses
//!   are fetched from DRAM in parallel; the hash checks themselves overlap
//!   the OTP AES (paper §5);
//! - writes (LLC writebacks) increment the counter (possibly re-encrypting
//!   the whole block's coverage on overflow), dirty the counter block in
//!   the CTR cache, update the tree path, and emit MAC traffic — all off
//!   the read critical path (background queue slots, paper §5).

use crate::check::SecureObserver;
use crate::config::SimConfig;
use crate::stats::{TenantCtrStats, TrafficBreakdown, MAX_TENANTS};
use cosmos_cache::{
    AccessResult, Cache, CacheConfig, CacheStats, LocalityHint, PolicyKind, Prefetcher,
    PrefetcherKind, RecencyCache, RecencyStore, Victim,
};
use cosmos_common::json::Value;
use cosmos_common::state::{LoadResult, State};
use cosmos_common::{Cycle, LineAddr};
use cosmos_dram::Dram;
use cosmos_rl::{CtrLocalityPredictor, Locality};
use cosmos_secure::{CounterScheme, CounterStore, IncrementOutcome, MetadataLayout};
use cosmos_telemetry::recorder::{AccessInfo, EvictInfo, RlDecisionInfo};
use cosmos_telemetry::Probe;

/// Result of a CTR read on the critical path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CtrReadOutcome {
    /// Cycle at which the OTP is ready (CTR resolved + AES done).
    pub otp_ready: Cycle,
    /// Whether the CTR cache hit.
    pub ctr_hit: bool,
}

/// The CTR cache. An LRU or LCR policy over the modulo index with no
/// prefetcher runs on the exact-recency store; boxed policies (SHiP and
/// the other Figure-5 policies), prefetchers and keyed-random or skewed
/// indexes need way slots, so they run on the generic [`Cache`].
pub enum CtrCache {
    /// MRU-ordered words (MorphCtr, EMCC and the COSMOS designs).
    Recency(RecencyCache),
    /// Way slots, with the prefetcher that fills them, if any.
    Slots {
        /// The cache.
        cache: Cache,
        /// Its prefetcher.
        prefetcher: Option<Box<dyn Prefetcher>>,
    },
}

impl CtrCache {
    /// The CTR cache `config` describes; its stamps are kept only while
    /// the config's telemetry is enabled.
    fn new(config: &SimConfig) -> Self {
        let geometry = CacheConfig::new(config.ctr_cache.size_bytes, config.ctr_cache.ways)
            .with_index(config.ctr_index.to_cache(config.seed));
        let policy = config.ctr_policy;
        if config.ctr_prefetcher == PrefetcherKind::None
            && RecencyStore::<u64>::supports(&geometry, policy)
        {
            let stamps = config.telemetry.is_enabled();
            return CtrCache::Recency(RecencyCache::new(geometry, policy, stamps));
        }
        CtrCache::Slots {
            cache: Cache::new(geometry, policy),
            prefetcher: config.ctr_prefetcher.build(),
        }
    }

    #[inline]
    fn access(&mut self, line: LineAddr, write: bool, hint: Option<LocalityHint>) -> AccessResult {
        match self {
            CtrCache::Recency(c) => c.access(line, write, hint),
            CtrCache::Slots { cache, .. } => cache.access(line, write, hint),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        match self {
            CtrCache::Recency(c) => c.stats(),
            CtrCache::Slots { cache, .. } => cache.stats(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        match self {
            CtrCache::Recency(c) => c.config(),
            CtrCache::Slots { cache, .. } => cache.config(),
        }
    }

    /// The access clock that stamps telemetry events.
    fn access_clock(&self) -> u64 {
        match self {
            CtrCache::Recency(c) => c.store().access_clock(),
            CtrCache::Slots { cache, .. } => cache.access_clock(),
        }
    }

    /// All resident lines.
    pub fn resident_lines(&self) -> Vec<LineAddr> {
        match self {
            CtrCache::Recency(c) => c.store().resident_lines().collect(),
            CtrCache::Slots { cache, .. } => cache.resident_lines().collect(),
        }
    }

    /// Resident lines with their dirty bits, least- to most-recently used
    /// within each set (see [`RecencyStore::resident_entries_lru_to_mru`]).
    /// Fails for a boxed policy, whose victims do not follow recency.
    pub fn resident_entries_lru_to_mru(&self) -> Result<Vec<(LineAddr, bool)>, String> {
        match self {
            CtrCache::Recency(c) => Ok(c.store().resident_entries_lru_to_mru()),
            CtrCache::Slots { cache, .. } => cache.resident_entries_lru_to_mru(),
        }
    }
}

/// Saved as the cache it is. Prefetcher objects keep unsaveable state
/// behind the trait object.
impl State for CtrCache {
    fn savable(&self) -> LoadResult {
        match self {
            CtrCache::Recency(c) => c.savable(),
            CtrCache::Slots {
                prefetcher: Some(_),
                ..
            } => Err("snapshot unsupported with a CTR prefetcher attached".into()),
            CtrCache::Slots { cache, .. } => cache.savable(),
        }
    }

    fn save(&self) -> Value {
        match self {
            CtrCache::Recency(c) => c.save(),
            CtrCache::Slots { cache, .. } => cache.save(),
        }
    }

    fn load(&mut self, v: &Value) -> LoadResult {
        match self {
            CtrCache::Recency(c) => c.load(v),
            CtrCache::Slots { cache, .. } => cache.load(v),
        }
    }
}

/// The secure engine owned by the memory controller.
pub struct SecurePath {
    ctr_cache: CtrCache,
    mt_cache: RecencyCache,
    // Reusable prefetch-candidate buffer: run_prefetcher clears and
    // refills it every access instead of allocating.
    pf_scratch: Vec<LineAddr>,
    counters: CounterStore,
    layout: MetadataLayout,
    locality: Option<CtrLocalityPredictor>,
    ctr_latency: u64,
    combine_latency: u64,
    aes_latency: u64,
    mac_read_counter: u64,
    mac_write_counter: u64,
    overflows: u64,
    // Pure-output correctness hook (see crate::check); never affects
    // timing, replacement, or statistics.
    observer: Option<Box<dyn SecureObserver>>,
    // Observability: per-set CTR heatmap + sampled events (see
    // cosmos-telemetry). Like the observer, strictly pure-output.
    probe: Probe,
    // The RL decision made for the most recent CTR-cache access (None for
    // designs without a predictor). classify() runs immediately before
    // each demand access, so when that access evicts a line this is the
    // decision that chose the victim — it rides along on the CtrEvict
    // event so cosmos-explain can attribute the eviction. Pure-output.
    last_decision: Option<RlDecisionInfo>,
    // Tenant issuing the access currently being processed (set by the
    // simulator per access, already folded mod MAX_TENANTS) and the
    // per-tenant CTR attribution it drives. Pure accounting: replacement
    // and timing never read the tenant.
    tenant: u8,
    tenant_ctr: [TenantCtrStats; MAX_TENANTS],
}

// The metadata layout and latencies are functions of the config, the
// observer is reattached by the caller, and the telemetry probe belongs to
// the running job: none is saved.
cosmos_common::state! {
    SecurePath as "secure path" -> Result {
        ctr_cache, mt_cache, counters, locality,
        mac_read_counter, mac_write_counter, overflows, tenant_ctr,
    }
}

impl SecurePath {
    /// Builds the secure path for `config`, with a telemetry probe of its
    /// own.
    pub fn new(config: &SimConfig) -> Self {
        Self::with_probe(config, config.telemetry.probe())
    }

    /// Builds the secure path for `config`, recording through `probe`.
    pub(crate) fn with_probe(config: &SimConfig, probe: Probe) -> Self {
        let locality = config.design.has_locality_predictor().then(|| {
            CtrLocalityPredictor::with_rewards(
                config.ctr_rl,
                config.rewards.ctr,
                config.cet_entries,
                config.cet_radius,
                cosmos_common::rng::streams::CTR_PREDICTOR.derive_seed(config.seed),
            )
        });
        let ctr_cache = CtrCache::new(config);
        let mt_cache = RecencyCache::new(
            CacheConfig::new(config.mt_cache.size_bytes, config.mt_cache.ways),
            PolicyKind::Lru,
            false,
        );
        probe.ctr_heatmap_init(ctr_cache.config().num_sets());
        if config.tenants > 1 {
            probe.ctr_tenant_heatmaps_init(
                ctr_cache.config().num_sets(),
                config.tenants.min(MAX_TENANTS),
            );
        }
        let mut locality = locality;
        if let Some(p) = &mut locality {
            p.set_probe(probe.clone());
        }
        Self {
            ctr_cache,
            mt_cache,
            pf_scratch: Vec::with_capacity(8),
            counters: CounterStore::new(config.scheme),
            layout: MetadataLayout::new(config.protected_bytes, config.scheme),
            locality,
            ctr_latency: config.ctr_cache.latency,
            combine_latency: config.ctr_combine_latency,
            aes_latency: config.aes_latency,
            mac_read_counter: 0,
            mac_write_counter: 0,
            overflows: 0,
            observer: None,
            probe,
            last_decision: None,
            tenant: 0,
            tenant_ctr: [TenantCtrStats::default(); MAX_TENANTS],
        }
    }

    /// Sets the tenant the next accesses are attributed to (folded mod
    /// [`MAX_TENANTS`]). The simulator calls this once per trace access;
    /// tenant-oblivious traces always attribute to bucket 0.
    #[inline]
    pub fn set_tenant(&mut self, tenant: u8) {
        self.tenant = tenant % MAX_TENANTS as u8;
    }

    /// Per-tenant CTR-cache attribution accumulated so far.
    pub fn tenant_stats(&self) -> &[TenantCtrStats; MAX_TENANTS] {
        &self.tenant_ctr
    }

    /// Attaches a correctness observer (see [`crate::check`]). Replaces
    /// any previous observer.
    pub fn set_observer(&mut self, observer: Box<dyn SecureObserver>) {
        self.observer = Some(observer);
    }

    /// The CTR cache (stats access).
    pub fn ctr_cache(&self) -> &CtrCache {
        &self.ctr_cache
    }

    /// The MT metadata cache (stats access).
    pub fn mt_cache(&self) -> &RecencyCache {
        &self.mt_cache
    }

    /// The locality predictor, when the design has one.
    pub fn locality(&self) -> Option<&CtrLocalityPredictor> {
        self.locality.as_ref()
    }

    /// The functional counter store (checker access).
    pub fn counters(&self) -> &CounterStore {
        &self.counters
    }

    /// The metadata address layout (checker access).
    pub fn layout(&self) -> &MetadataLayout {
        &self.layout
    }

    /// Counter overflow events so far.
    pub fn overflows(&self) -> u64 {
        self.overflows
    }

    /// The counter scheme in use.
    pub fn scheme(&self) -> CounterScheme {
        self.counters.scheme()
    }

    /// Reads the CTR covering `data_line` on the critical path, starting at
    /// `start`. Returns when the OTP is ready.
    pub fn ctr_read(
        &mut self,
        data_line: LineAddr,
        start: Cycle,
        dram: &mut Dram,
        traffic: &mut TrafficBreakdown,
    ) -> CtrReadOutcome {
        self.ctr_read_inner(data_line, start, dram, traffic, false)
    }

    /// [`SecurePath::ctr_read`] for the re-issue after a killed speculative
    /// decryption: identical timing and cache behaviour, but the sampled
    /// CTR-access event carries the spec-kill flag so cosmos-explain can
    /// attribute the miss to misspeculation rather than the cache.
    pub fn ctr_read_after_kill(
        &mut self,
        data_line: LineAddr,
        start: Cycle,
        dram: &mut Dram,
        traffic: &mut TrafficBreakdown,
    ) -> CtrReadOutcome {
        self.ctr_read_inner(data_line, start, dram, traffic, true)
    }

    fn ctr_read_inner(
        &mut self,
        data_line: LineAddr,
        start: Cycle,
        dram: &mut Dram,
        traffic: &mut TrafficBreakdown,
        spec_kill: bool,
    ) -> CtrReadOutcome {
        let ctr_line = self.layout.ctr_line_of(data_line);
        let hint = self.classify(ctr_line);
        let res = self.ctr_cache.access(ctr_line, false, hint);
        if let Some(obs) = self.observer.as_mut() {
            obs.ctr_access(ctr_line, false, res.hit, res.evicted.map(Victim::from));
        }
        self.telemetry_ctr_access(ctr_line, false, spec_kill, &res);
        if let Some(ev) = res.evicted {
            if ev.dirty {
                traffic.ctr_writes += 1;
            }
        }
        let after_lookup = start + self.ctr_latency;
        let otp_ready = if res.hit {
            after_lookup + self.combine_latency + self.aes_latency
        } else {
            traffic.ctr_reads += 1;
            let ctr_done = dram.access(ctr_line, after_lookup, false);
            let mt_done = self.mt_walk(ctr_line, after_lookup, dram, traffic);
            ctr_done.max(mt_done) + self.combine_latency + self.aes_latency
        };
        let bucket = &mut self.tenant_ctr[self.tenant as usize];
        if res.hit {
            bucket.hits += 1;
        } else {
            bucket.misses += 1;
            bucket.miss_latency += (otp_ready - start).value();
        }
        self.run_prefetcher(ctr_line, res.hit, traffic);
        CtrReadOutcome {
            otp_ready,
            ctr_hit: res.hit,
        }
    }

    /// Handles the secure side of a data writeback (off the critical path):
    /// counter increment (+ re-encryption on overflow), CTR cache
    /// read-modify-write, tree path update, MAC write traffic.
    pub fn ctr_write(
        &mut self,
        data_line: LineAddr,
        now: Cycle,
        dram: &mut Dram,
        traffic: &mut TrafficBreakdown,
    ) {
        match self.counters.increment(data_line) {
            IncrementOutcome::Overflow { reencrypt } => {
                self.overflows += 1;
                traffic.reencrypt_writes += reencrypt.len() as u64;
            }
            IncrementOutcome::Ok | IncrementOutcome::Morphed { .. } => {}
        }
        if let Some(obs) = self.observer.as_mut() {
            obs.ctr_increment(data_line);
        }
        let ctr_line = self.layout.ctr_line_of(data_line);
        let hint = self.classify(ctr_line);
        let res = self.ctr_cache.access(ctr_line, true, hint);
        if let Some(obs) = self.observer.as_mut() {
            obs.ctr_access(ctr_line, true, res.hit, res.evicted.map(Victim::from));
        }
        self.telemetry_ctr_access(ctr_line, true, false, &res);
        let bucket = &mut self.tenant_ctr[self.tenant as usize];
        if res.hit {
            bucket.hits += 1;
        } else {
            bucket.misses += 1;
        }
        if let Some(ev) = res.evicted {
            if ev.dirty {
                traffic.ctr_writes += 1;
            }
        }
        if !res.hit {
            // The counter block must be fetched (and verified) before the
            // in-place increment.
            traffic.ctr_reads += 1;
            dram.access(ctr_line, now, false);
            self.mt_walk(ctr_line, now, dram, traffic);
        }
        // Tree path update: dirty the path nodes in the metadata cache.
        for node in self.layout.mt_path_iter(ctr_line) {
            let r = self.mt_cache.access(node, true, None);
            if let Some(obs) = self.observer.as_mut() {
                obs.mt_access(node, true, r.hit, r.evicted.map(Victim::from));
            }
            if let Some(ev) = r.evicted {
                if ev.dirty {
                    traffic.mt_writes += 1;
                }
            }
        }
        // One MAC line write per 8 data writes (8 MACs per line).
        self.mac_write_counter += 1;
        if self.mac_write_counter.is_multiple_of(8) {
            traffic.mac_writes += 1;
        }
    }

    /// Accounts the MAC read accompanying a data DRAM read (1 per 8).
    pub fn mac_read(&mut self, traffic: &mut TrafficBreakdown) {
        self.mac_read_counter += 1;
        if self.mac_read_counter.is_multiple_of(8) {
            traffic.mac_reads += 1;
        }
    }

    /// Walks the Merkle path of `ctr_line` bottom-up through the metadata
    /// cache, fetching missed nodes from DRAM in parallel; returns when the
    /// slowest fetched node arrives. Stops at the first cached
    /// (already-verified) ancestor.
    fn mt_walk(
        &mut self,
        ctr_line: LineAddr,
        start: Cycle,
        dram: &mut Dram,
        traffic: &mut TrafficBreakdown,
    ) -> Cycle {
        let mut done = start;
        let mut depth = 0u32;
        let mut fetched = 0u32;
        for node in self.layout.mt_path_iter(ctr_line) {
            depth += 1;
            let r = self.mt_cache.access(node, false, None);
            if let Some(obs) = self.observer.as_mut() {
                obs.mt_access(node, false, r.hit, r.evicted.map(Victim::from));
            }
            if let Some(ev) = r.evicted {
                if ev.dirty {
                    traffic.mt_writes += 1;
                }
            }
            if r.hit {
                break; // verified ancestor found
            }
            fetched += 1;
            traffic.mt_reads += 1;
            done = done.max(dram.access(node, start, false));
        }
        self.probe.merkle_walk(depth, fetched);
        done
    }

    /// Telemetry view of one demand CTR-cache access: per-set heatmap and
    /// sampled flight-recorder events. A miss that evicted nothing filled
    /// a previously invalid way, growing the set's occupancy (the CTR
    /// cache is never invalidated, so this tracks exactly).
    ///
    /// Both events are stamped with the cache's access clock *after* the
    /// access, so a CtrEvict shares its `at` with the CtrAccess that caused
    /// it — the join key cosmos-explain uses to pair them — and the evict
    /// carries the RL decision that ranked the victim (see
    /// [`SecurePath::last_decision`]).
    fn telemetry_ctr_access(
        &self,
        ctr_line: LineAddr,
        write: bool,
        spec_kill: bool,
        res: &AccessResult,
    ) {
        if !self.probe.is_enabled() {
            return;
        }
        let set = self.ctr_cache.config().set_of(ctr_line.index()) as u32;
        let at = self.ctr_cache.access_clock();
        self.probe.ctr_access(
            AccessInfo {
                set,
                line: ctr_line.index(),
                at,
                hit: res.hit,
                write,
                spec_kill,
                tenant: self.tenant,
            },
            !res.hit && res.evicted.is_none(),
        );
        if let Some(ev) = res.evicted {
            self.probe.ctr_evict(EvictInfo {
                set,
                victim_line: ev.line.index(),
                dirty: ev.dirty,
                fill_at: ev.fill_at,
                last_touch_at: ev.last_touch_at,
                at,
                lru_deviated: ev.lru_deviated,
                rl: self.last_decision,
            });
        }
    }

    fn classify(&mut self, ctr_line: LineAddr) -> Option<LocalityHint> {
        self.last_decision = None;
        let p = self.locality.as_mut()?;
        let d = p.classify(ctr_line);
        self.last_decision = Some(RlDecisionInfo {
            id: d.id,
            q_good: d.q_good,
            q_bad: d.q_bad,
            reward: d.reward,
        });
        Some(LocalityHint {
            good: d.locality == Locality::Good,
            score: d.score,
        })
    }

    fn run_prefetcher(&mut self, ctr_line: LineAddr, hit: bool, traffic: &mut TrafficBreakdown) {
        let CtrCache::Slots {
            cache,
            prefetcher: Some(pf),
        } = &mut self.ctr_cache
        else {
            return;
        };
        // The candidate scratch buffer is reused across accesses so this
        // path stays allocation-free after warmup.
        let cands = &mut self.pf_scratch;
        cands.clear();
        pf.on_access(ctr_line, hit, cands);
        for &cand in cands.iter() {
            // Only prefetch within the CTR region.
            if !self.layout.is_ctr(cand) {
                continue;
            }
            if cache.contains(cand) {
                continue;
            }
            // A prefetched CTR still needs fetching + integrity checks
            // (the paper's point about wasted prefetch traffic).
            traffic.ctr_reads += 1;
            let ev = cache.prefetch_fill(cand, None);
            if let Some(obs) = self.observer.as_mut() {
                obs.ctr_prefetch(cand, ev.map(Victim::from));
            }
            if let Some(ev) = ev {
                if ev.dirty {
                    traffic.ctr_writes += 1;
                }
                // Prefetch-induced evictions victimize lines too;
                // report them so miss attribution sees every eviction.
                // No demand access pairs with this `at`, and no RL
                // decision ranked the victim (rl: None).
                if self.probe.is_enabled() {
                    self.probe.ctr_evict(EvictInfo {
                        set: cache.config().set_of(cand.index()) as u32,
                        victim_line: ev.line.index(),
                        dirty: ev.dirty,
                        fill_at: ev.fill_at,
                        last_touch_at: ev.last_touch_at,
                        at: cache.access_clock(),
                        lru_deviated: ev.lru_deviated,
                        rl: None,
                    });
                }
            }
            // Integrity verification for the prefetched counter.
            for node in self.layout.mt_path_iter(cand) {
                let r = self.mt_cache.access(node, false, None);
                if let Some(obs) = self.observer.as_mut() {
                    obs.mt_access(node, false, r.hit, r.evicted.map(Victim::from));
                }
                if r.hit {
                    break;
                }
                traffic.mt_reads += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Design, SimConfig};
    use cosmos_dram::DramConfig;

    fn setup(design: Design) -> (SecurePath, Dram, TrafficBreakdown) {
        let mut cfg = SimConfig::paper_default(design);
        cfg.ctr_cache.size_bytes = 8192; // tiny for tests
        cfg.mt_cache.size_bytes = 4096;
        cfg.protected_bytes = 1 << 30;
        (
            SecurePath::new(&cfg),
            Dram::new(DramConfig::ddr4_2400()),
            TrafficBreakdown::default(),
        )
    }

    #[test]
    fn ctr_miss_then_hit() {
        let (mut sp, mut dram, mut tr) = setup(Design::MorphCtr);
        let line = LineAddr::new(100);
        let r1 = sp.ctr_read(line, Cycle::new(0), &mut dram, &mut tr);
        assert!(!r1.ctr_hit);
        assert_eq!(tr.ctr_reads, 1);
        assert!(tr.mt_reads > 0, "first miss must verify the tree");
        let r2 = sp.ctr_read(line, Cycle::new(1000), &mut dram, &mut tr);
        assert!(r2.ctr_hit);
        assert_eq!(tr.ctr_reads, 1, "hit must not refetch");
    }

    #[test]
    fn hit_latency_is_cache_plus_aes() {
        let (mut sp, mut dram, mut tr) = setup(Design::MorphCtr);
        let line = LineAddr::new(5);
        sp.ctr_read(line, Cycle::new(0), &mut dram, &mut tr);
        let r = sp.ctr_read(line, Cycle::new(500), &mut dram, &mut tr);
        // ctr_latency(2) + combine(1) + aes(40)
        assert_eq!(r.otp_ready, Cycle::new(500 + 2 + 1 + 40));
    }

    #[test]
    fn same_block_shares_counter_line() {
        let (mut sp, mut dram, mut tr) = setup(Design::MorphCtr);
        sp.ctr_read(LineAddr::new(0), Cycle::new(0), &mut dram, &mut tr);
        // Line 100 shares the 1:128 counter block with line 0.
        let r = sp.ctr_read(LineAddr::new(100), Cycle::new(500), &mut dram, &mut tr);
        assert!(r.ctr_hit);
    }

    #[test]
    fn writes_increment_counters_and_emit_mac_traffic() {
        let (mut sp, mut dram, mut tr) = setup(Design::MorphCtr);
        for i in 0..16u64 {
            sp.ctr_write(LineAddr::new(i * 200), Cycle::new(0), &mut dram, &mut tr);
        }
        assert_eq!(tr.mac_writes, 2, "1 MAC line write per 8 data writes");
        assert!(tr.ctr_reads > 0, "write misses fetch counter blocks");
    }

    #[test]
    fn overflow_generates_reencryption_traffic() {
        let mut cfg = SimConfig::paper_default(Design::MorphCtr);
        cfg.scheme = CounterScheme::Split; // overflows after 128 writes
        cfg.protected_bytes = 1 << 30;
        let mut sp = SecurePath::new(&cfg);
        let mut dram = Dram::new(DramConfig::ddr4_2400());
        let mut tr = TrafficBreakdown::default();
        for _ in 0..200 {
            sp.ctr_write(LineAddr::new(7), Cycle::new(0), &mut dram, &mut tr);
        }
        assert!(sp.overflows() >= 1);
        assert_eq!(tr.reencrypt_writes, sp.overflows() * 64);
    }

    #[test]
    fn locality_predictor_attached_only_for_cp_designs() {
        let (sp, _, _) = setup(Design::Cosmos);
        assert!(sp.locality().is_some());
        let (sp, _, _) = setup(Design::CosmosDp);
        assert!(sp.locality().is_none());
    }

    #[test]
    fn mt_walk_caches_verified_ancestors() {
        let (mut sp, mut dram, mut tr) = setup(Design::MorphCtr);
        sp.ctr_read(LineAddr::new(0), Cycle::new(0), &mut dram, &mut tr);
        let first_mt = tr.mt_reads;
        assert!(first_mt > 0);
        // A different counter block nearby shares upper tree levels: its
        // walk should stop early at the cached ancestor.
        sp.ctr_read(LineAddr::new(128), Cycle::new(1000), &mut dram, &mut tr);
        let second_mt = tr.mt_reads - first_mt;
        assert!(
            second_mt < first_mt,
            "shared ancestors must be cached ({first_mt} then {second_mt})"
        );
    }

    /// The saved state of a `design` secure path whose tiny CTR and MT
    /// caches are full, after a mix of reads and writes.
    fn saved_full(design: Design) -> Value {
        let (mut sp, mut dram, mut tr) = setup(design);
        for i in 0..2_000u64 {
            let line = LineAddr::new(i * 7 % 600 * 128);
            match i % 3 {
                0 => sp.ctr_write(line, Cycle::new(i), &mut dram, &mut tr),
                _ => drop(sp.ctr_read(line, Cycle::new(i), &mut dram, &mut tr)),
            }
        }
        sp.save_state().unwrap()
    }

    /// An edit of a saved word array.
    type WordsEdit = fn(&mut Vec<u64>);

    /// `v` with the words of its `part` cache edited by `f`.
    fn tamper(v: &Value, part: &str, f: WordsEdit) -> Value {
        let mut v = v.clone();
        let Value::Object(top) = &mut v else {
            panic!("secure-path state is an object")
        };
        let cache = top.get_mut(part).unwrap();
        let mut words = cosmos_common::json::codec::u64_array(cache, "words").unwrap();
        f(&mut words);
        let Value::Object(m) = cache else {
            panic!("cache state is an object")
        };
        m.insert("words", cosmos_common::json::codec::from_u64s(words));
        v
    }

    #[test]
    fn load_rejects_tampered_ctr_and_mt_words() {
        // Set 0's first word moved to set 1, a line stored twice, a line
        // after an empty way, and a good flag without its hint's present
        // bit: hint bits are legal only in an LCR store (COSMOS's CTR
        // cache), and there only with the present bit.
        for (design, part) in [
            (Design::MorphCtr, "ctr_cache"),
            (Design::Cosmos, "ctr_cache"),
            (Design::Cosmos, "mt_cache"),
        ] {
            let saved = saved_full(design);
            let hint_error = match (design, part) {
                (Design::Cosmos, "ctr_cache") => "without a hint",
                _ => "hint bits in an LRU store",
            };
            let edits: [(WordsEdit, &str); 4] = [
                (|w| w[0] += 2, "belongs to set 1"),
                (|w| w[1] = w[0] ^ 1, "stored twice"),
                (
                    |w| w[1] = cosmos_cache::recency::EMPTY,
                    "follows the empty way 1",
                ),
                (|w| w[0] = w[0] & !(1 << 63) | 1 << 62, hint_error),
            ];
            for (edit, want) in edits {
                let err = setup(design)
                    .0
                    .load_state(&tamper(&saved, part, edit))
                    .expect_err(&format!("{design} {part}: {want} must be rejected"));
                assert!(
                    err.contains(&format!("{part}.words"))
                        && err.contains("set 0")
                        && err.contains(want),
                    "{design} {part}: {err}"
                );
            }
            let mut restored = setup(design).0;
            restored.load_state(&saved).unwrap();
            assert_eq!(restored.save_state().unwrap(), saved);
        }
    }

    #[test]
    fn mac_reads_are_one_in_eight() {
        let (mut sp, _, mut tr) = setup(Design::MorphCtr);
        for _ in 0..24 {
            sp.mac_read(&mut tr);
        }
        assert_eq!(tr.mac_reads, 3);
    }
}
