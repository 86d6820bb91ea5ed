//! Simulation configuration (paper Table 3) and the design variants
//! (paper Table 4).

use cosmos_cache::{PolicyKind, PrefetcherKind};
use cosmos_common::json::{json, Value};
use cosmos_dram::DramConfig;
use cosmos_rl::params::{RewardTable, RlParams};
use cosmos_secure::CounterScheme;
use cosmos_telemetry::Telemetry;

/// The secure-memory designs under evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Design {
    /// Non-protected memory: no counters, MACs, or tree.
    Np,
    /// The MorphCtr baseline: CTR cache at the MC, accessed after an LLC
    /// miss, LRU replacement.
    MorphCtr,
    /// EMCC-like: CTR cache accessed after every L1 miss, in parallel with
    /// the L2/LLC/DRAM data path (idealized, as in the paper's §6.2).
    Emcc,
    /// RMCC-like (Wang et al., MICRO 2022): self-reinforcing memoization of
    /// cryptography state — modeled as a post-LLC CTR cache whose
    /// replacement reinforces counters that keep getting re-referenced
    /// (SHiP's signature counters are the closest published analogue of
    /// RMCC's self-reinforcing retention; see DESIGN.md).
    Rmcc,
    /// COSMOS-DP: RL data-location predictor only (early CTR access for
    /// predicted-off-chip requests); LRU CTR cache.
    CosmosDp,
    /// COSMOS-CP: RL CTR-locality predictor + LCR-CTR cache only; CTR
    /// access stays after the LLC miss.
    CosmosCp,
    /// Full COSMOS: both predictors + LCR-CTR cache.
    Cosmos,
}

impl Design {
    /// Every design, NP first and full COSMOS last.
    pub const ALL: [Design; 7] = [
        Design::Np,
        Design::MorphCtr,
        Design::Emcc,
        Design::Rmcc,
        Design::CosmosDp,
        Design::CosmosCp,
        Design::Cosmos,
    ];

    /// The four designs of Figures 10/11/14, in plot order.
    pub const fn figure10() -> [Design; 4] {
        [
            Design::MorphCtr,
            Design::CosmosCp,
            Design::CosmosDp,
            Design::Cosmos,
        ]
    }

    /// Display name.
    pub const fn name(self) -> &'static str {
        match self {
            Design::Np => "NP",
            Design::MorphCtr => "MorphCtr",
            Design::Emcc => "EMCC",
            Design::Rmcc => "RMCC",
            Design::CosmosDp => "COSMOS-DP",
            Design::CosmosCp => "COSMOS-CP",
            Design::Cosmos => "COSMOS",
        }
    }

    /// Whether the design protects memory (everything except NP).
    pub const fn is_secure(self) -> bool {
        !matches!(self, Design::Np)
    }

    /// Whether the CTR path is tapped at the L1-miss point (early access).
    pub const fn early_ctr_access(self) -> bool {
        matches!(self, Design::Emcc | Design::CosmosDp | Design::Cosmos)
    }

    /// Whether the data-location predictor is active.
    pub const fn has_data_predictor(self) -> bool {
        matches!(self, Design::CosmosDp | Design::Cosmos)
    }

    /// Whether the CTR-locality predictor and LCR cache are active.
    pub const fn has_locality_predictor(self) -> bool {
        matches!(self, Design::CosmosCp | Design::Cosmos)
    }
}

impl core::fmt::Display for Design {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

impl core::str::FromStr for Design {
    type Err = String;

    /// Parses a [`Design::name`], case-insensitively.
    fn from_str(name: &str) -> Result<Self, String> {
        Design::ALL
            .into_iter()
            .find(|d| d.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| {
                let known: Vec<_> = Design::ALL.iter().map(|d| d.name()).collect();
                format!("unknown design {name:?} (known: {})", known.join(", "))
            })
    }
}

/// The CTR-cache line→set mapping family (DESIGN.md §16). The keyed
/// variants are the occupancy-channel defenses: they derive their
/// concrete key from the simulation seed at build time
/// ([`CtrIndex::to_cache`]), so two runs with the same seed place lines
/// identically while an attacker without the key cannot predict the
/// mapping.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum CtrIndex {
    /// Low-order-bits modulo indexing (the historical default).
    #[default]
    Modulo,
    /// Keyed-randomized indexing: one seeded permutation for all ways.
    Random,
    /// Skewed-associative indexing: an independent keyed hash per way.
    Skewed,
}

impl CtrIndex {
    /// Display/report name, matching `cosmos_cache::IndexKind::name`.
    pub const fn name(self) -> &'static str {
        match self {
            CtrIndex::Modulo => "modulo",
            CtrIndex::Random => "random",
            CtrIndex::Skewed => "skewed",
        }
    }

    /// The concrete cache-layer index function for a simulation seed.
    pub fn to_cache(self, seed: u64) -> cosmos_cache::IndexKind {
        let key = cosmos_common::rng::streams::CTR_INDEX_KEY.derive_seed(seed);
        match self {
            CtrIndex::Modulo => cosmos_cache::IndexKind::Modulo,
            CtrIndex::Random => cosmos_cache::IndexKind::Random { key },
            CtrIndex::Skewed => cosmos_cache::IndexKind::Skewed { key },
        }
    }
}

/// One cache level's geometry and access latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheLevelConfig {
    /// Capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Access latency in cycles.
    pub latency: u64,
}

impl CacheLevelConfig {
    /// The level as a JSON object.
    pub fn to_json(&self) -> Value {
        json!({
            "size_bytes": self.size_bytes,
            "ways": self.ways,
            "latency": self.latency,
        })
    }
}

/// Full simulation configuration (paper Table 3 defaults).
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// The design variant to simulate.
    pub design: Design,
    /// Number of cores (L1/L2 are per-core).
    pub cores: usize,
    /// L1 data cache (per core): 32 KB, 2-way, 2 cycles.
    pub l1: CacheLevelConfig,
    /// L2 cache (per core): 1 MB, 8-way, 20 cycles.
    pub l2: CacheLevelConfig,
    /// Shared LLC: 8 MB, 16-way, 128 cycles.
    pub llc: CacheLevelConfig,
    /// CTR cache in the MC. The baseline uses 512 KB LRU; COSMOS variants
    /// with the locality predictor use a 128 KB LCR cache (paper §5).
    pub ctr_cache: CacheLevelConfig,
    /// CTR cache replacement policy (LRU baseline, LCR for COSMOS-CP/full).
    pub ctr_policy: PolicyKind,
    /// CTR cache line→set mapping (modulo baseline; keyed randomized or
    /// skewed-associative as occupancy-channel defenses, DESIGN.md §16).
    pub ctr_index: CtrIndex,
    /// Optional prefetcher on the CTR cache (Figure-5 study only).
    pub ctr_prefetcher: PrefetcherKind,
    /// Merkle-tree metadata cache in the MC.
    pub mt_cache: CacheLevelConfig,
    /// AES (OTP) latency in cycles.
    pub aes_latency: u64,
    /// MAC authentication latency in cycles.
    pub auth_latency: u64,
    /// Major/minor counter combination latency (MorphCtr, 1 cycle).
    pub ctr_combine_latency: u64,
    /// Counter scheme.
    pub scheme: CounterScheme,
    /// Protected-region size (sets the Merkle-tree depth); 32 GB default.
    pub protected_bytes: u64,
    /// DRAM configuration.
    pub dram: DramConfig,
    /// Data-location predictor hyperparameters.
    pub data_rl: RlParams,
    /// CTR-locality predictor hyperparameters.
    pub ctr_rl: RlParams,
    /// Reward table for both agents.
    pub rewards: RewardTable,
    /// CET entries (Table 2: 8,192).
    pub cet_entries: usize,
    /// CET spatial neighbourhood radius in *counter lines*. Algorithm 1's
    /// ±32 is byte-granular (within one 64 B counter line), i.e. radius 0.
    pub cet_radius: u64,
    /// RNG seed for the predictors' exploration.
    pub seed: u64,
    /// Record a timeline sample every this many accesses (0 = never).
    pub sample_interval: usize,
    /// Tenants expected in the trace (observability hint only: sizes the
    /// per-tenant telemetry heatmap lanes when > 1). Results never depend
    /// on it — per-tenant stat buckets always exist — so, like
    /// `telemetry`, it is excluded from [`SimConfig::to_json`].
    pub tenants: usize,
    /// Observability handle, distributed to every component at build time.
    /// Disabled by default; hooks observe only and never change results.
    pub telemetry: Telemetry,
}

impl SimConfig {
    /// The paper's Table-3 configuration for a given design.
    pub fn paper_default(design: Design) -> Self {
        let use_lcr = design.has_locality_predictor();
        Self {
            design,
            cores: 4,
            l1: CacheLevelConfig {
                size_bytes: 32 * 1024,
                ways: 2,
                latency: 2,
            },
            l2: CacheLevelConfig {
                size_bytes: 1024 * 1024,
                ways: 8,
                latency: 20,
            },
            llc: CacheLevelConfig {
                size_bytes: 8 * 1024 * 1024,
                ways: 16,
                latency: 128,
            },
            ctr_cache: CacheLevelConfig {
                // Every secure design gets the same 512 KB CTR cache so the
                // comparison isolates the *policy and datapath* changes.
                // The paper instead shrinks COSMOS's cache to 128 KB to pay
                // for its 147 KB of predictor state; `with_paper_ctr_sizes`
                // reproduces that accounting as an ablation.
                size_bytes: 512 * 1024,
                ways: 8,
                latency: 2,
            },
            ctr_policy: if use_lcr {
                PolicyKind::Lcr
            } else if matches!(design, Design::Rmcc) {
                PolicyKind::Ship
            } else {
                PolicyKind::Lru
            },
            ctr_index: CtrIndex::Modulo,
            ctr_prefetcher: PrefetcherKind::None,
            mt_cache: CacheLevelConfig {
                size_bytes: 128 * 1024,
                ways: 8,
                latency: 2,
            },
            aes_latency: 40,
            auth_latency: 40,
            ctr_combine_latency: 1,
            scheme: CounterScheme::MorphCtr,
            protected_bytes: 32 << 30,
            dram: DramConfig::ddr4_2400(),
            data_rl: RlParams::data_defaults(),
            ctr_rl: RlParams::ctr_defaults(),
            rewards: RewardTable::default(),
            cet_entries: 8192,
            cet_radius: 0,
            seed: 0xC05_305,
            sample_interval: 0,
            tenants: 1,
            telemetry: Telemetry::disabled(),
        }
    }

    /// The paper's §5 size accounting: COSMOS variants keep only a 128 KB
    /// CTR cache, compensating for their predictor-state overhead, while
    /// non-COSMOS designs keep 512 KB.
    pub fn with_paper_ctr_sizes(mut self) -> Self {
        if self.design.has_data_predictor() || self.design.has_locality_predictor() {
            self.ctr_cache.size_bytes = 128 * 1024;
        }
        self
    }

    /// An 8-core scaling configuration (paper Figure 15): 16 MB LLC.
    pub fn eight_core(design: Design) -> Self {
        let mut c = Self::paper_default(design);
        c.cores = 8;
        c.llc.size_bytes = 16 * 1024 * 1024;
        c
    }

    /// The plain-data configuration fields as a JSON object (policy,
    /// scheme, DRAM, and RL sub-configs are reported elsewhere).
    pub fn to_json(&self) -> Value {
        json!({
            "design": self.design.name(),
            "cores": self.cores,
            "l1": self.l1.to_json(),
            "l2": self.l2.to_json(),
            "llc": self.llc.to_json(),
            "ctr_cache": self.ctr_cache.to_json(),
            "ctr_index": self.ctr_index.name(),
            "mt_cache": self.mt_cache.to_json(),
            "aes_latency": self.aes_latency,
            "auth_latency": self.auth_latency,
            "ctr_combine_latency": self.ctr_combine_latency,
            "protected_bytes": self.protected_bytes,
            "cet_entries": self.cet_entries,
            "cet_radius": self.cet_radius,
            "seed": self.seed,
            "sample_interval": self.sample_interval,
        })
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent parameters (zero cores, non-secure design
    /// with RL predictors, invalid RL parameters, …).
    pub fn validate(&self) {
        assert!(self.cores > 0, "need at least one core");
        assert!(
            !matches!(self.ctr_index, CtrIndex::Skewed)
                || matches!(self.ctr_policy, PolicyKind::Lru | PolicyKind::Lcr),
            "skewed CTR indexing supports only the inline LRU/LCR policies"
        );
        self.data_rl.validate();
        self.ctr_rl.validate();
        assert!(self.cet_entries > 0, "CET must have entries");
        assert!(
            self.protected_bytes > 0,
            "protected region must be non-empty"
        );
        self.dram.validate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_design_name_parses_back_in_any_case() {
        for d in Design::ALL {
            for name in [
                d.name().to_string(),
                d.name().to_ascii_lowercase(),
                d.name().to_ascii_uppercase(),
            ] {
                assert_eq!(name.parse::<Design>(), Ok(d), "{name}");
            }
        }
        let err = "cosmosdp".parse::<Design>().unwrap_err();
        assert!(err.contains("known:") && err.contains("COSMOS-DP"), "{err}");
    }

    #[test]
    fn design_flags() {
        assert!(!Design::Np.is_secure());
        assert!(Design::MorphCtr.is_secure());
        assert!(!Design::MorphCtr.early_ctr_access());
        assert!(Design::Emcc.early_ctr_access());
        assert!(!Design::Emcc.has_data_predictor());
        assert!(Design::CosmosDp.has_data_predictor());
        assert!(!Design::CosmosDp.has_locality_predictor());
        assert!(Design::CosmosCp.has_locality_predictor());
        assert!(!Design::CosmosCp.early_ctr_access());
        assert!(Design::Cosmos.has_data_predictor());
        assert!(Design::Cosmos.has_locality_predictor());
        assert!(Design::Cosmos.early_ctr_access());
    }

    #[test]
    fn defaults_match_table3() {
        let c = SimConfig::paper_default(Design::MorphCtr);
        c.validate();
        assert_eq!(c.cores, 4);
        assert_eq!(c.l1.size_bytes, 32 * 1024);
        assert_eq!(c.l1.latency, 2);
        assert_eq!(c.l2.size_bytes, 1 << 20);
        assert_eq!(c.l2.latency, 20);
        assert_eq!(c.llc.size_bytes, 8 << 20);
        assert_eq!(c.llc.latency, 128);
        assert_eq!(c.ctr_cache.size_bytes, 512 * 1024);
        assert_eq!(c.aes_latency, 40);
        assert_eq!(c.auth_latency, 40);
        assert_eq!(c.cet_entries, 8192);
    }

    #[test]
    fn cosmos_uses_lcr_policy_and_equal_cache() {
        let c = SimConfig::paper_default(Design::Cosmos);
        assert_eq!(c.ctr_cache.size_bytes, 512 * 1024);
        assert_eq!(c.ctr_policy, PolicyKind::Lcr);
        let dp = SimConfig::paper_default(Design::CosmosDp);
        assert_eq!(dp.ctr_cache.size_bytes, 512 * 1024);
        assert_eq!(dp.ctr_policy, PolicyKind::Lru);
        // The paper's size accounting shrinks COSMOS variants to 128 KB.
        let small = SimConfig::paper_default(Design::Cosmos).with_paper_ctr_sizes();
        assert_eq!(small.ctr_cache.size_bytes, 128 * 1024);
        let emcc = SimConfig::paper_default(Design::Emcc).with_paper_ctr_sizes();
        assert_eq!(emcc.ctr_cache.size_bytes, 512 * 1024);
    }

    #[test]
    fn ctr_index_defaults_to_modulo_and_keys_from_seed() {
        let c = SimConfig::paper_default(Design::MorphCtr);
        assert_eq!(c.ctr_index, CtrIndex::Modulo);
        assert_eq!(
            c.ctr_index.to_cache(c.seed),
            cosmos_cache::IndexKind::Modulo
        );
        match CtrIndex::Random.to_cache(7) {
            cosmos_cache::IndexKind::Random { key } => {
                assert_eq!(
                    key,
                    cosmos_common::rng::streams::CTR_INDEX_KEY.derive_seed(7)
                );
            }
            other => panic!("wrong kind: {other:?}"),
        }
        assert_eq!(CtrIndex::Skewed.name(), "skewed");
    }

    #[test]
    #[should_panic(expected = "skewed CTR indexing")]
    fn skewed_index_rejects_boxed_policies() {
        let mut c = SimConfig::paper_default(Design::Rmcc); // SHiP = boxed
        c.ctr_index = CtrIndex::Skewed;
        c.validate();
    }

    #[test]
    fn eight_core_scales_llc() {
        let c = SimConfig::eight_core(Design::Cosmos);
        assert_eq!(c.cores, 8);
        assert_eq!(c.llc.size_bytes, 16 << 20);
    }
}
