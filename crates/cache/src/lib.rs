//! Set-associative cache substrate: one exact-recency tag store, and a
//! generic cache with pluggable replacement policies and prefetchers.
//!
//! Most cache levels of the COSMOS simulator run on the
//! [`RecencyStore`]: each set is its lines' words in MRU order, a word
//! `line << 1 | dirty` of the width its user fixes ([`recency::Word`]).
//! The L1/L2/LLC data caches use `u32` words under LRU (data lines lie
//! below [`LineAddr::DATA_LIMIT`](cosmos_common::LineAddr::DATA_LIMIT), so
//! a 16-way set is one 64 B host line). The Merkle-tree metadata cache
//! uses `u64` words under LRU, and the CTR cache uses them (through
//! [`RecencyCache`], which adds [`CacheStats`]) whenever its policy is LRU
//! or LCR over the modulo index with no prefetcher, which covers every
//! paper design but RMCC; a `u64` word also carries LCR's locality hint.
//! Snapshots save both widths' words in their `u64` form.
//!
//! The generic [`Cache`] keeps a slot per way, and stays where way slots
//! are needed: boxed replacement policies (RMCC's SHiP and the Figure-5
//! policy study), prefetchers, and the keyed-random and skewed indexes of
//! the occupancy-channel study. Replacement behaviour is provided by a
//! [`ReplacementPolicy`] implementation:
//!
//! - [`policies::Lru`] — true LRU (the paper's baseline CTR cache),
//! - [`policies::RandomRepl`] — random victim,
//! - [`policies::Rrip`] — static RRIP (Jaleel et al.),
//! - [`policies::Ship`] — signature-based hit prediction (Wu et al.),
//! - [`policies::Mockingjay`] — sampled reuse-distance / ETA policy
//!   (Shah et al.), simplified but faithful to its eviction criterion,
//! - [`policies::Lcr`] — the paper's Locality-Centric Replacement
//!   (Algorithm 2), driven by RL locality predictions.
//!
//! Prefetchers ([`Prefetcher`]) generate candidate lines from the demand
//! stream: [`prefetchers::NextLine`], [`prefetchers::Stride`], and
//! [`prefetchers::Berti`] (a local-delta prefetcher in the spirit of
//! Navarro-Torres et al., used by the paper's Figure 5 study).
//!
//! # Examples
//!
//! ```
//! use cosmos_cache::{Cache, CacheConfig, PolicyKind};
//! use cosmos_common::LineAddr;
//!
//! let mut c = Cache::new(CacheConfig::new(4096, 4), PolicyKind::Lru);
//! assert!(!c.access(LineAddr::new(7), false, None).hit);
//! assert!(c.access(LineAddr::new(7), false, None).hit);
//! ```

pub mod cache;
pub mod config;
pub mod policies;
pub mod prefetchers;
pub mod recency;
pub mod stats;

pub use cache::{AccessResult, Cache, Eviction, LocalityHint, Victim};
pub use config::{CacheConfig, IndexKind};
pub use policies::{PolicyKind, ReplacementPolicy};
pub use prefetchers::{Prefetcher, PrefetcherKind};
pub use recency::{RecencyCache, RecencyStore};
pub use stats::CacheStats;
