//! Tabular reinforcement-learning substrate for COSMOS.
//!
//! The paper's two predictors are small tabular RL agents over hashed
//! physical-address states (16,384 states × 2 actions each):
//!
//! - [`DataLocationPredictor`] (paper §4.4, Algorithm 3): after every L1
//!   miss, predicts whether the data is **on-chip** (L2/LLC) or
//!   **off-chip** (DRAM). Off-chip predictions let the memory controller
//!   start the CTR access immediately, removing the L2+LLC latency from the
//!   critical path — and, as a side effect, populating the CTR cache with
//!   *hot* counters.
//! - [`CtrLocalityPredictor`] (paper §4.2, Algorithm 1): classifies each
//!   CTR access as **good** or **bad** locality, trained against the
//!   [`Cet`] (CTR Evaluation Table) — an LRU buffer that answers "was this
//!   CTR (or a neighbour within ±32 lines) accessed again recently?". The
//!   predictions drive the LCR-CTR cache's replacement (Algorithm 2).
//!
//! Both agents are ε-greedy with the Table-1 hyperparameters as defaults
//! ([`params::RlParams`], [`params::RewardTable`]), and both store `f32`
//! Q-values in a dense [`QTable`].
//!
//! # Examples
//!
//! ```
//! use cosmos_rl::{DataLocationPredictor, DataLocation, params::RlParams};
//! use cosmos_common::PhysAddr;
//!
//! let mut p = DataLocationPredictor::new(RlParams::data_defaults(), 1);
//! let addr = PhysAddr::new(0x4000);
//! let pred = p.predict(addr);
//! // ... the hierarchy resolves the access ...
//! p.learn(addr, pred, DataLocation::OffChip);
//! ```

pub mod cet;
pub mod data_loc;
pub mod locality;
pub mod params;
pub mod qtable;

pub use cet::Cet;
pub use data_loc::{DataLocation, DataLocationPredictor, DataLocationStats};
pub use locality::{CtrLocalityPredictor, CtrLocalityStats, Locality, LocalityDecision};
pub use qtable::QTable;
