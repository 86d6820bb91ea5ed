//! Differential verification layer for the COSMOS simulator.
//!
//! The simulator earns trust three ways, all packaged here:
//!
//! 1. **Shadow reference models** ([`shadow`]): a naive MRU-list cache and
//!    a dense counter store — trivially correct by construction — run in
//!    lockstep with the real [`cosmos_cache::Cache`] and
//!    [`cosmos_secure::CounterStore`] via the pure-output
//!    [`cosmos_core::SecureObserver`] hook, diffing hit/miss outcomes,
//!    victims, dirty bits, residency sets, and counter values.
//! 2. **Conservation-law invariants** ([`invariants`]): structural
//!    identities (`hits + misses == lookups`, `dram.writes ==
//!    data_writes`, MAC 1-per-8, …) checked on cumulative statistics
//!    snapshots at interval boundaries.
//! 3. **Seeded fuzzing** ([`fuzz`], the `verify_fuzz` binary): random
//!    configurations × random synthetic traces through both checkers,
//!    with ddmin-style shrinking of any failure to a minimal repro.
//!
//! [`Checker`] ([`runner`]) is the one way to attach all of them to a
//! live simulator: `attach` before the loop steps, `boundary` wherever
//! the run loop has a natural interval, `finish` on every exit. The run
//! loops that offer `--check` (full-trace [`run_checked`], the sampled
//! loop, checkpointed runs, occupancy-channel cells) each call it, so
//! checked statistics are byte-identical to unchecked ones and the
//! [`CheckReport`] is extra.

pub mod fuzz;
pub mod invariants;
pub mod observer;
pub mod runner;
pub mod shadow;

pub use fuzz::{run_case, FuzzCase, FuzzFailure};
pub use invariants::{check_stats, Violation};
pub use runner::{run_checked, CheckReport, Checker, CHECK_INTERVAL};
pub use shadow::{DenseCounterStore, ShadowCache, ShadowMode};
