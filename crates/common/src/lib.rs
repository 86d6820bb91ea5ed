//! Shared primitives for the COSMOS secure-memory simulator.
//!
//! This crate holds the small, dependency-free vocabulary types used by every
//! other crate in the workspace:
//!
//! - address newtypes ([`PhysAddr`], [`LineAddr`], [`PageAddr`]) with the
//!   cache-line / page arithmetic the simulator performs constantly,
//! - the splitmix64-based state hashing used by the paper's RL predictors
//!   (§4.1.1 of the paper), in [`hash`],
//! - a deterministic, seedable random-number generator ([`rng::SplitMix64`])
//!   so every simulation is reproducible,
//! - cycle-count arithmetic ([`Cycle`]),
//! - memory-access/trace types ([`MemAccess`], [`AccessKind`]) shared between
//!   workload generators and the simulator,
//! - lightweight statistics counters ([`stats`]),
//! - ready-time timing primitives ([`timing`]) shared by the DRAM bank
//!   model and the event-driven simulator core,
//! - a dependency-free JSON document model ([`json`](mod@json)) the experiment
//!   harnesses use to emit machine-readable results,
//! - snapshot state ([`state`](mod@state)): the [`state!`] declaration
//!   of what a checkpoint saves of each simulator part.
//! - the one argument parser of the workspace's binaries ([`cli`]): a
//!   declared flag table, typed and bounded values, and generated help.
//!
//! # Examples
//!
//! ```
//! use cosmos_common::{PhysAddr, LineAddr, LINE_SIZE};
//!
//! let a = PhysAddr::new(0x1234_5678);
//! let line: LineAddr = a.line();
//! assert_eq!(line.base().value() % LINE_SIZE as u64, 0);
//! ```

pub mod addr;
pub mod cli;
pub mod cycle;
pub mod hash;
pub mod json;
pub mod rng;
pub mod state;
pub mod stats;
pub mod timing;
pub mod trace;

pub use addr::{LineAddr, PageAddr, PhysAddr, LINE_SHIFT, LINE_SIZE, PAGE_SHIFT, PAGE_SIZE};
pub use cycle::Cycle;
pub use rng::SplitMix64;
pub use trace::{AccessKind, MemAccess, Trace};
