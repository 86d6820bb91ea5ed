//! Secure-memory substrate: counters, integrity metadata, and a functional
//! AES-CTR + MAC + Merkle-tree engine.
//!
//! This crate implements everything the paper's secure-memory system keeps
//! *behind* the memory controller:
//!
//! - **Counter schemes** ([`counters`]): monolithic counters (1 block :
//!   8 lines, minors capped at 2^20−1 under a shared major), split
//!   counters (Yan et al., 1 block : 64 lines), and **MorphCtr**
//!   (Saileshwar et al., 1 block : 128 lines with format morphing between a
//!   uniform 3-bit-minor layout and zero-counter-compressed layouts).
//!   Counter increments, minor overflow, and page re-encryption are modeled
//!   functionally; the store keeps every block zero-counter-compressed.
//! - **Metadata layout** ([`layout`]): where counter blocks, MAC lines, and
//!   Merkle-tree nodes live in physical address space, so the simulator can
//!   route metadata traffic through caches and DRAM like any other line.
//! - **Merkle tree** ([`merkle`]): an 8-ary hash tree over counter blocks
//!   with the root pinned on-chip; supports functional verification and
//!   update, plus the leaf-to-root traversal the timing model charges on
//!   every counter DRAM access (≈ 22 node reads at 32 GB, per the paper).
//! - **Functional engine** ([`engine`]): actually encrypts/decrypts 64 B
//!   lines with the one-time pad `AES(PA ‖ CTR)`, maintains MACs and the
//!   tree, and detects tampering, relocation, and replay — the security
//!   properties the paper's design must preserve.
//!
//! The *timing* of these structures (cache hits, DRAM trips, 40-cycle AES)
//! lives in `cosmos-core`; this crate is the ground truth for *what* data
//! and metadata exist and how counters evolve.
//!
//! # Examples
//!
//! ```
//! use cosmos_secure::counters::{CounterScheme, CounterStore};
//! use cosmos_common::LineAddr;
//!
//! let mut store = CounterStore::new(CounterScheme::MorphCtr);
//! let line = LineAddr::new(42);
//! let before = store.value(line);
//! store.increment(line);
//! assert_ne!(store.value(line), before);
//! ```

pub mod counters;
pub mod engine;
pub mod layout;
pub mod merkle;

pub use counters::{CounterBlock, CounterScheme, CounterStore, IncrementOutcome, LineRange};
pub use engine::{SecureMemory, SecurityError};
pub use layout::MetadataLayout;
pub use merkle::MerkleTree;
