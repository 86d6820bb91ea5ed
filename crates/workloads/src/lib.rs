//! Workload generators: the memory-access traces COSMOS is evaluated on.
//!
//! The paper evaluates on three workload families, all reproduced here as
//! *address-trace generators* (the simulator is trace-driven):
//!
//! - **Graph analytics** ([`graph`]): the eight GraphBIG kernels — BFS,
//!   DFS, PageRank, Graph Coloring, Triangle Counting, Connected
//!   Components, Shortest Path, Degree Centrality — running over a CSR
//!   graph laid out in simulated physical memory. The paper uses the GitHub
//!   developer social network; we generate synthetic scale-free graphs
//!   (RMAT / Barabási–Albert) sized past the LLC so the irregular
//!   vertex-indexed access pattern and its cache behaviour match
//!   (DESIGN.md, substitution table).
//! - **SPEC-like irregular workloads** ([`spec`]): synthetic generators
//!   reproducing the dominant access idioms of mcf (pointer chasing over a
//!   network-simplex arc array), canneal (random element swaps in a large
//!   netlist), and omnetpp (event-heap churn).
//! - **ML inference** ([`ml`]): layer-walk generators for MLP, AlexNet,
//!   ResNet, VGG, BERT, Transformer, and DLRM — *regular*, streaming
//!   access patterns with heavy weight reuse, the paper's Figure-17
//!   regression check.
//!
//! All generators are deterministic under a seed, multi-core (accesses are
//! tagged with the issuing core), and budgeted: each core gets
//! `budget / cores` accesses. SPEC-like and ML cores emit exactly that
//! share; a graph kernel checks its share per vertex or edge step, so a
//! core may run up to [`graph::GraphKernel::MAX_OVERSHOOT`] accesses past
//! it.
//!
//! Per-core streams merge into one trace through an interleaver that pulls
//! chunks of 1–8 accesses from each core in turn. It pulls from per-core
//! streams, not buffers: a SPEC-like core is a lazy generator that keeps
//! its cursor, its RNG and the accesses of its last few steps, and
//! generates more only when pulled, so a SPEC trace is written once, into
//! its final `Trace`. Graph kernels and ML models still buffer each core's
//! stream and hand over `Trace::into_iter()`.
//!
//! # Examples
//!
//! ```
//! use cosmos_workloads::{Workload, TraceSpec, graph::GraphKernel};
//!
//! let spec = TraceSpec::small_test(42);
//! let trace = Workload::Graph(GraphKernel::Bfs).generate(&spec);
//! assert!(!trace.is_empty());
//! ```

pub mod graph;
mod interleave;
pub mod ml;
pub mod spec;
pub mod tenant;
pub mod workload;

pub use workload::{TraceSpec, Workload};
