//! Deterministic snapshot/restore and the experiment-serving daemon.
//!
//! Two layers (DESIGN.md §14):
//!
//! 1. **Snapshot/restore** ([`snapshot`], [`checkpoint`]): a versioned
//!    [`SimSnapshot`](snapshot::SimSnapshot) envelope around
//!    [`Simulator::save_state`](cosmos_core::Simulator::save_state),
//!    fingerprinted against the configuration that produced it, written
//!    atomically. Restoring and running the tail is byte-identical to
//!    never having stopped — `scripts/check.sh` proves it by `cmp`-ing
//!    artifacts. Under `check`, the one checkpointed step loop carries a
//!    [`cosmos_verify::Checker`], which primes the shadow models from
//!    the restored state, so checked runs snapshot, preempt and resume
//!    exactly like unchecked ones.
//! 2. **Serving** ([`queue`], [`protocol`], [`server`]): a long-running
//!    job server speaking newline-delimited JSON over stdin/stdout and an
//!    optional Unix socket. Jobs are either registered figures (the same
//!    pipelines `cosmos_figure` runs, so artifacts are byte-identical)
//!    or single checkpointed simulations. A manifest in the state
//!    directory records every job's lifecycle; `--resume DIR` cold-starts
//!    a killed server without re-running completed jobs.
//!
//! Everything here is cold-path orchestration: no module is entered from
//! a simulator hot loop, and snapshot capture allocates freely because it
//! runs between accesses, never inside one.

pub mod checkpoint;
pub mod interrupt;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod snapshot;
