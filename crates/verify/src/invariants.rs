//! Conservation-law invariants over [`SimStats`].
//!
//! Every law here is derived from the simulator's structure, not from its
//! outputs: each demand access walks L1→L2→LLC, every LLC miss fetches
//! data, every writeback increments a counter, MACs ride along 1-per-8,
//! and so on. A checked run evaluates the catalogue on *cumulative*
//! snapshots (where the laws are exact) at interval boundaries and at the
//! end, plus a monotonicity sweep between consecutive snapshots.

use cosmos_cache::PrefetcherKind;
use cosmos_common::stats::Counters;
use cosmos_core::{SimConfig, SimStats};

/// One failed check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Stable, grep-able identifier of the law that failed.
    pub name: &'static str,
    /// Human-readable diagnosis with the numbers involved.
    pub detail: String,
}

impl Violation {
    /// Creates a violation.
    pub fn new(name: &'static str, detail: impl Into<String>) -> Self {
        Self {
            name,
            detail: detail.into(),
        }
    }
}

impl core::fmt::Display for Violation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "[{}] {}", self.name, self.detail)
    }
}

macro_rules! law_eq {
    ($out:expr, $name:literal, $lhs:expr, $rhs:expr) => {
        if $lhs != $rhs {
            $out.push(Violation::new(
                $name,
                format!(
                    "{} = {} but {} = {}",
                    stringify!($lhs),
                    $lhs,
                    stringify!($rhs),
                    $rhs
                ),
            ));
        }
    };
}

macro_rules! law_le {
    ($out:expr, $name:literal, $lhs:expr, $rhs:expr) => {
        if $lhs > $rhs {
            $out.push(Violation::new(
                $name,
                format!(
                    "{} = {} exceeds {} = {}",
                    stringify!($lhs),
                    $lhs,
                    stringify!($rhs),
                    $rhs
                ),
            ));
        }
    };
}

/// Checks the conservation-law catalogue against a *cumulative* statistics
/// snapshot ([`cosmos_core::Simulator::snapshot`]; `since`-windows break
/// the floor-division MAC laws and are rejected by the caller, not here).
pub fn check_stats(stats: &SimStats, config: &SimConfig) -> Vec<Violation> {
    let mut out = Vec::new();
    let t = &stats.traffic;
    let design = config.design;

    // Access accounting.
    law_eq!(
        out,
        "accesses-split",
        stats.reads + stats.writes,
        stats.accesses
    );
    law_le!(
        out,
        "instructions-floor",
        stats.accesses,
        stats.instructions
    );

    // Hierarchy chain: every access looks up L1; every L1 miss looks up
    // L2; every L2 miss looks up the LLC.
    law_eq!(out, "l1-lookups", stats.l1.total(), stats.accesses);
    law_eq!(out, "l2-lookups", stats.l2.total(), stats.l1.misses());
    law_eq!(out, "llc-lookups", stats.llc.total(), stats.l2.misses());

    // Every LLC miss — read or write-allocate — fetches the line once
    // (killed speculative fetches are on-chip hits, not LLC misses).
    law_eq!(out, "llc-miss-fetch", t.data_reads, stats.llc.misses());

    // DRAM write channel carries exactly the data writebacks.
    law_eq!(out, "dram-writes", stats.dram.writes, t.data_writes);

    // DRAM read channel: demand data + charged metadata reads. CTR
    // prefetches charge traffic without a DRAM trip (they model MC-internal
    // bandwidth), so with a prefetcher the law relaxes to an upper bound.
    if matches!(config.ctr_prefetcher, PrefetcherKind::None) {
        law_eq!(
            out,
            "dram-reads",
            stats.dram.reads,
            t.data_reads + t.ctr_reads + t.mt_reads
        );
    } else {
        law_le!(
            out,
            "dram-reads-bound",
            stats.dram.reads,
            t.data_reads + t.ctr_reads + t.mt_reads
        );
        law_le!(out, "dram-reads-floor", t.data_reads, stats.dram.reads);
    }

    if design.is_secure() {
        // Every CTR cache demand miss and every issued prefetch fetches a
        // counter block.
        law_eq!(
            out,
            "ctr-read-fetch",
            t.ctr_reads,
            stats.ctr_cache.demand.misses() + stats.ctr_cache.prefetch_issued
        );
        // Every dirty CTR eviction is charged as a counter writeback.
        law_eq!(
            out,
            "ctr-writebacks",
            t.ctr_writes,
            stats.ctr_cache.writebacks
        );
        // MT traffic is charged at demand-miss and dirty-eviction sites,
        // minus the uncharged background path-update fills.
        law_le!(
            out,
            "mt-read-bound",
            t.mt_reads,
            stats.mt_cache.demand.misses()
        );
        law_le!(
            out,
            "mt-write-bound",
            t.mt_writes,
            stats.mt_cache.writebacks
        );
        // MACs ride along 1-per-8: reads with every DRAM data fetch,
        // writes with every data writeback. Exact on cumulative snapshots.
        law_eq!(out, "mac-reads", t.mac_reads, t.data_reads / 8);
        law_eq!(out, "mac-writes", t.mac_writes, t.data_writes / 8);
        // Overflow re-encryption covers the whole block.
        law_eq!(
            out,
            "reencrypt-coverage",
            t.reencrypt_writes,
            stats.ctr_overflows * config.scheme.coverage()
        );
    } else {
        let metadata = t.ctr_reads
            + t.ctr_writes
            + t.mt_reads
            + t.mt_writes
            + t.mac_reads
            + t.mac_writes
            + t.reencrypt_writes;
        law_eq!(out, "np-metadata-free", metadata, 0);
        law_eq!(out, "np-no-overflows", stats.ctr_overflows, 0);
    }

    // Cache-local conservation (per metadata cache).
    for (name, c) in [("ctr", &stats.ctr_cache), ("mt", &stats.mt_cache)] {
        if c.writebacks > c.evictions {
            out.push(Violation::new(
                "writebacks-bound",
                format!(
                    "{name}: writebacks {} exceed evictions {}",
                    c.writebacks, c.evictions
                ),
            ));
        }
        if c.evictions > c.demand.misses() + c.prefetch_issued {
            out.push(Violation::new(
                "evictions-bound",
                format!(
                    "{name}: evictions {} exceed fills {}",
                    c.evictions,
                    c.demand.misses() + c.prefetch_issued
                ),
            ));
        }
        if c.prefetch_useful + c.prefetch_unused > c.prefetch_issued {
            out.push(Violation::new(
                "prefetch-accounting",
                format!(
                    "{name}: useful {} + unused {} exceed issued {}",
                    c.prefetch_useful, c.prefetch_unused, c.prefetch_issued
                ),
            ));
        }
    }

    // Predictor laws. The data predictor resolves exactly once per read L1
    // miss; its per-outcome counters tie to the speculation traffic.
    if design.has_data_predictor() {
        law_le!(
            out,
            "dp-resolution-bound",
            stats.data_pred.total(),
            stats.l1.misses()
        );
        law_eq!(
            out,
            "killed-speculative",
            t.killed_speculative,
            stats.data_pred.wrong_offchip
        );
        law_eq!(
            out,
            "early-offchip",
            stats.early_offchip_reads,
            stats.data_pred.correct_offchip
        );
    } else {
        law_eq!(out, "no-dp", stats.data_pred.total(), 0);
        law_eq!(out, "no-dp-kills", t.killed_speculative, 0);
        law_eq!(out, "no-dp-early", stats.early_offchip_reads, 0);
    }
    if !design.has_locality_predictor() {
        law_eq!(out, "no-cp", stats.ctr_pred.predictions, 0);
    }

    out
}

/// Every cumulative counter of a snapshot, named by its dotted field path
/// (`traffic.mt_reads`, `tenant_ctr.1.misses`) — the stats' own leaf walk,
/// so a counter added to a stats declaration is swept automatically.
pub fn scalar_counters(s: &SimStats) -> Vec<(String, u64)> {
    let mut out = Vec::with_capacity(SimStats::LEAVES);
    s.visit(|name, value| out.push((name.to_string(), value)));
    out
}

/// Checks that every cumulative counter moved forward (or held) between
/// two consecutive snapshots. `since` already panics, in every build
/// profile, on a counter that went backwards inside a window it computes;
/// this sweep also covers snapshots that are never windowed against each
/// other, and reports the regression as a named violation, not a panic.
pub fn check_monotonic(prev: &SimStats, cur: &SimStats) -> Vec<Violation> {
    let mut out = Vec::new();
    for ((name, before), (_, after)) in scalar_counters(prev).iter().zip(scalar_counters(cur)) {
        if after < *before {
            out.push(Violation::new(
                "counter-regression",
                format!("{name} went backwards: {before} -> {after}"),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_common::{MemAccess, PhysAddr, SplitMix64, Trace};
    use cosmos_core::{Design, Simulator};

    fn small_config(design: Design) -> SimConfig {
        let mut c = SimConfig::paper_default(design);
        c.cores = 2;
        c.l1.size_bytes = 4096;
        c.l2.size_bytes = 16 * 1024;
        c.llc.size_bytes = 64 * 1024;
        c.ctr_cache.size_bytes = 8192;
        c.mt_cache.size_bytes = 8192;
        c.protected_bytes = 1 << 30;
        c
    }

    fn random_trace(n: usize, lines: u64, write_frac: f64, seed: u64) -> Trace {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| {
                let addr = PhysAddr::new(rng.next_below(lines) * 64);
                let core = (rng.next_u32() % 2) as u8;
                if rng.chance(write_frac) {
                    MemAccess::write(core, addr, 2)
                } else {
                    MemAccess::read(core, addr, 2)
                }
            })
            .collect()
    }

    #[test]
    fn clean_runs_satisfy_every_law() {
        let t = random_trace(8_000, 60_000, 0.3, 5);
        for d in [
            Design::Np,
            Design::MorphCtr,
            Design::Emcc,
            Design::Rmcc,
            Design::CosmosDp,
            Design::CosmosCp,
            Design::Cosmos,
        ] {
            let config = small_config(d);
            let stats = Simulator::new(config.clone()).run(&t);
            let v = check_stats(&stats, &config);
            assert!(v.is_empty(), "{d}: {v:?}");
        }
    }

    #[test]
    fn injected_dropped_writeback_is_caught() {
        // The acceptance-criteria bug: a writeback reaches DRAM but its
        // traffic increment is dropped. The dram-writes law must fire.
        let config = small_config(Design::MorphCtr);
        let t = random_trace(8_000, 60_000, 0.4, 6);
        let mut stats = Simulator::new(config.clone()).run(&t);
        assert!(stats.traffic.data_writes > 0, "need writebacks to drop one");
        stats.traffic.data_writes -= 1;
        let v = check_stats(&stats, &config);
        assert!(
            v.iter().any(|v| v.name == "dram-writes"),
            "dropped writeback increment not caught: {v:?}"
        );
    }

    #[test]
    fn injected_double_counted_ctr_read_is_caught() {
        let config = small_config(Design::Cosmos);
        let t = random_trace(8_000, 60_000, 0.3, 7);
        let mut stats = Simulator::new(config.clone()).run(&t);
        stats.traffic.ctr_reads += 1;
        let v = check_stats(&stats, &config);
        assert!(
            v.iter()
                .any(|v| v.name == "ctr-read-fetch" || v.name == "dram-reads"),
            "double-counted CTR read not caught: {v:?}"
        );
    }

    #[test]
    fn injected_phantom_kill_is_caught() {
        let config = small_config(Design::Cosmos);
        let t = random_trace(8_000, 200_000, 0.2, 8);
        let mut stats = Simulator::new(config.clone()).run(&t);
        stats.traffic.killed_speculative += 1;
        let v = check_stats(&stats, &config);
        assert!(
            v.iter().any(|v| v.name == "killed-speculative"),
            "phantom speculative kill not caught: {v:?}"
        );
    }

    #[test]
    fn monotonicity_catches_a_reset_counter() {
        let config = small_config(Design::MorphCtr);
        let t = random_trace(4_000, 50_000, 0.3, 9);
        let stats = Simulator::new(config).run(&t);
        let mut later = stats.clone();
        later.traffic.mt_reads = 0; // "reset" mid-run
        let v = check_monotonic(&stats, &later);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("traffic.mt_reads"), "{v:?}");
        assert!(check_monotonic(&stats, &stats).is_empty());
    }

    #[test]
    fn monotonicity_sweeps_every_counter_leaf() {
        let config = small_config(Design::Cosmos);
        let t = random_trace(4_000, 50_000, 0.3, 9);
        let stats = Simulator::new(config).run(&t);
        assert_eq!(scalar_counters(&stats).len(), SimStats::LEAVES);
        let mut later = stats.clone();
        later.dram.queue_cycles = 0;
        later.ctr_pred.cet_hits = 0;
        later.tenant_ctr[0].misses = 0;
        let names: Vec<String> = check_monotonic(&stats, &later)
            .into_iter()
            .map(|v| v.detail)
            .collect();
        for leaf in [
            "dram.queue_cycles",
            "ctr_pred.cet_hits",
            "tenant_ctr.0.misses",
        ] {
            assert!(
                names.iter().any(|d| d.starts_with(leaf)),
                "{leaf}: {names:?}"
            );
        }
        assert_eq!(names.len(), 3, "{names:?}");
    }
}
