//! Multi-tenant trace composition: attacker probe + victim workload.
//!
//! The occupancy side channel (DESIGN.md §16) needs traces in which an
//! *attacker* tenant and a *victim* tenant share the memory controller. This
//! module provides the two pieces:
//!
//! - [`OccupancyProbe`]: a self-evicting prime+probe sweep whose data
//!   addresses are spaced so that consecutive probe lines map to distinct
//!   counter-cache lines — the classic occupancy-channel attacker.
//! - [`TenantMix`]: a weighted round-robin composer that merges per-tenant
//!   traces into one global order, tagging every access with its tenant id
//!   while preserving each stream's internal order. Deterministic under a
//!   seed (all randomness comes from the dedicated
//!   `streams::WORKLOAD_TENANT_MIX` RNG stream).

use cosmos_common::{MemAccess, PhysAddr, Trace};

/// A self-evicting occupancy probe: `sweeps` sequential passes over
/// `lines` distinct data lines spaced `stride_lines` apart.
///
/// With `stride_lines` equal to the counter scheme's coverage (data lines
/// per counter block), each probe line maps to a *distinct* counter-cache
/// line, so one sweep touches exactly `lines` counter lines. Choosing
/// `lines` at or above the CTR-cache capacity makes the sweep self-evicting:
/// every pass re-primes the cache and the miss count observed during the
/// pass measures how much of the cache other tenants displaced.
///
/// Generation is a pure function of the fields — no RNG — so the probe is
/// trivially deterministic.
///
/// # Examples
///
/// ```
/// use cosmos_workloads::tenant::OccupancyProbe;
///
/// let probe = OccupancyProbe::new(0x2000_0000, 64, 128).with_sweeps(3);
/// let trace = probe.generate();
/// assert_eq!(trace.len(), 64 * 3);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OccupancyProbe {
    /// Base byte address of the probe region.
    pub base: u64,
    /// Distinct data lines touched per sweep.
    pub lines: usize,
    /// Data-line stride between consecutive probe lines (set to the counter
    /// scheme's coverage so consecutive probes hit distinct counter lines).
    pub stride_lines: u64,
    /// Number of full passes over the probe set.
    pub sweeps: usize,
    /// Issuing core recorded on every access.
    pub core: u8,
    /// Instruction gap recorded on every access.
    pub inst_gap: u32,
}

impl OccupancyProbe {
    /// A probe at `base` touching `lines` lines spaced `stride_lines`
    /// apart, one sweep, core 0, instruction gap 1.
    pub const fn new(base: u64, lines: usize, stride_lines: u64) -> Self {
        Self {
            base,
            lines,
            stride_lines,
            sweeps: 1,
            core: 0,
            inst_gap: 1,
        }
    }

    /// Returns a copy with a different sweep count.
    #[must_use]
    pub const fn with_sweeps(mut self, sweeps: usize) -> Self {
        self.sweeps = sweeps;
        self
    }

    /// Generates the probe trace: `sweeps × lines` reads.
    pub fn generate(&self) -> Trace {
        let mut out = Trace::with_capacity(self.lines * self.sweeps);
        for _ in 0..self.sweeps {
            for i in 0..self.lines {
                let addr = self.base + (i as u64) * self.stride_lines * 64;
                out.push(MemAccess::read(
                    self.core,
                    PhysAddr::new(addr),
                    self.inst_gap,
                ));
            }
        }
        out
    }
}

/// One tenant's stream inside a [`TenantMix`].
#[derive(Clone, Debug)]
struct TenantStream {
    trace: Trace,
    tenant: u8,
    /// Scheduling weight: each turn emits `ratio × (1–8)` accesses.
    ratio: usize,
    /// The stream stays parked until the mix has emitted this many accesses.
    offset: usize,
}

/// Weighted round-robin composition of per-tenant traces.
///
/// Streams are merged in chunks of `ratio × (1–8)` accesses (the 1–8 factor
/// drawn from the dedicated `WORKLOAD_TENANT_MIX` RNG stream), approximating
/// tenants time-sharing the memory controller. Every access is re-tagged
/// with its stream's tenant id; per-stream order is preserved. A stream with
/// a phase `offset` is parked until the mix has emitted that many accesses —
/// unless every live stream is parked, in which case the smallest-offset
/// stream is force-started so composition always terminates.
///
/// # Examples
///
/// ```
/// use cosmos_workloads::tenant::{OccupancyProbe, TenantMix};
///
/// let attacker = OccupancyProbe::new(0x2000_0000, 32, 128).with_sweeps(4).generate();
/// let victim = OccupancyProbe::new(0x4000_0000, 32, 128).with_sweeps(4).generate();
/// let mix = TenantMix::new()
///     .stream(1, attacker)
///     .stream(0, victim)
///     .compose(42);
/// assert_eq!(mix.len(), 256);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TenantMix {
    streams: Vec<TenantStream>,
}

impl TenantMix {
    /// An empty mix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a stream for `tenant` with ratio 1 and no phase offset.
    #[must_use]
    pub fn stream(self, tenant: u8, trace: Trace) -> Self {
        self.stream_with(tenant, trace, 1, 0)
    }

    /// Adds a stream for `tenant` with an explicit scheduling `ratio`
    /// (clamped to ≥ 1) and phase `offset` (accesses the mix emits before
    /// this stream joins the rotation).
    #[must_use]
    pub fn stream_with(mut self, tenant: u8, trace: Trace, ratio: usize, offset: usize) -> Self {
        self.streams.push(TenantStream {
            trace,
            tenant,
            ratio: ratio.max(1),
            offset,
        });
        self
    }

    /// Total accesses across all streams.
    pub fn len(&self) -> usize {
        self.streams.iter().map(|s| s.trace.len()).sum()
    }

    /// Whether the mix holds no accesses.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Merges the streams into one tenant-tagged trace, deterministic under
    /// `seed`.
    pub fn compose(self, seed: u64) -> Trace {
        let total = self.len();
        let mut out = Trace::with_capacity(total);
        let mut rng = cosmos_common::rng::streams::WORKLOAD_TENANT_MIX.derive(seed);
        struct Lane {
            iter: <Trace as IntoIterator>::IntoIter,
            tenant: u8,
            ratio: usize,
            offset: usize,
        }
        let mut lanes: Vec<Lane> = self
            .streams
            .into_iter()
            .map(|s| Lane {
                iter: s.trace.into_iter(),
                tenant: s.tenant,
                ratio: s.ratio,
                offset: s.offset,
            })
            .collect();
        let mut live: Vec<usize> = (0..lanes.len()).collect();
        let mut idx = 0;
        while !live.is_empty() {
            if idx >= live.len() {
                idx = 0;
            }
            // First runnable lane in rotation order; if all are parked
            // behind their phase offsets, force-start the earliest one.
            let pick = (0..live.len())
                .map(|k| (idx + k) % live.len())
                .find(|&p| lanes[live[p]].offset <= out.len())
                .unwrap_or_else(|| {
                    (0..live.len())
                        .min_by_key(|&p| lanes[live[p]].offset)
                        .expect("live is non-empty")
                });
            let lane = &mut lanes[live[pick]];
            let chunk = lane.ratio * (1 + rng.next_index(8));
            let mut emitted = 0;
            for a in lane.iter.by_ref().take(chunk) {
                out.push(a.with_tenant(lane.tenant));
                emitted += 1;
            }
            if emitted < chunk {
                live.remove(pick);
                idx = pick;
            } else {
                idx = pick + 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ramp(core: u8, n: usize, base: u64) -> Trace {
        (0..n)
            .map(|i| MemAccess::read(core, PhysAddr::new(base + i as u64 * 64), 1))
            .collect()
    }

    #[test]
    fn probe_touches_distinct_strided_lines() {
        let probe = OccupancyProbe::new(1 << 30, 16, 128).with_sweeps(2);
        let t = probe.generate();
        assert_eq!(t.len(), 32);
        let first_sweep: Vec<u64> = t.iter().take(16).map(|a| a.addr.value()).collect();
        let second_sweep: Vec<u64> = t.iter().skip(16).map(|a| a.addr.value()).collect();
        assert_eq!(first_sweep, second_sweep, "sweeps must repeat exactly");
        for w in first_sweep.windows(2) {
            assert_eq!(w[1] - w[0], 128 * 64, "stride must be 128 lines");
        }
    }

    #[test]
    fn compose_is_deterministic_under_seed() {
        let build = || {
            TenantMix::new()
                .stream(0, ramp(0, 300, 0))
                .stream(1, ramp(1, 170, 1 << 30))
        };
        let a = build().compose(9);
        let b = build().compose(9);
        let c = build().compose(10);
        assert_eq!(a, b, "same seed must reproduce the exact mix");
        assert_ne!(a, c, "different seeds must shuffle differently");
    }

    #[test]
    fn compose_tags_tenants_and_preserves_order() {
        let mix = TenantMix::new()
            .stream(0, ramp(0, 200, 0))
            .stream(3, ramp(1, 90, 1 << 30))
            .compose(5);
        assert_eq!(mix.len(), 290);
        for (tenant, n, base) in [(0u8, 200usize, 0u64), (3, 90, 1 << 30)] {
            let addrs: Vec<u64> = mix
                .iter()
                .filter(|a| a.tenant == tenant)
                .map(|a| a.addr.value())
                .collect();
            assert_eq!(addrs.len(), n);
            assert!(
                addrs.windows(2).all(|w| w[0] < w[1]),
                "tenant {tenant} reordered"
            );
            assert_eq!(addrs[0], base);
        }
    }

    #[test]
    fn phase_offset_parks_late_streams() {
        let mix = TenantMix::new()
            .stream(0, ramp(0, 400, 0))
            .stream_with(1, ramp(1, 100, 1 << 30), 1, 64)
            .compose(7);
        let first_attacker = mix.iter().position(|a| a.tenant == 1).unwrap();
        assert!(
            first_attacker >= 64,
            "offset stream started at {first_attacker}, expected >= 64"
        );
    }

    #[test]
    fn all_parked_streams_force_start() {
        // Both streams have offsets beyond the mix length; composition must
        // still terminate and emit everything.
        let mix = TenantMix::new()
            .stream_with(0, ramp(0, 10, 0), 1, 1_000)
            .stream_with(1, ramp(1, 10, 1 << 30), 1, 2_000)
            .compose(1);
        assert_eq!(mix.len(), 20);
        assert_eq!(mix.as_slice()[0].tenant, 0, "smallest offset starts first");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Property: conservation, tenant tagging, per-stream ordering, and
        /// the ratio chunk bound (a run of one tenant never exceeds 8×ratio
        /// while every stream is still live) hold for arbitrary sizes,
        /// ratios, and seeds.
        #[test]
        fn prop_mix_invariants(
            n0 in 20usize..300,
            n1 in 20usize..300,
            r0 in 1usize..4,
            r1 in 1usize..4,
            seed in 0u64..1_000,
        ) {
            let mix = TenantMix::new()
                .stream_with(0, ramp(0, n0, 0), r0, 0)
                .stream_with(1, ramp(1, n1, 1 << 30), r1, 0)
                .compose(seed);
            prop_assert_eq!(mix.len(), n0 + n1);
            for (tenant, n) in [(0u8, n0), (1, n1)] {
                let addrs: Vec<u64> = mix
                    .iter()
                    .filter(|a| a.tenant == tenant)
                    .map(|a| a.addr.value())
                    .collect();
                prop_assert_eq!(addrs.len(), n);
                prop_assert!(addrs.windows(2).all(|w| w[0] < w[1]));
            }
            // Runs measured strictly before either stream's last access:
            // in that prefix both streams are live, so round-robin caps a
            // tenant-t run at one chunk = 8 × ratio_t.
            let last0 = mix.iter().rposition(|a| a.tenant == 0).unwrap();
            let last1 = mix.iter().rposition(|a| a.tenant == 1).unwrap();
            let live_prefix = last0.min(last1);
            let ratios = [r0, r1];
            let mut run_tenant = 2u8;
            let mut run_len = 0usize;
            for a in mix.iter().take(live_prefix) {
                if a.tenant == run_tenant {
                    run_len += 1;
                } else {
                    run_tenant = a.tenant;
                    run_len = 1;
                }
                prop_assert!(
                    run_len <= 8 * ratios[run_tenant as usize],
                    "tenant {} run {} exceeds 8x ratio {}",
                    run_tenant, run_len, ratios[run_tenant as usize]
                );
            }
        }
    }
}
