//! Deterministic pseudo-random number generation.
//!
//! Everything stochastic in the workspace — ε-greedy exploration, synthetic
//! graph generation, trace synthesis — draws from [`SplitMix64`], a tiny,
//! fully deterministic generator, so that a fixed seed reproduces a
//! simulation bit-for-bit. (We deliberately do not pull the `rand` crate into
//! the substrate crates; top-level drivers may still use `rand` for
//! convenience.)

use crate::hash::splitmix64;

/// A splitmix64 pseudo-random number generator.
///
/// Statistically strong enough for simulation purposes, 8 bytes of state,
/// and `Copy`-cheap to fork.
///
/// # Examples
///
/// ```
/// use cosmos_common::SplitMix64;
/// let mut rng = SplitMix64::new(42);
/// let a = rng.next_u64();
/// let b = rng.next_u64();
/// assert_ne!(a, b);
/// assert_eq!(SplitMix64::new(42).next_u64(), a);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// The Weyl increment γ each draw adds to the state. The generator is
    /// counter-based: from state `s`, draw `j` (from 0) is
    /// `hash::splitmix64(s + j·γ)`, wrapping, whatever came before it.
    pub const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

    /// Creates a generator from a seed.
    #[inline]
    pub const fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The raw internal state. `SplitMix64::new(rng.state())` reconstructs
    /// a generator that continues the stream exactly — the whole story of
    /// RNG snapshot/restore.
    #[inline]
    pub const fn state(&self) -> u64 {
        self.state
    }

    /// Returns the next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        // splitmix64() adds γ before mixing, so this is the canonical
        // generator's mix of the post-increment state.
        let draw = splitmix64(self.state);
        self.state = self.state.wrapping_add(Self::GAMMA);
        draw
    }

    /// Skips `draws` draws at once: afterwards the generator is where
    /// `draws` calls of [`SplitMix64::next_u64`] would leave it.
    #[inline]
    pub fn advance(&mut self, draws: u64) {
        self.state = self.state.wrapping_add(draws.wrapping_mul(Self::GAMMA));
    }

    /// Returns the next 32 uniformly random bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Returns a uniform value in `0..bound`. Returns 0 when `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        // 128-bit multiply method (Lemire); negligible bias without rejection
        // is fine for simulation, but rejection keeps it exact.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns a uniform `usize` in `0..bound`. Returns 0 when `bound == 0`.
    #[inline]
    pub fn next_index(&mut self, bound: usize) -> usize {
        self.next_below(bound as u64) as usize
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Forks an independent generator, advancing this one.
    #[inline]
    pub fn fork(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64())
    }
}

impl Default for SplitMix64 {
    /// Seeds with a fixed constant; prefer [`SplitMix64::new`] with an
    /// explicit seed in experiments.
    fn default() -> Self {
        Self::new(0x5EED_C053_05AB)
    }
}

/// A seed-derivation rule: one logical random stream of the workspace,
/// named by its constant in [`streams`] and derived from a base seed by
/// `seed ^ salt` (optionally xor-ing a lane index shifted into the high
/// bits, for per-core generators).
///
/// Every stream the workspace draws from is declared as a constant in
/// [`streams`], so two components can never silently share a stream.
/// Derivation only seeds a generator: a snapshot saves each live
/// generator's state as a field of the component that owns it, and
/// restore reads that state back rather than re-deriving it from the seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamTag {
    /// XOR salt applied to the base seed.
    pub salt: u64,
    /// Left shift applied to the lane index in [`StreamTag::derive_lane`].
    pub lane_shift: u32,
}

impl StreamTag {
    /// The derived seed for this stream. Numerically identical to the
    /// historical ad-hoc `seed ^ salt` call sites, so routing a site
    /// through its tag changes no committed artifact.
    #[inline]
    pub const fn derive_seed(&self, seed: u64) -> u64 {
        seed ^ self.salt
    }

    /// The derived per-lane (per-core) seed for indexed streams.
    #[inline]
    pub const fn derive_lane_seed(&self, seed: u64, lane: u64) -> u64 {
        seed ^ (lane << self.lane_shift) ^ self.salt
    }

    /// Derives the stream's generator from a base seed.
    #[inline]
    pub const fn derive(&self, seed: u64) -> SplitMix64 {
        SplitMix64::new(self.derive_seed(seed))
    }

    /// Derives the per-lane (per-core) generator for indexed streams.
    #[inline]
    pub const fn derive_lane(&self, seed: u64, lane: u64) -> SplitMix64 {
        SplitMix64::new(self.derive_lane_seed(seed, lane))
    }
}

/// Every named random stream in the workspace. Salts predate these constants
/// (they were inline `seed ^ 0x…` expressions); the constants here pin
/// them so artifacts stay byte-identical.
pub mod streams {
    use super::StreamTag;

    const fn tag(salt: u64) -> StreamTag {
        lane_tag(salt, 0)
    }

    const fn lane_tag(salt: u64, lane_shift: u32) -> StreamTag {
        StreamTag { salt, lane_shift }
    }

    /// ε-greedy exploration of the data-location predictor (simulator
    /// state: captured by snapshots).
    pub const DATA_PREDICTOR: StreamTag = tag(0xDA7A);
    /// ε-greedy exploration of the CTR-locality predictor (simulator
    /// state: captured by snapshots).
    pub const CTR_PREDICTOR: StreamTag = tag(0xC7_12);
    /// Random-replacement cache policy (simulator state; boxed policies
    /// are gated out of snapshots — see `cosmos_cache`).
    pub const REPLACEMENT_RANDOM: StreamTag = tag(0);
    /// DRRIP set-dueling policy (fixed historical seed, no base).
    pub const DRRIP: StreamTag = tag(0xD_EE1);

    /// SPEC-like synthetic workload, per core (input side: regenerated
    /// from the config on resume, never snapshotted).
    pub const WORKLOAD_SPEC: StreamTag = lane_tag(0x57EC, 40);
    /// ML kernel synthetic workload, per core (input side).
    pub const WORKLOAD_ML: StreamTag = lane_tag(0x3117, 36);
    /// Graph-kernel trace emitter, per core (input side).
    pub const WORKLOAD_GRAPH: StreamTag = lane_tag(0, 32);
    /// Multi-workload trace interleaver (input side).
    pub const WORKLOAD_INTERLEAVE: StreamTag = tag(0x1A7E_1EAF);
    /// Multi-tenant trace composition (`cosmos_workloads::tenant`,
    /// input side).
    pub const WORKLOAD_TENANT_MIX: StreamTag = tag(0x7E4A_0717);
    /// Keyed CTR-cache index permutation (config side: the derived seed
    /// *is* the key; no live generator state).
    pub const CTR_INDEX_KEY: StreamTag = tag(0x1D_E35E);
    /// Fuzzer config mutation stream (harness side).
    pub const FUZZ_CONFIG: StreamTag = tag(0xF0_22);
    /// Fuzzer trace synthesis stream (harness side).
    pub const FUZZ_TRACE: StreamTag = tag(0x7_2ACE);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn matches_canonical_splitmix64_stream() {
        // Canonical splitmix64 with seed 0: first two outputs.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn advance_equals_that_many_draws() {
        for seed in [0, 42, u64::MAX - 3] {
            for draws in [0, 1, 2, 7, 8, 22, 1000] {
                let mut stepped = SplitMix64::new(seed);
                for _ in 0..draws {
                    stepped.next_u64();
                }
                let mut jumped = SplitMix64::new(seed);
                jumped.advance(draws);
                assert_eq!(jumped, stepped, "seed {seed}, {draws} draws");
                assert_eq!(jumped.next_u64(), stepped.next_u64());
            }
        }
    }

    #[test]
    fn draw_j_is_the_mix_of_state_plus_j_gammas() {
        let seed = 0x0123_4567_89ab_cdef;
        let mut rng = SplitMix64::new(seed);
        for j in 0..100u64 {
            let at_j = splitmix64(seed.wrapping_add(j.wrapping_mul(SplitMix64::GAMMA)));
            assert_eq!(rng.next_u64(), at_j, "draw {j}");
        }
    }

    #[test]
    fn next_below_in_range() {
        let mut r = SplitMix64::new(99);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX] {
            for _ in 0..50 {
                assert!(r.next_below(bound) < bound);
            }
        }
        assert_eq!(r.next_below(0), 0);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = SplitMix64::new(5);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chance_matches_probability() {
        let mut r = SplitMix64::new(123);
        let n = 100_000;
        let hits = (0..n).filter(|_| r.chance(0.3)).count();
        let p = hits as f64 / n as f64;
        assert!((p - 0.3).abs() < 0.01, "p = {p}");
    }

    #[test]
    fn fork_produces_distinct_stream() {
        let mut a = SplitMix64::new(1);
        let mut b = a.fork();
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn state_round_trips_mid_stream() {
        let mut rng = SplitMix64::new(42);
        for _ in 0..17 {
            rng.next_u64();
        }
        let mut resumed = SplitMix64::new(rng.state());
        for _ in 0..100 {
            assert_eq!(rng.next_u64(), resumed.next_u64());
        }
    }

    #[test]
    fn stream_tags_match_historical_derivations() {
        // These equalities pin the committed artifacts: changing a salt
        // changes every figure that draws from the stream.
        assert_eq!(streams::DATA_PREDICTOR.derive_seed(7), 7 ^ 0xDA7A);
        assert_eq!(streams::CTR_PREDICTOR.derive_seed(7), 7 ^ 0xC7_12);
        assert_eq!(
            streams::WORKLOAD_SPEC.derive_lane_seed(9, 3),
            9 ^ (3u64 << 40) ^ 0x57EC
        );
        assert_eq!(
            streams::WORKLOAD_GRAPH.derive_lane_seed(9, 2),
            9 ^ (2u64 << 32)
        );
        assert_eq!(
            streams::DATA_PREDICTOR.derive(7),
            SplitMix64::new(7 ^ 0xDA7A)
        );
    }

    #[test]
    fn next_below_is_roughly_uniform() {
        let mut r = SplitMix64::new(2024);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[r.next_index(10)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - 10_000.0).abs() < 500.0,
                "bucket {i} count {c} far from uniform"
            );
        }
    }
}
