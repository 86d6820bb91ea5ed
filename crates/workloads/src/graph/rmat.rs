//! RMAT edge sampling: one lane kernel, compiled for AVX-512, for AVX2 and
//! for baseline codegen, with the build picked per call from the host's
//! CPU features.

use cosmos_common::hash::splitmix64;
use cosmos_common::SplitMix64;

/// `2^53`: [`SplitMix64::next_f64`] returns `(next_u64() >> 11) / 2^53`.
const F64_DRAW_SCALE: f64 = (1u64 << 53) as f64;

/// The integer form of the draw test `rng.next_f64() < p`: the least `t`
/// with `t / 2^53 >= p`, so that `(next_u64() >> 11) < t` decides exactly
/// what `next_f64() < p` decides.
///
/// Exactness: `next_f64()` is `m * 2^-53` for the integer
/// `m = next_u64() >> 11 < 2^53`. Converting `m` to `f64` is exact (it
/// has at most 53 significant bits) and so is scaling by a power of two,
/// so the float compare `m * 2^-53 < p` is the real-number compare
/// `m < p * 2^53`. `p * 2^53` is itself exact in `f64` (a power-of-two
/// scaling of a normal number in `(0, 1)`), and `ceil` is exact, so
/// `t = ceil(p * 2^53)` is an integer at most `2^53`, and for every
/// integer `m`, `m < p * 2^53` holds exactly when `m < t`. The two tests
/// agree on all `2^53` possible draws, so the generated graph is
/// bit-identical to the one the `f64` compare produces.
const fn draw_threshold(p: f64) -> u64 {
    (p * F64_DRAW_SCALE).ceil() as u64
}

/// RMAT cumulative quadrant thresholds `a`, `a + b`, `a + b + c` for
/// `(a, b, c, d) = (0.57, 0.19, 0.19, 0.05)`, in [`draw_threshold`] form.
const RMAT_THRESHOLDS: [u64; 3] = [
    draw_threshold(0.57),
    draw_threshold(0.76),
    draw_threshold(0.95),
];

/// Edges the kernel samples per step, one per lane.
const LANES: usize = 8;

/// Appends `num_edges` RMAT edges over `num_vertices` vertices, one
/// `next_u64` draw per recursion level per edge, and leaves `rng` where
/// drawing them edge by edge would leave it (the second half of the
/// edge stream and the optional id shuffle draw from there).
///
/// SplitMix64 is counter-based: from state `s0`, draw `j` is
/// `splitmix64(s0 + j·γ)`. So the level-`k` draw of edge `e` is draw
/// `e·scale + k`, independent of every other draw, and the kernel samples
/// [`LANES`] edges at once before [`SplitMix64::advance`] skips `rng`
/// past all of them.
pub(super) fn rmat_edges(
    rng: &mut SplitMix64,
    num_vertices: usize,
    num_edges: usize,
    edges: &mut Vec<(u32, u32)>,
) {
    rmat_edges_with(Build::detect(), rng, num_vertices, num_edges, edges);
}

/// [`rmat_edges`] through one named build of the kernel.
fn rmat_edges_with(
    build: Build,
    rng: &mut SplitMix64,
    num_vertices: usize,
    num_edges: usize,
    edges: &mut Vec<(u32, u32)>,
) {
    let scale = num_vertices.next_power_of_two().trailing_zeros();
    build.sample(rng.state(), scale, num_vertices as u64, num_edges, edges);
    rng.advance(num_edges as u64 * u64::from(scale));
}

/// One compilation of the lane kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Build {
    /// Target features `avx512f`, `avx512dq` and `avx512vl`: eight-lane
    /// 64-bit multiplies.
    Avx512,
    /// Target feature `avx2`.
    Avx2,
    /// The crate's baseline codegen, on any CPU.
    Baseline,
}

/// The kernel's signature. A feature-gated build is sound to call only
/// on a CPU with its features, so it coerces to an `unsafe fn` pointer
/// only.
type Kernel = unsafe fn(u64, u32, u64, usize, &mut Vec<(u32, u32)>);

impl Build {
    /// Every build, fastest first.
    const ALL: [Build; 3] = [Build::Avx512, Build::Avx2, Build::Baseline];

    /// Whether this CPU has the build's target features.
    fn supported(self) -> bool {
        match self {
            Build::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            Build::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Build::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512dq")
                    && std::arch::is_x86_feature_detected!("avx512vl")
            }
            #[cfg(not(target_arch = "x86_64"))]
            Build::Avx2 | Build::Avx512 => false,
        }
    }

    /// The fastest build this CPU supports.
    fn detect() -> Build {
        Build::ALL
            .into_iter()
            .find(|b| b.supported())
            .unwrap_or(Build::Baseline)
    }

    /// Runs this build of [`rmat_lanes`].
    ///
    /// # Panics
    ///
    /// Panics if the CPU lacks the build's target features.
    fn sample(
        self,
        state: u64,
        scale: u32,
        num_vertices: u64,
        num_edges: usize,
        edges: &mut Vec<(u32, u32)>,
    ) {
        assert!(
            self.supported(),
            "the {self:?} RMAT kernel needs CPU features this host lacks"
        );
        let kernel: Kernel = match self {
            #[cfg(target_arch = "x86_64")]
            Build::Avx512 => rmat_lanes_avx512,
            #[cfg(target_arch = "x86_64")]
            Build::Avx2 => rmat_lanes_avx2,
            _ => rmat_lanes,
        };
        // SAFETY: `kernel` is a build whose target features the assert
        // above found on this CPU, so its instructions all exist here;
        // the kernel itself is safe code with no other requirement.
        unsafe { kernel(state, scale, num_vertices, num_edges, edges) }
    }
}

/// [`rmat_lanes`] with 8 × 64-bit vector multiplies.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn rmat_lanes_avx512(
    state: u64,
    scale: u32,
    num_vertices: u64,
    num_edges: usize,
    edges: &mut Vec<(u32, u32)>,
) {
    rmat_lanes(state, scale, num_vertices, num_edges, edges);
}

/// [`rmat_lanes`] with 4 × 64-bit vectors (AVX2 has no 64-bit multiply,
/// so each is three 32-bit ones).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn rmat_lanes_avx2(
    state: u64,
    scale: u32,
    num_vertices: u64,
    num_edges: usize,
    edges: &mut Vec<(u32, u32)>,
) {
    rmat_lanes(state, scale, num_vertices, num_edges, edges);
}

/// The lane kernel: appends `num_edges` edges drawn from the stream at
/// `state`, [`LANES`] per [`rmat_step`]. Inlined into each build, so that
/// the build's target features vectorise it.
#[inline(always)]
fn rmat_lanes(
    state: u64,
    scale: u32,
    num_vertices: u64,
    num_edges: usize,
    edges: &mut Vec<(u32, u32)>,
) {
    // State distance from one edge's first draw to the next edge's.
    let edge_stride = u64::from(scale).wrapping_mul(SplitMix64::GAMMA);
    let step_stride = (LANES as u64).wrapping_mul(edge_stride);
    let mut first = state;
    for _ in 0..num_edges / LANES {
        edges.extend_from_slice(&rmat_step(first, edge_stride, scale, num_vertices));
        first = first.wrapping_add(step_stride);
    }
    let rest = num_edges % LANES;
    edges.extend_from_slice(&rmat_step(first, edge_stride, scale, num_vertices)[..rest]);
}

/// [`LANES`] consecutive edges, the first drawn from state `first` and
/// each next one `edge_stride` further on. Lane `i` samples one edge, its
/// state `z` stepping by γ once per level.
///
/// Branch-free: with `m` the 53-bit draw, quadrant `(bs, bd)` is `(0, 0)`
/// below `a`, `(0, 1)` below `a + b`, `(1, 0)` below `a + b + c`, else
/// `(1, 1)`, so `bs = [m >= a+b]` and `bd` is the parity of the three
/// threshold tests.
#[inline(always)]
fn rmat_step(first: u64, edge_stride: u64, scale: u32, num_vertices: u64) -> [(u32, u32); LANES] {
    let [t_a, t_ab, t_abc] = RMAT_THRESHOLDS;
    let mut z: [u64; LANES] =
        std::array::from_fn(|i| first.wrapping_add((i as u64).wrapping_mul(edge_stride)));
    let (mut s, mut d) = ([0u64; LANES], [0u64; LANES]);
    for _ in 0..scale {
        for ((z, s), d) in z.iter_mut().zip(&mut s).zip(&mut d) {
            let m = splitmix64(*z) >> 11;
            let (ge_a, ge_ab, ge_abc) = (
                u64::from(m >= t_a),
                u64::from(m >= t_ab),
                u64::from(m >= t_abc),
            );
            *s = (*s << 1) | ge_ab;
            *d = (*d << 1) | (ge_a ^ ge_ab ^ ge_abc);
            *z = z.wrapping_add(SplitMix64::GAMMA);
        }
    }
    // A sampled id is below `next_power_of_two(n) < 2n`, so `id % n` is at
    // most one subtraction.
    let n = num_vertices;
    let fold = |id: u64| (if id >= n { id - n } else { id }) as u32;
    std::array::from_fn(|i| (fold(s[i]), fold(d[i])))
}

#[cfg(test)]
mod tests {
    use super::super::tests::csr_by_stable_sort;
    use super::super::{Graph, GraphKind};
    use super::*;
    use proptest::prelude::*;

    /// The original branchy `f64` RMAT sampler, drawing edge by edge: the
    /// oracle every build of the kernel must match draw for draw.
    fn rmat_edges_reference(
        rng: &mut SplitMix64,
        num_vertices: usize,
        num_edges: usize,
    ) -> Vec<(u32, u32)> {
        let scale = num_vertices.next_power_of_two().trailing_zeros();
        let mut edges = Vec::with_capacity(num_edges);
        for _ in 0..num_edges {
            let (mut s, mut d) = (0u64, 0u64);
            for _ in 0..scale {
                let r = rng.next_f64();
                let (bs, bd) = if r < 0.57 {
                    (0, 0)
                } else if r < 0.76 {
                    (0, 1)
                } else if r < 0.95 {
                    (1, 0)
                } else {
                    (1, 1)
                };
                s = (s << 1) | bs;
                d = (d << 1) | bd;
            }
            let s = (s as usize % num_vertices) as u32;
            let d = (d as usize % num_vertices) as u32;
            edges.push((s, d));
        }
        edges
    }

    /// The builds this CPU supports; prints each one it skips.
    fn supported_builds() -> Vec<Build> {
        Build::ALL
            .into_iter()
            .filter(|b| {
                let ok = b.supported();
                if !ok {
                    println!("skipped the {b:?} RMAT kernel: this CPU lacks its features");
                }
                ok
            })
            .collect()
    }

    /// Checks `build` against the reference: the same edges after
    /// `prefix` edges already in the list, and the same RNG state
    /// afterwards (so the optional id shuffle sees the same stream).
    fn check_build(build: Build, n: usize, num_edges: usize, seed: u64) -> Result<(), String> {
        let (mut fast, mut reference) = (SplitMix64::new(seed), SplitMix64::new(seed));
        let prefix = [(7, 7); 3];
        let mut edges = prefix.to_vec();
        rmat_edges_with(build, &mut fast, n, num_edges, &mut edges);
        let expected = rmat_edges_reference(&mut reference, n, num_edges);
        let ctx = format!("{build:?}: n {n}, {num_edges} edges, seed {seed}");
        if edges[..prefix.len()] != prefix || edges[prefix.len()..] != expected[..] {
            return Err(format!("{ctx}: edge lists differ"));
        }
        if fast.state() != reference.state() {
            return Err(format!("{ctx}: RNG streams diverge"));
        }
        Ok(())
    }

    /// Checks every supported build against the reference, and
    /// `Graph::generate` against the stable-sort CSR oracle.
    fn check_rmat_against_reference(n: usize, deg: usize, seed: u64) -> Result<(), String> {
        for build in supported_builds() {
            check_build(build, n, n * deg, seed)?;
        }
        let expected = rmat_edges_reference(&mut SplitMix64::new(seed), n, n * deg);
        let g = Graph::generate(GraphKind::Rmat, n, deg, seed);
        let (row_ptr, col_idx) = csr_by_stable_sort(n, expected);
        if g.row_ptr() != row_ptr || g.col_idx() != col_idx {
            return Err(format!(
                "n {n}, degree {deg}, seed {seed}: CSR arrays differ from the stable-sort oracle"
            ));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        fn rmat_matches_reference_sampler(
            pick in 0usize..8,
            any_n in 1usize..6000,
            deg in 0usize..16,
            seed in any::<u64>(),
        ) {
            // Half the cases use the fixed sizes, where the `% n` fold of
            // non-powers-of-two (and n = 1, scale 0) is exercised.
            let n = [1, 3, 1000, 5000].get(pick).copied().unwrap_or(any_n);
            let outcome = check_rmat_against_reference(n, deg, seed);
            prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }
    }

    #[test]
    fn rmat_matches_reference_at_fold_sizes() {
        for n in [1, 2, 3, 1000, 1024, 5000] {
            for seed in [0, 1, u64::MAX] {
                check_rmat_against_reference(n, 5, seed).unwrap();
            }
        }
    }

    #[test]
    fn every_build_matches_reference_at_every_lane_remainder() {
        for build in supported_builds() {
            for n in [1, 3, 1000, 1 << 12] {
                for num_edges in (0..=2 * LANES + 1).chain([1000 * LANES + 5]) {
                    for seed in [1, u64::MAX] {
                        check_build(build, n, num_edges, seed).unwrap();
                    }
                }
            }
        }
    }

    #[test]
    fn dispatch_picks_the_fastest_supported_build() {
        let build = Build::detect();
        assert!(build.supported());
        assert!(Build::ALL
            .iter()
            .take_while(|&&b| b != build)
            .all(|b| !b.supported()));
        println!("RMAT kernel build on this CPU: {build:?}");
    }

    #[test]
    fn rmat_thresholds_are_exact() {
        let ulp = 1.0 / F64_DRAW_SCALE;
        for (p, t) in [0.57, 0.76, 0.95].into_iter().zip(RMAT_THRESHOLDS) {
            // Draw t - 1 is the last below p; draw t the first at or above.
            assert!(
                ((t - 1) as f64) * ulp < p,
                "p = {p}: threshold {t} too high"
            );
            assert!(p <= t as f64 * ulp, "p = {p}: threshold {t} too low");
        }
    }
}
