//! Address hashing for RL state construction (paper §4.1.1), and the
//! FNV-1a digest.
//!
//! The COSMOS predictors hash bits 6–47 of the physical address (the
//! line-granular page-and-offset region) through a splitmix64 variant with
//! prime multipliers to form a compact, uniformly distributed state index
//! into a Q-table with a power-of-two number of states.
//!
//! [`Fnv1a`] digests byte streams: snapshot config fingerprints and the
//! golden tests' pinned digests.

use crate::addr::PhysAddr;

/// splitmix64 finalizer (Vigna, 2017): a strong 64-bit mixing function.
///
/// # Examples
///
/// ```
/// use cosmos_common::hash::splitmix64;
/// assert_ne!(splitmix64(1), splitmix64(2));
/// ```
#[inline]
pub const fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes a physical address into an RL state index in `0..num_states`.
///
/// Uses bits 6..=47 of the address, as in the paper: the low 6 bits are the
/// line offset (irrelevant to locality), and 48 bits cover a 256 TiB physical
/// space.
///
/// # Panics
///
/// Panics if `num_states` is not a power of two (the hardware Q-table is
/// always a power-of-two SRAM; masking assumes it).
///
/// # Examples
///
/// ```
/// use cosmos_common::{hash::hash_address, PhysAddr};
/// let s = hash_address(PhysAddr::new(0xdead_beef), 16384);
/// assert!(s < 16384);
/// ```
#[inline]
pub fn hash_address(addr: PhysAddr, num_states: usize) -> usize {
    assert!(
        num_states.is_power_of_two(),
        "num_states must be a power of two, got {num_states}"
    );
    let significant = (addr.value() >> 6) & ((1u64 << 42) - 1);
    (splitmix64(significant) as usize) & (num_states - 1)
}

/// Hashes an arbitrary 64-bit key into `0..num_states` (power of two).
///
/// Used where the state key is already line-granular (e.g. counter-block
/// addresses).
///
/// # Panics
///
/// Panics if `num_states` is not a power of two.
#[inline]
pub fn hash_key(key: u64, num_states: usize) -> usize {
    assert!(
        num_states.is_power_of_two(),
        "num_states must be a power of two, got {num_states}"
    );
    (splitmix64(key) as usize) & (num_states - 1)
}

/// 64-bit FNV-1a, fed incrementally.
///
/// # Examples
///
/// ```
/// use cosmos_common::hash::Fnv1a;
/// let mut h = Fnv1a::new();
/// h.write(b"a");
/// assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The digest of no bytes (the FNV offset basis).
    pub const fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds `bytes`.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest of everything fed so far.
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// The 64-bit FNV-1a digest of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_known_sequence_is_stable() {
        // Reference values computed from the canonical splitmix64 algorithm.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF_u64);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1_u64);
    }

    #[test]
    fn hash_address_in_range() {
        for n in [2usize, 64, 16384] {
            for a in [0u64, 63, 64, 0xFFFF_FFFF, u64::MAX] {
                assert!(hash_address(PhysAddr::new(a), n) < n);
            }
        }
    }

    #[test]
    fn line_offset_bits_are_ignored() {
        let a = PhysAddr::new(0x12_3456_7000);
        for off in 0..64u64 {
            assert_eq!(
                hash_address(a, 16384),
                hash_address(a.offset(off), 16384),
                "offset {off} changed the state"
            );
        }
    }

    #[test]
    fn different_lines_usually_differ() {
        let n = 16384;
        let base = PhysAddr::new(0x4000_0000);
        let mut collisions = 0;
        for i in 1..1000u64 {
            if hash_address(base, n) == hash_address(base.offset(i * 64), n) {
                collisions += 1;
            }
        }
        // 1000 draws over 16384 buckets: expect < a handful of collisions.
        assert!(collisions < 10, "too many collisions: {collisions}");
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        let n = 64usize;
        let mut buckets = vec![0u32; n];
        for i in 0..64_000u64 {
            buckets[hash_address(PhysAddr::new(i * 64), n)] += 1;
        }
        let expected = 1000.0;
        for (i, &b) in buckets.iter().enumerate() {
            let dev = (b as f64 - expected).abs() / expected;
            assert!(dev < 0.25, "bucket {i} deviates {dev:.2} from uniform");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        hash_address(PhysAddr::new(0), 1000);
    }
}
