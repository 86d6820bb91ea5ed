//! Property-based tests for the crypto substrate.

use cosmos_common::PhysAddr;
use cosmos_crypto::{aes::Aes128, mac, otp, Sha256};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn aes_is_a_permutation(key in prop::array::uniform16(any::<u8>()),
                            a in prop::array::uniform16(any::<u8>()),
                            b in prop::array::uniform16(any::<u8>())) {
        prop_assume!(a != b);
        let aes = Aes128::new(&key);
        prop_assert_ne!(aes.encrypt_block(&a), aes.encrypt_block(&b));
    }

    #[test]
    fn sha256_incremental_matches_oneshot(data in prop::collection::vec(any::<u8>(), 0..500),
                                          split in 0usize..500) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn otp_roundtrip_any_line(key in prop::array::uniform16(any::<u8>()),
                              addr in any::<u64>(),
                              ctr in any::<u64>(),
                              seed_byte in any::<u8>()) {
        let aes = Aes128::new(&key);
        let pt = [seed_byte; 64];
        let pad = otp::generate(&aes, PhysAddr::new(addr), ctr);
        prop_assert_eq!(otp::xor(&otp::xor(&pt, &pad), &pad), pt);
    }

    #[test]
    fn mac_rejects_any_single_bit_flip(ct_seed in any::<u8>(), byte in 0usize..64, bit in 0u8..8) {
        let mut ct = [ct_seed; 64];
        let tag = mac::compute(&ct, PhysAddr::new(0x40), 5);
        ct[byte] ^= 1 << bit;
        prop_assert!(!mac::verify(&ct, PhysAddr::new(0x40), 5, tag));
    }

    #[test]
    fn mac_binds_address_and_counter(a1 in any::<u64>(), a2 in any::<u64>(),
                                     c1 in any::<u64>(), c2 in any::<u64>()) {
        prop_assume!(a1 != a2 || c1 != c2);
        let ct = [0x77u8; 64];
        let tag = mac::compute(&ct, PhysAddr::new(a1), c1);
        prop_assert!(!mac::verify(&ct, PhysAddr::new(a2), c2, tag));
    }
}
