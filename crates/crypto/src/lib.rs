//! Functional cryptography substrate for the COSMOS secure-memory model.
//!
//! The paper's secure-memory system (Intel-SGX-style AES-CTR + MAC + Merkle
//! tree) needs three primitives, all implemented here from scratch with no
//! external dependencies:
//!
//! - [`aes::Aes128`] — FIPS-197 AES-128 block cipher (the forward cipher
//!   AES-CTR needs),
//! - [`sha256::Sha256`] — FIPS-180-4 SHA-256,
//! - [`otp`] — the one-time pad `AES_Enc(PA ‖ CTR)` used by AES-CTR memory
//!   encryption (`Ciphertext = Plaintext ⊕ OTP`), and
//! - [`mac`] — the per-line MAC `Hash(Ciphertext ‖ PA ‖ CTR)` truncated to
//!   64 bits, as modeled in the paper.
//!
//! These are used by the *functional* layer of `cosmos-secure` to actually
//! encrypt, authenticate, and integrity-check simulated memory, so that the
//! security properties (tamper and replay detection) are testable — the
//! *timing* layer uses the paper's fixed 40-cycle latencies instead of
//! measuring this software implementation.
//!
//! # Examples
//!
//! ```
//! use cosmos_crypto::{aes::Aes128, otp, mac};
//! use cosmos_common::PhysAddr;
//!
//! let key = Aes128::new(&[0u8; 16]);
//! let plaintext = [42u8; 64];
//! let pad = otp::generate(&key, PhysAddr::new(0x1000), 7);
//! let ciphertext = otp::xor(&plaintext, &pad);
//! assert_ne!(ciphertext, plaintext);
//! assert_eq!(otp::xor(&ciphertext, &pad), plaintext);
//! let tag = mac::compute(&ciphertext, PhysAddr::new(0x1000), 7);
//! assert!(mac::verify(&ciphertext, PhysAddr::new(0x1000), 7, tag));
//! ```

pub mod aes;
pub mod mac;
pub mod otp;
pub mod sha256;

pub use aes::Aes128;
pub use sha256::Sha256;
