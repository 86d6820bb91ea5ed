//! The functional secure-memory engine.
//!
//! [`SecureMemory`] is the ground-truth model of an AES-CTR + MAC + Merkle
//! tree protected memory: it really encrypts 64 B lines with the one-time
//! pad `AES(PA ‖ CTR)`, maintains a 64-bit MAC per line and the counter
//! Merkle tree, and detects tampering, relocation, and replay on reads.
//!
//! The timing simulator (`cosmos-core`) can run with this engine enabled to
//! validate functional correctness while measuring, or disabled for speed;
//! the security tests exercise it directly.

use crate::counters::{CounterScheme, CounterStore, IncrementOutcome};
use crate::layout::MetadataLayout;
use crate::merkle::{Hash, MerkleTree};
use cosmos_common::LineAddr;
use cosmos_crypto::{aes::Aes128, mac, otp};
use std::collections::BTreeMap;

/// Why a protected read was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SecurityError {
    /// The per-line MAC did not match (data tamper, relocation, or replay
    /// of a stale data+MAC pair).
    MacMismatch,
    /// The counter block failed Merkle verification (counter tamper or
    /// replay).
    TreeMismatch,
}

impl core::fmt::Display for SecurityError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SecurityError::MacMismatch => f.write_str("MAC verification failed"),
            SecurityError::TreeMismatch => f.write_str("integrity tree verification failed"),
        }
    }
}

impl std::error::Error for SecurityError {}

/// A snapshot of one line's externally visible state, used to model replay
/// attacks in tests.
#[derive(Clone, Debug)]
pub struct LineSnapshot {
    ciphertext: [u8; 64],
    mac: u64,
}

impl LineSnapshot {
    /// The captured ciphertext (what an attacker reading DRAM would see).
    pub fn ciphertext(&self) -> &[u8; 64] {
        &self.ciphertext
    }

    /// The captured MAC tag.
    pub fn mac(&self) -> u64 {
        self.mac
    }
}

/// The functional protected-memory model.
///
/// # Examples
///
/// ```
/// use cosmos_secure::{SecureMemory, CounterScheme};
/// use cosmos_common::LineAddr;
///
/// let mut m = SecureMemory::new(1 << 30, CounterScheme::MorphCtr, [0u8; 16]);
/// let line = LineAddr::new(77);
/// m.write(line, &[42u8; 64]);
/// assert_eq!(m.read(line).unwrap(), [42u8; 64]);
/// ```
pub struct SecureMemory {
    aes: Aes128,
    layout: MetadataLayout,
    counters: CounterStore,
    tree: MerkleTree,
    ciphertext: BTreeMap<u64, [u8; 64]>,
    macs: BTreeMap<u64, u64>,
    /// Background re-encryption writes generated by counter overflows.
    reencrypted_lines: u64,
}

impl core::fmt::Debug for SecureMemory {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SecureMemory")
            .field("scheme", &self.counters.scheme())
            .field("lines_written", &self.ciphertext.len())
            .field("reencrypted_lines", &self.reencrypted_lines)
            .finish()
    }
}

impl SecureMemory {
    /// Creates a protected region of `data_bytes` with the given scheme and
    /// AES key.
    pub fn new(data_bytes: u64, scheme: CounterScheme, key: [u8; 16]) -> Self {
        let layout = MetadataLayout::new(data_bytes, scheme);
        // Untouched leaves must hash like a fresh (all-zero) counter block.
        let fresh = CounterStore::new(scheme);
        let default_leaf = Self::hash_block(fresh.block(LineAddr::new(0)));
        let tree = MerkleTree::with_default_leaf(
            layout.ctr_blocks(),
            MetadataLayout::DEFAULT_ARITY,
            default_leaf,
        );
        Self {
            aes: Aes128::new(&key),
            layout,
            counters: CounterStore::new(scheme),
            tree,
            ciphertext: BTreeMap::new(),
            macs: BTreeMap::new(),
            reencrypted_lines: 0,
        }
    }

    /// The metadata layout.
    pub fn layout(&self) -> &MetadataLayout {
        &self.layout
    }

    /// The counter store.
    pub fn counters(&self) -> &CounterStore {
        &self.counters
    }

    /// Lines re-encrypted so far due to counter overflows.
    pub fn reencrypted_lines(&self) -> u64 {
        self.reencrypted_lines
    }

    /// Writes `plaintext` to `line`: bumps the counter, re-encrypts, updates
    /// the MAC and the tree. Returns the increment outcome (overflows
    /// trigger transparent re-encryption of the whole counter block's
    /// coverage).
    pub fn write(&mut self, line: LineAddr, plaintext: &[u8; 64]) -> IncrementOutcome {
        // Decrypt-before-increment values of covered lines are needed if the
        // block overflows; capture the old counter values lazily.
        let scheme = self.counters.scheme();
        let block_before = self.counters.block(line);
        let (major_before, minors_before) = (block_before.major(), block_before.minors());
        let outcome = self.counters.increment(line);
        if let IncrementOutcome::Overflow { ref reencrypt } = outcome {
            // Every covered line was encrypted under the old (major, minor);
            // re-encrypt under the new values.
            for l in reencrypt.clone() {
                if l == line {
                    continue; // about to be rewritten below anyway
                }
                if let Some(ct) = self.ciphertext.get(&l.index()).copied() {
                    let slot = scheme.slot_of(l);
                    let old_value = (major_before << 20) | minors_before[slot] as u64;
                    let pad_old = otp::generate(&self.aes, l.base(), old_value);
                    let pt = otp::xor(&ct, &pad_old);
                    let new_value = self.counters.value(l);
                    let pad_new = otp::generate(&self.aes, l.base(), new_value);
                    let ct_new = otp::xor(&pt, &pad_new);
                    self.macs
                        .insert(l.index(), mac::compute(&ct_new, l.base(), new_value));
                    self.ciphertext.insert(l.index(), ct_new);
                    self.reencrypted_lines += 1;
                }
            }
        }
        let ctr = self.counters.value(line);
        let pad = otp::generate(&self.aes, line.base(), ctr);
        let ct = otp::xor(plaintext, &pad);
        self.macs
            .insert(line.index(), mac::compute(&ct, line.base(), ctr));
        self.ciphertext.insert(line.index(), ct);
        self.update_tree_leaf(line);
        outcome
    }

    /// Reads and verifies `line`.
    ///
    /// # Errors
    ///
    /// [`SecurityError::TreeMismatch`] when the counter block fails Merkle
    /// verification; [`SecurityError::MacMismatch`] when the data MAC fails.
    /// Unwritten lines read as zeroed plaintext (fresh memory) after the
    /// same checks.
    pub fn read(&self, line: LineAddr) -> Result<[u8; 64], SecurityError> {
        // 1. Verify the counter block against the tree.
        let leaf = self.leaf_index(line);
        if !self.tree.verify_leaf(leaf, self.leaf_hash(line)) {
            return Err(SecurityError::TreeMismatch);
        }
        // 2. Verify the MAC and decrypt.
        let ctr = self.counters.value(line);
        match self.ciphertext.get(&line.index()) {
            Some(ct) => {
                let tag = self.macs.get(&line.index()).copied().unwrap_or(0);
                if !mac::verify(ct, line.base(), ctr, tag) {
                    return Err(SecurityError::MacMismatch);
                }
                let pad = otp::generate(&self.aes, line.base(), ctr);
                Ok(otp::xor(ct, &pad))
            }
            None => Ok([0u8; 64]),
        }
    }

    /// Attack hook: flips a bit of the stored ciphertext.
    pub fn tamper_data(&mut self, line: LineAddr) {
        let ct = self
            .ciphertext
            .entry(line.index())
            .or_insert_with(|| [0u8; 64]);
        ct[0] ^= 0x01;
    }

    /// Attack hook: snapshots a line's external state (ciphertext + MAC).
    pub fn snapshot(&self, line: LineAddr) -> LineSnapshot {
        LineSnapshot {
            ciphertext: self
                .ciphertext
                .get(&line.index())
                .copied()
                .unwrap_or([0u8; 64]),
            mac: self.macs.get(&line.index()).copied().unwrap_or(0),
        }
    }

    /// Attack hook: replays a stale snapshot (old data + old MAC), as an
    /// attacker with DRAM access could.
    pub fn replay(&mut self, line: LineAddr, snapshot: &LineSnapshot) {
        self.ciphertext.insert(line.index(), snapshot.ciphertext);
        self.macs.insert(line.index(), snapshot.mac);
    }

    /// Attack hook: tampers with the stored counter value (bypassing the
    /// tree update an honest controller would do).
    pub fn tamper_counter(&mut self, line: LineAddr) {
        // Incrementing via the store without updating the tree models a
        // counter modified in DRAM.
        self.counters.increment(line);
    }

    fn leaf_index(&self, line: LineAddr) -> u64 {
        self.counters.scheme().block_of(line)
    }

    fn leaf_hash(&self, line: LineAddr) -> Hash {
        Self::hash_block(self.counters.block(line))
    }

    fn hash_block(block: crate::counters::CounterBlock<'_>) -> Hash {
        let minors = block.minors();
        let mut bytes = Vec::with_capacity(8 + minors.len() * 4);
        bytes.extend_from_slice(&block.major().to_le_bytes());
        for m in &minors {
            bytes.extend_from_slice(&m.to_le_bytes());
        }
        cosmos_crypto::Sha256::digest(&bytes)
    }

    fn update_tree_leaf(&mut self, line: LineAddr) {
        let leaf = self.leaf_index(line);
        let hash = self.leaf_hash(line);
        self.tree.update_leaf(leaf, hash);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn memory() -> SecureMemory {
        SecureMemory::new(1 << 26, CounterScheme::MorphCtr, [7u8; 16])
    }

    #[test]
    fn write_read_roundtrip() {
        let mut m = memory();
        let line = LineAddr::new(1000);
        let data = [0xABu8; 64];
        m.write(line, &data);
        assert_eq!(m.read(line).unwrap(), data);
    }

    #[test]
    fn unwritten_reads_zero() {
        let m = memory();
        assert_eq!(m.read(LineAddr::new(5)).unwrap(), [0u8; 64]);
    }

    #[test]
    fn overwrite_changes_ciphertext_not_plaintext() {
        let mut m = memory();
        let line = LineAddr::new(3);
        m.write(line, &[1u8; 64]);
        let ct1 = m.snapshot(line);
        m.write(line, &[1u8; 64]); // same plaintext, bumped counter
        let ct2 = m.snapshot(line);
        assert_ne!(
            ct1.ciphertext, ct2.ciphertext,
            "counter bump must change the pad"
        );
        assert_eq!(m.read(line).unwrap(), [1u8; 64]);
    }

    #[test]
    fn data_tamper_detected() {
        let mut m = memory();
        let line = LineAddr::new(8);
        m.write(line, &[9u8; 64]);
        m.tamper_data(line);
        assert_eq!(m.read(line), Err(SecurityError::MacMismatch));
    }

    #[test]
    fn replay_detected() {
        let mut m = memory();
        let line = LineAddr::new(21);
        m.write(line, &[1u8; 64]);
        let old = m.snapshot(line);
        m.write(line, &[2u8; 64]);
        m.replay(line, &old);
        // Old data+MAC pair was valid under the old counter; the counter has
        // since advanced, so the MAC check fails.
        assert_eq!(m.read(line), Err(SecurityError::MacMismatch));
    }

    #[test]
    fn counter_tamper_detected() {
        let mut m = memory();
        let line = LineAddr::new(34);
        m.write(line, &[5u8; 64]);
        m.tamper_counter(line);
        assert_eq!(m.read(line), Err(SecurityError::TreeMismatch));
    }

    #[test]
    fn overflow_reencrypts_neighbors_transparently() {
        // Split counters overflow quickly (7-bit minors).
        let mut m = SecureMemory::new(1 << 20, CounterScheme::Split, [1u8; 16]);
        let hot = LineAddr::new(0);
        let neighbor = LineAddr::new(1); // same counter block
        m.write(neighbor, &[0x55u8; 64]);
        for i in 0..200u8 {
            m.write(hot, &[i; 64]);
        }
        assert!(m.counters().overflows() >= 1);
        assert!(m.reencrypted_lines() >= 1);
        // The neighbor is still readable and intact after re-encryption.
        assert_eq!(m.read(neighbor).unwrap(), [0x55u8; 64]);
        assert_eq!(m.read(hot).unwrap(), [199u8; 64]);
    }

    #[test]
    fn distinct_lines_do_not_interfere() {
        let mut m = memory();
        for i in 0..50u64 {
            m.write(LineAddr::new(i * 7), &[i as u8; 64]);
        }
        for i in 0..50u64 {
            assert_eq!(m.read(LineAddr::new(i * 7)).unwrap(), [i as u8; 64]);
        }
    }
}
