//! Seeded deterministic hashing for hot-path maps.
//!
//! `std::collections::HashMap`'s default `RandomState` is SipHash-1-3 with
//! per-process random keys: robust against collision attacks, but ~10× the
//! cost of what a simulator hashing small integer keys needs — and randomly
//! keyed, so two runs of the same binary hash identically-shaped maps into
//! different bucket orders. This module provides the classic Fx multiply-mix
//! hash (as used by rustc) behind a **fixed seed**, so every run of every
//! build hashes identically and the hot maps cost one multiply per word.
//!
//! Determinism discipline: seeding alone does not make iteration order part
//! of the deterministic contract — map iteration order still depends on
//! insertion history and capacity growth. Nothing that feeds a report
//! fingerprint may iterate one of these maps directly; collect-and-sort (or
//! key off an ordered structure) first. The fixed seed exists so *internal*
//! behavior (bucket collisions, resize timing, allocator traffic) is
//! reproducible run-to-run, keeping wall-clock benchmarks and profiles
//! comparable.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// 64-bit Fx multiplier (golden-ratio derived, same constant rustc uses).
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Default seed folded into every hasher. Arbitrary odd constant; fixed so
/// runs are reproducible. [`FxBuildHasher::with_seed`] overrides it.
const DEFAULT_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// The Fx word-at-a-time multiply-mix hasher.
///
/// Not collision-resistant against adversarial keys — fine here, since every
/// key hashed in this workspace is simulator-internal (ids, sequence
/// numbers), never attacker-controlled.
#[derive(Clone, Debug)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    /// A multiply carries differences only upwards: keys that differ in
    /// their high bits (a string's last bytes, an [`ObjectId`]'s index above
    /// its low 12 bits) hash to words that differ only in their high bits.
    /// Hash tables pick buckets from the low bits, so fold the high half
    /// down, once, for every key.
    ///
    /// [`ObjectId`]: crate::ObjectId
    #[inline]
    fn finish(&self) -> u64 {
        self.hash ^ (self.hash >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            // Fold the length in so "ab" and "ab\0" differ.
            self.mix(u64::from_le_bytes(tail) ^ (rem.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(v as u64);
    }
    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.mix(v as u64);
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }
    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.mix(v as u64);
        self.mix((v >> 64) as u64);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// Builds [`FxHasher`]s from a fixed (or caller-chosen) seed.
#[derive(Clone, Copy, Debug)]
pub struct FxBuildHasher {
    seed: u64,
}

impl FxBuildHasher {
    /// A builder with an explicit seed (e.g. a simulation seed, for
    /// workloads that want distinct-but-reproducible bucket layouts).
    pub fn with_seed(seed: u64) -> Self {
        FxBuildHasher { seed }
    }
}

impl Default for FxBuildHasher {
    fn default() -> Self {
        FxBuildHasher { seed: DEFAULT_SEED }
    }
}

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher { hash: self.seed }
    }
}

/// A `HashMap` keyed by the seeded Fx hasher.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed by the seeded Fx hasher.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_builders() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&"hello"), hash_of(&"hello"));
        let a = FxBuildHasher::default().hash_one((7u32, 9u64));
        let b = FxBuildHasher::default().hash_one((7u32, 9u64));
        assert_eq!(a, b);
    }

    #[test]
    fn seed_changes_hashes() {
        let a = FxBuildHasher::with_seed(1).hash_one(42u64);
        let b = FxBuildHasher::with_seed(2).hash_one(42u64);
        assert_ne!(a, b);
    }

    #[test]
    fn byte_strings_respect_length() {
        assert_ne!(hash_of(&b"ab".as_slice()), hash_of(&b"ab\0".as_slice()));
        assert_ne!(hash_of(&b"".as_slice()), hash_of(&b"\0".as_slice()));
    }

    #[test]
    fn byte_string_keys_spread_over_the_low_bits() {
        // hashbrown picks the bucket from the low bits. Keys that differ in
        // their last bytes (`pglog.{group}.{seq}`) differ in the *high* bytes
        // of the last word, which a bare multiply never carries downwards.
        let buckets: std::collections::HashSet<u64> = (0..4096)
            .map(|seq| hash_of(&format!("pglog.3.{seq}").into_bytes()) & 0xFFF)
            .collect();
        assert!(buckets.len() > 2000, "{} of 4096 buckets", buckets.len());
    }

    #[test]
    fn integer_keys_that_differ_above_bit_12_spread_over_the_low_bits() {
        // An `ObjectId`'s raw value is `group << 48 | image << 12 | idx`:
        // the objects of one group at one `idx` differ only from bit 12 up,
        // and a bare multiply would start them all probing at one bucket.
        for (group, idx) in [(3u64, 0u64), (511, 7)] {
            let buckets: std::collections::HashSet<u64> = (0..4096u64)
                .map(|image| hash_of(&(group << 48 | image << 12 | idx)) & 0xFFF)
                .collect();
            assert!(buckets.len() > 2000, "{} of 4096 buckets", buckets.len());
        }
    }

    #[test]
    fn map_behaves_like_std() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(i, i * 3);
        }
        for i in 0..1000 {
            assert_eq!(m.get(&i), Some(&(i * 3)));
        }
        assert_eq!(m.len(), 1000);
    }
}
