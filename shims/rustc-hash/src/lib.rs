//! Offline stand-in for the `rustc-hash` crate (the 2.x API subset the
//! workspace uses): [`FxHasher`], [`FxBuildHasher`], [`FxHashMap`] and
//! [`FxHashSet`].
//!
//! `FxHasher` is a fixed, unkeyed multiply-rotate word hasher: each word
//! written is added to the state, which is then multiplied by an odd
//! constant. A product's low bits depend only on its inputs' low bits, so
//! [`Hasher::finish`] rotates the state to bring the well-mixed high bits
//! down to where `HashMap` takes its bucket index — keys that differ only
//! in high bits (op actor ids, `1 << 31 | rank << 14 | k`) still spread.
//! It is fast for small integer keys and offers no resistance to chosen
//! keys, so use it only where program code picks every key. Hash values
//! differ from upstream's. See `shims/README.md`.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` hashed with [`FxHasher`].
pub type FxHashSet<V> = HashSet<V, FxBuildHasher>;

/// Odd multiplier (the 64-bit constant upstream's `FxHasher` uses).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// How far [`Hasher::finish`] rotates the state left.
const ROTATE: u32 = 26;

/// A fast, fixed, non-cryptographic hasher for small keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    /// Hash `bytes` as little-endian 8-byte words, the last one
    /// zero-padded. (Slices and strings also write their length or a
    /// terminator, so padding cannot make two keys collide.)
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i.into());
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i.into());
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(ROTATE)
    }
}

/// Builds a zero-state [`FxHasher`]; every map hashes every key alike.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_bytes(bytes: &[u8]) -> u64 {
        let mut h = FxHasher::default();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn a_key_hashes_to_its_pinned_value() {
        // ((3·K + 7)·K) rotated left by 26, all mod 2^64.
        assert_eq!(
            FxBuildHasher.hash_one((3u32, 7u64)),
            13_523_112_195_714_692_663
        );
        assert_eq!(
            FxBuildHasher.hash_one(0x8000_4001u32),
            10_764_535_113_386_329_453
        );
    }

    #[test]
    fn write_covers_every_byte_of_a_ragged_slice() {
        let base = [1u8, 2, 3, 4, 5, 6, 7, 8, 9];
        let h = hash_bytes(&base);
        for i in 0..base.len() {
            let mut changed = base;
            changed[i] ^= 0x40;
            assert_ne!(hash_bytes(&changed), h, "byte {i} not hashed");
        }
    }

    #[test]
    fn a_map_round_trips_its_entries() {
        let mut map = FxHashMap::default();
        for k in 0..1000u32 {
            assert_eq!(map.insert(1 << 31 | k << 14, k), None);
        }
        for k in 0..1000u32 {
            assert_eq!(map.get(&(1 << 31 | k << 14)), Some(&k));
        }
        assert_eq!(map.remove(&(1 << 31 | 7 << 14)), Some(7));
        assert_eq!(map.get(&(1 << 31 | 7 << 14)), None);
        assert_eq!(map.len(), 999);
        let set: FxHashSet<u32> = map.into_values().collect();
        assert_eq!(set.len(), 999);
        assert!(!set.contains(&7));
    }
}
