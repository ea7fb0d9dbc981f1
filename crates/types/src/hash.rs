//! A cheap hasher for keys the simulator computes itself.
//!
//! `std`'s default SipHash is keyed per process so that an adversary
//! who chooses the keys cannot force collisions. That protection costs
//! tens of nanoseconds per lookup and buys nothing for keys such as 4 KB
//! region numbers, MAC-line indices or Merkle node numbers: the
//! simulator derives them from its own address layout. [`IndexHasher`]
//! folds each key with one 64×64→128-bit multiply instead.
//!
//! Keys that come from the outside world (virtual page numbers read
//! from a trace, for instance) get the same fold under a random
//! initial state, [`SeededIndexHasher`], but only in maps whose size
//! is bounded (the TLB levels): there, keys chosen to collide can at
//! worst turn one probe into a scan of one small map. Unbounded maps
//! over such keys keep `std`'s `RandomState`.
//!
//! # Examples
//!
//! ```
//! use lelantus_types::hash::IndexMap;
//!
//! let mut writes: IndexMap<u64, u64> = IndexMap::default();
//! *writes.entry(7).or_insert(0) += 1;
//! assert_eq!(writes[&7], 1);
//! ```

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

/// Odd 64-bit constant (the golden ratio's fractional bits).
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Multiply-fold hasher for simulator-computed integer keys.
///
/// Each word is mixed into the state with one full-width multiply whose
/// high and low halves are XORed together, so both the low bits (the
/// table's bucket index) and the high bits (its control tag) depend on
/// every key bit.
#[derive(Debug, Clone, Copy, Default)]
pub struct IndexHasher(u64);

impl IndexHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        let p = u128::from(self.0 ^ word) * u128::from(MUL);
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }
}

impl Hasher for IndexHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// `BuildHasher` for [`IndexHasher`].
pub type BuildIndexHasher = BuildHasherDefault<IndexHasher>;

/// A `HashMap` keyed by simulator-computed indices.
pub type IndexMap<K, V> = HashMap<K, V, BuildIndexHasher>;

/// `BuildHasher` for [`IndexHasher`] starting from a random state, for
/// bounded maps over trace-derived keys (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct SeededIndexHasher(u64);

impl SeededIndexHasher {
    /// A builder whose initial state is drawn from `std`'s per-process
    /// random keys.
    pub fn random() -> Self {
        Self(RandomState::new().build_hasher().finish())
    }
}

impl BuildHasher for SeededIndexHasher {
    type Hasher = IndexHasher;

    #[inline]
    fn build_hasher(&self) -> IndexHasher {
        IndexHasher(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(v: T) -> u64 {
        BuildIndexHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_and_key_sensitive() {
        assert_eq!(hash(42u64), hash(42u64));
        assert_ne!(hash(1u64), hash(2u64));
        assert_ne!(hash((1usize, 2usize)), hash((2usize, 1usize)));
    }

    #[test]
    fn keys_differing_only_in_high_bits_spread_over_low_bits() {
        // Bucket indices come from the low bits: keys that differ only
        // above bit 32 must still land in different buckets.
        let low: std::collections::HashSet<u64> =
            (0..64u64).map(|i| hash(i << 40) & 0xfff).collect();
        assert!(low.len() > 56, "only {} distinct low-bit patterns", low.len());
    }

    #[test]
    fn sequential_keys_spread_over_high_bits() {
        // The table's control tag is the top seven bits.
        let tags: std::collections::HashSet<u64> = (0..1024u64).map(|i| hash(i) >> 57).collect();
        assert!(tags.len() > 100, "only {} distinct tags", tags.len());
    }

    #[test]
    fn seeded_builders_differ_but_each_is_stable() {
        let (a, b) = (SeededIndexHasher::random(), SeededIndexHasher::random());
        assert_eq!(a.hash_one(7u64), a.hash_one(7u64));
        assert_ne!(a.hash_one(7u64), b.hash_one(7u64));
    }

    #[test]
    fn byte_writes_cover_the_tail() {
        let mut a = IndexHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = IndexHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        assert_ne!(a.finish(), b.finish());
    }
}
