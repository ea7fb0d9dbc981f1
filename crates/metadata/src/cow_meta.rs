//! Solution 2's supplementary CoW metadata (paper §III-B, Figure 5).
//!
//! Lelantus-CoW keeps the classic 7-bit minor counters and stores each
//! region's source-page address in a separate 8-byte slot in NVM
//! (0.02 % space). A minor counter of zero still marks an uncopied
//! line; resolving it requires the source address, fetched through a
//! small dedicated **CoW cache** carved out of counter-cache capacity
//! (the paper reserves 32 KB of the 256 KB counter cache; each 64 B
//! slot line hosts eight 8 B mappings). Figure 10b reports this cache's
//! miss rate.
//!
//! The slots themselves are NVM lines like any other: the memory
//! controller reads and writes them through the device, whose line
//! store is their only record, and [`crate::MetadataLayout`] places
//! them. This module holds the slot codec ([`encode_slot`],
//! [`decode_slot`]) and [`CowCache`], the on-chip cache in front of
//! the slots. The cache is keyed by region numbers the simulator
//! computes, so it hashes with the cheap
//! [`lelantus_types::hash::IndexHasher`]; it is a [`LruMap`], so a
//! lookup, fill or eviction is O(1).

use lelantus_types::hash::BuildIndexHasher;
use lelantus_types::lru::LruMap;
use lelantus_types::LINE_BYTES;

/// Writes the 8-byte slot at byte `off` of slot line `line`: `src + 1`
/// little-endian for a mapping `region → src`, 0 for none.
///
/// # Examples
///
/// ```
/// use lelantus_metadata::cow_meta::{decode_slot, encode_slot};
///
/// let mut line = [0u8; 64];
/// encode_slot(&mut line, 16, Some(3));
/// assert_eq!(decode_slot(&line, 16), Some(3));
/// assert_eq!(decode_slot(&line, 8), None, "the neighbouring slot is empty");
/// encode_slot(&mut line, 16, None);
/// assert_eq!(line, [0; 64]);
/// ```
pub fn encode_slot(line: &mut [u8; LINE_BYTES], off: usize, src: Option<u64>) {
    let v = src.map_or(0, |s| s + 1);
    line[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

/// Reads the mapping stored in the 8-byte slot at byte `off` of slot
/// line `line` (see [`encode_slot`]).
pub fn decode_slot(line: &[u8; LINE_BYTES], off: usize) -> Option<u64> {
    let v = u64::from_le_bytes(line[off..off + 8].try_into().expect("8-byte slot"));
    v.checked_sub(1)
}

/// Statistics for the on-chip CoW cache (Fig 10b).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CowCacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed (require an NVM table read).
    pub misses: u64,
}

impl CowCacheStats {
    /// Miss rate in [0, 1].
    pub fn miss_rate(&self) -> f64 {
        let t = self.hits + self.misses;
        if t == 0 {
            0.0
        } else {
            self.misses as f64 / t as f64
        }
    }

    /// Interval counters: `self - earlier` field by field.
    pub fn delta_since(&self, earlier: &CowCacheStats) -> CowCacheStats {
        CowCacheStats { hits: self.hits - earlier.hits, misses: self.misses - earlier.misses }
    }
}

/// The small on-chip cache of CoW mappings.
///
/// Fully associative over `capacity` mappings with LRU replacement;
/// 4096 entries model the paper's 32 KB reservation (8 B each).
/// Entries cache *both* positive and negative results — "this region
/// has no source" is as useful as the source itself.
#[derive(Debug, Clone)]
pub struct CowCache {
    entries: LruMap<u64, Option<u64>, BuildIndexHasher>,
    capacity: usize,
    stats: CowCacheStats,
}

impl CowCache {
    /// Creates a cache holding `capacity` mappings.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "CoW cache needs capacity");
        Self { entries: LruMap::default(), capacity, stats: CowCacheStats::default() }
    }

    /// Accumulated counters.
    pub fn stats(&self) -> CowCacheStats {
        self.stats
    }

    /// Looks up `region`. `Some(mapping)` on hit (the mapping itself
    /// may be `None` = "known to have no source"), `None` on miss.
    pub fn lookup(&mut self, region: u64) -> Option<Option<u64>> {
        if let Some(&mut mapping) = self.entries.get(&region) {
            self.stats.hits += 1;
            Some(mapping)
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// Fills `region`'s mapping after an NVM table read (or updates it
    /// after a command), evicting LRU if full.
    pub fn fill(&mut self, region: u64, mapping: Option<u64>) {
        if let Some(e) = self.entries.get(&region) {
            *e = mapping;
            return;
        }
        if self.entries.len() >= self.capacity {
            self.entries.pop_lru();
        }
        self.entries.insert(region, mapping);
    }

    /// Drops `region` from the cache (e.g. on `page_free`).
    pub fn invalidate(&mut self, region: u64) {
        self.entries.remove(&region);
    }

    /// Number of cached mappings.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_of_one_line_are_independent() {
        let mut line = [0u8; LINE_BYTES];
        for (i, off) in (0..LINE_BYTES).step_by(8).enumerate() {
            encode_slot(&mut line, off, Some(i as u64 * 3));
        }
        encode_slot(&mut line, 24, None);
        for (i, off) in (0..LINE_BYTES).step_by(8).enumerate() {
            let want = (off != 24).then_some(i as u64 * 3);
            assert_eq!(decode_slot(&line, off), want, "slot {i}");
        }
        assert_eq!(line[..8], 1u64.to_le_bytes(), "region 0's source 0 is stored as 1");
    }

    #[test]
    fn cache_hit_miss_accounting() {
        let mut c = CowCache::new(8);
        assert_eq!(c.lookup(5), None);
        c.fill(5, Some(2));
        assert_eq!(c.lookup(5), Some(Some(2)));
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert!((s.miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn negative_caching() {
        let mut c = CowCache::new(8);
        c.fill(7, None);
        assert_eq!(c.lookup(7), Some(None), "negative entries hit too");
    }

    #[test]
    fn lru_eviction() {
        let mut c = CowCache::new(2);
        c.fill(1, Some(10));
        c.fill(2, Some(20));
        c.lookup(1); // 2 becomes LRU
        c.fill(3, Some(30));
        assert_eq!(c.len(), 2);
        assert!(c.lookup(2).is_none(), "LRU entry evicted");
        assert_eq!(c.lookup(1), Some(Some(10)));
    }

    #[test]
    fn invalidate_removes() {
        let mut c = CowCache::new(4);
        c.fill(9, Some(1));
        c.invalidate(9);
        assert!(c.lookup(9).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn fill_updates_existing() {
        let mut c = CowCache::new(4);
        c.fill(9, Some(1));
        c.fill(9, Some(2));
        assert_eq!(c.lookup(9), Some(Some(2)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        CowCache::new(0);
    }
}
