//! Solution 2's supplementary CoW metadata (paper §III-B, Figure 5).
//!
//! Lelantus-CoW keeps the classic 7-bit minor counters and stores each
//! region's source-page address in a separate 8-byte slot in NVM
//! (0.02 % space). A minor counter of zero still marks an uncopied
//! line; resolving it requires the source address, fetched through a
//! small dedicated **CoW cache** carved out of counter-cache capacity
//! (the paper reserves 32 KB of the 256 KB counter cache; each 64 B
//! slot hosts eight 8 B mappings). Figure 10b reports this cache's
//! miss rate.
//!
//! [`CowMetaTable`] is the *functional* table (what NVM holds);
//! [`CowCache`] is the on-chip cache in front of it. The memory
//! controller charges NVM traffic for table reads/writes that miss the
//! cache. Both are keyed by region numbers the simulator computes, so
//! they hash with the cheap [`lelantus_types::hash::IndexHasher`]; the
//! cache is a [`LruMap`], so a lookup, fill or eviction is O(1).

use lelantus_types::hash::{BuildIndexHasher, IndexMap};
use lelantus_types::lru::LruMap;

/// The in-NVM mapping `region → source region` for CoW pages.
///
/// A slot value of 0 means "no mapping"; stored values are
/// `source_region + 1`. The table is sparse in the simulator but its
/// NVM placement (and hence traffic) is governed by
/// [`crate::MetadataLayout`].
///
/// # Examples
///
/// ```
/// use lelantus_metadata::CowMetaTable;
///
/// let mut table = CowMetaTable::new();
/// table.set(10, Some(3));
/// assert_eq!(table.get(10), Some(3));
/// table.set(10, None);
/// assert_eq!(table.get(10), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CowMetaTable {
    slots: IndexMap<u64, u64>,
}

impl CowMetaTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Source region recorded for `region`, if any.
    pub fn get(&self, region: u64) -> Option<u64> {
        self.slots.get(&region).copied()
    }

    /// Sets or clears the mapping of `region`.
    pub fn set(&mut self, region: u64, src: Option<u64>) {
        match src {
            Some(s) => {
                self.slots.insert(region, s);
            }
            None => {
                self.slots.remove(&region);
            }
        }
    }

    /// Number of live mappings.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no mappings exist.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Serializes the 8-byte slot value for `region` (wire format used
    /// when the slot's NVM line is written).
    pub fn slot_bytes(&self, region: u64) -> [u8; 8] {
        match self.get(region) {
            Some(src) => (src + 1).to_le_bytes(),
            None => [0; 8],
        }
    }

    /// Decodes an 8-byte slot value.
    pub fn decode_slot(bytes: [u8; 8]) -> Option<u64> {
        let v = u64::from_le_bytes(bytes);
        if v == 0 {
            None
        } else {
            Some(v - 1)
        }
    }
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

    /// The paper's default: 32 KB of the counter cache, 8 B per entry.
    pub fn paper_default() -> Self {
        Self::new(4096)
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
    fn table_roundtrip_and_slot_encoding() {
        let mut t = CowMetaTable::new();
        t.set(1, Some(0));
        assert_eq!(t.get(1), Some(0));
        assert_eq!(t.slot_bytes(1), 1u64.to_le_bytes());
        assert_eq!(CowMetaTable::decode_slot(t.slot_bytes(1)), Some(0));
        assert_eq!(CowMetaTable::decode_slot(t.slot_bytes(2)), None);
        t.set(1, None);
        assert!(t.is_empty());
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
