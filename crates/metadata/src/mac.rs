//! Per-line data MACs.
//!
//! The paper's substrate (Rogers et al.'s Bonsai Merkle Tree design,
//! its reference [29]) protects *counters* with the Merkle tree and
//! *data* with per-line MACs bound to the counter value — replaying a
//! data line then requires forging a MAC, and replaying a counter is
//! caught by the tree. This module provides the on-chip cache for
//! those MACs; the 8-byte tags themselves live in NVM (eight per
//! 64-byte metadata line, placed by [`crate::MetadataLayout`]) and the
//! memory controller computes them with its keyed hash.
//!
//! The cache is fully associative and LRU. It is a
//! [`lelantus_types::lru::LruMap`] keyed by MAC-line index: a hit, a
//! fill or a [`MacCache::mark_dirty`] moves the line to the recency
//! head in O(1), and a fill into a full cache evicts the recency tail.
//!
//! Writing a tag is two steps, so the controller can compute tags in
//! batches: [`MacCache::mark_dirty`] is the cache access a tag write
//! makes (recency move, dirty bit), and [`MacCache::tags_mut`] later
//! stores the computed tag without touching recency.

use lelantus_types::hash::BuildIndexHasher;
use lelantus_types::lru::LruMap;

/// Number of 8-byte MACs per 64-byte metadata line.
pub const MACS_PER_LINE: usize = 8;

/// Statistics for the MAC cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MacCacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed (NVM MAC-line fetch).
    pub misses: u64,
    /// Dirty MAC lines written back.
    pub writebacks: u64,
}

impl MacCacheStats {
    /// Miss rate in [0, 1].
    pub fn miss_rate(&self) -> f64 {
        let t = self.hits + self.misses;
        if t == 0 {
            0.0
        } else {
            self.misses as f64 / t as f64
        }
    }
}

/// One cached MAC line: eight tags covering eight consecutive data
/// lines. A tag of 0 means "never written" (fresh NVM; no MAC to
/// check).
pub type MacLine = [u64; MACS_PER_LINE];

/// A dirty MAC line evicted from the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedMacLine {
    /// Index of the MAC line within the MAC area.
    pub index: u64,
    /// The tags to serialize back to NVM.
    pub macs: MacLine,
}

/// Fully-associative LRU cache of MAC lines.
///
/// # Examples
///
/// ```
/// use lelantus_metadata::mac::MacCache;
///
/// let mut cache = MacCache::new(128);
/// assert!(cache.get(7).is_none());
/// cache.fill(7, [1, 2, 3, 4, 5, 6, 7, 8], false);
/// assert_eq!(cache.get(7).unwrap()[2], 3);
/// ```
#[derive(Debug, Clone)]
pub struct MacCache {
    /// Line index -> (tags, dirty), in recency order.
    lines: LruMap<u64, (MacLine, bool), BuildIndexHasher>,
    capacity: usize,
    stats: MacCacheStats,
}

impl MacCache {
    /// Creates a cache holding `capacity` MAC lines.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MAC cache needs capacity");
        Self { lines: LruMap::default(), capacity, stats: MacCacheStats::default() }
    }

    /// Accumulated counters.
    pub fn stats(&self) -> MacCacheStats {
        self.stats
    }

    /// Looks up MAC line `index`, updating LRU and hit/miss counters.
    pub fn get(&mut self, index: u64) -> Option<MacLine> {
        match self.lines.get(&index) {
            Some(&mut (line, _)) => {
                self.stats.hits += 1;
                Some(line)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts a MAC line (fill after an NVM read, or a fresh update).
    /// Returns a dirty victim that must be written back.
    pub fn fill(&mut self, index: u64, macs: MacLine, dirty: bool) -> Option<EvictedMacLine> {
        if let Some(e) = self.lines.get(&index) {
            e.0 = macs;
            e.1 |= dirty;
            return None;
        }
        let mut victim = None;
        if self.lines.len() >= self.capacity {
            if let Some((k, (line, was_dirty))) = self.lines.pop_lru() {
                if was_dirty {
                    self.stats.writebacks += 1;
                    victim = Some(EvictedMacLine { index: k, macs: line });
                }
            }
        }
        self.lines.insert(index, (macs, dirty));
        victim
    }

    /// The cache access of a tag write: moves resident line `index` to
    /// the recency head and marks it dirty. Returns false (and changes
    /// nothing) if the line is not resident.
    pub fn mark_dirty(&mut self, index: u64) -> bool {
        match self.lines.get(&index) {
            Some((_, dirty)) => {
                *dirty = true;
                true
            }
            None => false,
        }
    }

    /// The tags of resident line `index`, for storing tags written by an
    /// earlier [`MacCache::mark_dirty`]: no change to recency,
    /// dirtiness or counters.
    pub fn tags_mut(&mut self, index: u64) -> Option<&mut MacLine> {
        self.lines.peek_mut(&index).map(|(line, _)| line)
    }

    /// The line a fill of a non-resident line would evict now: the
    /// least recently used one when the cache is full.
    pub fn victim(&self) -> Option<u64> {
        if self.lines.len() >= self.capacity {
            self.lines.lru_key()
        } else {
            None
        }
    }

    /// Drains every dirty MAC line (flush / crash).
    pub fn drain_dirty(&mut self) -> Vec<EvictedMacLine> {
        let mut out = Vec::new();
        self.lines.for_each_mut(|&index, (macs, dirty)| {
            if *dirty {
                *dirty = false;
                out.push(EvictedMacLine { index, macs: *macs });
            }
        });
        out.sort_by_key(|e| e.index);
        out
    }

    /// Drops all entries (power loss — MACs persist in NVM).
    pub fn clear(&mut self) {
        self.lines.clear();
    }

    /// Number of resident MAC lines.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }
}

/// Serializes a MAC line to its 64-byte NVM representation.
pub fn encode_mac_line(macs: &MacLine) -> [u8; 64] {
    let mut out = [0u8; 64];
    for (i, mac) in macs.iter().enumerate() {
        out[i * 8..(i + 1) * 8].copy_from_slice(&mac.to_le_bytes());
    }
    out
}

/// Deserializes a MAC line from its 64-byte NVM representation.
pub fn decode_mac_line(bytes: &[u8; 64]) -> MacLine {
    let mut out = [0u64; MACS_PER_LINE];
    for (i, mac) in out.iter_mut().enumerate() {
        *mac = u64::from_le_bytes(bytes[i * 8..(i + 1) * 8].try_into().expect("8 bytes"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_get_update() {
        let mut c = MacCache::new(4);
        assert!(c.get(1).is_none());
        c.fill(1, [10; 8], false);
        assert_eq!(c.get(1), Some([10; 8]));
        assert!(c.mark_dirty(1));
        c.tags_mut(1).expect("resident")[3] = 99;
        assert_eq!(c.get(1).unwrap()[3], 99);
        assert!(!c.mark_dirty(2), "missing line");
        assert!(c.tags_mut(2).is_none(), "missing line");
        let s = c.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn dirty_eviction() {
        let mut c = MacCache::new(2);
        c.fill(1, [1; 8], true);
        c.fill(2, [2; 8], false);
        c.get(2); // 1 becomes LRU
        let v = c.fill(3, [3; 8], false).expect("dirty victim");
        assert_eq!(v.index, 1);
        assert_eq!(v.macs, [1; 8]);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_is_silent() {
        let mut c = MacCache::new(1);
        c.fill(1, [1; 8], false);
        assert!(c.fill(2, [2; 8], false).is_none());
    }

    #[test]
    fn drain_and_clear() {
        let mut c = MacCache::new(4);
        c.fill(1, [1; 8], true);
        c.fill(2, [2; 8], true);
        c.fill(3, [3; 8], false);
        let drained = c.drain_dirty();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].index, 1);
        assert!(c.drain_dirty().is_empty());
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn tags_mut_leaves_recency_and_dirtiness_alone() {
        let mut c = MacCache::new(2);
        c.fill(1, [0; 8], false);
        c.fill(2, [0; 8], false);
        assert_eq!(c.victim(), Some(1));
        // Patching the LRU line neither promotes nor dirties it: the
        // next fill still evicts it, silently.
        c.tags_mut(1).expect("resident")[0] = 5;
        assert_eq!(c.victim(), Some(1));
        assert_eq!(c.fill(3, [3; 8], false), None);
        // A tag write is mark_dirty (promote + dirty), then the store.
        assert!(c.mark_dirty(2));
        c.tags_mut(2).expect("resident")[7] = 9;
        c.fill(4, [4; 8], false);
        let v = c.fill(5, [5; 8], false).expect("dirty victim");
        assert_eq!(v.index, 2);
        assert_eq!(v.macs[7], 9);
        assert_eq!(c.stats().hits + c.stats().misses, 0, "neither counts as a lookup");
        assert_eq!(MacCache::new(4).victim(), None, "no victim below capacity");
    }

    #[test]
    fn encode_decode_roundtrip() {
        let macs = [0x1122334455667788u64, 1, 2, 3, 4, 5, 6, u64::MAX];
        assert_eq!(decode_mac_line(&encode_mac_line(&macs)), macs);
    }
}
