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
//! fill or a batched tag update moves the line to the recency head in
//! O(1), and a fill into a full cache evicts the recency tail.

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

    /// Updates one tag within a (resident) MAC line, marking it dirty.
    /// Returns false if the line is not resident.
    pub fn update_tag(&mut self, index: u64, slot: usize, tag: u64) -> bool {
        self.update_tags(index, &[(slot, tag)])
    }

    /// Applies a batch of `(slot, tag)` writes to one (resident) MAC
    /// line in order, marking it dirty, with one move to the recency
    /// head. Exactly equivalent to that many sequential
    /// [`MacCache::update_tag`] calls, each of which would move the
    /// same line to the head again — which is what lets a write
    /// combiner replay its pending updates in one cache access.
    /// Returns false if the line is not resident.
    pub fn update_tags(&mut self, index: u64, updates: &[(usize, u64)]) -> bool {
        match self.lines.get(&index) {
            Some((line, dirty)) => {
                for &(slot, tag) in updates {
                    line[slot] = tag;
                }
                *dirty = true;
                true
            }
            None => false,
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
        assert!(c.update_tag(1, 3, 99));
        assert_eq!(c.get(1).unwrap()[3], 99);
        assert!(!c.update_tag(2, 0, 1), "missing line");
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
    fn batched_updates_match_sequential() {
        // Two caches, one driven tag-by-tag, one by the batch API: the
        // observable state (contents, LRU victims, stats) must match.
        let mut seq = MacCache::new(2);
        let mut bat = MacCache::new(2);
        for c in [&mut seq, &mut bat] {
            c.fill(1, [0; 8], false);
            c.fill(2, [0; 8], false);
        }
        let updates: Vec<(usize, u64)> = (0..8).map(|s| (s, 100 + s as u64)).collect();
        for &(slot, tag) in &updates {
            assert!(seq.update_tag(1, slot, tag));
        }
        assert!(bat.update_tags(1, &updates));
        assert_eq!(seq.get(1), bat.get(1));
        // Line 2 is now LRU in both; the next fill evicts it, not the
        // freshly-updated line 1.
        let vs = seq.fill(3, [3; 8], false);
        let vb = bat.fill(3, [3; 8], false);
        assert_eq!(vs, vb);
        assert!(seq.get(1).is_some() && bat.get(1).is_some());
        assert_eq!(seq.stats(), bat.stats());
        // A non-resident line reports false.
        assert!(!bat.update_tags(99, &[(0, 1)]));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let macs = [0x1122334455667788u64, 1, 2, 3, 4, 5, 6, u64::MAX];
        assert_eq!(decode_mac_line(&encode_mac_line(&macs)), macs);
    }
}
