//! A generic set-associative, LRU, write-back cache of 64-byte lines.

use crate::config::CacheConfig;
use crate::stats::CacheStats;
use lelantus_types::{PhysAddr, LINE_BYTES};

/// A line evicted to make room for an insertion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evicted {
    /// Line-aligned address of the victim.
    pub addr: PhysAddr,
    /// The victim's data.
    pub data: [u8; LINE_BYTES],
    /// Whether the victim held unwritten-back modifications.
    pub dirty: bool,
}

#[derive(Debug, Clone)]
struct Way {
    tag: u64,
    data: [u8; LINE_BYTES],
    dirty: bool,
    lru_tick: u64,
}

/// One level of set-associative cache.
///
/// Stores real line contents so that dirty evictions can carry data to
/// the next level; replacement is strict LRU within a set.
///
/// # Examples
///
/// ```
/// use lelantus_cache::{CacheConfig, SetAssocCache};
/// use lelantus_types::PhysAddr;
///
/// let mut c = SetAssocCache::new(CacheConfig { size_bytes: 1024, ways: 2, latency: 1 });
/// assert!(c.lookup(PhysAddr::new(0x40)).is_none());
/// c.insert(PhysAddr::new(0x40), [5; 64], false);
/// assert_eq!(c.lookup(PhysAddr::new(0x40)).unwrap()[0], 5);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    config: CacheConfig,
    sets: Vec<Vec<Way>>,
    set_mask: u64,
    tick: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Builds a cache with `config` geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (see [`CacheConfig::validate`]).
    pub fn new(config: CacheConfig) -> Self {
        config.validate().expect("invalid cache geometry");
        let sets = config.sets();
        Self {
            config,
            sets: (0..sets).map(|_| Vec::with_capacity(config.ways)).collect(),
            set_mask: sets as u64 - 1,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accumulated counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn set_and_tag(&self, addr: PhysAddr) -> (usize, u64) {
        let line = addr.line_align().as_u64() / LINE_BYTES as u64;
        ((line & self.set_mask) as usize, line >> self.set_mask.count_ones())
    }

    /// Looks up the line containing `addr`; updates LRU and hit/miss
    /// counters. Returns the line contents on a hit.
    pub fn lookup(&mut self, addr: PhysAddr) -> Option<[u8; LINE_BYTES]> {
        let (set, tag) = self.set_and_tag(addr);
        self.tick += 1;
        let tick = self.tick;
        if let Some(way) = self.sets[set].iter_mut().find(|w| w.tag == tag) {
            way.lru_tick = tick;
            self.stats.hits += 1;
            Some(way.data)
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// Checks for presence without disturbing LRU or counters.
    pub fn probe(&self, addr: PhysAddr) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.sets[set].iter().any(|w| w.tag == tag)
    }

    /// Overwrites (part of) a cached line, marking it dirty. Returns
    /// false if the line is not resident.
    ///
    /// # Panics
    ///
    /// Panics if the byte range crosses the line boundary.
    pub fn write_hit(&mut self, addr: PhysAddr, bytes: &[u8]) -> bool {
        let offset = addr.line_offset();
        assert!(offset + bytes.len() <= LINE_BYTES, "write crosses line boundary");
        let (set, tag) = self.set_and_tag(addr);
        self.tick += 1;
        let tick = self.tick;
        if let Some(way) = self.sets[set].iter_mut().find(|w| w.tag == tag) {
            way.data[offset..offset + bytes.len()].copy_from_slice(bytes);
            way.dirty = true;
            way.lru_tick = tick;
            true
        } else {
            false
        }
    }

    /// Inserts a line (e.g. on fill), evicting the LRU way if the set
    /// is full. The victim, if any, is returned so the caller can
    /// propagate dirty data downward.
    pub fn insert(
        &mut self,
        addr: PhysAddr,
        data: [u8; LINE_BYTES],
        dirty: bool,
    ) -> Option<Evicted> {
        let (set, tag) = self.set_and_tag(addr);
        self.tick += 1;
        let tick = self.tick;
        // Refill of a resident line replaces its contents.
        if let Some(way) = self.sets[set].iter_mut().find(|w| w.tag == tag) {
            way.data = data;
            way.dirty = way.dirty || dirty;
            way.lru_tick = tick;
            return None;
        }
        let victim = if self.sets[set].len() >= self.config.ways {
            let (idx, _) = self.sets[set]
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.lru_tick)
                .expect("set is full, victim exists");
            let w = self.sets[set].swap_remove(idx);
            if w.dirty {
                self.stats.dirty_evictions += 1;
            }
            Some(Evicted { addr: self.reconstruct_addr(set, w.tag), data: w.data, dirty: w.dirty })
        } else {
            None
        };
        self.sets[set].push(Way { tag, data, dirty, lru_tick: tick });
        victim
    }

    fn reconstruct_addr(&self, set: usize, tag: u64) -> PhysAddr {
        let line = (tag << self.set_mask.count_ones()) | set as u64;
        PhysAddr::new(line * LINE_BYTES as u64)
    }

    /// Overwrites the data of the resident line containing `addr`
    /// without changing its recency, dirtiness or any counter — keeps
    /// an older copy equal to data written back from a level above.
    /// Returns false if the line is not resident.
    pub fn refresh(&mut self, addr: PhysAddr, data: &[u8; LINE_BYTES]) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        match self.sets[set].iter_mut().find(|w| w.tag == tag) {
            Some(way) => {
                way.data = *data;
                true
            }
            None => false,
        }
    }

    /// Removes the line containing `addr` without writing it back,
    /// returning it (dirty data is *discarded* by the caller's choice).
    pub fn invalidate(&mut self, addr: PhysAddr) -> Option<Evicted> {
        let (set, tag) = self.set_and_tag(addr);
        let idx = self.sets[set].iter().position(|w| w.tag == tag)?;
        let w = self.sets[set].swap_remove(idx);
        self.stats.invalidations += 1;
        Some(Evicted { addr: self.reconstruct_addr(set, w.tag), data: w.data, dirty: w.dirty })
    }

    /// Writes back the line containing `addr` if dirty (clearing the
    /// dirty bit, keeping the line resident). Returns the data that
    /// must be written downstream.
    pub fn clean(&mut self, addr: PhysAddr) -> Option<[u8; LINE_BYTES]> {
        let (set, tag) = self.set_and_tag(addr);
        let way = self.sets[set].iter_mut().find(|w| w.tag == tag)?;
        if way.dirty {
            way.dirty = false;
            self.stats.flush_writebacks += 1;
            Some(way.data)
        } else {
            None
        }
    }

    /// Clears and returns the dirty bit of a resident line without
    /// counting it as a flush write-back — used when dirty ownership
    /// migrates to a higher cache level rather than to memory.
    pub fn take_dirty(&mut self, addr: PhysAddr) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        match self.sets[set].iter_mut().find(|w| w.tag == tag) {
            Some(way) => std::mem::take(&mut way.dirty),
            None => false,
        }
    }

    /// Number of resident lines (for occupancy assertions).
    pub fn resident_lines(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Drops every line without writing back (power loss).
    pub fn clear(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }

    /// Iterates over all resident dirty lines (used by whole-cache
    /// flushes at simulation end).
    pub fn drain_dirty(&mut self) -> Vec<(PhysAddr, [u8; LINE_BYTES])> {
        let set_bits = self.set_mask.count_ones();
        let mut out = Vec::new();
        for (set, ways) in self.sets.iter_mut().enumerate() {
            for way in ways {
                if way.dirty {
                    way.dirty = false;
                    let line = (way.tag << set_bits) | set as u64;
                    out.push((PhysAddr::new(line * LINE_BYTES as u64), way.data));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache {
        // 2 sets x 2 ways.
        SetAssocCache::new(CacheConfig { size_bytes: 4 * LINE_BYTES, ways: 2, latency: 1 })
    }

    fn line(n: u64) -> PhysAddr {
        PhysAddr::new(n * LINE_BYTES as u64)
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let mut c = small();
        c.insert(line(0), [1; 64], false);
        assert_eq!(c.lookup(line(0)), Some([1; 64]));
        assert_eq!(c.lookup(line(1)), None);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Lines 0, 2, 4 map to set 0 (even line numbers).
        c.insert(line(0), [0; 64], false);
        c.insert(line(2), [2; 64], false);
        c.lookup(line(0)); // make line 0 MRU
        let evicted = c.insert(line(4), [4; 64], false).expect("set full");
        assert_eq!(evicted.addr, line(2), "LRU way evicted");
        assert!(c.probe(line(0)));
        assert!(c.probe(line(4)));
    }

    #[test]
    fn dirty_eviction_reports_data() {
        let mut c = small();
        c.insert(line(0), [7; 64], true);
        c.insert(line(2), [2; 64], false);
        let e = c.insert(line(4), [4; 64], false).unwrap();
        assert_eq!(e.addr, line(0));
        assert!(e.dirty);
        assert_eq!(e.data, [7; 64]);
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn write_hit_updates_bytes_and_dirties() {
        let mut c = small();
        c.insert(line(0), [0; 64], false);
        assert!(c.write_hit(PhysAddr::new(4), &[9, 9]));
        let data = c.lookup(line(0)).unwrap();
        assert_eq!(&data[4..6], &[9, 9]);
        assert_eq!(&data[..4], &[0; 4]);
        // line(0)'s last touch was the write_hit; line(2)'s insert is
        // newer, so filling the set evicts dirty line(0) first — and
        // its eviction must carry the written bytes.
        c.insert(line(2), [0; 64], false);
        let e = c.insert(line(4), [0; 64], false).unwrap();
        assert_eq!(e.addr, line(0));
        assert!(e.dirty, "write_hit dirt must surface on eviction");
        assert_eq!(&e.data[4..6], &[9, 9]);
    }

    #[test]
    #[should_panic(expected = "crosses line boundary")]
    fn cross_line_write_panics() {
        let mut c = small();
        c.insert(line(0), [0; 64], false);
        c.write_hit(PhysAddr::new(60), &[0; 8]);
    }

    #[test]
    fn invalidate_removes_without_stats_writeback() {
        let mut c = small();
        c.insert(line(0), [3; 64], true);
        let e = c.invalidate(line(0)).unwrap();
        assert!(e.dirty);
        assert!(!c.probe(line(0)));
        assert_eq!(c.stats().invalidations, 1);
        assert!(c.invalidate(line(0)).is_none());
    }

    #[test]
    fn clean_clears_dirty_keeps_resident() {
        let mut c = small();
        c.insert(line(0), [3; 64], true);
        assert_eq!(c.clean(line(0)), Some([3; 64]));
        assert!(c.probe(line(0)));
        assert_eq!(c.clean(line(0)), None, "already clean");
        assert_eq!(c.stats().flush_writebacks, 1);
    }

    #[test]
    fn refill_merges_dirty_bit() {
        let mut c = small();
        c.insert(line(0), [1; 64], true);
        // A clean refill of a dirty resident line keeps the dirty bit
        // (the modification still has to reach memory eventually).
        assert!(c.insert(line(0), [2; 64], false).is_none());
        c.insert(line(2), [0; 64], false);
        let evicted = c.insert(line(4), [0; 64], false).expect("set overflows");
        assert_eq!(evicted.addr, line(0), "line 0 is LRU after line 2's insert");
        assert!(evicted.dirty, "dirty bit survived the clean refill");
        assert_eq!(evicted.data, [2; 64], "refilled data is what gets written back");
    }

    #[test]
    fn refresh_changes_data_only() {
        let mut c = small();
        c.insert(line(0), [1; 64], false);
        c.insert(line(4), [2; 64], false);
        let before = c.stats();
        assert!(c.refresh(line(0), &[9; 64]));
        assert!(!c.refresh(line(8), &[9; 64]), "not resident");
        assert_eq!(c.stats(), before, "no counter moves");
        assert!(c.drain_dirty().is_empty(), "refresh does not dirty");
        // Line 0 is still the LRU way of its set.
        let v = c.insert(line(8), [3; 64], false).expect("set full");
        assert_eq!((v.addr, v.data), (line(0), [9; 64]));
    }

    #[test]
    fn drain_dirty_cleans_everything() {
        let mut c = small();
        c.insert(line(0), [1; 64], true);
        c.insert(line(1), [2; 64], true);
        c.insert(line(2), [3; 64], false);
        let drained = c.drain_dirty();
        assert_eq!(drained.len(), 2);
        assert!(c.drain_dirty().is_empty());
        assert_eq!(c.resident_lines(), 3);
    }

    #[test]
    fn address_reconstruction() {
        let mut c = small();
        let addr = PhysAddr::new(0x1234_5640);
        c.insert(addr, [5; 64], true);
        let drained = c.drain_dirty();
        assert_eq!(drained[0].0, addr.line_align());
    }
}
