//! The on-chip counter cache.
//!
//! Table III: 256 KB, 16-way, LRU, 64-byte blocks — 4096 counter
//! blocks. The paper's §V-E compares a battery-backed *write-back*
//! management scheme (default) against *write-through* (every counter
//! update is immediately flushed to NVM); Figure 12 measures the
//! difference. The cache stores decoded [`CounterBlock`]s keyed by
//! region index; the memory controller handles (de)serialization when
//! blocks move to or from NVM.

use crate::counter_block::CounterBlock;

/// Counter-cache write management (paper §V-E, Figure 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePolicy {
    /// Updates complete in the cache; NVM is written on eviction
    /// (battery-backed, the paper's default).
    WriteBack,
    /// Every update is immediately propagated to NVM.
    WriteThrough,
}

/// Counter-cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterCacheConfig {
    /// Capacity in counter blocks (entries).
    pub entries: usize,
    /// Associativity.
    pub ways: usize,
    /// Write management policy.
    pub policy: WritePolicy,
}

impl Default for CounterCacheConfig {
    fn default() -> Self {
        // 256 KB of 64 B blocks, 16-way (Table III).
        Self { entries: 4096, ways: 16, policy: WritePolicy::WriteBack }
    }
}

impl CounterCacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.entries / self.ways
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.ways == 0 || self.entries == 0 {
            return Err("counter cache needs entries and ways".into());
        }
        if !self.entries.is_multiple_of(self.ways) {
            return Err("entries must divide evenly into ways".into());
        }
        if !self.sets().is_power_of_two() {
            return Err("set count must be a power of two".into());
        }
        Ok(())
    }
}

/// Counter-cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterCacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Dirty blocks evicted (write-back NVM traffic).
    pub dirty_evictions: u64,
}

impl CounterCacheStats {
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
    pub fn delta_since(&self, earlier: &CounterCacheStats) -> CounterCacheStats {
        CounterCacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            dirty_evictions: self.dirty_evictions - earlier.dirty_evictions,
        }
    }
}

#[derive(Debug, Clone)]
struct Entry {
    region: u64,
    block: CounterBlock,
    dirty: bool,
    lru: u64,
}

/// A dirty counter block evicted from the cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictedCounter {
    /// Region the block covers.
    pub region: u64,
    /// The block contents to serialize back to NVM.
    pub block: CounterBlock,
}

/// The set-associative counter cache.
///
/// # Examples
///
/// ```
/// use lelantus_metadata::{CounterCache, CounterCacheConfig};
/// use lelantus_metadata::counter_block::CounterBlock;
///
/// let mut cc = CounterCache::new(CounterCacheConfig::default());
/// cc.insert(5, CounterBlock::fresh_regular(1), false);
/// assert!(cc.get(5).is_some());
/// assert!(cc.get(6).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct CounterCache {
    config: CounterCacheConfig,
    sets: Vec<Vec<Entry>>,
    tick: u64,
    stats: CounterCacheStats,
    /// `(set, way)` of the two most recently found entries, most recent
    /// first: a host-side hint checked before the set scan. A hint is
    /// trusted only if the entry it names holds the region asked for,
    /// so one left stale by a removal just misses.
    mru: [(usize, usize); 2],
}

impl CounterCache {
    /// Builds a counter cache from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid.
    pub fn new(config: CounterCacheConfig) -> Self {
        config.validate().expect("invalid counter cache config");
        Self {
            sets: (0..config.sets()).map(|_| Vec::with_capacity(config.ways)).collect(),
            config,
            tick: 0,
            stats: CounterCacheStats::default(),
            mru: [(0, 0); 2],
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> CounterCacheConfig {
        self.config
    }

    /// Accumulated counters.
    pub fn stats(&self) -> CounterCacheStats {
        self.stats
    }

    fn set_of(&self, region: u64) -> usize {
        (region % self.sets.len() as u64) as usize
    }

    /// The resident entry of `region`: the two most recently found
    /// entries first, then a scan of its set. Moves no statistic or
    /// recency; only the hint learns where the entry is.
    #[inline]
    fn find(&mut self, region: u64) -> Option<&mut Entry> {
        let [first, second] = self.mru;
        let at = |(set, way): (usize, usize)| {
            self.sets[set].get(way).is_some_and(|e| e.region == region)
        };
        let hit = if at(first) {
            first
        } else if at(second) {
            self.mru = [second, first];
            second
        } else {
            let hit = self.scan(region)?;
            self.mru = [hit, first];
            hit
        };
        Some(&mut self.sets[hit.0][hit.1])
    }

    /// The `(set, way)` of `region`, by a scan of its set.
    #[inline(never)]
    fn scan(&self, region: u64) -> Option<(usize, usize)> {
        let set = self.set_of(region);
        Some((set, self.sets[set].iter().position(|e| e.region == region)?))
    }

    /// Looks up the counter block for `region`, updating LRU and
    /// hit/miss statistics.
    #[inline]
    pub fn get(&mut self, region: u64) -> Option<CounterBlock> {
        self.tick += 1;
        let tick = self.tick;
        if let Some(e) = self.find(region) {
            e.lru = tick;
            let block = e.block;
            self.stats.hits += 1;
            Some(block)
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// The counter block for `region` if resident, without disturbing
    /// statistics or LRU.
    pub fn peek(&self, region: u64) -> Option<CounterBlock> {
        self.sets[self.set_of(region)].iter().find(|e| e.region == region).map(|e| e.block)
    }

    /// Updates a resident block in place, marking it dirty. Returns
    /// false if the block is not resident.
    #[inline]
    pub fn update(&mut self, region: u64, block: CounterBlock) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let Some(e) = self.find(region) else { return false };
        e.block = block;
        e.dirty = true;
        e.lru = tick;
        true
    }

    /// Marks a resident block clean (after a write-through or an
    /// explicit flush reached NVM).
    pub fn mark_clean(&mut self, region: u64) {
        if let Some(e) = self.find(region) {
            e.dirty = false;
        }
    }

    /// Inserts a block (on fill), evicting the LRU entry of the set if
    /// full; a dirty victim is returned for write-back.
    pub fn insert(
        &mut self,
        region: u64,
        block: CounterBlock,
        dirty: bool,
    ) -> Option<EvictedCounter> {
        self.tick += 1;
        let tick = self.tick;
        if let Some(e) = self.find(region) {
            e.block = block;
            e.dirty = e.dirty || dirty;
            e.lru = tick;
            return None;
        }
        let set = self.set_of(region);
        let victim = if self.sets[set].len() >= self.config.ways {
            let (idx, _) =
                self.sets[set].iter().enumerate().min_by_key(|(_, e)| e.lru).expect("full set");
            let v = self.sets[set].swap_remove(idx);
            if v.dirty {
                self.stats.dirty_evictions += 1;
                Some(EvictedCounter { region: v.region, block: v.block })
            } else {
                None
            }
        } else {
            None
        };
        self.sets[set].push(Entry { region, block, dirty, lru: tick });
        self.mru = [(set, self.sets[set].len() - 1), self.mru[0]];
        victim
    }

    /// Removes `region` from the cache, returning its block and dirty
    /// bit if it was resident.
    pub fn evict(&mut self, region: u64) -> Option<(CounterBlock, bool)> {
        let set = self.set_of(region);
        let idx = self.sets[set].iter().position(|e| e.region == region)?;
        let e = self.sets[set].swap_remove(idx);
        Some((e.block, e.dirty))
    }

    /// Drains every dirty block (end-of-simulation flush).
    pub fn drain_dirty(&mut self) -> Vec<EvictedCounter> {
        let mut out = Vec::new();
        for set in &mut self.sets {
            for e in set {
                if e.dirty {
                    e.dirty = false;
                    out.push(EvictedCounter { region: e.region, block: e.block });
                }
            }
        }
        out
    }

    /// Number of resident blocks.
    pub fn resident(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter_block::CounterBlock;

    fn tiny() -> CounterCache {
        CounterCache::new(CounterCacheConfig {
            entries: 4,
            ways: 2,
            policy: WritePolicy::WriteBack,
        })
    }

    #[test]
    fn default_config_matches_table3() {
        let c = CounterCacheConfig::default();
        assert_eq!(c.entries, 4096);
        assert_eq!(c.ways, 16);
        assert_eq!(c.sets(), 256);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn get_miss_then_hit() {
        let mut cc = tiny();
        assert!(cc.get(0).is_none());
        cc.insert(0, CounterBlock::fresh_regular(1), false);
        assert!(cc.get(0).is_some());
        let s = cc.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
        assert!((s.miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn update_dirties_and_eviction_returns_dirty() {
        let mut cc = tiny();
        // Regions 0 and 2 map to set 0 (2 sets).
        cc.insert(0, CounterBlock::fresh_regular(1), false);
        assert!(cc.update(0, CounterBlock::fresh_regular(2)));
        cc.insert(2, CounterBlock::fresh_regular(1), false);
        let v = cc.insert(4, CounterBlock::fresh_regular(1), false);
        let v = v.expect("dirty LRU victim");
        assert_eq!(v.region, 0);
        assert_eq!(v.block.minors[0], 2);
        assert_eq!(cc.stats().dirty_evictions, 1);
    }

    #[test]
    fn clean_evictions_are_silent() {
        let mut cc = tiny();
        cc.insert(0, CounterBlock::fresh_regular(1), false);
        cc.insert(2, CounterBlock::fresh_regular(1), false);
        assert!(cc.insert(4, CounterBlock::fresh_regular(1), false).is_none());
    }

    #[test]
    fn update_missing_returns_false() {
        let mut cc = tiny();
        assert!(!cc.update(9, CounterBlock::fresh_regular(1)));
    }

    #[test]
    fn mark_clean_prevents_writeback() {
        let mut cc = tiny();
        cc.insert(0, CounterBlock::fresh_regular(1), true);
        cc.mark_clean(0);
        assert!(cc.drain_dirty().is_empty());
    }

    #[test]
    fn drain_dirty_reports_all() {
        let mut cc = tiny();
        cc.insert(0, CounterBlock::fresh_regular(1), true);
        cc.insert(1, CounterBlock::fresh_regular(1), true);
        cc.insert(2, CounterBlock::fresh_regular(1), false);
        assert_eq!(cc.drain_dirty().len(), 2);
        assert!(cc.drain_dirty().is_empty());
    }

    #[test]
    fn evict_removes() {
        let mut cc = tiny();
        cc.insert(3, CounterBlock::fresh_cow(7), true);
        let (block, dirty) = cc.evict(3).unwrap();
        assert!(dirty);
        assert_eq!(block.cow_source(), Some(7));
        assert!(cc.peek(3).is_none());
        assert_eq!(cc.resident(), 0);
    }

    /// The cache as a plain scan of each set, with the same tick,
    /// statistic and victim rules and no hint.
    struct ScanModel {
        ways: usize,
        sets: Vec<Vec<Entry>>,
        tick: u64,
        stats: CounterCacheStats,
    }

    impl ScanModel {
        fn new(config: CounterCacheConfig) -> Self {
            let sets = (0..config.sets()).map(|_| Vec::new()).collect();
            Self { ways: config.ways, sets, tick: 0, stats: CounterCacheStats::default() }
        }

        fn entry(&mut self, region: u64) -> Option<&mut Entry> {
            let set = (region % self.sets.len() as u64) as usize;
            self.sets[set].iter_mut().find(|e| e.region == region)
        }

        fn get(&mut self, region: u64) -> Option<CounterBlock> {
            self.tick += 1;
            let tick = self.tick;
            let found = self.entry(region).map(|e| {
                e.lru = tick;
                e.block
            });
            match found {
                Some(_) => self.stats.hits += 1,
                None => self.stats.misses += 1,
            }
            found
        }

        fn update(&mut self, region: u64, block: CounterBlock) -> bool {
            self.tick += 1;
            let tick = self.tick;
            self.entry(region).map(|e| (e.block, e.dirty, e.lru) = (block, true, tick)).is_some()
        }

        fn insert(&mut self, region: u64, block: CounterBlock, dirty: bool) -> Option<u64> {
            self.tick += 1;
            let tick = self.tick;
            if let Some(e) = self.entry(region) {
                (e.block, e.dirty, e.lru) = (block, e.dirty || dirty, tick);
                return None;
            }
            let set = (region % self.sets.len() as u64) as usize;
            let mut victim = None;
            if self.sets[set].len() >= self.ways {
                let idx = (0..self.sets[set].len()).min_by_key(|&i| self.sets[set][i].lru).unwrap();
                let v = self.sets[set].swap_remove(idx);
                if v.dirty {
                    self.stats.dirty_evictions += 1;
                    victim = Some(v.region);
                }
            }
            self.sets[set].push(Entry { region, block, dirty, lru: tick });
            victim
        }

        fn evict(&mut self, region: u64) -> Option<(CounterBlock, bool)> {
            let set = (region % self.sets.len() as u64) as usize;
            let idx = self.sets[set].iter().position(|e| e.region == region)?;
            let e = self.sets[set].swap_remove(idx);
            Some((e.block, e.dirty))
        }
    }

    #[test]
    fn op_soup_matches_the_scan_model() {
        // Two sets of four ways over twelve regions: fills evict and
        // `swap_remove` reorders ways all the time, so a stale hint
        // would serve the wrong region's block here first. Half the
        // lookups repeat one of the last two regions, which the hint
        // serves.
        let config = CounterCacheConfig { entries: 8, ways: 4, policy: WritePolicy::WriteBack };
        let mut cc = CounterCache::new(config);
        let mut model = ScanModel::new(config);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let mut recent = [0u64; 2];
        for step in 0..50_000u64 {
            let region = if next(2) == 0 { recent[next(2) as usize] } else { next(12) };
            recent = [region, recent[0]];
            let mut block = CounterBlock::fresh_regular(1);
            block.major = step;
            match next(8) {
                0..=2 => assert_eq!(cc.get(region), model.get(region), "get {step}"),
                3 => assert_eq!(
                    cc.update(region, block),
                    model.update(region, block),
                    "update {step}"
                ),
                4 => {
                    cc.mark_clean(region);
                    if let Some(e) = model.entry(region) {
                        e.dirty = false;
                    }
                }
                5 | 6 => {
                    let dirty = next(2) == 0;
                    let got = cc.insert(region, block, dirty).map(|v| v.region);
                    assert_eq!(got, model.insert(region, block, dirty), "insert {step}");
                }
                _ => assert_eq!(cc.evict(region), model.evict(region), "evict {step}"),
            }
            assert_eq!(cc.peek(region), model.entry(region).map(|e| e.block), "peek {step}");
            assert_eq!(cc.stats(), model.stats, "stats {step}");
        }
        let mut want: Vec<u64> =
            model.sets.iter().flatten().filter(|e| e.dirty).map(|e| e.region).collect();
        let mut got: Vec<u64> = cc.drain_dirty().iter().map(|v| v.region).collect();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(CounterCacheConfig { entries: 0, ways: 1, policy: WritePolicy::WriteBack }
            .validate()
            .is_err());
        assert!(CounterCacheConfig { entries: 10, ways: 4, policy: WritePolicy::WriteBack }
            .validate()
            .is_err());
        assert!(CounterCacheConfig { entries: 24, ways: 8, policy: WritePolicy::WriteBack }
            .validate()
            .is_err());
    }
}
