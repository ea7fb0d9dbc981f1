//! One level of a set-associative, LRU, write-back cache of 64-byte
//! lines: tags only.
//!
//! A level keeps tags, exact LRU order, dirty bits and, per way, the
//! index of the line's data slot. The bytes live once, in the
//! hierarchy's shared slab (see [`crate::CacheHierarchy`]); every level
//! holding a line points at the same slot.

use crate::config::CacheConfig;
use crate::stats::CacheStats;
use lelantus_types::{PhysAddr, LINE_BYTES};

/// Most ways a set can hold: one set's tags and slots fill one 64-byte
/// block.
pub const MAX_WAYS: usize = 8;

/// A line removed from a level: an insertion's victim or an
/// invalidated line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Line-aligned address of the line.
    pub addr: PhysAddr,
    /// The line's data slot.
    pub slot: u32,
    /// Whether the line held unwritten-back modifications.
    pub dirty: bool,
}

/// What [`SetAssocCache::insert`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Insert {
    /// The line was already resident, in the same slot: its dirty bit
    /// was merged and it became the most recently used way.
    Refilled,
    /// The line took a way, evicting the set's least recently used line
    /// (`Some`) if the set was full.
    Placed(Option<Evicted>),
}

/// One set's tags and data slots, ways `0..len` valid.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, align(64))]
struct Ways {
    tags: [u32; MAX_WAYS],
    slots: [u32; MAX_WAYS],
}

/// One set's recency and dirtiness.
#[derive(Debug, Clone, Copy, Default)]
struct Order {
    /// LRU rank of each valid way: 0 is the most recently used, `len - 1`
    /// the victim. Ranks of the valid ways are a permutation of `0..len`.
    /// Rank updates run over all lanes, so the lanes past `len` hold
    /// values no lookup reads.
    rank: [u8; MAX_WAYS],
    /// Bit `i` set: way `i` is dirty. Bits at and above `len` are clear.
    dirty: u8,
    /// Number of valid ways.
    len: u8,
}

/// One level of set-associative cache.
///
/// Replacement is strict LRU within a set. Ways are kept in the order a
/// `Vec` would hold them under `swap_remove` and `push`, so
/// [`SetAssocCache::drain_dirty`] reports lines in a fixed order.
///
/// # Examples
///
/// ```
/// use lelantus_cache::set_assoc::Insert;
/// use lelantus_cache::{CacheConfig, SetAssocCache};
/// use lelantus_types::PhysAddr;
///
/// let mut c = SetAssocCache::new(CacheConfig { size_bytes: 1024, ways: 2, latency: 1 });
/// assert!(c.lookup(PhysAddr::new(0x40)).is_none());
/// assert_eq!(c.insert(PhysAddr::new(0x40), 5, false), Insert::Placed(None));
/// assert_eq!(c.lookup(PhysAddr::new(0x40)), Some(5));
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    config: CacheConfig,
    ways: Vec<Ways>,
    order: Vec<Order>,
    set_bits: u32,
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
            ways: vec![Ways::default(); sets],
            order: vec![Order::default(); sets],
            set_bits: sets.trailing_zeros(),
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

    /// The set and tag of the line containing `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the tag does not fit in 32 bits (an address beyond
    /// [`CacheConfig::max_phys_bytes`]).
    fn locate(&self, addr: PhysAddr) -> (usize, u32) {
        let line = addr.as_u64() / LINE_BYTES as u64;
        let set = (line & ((1 << self.set_bits) - 1)) as usize;
        let tag =
            u32::try_from(line >> self.set_bits).expect("address beyond the cache's tag range");
        (set, tag)
    }

    /// The way of `set` holding `tag`: all eight tags are compared at
    /// once and the ways past the fill count masked off. An empty set
    /// (the common case of a range invalidation) never reads its tags.
    fn find(&self, set: usize, tag: u32) -> Option<usize> {
        let len = self.order[set].len;
        if len == 0 {
            return None;
        }
        let mut hits = 0u32;
        for (way, &t) in self.ways[set].tags.iter().enumerate() {
            hits |= u32::from(t == tag) << way;
        }
        hits &= (1 << len) - 1;
        (hits != 0).then(|| hits.trailing_zeros() as usize)
    }

    /// Makes `way` the most recently used way of `set`.
    fn touch(&mut self, set: usize, way: usize) {
        let order = &mut self.order[set];
        let rank = order.rank[way];
        if rank == 0 {
            return;
        }
        for r in &mut order.rank {
            *r += u8::from(*r < rank);
        }
        order.rank[way] = 0;
    }

    fn reconstruct_addr(&self, set: usize, tag: u32) -> PhysAddr {
        let line = (u64::from(tag) << self.set_bits) | set as u64;
        PhysAddr::new(line * LINE_BYTES as u64)
    }

    /// Looks up the line containing `addr`; updates LRU and hit/miss
    /// counters. Returns the line's data slot on a hit.
    pub fn lookup(&mut self, addr: PhysAddr) -> Option<u32> {
        let (set, tag) = self.locate(addr);
        match self.find(set, tag) {
            Some(way) => {
                self.touch(set, way);
                self.stats.hits += 1;
                Some(self.ways[set].slots[way])
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Checks for presence without disturbing LRU or counters.
    pub fn probe(&self, addr: PhysAddr) -> bool {
        let (set, tag) = self.locate(addr);
        self.find(set, tag).is_some()
    }

    /// A store's hit: marks the resident line containing `addr` dirty,
    /// makes it the most recently used way and counts a hit, returning
    /// its data slot. A miss changes nothing and counts nothing; the
    /// fill that follows counts it.
    pub fn write_hit(&mut self, addr: PhysAddr) -> Option<u32> {
        let (set, tag) = self.locate(addr);
        let way = self.find(set, tag)?;
        self.touch(set, way);
        self.order[set].dirty |= 1 << way;
        self.stats.hits += 1;
        Some(self.ways[set].slots[way])
    }

    /// Inserts the line containing `addr`, whose data is in `slot`. A
    /// full set evicts its least recently used way, which is returned
    /// so the caller can move dirty data downward.
    pub fn insert(&mut self, addr: PhysAddr, slot: u32, dirty: bool) -> Insert {
        let (set, tag) = self.locate(addr);
        if let Some(way) = self.find(set, tag) {
            debug_assert_eq!(self.ways[set].slots[way], slot, "copies of a line share one slot");
            self.order[set].dirty |= u8::from(dirty) << way;
            self.touch(set, way);
            return Insert::Refilled;
        }
        let len = usize::from(self.order[set].len);
        let victim = if len == self.config.ways {
            let mut lru = 0u32;
            for (way, &r) in self.order[set].rank.iter().enumerate() {
                lru |= u32::from(usize::from(r) == len - 1) << way;
            }
            lru &= (1 << len) - 1;
            debug_assert!(lru != 0, "a full set has a least recently used way");
            let evicted = self.remove(set, lru.trailing_zeros() as usize);
            if evicted.dirty {
                self.stats.dirty_evictions += 1;
            }
            Some(evicted)
        } else {
            None
        };
        let order = &mut self.order[set];
        let way = usize::from(order.len);
        for r in &mut order.rank {
            *r = r.wrapping_add(1);
        }
        order.rank[way] = 0;
        order.dirty |= u8::from(dirty) << way;
        order.len += 1;
        self.ways[set].tags[way] = tag;
        self.ways[set].slots[way] = slot;
        Insert::Placed(victim)
    }

    /// Removes `way` from `set` as `Vec::swap_remove` would: the last
    /// way moves into its place.
    fn remove(&mut self, set: usize, way: usize) -> Evicted {
        let ways = &mut self.ways[set];
        let order = &mut self.order[set];
        let last = usize::from(order.len) - 1;
        let (tag, slot, rank) = (ways.tags[way], ways.slots[way], order.rank[way]);
        let dirty = order.dirty & (1 << way) != 0;
        ways.tags[way] = ways.tags[last];
        ways.slots[way] = ways.slots[last];
        order.rank[way] = order.rank[last];
        let moved = (order.dirty >> last) & 1;
        order.dirty = ((order.dirty & !(1 << way)) | (moved << way)) & !(1 << last);
        order.len -= 1;
        for r in &mut order.rank {
            *r -= u8::from(*r > rank);
        }
        Evicted { addr: self.reconstruct_addr(set, tag), slot, dirty }
    }

    /// Removes the line containing `addr` without writing it back,
    /// returning it (dirty data is *discarded* by the caller's choice).
    pub fn invalidate(&mut self, addr: PhysAddr) -> Option<Evicted> {
        let (set, tag) = self.locate(addr);
        let way = self.find(set, tag)?;
        self.stats.invalidations += 1;
        Some(self.remove(set, way))
    }

    /// Clears and returns the dirty bit of a resident line without
    /// counting it as a flush write-back — used when dirty ownership
    /// migrates to a higher cache level rather than to memory.
    pub fn take_dirty(&mut self, addr: PhysAddr) -> bool {
        let (set, tag) = self.locate(addr);
        match self.find(set, tag) {
            Some(way) => {
                let dirty = self.order[set].dirty & (1 << way) != 0;
                self.order[set].dirty &= !(1 << way);
                dirty
            }
            None => false,
        }
    }

    /// Number of resident lines (for occupancy assertions).
    pub fn resident_lines(&self) -> usize {
        self.order.iter().map(|o| usize::from(o.len)).sum()
    }

    /// Calls `f` with the address and data slot of every resident line.
    #[cfg(test)]
    pub(crate) fn for_each_line(&self, mut f: impl FnMut(PhysAddr, u32)) {
        for (set, (ways, order)) in self.ways.iter().zip(&self.order).enumerate() {
            for way in 0..usize::from(order.len) {
                f(self.reconstruct_addr(set, ways.tags[way]), ways.slots[way]);
            }
        }
    }

    /// Drops every line without writing back (power loss).
    pub fn clear(&mut self) {
        self.order.fill(Order::default());
    }

    /// Cleans every resident dirty line, calling `f` with its address
    /// and data slot, set by set and way by way (used by whole-cache
    /// flushes at simulation end).
    pub fn drain_dirty(&mut self, mut f: impl FnMut(PhysAddr, u32)) {
        for set in 0..self.order.len() {
            let mut dirty = std::mem::take(&mut self.order[set].dirty);
            while dirty != 0 {
                let way = dirty.trailing_zeros() as usize;
                dirty &= dirty - 1;
                f(self.reconstruct_addr(set, self.ways[set].tags[way]), self.ways[set].slots[way]);
            }
        }
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

    fn drained(c: &mut SetAssocCache) -> Vec<(PhysAddr, u32)> {
        let mut out = Vec::new();
        c.drain_dirty(|addr, slot| out.push((addr, slot)));
        out
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let mut c = small();
        c.insert(line(0), 1, false);
        assert_eq!(c.lookup(line(0)), Some(1));
        assert_eq!(c.lookup(line(1)), None);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Lines 0, 2, 4 map to set 0 (even line numbers).
        c.insert(line(0), 0, false);
        c.insert(line(2), 2, false);
        c.lookup(line(0)); // make line 0 MRU
        let Insert::Placed(Some(evicted)) = c.insert(line(4), 4, false) else { panic!("set full") };
        assert_eq!(evicted.addr, line(2), "LRU way evicted");
        assert!(c.probe(line(0)));
        assert!(c.probe(line(4)));
    }

    #[test]
    fn dirty_eviction_reports_slot() {
        let mut c = small();
        c.insert(line(0), 7, true);
        c.insert(line(2), 2, false);
        let e = c.insert(line(4), 4, false);
        assert_eq!(e, Insert::Placed(Some(Evicted { addr: line(0), slot: 7, dirty: true })));
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn evicting_the_last_way_leaves_no_dirty_bit_behind() {
        let mut c = small();
        c.insert(line(0), 0, false);
        c.insert(line(2), 2, true);
        c.lookup(line(0));
        // Dirty line 2 sits in the last way; line 4 takes that way clean.
        c.insert(line(4), 4, false);
        assert!(drained(&mut c).is_empty());
    }

    #[test]
    fn write_hit_dirties_and_counts_a_hit() {
        let mut c = small();
        assert_eq!(c.write_hit(line(0)), None);
        assert_eq!(c.stats(), CacheStats::default(), "a store's miss counts nothing");
        c.insert(line(0), 3, false);
        assert_eq!(c.write_hit(PhysAddr::new(4)), Some(3));
        assert_eq!(c.stats().hits, 1);
        // line(0)'s last touch was the write_hit; line(2)'s insert is
        // newer, so filling the set evicts dirty line(0) first.
        c.insert(line(2), 2, false);
        let Insert::Placed(Some(e)) = c.insert(line(4), 4, false) else { panic!("set full") };
        assert_eq!(e, Evicted { addr: line(0), slot: 3, dirty: true });
    }

    #[test]
    fn invalidate_removes_without_stats_writeback() {
        let mut c = small();
        c.insert(line(0), 3, true);
        let e = c.invalidate(line(0)).unwrap();
        assert!(e.dirty);
        assert!(!c.probe(line(0)));
        assert_eq!(c.stats().invalidations, 1);
        assert!(c.invalidate(line(0)).is_none());
    }

    #[test]
    fn refill_merges_dirty_bit() {
        let mut c = small();
        c.insert(line(0), 1, true);
        // A clean refill of a dirty resident line keeps the dirty bit
        // (the modification still has to reach memory eventually).
        assert_eq!(c.insert(line(0), 1, false), Insert::Refilled);
        c.insert(line(2), 2, false);
        let Insert::Placed(Some(evicted)) = c.insert(line(4), 4, false) else {
            panic!("set overflows")
        };
        assert_eq!(evicted.addr, line(0), "line 0 is LRU after line 2's insert");
        assert!(evicted.dirty, "dirty bit survived the clean refill");
    }

    #[test]
    fn ways_move_as_in_swap_remove_and_push() {
        // One set of four ways.
        let mut c =
            SetAssocCache::new(CacheConfig { size_bytes: 4 * LINE_BYTES, ways: 4, latency: 1 });
        for n in 0..4 {
            c.insert(line(n), n as u32, true);
        }
        c.lookup(line(0));
        // Line 1 is the LRU: line 3 moves into its way, line 9 is pushed.
        c.insert(line(9), 9, true);
        c.invalidate(line(0)); // line 9 moves into way 0
        let order: Vec<u32> = drained(&mut c).iter().map(|&(_, slot)| slot).collect();
        assert_eq!(order, [9, 3, 2]);
    }

    #[test]
    fn invalidate_keeps_the_recency_of_the_rest() {
        let mut c =
            SetAssocCache::new(CacheConfig { size_bytes: 4 * LINE_BYTES, ways: 4, latency: 1 });
        for n in 0..4 {
            c.insert(line(n), n as u32, false);
        }
        c.lookup(line(0)); // recency, oldest first: 1, 2, 3, 0
        c.invalidate(line(2));
        c.insert(line(5), 5, false);
        let Insert::Placed(Some(v)) = c.insert(line(6), 6, false) else { panic!("set full") };
        assert_eq!(v.addr, line(1));
        let Insert::Placed(Some(v)) = c.insert(line(7), 7, false) else { panic!("set full") };
        assert_eq!(v.addr, line(3));
    }

    #[test]
    fn drain_dirty_cleans_everything() {
        let mut c = small();
        c.insert(line(0), 1, true);
        c.insert(line(1), 2, true);
        c.insert(line(2), 3, false);
        assert_eq!(drained(&mut c).len(), 2);
        assert!(drained(&mut c).is_empty());
        assert_eq!(c.resident_lines(), 3);
    }

    #[test]
    fn address_reconstruction() {
        let mut c = small();
        let addr = PhysAddr::new(0x1234_5640);
        c.insert(addr, 5, true);
        assert_eq!(drained(&mut c), [(addr.line_align(), 5)]);
    }

    #[test]
    #[should_panic(expected = "tag range")]
    fn addresses_beyond_the_tag_range_panic() {
        let mut c = small();
        c.lookup(PhysAddr::new(c.config().max_phys_bytes()));
    }
}
