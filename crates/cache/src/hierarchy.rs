//! The three-level cache hierarchy in front of a line backend.

use crate::config::HierarchyConfig;
use crate::set_assoc::{Evicted, Insert, SetAssocCache};
use crate::stats::HierarchyStats;
use lelantus_types::{Cycles, PhysAddr, LINE_BYTES};

/// Anything that can service 64-byte line fills and write-backs with
/// timing — in the full system, the secure memory controller.
pub trait LineBackend {
    /// Reads the line containing `addr`; returns data and completion
    /// time.
    fn read_line(&mut self, addr: PhysAddr, now: Cycles) -> ([u8; LINE_BYTES], Cycles);

    /// Writes the line containing `addr`; returns completion time.
    fn write_line(&mut self, addr: PhysAddr, data: [u8; LINE_BYTES], now: Cycles) -> Cycles;
}

/// Slots per slab chunk: 64 KiB of line data.
const CHUNK_SLOTS: usize = 1024;

/// The shared line data: one 64-byte slot per distinct cached line,
/// counted by the number of levels holding it.
///
/// The bytes live in fixed-size chunks that are allocated as the slab
/// grows and never move. One growing vector would reach its size
/// through a chain of multi-megabyte reallocations, and where the
/// allocator placed each step made the process's resident high-water
/// mark differ from run to run by up to 7 MiB on `oltp`; reserving
/// room for every way up front steadied it but cost `storm` 9 MiB.
#[derive(Debug, Clone, Default)]
struct Slab {
    chunks: Vec<Box<[[u8; LINE_BYTES]]>>,
    refs: Vec<u8>,
    free: Vec<u32>,
}

impl Slab {
    /// A slot holding `data`, with no reference yet.
    fn alloc(&mut self, data: [u8; LINE_BYTES]) -> u32 {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                let slot = u32::try_from(self.refs.len()).expect("slab slots fit in u32");
                if self.refs.len() == self.chunks.len() * CHUNK_SLOTS {
                    self.chunks.push(vec![[0; LINE_BYTES]; CHUNK_SLOTS].into_boxed_slice());
                }
                self.refs.push(0);
                slot
            }
        };
        *self.line_mut(slot) = data;
        slot
    }

    fn retain(&mut self, slot: u32) {
        self.refs[slot as usize] += 1;
        debug_assert!(self.refs[slot as usize] <= 3, "one reference per level");
    }

    fn release(&mut self, slot: u32) {
        let refs = &mut self.refs[slot as usize];
        debug_assert!(*refs > 0, "released slot {slot} has no reference");
        *refs -= 1;
        if *refs == 0 {
            self.free.push(slot);
        }
    }

    fn line(&self, slot: u32) -> &[u8; LINE_BYTES] {
        let slot = slot as usize;
        &self.chunks[slot / CHUNK_SLOTS][slot % CHUNK_SLOTS]
    }

    fn line_mut(&mut self, slot: u32) -> &mut [u8; LINE_BYTES] {
        let slot = slot as usize;
        &mut self.chunks[slot / CHUNK_SLOTS][slot % CHUNK_SLOTS]
    }

    /// Frees every slot; the chunks stay allocated for reuse.
    fn clear(&mut self) {
        self.refs.clear();
        self.free.clear();
    }
}

/// The L1/L2/L3 write-back, write-allocate hierarchy.
///
/// Misses allocate in every level on the fill path; dirty victims
/// cascade downward (L1→L2→L3→backend). Explicit flush/invalidate
/// ranges model the `clflush`-style maintenance the OS performs around
/// Lelantus CoW commands (paper §IV-B).
///
/// The levels keep tags only. Each cached line's bytes are stored once,
/// in a slab slot every level holding the line points at: a fill
/// allocates a slot on an LLC miss, victims move between levels by
/// slot, and the bytes are read only to hand them to the backend.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    levels: [SetAssocCache; 3],
    slab: Slab,
    config: HierarchyConfig,
}

impl CacheHierarchy {
    /// Builds the hierarchy from `config`.
    ///
    /// # Panics
    ///
    /// Panics if any level's geometry is invalid.
    pub fn new(config: HierarchyConfig) -> Self {
        config.validate().expect("invalid hierarchy configuration");
        Self {
            levels: [config.l1, config.l2, config.l3].map(SetAssocCache::new),
            slab: Slab::default(),
            config,
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> HierarchyConfig {
        self.config
    }

    /// Per-level counters.
    pub fn stats(&self) -> HierarchyStats {
        let [l1, l2, l3] = self.levels.each_ref().map(SetAssocCache::stats);
        HierarchyStats { l1, l2, l3 }
    }

    /// Lines resident in L1, L2 and L3.
    pub fn resident_lines(&self) -> [usize; 3] {
        self.levels.each_ref().map(SetAssocCache::resident_lines)
    }

    /// Distinct lines resident in any level: the slab slots in use.
    pub fn distinct_lines(&self) -> usize {
        self.slab.refs.len() - self.slab.free.len()
    }

    /// Puts `line` into `levels[level]`, passing it the one slot
    /// reference the caller holds for the line. A refill drops that
    /// reference (the level already holds one); otherwise the level
    /// keeps it. A clean victim vanishes (non-inclusive model) and a
    /// dirty one moves down a level, its reference with it; past the
    /// LLC the backend absorbs the write.
    fn put(
        &mut self,
        mut level: usize,
        mut line: Evicted,
        now: Cycles,
        backend: &mut dyn LineBackend,
    ) {
        loop {
            let Some(cache) = self.levels.get_mut(level) else {
                // Evictions happen off the critical path; the backend is
                // charged traffic but the requestor does not wait.
                backend.write_line(line.addr, *self.slab.line(line.slot), now);
                break;
            };
            match cache.insert(line.addr, line.slot, line.dirty) {
                Insert::Refilled => break,
                Insert::Placed(None) => return,
                Insert::Placed(Some(victim)) => {
                    line = victim;
                    if !victim.dirty {
                        break;
                    }
                    level += 1;
                }
            }
        }
        self.slab.release(line.slot);
    }

    /// Fetches the line containing `addr` into L1, returning its data
    /// slot and the fill completion time. `write` marks the L1 copy
    /// dirty: a store that missed in L1.
    fn fill(
        &mut self,
        addr: PhysAddr,
        write: bool,
        now: Cycles,
        backend: &mut dyn LineBackend,
    ) -> (u32, Cycles) {
        let line = addr.line_align();
        let mut done = now;
        let mut hit = None;
        for level in 0..self.levels.len() {
            done += Cycles::new(self.levels[level].config().latency);
            if let Some(slot) = self.levels[level].lookup(line) {
                hit = Some((level, slot));
                break;
            }
        }
        let (found, slot, dirty) = match hit {
            Some((0, slot)) => return (slot, done),
            // Dirty ownership migrates upward with the line: a dirty
            // copy never has a copy above it.
            Some((level, slot)) => (level, slot, self.levels[level].take_dirty(line)),
            None => {
                let (data, mem_done) = backend.read_line(line, done);
                done = mem_done;
                (self.levels.len(), self.slab.alloc(data), false)
            }
        };
        for level in (0..found).rev() {
            self.slab.retain(slot);
            let copy = Evicted { addr: line, slot, dirty: level == 0 && (dirty || write) };
            self.put(level, copy, now, backend);
        }
        (slot, done)
    }

    /// Loads `len` bytes starting at `addr` (must not cross a line
    /// boundary), returning the bytes and the completion time.
    ///
    /// # Panics
    ///
    /// Panics if the access crosses a 64-byte boundary.
    pub fn load(
        &mut self,
        addr: PhysAddr,
        len: usize,
        now: Cycles,
        backend: &mut dyn LineBackend,
    ) -> (Vec<u8>, Cycles) {
        let offset = addr.line_offset();
        assert!(offset + len <= LINE_BYTES, "load crosses line boundary");
        let (slot, done) = self.fill(addr, false, now, backend);
        self.check_slots();
        (self.slab.line(slot)[offset..offset + len].to_vec(), done)
    }

    /// Loads the full line containing `addr` without allocating: the
    /// batched access driver's read primitive. Timing, stats, and
    /// residency effects are exactly those of [`CacheHierarchy::load`].
    pub fn load_line(
        &mut self,
        addr: PhysAddr,
        now: Cycles,
        backend: &mut dyn LineBackend,
    ) -> ([u8; LINE_BYTES], Cycles) {
        let (slot, done) = self.fill(addr, false, now, backend);
        self.check_slots();
        (*self.slab.line(slot), done)
    }

    /// Stores `bytes` at `addr` (write-allocate, write-back), returning
    /// the completion time.
    ///
    /// # Panics
    ///
    /// Panics if the access crosses a 64-byte boundary.
    pub fn store(
        &mut self,
        addr: PhysAddr,
        bytes: &[u8],
        now: Cycles,
        backend: &mut dyn LineBackend,
    ) -> Cycles {
        let offset = addr.line_offset();
        assert!(offset + bytes.len() <= LINE_BYTES, "store crosses line boundary");
        let l1_lat = Cycles::new(self.config.l1.latency);
        let (slot, done) = match self.levels[0].write_hit(addr) {
            Some(slot) => (slot, now + l1_lat),
            None => {
                let (slot, fill_done) = self.fill(addr, true, now, backend);
                (slot, fill_done + l1_lat)
            }
        };
        self.slab.line_mut(slot)[offset..offset + bytes.len()].copy_from_slice(bytes);
        self.check_slots();
        done
    }

    /// Writes back (if dirty) and invalidates every line of
    /// `[start, start+len)` — the `clflush` loop the OS runs on a source
    /// page before write-protecting it.
    pub fn flush_range(
        &mut self,
        start: PhysAddr,
        len: u64,
        now: Cycles,
        backend: &mut dyn LineBackend,
    ) -> Cycles {
        let mut done = now;
        let base = start.line_align();
        let mut offset = 0;
        while offset < len {
            let line = base + offset;
            for cache in &mut self.levels {
                if let Some(e) = cache.invalidate(line) {
                    if e.dirty {
                        done = done.max(backend.write_line(line, *self.slab.line(e.slot), now));
                    }
                    self.slab.release(e.slot);
                }
            }
            offset += LINE_BYTES as u64;
        }
        self.check_slots();
        done
    }

    /// Drops every line of `[start, start+len)` without writing back —
    /// used on a CoW destination page whose cached (stale) contents
    /// must not survive a `page_copy` (paper §IV-B). Returns the
    /// number of lines that were actually resident, so callers can
    /// charge time proportional to real snoop work (a freshly
    /// allocated frame usually has nothing cached).
    pub fn invalidate_range(&mut self, start: PhysAddr, len: u64) -> u64 {
        let base = start.line_align();
        let mut offset = 0;
        let mut resident = 0;
        while offset < len {
            let line = base + offset;
            for cache in &mut self.levels {
                if let Some(e) = cache.invalidate(line) {
                    self.slab.release(e.slot);
                    resident += 1;
                }
            }
            offset += LINE_BYTES as u64;
        }
        self.check_slots();
        resident
    }

    /// Writes every dirty line back to the backend (end of simulation /
    /// full barrier), leaving the hierarchy clean but warm.
    ///
    /// The clean copies a fill left below a dirty line share its slot,
    /// so they already hold the bytes written back here.
    pub fn writeback_all(&mut self, now: Cycles, backend: &mut dyn LineBackend) -> Cycles {
        let mut done = now;
        for cache in &mut self.levels {
            cache.drain_dirty(|addr, slot| {
                done = done.max(backend.write_line(addr, *self.slab.line(slot), now));
            });
        }
        self.check_slots();
        done
    }

    /// Drops every cached line in all levels without write-back —
    /// volatile caches across a power failure. Dirty data that never
    /// reached the backend is lost, exactly as on real hardware.
    pub fn clear_all(&mut self) {
        for cache in &mut self.levels {
            cache.clear();
        }
        self.slab.clear();
    }

    /// True if the line containing `addr` is resident anywhere.
    pub fn probe(&self, addr: PhysAddr) -> bool {
        let line = addr.line_align();
        self.levels.iter().any(|cache| cache.probe(line))
    }

    /// The slot invariants, checked after every operation in this
    /// crate's tests: each slot's reference count is the number of
    /// levels holding its line, all copies of a line share one slot,
    /// and no level holds a dirty line that a level above it holds.
    #[cfg(test)]
    fn check_slots(&self) {
        use std::collections::HashMap;
        let mut holders: HashMap<u32, (PhysAddr, u8)> = HashMap::new();
        let mut slot_of: HashMap<PhysAddr, u32> = HashMap::new();
        for cache in &self.levels {
            cache.for_each_line(|addr, slot| {
                assert_eq!(*slot_of.entry(addr).or_insert(slot), slot, "{addr:?} has two slots");
                let (holder, refs) = holders.entry(slot).or_insert((addr, 0));
                assert_eq!(*holder, addr, "slot {slot} holds two lines");
                *refs += 1;
            });
        }
        for (slot, &refs) in self.slab.refs.iter().enumerate() {
            let held = holders.get(&(slot as u32)).map_or(0, |&(_, n)| n);
            assert_eq!(refs, held, "slot {slot}: reference count against levels holding it");
        }
        assert_eq!(self.distinct_lines(), holders.len());
        let ways: usize = self.levels.iter().map(|c| c.config().sets() * c.config().ways).sum();
        assert!(self.slab.refs.len() <= ways + 1, "more slots than ways plus the filling line");
        let mut levels = self.levels.clone();
        for lower in 1..levels.len() {
            let (upper, below) = levels.split_at_mut(lower);
            below[0].drain_dirty(|addr, _| {
                assert!(
                    !upper.iter().any(|c| c.probe(addr)),
                    "dirty {addr:?} in L{} has a copy above it",
                    lower + 1
                );
            });
        }
    }

    #[cfg(not(test))]
    #[inline(always)]
    fn check_slots(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HierarchyConfig;
    use std::collections::HashMap;

    #[derive(Default)]
    struct Flat {
        mem: HashMap<u64, [u8; 64]>,
        reads: u64,
        writes: u64,
    }

    impl LineBackend for Flat {
        fn read_line(&mut self, a: PhysAddr, now: Cycles) -> ([u8; 64], Cycles) {
            self.reads += 1;
            (
                self.mem.get(&a.line_align().as_u64()).copied().unwrap_or([0; 64]),
                now + Cycles::new(60),
            )
        }
        fn write_line(&mut self, a: PhysAddr, d: [u8; 64], now: Cycles) -> Cycles {
            self.writes += 1;
            self.mem.insert(a.line_align().as_u64(), d);
            now + Cycles::new(150)
        }
    }

    fn h() -> CacheHierarchy {
        CacheHierarchy::new(HierarchyConfig::tiny())
    }

    #[test]
    fn store_then_load_same_line() {
        let mut mem = Flat::default();
        let mut c = h();
        let t = c.store(PhysAddr::new(0x100), &[1, 2, 3], Cycles::ZERO, &mut mem);
        let (bytes, _) = c.load(PhysAddr::new(0x100), 3, t, &mut mem);
        assert_eq!(bytes, vec![1, 2, 3]);
        assert_eq!(mem.reads, 1, "one fill for write-allocate");
        assert_eq!(mem.writes, 0, "write-back: nothing reaches memory yet");
    }

    #[test]
    fn l1_hit_is_fast() {
        let mut mem = Flat::default();
        let mut c = h();
        c.load(PhysAddr::new(0x0), 8, Cycles::ZERO, &mut mem);
        let (_, t) = c.load(PhysAddr::new(0x0), 8, Cycles::ZERO, &mut mem);
        assert_eq!(t, Cycles::new(2), "L1 latency");
    }

    #[test]
    fn miss_latency_includes_all_levels() {
        let mut mem = Flat::default();
        let mut c = h();
        let (_, t) = c.load(PhysAddr::new(0x0), 8, Cycles::ZERO, &mut mem);
        assert_eq!(t, Cycles::new(2 + 8 + 25 + 60));
    }

    #[test]
    fn dirty_data_survives_capacity_evictions() {
        let mut mem = Flat::default();
        let mut c = h();
        c.store(PhysAddr::new(0x40), &[0xAB], Cycles::ZERO, &mut mem);
        // Touch far more lines than the tiny hierarchy holds.
        for i in 0..2048u64 {
            c.load(PhysAddr::new(0x10000 + i * 64), 1, Cycles::ZERO, &mut mem);
        }
        c.writeback_all(Cycles::ZERO, &mut mem);
        assert_eq!(mem.mem.get(&0x40).map(|d| d[0]), Some(0xAB));
    }

    #[test]
    fn flush_range_writes_back_dirty_lines() {
        let mut mem = Flat::default();
        let mut c = h();
        c.store(PhysAddr::new(0x1000), &[5; 8], Cycles::ZERO, &mut mem);
        c.store(PhysAddr::new(0x1040), &[6; 8], Cycles::ZERO, &mut mem);
        c.flush_range(PhysAddr::new(0x1000), 4096, Cycles::ZERO, &mut mem);
        assert_eq!(mem.writes, 2);
        assert!(!c.probe(PhysAddr::new(0x1000)));
        // Flushed data is in memory.
        assert_eq!(mem.mem.get(&0x1000).map(|d| d[0]), Some(5));
    }

    #[test]
    fn invalidate_range_discards_dirty_data() {
        let mut mem = Flat::default();
        let mut c = h();
        c.store(PhysAddr::new(0x2000), &[9; 8], Cycles::ZERO, &mut mem);
        c.invalidate_range(PhysAddr::new(0x2000), 4096);
        assert_eq!(mem.writes, 0, "invalidate must not write back");
        let (bytes, _) = c.load(PhysAddr::new(0x2000), 1, Cycles::ZERO, &mut mem);
        assert_eq!(bytes, vec![0], "stale dirty data discarded");
    }

    #[test]
    fn writeback_all_leaves_caches_warm() {
        let mut mem = Flat::default();
        let mut c = h();
        c.store(PhysAddr::new(0x3000), &[1], Cycles::ZERO, &mut mem);
        c.writeback_all(Cycles::ZERO, &mut mem);
        assert_eq!(mem.writes, 1);
        assert!(c.probe(PhysAddr::new(0x3000)));
        // Second writeback finds nothing dirty.
        c.writeback_all(Cycles::ZERO, &mut mem);
        assert_eq!(mem.writes, 1);
    }

    #[test]
    fn stats_accumulate() {
        let mut mem = Flat::default();
        let mut c = h();
        c.load(PhysAddr::new(0x0), 1, Cycles::ZERO, &mut mem);
        c.load(PhysAddr::new(0x0), 1, Cycles::ZERO, &mut mem);
        let s = c.stats();
        assert_eq!(s.l1.hits, 1);
        assert_eq!(s.l1.misses, 1);
        assert_eq!(s.l2.misses, 1);
        assert_eq!(s.l3.misses, 1);
    }

    /// Every operation ends in `check_slots`; a seeded soup over a
    /// tiny and a one-set hierarchy drives each of them through full
    /// sets, refills, cascades and flushes.
    #[test]
    fn slot_invariants_hold_over_a_random_soup() {
        use crate::config::CacheConfig;
        use rand::{Rng, SeedableRng};
        let one_set = HierarchyConfig {
            l1: CacheConfig { size_bytes: 2 * 64, ways: 2, latency: 2 },
            l2: CacheConfig { size_bytes: 4 * 64, ways: 4, latency: 8 },
            l3: CacheConfig { size_bytes: 8 * 64, ways: 8, latency: 25 },
        };
        for (config, lines) in [(HierarchyConfig::tiny(), 512u64), (one_set, 24)] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(lines);
            let mut mem = Flat::default();
            let mut c = CacheHierarchy::new(config);
            for _ in 0..4000 {
                let addr = PhysAddr::new(rng.gen_range(0..lines) * 64);
                match rng.gen_range(0..100u32) {
                    0..=39 => drop(c.load(addr, 1, Cycles::ZERO, &mut mem)),
                    40..=89 => drop(c.store(addr, &[rng.gen()], Cycles::ZERO, &mut mem)),
                    90..=94 => drop(c.flush_range(addr, 256, Cycles::ZERO, &mut mem)),
                    95..=97 => drop(c.invalidate_range(addr, 128)),
                    98 => drop(c.writeback_all(Cycles::ZERO, &mut mem)),
                    _ => c.clear_all(),
                }
            }
        }
    }

    /// A stream over four times the hierarchy's capacity, with stores
    /// and flushes, fills no more chunks than the ways need and never
    /// moves one.
    #[test]
    fn slab_chunks_never_move() {
        let mut mem = Flat::default();
        let mut c = h();
        let ways: usize = c.levels.iter().map(|l| l.config().sets() * l.config().ways).sum();
        let lines = 4 * ways as u64;
        let mut seen: Vec<*const [u8; 64]> = Vec::new();
        for i in 0..2 * lines {
            let addr = PhysAddr::new(i % lines * 64);
            if i % 3 == 0 {
                c.store(addr, &[1], Cycles::ZERO, &mut mem);
            } else {
                c.load(addr, 1, Cycles::ZERO, &mut mem);
            }
            if i % 97 == 0 {
                c.flush_range(addr, 512, Cycles::ZERO, &mut mem);
            }
            let chunks: Vec<_> = c.slab.chunks.iter().map(|k| k.as_ptr()).collect();
            assert!(chunks.starts_with(&seen), "a chunk moved");
            seen = chunks;
        }
        assert_eq!(c.slab.chunks.len(), (ways + 1).div_ceil(CHUNK_SLOTS));
    }

    #[test]
    #[should_panic(expected = "crosses line boundary")]
    fn cross_line_load_panics() {
        let mut mem = Flat::default();
        let mut c = h();
        c.load(PhysAddr::new(0x3C), 8, Cycles::ZERO, &mut mem);
    }
}

#[cfg(test)]
mod dirty_ownership_tests {
    use super::*;
    use crate::config::HierarchyConfig;
    use std::collections::HashMap;

    #[derive(Default)]
    struct Flat(HashMap<u64, [u8; 64]>);

    impl LineBackend for Flat {
        fn read_line(&mut self, a: PhysAddr, now: Cycles) -> ([u8; 64], Cycles) {
            (self.0.get(&a.line_align().as_u64()).copied().unwrap_or([0; 64]), now)
        }
        fn write_line(&mut self, a: PhysAddr, d: [u8; 64], now: Cycles) -> Cycles {
            self.0.insert(a.line_align().as_u64(), d);
            now
        }
    }

    /// Regression: a dirty line evicted to L2, re-fetched into L1 and
    /// rewritten must not be clobbered by the stale L2 copy at flush.
    #[test]
    fn stale_lower_level_copy_never_overwrites_fresh_data() {
        let mut mem = Flat::default();
        let mut c = CacheHierarchy::new(HierarchyConfig::tiny());
        let hot = PhysAddr::new(0x40);
        c.store(hot, &[1], Cycles::ZERO, &mut mem);
        // Evict it from the tiny L1 into L2 (dirty).
        for i in 0..64u64 {
            c.load(PhysAddr::new(0x10000 + i * 64), 1, Cycles::ZERO, &mut mem);
        }
        // Re-fetch (dirty ownership must come back up) and rewrite.
        c.store(hot, &[2], Cycles::ZERO, &mut mem);
        c.writeback_all(Cycles::ZERO, &mut mem);
        assert_eq!(mem.0.get(&0x40).map(|l| l[0]), Some(2), "stale L2 copy clobbered the rewrite");
        // Flush-range path too.
        c.store(hot, &[3], Cycles::ZERO, &mut mem);
        for i in 0..64u64 {
            c.load(PhysAddr::new(0x20000 + i * 64), 1, Cycles::ZERO, &mut mem);
        }
        c.store(hot, &[4], Cycles::ZERO, &mut mem);
        c.flush_range(PhysAddr::new(0), 4096, Cycles::ZERO, &mut mem);
        assert_eq!(mem.0.get(&0x40).map(|l| l[0]), Some(4));
    }

    /// Regression: `writeback_all` cleans the fresh L1 copy, which then
    /// vanishes on eviction; the L2 and L3 copies the fills left behind
    /// must carry the written-back bytes, not the first fill's.
    #[test]
    fn writeback_all_leaves_no_stale_lower_copy() {
        let mut mem = Flat::default();
        let mut c = CacheHierarchy::new(HierarchyConfig::tiny());
        let hot = PhysAddr::new(0x40);
        c.store(hot, &[1], Cycles::ZERO, &mut mem);
        for i in 0..64u64 {
            c.load(PhysAddr::new(0x10000 + i * 64), 1, Cycles::ZERO, &mut mem);
        }
        c.store(hot, &[2], Cycles::ZERO, &mut mem);
        c.writeback_all(Cycles::ZERO, &mut mem);
        assert_eq!(mem.0.get(&0x40).map(|l| l[0]), Some(2));
        for i in 0..64u64 {
            c.load(PhysAddr::new(0x30000 + i * 64), 1, Cycles::ZERO, &mut mem);
        }
        assert!(c.probe(hot), "a lower level still holds the line");
        let (bytes, _) = c.load(hot, 1, Cycles::ZERO, &mut mem);
        assert_eq!(bytes, vec![2], "a lower level served its first-fill copy");
    }
}
