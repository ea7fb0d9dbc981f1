//! The three-level cache hierarchy in front of a line backend.

use crate::config::HierarchyConfig;
use crate::set_assoc::SetAssocCache;
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

/// The L1/L2/L3 write-back, write-allocate hierarchy.
///
/// Misses allocate in every level on the fill path; dirty victims
/// cascade downward (L1→L2→L3→backend). Explicit flush/invalidate
/// ranges model the `clflush`-style maintenance the OS performs around
/// Lelantus CoW commands (paper §IV-B).
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: SetAssocCache,
    l2: SetAssocCache,
    l3: SetAssocCache,
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
            l1: SetAssocCache::new(config.l1),
            l2: SetAssocCache::new(config.l2),
            l3: SetAssocCache::new(config.l3),
            config,
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> HierarchyConfig {
        self.config
    }

    /// Per-level counters.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats { l1: self.l1.stats(), l2: self.l2.stats(), l3: self.l3.stats() }
    }

    /// Handles a dirty victim evicted from `level` (1-based) by
    /// inserting it into the next level down, cascading further
    /// evictions until the backend absorbs the write.
    fn absorb_victim(
        &mut self,
        level: usize,
        victim: crate::set_assoc::Evicted,
        now: Cycles,
        backend: &mut dyn LineBackend,
    ) {
        if !victim.dirty {
            return; // clean victims vanish silently (non-inclusive model)
        }
        match level {
            1 => {
                if let Some(v2) = self.l2.insert(victim.addr, victim.data, true) {
                    self.absorb_victim(2, v2, now, backend);
                }
            }
            2 => {
                if let Some(v3) = self.l3.insert(victim.addr, victim.data, true) {
                    self.absorb_victim(3, v3, now, backend);
                }
            }
            _ => {
                // Evictions happen off the critical path; the backend is
                // charged traffic but the requestor does not wait.
                backend.write_line(victim.addr, victim.data, now);
            }
        }
    }

    /// Fetches the line containing `addr` into L1, returning its data
    /// and the fill completion time.
    fn fill(
        &mut self,
        addr: PhysAddr,
        now: Cycles,
        backend: &mut dyn LineBackend,
    ) -> ([u8; LINE_BYTES], Cycles) {
        let line = addr.line_align();
        let l1_lat = Cycles::new(self.config.l1.latency);
        let l2_lat = Cycles::new(self.config.l2.latency);
        let l3_lat = Cycles::new(self.config.l3.latency);

        if let Some(data) = self.l1.lookup(line) {
            return (data, now + l1_lat);
        }
        if let Some(data) = self.l2.lookup(line) {
            // Dirty ownership migrates upward with the line: exactly one
            // level may hold a dirty copy, else a stale lower-level
            // write-back could clobber fresher data later.
            let dirty = self.l2.take_dirty(line);
            if let Some(v) = self.l1.insert(line, data, dirty) {
                self.absorb_victim(1, v, now, backend);
            }
            return (data, now + l1_lat + l2_lat);
        }
        if let Some(data) = self.l3.lookup(line) {
            let dirty = self.l3.take_dirty(line);
            if let Some(v) = self.l2.insert(line, data, false) {
                self.absorb_victim(2, v, now, backend);
            }
            if let Some(v) = self.l1.insert(line, data, dirty) {
                self.absorb_victim(1, v, now, backend);
            }
            return (data, now + l1_lat + l2_lat + l3_lat);
        }
        let lookup_time = now + l1_lat + l2_lat + l3_lat;
        let (data, mem_done) = backend.read_line(line, lookup_time);
        if let Some(v) = self.l3.insert(line, data, false) {
            self.absorb_victim(3, v, now, backend);
        }
        if let Some(v) = self.l2.insert(line, data, false) {
            self.absorb_victim(2, v, now, backend);
        }
        if let Some(v) = self.l1.insert(line, data, false) {
            self.absorb_victim(1, v, now, backend);
        }
        (data, mem_done)
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
        let (data, done) = self.fill(addr, now, backend);
        (data[offset..offset + len].to_vec(), done)
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
        self.fill(addr, now, backend)
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
        if self.l1.write_hit(addr, bytes) {
            self.l1.lookup(addr.line_align()); // LRU touch & hit accounting
            return now + Cycles::new(self.config.l1.latency);
        }
        let (_, fill_done) = self.fill(addr, now, backend);
        let ok = self.l1.write_hit(addr, bytes);
        assert!(ok, "line was just filled");
        fill_done + Cycles::new(self.config.l1.latency)
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
            for cache in [&mut self.l1, &mut self.l2, &mut self.l3] {
                if let Some(e) = cache.invalidate(line) {
                    if e.dirty {
                        done = done.max(backend.write_line(line, e.data, now));
                    }
                }
            }
            offset += LINE_BYTES as u64;
        }
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
            resident += u64::from(self.l1.invalidate(line).is_some());
            resident += u64::from(self.l2.invalidate(line).is_some());
            resident += u64::from(self.l3.invalidate(line).is_some());
            offset += LINE_BYTES as u64;
        }
        resident
    }

    /// Writes every dirty line back to the backend (end of simulation /
    /// full barrier), leaving the hierarchy clean but warm.
    ///
    /// A dirty line may have older clean copies in the levels below it
    /// (the fill path left them there). Once clean, the fresh copy
    /// vanishes silently on eviction, so those copies are refreshed in
    /// place with the written-back bytes: no recency, dirtiness or
    /// counter changes.
    pub fn writeback_all(&mut self, now: Cycles, backend: &mut dyn LineBackend) -> Cycles {
        let mut done = now;
        for (addr, data) in self.l1.drain_dirty() {
            self.l2.refresh(addr, &data);
            self.l3.refresh(addr, &data);
            done = done.max(backend.write_line(addr, data, now));
        }
        for (addr, data) in self.l2.drain_dirty() {
            self.l3.refresh(addr, &data);
            done = done.max(backend.write_line(addr, data, now));
        }
        for (addr, data) in self.l3.drain_dirty() {
            done = done.max(backend.write_line(addr, data, now));
        }
        done
    }

    /// Drops every cached line in all levels without write-back —
    /// volatile caches across a power failure. Dirty data that never
    /// reached the backend is lost, exactly as on real hardware.
    pub fn clear_all(&mut self) {
        self.l1.clear();
        self.l2.clear();
        self.l3.clear();
    }

    /// True if the line containing `addr` is resident anywhere.
    pub fn probe(&self, addr: PhysAddr) -> bool {
        let line = addr.line_align();
        self.l1.probe(line) || self.l2.probe(line) || self.l3.probe(line)
    }
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
