//! A two-level TLB model.
//!
//! The paper's introduction motivates huge pages on NVM systems partly
//! through "bookkeeping and translation overheads" — terabyte-class
//! memories overwhelm 4 KB TLB reach. This module models a typical
//! two-level data TLB (split 4 KB/2 MB L1, unified L2) plus a fixed
//! page-walk cost, so the reproduction exhibits the translation side
//! of the regular-vs-huge trade-off, not only the CoW side.
//!
//! Entries are tagged with the owning process (ASID); any
//! page-table mutation (fork write-protection, CoW remap, KSM merge,
//! exit) must invalidate affected entries — the [`crate::System`]
//! wrapper performs those shootdowns.
//!
//! Each level is a fully-associative [`LruMap`]: a hit or a fill moves
//! the entry to the recency head and a fill into a full level evicts
//! the recency tail, all in O(1). Its keys hold virtual page numbers
//! taken from the workload or a trace, so the levels keep `std`'s
//! randomly keyed hasher.

use lelantus_types::lru::LruMap;
use lelantus_types::{PageSize, PhysAddr, VirtAddr};

/// TLB geometry and timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// L1 entries for 4 KB pages (typical: 64).
    pub l1_entries_4k: usize,
    /// L1 entries for 2 MB pages (typical: 32).
    pub l1_entries_2m: usize,
    /// Unified L2 entries (typical: 1536).
    pub l2_entries: usize,
    /// Extra cycles for an L1-miss/L2-hit translation.
    pub l2_latency: u64,
    /// Cycles for a full page walk (four cached table accesses).
    pub walk_cycles: u64,
}

impl Default for TlbConfig {
    fn default() -> Self {
        Self {
            l1_entries_4k: 64,
            l1_entries_2m: 32,
            l2_entries: 1536,
            l2_latency: 8,
            walk_cycles: 100,
        }
    }
}

impl TlbConfig {
    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.l1_entries_4k == 0 || self.l1_entries_2m == 0 || self.l2_entries == 0 {
            return Err("TLB levels need at least one entry".into());
        }
        Ok(())
    }
}

/// A cached translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// Physical base of the page.
    pub pa_base: PhysAddr,
    /// Page granularity.
    pub size: PageSize,
    /// Whether stores are permitted through this entry.
    pub writable: bool,
}

/// TLB statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// L1 hits (includes `front_hits`: the last-translation cache sits
    /// in front of the L1 arrays and is charged identically).
    pub l1_hits: u64,
    /// L2 hits (L1 misses).
    pub l2_hits: u64,
    /// Full page walks.
    pub walks: u64,
    /// Entries invalidated by shootdowns.
    pub shootdowns: u64,
    /// Subset of `l1_hits` served by the one-entry last-translation
    /// cache without probing the L1/L2 arrays.
    pub front_hits: u64,
}

impl TlbStats {
    /// Walk rate per lookup, in [0, 1].
    pub fn walk_rate(&self) -> f64 {
        let total = self.l1_hits + self.l2_hits + self.walks;
        if total == 0 {
            0.0
        } else {
            self.walks as f64 / total as f64
        }
    }

    /// Interval counters: `self - earlier` field by field.
    pub fn delta_since(&self, earlier: &TlbStats) -> TlbStats {
        TlbStats {
            l1_hits: self.l1_hits - earlier.l1_hits,
            l2_hits: self.l2_hits - earlier.l2_hits,
            walks: self.walks - earlier.walks,
            shootdowns: self.shootdowns - earlier.shootdowns,
            front_hits: self.front_hits - earlier.front_hits,
        }
    }
}

/// Outcome of a lookup: where it hit and the extra cycles charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbOutcome {
    /// L1 hit (free — overlapped with the L1 cache access).
    HitL1(TlbEntry),
    /// L2 hit.
    HitL2(TlbEntry),
    /// Miss: the caller must walk the page table and
    /// [`Tlb::fill`] the result.
    Miss,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    pid: u64,
    vpn: u64,
    size_2m: bool,
}

/// One fully-associative LRU level (TLB levels are small enough that
/// associativity conflicts are a second-order effect next to
/// capacity).
#[derive(Debug, Clone)]
struct Level {
    entries: LruMap<Key, TlbEntry>,
    capacity: usize,
}

impl Level {
    fn new(capacity: usize) -> Self {
        Self { entries: LruMap::default(), capacity }
    }

    fn get(&mut self, key: Key) -> Option<TlbEntry> {
        self.entries.get(&key).copied()
    }

    fn insert(&mut self, key: Key, entry: TlbEntry) {
        if self.entries.insert(key, entry).is_none() && self.entries.len() > self.capacity {
            // The new entry is at the head; the tail is the least
            // recently used of the entries that were already resident.
            self.entries.pop_lru();
        }
    }

    fn remove(&mut self, key: Key) -> bool {
        self.entries.remove(&key).is_some()
    }

    fn retain(&mut self, mut keep: impl FnMut(&Key) -> bool) -> usize {
        let before = self.entries.len();
        self.entries.retain(|k, _| keep(k));
        before - self.entries.len()
    }
}

/// The two-level data TLB.
///
/// # Examples
///
/// ```
/// use lelantus_sim::tlb::{Tlb, TlbConfig, TlbEntry, TlbOutcome};
/// use lelantus_types::{PageSize, PhysAddr, VirtAddr};
///
/// let mut tlb = Tlb::new(TlbConfig::default());
/// let va = VirtAddr::new(0x7000_0000);
/// assert_eq!(tlb.lookup(1, va), TlbOutcome::Miss);
/// tlb.fill(1, va, TlbEntry { pa_base: PhysAddr::new(0x20_0000), size: PageSize::Regular4K, writable: true });
/// assert!(matches!(tlb.lookup(1, va), TlbOutcome::HitL1(_)));
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    l1_4k: Level,
    l1_2m: Level,
    l2: Level,
    /// One-entry last-translation cache in front of the arrays: the
    /// `(pid, page base)` of the most recent successful translation.
    /// Run-shaped access streams (a batch sweeping one page) hit here
    /// without touching the LRU levels; charged like an L1 hit.
    front: Option<(u64, u64, TlbEntry)>,
    stats: TlbStats,
}

impl Tlb {
    /// Builds a TLB from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: TlbConfig) -> Self {
        config.validate().expect("invalid TLB config");
        Self {
            l1_4k: Level::new(config.l1_entries_4k),
            l1_2m: Level::new(config.l1_entries_2m),
            l2: Level::new(config.l2_entries),
            config,
            front: None,
            stats: TlbStats::default(),
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> TlbConfig {
        self.config
    }

    /// Accumulated counters.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    fn key_4k(pid: u64, va: VirtAddr) -> Key {
        Key { pid, vpn: va.as_u64() / PageSize::Regular4K.bytes(), size_2m: false }
    }

    fn key_2m(pid: u64, va: VirtAddr) -> Key {
        Key { pid, vpn: va.as_u64() / PageSize::Huge2M.bytes(), size_2m: true }
    }

    fn remember(&mut self, pid: u64, va: VirtAddr, entry: TlbEntry) {
        let base = va.as_u64() & !(entry.size.bytes() - 1);
        self.front = Some((pid, base, entry));
    }

    /// Looks up the translation of `(pid, va)`. The one-entry
    /// last-translation cache is probed first; each level's key is
    /// built only when the previous probe missed.
    pub fn lookup(&mut self, pid: u64, va: VirtAddr) -> TlbOutcome {
        if let Some((fpid, fbase, e)) = self.front {
            if fpid == pid && va.as_u64().wrapping_sub(fbase) < e.size.bytes() {
                self.stats.l1_hits += 1;
                self.stats.front_hits += 1;
                return TlbOutcome::HitL1(e);
            }
        }
        let k4 = Self::key_4k(pid, va);
        if let Some(e) = self.l1_4k.get(k4) {
            self.stats.l1_hits += 1;
            self.remember(pid, va, e);
            return TlbOutcome::HitL1(e);
        }
        let k2 = Self::key_2m(pid, va);
        if let Some(e) = self.l1_2m.get(k2) {
            self.stats.l1_hits += 1;
            self.remember(pid, va, e);
            return TlbOutcome::HitL1(e);
        }
        for key in [k4, k2] {
            if let Some(e) = self.l2.get(key) {
                self.stats.l2_hits += 1;
                // Promote to the right L1.
                if key.size_2m {
                    self.l1_2m.insert(key, e);
                } else {
                    self.l1_4k.insert(key, e);
                }
                self.remember(pid, va, e);
                return TlbOutcome::HitL2(e);
            }
        }
        self.stats.walks += 1;
        TlbOutcome::Miss
    }

    /// Counts a translation served by the front cache on behalf of a
    /// caller that tracks the current run's page itself (the batched
    /// access engine). Charged and counted exactly like the front-cache
    /// hit [`Tlb::lookup`] would report for the same access.
    pub fn record_front_hit(&mut self) {
        self.stats.l1_hits += 1;
        self.stats.front_hits += 1;
    }

    /// Installs the result of a page walk.
    pub fn fill(&mut self, pid: u64, va: VirtAddr, entry: TlbEntry) {
        let key = Key {
            pid,
            vpn: va.as_u64() / entry.size.bytes(),
            size_2m: entry.size == PageSize::Huge2M,
        };
        match entry.size {
            PageSize::Regular4K => self.l1_4k.insert(key, entry),
            PageSize::Huge2M => self.l1_2m.insert(key, entry),
        }
        self.l2.insert(key, entry);
        self.remember(pid, va, entry);
    }

    /// Invalidates the entry covering `(pid, va)` (single-page
    /// shootdown after a PTE change).
    pub fn invalidate_page(&mut self, pid: u64, va: VirtAddr) {
        if let Some((fpid, fbase, e)) = self.front {
            if fpid == pid && va.as_u64().wrapping_sub(fbase) < e.size.bytes() {
                self.front = None;
            }
        }
        for key in [Self::key_4k(pid, va), Self::key_2m(pid, va)] {
            let mut removed = false;
            removed |= if key.size_2m { self.l1_2m.remove(key) } else { self.l1_4k.remove(key) };
            removed |= self.l2.remove(key);
            if removed {
                self.stats.shootdowns += 1;
            }
        }
    }

    /// Invalidates every entry of `pid` (exit / large remap).
    pub fn invalidate_pid(&mut self, pid: u64) {
        if matches!(self.front, Some((fpid, ..)) if fpid == pid) {
            self.front = None;
        }
        let mut n = 0;
        n += self.l1_4k.retain(|k| k.pid != pid);
        n += self.l1_2m.retain(|k| k.pid != pid);
        n += self.l2.retain(|k| k.pid != pid);
        self.stats.shootdowns += n as u64;
    }

    /// Full flush (fork-time write-protection changes every PTE).
    pub fn flush_all(&mut self) {
        self.front = None;
        let mut n = 0;
        n += self.l1_4k.retain(|_| false);
        n += self.l1_2m.retain(|_| false);
        n += self.l2.retain(|_| false);
        self.stats.shootdowns += n as u64;
    }

    /// Extra cycles for an outcome (L1 hits are free, overlapped with
    /// the cache lookup).
    pub fn charge(&self, outcome: &TlbOutcome) -> u64 {
        match outcome {
            TlbOutcome::HitL1(_) => 0,
            TlbOutcome::HitL2(_) => self.config.l2_latency,
            TlbOutcome::Miss => self.config.walk_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(pa: u64, size: PageSize, writable: bool) -> TlbEntry {
        TlbEntry { pa_base: PhysAddr::new(pa), size, writable }
    }

    #[test]
    fn miss_fill_hit() {
        let mut t = Tlb::new(TlbConfig::default());
        let va = VirtAddr::new(0x1000);
        assert_eq!(t.lookup(1, va), TlbOutcome::Miss);
        t.fill(1, va, entry(0x20_0000, PageSize::Regular4K, true));
        match t.lookup(1, va) {
            TlbOutcome::HitL1(e) => {
                assert_eq!(e.pa_base, PhysAddr::new(0x20_0000));
                assert!(e.writable);
            }
            other => panic!("expected L1 hit, got {other:?}"),
        }
        // Same page, different offset still hits.
        assert!(matches!(t.lookup(1, VirtAddr::new(0x1abc)), TlbOutcome::HitL1(_)));
        // Different page misses.
        assert_eq!(t.lookup(1, VirtAddr::new(0x2000)), TlbOutcome::Miss);
    }

    #[test]
    fn asid_separation() {
        let mut t = Tlb::new(TlbConfig::default());
        let va = VirtAddr::new(0x1000);
        t.fill(1, va, entry(0x20_0000, PageSize::Regular4K, true));
        assert_eq!(t.lookup(2, va), TlbOutcome::Miss, "other pid must not hit");
    }

    #[test]
    fn huge_entries_cover_2mb() {
        let mut t = Tlb::new(TlbConfig::default());
        let va = VirtAddr::new(0x4000_0000);
        t.fill(1, va, entry(0x20_0000, PageSize::Huge2M, true));
        assert!(matches!(t.lookup(1, VirtAddr::new(0x401f_ffff)), TlbOutcome::HitL1(_)));
        assert_eq!(t.lookup(1, VirtAddr::new(0x4020_0000)), TlbOutcome::Miss);
    }

    #[test]
    fn l1_capacity_spills_to_l2() {
        let mut t =
            Tlb::new(TlbConfig { l1_entries_4k: 2, l2_entries: 64, ..TlbConfig::default() });
        for i in 0..4u64 {
            t.fill(1, VirtAddr::new(i * 4096), entry(i * 4096, PageSize::Regular4K, true));
        }
        // Oldest L1 entries evicted, but L2 still holds them.
        let out = t.lookup(1, VirtAddr::new(0));
        assert!(matches!(out, TlbOutcome::HitL2(_)), "{out:?}");
        assert_eq!(t.stats().l2_hits, 1);
        // The L2 hit promoted it back to L1.
        assert!(matches!(t.lookup(1, VirtAddr::new(0)), TlbOutcome::HitL1(_)));
    }

    #[test]
    fn shootdowns() {
        let mut t = Tlb::new(TlbConfig::default());
        let va = VirtAddr::new(0x1000);
        t.fill(1, va, entry(0x20_0000, PageSize::Regular4K, false));
        t.invalidate_page(1, va);
        assert_eq!(t.lookup(1, va), TlbOutcome::Miss);
        assert!(t.stats().shootdowns >= 1);

        t.fill(1, va, entry(0x20_0000, PageSize::Regular4K, true));
        t.fill(2, va, entry(0x30_0000, PageSize::Regular4K, true));
        t.invalidate_pid(1);
        assert_eq!(t.lookup(1, va), TlbOutcome::Miss);
        assert!(matches!(t.lookup(2, va), TlbOutcome::HitL1(_)));

        t.flush_all();
        assert_eq!(t.lookup(2, va), TlbOutcome::Miss);
    }

    #[test]
    fn charges() {
        let t = Tlb::new(TlbConfig::default());
        let e = entry(0, PageSize::Regular4K, true);
        assert_eq!(t.charge(&TlbOutcome::HitL1(e)), 0);
        assert_eq!(t.charge(&TlbOutcome::HitL2(e)), 8);
        assert_eq!(t.charge(&TlbOutcome::Miss), 100);
    }

    #[test]
    fn walk_rate() {
        let mut t = Tlb::new(TlbConfig::default());
        t.lookup(1, VirtAddr::new(0)); // miss
        t.fill(1, VirtAddr::new(0), entry(0, PageSize::Regular4K, true));
        t.lookup(1, VirtAddr::new(0)); // hit
        assert!((t.stats().walk_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn invalid_config_panics() {
        assert!(TlbConfig { l1_entries_4k: 0, ..TlbConfig::default() }.validate().is_err());
    }
}
