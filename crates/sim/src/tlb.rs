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
//! taken from the workload or a trace, so the levels hash them with the
//! multiply-fold [`SeededIndexHasher`] under a random state drawn once
//! per [`Tlb`]. Every level is bounded by its entry count, so keys
//! chosen to collide can at worst turn one probe into a scan of one
//! level. The state changes no simulated result: the levels never
//! iterate their index, only their recency list.

use lelantus_types::hash::SeededIndexHasher;
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

/// A level's key: the owning process and `vpn << 1 | size_2m`, two
/// words to hash. A virtual page number has at most 52 bits, so the
/// shift loses nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    pid: u64,
    page: u64,
}

impl Key {
    fn new(pid: u64, va: VirtAddr, size: PageSize) -> Self {
        let size_2m = size == PageSize::Huge2M;
        Key { pid, page: (va.as_u64() / size.bytes()) << 1 | u64::from(size_2m) }
    }

    fn size_2m(self) -> bool {
        self.page & 1 == 1
    }
}

/// One fully-associative LRU level (TLB levels are small enough that
/// associativity conflicts are a second-order effect next to
/// capacity).
#[derive(Debug, Clone)]
struct Level {
    entries: LruMap<Key, TlbEntry, SeededIndexHasher>,
    capacity: usize,
}

impl Level {
    fn new(capacity: usize, hasher: SeededIndexHasher) -> Self {
        Self { entries: LruMap::with_hasher(hasher), capacity }
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
    /// Whether a 2 MB entry was filled since the last full flush. Until
    /// one is, the 2 MB probes of a lookup cannot hit and are skipped.
    any_2m: bool,
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
        let hasher = SeededIndexHasher::random();
        Self {
            l1_4k: Level::new(config.l1_entries_4k, hasher),
            l1_2m: Level::new(config.l1_entries_2m, hasher),
            l2: Level::new(config.l2_entries, hasher),
            config,
            front: None,
            any_2m: false,
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

    fn remember(&mut self, pid: u64, va: VirtAddr, entry: TlbEntry) {
        let base = va.as_u64() & !(entry.size.bytes() - 1);
        self.front = Some((pid, base, entry));
    }

    /// Looks up the translation of `(pid, va)`. The one-entry
    /// last-translation cache is probed first; each level's key is
    /// built only when the previous probe missed, and the 2 MB probes
    /// are made only once a 2 MB entry exists (a miss changes no
    /// recency, so skipping one changes nothing).
    pub fn lookup(&mut self, pid: u64, va: VirtAddr) -> TlbOutcome {
        if let Some((fpid, fbase, e)) = self.front {
            if fpid == pid && va.as_u64().wrapping_sub(fbase) < e.size.bytes() {
                self.stats.l1_hits += 1;
                self.stats.front_hits += 1;
                return TlbOutcome::HitL1(e);
            }
        }
        let k4 = Key::new(pid, va, PageSize::Regular4K);
        if let Some(e) = self.l1_4k.get(k4) {
            self.stats.l1_hits += 1;
            self.remember(pid, va, e);
            return TlbOutcome::HitL1(e);
        }
        let k2 = Key::new(pid, va, PageSize::Huge2M);
        if self.any_2m {
            if let Some(e) = self.l1_2m.get(k2) {
                self.stats.l1_hits += 1;
                self.remember(pid, va, e);
                return TlbOutcome::HitL1(e);
            }
        }
        let l2_keys = [k4, k2];
        for &key in &l2_keys[..1 + usize::from(self.any_2m)] {
            if let Some(e) = self.l2.get(key) {
                self.stats.l2_hits += 1;
                // Promote to the right L1.
                if key.size_2m() {
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
        let key = Key::new(pid, va, entry.size);
        match entry.size {
            PageSize::Regular4K => self.l1_4k.insert(key, entry),
            PageSize::Huge2M => {
                self.any_2m = true;
                self.l1_2m.insert(key, entry);
            }
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
        for key in [Key::new(pid, va, PageSize::Regular4K), Key::new(pid, va, PageSize::Huge2M)] {
            let mut removed = false;
            removed |= if key.size_2m() { self.l1_2m.remove(key) } else { self.l1_4k.remove(key) };
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
        self.any_2m = false;
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
