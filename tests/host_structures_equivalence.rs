//! Differential op-soups: the O(1) host structures on the per-line
//! metadata path against the implementations they replaced.
//!
//! The MAC cache, the Merkle node cache, the CoW cache and the TLB
//! levels used to keep a per-entry access tick and evict the minimum
//! (through a `BTreeMap` of ticks or a linear scan); the NVM write queue
//! scanned its full 88-byte entries. The production types now sit on
//! one slab LRU (`lelantus_types::lru::LruMap`) and an address-only
//! queue found through an index of buckets. The CPU cache levels kept a copy of
//! each line's bytes in every way; they now keep tags only, over one
//! slab slot per line that all levels share. Each model below is the
//! former implementation, kept verbatim apart from dropping what no
//! test calls. Every soup drives a model
//! and its production twin with at least 10k seeded random operations
//! at small capacities and requires equal return values, victims,
//! forwards, walk statistics and counters after every step.

use lelantus::cache::{
    CacheConfig, CacheHierarchy, CacheStats, HierarchyConfig, HierarchyStats, LineBackend,
};
use lelantus::crypto::merkle::WalkStats;
use lelantus::crypto::{MerkleTree, SipHash24, TamperError};
use lelantus::metadata::cow_meta::CowCacheStats;
use lelantus::metadata::mac::{EvictedMacLine, MacLine};
use lelantus::metadata::{CowCache, MacCache, MacCacheStats};
use lelantus::nvm::write_queue::{PendingWrite, WriteQueue, WriteQueueStats};
use lelantus::sim::tlb::{Tlb, TlbConfig, TlbEntry, TlbOutcome, TlbStats};
use lelantus::types::{Cycles, PageSize, PhysAddr, VirtAddr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

const OPS: usize = 12_000;

// ---------------------------------------------------------------------
// MAC cache
// ---------------------------------------------------------------------

/// The tick-based MAC cache: `HashMap` entries plus a `BTreeMap` from
/// tick to line index.
struct MacCacheModel {
    entries: HashMap<u64, (MacLine, bool, u64)>,
    lru: BTreeMap<u64, u64>,
    capacity: usize,
    tick: u64,
    stats: MacCacheStats,
}

impl MacCacheModel {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MAC cache needs capacity");
        Self {
            entries: HashMap::new(),
            lru: BTreeMap::new(),
            capacity,
            tick: 0,
            stats: MacCacheStats::default(),
        }
    }

    fn get(&mut self, index: u64) -> Option<MacLine> {
        self.tick += 1;
        let tick = self.tick;
        match self.entries.get_mut(&index) {
            Some((line, _, lru)) => {
                let line = *line;
                let old = std::mem::replace(lru, tick);
                self.lru.remove(&old);
                self.lru.insert(tick, index);
                self.stats.hits += 1;
                Some(line)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    fn fill(&mut self, index: u64, macs: MacLine, dirty: bool) -> Option<EvictedMacLine> {
        self.tick += 1;
        let tick = self.tick;
        if let Some(e) = self.entries.get_mut(&index) {
            e.0 = macs;
            e.1 |= dirty;
            let old = std::mem::replace(&mut e.2, tick);
            self.lru.remove(&old);
            self.lru.insert(tick, index);
            return None;
        }
        let victim = if self.entries.len() >= self.capacity {
            self.lru.pop_first().and_then(|(_, k)| {
                let (line, was_dirty, _) = self.entries.remove(&k).expect("present");
                if was_dirty {
                    self.stats.writebacks += 1;
                    Some(EvictedMacLine { index: k, macs: line })
                } else {
                    None
                }
            })
        } else {
            None
        };
        self.entries.insert(index, (macs, dirty, tick));
        self.lru.insert(tick, index);
        victim
    }

    /// A tag write's cache access: one tick, dirty, no tag stored.
    fn mark_dirty(&mut self, index: u64) -> bool {
        self.tick += 1;
        let tick = self.tick;
        match self.entries.get_mut(&index) {
            Some((_, dirty, lru)) => {
                *dirty = true;
                let old = std::mem::replace(lru, tick);
                self.lru.remove(&old);
                self.lru.insert(tick, index);
                true
            }
            None => false,
        }
    }

    /// A tag store with no tick: recency and dirtiness stay.
    fn patch_tag(&mut self, index: u64, slot: usize, tag: u64) -> bool {
        match self.entries.get_mut(&index) {
            Some((line, _, _)) => {
                line[slot] = tag;
                true
            }
            None => false,
        }
    }

    fn victim(&self) -> Option<u64> {
        if self.entries.len() >= self.capacity {
            self.lru.first_key_value().map(|(_, &k)| k)
        } else {
            None
        }
    }

    fn drain_dirty(&mut self) -> Vec<EvictedMacLine> {
        let mut out = Vec::new();
        for (&index, entry) in self.entries.iter_mut() {
            if entry.1 {
                entry.1 = false;
                out.push(EvictedMacLine { index, macs: entry.0 });
            }
        }
        out.sort_by_key(|e| e.index);
        out
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.lru.clear();
    }
}

fn mac_soup(capacity: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fast = MacCache::new(capacity);
    let mut model = MacCacheModel::new(capacity);
    let keys = (capacity as u64) * 3 + 2;
    for step in 0..OPS {
        let index = rng.gen_range(0..keys);
        match rng.gen_range(0..100u32) {
            0..=34 => assert_eq!(fast.get(index), model.get(index), "get, step {step}"),
            35..=64 => {
                let macs: MacLine = std::array::from_fn(|_| rng.gen_range(0..1000u64));
                let dirty = rng.gen_bool(0.5);
                assert_eq!(
                    fast.fill(index, macs, dirty),
                    model.fill(index, macs, dirty),
                    "fill, step {step}"
                );
            }
            65..=79 => assert_eq!(
                fast.mark_dirty(index),
                model.mark_dirty(index),
                "mark_dirty, step {step}"
            ),
            80..=89 => {
                let slot = rng.gen_range(0..8usize);
                let tag = rng.gen();
                assert_eq!(
                    fast.tags_mut(index).map(|line| line[slot] = tag).is_some(),
                    model.patch_tag(index, slot, tag),
                    "tags_mut, step {step}"
                );
            }
            90..=94 => assert_eq!(fast.victim(), model.victim(), "victim, step {step}"),
            95..=98 => assert_eq!(fast.drain_dirty(), model.drain_dirty(), "drain, step {step}"),
            _ => {
                fast.clear();
                model.clear();
            }
        }
        assert_eq!(fast.len(), model.entries.len(), "len, step {step}");
        assert_eq!(fast.stats(), model.stats, "stats, step {step}");
    }
    assert_eq!(fast.drain_dirty(), model.drain_dirty());
}

#[test]
fn mac_cache_matches_the_tick_model() {
    for (capacity, seed) in [(1, 11), (2, 12), (5, 13), (16, 14)] {
        mac_soup(capacity, seed);
    }
}

// ---------------------------------------------------------------------
// CoW cache
// ---------------------------------------------------------------------

/// The scan-based CoW cache: a linear minimum-tick search per eviction.
struct CowCacheModel {
    entries: HashMap<u64, (Option<u64>, u64)>,
    capacity: usize,
    tick: u64,
    stats: CowCacheStats,
}

impl CowCacheModel {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "CoW cache needs capacity");
        Self { entries: HashMap::new(), capacity, tick: 0, stats: CowCacheStats::default() }
    }

    fn lookup(&mut self, region: u64) -> Option<Option<u64>> {
        self.tick += 1;
        let tick = self.tick;
        if let Some((mapping, lru)) = self.entries.get_mut(&region) {
            *lru = tick;
            self.stats.hits += 1;
            Some(*mapping)
        } else {
            self.stats.misses += 1;
            None
        }
    }

    fn fill(&mut self, region: u64, mapping: Option<u64>) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(e) = self.entries.get_mut(&region) {
            *e = (mapping, tick);
            return;
        }
        if self.entries.len() >= self.capacity {
            if let Some((&victim, _)) = self.entries.iter().min_by_key(|(_, (_, lru))| *lru) {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(region, (mapping, tick));
    }

    fn invalidate(&mut self, region: u64) {
        self.entries.remove(&region);
    }
}

#[test]
fn cow_cache_matches_the_scan_model() {
    for (capacity, seed) in [(1usize, 21u64), (3, 22), (8, 23)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut fast = CowCache::new(capacity);
        let mut model = CowCacheModel::new(capacity);
        let keys = capacity as u64 * 3 + 2;
        for step in 0..OPS {
            let region = rng.gen_range(0..keys);
            match rng.gen_range(0..10u32) {
                0..=4 => assert_eq!(fast.lookup(region), model.lookup(region), "step {step}"),
                5..=8 => {
                    let mapping = rng.gen_bool(0.7).then(|| rng.gen_range(0..64u64));
                    fast.fill(region, mapping);
                    model.fill(region, mapping);
                }
                _ => {
                    fast.invalidate(region);
                    model.invalidate(region);
                }
            }
            assert_eq!(fast.len(), model.entries.len(), "len, step {step}");
            assert_eq!(fast.stats(), model.stats, "stats, step {step}");
        }
    }
}

// ---------------------------------------------------------------------
// Merkle node cache
// ---------------------------------------------------------------------

const ARITY: usize = 8;

/// The tick-based Merkle tree: node cache as `HashMap<(level, idx),
/// tick>` plus a `BTreeMap` from tick to node.
struct MerkleModel {
    mac: SipHash24,
    levels: Vec<Vec<u64>>,
    cache: HashMap<(usize, usize), u64>,
    lru: BTreeMap<u64, (usize, usize)>,
    cache_capacity: usize,
    tick: u64,
    deferred: bool,
    dirty_leaves: BTreeSet<usize>,
    record_touches: bool,
    touches: Vec<u8>,
}

impl MerkleModel {
    fn new(num_leaves: usize, key: (u64, u64), cache_capacity: usize) -> Self {
        assert!(num_leaves > 0, "tree must cover at least one counter block");
        let mac = SipHash24::new(key.0, key.1);
        let mut levels = vec![vec![mac.hash(b""); num_leaves]];
        while levels.last().expect("nonempty").len() > 1 {
            let below = levels.last().expect("nonempty");
            let parents = (0..below.len().div_ceil(ARITY))
                .map(|p| mac.hash_words(Self::sibling_group(below, p)))
                .collect();
            levels.push(parents);
        }
        Self {
            mac,
            levels,
            cache: HashMap::new(),
            lru: BTreeMap::new(),
            cache_capacity,
            tick: 0,
            deferred: false,
            dirty_leaves: BTreeSet::new(),
            record_touches: false,
            touches: Vec::new(),
        }
    }

    fn with_touch_log(mut self) -> Self {
        self.record_touches = true;
        self
    }

    fn drain_touches_into(&mut self, out: &mut Vec<u8>) {
        out.append(&mut self.touches);
    }

    fn with_deferred_maintenance(mut self) -> Self {
        self.deferred = true;
        self
    }

    fn sibling_group(below: &[u64], parent_idx: usize) -> &[u64] {
        let start = parent_idx * ARITY;
        &below[start..(start + ARITY).min(below.len())]
    }

    fn num_leaves(&self) -> usize {
        self.levels[0].len()
    }

    fn root(&self) -> u64 {
        debug_assert!(
            self.dirty_leaves.is_empty(),
            "flush deferred Merkle updates before reading the root"
        );
        *self.levels.last().expect("nonempty").last().expect("root")
    }

    fn lru_bump(&mut self, level: usize, idx: usize) {
        self.tick += 1;
        if let Some(old) = self.cache.insert((level, idx), self.tick) {
            self.lru.remove(&old);
        }
        self.lru.insert(self.tick, (level, idx));
    }

    fn cache_touch(&mut self, level: usize, idx: usize) {
        if level + 1 == self.levels.len() {
            return;
        }
        self.lru_bump(level, idx);
        if self.cache.len() > self.cache_capacity {
            if let Some((_, victim)) = self.lru.pop_first() {
                self.cache.remove(&victim);
            }
        }
    }

    fn cache_hit(&mut self, level: usize, idx: usize) -> bool {
        if level + 1 == self.levels.len() {
            return true;
        }
        if self.cache.contains_key(&(level, idx)) {
            self.lru_bump(level, idx);
            true
        } else {
            false
        }
    }

    fn update_leaf(&mut self, leaf: usize, data: &[u8]) -> WalkStats {
        assert!(leaf < self.num_leaves(), "leaf {leaf} out of range");
        let mac = self.mac;
        let mut stats = WalkStats::default();
        self.levels[0][leaf] = mac.hash(data);
        self.cache_touch(0, leaf);
        stats.nodes_written += 1;
        if self.deferred {
            self.dirty_leaves.insert(leaf);
        }
        let mut idx = leaf;
        for level in 0..self.levels.len() - 1 {
            let parent = idx / ARITY;
            if !self.deferred {
                self.levels[level + 1][parent] =
                    mac.hash_words(Self::sibling_group(&self.levels[level], parent));
            }
            if !self.cache_hit(level + 1, parent) {
                stats.nodes_fetched += 1;
                if self.record_touches {
                    self.touches.push((level + 1).min(u8::MAX as usize) as u8);
                }
            }
            self.cache_touch(level + 1, parent);
            stats.nodes_written += 1;
            stats.levels_walked += 1;
            idx = parent;
        }
        stats
    }

    fn flush(&mut self) -> u64 {
        if self.dirty_leaves.is_empty() {
            return 0;
        }
        let mac = self.mac;
        let mut recomputed = 0;
        let mut dirty: Vec<usize> = std::mem::take(&mut self.dirty_leaves).into_iter().collect();
        for level in 0..self.levels.len() - 1 {
            let mut parents: Vec<usize> = dirty.iter().map(|&i| i / ARITY).collect();
            parents.dedup();
            for &p in &parents {
                self.levels[level + 1][p] =
                    mac.hash_words(Self::sibling_group(&self.levels[level], p));
                recomputed += 1;
            }
            dirty = parents;
        }
        recomputed
    }

    fn verify_leaf(&mut self, leaf: usize, data: &[u8]) -> Result<WalkStats, TamperError> {
        assert!(leaf < self.num_leaves(), "leaf {leaf} out of range");
        self.flush();
        let mut stats = WalkStats::default();
        let digest = self.mac.hash(data);
        if self.cache_hit(0, leaf) {
            return if digest == self.levels[0][leaf] {
                Ok(stats)
            } else {
                Err(TamperError { leaf, level: 0 })
            };
        }
        if digest != self.levels[0][leaf] {
            return Err(TamperError { leaf, level: 0 });
        }
        let mut idx = leaf;
        for level in 0..self.levels.len() - 1 {
            let parent = idx / ARITY;
            stats.levels_walked += 1;
            stats.nodes_fetched += 1;
            if self.record_touches {
                self.touches.push(level.min(u8::MAX as usize) as u8);
            }
            let recomputed = self.mac.hash_words(Self::sibling_group(&self.levels[level], parent));
            if recomputed != self.levels[level + 1][parent] {
                return Err(TamperError { leaf, level: level + 1 });
            }
            let trusted = self.cache_hit(level + 1, parent);
            self.cache_touch(level + 1, parent);
            if trusted {
                break;
            }
            idx = parent;
        }
        self.cache_touch(0, leaf);
        Ok(stats)
    }

    fn corrupt_leaf_digest(&mut self, leaf: usize) {
        self.levels[0][leaf] ^= 0xdead_beef;
        if let Some(t) = self.cache.remove(&(0, leaf)) {
            self.lru.remove(&t);
        }
    }
}

fn merkle_soup(leaves: usize, capacity: usize, deferred: bool, seed: u64) {
    let key = (0x5eed, seed);
    let (mut fast, mut model) = if deferred {
        (
            MerkleTree::new(leaves, key, capacity).with_touch_log().with_deferred_maintenance(),
            MerkleModel::new(leaves, key, capacity).with_touch_log().with_deferred_maintenance(),
        )
    } else {
        (
            MerkleTree::new(leaves, key, capacity).with_touch_log(),
            MerkleModel::new(leaves, key, capacity).with_touch_log(),
        )
    };
    let mut rng = StdRng::seed_from_u64(seed);
    // The content each leaf currently holds, so most verifies pass and
    // walk upward; the rest present forged data.
    let mut content = vec![0u8; leaves];
    let mut fresh = vec![true; leaves];
    let (mut fast_touches, mut model_touches) = (Vec::new(), Vec::new());
    for step in 0..OPS {
        // Skew toward a hot set so the small caches hit as well as miss.
        let leaf = if rng.gen_bool(0.6) {
            rng.gen_range(0..leaves.min(24))
        } else {
            rng.gen_range(0..leaves)
        };
        match rng.gen_range(0..100u32) {
            0..=54 => {
                let byte = rng.gen();
                content[leaf] = byte;
                fresh[leaf] = false;
                let data = [byte; 9];
                assert_eq!(
                    fast.update_leaf(leaf, &data),
                    model.update_leaf(leaf, &data),
                    "update_leaf({leaf}), step {step}"
                );
            }
            55..=94 => {
                let (good, bad) = ([content[leaf]; 9], [content[leaf] ^ 1; 10]);
                let data: &[u8] = if rng.gen_bool(0.1) {
                    &bad
                } else if fresh[leaf] {
                    b""
                } else {
                    &good
                };
                assert_eq!(
                    fast.verify_leaf(leaf, data),
                    model.verify_leaf(leaf, data),
                    "verify_leaf({leaf}), step {step}"
                );
            }
            95..=98 => {
                assert_eq!(fast.flush(), model.flush(), "flush, step {step}");
                assert_eq!(fast.root(), model.root(), "root, step {step}");
            }
            _ => {
                // Tamper, prove both detect it, then repair the digest
                // with a fresh update.
                fast.corrupt_leaf_digest(leaf);
                model.corrupt_leaf_digest(leaf);
                let data = [content[leaf]; 9];
                let data: &[u8] = if fresh[leaf] { b"" } else { &data };
                let (f, m) = (fast.verify_leaf(leaf, data), model.verify_leaf(leaf, data));
                assert!(f.is_err(), "tamper undetected, step {step}");
                assert_eq!(f, m, "tampered verify, step {step}");
                assert_eq!(
                    fast.update_leaf(leaf, data),
                    model.update_leaf(leaf, data),
                    "repair, step {step}"
                );
            }
        }
        fast.drain_touches_into(&mut fast_touches);
        model.drain_touches_into(&mut model_touches);
        assert_eq!(fast_touches, model_touches, "touch log, step {step}");
    }
    fast.flush();
    model.flush();
    assert_eq!(fast.root(), model.root());
}

#[test]
fn merkle_walks_match_the_tick_model() {
    // 300 leaves = 4 levels; 512 nodes hold the whole tree, so that
    // capacity also covers the never-evicting case.
    for capacity in [0, 1, 7, 512] {
        merkle_soup(300, capacity, false, 31 + capacity as u64);
        merkle_soup(300, capacity, true, 41 + capacity as u64);
    }
    merkle_soup(1, 0, false, 51);
    merkle_soup(9, 1, true, 52);
}

// ---------------------------------------------------------------------
// TLB
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    pid: u64,
    vpn: u64,
    size_2m: bool,
}

/// One TLB level with a per-entry tick and a linear minimum search on
/// every insert into a full level.
struct LevelModel {
    entries: HashMap<Key, (TlbEntry, u64)>,
    capacity: usize,
    tick: u64,
}

impl LevelModel {
    fn new(capacity: usize) -> Self {
        Self { entries: HashMap::new(), capacity, tick: 0 }
    }

    fn get(&mut self, key: Key) -> Option<TlbEntry> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(&key).map(|(e, lru)| {
            *lru = tick;
            *e
        })
    }

    fn insert(&mut self, key: Key, entry: TlbEntry) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(slot) = self.entries.get_mut(&key) {
            *slot = (entry, tick);
            return;
        }
        if self.entries.len() >= self.capacity {
            if let Some((&victim, _)) = self.entries.iter().min_by_key(|(_, (_, lru))| *lru) {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(key, (entry, tick));
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

/// The former two-level TLB over [`LevelModel`]s.
struct TlbModel {
    l1_4k: LevelModel,
    l1_2m: LevelModel,
    l2: LevelModel,
    front: Option<(u64, u64, TlbEntry)>,
    stats: TlbStats,
}

impl TlbModel {
    fn new(config: TlbConfig) -> Self {
        config.validate().expect("invalid TLB config");
        Self {
            l1_4k: LevelModel::new(config.l1_entries_4k),
            l1_2m: LevelModel::new(config.l1_entries_2m),
            l2: LevelModel::new(config.l2_entries),
            front: None,
            stats: TlbStats::default(),
        }
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

    fn lookup(&mut self, pid: u64, va: VirtAddr) -> TlbOutcome {
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

    fn fill(&mut self, pid: u64, va: VirtAddr, entry: TlbEntry) {
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

    fn invalidate_page(&mut self, pid: u64, va: VirtAddr) {
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

    fn invalidate_pid(&mut self, pid: u64) {
        if matches!(self.front, Some((fpid, ..)) if fpid == pid) {
            self.front = None;
        }
        let mut n = 0;
        n += self.l1_4k.retain(|k| k.pid != pid);
        n += self.l1_2m.retain(|k| k.pid != pid);
        n += self.l2.retain(|k| k.pid != pid);
        self.stats.shootdowns += n as u64;
    }

    fn flush_all(&mut self) {
        self.front = None;
        let mut n = 0;
        n += self.l1_4k.retain(|_| false);
        n += self.l1_2m.retain(|_| false);
        n += self.l2.retain(|_| false);
        self.stats.shootdowns += n as u64;
    }
}

fn tlb_soup(config: TlbConfig, seed: u64) {
    tlb_soup_over(
        config,
        seed,
        |_| 0.2,
        |rng, _| {
            let pid = rng.gen_range(1..=3u64);
            // Addresses span 64 4K pages in each of 3 huge-page frames, so
            // every level sees both capacity evictions and re-hits.
            let huge = rng.gen_range(0..3u64) * PageSize::Huge2M.bytes();
            let va =
                VirtAddr::new(huge + rng.gen_range(0..64u64) * 4096 + rng.gen_range(0..4096u64));
            (pid, va, rng.gen_range(0..100u32))
        },
    );
}

/// Drives the production TLB and the model with one op per step:
/// `draw` picks the `(pid, va)` and an op roll in `0..100` (below 50 a
/// lookup, then a fill, a page shootdown, a pid shootdown and, at 99,
/// a full flush), and `huge_share(step)` is the chance that a fill
/// maps a 2 MB page. Returns the final statistics.
fn tlb_soup_over(
    config: TlbConfig,
    seed: u64,
    huge_share: impl Fn(usize) -> f64,
    mut draw: impl FnMut(&mut StdRng, usize) -> (u64, VirtAddr, u32),
) -> TlbStats {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fast = Tlb::new(config);
    let mut model = TlbModel::new(config);
    for step in 0..OPS {
        let (pid, va, roll) = draw(&mut rng, step);
        match roll {
            0..=49 => {
                assert_eq!(fast.lookup(pid, va), model.lookup(pid, va), "lookup, step {step}")
            }
            50..=84 => {
                let huge = rng.gen_bool(huge_share(step));
                let size = if huge { PageSize::Huge2M } else { PageSize::Regular4K };
                let entry = TlbEntry {
                    pa_base: PhysAddr::new(rng.gen_range(0..1024u64) * size.bytes()),
                    size,
                    writable: rng.gen_bool(0.5),
                };
                fast.fill(pid, va, entry);
                model.fill(pid, va, entry);
            }
            85..=95 => {
                fast.invalidate_page(pid, va);
                model.invalidate_page(pid, va);
            }
            96..=98 => {
                fast.invalidate_pid(pid);
                model.invalidate_pid(pid);
            }
            _ => {
                fast.flush_all();
                model.flush_all();
            }
        }
        assert_eq!(fast.stats(), model.stats, "stats, step {step}");
    }
    fast.stats()
}

#[test]
fn tlb_matches_the_scan_model() {
    let small =
        TlbConfig { l1_entries_4k: 4, l1_entries_2m: 2, l2_entries: 12, ..Default::default() };
    tlb_soup(small, 61);
    let tiny =
        TlbConfig { l1_entries_4k: 1, l1_entries_2m: 1, l2_entries: 1, ..Default::default() };
    tlb_soup(tiny, 62);
    let wide =
        TlbConfig { l1_entries_4k: 16, l1_entries_2m: 4, l2_entries: 48, ..Default::default() };
    tlb_soup(wide, 63);
}

/// The TLB levels hash trace-derived keys with a seeded multiply-fold
/// hasher. At the paper geometry (64/32/1536), keys built to stress it
/// must still give the model's answers: pids up to `u64::MAX`, VPNs
/// across the full 52-bit range, and VPN sets that differ only in
/// their high bits. A small hot set keeps L1 and front-cache hits in
/// the mix; the 6,144 cold keys overflow L2, and pid or whole-TLB
/// shootdowns are rare enough (one op in 5,000) that it fills between
/// them.
#[test]
fn tlb_matches_the_scan_model_on_hostile_keys() {
    const PIDS: [u64; 6] = [0, 1, 1 << 32, 1 << 63, u64::MAX - 1, u64::MAX];
    const VPN_MAX: u64 = (1 << 52) - 1;
    let mut pool_rng = StdRng::seed_from_u64(64);
    let vpns: Vec<u64> = (0..256u64)
        .map(|i| i << 40)
        .chain((0..256u64).map(|i| 1 << 51 | i << 43))
        .chain((0..256u64).map(|i| VPN_MAX - i))
        .chain((0..256).map(|_| pool_rng.gen::<u64>() & VPN_MAX))
        .collect();
    let stats = tlb_soup_over(
        TlbConfig::default(),
        65,
        |_| 0.2,
        |rng, _| {
            let (pid, vpn) = if rng.gen_bool(0.5) {
                (PIDS[rng.gen_range(0..2)], vpns[rng.gen_range(0..48)])
            } else {
                (PIDS[rng.gen_range(0..PIDS.len())], vpns[rng.gen_range(0..vpns.len())])
            };
            let roll = match rng.gen_range(0..10_000u32) {
                0..=4_999 => 0,
                5_000..=8_999 => 50,
                9_000..=9_997 => 85,
                9_998 => 96,
                _ => 99,
            };
            (pid, VirtAddr::new(vpn * 4096 + rng.gen_range(0..4096u64)), roll)
        },
    );
    assert!(stats.l1_hits > stats.front_hits && stats.l2_hits > 0, "{stats:?}");
}

/// The TLB skips its 2 MB probes until a 2 MB entry is filled and
/// again after a full flush. The soup runs in quarters: 4 KB fills
/// only, then one fill in five mapping 2 MB, a full flush, 4 KB fills
/// only again, and a mixed quarter. The 4 KB-only quarters draw no
/// flush, so their lookups see a TLB that has never held (or no longer
/// holds) a 2 MB entry, with both L2 hits and walks.
#[test]
fn tlb_matches_the_scan_model_around_the_first_2m_fill() {
    let quarter = OPS / 4;
    let four_k_only = |step: usize| step < quarter || (2 * quarter..3 * quarter).contains(&step);
    let config =
        TlbConfig { l1_entries_4k: 4, l1_entries_2m: 2, l2_entries: 12, ..Default::default() };
    let stats = tlb_soup_over(
        config,
        66,
        |step| if four_k_only(step) { 0.0 } else { 0.2 },
        |rng, step| {
            let pid = rng.gen_range(1..=3u64);
            let huge = rng.gen_range(0..3u64) * PageSize::Huge2M.bytes();
            let va =
                VirtAddr::new(huge + rng.gen_range(0..64u64) * 4096 + rng.gen_range(0..4096u64));
            let roll = rng.gen_range(0..100u32);
            let roll = match step {
                _ if step == 2 * quarter => 99,
                _ if four_k_only(step) => roll.min(98),
                _ => roll,
            };
            (pid, va, roll)
        },
    );
    assert!(stats.l2_hits > 0 && stats.walks > 0 && stats.l1_hits > stats.front_hits, "{stats:?}");
}

// ---------------------------------------------------------------------
// NVM write queue
// ---------------------------------------------------------------------

/// The queue that scanned its full `PendingWrite` entries. Queued line
/// bytes live in the device's line store, so the model, like the
/// queue, holds addresses and enqueue times only.
struct WriteQueueModel {
    entries: VecDeque<PendingWrite>,
    capacity: usize,
    stats: WriteQueueStats,
}

impl WriteQueueModel {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "write queue needs capacity");
        Self {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            stats: WriteQueueStats::default(),
        }
    }

    fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    fn push(&mut self, addr: PhysAddr, now: Cycles) -> Option<PendingWrite> {
        let addr = addr.line_align();
        self.stats.enqueued += 1;
        if let Some(existing) = self.entries.iter_mut().find(|e| e.addr == addr) {
            existing.enqueued_at = now;
            self.stats.merged += 1;
            return None;
        }
        let drained = if self.is_full() {
            self.stats.capacity_drains += 1;
            self.entries.pop_front()
        } else {
            None
        };
        self.entries.push_back(PendingWrite { addr, enqueued_at: now });
        drained
    }

    fn forward(&mut self, addr: PhysAddr) -> bool {
        let addr = addr.line_align();
        let hit = self.entries.iter().any(|e| e.addr == addr);
        if hit {
            self.stats.forwarded_reads += 1;
        }
        hit
    }

    fn pop(&mut self) -> Option<PendingWrite> {
        self.entries.pop_front()
    }

    fn discard(&mut self, addr: PhysAddr) -> bool {
        let addr = addr.line_align();
        let before = self.entries.len();
        self.entries.retain(|e| e.addr != addr);
        self.entries.len() != before
    }

    fn drain_all(&mut self) -> Vec<PendingWrite> {
        self.entries.drain(..).collect()
    }
}

#[test]
fn write_queue_matches_the_entry_scan_model() {
    // Lines 64 KiB apart share one of the queue's index buckets. At the
    // paper's 64 entries, eight alias classes of lines put three or
    // more queued lines in one bucket.
    let cases = [(1usize, 71u64, 3), (4, 72, 3), (16, 73, 3), (64, 74, 3), (64, 75, 8)];
    for (capacity, seed, aliases) in cases {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut fast = WriteQueue::new(capacity);
        let mut model = WriteQueueModel::new(capacity);
        let lines = capacity as u64 * 2 + 3;
        let mut most_sharing_a_bucket = 0;
        for step in 0..OPS {
            // Unaligned addresses exercise the line alignment too.
            let alias = rng.gen_range(0..aliases) << 16;
            let addr =
                PhysAddr::new(alias + rng.gen_range(0..lines) * 64 + rng.gen_range(0..64u64));
            let now = Cycles::new(step as u64);
            match rng.gen_range(0..100u32) {
                0..=54 => {
                    assert_eq!(fast.push(addr, now), model.push(addr, now), "push, step {step}")
                }
                55..=84 => {
                    assert_eq!(fast.forward(addr), model.forward(addr), "forward, step {step}")
                }
                85..=91 => {
                    assert_eq!(fast.discard(addr), model.discard(addr), "discard, step {step}")
                }
                92..=97 => assert_eq!(fast.pop(), model.pop(), "pop, step {step}"),
                _ => assert_eq!(fast.drain_all(), model.drain_all(), "drain_all, step {step}"),
            }
            assert_eq!(fast.len(), model.entries.len(), "len, step {step}");
            assert_eq!(fast.is_full(), model.is_full(), "is_full, step {step}");
            assert_eq!(fast.stats(), model.stats, "stats, step {step}");
            let mut per_bucket = HashMap::new();
            for e in &model.entries {
                *per_bucket.entry(e.addr.as_u64() >> 6 & 1023).or_insert(0) += 1;
            }
            most_sharing_a_bucket = per_bucket.into_values().fold(most_sharing_a_bucket, u32::max);
        }
        assert_eq!(fast.drain_all(), model.drain_all());
        if aliases == 8 {
            assert!(
                most_sharing_a_bucket >= 3,
                "{most_sharing_a_bucket} lines at most in a bucket"
            );
        }
    }
}

// ---------------------------------------------------------------------
// CPU cache hierarchy
// ---------------------------------------------------------------------

/// A cached way with its line data inline.
#[derive(Debug, Clone)]
struct Way {
    tag: u64,
    data: [u8; 64],
    dirty: bool,
    lru_tick: u64,
}

/// The level that kept a copy of each line's bytes in every way and
/// evicted the minimum access tick.
struct SetAssocModel {
    config: CacheConfig,
    sets: Vec<Vec<Way>>,
    set_mask: u64,
    tick: u64,
    stats: CacheStats,
}

impl SetAssocModel {
    fn new(config: CacheConfig) -> Self {
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

    fn set_and_tag(&self, addr: PhysAddr) -> (usize, u64) {
        let line = addr.line_align().as_u64() / 64;
        ((line & self.set_mask) as usize, line >> self.set_mask.count_ones())
    }

    fn lookup(&mut self, addr: PhysAddr) -> Option<[u8; 64]> {
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

    fn probe(&self, addr: PhysAddr) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.sets[set].iter().any(|w| w.tag == tag)
    }

    fn write_hit(&mut self, addr: PhysAddr, bytes: &[u8]) -> bool {
        let offset = addr.line_offset();
        assert!(offset + bytes.len() <= 64, "write crosses line boundary");
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

    fn insert(&mut self, addr: PhysAddr, data: [u8; 64], dirty: bool) -> Option<ModelEvicted> {
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
            Some(ModelEvicted {
                addr: self.reconstruct_addr(set, w.tag),
                data: w.data,
                dirty: w.dirty,
            })
        } else {
            None
        };
        self.sets[set].push(Way { tag, data, dirty, lru_tick: tick });
        victim
    }

    fn reconstruct_addr(&self, set: usize, tag: u64) -> PhysAddr {
        let line = (tag << self.set_mask.count_ones()) | set as u64;
        PhysAddr::new(line * 64)
    }

    fn refresh(&mut self, addr: PhysAddr, data: &[u8; 64]) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        match self.sets[set].iter_mut().find(|w| w.tag == tag) {
            Some(way) => {
                way.data = *data;
                true
            }
            None => false,
        }
    }

    fn invalidate(&mut self, addr: PhysAddr) -> Option<ModelEvicted> {
        let (set, tag) = self.set_and_tag(addr);
        let idx = self.sets[set].iter().position(|w| w.tag == tag)?;
        let w = self.sets[set].swap_remove(idx);
        self.stats.invalidations += 1;
        Some(ModelEvicted { addr: self.reconstruct_addr(set, w.tag), data: w.data, dirty: w.dirty })
    }

    fn take_dirty(&mut self, addr: PhysAddr) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        match self.sets[set].iter_mut().find(|w| w.tag == tag) {
            Some(way) => std::mem::take(&mut way.dirty),
            None => false,
        }
    }

    fn clear(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }

    fn drain_dirty(&mut self) -> Vec<(PhysAddr, [u8; 64])> {
        let set_bits = self.set_mask.count_ones();
        let mut out = Vec::new();
        for (set, ways) in self.sets.iter_mut().enumerate() {
            for way in ways {
                if way.dirty {
                    way.dirty = false;
                    let line = (way.tag << set_bits) | set as u64;
                    out.push((PhysAddr::new(line * 64), way.data));
                }
            }
        }
        out
    }
}

/// A victim with its bytes.
struct ModelEvicted {
    addr: PhysAddr,
    data: [u8; 64],
    dirty: bool,
}

/// The hierarchy over levels that each held their own copy of a line.
struct HierarchyModel {
    l1: SetAssocModel,
    l2: SetAssocModel,
    l3: SetAssocModel,
    config: HierarchyConfig,
}

impl HierarchyModel {
    fn new(config: HierarchyConfig) -> Self {
        Self {
            l1: SetAssocModel::new(config.l1),
            l2: SetAssocModel::new(config.l2),
            l3: SetAssocModel::new(config.l3),
            config,
        }
    }

    fn stats(&self) -> HierarchyStats {
        HierarchyStats { l1: self.l1.stats, l2: self.l2.stats, l3: self.l3.stats }
    }

    fn absorb_victim(
        &mut self,
        level: usize,
        victim: ModelEvicted,
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
                backend.write_line(victim.addr, victim.data, now);
            }
        }
    }

    fn fill(
        &mut self,
        addr: PhysAddr,
        now: Cycles,
        backend: &mut dyn LineBackend,
    ) -> ([u8; 64], Cycles) {
        let line = addr.line_align();
        let l1_lat = Cycles::new(self.config.l1.latency);
        let l2_lat = Cycles::new(self.config.l2.latency);
        let l3_lat = Cycles::new(self.config.l3.latency);

        if let Some(data) = self.l1.lookup(line) {
            return (data, now + l1_lat);
        }
        if let Some(data) = self.l2.lookup(line) {
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

    fn load(
        &mut self,
        addr: PhysAddr,
        len: usize,
        now: Cycles,
        backend: &mut dyn LineBackend,
    ) -> (Vec<u8>, Cycles) {
        let offset = addr.line_offset();
        assert!(offset + len <= 64, "load crosses line boundary");
        let (data, done) = self.fill(addr, now, backend);
        (data[offset..offset + len].to_vec(), done)
    }

    fn load_line(
        &mut self,
        addr: PhysAddr,
        now: Cycles,
        backend: &mut dyn LineBackend,
    ) -> ([u8; 64], Cycles) {
        self.fill(addr, now, backend)
    }

    fn store(
        &mut self,
        addr: PhysAddr,
        bytes: &[u8],
        now: Cycles,
        backend: &mut dyn LineBackend,
    ) -> Cycles {
        let offset = addr.line_offset();
        assert!(offset + bytes.len() <= 64, "store crosses line boundary");
        if self.l1.write_hit(addr, bytes) {
            self.l1.lookup(addr.line_align()); // LRU touch & hit accounting
            return now + Cycles::new(self.config.l1.latency);
        }
        let (_, fill_done) = self.fill(addr, now, backend);
        let ok = self.l1.write_hit(addr, bytes);
        assert!(ok, "line was just filled");
        fill_done + Cycles::new(self.config.l1.latency)
    }

    fn flush_range(
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
            offset += 64;
        }
        done
    }

    fn invalidate_range(&mut self, start: PhysAddr, len: u64) -> u64 {
        let base = start.line_align();
        let mut offset = 0;
        let mut resident = 0;
        while offset < len {
            let line = base + offset;
            resident += u64::from(self.l1.invalidate(line).is_some());
            resident += u64::from(self.l2.invalidate(line).is_some());
            resident += u64::from(self.l3.invalidate(line).is_some());
            offset += 64;
        }
        resident
    }

    fn writeback_all(&mut self, now: Cycles, backend: &mut dyn LineBackend) -> Cycles {
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

    fn clear_all(&mut self) {
        self.l1.clear();
        self.l2.clear();
        self.l3.clear();
    }

    fn probe(&self, addr: PhysAddr) -> bool {
        let line = addr.line_align();
        self.l1.probe(line) || self.l2.probe(line) || self.l3.probe(line)
    }
}

/// One backend call, in the order the hierarchy made it.
#[derive(Debug, Clone, PartialEq, Eq)]
enum BackendCall {
    Read(PhysAddr, Cycles),
    Write(PhysAddr, [u8; 64], Cycles),
}

/// A memory that logs every call and answers with address-dependent
/// latencies, so a reordered or retimed call shows.
#[derive(Default)]
struct LoggingBackend {
    mem: HashMap<u64, [u8; 64]>,
    log: Vec<BackendCall>,
}

impl LineBackend for LoggingBackend {
    fn read_line(&mut self, addr: PhysAddr, now: Cycles) -> ([u8; 64], Cycles) {
        self.log.push(BackendCall::Read(addr, now));
        let fresh = [(addr.as_u64() / 64) as u8; 64];
        let data = self.mem.get(&addr.as_u64()).copied().unwrap_or(fresh);
        (data, now + Cycles::new(60 + addr.as_u64() / 64 % 7))
    }

    fn write_line(&mut self, addr: PhysAddr, data: [u8; 64], now: Cycles) -> Cycles {
        self.log.push(BackendCall::Write(addr, data, now));
        self.mem.insert(addr.as_u64(), data);
        now + Cycles::new(150 + addr.as_u64() / 64 % 5)
    }
}

/// Drives the production hierarchy and the model with the same seeded
/// operations over `lines` (line numbers), comparing returned bytes
/// and times, the backend logs, per-level stats, per-level residency
/// and the number of distinct lines held after every step.
fn cache_soup(config: HierarchyConfig, lines: &[u64], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fast = CacheHierarchy::new(config);
    let mut model = HierarchyModel::new(config);
    let (mut fast_mem, mut model_mem) = (LoggingBackend::default(), LoggingBackend::default());
    let mut now = Cycles::ZERO;
    for step in 0..OPS {
        now += Cycles::new(rng.gen_range(0..40u64));
        let line = PhysAddr::new(lines[rng.gen_range(0..lines.len())] * 64);
        let offset = rng.gen_range(0..64u64);
        let addr = line + offset;
        let len = rng.gen_range(1..=64 - offset as usize);
        match rng.gen_range(0..100u32) {
            0..=29 => {
                let (line, done) = fast.load_line(addr, now, &mut fast_mem);
                let at = addr.line_offset();
                assert_eq!(
                    (line[at..at + len].to_vec(), done),
                    model.load(addr, len, now, &mut model_mem),
                    "load, step {step}"
                );
            }
            30..=44 => assert_eq!(
                fast.load_line(addr, now, &mut fast_mem),
                model.load_line(addr, now, &mut model_mem),
                "load_line, step {step}"
            ),
            45..=89 => {
                let bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                assert_eq!(
                    fast.store(addr, &bytes, now, &mut fast_mem),
                    model.store(addr, &bytes, now, &mut model_mem),
                    "store, step {step}"
                );
            }
            90..=93 => {
                let bytes = rng.gen_range(1..=8u64) * 64;
                assert_eq!(
                    fast.flush_range(addr, bytes, now, &mut fast_mem),
                    model.flush_range(addr, bytes, now, &mut model_mem),
                    "flush_range, step {step}"
                );
            }
            94..=96 => {
                let bytes = rng.gen_range(1..=8u64) * 64;
                assert_eq!(
                    fast.invalidate_range(addr, bytes),
                    model.invalidate_range(addr, bytes),
                    "invalidate_range, step {step}"
                );
            }
            97..=98 => assert_eq!(
                fast.writeback_all(now, &mut fast_mem),
                model.writeback_all(now, &mut model_mem),
                "writeback_all, step {step}"
            ),
            _ => {
                fast.clear_all();
                model.clear_all();
            }
        }
        assert_eq!(fast_mem.log, model_mem.log, "backend log, step {step}");
        assert_eq!(fast.stats(), model.stats(), "stats, step {step}");
        // Lines a level holds: a sum over its sets, or a probe of each
        // line of the soup where that is shorter.
        let held = |level: &SetAssocModel| {
            if level.sets.len() <= lines.len() {
                level.sets.iter().map(Vec::len).sum()
            } else {
                lines.iter().filter(|&&l| level.probe(PhysAddr::new(l * 64))).count()
            }
        };
        let model_resident = [held(&model.l1), held(&model.l2), held(&model.l3)];
        assert_eq!(fast.resident_lines(), model_resident, "resident lines, step {step}");
        let distinct = lines.iter().filter(|&&l| model.probe(PhysAddr::new(l * 64))).count();
        assert_eq!(fast.distinct_lines(), distinct, "distinct lines, step {step}");
    }
    // Every line the model would write back, with the bytes it holds.
    assert_eq!(fast.writeback_all(now, &mut fast_mem), model.writeback_all(now, &mut model_mem));
    assert_eq!(fast_mem.log, model_mem.log);
}

#[test]
fn tiny_cache_hierarchy_matches_the_inline_data_model() {
    // 8/32/64 sets; the footprint is twice the L3.
    let lines: Vec<u64> = (0..512).collect();
    cache_soup(HierarchyConfig::tiny(), &lines, 81);
}

#[test]
fn paper_cache_hierarchy_matches_the_inline_data_model() {
    // 24 tags in each of 4 sets of every level (lines 1 MiB apart
    // share a set in L1, L2 and L3).
    let lines: Vec<u64> = (0..4).flat_map(|set| (0..24).map(move |t| set + t * 16384)).collect();
    cache_soup(HierarchyConfig::default(), &lines, 82);
}

#[test]
fn one_set_cache_hierarchy_matches_the_inline_data_model() {
    // One set per level, so every miss conflicts.
    let one_set = HierarchyConfig {
        l1: CacheConfig { size_bytes: 2 * 64, ways: 2, latency: 2 },
        l2: CacheConfig { size_bytes: 4 * 64, ways: 4, latency: 8 },
        l3: CacheConfig { size_bytes: 8 * 64, ways: 8, latency: 25 },
    };
    let lines: Vec<u64> = (0..24).collect();
    cache_soup(one_set, &lines, 83);
}
