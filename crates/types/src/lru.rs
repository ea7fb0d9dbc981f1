//! A slab-backed LRU map: O(1) lookup, promote, insert and eviction.
//!
//! The simulator's small fully-associative on-chip structures (the MAC
//! cache, the Merkle node cache, the CoW cache, the TLB levels) all
//! need "find this key, make it most recent" and "drop the least
//! recent". [`LruMap`] keeps the entries in a slab (`Vec`) threaded by
//! an intrusive doubly-linked recency list of `u32` slot links, with a
//! key → slot index beside it. Freed slots chain into a free list and
//! are reused, so a full map never reallocates.
//!
//! Recency is a strict total order, exactly like a strictly increasing
//! access tick: the list head is the entry with the largest tick and
//! the tail the one with the smallest, so [`LruMap::pop_lru`] evicts
//! the entry a minimum-tick search would pick.
//!
//! The map has no capacity of its own; each caller decides when to
//! evict, which keeps their edge cases (insert-then-evict versus
//! evict-then-insert) where they belong.
//!
//! # Examples
//!
//! ```
//! use lelantus_types::lru::LruMap;
//!
//! let mut m: LruMap<u64, &str> = LruMap::default();
//! m.insert(1, "a");
//! m.insert(2, "b");
//! m.get(&1); // 1 is now the most recent
//! assert_eq!(m.pop_lru(), Some((2, "b")));
//! assert_eq!(m.len(), 1);
//! ```

use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};

/// Null slot link.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Slot<K, V> {
    key: K,
    value: V,
    /// Next more recent slot (NIL at the head).
    prev: u32,
    /// Next less recent slot (NIL at the tail); the free-list link for
    /// a freed slot.
    next: u32,
}

/// An LRU-ordered map with O(1) operations (see the module docs).
#[derive(Debug, Clone)]
pub struct LruMap<K, V, S = RandomState> {
    index: HashMap<K, u32, S>,
    slots: Vec<Slot<K, V>>,
    /// Most recently used slot.
    head: u32,
    /// Least recently used slot.
    tail: u32,
    /// First free slot.
    free: u32,
}

impl<K, V, S: Default> Default for LruMap<K, V, S> {
    fn default() -> Self {
        Self::with_hasher(S::default())
    }
}

impl<K, V, S> LruMap<K, V, S> {
    /// An empty map whose index hashes with `hasher`.
    pub fn with_hasher(hasher: S) -> Self {
        Self {
            index: HashMap::with_hasher(hasher),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            free: NIL,
        }
    }
}

impl<K, V, S> LruMap<K, V, S>
where
    K: Copy + Eq + Hash,
    V: Copy,
    S: BuildHasher,
{
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Looks `key` up and makes it the most recent entry.
    pub fn get(&mut self, key: &K) -> Option<&mut V> {
        let i = *self.index.get(key)?;
        self.promote(i);
        Some(&mut self.slots[i as usize].value)
    }

    /// Looks `key` up without changing recency.
    pub fn peek_mut(&mut self, key: &K) -> Option<&mut V> {
        let i = *self.index.get(key)?;
        Some(&mut self.slots[i as usize].value)
    }

    /// The least recently used key (the one [`LruMap::pop_lru`] would
    /// remove), without changing recency.
    pub fn lru_key(&self) -> Option<K> {
        (self.tail != NIL).then(|| self.slots[self.tail as usize].key)
    }

    /// Makes `key` the most recent entry, storing `value`. Returns the
    /// value it replaced, if `key` was present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.index.entry(key) {
            Entry::Occupied(e) => {
                let i = *e.get();
                let old = std::mem::replace(&mut self.slots[i as usize].value, value);
                self.promote(i);
                Some(old)
            }
            Entry::Vacant(e) => {
                let slot = Slot { key, value, prev: NIL, next: NIL };
                let i = if self.free == NIL {
                    let i = u32::try_from(self.slots.len())
                        .ok()
                        .filter(|&i| i != NIL)
                        .expect("LruMap holds fewer than u32::MAX entries");
                    self.slots.push(slot);
                    i
                } else {
                    let i = self.free;
                    self.free = self.slots[i as usize].next;
                    self.slots[i as usize] = slot;
                    i
                };
                e.insert(i);
                self.push_front(i);
                None
            }
        }
    }

    /// Removes and returns the least recently used entry.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        if self.tail == NIL {
            return None;
        }
        let slot = &self.slots[self.tail as usize];
        let (key, value) = (slot.key, slot.value);
        self.remove(&key);
        Some((key, value))
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.index.remove(key)?;
        self.unlink(i);
        let slot = &mut self.slots[i as usize];
        slot.next = self.free;
        self.free = i;
        Some(slot.value)
    }

    /// Keeps only the entries for which `keep` returns true, visiting
    /// them from most to least recent. Survivors keep their order.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        let mut i = self.head;
        while i != NIL {
            let slot = &mut self.slots[i as usize];
            let next = slot.next;
            if !keep(&slot.key, &mut slot.value) {
                let key = slot.key;
                self.remove(&key);
            }
            i = next;
        }
    }

    /// Calls `f` on every entry, from most to least recent, without
    /// changing recency.
    pub fn for_each_mut(&mut self, mut f: impl FnMut(&K, &mut V)) {
        self.retain(|k, v| {
            f(k, v);
            true
        });
    }

    /// Removes every entry (keeps the allocations).
    pub fn clear(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
        self.free = NIL;
    }

    fn unlink(&mut self, i: u32) {
        let Slot { prev, next, .. } = self.slots[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, i: u32) {
        let old = self.head;
        let slot = &mut self.slots[i as usize];
        slot.prev = NIL;
        slot.next = old;
        match old {
            NIL => self.tail = i,
            h => self.slots[h as usize].prev = i,
        }
        self.head = i;
    }

    fn promote(&mut self, i: u32) {
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::BuildIndexHasher;
    use std::collections::BTreeMap;

    /// The keys from most to least recent.
    fn keys<S>(m: &LruMap<u64, u32, S>) -> Vec<u64> {
        let mut out = Vec::new();
        let mut i = m.head;
        while i != NIL {
            out.push(m.slots[i as usize].key);
            i = m.slots[i as usize].next;
        }
        out
    }

    /// The structure this type replaces: a strictly increasing tick per
    /// touch, evicting the minimum.
    #[derive(Default)]
    struct TickModel {
        tick: u64,
        entries: HashMap<u64, (u32, u64)>,
        order: BTreeMap<u64, u64>,
    }

    impl TickModel {
        fn touch(&mut self, key: u64, value: Option<u32>) -> Option<u32> {
            self.tick += 1;
            let e = self.entries.get_mut(&key);
            match (e, value) {
                (Some(e), v) => {
                    self.order.remove(&e.1);
                    e.1 = self.tick;
                    self.order.insert(self.tick, key);
                    let old = e.0;
                    if let Some(v) = v {
                        e.0 = v;
                    }
                    Some(old)
                }
                (None, Some(v)) => {
                    self.entries.insert(key, (v, self.tick));
                    self.order.insert(self.tick, key);
                    None
                }
                (None, None) => None,
            }
        }

        fn pop_lru(&mut self) -> Option<(u64, u32)> {
            let (_, k) = self.order.pop_first()?;
            Some((k, self.entries.remove(&k).expect("present").0))
        }

        fn remove(&mut self, key: u64) -> Option<u32> {
            let (v, t) = self.entries.remove(&key)?;
            self.order.remove(&t);
            Some(v)
        }
    }

    #[test]
    fn recency_order_and_eviction() {
        let mut m: LruMap<u64, u32> = LruMap::default();
        for k in 0..4 {
            assert_eq!(m.insert(k, k as u32), None);
        }
        assert_eq!(keys(&m), vec![3, 2, 1, 0]);
        assert_eq!(m.get(&1).copied(), Some(1));
        assert_eq!(m.insert(2, 20), Some(2));
        assert_eq!(keys(&m), vec![2, 1, 3, 0]);
        *m.peek_mut(&0).expect("resident") = 7;
        assert_eq!(m.peek_mut(&9), None);
        assert_eq!(keys(&m), vec![2, 1, 3, 0], "peek_mut must not promote");
        assert_eq!(m.lru_key(), Some(0));
        assert_eq!(m.pop_lru(), Some((0, 7)));
        assert_eq!(m.remove(&1), Some(1));
        assert_eq!(m.remove(&1), None);
        assert_eq!(keys(&m), vec![2, 3]);
        assert_eq!(m.len(), 2);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.pop_lru(), None);
        assert_eq!(m.lru_key(), None);
        assert_eq!(keys(&m).len(), 0);
    }

    #[test]
    fn freed_slots_are_reused() {
        let mut m: LruMap<u64, u32> = LruMap::default();
        for k in 0..8 {
            m.insert(k, 0);
        }
        for k in 0..8 {
            m.remove(&k);
        }
        for k in 8..16 {
            m.insert(k, 0);
        }
        assert_eq!(m.slots.len(), 8, "slab must not grow past its high-water mark");
    }

    #[test]
    fn retain_and_for_each_mut_keep_order() {
        let mut m: LruMap<u64, u32> = LruMap::default();
        for k in 0..10 {
            m.insert(k, k as u32);
        }
        m.retain(|k, _| k % 3 != 0);
        assert_eq!(keys(&m), vec![8, 7, 5, 4, 2, 1]);
        m.for_each_mut(|_, v| *v += 100);
        assert_eq!(m.get(&5).copied(), Some(105));
        assert_eq!(keys(&m), vec![5, 8, 7, 4, 2, 1]);
        m.retain(|_, _| false);
        assert!(m.is_empty());
        assert_eq!(m.pop_lru(), None);
    }

    #[test]
    fn op_soup_matches_the_tick_model() {
        // A fixed LCG keeps the soup reproducible without a dependency.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |n: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let mut m: LruMap<u64, u32, BuildIndexHasher> = LruMap::default();
        let mut model = TickModel::default();
        for step in 0..20_000 {
            let key = next(24);
            match next(4) {
                0 => assert_eq!(m.get(&key).copied(), model.touch(key, None), "get {step}"),
                1 | 2 => {
                    let v = step as u32;
                    assert_eq!(m.insert(key, v), model.touch(key, Some(v)), "insert {step}");
                    if m.len() > 12 {
                        assert_eq!(m.pop_lru(), model.pop_lru(), "evict {step}");
                    }
                }
                _ => assert_eq!(m.remove(&key), model.remove(key), "remove {step}"),
            }
            assert_eq!(m.len(), model.entries.len());
        }
        let by_tick: Vec<u64> = model.order.values().rev().copied().collect();
        assert_eq!(keys(&m), by_tick);
    }
}
