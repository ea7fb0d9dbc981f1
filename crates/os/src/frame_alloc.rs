//! A buddy allocator over physical page frames.
//!
//! Manages the OS-visible data area in power-of-two blocks from 4 KB
//! (order 0) up to 2 MB (order 9, a huge page) and beyond, with the
//! classic split-on-alloc / merge-on-free discipline. This is the
//! substrate behind `alloc_page()` in the fault handlers.
//!
//! Free blocks live in per-order hierarchical bitmaps ([`BitTree`]:
//! one bit per block, 64-way summary words stacked until a single root
//! word). Push/pop/buddy-merge are word operations plus an O(levels)
//! summary update — effectively O(1) — and `find_first` descends the
//! summaries, so allocation returns the *lowest free offset at the
//! smallest sufficient order*, exactly the choice `BTreeSet` free
//! lists make with `iter().next()`. (A LIFO intrusive free list would
//! be O(1) too, but would hand out different addresses; the bitmap
//! keeps address selection deterministic.) Double-free detection is a
//! per-frame tag byte. The property test below checks every address
//! choice against a `BTreeSet` free-list model.

use lelantus_types::PhysAddr;

/// Smallest block: one 4 KB frame.
pub const BASE_ORDER_BYTES: u64 = 4096;

/// Largest supported order (order 11 = 8 MB), comfortably above huge
/// pages (order 9 = 2 MB).
pub const MAX_ORDER: u32 = 11;

/// Hierarchical bitmap over `nbits` slots: level 0 is one bit per
/// slot; each level above summarizes 64 words of the level below
/// (bit j set ⇔ word j is non-zero), up to a single root word.
/// `find_first` descends root→leaf via trailing-zero counts, so it
/// returns the lowest set bit in O(levels).
#[derive(Debug, Clone)]
struct BitTree {
    /// `levels[0]` are the leaf words; the last level is one word.
    levels: Vec<Vec<u64>>,
    count: usize,
}

impl BitTree {
    fn new(nbits: usize) -> Self {
        let mut levels = Vec::new();
        let mut len = nbits.max(1).div_ceil(64);
        levels.push(vec![0u64; len]);
        while len > 1 {
            len = len.div_ceil(64);
            levels.push(vec![0u64; len]);
        }
        Self { levels, count: 0 }
    }

    /// Sets bit `i` (must be clear).
    fn set(&mut self, i: usize) {
        let (mut word, mut bit) = (i / 64, i % 64);
        debug_assert_eq!(self.levels[0][word] & (1 << bit), 0, "bit already set");
        for level in &mut self.levels {
            let was = level[word];
            level[word] = was | 1 << bit;
            if was != 0 {
                break; // summaries above are already set
            }
            (word, bit) = (word / 64, word % 64);
        }
        self.count += 1;
    }

    /// Clears bit `i` if set; returns whether it was set.
    fn test_and_clear(&mut self, i: usize) -> bool {
        let (mut word, mut bit) = (i / 64, i % 64);
        if self.levels[0][word] & (1 << bit) == 0 {
            return false;
        }
        for level in &mut self.levels {
            level[word] &= !(1 << bit);
            if level[word] != 0 {
                break; // word still non-empty: summaries stay set
            }
            (word, bit) = (word / 64, word % 64);
        }
        self.count -= 1;
        true
    }

    /// Index of the lowest set bit, if any.
    fn find_first(&self) -> Option<usize> {
        if self.levels.last().expect("at least one level")[0] == 0 {
            return None;
        }
        let mut word = 0usize;
        for level in self.levels.iter().rev() {
            word = word * 64 + level[word].trailing_zeros() as usize;
        }
        Some(word)
    }

    fn len(&self) -> usize {
        self.count
    }
}

/// A power-of-two buddy allocator.
///
/// # Examples
///
/// ```
/// use lelantus_os::BuddyAllocator;
///
/// let mut buddy = BuddyAllocator::new(0x0, 1 << 20); // 1 MiB arena
/// let frame = buddy.alloc(0).expect("a 4 KB frame");
/// buddy.free(frame, 0);
/// assert_eq!(buddy.free_bytes(), 1 << 20);
/// ```
#[derive(Debug, Clone)]
pub struct BuddyAllocator {
    base: u64,
    total_bytes: u64,
    free_bytes: u64,
    /// `trees[order]`: bit `b` set ⇔ block at offset
    /// `b * order_bytes(order)` is free at that order.
    trees: Vec<BitTree>,
    /// Per-frame allocation tag: `order + 1` at the first frame of a
    /// live allocation, 0 otherwise.
    alloc_tag: Vec<u8>,
}

impl BuddyAllocator {
    /// Creates an allocator over `[base, base + bytes)`.
    ///
    /// # Panics
    ///
    /// Panics if `base`/`bytes` are not multiples of 4 KB or `bytes`
    /// is zero.
    pub fn new(base: u64, bytes: u64) -> Self {
        assert!(bytes > 0 && bytes.is_multiple_of(BASE_ORDER_BYTES), "arena must be whole frames");
        assert!(base.is_multiple_of(BASE_ORDER_BYTES), "base must be frame-aligned");
        let trees = (0..=MAX_ORDER)
            .map(|o| BitTree::new((bytes / Self::order_bytes(o)) as usize))
            .collect();
        let alloc_tag = vec![0u8; (bytes / BASE_ORDER_BYTES) as usize];
        let mut a = Self { base, total_bytes: bytes, free_bytes: 0, trees, alloc_tag };
        // Seed with maximal aligned blocks.
        let mut offset = 0;
        while offset < bytes {
            let order = max_aligned_order(offset, bytes);
            a.push_free(order, offset);
            a.free_bytes += Self::order_bytes(order);
            offset += Self::order_bytes(order);
        }
        a
    }

    /// Bytes in a block of `order`.
    pub fn order_bytes(order: u32) -> u64 {
        BASE_ORDER_BYTES << order
    }

    /// Order needed for an allocation of `bytes`.
    pub fn order_for_bytes(bytes: u64) -> u32 {
        let mut order = 0;
        while Self::order_bytes(order) < bytes {
            order += 1;
        }
        order
    }

    /// Bytes currently free.
    pub fn free_bytes(&self) -> u64 {
        self.free_bytes
    }

    /// Total arena size.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    #[inline]
    fn push_free(&mut self, order: u32, offset: u64) {
        self.trees[order as usize].set((offset / Self::order_bytes(order)) as usize);
    }

    /// Allocates a block of `order`, splitting larger blocks as needed.
    /// Returns `None` when no block is available. The block chosen is
    /// the lowest free offset at the smallest sufficient order, so
    /// allocation addresses are deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `order > MAX_ORDER`.
    pub fn alloc(&mut self, order: u32) -> Option<PhysAddr> {
        assert!(order <= MAX_ORDER, "order {order} exceeds MAX_ORDER");
        // Find the smallest available order >= requested.
        let (mut o, offset) = (order..=MAX_ORDER).find_map(|o| {
            let tree = &mut self.trees[o as usize];
            let bit = tree.find_first()?;
            tree.test_and_clear(bit);
            Some((o, bit as u64 * Self::order_bytes(o)))
        })?;
        // Split down to the requested order, freeing the upper buddies.
        while o > order {
            o -= 1;
            let buddy = offset + Self::order_bytes(o);
            self.push_free(o, buddy);
        }
        self.free_bytes -= Self::order_bytes(order);
        self.alloc_tag[(offset / BASE_ORDER_BYTES) as usize] = order as u8 + 1;
        Some(PhysAddr::new(self.base + offset))
    }

    /// Frees a block previously returned by [`BuddyAllocator::alloc`]
    /// with the same `order`, merging buddies eagerly.
    ///
    /// # Panics
    ///
    /// Panics on double free, misaligned address, or out-of-arena
    /// address.
    pub fn free(&mut self, addr: PhysAddr, order: u32) {
        assert!(order <= MAX_ORDER);
        let raw = addr.as_u64();
        assert!(raw >= self.base && raw - self.base < self.total_bytes, "address outside arena");
        let mut offset = raw - self.base;
        assert!(offset.is_multiple_of(Self::order_bytes(order)), "misaligned free");
        let tag = &mut self.alloc_tag[(offset / BASE_ORDER_BYTES) as usize];
        let released = *tag == order as u8 + 1;
        if released {
            *tag = 0;
        }
        assert!(released, "double free (or wrong order) at offset {offset:#x} order {order}");
        let mut order = order;
        self.free_bytes += Self::order_bytes(order);
        loop {
            if order == MAX_ORDER {
                break;
            }
            let buddy = offset ^ Self::order_bytes(order);
            let merged = buddy + Self::order_bytes(order) <= self.total_bytes
                && self.trees[order as usize]
                    .test_and_clear((buddy / Self::order_bytes(order)) as usize);
            if merged {
                offset = offset.min(buddy);
                order += 1;
            } else {
                break;
            }
        }
        self.push_free(order, offset);
    }

    /// Number of free blocks at each order (diagnostics / invariants).
    pub fn free_counts(&self) -> Vec<usize> {
        self.trees.iter().map(BitTree::len).collect()
    }
}

/// The largest order whose block starts at `offset` (aligned) and ends
/// within an arena of `bytes` (used to seed the free lists).
fn max_aligned_order(offset: u64, bytes: u64) -> u32 {
    let mut order = MAX_ORDER;
    loop {
        let size = BuddyAllocator::order_bytes(order);
        if offset.is_multiple_of(size) && offset + size <= bytes {
            return order;
        }
        order -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The allocator on `BTreeSet` free lists: the model the bitmap
    /// allocator's address choices are checked against.
    struct SetBuddy {
        total_bytes: u64,
        free_bytes: u64,
        /// `free_lists[order]` holds offsets (from 0) of free blocks.
        free_lists: Vec<BTreeSet<u64>>,
    }

    impl SetBuddy {
        fn new(bytes: u64) -> Self {
            let mut free_lists = vec![BTreeSet::new(); MAX_ORDER as usize + 1];
            let mut offset = 0;
            while offset < bytes {
                let order = max_aligned_order(offset, bytes);
                free_lists[order as usize].insert(offset);
                offset += BuddyAllocator::order_bytes(order);
            }
            Self { total_bytes: bytes, free_bytes: bytes, free_lists }
        }

        fn alloc(&mut self, order: u32) -> Option<u64> {
            let (mut o, offset) = (order..=MAX_ORDER).find_map(|o| {
                let offset = *self.free_lists[o as usize].iter().next()?;
                self.free_lists[o as usize].remove(&offset);
                Some((o, offset))
            })?;
            while o > order {
                o -= 1;
                self.free_lists[o as usize].insert(offset + BuddyAllocator::order_bytes(o));
            }
            self.free_bytes -= BuddyAllocator::order_bytes(order);
            Some(offset)
        }

        fn free(&mut self, mut offset: u64, mut order: u32) {
            self.free_bytes += BuddyAllocator::order_bytes(order);
            while order < MAX_ORDER {
                let buddy = offset ^ BuddyAllocator::order_bytes(order);
                if buddy + BuddyAllocator::order_bytes(order) > self.total_bytes
                    || !self.free_lists[order as usize].remove(&buddy)
                {
                    break;
                }
                offset = offset.min(buddy);
                order += 1;
            }
            self.free_lists[order as usize].insert(offset);
        }

        fn free_counts(&self) -> Vec<usize> {
            self.free_lists.iter().map(BTreeSet::len).collect()
        }
    }

    #[test]
    fn bittree_set_clear_find() {
        let mut t = BitTree::new(100_000);
        assert_eq!(t.find_first(), None);
        for &i in &[99_999usize, 70_001, 64, 63, 7] {
            t.set(i);
        }
        assert_eq!(t.len(), 5);
        assert_eq!(t.find_first(), Some(7));
        assert!(t.test_and_clear(7));
        assert!(!t.test_and_clear(7));
        assert_eq!(t.find_first(), Some(63));
        assert!(t.test_and_clear(63));
        assert!(t.test_and_clear(64));
        assert_eq!(t.find_first(), Some(70_001));
        assert!(t.test_and_clear(70_001));
        assert_eq!(t.find_first(), Some(99_999));
        assert!(t.test_and_clear(99_999));
        assert_eq!(t.find_first(), None);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn bittree_single_word() {
        let mut t = BitTree::new(10);
        t.set(9);
        assert_eq!(t.find_first(), Some(9));
        t.set(0);
        assert_eq!(t.find_first(), Some(0));
    }

    #[test]
    fn alloc_free_roundtrip() {
        let mut b = BuddyAllocator::new(0, 1 << 20);
        let before = b.free_bytes();
        let f = b.alloc(0).unwrap();
        assert_eq!(b.free_bytes(), before - 4096);
        b.free(f, 0);
        assert_eq!(b.free_bytes(), before);
    }

    #[test]
    fn split_and_merge_restore_initial_state() {
        let mut b = BuddyAllocator::new(0, 1 << 23);
        // 8 MB = one order-11 block
        assert_eq!(b.free_counts()[MAX_ORDER as usize], 1);
        let frames: Vec<_> = (0..16).map(|_| b.alloc(0).unwrap()).collect();
        assert!(b.free_counts()[MAX_ORDER as usize] == 0);
        for f in frames {
            b.free(f, 0);
        }
        assert_eq!(b.free_counts()[MAX_ORDER as usize], 1, "buddies fully merged");
    }

    #[test]
    fn huge_page_allocation_is_aligned() {
        let mut b = BuddyAllocator::new(0, 16 << 20);
        let _small = b.alloc(0).unwrap();
        let huge = b.alloc(9).unwrap(); // 2 MB
        assert!(huge.is_aligned_to(2 << 20));
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut b = BuddyAllocator::new(0, 8192);
        assert!(b.alloc(0).is_some());
        assert!(b.alloc(0).is_some());
        assert!(b.alloc(0).is_none());
        assert!(b.alloc(9).is_none());
    }

    #[test]
    fn distinct_allocations_do_not_overlap() {
        let mut b = BuddyAllocator::new(0x1000_0000, 4 << 20);
        let mut got = Vec::new();
        while let Some(f) = b.alloc(1) {
            got.push(f.as_u64());
        }
        got.sort_unstable();
        for pair in got.windows(2) {
            assert!(pair[1] - pair[0] >= 8192, "order-1 blocks overlap");
        }
        assert_eq!(got.len(), (4 << 20) / 8192);
    }

    #[test]
    fn base_offset_respected() {
        let mut b = BuddyAllocator::new(0x4000_0000, 1 << 20);
        let f = b.alloc(0).unwrap();
        assert!(f.as_u64() >= 0x4000_0000);
        b.free(f, 0);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut b = BuddyAllocator::new(0, 1 << 20);
        let f = b.alloc(0).unwrap();
        b.free(f, 0);
        b.free(f, 0);
    }

    #[test]
    #[should_panic(expected = "misaligned free")]
    fn misaligned_free_panics() {
        let mut b = BuddyAllocator::new(0, 1 << 20);
        let _ = b.alloc(1).unwrap();
        b.free(PhysAddr::new(4096), 1); // order-1 blocks are 8 KB aligned
    }

    #[test]
    fn non_power_of_two_arena_is_fully_usable() {
        // 12 KB arena = one 8 KB block + one 4 KB block.
        let mut b = BuddyAllocator::new(0, 12 << 10);
        assert_eq!(b.free_bytes(), 12 << 10);
        let a1 = b.alloc(1).unwrap();
        let a0 = b.alloc(0).unwrap();
        assert!(b.alloc(0).is_none());
        b.free(a1, 1);
        b.free(a0, 0);
        assert_eq!(b.free_bytes(), 12 << 10);
    }

    #[test]
    fn order_for_bytes_rounds_up() {
        assert_eq!(BuddyAllocator::order_for_bytes(1), 0);
        assert_eq!(BuddyAllocator::order_for_bytes(4096), 0);
        assert_eq!(BuddyAllocator::order_for_bytes(4097), 1);
        assert_eq!(BuddyAllocator::order_for_bytes(2 << 20), 9);
    }

    proptest! {
        #[test]
        fn prop_alloc_free_preserves_capacity(ops in prop::collection::vec((0u32..4, any::<bool>()), 1..200)) {
            let mut b = BuddyAllocator::new(0, 2 << 20);
            let capacity = b.free_bytes();
            let mut live: Vec<(PhysAddr, u32)> = Vec::new();
            for (order, do_alloc) in ops {
                if do_alloc || live.is_empty() {
                    if let Some(f) = b.alloc(order) {
                        live.push((f, order));
                    }
                } else {
                    let (f, o) = live.swap_remove(live.len() / 2);
                    b.free(f, o);
                }
            }
            let live_bytes: u64 = live.iter().map(|(_, o)| BuddyAllocator::order_bytes(*o)).sum();
            prop_assert_eq!(b.free_bytes() + live_bytes, capacity);
            for (f, o) in live.drain(..) {
                b.free(f, o);
            }
            prop_assert_eq!(b.free_bytes(), capacity);
        }

        #[test]
        fn prop_no_overlapping_allocations(orders in prop::collection::vec(0u32..5, 1..64)) {
            let mut b = BuddyAllocator::new(0, 4 << 20);
            let mut ranges: Vec<(u64, u64)> = Vec::new();
            for o in orders {
                if let Some(f) = b.alloc(o) {
                    let start = f.as_u64();
                    let end = start + BuddyAllocator::order_bytes(o);
                    for &(s, e) in &ranges {
                        prop_assert!(end <= s || start >= e, "overlap [{start:#x},{end:#x}) vs [{s:#x},{e:#x})");
                    }
                    ranges.push((start, end));
                }
            }
        }

        /// The bitmap allocator must make byte-for-byte identical
        /// address choices to the `BTreeSet` model under arbitrary
        /// interleavings — this is what keeps `HwAction` streams
        /// deterministic at the kernel level.
        #[test]
        fn prop_bitmap_matches_set_model(ops in prop::collection::vec((0u32..6, any::<bool>()), 1..300)) {
            let base = 0x1000;
            let mut fast = BuddyAllocator::new(base, 4 << 20);
            let mut model = SetBuddy::new(4 << 20);
            let mut live: Vec<(PhysAddr, u32)> = Vec::new();
            for (order, do_alloc) in ops {
                if do_alloc || live.is_empty() {
                    let (a, b) = (fast.alloc(order), model.alloc(order));
                    prop_assert_eq!(a, b.map(|off| PhysAddr::new(base + off)),
                                    "divergent allocation at order {}", order);
                    if let Some(f) = a {
                        live.push((f, order));
                    }
                } else {
                    let (f, o) = live.swap_remove(live.len() / 2);
                    fast.free(f, o);
                    model.free(f.as_u64() - base, o);
                }
                prop_assert_eq!(fast.free_bytes(), model.free_bytes);
                prop_assert_eq!(fast.free_counts(), model.free_counts());
            }
        }
    }
}
