//! Per-physical-page kernel state (Linux's `struct page` equivalents).
//!
//! Tracks, per allocated page: the map count (how many process
//! mappings reference it), whether it is currently serving as a
//! write-protected CoW source, and — for Lelantus — the *deferred
//! reuse* marker from the paper's Figure 8: when a shared page's map
//! count drops to one, the kernel pauses `wp_page_reuse` /
//! `page_move_anon_rmap`, so a later write still faults and early
//! reclamation can run first.
//!
//! The registry is a `Vec` indexed by frame number (`base / 4 KB`),
//! the same discipline as the NVM `LineStore`: lookups are one bounds
//! check and one array indexing, with no hashing and no per-entry
//! allocation. Frames are already a compact index, so the vector
//! tracks the highest frame ever registered. The differential test
//! below checks it against a `HashMap` keyed by base address.

use lelantus_types::{PageSize, PhysAddr};

/// Frame size the dense index is keyed by (one 4 KB frame per slot;
/// huge pages occupy the slot of their base frame only).
const FRAME_BYTES: u64 = 4096;

/// Kernel bookkeeping for one allocated physical page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageInfo {
    /// Base physical address.
    pub base: PhysAddr,
    /// Page granularity.
    pub size: PageSize,
    /// Number of process mappings referencing this page.
    pub map_count: usize,
    /// Page is CoW-shared: mapped write-protected so writes fault.
    pub cow_protected: bool,
    /// `anon_vma` id used for reverse lookup.
    pub anon_vma: Option<u64>,
    /// Lelantus: `wp_page_reuse` was deferred when `map_count` hit one
    /// (paper Figure 8); the next write fault must run early
    /// reclamation before unprotecting (paper Figure 8).
    pub reuse_deferred: bool,
}

/// Registry of all allocated pages, keyed by base physical address.
///
/// # Examples
///
/// ```
/// use lelantus_os::PageRegistry;
/// use lelantus_types::{PageSize, PhysAddr};
///
/// let mut reg = PageRegistry::new();
/// reg.insert(PhysAddr::new(0x1000), PageSize::Regular4K, None);
/// reg.inc_map(PhysAddr::new(0x1000));
/// assert_eq!(reg.get(PhysAddr::new(0x1000)).unwrap().map_count, 1);
/// ```
#[derive(Debug, Clone)]
pub struct PageRegistry {
    /// Frame-indexed slots, grown to the highest registered frame.
    slots: Vec<Option<PageInfo>>,
    /// Number of occupied slots.
    len: usize,
}

impl Default for PageRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl PageRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self { slots: Vec::new(), len: 0 }
    }

    #[inline]
    fn frame(base: PhysAddr) -> usize {
        (base.as_u64() / FRAME_BYTES) as usize
    }

    /// Registers a fresh page with zero mappings.
    ///
    /// # Panics
    ///
    /// Panics if the page is already registered.
    pub fn insert(&mut self, base: PhysAddr, size: PageSize, anon_vma: Option<u64>) {
        let info = PageInfo {
            base,
            size,
            map_count: 0,
            cow_protected: false,
            anon_vma,
            reuse_deferred: false,
        };
        let frame = Self::frame(base);
        if frame >= self.slots.len() {
            // Grow geometrically so a rising high-water mark costs
            // amortized O(1) per insert.
            let target = (frame + 1).next_power_of_two().max(64);
            self.slots.resize(target, None);
        }
        let slot = &mut self.slots[frame];
        assert!(slot.is_none(), "page {base} registered twice");
        *slot = Some(info);
        self.len += 1;
    }

    /// Looks up a page.
    #[inline]
    pub fn get(&self, base: PhysAddr) -> Option<&PageInfo> {
        self.slots.get(Self::frame(base))?.as_ref()
    }

    /// Mutable lookup.
    #[inline]
    pub fn get_mut(&mut self, base: PhysAddr) -> Option<&mut PageInfo> {
        self.slots.get_mut(Self::frame(base))?.as_mut()
    }

    /// Increments the map count.
    ///
    /// # Panics
    ///
    /// Panics if the page is unknown.
    #[inline]
    pub fn inc_map(&mut self, base: PhysAddr) {
        self.expect_mut(base).map_count += 1;
    }

    /// Increments the map count by `n` (bulk mapping, e.g. an `mmap`
    /// populating a whole VMA with zero-page references).
    ///
    /// # Panics
    ///
    /// Panics if the page is unknown.
    #[inline]
    pub fn inc_map_by(&mut self, base: PhysAddr, n: usize) {
        self.expect_mut(base).map_count += n;
    }

    /// Decrements the map count, returning the new value.
    ///
    /// # Panics
    ///
    /// Panics if the page is unknown or already unmapped.
    #[inline]
    pub fn dec_map(&mut self, base: PhysAddr) -> usize {
        let info = self.expect_mut(base);
        assert!(info.map_count > 0, "unmapping page {base} with zero map count");
        info.map_count -= 1;
        info.map_count
    }

    /// Removes a page from the registry (frame being freed), returning
    /// its final state.
    ///
    /// # Panics
    ///
    /// Panics if the page is unknown or still mapped.
    pub fn remove(&mut self, base: PhysAddr) -> PageInfo {
        let info = self
            .slots
            .get_mut(Self::frame(base))
            .and_then(Option::take)
            .expect("removing unknown page");
        self.len -= 1;
        assert_eq!(info.map_count, 0, "freeing page {base} that is still mapped");
        info
    }

    /// Number of registered pages.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no pages are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn expect_mut(&mut self, base: PhysAddr) -> &mut PageInfo {
        self.get_mut(base).unwrap_or_else(|| panic!("unknown page {base}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// The registry as a `HashMap` keyed by base address: the model the
    /// frame-indexed registry is checked against.
    #[derive(Default)]
    struct MapRegistry {
        pages: HashMap<u64, PageInfo>,
    }

    impl MapRegistry {
        fn insert(&mut self, base: PhysAddr, size: PageSize, anon_vma: Option<u64>) {
            let info = PageInfo {
                base,
                size,
                map_count: 0,
                cow_protected: false,
                anon_vma,
                reuse_deferred: false,
            };
            assert!(self.pages.insert(base.as_u64(), info).is_none(), "registered twice");
        }

        fn get(&self, base: PhysAddr) -> Option<&PageInfo> {
            self.pages.get(&base.as_u64())
        }

        fn inc_map(&mut self, base: PhysAddr) {
            self.pages.get_mut(&base.as_u64()).expect("known page").map_count += 1;
        }

        fn dec_map(&mut self, base: PhysAddr) -> usize {
            let info = self.pages.get_mut(&base.as_u64()).expect("known page");
            info.map_count -= 1;
            info.map_count
        }

        fn remove(&mut self, base: PhysAddr) -> PageInfo {
            let info = self.pages.remove(&base.as_u64()).expect("known page");
            assert_eq!(info.map_count, 0, "still mapped");
            info
        }
    }

    #[test]
    fn lifecycle() {
        let mut r = PageRegistry::new();
        let p = PhysAddr::new(0x2000);
        r.insert(p, PageSize::Regular4K, Some(3));
        r.inc_map(p);
        r.inc_map(p);
        assert_eq!(r.dec_map(p), 1);
        assert_eq!(r.dec_map(p), 0);
        let info = r.remove(p);
        assert_eq!(info.anon_vma, Some(3));
        assert!(r.is_empty());
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn double_insert_panics() {
        let mut r = PageRegistry::new();
        r.insert(PhysAddr::new(0), PageSize::Regular4K, None);
        r.insert(PhysAddr::new(0), PageSize::Regular4K, None);
    }

    #[test]
    #[should_panic(expected = "still mapped")]
    fn remove_mapped_page_panics() {
        let mut r = PageRegistry::new();
        r.insert(PhysAddr::new(0), PageSize::Regular4K, None);
        r.inc_map(PhysAddr::new(0));
        r.remove(PhysAddr::new(0));
    }

    #[test]
    #[should_panic(expected = "zero map count")]
    fn dec_below_zero_panics() {
        let mut r = PageRegistry::new();
        r.insert(PhysAddr::new(0), PageSize::Regular4K, None);
        r.dec_map(PhysAddr::new(0));
    }

    #[test]
    fn flags_are_mutable() {
        let mut r = PageRegistry::new();
        let p = PhysAddr::new(0x4000);
        r.insert(p, PageSize::Huge2M, None);
        r.get_mut(p).unwrap().cow_protected = true;
        r.get_mut(p).unwrap().reuse_deferred = true;
        let info = r.get(p).unwrap();
        assert!(info.cow_protected && info.reuse_deferred);
        assert_eq!(info.size, PageSize::Huge2M);
    }

    #[test]
    fn bulk_inc_matches_repeated_inc() {
        let mut a = PageRegistry::new();
        let mut b = MapRegistry::default();
        let p = PhysAddr::new(0x8000);
        a.insert(p, PageSize::Regular4K, None);
        b.insert(p, PageSize::Regular4K, None);
        a.inc_map_by(p, 5);
        for _ in 0..5 {
            b.inc_map(p);
        }
        assert_eq!(a.get(p), b.get(p));
    }

    #[test]
    fn sparse_high_frames_do_not_explode() {
        // The registry grows to the high-water frame; a high but
        // bounded address must register and resolve like any other.
        let mut r = PageRegistry::new();
        let high = PhysAddr::new(1 << 33); // 8 GB
        r.insert(high, PageSize::Regular4K, None);
        assert_eq!(r.len(), 1);
        assert!(r.get(high).is_some());
        assert!(r.get(PhysAddr::new(0)).is_none());
    }

    #[test]
    fn differential_against_map_model() {
        // Deterministic op soup over a small frame pool: the dense
        // registry must be observationally identical to the HashMap.
        let mut fast = PageRegistry::new();
        let mut model = MapRegistry::default();
        let mut x: u64 = 0x5eed;
        let mut step = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x >> 33
        };
        for i in 0..20_000u64 {
            let base = PhysAddr::new((step() % 64) * 4096);
            match step() % 5 {
                0 => {
                    if fast.get(base).is_none() {
                        fast.insert(base, PageSize::Regular4K, Some(i));
                        model.insert(base, PageSize::Regular4K, Some(i));
                    }
                }
                1 => {
                    if fast.get(base).is_some() {
                        fast.inc_map(base);
                        model.inc_map(base);
                    }
                }
                2 => {
                    if fast.get(base).map(|p| p.map_count > 0).unwrap_or(false) {
                        assert_eq!(fast.dec_map(base), model.dec_map(base), "step {i}");
                    }
                }
                3 => {
                    if fast.get(base).map(|p| p.map_count == 0).unwrap_or(false) {
                        assert_eq!(fast.remove(base), model.remove(base), "step {i}");
                    }
                }
                _ => {
                    assert_eq!(fast.get(base), model.get(base), "step {i}");
                }
            }
            assert_eq!(fast.len(), model.pages.len(), "step {i}");
        }
    }
}
