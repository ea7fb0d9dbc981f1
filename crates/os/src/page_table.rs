//! Per-process page tables.
//!
//! A flat map from page-aligned virtual addresses to PTEs, supporting
//! both 4 KB and 2 MB mappings. Write-protection lives here: CoW marks
//! PTEs read-only so stores fault into the kernel (paper §II-C).
//!
//! The table is a sorted `Vec` of [`Segment`]s, each a dense slot
//! array of `Option<Pte>` covering one contiguous uniform-stride VA
//! range (in practice: one VMA). Lookup is a binary search over
//! segments (a handful per process) plus an index; sequential `mmap`
//! population appends in amortized O(1); ordered iteration walks the
//! arrays with no collect-and-sort; and cloning a table (fork) is a
//! memcpy per segment since `Option<Pte>` is `Copy`. Overlapping
//! mappings with different geometry panic — the kernel never produces
//! them (VMAs are disjoint and a VA keeps its page size for life). The
//! differential test below checks the table against a
//! `HashMap<u64, Pte>` model.
//!
//! A huge-mapping count lets [`PageTable::entry`] skip the `Huge2M`
//! probe entirely on 4 K-only tables (most workloads), halving lookup
//! work on translation misses.

use lelantus_types::{PageSize, PhysAddr, VirtAddr};

/// One page-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pte {
    /// Base physical address of the mapped page.
    pub pa: PhysAddr,
    /// Mapping granularity.
    pub size: PageSize,
    /// Whether stores are currently permitted.
    pub writable: bool,
}

/// The result of a translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// Translated physical address (byte-accurate).
    pub pa: PhysAddr,
    /// The entry that produced it.
    pub pte: Pte,
    /// Base virtual address of the page.
    pub va_base: VirtAddr,
}

/// One contiguous uniform-stride run of PTE slots.
#[derive(Debug, Clone)]
struct Segment {
    /// First slot's VA.
    start: u64,
    /// Slot pitch = page size of every entry in this segment.
    stride: u64,
    slots: Vec<Option<Pte>>,
    /// Number of `Some` slots.
    live: usize,
}

impl Segment {
    #[inline]
    fn end(&self) -> u64 {
        self.start + self.stride * self.slots.len() as u64
    }
}

/// A process page table.
///
/// # Examples
///
/// ```
/// use lelantus_os::page_table::{PageTable, Pte};
/// use lelantus_types::{PageSize, PhysAddr, VirtAddr};
///
/// let mut pt = PageTable::new();
/// pt.map(VirtAddr::new(0x1000), Pte { pa: PhysAddr::new(0x8000), size: PageSize::Regular4K, writable: true });
/// let t = pt.translate(VirtAddr::new(0x1234)).unwrap();
/// assert_eq!(t.pa, PhysAddr::new(0x8234));
/// ```
#[derive(Debug, Clone)]
pub struct PageTable {
    /// Disjoint segments, sorted by start VA.
    segments: Vec<Segment>,
    /// Number of mappings.
    len: usize,
    /// Number of live `Huge2M` entries; when zero, `entry` skips the
    /// huge-page probe.
    huge_entries: usize,
}

impl Default for PageTable {
    fn default() -> Self {
        Self::new()
    }
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> Self {
        Self { segments: Vec::new(), len: 0, huge_entries: 0 }
    }

    /// Index of the segment containing `va`, if any.
    #[inline]
    fn find_seg(segments: &[Segment], va: u64) -> Option<usize> {
        let idx = segments.partition_point(|s| s.start <= va);
        let cand = idx.checked_sub(1)?;
        (va < segments[cand].end()).then_some(cand)
    }

    /// Installs (or replaces) the mapping at page-aligned `va_base`.
    ///
    /// # Panics
    ///
    /// Panics if `va_base` is not aligned to the entry's page size, or
    /// if the page overlaps existing mappings of a different geometry —
    /// the kernel never creates such overlaps.
    pub fn map(&mut self, va_base: VirtAddr, pte: Pte) {
        let bytes = pte.size.bytes();
        assert!(va_base.is_aligned_to(bytes), "mapping base {va_base} not {}-aligned", pte.size);
        let va = va_base.as_u64();
        let segments = &mut self.segments;
        let old = if let Some(i) = Self::find_seg(segments, va) {
            let seg = &mut segments[i];
            if seg.stride == bytes && (va - seg.start).is_multiple_of(bytes) {
                let slot = ((va - seg.start) / bytes) as usize;
                let old = seg.slots[slot].replace(pte);
                if old.is_none() {
                    seg.live += 1;
                    self.len += 1;
                }
                old
            } else if seg.live == 0 {
                // A fully-unmapped leftover segment may be reclaimed by
                // a differently-shaped mapping.
                segments.remove(i);
                Self::insert_new(segments, va, bytes, pte, va_base);
                self.len += 1;
                None
            } else {
                panic!("mapping {va_base} overlaps a segment with different geometry");
            }
        } else {
            Self::insert_new(segments, va, bytes, pte, va_base);
            self.len += 1;
            None
        };
        if old.map(|p| p.size) == Some(PageSize::Huge2M) {
            self.huge_entries -= 1;
        }
        if pte.size == PageSize::Huge2M {
            self.huge_entries += 1;
        }
    }

    /// Places `pte` in a segment: appended to a contiguous same-stride
    /// neighbour when possible, else as a fresh one-slot segment.
    fn insert_new(segments: &mut Vec<Segment>, va: u64, bytes: u64, pte: Pte, va_base: VirtAddr) {
        let idx = segments.partition_point(|s| s.start <= va);
        let fits_before_next = segments.get(idx).is_none_or(|n| n.start >= va + bytes);
        assert!(fits_before_next, "mapping {va_base} overlaps a segment with different geometry");
        if let Some(prev) = idx.checked_sub(1).map(|i| &mut segments[i]) {
            if prev.stride == bytes && prev.end() == va {
                prev.slots.push(Some(pte));
                prev.live += 1;
                return;
            }
        }
        segments.insert(idx, Segment { start: va, stride: bytes, slots: vec![Some(pte)], live: 1 });
    }

    /// Removes the mapping at `va_base`, returning the old entry.
    pub fn unmap(&mut self, va_base: VirtAddr) -> Option<Pte> {
        let va = va_base.as_u64();
        let i = Self::find_seg(&self.segments, va)?;
        let seg = &mut self.segments[i];
        if !(va - seg.start).is_multiple_of(seg.stride) {
            return None;
        }
        let slot = ((va - seg.start) / seg.stride) as usize;
        let old = seg.slots[slot].take();
        if old.is_some() {
            seg.live -= 1;
            self.len -= 1;
        }
        if old.map(|p| p.size) == Some(PageSize::Huge2M) {
            self.huge_entries -= 1;
        }
        old
    }

    /// Exact-key lookup: the PTE mapped at `base` with page size of
    /// `bytes`, if any.
    #[inline]
    fn lookup_exact(&self, base: u64, bytes: u64) -> Option<Pte> {
        let seg = &self.segments[Self::find_seg(&self.segments, base)?];
        if seg.stride != bytes || !(base - seg.start).is_multiple_of(bytes) {
            return None;
        }
        seg.slots[((base - seg.start) / bytes) as usize]
    }

    /// Looks up the PTE covering `va` (probing both page sizes; the
    /// `Huge2M` probe is skipped while the table holds no huge
    /// mappings).
    pub fn entry(&self, va: VirtAddr) -> Option<(VirtAddr, Pte)> {
        let sizes: &[PageSize] = if self.huge_entries == 0 {
            &[PageSize::Regular4K]
        } else {
            &[PageSize::Regular4K, PageSize::Huge2M]
        };
        for &size in sizes {
            let base = va.align_to(size.bytes());
            if let Some(pte) = self.lookup_exact(base.as_u64(), size.bytes()) {
                return Some((base, pte));
            }
        }
        None
    }

    /// Translates `va` to a physical address.
    pub fn translate(&self, va: VirtAddr) -> Option<Translation> {
        let (va_base, pte) = self.entry(va)?;
        let offset = va - va_base;
        Some(Translation { pa: pte.pa + offset, pte, va_base })
    }

    /// Sets the writable bit of the mapping covering `va`; returns the
    /// previous value.
    ///
    /// # Panics
    ///
    /// Panics if `va` is unmapped.
    pub fn set_writable(&mut self, va: VirtAddr, writable: bool) -> bool {
        let (base, _) = self.entry(va).expect("set_writable on unmapped address");
        let base = base.as_u64();
        let i = Self::find_seg(&self.segments, base).expect("entry exists");
        let seg = &mut self.segments[i];
        let slot = ((base - seg.start) / seg.stride) as usize;
        let e = seg.slots[slot].as_mut().expect("entry exists");
        std::mem::replace(&mut e.writable, writable)
    }

    /// Iterates over `(va_base, pte)` pairs in ascending address order.
    ///
    /// The order is load-bearing: fork and mprotect turn this walk into
    /// hardware actions whose NVM timing depends on the access
    /// sequence, so hash order here would make simulated cycle counts
    /// differ between identically-configured runs. The walk is
    /// allocation-free.
    pub fn iter(&self) -> PtIter<'_> {
        self.range_raw(0, u64::MAX)
    }

    /// Iterates over `(va_base, pte)` pairs with `start <= va_base <
    /// end`, in ascending address order, starting directly at the first
    /// covered slot instead of scanning the whole table.
    pub fn range(&self, start: VirtAddr, end: VirtAddr) -> PtIter<'_> {
        self.range_raw(start.as_u64(), end.as_u64())
    }

    fn range_raw(&self, start: u64, end: u64) -> PtIter<'_> {
        let segments = &self.segments;
        // Segments are disjoint and sorted, so they are sorted by end()
        // too: the first candidate is the first segment extending past
        // `start`.
        let seg = segments.partition_point(|s| s.end() <= start);
        let (slot, va) = match segments.get(seg) {
            Some(s) if s.start < start => {
                let slot = ((start - s.start).div_ceil(s.stride)) as usize;
                (slot, s.start + s.stride * slot as u64)
            }
            Some(s) => (0, s.start),
            None => (0, 0),
        };
        PtIter { segments, seg, slot, va, end }
    }

    /// Visits every `(va_base, &mut Pte)` in ascending address order.
    /// Callers may flip `writable` / repoint `pa` but must not change
    /// `size` (the huge-entry count is not re-derived).
    pub fn for_each_mut(&mut self, f: impl FnMut(VirtAddr, &mut Pte)) {
        self.for_each_mut_raw(0, u64::MAX, f);
    }

    /// [`PageTable::for_each_mut`] restricted to `start <= va_base <
    /// end`, starting directly at the first covered slot.
    pub fn for_each_mut_in(
        &mut self,
        start: VirtAddr,
        end: VirtAddr,
        f: impl FnMut(VirtAddr, &mut Pte),
    ) {
        self.for_each_mut_raw(start.as_u64(), end.as_u64(), f);
    }

    fn for_each_mut_raw(&mut self, start: u64, end: u64, mut f: impl FnMut(VirtAddr, &mut Pte)) {
        let first = self.segments.partition_point(|s| s.end() <= start);
        for seg in &mut self.segments[first..] {
            if seg.start >= end {
                break;
            }
            let skip = if seg.start < start { (start - seg.start).div_ceil(seg.stride) } else { 0 };
            let mut va = seg.start + skip * seg.stride;
            for slot in seg.slots.iter_mut().skip(skip as usize) {
                if va >= end {
                    break;
                }
                if let Some(pte) = slot.as_mut() {
                    f(VirtAddr::new(va), pte);
                }
                va += seg.stride;
            }
        }
    }

    /// Number of mappings.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of live huge (2 MB) mappings.
    pub fn huge_len(&self) -> usize {
        self.huge_entries
    }
}

/// Ordered `(va_base, pte)` iterator over a [`PageTable`] (whole table
/// or a VA range).
#[derive(Debug)]
pub struct PtIter<'a> {
    segments: &'a [Segment],
    /// Current segment and slot within it.
    seg: usize,
    slot: usize,
    /// VA of the current slot.
    va: u64,
    /// Exclusive VA bound.
    end: u64,
}

impl Iterator for PtIter<'_> {
    type Item = (VirtAddr, Pte);

    fn next(&mut self) -> Option<(VirtAddr, Pte)> {
        loop {
            let s = self.segments.get(self.seg)?;
            if self.slot >= s.slots.len() {
                self.seg += 1;
                self.slot = 0;
                if let Some(n) = self.segments.get(self.seg) {
                    self.va = n.start;
                }
                continue;
            }
            if self.va >= self.end {
                return None;
            }
            let here = self.va;
            let pte = s.slots[self.slot];
            self.slot += 1;
            self.va += s.stride;
            if let Some(pte) = pte {
                return Some((VirtAddr::new(here), pte));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// The table as a `HashMap<u64, Pte>` keyed by page base: the model
    /// the segmented table is checked against.
    #[derive(Default)]
    struct MapPageTable {
        entries: HashMap<u64, Pte>,
    }

    impl MapPageTable {
        fn map(&mut self, va_base: VirtAddr, pte: Pte) {
            self.entries.insert(va_base.as_u64(), pte);
        }

        fn unmap(&mut self, va_base: VirtAddr) -> Option<Pte> {
            self.entries.remove(&va_base.as_u64())
        }

        fn translate(&self, va: VirtAddr) -> Option<Translation> {
            PageSize::all().into_iter().find_map(|size| {
                let va_base = va.align_to(size.bytes());
                let pte = *self.entries.get(&va_base.as_u64()).filter(|p| p.size == size)?;
                Some(Translation { pa: pte.pa + (va - va_base), pte, va_base })
            })
        }

        fn set_writable(&mut self, va: VirtAddr, writable: bool) -> bool {
            let base = self.translate(va).expect("mapped").va_base.as_u64();
            let pte = self.entries.get_mut(&base).expect("mapped");
            std::mem::replace(&mut pte.writable, writable)
        }

        fn sorted(&self) -> Vec<(VirtAddr, Pte)> {
            let mut all: Vec<_> =
                self.entries.iter().map(|(va, pte)| (VirtAddr::new(*va), *pte)).collect();
            all.sort_unstable_by_key(|(va, _)| *va);
            all
        }
    }

    fn pte4k(pa: u64, writable: bool) -> Pte {
        Pte { pa: PhysAddr::new(pa), size: PageSize::Regular4K, writable }
    }

    #[test]
    fn translate_regular() {
        let mut pt = PageTable::new();
        pt.map(VirtAddr::new(0x7000), pte4k(0x10000, false));
        let t = pt.translate(VirtAddr::new(0x7abc)).unwrap();
        assert_eq!(t.pa, PhysAddr::new(0x10abc));
        assert!(!t.pte.writable);
        assert_eq!(t.va_base, VirtAddr::new(0x7000));
        assert!(pt.translate(VirtAddr::new(0x8000)).is_none());
    }

    #[test]
    fn translate_huge() {
        let mut pt = PageTable::new();
        pt.map(
            VirtAddr::new(0x4000_0000),
            Pte { pa: PhysAddr::new(0x20_0000), size: PageSize::Huge2M, writable: true },
        );
        assert_eq!(pt.huge_len(), 1);
        let t = pt.translate(VirtAddr::new(0x4000_0000 + 0x12345)).unwrap();
        assert_eq!(t.pa, PhysAddr::new(0x20_0000 + 0x12345));
        assert_eq!(t.pte.size, PageSize::Huge2M);
    }

    #[test]
    fn set_writable_flips_bit() {
        let mut pt = PageTable::new();
        pt.map(VirtAddr::new(0x1000), pte4k(0x2000, true));
        assert!(pt.set_writable(VirtAddr::new(0x1800), false));
        assert!(!pt.translate(VirtAddr::new(0x1800)).unwrap().pte.writable);
    }

    #[test]
    fn unmap_removes() {
        let mut pt = PageTable::new();
        pt.map(VirtAddr::new(0x1000), pte4k(0x2000, true));
        assert!(pt.unmap(VirtAddr::new(0x1000)).is_some());
        assert!(pt.translate(VirtAddr::new(0x1000)).is_none());
        assert!(pt.is_empty());
        assert!(pt.unmap(VirtAddr::new(0x1000)).is_none());
    }

    #[test]
    #[should_panic(expected = "not 2MB-aligned")]
    fn misaligned_huge_map_panics() {
        let mut pt = PageTable::new();
        pt.map(
            VirtAddr::new(0x1000),
            Pte { pa: PhysAddr::new(0), size: PageSize::Huge2M, writable: true },
        );
    }

    #[test]
    fn iter_is_address_ordered() {
        let mut pt = PageTable::new();
        for va in [0x9000u64, 0x1000, 0x5000, 0x3000] {
            pt.map(VirtAddr::new(va), pte4k(va * 2, true));
        }
        let vas: Vec<u64> = pt.iter().map(|(va, _)| va.as_u64()).collect();
        assert_eq!(vas, vec![0x1000, 0x3000, 0x5000, 0x9000]);
        assert_eq!(pt.len(), 4);
    }

    #[test]
    fn range_is_bounded_and_ordered() {
        let mut pt = PageTable::new();
        for va in (0..16u64).map(|i| 0x10_0000 + i * 0x1000) {
            pt.map(VirtAddr::new(va), pte4k(va, true));
        }
        pt.unmap(VirtAddr::new(0x10_3000));
        let got: Vec<u64> = pt
            .range(VirtAddr::new(0x10_2000), VirtAddr::new(0x10_6000))
            .map(|(va, _)| va.as_u64())
            .collect();
        assert_eq!(got, vec![0x10_2000, 0x10_4000, 0x10_5000]);
        // Range start inside a page rounds up to the next base.
        let got: Vec<u64> = pt
            .range(VirtAddr::new(0x10_2800), VirtAddr::new(0x10_5000))
            .map(|(va, _)| va.as_u64())
            .collect();
        assert_eq!(got, vec![0x10_4000]);
    }

    #[test]
    fn for_each_mut_visits_in_order() {
        let mut pt = PageTable::new();
        for va in [0x4000u64, 0x1000, 0x2000] {
            pt.map(VirtAddr::new(va), pte4k(va, true));
        }
        let mut seen = Vec::new();
        pt.for_each_mut(|va, pte| {
            pte.writable = false;
            seen.push(va.as_u64());
        });
        assert_eq!(seen, vec![0x1000, 0x2000, 0x4000]);
        assert!(pt.iter().all(|(_, pte)| !pte.writable));
        let mut seen = Vec::new();
        pt.for_each_mut_in(VirtAddr::new(0x1800), VirtAddr::new(0x4000), |va, pte| {
            pte.writable = true;
            seen.push(va.as_u64());
        });
        assert_eq!(seen, vec![0x2000]);
        assert!(pt.translate(VirtAddr::new(0x2000)).unwrap().pte.writable);
        assert!(!pt.translate(VirtAddr::new(0x1000)).unwrap().pte.writable);
    }

    #[test]
    fn huge_probe_skipped_until_first_huge_map() {
        let mut pt = PageTable::new();
        pt.map(VirtAddr::new(0x1000), pte4k(0x2000, true));
        assert_eq!(pt.huge_len(), 0);
        pt.map(
            VirtAddr::new(0x20_0000),
            Pte { pa: PhysAddr::new(0x40_0000), size: PageSize::Huge2M, writable: true },
        );
        assert_eq!(pt.huge_len(), 1);
        assert!(pt.translate(VirtAddr::new(0x20_0000 + 0x555)).is_some());
        pt.unmap(VirtAddr::new(0x20_0000));
        assert_eq!(pt.huge_len(), 0);
    }

    #[test]
    fn sparse_then_backfill_merges_into_segments() {
        // Map even pages first, odd pages second: lookups and order
        // must be unaffected by segment fragmentation.
        let mut pt = PageTable::new();
        let base = 0x50_0000u64;
        for i in (0..32u64).step_by(2) {
            pt.map(VirtAddr::new(base + i * 0x1000), pte4k(i, true));
        }
        for i in (1..32u64).step_by(2) {
            pt.map(VirtAddr::new(base + i * 0x1000), pte4k(i, true));
        }
        assert_eq!(pt.len(), 32);
        let vas: Vec<u64> = pt.iter().map(|(va, _)| va.as_u64()).collect();
        let want: Vec<u64> = (0..32u64).map(|i| base + i * 0x1000).collect();
        assert_eq!(vas, want);
    }

    #[test]
    fn clone_is_independent() {
        let mut pt = PageTable::new();
        pt.map(VirtAddr::new(0x1000), pte4k(0x2000, true));
        let mut child = pt.clone();
        child.set_writable(VirtAddr::new(0x1000), false);
        assert!(pt.translate(VirtAddr::new(0x1000)).unwrap().pte.writable);
        assert!(!child.translate(VirtAddr::new(0x1000)).unwrap().pte.writable);
    }

    #[test]
    fn differential_against_map_model() {
        // Deterministic op soup over a small VA window; every
        // observable must match the map model.
        let mut fast = PageTable::new();
        let mut model = MapPageTable::default();
        let mut x: u64 = 0xabcd;
        let mut step = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x >> 33
        };
        for i in 0..20_000u64 {
            let va = VirtAddr::new((step() % 64) * 0x1000);
            match step() % 5 {
                0 => {
                    let pte = pte4k((step() % 128) * 0x1000, step() % 2 == 0);
                    fast.map(va, pte);
                    model.map(va, pte);
                }
                1 => {
                    assert_eq!(fast.unmap(va), model.unmap(va), "step {i}");
                }
                2 => {
                    if fast.entry(va).is_some() {
                        let w = step() % 2 == 0;
                        assert_eq!(fast.set_writable(va, w), model.set_writable(va, w), "step {i}");
                    }
                }
                3 => {
                    let probe = va + step() % 0x1000;
                    assert_eq!(fast.translate(probe), model.translate(probe), "step {i}");
                }
                _ => {
                    let fast_all: Vec<_> = fast.iter().collect();
                    assert_eq!(fast_all, model.sorted(), "step {i}");
                }
            }
            assert_eq!(fast.len(), model.entries.len(), "step {i}");
        }
    }
}
