//! Write-endurance (wear) accounting.
//!
//! Limited write endurance is the paper's core motivation: every
//! physical line write consumes device lifetime, and CoW's write
//! amplification "can also reduce the lifetime of limited
//! write-endurance memories" (§II-D). The tracker counts writes per
//! 4 KB region and exposes the aggregate/maximum figures that the
//! write-reduction results (Figs 9b/9d/11) are derived from.
//!
//! Regions are counted in a two-level table indexed by device region
//! number: a `Vec` of 4 KiB chunks of 512 counters, each chunk
//! allocated on the first write into it. A write is two indexings, an
//! add and a compare (the largest count is kept as it grows). The top
//! level costs 8 bytes per 2 MiB of the device's address reach; a flat
//! counter vector would cost 8 bytes per 4 KiB region up to the
//! highest one touched, and the metadata areas sit at the top of that
//! reach (DESIGN.md §8.6).

use lelantus_types::{PhysAddr, REGION_BYTES};

/// Region counters per chunk (4 KiB of `u64`s).
const CHUNK_REGIONS: usize = 512;

/// Per-region write counters plus aggregate wear statistics.
///
/// # Examples
///
/// ```
/// use lelantus_nvm::WearTracker;
/// use lelantus_types::PhysAddr;
///
/// let mut wear = WearTracker::new();
/// wear.record_line_write(PhysAddr::new(0x1000));
/// wear.record_line_write(PhysAddr::new(0x1040));
/// assert_eq!(wear.total_line_writes(), 2);
/// assert_eq!(wear.max_region_writes(), 2); // same 4 KB region
/// ```
#[derive(Debug, Clone, Default)]
pub struct WearTracker {
    /// Counter chunks indexed by `region / CHUNK_REGIONS`, grown
    /// lazily; `None` until a region in the chunk is written.
    chunks: Vec<Option<Box<[u64; CHUNK_REGIONS]>>>,
    /// Regions with a nonzero count.
    touched: usize,
    /// The largest count (counts only grow until a reset).
    max: u64,
    total: u64,
}

impl WearTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one physical line write at `addr`.
    #[inline]
    pub fn record_line_write(&mut self, addr: PhysAddr) {
        let region = addr.as_u64() / REGION_BYTES;
        let (chunk, slot) =
            ((region / CHUNK_REGIONS as u64) as usize, region as usize % CHUNK_REGIONS);
        let count = match self.chunks.get_mut(chunk) {
            Some(Some(c)) => &mut c[slot],
            _ => &mut Self::alloc_chunk(&mut self.chunks, chunk)[slot],
        };
        self.touched += (*count == 0) as usize;
        *count += 1;
        self.max = self.max.max(*count);
        self.total += 1;
    }

    /// Allocates chunk `chunk`, growing the top level to reach it.
    #[cold]
    #[inline(never)]
    fn alloc_chunk(
        chunks: &mut Vec<Option<Box<[u64; CHUNK_REGIONS]>>>,
        chunk: usize,
    ) -> &mut [u64; CHUNK_REGIONS] {
        if chunk >= chunks.len() {
            chunks.resize_with(chunk + 1, || None);
        }
        chunks[chunk].get_or_insert_with(|| Box::new([0; CHUNK_REGIONS]))
    }

    /// Total physical line writes observed.
    pub fn total_line_writes(&self) -> u64 {
        self.total
    }

    /// Heaviest-written 4 KB region's write count (the wear-leveling
    /// worst case).
    pub fn max_region_writes(&self) -> u64 {
        self.max
    }

    /// Number of distinct 4 KB regions ever written.
    pub fn touched_regions(&self) -> usize {
        self.touched
    }

    /// Mean writes per touched region.
    pub fn mean_region_writes(&self) -> f64 {
        if self.touched == 0 {
            0.0
        } else {
            self.total as f64 / self.touched as f64
        }
    }

    /// Estimated fraction of a cell-endurance budget consumed by the
    /// worst region, given `endurance` writes per cell.
    ///
    /// # Panics
    ///
    /// Panics if `endurance` is zero.
    pub fn worst_case_wear_fraction(&self, endurance: u64) -> f64 {
        assert!(endurance > 0, "endurance must be positive");
        self.max_region_writes() as f64 / endurance as f64
    }

    /// Resets all counters.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_regions_independently() {
        let mut w = WearTracker::new();
        for i in 0..10 {
            w.record_line_write(PhysAddr::new(i * REGION_BYTES));
        }
        w.record_line_write(PhysAddr::new(0));
        assert_eq!(w.total_line_writes(), 11);
        assert_eq!(w.touched_regions(), 10);
        assert_eq!(w.max_region_writes(), 2);
        assert!((w.mean_region_writes() - 1.1).abs() < 1e-9);
    }

    #[test]
    fn wear_fraction() {
        let mut w = WearTracker::new();
        for _ in 0..50 {
            w.record_line_write(PhysAddr::new(0));
        }
        assert!((w.worst_case_wear_fraction(100) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn reset_clears() {
        let mut w = WearTracker::new();
        w.record_line_write(PhysAddr::new(0));
        w.reset();
        assert_eq!(w.total_line_writes(), 0);
        assert_eq!(w.max_region_writes(), 0);
        assert_eq!(w.mean_region_writes(), 0.0);
    }

    #[test]
    fn matches_a_hash_map_model() {
        use rand::{Rng, SeedableRng};
        use std::collections::HashMap;
        let chunk = CHUNK_REGIONS as u64 * REGION_BYTES;
        // Region runs inside chunk 0, across the chunk 0/1 and 2/3
        // boundaries, and at device addresses of 2^40 and above.
        let bases = [0, chunk - 20 * REGION_BYTES, 3 * chunk - 8 * REGION_BYTES, 1 << 40];
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x3ea7);
        let mut wear = WearTracker::new();
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut total = 0u64;
        for step in 0..20_000 {
            if rng.gen_range(0..2_000) == 0 {
                wear.reset();
                model.clear();
                total = 0;
            } else {
                let base = bases[rng.gen_range(0..bases.len())];
                let addr = base + rng.gen_range(0..40) * REGION_BYTES + rng.gen_range(0..64) * 64;
                wear.record_line_write(PhysAddr::new(addr));
                *model.entry(addr / REGION_BYTES).or_insert(0) += 1;
                total += 1;
            }
            let max = model.values().copied().max().unwrap_or(0);
            let mean = if model.is_empty() { 0.0 } else { total as f64 / model.len() as f64 };
            assert_eq!(wear.total_line_writes(), total, "step {step}");
            assert_eq!(wear.max_region_writes(), max, "step {step}");
            assert_eq!(wear.touched_regions(), model.len(), "step {step}");
            assert_eq!(wear.mean_region_writes(), mean, "step {step}");
        }
        assert!(wear.chunks.iter().flatten().count() >= 5, "the soup spans several chunks");
    }

    #[test]
    #[should_panic(expected = "endurance")]
    fn zero_endurance_panics() {
        WearTracker::new().worst_case_wear_fraction(0);
    }
}
