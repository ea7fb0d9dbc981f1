//! Write-endurance (wear) accounting.
//!
//! Limited write endurance is the paper's core motivation: every
//! physical line write consumes device lifetime, and CoW's write
//! amplification "can also reduce the lifetime of limited
//! write-endurance memories" (§II-D). The tracker counts writes per
//! 4 KB region and exposes the aggregate/maximum figures that the
//! write-reduction results (Figs 9b/9d/11) are derived from.
//!
//! Regions are counted in a hash map with the cheap
//! [`lelantus_types::hash::IndexHasher`]: the keys are device region
//! numbers the simulator computes, and only touched regions cost
//! memory.

use lelantus_types::hash::IndexMap;
use lelantus_types::{PhysAddr, REGION_BYTES};

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
    per_region: IndexMap<u64, u64>,
    total: u64,
}

impl WearTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one physical line write at `addr`.
    pub fn record_line_write(&mut self, addr: PhysAddr) {
        self.total += 1;
        *self.per_region.entry(addr.as_u64() / REGION_BYTES).or_insert(0) += 1;
    }

    /// Total physical line writes observed.
    pub fn total_line_writes(&self) -> u64 {
        self.total
    }

    /// Heaviest-written 4 KB region's write count (the wear-leveling
    /// worst case).
    pub fn max_region_writes(&self) -> u64 {
        self.per_region.values().copied().max().unwrap_or(0)
    }

    /// Number of distinct 4 KB regions ever written.
    pub fn touched_regions(&self) -> usize {
        self.per_region.len()
    }

    /// Mean writes per touched region.
    pub fn mean_region_writes(&self) -> f64 {
        if self.per_region.is_empty() {
            0.0
        } else {
            self.total as f64 / self.per_region.len() as f64
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
        self.per_region.clear();
        self.total = 0;
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
    #[should_panic(expected = "endurance")]
    fn zero_endurance_panics() {
        WearTracker::new().worst_case_wear_fraction(0);
    }
}
