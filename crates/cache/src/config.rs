//! Cache geometry and latency configuration.

use crate::set_assoc::MAX_WAYS;
use lelantus_types::LINE_BYTES;

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Access latency in cycles.
    pub latency: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.ways * LINE_BYTES)
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.ways == 0 {
            return Err("cache needs at least one way".into());
        }
        if !self.size_bytes.is_multiple_of(self.ways * LINE_BYTES) {
            return Err("size must be a whole number of sets".into());
        }
        if self.ways > MAX_WAYS {
            return Err(format!("a set holds at most {MAX_WAYS} ways"));
        }
        let sets = self.sets();
        if sets == 0 || !sets.is_power_of_two() {
            return Err("set count must be a nonzero power of two".into());
        }
        Ok(())
    }

    /// Size of the largest physical address space this level can tag:
    /// a line's tag, its line number without the set bits, is 32 bits.
    pub fn max_phys_bytes(&self) -> u64 {
        ((self.sets() * LINE_BYTES) as u64).saturating_mul(1 << 32)
    }
}

/// Configuration of the three-level hierarchy.
///
/// Defaults reproduce the paper's Table III.
///
/// # Examples
///
/// ```
/// use lelantus_cache::HierarchyConfig;
///
/// let cfg = HierarchyConfig::default();
/// assert_eq!(cfg.l1.size_bytes, 64 << 10);
/// assert_eq!(cfg.l3.latency, 25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// Level-1 data cache.
    pub l1: CacheConfig,
    /// Level-2 cache.
    pub l2: CacheConfig,
    /// Last-level cache.
    pub l3: CacheConfig,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self {
            l1: CacheConfig { size_bytes: 64 << 10, ways: 8, latency: 2 },
            l2: CacheConfig { size_bytes: 512 << 10, ways: 8, latency: 8 },
            l3: CacheConfig { size_bytes: 8 << 20, ways: 8, latency: 25 },
        }
    }
}

impl HierarchyConfig {
    /// Validates all three levels.
    ///
    /// # Errors
    ///
    /// Returns the first level's validation failure.
    pub fn validate(&self) -> Result<(), String> {
        self.l1.validate()?;
        self.l2.validate()?;
        self.l3.validate()
    }

    /// Size of the largest physical address space every level can tag
    /// (2^45 bytes for the paper's 128-set L1).
    pub fn max_phys_bytes(&self) -> u64 {
        [self.l1, self.l2, self.l3]
            .iter()
            .map(CacheConfig::max_phys_bytes)
            .min()
            .expect("three levels")
    }

    /// A tiny hierarchy for fast unit tests (keeps miss paths hot).
    pub fn tiny() -> Self {
        Self {
            l1: CacheConfig { size_bytes: 1 << 10, ways: 2, latency: 2 },
            l2: CacheConfig { size_bytes: 4 << 10, ways: 2, latency: 8 },
            l3: CacheConfig { size_bytes: 16 << 10, ways: 4, latency: 25 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let cfg = HierarchyConfig::default();
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.l1.sets(), 128);
        assert_eq!(cfg.l2.sets(), 1024);
        assert_eq!(cfg.l3.sets(), 16384);
        assert_eq!(cfg.l1.latency, 2);
        assert_eq!(cfg.l2.latency, 8);
    }

    #[test]
    fn invalid_geometries_rejected() {
        assert!(CacheConfig { size_bytes: 1000, ways: 8, latency: 1 }.validate().is_err());
        assert!(CacheConfig { size_bytes: 0, ways: 8, latency: 1 }.validate().is_err());
        assert!(CacheConfig { size_bytes: 4096, ways: 0, latency: 1 }.validate().is_err());
        // 3 sets: not a power of two.
        assert!(CacheConfig { size_bytes: 3 * 64, ways: 1, latency: 1 }.validate().is_err());
    }

    #[test]
    fn more_than_eight_ways_rejected() {
        assert!(CacheConfig { size_bytes: 8 * 64, ways: 8, latency: 1 }.validate().is_ok());
        let err = CacheConfig { size_bytes: 16 * 64, ways: 16, latency: 1 }.validate();
        assert_eq!(err, Err("a set holds at most 8 ways".into()));
    }

    #[test]
    fn tag_range_follows_the_smallest_level() {
        assert_eq!(HierarchyConfig::default().max_phys_bytes(), 1 << 45);
        // The tiny L1 has 8 sets.
        assert_eq!(HierarchyConfig::tiny().max_phys_bytes(), 1 << 41);
    }

    #[test]
    fn tiny_is_valid() {
        assert!(HierarchyConfig::tiny().validate().is_ok());
    }
}
