//! Controller configuration and scheme selection.

use lelantus_metadata::counter_block::CounterEncoding;
use lelantus_metadata::counter_cache::CounterCacheConfig;
use lelantus_nvm::NvmConfig;

/// The four CoW schemes compared in the paper's evaluation (§V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Conventional secure NVM controller: no CoW support; the kernel
    /// performs full page copies and zeroing.
    Baseline,
    /// Silent Shredder (Awad et al.): a counter state marks all-zero
    /// lines so zero-initialization needs no data writes; page copies
    /// remain full-cost.
    SilentShredder,
    /// Lelantus Solution 1: resized counter blocks carry a `CoW_Flag`,
    /// a 63-bit major, 6-bit minors and the 64-bit source address.
    LelantusResized,
    /// Lelantus Solution 2 (Lelantus-CoW): classic 7-bit minors plus a
    /// supplementary 8 B/region CoW-metadata table with its own cache.
    LelantusCow,
}

impl SchemeKind {
    /// The counter-block wire format this scheme uses.
    pub fn encoding(self) -> CounterEncoding {
        match self {
            SchemeKind::LelantusResized => CounterEncoding::Resized,
            _ => CounterEncoding::Classic,
        }
    }

    /// Whether the scheme supports the lazy-copy commands.
    pub fn supports_lazy_copy(self) -> bool {
        matches!(self, SchemeKind::LelantusResized | SchemeKind::LelantusCow)
    }

    /// All schemes in the paper's comparison order.
    pub fn all() -> [SchemeKind; 4] {
        [
            SchemeKind::Baseline,
            SchemeKind::SilentShredder,
            SchemeKind::LelantusResized,
            SchemeKind::LelantusCow,
        ]
    }
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            SchemeKind::Baseline => "Baseline",
            SchemeKind::SilentShredder => "SilentShredder",
            SchemeKind::LelantusResized => "Lelantus",
            SchemeKind::LelantusCow => "Lelantus-CoW",
        };
        f.write_str(name)
    }
}

/// Construction parameters for the controller.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// CoW scheme.
    pub scheme: SchemeKind,
    /// The backing NVM device.
    pub nvm: NvmConfig,
    /// OS-visible data bytes (metadata is placed above this).
    pub data_bytes: u64,
    /// Counter-cache geometry and write policy (Table III / Fig 12).
    pub counter_cache: CounterCacheConfig,
    /// Entries in the CoW cache (Lelantus-CoW only; the paper reserves
    /// 32 KB = 4096 × 8 B of counter-cache capacity).
    pub cow_cache_entries: usize,
    /// AES pad-generation latency in cycles, overlapped with the data
    /// fetch (paper §V-A: 24 cycles).
    pub aes_latency: u64,
    /// Processor→controller transfer latency charged per MMIO command
    /// (paper §IV-A: same as a write transfer).
    pub cmd_latency: u64,
    /// Merkle-tree node-cache capacity (nodes).
    pub merkle_cache_nodes: usize,
    /// Bytes at the bottom of the data area that are the OS zero pages:
    /// reads resolving there return zeros without an NVM data access.
    pub zero_area_bytes: u64,
    /// Randomize initial minor counters (the paper initializes counter
    /// blocks randomly to model realistic overflow rates, §V-A).
    pub randomize_counters: bool,
    /// Apply the §III-E recursive-chain shortening rule in `page_copy`
    /// (copying an unmodified CoW page records its grandparent).
    /// Disable only for the ablation study.
    pub chain_shortening: bool,
    /// Verify per-line data MACs (the Rogers et al. substrate: data is
    /// MAC-protected, counters are tree-protected). Adds MAC metadata
    /// traffic on cache misses.
    pub data_macs: bool,
    /// On-chip MAC cache capacity in 64-byte MAC lines (8 tags each).
    pub mac_cache_lines: usize,
    /// AES-128 key for the counter-mode engine.
    pub key: [u8; 16],
}

impl ControllerConfig {
    /// Paper-default configuration for `scheme` over a 256 MB data
    /// area (the kernel's default arena).
    pub fn for_scheme(scheme: SchemeKind) -> Self {
        let cow_reserved = scheme == SchemeKind::LelantusCow;
        Self {
            scheme,
            nvm: NvmConfig::default(),
            data_bytes: 256 << 20,
            counter_cache: CounterCacheConfig {
                // Lelantus-CoW gives up 32 KB of the 256 KB counter
                // cache to CoW mappings (§V-A): 2 of the 16 ways of
                // every set (2 × 256 sets × 64 B = 32 KB).
                entries: if cow_reserved { 4096 - 512 } else { 4096 },
                ways: if cow_reserved { 14 } else { 16 },
                ..CounterCacheConfig::default()
            },
            cow_cache_entries: 4096,
            aes_latency: 24,
            cmd_latency: 30,
            merkle_cache_nodes: 512,
            zero_area_bytes: 2 << 20,
            randomize_counters: true,
            chain_shortening: true,
            data_macs: true,
            mac_cache_lines: 1024,
            key: *b"lelantus-aes-key",
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        self.nvm.validate()?;
        self.counter_cache.validate()?;
        if self.data_bytes == 0 || !self.data_bytes.is_multiple_of(4096) {
            return Err("data area must be a nonzero multiple of 4 KB".into());
        }
        if !self.zero_area_bytes.is_multiple_of(4096) || self.zero_area_bytes >= self.data_bytes {
            return Err("zero area must be page-aligned and inside the data area".into());
        }
        if self.cow_cache_entries == 0 {
            return Err("CoW cache needs at least one entry".into());
        }
        if self.data_macs && self.mac_cache_lines == 0 {
            return Err("data MACs need a nonzero MAC cache".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_properties() {
        assert_eq!(SchemeKind::LelantusResized.encoding(), CounterEncoding::Resized);
        assert_eq!(SchemeKind::LelantusCow.encoding(), CounterEncoding::Classic);
        assert!(SchemeKind::LelantusCow.supports_lazy_copy());
        assert!(!SchemeKind::Baseline.supports_lazy_copy());
        assert_eq!(SchemeKind::all().len(), 4);
        assert_eq!(SchemeKind::LelantusResized.to_string(), "Lelantus");
    }

    #[test]
    fn defaults_validate() {
        for s in SchemeKind::all() {
            assert!(ControllerConfig::for_scheme(s).validate().is_ok(), "{s}");
        }
    }

    #[test]
    fn cow_scheme_reserves_counter_cache() {
        assert_eq!(
            ControllerConfig::for_scheme(SchemeKind::LelantusCow).counter_cache.entries,
            4096 - 512
        );
        assert_eq!(
            ControllerConfig::for_scheme(SchemeKind::LelantusResized).counter_cache.entries,
            4096
        );
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = ControllerConfig::for_scheme(SchemeKind::Baseline);
        c.data_bytes = 100;
        assert!(c.validate().is_err());
        let mut c = ControllerConfig::for_scheme(SchemeKind::Baseline);
        c.zero_area_bytes = c.data_bytes;
        assert!(c.validate().is_err());
        let mut c = ControllerConfig::for_scheme(SchemeKind::LelantusCow);
        c.cow_cache_entries = 0;
        assert!(c.validate().is_err());
    }
}
