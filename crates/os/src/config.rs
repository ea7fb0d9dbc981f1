//! Kernel configuration.

/// Which copy-on-write machinery the kernel drives (paper §V-A's four
/// compared schemes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CowStrategy {
    /// Default Linux: CoW faults copy the whole page; allocation zeroes
    /// whole pages.
    Baseline,
    /// Silent Shredder: zero-initialization is elided via counter
    /// state, but page copies remain full-cost.
    SilentShredder,
    /// Lelantus Solution 1 (resized counter blocks): CoW faults issue
    /// `page_copy` commands; copies complete lazily per line.
    Lelantus,
    /// Lelantus Solution 2 (supplementary CoW metadata): same kernel
    /// behaviour as [`CowStrategy::Lelantus`]; the memory controller
    /// stores the source address out-of-band.
    LelantusCow,
}

impl CowStrategy {
    /// True for either Lelantus scheme (the kernel behaves identically
    /// for both; only the controller encoding differs).
    pub fn is_lelantus(self) -> bool {
        matches!(self, CowStrategy::Lelantus | CowStrategy::LelantusCow)
    }

    /// All four schemes, in the paper's comparison order.
    pub fn all() -> [CowStrategy; 4] {
        [
            CowStrategy::Baseline,
            CowStrategy::SilentShredder,
            CowStrategy::Lelantus,
            CowStrategy::LelantusCow,
        ]
    }
}

impl std::fmt::Display for CowStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            CowStrategy::Baseline => "Baseline",
            CowStrategy::SilentShredder => "SilentShredder",
            CowStrategy::Lelantus => "Lelantus",
            CowStrategy::LelantusCow => "Lelantus-CoW",
        };
        f.write_str(name)
    }
}

/// Kernel construction parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelConfig {
    /// Bytes of physical memory the kernel manages (the OS-visible data
    /// area; security metadata lives above it).
    pub phys_bytes: u64,
    /// CoW machinery to drive.
    pub strategy: CowStrategy,
    /// Base virtual address handed out by `mmap`.
    pub mmap_base: u64,
}

impl KernelConfig {
    /// 256 MB of managed memory with the given strategy — enough for
    /// every experiment in the paper's evaluation (16 MB–100 MB working
    /// sets) while keeping simulation memory reasonable.
    pub fn default_with(strategy: CowStrategy) -> Self {
        Self { phys_bytes: 256 << 20, strategy, mmap_base: 0x7f00_0000_0000 }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.phys_bytes < (4 << 20) {
            return Err("kernel needs at least 4 MB (zero pages + slack)".into());
        }
        if !self.phys_bytes.is_multiple_of(2 << 20) {
            return Err("physical size must be a multiple of 2 MB".into());
        }
        if !self.mmap_base.is_multiple_of(2 << 20) {
            return Err("mmap base must be huge-page aligned".into());
        }
        Ok(())
    }
}

impl Default for KernelConfig {
    fn default() -> Self {
        Self::default_with(CowStrategy::Baseline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_helpers() {
        assert!(CowStrategy::Lelantus.is_lelantus());
        assert!(CowStrategy::LelantusCow.is_lelantus());
        assert!(!CowStrategy::Baseline.is_lelantus());
        assert!(!CowStrategy::SilentShredder.is_lelantus());
        assert_eq!(CowStrategy::all().len(), 4);
        assert_eq!(CowStrategy::LelantusCow.to_string(), "Lelantus-CoW");
    }

    #[test]
    fn config_validation() {
        assert!(KernelConfig::default().validate().is_ok());
        assert!(KernelConfig { phys_bytes: 1 << 20, ..KernelConfig::default() }
            .validate()
            .is_err());
        assert!(KernelConfig { phys_bytes: (256 << 20) + 4096, ..KernelConfig::default() }
            .validate()
            .is_err());
        assert!(KernelConfig { mmap_base: 0x1000, ..KernelConfig::default() }.validate().is_err());
    }
}
