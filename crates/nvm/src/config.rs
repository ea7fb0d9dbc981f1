//! Device geometry and latency configuration.

use crate::start_gap::StartGapConfig;

/// Configuration of the simulated NVM device.
///
/// Defaults reproduce the paper's Table III: 16 GB, 2 ranks, 8 banks,
/// 60 ns reads, 150 ns writes at a 1 GHz clock (1 cycle = 1 ns).
///
/// # Examples
///
/// ```
/// use lelantus_nvm::NvmConfig;
///
/// let cfg = NvmConfig { write_latency: 300, ..NvmConfig::default() };
/// assert_eq!(cfg.read_latency, 60);
/// assert_eq!(cfg.total_banks(), 16);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NvmConfig {
    /// Device capacity in bytes.
    pub capacity_bytes: u64,
    /// Number of ranks.
    pub ranks: usize,
    /// Banks per rank.
    pub banks_per_rank: usize,
    /// Row-buffer size per bank, in bytes.
    pub row_buffer_bytes: u64,
    /// Array read latency in cycles (row-buffer miss).
    pub read_latency: u64,
    /// Array write latency in cycles.
    pub write_latency: u64,
    /// Row-buffer hit latency in cycles.
    pub row_hit_latency: u64,
    /// Capacity of the merging write queue, in entries.
    pub write_queue_capacity: usize,
    /// Low-order line-interleaving of banks (true matches commodity
    /// controllers and the paper's parallel `page_phyc` copies, §III-E).
    pub line_interleave: bool,
    /// Optional Start-Gap wear leveling below the encryption layer
    /// (off by default; the paper improves lifetime by writing less,
    /// wear leveling composes orthogonally).
    pub wear_leveling: Option<StartGapConfig>,
    /// Cycles the shared per-rank data bus is occupied transferring one
    /// 64-byte line (4 cycles ≈ 16 GB/s at 1 GHz).
    pub bus_cycles: u64,
    /// Energy per 64-byte array read, picojoules (PCM-class ≈ 2 pJ/bit).
    pub read_energy_pj: u64,
    /// Energy per 64-byte array write, picojoules (writes cost an order
    /// of magnitude more than reads — the same asymmetry that motivates
    /// Lelantus).
    pub write_energy_pj: u64,
}

impl Default for NvmConfig {
    fn default() -> Self {
        Self {
            capacity_bytes: 16 << 30,
            ranks: 2,
            banks_per_rank: 8,
            row_buffer_bytes: 4096,
            read_latency: 60,
            write_latency: 150,
            row_hit_latency: 15,
            write_queue_capacity: 64,
            line_interleave: true,
            wear_leveling: None,
            bus_cycles: 4,
            read_energy_pj: 1_000,
            write_energy_pj: 12_000,
        }
    }
}

impl NvmConfig {
    /// Total number of banks across all ranks.
    pub fn total_banks(&self) -> usize {
        self.ranks * self.banks_per_rank
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.ranks == 0 || self.banks_per_rank == 0 {
            return Err("device must have at least one bank".into());
        }
        if !self.row_buffer_bytes.is_power_of_two() || self.row_buffer_bytes < 64 {
            return Err("row buffer must be a power of two of at least one line".into());
        }
        if self.capacity_bytes == 0 {
            return Err("capacity must be nonzero".into());
        }
        if self.row_hit_latency > self.read_latency {
            return Err("row hit cannot be slower than an array read".into());
        }
        if self.write_queue_capacity == 0 {
            return Err("write queue needs capacity".into());
        }
        if self.wear_leveling.is_some_and(|sg| sg.gap_write_interval == 0) {
            return Err("Start-Gap needs a positive gap write interval".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_table3() {
        let cfg = NvmConfig::default();
        assert_eq!(cfg.capacity_bytes, 16 << 30);
        assert_eq!(cfg.ranks, 2);
        assert_eq!(cfg.banks_per_rank, 8);
        assert_eq!(cfg.read_latency, 60);
        assert_eq!(cfg.write_latency, 150);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_configs() {
        assert!(NvmConfig { ranks: 0, ..NvmConfig::default() }.validate().is_err());
        assert!(NvmConfig { row_buffer_bytes: 100, ..NvmConfig::default() }.validate().is_err());
        assert!(NvmConfig { capacity_bytes: 0, ..NvmConfig::default() }.validate().is_err());
        assert!(NvmConfig { row_hit_latency: 1000, ..NvmConfig::default() }.validate().is_err());
        assert!(NvmConfig { write_queue_capacity: 0, ..NvmConfig::default() }.validate().is_err());
        let psi0 = Some(StartGapConfig { gap_write_interval: 0 });
        assert!(NvmConfig { wear_leveling: psi0, ..NvmConfig::default() }.validate().is_err());
    }
}
