//! Simulator configuration.

use crate::tlb::TlbConfig;
use lelantus_cache::HierarchyConfig;
use lelantus_core::{ControllerConfig, SchemeKind};
use lelantus_metadata::counter_cache::WritePolicy;
use lelantus_os::{CowStrategy, KernelConfig};
use lelantus_types::PageSize;

/// Full-system configuration.
///
/// # Examples
///
/// ```
/// use lelantus_sim::SimConfig;
/// use lelantus_os::CowStrategy;
/// use lelantus_types::PageSize;
///
/// let cfg = SimConfig::new(CowStrategy::Lelantus, PageSize::Huge2M);
/// assert_eq!(cfg.kernel.phys_bytes, cfg.controller.data_bytes);
/// ```
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Kernel (OS model) parameters; `strategy` selects the CoW regime.
    pub kernel: KernelConfig,
    /// CPU cache hierarchy (Table III defaults).
    pub caches: HierarchyConfig,
    /// Secure memory controller + NVM parameters.
    pub controller: ControllerConfig,
    /// Default page size for `System::mmap`.
    pub page_size: PageSize,
    /// Cycles charged for a page-fault trap (kernel entry/exit, VMA
    /// lookup, PTE bookkeeping) *excluding* the copy/zero/command work
    /// that is charged separately. ~600 cycles at 1 GHz, in line with
    /// gem5 full-system minor-fault costs.
    pub fault_cost: u64,
    /// Cycles charged per executed (non-memory) instruction slot.
    pub op_cost: u64,
    /// Data-TLB geometry and walk cost.
    pub tlb: TlbConfig,
    /// Epoch-sampler period in cycles: every `epoch_interval` simulated
    /// cycles the `System` snapshots interval metrics into a time
    /// series (see `System::epochs`). 0 (the default) disables
    /// sampling entirely.
    pub epoch_interval: u64,
    /// Maintains the cycle-attribution ledger (`System::cycle_ledger`):
    /// every simulated cycle is charged to exactly one
    /// `CycleCategory`, with `sum(categories) == SimMetrics.cycles`.
    /// Purely observational — a ledger-enabled run is bit-identical to
    /// a disabled one. Set via [`SimConfig::with_cycle_ledger`], which
    /// also enables segment recording in the controller and device.
    pub cycle_ledger: bool,
    /// Records a `FaultSpan` per serviced fault (and per implicit
    /// copy) into a `TailRecorder`: overall + per-action HDR latency
    /// histograms and a top-K worst-offender reservoir. Purely
    /// observational — a recording run is bit-identical to a disabled
    /// one. Set via [`SimConfig::with_tail_recorder`]. Per-span cycle
    /// breakdowns additionally need [`SimConfig::with_cycle_ledger`].
    pub tail_recorder: bool,
    /// Worst-offender spans the tail recorder retains (default 16).
    pub tail_top_k: usize,
    /// Records the spatial heat grid (`System::heatmap`): per-4 KB-
    /// region lanes for faults by action, CoW redirects, implicit
    /// copies, counter fills/overflows, Merkle walk touches per tree
    /// level, MAC writebacks and bank array accesses. Purely
    /// observational — a recording run is bit-identical to a disabled
    /// one. Set via [`SimConfig::with_heatmap`], which also enables
    /// recording in the controller and device.
    pub heatmap: bool,
}

/// Maps the kernel-side strategy onto the controller-side scheme.
pub fn scheme_for(strategy: CowStrategy) -> SchemeKind {
    match strategy {
        CowStrategy::Baseline => SchemeKind::Baseline,
        CowStrategy::SilentShredder => SchemeKind::SilentShredder,
        CowStrategy::Lelantus => SchemeKind::LelantusResized,
        CowStrategy::LelantusCow => SchemeKind::LelantusCow,
    }
}

impl SimConfig {
    /// Paper-default system for one scheme and page size.
    pub fn new(strategy: CowStrategy, page_size: PageSize) -> Self {
        let kernel = KernelConfig::default_with(strategy);
        let mut controller = ControllerConfig::for_scheme(scheme_for(strategy));
        controller.data_bytes = kernel.phys_bytes;
        Self {
            kernel,
            caches: HierarchyConfig::default(),
            controller,
            page_size,
            fault_cost: 600,
            op_cost: 1,
            tlb: TlbConfig::default(),
            epoch_interval: 0,
            cycle_ledger: false,
            tail_recorder: false,
            tail_top_k: 16,
            heatmap: false,
        }
    }

    /// Enables the cycle-attribution ledger across the whole stack
    /// (system accounting plus controller/device segment recording).
    pub fn with_cycle_ledger(mut self) -> Self {
        self.cycle_ledger = true;
        self.controller.cycle_ledger = true;
        self.controller.nvm.cycle_ledger = true;
        self
    }

    /// Enables per-fault span recording (`System::tail_recorder`).
    /// Deliberately does *not* force the cycle ledger on: the tail
    /// percentiles are cheap alone, and per-span category breakdowns
    /// appear when [`SimConfig::with_cycle_ledger`] is also set.
    pub fn with_tail_recorder(mut self) -> Self {
        self.tail_recorder = true;
        self
    }

    /// Sets the tail recorder's worst-offender reservoir capacity.
    pub fn with_tail_top_k(mut self, top_k: usize) -> Self {
        self.tail_top_k = top_k;
        self
    }

    /// Enables the spatial heat grid across the whole stack (system
    /// fault lanes plus controller metadata and device bank lanes).
    pub fn with_heatmap(mut self) -> Self {
        self.heatmap = true;
        self.controller.heatmap = true;
        self.controller.nvm.heatmap = true;
        self
    }

    /// Enables the epoch sampler with the given period (cycles); 0
    /// disables it.
    pub fn with_epoch_interval(mut self, cycles: u64) -> Self {
        self.epoch_interval = cycles;
        self
    }

    /// Same system with the counter cache in write-through mode
    /// (Fig 12's comparison axis).
    pub fn with_counter_write_policy(mut self, policy: WritePolicy) -> Self {
        self.controller.counter_cache.policy = policy;
        self
    }

    /// Disables randomized initial counters (isolates datapath
    /// behaviour from overflow noise; the paper randomizes them to
    /// *measure* overflow, §V-A).
    pub fn with_deterministic_counters(mut self) -> Self {
        self.controller.randomize_counters = false;
        self
    }

    /// Shrinks physical memory (faster tests).
    pub fn with_phys_bytes(mut self, bytes: u64) -> Self {
        self.kernel.phys_bytes = bytes;
        self.controller.data_bytes = bytes;
        self
    }

    /// Validates cross-component consistency.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        self.kernel.validate()?;
        self.caches.validate()?;
        self.controller.validate()?;
        if self.kernel.phys_bytes != self.controller.data_bytes {
            return Err("kernel and controller must agree on the data area".into());
        }
        if scheme_for(self.kernel.strategy) != self.controller.scheme {
            return Err("kernel strategy and controller scheme mismatch".into());
        }
        if self.controller.zero_area_bytes != 2 << 20 {
            return Err("the kernel reserves exactly one 2 MB zero page".into());
        }
        if self.cycle_ledger != self.controller.cycle_ledger
            || self.cycle_ledger != self.controller.nvm.cycle_ledger
        {
            // Segments are only drained when the system-level ledger
            // runs; a partial enable would leak or starve them.
            return Err("cycle_ledger must be enabled via with_cycle_ledger (all layers)".into());
        }
        if self.heatmap != self.controller.heatmap || self.heatmap != self.controller.nvm.heatmap {
            // Layer grids are only merged when the system-level heatmap
            // runs; a partial enable would record grids nobody reads.
            return Err("heatmap must be enabled via with_heatmap (all layers)".into());
        }
        self.tlb.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        for strategy in CowStrategy::all() {
            for size in PageSize::all() {
                assert!(SimConfig::new(strategy, size).validate().is_ok(), "{strategy} {size}");
            }
        }
    }

    #[test]
    fn scheme_mapping() {
        assert_eq!(scheme_for(CowStrategy::Lelantus), SchemeKind::LelantusResized);
        assert_eq!(scheme_for(CowStrategy::LelantusCow), SchemeKind::LelantusCow);
        assert_eq!(scheme_for(CowStrategy::Baseline), SchemeKind::Baseline);
        assert_eq!(scheme_for(CowStrategy::SilentShredder), SchemeKind::SilentShredder);
    }

    #[test]
    fn mismatched_configs_rejected() {
        let mut cfg = SimConfig::new(CowStrategy::Baseline, PageSize::Regular4K);
        cfg.controller.data_bytes = 128 << 20;
        assert!(cfg.validate().is_err());
        let mut cfg = SimConfig::new(CowStrategy::Baseline, PageSize::Regular4K);
        cfg.controller.scheme = SchemeKind::LelantusResized;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn builders() {
        let cfg = SimConfig::new(CowStrategy::Lelantus, PageSize::Regular4K)
            .with_phys_bytes(32 << 20)
            .with_counter_write_policy(WritePolicy::WriteThrough);
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.kernel.phys_bytes, 32 << 20);
        assert_eq!(cfg.controller.counter_cache.policy, WritePolicy::WriteThrough);
        let cfg = SimConfig::new(CowStrategy::Lelantus, PageSize::Regular4K)
            .with_tail_recorder()
            .with_tail_top_k(8);
        assert!(cfg.validate().is_ok());
        assert!(cfg.tail_recorder);
        assert_eq!(cfg.tail_top_k, 8);
        assert!(!cfg.cycle_ledger, "tail recorder does not force the ledger");
    }

    #[test]
    fn heatmap_must_enable_all_layers() {
        let cfg = SimConfig::new(CowStrategy::Lelantus, PageSize::Regular4K).with_heatmap();
        assert!(cfg.validate().is_ok());
        assert!(cfg.controller.heatmap && cfg.controller.nvm.heatmap);
        let mut partial = SimConfig::new(CowStrategy::Lelantus, PageSize::Regular4K);
        partial.controller.heatmap = true;
        assert!(partial.validate().is_err(), "partial enable must be rejected");
        let mut partial = SimConfig::new(CowStrategy::Lelantus, PageSize::Regular4K);
        partial.heatmap = true;
        assert!(partial.validate().is_err(), "partial enable must be rejected");
    }

    #[test]
    fn cycle_ledger_must_enable_all_layers() {
        let cfg = SimConfig::new(CowStrategy::Lelantus, PageSize::Regular4K).with_cycle_ledger();
        assert!(cfg.validate().is_ok());
        assert!(cfg.controller.cycle_ledger && cfg.controller.nvm.cycle_ledger);
        let mut partial = SimConfig::new(CowStrategy::Lelantus, PageSize::Regular4K);
        partial.controller.cycle_ledger = true;
        assert!(partial.validate().is_err(), "partial enable must be rejected");
    }
}
