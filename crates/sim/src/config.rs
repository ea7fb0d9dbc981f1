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
    /// What the observer records (epoch series, cycle ledger, tail
    /// spans, heat grid, events); everything off by default.
    pub observe: Observe,
}

/// The observer's one config value: which views a [`System`] records.
///
/// Every view is purely observational — a run with any combination on
/// is bit-identical to one with all of them off — and each feeds the
/// epoch sampler when it is on.
///
/// [`System`]: crate::System
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Observe {
    /// Epoch-sampler period in cycles: every `epoch_interval` simulated
    /// cycles the `System` closes one interval sample of every view
    /// that is on (see `System::epochs`). 0 turns sampling off.
    pub epoch_interval: u64,
    /// Maintains the cycle-attribution ledger (`System::cycle_ledger`):
    /// every simulated cycle is charged to exactly one `CycleCategory`,
    /// with `sum(categories) == SimMetrics.cycles`.
    pub ledger: bool,
    /// Records a `FaultSpan` per serviced fault (and per implicit copy)
    /// into a `TailRecorder` that keeps this many worst offenders.
    /// Per-span cycle breakdowns additionally need `ledger`.
    pub tail: Option<usize>,
    /// Records the spatial view: the heat grid (`System::heatmap`) of
    /// per-4 KB-region lanes for faults by action, CoW redirects,
    /// implicit copies, counter fills/overflows, Merkle walk touches
    /// per tree level, MAC writebacks and bank array accesses, and the
    /// per-region line footprints (`System::footprint`, Fig 10c/d).
    pub heat: bool,
    /// Records the event view (`System::events`): every `Event` into a
    /// ring keeping the most recent this many, plus exact per-kind
    /// counts and the `HistogramSet`.
    pub events: Option<usize>,
}

/// Worst-offender spans the tail recorder keeps unless told otherwise.
pub const DEFAULT_TAIL_TOP_K: usize = 16;

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
            observe: Observe::default(),
        }
    }

    /// Enables the cycle-attribution ledger.
    pub fn with_cycle_ledger(mut self) -> Self {
        self.observe.ledger = true;
        self
    }

    /// Enables per-fault span recording (`System::tail_recorder`),
    /// keeping [`DEFAULT_TAIL_TOP_K`] worst offenders unless a reservoir
    /// size was already set. Does *not* turn the cycle ledger on: the
    /// percentiles are cheap alone, and per-span category breakdowns
    /// appear when [`SimConfig::with_cycle_ledger`] is also set.
    pub fn with_tail_recorder(mut self) -> Self {
        self.observe.tail.get_or_insert(DEFAULT_TAIL_TOP_K);
        self
    }

    /// Enables per-fault span recording keeping the `top_k` slowest
    /// spans.
    pub fn with_tail_top_k(mut self, top_k: usize) -> Self {
        self.observe.tail = Some(top_k);
        self
    }

    /// Enables the event view with a ring of the most recent
    /// `capacity` events.
    pub fn with_events(mut self, capacity: usize) -> Self {
        self.observe.events = Some(capacity);
        self
    }

    /// Enables the spatial view: heat grid and line footprints.
    pub fn with_heatmap(mut self) -> Self {
        self.observe.heat = true;
        self
    }

    /// Enables the epoch sampler with the given period (cycles); 0
    /// disables it.
    pub fn with_epoch_interval(mut self, cycles: u64) -> Self {
        self.observe.epoch_interval = cycles;
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
        if self.kernel.phys_bytes > self.caches.max_phys_bytes() {
            return Err(format!(
                "{} bytes of physical memory exceed the {} bytes the cache tags can address",
                self.kernel.phys_bytes,
                self.caches.max_phys_bytes()
            ));
        }
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
        self.tlb.validate()?;
        if self.observe.events == Some(0) {
            return Err("the event ring needs capacity".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lelantus_nvm::StartGapConfig;

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
    fn an_empty_write_queue_is_rejected() {
        let mut cfg = SimConfig::new(CowStrategy::Lelantus, PageSize::Regular4K);
        cfg.controller.nvm.write_queue_capacity = 0;
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("write queue"), "{err}");
    }

    #[test]
    fn a_zero_start_gap_interval_is_rejected() {
        let mut cfg = SimConfig::new(CowStrategy::Lelantus, PageSize::Regular4K);
        cfg.controller.nvm.wear_leveling = Some(StartGapConfig { gap_write_interval: 0 });
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("Start-Gap"), "{err}");
        cfg.controller.nvm.wear_leveling = Some(StartGapConfig::default());
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn memory_beyond_the_cache_tag_range_rejected() {
        let cfg = SimConfig::new(CowStrategy::Lelantus, PageSize::Regular4K);
        assert!(cfg.clone().with_phys_bytes(1 << 45).validate().is_ok());
        let err = cfg.with_phys_bytes((1 << 45) + (2 << 20)).validate().unwrap_err();
        assert!(err.contains("cache tags"), "{err}");
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
        assert_eq!(cfg.observe.tail, Some(8));
        assert!(!cfg.observe.ledger, "tail recorder does not force the ledger");
        let cfg = SimConfig::new(CowStrategy::Lelantus, PageSize::Regular4K)
            .with_tail_top_k(4)
            .with_tail_recorder();
        assert_eq!(cfg.observe.tail, Some(4), "enabling keeps a reservoir size already set");
    }

    #[test]
    fn observer_builders_set_one_view_each() {
        let off = SimConfig::new(CowStrategy::Lelantus, PageSize::Regular4K);
        assert_eq!(off.observe, Observe::default());
        let on =
            off.clone().with_cycle_ledger().with_heatmap().with_epoch_interval(500).with_events(8);
        assert!(on.validate().is_ok());
        assert_eq!(
            on.observe,
            Observe { epoch_interval: 500, ledger: true, tail: None, heat: true, events: Some(8) }
        );
        assert!(off.clone().with_events(0).validate().is_err(), "an empty ring is rejected");
        assert_eq!(
            off.with_tail_recorder().observe.tail,
            Some(DEFAULT_TAIL_TOP_K),
            "default reservoir"
        );
    }
}
