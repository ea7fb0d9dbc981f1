//! End-to-end metrics snapshot.

use crate::tlb::TlbStats;
use lelantus_cache::HierarchyStats;
use lelantus_core::ControllerStats;
use lelantus_metadata::counter_cache::CounterCacheStats;
use lelantus_metadata::cow_meta::CowCacheStats;
use lelantus_nvm::NvmStats;
use lelantus_obs::{CycleLedger, HeatGrid, HistogramSet, TailSummary};
use lelantus_os::kernel::KernelStats;
use lelantus_types::Cycles;

/// Everything the experiment harnesses need, in one snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimMetrics {
    /// Simulated time elapsed.
    pub cycles: Cycles,
    /// Physical NVM traffic.
    pub nvm: NvmStats,
    /// Controller events (redirections, commands, overflows...).
    pub controller: ControllerStats,
    /// Kernel events (faults, forks...).
    pub kernel: KernelStats,
    /// CPU cache statistics.
    pub caches: HierarchyStats,
    /// Counter-cache statistics.
    pub counter_cache: CounterCacheStats,
    /// CoW-cache statistics (Lelantus-CoW).
    pub cow_cache: CowCacheStats,
    /// Data-TLB statistics.
    pub tlb: TlbStats,
}

impl SimMetrics {
    /// Interval metrics: `self - earlier` for every counter and the
    /// cycle difference.
    pub fn delta_since(&self, earlier: &SimMetrics) -> SimMetrics {
        SimMetrics {
            cycles: self.cycles - earlier.cycles,
            nvm: self.nvm.delta_since(&earlier.nvm),
            controller: self.controller.delta_since(&earlier.controller),
            kernel: self.kernel.delta_since(&earlier.kernel),
            caches: self.caches.delta_since(&earlier.caches),
            counter_cache: self.counter_cache.delta_since(&earlier.counter_cache),
            cow_cache: self.cow_cache.delta_since(&earlier.cow_cache),
            tlb: self.tlb.delta_since(&earlier.tlb),
        }
    }

    /// Speedup of this run relative to `baseline` (ratio of cycles).
    pub fn speedup_vs(&self, baseline: &SimMetrics) -> f64 {
        if self.cycles.as_u64() == 0 {
            return 0.0;
        }
        baseline.cycles.as_u64() as f64 / self.cycles.as_u64() as f64
    }

    /// This run's NVM write count as a fraction of `baseline`'s —
    /// the paper's "number of writes reduced to X %" metric.
    pub fn write_fraction_vs(&self, baseline: &SimMetrics) -> f64 {
        if baseline.nvm.line_writes == 0 {
            return 0.0;
        }
        self.nvm.line_writes as f64 / baseline.nvm.line_writes as f64
    }

    /// Write amplification: physical NVM line writes per logical line
    /// write (Fig 2's metric).
    pub fn write_amplification(&self, logical_line_writes: u64) -> f64 {
        if logical_line_writes == 0 {
            return 0.0;
        }
        self.nvm.line_writes as f64 / logical_line_writes as f64
    }
}

/// One epoch of the time series the epoch sampler produces: the
/// interval metrics for `(end_cycle - delta.cycles, end_cycle]`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EpochSample {
    /// Simulated cycle the epoch closed at.
    pub end_cycle: Cycles,
    /// True interval counters for the epoch (not running totals).
    pub delta: SimMetrics,
    /// Per-category cycle attribution for the epoch (all zero unless
    /// `Observe::ledger`; sums to `delta.cycles` when enabled).
    pub ledger: CycleLedger,
    /// Per-kind histogram deltas for the epoch (queue depth, fault
    /// service cycles, ...). `None` unless `Observe::events` is on.
    pub hists: Option<HistogramSet>,
    /// Tail-latency percentile summary of the fault spans recorded in
    /// this epoch (all zero unless `Observe::tail`).
    pub tail: TailSummary,
    /// Spatial heat accrued in this epoch across every lane (`None`
    /// unless `Observe::heat`). The per-epoch grids sum cell-for-cell
    /// to the run's grid.
    pub heat: Option<Box<HeatGrid>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_and_fractions() {
        let base = SimMetrics {
            cycles: Cycles::new(1000),
            nvm: NvmStats { line_writes: 200, ..Default::default() },
            ..Default::default()
        };
        let fast = SimMetrics {
            cycles: Cycles::new(250),
            nvm: NvmStats { line_writes: 50, ..Default::default() },
            ..Default::default()
        };
        assert!((fast.speedup_vs(&base) - 4.0).abs() < 1e-12);
        assert!((fast.write_fraction_vs(&base) - 0.25).abs() < 1e-12);
        assert!((base.write_amplification(100) - 2.0).abs() < 1e-12);
        assert_eq!(SimMetrics::default().speedup_vs(&base), 0.0);
    }

    #[test]
    fn delta() {
        let a = SimMetrics { cycles: Cycles::new(100), ..Default::default() };
        let b = SimMetrics { cycles: Cycles::new(175), ..Default::default() };
        assert_eq!(b.delta_since(&a).cycles, Cycles::new(75));
    }

    #[test]
    fn delta_subtracts_every_group() {
        use lelantus_cache::CacheStats;
        let mut a = SimMetrics::default();
        a.caches.l1 = CacheStats { hits: 10, misses: 2, ..Default::default() };
        a.counter_cache.hits = 5;
        a.cow_cache.misses = 3;
        a.tlb.walks = 7;
        a.kernel.forks = 1;
        let mut b = a;
        b.caches.l1.hits = 25;
        b.counter_cache.hits = 9;
        b.cow_cache.misses = 4;
        b.tlb.walks = 11;
        b.kernel.forks = 3;
        let d = b.delta_since(&a);
        assert_eq!(d.caches.l1.hits, 15, "cache stats must be true deltas");
        assert_eq!(d.caches.l1.misses, 0);
        assert_eq!(d.counter_cache.hits, 4);
        assert_eq!(d.cow_cache.misses, 1);
        assert_eq!(d.tlb.walks, 4);
        assert_eq!(d.kernel.forks, 2);
        // Subtracting a snapshot from itself yields all-zero deltas.
        assert_eq!(b.delta_since(&b), SimMetrics::default());
    }
}
