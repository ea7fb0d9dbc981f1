//! The event view's latency and occupancy distributions.
//!
//! Aggregate means hide the shape that matters for tail analysis (a
//! write queue that is empty 99 % of the time and full 1 % of the time
//! averages to "shallow"). The event view keeps one [`HdrHistogram`]
//! per [`HistKind`] in a [`HistogramSet`] — the same histogram type the
//! tail recorder uses, so every distribution answers percentile queries
//! at the same 1/32 relative error.

use crate::hdr::HdrHistogram;

/// Which distribution a recorded sample belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistKind {
    /// NVM write-queue depth after each admission.
    WriteQueueDepth,
    /// CoW chain hops followed by a redirected read.
    CopyChainDepth,
    /// Counter-cache resident blocks after each fill.
    CounterCacheOccupancy,
    /// Cycles a page fault stalled the faulting core (trap plus
    /// copy/zero/command work).
    FaultServiceCycles,
    /// Cycles an MMIO page command (init/copy/phyc/free) occupied the
    /// controller, from acceptance to completion.
    CmdServiceCycles,
}

impl HistKind {
    /// Number of distinct kinds.
    pub const COUNT: usize = 5;

    /// All kinds, in index order.
    pub const ALL: [HistKind; Self::COUNT] = [
        HistKind::WriteQueueDepth,
        HistKind::CopyChainDepth,
        HistKind::CounterCacheOccupancy,
        HistKind::FaultServiceCycles,
        HistKind::CmdServiceCycles,
    ];

    /// Dense index.
    pub fn index(self) -> usize {
        match self {
            HistKind::WriteQueueDepth => 0,
            HistKind::CopyChainDepth => 1,
            HistKind::CounterCacheOccupancy => 2,
            HistKind::FaultServiceCycles => 3,
            HistKind::CmdServiceCycles => 4,
        }
    }

    /// Snake-case name (report labels, JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            HistKind::WriteQueueDepth => "write_queue_depth",
            HistKind::CopyChainDepth => "copy_chain_depth",
            HistKind::CounterCacheOccupancy => "counter_cache_occupancy",
            HistKind::FaultServiceCycles => "fault_service_cycles",
            HistKind::CmdServiceCycles => "cmd_service_cycles",
        }
    }
}

/// One histogram per [`HistKind`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSet {
    hists: [HdrHistogram; HistKind::COUNT],
}

impl HistogramSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The histogram for `kind`.
    pub fn get(&self, kind: HistKind) -> &HdrHistogram {
        &self.hists[kind.index()]
    }

    /// Mutable access (recording).
    pub fn get_mut(&mut self, kind: HistKind) -> &mut HdrHistogram {
        &mut self.hists[kind.index()]
    }

    /// Per-kind [`HdrHistogram::delta_since`] against an older snapshot
    /// of this same set.
    pub fn delta_since(&self, earlier: &HistogramSet) -> HistogramSet {
        let mut out = HistogramSet::new();
        for kind in HistKind::ALL {
            out.hists[kind.index()] = self.get(kind).delta_since(earlier.get(kind));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_delta_since_applies_per_kind() {
        let mut set = HistogramSet::new();
        set.get_mut(HistKind::CmdServiceCycles).record(5);
        let before = set.clone();
        set.get_mut(HistKind::CmdServiceCycles).record(6);
        set.get_mut(HistKind::WriteQueueDepth).record(1);
        let ds = set.delta_since(&before);
        assert_eq!(ds.get(HistKind::CmdServiceCycles).count(), 1);
        assert_eq!(ds.get(HistKind::CmdServiceCycles).sum(), 6);
        assert_eq!(ds.get(HistKind::WriteQueueDepth).count(), 1);
        assert_eq!(ds.get(HistKind::CopyChainDepth).count(), 0);
    }

    #[test]
    fn set_indexing_round_trips() {
        let mut set = HistogramSet::new();
        set.get_mut(HistKind::CopyChainDepth).record(2);
        assert_eq!(set.get(HistKind::CopyChainDepth).count(), 1);
        assert_eq!(set.get(HistKind::WriteQueueDepth).count(), 0);
        for (i, kind) in HistKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
    }
}
