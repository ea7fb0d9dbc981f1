//! Per-fault spans and the tail recorder.
//!
//! A [`FaultSpan`] is one serviced page fault (or one implicit copy
//! triggered by a store) on the sequential timing plane: begin/end
//! cycles, the faulting address, the action the scheme took, and a
//! per-span [`CycleLedger`] breakdown carved from the same `Segment`
//! stream the global cycle ledger consumes. [`TailRecorder`]
//! aggregates spans into an overall [`HdrHistogram`], one histogram
//! per [`FaultAction`], and a bounded top-K worst-offender reservoir
//! that keeps the K slowest spans with their full causal context.
//!
//! The recorder is pure observation: it is only allocated when the
//! simulator's `Observe::tail` is set, and recording never touches
//! simulated clocks, metrics, probe streams, or Merkle state.

use crate::hdr::{HdrHistogram, TailSummary};
use crate::ledger::CycleLedger;

/// What the scheme did to service a fault (or store).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultAction {
    /// Write fault resolved by copying the source page eagerly at
    /// fault time (conventional CoW, or Lelantus falling back).
    EagerCopy,
    /// Write fault on a zero-fill page: allocate + zero, no source
    /// copy.
    DemandZero,
    /// Write fault resolved lazily via an MMIO copy/phyc command —
    /// Lelantus's deferred copy-on-write.
    LazyCow,
    /// Write-protect fault resolved by reusing the page in place
    /// (sole owner; no copy at all).
    Reuse,
    /// Fault that early-reclaimed a page with live dependents.
    EarlyReclaim,
    /// Not a fault: a store hit a lazily-shared page and the
    /// controller performed the deferred (implicit) copy inline.
    ImplicitCopy,
}

impl FaultAction {
    /// Number of variants.
    pub const COUNT: usize = 6;

    /// All variants, in display order.
    pub const ALL: [FaultAction; Self::COUNT] = [
        FaultAction::EagerCopy,
        FaultAction::DemandZero,
        FaultAction::LazyCow,
        FaultAction::Reuse,
        FaultAction::EarlyReclaim,
        FaultAction::ImplicitCopy,
    ];

    /// Dense index for array storage.
    pub fn index(self) -> usize {
        match self {
            FaultAction::EagerCopy => 0,
            FaultAction::DemandZero => 1,
            FaultAction::LazyCow => 2,
            FaultAction::Reuse => 3,
            FaultAction::EarlyReclaim => 4,
            FaultAction::ImplicitCopy => 5,
        }
    }

    /// Stable snake_case name (JSON keys, tables).
    pub fn name(self) -> &'static str {
        match self {
            FaultAction::EagerCopy => "eager_copy",
            FaultAction::DemandZero => "demand_zero",
            FaultAction::LazyCow => "lazy_cow",
            FaultAction::Reuse => "reuse",
            FaultAction::EarlyReclaim => "early_reclaim",
            FaultAction::ImplicitCopy => "implicit_copy",
        }
    }
}

/// One serviced fault (or implicit copy) with full causal context.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpan {
    /// Cycle the fault began (entry to the fault path).
    pub start: u64,
    /// Cycle the fault completed.
    pub end: u64,
    /// Faulting process.
    pub pid: u64,
    /// Faulting virtual address.
    pub va: u64,
    /// Physical address the access resolved to.
    pub pa: u64,
    /// What the scheme did.
    pub action: FaultAction,
    /// Per-span cycle breakdown (zero unless the cycle ledger is also
    /// enabled — the span recorder reuses its `Segment` stream rather
    /// than duplicating attribution).
    pub ledger: CycleLedger,
}

impl FaultSpan {
    /// Span latency in cycles.
    pub fn latency(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Aggregates [`FaultSpan`]s: overall + per-action HDR histograms and
/// a bounded reservoir of the K worst offenders.
#[derive(Debug, Clone, PartialEq)]
pub struct TailRecorder {
    hist: HdrHistogram,
    by_action: [HdrHistogram; FaultAction::COUNT],
    top_k: usize,
    /// Worst spans, sorted by descending latency (ties: earlier start
    /// first), truncated to `top_k`.
    worst: Vec<FaultSpan>,
}

impl TailRecorder {
    /// A recorder keeping the `top_k` slowest spans as exemplars.
    pub fn new(top_k: usize) -> Self {
        Self {
            hist: HdrHistogram::new(),
            by_action: Default::default(),
            top_k,
            worst: Vec::with_capacity(top_k.min(64)),
        }
    }

    /// Records one span.
    pub fn record(&mut self, span: FaultSpan) {
        let lat = span.latency();
        self.hist.record(lat);
        self.by_action[span.action.index()].record(lat);
        if self.top_k == 0 {
            return;
        }
        if self.worst.len() == self.top_k {
            // Cheap reject: full reservoir and not slower than the
            // current floor.
            let floor = self.worst.last().expect("top_k > 0").latency();
            if lat <= floor {
                return;
            }
        }
        let pos = self.worst.partition_point(|w| {
            w.latency() > lat || (w.latency() == lat && w.start <= span.start)
        });
        self.worst.insert(pos, span);
        self.worst.truncate(self.top_k);
    }

    /// Overall latency histogram (faults + implicit copies).
    pub fn histogram(&self) -> &HdrHistogram {
        &self.hist
    }

    /// Latency histogram for one action.
    pub fn action_histogram(&self, action: FaultAction) -> &HdrHistogram {
        &self.by_action[action.index()]
    }

    /// The K slowest spans, worst first.
    pub fn worst(&self) -> &[FaultSpan] {
        &self.worst
    }

    /// Reservoir capacity.
    pub fn top_k(&self) -> usize {
        self.top_k
    }

    /// Percentile summary of the overall histogram.
    pub fn summary(&self) -> TailSummary {
        self.hist.summary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, action: FaultAction) -> FaultSpan {
        FaultSpan {
            start,
            end,
            pid: 1,
            va: start,
            pa: start,
            action,
            ledger: CycleLedger::default(),
        }
    }

    #[test]
    fn records_split_by_action() {
        let mut r = TailRecorder::new(4);
        r.record(span(0, 100, FaultAction::LazyCow));
        r.record(span(10, 20, FaultAction::Reuse));
        r.record(span(30, 430, FaultAction::LazyCow));
        assert_eq!(r.histogram().count(), 3);
        assert_eq!(r.action_histogram(FaultAction::LazyCow).count(), 2);
        assert_eq!(r.action_histogram(FaultAction::Reuse).count(), 1);
        assert_eq!(r.action_histogram(FaultAction::EagerCopy).count(), 0);
        let total: u64 = FaultAction::ALL.iter().map(|&a| r.action_histogram(a).count()).sum();
        assert_eq!(total, r.histogram().count(), "per-action histograms partition the overall");
    }

    #[test]
    fn reservoir_keeps_k_slowest_in_order() {
        let mut r = TailRecorder::new(3);
        for (s, e) in [(0, 50), (100, 900), (1000, 1010), (2000, 2500), (3000, 3700)] {
            r.record(span(s, e, FaultAction::EagerCopy));
        }
        let lats: Vec<u64> = r.worst().iter().map(FaultSpan::latency).collect();
        assert_eq!(lats, vec![800, 700, 500], "three slowest, worst first");
        // Ties keep the earlier span first.
        let mut t = TailRecorder::new(2);
        t.record(span(500, 600, FaultAction::Reuse));
        t.record(span(0, 100, FaultAction::Reuse));
        assert_eq!(t.worst()[0].start, 0, "equal latency: earlier start wins");
        assert_eq!(t.worst()[1].start, 500);
    }

    #[test]
    fn zero_capacity_reservoir_still_counts() {
        let mut r = TailRecorder::new(0);
        r.record(span(0, 10, FaultAction::Reuse));
        assert!(r.worst().is_empty());
        assert_eq!(r.histogram().count(), 1);
    }
}
