//! Cycle-attribution ledger: charges every simulated cycle to exactly
//! one component category.
//!
//! The paper's evaluation (§6) decomposes secure-NVM overhead into its
//! mechanisms — counter fetches, Merkle walks, MAC checks, AES pads,
//! CoW redirects, implicit copies — to show where Lelantus wins over
//! Linux CoW and Silent Shredder. The event stream ([`crate::Event`])
//! records *what happened*; the ledger answers *which component
//! consumed the cycles*.
//!
//! # Attribution model
//!
//! Simulated time is the maximum over the per-core clocks, so the
//! ledger attributes the **critical path**: a charge site that advances
//! the global maximum by `d` cycles books `d` into exactly one
//! category, and a charge that is hidden behind another core's clock
//! books nothing. This makes the hard invariant
//!
//! ```text
//! sum over categories == SimMetrics.cycles
//! ```
//!
//! hold exactly on every workload and scheme, including multi-core
//! ones, without double counting.
//!
//! Fine-grained attribution inside a memory operation uses
//! [`Segment`]s: the controller and the NVM device record
//! `[start, end)` intervals tagged with a category while they service a
//! request; the system layer then splits the observed critical-path
//! advance across the recorded segments (clipped to the advance
//! window, overlaps resolved by [`CycleCategory::priority`], residue
//! charged to the call site's default category) via [`attribute`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Where a simulated cycle was spent.
///
/// Categories follow the paper's overhead decomposition plus the
/// simulator-level buckets needed to make the sum exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CycleCategory {
    /// Core-local instruction cost (`op_cost` per access/op).
    CpuOp,
    /// Address translation: TLB L2 hits and page walks.
    Translation,
    /// Kernel fault service: CoW/reuse faults, mmap/fork/exit
    /// bookkeeping, shootdowns.
    PageFault,
    /// MMIO command issue latency (`page_copy`/`page_phyc`/
    /// `page_free`/`page_init` doorbells).
    MmioCmd,
    /// On-chip SRAM hierarchy: cache hit/fill latencies not overlapped
    /// with any NVM component below.
    CacheSram,
    /// Counter-cache miss fills and counter writebacks (§4.1).
    CounterFill,
    /// Bonsai Merkle tree verification walks and flushes (§2.3).
    MerkleWalk,
    /// AES counter-mode pad generation on the critical path (§2.2).
    AesPad,
    /// Data-MAC fetch/verify/writeback traffic.
    Mac,
    /// CoW metadata lookups and lazy-copy chain walks (§4.3).
    CowRedirect,
    /// Implicit copies: first-write source reads under Lelantus-CoW
    /// (§4.4).
    ImplicitCopy,
    /// Write-queue admission stalls (queue full).
    QueueWait,
    /// NVM bank/bus service time for reads and durable writes.
    BankService,
    /// Bulk page copies and zeroing done by the in-memory engine.
    BulkCopy,
    /// Crash-recovery verification sweeps.
    Recovery,
    /// Residue that no finer category claims (ack cycles, zero-area
    /// shortcuts).
    Other,
}

impl CycleCategory {
    /// Number of categories (array dimension of [`CycleLedger`]).
    pub const COUNT: usize = 16;

    /// All categories, in display order.
    pub const ALL: [CycleCategory; CycleCategory::COUNT] = [
        CycleCategory::CpuOp,
        CycleCategory::Translation,
        CycleCategory::PageFault,
        CycleCategory::MmioCmd,
        CycleCategory::CacheSram,
        CycleCategory::CounterFill,
        CycleCategory::MerkleWalk,
        CycleCategory::AesPad,
        CycleCategory::Mac,
        CycleCategory::CowRedirect,
        CycleCategory::ImplicitCopy,
        CycleCategory::QueueWait,
        CycleCategory::BankService,
        CycleCategory::BulkCopy,
        CycleCategory::Recovery,
        CycleCategory::Other,
    ];

    /// Stable snake_case name (used by `lelantus profile` output,
    /// folded stacks and JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            CycleCategory::CpuOp => "cpu_op",
            CycleCategory::Translation => "translation",
            CycleCategory::PageFault => "page_fault",
            CycleCategory::MmioCmd => "mmio_cmd",
            CycleCategory::CacheSram => "cache_sram",
            CycleCategory::CounterFill => "counter_fill",
            CycleCategory::MerkleWalk => "merkle_walk",
            CycleCategory::AesPad => "aes_pad",
            CycleCategory::Mac => "mac",
            CycleCategory::CowRedirect => "cow_redirect",
            CycleCategory::ImplicitCopy => "implicit_copy",
            CycleCategory::QueueWait => "queue_wait",
            CycleCategory::BankService => "bank_service",
            CycleCategory::BulkCopy => "bulk_copy",
            CycleCategory::Recovery => "recovery",
            CycleCategory::Other => "other",
        }
    }

    /// Overlap-resolution priority: when two recorded segments cover
    /// the same instant, the higher priority wins the cycles. Rarer,
    /// more specific mechanisms outrank the generic service they ride
    /// on (an implicit-copy source read *is* a bank access — it is
    /// booked as the implicit copy, not the bank). The one inversion is
    /// the AES pad: pad generation overlaps the data fetch by design
    /// (§II-B, Figure 1), so bank service wins the overlap and only the
    /// pad's *exposed tail* is booked as AES time — matching how the
    /// paper reasons about encryption latency.
    pub const fn priority(self) -> u8 {
        match self {
            CycleCategory::BulkCopy => 100,
            CycleCategory::ImplicitCopy => 90,
            CycleCategory::CowRedirect => 80,
            CycleCategory::MerkleWalk => 70,
            CycleCategory::CounterFill => 60,
            CycleCategory::Mac => 50,
            CycleCategory::QueueWait => 30,
            CycleCategory::BankService => 20,
            CycleCategory::AesPad => 15,
            _ => 10,
        }
    }

    const fn index(self) -> usize {
        self as usize
    }
}

/// A half-open interval `[start, end)` of simulated cycles tagged with
/// the component that was busy during it. Recorded by the controller
/// and NVM device while servicing a request, consumed by the system
/// layer's [`attribute`] sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// First cycle of the interval.
    pub start: u64,
    /// One past the last cycle of the interval.
    pub end: u64,
    /// Component busy during the interval.
    pub cat: CycleCategory,
}

/// Per-category cycle totals. Plain owned data (`Copy`, no interior
/// mutability) so `System` stays `Send + Sync` and snapshots clone it
/// for free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CycleLedger {
    counts: [u64; CycleCategory::COUNT],
}

impl CycleLedger {
    /// Books `cycles` to `cat`.
    pub fn charge(&mut self, cat: CycleCategory, cycles: u64) {
        self.counts[cat.index()] += cycles;
    }

    /// Cycles booked to `cat`.
    pub fn get(&self, cat: CycleCategory) -> u64 {
        self.counts[cat.index()]
    }

    /// Sum over all categories. Equals `SimMetrics.cycles` when the
    /// ledger is enabled for the whole run.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Per-category difference vs an earlier snapshot of the same
    /// ledger (used by the epoch sampler).
    ///
    /// # Panics
    /// Debug-panics if `earlier` is not a prefix state (a category ran
    /// backwards).
    pub fn delta_since(&self, earlier: &CycleLedger) -> CycleLedger {
        let mut out = CycleLedger::default();
        for (i, (now, then)) in self.counts.iter().zip(earlier.counts.iter()).enumerate() {
            debug_assert!(now >= then, "ledger category {i} ran backwards");
            out.counts[i] = now - then;
        }
        out
    }

    /// `(category, cycles)` pairs in display order, including zeros.
    pub fn iter(&self) -> impl Iterator<Item = (CycleCategory, u64)> + '_ {
        CycleCategory::ALL.iter().map(|&c| (c, self.get(c)))
    }
}

/// Whether another category shares this one's priority: only then
/// does the slice-order tie rule of [`attribute`] decide between them.
const SHARES_PRIORITY: [bool; CycleCategory::COUNT] = {
    let mut out = [false; CycleCategory::COUNT];
    let mut i = 0;
    while i < CycleCategory::COUNT {
        let mut j = 0;
        while j < CycleCategory::COUNT {
            let (a, b) = (CycleCategory::ALL[i].priority(), CycleCategory::ALL[j].priority());
            out[i] |= i != j && a == b;
            j += 1;
        }
        i += 1;
    }
    out
};

/// Each category's place in descending priority order (categories
/// that share a priority in declaration order).
const RANK: [usize; CycleCategory::COUNT] = {
    let mut out = [0; CycleCategory::COUNT];
    let mut i = 0;
    while i < CycleCategory::COUNT {
        let mut j = 0;
        while j < CycleCategory::COUNT {
            let (a, b) = (CycleCategory::ALL[i].priority(), CycleCategory::ALL[j].priority());
            if b > a || (b == a && j < i) {
                out[i] += 1;
            }
            j += 1;
        }
        i += 1;
    }
    out
};

/// The category at each [`RANK`].
const BY_RANK: [CycleCategory; CycleCategory::COUNT] = {
    let mut out = [CycleCategory::Other; CycleCategory::COUNT];
    let mut i = 0;
    while i < CycleCategory::COUNT {
        out[RANK[i]] = CycleCategory::ALL[i];
        i += 1;
    }
    out
};

/// Splits the critical-path advance `[start, end)` across the recorded
/// `segments` and books the result into `ledger`.
///
/// Each segment is clipped to the window; instants covered by several
/// segments go to the highest [`CycleCategory::priority`], ties to the
/// segment earliest in `segments`; instants no segment covers go to
/// `default`. Exactly `end - start` cycles are booked in total.
///
/// One sort-and-sweep, O(n log n) in the segments (`System::finish`
/// attributes one segment per line it writes back in a single call).
/// The segments are sorted by start once; in that order each category
/// whose priority is its own is merged into the runs of its union,
/// since only where a category is busy decides where it wins. The run
/// boundaries are sorted, and the sweep keeps a count of open runs per
/// category plus a bit mask of the open categories in priority order.
/// Segments of categories that share a priority stay whole and also
/// enter a heap ordered by slice position, which settles their ties.
pub fn attribute(
    start: u64,
    end: u64,
    segments: &[Segment],
    default: CycleCategory,
    ledger: &mut CycleLedger,
) {
    if end <= start {
        return;
    }
    let mut covering = segments.iter().enumerate().filter_map(|(i, s)| {
        let (a, b) = (s.start.max(start), s.end.min(end));
        (a < b).then_some((a, b, i))
    });
    let Some((a, b, i)) = covering.next() else {
        ledger.charge(default, end - start);
        return;
    };
    if covering.next().is_none() {
        // One segment in the window: it owns its span, `default` the rest.
        ledger.charge(segments[i].cat, b - a);
        ledger.charge(default, (end - start) - (b - a));
        return;
    }
    // `(start, end, segment index, category index)` of every segment
    // that covers a cycle of the window, by start. Recorded segments
    // arrive mostly in time order, which the pattern-defeating sort
    // takes in near-linear time.
    let mut clipped: Vec<(u64, u64, u32, u8)> = segments
        .iter()
        .enumerate()
        .filter_map(|(i, s)| {
            let (a, b) = (s.start.max(start), s.end.min(end));
            (a < b).then_some((a, b, i as u32, s.cat.index() as u8))
        })
        .collect();
    clipped.sort_unstable_by_key(|&(a, _, _, _)| a);
    // Only the union of a category's segments decides where it wins,
    // unless it shares its priority and slice order breaks ties: merge
    // each other category's overlapping segments into runs.
    let mut runs: [Option<(u64, u64, u32)>; CycleCategory::COUNT] = [None; CycleCategory::COUNT];
    let mut starts: Vec<(u64, u32, u8)> = Vec::with_capacity(clipped.len());
    let mut ends: Vec<(u64, u32, u8)> = Vec::with_capacity(clipped.len());
    for &(a, b, idx, c) in &clipped {
        if SHARES_PRIORITY[c as usize] {
            starts.push((a, idx, c));
            ends.push((b, idx, c));
            continue;
        }
        match &mut runs[c as usize] {
            Some((_, re, _)) if a <= *re => *re = (*re).max(b),
            run => {
                if let Some((rs, re, ri)) = run.replace((a, b, idx)) {
                    starts.push((rs, ri, c));
                    ends.push((re, ri, c));
                }
            }
        }
    }
    for (c, run) in runs.iter().enumerate() {
        if let Some((rs, re, ri)) = *run {
            starts.push((rs, ri, c as u8));
            ends.push((re, ri, c as u8));
        }
    }
    starts.sort_unstable_by_key(|&(pos, _, _)| pos);
    ends.sort_unstable_by_key(|&(pos, _, _)| pos);
    let mut open = [0u32; CycleCategory::COUNT];
    // Bit `31 - RANK[c]` is set while a run or segment of `c` is open.
    let mut mask = 0u32;
    // Open segments of shared-priority categories, best first: highest
    // priority, then earliest in the slice. Closed ones leave lazily.
    let mut tied: BinaryHeap<(u8, Reverse<u32>, u64)> = BinaryHeap::new();
    let (mut i, mut j) = (0, 0);
    let mut at = start;
    while at < end {
        // Apply every boundary at `at`, then book up to the next one.
        while let Some(&(_, _, c)) = ends.get(j).filter(|e| e.0 <= at) {
            let c = c as usize;
            open[c] -= 1;
            if open[c] == 0 {
                mask &= !(1 << (31 - RANK[c]));
            }
            j += 1;
        }
        while let Some(&(_, idx, c)) = starts.get(i).filter(|s| s.0 <= at) {
            let c = c as usize;
            open[c] += 1;
            mask |= 1 << (31 - RANK[c]);
            if SHARES_PRIORITY[c] {
                let s = &segments[idx as usize];
                tied.push((s.cat.priority(), Reverse(idx), s.end.min(end)));
            }
            i += 1;
        }
        let next_start = starts.get(i).map_or(end, |s| s.0);
        let next = ends.get(j).map_or(end, |e| e.0).min(next_start);
        let cat = if mask == 0 {
            default
        } else {
            let best = BY_RANK[mask.leading_zeros() as usize];
            if SHARES_PRIORITY[best.index()] {
                while tied.peek().is_some_and(|&(_, _, s_end)| s_end <= at) {
                    tied.pop();
                }
                let &(_, Reverse(idx), _) = tied.peek().expect("an open tied segment is queued");
                segments[idx as usize].cat
            } else {
                best
            }
        };
        ledger.charge(cat, next - at);
        at = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The elementary-interval sweep `attribute` replaced: for every
    /// interval between cut points, test every segment. O(n²), kept as
    /// the model the production sweep is checked against.
    fn attribute_model(
        start: u64,
        end: u64,
        segments: &[Segment],
        default: CycleCategory,
        ledger: &mut CycleLedger,
    ) {
        if end <= start {
            return;
        }
        if segments.is_empty() {
            ledger.charge(default, end - start);
            return;
        }
        let mut cuts: Vec<u64> = Vec::with_capacity(2 + segments.len() * 2);
        cuts.push(start);
        cuts.push(end);
        for s in segments {
            if s.end > start && s.start < end {
                cuts.push(s.start.max(start));
                cuts.push(s.end.min(end));
            }
        }
        cuts.sort_unstable();
        cuts.dedup();
        for pair in cuts.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let mut best: Option<CycleCategory> = None;
            for s in segments {
                if s.start <= a && s.end >= b {
                    best = Some(match best {
                        Some(cur) if cur.priority() >= s.cat.priority() => cur,
                        _ => s.cat,
                    });
                }
            }
            ledger.charge(best.unwrap_or(default), b - a);
        }
    }

    /// Both sweeps over the same input.
    fn both(start: u64, end: u64, segs: &[Segment]) -> (CycleLedger, CycleLedger) {
        let (mut fast, mut model) = (CycleLedger::default(), CycleLedger::default());
        attribute(start, end, segs, CycleCategory::Other, &mut fast);
        attribute_model(start, end, segs, CycleCategory::Other, &mut model);
        (fast, model)
    }

    fn seg(start: u64, end: u64, cat: CycleCategory) -> Segment {
        Segment { start, end, cat }
    }

    #[test]
    fn ties_go_to_the_earliest_segment() {
        // CpuOp, PageFault and Recovery all share priority 10.
        let segs = [
            seg(0, 10, CycleCategory::PageFault),
            seg(5, 20, CycleCategory::CpuOp),
            seg(0, 30, CycleCategory::Recovery),
        ];
        let (fast, model) = both(0, 30, &segs);
        assert_eq!(fast, model);
        assert_eq!(fast.get(CycleCategory::PageFault), 10);
        assert_eq!(fast.get(CycleCategory::CpuOp), 10);
        assert_eq!(fast.get(CycleCategory::Recovery), 10);
    }

    #[test]
    fn nested_touching_and_zero_length_segments() {
        let segs = [
            seg(0, 100, CycleCategory::BankService),
            seg(10, 20, CycleCategory::Mac),
            seg(20, 30, CycleCategory::Mac),
            seg(25, 25, CycleCategory::BulkCopy),
            seg(12, 14, CycleCategory::ImplicitCopy),
            seg(200, 300, CycleCategory::BulkCopy),
        ];
        let (fast, model) = both(5, 120, &segs);
        assert_eq!(fast, model);
        assert_eq!(fast.total(), 115);
        assert_eq!(fast.get(CycleCategory::BulkCopy), 0, "zero-length and outside books nothing");
    }

    /// A segment drawn near a small window so that nesting, touching,
    /// zero-length, outside and tied cases all come up.
    fn arb_segment() -> impl Strategy<Value = Segment> {
        (0u64..48, 0u64..16, 0usize..CycleCategory::COUNT).prop_map(|(start, len, cat)| Segment {
            start,
            end: start + len,
            cat: CycleCategory::ALL[cat],
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn prop_sweep_matches_the_quadratic_model(
            segs in prop::collection::vec(arb_segment(), 0..24),
            start in 0u64..40,
            len in 0u64..40,
        ) {
            let (fast, model) = both(start, start + len, &segs);
            prop_assert_eq!(fast, model);
            prop_assert_eq!(fast.total(), len);
        }
    }

    #[test]
    fn category_table_is_consistent() {
        assert_eq!(CycleCategory::ALL.len(), CycleCategory::COUNT);
        for (i, c) in CycleCategory::ALL.iter().enumerate() {
            assert_eq!(c.index(), i, "{}", c.name());
        }
        // Names are unique (JSON keys / folded-stack frames).
        let mut names: Vec<&str> = CycleCategory::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CycleCategory::COUNT);
    }

    #[test]
    fn charge_total_delta_roundtrip() {
        let mut l = CycleLedger::default();
        l.charge(CycleCategory::AesPad, 40);
        l.charge(CycleCategory::Mac, 2);
        let snap = l;
        l.charge(CycleCategory::AesPad, 10);
        assert_eq!(l.total(), 52);
        let d = l.delta_since(&snap);
        assert_eq!(d.get(CycleCategory::AesPad), 10);
        assert_eq!(d.get(CycleCategory::Mac), 0);
        assert_eq!(d.total(), 10);
    }

    #[test]
    fn attribute_books_window_exactly() {
        let segs = [
            Segment { start: 10, end: 20, cat: CycleCategory::BankService },
            Segment { start: 15, end: 30, cat: CycleCategory::AesPad },
        ];
        let mut l = CycleLedger::default();
        attribute(0, 40, &segs, CycleCategory::Other, &mut l);
        assert_eq!(l.total(), 40);
        assert_eq!(l.get(CycleCategory::BankService), 10); // [10,20): bank outranks pad
        assert_eq!(l.get(CycleCategory::AesPad), 10); // [20,30): exposed pad tail
        assert_eq!(l.get(CycleCategory::Other), 20); // [0,10) + [30,40)
    }

    #[test]
    fn attribute_clips_segments_to_window() {
        let segs = [Segment { start: 0, end: 100, cat: CycleCategory::CounterFill }];
        let mut l = CycleLedger::default();
        attribute(90, 95, &segs, CycleCategory::Other, &mut l);
        assert_eq!(l.get(CycleCategory::CounterFill), 5);
        assert_eq!(l.total(), 5);
    }

    #[test]
    fn attribute_overlap_resolved_by_priority() {
        // An implicit-copy overlay outranks the bank access it rides on.
        let segs = [
            Segment { start: 0, end: 50, cat: CycleCategory::BankService },
            Segment { start: 0, end: 50, cat: CycleCategory::ImplicitCopy },
        ];
        let mut l = CycleLedger::default();
        attribute(0, 50, &segs, CycleCategory::Other, &mut l);
        assert_eq!(l.get(CycleCategory::ImplicitCopy), 50);
        assert_eq!(l.get(CycleCategory::BankService), 0);
    }

    #[test]
    fn attribute_empty_window_and_out_of_window_segments() {
        let segs = [Segment { start: 0, end: 10, cat: CycleCategory::Mac }];
        let mut l = CycleLedger::default();
        attribute(20, 20, &segs, CycleCategory::Other, &mut l);
        assert_eq!(l.total(), 0);
        attribute(20, 25, &segs, CycleCategory::Other, &mut l);
        assert_eq!(l.get(CycleCategory::Other), 5);
        assert_eq!(l.total(), 5);
    }
}
