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
    pub fn priority(self) -> u8 {
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

    fn index(self) -> usize {
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

/// Splits the critical-path advance `[start, end)` across the recorded
/// `segments` and books the result into `ledger`.
///
/// Each segment is clipped to the window; instants covered by several
/// segments go to the highest [`CycleCategory::priority`]; instants no
/// segment covers go to `default`. Exactly `end - start` cycles are
/// booked in total.
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
    if segments.is_empty() {
        ledger.charge(default, end - start);
        return;
    }
    // Elementary-interval sweep over the cut points that fall inside
    // the window. Segment counts per memory operation are small
    // (single digits), so the quadratic probe is cheaper than sorting
    // events.
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

#[cfg(test)]
mod tests {
    use super::*;

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
