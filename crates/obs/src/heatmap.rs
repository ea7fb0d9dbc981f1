//! Spatial heat grids: where in the physical address space the work
//! lands.
//!
//! The temporal observability layers (events, ledger, tail spans) say
//! *when* and *how much*; the [`HeatGrid`] says *where*. It keeps one
//! dense, saturating `u32` counter per 4 KB device region per
//! [`HeatLane`] — faults by action, CoW redirects, implicit copies,
//! counter fills and overflows, Merkle walk touches per tree level,
//! MAC-line writebacks and bank array accesses. Lanes are lazily
//! grown on first touch, so an idle lane costs nothing and a grid over
//! a mostly-cold address space stays small.
//!
//! Every lane shadows an aggregate counter the simulator already
//! keeps (see each variant's doc), so a grid can be *reconciled*: the
//! sum over regions of a lane must equal the aggregate it shadows.
//! The reconciliation table is enforced in `tests/heatmap.rs`.
//!
//! Grids form a commutative monoid under [`HeatGrid::merge`] (the
//! system, controller and device grids merge in any order) and
//! support [`HeatGrid::delta_since`] so the epoch sampler can carve
//! per-epoch spatial deltas that sum back to the full-run grid.

/// One kind of spatially-attributed work.
///
/// Each variant names the aggregate counter its lane total must
/// reconcile with exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeatLane {
    /// Write fault serviced by an eager source copy
    /// (`FaultAction::EagerCopy`; fault lanes together reconcile with
    /// `kernel.cow_faults + kernel.reuse_faults`).
    FaultEagerCopy,
    /// Write fault on a zero-fill page (`FaultAction::DemandZero`).
    FaultDemandZero,
    /// Write fault resolved lazily via an MMIO copy/phyc command
    /// (`FaultAction::LazyCow`).
    FaultLazyCow,
    /// Write-protect fault resolved by in-place reuse
    /// (`FaultAction::Reuse`).
    FaultReuse,
    /// Fault that early-reclaimed a page with live dependents
    /// (`FaultAction::EarlyReclaim`).
    FaultEarlyReclaim,
    /// Read resolved through a lazy-copy redirect chain (reconciles
    /// with `controller.redirected_reads`).
    CowRedirect,
    /// Store that completed a deferred copy inline (reconciles with
    /// `controller.implicit_copies`).
    ImplicitCopy,
    /// Counter-cache miss filled from NVM (reconciles with
    /// `controller.counter_fetches`).
    CounterFill,
    /// Minor-counter overflow forcing a region re-encryption
    /// (reconciles with `controller.minor_overflows`).
    CounterOverflow,
    /// MAC-line writeback to NVM (reconciles with
    /// `controller.mac_writebacks`).
    MacWrite,
    /// NVM array line read at this region's device address (reconciles
    /// with `nvm.line_reads`; metadata-area regions light up here).
    BankRead,
    /// NVM array line write at this region's device address
    /// (reconciles with `nvm.line_writes`).
    BankWrite,
    /// Merkle node fetched at tree level 0 while walking for this
    /// region (all Merkle lanes together reconcile with
    /// `controller.merkle_fetches`).
    MerkleL0,
    /// Merkle node fetched at tree level 1.
    MerkleL1,
    /// Merkle node fetched at tree level 2.
    MerkleL2,
    /// Merkle node fetched at tree level 3.
    MerkleL3,
    /// Merkle node fetched at tree level 4.
    MerkleL4,
    /// Merkle node fetched at tree level 5.
    MerkleL5,
    /// Merkle node fetched at tree level 6.
    MerkleL6,
    /// Merkle node fetched at tree level 7 or deeper.
    MerkleDeep,
}

impl HeatLane {
    /// Number of lanes.
    pub const COUNT: usize = 20;

    /// All lanes, in dense-index order.
    pub const ALL: [HeatLane; Self::COUNT] = [
        HeatLane::FaultEagerCopy,
        HeatLane::FaultDemandZero,
        HeatLane::FaultLazyCow,
        HeatLane::FaultReuse,
        HeatLane::FaultEarlyReclaim,
        HeatLane::CowRedirect,
        HeatLane::ImplicitCopy,
        HeatLane::CounterFill,
        HeatLane::CounterOverflow,
        HeatLane::MacWrite,
        HeatLane::BankRead,
        HeatLane::BankWrite,
        HeatLane::MerkleL0,
        HeatLane::MerkleL1,
        HeatLane::MerkleL2,
        HeatLane::MerkleL3,
        HeatLane::MerkleL4,
        HeatLane::MerkleL5,
        HeatLane::MerkleL6,
        HeatLane::MerkleDeep,
    ];

    /// The five explicit-fault lanes, in `FaultAction` index order.
    pub const FAULTS: [HeatLane; 5] = [
        HeatLane::FaultEagerCopy,
        HeatLane::FaultDemandZero,
        HeatLane::FaultLazyCow,
        HeatLane::FaultReuse,
        HeatLane::FaultEarlyReclaim,
    ];

    /// The per-level Merkle lanes, shallow to deep.
    pub const MERKLE: [HeatLane; 8] = [
        HeatLane::MerkleL0,
        HeatLane::MerkleL1,
        HeatLane::MerkleL2,
        HeatLane::MerkleL3,
        HeatLane::MerkleL4,
        HeatLane::MerkleL5,
        HeatLane::MerkleL6,
        HeatLane::MerkleDeep,
    ];

    /// Dense index for array storage.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The Merkle lane for a tree level (levels ≥ 7 share
    /// [`HeatLane::MerkleDeep`]).
    pub fn merkle(level: usize) -> HeatLane {
        Self::MERKLE[level.min(Self::MERKLE.len() - 1)]
    }

    /// Stable snake_case name (JSON keys, tables).
    pub fn name(self) -> &'static str {
        match self {
            HeatLane::FaultEagerCopy => "fault_eager_copy",
            HeatLane::FaultDemandZero => "fault_demand_zero",
            HeatLane::FaultLazyCow => "fault_lazy_cow",
            HeatLane::FaultReuse => "fault_reuse",
            HeatLane::FaultEarlyReclaim => "fault_early_reclaim",
            HeatLane::CowRedirect => "cow_redirect",
            HeatLane::ImplicitCopy => "implicit_copy",
            HeatLane::CounterFill => "counter_fill",
            HeatLane::CounterOverflow => "counter_overflow",
            HeatLane::MacWrite => "mac_write",
            HeatLane::BankRead => "bank_read",
            HeatLane::BankWrite => "bank_write",
            HeatLane::MerkleL0 => "merkle_l0",
            HeatLane::MerkleL1 => "merkle_l1",
            HeatLane::MerkleL2 => "merkle_l2",
            HeatLane::MerkleL3 => "merkle_l3",
            HeatLane::MerkleL4 => "merkle_l4",
            HeatLane::MerkleL5 => "merkle_l5",
            HeatLane::MerkleL6 => "merkle_l6",
            HeatLane::MerkleDeep => "merkle_deep",
        }
    }
}

/// A region-granular spatial histogram: one saturating `u32` per
/// 4 KB device region per [`HeatLane`], lanes grown lazily on first
/// touch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HeatGrid {
    lanes: [Vec<u32>; HeatLane::COUNT],
}

impl HeatGrid {
    /// An empty grid.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one count to `lane` at `region`.
    #[inline]
    pub fn record(&mut self, lane: HeatLane, region: u64) {
        self.record_n(lane, region, 1);
    }

    /// Adds `n` counts to `lane` at `region` (saturating).
    #[inline]
    pub fn record_n(&mut self, lane: HeatLane, region: u64, n: u32) {
        let v = &mut self.lanes[lane.index()];
        let i = region as usize;
        if v.len() <= i {
            v.resize(i + 1, 0);
        }
        v[i] = v[i].saturating_add(n);
    }

    /// Count recorded in `lane` at `region` (0 past the lane's end).
    pub fn get(&self, lane: HeatLane, region: u64) -> u32 {
        self.lanes[lane.index()].get(region as usize).copied().unwrap_or(0)
    }

    /// The raw per-region counts of one lane (dense prefix; regions
    /// past the end are zero).
    pub fn lane(&self, lane: HeatLane) -> &[u32] {
        &self.lanes[lane.index()]
    }

    /// Sum of one lane over all regions.
    pub fn lane_total(&self, lane: HeatLane) -> u64 {
        self.lanes[lane.index()].iter().map(|&c| c as u64).sum()
    }

    /// Sum over every lane and region.
    pub fn total(&self) -> u64 {
        HeatLane::ALL.iter().map(|&l| self.lane_total(l)).sum()
    }

    /// Sum over all lanes at one region.
    pub fn region_total(&self, region: u64) -> u64 {
        self.lanes.iter().map(|v| v.get(region as usize).copied().unwrap_or(0) as u64).sum()
    }

    /// Number of regions the grid spans (the longest lane; untouched
    /// tail regions are not represented).
    pub fn regions(&self) -> usize {
        self.lanes.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Whether no count was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.lanes.iter().all(|v| v.iter().all(|&c| c == 0))
    }

    /// Number of regions with any heat at all.
    pub fn touched_regions(&self) -> usize {
        (0..self.regions() as u64).filter(|&r| self.region_total(r) > 0).count()
    }

    /// Folds `other` into `self`, cell-wise saturating. Commutative
    /// and associative (up to saturation), so per-layer grids merge in
    /// any order.
    pub fn merge(&mut self, other: &HeatGrid) {
        for (dst, src) in self.lanes.iter_mut().zip(other.lanes.iter()) {
            if dst.len() < src.len() {
                dst.resize(src.len(), 0);
            }
            for (d, &s) in dst.iter_mut().zip(src.iter()) {
                *d = d.saturating_add(s);
            }
        }
    }

    /// Cell-wise `self - earlier` (saturating): the heat added since
    /// `earlier` was cloned from this grid's past. Deltas over a
    /// monotone history sum back to the final grid (exactly, below
    /// saturation).
    pub fn delta_since(&self, earlier: &HeatGrid) -> HeatGrid {
        let mut out = HeatGrid::new();
        for (lane, (cur, old)) in self.lanes.iter().zip(earlier.lanes.iter()).enumerate() {
            if cur.iter().zip(old.iter().chain(std::iter::repeat(&0))).all(|(c, o)| c == o) {
                continue; // lane unchanged: keep the delta lane empty
            }
            let v = &mut out.lanes[lane];
            v.resize(cur.len(), 0);
            for (i, (d, &c)) in v.iter_mut().zip(cur.iter()).enumerate() {
                *d = c.saturating_sub(old.get(i).copied().unwrap_or(0));
            }
        }
        out
    }

    /// The `n` hottest regions as `(region, total_heat)`, hottest
    /// first; ties break toward the lower region so the order is
    /// deterministic.
    pub fn top_regions(&self, n: usize) -> Vec<(u64, u64)> {
        let mut rows: Vec<(u64, u64)> = (0..self.regions() as u64)
            .filter_map(|r| {
                let t = self.region_total(r);
                (t > 0).then_some((r, t))
            })
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows.truncate(n);
        rows
    }

    /// Gini coefficient of per-region heat over the *touched* regions
    /// (0 = perfectly even, → 1 = all heat on one region). Untouched
    /// regions are excluded so a mostly-cold address space does not
    /// trivially report 1.
    pub fn gini(&self) -> f64 {
        let mut totals: Vec<u64> =
            (0..self.regions() as u64).map(|r| self.region_total(r)).filter(|&t| t > 0).collect();
        let n = totals.len();
        if n < 2 {
            return 0.0;
        }
        totals.sort_unstable();
        let sum: u64 = totals.iter().sum();
        if sum == 0 {
            return 0.0;
        }
        // Gini = (2 * sum_i(i * x_i) / (n * sum)) - (n + 1) / n, with
        // x ascending and i starting at 1.
        let weighted: f64 =
            totals.iter().enumerate().map(|(i, &x)| (i as f64 + 1.0) * x as f64).sum();
        (2.0 * weighted) / (n as f64 * sum as f64) - (n as f64 + 1.0) / n as f64
    }

    /// Fraction of all heat carried by the hottest
    /// `ceil(frac * touched)` regions (the "top-1 %" concentration
    /// number; 1.0 when the grid is empty-of-heat-free).
    pub fn top_share(&self, frac: f64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let touched = self.touched_regions();
        let k = ((frac * touched as f64).ceil() as usize).clamp(1, touched);
        let top: u64 = self.top_regions(k).iter().map(|&(_, t)| t).sum();
        top as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_are_densely_indexed_and_named() {
        for (i, lane) in HeatLane::ALL.iter().enumerate() {
            assert_eq!(lane.index(), i);
        }
        let mut names: Vec<&str> = HeatLane::ALL.iter().map(|l| l.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), HeatLane::COUNT, "lane names must be unique");
        assert_eq!(HeatLane::merkle(0), HeatLane::MerkleL0);
        assert_eq!(HeatLane::merkle(6), HeatLane::MerkleL6);
        assert_eq!(HeatLane::merkle(7), HeatLane::MerkleDeep);
        assert_eq!(HeatLane::merkle(40), HeatLane::MerkleDeep);
    }

    #[test]
    fn record_and_totals() {
        let mut g = HeatGrid::new();
        assert!(g.is_empty());
        g.record(HeatLane::CounterFill, 3);
        g.record_n(HeatLane::CounterFill, 3, 2);
        g.record(HeatLane::BankRead, 100);
        assert_eq!(g.get(HeatLane::CounterFill, 3), 3);
        assert_eq!(g.get(HeatLane::CounterFill, 4), 0);
        assert_eq!(g.lane_total(HeatLane::CounterFill), 3);
        assert_eq!(g.region_total(3), 3);
        assert_eq!(g.total(), 4);
        assert_eq!(g.regions(), 101);
        assert_eq!(g.touched_regions(), 2);
        assert!(!g.is_empty());
    }

    #[test]
    fn saturates_instead_of_wrapping() {
        let mut g = HeatGrid::new();
        g.record_n(HeatLane::BankWrite, 0, u32::MAX);
        g.record(HeatLane::BankWrite, 0);
        assert_eq!(g.get(HeatLane::BankWrite, 0), u32::MAX);
    }

    #[test]
    fn merge_is_commutative_across_different_extents() {
        let mut a = HeatGrid::new();
        a.record_n(HeatLane::MacWrite, 1, 5);
        a.record(HeatLane::BankRead, 9);
        let mut b = HeatGrid::new();
        b.record_n(HeatLane::MacWrite, 1, 2);
        b.record(HeatLane::MerkleDeep, 40);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.get(HeatLane::MacWrite, 1), 7);
        assert_eq!(ab.lane_total(HeatLane::MerkleDeep), 1);
        assert_eq!(ab.total(), ba.total());
        for lane in HeatLane::ALL {
            for r in 0..ab.regions().max(ba.regions()) as u64 {
                assert_eq!(ab.get(lane, r), ba.get(lane, r), "{lane:?}@{r}");
            }
        }
    }

    #[test]
    fn delta_since_recovers_increments() {
        let mut g = HeatGrid::new();
        g.record_n(HeatLane::CowRedirect, 2, 4);
        let base = g.clone();
        g.record(HeatLane::CowRedirect, 2);
        g.record(HeatLane::CounterOverflow, 7);
        let d = g.delta_since(&base);
        assert_eq!(d.get(HeatLane::CowRedirect, 2), 1);
        assert_eq!(d.get(HeatLane::CounterOverflow, 7), 1);
        assert_eq!(d.total(), 2);
        // base + delta == current
        let mut rebuilt = base.clone();
        rebuilt.merge(&d);
        assert_eq!(rebuilt.total(), g.total());
        assert_eq!(rebuilt.get(HeatLane::CowRedirect, 2), g.get(HeatLane::CowRedirect, 2));
        // delta against itself is empty
        assert!(g.delta_since(&g).is_empty());
    }

    #[test]
    fn top_regions_and_concentration() {
        let mut g = HeatGrid::new();
        g.record_n(HeatLane::BankWrite, 0, 1);
        g.record_n(HeatLane::BankWrite, 5, 10);
        g.record_n(HeatLane::BankWrite, 9, 10);
        let top = g.top_regions(2);
        assert_eq!(top, vec![(5, 10), (9, 10)], "ties break toward the lower region");
        assert_eq!(g.top_regions(100).len(), 3);
        assert!(g.gini() > 0.0 && g.gini() < 1.0);
        let even = {
            let mut e = HeatGrid::new();
            for r in 0..8 {
                e.record_n(HeatLane::BankWrite, r, 3);
            }
            e
        };
        assert!(even.gini().abs() < 1e-9, "uniform heat has Gini 0");
        assert!((g.top_share(1.0) - 1.0).abs() < 1e-9);
        assert!(g.top_share(0.3) >= 10.0 / 21.0);
        assert_eq!(HeatGrid::new().top_share(0.5), 0.0);
        assert_eq!(HeatGrid::new().gini(), 0.0);
    }
}
