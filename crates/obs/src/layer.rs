//! The memory-side layer recorder: cycle-attribution segments and the
//! spatial heat grid, in one buffer the whole stack records into.
//!
//! The NVM device owns the one [`LayerRecorder`] of a simulated
//! machine; the controller above it and the system layer on top record
//! through it, so segments land in call order without any hand-off
//! between layers and every heat lane lands in a single grid. Both
//! views are fixed at construction: a view that is off records nothing
//! and costs one branch per site.
//!
//! Recording is pure observation: nothing here feeds back into timing,
//! statistics or memory contents.

use crate::heatmap::{HeatGrid, HeatLane};
use crate::ledger::{CycleCategory, Segment};
use lelantus_types::Cycles;

/// Segment buffer (when the cycle ledger is on) plus heat grid (when
/// the heatmap is on) for the controller and device layers.
///
/// # Examples
///
/// ```
/// use lelantus_obs::{CycleCategory, HeatLane, LayerRecorder};
/// use lelantus_types::Cycles;
///
/// let mut rec = LayerRecorder::new(true, true);
/// rec.seg(Cycles::new(10), Cycles::new(20), CycleCategory::BankService);
/// rec.heat(HeatLane::BankRead, 3);
/// let mut out = Vec::new();
/// rec.drain_segments_into(&mut out);
/// assert_eq!(out.len(), 1);
/// assert_eq!(rec.heat_grid().unwrap().get(HeatLane::BankRead, 3), 1);
/// assert!(LayerRecorder::default().heat_grid().is_none(), "off by default");
/// ```
#[derive(Debug, Clone, Default)]
pub struct LayerRecorder {
    ledger: bool,
    /// Segments recorded since the system layer last drained them.
    segments: Vec<Segment>,
    heat: Option<Box<HeatGrid>>,
}

impl LayerRecorder {
    /// A recorder with the ledger's segments and the heat grid each on
    /// or off.
    pub fn new(ledger: bool, heat: bool) -> Self {
        Self { ledger, segments: Vec::new(), heat: heat.then(Box::default) }
    }

    /// Records that `cat` was busy over `[start, end)` (ledger on and
    /// the interval non-empty; otherwise nothing).
    #[inline]
    pub fn seg(&mut self, start: Cycles, end: Cycles, cat: CycleCategory) {
        if self.ledger && end > start {
            self.segments.push(Segment { start: start.as_u64(), end: end.as_u64(), cat });
        }
    }

    /// Adds one count to `lane` at `region` (heatmap on; otherwise
    /// nothing).
    #[inline]
    pub fn heat(&mut self, lane: HeatLane, region: u64) {
        if let Some(h) = self.heat.as_mut() {
            h.record(lane, region);
        }
    }

    /// The heat grid recorded so far (`None` when the heatmap is off).
    pub fn heat_grid(&self) -> Option<&HeatGrid> {
        self.heat.as_deref()
    }

    /// Mutable grid access, for sites that record several counts or
    /// classify before recording (`None` when the heatmap is off).
    pub fn heat_grid_mut(&mut self) -> Option<&mut HeatGrid> {
        self.heat.as_deref_mut()
    }

    /// Marks the start of an operation whose segments will all be
    /// relabelled (see [`Self::relabel_from`]); `None` when the ledger
    /// is off.
    pub fn mark(&self) -> Option<usize> {
        self.ledger.then_some(self.segments.len())
    }

    /// Relabels every segment recorded since `mark` to `cat`.
    pub fn relabel_from(&mut self, mark: Option<usize>, cat: CycleCategory) {
        if let Some(mark) = mark {
            for s in &mut self.segments[mark..] {
                s.cat = cat;
            }
        }
    }

    /// Moves every recorded segment into `out`.
    pub fn drain_segments_into(&mut self, out: &mut Vec<Segment>) {
        out.append(&mut self.segments);
    }

    /// Drops recorded segments (work the system layer bills at a flat
    /// cost, untimed peeks, recovery).
    pub fn discard_segments(&mut self) {
        self.segments.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_views_record_nothing() {
        let mut rec = LayerRecorder::default();
        rec.seg(Cycles::new(0), Cycles::new(5), CycleCategory::Mac);
        rec.heat(HeatLane::MacWrite, 1);
        assert_eq!(rec.mark(), None);
        let mut out = Vec::new();
        rec.drain_segments_into(&mut out);
        assert!(out.is_empty());
        assert!(rec.heat_grid().is_none());
        assert!(rec.heat_grid_mut().is_none());
    }

    #[test]
    fn empty_intervals_are_not_segments() {
        let mut rec = LayerRecorder::new(true, false);
        rec.seg(Cycles::new(7), Cycles::new(7), CycleCategory::Mac);
        rec.seg(Cycles::new(9), Cycles::new(7), CycleCategory::Mac);
        let mut out = Vec::new();
        rec.drain_segments_into(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn relabel_covers_exactly_the_segments_after_the_mark() {
        let mut rec = LayerRecorder::new(true, false);
        rec.seg(Cycles::new(0), Cycles::new(5), CycleCategory::CounterFill);
        let mark = rec.mark();
        rec.seg(Cycles::new(5), Cycles::new(9), CycleCategory::BankService);
        rec.seg(Cycles::new(9), Cycles::new(12), CycleCategory::AesPad);
        rec.relabel_from(mark, CycleCategory::BulkCopy);
        let mut out = Vec::new();
        rec.drain_segments_into(&mut out);
        let cats: Vec<CycleCategory> = out.iter().map(|s| s.cat).collect();
        assert_eq!(
            cats,
            [CycleCategory::CounterFill, CycleCategory::BulkCopy, CycleCategory::BulkCopy]
        );
        rec.seg(Cycles::new(1), Cycles::new(2), CycleCategory::Mac);
        rec.discard_segments();
        rec.drain_segments_into(&mut out);
        assert_eq!(out.len(), 3, "discarded segments never reach the drain");
    }

    #[test]
    fn heat_lands_in_one_grid() {
        let mut rec = LayerRecorder::new(false, true);
        rec.heat(HeatLane::CounterFill, 2);
        rec.heat(HeatLane::BankWrite, 2);
        rec.heat_grid_mut().unwrap().record_n(HeatLane::FaultReuse, 2, 3);
        let g = rec.heat_grid().unwrap();
        assert_eq!(g.region_total(2), 5);
        assert_eq!(g.total(), 5);
    }
}
