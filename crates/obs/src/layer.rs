//! The layer recorder: cycle-attribution segments, the spatial view
//! (heat grid and line footprints) and the event view (event log and
//! histograms), in one place the whole stack records into.
//!
//! The NVM device owns the one [`LayerRecorder`] of a simulated
//! machine; the controller above it and the system layer on top record
//! through it, so segments and events land in call order without any
//! hand-off between layers and every heat lane lands in a single grid.
//! Every view is fixed at construction: a view that is off records
//! nothing and costs one branch per site.
//!
//! Recording is pure observation: nothing here feeds back into timing,
//! statistics or memory contents. The recorder is plain owned data, so
//! a machine that holds it stays `Send + Sync` with any view on.

use crate::footprint::{AccessDir, FootprintTracker};
use crate::heatmap::{HeatGrid, HeatLane};
use crate::ledger::{CycleCategory, Segment};
use crate::log::EventLog;
use lelantus_types::{Cycles, PhysAddr};

/// Segment buffer (when the cycle ledger is on), heat grid and line
/// footprints (when the heatmap is on) and event log (when events are
/// on) for every layer of one machine.
///
/// # Examples
///
/// ```
/// use lelantus_obs::{CycleCategory, Event, EventKind, HeatLane, LayerRecorder};
/// use lelantus_types::Cycles;
///
/// let mut rec = LayerRecorder::new(true, true, Some(16));
/// rec.seg(Cycles::new(10), Cycles::new(20), CycleCategory::BankService);
/// rec.heat(HeatLane::BankRead, 3);
/// if let Some(log) = rec.events_mut() {
///     log.emit(Event { cycle: Cycles::new(42), kind: EventKind::CounterFetch { region: 7 } });
/// }
/// assert_eq!(rec.segments().len(), 1);
/// assert_eq!(rec.heat_grid().unwrap().get(HeatLane::BankRead, 3), 1);
/// assert_eq!(rec.events().unwrap().count(EventKind::COUNTER_FETCH), 1);
/// assert!(LayerRecorder::default().heat_grid().is_none(), "off by default");
/// ```
#[derive(Debug, Clone, Default)]
pub struct LayerRecorder {
    ledger: bool,
    /// Segments recorded since the system layer last drained them.
    segments: Vec<Segment>,
    heat: Option<Box<HeatGrid>>,
    /// Line bitmaps of the data regions read and written (kept with
    /// the heat grid).
    footprint: Option<FootprintTracker>,
    events: Option<Box<EventLog>>,
}

impl LayerRecorder {
    /// A recorder with the ledger's segments and the spatial view each
    /// on or off, and the event view on with a ring of `events` events
    /// when `Some`.
    ///
    /// # Panics
    ///
    /// Panics if `events` is `Some(0)`.
    pub fn new(ledger: bool, heat: bool, events: Option<usize>) -> Self {
        Self {
            ledger,
            segments: Vec::new(),
            heat: heat.then(Box::default),
            footprint: heat.then(FootprintTracker::default),
            events: events.map(|capacity| Box::new(EventLog::new(capacity))),
        }
    }

    /// The event log, for emission sites: `None` when the event view is
    /// off. Build the event inside the `Some` branch so the off path
    /// costs one branch.
    #[inline]
    pub fn events_mut(&mut self) -> Option<&mut EventLog> {
        self.events.as_deref_mut()
    }

    /// The events and histograms recorded so far (`None` when the event
    /// view is off).
    pub fn events(&self) -> Option<&EventLog> {
        self.events.as_deref()
    }

    /// Marks the line at `addr` read or written in its region's
    /// footprint (heatmap on; otherwise nothing).
    #[inline]
    pub fn line_access(&mut self, addr: PhysAddr, dir: AccessDir) {
        if let Some(fp) = self.footprint.as_mut() {
            fp.record(addr, dir);
        }
    }

    /// The line footprints recorded since the last reset (`None` when
    /// the heatmap is off).
    pub fn footprint(&self) -> Option<&FootprintTracker> {
        self.footprint.as_ref()
    }

    /// Clears the line footprints (start of a measured phase).
    pub fn reset_footprint(&mut self) {
        if let Some(fp) = self.footprint.as_mut() {
            fp.reset();
        }
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

    /// The segments recorded since the last
    /// [`discard_segments`](Self::discard_segments), in call order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Drops recorded segments: once the system layer has attributed
    /// them, or for work it bills at a flat cost (untimed peeks,
    /// recovery).
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
        rec.line_access(PhysAddr::new(0x40), AccessDir::Write);
        assert_eq!(rec.mark(), None);
        assert!(rec.segments().is_empty());
        assert!(rec.heat_grid().is_none());
        assert!(rec.heat_grid_mut().is_none());
        assert!(rec.footprint().is_none());
        assert!(rec.events_mut().is_none());
        assert!(rec.events().is_none());
    }

    #[test]
    fn empty_intervals_are_not_segments() {
        let mut rec = LayerRecorder::new(true, false, None);
        rec.seg(Cycles::new(7), Cycles::new(7), CycleCategory::Mac);
        rec.seg(Cycles::new(9), Cycles::new(7), CycleCategory::Mac);
        assert!(rec.segments().is_empty());
    }

    #[test]
    fn relabel_covers_exactly_the_segments_after_the_mark() {
        let mut rec = LayerRecorder::new(true, false, None);
        rec.seg(Cycles::new(0), Cycles::new(5), CycleCategory::CounterFill);
        let mark = rec.mark();
        rec.seg(Cycles::new(5), Cycles::new(9), CycleCategory::BankService);
        rec.seg(Cycles::new(9), Cycles::new(12), CycleCategory::AesPad);
        rec.relabel_from(mark, CycleCategory::BulkCopy);
        let cats: Vec<CycleCategory> = rec.segments().iter().map(|s| s.cat).collect();
        assert_eq!(
            cats,
            [CycleCategory::CounterFill, CycleCategory::BulkCopy, CycleCategory::BulkCopy]
        );
        rec.discard_segments();
        assert!(rec.segments().is_empty(), "discarded segments are gone");
    }

    #[test]
    fn heat_lands_in_one_grid() {
        let mut rec = LayerRecorder::new(false, true, None);
        rec.heat(HeatLane::CounterFill, 2);
        rec.heat(HeatLane::BankWrite, 2);
        rec.heat_grid_mut().unwrap().record_n(HeatLane::FaultReuse, 2, 3);
        let g = rec.heat_grid().unwrap();
        assert_eq!(g.region_total(2), 5);
        assert_eq!(g.total(), 5);
    }

    #[test]
    fn footprints_ride_with_the_heat_grid() {
        let mut rec = LayerRecorder::new(false, true, None);
        rec.line_access(PhysAddr::new(0x1040), AccessDir::Write);
        rec.line_access(PhysAddr::new(0x1080), AccessDir::Read);
        let fp = rec.footprint().unwrap().region(1).unwrap();
        assert_eq!((fp.lines_written(), fp.lines_read()), (1, 1));
        rec.reset_footprint();
        assert_eq!(rec.footprint().unwrap().iter().count(), 0);
    }
}
