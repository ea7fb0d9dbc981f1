//! Probe sinks: where emitted events and histogram samples go.
//!
//! Components are generic over `P: Probe` with [`NullProbe`] as the
//! default. Emission sites guard on the associated constant:
//!
//! ```ignore
//! if P::ENABLED {
//!     self.probe.emit(Event { cycle: now, kind: EventKind::Fork { .. } });
//! }
//! ```
//!
//! With `P = NullProbe` the guard is a compile-time `false`, so the
//! event construction and the call vanish under monomorphization — the
//! disabled path costs nothing and perturbs nothing.
//!
//! Recording sinks are cheap-clone *handles* around `Rc<RefCell<..>>`
//! state: the `System` clones its probe into the controller, which
//! clones it into the NVM device, so the whole stack shares one
//! ordered event stream. The simulator is single-threaded per
//! `System`, which is what makes `Rc` the right tool.

use crate::event::{Event, EventKind};
use crate::hist::{HistKind, HistogramSet};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::rc::Rc;

/// An event/histogram sink the simulator stack is generic over.
pub trait Probe: Clone + fmt::Debug {
    /// Whether this probe observes anything. Guard emission sites with
    /// `if P::ENABLED` so the disabled path compiles away.
    const ENABLED: bool = true;

    /// Consumes one event.
    fn emit(&self, event: Event);

    /// Records one histogram sample.
    fn record(&self, kind: HistKind, value: u64);

    /// Snapshot of the histograms this probe has accumulated, if it
    /// keeps any. Lets generic code (the epoch sampler) read
    /// histogram state back without knowing the concrete sink type;
    /// write-only sinks return `None`.
    fn histogram_snapshot(&self) -> Option<HistogramSet> {
        None
    }
}

/// The zero-sized do-nothing probe (the default everywhere).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullProbe;

impl Probe for NullProbe {
    const ENABLED: bool = false;

    #[inline(always)]
    fn emit(&self, _event: Event) {}

    #[inline(always)]
    fn record(&self, _kind: HistKind, _value: u64) {}
}

/// A runtime-optional sink: `None` observes nothing (but, unlike
/// [`NullProbe`], decides so per call at runtime — the type still
/// counts as enabled).
impl<P: Probe> Probe for Option<P> {
    const ENABLED: bool = P::ENABLED;

    fn emit(&self, event: Event) {
        if let Some(p) = self {
            p.emit(event);
        }
    }

    fn record(&self, kind: HistKind, value: u64) {
        if let Some(p) = self {
            p.record(kind, value);
        }
    }

    fn histogram_snapshot(&self) -> Option<HistogramSet> {
        self.as_ref().and_then(Probe::histogram_snapshot)
    }
}

#[derive(Debug, Default)]
struct RingInner {
    events: VecDeque<Event>,
    capacity: usize,
    /// Per-kind totals — exact even when the ring wrapped.
    counts: [u64; EventKind::COUNT],
    /// Events pushed out of the ring by newer ones.
    dropped: u64,
    hists: HistogramSet,
}

/// Bounded in-memory ring of events plus exact per-kind counts and
/// histograms. Cloning shares the underlying buffer.
///
/// # Examples
///
/// ```
/// use lelantus_obs::{Event, EventKind, Probe, RingProbe};
/// use lelantus_types::Cycles;
///
/// let ring = RingProbe::new(2);
/// for i in 0..3 {
///     ring.emit(Event { cycle: Cycles::new(i), kind: EventKind::Fork { parent: 1, child: 2 } });
/// }
/// assert_eq!(ring.count(EventKind::FORK), 3, "counts survive wrapping");
/// assert_eq!(ring.events().len(), 2);
/// assert_eq!(ring.dropped(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct RingProbe {
    inner: Rc<RefCell<RingInner>>,
}

impl RingProbe {
    /// A ring keeping the most recent `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring probe needs capacity");
        Self {
            inner: Rc::new(RefCell::new(RingInner {
                events: VecDeque::with_capacity(capacity.min(1 << 16)),
                capacity,
                ..RingInner::default()
            })),
        }
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.inner.borrow().events.iter().copied().collect()
    }

    /// Exact total of events of `kind_index` (see the `EventKind`
    /// index constants), including any that wrapped out of the ring.
    pub fn count(&self, kind_index: usize) -> u64 {
        self.inner.borrow().counts[kind_index]
    }

    /// Exact per-kind totals, indexed by `EventKind` dense index.
    pub fn counts(&self) -> [u64; EventKind::COUNT] {
        self.inner.borrow().counts
    }

    /// Total events emitted (sum of all kinds).
    pub fn total(&self) -> u64 {
        self.inner.borrow().counts.iter().sum()
    }

    /// Events lost to ring wrapping.
    pub fn dropped(&self) -> u64 {
        self.inner.borrow().dropped
    }

    /// Snapshot of the recorded histograms.
    pub fn histograms(&self) -> HistogramSet {
        self.inner.borrow().hists.clone()
    }
}

impl Probe for RingProbe {
    fn emit(&self, event: Event) {
        let mut inner = self.inner.borrow_mut();
        inner.counts[event.kind.index()] += 1;
        if inner.events.len() >= inner.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(event);
    }

    fn record(&self, kind: HistKind, value: u64) {
        self.inner.borrow_mut().hists.get_mut(kind).record(value);
    }

    fn histogram_snapshot(&self) -> Option<HistogramSet> {
        Some(self.histograms())
    }
}

/// Events between automatic flushes of a [`JsonlProbe`]: a killed or
/// panicking run loses at most this many trailing lines, and whatever
/// is on disk is whole lines (flushes land on line boundaries).
const JSONL_FLUSH_EVERY: u32 = 1024;

struct JsonlInner {
    out: BufWriter<File>,
    path: PathBuf,
    counts: [u64; EventKind::COUNT],
    hists: HistogramSet,
    since_flush: u32,
}

impl Drop for JsonlInner {
    fn drop(&mut self) {
        // Flush on drop (including unwinds) so truncated runs still
        // leave a parseable JSONL tail; errors are unreportable here.
        let _ = self.out.flush();
    }
}

/// Streaming JSONL sink: every event becomes one line in a file as it
/// is emitted (unbounded, unlike [`RingProbe`]). Cloning shares the
/// underlying writer.
#[derive(Clone)]
pub struct JsonlProbe {
    inner: Rc<RefCell<JsonlInner>>,
}

impl fmt::Debug for JsonlProbe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("JsonlProbe")
            .field("path", &inner.path)
            .field("events", &inner.counts.iter().sum::<u64>())
            .finish()
    }
}

impl JsonlProbe {
    /// Creates (truncating) the sink file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let out = BufWriter::new(File::create(&path)?);
        Ok(Self {
            inner: Rc::new(RefCell::new(JsonlInner {
                out,
                path,
                counts: [0; EventKind::COUNT],
                hists: HistogramSet::new(),
                since_flush: 0,
            })),
        })
    }

    /// Flushes buffered lines to disk. Call once the run is over;
    /// dropping the last handle also flushes (via `BufWriter`), but
    /// silently.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn flush(&self) -> std::io::Result<()> {
        self.inner.borrow_mut().out.flush()
    }

    /// Exact per-kind totals, indexed by `EventKind` dense index.
    pub fn counts(&self) -> [u64; EventKind::COUNT] {
        self.inner.borrow().counts
    }

    /// Snapshot of the recorded histograms.
    pub fn histograms(&self) -> HistogramSet {
        self.inner.borrow().hists.clone()
    }

    /// The sink file's path.
    pub fn path(&self) -> PathBuf {
        self.inner.borrow().path.clone()
    }
}

impl Probe for JsonlProbe {
    fn emit(&self, event: Event) {
        let mut inner = self.inner.borrow_mut();
        inner.counts[event.kind.index()] += 1;
        let line = event.to_jsonl();
        // A full disk mid-trace should not abort the simulation; the
        // final `flush` surfaces the error.
        let _ = writeln!(inner.out, "{line}");
        inner.since_flush += 1;
        if inner.since_flush >= JSONL_FLUSH_EVERY {
            inner.since_flush = 0;
            let _ = inner.out.flush();
        }
    }

    fn record(&self, kind: HistKind, value: u64) {
        self.inner.borrow_mut().hists.get_mut(kind).record(value);
    }

    fn histogram_snapshot(&self) -> Option<HistogramSet> {
        Some(self.histograms())
    }
}

/// Forwards every event and sample to two probes (e.g. a ring for the
/// in-process summary plus a JSONL file for offline analysis).
#[derive(Debug, Clone)]
pub struct TeeProbe<A: Probe, B: Probe> {
    a: A,
    b: B,
}

impl<A: Probe, B: Probe> TeeProbe<A, B> {
    /// Fans out to `a` then `b`.
    pub fn new(a: A, b: B) -> Self {
        Self { a, b }
    }

    /// The first branch.
    pub fn first(&self) -> &A {
        &self.a
    }

    /// The second branch.
    pub fn second(&self) -> &B {
        &self.b
    }
}

impl<A: Probe, B: Probe> Probe for TeeProbe<A, B> {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    fn emit(&self, event: Event) {
        self.a.emit(event);
        self.b.emit(event);
    }

    fn record(&self, kind: HistKind, value: u64) {
        self.a.record(kind, value);
        self.b.record(kind, value);
    }

    fn histogram_snapshot(&self) -> Option<HistogramSet> {
        self.a.histogram_snapshot().or_else(|| self.b.histogram_snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lelantus_types::Cycles;

    fn ev(cycle: u64) -> Event {
        Event { cycle: Cycles::new(cycle), kind: EventKind::CounterFetch { region: cycle } }
    }

    #[test]
    fn null_probe_is_disabled_and_zero_sized() {
        const { assert!(!NullProbe::ENABLED) };
        assert_eq!(std::mem::size_of::<NullProbe>(), 0);
        NullProbe.emit(ev(1));
        NullProbe.record(HistKind::CopyChainDepth, 3);
    }

    #[test]
    fn ring_wraps_but_counts_exactly() {
        let ring = RingProbe::new(3);
        for i in 0..10 {
            ring.emit(ev(i));
        }
        assert_eq!(ring.count(EventKind::COUNTER_FETCH), 10);
        assert_eq!(ring.total(), 10);
        assert_eq!(ring.dropped(), 7);
        let events = ring.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].cycle, Cycles::new(7), "oldest surviving event");
    }

    #[test]
    fn ring_clones_share_state() {
        let ring = RingProbe::new(8);
        let handle = ring.clone();
        handle.emit(ev(1));
        handle.record(HistKind::WriteQueueDepth, 4);
        assert_eq!(ring.total(), 1);
        assert_eq!(ring.histograms().get(HistKind::WriteQueueDepth).count(), 1);
    }

    #[test]
    fn option_probe_forwards_when_some() {
        let ring = RingProbe::new(4);
        let some: Option<RingProbe> = Some(ring.clone());
        let none: Option<RingProbe> = None;
        some.emit(ev(1));
        none.emit(ev(2));
        assert_eq!(ring.total(), 1);
        const { assert!(<Option<RingProbe> as Probe>::ENABLED) };
    }

    #[test]
    fn jsonl_writes_one_line_per_event() {
        let path = std::env::temp_dir().join("lelantus_obs_jsonl_test.jsonl");
        let probe = JsonlProbe::create(&path).unwrap();
        probe.emit(ev(5));
        probe.emit(Event { cycle: Cycles::new(6), kind: EventKind::Fork { parent: 1, child: 2 } });
        probe.flush().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"kind\":\"counter_fetch\""));
        assert!(lines[1].contains("\"child\":2"));
        assert_eq!(probe.counts()[EventKind::FORK], 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn jsonl_flushes_on_drop_without_explicit_flush() {
        let path = std::env::temp_dir().join("lelantus_obs_jsonl_drop_test.jsonl");
        {
            let probe = JsonlProbe::create(&path).unwrap();
            probe.emit(ev(7));
            // No flush(): the drop must leave a parseable tail.
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.lines().next().unwrap().ends_with('}'), "{text}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn jsonl_flushes_periodically_for_truncated_runs() {
        let path = std::env::temp_dir().join("lelantus_obs_jsonl_periodic_test.jsonl");
        let probe = JsonlProbe::create(&path).unwrap();
        for i in 0..u64::from(JSONL_FLUSH_EVERY) {
            probe.emit(ev(i));
        }
        // Without flush() or drop: the periodic flush already left all
        // complete lines on disk (a SIGKILLed run would too).
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), JSONL_FLUSH_EVERY as usize);
        assert!(text.ends_with('\n'), "flush lands on a line boundary");
        drop(probe);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tee_reaches_both_branches() {
        let a = RingProbe::new(4);
        let b = RingProbe::new(4);
        let tee = TeeProbe::new(a.clone(), b.clone());
        tee.emit(ev(1));
        tee.record(HistKind::FaultServiceCycles, 600);
        assert_eq!(a.total(), 1);
        assert_eq!(b.total(), 1);
        assert_eq!(b.histograms().get(HistKind::FaultServiceCycles).count(), 1);
        const { assert!(<TeeProbe<RingProbe, RingProbe> as Probe>::ENABLED) };
    }

    #[test]
    fn histogram_snapshot_reads_back_through_any_shape() {
        assert!(NullProbe.histogram_snapshot().is_none(), "write-only default");
        let ring = RingProbe::new(4);
        ring.record(HistKind::CmdServiceCycles, 42);
        let snap = ring.histogram_snapshot().expect("ring keeps histograms");
        assert_eq!(snap.get(HistKind::CmdServiceCycles).count(), 1);
        let opt: Option<RingProbe> = Some(ring.clone());
        assert!(opt.histogram_snapshot().is_some());
        let none: Option<RingProbe> = None;
        assert!(none.histogram_snapshot().is_none());
        let tee = TeeProbe::new(NullProbe, ring);
        assert!(tee.histogram_snapshot().is_some(), "tee falls through to the recording branch");
    }
}
