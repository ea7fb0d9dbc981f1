//! The event view: where emitted events and histogram samples go.
//!
//! The machine's one [`crate::LayerRecorder`] owns an [`EventLog`] when
//! the view is on. Emission sites on every layer guard on it and build
//! the event inside the branch:
//!
//! ```ignore
//! if let Some(log) = rec.events_mut() {
//!     log.emit(Event { cycle: now, kind: EventKind::Fork { .. } });
//! }
//! ```
//!
//! With the view off that is one predicted branch per site and no
//! event construction.
//!
//! The log is plain owned data, so a cloned machine (a snapshot fork)
//! carries its own copy of the events so far and records its own from
//! then on. A [`JsonlSink`] is the one shared part: like a trace
//! recorder it is a `Send + Sync` handle on one file, and clones of a
//! streaming machine append to the same file.

use crate::event::{Event, EventKind};
use crate::hist::{HistKind, HistogramSet};
use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Bounded ring of the most recent events, plus exact per-kind counts,
/// the number of events the ring dropped, the histograms, and an
/// optional JSONL stream of every event.
///
/// # Examples
///
/// ```
/// use lelantus_obs::{Event, EventKind, EventLog};
/// use lelantus_types::Cycles;
///
/// let mut log = EventLog::new(2);
/// for i in 0..3 {
///     log.emit(Event { cycle: Cycles::new(i), kind: EventKind::Fork { parent: 1, child: 2 } });
/// }
/// assert_eq!(log.count(EventKind::FORK), 3, "counts survive wrapping");
/// assert_eq!(log.events().len(), 2);
/// assert_eq!(log.dropped(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct EventLog {
    ring: VecDeque<Event>,
    capacity: usize,
    /// Per-kind totals — exact even when the ring wrapped.
    counts: [u64; EventKind::COUNT],
    /// Events pushed out of the ring by newer ones.
    dropped: u64,
    hists: HistogramSet,
    stream: Option<JsonlSink>,
}

impl EventLog {
    /// A log whose ring keeps the most recent `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "the event ring needs capacity");
        Self {
            ring: VecDeque::with_capacity(capacity.min(1 << 16)),
            capacity,
            counts: [0; EventKind::COUNT],
            dropped: 0,
            hists: HistogramSet::new(),
            stream: None,
        }
    }

    /// Consumes one event: counts it, keeps it in the ring (dropping
    /// the oldest when full) and streams it when a sink is attached.
    pub fn emit(&mut self, event: Event) {
        self.counts[event.kind.index()] += 1;
        if self.ring.len() >= self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(event);
        if let Some(sink) = &self.stream {
            sink.write(&event);
        }
    }

    /// Records one histogram sample.
    pub fn record(&mut self, kind: HistKind, value: u64) {
        self.hists.get_mut(kind).record(value);
    }

    /// Streams every later event to `sink` as one JSONL line.
    pub fn stream_into(&mut self, sink: JsonlSink) {
        self.stream = Some(sink);
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.ring.iter().copied().collect()
    }

    /// Exact total of events of `kind_index` (see the `EventKind`
    /// index constants), including any that wrapped out of the ring.
    pub fn count(&self, kind_index: usize) -> u64 {
        self.counts[kind_index]
    }

    /// Exact per-kind totals, indexed by `EventKind` dense index.
    pub fn counts(&self) -> [u64; EventKind::COUNT] {
        self.counts
    }

    /// Total events emitted (sum of all kinds).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Events lost to ring wrapping.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The recorded histograms.
    pub fn histograms(&self) -> &HistogramSet {
        &self.hists
    }
}

/// Events between automatic flushes of a [`JsonlSink`]: a killed or
/// panicking run loses at most this many trailing lines, and whatever
/// is on disk is whole lines (flushes land on line boundaries).
const JSONL_FLUSH_EVERY: u32 = 1024;

struct JsonlInner {
    out: BufWriter<File>,
    path: PathBuf,
    since_flush: u32,
}

impl Drop for JsonlInner {
    fn drop(&mut self) {
        // Flush on drop (including unwinds) so truncated runs still
        // leave a parseable JSONL tail; errors are unreportable here.
        let _ = self.out.flush();
    }
}

/// Streaming JSONL file: every event becomes one line as it is emitted
/// (unbounded, unlike the ring). A cloneable `Send + Sync` handle;
/// clones write to the same file.
#[derive(Clone)]
pub struct JsonlSink {
    inner: Arc<Mutex<JsonlInner>>,
}

impl fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonlSink").field("path", &self.path()).finish()
    }
}

impl JsonlSink {
    /// Creates (truncating) the sink file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let out = BufWriter::new(File::create(&path)?);
        Ok(Self { inner: Arc::new(Mutex::new(JsonlInner { out, path, since_flush: 0 })) })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, JsonlInner> {
        self.inner.lock().expect("a thread panicked while writing the JSONL sink")
    }

    /// Appends one event line.
    fn write(&self, event: &Event) {
        let mut inner = self.lock();
        // A full disk mid-trace should not abort the simulation; the
        // final `flush` surfaces the error.
        let _ = writeln!(inner.out, "{}", event.to_jsonl());
        inner.since_flush += 1;
        if inner.since_flush >= JSONL_FLUSH_EVERY {
            inner.since_flush = 0;
            let _ = inner.out.flush();
        }
    }

    /// Flushes buffered lines to disk. Call once the run is over;
    /// dropping the last handle also flushes, but silently.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn flush(&self) -> std::io::Result<()> {
        self.lock().out.flush()
    }

    /// The sink file's path.
    pub fn path(&self) -> PathBuf {
        self.lock().path.clone()
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
    fn ring_wraps_but_counts_exactly() {
        let mut log = EventLog::new(3);
        for i in 0..10 {
            log.emit(ev(i));
        }
        assert_eq!(log.count(EventKind::COUNTER_FETCH), 10);
        assert_eq!(log.total(), 10);
        assert_eq!(log.dropped(), 7);
        let events = log.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].cycle, Cycles::new(7), "oldest surviving event");
    }

    #[test]
    fn clones_record_independently() {
        let mut log = EventLog::new(8);
        log.emit(ev(1));
        log.record(HistKind::WriteQueueDepth, 4);
        let mut fork = log.clone();
        fork.emit(ev(2));
        assert_eq!(log.total(), 1, "a clone's events stay its own");
        assert_eq!(fork.total(), 2);
        assert_eq!(fork.histograms().get(HistKind::WriteQueueDepth).count(), 1);
    }

    #[test]
    fn log_and_sink_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EventLog>();
        assert_send_sync::<JsonlSink>();
    }

    #[test]
    fn jsonl_writes_one_line_per_event() {
        let path = std::env::temp_dir().join("lelantus_obs_jsonl_test.jsonl");
        let mut log = EventLog::new(1);
        let sink = JsonlSink::create(&path).unwrap();
        log.stream_into(sink.clone());
        log.emit(ev(5));
        log.emit(Event { cycle: Cycles::new(6), kind: EventKind::Fork { parent: 1, child: 2 } });
        sink.flush().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "the stream keeps what the ring drops");
        assert!(lines[0].contains("\"kind\":\"counter_fetch\""));
        assert!(lines[1].contains("\"child\":2"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn jsonl_flushes_on_drop_without_explicit_flush() {
        let path = std::env::temp_dir().join("lelantus_obs_jsonl_drop_test.jsonl");
        {
            let mut log = EventLog::new(4);
            log.stream_into(JsonlSink::create(&path).unwrap());
            log.emit(ev(7));
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
        let mut log = EventLog::new(4);
        log.stream_into(JsonlSink::create(&path).unwrap());
        for i in 0..u64::from(JSONL_FLUSH_EVERY) {
            log.emit(ev(i));
        }
        // Without flush() or drop: the periodic flush already left all
        // complete lines on disk (a SIGKILLed run would too).
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), JSONL_FLUSH_EVERY as usize);
        assert!(text.ends_with('\n'), "flush lands on a line boundary");
        drop(log);
        let _ = std::fs::remove_file(&path);
    }
}
