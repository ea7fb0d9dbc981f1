//! Observability layer: every view the simulator records, on one
//! recording path.
//!
//! The paper's analysis (Figs. 2–11, Table V) is about *when* and
//! *why* copy traffic happens — CoW faults, redirected reads, implicit
//! copies, counter overflows — but aggregate counters cannot attribute
//! a regression to a phase or a page. Every view here is plain owned
//! data recorded at runtime-selected sites; a view that is off costs
//! one predicted branch per site and perturbs nothing.
//!
//! * [`LayerRecorder`] — the one recorder a simulated machine holds (in
//!   its NVM device). The device, the controller above it and the
//!   system layer all record through it: ledger segments, the spatial
//!   view and the event view (see [`layer`]).
//! * [`Event`]/[`EventKind`] — the event taxonomy: MMIO CoW commands,
//!   kernel faults, redirected reads, implicit copies, counter and
//!   Merkle metadata traffic, and NVM write-queue activity, each
//!   stamped with the simulated cycle.
//! * [`EventLog`] — the event view: a bounded ring plus exact per-kind
//!   counts and the histograms; [`JsonlSink`] streams every event to a
//!   JSONL file as a shared `Send + Sync` handle (see [`log`]).
//! * [`HdrHistogram`]/[`TailSummary`] — the one histogram type:
//!   log-linear (32 sub-buckets per power of two), so percentile
//!   queries are exact to within 1/32 relative error (see [`hdr`]).
//! * [`HistogramSet`]/[`HistKind`] — the event view's distributions
//!   (write queue depth, copy-chain depth, counter-cache occupancy,
//!   per-fault and per-command service cycles).
//! * [`TailRecorder`]/[`FaultSpan`]/[`FaultAction`] — per-fault span
//!   recording with per-action histograms and a bounded top-K
//!   worst-offender reservoir (see [`span`]).
//! * [`chrome_trace`] — renders captured events and counter series as
//!   a chrome://tracing / Perfetto-compatible JSON document
//!   ([`chrome_trace_with_spans`] adds per-category duration lanes).
//! * [`HeatGrid`]/[`HeatLane`] — the *spatial* axis: region-granular
//!   heat lanes (faults by action, CoW redirects, counter/Merkle/MAC
//!   metadata traffic, bank array accesses) whose lane totals
//!   reconcile exactly with the aggregate counters (see [`heatmap`]),
//!   plus the per-region line bitmaps of [`FootprintTracker`] (paper
//!   Fig 10c/d, see [`footprint`]).
//! * [`CycleLedger`]/[`CycleCategory`] — the cycle-attribution ledger:
//!   charges every simulated cycle to exactly one component category
//!   so `lelantus profile` can reproduce the paper's overhead
//!   breakdown (see [`ledger`]).
//! * [`selfprof`] — a wall-clock self-profiler (scoped timers per
//!   component) that compiles away without the `selfprof` feature.
//!
//! # Examples
//!
//! ```
//! use lelantus_obs::{Event, EventKind, EventLog};
//! use lelantus_types::Cycles;
//!
//! let mut log = EventLog::new(16);
//! log.emit(Event {
//!     cycle: Cycles::new(42),
//!     kind: EventKind::CounterFetch { region: 7 },
//! });
//! assert_eq!(log.count(EventKind::COUNTER_FETCH), 1);
//! assert_eq!(log.events()[0].cycle, Cycles::new(42));
//! ```

pub mod event;
pub mod footprint;
pub mod hdr;
pub mod heatmap;
pub mod hist;
pub mod layer;
pub mod ledger;
pub mod log;
pub mod selfprof;
pub mod span;
pub mod trace;

pub use event::{Event, EventKind};
pub use footprint::{AccessDir, FootprintTracker, RegionFootprint};
pub use hdr::{HdrHistogram, TailSummary};
pub use heatmap::{HeatGrid, HeatLane};
pub use hist::{HistKind, HistogramSet};
pub use layer::LayerRecorder;
pub use ledger::{attribute, CycleCategory, CycleLedger, Segment};
pub use log::{EventLog, JsonlSink};
pub use span::{FaultAction, FaultSpan, TailRecorder};
pub use trace::{chrome_trace, chrome_trace_with_spans, CounterSeries, Span};
