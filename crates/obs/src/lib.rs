//! Observability layer: structured event tracing for the simulator.
//!
//! The paper's analysis (Figs. 2–11, Table V) is about *when* and
//! *why* copy traffic happens — CoW faults, redirected reads, implicit
//! copies, counter overflows — but aggregate counters cannot attribute
//! a regression to a phase or a page. This crate adds a tracing seam
//! that every component of the stack (`NvmDevice`, the secure memory
//! controller, the `System` wrapper) is generic over:
//!
//! * [`Probe`] — the sink trait. Components carry a `P: Probe` type
//!   parameter defaulting to [`NullProbe`], whose associated
//!   `const ENABLED: bool = false` lets every call site guard with
//!   `if P::ENABLED { ... }`; the branch and the event construction
//!   monomorphize away, so the untraced simulator is bit- and
//!   cycle-identical to one with no tracing code at all.
//! * [`Event`]/[`EventKind`] — the event taxonomy: MMIO CoW commands,
//!   kernel faults, redirected reads, implicit copies, counter and
//!   Merkle metadata traffic, and NVM write-queue activity, each
//!   stamped with the simulated cycle.
//! * [`HdrHistogram`]/[`TailSummary`] — the one histogram type:
//!   log-linear (32 sub-buckets per power of two), so percentile
//!   queries are exact to within 1/32 relative error (see [`hdr`]).
//! * [`HistogramSet`]/[`HistKind`] — the probe's distributions (write
//!   queue depth, copy-chain depth, counter-cache occupancy, per-fault
//!   and per-command service cycles) recorded alongside the events.
//! * [`TailRecorder`]/[`FaultSpan`]/[`FaultAction`] — per-fault span
//!   recording with per-action histograms and a bounded top-K
//!   worst-offender reservoir (see [`span`]).
//! * Sinks: [`RingProbe`] (bounded in-memory ring + per-kind counts),
//!   [`JsonlProbe`] (streaming JSONL file), [`TeeProbe`] (fan-out),
//!   and `Option<P>` (runtime-optional sink).
//! * [`chrome_trace`] — renders captured events and counter series as
//!   a chrome://tracing / Perfetto-compatible JSON document
//!   ([`chrome_trace_with_spans`] adds per-category duration lanes).
//! * [`HeatGrid`]/[`HeatLane`] — the *spatial* axis: region-granular
//!   heat lanes (faults by action, CoW redirects, counter/Merkle/MAC
//!   metadata traffic, bank array accesses) whose lane totals
//!   reconcile exactly with the aggregate counters (see [`heatmap`]).
//! * [`CycleLedger`]/[`CycleCategory`] — the cycle-attribution ledger:
//!   charges every simulated cycle to exactly one component category
//!   so `lelantus profile` can reproduce the paper's overhead
//!   breakdown (see [`ledger`]).
//! * [`LayerRecorder`] — the one recorder the memory-side layers
//!   (controller and NVM device) write ledger segments and heat into
//!   (see [`layer`]).
//! * [`selfprof`] — a wall-clock self-profiler (scoped timers per
//!   component) that compiles away without the `selfprof` feature.
//!
//! # Examples
//!
//! ```
//! use lelantus_obs::{Event, EventKind, Probe, RingProbe};
//! use lelantus_types::Cycles;
//!
//! let probe = RingProbe::new(16);
//! probe.emit(Event {
//!     cycle: Cycles::new(42),
//!     kind: EventKind::CounterFetch { region: 7 },
//! });
//! assert_eq!(probe.count(EventKind::COUNTER_FETCH), 1);
//! assert_eq!(probe.events()[0].cycle, Cycles::new(42));
//! ```

pub mod event;
pub mod hdr;
pub mod heatmap;
pub mod hist;
pub mod layer;
pub mod ledger;
pub mod probe;
pub mod selfprof;
pub mod span;
pub mod trace;

pub use event::{Event, EventKind};
pub use hdr::{HdrHistogram, TailSummary};
pub use heatmap::{HeatGrid, HeatLane};
pub use hist::{HistKind, HistogramSet};
pub use layer::LayerRecorder;
pub use ledger::{attribute, CycleCategory, CycleLedger, Segment};
pub use probe::{JsonlProbe, NullProbe, Probe, RingProbe, TeeProbe};
pub use span::{FaultAction, FaultSpan, TailRecorder};
pub use trace::{chrome_trace, chrome_trace_with_spans, CounterSeries, Span};
