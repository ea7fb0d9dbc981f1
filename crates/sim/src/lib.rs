//! Full-system simulator for the Lelantus reproduction.
//!
//! Wires the three layers together the way the paper's gem5 + Linux
//! setup does (§V-A, Table III):
//!
//! ```text
//!  workload ──> Kernel (lelantus-os) ──HwActions──┐
//!     │             │ translation                 │
//!     └─ accesses ──┴──> CacheHierarchy ──> SecureMemoryController ──> NVM
//! ```
//!
//! The [`System`] executes application reads/writes with full timing:
//! page faults run the kernel's CoW machinery, the emitted
//! [`lelantus_os::HwAction`]s become cache maintenance, bulk copies or
//! controller commands, and ordinary accesses flow through the cache
//! hierarchy into the encrypted NVM.
//!
//! The CPU model is a set of in-order contexts — eight per-core clocks
//! (Table III) over one shared cache hierarchy — plus a two-level data
//! TLB with page walks and shootdowns. Relative results are set by
//! memory traffic, not ILP; see `DESIGN.md` §2 for the substitution
//! argument. [`System::crash_and_recover`] models a power failure with
//! ADR/battery semantics.
//!
//! # Examples
//!
//! ```
//! use lelantus_sim::{SimConfig, System};
//! use lelantus_os::CowStrategy;
//! use lelantus_types::PageSize;
//!
//! let mut sys = System::new(SimConfig::new(CowStrategy::Lelantus, PageSize::Regular4K));
//! let pid = sys.spawn_init();
//! let va = sys.mmap(pid, 8192)?;
//! sys.write_bytes(pid, va, &[1, 2, 3])?;
//! assert_eq!(sys.read_bytes(pid, va, 3)?, vec![1, 2, 3]);
//! let child = sys.fork(pid)?;
//! sys.write_bytes(pid, va, &[9])?; // CoW fault
//! assert_eq!(sys.read_bytes(child, va, 3)?, vec![1, 2, 3]);
//! # Ok::<(), lelantus_os::OsError>(())
//! ```

pub mod batch;
pub mod config;
pub mod metrics;
pub mod record;
pub mod replay;
pub mod system;
pub mod tlb;

pub use batch::AccessBatch;
pub use config::SimConfig;
pub use metrics::{EpochSample, SimMetrics};
pub use record::TraceRecorder;
pub use replay::{
    explain_divergence, replay, replay_checked, DivergenceReport, ReplayError, ReplayStats,
};
pub use system::{Snapshot, System};

// Re-export the trace format so replay/record callers can open files
// and build headers without naming the trace crate themselves.
pub use lelantus_trace::{Trace, TraceError, TraceHeader, TraceTotals};

// Re-export the observability surface so downstream crates (workloads,
// benches, the CLI) can name probes without depending on lelantus-obs
// directly.
pub use lelantus_obs::{
    chrome_trace, chrome_trace_with_spans, selfprof, CounterSeries, CycleCategory, CycleLedger,
    Event, EventKind, FaultAction, FaultSpan, HdrHistogram, HeatGrid, HeatLane, HistKind,
    Histogram, HistogramSet, JsonlProbe, NullProbe, Probe, RingProbe, Span, TailRecorder,
    TailSummary, TeeProbe,
};
