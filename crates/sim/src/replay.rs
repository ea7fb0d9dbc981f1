//! Trace replay: drive a [`System`] from a recorded `.ltr` file.
//!
//! [`replay`] streams a validated [`Trace`] straight into the
//! simulator: batch records feed the run-cache driver through borrowed
//! slices of the file mapping (the payload arena is never copied), and
//! kernel records invoke the same public syscalls the recorded run
//! used. Because every allocation result (`spawn_init` pid, `mmap`
//! base, `fork` child) and every observed Merkle root is stored in the
//! trace, replay is self-checking: any drift from the recorded
//! trajectory surfaces as [`ReplayError::Divergence`] at the first
//! record where the machines disagree, not as a mystery metric delta
//! at the end.
//!
//! The replayed system may use a *different* CoW scheme than the
//! recorder (that is the point of a trace sweep) — pids and addresses
//! are scheme-independent, so the divergence oracle still holds.
//! Merkle-root records are the exception: the root is
//! scheme-dependent state, so root checks are skipped unless the
//! caller opts in with [`replay_checked`] against a same-config run.

use crate::system::System;
use lelantus_obs::HeatLane;
use lelantus_os::OsError;
use lelantus_trace::reader::Record;
use lelantus_trace::{Trace, TraceError, TraceOp};
use lelantus_types::{VirtAddr, REGION_BYTES};
use std::fmt;

/// What a replayed trace did, for reports and throughput accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayStats {
    /// Records executed.
    pub records: u64,
    /// Line-level access ops executed (batch ops + per-line records).
    pub ops: u64,
    /// Batch records among `records`.
    pub batches: u64,
    /// Payload bytes fed to the sim (write arenas + non-temporal
    /// stores), all served zero-copy from the trace image.
    pub payload_bytes: u64,
}

/// Why a replay stopped.
#[derive(Debug)]
pub enum ReplayError {
    /// The trace itself is malformed (decode failure mid-body).
    Trace(TraceError),
    /// The simulated kernel rejected a replayed operation.
    Os(OsError),
    /// The trace was recorded on a machine whose geometry differs
    /// from the replaying system, so addresses would not line up.
    Geometry {
        /// Which geometry field disagrees.
        field: &'static str,
        /// The trace header's value.
        trace: u64,
        /// The replaying system's value.
        system: u64,
    },
    /// The replaying system left the recorded trajectory.
    Divergence {
        /// Zero-based index of the record that disagreed.
        record: u64,
        /// What was compared (`"spawn_init pid"`, `"mmap base"`...).
        what: &'static str,
        /// The value the recorded run observed.
        expected: u64,
        /// The value this replay produced.
        got: u64,
    },
    /// Crash recovery failed during a replayed power cycle.
    Recovery(String),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Trace(e) => write!(f, "trace decode failed: {e}"),
            Self::Os(e) => write!(f, "replayed operation failed: {e}"),
            Self::Geometry { field, trace, system } => write!(
                f,
                "geometry mismatch: trace recorded with {field} = {trace}, system has {system}"
            ),
            Self::Divergence { record, what, expected, got } => write!(
                f,
                "replay diverged at record {record}: {what} expected {expected:#x}, got {got:#x}"
            ),
            Self::Recovery(e) => write!(f, "crash recovery failed during replay: {e}"),
        }
    }
}

impl std::error::Error for ReplayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Trace(e) => Some(e),
            Self::Os(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TraceError> for ReplayError {
    fn from(e: TraceError) -> Self {
        Self::Trace(e)
    }
}

impl From<OsError> for ReplayError {
    fn from(e: OsError) -> Self {
        Self::Os(e)
    }
}

/// Records kept in a [`DivergenceReport`]'s recent-operation window.
const RECENT_K: usize = 16;

/// Spatial context for a replay divergence: *where* the replaying
/// machine was when it left the recorded trajectory, not just which
/// record disagreed. Built post-hoc by [`explain_divergence`] — the
/// replay hot path is untouched — and rendered by `Display` as the
/// dump the CLI prints when `replay --check` fails.
#[derive(Debug, Clone)]
pub struct DivergenceReport {
    /// Zero-based index of the record that disagreed.
    pub record: u64,
    /// What was compared (`"mmap base"`, `"merkle root"`, ...).
    pub what: &'static str,
    /// The value the recorded run observed.
    pub expected: u64,
    /// The value this replay produced.
    pub got: u64,
    /// Focus region: the 4 KB region of the *replayed* value when the
    /// comparison is an address (`None` for pid/core/root mismatches,
    /// which have no spatial anchor).
    pub region: Option<u64>,
    /// Nonzero heat lanes at the focus region as `(lane name, count)`
    /// — empty when the heatmap is off or the region is cold.
    pub region_heat: Vec<(&'static str, u64)>,
    /// Heat totals of the regions around the focus (`±2` window,
    /// nonzero only) as `(region, total)`.
    pub neighbors: Vec<(u64, u64)>,
    /// The run's hottest regions overall as `(region, total)` —
    /// spatial context even when the divergence has no address.
    pub hottest: Vec<(u64, u64)>,
    /// The last [`RECENT_K`] records executed up to and including the
    /// diverging one, oldest first: `(record index, description,
    /// touches the focus region)`.
    pub recent: Vec<(u64, String, bool)>,
}

impl fmt::Display for DivergenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "replay diverged at record {}: {} expected {:#x}, got {:#x}",
            self.record, self.what, self.expected, self.got
        )?;
        match self.region {
            Some(r) => {
                writeln!(f, "  focus region {r} (replayed value, 4 KB granularity)")?;
                if self.region_heat.is_empty() {
                    writeln!(f, "  heat at focus: none recorded (cold region or heatmap off)")?;
                } else {
                    write!(f, "  heat at focus:")?;
                    for (lane, count) in &self.region_heat {
                        write!(f, " {lane}={count}")?;
                    }
                    writeln!(f)?;
                }
                if !self.neighbors.is_empty() {
                    write!(f, "  neighbor heat:")?;
                    for (region, total) in &self.neighbors {
                        write!(f, " {region}={total}")?;
                    }
                    writeln!(f)?;
                }
            }
            None => writeln!(f, "  no spatial anchor for this comparison")?,
        }
        if !self.hottest.is_empty() {
            write!(f, "  hottest regions:")?;
            for (region, total) in &self.hottest {
                write!(f, " {region}={total}")?;
            }
            writeln!(f)?;
        }
        writeln!(f, "  last {} records (* touches focus):", self.recent.len())?;
        for (idx, desc, touches) in &self.recent {
            writeln!(f, "    {idx:>6}: {desc}{}", if *touches { " *" } else { "" })?;
        }
        Ok(())
    }
}

/// Builds the spatial context report for a [`ReplayError::Divergence`]
/// returned by [`replay`] or [`replay_checked`] against the same
/// `sys`/`trace` pair. Returns `None` for every other error kind.
///
/// This is a cold-path post-mortem: it re-scans the trace up to the
/// diverging record for the recent-operation window and reads the
/// system's merged heat grid (empty lanes when the run was not built
/// with `SimConfig::with_heatmap`). Nothing here runs during a
/// successful replay, so the replay fast path is unperturbed.
pub fn explain_divergence(
    sys: &mut System,
    trace: &Trace,
    err: &ReplayError,
) -> Option<DivergenceReport> {
    let ReplayError::Divergence { record, what, expected, got } = err else {
        return None;
    };
    let (record, what, expected, got) = (*record, *what, *expected, *got);
    // Only address comparisons have a region; pids, core indices and
    // Merkle roots are not locations. The *replayed* value anchors the
    // focus — it is where this machine actually is.
    let region = (what == "mmap base").then_some(got / REGION_BYTES);

    let grid = sys.heatmap();
    let mut region_heat = Vec::new();
    let mut neighbors = Vec::new();
    let mut hottest = Vec::new();
    if let Some(grid) = &grid {
        hottest = grid.top_regions(5);
        if let Some(r) = region {
            for lane in HeatLane::ALL {
                let count = grid.get(lane, r);
                if count != 0 {
                    region_heat.push((lane.name(), count as u64));
                }
            }
            for n in r.saturating_sub(2)..=r.saturating_add(2) {
                let total = grid.region_total(n);
                if n != r && total != 0 {
                    neighbors.push((n, total));
                }
            }
        }
    }

    let mut recent: Vec<(u64, String, bool)> = Vec::new();
    for (idx, rec) in trace.records().enumerate() {
        let idx = idx as u64;
        if idx > record {
            break;
        }
        let Ok(rec) = rec else { break };
        let (desc, touches) = describe(&rec, region);
        if recent.len() == RECENT_K {
            recent.remove(0);
        }
        recent.push((idx, desc, touches));
    }

    Some(DivergenceReport {
        record,
        what,
        expected,
        got,
        region,
        region_heat,
        neighbors,
        hottest,
        recent,
    })
}

/// Whether the virtual span `[va, va + len)` overlaps `focus` in
/// 4 KB-region terms (the recorded addresses are virtual; the focus
/// anchor is derived from the same space).
fn touches(focus: Option<u64>, va: u64, len: u64) -> bool {
    let Some(focus) = focus else { return false };
    let last = va.saturating_add(len.saturating_sub(1));
    va / REGION_BYTES <= focus && focus <= last / REGION_BYTES
}

/// One-line description of a record for the recent-operation window,
/// plus whether it touched the focus region.
fn describe(rec: &Record<'_>, focus: Option<u64>) -> (String, bool) {
    match rec {
        Record::Batch(b) => {
            let mut lo = u64::MAX;
            let mut hi = 0u64;
            let mut touched = false;
            for op in b.ops() {
                let Ok(op) = op else { break };
                lo = lo.min(op.va);
                hi = hi.max(op.va + u64::from(op.len));
                touched |= touches(focus, op.va, u64::from(op.len));
            }
            if lo > hi {
                (format!("batch pid={} ops={} (empty)", b.pid, b.nops), false)
            } else {
                (format!("batch pid={} ops={} va={lo:#x}..{hi:#x}", b.pid, b.nops), touched)
            }
        }
        Record::SpawnInit { pid } => (format!("spawn_init -> pid {pid}"), false),
        Record::Mmap { pid, len, page_size, va } => (
            format!("mmap pid={pid} len={len:#x} page={page_size:?} -> va {va:#x}"),
            touches(focus, *va, *len),
        ),
        Record::Fork { parent, child } => (format!("fork parent={parent} -> child {child}"), false),
        Record::Exit { pid } => (format!("exit pid={pid}"), false),
        Record::Munmap { pid, va } => {
            (format!("munmap pid={pid} va={va:#x}"), touches(focus, *va, 1))
        }
        Record::MadviseDontneed { pid, va, len } => (
            format!("madvise_dontneed pid={pid} va={va:#x} len={len:#x}"),
            touches(focus, *va, *len),
        ),
        Record::Mprotect { pid, va, writable } => {
            (format!("mprotect pid={pid} va={va:#x} writable={writable}"), touches(focus, *va, 1))
        }
        Record::KsmMerge(_) => ("ksm_merge".into(), false),
        Record::UseCore { core } => (format!("use_core {core}"), false),
        Record::SyncCores => ("sync_cores".into(), false),
        Record::Finish => ("finish".into(), false),
        Record::WriteNt { pid, va, data } => (
            format!("write_nt pid={pid} va={va:#x} len={:#x}", data.len()),
            touches(focus, *va, data.len() as u64),
        ),
        Record::CrashRecover => ("crash_and_recover".into(), false),
        Record::ResetFootprint => ("reset_footprint".into(), false),
        Record::MerkleRoot { root } => (format!("merkle_root -> {root:#x}"), false),
    }
}

/// Replays `trace` into `sys`, skipping Merkle-root cross-checks (the
/// root depends on the CoW scheme, and replaying under a different
/// scheme is the normal sweep case). Root records still force the
/// same metadata flush / epoch barrier the recorded run performed.
///
/// # Errors
///
/// See [`ReplayError`]; geometry is checked before any record runs.
pub fn replay(sys: &mut System, trace: &Trace) -> Result<ReplayStats, ReplayError> {
    run(sys, trace, false)
}

/// [`replay`], but every recorded Merkle root must match the replayed
/// one bit-for-bit. Use when the replaying system has the same scheme
/// and configuration as the recorder: the roots then act as rolling
/// integrity checkpoints over the whole metadata state.
///
/// # Errors
///
/// See [`ReplayError`]; additionally [`ReplayError::Divergence`] on
/// the first root mismatch.
pub fn replay_checked(sys: &mut System, trace: &Trace) -> Result<ReplayStats, ReplayError> {
    run(sys, trace, true)
}

fn run(sys: &mut System, trace: &Trace, check_roots: bool) -> Result<ReplayStats, ReplayError> {
    let header = trace.header();
    let page_bytes = sys.config().page_size.bytes();
    if header.page_size.bytes() != page_bytes {
        return Err(ReplayError::Geometry {
            field: "page_size bytes",
            trace: header.page_size.bytes(),
            system: page_bytes,
        });
    }
    let phys = sys.config().kernel.phys_bytes;
    if header.phys_bytes != phys {
        return Err(ReplayError::Geometry {
            field: "phys_bytes",
            trace: header.phys_bytes,
            system: phys,
        });
    }

    let mut stats = ReplayStats::default();
    // Scratch op list reused across batch records: the only per-batch
    // host work is decoding the packed stream into it.
    let mut ops: Vec<TraceOp> = Vec::new();
    let mut pairs: Vec<(u64, VirtAddr)> = Vec::new();
    let check = |record: u64, what: &'static str, expected: u64, got: u64| {
        if expected == got {
            Ok(())
        } else {
            Err(ReplayError::Divergence { record, what, expected, got })
        }
    };

    for record in trace.records() {
        let idx = stats.records;
        stats.records += 1;
        match record? {
            Record::Batch(b) => {
                ops.clear();
                for op in b.ops() {
                    ops.push(op?);
                }
                sys.run_batch_parts(b.pid, &ops, b.data, None)?;
                stats.batches += 1;
                stats.ops += ops.len() as u64;
                stats.payload_bytes += b.data.len() as u64;
            }
            Record::SpawnInit { pid } => {
                let got = sys.spawn_init();
                check(idx, "spawn_init pid", pid, got)?;
            }
            Record::Mmap { pid, len, page_size, va } => {
                let got = sys.mmap_with(pid, len, page_size)?;
                check(idx, "mmap base", va, got.as_u64())?;
            }
            Record::Fork { parent, child } => {
                let got = sys.fork(parent)?;
                check(idx, "fork child pid", child, got)?;
            }
            Record::Exit { pid } => sys.exit(pid)?,
            Record::Munmap { pid, va } => sys.munmap(pid, VirtAddr::new(va))?,
            Record::MadviseDontneed { pid, va, len } => {
                sys.madvise_dontneed(pid, VirtAddr::new(va), len)?;
            }
            Record::Mprotect { pid, va, writable } => {
                sys.mprotect(pid, VirtAddr::new(va), writable)?;
            }
            Record::KsmMerge(cands) => {
                pairs.clear();
                for pair in cands {
                    let (pid, va) = pair?;
                    pairs.push((pid, VirtAddr::new(va)));
                }
                sys.ksm_merge(&pairs)?;
            }
            Record::UseCore { core } => {
                // Guard before `use_core`, which panics on bad input —
                // a crafted trace must fail cleanly instead.
                let cores = sys.cores() as u64;
                if u64::from(core) >= cores {
                    return Err(ReplayError::Divergence {
                        record: idx,
                        what: "use_core index (expected shows max valid)",
                        expected: cores - 1,
                        got: u64::from(core),
                    });
                }
                sys.use_core(core as usize);
            }
            Record::SyncCores => sys.sync_cores(),
            Record::Finish => {
                sys.finish();
            }
            Record::WriteNt { pid, va, data } => {
                sys.write_bytes_nt(pid, VirtAddr::new(va), data)?;
                stats.ops += 1;
                stats.payload_bytes += data.len() as u64;
            }
            Record::CrashRecover => {
                sys.crash_and_recover().map_err(|e| ReplayError::Recovery(e.to_string()))?;
            }
            Record::ResetFootprint => sys.reset_footprint(),
            Record::MerkleRoot { root } => {
                // Always recompute (the recorded run's query flushed
                // metadata, so the replay must too); compare only when
                // the caller vouched for config parity.
                let got = sys.merkle_root();
                if check_roots {
                    check(idx, "merkle root", root, got)?;
                }
            }
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::record::TraceRecorder;
    use crate::system::System;
    use lelantus_os::CowStrategy;
    use lelantus_trace::TraceHeader;
    use lelantus_types::PageSize;

    fn config() -> SimConfig {
        SimConfig::new(CowStrategy::Lelantus, PageSize::Regular4K)
    }

    fn record_small_run(path: &std::path::Path) -> crate::metrics::SimMetrics {
        let mut sys = System::new(config());
        let header =
            TraceHeader { page_size: PageSize::Regular4K, phys_bytes: config().kernel.phys_bytes };
        let rec = TraceRecorder::create(path, header).unwrap();
        sys.record_into(rec.clone());
        let pid = sys.spawn_init();
        let va = sys.mmap(pid, 16 << 10).unwrap();
        sys.write_bytes(pid, va, &[7u8; 256]).unwrap();
        let child = sys.fork(pid).unwrap();
        sys.write_pattern(child, va, 4096, 0xAB).unwrap();
        assert_eq!(sys.read_bytes(pid, va, 4).unwrap(), [7, 7, 7, 7]);
        sys.merkle_root();
        let metrics = sys.finish();
        sys.stop_recording();
        rec.finish().unwrap();
        metrics
    }

    #[test]
    fn recorded_run_replays_bit_identically() {
        let dir = std::env::temp_dir().join("lelantus-replay-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("small.ltr");
        let live = record_small_run(&path);

        let trace = Trace::open(&path).unwrap();
        let mut sys = System::new(config());
        let stats = replay_checked(&mut sys, &trace).unwrap();
        assert!(stats.records > 0);
        assert!(stats.ops > 0);
        assert_eq!(sys.finish(), live);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn geometry_mismatch_is_rejected_up_front() {
        let dir = std::env::temp_dir().join("lelantus-replay-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("geom.ltr");
        record_small_run(&path);

        let trace = Trace::open(&path).unwrap();
        let mut huge = System::new(SimConfig::new(CowStrategy::Lelantus, PageSize::Huge2M));
        match replay(&mut huge, &trace) {
            Err(ReplayError::Geometry { field: "page_size bytes", .. }) => {}
            other => panic!("expected geometry error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }
}
