//! The traced replay: the same work as `lelantus_sim::replay_checked`,
//! driven record by record from this file so that every call into
//! `System` can be timed from outside. Nothing inside the simulator is
//! instrumented beyond its existing `selfprof` scopes.

use crate::workload::Workload;
use lelantus_sim::{selfprof, AccessBatch, SimMetrics, System, Trace};
use lelantus_trace::{Record, TraceOpKind};
use lelantus_types::VirtAddr;
use std::time::{Duration, Instant};

/// The `System` entry points the traced replay times separately.
#[derive(Debug, Clone, Copy)]
pub enum Span {
    /// `System::new`.
    Boot,
    /// `run_batch`.
    RunBatch,
    /// `fork`.
    Fork,
    /// `exit`.
    Exit,
    /// `madvise_dontneed`.
    Madvise,
    /// `ksm_merge`.
    Ksm,
    /// `mmap_with`.
    Mmap,
    /// `finish` and the Merkle-root checkpoints.
    Finish,
    /// Every other call (`spawn_init`, `munmap`, `mprotect`, core
    /// switches, non-temporal writes, power cycles, footprint resets).
    Other,
    /// Dropping the machine.
    Drop,
}

impl Span {
    pub const ALL: [Span; 10] = [
        Span::Boot,
        Span::RunBatch,
        Span::Fork,
        Span::Exit,
        Span::Madvise,
        Span::Ksm,
        Span::Mmap,
        Span::Finish,
        Span::Other,
        Span::Drop,
    ];

    /// Metric name of the span's total time.
    pub fn metric(self) -> &'static str {
        match self {
            Span::Boot => "sim.boot_s",
            Span::RunBatch => "sim.run_batch_s",
            Span::Fork => "sim.fork_s",
            Span::Exit => "sim.exit_s",
            Span::Madvise => "sim.madvise_s",
            Span::Ksm => "sim.ksm_s",
            Span::Mmap => "sim.mmap_s",
            Span::Finish => "sim.finish_s",
            Span::Other => "sim.other_s",
            Span::Drop => "sim.drop_s",
        }
    }
}

/// Where the host time of one traced replay went.
#[derive(Debug, Clone)]
pub struct Breakdown {
    /// Boot to teardown, the same interval an untraced replay times.
    pub wall: Duration,
    /// Time in this driver's record iteration and op decoding, outside
    /// any `System` call.
    pub decode: Duration,
    /// Time inside each `System` entry point, indexed like [`Span::ALL`].
    pub spans: [Duration; Span::ALL.len()],
    /// `run_batch` calls made.
    pub run_batch_calls: u64,
    /// Trace records executed.
    pub records: u64,
    /// The replayed machine's final metrics.
    pub metrics: SimMetrics,
    /// The simulator's own `selfprof` sites as `(site, seconds)`.
    pub selfprof: Vec<(&'static str, f64)>,
}

impl Breakdown {
    pub fn span(&self, s: Span) -> Duration {
        self.spans[s as usize]
    }

    /// Wall time not covered by the decode or any `System` span: loop
    /// bookkeeping, divergence checks and the timers themselves.
    /// `None` if the spans overlap or exceed the wall clock, which
    /// would mean the breakdown is broken.
    pub fn unattributed(&self) -> Option<Duration> {
        let covered = self.decode + self.spans.iter().sum::<Duration>();
        self.wall.checked_sub(covered)
    }

    /// Total seconds of one `selfprof` site (0 when it never ran).
    pub fn selfprof_s(&self, site: &str) -> f64 {
        self.selfprof.iter().find(|(s, _)| *s == site).map_or(0.0, |&(_, secs)| secs)
    }
}

/// Replays `trace` like [`Workload::replay`] but times every call into
/// `System` separately, with the simulator's `selfprof` scopes on.
/// Fails on the same conditions as `replay_checked`: a decode error, a
/// rejected operation, or a pid, address or (for same-scheme replays)
/// Merkle root that differs from the recording.
pub fn traced_replay(w: Workload, trace: &Trace) -> Result<Breakdown, String> {
    selfprof::reset();
    selfprof::enable();
    let result = run(w, trace);
    selfprof::disable();
    let mut b = result?;
    b.selfprof =
        selfprof::report().into_iter().map(|s| (s.site, s.total_ns as f64 * 1e-9)).collect();
    selfprof::reset();
    Ok(b)
}

fn run(w: Workload, trace: &Trace) -> Result<Breakdown, String> {
    let mut spans = [Duration::ZERO; Span::ALL.len()];
    let mut run_batch_calls = 0;
    let mut decode = Duration::ZERO;
    let mut records = 0u64;
    let check_roots = w.checks_roots();

    let start = Instant::now();
    let mut sys = System::new(w.config(w.replay_strategy()));
    let mut t_end = Instant::now();
    spans[Span::Boot as usize] += t_end - start;

    let mut batch = AccessBatch::new();
    let mut pairs: Vec<(u64, VirtAddr)> = Vec::new();
    let mut iter = trace.records();
    loop {
        let t0 = Instant::now();
        let Some(rec) = iter.next() else {
            decode += t0.elapsed();
            break;
        };
        let idx = records;
        records += 1;
        let rec = rec.map_err(|e| format!("record {idx}: {e}"))?;
        // Each arm decodes its inputs, then takes `t1` and makes exactly
        // one `System` call. A value the recording observed comes back
        // as `(what, expected, got)` and is compared after the span.
        let (span, t1, observed) = match rec {
            Record::Batch(b) => {
                batch.clear();
                for op in b.ops() {
                    let op = op.map_err(|e| format!("record {idx}: {e}"))?;
                    let va = VirtAddr::new(op.va);
                    match op.kind {
                        TraceOpKind::Read => batch.push_read(va, op.len as usize),
                        TraceOpKind::Write { data_off } => {
                            let off = data_off as usize;
                            let bytes = b
                                .data
                                .get(off..off + op.len as usize)
                                .ok_or_else(|| format!("record {idx}: payload out of range"))?;
                            batch.push_write(va, bytes);
                        }
                        TraceOpKind::Pattern { tag } => {
                            batch.push_pattern(va, op.len as usize, tag)
                        }
                    }
                }
                let t1 = Instant::now();
                sys.run_batch(b.pid, &batch).map_err(|e| format!("record {idx}: {e}"))?;
                run_batch_calls += 1;
                (Span::RunBatch, t1, None)
            }
            Record::SpawnInit { pid } => {
                let t1 = Instant::now();
                (Span::Other, t1, Some(("spawn_init pid", pid, sys.spawn_init())))
            }
            Record::Mmap { pid, len, page_size, va } => {
                let t1 = Instant::now();
                let got =
                    sys.mmap_with(pid, len, page_size).map_err(|e| format!("record {idx}: {e}"))?;
                (Span::Mmap, t1, Some(("mmap base", va, got.as_u64())))
            }
            Record::Fork { parent, child } => {
                let t1 = Instant::now();
                let got = sys.fork(parent).map_err(|e| format!("record {idx}: {e}"))?;
                (Span::Fork, t1, Some(("fork child pid", child, got)))
            }
            Record::Exit { pid } => {
                let t1 = Instant::now();
                sys.exit(pid).map_err(|e| format!("record {idx}: {e}"))?;
                (Span::Exit, t1, None)
            }
            Record::Munmap { pid, va } => {
                let t1 = Instant::now();
                sys.munmap(pid, VirtAddr::new(va)).map_err(|e| format!("record {idx}: {e}"))?;
                (Span::Other, t1, None)
            }
            Record::MadviseDontneed { pid, va, len } => {
                let t1 = Instant::now();
                sys.madvise_dontneed(pid, VirtAddr::new(va), len)
                    .map_err(|e| format!("record {idx}: {e}"))?;
                (Span::Madvise, t1, None)
            }
            Record::Mprotect { pid, va, writable } => {
                let t1 = Instant::now();
                sys.mprotect(pid, VirtAddr::new(va), writable)
                    .map_err(|e| format!("record {idx}: {e}"))?;
                (Span::Other, t1, None)
            }
            Record::KsmMerge(cands) => {
                pairs.clear();
                for pair in cands {
                    let (pid, va) = pair.map_err(|e| format!("record {idx}: {e}"))?;
                    pairs.push((pid, VirtAddr::new(va)));
                }
                let t1 = Instant::now();
                sys.ksm_merge(&pairs).map_err(|e| format!("record {idx}: {e}"))?;
                (Span::Ksm, t1, None)
            }
            Record::UseCore { core } => {
                if core as usize >= sys.cores() {
                    return Err(format!("record {idx}: core {core} out of range"));
                }
                let t1 = Instant::now();
                sys.use_core(core as usize);
                (Span::Other, t1, None)
            }
            Record::SyncCores => {
                let t1 = Instant::now();
                sys.sync_cores();
                (Span::Other, t1, None)
            }
            Record::Finish => {
                let t1 = Instant::now();
                sys.finish();
                (Span::Finish, t1, None)
            }
            Record::WriteNt { pid, va, data } => {
                let t1 = Instant::now();
                sys.write_bytes_nt(pid, VirtAddr::new(va), data)
                    .map_err(|e| format!("record {idx}: {e}"))?;
                (Span::Other, t1, None)
            }
            Record::CrashRecover => {
                let t1 = Instant::now();
                sys.crash_and_recover().map_err(|e| format!("record {idx}: {e}"))?;
                (Span::Other, t1, None)
            }
            Record::ResetFootprint => {
                let t1 = Instant::now();
                sys.reset_footprint();
                (Span::Other, t1, None)
            }
            Record::MerkleRoot { root } => {
                let t1 = Instant::now();
                let got = sys.merkle_root();
                (Span::Finish, t1, check_roots.then_some(("merkle root", root, got)))
            }
        };
        t_end = Instant::now();
        decode += t1 - t0;
        spans[span as usize] += t_end - t1;
        if let Some((what, expected, got)) = observed {
            if expected != got {
                return Err(format!(
                    "replay diverged at record {idx}: {what} expected {expected:#x}, got {got:#x}"
                ));
            }
        }
    }
    let metrics = sys.metrics();
    let t_drop = Instant::now();
    drop(sys);
    let end = Instant::now();
    spans[Span::Drop as usize] += end - t_drop;
    Ok(Breakdown {
        wall: end - start,
        decode,
        spans,
        run_batch_calls,
        records,
        metrics,
        selfprof: Vec::new(),
    })
}
