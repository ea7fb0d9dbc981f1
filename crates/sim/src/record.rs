//! Trace recording: a shared sink capturing every state-changing call
//! a [`System`] serves into a `.ltr` file.
//!
//! Attach with [`System::record_into`]; every subsequent mutating
//! call — batched runs, per-line accesses (one-op batches, since the
//! per-line calls run through the batch driver), syscalls, KSM passes,
//! core switches, flush points — appends one record, including the
//! *results* of allocation decisions (pids, mmap bases, fork
//! children) so [`crate::replay`] can prove a replay stayed on the
//! recorded trajectory. Detach with [`System::stop_recording`], then
//! call [`TraceRecorder::finish`] to seal the footer.
//!
//! The recorder is a shared handle (clones of a recording `System`
//! write to the same sink, like a JSONL event stream), so
//! snapshot/restore while recording is unsupported: stop recording
//! first.
//!
//! When recording is off the cost is one `Option` branch per call;
//! I/O errors during recording are latched and reported by
//! [`TraceRecorder::finish`] instead of disturbing the simulation.
//!
//! [`System`]: crate::System
//! [`System::record_into`]: crate::System::record_into
//! [`System::stop_recording`]: crate::System::stop_recording

use lelantus_os::kernel::ProcessId;
use lelantus_trace::{TraceHeader, TraceOp, TraceTotals, TraceWriter};
use lelantus_types::{PageSize, VirtAddr};
use std::fs::File;
use std::io::{self, BufWriter};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// A cloneable handle on one trace file being written.
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    inner: Arc<Mutex<RecState>>,
}

#[derive(Debug)]
struct RecState {
    /// `None` once finished (or after a latched error drops the sink).
    writer: Option<TraceWriter<BufWriter<File>>>,
    /// First I/O error encountered, reported by `finish`.
    err: Option<io::Error>,
}

impl TraceRecorder {
    /// Creates `path` and writes the trace header for `header`'s
    /// geometry.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create(path: impl AsRef<Path>, header: TraceHeader) -> io::Result<Self> {
        let writer = TraceWriter::create(path, header)?;
        Ok(Self { inner: Arc::new(Mutex::new(RecState { writer: Some(writer), err: None })) })
    }

    /// Runs `f` against the live writer, latching the first error.
    fn with(&self, f: impl FnOnce(&mut TraceWriter<BufWriter<File>>) -> io::Result<()>) {
        let mut state = self.inner.lock().expect("recorder lock");
        if state.err.is_some() {
            return;
        }
        if let Some(w) = state.writer.as_mut() {
            if let Err(e) = f(w) {
                state.err = Some(e);
                state.writer = None;
            }
        }
    }

    /// Seals the trace: writes the footer, flushes, and returns the
    /// totals. Idempotent error reporting: any I/O error latched
    /// during recording (or during sealing) surfaces here.
    ///
    /// # Errors
    ///
    /// The first write error of the recording session, if any.
    pub fn finish(&self) -> io::Result<TraceTotals> {
        let mut state = self.inner.lock().expect("recorder lock");
        if let Some(e) = state.err.take() {
            return Err(e);
        }
        match state.writer.take() {
            Some(w) => w.finish(),
            None => Err(io::Error::other("trace already finished")),
        }
    }

    /// Totals recorded so far (zero after `finish`).
    pub fn totals(&self) -> TraceTotals {
        let state = self.inner.lock().expect("recorder lock");
        state.writer.as_ref().map(|w| w.totals()).unwrap_or_default()
    }

    pub(crate) fn batch(&self, pid: ProcessId, ops: &[TraceOp], data: &[u8]) {
        if ops.is_empty() {
            return; // an empty batch has no observable effect
        }
        self.with(|w| w.batch(pid, data, ops.iter().copied()));
    }

    pub(crate) fn spawn_init(&self, pid: ProcessId) {
        self.with(|w| w.spawn_init(pid));
    }

    pub(crate) fn mmap(&self, pid: ProcessId, len: u64, page_size: PageSize, va: VirtAddr) {
        self.with(|w| w.mmap(pid, len, page_size, va.as_u64()));
    }

    pub(crate) fn fork(&self, parent: ProcessId, child: ProcessId) {
        self.with(|w| w.fork(parent, child));
    }

    pub(crate) fn exit(&self, pid: ProcessId) {
        self.with(|w| w.exit(pid));
    }

    pub(crate) fn munmap(&self, pid: ProcessId, va: VirtAddr) {
        self.with(|w| w.munmap(pid, va.as_u64()));
    }

    pub(crate) fn madvise_dontneed(&self, pid: ProcessId, va: VirtAddr, len: u64) {
        self.with(|w| w.madvise_dontneed(pid, va.as_u64(), len));
    }

    pub(crate) fn mprotect(&self, pid: ProcessId, va: VirtAddr, writable: bool) {
        self.with(|w| w.mprotect(pid, va.as_u64(), writable));
    }

    pub(crate) fn ksm_merge(&self, candidates: &[(ProcessId, VirtAddr)]) {
        self.with(|w| w.ksm_merge(candidates.iter().map(|&(pid, va)| (pid, va.as_u64()))));
    }

    pub(crate) fn use_core(&self, core: usize) {
        self.with(|w| w.use_core(core as u8));
    }

    pub(crate) fn sync_cores(&self) {
        self.with(|w| w.sync_cores());
    }

    pub(crate) fn finish_event(&self) {
        self.with(|w| w.finish_event());
    }

    pub(crate) fn write_nt(&self, pid: ProcessId, va: VirtAddr, data: &[u8]) {
        self.with(|w| w.write_nt(pid, va.as_u64(), data));
    }

    pub(crate) fn crash_recover(&self) {
        self.with(|w| w.crash_recover());
    }

    pub(crate) fn reset_footprint(&self) {
        self.with(|w| w.reset_footprint());
    }

    pub(crate) fn merkle_root(&self, root: u64) {
        self.with(|w| w.merkle_root(root));
    }
}
