//! The [`System`]: one simulated machine.

use crate::batch::{access_ops, write_at, AccessBatch};
use crate::config::SimConfig;
use crate::metrics::{EpochSample, SimMetrics};
use crate::record::TraceRecorder;
use crate::tlb::{Tlb, TlbEntry, TlbOutcome};
use lelantus_cache::CacheHierarchy;
use lelantus_core::SecureMemoryController;
use lelantus_obs::{
    attribute, selfprof, CycleCategory, CycleLedger, Event, EventKind, EventLog, FaultAction,
    FaultSpan, FootprintTracker, HdrHistogram, HeatGrid, HeatLane, HistKind, HistogramSet,
    JsonlSink, LayerRecorder, TailRecorder,
};
use lelantus_os::kernel::{AccessKind, FaultKind, HwAction, Kernel, ProcessId};
use lelantus_os::ksm::{merge_pass, KsmCandidate};
use lelantus_os::OsError;
use lelantus_trace::{TraceOp, TraceOpKind};
use lelantus_types::{Cycles, PageSize, PhysAddr, VirtAddr, LINE_BYTES, REGION_BYTES};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// CPU cores, each with its own clock (paper Table III).
const CORES: usize = 8;

/// A complete simulated machine: kernel + caches + secure controller.
///
/// All methods advance the machine's clock; [`System::metrics`] gives
/// a consistent snapshot at any point. Call [`System::finish`] before
/// final measurements so buffered writes reach the NVM array.
///
/// The whole stack is plain owned data, so `Clone` captures the entire
/// machine state, the recorded views included — that is what
/// [`System::snapshot`] builds on.
#[derive(Debug, Clone)]
pub struct System {
    config: SimConfig,
    kernel: Kernel,
    caches: CacheHierarchy,
    ctrl: SecureMemoryController,
    tlb: Tlb,
    /// Per-core clocks (paper Table III: 8 cores). Work issued on
    /// different cores overlaps in time; the shared memory system
    /// (bank/bus/queue state) arbitrates between them.
    clocks: [Cycles; CORES],
    /// Core issuing the next operations (see [`System::use_core`]).
    active: usize,
    /// Epoch sampler state: the totals of every view at the last epoch
    /// boundary (or crash), the next boundary cycle, and the collected
    /// time series.
    epoch_base: ObsTotals,
    epoch_next: u64,
    epoch_samples: Vec<EpochSample>,
    /// Cycle-attribution ledger (all zero unless `Observe::ledger`).
    /// Invariant when enabled: `ledger.total() == now()` at every
    /// quiescent point.
    ledger: CycleLedger,
    /// Per-fault span recorder (`None` unless `Observe::tail`).
    tail: Option<TailRecorder>,
    /// Trace recorder (`None` unless [`System::record_into`] attached
    /// one). A shared handle: cloned systems append to the same sink.
    /// Off-cost is one branch per state-changing call.
    rec: Option<TraceRecorder>,
}

/// Running totals of every view at one instant — what an epoch sample
/// is the difference of. A view that is off is `None` (or zero) and
/// allocates nothing.
#[derive(Debug, Clone, Default)]
struct ObsTotals {
    metrics: SimMetrics,
    ledger: CycleLedger,
    hists: Option<HistogramSet>,
    tail: Option<HdrHistogram>,
    heat: Option<HeatGrid>,
}

impl ObsTotals {
    /// The interval sample from `base` (an earlier capture of the same
    /// system) to `self`.
    fn sample_since(&self, base: &ObsTotals) -> EpochSample {
        EpochSample {
            end_cycle: self.metrics.cycles,
            delta: self.metrics.delta_since(&base.metrics),
            ledger: self.ledger.delta_since(&base.ledger),
            hists: self.hists.as_ref().zip(base.hists.as_ref()).map(|(h, b)| h.delta_since(b)),
            tail: self
                .tail
                .as_ref()
                .zip(base.tail.as_ref())
                .map(|(t, b)| t.delta_since(b).summary())
                .unwrap_or_default(),
            heat: self
                .heat
                .as_ref()
                .zip(base.heat.as_ref())
                .map(|(g, b)| Box::new(g.delta_since(b))),
        }
    }
}

impl System {
    /// Boots a system from `config`, recording the views
    /// `config.observe` turns on.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent.
    pub fn new(config: SimConfig) -> Self {
        config.validate().expect("invalid sim config");
        let observe = config.observe;
        let layers = LayerRecorder::new(observe.ledger, observe.heat, observe.events);
        let mut sys = Self {
            kernel: Kernel::new(config.kernel),
            caches: CacheHierarchy::new(config.caches),
            ctrl: SecureMemoryController::with_recorder(config.controller.clone(), layers),
            tlb: Tlb::new(config.tlb),
            clocks: [Cycles::ZERO; CORES],
            active: 0,
            epoch_base: ObsTotals::default(),
            epoch_next: observe.epoch_interval,
            epoch_samples: Vec::new(),
            ledger: CycleLedger::default(),
            tail: observe.tail.map(TailRecorder::new),
            rec: None,
            config,
        };
        sys.epoch_base = sys.obs_totals(SimMetrics::default());
        sys
    }

    /// Attaches a [`TraceRecorder`]: every subsequent state-changing
    /// call is appended to the trace, including the pids and addresses
    /// the kernel hands out (so replays can verify they stay on the
    /// recorded trajectory). Recording is host-side only — simulated
    /// time, metrics, events and state are bit-identical to an
    /// unrecorded run.
    pub fn record_into(&mut self, rec: TraceRecorder) {
        self.rec = Some(rec);
    }

    /// Detaches and returns the recorder (call
    /// [`TraceRecorder::finish`] on it to seal the trace).
    pub fn stop_recording(&mut self) -> Option<TraceRecorder> {
        self.rec.take()
    }

    /// The attached recorder, if any.
    pub fn recorder(&self) -> Option<&TraceRecorder> {
        self.rec.as_ref()
    }

    /// Streams every later event to `sink` as one JSONL line, next to
    /// the event ring. Like a [`TraceRecorder`], the sink is a shared
    /// handle: snapshots and forks of this system append to the same
    /// file.
    ///
    /// # Panics
    ///
    /// Panics unless the event view is on (see
    /// [`SimConfig::with_events`]).
    pub fn stream_events_into(&mut self, sink: JsonlSink) {
        self.ctrl
            .recorder_mut()
            .events_mut()
            .expect("streaming events needs the event view (SimConfig::with_events)")
            .stream_into(sink);
    }

    /// The per-fault tail recorder (`None` unless the system was built
    /// with [`SimConfig::with_tail_recorder`]).
    pub fn tail_recorder(&self) -> Option<&TailRecorder> {
        self.tail.as_ref()
    }

    /// The spatial heat grid — fault lanes, controller metadata lanes
    /// and device bank lanes, all recorded into the one layer recorder
    /// — or `None` unless the system was built with
    /// [`SimConfig::with_heatmap`].
    pub fn heatmap(&self) -> Option<HeatGrid> {
        self.ctrl.recorder().heat_grid().cloned()
    }

    /// The per-region line footprints since the last
    /// [`System::reset_footprint`] (Fig 10c/d), or `None` unless the
    /// system was built with [`SimConfig::with_heatmap`].
    pub fn footprint(&self) -> Option<&FootprintTracker> {
        self.ctrl.recorder().footprint()
    }

    /// The events, per-kind counts and histograms recorded so far, or
    /// `None` unless the system was built with
    /// [`SimConfig::with_events`].
    pub fn events(&self) -> Option<&EventLog> {
        self.ctrl.recorder().events()
    }

    /// The epoch time series collected so far (empty unless
    /// `Observe::epoch_interval` is non-zero).
    pub fn epochs(&self) -> &[EpochSample] {
        &self.epoch_samples
    }

    /// Samples the epoch time series when the clock has crossed the
    /// next boundary. At most one sample per call; the boundary then
    /// re-aligns to the cycle grid past the current time.
    fn epoch_tick(&mut self) {
        let interval = self.config.observe.epoch_interval;
        if interval == 0 {
            return;
        }
        let now = self.now().as_u64();
        if now < self.epoch_next {
            return;
        }
        // Epoch boundaries are a metadata flush point: coalesced
        // Merkle maintenance and combined MAC updates land here
        // (host-side only; the snapshot below is unaffected).
        self.ctrl.flush_metadata();
        let snap = self.metrics();
        self.take_epoch_sample(snap);
        self.epoch_next = (now / interval + 1) * interval;
    }

    /// The running totals of every view that is on, with `metrics` as
    /// the metrics snapshot: the one capture both the epoch sampler and
    /// crash recovery baseline against.
    fn obs_totals(&self, metrics: SimMetrics) -> ObsTotals {
        ObsTotals {
            metrics,
            ledger: self.ledger,
            hists: self.events().map(|log| log.histograms().clone()),
            tail: self.tail.as_ref().map(|t| t.histogram().clone()),
            heat: self.heatmap(),
        }
    }

    /// Closes one epoch at `snap`: pushes the interval sample of every
    /// view and moves the baseline to `snap`.
    fn take_epoch_sample(&mut self, snap: SimMetrics) {
        let now = self.obs_totals(snap);
        self.epoch_samples.push(now.sample_since(&self.epoch_base));
        self.epoch_base = now;
    }

    /// Selects the core that issues subsequent operations (0..=7).
    /// Each core has its own clock; use this to model concurrent
    /// processes (e.g. a fork parent and child making progress in
    /// parallel, as on the paper's 8-core system).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn use_core(&mut self, core: usize) {
        assert!(core < self.clocks.len(), "core {core} out of range");
        self.active = core;
        if let Some(rec) = &self.rec {
            rec.use_core(core);
        }
    }

    /// The active core's current time.
    pub fn core_now(&self) -> Cycles {
        self.clocks[self.active]
    }

    /// Number of CPU cores (valid [`System::use_core`] targets are
    /// `0..cores()`).
    pub fn cores(&self) -> usize {
        self.clocks.len()
    }

    /// Synchronizes every core to the latest clock (a barrier — e.g.
    /// `waitpid`, or the start of a measured phase).
    pub fn sync_cores(&mut self) {
        self.sync_cores_inner();
        if let Some(rec) = &self.rec {
            rec.sync_cores();
        }
    }

    /// [`System::sync_cores`] without the trace-recording hook, for
    /// internal barriers ([`System::finish`]) that a replayed trace
    /// already implies.
    fn sync_cores_inner(&mut self) {
        self.clocks = [self.now(); CORES];
    }

    /// The system configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Current simulated time: the furthest-ahead core.
    pub fn now(&self) -> Cycles {
        self.clocks.into_iter().fold(Cycles::ZERO, Cycles::max)
    }

    /// The cycle-attribution ledger. All zero unless the system was
    /// built with [`SimConfig::with_cycle_ledger`]; when enabled,
    /// `cycle_ledger().total() == metrics().cycles` at every quiescent
    /// point (every simulated cycle is charged to exactly one
    /// category).
    pub fn cycle_ledger(&self) -> CycleLedger {
        self.ledger
    }

    /// Advances the active core by `cycles` and charges the portion
    /// that extends the *global* clock (the critical path) to `cat`.
    /// Work overlapped by a further-ahead core charges nothing — only
    /// increases of `now()` are booked, which is what keeps
    /// `ledger.total()` equal to total cycles on multi-core runs.
    #[inline]
    fn bump(&mut self, cat: CycleCategory, cycles: u64) {
        if cycles == 0 {
            return;
        }
        if !self.config.observe.ledger {
            self.clocks[self.active] += Cycles::new(cycles);
            return;
        }
        let before = self.now();
        self.clocks[self.active] += Cycles::new(cycles);
        // Only the active clock moved, and only forward.
        let after = before.max(self.clocks[self.active]);
        self.ledger.charge(cat, (after - before).as_u64());
    }

    /// Advances the active core to at least `done` and attributes the
    /// critical-path extension using the segments the controller and
    /// device recorded for this operation. Cycles no segment covers
    /// are charged to `default`.
    #[inline]
    fn advance_to(&mut self, done: Cycles, default: CycleCategory) {
        if !self.config.observe.ledger {
            self.clocks[self.active] = self.clocks[self.active].max(done);
            return;
        }
        let before = self.now();
        self.clocks[self.active] = self.clocks[self.active].max(done);
        let after = before.max(self.clocks[self.active]);
        let segs = self.ctrl.recorder().segments();
        attribute(before.as_u64(), after.as_u64(), segs, default, &mut self.ledger);
        self.ctrl.recorder_mut().discard_segments();
    }

    /// Drops segments recorded by work whose time the system charges
    /// as a flat cost instead (MMIO doorbells, KSM fingerprint scans,
    /// recovery), so they cannot pollute a later attribution window.
    #[inline]
    fn seg_discard(&mut self) {
        self.ctrl.recorder_mut().discard_segments();
    }

    /// Kernel handle (read-only; all mutation goes through `System`).
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Controller handle (read-only).
    pub fn controller(&self) -> &SecureMemoryController {
        &self.ctrl
    }

    /// The controller's current Merkle root over the counter blocks,
    /// flushing deferred maintenance first (equivalence-test
    /// observability).
    pub fn merkle_root(&mut self) -> u64 {
        let root = self.ctrl.merkle_root();
        // Recorded with its value: root queries flush metadata (state
        // changes), and the stored root doubles as a replay oracle.
        if let Some(rec) = &self.rec {
            rec.merkle_root(root);
        }
        root
    }

    /// Creates the initial process.
    pub fn spawn_init(&mut self) -> ProcessId {
        self.bump(CycleCategory::CpuOp, self.config.op_cost);
        let pid = self.kernel.spawn_init();
        if let Some(rec) = &self.rec {
            rec.spawn_init(pid);
        }
        pid
    }

    /// Maps `len` bytes of anonymous memory using the configured page
    /// size.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn mmap(&mut self, pid: ProcessId, len: u64) -> Result<VirtAddr, OsError> {
        self.mmap_with(pid, len, self.config.page_size)
    }

    /// Maps `len` bytes with an explicit page size.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn mmap_with(
        &mut self,
        pid: ProcessId,
        len: u64,
        page_size: PageSize,
    ) -> Result<VirtAddr, OsError> {
        self.bump(CycleCategory::CpuOp, self.config.op_cost);
        let va = self.kernel.mmap_anon(pid, len, page_size)?;
        if let Some(rec) = &self.rec {
            rec.mmap(pid, len, page_size, va);
        }
        Ok(va)
    }

    /// Forks `parent`, executing the kernel's cache-maintenance
    /// actions (source-page flushes).
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn fork(&mut self, parent: ProcessId) -> Result<ProcessId, OsError> {
        let _prof = selfprof::scope("sim::fork");
        self.bump(CycleCategory::PageFault, self.config.fault_cost);
        let (child, actions) = self.kernel.fork(parent)?;
        // Fork write-protects every anonymous PTE: full TLB shootdown.
        self.tlb.flush_all();
        self.execute_actions(&actions);
        if let Some(log) = self.ctrl.recorder_mut().events_mut() {
            log.emit(Event {
                cycle: self.clocks[self.active],
                kind: EventKind::Fork { parent, child },
            });
        }
        self.epoch_tick();
        if let Some(rec) = &self.rec {
            rec.fork(parent, child);
        }
        Ok(child)
    }

    /// Terminates `pid`, executing release-side actions (early
    /// reclamation, `page_free`).
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn exit(&mut self, pid: ProcessId) -> Result<(), OsError> {
        self.bump(CycleCategory::PageFault, self.config.fault_cost);
        let actions = self.kernel.exit(pid)?;
        self.tlb.invalidate_pid(pid);
        self.execute_actions(&actions);
        self.epoch_tick();
        if let Some(rec) = &self.rec {
            rec.exit(pid);
        }
        Ok(())
    }

    fn execute_actions(&mut self, actions: &[HwAction]) {
        for action in actions {
            let now = self.clocks[self.active];
            match *action {
                // Synchronous work the faulting CPU waits for.
                HwAction::FlushPage { base, bytes } => {
                    let done = self.caches.flush_range(base, bytes, now, &mut self.ctrl);
                    self.advance_to(done, CycleCategory::CacheSram);
                }
                HwAction::InvalidatePage { base, bytes } => {
                    // Invalidation of a freshly allocated frame snoops
                    // mostly-absent lines; charge the directory lookups
                    // actually needed plus a fixed issue cost.
                    let resident = self.caches.invalidate_range(base, bytes);
                    self.bump(CycleCategory::PageFault, 50 + 2 * resident);
                }
                HwAction::CopyPage { src, dst, bytes } => {
                    let done = self.ctrl.copy_page_bulk(src, dst, bytes, now);
                    self.advance_to(done, CycleCategory::BulkCopy);
                }
                HwAction::ZeroPage { base, bytes } => {
                    let done = self.ctrl.zero_page_bulk(base, bytes, now);
                    self.advance_to(done, CycleCategory::BulkCopy);
                }
                // MMIO commands: the CPU pays the fenced register write
                // (paper §III-A) and moves on; the controller retires
                // the command in the background (its bank/queue state
                // keeps the time it finishes, delaying later accesses).
                HwAction::PageInitCmd { dst } => {
                    self.ctrl.cmd_page_init(dst, now);
                    self.seg_discard();
                    self.bump(CycleCategory::MmioCmd, self.config.controller.cmd_latency);
                }
                HwAction::PageCopyCmd { src, dst } => {
                    self.ctrl.cmd_page_copy(src, dst, now);
                    self.seg_discard();
                    self.bump(CycleCategory::MmioCmd, self.config.controller.cmd_latency);
                }
                HwAction::PagePhycCmd { src, dst } => {
                    self.ctrl.cmd_page_phyc(src, dst, now);
                    self.seg_discard();
                    self.bump(CycleCategory::MmioCmd, self.config.controller.cmd_latency);
                }
                HwAction::PageFreeCmd { dst } => {
                    self.ctrl.cmd_page_free(dst, now);
                    self.seg_discard();
                    self.bump(CycleCategory::MmioCmd, self.config.controller.cmd_latency);
                }
            }
        }
    }

    /// Unmaps the whole VMA at `vma_start` (releases pages, shoots down
    /// translations, executes release-side actions).
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn munmap(&mut self, pid: ProcessId, vma_start: VirtAddr) -> Result<(), OsError> {
        self.bump(CycleCategory::PageFault, self.config.fault_cost);
        let actions = self.kernel.munmap(pid, vma_start)?;
        self.tlb.invalidate_pid(pid);
        self.execute_actions(&actions);
        if let Some(rec) = &self.rec {
            rec.munmap(pid, vma_start);
        }
        Ok(())
    }

    /// `madvise(MADV_DONTNEED)`: releases whole pages of the range;
    /// subsequent reads see zeros.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn madvise_dontneed(
        &mut self,
        pid: ProcessId,
        va: VirtAddr,
        len: u64,
    ) -> Result<(), OsError> {
        self.bump(CycleCategory::PageFault, self.config.fault_cost);
        let actions = self.kernel.madvise_dontneed(pid, va, len)?;
        self.tlb.invalidate_pid(pid);
        self.execute_actions(&actions);
        if let Some(rec) = &self.rec {
            rec.madvise_dontneed(pid, va, len);
        }
        Ok(())
    }

    /// `mprotect`: flips the VMA's write permission (PTE-level CoW
    /// protection is preserved).
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn mprotect(
        &mut self,
        pid: ProcessId,
        vma_start: VirtAddr,
        writable: bool,
    ) -> Result<(), OsError> {
        self.bump(CycleCategory::PageFault, self.config.fault_cost);
        self.kernel.mprotect(pid, vma_start, writable)?;
        self.tlb.invalidate_pid(pid);
        if let Some(rec) = &self.rec {
            rec.mprotect(pid, vma_start, writable);
        }
        Ok(())
    }

    /// Translates one access through the TLB, walking and faulting via
    /// the kernel as needed. Returns the physical address and the TLB
    /// entry that served it (on a walk, the one filled from the PTE the
    /// kernel resolved).
    fn translate_timed(
        &mut self,
        pid: ProcessId,
        va: VirtAddr,
        kind: AccessKind,
    ) -> Result<(PhysAddr, TlbEntry), OsError> {
        let outcome = self.tlb.lookup(pid, va);
        if let TlbOutcome::HitL1(e) | TlbOutcome::HitL2(e) = outcome {
            if kind == AccessKind::Read || e.writable {
                let charge = self.tlb.charge(&outcome);
                self.bump(CycleCategory::Translation, charge);
                let offset = va.as_u64() % e.size.bytes();
                return Ok((e.pa_base + offset, e));
            }
            // Permission upgrade needed: the kernel will fault; drop the
            // stale entry now (the CoW break changes the PTE).
            self.tlb.invalidate_page(pid, va);
        } else {
            // Page walk.
            let charge = self.tlb.charge(&outcome);
            self.bump(CycleCategory::Translation, charge);
        }
        let (outcome, pte) = self.kernel.access_pte(pid, va, kind)?;
        if let Some(fault) = &outcome.fault {
            let fault_start = self.clocks[self.active];
            // Ledger prefix at fault entry: the span's breakdown is the
            // ledger growth across the fault (zero unless the cycle
            // ledger is enabled alongside the recorder).
            let tail_ledger_before = self.tail.as_ref().map(|_| self.ledger);
            self.bump(CycleCategory::PageFault, self.config.fault_cost);
            self.tlb.invalidate_page(pid, va);
            self.execute_actions(&outcome.actions);
            if let Some(log) = self.ctrl.recorder_mut().events_mut() {
                let end = self.clocks[self.active];
                let kind = match fault {
                    FaultKind::CowCopy { from_zero, .. } => {
                        EventKind::CowFault { pid, va: va.as_u64(), from_zero: *from_zero }
                    }
                    FaultKind::WpReuse => {
                        EventKind::ReuseFault { pid, va: va.as_u64(), early_reclaim: false }
                    }
                    FaultKind::EarlyReclaim { .. } => {
                        EventKind::ReuseFault { pid, va: va.as_u64(), early_reclaim: true }
                    }
                };
                log.emit(Event { cycle: end, kind });
                log.record(HistKind::FaultServiceCycles, (end - fault_start).as_u64());
            }
            if let Some(h) = self.ctrl.recorder_mut().heat_grid_mut() {
                let action = classify_fault(fault, &outcome.actions);
                // `classify_fault` never yields `ImplicitCopy` here
                // (those spans come from stores), so the index stays
                // inside the five fault lanes.
                h.record(HeatLane::FAULTS[action.index()], outcome.pa.as_u64() / REGION_BYTES);
            }
            if let Some(ledger_before) = tail_ledger_before {
                let end = self.clocks[self.active];
                let span = FaultSpan {
                    start: fault_start.as_u64(),
                    end: end.as_u64(),
                    pid,
                    va: va.as_u64(),
                    pa: outcome.pa.as_u64(),
                    action: classify_fault(fault, &outcome.actions),
                    ledger: self.ledger.delta_since(&ledger_before),
                };
                self.tail.as_mut().expect("prefix captured only when recording").record(span);
            }
        }
        let entry = TlbEntry { pa_base: pte.pa, size: pte.size, writable: pte.writable };
        self.tlb.fill(pid, va, entry);
        Ok((outcome.pa, entry))
    }

    /// Snapshot taken before a store when the tail recorder is on:
    /// `(start cycle, implicit copies so far, ledger prefix)`. `None`
    /// (the usual case) costs one branch.
    #[inline]
    fn tail_store_ctx(&self) -> Option<(Cycles, u64, CycleLedger)> {
        self.tail.as_ref()?;
        Some((self.clocks[self.active], self.ctrl.implicit_copies(), self.ledger))
    }

    /// Records an [`FaultAction::ImplicitCopy`] span if the store that
    /// just completed triggered deferred copies at the controller —
    /// the cost Lelantus moves from fault time to first-write time.
    fn tail_store_span(
        &mut self,
        pid: ProcessId,
        va: VirtAddr,
        pa: PhysAddr,
        ctx: (Cycles, u64, CycleLedger),
    ) {
        let (start, imp_before, ledger_before) = ctx;
        if self.ctrl.implicit_copies() == imp_before {
            return;
        }
        let span = FaultSpan {
            start: start.as_u64(),
            end: self.clocks[self.active].as_u64(),
            pid,
            va: va.as_u64(),
            pa: pa.as_u64(),
            action: FaultAction::ImplicitCopy,
            ledger: self.ledger.delta_since(&ledger_before),
        };
        self.tail.as_mut().expect("ctx captured only when recording").record(span);
    }

    /// Writes `bytes` at `va`: one batched write whose payload arena
    /// is `bytes` itself.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors (unmapped address, OOM...).
    pub fn write_bytes(
        &mut self,
        pid: ProcessId,
        va: VirtAddr,
        bytes: &[u8],
    ) -> Result<(), OsError> {
        self.run_batch_parts(pid, &access_ops(va, bytes.len(), write_at), bytes, None)
    }

    /// Writes `bytes` at `va` with *non-temporal* (streaming) store
    /// semantics: the data bypasses the CPU caches and goes straight
    /// through the secure controller, invalidating any cached copy
    /// (x86 `movnt*`). Partial lines read-modify-write at the
    /// controller.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn write_bytes_nt(
        &mut self,
        pid: ProcessId,
        va: VirtAddr,
        bytes: &[u8],
    ) -> Result<(), OsError> {
        let mut offset = 0usize;
        while offset < bytes.len() {
            let cur = va + offset as u64;
            let room = LINE_BYTES - cur.line_offset();
            let take = room.min(bytes.len() - offset);
            self.bump(CycleCategory::CpuOp, self.config.op_cost);
            let (pa, _) = self.translate_timed(pid, cur, AccessKind::Write)?;
            let tail_ctx = self.tail_store_ctx();
            // Coherence: drop any cached copy of the target line.
            self.caches.invalidate_range(pa.line_align(), LINE_BYTES as u64);
            let line_off = pa.line_offset();
            let mut line = if take == LINE_BYTES {
                [0u8; LINE_BYTES]
            } else {
                let (data, t) = self.ctrl.read_data_line(pa, self.clocks[self.active]);
                self.advance_to(t, CycleCategory::Other);
                data
            };
            line[line_off..line_off + take].copy_from_slice(&bytes[offset..offset + take]);
            let t = self.ctrl.write_data_line(pa, line, self.clocks[self.active]);
            self.advance_to(t, CycleCategory::Other);
            if let Some(ctx) = tail_ctx {
                self.tail_store_span(pid, cur, pa, ctx);
            }
            offset += take;
        }
        self.epoch_tick();
        if let Some(rec) = &self.rec {
            rec.write_nt(pid, va, bytes);
        }
        Ok(())
    }

    /// Reads `len` bytes at `va`: one batched read whose line bytes
    /// the driver collects.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn read_bytes(
        &mut self,
        pid: ProcessId,
        va: VirtAddr,
        len: usize,
    ) -> Result<Vec<u8>, OsError> {
        let mut out = Vec::with_capacity(len);
        let ops = access_ops(va, len, |_| TraceOpKind::Read);
        self.run_batch_parts(pid, &ops, &[], Some(&mut out))?;
        Ok(out)
    }

    /// Convenience: writes `len` bytes of a deterministic pattern
    /// (cheaper than materializing big buffers in workloads): one
    /// batched pattern write.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn write_pattern(
        &mut self,
        pid: ProcessId,
        va: VirtAddr,
        len: usize,
        tag: u8,
    ) -> Result<(), OsError> {
        let ops = access_ops(va, len, |_| TraceOpKind::Pattern { tag });
        self.run_batch_parts(pid, &ops, &[], None)
    }

    /// Executes a queued [`AccessBatch`] in program order.
    ///
    /// The batched driver performs one TLB/translation probe per *run*
    /// of same-page accesses instead of one per line: a one-entry run
    /// cache mirrors the TLB's last-translation front cache, so every
    /// access the front cache would have served is answered from the
    /// run cache without re-entering the translation machinery (counted
    /// via [`Tlb::record_front_hit`], so TLB rates stay honest). Any
    /// access the run cache cannot serve — first touch of a page, or a
    /// write to a page cached read-only (a fault boundary) — splits the
    /// run and takes the full translation path, then resumes batching.
    /// This is the only access driver: `read_bytes`, `write_bytes` and
    /// `write_pattern` are one-op batches, and replay feeds it decoded
    /// trace records.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors (unmapped address, OOM...).
    pub fn run_batch(&mut self, pid: ProcessId, batch: &AccessBatch) -> Result<(), OsError> {
        self.run_batch_parts(pid, &batch.ops, &batch.data, None)
    }

    /// [`System::run_batch`] over borrowed parts: `ops` whose writes
    /// take their payload from `data`, with the bytes every read op
    /// loads appended to `out` when it is given. The per-line calls
    /// pass their own buffers here, and the trace replay loop feeds
    /// ops decoded straight out of a mapped `.ltr` file.
    pub(crate) fn run_batch_parts(
        &mut self,
        pid: ProcessId,
        ops: &[TraceOp],
        data: &[u8],
        mut out: Option<&mut Vec<u8>>,
    ) -> Result<(), OsError> {
        let _prof = selfprof::scope("sim::run_batch");
        // The current run's translation: `(page va base, entry)`.
        // Invariant: when `Some`, it equals the TLB front cache entry
        // (both are "the most recent successful translation"), so
        // serving from it is exactly a front-cache hit. Batches contain
        // no syscalls, so no fork/munmap/exit can invalidate it
        // mid-batch; faults replace it through `translate_timed` just
        // like they replace the front cache.
        let mut run: Option<(u64, TlbEntry)> = None;
        // Scratch line for pattern stores, refilled only on tag change.
        let mut tag_line = [0u8; LINE_BYTES];
        let mut tag_cur = 0u8;
        for op in ops {
            let len = op.len as usize;
            let mut offset = 0usize;
            while offset < len {
                let cur = VirtAddr::new(op.va) + offset as u64;
                let room = LINE_BYTES - cur.line_offset();
                let take = room.min(len - offset);
                // The bytes a write op stores into this line.
                let store: Option<&[u8]> = match op.kind {
                    TraceOpKind::Read => None,
                    TraceOpKind::Write { data_off } => {
                        let start = data_off as usize + offset;
                        Some(&data[start..start + take])
                    }
                    TraceOpKind::Pattern { tag } => {
                        if tag != tag_cur {
                            tag_line = [tag; LINE_BYTES];
                            tag_cur = tag;
                        }
                        Some(&tag_line[..take])
                    }
                };
                let is_write = store.is_some();
                self.bump(CycleCategory::CpuOp, self.config.op_cost);
                let pa = match run {
                    Some((va_base, e))
                        if cur.as_u64().wrapping_sub(va_base) < e.size.bytes()
                            && (!is_write || e.writable) =>
                    {
                        // Front-cache hit (charge 0), answered locally.
                        self.tlb.record_front_hit();
                        e.pa_base + (cur.as_u64() - va_base)
                    }
                    _ => {
                        // Run boundary: first touch, page change, or
                        // write-permission upgrade (fault). Take the
                        // full translation path; the entry it returns
                        // is the page's PTE, so the run needs no walk.
                        let kind = if is_write { AccessKind::Write } else { AccessKind::Read };
                        let (pa, e) = self.translate_timed(pid, cur, kind)?;
                        debug_assert_eq!(
                            Some((e.pa_base, e.size, e.writable)),
                            self.kernel.pte_info(pid, cur),
                            "TLB entry and PTE disagree at {cur:?} (pid {pid})"
                        );
                        run = Some((cur.as_u64() & !(e.size.bytes() - 1), e));
                        pa
                    }
                };
                let now = self.clocks[self.active];
                match store {
                    None => {
                        let (line, done) = self.caches.load_line(pa, now, &mut self.ctrl);
                        self.advance_to(done, CycleCategory::CacheSram);
                        if let Some(out) = out.as_deref_mut() {
                            let at = cur.line_offset();
                            out.extend_from_slice(&line[at..at + take]);
                        }
                    }
                    Some(bytes) => {
                        let tail_ctx = self.tail_store_ctx();
                        let done = self.caches.store(pa, bytes, now, &mut self.ctrl);
                        self.advance_to(done, CycleCategory::CacheSram);
                        if let Some(ctx) = tail_ctx {
                            self.tail_store_span(pid, cur, pa, ctx);
                        }
                    }
                }
                self.epoch_tick();
                offset += take;
            }
        }
        if let Some(rec) = &self.rec {
            rec.batch(pid, ops, data);
        }
        Ok(())
    }

    /// Runs one KSM merge pass over page candidates, fingerprinting
    /// real page contents through the secure datapath (the scan itself
    /// is memory traffic, as in a real kernel thread).
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn ksm_merge(&mut self, candidates: &[(ProcessId, VirtAddr)]) -> Result<usize, OsError> {
        let _prof = selfprof::scope("sim::ksm_merge");
        let cands: Vec<KsmCandidate> =
            candidates.iter().map(|(pid, va)| KsmCandidate { pid: *pid, va: *va }).collect();
        let page_bytes = self.config.page_size.bytes();
        let ctrl = &mut self.ctrl;
        let report = merge_pass(&mut self.kernel, &cands, |pa: PhysAddr| {
            let mut h = DefaultHasher::new();
            let mut off = 0;
            while off < page_bytes.min(4096) {
                ctrl.peek_plaintext(pa + off).hash(&mut h);
                off += LINE_BYTES as u64;
            }
            h.finish()
        })?;
        // The fingerprint scan reads plaintext at `Cycles::ZERO`
        // (untimed peek); drop its segments before the timed actions.
        self.seg_discard();
        self.execute_actions(&report.actions);
        // Merging rewrites PTEs across processes: full shootdown.
        self.tlb.flush_all();
        self.bump(CycleCategory::PageFault, self.config.fault_cost);
        if let Some(rec) = &self.rec {
            rec.ksm_merge(candidates);
        }
        Ok(report.merged)
    }

    /// Simulates a power failure and recovery of the *memory system*:
    /// CPU caches and TLB vanish (dirty lines not yet written back are
    /// lost, as on real hardware), the controller recovers per
    /// [`SecureMemoryController::crash_and_recover`], and execution
    /// resumes with the same process image (an instant-restart model
    /// for persistent-memory applications).
    ///
    /// # Errors
    ///
    /// Propagates an integrity failure if NVM was tampered with while
    /// powered down.
    ///
    /// [`SecureMemoryController::crash_and_recover`]:
    /// lelantus_core::SecureMemoryController::crash_and_recover
    pub fn crash_and_recover(
        &mut self,
    ) -> Result<lelantus_core::controller::RecoveryReport, lelantus_crypto::TamperError> {
        let _prof = selfprof::scope("sim::crash_and_recover");
        self.caches.clear_all();
        self.tlb.flush_all();
        // Power-up costs: charge a fixed reboot window per verified
        // region (sequential counter scan at row-hit speed).
        let report = self.ctrl.crash_and_recover()?;
        self.seg_discard();
        self.bump(CycleCategory::Recovery, report.regions_verified * 15 + 10_000);
        // Volatile metadata caches restarted from zero, so interval
        // deltas across the crash would underflow; re-baseline every
        // view of the epoch sampler at the recovery point (the
        // crash-spanning window is dropped from the series).
        self.epoch_base = self.obs_totals(self.metrics());
        if let Some(rec) = &self.rec {
            rec.crash_recover();
        }
        Ok(report)
    }

    /// Clears the per-region line footprints so a measured phase
    /// starts from a clean slate (Fig 10c/d; a no-op unless the
    /// heatmap is on).
    pub fn reset_footprint(&mut self) {
        self.ctrl.recorder_mut().reset_footprint();
        if let Some(rec) = &self.rec {
            rec.reset_footprint();
        }
    }

    /// Metrics snapshot (does not flush buffered writes; see
    /// [`System::finish`]).
    pub fn metrics(&self) -> SimMetrics {
        SimMetrics {
            cycles: self.now(),
            nvm: self.ctrl.nvm_stats(),
            controller: self.ctrl.stats(),
            kernel: self.kernel.stats(),
            caches: self.caches.stats(),
            counter_cache: self.ctrl.counter_cache_stats(),
            cow_cache: self.ctrl.cow_cache_stats(),
            tlb: self.tlb.stats(),
        }
    }

    /// Flushes CPU caches and controller buffers to the NVM array and
    /// returns final metrics. The system remains usable (caches warm).
    pub fn finish(&mut self) -> SimMetrics {
        let _prof = selfprof::scope("sim::finish");
        // One `Finish` trace record stands for this whole sequence
        // (replay calls `finish()` itself), so the internal barriers
        // use the unrecorded variant.
        if let Some(rec) = &self.rec {
            rec.finish_event();
        }
        self.sync_cores_inner();
        let now = self.now();
        let t = self.caches.writeback_all(now, &mut self.ctrl);
        self.advance_to(t, CycleCategory::CacheSram);
        let t = self.ctrl.flush_all(self.clocks[self.active]);
        self.advance_to(t, CycleCategory::Other);
        self.sync_cores_inner();
        let m = self.metrics();
        // Close the trailing partial epoch so the series sums to the
        // run's totals.
        let interval = self.config.observe.epoch_interval;
        if let Some(intervals) = m.cycles.as_u64().checked_div(interval) {
            if m.delta_since(&self.epoch_base.metrics) != SimMetrics::default() {
                self.take_epoch_sample(m);
            }
            self.epoch_next = (intervals + 1) * interval;
        }
        m
    }

    /// Captures the complete machine state — kernel, caches,
    /// controller, TLB, per-core clocks, epoch sampler — as an
    /// immutable snapshot that any number of runs can later be forked
    /// from (see [`Snapshot::fork`]).
    ///
    /// Sweeps that share an expensive warm-up (e.g. the Fig 11
    /// fork-size sweep) take one snapshot after the warm-up and fork
    /// every sweep point from it instead of replaying the warm-up per
    /// point.
    ///
    /// Snapshotting while a [`TraceRecorder`] is attached is
    /// unsupported: the recorder is a shared handle, so the snapshot
    /// and the live system would interleave records in one sink. Stop
    /// recording first.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot { state: self.clone() }
    }

    /// Rewinds this system to `snapshot`'s state. Equivalent to
    /// replacing it with [`Snapshot::fork`]; exists for callers that
    /// hold the `System` in place.
    pub fn restore(&mut self, snapshot: &Snapshot) {
        *self = snapshot.state.clone();
    }
}

/// Maps a kernel fault and the hardware actions it produced onto the
/// scheme-action taxonomy the tail recorder reports: a CoW fault
/// resolved through an MMIO copy/phyc command is Lelantus's lazy path,
/// one resolved by data movement alone is an eager copy, and a
/// zero-source fault is a demand-zero allocation.
fn classify_fault(fault: &FaultKind, actions: &[HwAction]) -> FaultAction {
    match fault {
        FaultKind::CowCopy { from_zero: true, .. } => FaultAction::DemandZero,
        FaultKind::CowCopy { .. } => {
            let lazy = actions
                .iter()
                .any(|a| matches!(a, HwAction::PageCopyCmd { .. } | HwAction::PagePhycCmd { .. }));
            if lazy {
                FaultAction::LazyCow
            } else {
                FaultAction::EagerCopy
            }
        }
        FaultKind::WpReuse => FaultAction::Reuse,
        FaultKind::EarlyReclaim { .. } => FaultAction::EarlyReclaim,
    }
}

/// A captured [`System`] state, forkable into independent runs.
///
/// A snapshot is `Send + Sync` with any view on, so one warm snapshot
/// can be shared by reference across worker threads, each forking its
/// own private machine.
///
/// # Examples
///
/// ```
/// use lelantus_sim::{SimConfig, System};
/// use lelantus_os::CowStrategy;
/// use lelantus_types::PageSize;
///
/// let mut sys = System::new(SimConfig::new(CowStrategy::Lelantus, PageSize::Regular4K));
/// let pid = sys.spawn_init();
/// let va = sys.mmap(pid, 4096)?;
/// sys.write_bytes(pid, va, &[7])?;
/// let snap = sys.snapshot();
/// let mut fork = snap.fork();
/// fork.write_bytes(pid, va, &[8])?; // diverges privately
/// assert_eq!(sys.read_bytes(pid, va, 1)?, vec![7]);
/// # Ok::<(), lelantus_os::OsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Snapshot {
    state: System,
}

impl Snapshot {
    /// A fresh, fully independent `System` starting from the captured
    /// state, recorded views included: each fork starts with the
    /// snapshot's events, ledger, tail spans and heat and records its
    /// own from then on. Only attached file sinks (a JSONL event
    /// stream, a trace recorder) stay shared handles.
    pub fn fork(&self) -> System {
        self.state.clone()
    }
}

// The sweep runners hand one snapshot to many worker threads; the
// whole stack, every view included, must stay free of thread-unsafe
// interior mutability for that to be sound. Compile-time proof:
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<System>();
    assert_send_sync::<Snapshot>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use lelantus_os::CowStrategy;

    fn sys(strategy: CowStrategy, page: PageSize) -> System {
        System::new(SimConfig::new(strategy, page).with_phys_bytes(64 << 20))
    }

    #[test]
    fn write_read_roundtrip() {
        for strategy in CowStrategy::all() {
            let mut s = sys(strategy, PageSize::Regular4K);
            let pid = s.spawn_init();
            let va = s.mmap(pid, 16 << 10).unwrap();
            let data: Vec<u8> = (0..200).collect();
            s.write_bytes(pid, va + 100, &data).unwrap();
            assert_eq!(s.read_bytes(pid, va + 100, 200).unwrap(), data, "{strategy}");
            // Untouched memory reads zero.
            assert_eq!(s.read_bytes(pid, va + 8192, 8).unwrap(), vec![0; 8], "{strategy}");
        }
    }

    #[test]
    fn fork_preserves_child_view_under_all_schemes() {
        for strategy in CowStrategy::all() {
            for page in PageSize::all() {
                let mut s = sys(strategy, page);
                let pid = s.spawn_init();
                let va = s.mmap(pid, page.bytes()).unwrap();
                s.write_bytes(pid, va, b"before-fork").unwrap();
                let child = s.fork(pid).unwrap();
                s.write_bytes(pid, va, b"parent-mod!").unwrap();
                assert_eq!(
                    s.read_bytes(child, va, 11).unwrap(),
                    b"before-fork",
                    "{strategy} {page}"
                );
                assert_eq!(s.read_bytes(pid, va, 11).unwrap(), b"parent-mod!");
            }
        }
    }

    #[test]
    fn lelantus_forks_are_much_cheaper_on_first_write() {
        let run = |strategy: CowStrategy| {
            let mut s = sys(strategy, PageSize::Huge2M);
            let pid = s.spawn_init();
            let va = s.mmap(pid, 2 << 20).unwrap();
            s.write_pattern(pid, va, 2 << 20, 7).unwrap();
            let _child = s.fork(pid).unwrap();
            let before = s.now();
            s.write_bytes(pid, va, &[1]).unwrap(); // first write post-fork
            s.now() - before
        };
        let base = run(CowStrategy::Baseline);
        let lel = run(CowStrategy::Lelantus);
        assert!(
            base.as_u64() > lel.as_u64() * 20,
            "baseline {base} vs lelantus {lel}: huge-page CoW break must dominate"
        );
    }

    #[test]
    fn lelantus_reduces_nvm_writes() {
        let run = |strategy: CowStrategy| {
            let mut s = sys(strategy, PageSize::Regular4K);
            let pid = s.spawn_init();
            let va = s.mmap(pid, 64 << 10).unwrap();
            for p in 0..16u64 {
                s.write_pattern(pid, va + p * 4096, 4096, 3).unwrap();
            }
            let child = s.fork(pid).unwrap();
            // Child updates one line per page.
            for p in 0..16u64 {
                s.write_bytes(child, va + p * 4096, &[9]).unwrap();
            }
            s.finish().nvm.line_writes
        };
        let base = run(CowStrategy::Baseline);
        let lel = run(CowStrategy::Lelantus);
        assert!(lel * 2 < base, "lelantus writes ({lel}) must be well under baseline ({base})");
    }

    #[test]
    fn exit_releases_and_reclaims() {
        let mut s = sys(CowStrategy::Lelantus, PageSize::Regular4K);
        let pid = s.spawn_init();
        let va = s.mmap(pid, 8192).unwrap();
        s.write_bytes(pid, va, &[1, 2, 3]).unwrap();
        let child = s.fork(pid).unwrap();
        s.write_bytes(child, va, &[4]).unwrap(); // child gets lazy copy
        s.exit(pid).unwrap(); // dying source must materialize the copy
        assert_eq!(s.read_bytes(child, va, 3).unwrap(), vec![4, 2, 3]);
        assert_eq!(s.read_bytes(child, va + 64, 1).unwrap(), vec![0]);
        s.exit(child).unwrap();
        assert!(s.kernel().live_pids().is_empty());
    }

    #[test]
    fn ksm_merges_identical_pages() {
        let mut s = sys(CowStrategy::Lelantus, PageSize::Regular4K);
        let pid = s.spawn_init();
        let va = s.mmap(pid, 4 * 4096).unwrap();
        for p in 0..4u64 {
            s.write_pattern(pid, va + p * 4096, 4096, 0xCC).unwrap();
        }
        let cands: Vec<_> = (0..4u64).map(|p| (pid, va + p * 4096)).collect();
        let merged = s.ksm_merge(&cands).unwrap();
        assert_eq!(merged, 3, "three duplicates fold into the first page");
        // Contents unchanged, and writes CoW-split again.
        assert_eq!(s.read_bytes(pid, va + 2 * 4096, 4).unwrap(), vec![0xCC; 4]);
        s.write_bytes(pid, va + 2 * 4096, &[1]).unwrap();
        assert_eq!(s.read_bytes(pid, va + 3 * 4096, 1).unwrap(), vec![0xCC]);
    }

    #[test]
    fn metrics_snapshot_and_finish() {
        let mut s = sys(CowStrategy::Baseline, PageSize::Regular4K);
        let pid = s.spawn_init();
        let va = s.mmap(pid, 4096).unwrap();
        s.write_bytes(pid, va, &[5; 64]).unwrap();
        let before = s.metrics();
        let after = s.finish();
        assert!(after.nvm.line_writes >= before.nvm.line_writes);
        assert!(after.cycles >= before.cycles);
        assert_eq!(after.kernel.cow_faults, 1);
    }

    /// `finish` leaves the caches warm; a line rewritten after its first
    /// fill must still read back fresh once `finish` cleaned it and
    /// later traffic evicted it from L1 and L2 (regression: the L3 copy
    /// from the first fill used to answer).
    #[test]
    fn reads_after_finish_and_eviction_see_the_written_back_data() {
        let mut cfg =
            SimConfig::new(CowStrategy::Baseline, PageSize::Regular4K).with_phys_bytes(64 << 20);
        cfg.caches = lelantus_cache::HierarchyConfig::tiny();
        let mut s = System::new(cfg);
        let pid = s.spawn_init();
        let va = s.mmap(pid, 3 * 4096).unwrap();
        let sweep = |s: &mut System, page: u64| {
            for line in 0..64u64 {
                s.read_bytes(pid, va + page * 4096 + line * 64, 1).unwrap();
            }
        };
        s.write_bytes(pid, va, &[1]).unwrap();
        sweep(&mut s, 1);
        s.write_bytes(pid, va, &[2]).unwrap();
        s.finish();
        sweep(&mut s, 2);
        assert_eq!(s.read_bytes(pid, va, 1).unwrap(), vec![2]);
    }

    #[test]
    fn read_bytes_across_lines_and_pages_matches_byte_reads() {
        let mut s = sys(CowStrategy::Lelantus, PageSize::Regular4K);
        let pid = s.spawn_init();
        let va = s.mmap(pid, 2 * 4096).unwrap();
        let data: Vec<u8> = (0..2 * 4096).map(|i| (i * 7 % 251) as u8).collect();
        s.write_bytes(pid, va, &data).unwrap();
        let start = va + (4096 - 100);
        let read = s.read_bytes(pid, start, 300).unwrap();
        let bytewise: Vec<u8> =
            (0..300).map(|i| s.read_bytes(pid, start + i, 1).unwrap()[0]).collect();
        assert_eq!(read, bytewise);
        assert_eq!(read, data[4096 - 100..4096 + 200]);
    }

    #[test]
    fn a_read_into_an_unmapped_page_fails_and_records_nothing() {
        let mut s = sys(CowStrategy::Lelantus, PageSize::Regular4K);
        let path = std::env::temp_dir()
            .join(format!("lelantus-sim-unmapped-read-{}.ltr", std::process::id()));
        let header = lelantus_trace::TraceHeader {
            page_size: PageSize::Regular4K,
            phys_bytes: s.config().kernel.phys_bytes,
        };
        let rec = TraceRecorder::create(&path, header).unwrap();
        s.record_into(rec.clone());
        let pid = s.spawn_init();
        let va = s.mmap(pid, 4096).unwrap();
        let before = rec.totals();
        assert!(s.read_bytes(pid, va + 4000, 200).is_err());
        assert_eq!(rec.totals(), before, "a failed read leaves no record");
        s.stop_recording();
        drop(rec);
        let _ = std::fs::remove_file(&path);
    }
}

#[cfg(test)]
mod tlb_integration_tests {
    use super::*;
    use lelantus_os::CowStrategy;

    fn sys(page: PageSize) -> System {
        System::new(SimConfig::new(CowStrategy::Lelantus, page).with_phys_bytes(64 << 20))
    }

    #[test]
    fn tlb_hits_after_first_touch() {
        let mut s = sys(PageSize::Regular4K);
        let pid = s.spawn_init();
        let va = s.mmap(pid, 4096).unwrap();
        s.read_bytes(pid, va, 1).unwrap(); // walk + fill
        let before = s.metrics().tlb;
        s.read_bytes(pid, va + 128, 1).unwrap();
        s.read_bytes(pid, va + 256, 1).unwrap();
        let after = s.metrics().tlb;
        assert_eq!(after.walks, before.walks, "same page: no more walks");
        assert!(after.l1_hits > before.l1_hits);
    }

    #[test]
    fn huge_pages_need_far_fewer_walks() {
        let walks = |page: PageSize| {
            let mut s = sys(page);
            let pid = s.spawn_init();
            let va = s.mmap(pid, 4 << 20).unwrap();
            s.write_pattern(pid, va, 4 << 20, 1).unwrap();
            // Sweep reads over the 4 MB area.
            for off in (0..(4u64 << 20)).step_by(4096) {
                s.read_bytes(pid, va + off, 1).unwrap();
            }
            s.metrics().tlb.walks
        };
        let w4k = walks(PageSize::Regular4K);
        let w2m = walks(PageSize::Huge2M);
        assert!(w2m * 10 < w4k, "2MB mappings must slash TLB walks: {w2m} vs {w4k}");
    }

    #[test]
    fn cow_break_invalidates_stale_translation() {
        let mut s = sys(PageSize::Regular4K);
        let pid = s.spawn_init();
        let va = s.mmap(pid, 4096).unwrap();
        s.write_bytes(pid, va, &[1]).unwrap();
        let child = s.fork(pid).unwrap();
        // Warm the child's read translation of the shared page.
        assert_eq!(s.read_bytes(child, va, 1).unwrap(), vec![1]);
        // Parent CoW-breaks; the child's data must stay at the old
        // frame and the parent's at the new one — through the TLB.
        s.write_bytes(pid, va, &[9]).unwrap();
        assert_eq!(s.read_bytes(pid, va, 1).unwrap(), vec![9]);
        assert_eq!(s.read_bytes(child, va, 1).unwrap(), vec![1]);
        assert!(s.metrics().tlb.shootdowns > 0);
    }

    #[test]
    fn exit_clears_pid_entries() {
        let mut s = sys(PageSize::Regular4K);
        let pid = s.spawn_init();
        let va = s.mmap(pid, 4096).unwrap();
        s.write_bytes(pid, va, &[1]).unwrap();
        s.exit(pid).unwrap();
        // A new process reusing the same VA range must not alias the
        // dead process's frames.
        let pid2 = s.spawn_init();
        let va2 = s.mmap(pid2, 4096).unwrap();
        assert_eq!(s.read_bytes(pid2, va2, 1).unwrap(), vec![0]);
    }
}

#[cfg(test)]
mod syscall_integration_tests {
    use super::*;
    use lelantus_os::CowStrategy;

    #[test]
    fn munmap_and_remap_cycle() {
        let mut s = System::new(
            SimConfig::new(CowStrategy::Lelantus, PageSize::Regular4K).with_phys_bytes(64 << 20),
        );
        let pid = s.spawn_init();
        for round in 0..8u8 {
            let va = s.mmap(pid, 64 << 10).unwrap();
            s.write_pattern(pid, va, 64 << 10, round).unwrap();
            assert_eq!(s.read_bytes(pid, va, 1).unwrap(), vec![round]);
            s.munmap(pid, va).unwrap();
            assert!(s.read_bytes(pid, va, 1).is_err(), "unmapped");
        }
    }

    #[test]
    fn madvise_dontneed_zeroes_through_full_stack() {
        let mut s = System::new(
            SimConfig::new(CowStrategy::LelantusCow, PageSize::Regular4K).with_phys_bytes(64 << 20),
        );
        let pid = s.spawn_init();
        let va = s.mmap(pid, 8192).unwrap();
        s.write_bytes(pid, va, &[7; 64]).unwrap();
        s.write_bytes(pid, va + 4096, &[8; 64]).unwrap();
        s.madvise_dontneed(pid, va, 4096).unwrap();
        assert_eq!(s.read_bytes(pid, va, 8).unwrap(), vec![0; 8], "advised page zeroed");
        assert_eq!(s.read_bytes(pid, va + 4096, 8).unwrap(), vec![8; 8], "other page intact");
        // Writable again via demand-zero.
        s.write_bytes(pid, va, b"again").unwrap();
        assert_eq!(s.read_bytes(pid, va, 5).unwrap(), b"again".to_vec());
    }

    #[test]
    fn mprotect_blocks_writes_via_tlb_too() {
        let mut s = System::new(
            SimConfig::new(CowStrategy::Baseline, PageSize::Regular4K).with_phys_bytes(64 << 20),
        );
        let pid = s.spawn_init();
        let va = s.mmap(pid, 4096).unwrap();
        s.write_bytes(pid, va, &[1]).unwrap(); // warms a writable TLB entry
        s.mprotect(pid, va, false).unwrap();
        assert!(s.write_bytes(pid, va, &[2]).is_err(), "stale TLB entry must not leak access");
        assert_eq!(s.read_bytes(pid, va, 1).unwrap(), vec![1]);
        s.mprotect(pid, va, true).unwrap();
        s.write_bytes(pid, va, &[3]).unwrap();
        assert_eq!(s.read_bytes(pid, va, 1).unwrap(), vec![3]);
    }
}

#[cfg(test)]
mod multicore_tests {
    use super::*;
    use lelantus_os::CowStrategy;

    fn sys() -> System {
        System::new(
            SimConfig::new(CowStrategy::Baseline, PageSize::Regular4K).with_phys_bytes(64 << 20),
        )
    }

    #[test]
    fn cores_advance_independently() {
        let mut s = sys();
        let pid = s.spawn_init();
        let va = s.mmap(pid, 64 << 10).unwrap();
        s.write_pattern(pid, va, 64 << 10, 1).unwrap();
        s.sync_cores();
        let t0 = s.core_now();
        // Core 0 does lots of work; core 1 does none.
        s.use_core(0);
        for off in (0..(64u64 << 10)).step_by(64) {
            s.read_bytes(pid, va + off, 8).unwrap();
        }
        let busy = s.core_now() - t0;
        s.use_core(1);
        assert_eq!(s.core_now() - t0, Cycles::ZERO, "idle core stands still");
        assert!(busy > Cycles::new(1000));
        s.sync_cores();
        assert_eq!(s.core_now() - t0, busy, "barrier catches the idle core up");
    }

    #[test]
    fn parallel_work_overlaps_in_time() {
        // The same total work split across two cores finishes in less
        // simulated time than on one core.
        let run = |cores: usize| {
            let mut s = sys();
            let pid = s.spawn_init();
            let va = s.mmap(pid, 128 << 10).unwrap();
            s.write_pattern(pid, va, 128 << 10, 1).unwrap();
            s.finish();
            let t0 = s.now();
            let half = 64u64 << 10;
            for (i, base) in [va, va + half].iter().enumerate() {
                s.use_core(if cores == 2 { i } else { 0 });
                for off in (0..half).step_by(64) {
                    s.read_bytes(pid, *base + off, 8).unwrap();
                }
            }
            s.sync_cores();
            (s.now() - t0).as_u64()
        };
        let one = run(1);
        let two = run(2);
        assert!((two as f64) < one as f64 * 0.75, "two cores must overlap: {two} vs {one}");
    }

    #[test]
    fn memory_contention_couples_the_cores() {
        // Two cores hammering the same bank make less than 2x progress.
        let mut s = sys();
        let pid = s.spawn_init();
        let va = s.mmap(pid, 4096).unwrap();
        s.write_bytes(pid, va, &[1]).unwrap();
        s.finish();
        let t0 = s.now();
        // Both cores stream uncached lines from the same small region
        // (flush between rounds to defeat the caches).
        for round in 0..4u64 {
            for core in 0..2usize {
                s.use_core(core);
                s.write_bytes_nt(pid, va + (round % 64) * 64, &[round as u8; 64]).unwrap();
            }
        }
        s.sync_cores();
        assert!(s.now() > t0, "work happened");
    }
}
