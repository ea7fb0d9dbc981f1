//! The kernel façade: processes, `mmap`, `fork`, faults, `exit`.
//!
//! This is the software half of the paper's hardware/software
//! co-design. The kernel never touches simulated memory directly;
//! every hardware-visible consequence of a decision is emitted as a
//! [`HwAction`] for the full-system simulator to execute, so switching
//! [`CowStrategy`] swaps the entire CoW regime:
//!
//! * **Baseline** — CoW faults emit whole-page copies, first-touch
//!   faults emit whole-page zeroing (default Linux).
//! * **Silent Shredder** — first-touch zeroing becomes a cheap
//!   `page_init` command; copies stay full-cost.
//! * **Lelantus / Lelantus-CoW** — CoW and first-touch faults emit
//!   per-region `page_copy` commands; early reclamation (paper §III-D,
//!   Figure 8) and recursive chains (§III-E) are handled here with
//!   rmap walks and `page_phyc`/`page_free` commands.

use crate::config::{CowStrategy, KernelConfig};
use crate::error::OsError;
use crate::frame_alloc::BuddyAllocator;
use crate::page_registry::PageRegistry;
use crate::page_table::{PageTable, Pte};
use crate::rmap::RmapRegistry;
use crate::vma::Vma;
use lelantus_types::{PageSize, PhysAddr, VirtAddr, REGION_BYTES};
use std::collections::BTreeMap;
use std::collections::HashMap;

/// Process identifier.
pub type ProcessId = u64;

/// A memory access, as issued by the simulated CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// A hardware-visible action the kernel requests; executed (and
/// charged for) by the full-system simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HwAction {
    /// Write back and invalidate all cached lines of a physical range
    /// (`clflush` loop over a source page before write-protecting it).
    FlushPage {
        /// Page base.
        base: PhysAddr,
        /// Page length.
        bytes: u64,
    },
    /// Invalidate (without write-back) all cached lines of a physical
    /// range — run on a CoW destination so stale lines cannot mask the
    /// redirected reads (paper §IV-B).
    InvalidatePage {
        /// Page base.
        base: PhysAddr,
        /// Page length.
        bytes: u64,
    },
    /// Baseline whole-page copy through the memory controller
    /// (non-temporal, bypassing the CPU caches — paper §II-D).
    CopyPage {
        /// Source page base.
        src: PhysAddr,
        /// Destination page base.
        dst: PhysAddr,
        /// Page length.
        bytes: u64,
    },
    /// Baseline whole-page zeroing (the kernel's `memset` on first
    /// touch), also non-temporal.
    ZeroPage {
        /// Page base.
        base: PhysAddr,
        /// Page length.
        bytes: u64,
    },
    /// Silent Shredder `page_init`: mark every line of the region as
    /// all-zero in counter state, with no data writes.
    PageInitCmd {
        /// 4 KB region base.
        dst: PhysAddr,
    },
    /// Lelantus `page_copy`: record in the destination region's
    /// security metadata that it is a lazy copy of `src`.
    PageCopyCmd {
        /// Source 4 KB region base.
        src: PhysAddr,
        /// Destination 4 KB region base.
        dst: PhysAddr,
    },
    /// Lelantus `page_phyc`: physically materialize the still-uncopied
    /// lines of `dst` if (and only if) its metadata still records
    /// `src` as the source (re-check in the controller, §III-D).
    PagePhycCmd {
        /// Expected source 4 KB region base.
        src: PhysAddr,
        /// Destination 4 KB region base.
        dst: PhysAddr,
    },
    /// Lelantus `page_free`: drop any CoW metadata of `dst`; pending
    /// lazy copies are abandoned.
    PageFreeCmd {
        /// 4 KB region base.
        dst: PhysAddr,
    },
}

/// Why an access faulted into the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// CoW break: a new private page was instantiated.
    CowCopy {
        /// Old (shared or zero) page.
        src: PhysAddr,
        /// Freshly allocated private page.
        dst: PhysAddr,
        /// Page granularity.
        size: PageSize,
        /// The source was the zero page (demand-zero allocation).
        from_zero: bool,
    },
    /// Sole owner regained write access (`wp_page_reuse`).
    WpReuse,
    /// Lelantus: deferred reuse ran early reclamation before
    /// unprotecting (paper Figure 8).
    EarlyReclaim {
        /// Number of candidate copied pages sent `page_phyc`.
        dependents: usize,
    },
}

/// Result of [`Kernel::access`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Physical address to use for the access (post-fault).
    pub pa: PhysAddr,
    /// Fault taken, if any.
    pub fault: Option<FaultKind>,
    /// Hardware actions the simulator must perform *before* the access.
    pub actions: Vec<HwAction>,
}

/// Kernel event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// CoW copy faults (including demand-zero).
    pub cow_faults: u64,
    /// Demand-zero subset of `cow_faults`.
    pub zero_faults: u64,
    /// `wp_page_reuse` faults.
    pub reuse_faults: u64,
    /// Early-reclamation walks performed.
    pub early_reclaims: u64,
    /// `page_phyc` commands issued.
    pub phyc_cmds: u64,
    /// Forks performed.
    pub forks: u64,
    /// Pages allocated (any size).
    pub pages_allocated: u64,
    /// Pages freed.
    pub pages_freed: u64,
}

impl KernelStats {
    /// Interval counters: `self - earlier` field by field.
    pub fn delta_since(&self, earlier: &KernelStats) -> KernelStats {
        KernelStats {
            cow_faults: self.cow_faults - earlier.cow_faults,
            zero_faults: self.zero_faults - earlier.zero_faults,
            reuse_faults: self.reuse_faults - earlier.reuse_faults,
            early_reclaims: self.early_reclaims - earlier.early_reclaims,
            phyc_cmds: self.phyc_cmds - earlier.phyc_cmds,
            forks: self.forks - earlier.forks,
            pages_allocated: self.pages_allocated - earlier.pages_allocated,
            pages_freed: self.pages_freed - earlier.pages_freed,
        }
    }
}

#[derive(Debug, Clone)]
struct Process {
    page_table: PageTable,
    vmas: BTreeMap<u64, Vma>,
}

/// The simulated kernel.
///
/// See the crate docs for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Kernel {
    config: KernelConfig,
    buddy: BuddyAllocator,
    pages: PageRegistry,
    rmap: RmapRegistry,
    processes: HashMap<ProcessId, Process>,
    next_pid: ProcessId,
    next_mmap: u64,
    zero_page_4k: PhysAddr,
    zero_page_2m: PhysAddr,
    stats: KernelStats,
}

impl Kernel {
    /// Boots a kernel: reserves the zero pages and initializes the
    /// frame allocator over the remaining physical memory.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid.
    pub fn new(config: KernelConfig) -> Self {
        config.validate().expect("invalid kernel config");
        // Zero pages live at the bottom of the data area: one 2 MB huge
        // zero page (which also serves 4 KB faults via its first region).
        let zero_page_2m = PhysAddr::new(0);
        let zero_page_4k = PhysAddr::new(0);
        let reserved = 2 << 20;
        let buddy = BuddyAllocator::new(reserved, config.phys_bytes - reserved);
        let mut pages = PageRegistry::new();
        pages.insert(zero_page_2m, PageSize::Huge2M, None);
        // Kernel's own permanent reference keeps the zero page alive.
        pages.inc_map(zero_page_2m);
        Self {
            config,
            buddy,
            pages,
            rmap: RmapRegistry::new(),
            processes: HashMap::new(),
            next_pid: 1,
            next_mmap: config.mmap_base,
            zero_page_4k,
            zero_page_2m,
            stats: KernelStats::default(),
        }
    }

    /// The kernel configuration.
    pub fn config(&self) -> &KernelConfig {
        &self.config
    }

    /// Event counters.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// The 4 KB zero page's physical base.
    pub fn zero_page_4k(&self) -> PhysAddr {
        self.zero_page_4k
    }

    /// The 2 MB huge zero page's physical base.
    pub fn zero_page_2m(&self) -> PhysAddr {
        self.zero_page_2m
    }

    fn is_zero_page(&self, pa: PhysAddr) -> bool {
        pa == self.zero_page_4k || pa == self.zero_page_2m
    }

    /// Creates the first process.
    pub fn spawn_init(&mut self) -> ProcessId {
        let pid = self.next_pid;
        self.next_pid += 1;
        self.processes.insert(pid, Process { page_table: PageTable::new(), vmas: BTreeMap::new() });
        pid
    }

    /// Live process ids, sorted.
    pub fn live_pids(&self) -> Vec<ProcessId> {
        let mut v: Vec<_> = self.processes.keys().copied().collect();
        v.sort_unstable();
        v
    }

    fn process(&self, pid: ProcessId) -> Result<&Process, OsError> {
        self.processes.get(&pid).ok_or(OsError::NoSuchProcess(pid))
    }

    fn process_mut(&mut self, pid: ProcessId) -> Result<&mut Process, OsError> {
        self.processes.get_mut(&pid).ok_or(OsError::NoSuchProcess(pid))
    }

    /// The VMA containing `va`, found by predecessor lookup (VMAs are
    /// disjoint, so the candidate is the one with the greatest start
    /// `<= va`).
    fn vma_containing(vmas: &BTreeMap<u64, Vma>, va: VirtAddr) -> Option<&Vma> {
        let (_, vma) = vmas.range(..=va.as_u64()).next_back()?;
        vma.contains(va).then_some(vma)
    }

    /// Maps `len` bytes of anonymous memory in `pid` at a fresh virtual
    /// address, backed lazily by the zero page. Returns the base.
    ///
    /// # Errors
    ///
    /// Fails if the process does not exist, `len` is zero, or the
    /// page-rounded mapping does not fit in the address space.
    pub fn mmap_anon(
        &mut self,
        pid: ProcessId,
        len: u64,
        page_size: PageSize,
    ) -> Result<VirtAddr, OsError> {
        if len == 0 {
            return Err(OsError::BadMapping("zero-length mmap".into()));
        }
        self.process(pid)?;
        let overflow =
            || OsError::BadMapping(format!("mmap of {len} bytes overflows the address space"));
        let page_bytes = page_size.bytes();
        let len = len.div_ceil(page_bytes).checked_mul(page_bytes).ok_or_else(overflow)?;
        // Reserve VA space with a guard gap, always huge-aligned.
        let next_mmap = len
            .div_ceil(2 << 20)
            .checked_mul(2 << 20)
            .and_then(|reserved| reserved.checked_add(2 << 20))
            .and_then(|reserved| self.next_mmap.checked_add(reserved))
            .ok_or_else(overflow)?;
        let base = VirtAddr::new(self.next_mmap);
        self.next_mmap = next_mmap;
        let av = self.rmap.create();
        self.rmap.link(av, pid, base);
        let vma = Vma { start: base, end: base + len, page_size, writable: true, anon_vma: av };
        let zero = match page_size {
            PageSize::Regular4K => self.zero_page_4k,
            PageSize::Huge2M => self.zero_page_2m,
        };
        {
            let proc = self.processes.get_mut(&pid).expect("checked above");
            proc.vmas.insert(base.as_u64(), vma);
            let mut va = base;
            while va < vma.end {
                proc.page_table.map(va, Pte { pa: zero, size: page_size, writable: false });
                va += page_bytes;
            }
        }
        self.pages.inc_map_by(self.zero_page_2m, vma.pages() as usize);
        Ok(base)
    }

    /// Forks `parent`: the child shares every anonymous page
    /// copy-on-write. Returns the child pid and the cache-maintenance
    /// actions (source pages are flushed before being write-protected,
    /// paper §IV-B).
    ///
    /// The parent's PTEs are streamed in place — no intermediate
    /// `Vec<(VirtAddr, Pte)>` snapshot. After write-protecting every
    /// non-zero mapping during the walk, the parent's table *is* the
    /// child's desired table (zero-page PTEs are non-writable by
    /// invariant), so the child is built with one bulk clone.
    ///
    /// # Errors
    ///
    /// Fails if the parent does not exist.
    pub fn fork(&mut self, parent: ProcessId) -> Result<(ProcessId, Vec<HwAction>), OsError> {
        // Take the parent out of the process table so its page table
        // can be walked mutably while the page registry updates.
        let mut parent_proc =
            self.processes.remove(&parent).ok_or(OsError::NoSuchProcess(parent))?;
        let child = self.next_pid;
        self.next_pid += 1;
        self.stats.forks += 1;

        let mut actions = Vec::new();
        let (zero_4k, zero_2m) = (self.zero_page_4k, self.zero_page_2m);
        let pages = &mut self.pages;
        parent_proc.page_table.for_each_mut(|_, pte| {
            let is_zero = pte.pa == zero_4k || pte.pa == zero_2m;
            pages.inc_map(if is_zero { zero_2m } else { pte.pa });
            if is_zero {
                debug_assert!(!pte.writable, "zero-page PTEs are never writable");
            } else {
                let info = pages.get_mut(pte.pa).expect("mapped page registered");
                if !info.cow_protected {
                    info.cow_protected = true;
                    // Dirty cached lines must reach NVM before lazy
                    // copies can read the page from memory.
                    actions.push(HwAction::FlushPage { base: pte.pa, bytes: pte.size.bytes() });
                }
                info.reuse_deferred = false;
                // Write-protect the parent's PTE in place.
                pte.writable = false;
            }
        });
        let child_proc = parent_proc.clone();
        for vma in parent_proc.vmas.values() {
            self.rmap.link(vma.anon_vma, child, vma.start);
        }
        self.processes.insert(parent, parent_proc);
        self.processes.insert(child, child_proc);
        Ok((child, actions))
    }

    /// Translates `va` in `pid` without faulting (diagnostics).
    pub fn translate(&self, pid: ProcessId, va: VirtAddr) -> Option<PhysAddr> {
        self.processes.get(&pid)?.page_table.translate(va).map(|t| t.pa)
    }

    /// Full PTE view for `va` (page base physical address, size,
    /// writability) — what a hardware page walk returns to the TLB.
    pub fn pte_info(&self, pid: ProcessId, va: VirtAddr) -> Option<(PhysAddr, PageSize, bool)> {
        let t = self.processes.get(&pid)?.page_table.translate(va)?;
        Some((t.pte.pa, t.pte.size, t.pte.writable))
    }

    /// Performs the kernel side of one memory access: translation plus
    /// any fault handling. The returned actions must be executed by the
    /// simulator *before* the access itself.
    ///
    /// # Errors
    ///
    /// Fails on unknown process, unmapped address, a write to a
    /// read-only VMA, or memory exhaustion.
    pub fn access(
        &mut self,
        pid: ProcessId,
        va: VirtAddr,
        kind: AccessKind,
    ) -> Result<AccessOutcome, OsError> {
        self.access_pte(pid, va, kind).map(|(outcome, _)| outcome)
    }

    /// [`Kernel::access`], also returning the PTE that maps the access
    /// as it stands after any fault: what the hardware walk hands the
    /// TLB, so the caller need not walk the table again.
    ///
    /// # Errors
    ///
    /// As [`Kernel::access`].
    pub fn access_pte(
        &mut self,
        pid: ProcessId,
        va: VirtAddr,
        kind: AccessKind,
    ) -> Result<(AccessOutcome, Pte), OsError> {
        let translation = self
            .process(pid)?
            .page_table
            .translate(va)
            .ok_or(OsError::UnmappedAddress { pid, va })?;
        if kind == AccessKind::Read || translation.pte.writable {
            let outcome = AccessOutcome { pa: translation.pa, fault: None, actions: Vec::new() };
            return Ok((outcome, translation.pte));
        }
        // Write fault.
        let vma = *Self::vma_containing(&self.process(pid)?.vmas, va)
            .ok_or(OsError::UnmappedAddress { pid, va })?;
        if !vma.writable {
            return Err(OsError::AccessViolation { pid, va });
        }
        let old_pa = translation.pte.pa;
        let va_base = translation.va_base;
        let size = translation.pte.size;
        let offset = va - va_base;

        let map_count = if self.is_zero_page(old_pa) {
            usize::MAX // the zero page is always shared
        } else {
            self.pages.get(old_pa).expect("mapped page registered").map_count
        };

        if map_count > 1 {
            let (new_pa, actions, fault) = self.cow_copy(pid, &vma, va_base, old_pa, size)?;
            let outcome = AccessOutcome { pa: new_pa + offset, fault: Some(fault), actions };
            Ok((outcome, Pte { pa: new_pa, size, writable: true }))
        } else {
            // Sole owner: wp_page_reuse, possibly with early reclamation.
            let actions = self.wp_reuse(pid, &vma, va_base, old_pa);
            let fault = if actions.iter().any(|a| matches!(a, HwAction::PagePhycCmd { .. })) {
                let dependents =
                    actions.iter().filter(|a| matches!(a, HwAction::PagePhycCmd { .. })).count()
                        / size.regions().max(1);
                FaultKind::EarlyReclaim { dependents }
            } else {
                FaultKind::WpReuse
            };
            let outcome = AccessOutcome { pa: translation.pa, fault: Some(fault), actions };
            Ok((outcome, Pte { writable: true, ..translation.pte }))
        }
    }

    /// Handles a CoW break: allocate a private page and emit the
    /// strategy's copy/init actions.
    fn cow_copy(
        &mut self,
        pid: ProcessId,
        vma: &Vma,
        va_base: VirtAddr,
        old_pa: PhysAddr,
        size: PageSize,
    ) -> Result<(PhysAddr, Vec<HwAction>, FaultKind), OsError> {
        let order = BuddyAllocator::order_for_bytes(size.bytes());
        let new_pa = self.buddy.alloc(order).ok_or(OsError::OutOfMemory)?;
        self.pages.insert(new_pa, size, Some(vma.anon_vma));
        self.pages.inc_map(new_pa);
        self.stats.pages_allocated += 1;
        self.stats.cow_faults += 1;

        let from_zero = self.is_zero_page(old_pa);
        if from_zero {
            self.stats.zero_faults += 1;
        }

        let mut actions = Vec::new();
        // Stale lines of the recycled frame must never be observed.
        actions.push(HwAction::InvalidatePage { base: new_pa, bytes: size.bytes() });
        match (self.config.strategy, from_zero) {
            (CowStrategy::Baseline, true) => {
                actions.push(HwAction::ZeroPage { base: new_pa, bytes: size.bytes() });
            }
            (CowStrategy::Baseline, false) => {
                actions.push(HwAction::CopyPage { src: old_pa, dst: new_pa, bytes: size.bytes() });
            }
            (CowStrategy::SilentShredder, true) => {
                for r in 0..size.regions() {
                    actions.push(HwAction::PageInitCmd { dst: new_pa + (r as u64) * REGION_BYTES });
                }
            }
            (CowStrategy::SilentShredder, false) => {
                actions.push(HwAction::CopyPage { src: old_pa, dst: new_pa, bytes: size.bytes() });
            }
            (CowStrategy::Lelantus | CowStrategy::LelantusCow, _) => {
                // The huge-page copy becomes a set of per-region
                // commands (paper §IV-C). A zero source maps every
                // destination region onto the zero page's regions.
                for r in 0..size.regions() {
                    let src_region = old_pa + (r as u64) * REGION_BYTES;
                    actions.push(HwAction::PageCopyCmd {
                        src: src_region,
                        dst: new_pa + (r as u64) * REGION_BYTES,
                    });
                }
            }
        }

        // Re-point the PTE and fix counts.
        self.processes
            .get_mut(&pid)
            .expect("checked")
            .page_table
            .map(va_base, Pte { pa: new_pa, size, writable: true });
        if self.is_zero_page(old_pa) {
            self.pages.dec_map(self.zero_page_2m);
        } else {
            let remaining = self.pages.dec_map(old_pa);
            if remaining == 1 && self.config.strategy.is_lelantus() {
                // Pause wp_page_reuse / page_move_anon_rmap (Figure 8).
                self.pages.get_mut(old_pa).expect("page").reuse_deferred = true;
            }
        }
        Ok((new_pa, actions, FaultKind::CowCopy { src: old_pa, dst: new_pa, size, from_zero }))
    }

    /// `wp_page_reuse` on the sole owner, running Lelantus early
    /// reclamation first when it was deferred.
    fn wp_reuse(
        &mut self,
        pid: ProcessId,
        vma: &Vma,
        va_base: VirtAddr,
        pa: PhysAddr,
    ) -> Vec<HwAction> {
        self.stats.reuse_faults += 1;
        let mut actions = Vec::new();
        let deferred = self
            .pages
            .get(pa)
            .map(|i| i.reuse_deferred || (i.cow_protected && self.config.strategy.is_lelantus()))
            .unwrap_or(false);
        if deferred {
            actions = self.early_reclaim(pid, vma, va_base, pa);
        }
        if let Some(info) = self.pages.get_mut(pa) {
            info.cow_protected = false;
            info.reuse_deferred = false;
        }
        self.processes.get_mut(&pid).expect("checked").page_table.set_writable(va_base, true);
        actions
    }

    /// Walks the anon_vma chain to find copied pages whose lazy copies
    /// must be materialized before `pa` is written or freed
    /// (paper §III-D, Figure 7). Emits one `page_phyc` per region per
    /// candidate.
    fn early_reclaim(
        &mut self,
        pid: ProcessId,
        vma: &Vma,
        va_base: VirtAddr,
        pa: PhysAddr,
    ) -> Vec<HwAction> {
        self.stats.early_reclaims += 1;
        let mut actions = Vec::new();
        let page_offset = va_base - vma.start;
        let size = self.pages.get(pa).map(|i| i.size).unwrap_or(PageSize::Regular4K);
        // Cursor walk: the chain is not mutated inside the loop, and
        // the cursor is a plain value, so no snapshot `Vec` is needed.
        let mut cur = self.rmap.cursor(vma.anon_vma);
        while let Some(link) = self.rmap.link_at(cur) {
            cur = self.rmap.advance(cur);
            if link.pid == pid && link.vma_start == vma.start {
                continue;
            }
            let Some(proc) = self.processes.get(&link.pid) else { continue };
            let candidate_va = link.vma_start + page_offset;
            let Some(t) = proc.page_table.translate(candidate_va) else { continue };
            if t.pte.pa == pa || self.is_zero_page(t.pte.pa) {
                continue;
            }
            // Possible copied page: the controller re-checks whether its
            // metadata still names `pa` before doing the physical copy.
            for r in 0..size.regions() {
                let delta = (r as u64) * REGION_BYTES;
                actions.push(HwAction::PagePhycCmd { src: pa + delta, dst: t.pte.pa + delta });
                self.stats.phyc_cmds += 1;
            }
        }
        actions
    }

    /// Unmaps one page mapping and releases the page if this was the
    /// last reference. Returns actions (early reclamation and
    /// `page_free` under Lelantus).
    fn put_page(
        &mut self,
        pid: ProcessId,
        vma: &Vma,
        va_base: VirtAddr,
        pa: PhysAddr,
    ) -> Vec<HwAction> {
        if self.is_zero_page(pa) {
            self.pages.dec_map(self.zero_page_2m);
            return Vec::new();
        }
        let mut actions = Vec::new();
        let remaining = self.pages.dec_map(pa);
        if remaining == 0 {
            let (size, cow_protected) = {
                let info = self.pages.get(pa).expect("page exists");
                (info.size, info.cow_protected)
            };
            // A dying write-protected source may still feed lazy copies:
            // materialize them first (paper §III-D "before releasing").
            if cow_protected && self.config.strategy.is_lelantus() {
                let mut reclaim = self.early_reclaim(pid, vma, va_base, pa);
                actions.append(&mut reclaim);
            }
            if self.config.strategy.is_lelantus() {
                // Abandon any pending copies *into* this page.
                for r in 0..size.regions() {
                    actions.push(HwAction::PageFreeCmd { dst: pa + (r as u64) * REGION_BYTES });
                }
            }
            let order = BuddyAllocator::order_for_bytes(size.bytes());
            self.pages.remove(pa);
            self.buddy.free(pa, order);
            self.stats.pages_freed += 1;
        } else if remaining == 1 && self.config.strategy.is_lelantus() {
            self.pages.get_mut(pa).expect("page").reuse_deferred = true;
        }
        actions
    }

    /// Unmaps the whole VMA starting at `vma_start`, releasing every
    /// page it maps. Returns release-side hardware actions.
    ///
    /// # Errors
    ///
    /// Fails if the process or mapping does not exist.
    pub fn munmap(
        &mut self,
        pid: ProcessId,
        vma_start: VirtAddr,
    ) -> Result<Vec<HwAction>, OsError> {
        let proc = self.processes.get_mut(&pid).ok_or(OsError::NoSuchProcess(pid))?;
        let vma = proc
            .vmas
            .remove(&vma_start.as_u64())
            .ok_or(OsError::UnmappedAddress { pid, va: vma_start })?;
        let mut mappings = Vec::new();
        let mut va = vma.start;
        while va < vma.end {
            if let Some(pte) = proc.page_table.unmap(va) {
                mappings.push((va, pte.pa));
            }
            va += vma.page_size.bytes();
        }
        let mut actions = Vec::new();
        for (va, pa) in mappings {
            actions.extend(self.put_page(pid, &vma, va, pa));
        }
        self.rmap.unlink(vma.anon_vma, pid, vma.start);
        if self.rmap.link_count(vma.anon_vma) == 0 {
            self.rmap.destroy(vma.anon_vma);
        }
        Ok(actions)
    }

    /// `madvise(MADV_DONTNEED)` over whole pages of `[va, va+len)`:
    /// the pages are released and the range reads as zeros afterwards
    /// (remapped to the zero page, CoW-on-next-write).
    ///
    /// # Errors
    ///
    /// Fails if the range is not covered by a single VMA.
    pub fn madvise_dontneed(
        &mut self,
        pid: ProcessId,
        va: VirtAddr,
        len: u64,
    ) -> Result<Vec<HwAction>, OsError> {
        let vma = *Self::vma_containing(&self.process(pid)?.vmas, va)
            .ok_or(OsError::UnmappedAddress { pid, va })?;
        if va + len > vma.end || !va.is_aligned_to(vma.page_size.bytes()) {
            return Err(OsError::BadMapping(
                "madvise range must be page-aligned in one VMA".into(),
            ));
        }
        let zero = match vma.page_size {
            PageSize::Regular4K => self.zero_page_4k,
            PageSize::Huge2M => self.zero_page_2m,
        };
        let mut actions = Vec::new();
        let mut cur = va;
        while cur < va + len {
            let (old_pa, size) = {
                let proc = self.process(pid)?;
                let t = proc.page_table.translate(cur).expect("VMA-covered page is mapped");
                (t.pte.pa, t.pte.size)
            };
            if old_pa != zero {
                self.processes
                    .get_mut(&pid)
                    .expect("checked")
                    .page_table
                    .map(cur, Pte { pa: zero, size, writable: false });
                self.pages.inc_map(self.zero_page_2m);
                actions.extend(self.put_page(pid, &vma, cur, old_pa));
            }
            cur += vma.page_size.bytes();
        }
        Ok(actions)
    }

    /// `mprotect`: sets the VMA-level write permission. Revoking write
    /// access write-protects every PTE; restoring it re-enables writes
    /// only on privately-owned pages (shared pages stay CoW-protected
    /// and fault on write as usual).
    ///
    /// # Errors
    ///
    /// Fails if the VMA does not exist.
    pub fn mprotect(
        &mut self,
        pid: ProcessId,
        vma_start: VirtAddr,
        writable: bool,
    ) -> Result<(), OsError> {
        let vma = {
            let proc = self.processes.get_mut(&pid).ok_or(OsError::NoSuchProcess(pid))?;
            let vma = proc
                .vmas
                .get_mut(&vma_start.as_u64())
                .ok_or(OsError::UnmappedAddress { pid, va: vma_start })?;
            vma.writable = writable;
            *vma
        };
        // Walk only the VMA's PTE range, in place — no whole-table
        // collect, no per-page re-lookup.
        let mut proc = self.processes.remove(&pid).expect("checked above");
        let (zero_4k, zero_2m) = (self.zero_page_4k, self.zero_page_2m);
        let pages = &self.pages;
        proc.page_table.for_each_mut_in(vma.start, vma.end, |_, pte| {
            pte.writable = writable
                && !(pte.pa == zero_4k || pte.pa == zero_2m)
                && pages.get(pte.pa).map(|i| i.map_count == 1 && !i.cow_protected).unwrap_or(false);
        });
        self.processes.insert(pid, proc);
        Ok(())
    }

    /// Terminates `pid`, releasing every mapping. Returns the hardware
    /// actions accumulated by page releases.
    ///
    /// # Errors
    ///
    /// Fails if the process does not exist.
    pub fn exit(&mut self, pid: ProcessId) -> Result<Vec<HwAction>, OsError> {
        let proc = self.processes.remove(&pid).ok_or(OsError::NoSuchProcess(pid))?;
        let mut actions = Vec::new();
        for vma in proc.vmas.values() {
            // Range walk instead of per-page translate probes: every
            // VMA page is always mapped, so the covered PTEs are
            // exactly the VMA's pages, in the same ascending order.
            for (va, pte) in proc.page_table.range(vma.start, vma.end) {
                actions.extend(self.put_page(pid, vma, va, pte.pa));
            }
            self.rmap.unlink(vma.anon_vma, pid, vma.start);
            if self.rmap.link_count(vma.anon_vma) == 0 {
                self.rmap.destroy(vma.anon_vma);
            }
        }
        Ok(actions)
    }

    /// Physical bytes currently free.
    pub fn free_bytes(&self) -> u64 {
        self.buddy.free_bytes()
    }

    /// Kernel view of a page's map count (diagnostics).
    pub fn map_count(&self, pa: PhysAddr) -> Option<usize> {
        self.pages.get(pa).map(|i| i.map_count)
    }

    /// KSM support: remap `pid`'s page at `va_base` to `target` as a
    /// write-protected shared mapping, releasing the old page. Both
    /// pages must be the same size; the caller guarantees identical
    /// content. Returns release actions.
    ///
    /// # Errors
    ///
    /// Fails on unknown process/mapping.
    pub fn ksm_remap(
        &mut self,
        pid: ProcessId,
        va: VirtAddr,
        target: PhysAddr,
    ) -> Result<Vec<HwAction>, OsError> {
        let (va_base, pte, vma) = {
            let proc = self.process(pid)?;
            let t = proc.page_table.translate(va).ok_or(OsError::UnmappedAddress { pid, va })?;
            let vma = *Self::vma_containing(&proc.vmas, va)
                .ok_or(OsError::UnmappedAddress { pid, va })?;
            (t.va_base, t.pte, vma)
        };
        if pte.pa == target {
            // Already merged; just ensure write protection.
            self.process_mut(pid)?.page_table.set_writable(va_base, false);
            return Ok(Vec::new());
        }
        self.pages.inc_map(target);
        {
            let info = self.pages.get_mut(target).expect("target registered");
            info.cow_protected = true;
            info.reuse_deferred = false;
        }
        self.process_mut(pid)?
            .page_table
            .map(va_base, Pte { pa: target, size: pte.size, writable: false });
        let actions = self.put_page(pid, &vma, va_base, pte.pa);
        Ok(actions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel(strategy: CowStrategy) -> Kernel {
        Kernel::new(KernelConfig { phys_bytes: 64 << 20, ..KernelConfig::default_with(strategy) })
    }

    #[test]
    fn mmap_maps_to_zero_page() {
        let mut k = kernel(CowStrategy::Baseline);
        let pid = k.spawn_init();
        let va = k.mmap_anon(pid, 16 << 10, PageSize::Regular4K).unwrap();
        let pa = k.translate(pid, va + 4096).unwrap();
        assert_eq!(pa, k.zero_page_4k() + 4096 % 4096);
        // Reads never fault.
        let out = k.access(pid, va, AccessKind::Read).unwrap();
        assert!(out.fault.is_none());
        assert!(out.actions.is_empty());
    }

    #[test]
    fn mmap_length_overflow_is_a_bad_mapping() {
        let mut k = kernel(CowStrategy::Baseline);
        let pid = k.spawn_init();
        // Page rounding overflows for both page sizes.
        for size in PageSize::all() {
            let err = k.mmap_anon(pid, u64::MAX, size).unwrap_err();
            assert!(matches!(err, OsError::BadMapping(_)), "{size}: got {err:?}");
        }
        // The length rounds fine, but the VA reservation past it does not.
        let err = k.mmap_anon(pid, u64::MAX - (4 << 20), PageSize::Regular4K).unwrap_err();
        assert!(matches!(err, OsError::BadMapping(_)), "got {err:?}");
        // The failed calls reserved nothing: the kernel still maps.
        let va = k.mmap_anon(pid, 4096, PageSize::Regular4K).unwrap();
        assert!(k.translate(pid, va).is_some());
    }

    #[test]
    fn first_write_is_demand_zero_fault_baseline() {
        let mut k = kernel(CowStrategy::Baseline);
        let pid = k.spawn_init();
        let va = k.mmap_anon(pid, 4096, PageSize::Regular4K).unwrap();
        let out = k.access(pid, va + 8, AccessKind::Write).unwrap();
        match out.fault {
            Some(FaultKind::CowCopy { from_zero: true, dst, .. }) => {
                assert_eq!(out.pa, dst + 8);
            }
            other => panic!("expected demand-zero fault, got {other:?}"),
        }
        assert!(out.actions.iter().any(|a| matches!(a, HwAction::ZeroPage { .. })));
        // Second write: no fault.
        let out2 = k.access(pid, va + 16, AccessKind::Write).unwrap();
        assert!(out2.fault.is_none());
    }

    #[test]
    fn access_pte_is_the_pte_after_the_fault() {
        let mut k = kernel(CowStrategy::Lelantus);
        let parent = k.spawn_init();
        let va = k.mmap_anon(parent, 2 << 20, PageSize::Huge2M).unwrap();
        let info = |k: &Kernel, pid, pte: Pte| {
            assert_eq!(k.pte_info(pid, va), Some((pte.pa, pte.size, pte.writable)));
        };
        // Read of the zero page, demand-zero CoW break, no-fault write.
        let (_, pte) = k.access_pte(parent, va, AccessKind::Read).unwrap();
        info(&k, parent, pte);
        assert!(!pte.writable);
        for _ in 0..2 {
            let (_, pte) = k.access_pte(parent, va + 64, AccessKind::Write).unwrap();
            info(&k, parent, pte);
        }
        // After a fork: a CoW copy in the child, then reuse in the parent.
        let (child, _) = k.fork(parent).unwrap();
        let (out, pte) = k.access_pte(child, va, AccessKind::Write).unwrap();
        assert!(matches!(out.fault, Some(FaultKind::CowCopy { from_zero: false, .. })));
        info(&k, child, pte);
        let (out, pte) = k.access_pte(parent, va, AccessKind::Write).unwrap();
        assert!(out.fault.is_some());
        info(&k, parent, pte);
    }

    #[test]
    fn first_write_lelantus_emits_page_copy_from_zero() {
        let mut k = kernel(CowStrategy::Lelantus);
        let pid = k.spawn_init();
        let va = k.mmap_anon(pid, 4096, PageSize::Regular4K).unwrap();
        let out = k.access(pid, va, AccessKind::Write).unwrap();
        let copies: Vec<_> = out
            .actions
            .iter()
            .filter_map(|a| match a {
                HwAction::PageCopyCmd { src, dst } => Some((*src, *dst)),
                _ => None,
            })
            .collect();
        assert_eq!(copies.len(), 1);
        assert_eq!(copies[0].0, k.zero_page_4k());
    }

    #[test]
    fn huge_page_fault_emits_512_region_commands() {
        let mut k = kernel(CowStrategy::Lelantus);
        let pid = k.spawn_init();
        let va = k.mmap_anon(pid, 2 << 20, PageSize::Huge2M).unwrap();
        let out = k.access(pid, va + 12345, AccessKind::Write).unwrap();
        let n = out.actions.iter().filter(|a| matches!(a, HwAction::PageCopyCmd { .. })).count();
        assert_eq!(n, 512);
    }

    #[test]
    fn fork_write_protects_and_flushes() {
        let mut k = kernel(CowStrategy::Lelantus);
        let pid = k.spawn_init();
        let va = k.mmap_anon(pid, 4096, PageSize::Regular4K).unwrap();
        // Materialize the page first.
        k.access(pid, va, AccessKind::Write).unwrap();
        let (child, actions) = k.fork(pid).unwrap();
        assert_eq!(actions.len(), 1, "one data page to flush");
        assert!(matches!(actions[0], HwAction::FlushPage { .. }));
        // Both parent and child now fault on write.
        let parent_out = k.access(pid, va, AccessKind::Write).unwrap();
        assert!(matches!(parent_out.fault, Some(FaultKind::CowCopy { from_zero: false, .. })));
        // After the parent copied, the child is sole owner; its write is
        // an early-reclaim reuse under Lelantus.
        let child_out = k.access(child, va, AccessKind::Write).unwrap();
        assert!(matches!(child_out.fault, Some(FaultKind::EarlyReclaim { .. })));
        assert!(child_out.actions.iter().any(|a| matches!(a, HwAction::PagePhycCmd { .. })));
    }

    #[test]
    fn baseline_reuse_has_no_reclaim() {
        let mut k = kernel(CowStrategy::Baseline);
        let pid = k.spawn_init();
        let va = k.mmap_anon(pid, 4096, PageSize::Regular4K).unwrap();
        k.access(pid, va, AccessKind::Write).unwrap();
        let (child, _) = k.fork(pid).unwrap();
        k.access(pid, va, AccessKind::Write).unwrap(); // parent copies
        let out = k.access(child, va, AccessKind::Write).unwrap();
        assert_eq!(out.fault, Some(FaultKind::WpReuse));
        assert!(out.actions.is_empty());
    }

    #[test]
    fn exit_frees_memory_and_emits_page_free() {
        let mut k = kernel(CowStrategy::Lelantus);
        let pid = k.spawn_init();
        let va = k.mmap_anon(pid, 8192, PageSize::Regular4K).unwrap();
        k.access(pid, va, AccessKind::Write).unwrap();
        k.access(pid, va + 4096, AccessKind::Write).unwrap();
        let free_before = k.free_bytes();
        let actions = k.exit(pid).unwrap();
        assert_eq!(k.free_bytes(), free_before + 8192);
        let frees = actions.iter().filter(|a| matches!(a, HwAction::PageFreeCmd { .. })).count();
        assert_eq!(frees, 2);
        assert!(k.live_pids().is_empty());
    }

    #[test]
    fn dying_source_triggers_phyc_for_dependents() {
        let mut k = kernel(CowStrategy::Lelantus);
        let parent = k.spawn_init();
        let va = k.mmap_anon(parent, 4096, PageSize::Regular4K).unwrap();
        k.access(parent, va, AccessKind::Write).unwrap();
        let (child, _) = k.fork(parent).unwrap();
        // Child copies (lazily) then parent exits while the child's
        // metadata still points at the parent's page.
        k.access(child, va, AccessKind::Write).unwrap();
        let actions = k.exit(parent).unwrap();
        assert!(
            actions.iter().any(|a| matches!(a, HwAction::PagePhycCmd { .. })),
            "dying source must materialize dependents: {actions:?}"
        );
    }

    #[test]
    fn silent_shredder_inits_without_zero_writes() {
        let mut k = kernel(CowStrategy::SilentShredder);
        let pid = k.spawn_init();
        let va = k.mmap_anon(pid, 4096, PageSize::Regular4K).unwrap();
        let out = k.access(pid, va, AccessKind::Write).unwrap();
        assert!(out.actions.iter().any(|a| matches!(a, HwAction::PageInitCmd { .. })));
        assert!(!out.actions.iter().any(|a| matches!(a, HwAction::ZeroPage { .. })));
        // But a fork copy is still a full CopyPage.
        let (child, _) = k.fork(pid).unwrap();
        let out = k.access(child, va, AccessKind::Write).unwrap();
        assert!(out.actions.iter().any(|a| matches!(a, HwAction::CopyPage { .. })));
    }

    #[test]
    fn write_to_unmapped_errors() {
        let mut k = kernel(CowStrategy::Baseline);
        let pid = k.spawn_init();
        let err = k.access(pid, VirtAddr::new(0xdead_0000), AccessKind::Write).unwrap_err();
        assert!(matches!(err, OsError::UnmappedAddress { .. }));
        let err = k.access(999, VirtAddr::new(0), AccessKind::Read).unwrap_err();
        assert!(matches!(err, OsError::NoSuchProcess(999)));
    }

    #[test]
    fn oom_is_reported() {
        let mut k = Kernel::new(KernelConfig {
            phys_bytes: 4 << 20, // 2 MB usable after the zero page
            ..KernelConfig::default_with(CowStrategy::Baseline)
        });
        let pid = k.spawn_init();
        let va = k.mmap_anon(pid, 8 << 20, PageSize::Regular4K).unwrap();
        let mut oom = false;
        for i in 0..2048u64 {
            match k.access(pid, va + i * 4096, AccessKind::Write) {
                Ok(_) => {}
                Err(OsError::OutOfMemory) => {
                    oom = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(oom);
    }

    #[test]
    fn stats_track_events() {
        let mut k = kernel(CowStrategy::Lelantus);
        let pid = k.spawn_init();
        let va = k.mmap_anon(pid, 16 << 10, PageSize::Regular4K).unwrap();
        for i in 0..4u64 {
            k.access(pid, va + i * 4096, AccessKind::Write).unwrap();
        }
        let (_, _) = k.fork(pid).unwrap();
        let s = k.stats();
        assert_eq!(s.cow_faults, 4);
        assert_eq!(s.zero_faults, 4);
        assert_eq!(s.forks, 1);
        assert_eq!(s.pages_allocated, 4);
    }

    #[test]
    fn fork_chain_grandchild() {
        // fork-of-fork: recursive copy chains (paper §III-E) at the OS
        // level — every level shares until written.
        let mut k = kernel(CowStrategy::Lelantus);
        let p = k.spawn_init();
        let va = k.mmap_anon(p, 4096, PageSize::Regular4K).unwrap();
        k.access(p, va, AccessKind::Write).unwrap();
        let (c1, _) = k.fork(p).unwrap();
        let (c2, _) = k.fork(c1).unwrap();
        let pa_p = k.translate(p, va).unwrap();
        assert_eq!(k.translate(c1, va).unwrap(), pa_p);
        assert_eq!(k.translate(c2, va).unwrap(), pa_p);
        assert_eq!(k.map_count(pa_p.align_to(4096)), Some(3));
        // c1 writes -> private copy; c2 and p still share.
        k.access(c1, va, AccessKind::Write).unwrap();
        assert_eq!(k.map_count(pa_p.align_to(4096)), Some(2));
        k.exit(p).unwrap();
        k.exit(c1).unwrap();
        k.exit(c2).unwrap();
        assert!(k.live_pids().is_empty());
    }
}

#[cfg(test)]
mod syscall_tests {
    use super::*;

    fn kernel(strategy: CowStrategy) -> Kernel {
        Kernel::new(KernelConfig { phys_bytes: 64 << 20, ..KernelConfig::default_with(strategy) })
    }

    #[test]
    fn munmap_releases_frames_and_unmaps() {
        let mut k = kernel(CowStrategy::Lelantus);
        let pid = k.spawn_init();
        let va = k.mmap_anon(pid, 16 << 10, PageSize::Regular4K).unwrap();
        for p in 0..4u64 {
            k.access(pid, va + p * 4096, AccessKind::Write).unwrap();
        }
        let free_before = k.free_bytes();
        let actions = k.munmap(pid, va).unwrap();
        assert_eq!(k.free_bytes(), free_before + 16 * 1024);
        assert_eq!(actions.iter().filter(|a| matches!(a, HwAction::PageFreeCmd { .. })).count(), 4);
        assert!(k.translate(pid, va).is_none());
        assert!(matches!(
            k.access(pid, va, AccessKind::Read),
            Err(OsError::UnmappedAddress { .. })
        ));
        // Unmapping again fails cleanly.
        assert!(k.munmap(pid, va).is_err());
    }

    #[test]
    fn munmap_source_materializes_dependents() {
        let mut k = kernel(CowStrategy::Lelantus);
        let parent = k.spawn_init();
        let va = k.mmap_anon(parent, 4096, PageSize::Regular4K).unwrap();
        k.access(parent, va, AccessKind::Write).unwrap();
        let (child, _) = k.fork(parent).unwrap();
        k.access(child, va, AccessKind::Write).unwrap(); // lazy copy
        let actions = k.munmap(parent, va).unwrap();
        assert!(
            actions.iter().any(|a| matches!(a, HwAction::PagePhycCmd { .. })),
            "dying source must page_phyc its dependents: {actions:?}"
        );
    }

    #[test]
    fn madvise_dontneed_rezeroes() {
        let mut k = kernel(CowStrategy::Lelantus);
        let pid = k.spawn_init();
        let va = k.mmap_anon(pid, 8192, PageSize::Regular4K).unwrap();
        k.access(pid, va, AccessKind::Write).unwrap();
        k.access(pid, va + 4096, AccessKind::Write).unwrap();
        let free_before = k.free_bytes();
        let actions = k.madvise_dontneed(pid, va, 4096).unwrap();
        assert_eq!(k.free_bytes(), free_before + 4096, "advised page freed");
        assert!(actions.iter().any(|a| matches!(a, HwAction::PageFreeCmd { .. })));
        // The advised page is back on the zero page; the other is not.
        assert_eq!(k.translate(pid, va).unwrap(), k.zero_page_4k());
        assert_ne!(k.translate(pid, va + 4096).unwrap(), k.zero_page_4k());
        // Next write demand-zero faults again.
        let out = k.access(pid, va, AccessKind::Write).unwrap();
        assert!(matches!(out.fault, Some(FaultKind::CowCopy { from_zero: true, .. })));
    }

    #[test]
    fn madvise_rejects_bad_ranges() {
        let mut k = kernel(CowStrategy::Baseline);
        let pid = k.spawn_init();
        let va = k.mmap_anon(pid, 4096, PageSize::Regular4K).unwrap();
        assert!(k.madvise_dontneed(pid, va + 1, 64).is_err(), "unaligned");
        assert!(k.madvise_dontneed(pid, va, 8192).is_err(), "beyond the VMA");
    }

    #[test]
    fn mprotect_revokes_and_restores() {
        let mut k = kernel(CowStrategy::Baseline);
        let pid = k.spawn_init();
        let va = k.mmap_anon(pid, 4096, PageSize::Regular4K).unwrap();
        k.access(pid, va, AccessKind::Write).unwrap();
        k.mprotect(pid, va, false).unwrap();
        assert!(matches!(
            k.access(pid, va, AccessKind::Write),
            Err(OsError::AccessViolation { .. })
        ));
        // Reads still fine.
        assert!(k.access(pid, va, AccessKind::Read).is_ok());
        k.mprotect(pid, va, true).unwrap();
        let out = k.access(pid, va, AccessKind::Write).unwrap();
        assert!(out.fault.is_none(), "private page regains write access directly");
    }

    #[test]
    fn mprotect_true_keeps_cow_protection_on_shared_pages() {
        let mut k = kernel(CowStrategy::Baseline);
        let pid = k.spawn_init();
        let va = k.mmap_anon(pid, 4096, PageSize::Regular4K).unwrap();
        k.access(pid, va, AccessKind::Write).unwrap();
        let (child, _) = k.fork(pid).unwrap();
        k.mprotect(pid, va, true).unwrap();
        // Still shared: the write must CoW-fault, not scribble on the
        // child's view.
        let out = k.access(pid, va, AccessKind::Write).unwrap();
        assert!(matches!(out.fault, Some(FaultKind::CowCopy { .. })));
        let _ = child;
    }
}
