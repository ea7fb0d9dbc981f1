//! Fork-storm multi-tenant scenario: the kernel-plane scale test.
//!
//! `tenants` independent processes each build a fork chain of depth
//! `fork_depth` over a private anonymous region. Every generation
//! dirties a rotating slice of pages (a sustained CoW storm), interior
//! generations exit as soon as their child has diverged (shared-page
//! teardown — the early-reclamation path under Lelantus), leaves
//! periodically trim a previously-dirtied slice with
//! `madvise(DONTNEED)`, and the KSM daemon merges each tenant's
//! common boilerplate pages across tenant groups (dedup churn on the
//! rmap chains).
//!
//! Unlike the six paper workloads this one is not a Fig 9 column: it
//! exists to stress the *kernel plane* itself. At full scale
//! (`lelantus storm`) it holds over a million live 4 KB pages across
//! more than a thousand tenant address spaces, which is exactly the
//! regime the O(1) frame-indexed OS structures (dense page registry,
//! intrusive rmap chains, bitmap buddy, segmented page tables,
//! streaming fork) are built for.

use crate::common::push_update_spread;
use crate::{Workload, WorkloadRun};
use lelantus_os::kernel::ProcessId;
use lelantus_os::OsError;
use lelantus_sim::{AccessBatch, System};
use lelantus_types::VirtAddr;

/// Fork-storm parameters.
#[derive(Debug, Clone, Copy)]
pub struct Storm {
    /// Number of independent tenant processes.
    pub tenants: u64,
    /// Fork-chain depth per tenant (generations after the root).
    pub fork_depth: u64,
    /// Per-tenant anonymous region (must be a multiple of the page
    /// size).
    pub region_bytes: u64,
    /// Pages each generation dirties (rotating slice of the region).
    pub touched_pages_per_child: u64,
    /// Trailing pages of each region written with a tenant-independent
    /// pattern, making them KSM-mergeable across tenants.
    pub common_pages: u64,
    /// Run a KSM merge pass over the common pages once per this many
    /// finished tenants (0 disables KSM).
    pub ksm_every: u64,
    /// Generations between `madvise(DONTNEED)` trims of the previous
    /// generation's slice (0 disables trimming).
    pub madvise_every: u64,
}

impl Default for Storm {
    fn default() -> Self {
        Self {
            tenants: 64,
            fork_depth: 4,
            region_bytes: 256 << 10,
            touched_pages_per_child: 16,
            common_pages: 4,
            ksm_every: 8,
            madvise_every: 2,
        }
    }
}

impl Storm {
    /// A reduced-scale instance for tests and CI smoke runs.
    pub fn small() -> Self {
        Self {
            tenants: 8,
            fork_depth: 3,
            region_bytes: 64 << 10,
            touched_pages_per_child: 4,
            common_pages: 2,
            ksm_every: 4,
            madvise_every: 2,
        }
    }

    /// The full multi-tenant scale: 1024 tenants × 1152-page regions —
    /// over a million live 4 KB pages still resident *after* the
    /// madvise trims and KSM merges. Needs [`Storm::phys_bytes`] of
    /// physical memory.
    pub fn full() -> Self {
        Self {
            tenants: 1024,
            fork_depth: 4,
            region_bytes: 4608 << 10,
            touched_pages_per_child: 64,
            common_pages: 8,
            ksm_every: 32,
            madvise_every: 2,
        }
    }

    /// Physical-memory size this instance needs: every tenant's region
    /// resident plus headroom for transient parent/child divergence
    /// and the zero/metadata area, rounded up to a 2 MB boundary.
    ///
    /// # Panics
    ///
    /// If that size does not fit in a `u64`; see
    /// [`Storm::checked_phys_bytes`].
    pub fn phys_bytes(&self) -> u64 {
        self.checked_phys_bytes().expect("storm size overflows u64")
    }

    /// [`Storm::phys_bytes`], or `None` when it does not fit in a `u64`
    /// (a command line can ask for any tenant count and region size).
    pub fn checked_phys_bytes(&self) -> Option<u64> {
        let resident = self.tenants.checked_mul(self.region_bytes)?;
        resident.checked_add(resident / 2)?.checked_add(64 << 20)?.checked_next_multiple_of(2 << 20)
    }

    /// Runs the unmeasured setup: spawns every tenant's root process
    /// and faults its region in (tenant-unique pattern on the body,
    /// the shared boilerplate pattern on the trailing `common_pages`).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn setup(&self, sys: &mut System) -> Result<StormState, OsError> {
        let page_bytes = sys.config().page_size.bytes();
        let pages = self.region_bytes / page_bytes;
        let common = self.common_pages.min(pages);
        let mut roots = Vec::with_capacity(self.tenants as usize);
        // One single-line spread op per page of the region.
        let mut batch = AccessBatch::with_capacity(pages as usize, 0);
        for t in 0..self.tenants {
            let pid = sys.spawn_init();
            let va = sys.mmap(pid, self.region_bytes)?;
            batch.clear();
            for p in 0..pages {
                let tag = if p >= pages - common {
                    0xCC // tenant-independent: KSM-mergeable
                } else {
                    (t % 251) as u8 ^ 0xA5
                };
                push_update_spread(&mut batch, va + p * page_bytes, sys.config().page_size, 1, tag);
            }
            sys.run_batch(pid, &batch)?;
            roots.push((pid, va));
        }
        Ok(StormState { roots })
    }

    /// Runs the measured phase — the storm itself: per tenant, the
    /// fork chain with per-generation dirtying, interior exits and
    /// madvise trims, plus the periodic cross-tenant KSM passes.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn measure(&self, sys: &mut System, state: &StormState) -> Result<WorkloadRun, OsError> {
        let page_size = sys.config().page_size;
        let page_bytes = page_size.bytes();
        let pages = self.region_bytes / page_bytes;
        let common = self.common_pages.min(pages);
        let touched = self.touched_pages_per_child.min(pages).max(1);
        let start = {
            sys.finish();
            sys.metrics()
        };
        let mut logical = 0;
        let mut batch = AccessBatch::with_capacity(touched as usize, 0);
        let mut ksm_group: Vec<(ProcessId, VirtAddr)> = Vec::new();
        for (t, &(root, va)) in state.roots.iter().enumerate() {
            let mut leaf = root;
            for g in 0..self.fork_depth {
                let child = sys.fork(leaf)?;
                // The child diverges on a rotating slice of the
                // region: every dirtied page is a CoW break against
                // the chain built so far.
                batch.clear();
                for i in 0..touched {
                    let p = (g * touched + i) % pages;
                    logical += push_update_spread(
                        &mut batch,
                        va + p * page_bytes,
                        page_size,
                        1,
                        0x5A ^ g as u8,
                    );
                }
                sys.run_batch(child, &batch)?;
                // The interior generation exits as soon as the child
                // has diverged: its privately-reclaimed pages and the
                // dropped shared references are the teardown storm.
                sys.exit(leaf)?;
                leaf = child;
                if self.madvise_every > 0 && g % self.madvise_every == 1 {
                    // Trim the previous generation's slice: the pages
                    // read as zeros afterwards and their frames are
                    // released (or deferred under Lelantus).
                    let p = (g - 1) * touched % pages;
                    let len = touched.min(pages - p) * page_bytes;
                    sys.madvise_dontneed(leaf, va + p * page_bytes, len)?;
                }
            }
            // The surviving leaf's boilerplate pages join the KSM pool.
            for p in pages - common..pages {
                ksm_group.push((leaf, va + p * page_bytes));
            }
            if self.ksm_every > 0 && (t as u64 + 1).is_multiple_of(self.ksm_every) {
                sys.ksm_merge(&ksm_group)?;
                ksm_group.clear();
            }
        }
        if self.ksm_every > 0 && !ksm_group.is_empty() {
            sys.ksm_merge(&ksm_group)?;
        }
        let end = sys.finish();
        Ok(WorkloadRun { measured: end.delta_since(&start), logical_line_writes: logical })
    }
}

/// The machine state a [`Storm::setup`] leaves behind: every tenant's
/// root process and region base.
#[derive(Debug, Clone)]
pub struct StormState {
    /// One `(root pid, region base)` pair per tenant.
    pub roots: Vec<(ProcessId, VirtAddr)>,
}

impl Workload for Storm {
    fn name(&self) -> &'static str {
        "storm"
    }

    fn run(&self, sys: &mut System) -> Result<WorkloadRun, OsError> {
        let state = self.setup(sys)?;
        self.measure(sys, &state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lelantus_os::CowStrategy;
    use lelantus_sim::SimConfig;
    use lelantus_types::PageSize;

    fn sys(strategy: CowStrategy) -> System {
        System::new(SimConfig::new(strategy, PageSize::Regular4K).with_phys_bytes(64 << 20))
    }

    #[test]
    fn storm_leaves_one_leaf_per_tenant() {
        let mut s = sys(CowStrategy::Lelantus);
        let wl = Storm::small();
        wl.run(&mut s).unwrap();
        assert_eq!(s.kernel().live_pids().len(), wl.tenants as usize, "one leaf per tenant");
    }

    #[test]
    fn storm_dirties_the_expected_line_count() {
        let mut s = sys(CowStrategy::Baseline);
        let wl = Storm::small();
        let r = wl.run(&mut s).unwrap();
        assert_eq!(
            r.logical_line_writes,
            wl.tenants * wl.fork_depth * wl.touched_pages_per_child,
            "one line per touched page per generation per tenant"
        );
    }

    #[test]
    fn storm_exercises_forks_faults_and_reclaims() {
        let mut s = sys(CowStrategy::Lelantus);
        Storm::small().run(&mut s).unwrap();
        let stats = s.kernel().stats();
        let wl = Storm::small();
        assert_eq!(stats.forks, wl.tenants * wl.fork_depth);
        assert!(stats.cow_faults > 0, "the storm is a CoW storm");
        assert!(stats.pages_freed > 0, "interior exits release pages");
    }

    #[test]
    fn storm_holds_live_pages_at_rest() {
        let mut s = sys(CowStrategy::Baseline);
        let wl = Storm::small();
        wl.run(&mut s).unwrap();
        let stats = s.kernel().stats();
        let live = stats.pages_allocated - stats.pages_freed;
        // Every tenant's region stays resident in its leaf (minus the
        // KSM-merged boilerplate and madvised slices).
        assert!(
            live >= wl.tenants * (wl.region_bytes / 4096) / 2,
            "only {live} live pages at rest"
        );
    }

    #[test]
    fn ksm_merges_the_boilerplate_across_tenants() {
        let mut with_ksm = sys(CowStrategy::Lelantus);
        let mut without = sys(CowStrategy::Lelantus);
        Storm::small().run(&mut with_ksm).unwrap();
        Storm { ksm_every: 0, ..Storm::small() }.run(&mut without).unwrap();
        let live = |s: &System| {
            let st = s.kernel().stats();
            st.pages_allocated - st.pages_freed
        };
        assert!(
            live(&with_ksm) < live(&without),
            "KSM should deduplicate the common pages: {} vs {}",
            live(&with_ksm),
            live(&without)
        );
    }

    #[test]
    fn phys_budget_covers_the_full_scale() {
        let full = Storm::full();
        assert!(full.tenants >= 1000, "acceptance floor: at least 1000 tenants");
        // The resting state must clear a million live pages even after
        // the madvise trims (two never-redirtied slices per tenant)
        // and the KSM merges eat their share.
        let trimmed = 2 * full.touched_pages_per_child + full.common_pages;
        assert!(
            full.tenants * (full.region_bytes / 4096 - trimmed) >= 1_000_000,
            "acceptance floor: at least a million live 4K pages at rest"
        );
        assert_eq!(full.phys_bytes() % (2 << 20), 0);
        assert!(full.phys_bytes() > full.tenants * full.region_bytes);
    }

    #[test]
    fn checked_phys_bytes_catches_overflow() {
        let huge = Storm { tenants: u64::MAX, region_bytes: 2048, ..Storm::small() };
        assert_eq!(huge.checked_phys_bytes(), None);
        // The product fits; the 1.5x margin on top of it does not.
        let near = Storm { tenants: 1, region_bytes: u64::MAX / 4 * 3, ..Storm::small() };
        assert_eq!(near.checked_phys_bytes(), None);
    }
}
