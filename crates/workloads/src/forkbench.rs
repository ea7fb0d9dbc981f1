//! The paper's forkbench microbenchmark (§V-B, §V-D).
//!
//! Initialize an allocation, fork a child, and have the child update a
//! configurable number of bytes per page, evenly spread across
//! cachelines. The measured phase is the child's update pass — the
//! window dominated by CoW breaks. Fig 9 uses 32 updated lines/page
//! (4 KB) and 512 lines/page (2 MB); Fig 11 sweeps `bytes_per_page`
//! from one byte to the whole page.

use crate::common::push_update_spread;
use crate::{Workload, WorkloadRun};
use lelantus_os::kernel::ProcessId;
use lelantus_os::OsError;
use lelantus_sim::{AccessBatch, System};
use lelantus_types::VirtAddr;

/// Forkbench parameters.
#[derive(Debug, Clone, Copy)]
pub struct Forkbench {
    /// Total allocation (paper: 16 MB).
    pub total_bytes: u64,
    /// Bytes the child updates per page, spread across lines. `None`
    /// picks the paper's Fig 9 defaults (32 lines × 1 B on 4 KB pages,
    /// 512 lines × 1 B on 2 MB pages).
    pub bytes_per_page: Option<u64>,
}

impl Default for Forkbench {
    fn default() -> Self {
        Self { total_bytes: 16 << 20, bytes_per_page: None }
    }
}

impl Forkbench {
    /// A reduced-scale instance for tests.
    pub fn small() -> Self {
        Self { total_bytes: 1 << 20, bytes_per_page: None }
    }

    /// Fig 11 sweep point: update exactly `bytes` bytes per page.
    pub fn with_bytes_per_page(bytes: u64) -> Self {
        Self { total_bytes: 16 << 20, bytes_per_page: Some(bytes) }
    }

    /// Runs the unmeasured setup phase: initialize the allocation,
    /// fork. Independent of `bytes_per_page`, so sweeps over the
    /// update size can run [`Forkbench::setup`] once, snapshot the
    /// system, and fork each sweep point from the snapshot instead of
    /// replaying the warm-up.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn setup(&self, sys: &mut System) -> Result<ForkbenchState, OsError> {
        let page_size = sys.config().page_size;
        let page_bytes = page_size.bytes();
        let pages = self.total_bytes / page_bytes;
        let parent = sys.spawn_init();
        let va = sys.mmap(parent, self.total_bytes)?;
        let mut batch = AccessBatch::with_capacity(page_size.lines(), 0);
        for p in 0..pages {
            batch.clear();
            push_update_spread(&mut batch, va + p * page_bytes, page_size, page_bytes, 0xA5);
            sys.run_batch(parent, &batch)?;
        }
        let child = sys.fork(parent)?;
        Ok(ForkbenchState { child, va })
    }

    /// Runs the measured phase — the child's update pass — from a
    /// [`Forkbench::setup`] (or a snapshot fork of one).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn measure(
        &self,
        sys: &mut System,
        state: &ForkbenchState,
    ) -> Result<WorkloadRun, OsError> {
        let page_size = sys.config().page_size;
        let page_bytes = page_size.bytes();
        let pages = self.total_bytes / page_bytes;
        let bytes_per_page = self.bytes_per_page.unwrap_or(match page_size {
            lelantus_types::PageSize::Regular4K => 32,
            lelantus_types::PageSize::Huge2M => 512,
        });
        let start = {
            sys.finish();
            sys.metrics()
        };
        let mut logical = 0;
        let mut batch = AccessBatch::with_capacity(page_size.lines(), 0);
        for p in 0..pages {
            batch.clear();
            logical += push_update_spread(
                &mut batch,
                state.va + p * page_bytes,
                page_size,
                bytes_per_page,
                0x5A,
            );
            sys.run_batch(state.child, &batch)?;
        }
        let end = sys.finish();
        Ok(WorkloadRun { measured: end.delta_since(&start), logical_line_writes: logical })
    }
}

/// The machine state a [`Forkbench::setup`] leaves behind: the forked
/// child and the allocation it updates.
#[derive(Debug, Clone, Copy)]
pub struct ForkbenchState {
    /// The forked child whose update pass is measured.
    pub child: ProcessId,
    /// Base of the shared allocation.
    pub va: VirtAddr,
}

impl Workload for Forkbench {
    fn name(&self) -> &'static str {
        "forkbench"
    }

    fn run(&self, sys: &mut System) -> Result<WorkloadRun, OsError> {
        // Setup (fast-forwarded in the paper), then the measured
        // child update pass.
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

    fn run(strategy: CowStrategy, page: PageSize) -> WorkloadRun {
        let mut sys = System::new(SimConfig::new(strategy, page).with_phys_bytes(64 << 20));
        // At least two huge pages of work regardless of page size.
        let wl = match page {
            PageSize::Regular4K => Forkbench::small(),
            PageSize::Huge2M => Forkbench { total_bytes: 4 << 20, bytes_per_page: None },
        };
        wl.run(&mut sys).unwrap()
    }

    #[test]
    fn lelantus_beats_baseline_on_regular_pages() {
        let base = run(CowStrategy::Baseline, PageSize::Regular4K);
        let lel = run(CowStrategy::Lelantus, PageSize::Regular4K);
        assert!(
            lel.measured.cycles < base.measured.cycles,
            "lelantus {} vs baseline {}",
            lel.measured.cycles,
            base.measured.cycles
        );
        assert!(lel.measured.nvm.line_writes < base.measured.nvm.line_writes);
    }

    #[test]
    fn huge_pages_amplify_the_gap() {
        let base = run(CowStrategy::Baseline, PageSize::Huge2M);
        let lel = run(CowStrategy::Lelantus, PageSize::Huge2M);
        let speedup = base.measured.cycles.as_u64() as f64 / lel.measured.cycles.as_u64() as f64;
        assert!(speedup > 5.0, "huge-page speedup only {speedup:.2}x");
    }

    #[test]
    fn logical_write_count_matches_geometry() {
        let r = run(CowStrategy::Baseline, PageSize::Regular4K);
        // 1 MB / 4 KB = 256 pages × 32 lines each.
        assert_eq!(r.logical_line_writes, 256 * 32);
    }

    #[test]
    fn sweep_point_controls_update_size() {
        let mut sys = System::new(
            SimConfig::new(CowStrategy::Baseline, PageSize::Regular4K).with_phys_bytes(64 << 20),
        );
        let mut wl = Forkbench::with_bytes_per_page(1);
        wl.total_bytes = 1 << 20;
        let r = wl.run(&mut sys).unwrap();
        assert_eq!(r.logical_line_writes, 256, "one line per page");
    }
}
