//! The non-copy overhead probe (paper §V-C).
//!
//! "In non-copy, we skip the initialization phase then launch the same
//! workload as forkbench to modify all allocated memory without
//! spawning a child process." Lelantus must show **no** slowdown here:
//! the regular read/write datapath is untouched, so the probe verifies
//! the schemes' overhead on ordinary traffic is nil.

use crate::common::push_update_spread;
use crate::{Workload, WorkloadRun};
use lelantus_os::OsError;
use lelantus_sim::{AccessBatch, System};

/// Non-copy probe parameters.
#[derive(Debug, Clone, Copy)]
pub struct NonCopy {
    /// Total allocation to modify (paper: 16 MB).
    pub total_bytes: u64,
}

impl Default for NonCopy {
    fn default() -> Self {
        Self { total_bytes: 16 << 20 }
    }
}

impl NonCopy {
    /// A reduced-scale instance for tests.
    pub fn small() -> Self {
        Self { total_bytes: 1 << 20 }
    }
}

impl Workload for NonCopy {
    fn name(&self) -> &'static str {
        "non-copy"
    }

    fn run(&self, sys: &mut System) -> Result<WorkloadRun, OsError> {
        let page_size = sys.config().page_size;
        let page_bytes = page_size.bytes();
        let pages = self.total_bytes / page_bytes;

        // Setup: fully materialize every line so the measured phase is
        // pure regular-page datapath traffic in every scheme (no
        // faults, no lazy-zero fills left to resolve).
        let pid = sys.spawn_init();
        let va = sys.mmap(pid, self.total_bytes)?;
        sys.write_pattern(pid, va, self.total_bytes as usize, 1)?;

        let start = {
            sys.finish();
            sys.metrics()
        };
        let mut logical = 0u64;
        let mut batch = AccessBatch::with_capacity(page_size.lines(), 0);
        for p in 0..pages {
            batch.clear();
            logical +=
                push_update_spread(&mut batch, va + p * page_bytes, page_size, page_bytes, 0x77);
            sys.run_batch(pid, &batch)?;
        }
        let end = sys.finish();
        Ok(WorkloadRun { measured: end.delta_since(&start), logical_line_writes: logical })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lelantus_os::CowStrategy;
    use lelantus_sim::SimConfig;
    use lelantus_types::PageSize;

    #[test]
    fn all_schemes_perform_identically_without_copies() {
        // Paper §V-C: "both Lelantus and Lelantus-CoW have no impact on
        // the performance of the regular page read/write."
        // Deterministic counters: the probe isolates the datapath from
        // overflow noise (randomized counters make re-encryption counts
        // differ run-to-run, which is Fig 10a's subject, not this one).
        let run = |strategy| {
            let mut sys = System::new(
                SimConfig::new(strategy, PageSize::Regular4K)
                    .with_phys_bytes(64 << 20)
                    .with_deterministic_counters(),
            );
            NonCopy::small().run(&mut sys).unwrap()
        };
        let base = run(CowStrategy::Baseline);
        let lel = run(CowStrategy::Lelantus);
        let cow = run(CowStrategy::LelantusCow);
        let tolerance = |a: u64, b: u64| {
            let hi = a.max(b) as f64;
            let lo = a.min(b) as f64;
            hi / lo < 1.05
        };
        assert!(
            tolerance(base.measured.cycles.as_u64(), lel.measured.cycles.as_u64()),
            "lelantus must not slow ordinary traffic: {} vs {}",
            base.measured.cycles,
            lel.measured.cycles
        );
        assert!(tolerance(base.measured.cycles.as_u64(), cow.measured.cycles.as_u64()));
        assert!(tolerance(base.measured.nvm.line_writes, lel.measured.nvm.line_writes));
    }
}
