//! Compile workload: a `cc1` compilation phase (paper Table IV).
//!
//! The GCC driver forks `cc1`, which then allocates a large heap and
//! fills it with IR objects — heavy demand-zero allocation (46.32 %
//! copy/init traffic, Table V) followed by pointer-chasing reads and
//! localized updates as passes rewrite the IR.

use crate::common::{rng, skewed_offset};
use crate::{Workload, WorkloadRun};
use lelantus_os::OsError;
use lelantus_sim::{AccessBatch, System};
use lelantus_types::LINE_BYTES;
use rand::Rng;

/// Ops accumulated per `run_batch` call (bounds batch memory while
/// keeping translation runs long).
const BATCH_OPS: usize = 4096;

/// Compile workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct Compile {
    /// Heap grown by the compiler (allocation-dominated).
    pub heap_bytes: u64,
    /// IR-rewrite operations in the optimization phase.
    pub rewrite_ops: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Compile {
    fn default() -> Self {
        Self { heap_bytes: 24 << 20, rewrite_ops: 60_000, seed: 0xCC1 }
    }
}

impl Compile {
    /// A reduced-scale instance for tests.
    pub fn small() -> Self {
        Self { heap_bytes: 2 << 20, rewrite_ops: 4_000, ..Self::default() }
    }
}

impl Workload for Compile {
    fn name(&self) -> &'static str {
        "compile"
    }

    fn run(&self, sys: &mut System) -> Result<WorkloadRun, OsError> {
        let mut r = rng(self.seed);

        // Setup: the driver process with its own image.
        let driver = sys.spawn_init();
        let driver_img = sys.mmap(driver, 1 << 20)?;
        sys.write_pattern(driver, driver_img, 1 << 20, 0x6C)?;

        let start = {
            sys.finish();
            sys.metrics()
        };
        let mut logical = 0u64;
        // gcc forks cc1.
        let cc1 = sys.fork(driver)?;
        let heap = sys.mmap(cc1, self.heap_bytes)?;

        // Front-end: build IR — sequential allocation writes over the
        // heap (every line demand-zero-faults its page on first touch).
        // All cc1 work accumulates into one reusable batch, flushed
        // every `BATCH_OPS` ops to bound memory.
        let mut batch = AccessBatch::with_capacity(BATCH_OPS + 2, 0);
        let mut alloc_pos = 0u64;
        while alloc_pos + LINE_BYTES as u64 <= self.heap_bytes {
            batch.push_pattern(heap + alloc_pos, 48, 0xAE);
            logical += 1;
            alloc_pos += LINE_BYTES as u64;
            if batch.len() >= BATCH_OPS {
                sys.run_batch(cc1, &batch)?;
                batch.clear();
            }
        }
        // Optimization passes: skewed read-modify-write over the IR.
        for _ in 0..self.rewrite_ops {
            let off = skewed_offset(&mut r, self.heap_bytes);
            batch.push_read(heap + off, 16);
            if r.gen_bool(0.4) {
                batch.push_pattern(heap + off, 16, 0x0F);
                logical += 1;
            }
            if batch.len() >= BATCH_OPS {
                sys.run_batch(cc1, &batch)?;
                batch.clear();
            }
        }
        sys.run_batch(cc1, &batch)?;
        sys.exit(cc1)?;
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
    fn compile_is_demand_zero_dominated() {
        let run = |strategy| {
            let mut sys = System::new(
                SimConfig::new(strategy, PageSize::Regular4K).with_phys_bytes(64 << 20),
            );
            Compile::small().run(&mut sys).unwrap()
        };
        let base = run(CowStrategy::Baseline);
        let lel = run(CowStrategy::Lelantus);
        assert!(base.measured.kernel.zero_faults >= 512, "heap pages demand-zero");
        // Baseline zeroes whole pages; Lelantus never writes the zeros.
        assert!(lel.measured.nvm.line_writes < base.measured.nvm.line_writes);
        // Silent Shredder also wins here (zero elision is its one trick).
        let ss = run(CowStrategy::SilentShredder);
        assert!(ss.measured.nvm.line_writes < base.measured.nvm.line_writes);
    }
}
