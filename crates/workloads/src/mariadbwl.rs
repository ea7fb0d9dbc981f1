//! MariaDB workload: loading the sample `employees` database (paper
//! Table IV).
//!
//! Bulk-loading grows the buffer pool (demand-zero allocation), writes
//! row pages sequentially, maintains indexes with skewed random
//! updates, and appends to a redo log that wraps — 48.11 % copy/init
//! traffic (Table V), lighter on forks than Redis.

use crate::common::{rng, skewed_offset};
use crate::{Workload, WorkloadRun};
use lelantus_os::OsError;
use lelantus_sim::{AccessBatch, System};
use lelantus_types::LINE_BYTES;

/// Ops accumulated per `run_batch` call (bounds batch memory while
/// keeping translation runs long).
const BATCH_OPS: usize = 4096;

/// MariaDB load-phase parameters.
#[derive(Debug, Clone, Copy)]
pub struct Mariadb {
    /// Buffer-pool size (row pages).
    pub buffer_pool_bytes: u64,
    /// Index area size.
    pub index_bytes: u64,
    /// Redo-log ring size.
    pub log_bytes: u64,
    /// Rows loaded in the measured phase.
    pub rows: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Mariadb {
    fn default() -> Self {
        Self {
            buffer_pool_bytes: 16 << 20,
            index_bytes: 4 << 20,
            log_bytes: 1 << 20,
            rows: 120_000,
            seed: 0xDB01,
        }
    }
}

impl Mariadb {
    /// A reduced-scale instance for tests.
    pub fn small() -> Self {
        Self {
            buffer_pool_bytes: 1 << 20,
            index_bytes: 256 << 10,
            log_bytes: 128 << 10,
            rows: 6_000,
            ..Self::default()
        }
    }
}

impl Workload for Mariadb {
    fn name(&self) -> &'static str {
        "mariadb"
    }

    fn run(&self, sys: &mut System) -> Result<WorkloadRun, OsError> {
        let mut r = rng(self.seed);
        let row_bytes = 128u64; // two cachelines per employee row

        // Setup: the server process and a checkpointer fork (InnoDB
        // uses background threads; modelling one CoW-sharing helper).
        let server = sys.spawn_init();
        let pool = sys.mmap(server, self.buffer_pool_bytes)?;
        let index = sys.mmap(server, self.index_bytes)?;
        let log = sys.mmap(server, self.log_bytes)?;

        let start = {
            sys.finish();
            sys.metrics()
        };
        let mut logical = 0u64;
        let mut log_pos = 0u64;
        // The whole load phase is one process on one core with no
        // syscalls: accumulate into one reusable batch, flushed every
        // `BATCH_OPS` ops to bound memory.
        // 4 ops and 16 payload bytes per row, flushed at BATCH_OPS.
        let mut batch = AccessBatch::with_capacity(BATCH_OPS + 4, (BATCH_OPS + 4) * 4);
        for i in 0..self.rows {
            // Row insert: sequential placement in the buffer pool
            // (first touch of each page is a demand-zero fault).
            let pos = (i * row_bytes) % (self.buffer_pool_bytes - row_bytes);
            batch.push_pattern(pool + pos, row_bytes as usize, 0xEE);
            logical += row_bytes / LINE_BYTES as u64;
            // Index maintenance: skewed update.
            let ioff = skewed_offset(&mut r, self.index_bytes);
            batch.push_read(index + ioff, 32);
            batch.push_write(index + ioff, &[i as u8; 16]);
            logical += 1;
            // Redo log append (wrapping ring).
            batch.push_pattern(log + log_pos, 32, 0x10);
            logical += 1;
            log_pos = (log_pos + 32) % (self.log_bytes - 32);
            if batch.len() >= BATCH_OPS {
                sys.run_batch(server, &batch)?;
                batch.clear();
            }
        }
        sys.run_batch(server, &batch)?;
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
    fn bulk_load_benefits_from_lazy_zeroing() {
        let run = |strategy| {
            let mut sys = System::new(
                SimConfig::new(strategy, PageSize::Regular4K).with_phys_bytes(64 << 20),
            );
            Mariadb::small().run(&mut sys).unwrap()
        };
        let base = run(CowStrategy::Baseline);
        let lel = run(CowStrategy::Lelantus);
        assert!(base.measured.kernel.zero_faults > 0);
        assert!(lel.measured.nvm.line_writes < base.measured.nvm.line_writes);
        assert!(lel.measured.cycles <= base.measured.cycles);
    }
}
