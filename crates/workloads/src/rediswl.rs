//! Redis-style snapshot workload (paper §V-B).
//!
//! Redis persists by forking: the child walks the whole dataset
//! writing an RDB file while the parent keeps serving `SET`/`GET`
//! traffic, so every parent write during the snapshot breaks a CoW
//! page. The paper initializes 100 K key-value pairs, then measures
//! 10 K `SET` + `GET` operations while the child persists.
//!
//! The generator reproduces that: a keyspace area is populated, a
//! child "persister" scans it sequentially (reads) **on its own core**
//! while the parent serves `SET`s (random-key value writes) and `GET`s
//! (random-key reads) on another — the two clocks overlap and contend
//! for the shared memory system exactly as the paper's 8-core machine
//! does. The reported cycles are the parent's insert time (the paper's
//! Fig 9/12 metric).

use crate::common::rng;
use crate::{Workload, WorkloadRun};
use lelantus_os::OsError;
use lelantus_sim::{AccessBatch, System};
use lelantus_types::LINE_BYTES;
use rand::Rng;

/// Redis snapshot workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct Redis {
    /// Number of key-value pairs loaded at setup (paper: 100 K).
    pub pairs: u64,
    /// Value size in bytes (one cacheline models a small Redis string).
    pub value_bytes: usize,
    /// Measured operations: half `SET`, half `GET` (paper: 10 K each).
    pub operations: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Redis {
    fn default() -> Self {
        Self { pairs: 100_000, value_bytes: 64, operations: 20_000, seed: 0xEED5 }
    }
}

impl Redis {
    /// A reduced-scale instance for tests.
    pub fn small() -> Self {
        Self { pairs: 4_000, operations: 1_000, ..Self::default() }
    }

    fn slot_va(&self, base: lelantus_types::VirtAddr, key: u64) -> lelantus_types::VirtAddr {
        base + key * self.value_bytes as u64
    }
}

impl Workload for Redis {
    fn name(&self) -> &'static str {
        "redis"
    }

    fn run(&self, sys: &mut System) -> Result<WorkloadRun, OsError> {
        let mut r = rng(self.seed);
        let dataset_bytes = self.pairs * self.value_bytes as u64;

        // Setup: load the keyspace.
        let parent = sys.spawn_init();
        let base = sys.mmap(parent, dataset_bytes)?;
        sys.write_pattern(parent, base, dataset_bytes as usize, 0xDB)?;

        // BGSAVE: fork the persister child.
        let child = sys.fork(parent)?;

        let start = {
            sys.finish();
            sys.metrics()
        };
        let mut logical = 0u64;
        // The parent serves requests on core 0 while the persister
        // child scans on core 1; the clocks advance independently and
        // contend only through the shared memory system. The paper's
        // Fig 9/12 metric is the parent's insert time.
        sys.sync_cores();
        let insert_start = {
            sys.use_core(0);
            sys.core_now()
        };
        let scan_chunk = (dataset_bytes / self.operations.max(1)).max(LINE_BYTES as u64);
        let mut scan_pos = 0u64;
        // Reusable batches, one per core: batches are per-process, and
        // the parent/child interleave (which sets the bank/bus
        // contention pattern) must stay at request granularity.
        let mut serve = AccessBatch::with_capacity(2, 0);
        let mut scan = AccessBatch::with_capacity(1, 0);
        for _ in 0..self.operations / 2 {
            // Parent SET: random key, full value write (CoW break on
            // first touch of the page during the snapshot); then a
            // GET: random key read.
            sys.use_core(0);
            serve.clear();
            let key = r.gen_range(0..self.pairs);
            serve.push_pattern(self.slot_va(base, key), self.value_bytes, 0x55);
            logical += (self.value_bytes as u64).div_ceil(LINE_BYTES as u64);
            let key = r.gen_range(0..self.pairs);
            serve.push_read(self.slot_va(base, key), self.value_bytes);
            sys.run_batch(parent, &serve)?;
            // Child persists the next chunk concurrently on core 1.
            if scan_pos < dataset_bytes {
                sys.use_core(1);
                let take = scan_chunk.min(dataset_bytes - scan_pos) as usize;
                scan.clear();
                scan.push_read(base + scan_pos, take);
                sys.run_batch(child, &scan)?;
                scan_pos += take as u64;
            }
        }
        // Child finishes the scan (RDB written).
        sys.use_core(1);
        while scan_pos < dataset_bytes {
            let take = scan_chunk.min(dataset_bytes - scan_pos) as usize;
            scan.clear();
            scan.push_read(base + scan_pos, take);
            sys.run_batch(child, &scan)?;
            scan_pos += take as u64;
        }
        sys.use_core(0);
        let insert_cycles = sys.core_now() - insert_start;
        let end = sys.finish();
        let mut measured = end.delta_since(&start);
        measured.cycles = insert_cycles;
        // Teardown happens after the measured window, as in the paper
        // (early-reclamation costs are correctness work, §III-E:
        // "we have not evaluated related performance impact").
        sys.exit(child)?;
        sys.finish();
        Ok(WorkloadRun { measured, logical_line_writes: logical })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lelantus_os::CowStrategy;
    use lelantus_sim::SimConfig;
    use lelantus_types::PageSize;

    #[test]
    fn snapshot_updates_trigger_cow_and_lelantus_wins() {
        let run = |strategy| {
            let mut sys = System::new(
                SimConfig::new(strategy, PageSize::Regular4K).with_phys_bytes(64 << 20),
            );
            Redis::small().run(&mut sys).unwrap()
        };
        let base = run(CowStrategy::Baseline);
        let lel = run(CowStrategy::Lelantus);
        assert!(base.measured.kernel.cow_faults > 0, "SETs must break CoW pages");
        assert!(lel.measured.cycles < base.measured.cycles);
        assert!(lel.measured.nvm.line_writes < base.measured.nvm.line_writes);
    }

    #[test]
    fn child_sees_snapshot_consistency() {
        // The persister child must never observe parent SETs.
        let mut sys = System::new(
            SimConfig::new(CowStrategy::Lelantus, PageSize::Regular4K).with_phys_bytes(64 << 20),
        );
        let pid = sys.spawn_init();
        let va = sys.mmap(pid, 8192).unwrap();
        sys.write_pattern(pid, va, 8192, 0xDB).unwrap();
        let child = sys.fork(pid).unwrap();
        sys.write_bytes(pid, va, &[0xFF]).unwrap();
        assert_eq!(sys.read_bytes(child, va, 1).unwrap(), vec![0xDB]);
    }
}
