//! Boot workload: Buildroot system bring-up (paper Table IV).
//!
//! The boot phase spawns services from `/etc/inittab`: a storm of
//! `fork`s whose children touch their parent's pages (CoW breaks),
//! allocate and zero their own heaps (demand-zero faults), do a burst
//! of I/O-buffer writes (the paper notes DMA-heavy behaviour), and
//! mostly exit. Roughly half of the memory traffic is
//! copy/initialization (Table V: 51.96 %).

use crate::common::{rng, skewed_offset};
use crate::{Workload, WorkloadRun};
use lelantus_os::OsError;
use lelantus_sim::{AccessBatch, System};
use lelantus_types::LINE_BYTES;
use rand::Rng;

/// Boot workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct Boot {
    /// Services spawned from init.
    pub services: u64,
    /// Shared configuration/image area in the init process.
    pub shared_bytes: u64,
    /// Heap each service allocates and initializes.
    pub service_heap_bytes: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Boot {
    fn default() -> Self {
        Self { services: 48, shared_bytes: 4 << 20, service_heap_bytes: 512 << 10, seed: 0xB007 }
    }
}

impl Boot {
    /// A reduced-scale instance for tests.
    pub fn small() -> Self {
        Self {
            services: 8,
            shared_bytes: 512 << 10,
            service_heap_bytes: 64 << 10,
            ..Self::default()
        }
    }
}

impl Workload for Boot {
    fn name(&self) -> &'static str {
        "boot"
    }

    fn run(&self, sys: &mut System) -> Result<WorkloadRun, OsError> {
        let mut r = rng(self.seed);
        let page_bytes = sys.config().page_size.bytes();

        // Setup: init's image (read-mostly config + binaries).
        let init = sys.spawn_init();
        let shared = sys.mmap(init, self.shared_bytes)?;
        sys.write_pattern(init, shared, self.shared_bytes as usize, 0x1B)?;

        let start = {
            sys.finish();
            sys.metrics()
        };
        let mut logical = 0u64;
        // Reusable batches: one run of init's config reads, then one
        // run of everything the service does between fork and exit
        // (batches cannot cross the syscalls).
        let mut inittab = AccessBatch::with_capacity(16, 0);
        let mut service_work = AccessBatch::with_capacity(8, 6);
        for service in 0..self.services {
            // init reads its config (inittab walk).
            inittab.clear();
            for _ in 0..16 {
                let off = skewed_offset(&mut r, self.shared_bytes);
                inittab.push_read(shared + off, 32);
            }
            sys.run_batch(init, &inittab)?;
            let child = sys.fork(init)?;
            // The service initializes its own heap (demand-zero).
            let heap = sys.mmap(child, self.service_heap_bytes)?;
            service_work.clear();
            service_work.push_pattern(heap, self.service_heap_bytes as usize, 0xC0);
            logical += self.service_heap_bytes / LINE_BYTES as u64;
            // It dirties a few of the shared pages (argv/env rewrite,
            // config parsing scratch) — CoW breaks.
            for _ in 0..6 {
                let page = r.gen_range(0..(self.shared_bytes / page_bytes).max(1));
                service_work.push_write(shared + page * page_bytes, &[service as u8]);
                logical += 1;
            }
            // I/O burst: sequential buffer writes (DMA staging).
            let io_bytes = 64 * LINE_BYTES as u64;
            let io_off = (service * io_bytes * 2) % (self.service_heap_bytes - io_bytes);
            service_work.push_pattern(heap + io_off, io_bytes as usize, 0xD0);
            logical += io_bytes / LINE_BYTES as u64;
            sys.run_batch(child, &service_work)?;
            // Most services are short-lived.
            if service % 4 != 0 {
                sys.exit(child)?;
            }
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
    fn boot_forks_services_and_lelantus_reduces_writes() {
        let run = |strategy| {
            let mut sys = System::new(
                SimConfig::new(strategy, PageSize::Regular4K).with_phys_bytes(128 << 20),
            );
            Boot::small().run(&mut sys).unwrap()
        };
        let base = run(CowStrategy::Baseline);
        let lel = run(CowStrategy::Lelantus);
        assert_eq!(base.measured.kernel.forks, 8);
        assert!(base.measured.kernel.zero_faults > 0, "demand-zero heap faults");
        assert!(lel.measured.nvm.line_writes < base.measured.nvm.line_writes);
        assert!(lel.measured.cycles < base.measured.cycles);
    }
}
