//! Shell workload: `find` piping into `ls` per subdirectory (paper
//! Table IV).
//!
//! A process-spawn treadmill: for every subdirectory the shell forks a
//! short-lived `ls`, which touches the shared shell/libc image (CoW
//! reads plus a few breaks for its own state), allocates a small
//! output buffer (demand-zero), writes its listing and exits. The
//! fork/exit cycle makes this the most `page_free`-heavy workload
//! (59.1 % copy/init traffic, Table V).

use crate::common::{rng, skewed_offset};
use crate::{Workload, WorkloadRun};
use lelantus_os::OsError;
use lelantus_sim::{AccessBatch, System};
use lelantus_types::LINE_BYTES;
use rand::Rng;

/// Shell workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct Shell {
    /// Subdirectories visited (one `ls` fork each).
    pub directories: u64,
    /// Shared shell + libc image size.
    pub image_bytes: u64,
    /// Output buffer each `ls` allocates.
    pub buffer_bytes: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Shell {
    fn default() -> Self {
        Self { directories: 96, image_bytes: 2 << 20, buffer_bytes: 256 << 10, seed: 0x5E11 }
    }
}

impl Shell {
    /// A reduced-scale instance for tests.
    pub fn small() -> Self {
        Self { directories: 10, image_bytes: 256 << 10, buffer_bytes: 32 << 10, ..Self::default() }
    }
}

impl Workload for Shell {
    fn name(&self) -> &'static str {
        "shell"
    }

    fn run(&self, sys: &mut System) -> Result<WorkloadRun, OsError> {
        let mut r = rng(self.seed);
        let page_bytes = sys.config().page_size.bytes();

        // Setup: the shell with its image (shared with every child).
        let shell = sys.spawn_init();
        let image = sys.mmap(shell, self.image_bytes)?;
        sys.write_pattern(shell, image, self.image_bytes as usize, 0x0A)?;

        let start = {
            sys.finish();
            sys.metrics()
        };
        let mut logical = 0u64;
        // Reusable batches: find's reads, then everything ls does
        // between its mmap and exit (batches cannot cross syscalls).
        let mut find_reads = AccessBatch::with_capacity(8, 0);
        let mut ls_work = AccessBatch::with_capacity(5, 4);
        for dir in 0..self.directories {
            // find reads directory metadata from its image.
            find_reads.clear();
            for _ in 0..8 {
                let off = skewed_offset(&mut r, self.image_bytes);
                find_reads.push_read(image + off, 48);
            }
            sys.run_batch(shell, &find_reads)?;
            // Spawn ls.
            let ls = sys.fork(shell)?;
            // ls relocates/initializes a bit of its copy of the image
            // (GOT/PLT and malloc arena headers): a few CoW breaks.
            ls_work.clear();
            for _ in 0..4 {
                let page = r.gen_range(0..(self.image_bytes / page_bytes).max(1));
                ls_work.push_write(image + page * page_bytes, &[dir as u8]);
                logical += 1;
            }
            // Output buffer: demand-zero, then a sequential listing.
            let buf = sys.mmap(ls, self.buffer_bytes)?;
            let listing = self.buffer_bytes / 2;
            ls_work.push_pattern(buf, listing as usize, 0x7E);
            logical += listing / LINE_BYTES as u64;
            sys.run_batch(ls, &ls_work)?;
            // ls exits; its pages are freed (page_free under Lelantus).
            sys.exit(ls)?;
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
    fn fork_exit_treadmill_frees_pages_and_lelantus_wins() {
        let run = |strategy| {
            let mut sys = System::new(
                SimConfig::new(strategy, PageSize::Regular4K).with_phys_bytes(64 << 20),
            );
            Shell::small().run(&mut sys).unwrap()
        };
        let base = run(CowStrategy::Baseline);
        let lel = run(CowStrategy::Lelantus);
        assert_eq!(base.measured.kernel.forks, 10);
        assert!(base.measured.kernel.pages_freed > 0, "ls processes exit");
        assert!(lel.measured.controller.cmd_page_free > 0, "page_free on exit");
        assert!(lel.measured.nvm.line_writes < base.measured.nvm.line_writes);
        assert!(lel.measured.cycles < base.measured.cycles);
    }
}
