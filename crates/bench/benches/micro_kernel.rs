//! Throughput of the kernel plane at fork-storm scale.
//!
//! The workload is the kernel-plane hot loop at a million live 4 KB
//! pages, with no simulator, crypto or memory model attached — pure
//! policy-plane work: demand-zero fault a 10^6-page region in, fork
//! the 10^6-PTE process four times (the streaming in-place
//! write-protect walk), then exit the children (the teardown walk).
//! It records combined kernel ops/second and the time of each phase.

use lelantus_bench::results::{timed_emit, Record};
use lelantus_os::kernel::AccessKind;
use lelantus_os::{CowStrategy, Kernel, KernelConfig};
use lelantus_types::PageSize;
use std::time::Instant;

const PAGES: u64 = 1 << 20; // one million live 4 KB pages
const FORKS: usize = 4;

struct Phases {
    fault_s: f64,
    fork_s: f64,
    exit_s: f64,
}

impl Phases {
    /// Combined kernel operations per second: every fault, every
    /// forked PTE and every torn-down PTE counts as one operation.
    fn ops_per_s(&self) -> f64 {
        let ops = (PAGES + 2 * FORKS as u64 * PAGES) as f64;
        ops / (self.fault_s + self.fork_s + self.exit_s)
    }
}

fn run_phases() -> Phases {
    let config =
        KernelConfig { phys_bytes: 8 << 30, ..KernelConfig::default_with(CowStrategy::Lelantus) };
    let mut kernel = Kernel::new(config);
    let pid = kernel.spawn_init();
    let va = kernel.mmap_anon(pid, PAGES * 4096, PageSize::Regular4K).expect("mmap");

    // Phase 1: demand-zero fault the whole region in, one page at a
    // time — registry insert, buddy pop and rmap traffic per fault.
    let t = Instant::now();
    for p in 0..PAGES {
        kernel.access(pid, va + p * 4096, AccessKind::Write).expect("fault");
    }
    let fault_s = t.elapsed().as_secs_f64();

    // Phase 2: fork the million-PTE process. Each fork write-protects
    // and reference-counts every parent PTE.
    let t = Instant::now();
    let mut children = Vec::with_capacity(FORKS);
    for _ in 0..FORKS {
        let (child, _) = kernel.fork(pid).expect("fork");
        children.push(child);
    }
    let fork_s = t.elapsed().as_secs_f64();

    // Phase 3: tear the children down again — the shared-page unmap
    // walk (map counts drop back to one, nothing is freed).
    let t = Instant::now();
    for child in children {
        kernel.exit(child).expect("exit");
    }
    let exit_s = t.elapsed().as_secs_f64();

    assert_eq!(
        kernel.stats().pages_allocated - kernel.stats().pages_freed,
        PAGES,
        "the parent must still hold a million live pages"
    );
    Phases { fault_s, fork_s, exit_s }
}

fn main() {
    timed_emit("micro_kernel", || {
        let fast = run_phases();
        println!(
            "kernel plane at {PAGES} pages — {:.0} ops/s (fault {:.2}s, fork {:.2}s, exit {:.2}s)",
            fast.ops_per_s(),
            fast.fault_s,
            fast.fork_s,
            fast.exit_s,
        );
        vec![
            Record::new("kernel_fast_ops_per_s", fast.ops_per_s(), "ops/s"),
            Record::new("kernel_fast_fault_s", fast.fault_s, "s"),
            Record::new("kernel_fast_fork_s", fast.fork_s, "s"),
            Record::new("kernel_fast_exit_s", fast.exit_s, "s"),
        ]
    });
}
