//! Workload generators for the Lelantus reproduction.
//!
//! The paper evaluates six copy/initialization-intensive applications
//! (Table IV) plus a `non-copy` overhead probe (§V-C). We cannot run
//! Buildroot, GCC, Redis, MariaDB or a POSIX shell inside this
//! simulator, so each workload here is a *generator* that reproduces
//! the application's memory-system signature — its fork behaviour,
//! its fraction of copy/initialization traffic (Table V), and its
//! access locality — while driving the exact same kernel/controller
//! code paths the paper modifies. The substitution argument lives in
//! `DESIGN.md` §2.
//!
//! Every workload follows the paper's methodology: an unmeasured
//! setup phase (the "fast-forward"), then a measured phase whose
//! metrics are reported as a delta.
//!
//! # Examples
//!
//! ```
//! use lelantus_workloads::{forkbench::Forkbench, Workload};
//! use lelantus_sim::{SimConfig, System};
//! use lelantus_os::CowStrategy;
//! use lelantus_types::PageSize;
//!
//! let mut sys = System::new(SimConfig::new(CowStrategy::Lelantus, PageSize::Regular4K));
//! let run = Forkbench::small().run(&mut sys).unwrap();
//! assert!(run.measured.nvm.line_writes > 0);
//! ```

pub mod bootwl;
pub mod common;
pub mod compilewl;
pub mod forkbench;
pub mod hotspot;
pub mod mariadbwl;
pub mod noncopy;
pub mod rediswl;
pub mod shellwl;
pub mod stormwl;

use lelantus_os::OsError;
use lelantus_sim::{SimMetrics, System};

/// Result of one measured workload phase.
#[derive(Debug, Clone, Default)]
pub struct WorkloadRun {
    /// Metric deltas over the measured phase (after a full flush).
    pub measured: SimMetrics,
    /// Application-level line writes issued in the measured phase
    /// (denominator of the write-amplification metric, Fig 2).
    pub logical_line_writes: u64,
}

/// A benchmark that drives a [`System`], whichever views its
/// configuration turns on.
pub trait Workload {
    /// Display name (matches the paper's Table IV).
    fn name(&self) -> &'static str;

    /// Runs setup plus the measured phase; returns measured-phase
    /// metrics.
    ///
    /// # Errors
    ///
    /// Propagates simulator/kernel errors.
    fn run(&self, sys: &mut System) -> Result<WorkloadRun, OsError>;
}

/// All six paper workloads at reduced scale, boxed for iteration
/// (Fig 9's x-axis order), for fast runs and tests.
pub fn small_suite() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(bootwl::Boot::small()),
        Box::new(compilewl::Compile::small()),
        Box::new(forkbench::Forkbench::small()),
        Box::new(rediswl::Redis::small()),
        Box::new(mariadbwl::Mariadb::small()),
        Box::new(shellwl::Shell::small()),
    ]
}
