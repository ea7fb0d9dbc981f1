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

use bootwl::Boot;
use compilewl::Compile;
use forkbench::Forkbench;
use hotspot::Hotspot;
use mariadbwl::Mariadb;
use noncopy::NonCopy;
use rediswl::Redis;
use shellwl::Shell;

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

/// Workload size: [`workload`] sizes every named workload at each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-long sanity run.
    Small,
    /// Shape-faithful at a fraction of the cost.
    Medium,
    /// The paper's workload sizes.
    Paper,
}

impl Scale {
    /// Parses `small`, `medium` or `paper`.
    pub fn parse(name: &str) -> Option<Scale> {
        match name {
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// Forkbench / non-copy allocation size at this scale.
    pub fn alloc_bytes(self) -> u64 {
        match self {
            Scale::Small => 2 << 20,
            Scale::Medium => 4 << 20,
            Scale::Paper => 16 << 20,
        }
    }
}

/// The names [`workload`] knows: Fig 9's seven in x-axis order, then
/// `hotspot`.
pub const NAMES: [&str; 8] =
    ["boot", "compile", "forkbench", "redis", "mariadb", "shell", "non-copy", "hotspot"];

/// The workload `name` (one of [`NAMES`], or `noncopy`) at `scale`,
/// or `None` for an unknown name: the one (workload, scale) table the
/// CLI and the Fig 9 benches share.
pub fn workload(name: &str, scale: Scale) -> Option<Box<dyn Workload>> {
    use Scale::{Medium, Paper, Small};
    Some(match (name, scale) {
        ("boot", Small) => Box::new(Boot::small()),
        ("boot", Medium) => Box::new(Boot {
            services: 16,
            shared_bytes: 1 << 20,
            service_heap_bytes: 128 << 10,
            ..Boot::default()
        }),
        ("boot", Paper) => Box::new(Boot::default()),
        ("compile", Small) => Box::new(Compile::small()),
        ("compile", Medium) => {
            Box::new(Compile { heap_bytes: 6 << 20, rewrite_ops: 12_000, ..Compile::default() })
        }
        ("compile", Paper) => Box::new(Compile::default()),
        ("forkbench", _) => {
            Box::new(Forkbench { total_bytes: scale.alloc_bytes(), bytes_per_page: None })
        }
        ("redis", Small) => Box::new(Redis::small()),
        ("redis", Medium) => {
            Box::new(Redis { pairs: 20_000, operations: 4_000, ..Redis::default() })
        }
        ("redis", Paper) => Box::new(Redis::default()),
        ("mariadb", Small) => Box::new(Mariadb::small()),
        ("mariadb", Medium) => Box::new(Mariadb {
            buffer_pool_bytes: 4 << 20,
            index_bytes: 1 << 20,
            rows: 24_000,
            ..Mariadb::default()
        }),
        ("mariadb", Paper) => Box::new(Mariadb::default()),
        ("shell", Small) => Box::new(Shell::small()),
        ("shell", Medium) => Box::new(Shell { directories: 24, ..Shell::default() }),
        ("shell", Paper) => Box::new(Shell::default()),
        ("non-copy" | "noncopy", _) => Box::new(NonCopy { total_bytes: scale.alloc_bytes() }),
        ("hotspot", Small) => Box::new(Hotspot::small()),
        ("hotspot", _) => Box::new(Hotspot::default()),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_to_itself_at_every_scale() {
        for scale in [Scale::Small, Scale::Medium, Scale::Paper] {
            for name in NAMES {
                assert_eq!(workload(name, scale).expect(name).name(), name, "{scale:?}");
            }
            assert_eq!(workload("noncopy", scale).unwrap().name(), "non-copy");
            assert!(workload("storm", scale).is_none());
        }
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("huge"), None);
    }
}
