//! Shared harness code for the experiment bench targets.
//!
//! Every table and figure of the paper's evaluation has a bench target
//! in `benches/` (run them with `cargo bench -p lelantus-bench`). They
//! print the same rows/series the paper reports; `EXPERIMENTS.md`
//! records paper-vs-measured values.
//!
//! Experiments honour the `LELANTUS_SCALE` environment variable:
//! `small` (quick sanity run), `medium` (default — shape-faithful at a
//! fraction of the cost) or `paper` (the paper's workload sizes).
//!
//! Three harness facilities are shared by the targets:
//!
//! * [`harness`] — a dependency-free micro-benchmark timer (the build
//!   environment has no criterion), with automatic calibration.
//! * [`matrix`] — [`matrix::run_matrix`] fans the independent
//!   (workload × scheme × page size) simulations of a figure across
//!   CPU cores; every cell is its own [`System`], so runs are
//!   embarrassingly parallel and bit-identical to the serial order.
//! * [`results`] — appends measured values to `BENCH_RESULTS.json` at
//!   the repository root so `EXPERIMENTS.md` claims are reproducible.
//! * [`diff`] — compares two `BENCH_RESULTS.json` snapshots and flags
//!   regressions (the `lelantus bench-diff` CLI and the CI gate).

pub mod diff;
pub mod harness;
pub mod matrix;
pub mod results;

pub use matrix::{run_cells, run_matrix, Matrix, MatrixCell};

use lelantus_os::CowStrategy;
use lelantus_sim::{SimConfig, System};
use lelantus_types::PageSize;
use lelantus_workloads::{workload, Workload, WorkloadRun, NAMES};

pub use lelantus_workloads::Scale;

/// The experiment scale `LELANTUS_SCALE` selects (`small`, `medium`
/// or `paper`; unset: [`Scale::Medium`]).
///
/// # Panics
///
/// Panics, naming the value, if the variable holds anything else.
pub fn scale_from_env() -> Scale {
    scale_from_var(std::env::var("LELANTUS_SCALE").ok().as_deref())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// [`scale_from_env`] over the variable's value (`None`: unset).
fn scale_from_var(value: Option<&str>) -> Result<Scale, String> {
    match value {
        None => Ok(Scale::Medium),
        Some(v) => Scale::parse(v)
            .ok_or_else(|| format!("LELANTUS_SCALE={v:?}: expected small, medium or paper")),
    }
}

/// Builds the Fig 9 workload list (six applications + non-copy) at
/// `scale`.
pub fn fig9_workloads(scale: Scale) -> Vec<Box<dyn Workload>> {
    NAMES[..7].iter().map(|name| workload(name, scale).expect("a table name")).collect()
}

/// Runs `workload` on a fresh system with the given scheme and page
/// size, using the paper's default configuration.
pub fn run_workload(workload: &dyn Workload, strategy: CowStrategy, page: PageSize) -> WorkloadRun {
    let mut sys = System::new(SimConfig::new(strategy, page));
    workload.run(&mut sys).unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
}

/// Runs `workload` on a custom configuration.
pub fn run_workload_with(workload: &dyn Workload, config: SimConfig) -> WorkloadRun {
    let mut sys = System::new(config);
    workload.run(&mut sys).unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
}

/// Prints a fixed-width table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, cell) in cells.iter().enumerate() {
            s.push_str(&format!("{:<width$}  ", cell, width = widths.get(i).copied().unwrap_or(8)));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Formats a ratio as `N.NNx`.
pub fn fmt_x(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats a fraction as a percentage.
pub fn fmt_pct(v: f64) -> String {
    format!("{:.2}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_from_env_default_is_medium() {
        // (Environment not set in the test harness.)
        if std::env::var("LELANTUS_SCALE").is_err() {
            assert_eq!(scale_from_env(), Scale::Medium);
        }
    }

    #[test]
    fn an_unknown_scale_is_an_error_that_names_it() {
        assert_eq!(scale_from_var(None), Ok(Scale::Medium));
        assert_eq!(scale_from_var(Some("paper")), Ok(Scale::Paper));
        let err = scale_from_var(Some("foo")).unwrap_err();
        assert!(err.contains("LELANTUS_SCALE=\"foo\""), "{err}");
    }

    #[test]
    fn fig9_suites_have_seven_entries() {
        for scale in [Scale::Small, Scale::Medium, Scale::Paper] {
            let suite = fig9_workloads(scale);
            assert_eq!(suite.len(), 7);
            assert_eq!(suite[2].name(), "forkbench");
            assert_eq!(suite[6].name(), "non-copy");
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_x(2.345), "2.35x");
        assert_eq!(fmt_pct(0.4215), "42.15%");
    }
}
