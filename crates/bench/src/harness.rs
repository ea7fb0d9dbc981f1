//! A minimal micro-benchmark timer.
//!
//! The build environment has no criterion, so the micro targets use
//! this: warm up, calibrate the iteration count to a target wall-clock
//! budget, then measure. No statistics beyond the mean — the consumers
//! are absolute rows and throughput *ratios* (batched vs per-line
//! pads, snapshot fork vs replay) where run-to-run noise of a few
//! percent is irrelevant against order-of-magnitude expectations.

use std::time::{Duration, Instant};

/// Outcome of one [`bench`] run.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark label.
    pub name: String,
    /// Mean nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Iterations measured (after calibration).
    pub iters: u64,
    /// Total wall-clock seconds this benchmark took (calibration and
    /// all measurement batches) — what `BENCH_RESULTS.json` stamps on
    /// the record as its per-name cost.
    pub elapsed_s: f64,
}

impl Measurement {
    /// Iterations per second.
    pub fn per_second(&self) -> f64 {
        1e9 / self.ns_per_iter
    }

    /// How many times faster this measurement is than `other`.
    pub fn speedup_over(&self, other: &Measurement) -> f64 {
        other.ns_per_iter / self.ns_per_iter
    }
}

/// Measurement budget per benchmark (after calibration).
const BUDGET: Duration = Duration::from_millis(200);

/// Times `f`, returning the mean cost per iteration.
///
/// Calibrates geometrically until one batch exceeds ~1/10 of the
/// budget, then measures one batch sized to fill the budget. `f`'s
/// result is sunk with [`std::hint::black_box`]; keep per-iteration
/// state inside the closure.
pub fn bench<R>(name: &str, mut f: impl FnMut() -> R) -> Measurement {
    let bench_start = Instant::now();
    // Calibrate: find an iteration count worth ~20 ms.
    let mut iters = 1u64;
    let per_iter = loop {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        let elapsed = start.elapsed();
        if elapsed >= BUDGET / 10 {
            break elapsed.as_secs_f64() / iters as f64;
        }
        iters = iters.saturating_mul(4);
    };
    // Measure: five batches, keep the fastest. The minimum is the
    // standard noise-robust estimator on shared machines — scheduler
    // preemption and frequency dips only ever inflate a batch.
    const BATCHES: u32 = 5;
    let iters = ((BUDGET.as_secs_f64() / per_iter / BATCHES as f64) as u64).max(1);
    let mut best = f64::INFINITY;
    for _ in 0..BATCHES {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        best = best.min(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    let m = Measurement {
        name: name.to_string(),
        ns_per_iter: best,
        iters,
        elapsed_s: bench_start.elapsed().as_secs_f64(),
    };
    println!(
        "{:<40} {:>12.1} ns/iter {:>16.0} iters/s ({} iters)",
        m.name,
        m.ns_per_iter,
        m.per_second(),
        m.iters
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_positive() {
        let mut acc = 0u64;
        let m = bench("spin", || {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            acc
        });
        assert!(m.ns_per_iter > 0.0);
        assert!(m.iters >= 1);
        assert!(m.per_second() > 0.0);
        assert!(m.elapsed_s > 0.0);
    }

    #[test]
    fn speedup_is_a_ratio_of_costs() {
        let fast = Measurement { name: "f".into(), ns_per_iter: 10.0, iters: 1, elapsed_s: 0.1 };
        let slow = Measurement { name: "s".into(), ns_per_iter: 80.0, iters: 1, elapsed_s: 0.1 };
        assert!((fast.speedup_over(&slow) - 8.0).abs() < 1e-12);
    }
}
