//! Micro-benchmark + CI gate for cross-cell parallelism: `run_cells`
//! fans many independent simulations (one fig11 sweep cell each)
//! across host cores.
//!
//! The fanned-out sweep is checked for bit-identical simulated results
//! against the single-thread order before any timing is trusted. On
//! hosts with at least 8 cores this target *asserts* that a fig11-scale
//! sweep fanned across cores is at least 4x faster than the same sweep
//! pinned to one thread — the wall-clock claim behind the parallel
//! harness. On narrower hosts the speedup is still measured and
//! recorded, but the gate does not bite (a 2-core runner cannot hit
//! 4x).

use lelantus_bench::results::{timed_emit, Record};
use lelantus_bench::{run_cells, sim_config, Scale};
use lelantus_os::CowStrategy;
use lelantus_sim::System;
use lelantus_types::PageSize;
use lelantus_workloads::forkbench::Forkbench;
use lelantus_workloads::Workload;
use std::time::Instant;

/// Runs the fig11-scale sweep — full forkbench replays over (updated
/// bytes/page × scheme) — through `run_cells` and returns each cell's
/// simulated metrics in index order. Cells are homogeneous full
/// replays so the fan-out load-balances; `LELANTUS_THREADS` (read by
/// `run_cells`) decides the width.
fn run_sweep(total_bytes: u64) -> Vec<lelantus_sim::SimMetrics> {
    const POINTS: [u64; 6] = [1, 8, 64, 256, 1024, 4096];
    let strategies = [CowStrategy::Baseline, CowStrategy::Lelantus, CowStrategy::LelantusCow];
    run_cells(POINTS.len() * strategies.len(), |i| {
        let (point_i, strat_i) = (i / strategies.len(), i % strategies.len());
        let wl = Forkbench { total_bytes, bytes_per_page: Some(POINTS[point_i]) };
        let mut sys = System::new(sim_config(strategies[strat_i], PageSize::Regular4K));
        wl.run(&mut sys).expect("forkbench").measured
    })
}

fn main() {
    let scale = Scale::from_env();
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    timed_emit("micro_parallel", || {
        let mut records = Vec::new();

        // --- fig11-scale sweep: one thread vs all cores ----------------
        // `run_cells` reads `LELANTUS_THREADS`; pin it to 1 for the
        // serial measurement, clear it for the all-cores one, and put
        // the caller's value back afterwards.
        let caller_threads = std::env::var("LELANTUS_THREADS").ok();
        let total_bytes = scale.alloc_bytes();
        std::env::set_var("LELANTUS_THREADS", "1");
        let sweep_serial_start = Instant::now();
        let sweep_serial = run_sweep(total_bytes);
        let sweep_serial_s = sweep_serial_start.elapsed().as_secs_f64();
        std::env::remove_var("LELANTUS_THREADS");
        let sweep_par_start = Instant::now();
        let sweep_par = run_sweep(total_bytes);
        let sweep_par_s = sweep_par_start.elapsed().as_secs_f64();
        match caller_threads {
            Some(v) => std::env::set_var("LELANTUS_THREADS", v),
            None => std::env::remove_var("LELANTUS_THREADS"),
        }
        assert_eq!(
            sweep_serial, sweep_par,
            "the fanned-out sweep must be bit-identical to the single-thread order"
        );
        let sweep_speedup = sweep_serial_s / sweep_par_s;
        println!(
            "fig11-scale sweep ({} cells, {cores} cores): 1 thread {:.3} s, \
             all cores {:.3} s ({:.2}x)",
            sweep_serial.len(),
            sweep_serial_s,
            sweep_par_s,
            sweep_speedup
        );
        records.push(Record::new("sweep_single_thread", sweep_serial_s, "s").timed(sweep_serial_s));
        records.push(Record::new("sweep_all_cores", sweep_par_s, "s").timed(sweep_par_s));
        records.push(Record::new("speedup/sweep_all_cores", sweep_speedup, "x"));

        // --- the parallel-harness claim --------------------------------
        // Only enforced where it is achievable: 4x needs >= 8 cores
        // (the sweep is embarrassingly parallel, so 8 cores leave
        // double headroom over the gate).
        if cores >= 8 {
            assert!(
                sweep_speedup >= 4.0,
                "a fig11-scale sweep on {cores} cores must beat one thread by >=4x \
                 (got {sweep_speedup:.2}x)"
            );
        } else {
            println!("gate skipped: {cores} host core(s) < 8, 4x is not achievable");
        }
        records
    });
}
