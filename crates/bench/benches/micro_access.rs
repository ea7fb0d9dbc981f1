//! Micro-benchmarks for the access engine: the batched run-cached
//! driver's cost per line, and snapshot-forked sweep measurement
//! against warm-up replay.
//!
//! This target is also a performance gate: it *asserts* that forking a
//! sweep point from a warm snapshot is at least 3x faster than
//! replaying the warm-up — the mechanism behind the fig11 sweep's
//! wall-clock win. The fork is checked for bit-identical simulated
//! metrics before timing is trusted (the equivalence proper is
//! `tests/access_fastpath.rs`).

use lelantus_bench::results::{timed_emit, Record};
use lelantus_bench::scale_from_env;
use lelantus_os::CowStrategy;
use lelantus_sim::{SimConfig, System};
use lelantus_types::{PageSize, LINE_BYTES};
use lelantus_workloads::forkbench::Forkbench;
use lelantus_workloads::{Workload, WorkloadRun};
use std::time::Instant;

/// Repetitions per timing; the minimum is the noise-robust estimator
/// (preemption only ever inflates a run).
const REPS: usize = 3;

fn min_time<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..REPS {
        let start = Instant::now();
        let r = f();
        best = best.min(start.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best, out.expect("REPS >= 1"))
}

fn config() -> SimConfig {
    SimConfig::new(CowStrategy::Lelantus, PageSize::Regular4K)
}

fn main() {
    let scale = scale_from_env();
    timed_emit("micro_access", || {
        let mut records = Vec::new();
        let wl = Forkbench { total_bytes: scale.alloc_bytes(), bytes_per_page: None };
        // Every line the full run touches: the setup pass initializes
        // the whole allocation, the measured pass updates 32/page.
        let total_lines = wl.total_bytes / LINE_BYTES as u64
            + (wl.total_bytes / PageSize::Regular4K.bytes()) * 32;

        // --- batched driver ------------------------------------------
        let (fast_s, _) = min_time(|| {
            let mut sys = System::new(config());
            wl.run(&mut sys).unwrap()
        });
        let ns_per_line = fast_s * 1e9 / total_lines as f64;
        println!(
            "driver (forkbench, {} MB): batched {ns_per_line:.1} ns/line",
            wl.total_bytes >> 20
        );
        records.push(Record::new("driver_batched", ns_per_line, "ns/line").timed(fast_s));

        // --- snapshot-fork vs warm-up replay (one sweep point) ---------
        // The fig11 shape: one sweep point (b = 1) measured either by
        // replaying setup + measure from scratch, or by forking the
        // measured phase from a snapshot of the shared warm state.
        let point = Forkbench { total_bytes: wl.total_bytes, bytes_per_page: Some(1) };
        let (replay_s, replay_run) = min_time(|| {
            let mut sys = System::new(config());
            point.run(&mut sys).unwrap()
        });
        let mut warm_sys = System::new(config());
        let state = point.setup(&mut warm_sys).unwrap();
        let snapshot = warm_sys.snapshot();
        let (fork_s, fork_run): (f64, WorkloadRun) = min_time(|| {
            let mut sys = snapshot.fork();
            point.measure(&mut sys, &state).unwrap()
        });
        assert_eq!(
            replay_run.measured, fork_run.measured,
            "a snapshot fork must measure identically to a fresh replay"
        );
        let fork_speedup = replay_s / fork_s;
        println!(
            "sweep point (b=1): replay {:.3} s, snapshot-fork {:.3} s ({:.2}x)",
            replay_s, fork_s, fork_speedup
        );
        records.push(Record::new("sweep_point_replay", replay_s, "s").timed(replay_s));
        records.push(Record::new("sweep_point_snapshot_fork", fork_s, "s").timed(fork_s));
        records.push(Record::new("speedup/snapshot_fork", fork_speedup, "x"));

        // --- the fast-path claim ---------------------------------------
        assert!(
            fork_speedup >= 3.0,
            "snapshot-fork must be >=3x a warm-up replay (got {fork_speedup:.2}x)"
        );
        records
    });
}
