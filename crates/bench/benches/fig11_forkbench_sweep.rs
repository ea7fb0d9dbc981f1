//! Figure 11 — forkbench sensitivity sweep.
//!
//! Varies the number of bytes the child updates per page (evenly
//! spread over cachelines) for both page sizes, reporting the speedup
//! of Lelantus/Lelantus-CoW over the baseline (a/c) and their NVM
//! writes as a fraction of the baseline (b/d). The paper's knee sits
//! where updated bytes reach the line count of the page — beyond it
//! every line is written anyway and the lazy copy saves only the
//! read-side, converging toward ~1.1x.
//!
//! The unmeasured warm-up (initialize + fork) is identical for every
//! sweep point of a scheme, so it runs once per scheme and every point
//! forks the measured phase from a [`Snapshot`] of the warm state
//! instead of replaying it. Warm-ups and forked measures are both
//! scheduled across cores via `run_cells`.

use lelantus_bench::results::{timed_emit, Record};
use lelantus_bench::{fmt_pct, fmt_x, print_table, run_cells, scale_from_env};
use lelantus_os::CowStrategy;
use lelantus_sim::{SimConfig, System};
use lelantus_types::PageSize;
use lelantus_workloads::forkbench::Forkbench;

fn sweep_points(page: PageSize) -> Vec<u64> {
    match page {
        PageSize::Regular4K => vec![1, 8, 32, 64, 256, 1024, 4096],
        PageSize::Huge2M => {
            vec![1, 64, 1024, 32 << 10, 128 << 10, 512 << 10, 2 << 20]
        }
    }
}

fn main() {
    let scale = scale_from_env();
    timed_emit("fig11_forkbench_sweep", || {
        let mut records = Vec::new();
        let strategies = [CowStrategy::Baseline, CowStrategy::Lelantus, CowStrategy::LelantusCow];
        for page in [PageSize::Regular4K, PageSize::Huge2M] {
            let points = sweep_points(page);
            let total_bytes = scale.alloc_bytes().max(page.bytes() * 2);
            // One warm-up per scheme: the setup phase does not depend
            // on `bytes_per_page`, so its snapshot seeds every point.
            let warm = run_cells(strategies.len(), |strat_i| {
                let wl = Forkbench { total_bytes, bytes_per_page: None };
                let mut sys = System::new(SimConfig::new(strategies[strat_i], page));
                let state = wl.setup(&mut sys).expect("forkbench setup");
                (sys.snapshot(), state)
            });
            let runs = run_cells(points.len() * strategies.len(), |i| {
                let (point_i, strat_i) = (i / strategies.len(), i % strategies.len());
                let (snapshot, state) = &warm[strat_i];
                let wl = Forkbench { total_bytes, bytes_per_page: Some(points[point_i]) };
                let mut sys = snapshot.fork();
                wl.measure(&mut sys, state).expect("forkbench measure")
            });
            let mut rows = Vec::new();
            for (point_i, bytes) in points.iter().enumerate() {
                let cell = |strat_i: usize| &runs[point_i * strategies.len() + strat_i];
                let (base, lel, cow) = (cell(0), cell(1), cell(2));
                let lel_speedup = lel.measured.speedup_vs(&base.measured);
                let cow_speedup = cow.measured.speedup_vs(&base.measured);
                rows.push(vec![
                    bytes.to_string(),
                    fmt_x(lel_speedup),
                    fmt_x(cow_speedup),
                    fmt_pct(lel.measured.write_fraction_vs(&base.measured)),
                    fmt_pct(cow.measured.write_fraction_vs(&base.measured)),
                ]);
                records.push(Record::with_scheme(
                    format!("speedup/{page}/{bytes}B_per_page"),
                    "Lelantus",
                    lel_speedup,
                    "x",
                ));
            }
            print_table(
                &format!("Figure 11 ({page} pages): forkbench sweep over updated bytes/page"),
                &[
                    "bytes/page",
                    "speedup Lelantus",
                    "speedup L-CoW",
                    "writes Lelantus",
                    "writes L-CoW",
                ],
                &rows,
            );
        }
        println!(
            "\npaper (Fig 11): 3.33x (4KB) and 67.53x (2MB) when one byte is updated,\n\
             decaying to ~1.11x/1.10x at whole-page updates; writes drop to\n\
             53.45%-14.14% (4KB) and 50.76%-0.20% (2MB); knee at 64 bytes (4KB)\n\
             and 32KB (2MB) where every cacheline becomes dirty."
        );
        records
    });
}
