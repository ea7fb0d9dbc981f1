//! Figure 9 — speedup and write reduction on the application suite.
//!
//! Runs the six copy/initialization-intensive workloads (Table IV)
//! plus the non-copy probe under all four schemes, for 4 KB and 2 MB
//! pages, and prints (a/c) speedup over the baseline and (b/d) NVM
//! writes as a fraction of the baseline — the four panels of Fig 9.
//!
//! The 56 (workload × scheme × page) simulations are independent, so
//! they fan out across cores via `run_matrix`; set
//! `LELANTUS_THREADS=1` to force the serial order (same numbers).

use lelantus_bench::results::{timed_emit, Record};
use lelantus_bench::{fig9_workloads, fmt_pct, fmt_x, print_table, run_matrix, scale_from_env};
use lelantus_os::CowStrategy;
use lelantus_types::PageSize;

fn main() {
    let scale = scale_from_env();
    timed_emit("fig09_applications", || {
        let strategies = [
            CowStrategy::Baseline,
            CowStrategy::SilentShredder,
            CowStrategy::Lelantus,
            CowStrategy::LelantusCow,
        ];
        let pages = [PageSize::Regular4K, PageSize::Huge2M];
        let matrix = run_matrix(&|| fig9_workloads(scale), &strategies, &pages);

        let mut records = Vec::new();
        for (p, page) in pages.iter().enumerate() {
            let mut speedup_rows = Vec::new();
            let mut write_rows = Vec::new();
            let mut speedup_sums = [0.0f64; 3];
            let mut write_sums = [0.0f64; 3];
            let mut counted = 0usize;
            for w in 0..matrix.workload_count() {
                let base = &matrix.get(p, w, 0).run;
                let name = matrix.get(p, w, 0).workload.clone();
                let mut speedups = [0.0f64; 3];
                let mut writes = [0.0f64; 3];
                for s in 0..3 {
                    let cell = matrix.get(p, w, s + 1);
                    let run = &cell.run;
                    speedups[s] = run.measured.speedup_vs(&base.measured);
                    writes[s] = run.measured.write_fraction_vs(&base.measured);
                    records.push(
                        Record::with_scheme(
                            format!("speedup/{page}/{name}"),
                            strategies[s + 1].to_string(),
                            speedups[s],
                            "x",
                        )
                        .timed(cell.elapsed_s),
                    );
                }
                speedup_rows.push(vec![
                    name.clone(),
                    fmt_x(speedups[0]),
                    fmt_x(speedups[1]),
                    fmt_x(speedups[2]),
                ]);
                write_rows.push(vec![
                    name.clone(),
                    fmt_pct(writes[0]),
                    fmt_pct(writes[1]),
                    fmt_pct(writes[2]),
                ]);
                if name != "non-copy" {
                    for i in 0..3 {
                        speedup_sums[i] += speedups[i];
                        write_sums[i] += writes[i];
                    }
                    counted += 1;
                }
            }
            let n = counted as f64;
            speedup_rows.push(vec![
                "average".into(),
                fmt_x(speedup_sums[0] / n),
                fmt_x(speedup_sums[1] / n),
                fmt_x(speedup_sums[2] / n),
            ]);
            write_rows.push(vec![
                "average".into(),
                fmt_pct(write_sums[0] / n),
                fmt_pct(write_sums[1] / n),
                fmt_pct(write_sums[2] / n),
            ]);
            for (s, label) in ["SilentShredder", "Lelantus", "Lelantus-CoW"].iter().enumerate() {
                records.push(Record::with_scheme(
                    format!("speedup/{page}/average"),
                    *label,
                    speedup_sums[s] / n,
                    "x",
                ));
                records.push(Record::with_scheme(
                    format!("write_fraction/{page}/average"),
                    *label,
                    write_sums[s] / n,
                    "frac",
                ));
            }
            print_table(
                &format!("Figure 9 ({page} pages): speedup over baseline"),
                &["workload", "SilentShredder", "Lelantus", "Lelantus-CoW"],
                &speedup_rows,
            );
            print_table(
                &format!("Figure 9 ({page} pages): NVM writes vs baseline (lower is better)"),
                &["workload", "SilentShredder", "Lelantus", "Lelantus-CoW"],
                &write_rows,
            );
        }
        println!(
            "\npaper (Fig 9): average Lelantus speedup 2.25x (4KB) / 10.57x (2MB);\n\
             average writes reduced to 42.78% (4KB) / 29.65% (2MB); Silent Shredder\n\
             averages only 1.20x; non-copy shows ~1.0x for every scheme."
        );
        records
    });
}
