//! Table V — percentage of copy and initialization traffic.
//!
//! Under the baseline, every CoW break copies a whole page and every
//! demand-zero fault writes a whole page of zeros; this measures what
//! share of all NVM data traffic those bulk operations are, per
//! workload. The paper's point: the bigger this share, the bigger
//! Lelantus' win (§V-C). The per-workload runs fan out via
//! `run_cells`.

use lelantus_bench::results::{timed_emit, Record};
use lelantus_bench::{
    fig9_workloads, fmt_pct, print_table, run_cells, run_workload, scale_from_env,
};
use lelantus_os::CowStrategy;
use lelantus_types::PageSize;

fn main() {
    let scale = scale_from_env();
    timed_emit("table5_copy_traffic", || {
        let names: Vec<String> = fig9_workloads(scale)
            .iter()
            .map(|wl| wl.name().to_string())
            .filter(|n| n != "non-copy")
            .collect();
        let runs = run_cells(names.len(), |i| {
            let mut suite = fig9_workloads(scale);
            let pos =
                suite.iter().position(|wl| wl.name() == names[i]).expect("suite is deterministic");
            let wl = suite.swap_remove(pos);
            run_workload(wl.as_ref(), CowStrategy::Baseline, PageSize::Regular4K)
        });
        let mut rows = Vec::new();
        let mut records = Vec::new();
        for (name, run) in names.iter().zip(&runs) {
            let c = run.measured.controller;
            // Copy traffic: bulk-copied lines count a read + a write each;
            // init traffic: one write per zeroed line.
            let copy_init = 2 * c.bulk_copied_lines + c.bulk_zeroed_lines;
            let total = (c.logical_reads + c.logical_writes).max(1);
            let share = copy_init as f64 / total as f64;
            rows.push(vec![name.clone(), fmt_pct(share)]);
            records.push(Record::with_scheme(
                format!("copy_init_share/{name}"),
                "Baseline",
                share,
                "frac",
            ));
        }
        print_table(
            "Table V: share of copy + initialization traffic (baseline, 4KB pages)",
            &["workload", "copy/init traffic"],
            &rows,
        );
        println!(
            "\npaper (Table V): boot 51.96%, compile 46.32%, forkbench 82.77%,\n\
             redis 71.57%, mariadb 48.11%, shell 59.1%. The ordering (forkbench >\n\
             redis > shell > boot ~ mariadb ~ compile) is the shape to match."
        );
        records
    });
}
