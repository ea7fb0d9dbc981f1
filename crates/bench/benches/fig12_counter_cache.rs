//! Figure 12 — impact of the counter-cache write strategy.
//!
//! Runs the Redis snapshot workload with the encryption-counter cache
//! in write-through (WT) versus battery-backed write-back (WB) mode,
//! under the baseline and Lelantus, for both page sizes. Reported:
//! measured execution time and the Lelantus speedup within each write
//! strategy (the paper's bars + lines).

use lelantus_bench::{fmt_x, print_table, run_workload_with, scale_from_env, Scale};
use lelantus_metadata::counter_cache::WritePolicy;
use lelantus_os::CowStrategy;
use lelantus_sim::SimConfig;
use lelantus_types::PageSize;
use lelantus_workloads::rediswl::Redis;

fn main() {
    let scale = scale_from_env();
    let wl = match scale {
        Scale::Small => Redis::small(),
        Scale::Medium => Redis { pairs: 20_000, operations: 4_000, ..Redis::default() },
        Scale::Paper => Redis::default(),
    };
    let mut rows = Vec::new();
    for page in [PageSize::Regular4K, PageSize::Huge2M] {
        for policy in [WritePolicy::WriteThrough, WritePolicy::WriteBack] {
            let base = run_workload_with(
                &wl,
                SimConfig::new(CowStrategy::Baseline, page).with_counter_write_policy(policy),
            );
            let lel = run_workload_with(
                &wl,
                SimConfig::new(CowStrategy::Lelantus, page).with_counter_write_policy(policy),
            );
            rows.push(vec![
                page.to_string(),
                format!("{policy:?}"),
                base.measured.cycles.as_u64().to_string(),
                lel.measured.cycles.as_u64().to_string(),
                fmt_x(lel.measured.speedup_vs(&base.measured)),
            ]);
        }
    }
    print_table(
        "Figure 12: counter-cache write strategy (redis)",
        &["pages", "policy", "baseline cycles", "Lelantus cycles", "Lelantus speedup"],
        &rows,
    );
    println!(
        "\npaper (Fig 12): with regular pages Lelantus gains 2.07x (WT) and 3.16x (WB);\n\
         with huge pages 5.83x (WT) and 20.94x (WB) — write-back counter caching\n\
         compounds with Lelantus because counter updates stay on-chip."
    );
}
