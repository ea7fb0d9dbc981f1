//! Figure 10 — comparison of the two Lelantus encodings.
//!
//! (a) Minor-counter overflow rate per workload for Lelantus (6-bit
//!     CoW minors) and Lelantus-CoW (7-bit minors kept).
//! (b) CoW-cache miss rate (Lelantus-CoW's supplementary metadata).
//! (c/d) Page-access footprint of CoW pages: the baseline's copy
//!     touches every line of the page before use; Lelantus touches
//!     only the lines the application writes.

use lelantus_bench::{fig9_workloads, fmt_pct, print_table, run_workload, scale_from_env};
use lelantus_os::CowStrategy;
use lelantus_sim::{SimConfig, System};
use lelantus_types::PageSize;
use lelantus_workloads::hotspot::Hotspot;

fn main() {
    let scale = scale_from_env();
    let page = PageSize::Regular4K;

    // (a) + (b): overflow and CoW-cache miss rates per workload.
    let mut rows = Vec::new();
    for wl in fig9_workloads(scale) {
        if wl.name() == "non-copy" {
            continue;
        }
        let lel = run_workload(wl.as_ref(), CowStrategy::Lelantus, page);
        let cow = run_workload(wl.as_ref(), CowStrategy::LelantusCow, page);
        rows.push(vec![
            wl.name().to_string(),
            format!("{:.5}%", lel.measured.controller.overflow_rate() * 100.0),
            format!("{:.5}%", cow.measured.controller.overflow_rate() * 100.0),
            fmt_pct(cow.measured.cow_cache.miss_rate()),
        ]);
    }
    // The hotspot stress makes the overflow difference visible: write
    // traffic in the suite rarely updates one line 60+ times (§V-C),
    // so suite rates sit at ~0 like the paper's ~1e-4.
    {
        let hs = Hotspot::default();
        let lel = run_workload(&hs, CowStrategy::Lelantus, page);
        let cow = run_workload(&hs, CowStrategy::LelantusCow, page);
        rows.push(vec![
            "hotspot (stress)".into(),
            format!("{:.5}%", lel.measured.controller.overflow_rate() * 100.0),
            format!("{:.5}%", cow.measured.controller.overflow_rate() * 100.0),
            fmt_pct(cow.measured.cow_cache.miss_rate()),
        ]);
    }
    print_table(
        "Figure 10a/b: minor-counter overflow rate and CoW-cache miss rate",
        &["workload", "overflow (Lelantus)", "overflow (Lelantus-CoW)", "CoW-cache miss (L-CoW)"],
        &rows,
    );

    // (c)/(d): footprint of CoW pages with writes engaged — the
    // forkbench measured phase inlined so setup traffic can be
    // excluded from the bitmaps.
    let total = scale.alloc_bytes();
    let mut footprint_rows = Vec::new();
    for strategy in [CowStrategy::Baseline, CowStrategy::Lelantus] {
        // Footprints are part of the spatial view.
        let mut sys = System::new(SimConfig::new(strategy, page).with_heatmap());
        let parent = sys.spawn_init();
        let va = sys.mmap(parent, total).unwrap();
        sys.write_pattern(parent, va, total as usize, 0xA5).unwrap();
        let child = sys.fork(parent).unwrap();
        sys.finish();
        sys.reset_footprint();
        for p in 0..total / 4096 {
            // 32 spread lines per page, as in Fig 9's forkbench.
            for l in (0..64u64).step_by(2) {
                sys.write_bytes(child, va + p * 4096 + l * 64, &[0x5A]).unwrap();
            }
        }
        sys.finish();
        let fp = sys.footprint().expect("the heatmap is on");
        // Regions written by CoW activity: mean distinct lines written.
        let mut touched = Vec::new();
        for (_region, f) in fp.iter() {
            if f.lines_written() > 0 {
                touched.push(f.lines_written());
            }
        }
        touched.sort_unstable();
        let mean: f64 =
            touched.iter().map(|&v| v as f64).sum::<f64>() / touched.len().max(1) as f64;
        let p50 = touched.get(touched.len() / 2).copied().unwrap_or(0);
        footprint_rows.push(vec![
            strategy.to_string(),
            format!("{mean:.1}"),
            p50.to_string(),
            format!("{:.1}%", fp.mean_write_density() * 100.0),
        ]);
    }
    print_table(
        "Figure 10c/d: lines physically written per touched 4KB region (forkbench, 32 lines updated/page)",
        &["scheme", "mean lines written", "median", "write density"],
        &footprint_rows,
    );
    println!(
        "\npaper (Fig 10): overflow rates are ~1e-4 or lower for both schemes;\n\
         the baseline's footprint covers whole pages (copy-then-write) while\n\
         Lelantus touches only the scattered lines the application writes."
    );
}
