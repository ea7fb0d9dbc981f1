//! Ablation study of the design choices DESIGN.md calls out.
//!
//! Not a paper artifact — this quantifies, on our reproduction, how
//! much each mechanism contributes:
//!
//! * §III-E **chain shortening** (fork-of-fork chains record the
//!   grandparent) — measured on a fork-chain workload,
//! * **counter-cache capacity** (Table III picks 256 KB),
//! * **write-queue capacity** (posted writes vs write stalls),
//! * **data-MAC integrity protection** (the substrate's <2 % claim),
//! * **MMIO command latency** (the cost model for `page_copy`).
//!
//! The capacity sweeps (counter cache, write queue) share one warm-up
//! per configuration: forkbench's setup phase is independent of the
//! update size, so each capacity warms once, snapshots, and forks the
//! measured phase for every `bytes_per_page` point. All sections fan
//! their independent simulations across cores via `run_cells`.

use lelantus_bench::results::{timed_emit, Record};
use lelantus_bench::{fmt_x, print_table, run_cells, scale_from_env};
use lelantus_os::CowStrategy;
use lelantus_sim::{SimConfig, System};
use lelantus_types::{Cycles, PageSize};
use lelantus_workloads::forkbench::Forkbench;
use lelantus_workloads::Workload;

/// Fork-of-fork chain over one huge page: each generation forks and
/// writes a single byte, which copies all 512 regions of the page but
/// modifies only one line — so 511 regions per generation are exactly
/// the "unmodified CoW page" case §III-E shortens. Without shortening,
/// the leaf's reads resolve through every ancestor.
fn fork_chain_cycles(config: SimConfig, generations: usize) -> Cycles {
    let mut sys = System::new(config);
    let root = sys.spawn_init();
    let va = sys.mmap(root, 2 << 20).unwrap();
    sys.write_pattern(root, va, 2 << 20, 0x44).unwrap();
    let mut cur = root;
    for _ in 0..generations {
        cur = sys.fork(cur).unwrap();
        // One tiny write: the whole huge page is copied (512 region
        // commands) but only one region is modified.
        sys.write_bytes(cur, va, &[1]).unwrap();
    }
    sys.finish();
    let before = sys.now();
    // The leaf reads across the huge page: untouched lines resolve
    // through the chain (1 hop shortened, `generations` hops not).
    for off in (4096..(2u64 << 20)).step_by(256) {
        sys.read_bytes(cur, va + off, 8).unwrap();
    }
    sys.finish();
    sys.now() - before
}

/// The `bytes_per_page` points each capacity sweep measures from one
/// shared warm snapshot.
const SWEEP_POINTS: [u64; 3] = [1, 32, 256];

fn main() {
    let scale = scale_from_env();
    let page = PageSize::Regular4K;
    timed_emit("ablation_design", || {
        let mut records = Vec::new();

        // 1. Chain shortening (two independent simulations).
        let chain = run_cells(2, |i| {
            let mut cfg =
                SimConfig::new(CowStrategy::Lelantus, PageSize::Huge2M).with_phys_bytes(64 << 20);
            cfg.controller.chain_shortening = i == 0;
            fork_chain_cycles(cfg, 6).as_u64()
        });
        let (on, off) = (chain[0], chain[1]);
        let benefit = off as f64 / on as f64;
        print_table(
            "Ablation: recursive-chain shortening (6-deep huge-page fork chain)",
            &["chain shortening", "leaf scan cycles"],
            &[
                vec!["on (§III-E)".into(), on.to_string()],
                vec!["off".into(), off.to_string()],
                vec!["benefit".into(), fmt_x(benefit)],
            ],
        );
        records.push(Record::new("chain_shortening_benefit", benefit, "x"));

        // 2. Counter-cache capacity: one warm-up per capacity, every
        // update-size point forked from its snapshot.
        let setup_wl = Forkbench { total_bytes: scale.alloc_bytes(), bytes_per_page: None };
        let capacities = [256usize, 1024, 4096, 16384];
        let warm = run_cells(capacities.len(), |ci| {
            let mut cfg = SimConfig::new(CowStrategy::Lelantus, page);
            cfg.controller.counter_cache.entries = capacities[ci];
            let mut sys = System::new(cfg);
            let state = setup_wl.setup(&mut sys).expect("forkbench setup");
            (sys.snapshot(), state)
        });
        let runs = run_cells(capacities.len() * SWEEP_POINTS.len(), |i| {
            let (ci, pi) = (i / SWEEP_POINTS.len(), i % SWEEP_POINTS.len());
            let (snapshot, state) = &warm[ci];
            let wl = Forkbench {
                total_bytes: scale.alloc_bytes(),
                bytes_per_page: Some(SWEEP_POINTS[pi]),
            };
            let mut sys = snapshot.fork();
            wl.measure(&mut sys, state).expect("forkbench measure")
        });
        let mut rows = Vec::new();
        for (ci, entries) in capacities.iter().enumerate() {
            let cell = |pi: usize| &runs[ci * SWEEP_POINTS.len() + pi];
            let b32 = cell(1);
            rows.push(vec![
                format!("{} ({} KB)", entries, entries * 64 / 1024),
                cell(0).measured.cycles.as_u64().to_string(),
                b32.measured.cycles.as_u64().to_string(),
                cell(2).measured.cycles.as_u64().to_string(),
                format!("{:.2}%", b32.measured.counter_cache.miss_rate() * 100.0),
            ]);
            records.push(Record::new(
                format!("counter_cache/{entries}_entries/miss_rate_b32"),
                b32.measured.counter_cache.miss_rate(),
                "fraction",
            ));
        }
        print_table(
            "Ablation: counter-cache capacity (forkbench, snapshot-forked sweep)",
            &["entries", "cycles b=1", "cycles b=32", "cycles b=256", "miss rate b=32"],
            &rows,
        );

        // 3. Write-queue capacity: same shared-warm-up shape on the
        // baseline scheme.
        let queue_caps = [4usize, 16, 64, 256];
        let warm = run_cells(queue_caps.len(), |qi| {
            let mut cfg = SimConfig::new(CowStrategy::Baseline, page);
            cfg.controller.nvm.write_queue_capacity = queue_caps[qi];
            let mut sys = System::new(cfg);
            let state = setup_wl.setup(&mut sys).expect("forkbench setup");
            (sys.snapshot(), state)
        });
        let runs = run_cells(queue_caps.len() * SWEEP_POINTS.len(), |i| {
            let (qi, pi) = (i / SWEEP_POINTS.len(), i % SWEEP_POINTS.len());
            let (snapshot, state) = &warm[qi];
            let wl = Forkbench {
                total_bytes: scale.alloc_bytes(),
                bytes_per_page: Some(SWEEP_POINTS[pi]),
            };
            let mut sys = snapshot.fork();
            wl.measure(&mut sys, state).expect("forkbench measure")
        });
        let mut rows = Vec::new();
        for (qi, capacity) in queue_caps.iter().enumerate() {
            let cell = |pi: usize| &runs[qi * SWEEP_POINTS.len() + pi];
            rows.push(vec![
                capacity.to_string(),
                cell(0).measured.cycles.as_u64().to_string(),
                cell(1).measured.cycles.as_u64().to_string(),
                cell(2).measured.cycles.as_u64().to_string(),
            ]);
        }
        print_table(
            "Ablation: NVM write-queue capacity (baseline forkbench, snapshot-forked sweep)",
            &["entries", "cycles b=1", "cycles b=32", "cycles b=256"],
            &rows,
        );

        // 4. Integrity machinery (data MACs + Merkle tree traffic): the
        // paper's substrate claims <2 % overhead for integrity
        // protection.
        let mac_runs = run_cells(2, |i| {
            let mut cfg = SimConfig::new(CowStrategy::Lelantus, page).with_phys_bytes(64 << 20);
            cfg.controller.data_macs = i == 0;
            let mut sys = System::new(cfg);
            lelantus_workloads::noncopy::NonCopy { total_bytes: 2 << 20 }.run(&mut sys).unwrap()
        });
        let (on, off) = (
            mac_runs[0].measured.cycles.as_u64() as f64,
            mac_runs[1].measured.cycles.as_u64() as f64,
        );
        let overhead = on / off - 1.0;
        print_table(
            "Ablation: data-MAC integrity protection (non-copy probe)",
            &["data MACs", "cycles", "NVM writes"],
            &[
                vec![
                    "on (default)".into(),
                    mac_runs[0].measured.cycles.as_u64().to_string(),
                    mac_runs[0].measured.nvm.line_writes.to_string(),
                ],
                vec![
                    "off".into(),
                    mac_runs[1].measured.cycles.as_u64().to_string(),
                    mac_runs[1].measured.nvm.line_writes.to_string(),
                ],
                vec!["overhead".into(), format!("{:.2}%", overhead * 100.0), String::new()],
            ],
        );
        records.push(Record::new("data_mac_overhead", overhead, "fraction"));

        // 5. MMIO command latency.
        let latencies = [10u64, 30, 100, 300];
        let latency_runs = run_cells(latencies.len(), |li| {
            let mut cfg = SimConfig::new(CowStrategy::Lelantus, PageSize::Huge2M);
            cfg.controller.cmd_latency = latencies[li];
            let mut sys = System::new(cfg);
            Forkbench { total_bytes: 4 << 20, bytes_per_page: Some(1) }.run(&mut sys).unwrap()
        });
        let mut rows = Vec::new();
        for (li, latency) in latencies.iter().enumerate() {
            let cycles = latency_runs[li].measured.cycles.as_u64();
            rows.push(vec![latency.to_string(), cycles.to_string()]);
            records.push(Record::new(format!("cmd_latency/{latency}"), cycles as f64, "cycles"));
        }
        print_table(
            "Ablation: MMIO command latency (huge-page forkbench, 512 commands per fault)",
            &["cmd latency (cycles)", "cycles"],
            &rows,
        );
        records
    });
}
