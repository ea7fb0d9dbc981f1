//! Spatial-observatory invariants.
//!
//! The heat grid earns its keep with three properties:
//!
//! 1. **Zero perturbation** — enabling the heatmap changes no
//!    simulated number, no probe event, and no memory contents, on
//!    every workload, scheme and access engine.
//! 2. **Exact reconciliation** — every lane total equals the aggregate
//!    counter it shadows (the table in `HeatLane`'s docs); a spatial
//!    breakdown that drifts from the stats it decomposes is worse than
//!    none.
//! 3. **Algebra** — per-epoch deltas sum back to the full-run grid and
//!    per-layer grids merge order-independently, so every surface
//!    (merged grid, epoch series, crash re-baseline) shows the same
//!    heat.
//!
//! Plus the divergence explainer: a replay that leaves the recorded
//! trajectory must name the right region, library-level and through
//! the CLI.

use lelantus::os::CowStrategy;
use lelantus::sim::{
    explain_divergence, replay, EventKind, HeatGrid, HeatLane, ReplayError, RingProbe, SimConfig,
    SimMetrics, System, Trace, TraceHeader,
};
use lelantus::trace::TraceWriter;
use lelantus::types::PageSize;
use lelantus::workloads::small_suite;
use proptest::prelude::*;

const PAGE: u64 = 4096;
const PAGES: u64 = 64;

fn config(strategy: CowStrategy) -> SimConfig {
    SimConfig::new(strategy, PageSize::Regular4K).with_phys_bytes(16 << 20)
}

/// The deterministic scenario from `tests/observability.rs`: demand
/// zero, fork, CoW faults, redirected reads, reuse faults, flush.
fn drive<P: lelantus::sim::Probe>(sys: &mut System<P>) -> SimMetrics {
    let init = sys.spawn_init();
    let va = sys.mmap(init, PAGES * PAGE).unwrap();
    for i in 0..PAGES {
        sys.write_bytes(init, va + i * PAGE, &[i as u8; 64]).unwrap();
    }
    let child = sys.fork(init).unwrap();
    for i in 0..PAGES / 2 {
        sys.write_bytes(child, va + i * PAGE, &[0xAA; 64]).unwrap();
    }
    for i in 0..PAGES {
        sys.read_bytes(init, va + i * PAGE, 64).unwrap();
        sys.read_bytes(child, va + i * PAGE, 64).unwrap();
    }
    sys.exit(child).unwrap();
    for i in 0..PAGES {
        sys.write_bytes(init, va + i * PAGE, &[0xBB; 64]).unwrap();
    }
    sys.finish()
}

fn big_ring() -> RingProbe {
    RingProbe::new(1 << 20)
}

/// Cell-wise equality regardless of lane vector lengths (trailing
/// zeros are representation, not content).
fn assert_same_heat(a: &HeatGrid, b: &HeatGrid, ctx: &str) {
    for lane in HeatLane::ALL {
        let n = a.lane(lane).len().max(b.lane(lane).len()) as u64;
        for r in 0..n {
            assert_eq!(a.get(lane, r), b.get(lane, r), "{ctx}: {lane:?}@{r}");
        }
    }
}

#[test]
fn heatmap_is_off_by_default() {
    let mut sys = System::new(config(CowStrategy::Lelantus).with_epoch_interval(50_000));
    drive(&mut sys);
    assert!(sys.heatmap().is_none(), "no grid unless with_heatmap");
    assert!(sys.epochs().iter().all(|e| e.heat.is_none()), "no epoch heat unless with_heatmap");
}

/// Zero perturbation at event granularity: same metrics, same event
/// stream, same Merkle root, heat on vs off, for every scheme.
#[test]
fn heatmap_runs_are_bit_identical_to_off_runs() {
    for strategy in CowStrategy::all() {
        let ring_off = big_ring();
        let mut off = System::with_probe(config(strategy), ring_off.clone());
        let m_off = drive(&mut off);
        let ring_on = big_ring();
        let mut on = System::with_probe(config(strategy).with_heatmap(), ring_on.clone());
        let m_on = drive(&mut on);
        assert_eq!(m_off, m_on, "{strategy}: the heatmap perturbed the simulation");
        assert_eq!(
            ring_off.events(),
            ring_on.events(),
            "{strategy}: the heatmap perturbed the event stream"
        );
        assert_eq!(
            off.merkle_root(),
            on.merkle_root(),
            "{strategy}: the heatmap perturbed memory contents"
        );
        assert!(off.heatmap().is_none(), "disabled heatmap must stay absent");
        assert!(on.heatmap().unwrap().total() > 0, "{strategy}: enabled grid recorded nothing");
    }
}

/// Zero perturbation at suite scale: all six paper workloads, all four
/// schemes, batched and per-line (reference) access engines.
#[test]
fn heatmap_is_zero_perturbation_across_suite_and_engines() {
    for strategy in CowStrategy::all() {
        for wl in small_suite() {
            for per_line in [false, true] {
                let base = SimConfig::new(strategy, PageSize::Regular4K).with_phys_bytes(64 << 20);
                let base = if per_line { base.with_reference_access_path() } else { base };
                let mut off = System::new(base.clone());
                let r_off = wl.run(&mut off).unwrap();
                let mut on = System::new(base.with_heatmap());
                let r_on = wl.run(&mut on).unwrap();
                assert_eq!(
                    r_off.measured,
                    r_on.measured,
                    "{strategy}/{}/per_line={per_line}: the heatmap perturbed the run",
                    wl.name()
                );
                assert_eq!(
                    off.merkle_root(),
                    on.merkle_root(),
                    "{strategy}/{}/per_line={per_line}: the heatmap perturbed memory",
                    wl.name()
                );
                assert!(
                    on.heatmap().unwrap().total() > 0,
                    "{strategy}/{}/per_line={per_line}: empty grid",
                    wl.name()
                );
            }
        }
    }
}

/// The reconciliation table: every lane total equals the aggregate it
/// shadows, and the probe's per-kind event counts agree with the same
/// lanes.
#[test]
fn heat_lanes_reconcile_exactly_with_aggregates() {
    for strategy in CowStrategy::all() {
        let ring = big_ring();
        let mut sys = System::with_probe(config(strategy).with_heatmap(), ring.clone());
        drive(&mut sys);
        let m = sys.metrics();
        let g = sys.heatmap().unwrap();
        let lane = |l: HeatLane| g.lane_total(l);

        let faults: u64 = HeatLane::FAULTS.iter().map(|&l| lane(l)).sum();
        assert_eq!(faults, m.kernel.cow_faults + m.kernel.reuse_faults, "{strategy}: fault lanes");
        assert_eq!(lane(HeatLane::CowRedirect), m.controller.redirected_reads, "{strategy}");
        assert_eq!(lane(HeatLane::ImplicitCopy), m.controller.implicit_copies, "{strategy}");
        assert_eq!(lane(HeatLane::CounterFill), m.controller.counter_fetches, "{strategy}");
        assert_eq!(lane(HeatLane::CounterOverflow), m.controller.minor_overflows, "{strategy}");
        assert_eq!(lane(HeatLane::MacWrite), m.controller.mac_writebacks, "{strategy}");
        let merkle: u64 = HeatLane::MERKLE.iter().map(|&l| lane(l)).sum();
        assert_eq!(merkle, m.controller.merkle_fetches, "{strategy}: merkle lanes");
        assert_eq!(lane(HeatLane::BankRead), m.nvm.line_reads, "{strategy}");
        assert_eq!(lane(HeatLane::BankWrite), m.nvm.line_writes, "{strategy}");

        // The same lanes through the probe's eyes.
        let counts = ring.counts();
        assert_eq!(ring.dropped(), 0, "ring must hold the whole stream");
        assert_eq!(
            faults,
            counts[EventKind::COW_FAULT] + counts[EventKind::REUSE_FAULT],
            "{strategy}"
        );
        assert_eq!(lane(HeatLane::CowRedirect), counts[EventKind::REDIRECTED_READ], "{strategy}");
        assert_eq!(lane(HeatLane::ImplicitCopy), counts[EventKind::IMPLICIT_COPY], "{strategy}");
        assert_eq!(lane(HeatLane::CounterFill), counts[EventKind::COUNTER_FETCH], "{strategy}");
        assert_eq!(
            lane(HeatLane::CounterOverflow),
            counts[EventKind::COUNTER_OVERFLOW],
            "{strategy}"
        );

        // And the grid's own cross-checks.
        let lane_sum: u64 = HeatLane::ALL.iter().map(|&l| lane(l)).sum();
        assert_eq!(lane_sum, g.total(), "{strategy}: lane totals must partition the grand total");
        let region_sum: u64 = (0..g.regions() as u64).map(|r| g.region_total(r)).sum();
        assert_eq!(region_sum, g.total(), "{strategy}: region totals must partition it too");
    }
}

/// The epoch series' closure property: per-epoch heat deltas sum
/// cell-for-cell back to the final merged grid.
#[test]
fn epoch_heat_series_sums_to_final_grid() {
    let cfg = config(CowStrategy::Lelantus).with_epoch_interval(50_000).with_heatmap();
    let mut sys = System::new(cfg);
    drive(&mut sys);
    let full = sys.heatmap().unwrap();
    let epochs = sys.epochs();
    assert!(epochs.len() > 1, "expected several epochs, got {}", epochs.len());
    let mut acc = HeatGrid::new();
    for e in epochs {
        acc.merge(e.heat.as_deref().expect("with_heatmap epochs must carry heat"));
    }
    assert_same_heat(&acc, &full, "epoch heat series");
}

/// A mid-run crash re-baselines the heat series like every other
/// series: the crash interval is dropped, never double-counted, and
/// the grid itself keeps accumulating across the crash.
#[test]
fn crash_re_baselines_heat_series() {
    let mut sys =
        System::new(config(CowStrategy::Lelantus).with_epoch_interval(50_000).with_heatmap());
    let init = sys.spawn_init();
    let va = sys.mmap(init, PAGES * PAGE).unwrap();
    for i in 0..PAGES {
        sys.write_bytes(init, va + i * PAGE, &[i as u8; 64]).unwrap();
    }
    let child = sys.fork(init).unwrap();
    for i in 0..PAGES / 2 {
        sys.write_bytes(child, va + i * PAGE, &[0xAA; 64]).unwrap();
    }
    sys.crash_and_recover().unwrap();
    let survivor = sys.spawn_init();
    let va2 = sys.mmap(survivor, PAGES * PAGE).unwrap();
    for i in 0..PAGES {
        sys.write_bytes(survivor, va2 + i * PAGE, &[0xBB; 64]).unwrap();
    }
    sys.finish();
    let full = sys.heatmap().unwrap();
    assert!(full.total() > 0, "grid must keep accumulating across the crash");
    let epochs = sys.epochs();
    assert!(epochs.len() > 1, "expected several epochs, got {}", epochs.len());
    let mut acc = HeatGrid::new();
    for e in epochs {
        acc.merge(e.heat.as_deref().unwrap());
    }
    for lane in HeatLane::ALL {
        assert!(
            acc.lane_total(lane) <= full.lane_total(lane),
            "{lane:?}: epoch series double-counted the crash interval"
        );
    }
}

/// Authors a trace whose final mmap record carries a deliberately
/// wrong base, so replay diverges there. Returns the path, the
/// diverging record index, and the base the replaying machine will
/// actually produce.
fn write_divergent_trace(name: &str) -> (std::path::PathBuf, u64, u64) {
    // Ground truth from a machine with the same config the replay uses.
    let mut truth = System::new(config(CowStrategy::Lelantus));
    let p0 = truth.spawn_init();
    let b0 = truth.mmap(p0, 16 * PAGE).unwrap();
    for i in 0..16u64 {
        truth.write_bytes_nt(p0, b0 + i * PAGE, &[i as u8; 64]).unwrap();
    }
    let b1 = truth.mmap(p0, 16 * PAGE).unwrap();

    let dir = std::env::temp_dir().join("lelantus-heatmap-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    let header = TraceHeader { page_size: PageSize::Regular4K, phys_bytes: 16 << 20 };
    let mut w = TraceWriter::create(&path, header).expect("trace create");
    w.spawn_init(p0).unwrap();
    w.mmap(p0, 16 * PAGE, PageSize::Regular4K, b0.as_u64()).unwrap();
    for i in 0..16u64 {
        w.write_nt(p0, (b0 + i * PAGE).as_u64(), &[i as u8; 64]).unwrap();
    }
    // Record 18: the recorded base is off by one page.
    w.mmap(p0, 16 * PAGE, PageSize::Regular4K, b1.as_u64() + PAGE).unwrap();
    w.finish().unwrap();
    (path, 18, b1.as_u64())
}

#[test]
fn divergence_explainer_names_the_faulting_region() {
    let (path, record, got_base) = write_divergent_trace("diverge-lib.ltr");
    let trace = Trace::open(&path).expect("authored trace must validate");
    let mut sys = System::new(config(CowStrategy::Lelantus).with_heatmap());
    let err = replay(&mut sys, &trace).expect_err("the wrong-base record must diverge");
    match &err {
        ReplayError::Divergence { record: r, what, got, .. } => {
            assert_eq!(*r, record);
            assert_eq!(*what, "mmap base");
            assert_eq!(*got, got_base);
        }
        other => panic!("expected a divergence, got {other}"),
    }
    let report = explain_divergence(&mut sys, &trace, &err).expect("divergences must explain");
    let focus = got_base / PAGE;
    assert_eq!(report.record, record);
    assert_eq!(report.region, Some(focus), "the explainer must name the replayed frame");
    assert!(!report.recent.is_empty(), "the recent-record window must not be empty");
    let (last_idx, last_desc, _) = report.recent.last().unwrap();
    assert_eq!(*last_idx, record, "the window must end at the diverging record");
    assert!(last_desc.starts_with("mmap"), "the diverging record is an mmap: {last_desc}");
    assert!(report.hottest.len() > 1, "a heated run must report hottest regions");
    let text = report.to_string();
    assert!(text.contains(&format!("replay diverged at record {record}")), "{text}");
    assert!(text.contains(&format!("focus region {focus}")), "{text}");
    // A non-address divergence (pid, core, root) has no spatial anchor;
    // the explainer must say so rather than invent one.
    assert!(explain_divergence(&mut sys, &trace, &ReplayError::Recovery("x".into())).is_none());
}

/// The same failure through the CLI: exit code 19 and a stderr report
/// naming the frame.
#[test]
fn divergence_explainer_cli_smoke() {
    let (path, record, got_base) = write_divergent_trace("diverge-cli.ltr");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_lelantus"))
        .args(["run", "--trace", path.to_str().unwrap(), "--heatmap"])
        .output()
        .expect("spawn lelantus");
    assert_eq!(out.status.code(), Some(19), "divergence must exit 19");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(&format!("replay diverged at record {record}")), "{stderr}");
    assert!(stderr.contains(&format!("focus region {}", got_base / PAGE)), "{stderr}");
    assert!(stderr.contains("heat at focus"), "{stderr}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Merging per-layer grids is order-independent: any partition of
    /// any op sequence, merged forward or backward, yields the same
    /// grid, and the merged total is the op-count sum.
    #[test]
    fn prop_merge_is_order_independent(
        ops in prop::collection::vec(
            (0usize..HeatLane::COUNT, 0u64..512, 1u32..1000, 0usize..4), 1..200)
    ) {
        let mut grids = vec![HeatGrid::new(); 4];
        for &(lane, region, n, part) in &ops {
            grids[part].record_n(HeatLane::ALL[lane], region, n);
        }
        let mut fwd = HeatGrid::new();
        for g in &grids {
            fwd.merge(g);
        }
        let mut rev = HeatGrid::new();
        for g in grids.iter().rev() {
            rev.merge(g);
        }
        for lane in HeatLane::ALL {
            let span = fwd.lane(lane).len().max(rev.lane(lane).len()) as u64;
            for r in 0..span {
                prop_assert_eq!(fwd.get(lane, r), rev.get(lane, r));
            }
        }
        let want: u64 = ops.iter().map(|&(_, _, n, _)| n as u64).sum();
        prop_assert_eq!(fwd.total(), want);
    }

    /// Epoch algebra: cutting a history at arbitrary points and summing
    /// the `delta_since` slices recovers the full grid exactly.
    #[test]
    fn prop_epoch_deltas_partition_the_history(
        ops in prop::collection::vec((0usize..HeatLane::COUNT, 0u64..256, 1u32..64), 1..200),
        mut cuts in prop::collection::vec(0usize..200, 0..6)
    ) {
        cuts.sort_unstable();
        let mut grid = HeatGrid::new();
        let mut last = HeatGrid::new();
        let mut acc = HeatGrid::new();
        let mut next_cut = 0;
        for (i, &(lane, region, n)) in ops.iter().enumerate() {
            while next_cut < cuts.len() && cuts[next_cut] <= i {
                let d = grid.delta_since(&last);
                last = grid.clone();
                acc.merge(&d);
                next_cut += 1;
            }
            grid.record_n(HeatLane::ALL[lane], region, n);
        }
        acc.merge(&grid.delta_since(&last));
        for lane in HeatLane::ALL {
            let span = grid.lane(lane).len().max(acc.lane(lane).len()) as u64;
            for r in 0..span {
                prop_assert_eq!(acc.get(lane, r), grid.get(lane, r));
            }
        }
        // An unchanged lane's delta stays empty (no allocation).
        let quiet = grid.delta_since(&grid);
        prop_assert!(quiet.is_empty());
        for lane in HeatLane::ALL {
            prop_assert_eq!(quiet.lane(lane).len(), 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// End-to-end reconciliation under random drive: whatever mix of
    /// reads and writes two processes issue, the grid's lane totals
    /// agree with the probe's per-kind event counts.
    #[test]
    fn prop_grid_reconciles_with_probe_counts(
        ops in prop::collection::vec((0u64..24, any::<bool>()), 10..80),
        strategy_idx in 0usize..4
    ) {
        let strategy = CowStrategy::all()[strategy_idx];
        let ring = big_ring();
        let mut sys = System::with_probe(config(strategy).with_heatmap(), ring.clone());
        let init = sys.spawn_init();
        let va = sys.mmap(init, 24 * PAGE).unwrap();
        let child = sys.fork(init).unwrap();
        for &(page, write) in &ops {
            let pid = if page % 2 == 0 { init } else { child };
            if write {
                sys.write_bytes(pid, va + page * PAGE, &[page as u8; 64]).unwrap();
            } else {
                sys.read_bytes(pid, va + page * PAGE, 64).unwrap();
            }
        }
        sys.finish();
        let m = sys.metrics();
        let g = sys.heatmap().unwrap();
        let counts = ring.counts();
        prop_assert_eq!(ring.dropped(), 0);
        let faults: u64 = HeatLane::FAULTS.iter().map(|&l| g.lane_total(l)).sum();
        prop_assert_eq!(faults, counts[EventKind::COW_FAULT] + counts[EventKind::REUSE_FAULT]);
        prop_assert_eq!(g.lane_total(HeatLane::CowRedirect), counts[EventKind::REDIRECTED_READ]);
        prop_assert_eq!(g.lane_total(HeatLane::ImplicitCopy), counts[EventKind::IMPLICIT_COPY]);
        prop_assert_eq!(g.lane_total(HeatLane::CounterFill), counts[EventKind::COUNTER_FETCH]);
        prop_assert_eq!(
            g.lane_total(HeatLane::CounterOverflow),
            counts[EventKind::COUNTER_OVERFLOW]
        );
        let merkle: u64 = HeatLane::MERKLE.iter().map(|&l| g.lane_total(l)).sum();
        prop_assert_eq!(merkle, m.controller.merkle_fetches);
        prop_assert_eq!(g.lane_total(HeatLane::BankRead), m.nvm.line_reads);
        prop_assert_eq!(g.lane_total(HeatLane::BankWrite), m.nvm.line_writes);
    }
}
