//! Observability-layer invariants.
//!
//! Three properties keep the event view honest:
//!
//! 1. **Observer-effect freedom** — turning the event view on must
//!    not change a single simulated number: a run with it off must
//!    match it bit for bit.
//! 2. **Determinism** — two identical traced runs produce the same
//!    event stream, cycle stamps included.
//! 3. **Reconciliation** — per-event counts agree *exactly* with the
//!    aggregate counters the simulator already keeps; an event stream
//!    that drifts from the stats it narrates is worse than none.

use lelantus::os::CowStrategy;
use lelantus::sim::{
    CycleCategory, EpochSample, EventKind, FaultAction, HistKind, SimConfig, SimMetrics, System,
};
use lelantus::types::PageSize;
use lelantus::workloads::forkbench::Forkbench;
use lelantus::workloads::{small_suite, Workload};

const PAGE: u64 = 4096;
const PAGES: u64 = 64;

fn config(strategy: CowStrategy) -> SimConfig {
    SimConfig::new(strategy, PageSize::Regular4K).with_phys_bytes(16 << 20)
}

/// A deterministic scenario touching every traced subsystem: demand
/// zero, fork, CoW faults in the child, reads through lazy-copy
/// chains, reuse faults in the parent after the child exits, and a
/// final flush.
fn drive(sys: &mut System) -> SimMetrics {
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

/// Samples of `kind` in one epoch (0 when the epoch carries no
/// histograms).
fn hist_count(e: &EpochSample, kind: HistKind) -> u64 {
    e.hists.as_ref().map_or(0, |h| h.get(kind).count())
}

/// `cfg` with the event view on and a ring big enough that nothing
/// wraps, so event-level payloads (not just the per-kind counts) are
/// complete.
fn big_ring(cfg: SimConfig) -> SimConfig {
    cfg.with_events(1 << 20)
}

#[test]
fn recording_probe_changes_nothing_for_any_strategy() {
    for strategy in CowStrategy::all() {
        let untraced = drive(&mut System::new(config(strategy)));
        let mut sys = System::new(big_ring(config(strategy)));
        let traced = drive(&mut sys);
        let ring = sys.events().unwrap();
        assert_eq!(untraced, traced, "{strategy}: attaching a probe perturbed the simulation");
        assert!(ring.total() > 0, "{strategy}: traced run emitted nothing");
    }
}

#[test]
fn event_streams_are_deterministic() {
    let mut sys_a = System::new(big_ring(config(CowStrategy::Lelantus)));
    let mut sys_b = System::new(big_ring(config(CowStrategy::Lelantus)));
    let ma = drive(&mut sys_a);
    let mb = drive(&mut sys_b);
    let (a, b) = (sys_a.events().unwrap(), sys_b.events().unwrap());
    assert_eq!(ma, mb);
    assert_eq!(a.counts(), b.counts());
    assert_eq!(a.events(), b.events(), "event streams must be replayable");
}

#[test]
fn event_counts_reconcile_with_aggregates() {
    for strategy in CowStrategy::all() {
        let mut sys = System::new(big_ring(config(strategy)));
        drive(&mut sys);
        let m = sys.metrics();
        let ring = sys.events().unwrap();
        let counts = ring.counts();
        assert_eq!(ring.dropped(), 0, "ring must hold the whole stream for this test");

        // Kernel-side fault events.
        assert_eq!(counts[EventKind::COW_FAULT], m.kernel.cow_faults, "{strategy}");
        assert_eq!(counts[EventKind::REUSE_FAULT], m.kernel.reuse_faults, "{strategy}");
        assert_eq!(counts[EventKind::FORK], m.kernel.forks, "{strategy}");

        // Controller commands and datapath events.
        assert_eq!(counts[EventKind::CMD_PAGE_COPY], m.controller.cmd_page_copy, "{strategy}");
        assert_eq!(
            counts[EventKind::CMD_PAGE_PHYC],
            m.controller.cmd_page_phyc + m.controller.cmd_page_phyc_rejected,
            "{strategy}"
        );
        assert_eq!(counts[EventKind::CMD_PAGE_FREE], m.controller.cmd_page_free, "{strategy}");
        assert_eq!(counts[EventKind::CMD_PAGE_INIT], m.controller.cmd_page_init, "{strategy}");
        assert_eq!(counts[EventKind::REDIRECTED_READ], m.controller.redirected_reads, "{strategy}");
        assert_eq!(counts[EventKind::IMPLICIT_COPY], m.controller.implicit_copies, "{strategy}");
        assert_eq!(counts[EventKind::COUNTER_FETCH], m.controller.counter_fetches, "{strategy}");
        assert_eq!(
            counts[EventKind::COUNTER_WRITEBACK],
            m.controller.counter_writebacks,
            "{strategy}"
        );
        assert_eq!(counts[EventKind::COUNTER_OVERFLOW], m.controller.minor_overflows, "{strategy}");
        assert_eq!(counts[EventKind::COW_META_READ], m.controller.cow_meta_reads, "{strategy}");
        assert_eq!(counts[EventKind::COW_META_WRITE], m.controller.cow_meta_writes, "{strategy}");

        // NVM write queue: every admitted write is either merged or
        // eventually drained to the array, and the queue is empty
        // after `finish`.
        assert_eq!(
            counts[EventKind::QUEUE_ADMIT],
            m.nvm.line_writes + m.nvm.merged_writes,
            "{strategy}"
        );
        assert_eq!(counts[EventKind::QUEUE_DRAIN], m.nvm.line_writes, "{strategy}");

        // Event payloads: subsets and sums the per-kind counts can't see.
        let events = ring.events();
        let mut from_zero = 0;
        let mut early_reclaim = 0;
        let mut phyc_accepted = 0;
        let mut merged = 0;
        let mut merkle_nodes = 0;
        for e in &events {
            match e.kind {
                EventKind::CowFault { from_zero: true, .. } => from_zero += 1,
                EventKind::ReuseFault { early_reclaim: true, .. } => early_reclaim += 1,
                EventKind::CmdPagePhyc { accepted: true, .. } => phyc_accepted += 1,
                EventKind::QueueAdmit { merged: true, .. } => merged += 1,
                EventKind::MerkleFetch { nodes, .. } => merkle_nodes += nodes,
                _ => {}
            }
        }
        assert_eq!(from_zero, m.kernel.zero_faults, "{strategy}");
        // The kernel counts early-reclaim *walks*, including ones that
        // find no dependents and therefore report a plain reuse fault.
        assert!(early_reclaim <= m.kernel.early_reclaims, "{strategy}");
        assert_eq!(phyc_accepted, m.controller.cmd_page_phyc, "{strategy}");
        assert_eq!(merged, m.nvm.merged_writes, "{strategy}");
        assert_eq!(merkle_nodes, m.controller.merkle_fetches, "{strategy}");

        // Histogram sample counts shadow the same aggregates.
        let hists = ring.histograms();
        assert_eq!(
            hists.get(HistKind::FaultServiceCycles).count(),
            m.kernel.cow_faults + m.kernel.reuse_faults,
            "{strategy}"
        );
        assert_eq!(
            hists.get(HistKind::CopyChainDepth).count(),
            m.controller.redirected_reads,
            "{strategy}"
        );
        assert_eq!(
            hists.get(HistKind::WriteQueueDepth).count(),
            counts[EventKind::QUEUE_ADMIT],
            "{strategy}"
        );
        assert_eq!(
            hists.get(HistKind::CounterCacheOccupancy).count(),
            m.controller.counter_fetches,
            "{strategy}"
        );
    }
}

#[test]
fn epoch_series_sums_to_run_totals() {
    let mut sys = System::new(config(CowStrategy::Lelantus).with_epoch_interval(50_000));
    let end = drive(&mut sys);
    let epochs = sys.epochs();
    assert!(epochs.len() > 1, "expected several epochs, got {}", epochs.len());
    let mut writes = 0;
    let mut faults = 0;
    let mut cycles = 0;
    for e in epochs {
        writes += e.delta.nvm.line_writes;
        faults += e.delta.kernel.cow_faults;
        cycles += e.delta.cycles.as_u64();
    }
    assert_eq!(writes, end.nvm.line_writes);
    assert_eq!(faults, end.kernel.cow_faults);
    assert_eq!(cycles, end.cycles.as_u64());
    for pair in epochs.windows(2) {
        assert!(pair[0].end_cycle < pair[1].end_cycle, "epochs out of order");
    }
}

/// The ledger's defining invariant: every simulated cycle is charged
/// to exactly one category, on every workload and every scheme.
#[test]
fn ledger_sums_to_total_cycles_on_every_workload_and_scheme() {
    for strategy in CowStrategy::all() {
        for wl in small_suite() {
            let mut sys = System::new(
                SimConfig::new(strategy, PageSize::Regular4K)
                    .with_phys_bytes(64 << 20)
                    .with_cycle_ledger(),
            );
            wl.run(&mut sys).unwrap();
            let m = sys.finish();
            let ledger = sys.cycle_ledger();
            assert_eq!(
                ledger.total(),
                m.cycles.as_u64(),
                "{strategy}/{}: ledger must account for every cycle exactly once",
                wl.name()
            );
        }
    }
}

/// Per-epoch attribution reconciles both ways: each epoch's ledger
/// sums to that epoch's cycle delta, and per-category sums over the
/// series equal the run totals.
#[test]
fn epoch_ledgers_reconcile_with_run_ledger() {
    let mut sys =
        System::new(config(CowStrategy::Lelantus).with_epoch_interval(50_000).with_cycle_ledger());
    drive(&mut sys);
    let total = sys.cycle_ledger();
    assert_eq!(total.total(), sys.metrics().cycles.as_u64());
    let epochs = sys.epochs();
    assert!(epochs.len() > 1, "expected several epochs, got {}", epochs.len());
    for e in epochs {
        assert_eq!(
            e.ledger.total(),
            e.delta.cycles.as_u64(),
            "an epoch's ledger must sum to its cycle delta"
        );
    }
    for cat in CycleCategory::ALL {
        let sum: u64 = epochs.iter().map(|e| e.ledger.get(cat)).sum();
        assert_eq!(sum, total.get(cat), "{cat:?}: epoch series drifted from the run total");
    }
}

/// The ledger is purely observational: enabling it changes no
/// simulated number, no probe event, and no memory contents.
#[test]
fn ledger_runs_are_bit_identical_to_unledgered_runs() {
    for strategy in CowStrategy::all() {
        let mut off = System::new(big_ring(config(strategy)));
        let m_off = drive(&mut off);
        let mut on = System::new(big_ring(config(strategy).with_cycle_ledger()));
        let m_on = drive(&mut on);
        let (ring_off, ring_on) = (off.events().unwrap(), on.events().unwrap());
        assert_eq!(m_off, m_on, "{strategy}: the ledger perturbed the simulation");
        assert_eq!(
            ring_off.events(),
            ring_on.events(),
            "{strategy}: the ledger perturbed the event stream"
        );
        assert_eq!(
            off.merkle_root(),
            on.merkle_root(),
            "{strategy}: the ledger perturbed memory contents"
        );
        assert!(on.cycle_ledger().total() > 0, "{strategy}: enabled ledger recorded nothing");
        assert_eq!(off.cycle_ledger().total(), 0, "disabled ledger must stay zero");
    }
    // The acceptance workload at both page sizes.
    for page in PageSize::all() {
        let wl = match page {
            PageSize::Regular4K => Forkbench::small(),
            PageSize::Huge2M => Forkbench { total_bytes: 4 << 20, bytes_per_page: None },
        };
        let base = SimConfig::new(CowStrategy::Lelantus, page).with_phys_bytes(64 << 20);
        let mut off = System::new(base.clone());
        let r_off = wl.run(&mut off).unwrap();
        let mut on = System::new(base.with_cycle_ledger());
        let r_on = wl.run(&mut on).unwrap();
        assert_eq!(r_off.measured, r_on.measured, "{page}: the ledger perturbed forkbench");
        assert_eq!(on.cycle_ledger().total(), on.metrics().cycles.as_u64(), "{page}");
    }
}

/// The controller-side service-time histogram reconciles with the
/// per-command event counts: one sample per page command, including
/// rejected `page_phyc` attempts.
#[test]
fn cmd_service_histogram_reconciles_with_command_counts() {
    for strategy in CowStrategy::all() {
        let mut sys = System::new(big_ring(config(strategy)));
        drive(&mut sys);
        let m = sys.metrics();
        let ring = sys.events().unwrap();
        let commands = m.controller.cmd_page_copy
            + m.controller.cmd_page_phyc
            + m.controller.cmd_page_phyc_rejected
            + m.controller.cmd_page_free
            + m.controller.cmd_page_init;
        assert_eq!(
            ring.histograms().get(HistKind::CmdServiceCycles).count(),
            commands,
            "{strategy}: every page command must record exactly one service-time sample"
        );
    }
}

/// The tail recorder is purely observational: enabling it changes no
/// simulated number, no probe event, and no memory contents, on every
/// scheme.
#[test]
fn tail_recorder_runs_are_bit_identical_to_unrecorded_runs() {
    for strategy in CowStrategy::all() {
        let mut off = System::new(big_ring(config(strategy)));
        let m_off = drive(&mut off);
        let mut on = System::new(big_ring(config(strategy).with_tail_recorder()));
        let m_on = drive(&mut on);
        let (ring_off, ring_on) = (off.events().unwrap(), on.events().unwrap());
        assert_eq!(m_off, m_on, "{strategy}: the tail recorder perturbed the simulation");
        assert_eq!(
            ring_off.events(),
            ring_on.events(),
            "{strategy}: the tail recorder perturbed the event stream"
        );
        assert_eq!(
            off.merkle_root(),
            on.merkle_root(),
            "{strategy}: the tail recorder perturbed memory contents"
        );
        assert!(off.tail_recorder().is_none(), "recorder must be absent when not configured");
        assert!(
            on.tail_recorder().unwrap().summary().count > 0,
            "{strategy}: enabled recorder saw no spans"
        );
    }
}

/// Span accounting reconciles with the kernel and controller counters:
/// the explicit-fault actions partition the fault count, implicit-copy
/// spans never exceed the implicit copies performed, and the per-action
/// histograms partition the overall one.
#[test]
fn tail_spans_reconcile_with_fault_counters() {
    for strategy in CowStrategy::all() {
        let mut sys = System::new(config(strategy).with_tail_recorder());
        drive(&mut sys);
        let m = sys.metrics();
        let t = sys.tail_recorder().unwrap();
        let count_of = |a: FaultAction| t.action_histogram(a).count();
        let explicit = count_of(FaultAction::EagerCopy)
            + count_of(FaultAction::DemandZero)
            + count_of(FaultAction::LazyCow)
            + count_of(FaultAction::Reuse)
            + count_of(FaultAction::EarlyReclaim);
        assert_eq!(
            explicit,
            m.kernel.cow_faults + m.kernel.reuse_faults,
            "{strategy}: one span per page fault"
        );
        // One implicit-copy span per store that triggered at least one
        // deferred copy; a single store may complete several.
        assert!(
            count_of(FaultAction::ImplicitCopy) <= m.controller.implicit_copies,
            "{strategy}: more implicit-copy spans than implicit copies"
        );
        let all: u64 = FaultAction::ALL.iter().map(|&a| count_of(a)).sum();
        assert_eq!(
            all,
            t.histogram().count(),
            "{strategy}: per-action histograms must partition the overall one"
        );
        if strategy == CowStrategy::Baseline {
            assert!(
                count_of(FaultAction::EagerCopy) > 0,
                "baseline CoW faults must classify as eager copies"
            );
        }
    }
}

/// Integration-level oracle for the HDR math: with a reservoir big
/// enough to keep every span, the recorder's bucketed percentiles must
/// land within one sub-bucket (1/32 relative error) of the exact
/// sorted-sample answer.
#[test]
fn tail_percentiles_match_exact_span_oracle() {
    let mut sys =
        System::new(config(CowStrategy::Lelantus).with_tail_recorder().with_tail_top_k(1 << 20));
    drive(&mut sys);
    let t = sys.tail_recorder().unwrap();
    let mut exact: Vec<u64> = t.worst().iter().map(|s| s.latency()).collect();
    assert_eq!(exact.len() as u64, t.histogram().count(), "reservoir must have kept every span");
    exact.sort_unstable();
    for p in [0.5, 0.9, 0.99, 0.999, 1.0] {
        let rank = ((p * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
        let truth = exact[rank - 1];
        let approx = t.histogram().percentile(p);
        assert!(
            approx >= truth,
            "p{p}: bucket upper bound {approx} fell below the exact answer {truth}"
        );
        assert!(
            approx - truth <= truth / 32,
            "p{p}: {approx} overshoots the exact answer {truth} by more than 1/32"
        );
    }
}

/// Per-epoch histogram and tail deltas sum back to the run totals, the
/// same closure property the metric and ledger series already have.
#[test]
fn epoch_hist_and_tail_series_sum_to_run_totals() {
    let mut sys = System::new(big_ring(
        config(CowStrategy::Lelantus).with_epoch_interval(50_000).with_tail_recorder(),
    ));
    drive(&mut sys);
    let ring = sys.events().unwrap();
    let epochs = sys.epochs();
    assert!(epochs.len() > 1, "expected several epochs, got {}", epochs.len());
    let totals = ring.histograms();
    for kind in HistKind::ALL {
        let sum: u64 = epochs.iter().map(|e| hist_count(e, kind)).sum();
        assert_eq!(sum, totals.get(kind).count(), "{kind:?}: epoch hist series drifted");
    }
    let span_sum: u64 = epochs.iter().map(|e| e.tail.count).sum();
    assert_eq!(
        span_sum,
        sys.tail_recorder().unwrap().summary().count,
        "epoch tail series drifted from the recorder total"
    );
}

/// A mid-run crash re-baselines every view of the epoch series at one
/// place: with the histograms, tail spans, cycle ledger and heat grid
/// all on, the post-crash epochs stay well-formed and never
/// double-count the pre-crash interval.
#[test]
fn crash_re_baselines_hist_and_tail_series() {
    let mut sys = System::new(big_ring(
        config(CowStrategy::Lelantus)
            .with_epoch_interval(50_000)
            .with_tail_recorder()
            .with_cycle_ledger()
            .with_heatmap(),
    ));
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
    let ring = sys.events().unwrap();
    let epochs = sys.epochs();
    assert!(epochs.len() > 1, "expected several epochs, got {}", epochs.len());
    // The interval between the last pre-crash epoch and the crash is
    // deliberately dropped from the series, so sums are bounded by —
    // not equal to — the run totals.
    let totals = ring.histograms();
    for kind in HistKind::ALL {
        let sum: u64 = epochs.iter().map(|e| hist_count(e, kind)).sum();
        assert!(sum <= totals.get(kind).count(), "{kind:?}: epoch series double-counted the crash");
    }
    let span_sum: u64 = epochs.iter().map(|e| e.tail.count).sum();
    let span_total = sys.tail_recorder().unwrap().summary().count;
    assert!(span_sum <= span_total, "tail series double-counted the crash interval");
    assert!(span_total > 0, "recorder must keep accumulating across the crash");
    for e in epochs {
        assert!(e.tail.p999 >= e.tail.p50, "per-epoch percentiles must be ordered");
    }
    // The ledger rebases with the other views: every epoch still sums
    // to its own cycle delta, and no category's epoch series exceeds
    // the run ledger.
    let run_ledger = sys.cycle_ledger();
    assert_eq!(run_ledger.total(), sys.metrics().cycles.as_u64());
    for e in epochs {
        assert_eq!(
            e.ledger.total(),
            e.delta.cycles.as_u64(),
            "an epoch's ledger must sum to its cycle delta across the crash"
        );
    }
    for cat in CycleCategory::ALL {
        let sum: u64 = epochs.iter().map(|e| e.ledger.get(cat)).sum();
        assert!(sum <= run_ledger.get(cat), "{cat:?}: epoch ledger double-counted the crash");
    }
    let epoch_cycles: u64 = epochs.iter().map(|e| e.delta.cycles.as_u64()).sum();
    assert!(
        epoch_cycles < run_ledger.total(),
        "the crash window must be dropped from the series, not re-counted"
    );
}
