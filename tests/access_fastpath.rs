//! Access-engine fast-path equivalence: the batched trace pipeline and
//! the snapshot/fork mechanism must be *observationally invisible*.
//!
//! The batched engine (`System::run_batch`) translates once per page
//! run instead of once per line, but charges the identical per-line
//! cycle sequence; `SimConfig::with_reference_access_path` keeps the
//! per-line reference selectable. `System::snapshot`/`Snapshot::fork`
//! clone the whole stack so sweeps fork their measured phase from one
//! shared warm-up instead of replaying it. This suite pins both to the
//! behaviour they replace: same metrics, same probe event stream, same
//! Merkle root, bit for bit — and checks the epoch sampler survives
//! snapshot/restore without double-counting an interval.

use lelantus::os::CowStrategy;
use lelantus::sim::{Event, EventKind, RingProbe, SimConfig, SimMetrics, System};
use lelantus::types::PageSize;
use lelantus::workloads::forkbench::Forkbench;
use lelantus::workloads::rediswl::Redis;
use lelantus::workloads::Workload;

/// Everything externally observable about one workload run: final
/// metrics, exact event totals, the retained event stream, and the
/// integrity-tree root over the final NVM image.
type Observation = (SimMetrics, [u64; EventKind::COUNT], Vec<Event>, u64);

fn observe<W: Workload<RingProbe>>(wl: &W, config: SimConfig) -> Observation {
    let probe = RingProbe::new(1 << 16);
    let mut sys = System::with_probe(config, probe.clone());
    wl.run(&mut sys).unwrap();
    let metrics = sys.finish();
    let root = sys.merkle_root();
    (metrics, probe.counts(), probe.events(), root)
}

fn assert_observations_match(fast: &Observation, slow: &Observation, what: &str) {
    assert_eq!(fast.0, slow.0, "metrics diverged: {what}");
    assert_eq!(fast.1, slow.1, "event totals diverged: {what}");
    assert_eq!(fast.2, slow.2, "event streams diverged: {what}");
    assert_eq!(fast.3, slow.3, "merkle roots diverged: {what}");
}

// ---------------------------------------------------------------------
// Batched driver vs per-line reference path
// ---------------------------------------------------------------------

#[test]
fn batched_forkbench_is_bit_identical_to_reference() {
    // Forkbench covers the faulting side: every measured write runs
    // into a CoW page, so runs split at fault boundaries constantly.
    for strategy in [CowStrategy::Baseline, CowStrategy::Lelantus, CowStrategy::LelantusCow] {
        let config = || SimConfig::new(strategy, PageSize::Regular4K).with_phys_bytes(64 << 20);
        let fast = observe(&Forkbench::small(), config());
        let slow = observe(&Forkbench::small(), config().with_reference_access_path());
        assert_observations_match(&fast, &slow, &format!("forkbench under {strategy}"));
    }
}

#[test]
fn batched_forkbench_matches_reference_on_huge_pages() {
    let wl = Forkbench { total_bytes: 4 << 20, bytes_per_page: None };
    let config =
        || SimConfig::new(CowStrategy::Lelantus, PageSize::Huge2M).with_phys_bytes(64 << 20);
    let fast = observe(&wl, config());
    let slow = observe(&wl, config().with_reference_access_path());
    assert_observations_match(&fast, &slow, "forkbench on 2M pages");
}

#[test]
fn batched_rediswl_is_bit_identical_to_reference() {
    // Redis covers the multi-core side: parent and scanning child
    // interleave on different cores at request granularity.
    let config =
        || SimConfig::new(CowStrategy::Lelantus, PageSize::Regular4K).with_phys_bytes(64 << 20);
    let fast = observe(&Redis::small(), config());
    let slow = observe(&Redis::small(), config().with_reference_access_path());
    assert_observations_match(&fast, &slow, "rediswl");
}

// ---------------------------------------------------------------------
// Snapshot/fork vs fresh replay
// ---------------------------------------------------------------------

#[test]
fn snapshot_fork_measures_identically_to_a_fresh_replay() {
    let wl = Forkbench { total_bytes: 1 << 20, bytes_per_page: Some(1) };
    let config =
        || SimConfig::new(CowStrategy::Lelantus, PageSize::Regular4K).with_phys_bytes(64 << 20);

    // Fresh replay: setup and measure on one system.
    let probe = RingProbe::new(1 << 16);
    let mut fresh = System::with_probe(config(), probe.clone());
    let fresh_run = wl.run(&mut fresh).unwrap();
    let fresh_obs: Observation =
        (fresh.finish(), probe.counts(), probe.events(), fresh.merkle_root());

    // Snapshot fork: setup once, fork the measured phase. The fork
    // shares the warm system's ring, so the combined stream must equal
    // the sequential run's.
    let probe = RingProbe::new(1 << 16);
    let mut warm = System::with_probe(config(), probe.clone());
    let state = wl.setup(&mut warm).unwrap();
    let snapshot = warm.snapshot();
    let mut forked = snapshot.fork();
    let forked_run = wl.measure(&mut forked, &state).unwrap();
    let forked_obs: Observation =
        (forked.finish(), probe.counts(), probe.events(), forked.merkle_root());

    assert_eq!(fresh_run.measured, forked_run.measured, "measured window diverged");
    assert_eq!(fresh_run.logical_line_writes, forked_run.logical_line_writes);
    assert_observations_match(&forked_obs, &fresh_obs, "snapshot fork vs replay");
}

#[test]
fn restore_rewinds_to_the_snapshot_point() {
    let wl = Forkbench { total_bytes: 1 << 20, bytes_per_page: Some(8) };
    let mut sys = System::new(
        SimConfig::new(CowStrategy::LelantusCow, PageSize::Regular4K).with_phys_bytes(64 << 20),
    );
    let state = wl.setup(&mut sys).unwrap();
    let snapshot = sys.snapshot();
    let first = wl.measure(&mut sys, &state).unwrap();
    let first_end = sys.finish();
    let first_root = sys.merkle_root();
    // Rewind and repeat: the second pass must be indistinguishable.
    sys.restore(&snapshot);
    let second = wl.measure(&mut sys, &state).unwrap();
    let second_end = sys.finish();
    assert_eq!(first.measured, second.measured);
    assert_eq!(first_end, second_end, "restore left residual state");
    assert_eq!(first_root, sys.merkle_root());
}

// ---------------------------------------------------------------------
// Adversarial timing: snapshot in the middle of an epoch
// ---------------------------------------------------------------------

/// The epoch series must keep summing to the run totals across a
/// mid-epoch snapshot/restore: a broken baseline (`epoch_last` newer or
/// older than the restored metrics) would double-count the straddling
/// interval or underflow `delta_since`.
#[test]
fn mid_epoch_snapshot_and_restore_keep_the_epoch_series_consistent() {
    let check_sums = |sys: &System, end: &SimMetrics, what: &str| {
        let epochs = sys.epochs();
        assert!(epochs.len() > 1, "{what}: expected several epochs, got {}", epochs.len());
        let mut writes = 0;
        let mut cycles = 0;
        for e in epochs {
            writes += e.delta.nvm.line_writes;
            cycles += e.delta.cycles.as_u64();
        }
        assert_eq!(cycles, end.cycles.as_u64(), "{what}: epoch cycles double-counted or lost");
        assert_eq!(writes, end.nvm.line_writes, "{what}: epoch writes double-counted or lost");
        for pair in epochs.windows(2) {
            assert!(pair[0].end_cycle < pair[1].end_cycle, "{what}: epochs out of order");
        }
    };

    let mut sys = System::new(
        SimConfig::new(CowStrategy::Lelantus, PageSize::Regular4K)
            .with_phys_bytes(64 << 20)
            .with_epoch_interval(20_000),
    );
    let pid = sys.spawn_init();
    let va = sys.mmap(pid, 1 << 20).unwrap();
    // Enough traffic to cross several epoch boundaries, then stop at an
    // arbitrary point inside one.
    sys.write_pattern(pid, va, 512 << 10, 0x11).unwrap();
    assert!(!sys.epochs().is_empty(), "warm-up should span epochs");
    let snapshot = sys.snapshot();

    // Path A: continue on a fork.
    let mut forked = snapshot.fork();
    forked.write_pattern(pid, va + (512 << 10), 256 << 10, 0x22).unwrap();
    let fork_end = forked.finish();
    check_sums(&forked, &fork_end, "fork");

    // Path B: let the original diverge, rewind it, then replay the
    // fork's continuation — it must land in the identical state.
    sys.write_pattern(pid, va, 1 << 20, 0x33).unwrap();
    sys.restore(&snapshot);
    sys.write_pattern(pid, va + (512 << 10), 256 << 10, 0x22).unwrap();
    let restore_end = sys.finish();
    check_sums(&sys, &restore_end, "restore");
    assert_eq!(fork_end, restore_end, "fork and restore continuations diverged");
    assert_eq!(sys.epochs(), forked.epochs(), "epoch series diverged");
    assert_eq!(sys.merkle_root(), forked.merkle_root(), "fork and restore roots diverged");
}
