//! Parallel continuations of one snapshot must be indistinguishable.
//!
//! A snapshot taken in the middle of an epoch carries every piece of
//! pending work — the open epoch's partial delta, dirty counter and
//! MAC lines, the integrity tree — into each continuation that starts
//! from it. A fork and a restore of the original are two such
//! continuations running side by side; both must land in exactly the
//! state of one uninterrupted run of the same schedule.

use lelantus::os::CowStrategy;
use lelantus::sim::{SimConfig, System};
use lelantus::types::PageSize;

#[test]
fn mid_epoch_snapshot_fork_carries_pending_parallel_work() {
    let config = || {
        SimConfig::new(CowStrategy::Lelantus, PageSize::Regular4K)
            .with_phys_bytes(64 << 20)
            .with_epoch_interval(20_000)
    };

    // Reference: the whole schedule in one uninterrupted run.
    let mut straight = System::new(config());
    let pid = straight.spawn_init();
    let va = straight.mmap(pid, 1 << 20).unwrap();
    straight.write_pattern(pid, va, 512 << 10, 0x11).unwrap();
    straight.write_pattern(pid, va + (512 << 10), 256 << 10, 0x22).unwrap();
    let straight_end = straight.finish();
    let straight_root = straight.merkle_root();

    let mut sys = System::new(config());
    let pid = sys.spawn_init();
    let va = sys.mmap(pid, 1 << 20).unwrap();
    sys.write_pattern(pid, va, 512 << 10, 0x11).unwrap();
    let snapshot = sys.snapshot();

    // Path A: continue on a fork.
    let mut forked = snapshot.fork();
    forked.write_pattern(pid, va + (512 << 10), 256 << 10, 0x22).unwrap();
    let fork_end = forked.finish();
    let fork_root = forked.merkle_root();

    // Path B: diverge the original, rewind, replay A's schedule.
    sys.write_pattern(pid, va, 1 << 20, 0x33).unwrap();
    sys.restore(&snapshot);
    sys.write_pattern(pid, va + (512 << 10), 256 << 10, 0x22).unwrap();
    let restore_end = sys.finish();
    let restore_root = sys.merkle_root();

    assert_eq!(fork_end, restore_end, "fork and restore continuations diverged");
    assert_eq!(fork_root, restore_root, "fork and restore roots diverged");
    assert_eq!(sys.epochs(), forked.epochs(), "epoch series diverged");
    assert_eq!(fork_end, straight_end, "snapshot continuation diverged from an uninterrupted run");
    assert_eq!(fork_root, straight_root, "snapshot root diverged from an uninterrupted run");
    assert_eq!(
        forked.epochs(),
        straight.epochs(),
        "epoch series diverged from an uninterrupted run"
    );
}
