//! Kernel-structure equivalence: the scaled O(1) OS structures must be
//! *observationally invisible*.
//!
//! The kernel-plane overhaul swapped four structures under the kernel —
//! a dense frame-indexed `PageRegistry`, intrusive index-linked rmap
//! chains, a hierarchical-bitmap buddy allocator, and segmented
//! `PageTable`s with a streaming (allocation-free) fork — while
//! `KernelConfig::with_reference_structures` keeps the original
//! map-based structures selectable. Addresses, action streams, fault
//! ordering and free-list state all flow from these structures, so any
//! divergence is visible in the metrics, the probe event stream or the
//! Merkle root over the final NVM image. This suite pins the swap to
//! the behaviour it replaced on the full paper matrix: six workloads ×
//! four schemes, 4 KB and 2 MB pages, bit for bit.

use lelantus::os::CowStrategy;
use lelantus::sim::{Event, EventKind, RingProbe, SimConfig, SimMetrics, System};
use lelantus::types::PageSize;
use lelantus::workloads::{
    bootwl::Boot, compilewl::Compile, forkbench::Forkbench, mariadbwl::Mariadb, rediswl::Redis,
    shellwl::Shell, Workload,
};

/// Everything externally observable about one workload run: final
/// metrics, exact event totals, the retained event stream, and the
/// integrity-tree root over the final NVM image.
type Observation = (SimMetrics, [u64; EventKind::COUNT], Vec<Event>, u64);

fn observe<W: Workload<RingProbe> + ?Sized>(wl: &W, config: SimConfig) -> Observation {
    let probe = RingProbe::new(1 << 16);
    let mut sys = System::with_probe(config, probe.clone());
    wl.run(&mut sys).unwrap();
    let metrics = sys.finish();
    let root = sys.merkle_root();
    (metrics, probe.counts(), probe.events(), root)
}

fn assert_observations_match(fast: &Observation, reference: &Observation, what: &str) {
    assert_eq!(fast.0, reference.0, "metrics diverged: {what}");
    assert_eq!(fast.1, reference.1, "event totals diverged: {what}");
    assert_eq!(fast.2, reference.2, "event streams diverged: {what}");
    assert_eq!(fast.3, reference.3, "merkle roots diverged: {what}");
}

fn small_suite() -> Vec<Box<dyn Workload<RingProbe>>> {
    vec![
        Box::new(Boot::small()),
        Box::new(Compile::small()),
        Box::new(Forkbench::small()),
        Box::new(Redis::small()),
        Box::new(Mariadb::small()),
        Box::new(Shell::small()),
    ]
}

// ---------------------------------------------------------------------
// The full matrix, serial engine: six workloads × four schemes
// ---------------------------------------------------------------------

#[test]
fn all_workloads_and_schemes_match_reference_structures() {
    for strategy in CowStrategy::all() {
        for wl in small_suite() {
            let config = || SimConfig::new(strategy, PageSize::Regular4K).with_phys_bytes(64 << 20);
            let fast = observe(wl.as_ref(), config());
            let reference = observe(wl.as_ref(), config().with_reference_structures());
            assert_observations_match(
                &fast,
                &reference,
                &format!("{} under {strategy}", wl.name()),
            );
        }
    }
}

// ---------------------------------------------------------------------
// Huge pages: the segmented table keeps per-VA geometry
// ---------------------------------------------------------------------

#[test]
fn huge_page_forkbench_matches_reference_structures() {
    let wl = Forkbench { total_bytes: 4 << 20, bytes_per_page: None };
    for strategy in [CowStrategy::Baseline, CowStrategy::Lelantus] {
        let config = || SimConfig::new(strategy, PageSize::Huge2M).with_phys_bytes(64 << 20);
        let fast = observe(&wl, config());
        let reference = observe(&wl, config().with_reference_structures());
        assert_observations_match(
            &fast,
            &reference,
            &format!("forkbench on 2M pages under {strategy}"),
        );
    }
}
