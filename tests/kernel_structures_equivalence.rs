//! Kernel-structure equivalence: the scaled O(1) OS structures must be
//! *observationally invisible*.
//!
//! The kernel-plane overhaul swapped four structures under the kernel —
//! a dense frame-indexed `PageRegistry`, intrusive index-linked rmap
//! chains, a hierarchical-bitmap buddy allocator, and segmented
//! `PageTable`s with a streaming (allocation-free) fork. The map-based
//! structures they replaced are now `#[cfg(test)]` models in
//! `crates/os`, each checked against its fast structure by a
//! differential unit test. Addresses, action streams, fault ordering
//! and free-list state all flow from these structures, so any
//! divergence is visible in the metrics, the event stream or the
//! Merkle root over the final NVM image. This suite holds the kernel to
//! the whole-system behaviour the reference structures produced on the
//! full paper matrix (six workloads × four schemes, 4 KB and 2 MB
//! pages): the rows pinned in `tests/golden/mod.rs`, each generated
//! only after the fast and reference structures agreed on it.

mod golden;

use golden::{assert_workload_rows, huge_forkbench, HUGE_PAGES, PAPER_SUITE};
use lelantus::os::CowStrategy;
use lelantus::sim::SimConfig;
use lelantus::types::PageSize;
use lelantus::workloads::small_suite;

#[test]
fn all_workloads_and_schemes_match_reference_structures() {
    let suite = small_suite();
    let mut rows = Vec::new();
    for strategy in CowStrategy::all() {
        for wl in &suite {
            let config = SimConfig::new(strategy, PageSize::Regular4K).with_phys_bytes(64 << 20);
            rows.push((format!("{} {strategy}", wl.name()), wl.as_ref(), config));
        }
    }
    assert_workload_rows("paper suite", PAPER_SUITE, rows);
}

/// Huge pages: the segmented table keeps per-VA geometry.
#[test]
fn huge_page_forkbench_matches_reference_structures() {
    let wl = huge_forkbench();
    let rows = [CowStrategy::Baseline, CowStrategy::Lelantus]
        .into_iter()
        .map(|strategy| {
            let config = SimConfig::new(strategy, PageSize::Huge2M).with_phys_bytes(64 << 20);
            (format!("forkbench 2M {strategy}"), &wl as _, config)
        })
        .collect();
    assert_workload_rows("huge page", HUGE_PAGES, rows);
}
