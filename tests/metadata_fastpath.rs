//! Metadata fast-path equivalence: the word-level counter-block
//! codec, the deferred (write-combined) Merkle maintenance, and the
//! MAC-line write combiner must be *observationally invisible*.
//!
//! The controller once could run the original bit-by-bit codec, eager
//! per-write tree maintenance and no MAC combining; the codec is now a
//! `#[cfg(test)]` model in `crates/metadata` checked against the word
//! codec, and the controller always combines. This suite drives real
//! workloads (forkbench and rediswl, the paper's two most
//! copy-intensive signatures) under every CoW scheme and requires
//! bit-identical measured and final `SimMetrics`, event streams and
//! Merkle roots to the rows pinned in `tests/golden/mod.rs`, each
//! generated only after the fast and reference metadata paths agreed
//! on it. A regression here means a host-side "optimization" leaked
//! into simulated behaviour. (The deferred-maintenance crash test is
//! `crash_recovery.rs::epoch_sampling_and_recovery_survive_deferred_maintenance`.)

mod golden;

use golden::{assert_workload_rows, METADATA};
use lelantus::os::CowStrategy;
use lelantus::sim::SimConfig;
use lelantus::types::PageSize;
use lelantus::workloads::{forkbench::Forkbench, rediswl::Redis, Workload};

fn assert_pinned_under_every_scheme(workload: &dyn Workload) {
    let rows = CowStrategy::all()
        .into_iter()
        .map(|strategy| {
            let config = SimConfig::new(strategy, PageSize::Regular4K);
            (format!("{} 256M {strategy}", workload.name()), workload, config)
        })
        .collect();
    assert_workload_rows("metadata", METADATA, rows);
}

#[test]
fn forkbench_is_bit_identical_under_reference_metadata() {
    assert_pinned_under_every_scheme(&Forkbench::small());
}

#[test]
fn rediswl_is_bit_identical_under_reference_metadata() {
    assert_pinned_under_every_scheme(&Redis::small());
}
