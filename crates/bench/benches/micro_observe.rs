//! Overhead gate for the observer: every view must be cheap, and none
//! may perturb the simulation.
//!
//! One target, one untraced forkbench baseline, four gates:
//!
//! * **Probe hot loop.** Every probe call site in the simulator is
//!   guarded by `if P::ENABLED { ... }` where `ENABLED` is an
//!   associated constant, so with `NullProbe` the branch — and the
//!   event construction behind it — must monomorphize away. A hot loop
//!   instrumented with `NullProbe` must run at ≤1.3x the same loop
//!   with no probe calls at all.
//! * **Traced forkbench.** A `RingProbe`-traced forkbench must run at
//!   ≤2.0x the untraced one: recording is a modest constant factor.
//! * **Tail spans and heat grid.** A tail-recorded and a heat-gridded
//!   forkbench must each be bit-identical to the untraced run (metrics
//!   and Merkle root, asserted before any timing) and run at ≤1.10x
//!   its time.

use lelantus_bench::harness::bench;
use lelantus_bench::results::{timed_emit, Record};
use lelantus_os::CowStrategy;
use lelantus_sim::{
    Event, EventKind, HeatLane, HistKind, NullProbe, Probe, RingProbe, SimConfig, SimMetrics,
    System,
};
use lelantus_types::{Cycles, PageSize};
use lelantus_workloads::{forkbench::Forkbench, Workload};
use std::hint::black_box;

/// The shape of a simulator hot path: a little arithmetic (an LCG
/// step standing in for real datapath work) plus one guarded probe
/// call, exactly as the controller/NVM emission sites are written.
#[inline(always)]
fn instrumented_step<P: Probe>(probe: &P, state: u64) -> u64 {
    let next = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    if P::ENABLED {
        probe.emit(Event {
            cycle: Cycles::new(next),
            kind: EventKind::QueueAdmit { addr: next & 0xFFFF_FFC0, depth: 3, merged: false },
        });
        probe.record(HistKind::WriteQueueDepth, next & 63);
    }
    next
}

/// The same arithmetic with no probe in sight — the untraced baseline
/// the `NullProbe` path is held to.
#[inline(always)]
fn bare_step(state: u64) -> u64 {
    state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407)
}

const STEPS: u64 = 1024;

fn run_instrumented<P: Probe>(probe: &P) -> u64 {
    let mut s = 0x5EED;
    for _ in 0..STEPS {
        s = instrumented_step(probe, black_box(s));
    }
    s
}

fn run_bare() -> u64 {
    let mut s = 0x5EED;
    for _ in 0..STEPS {
        s = bare_step(black_box(s));
    }
    s
}

fn forkbench_cycles<P: Probe>(mut sys: System<P>) -> u64 {
    let run = Forkbench::small().run(&mut sys).expect("forkbench");
    run.measured.cycles.as_u64()
}

/// What an untraced forkbench run leaves behind: measured metrics,
/// full-run metrics and Merkle root.
type Outcome = (SimMetrics, SimMetrics, u64);

/// Runs forkbench under `cfg`, returning the machine and its outcome.
fn forkbench_outcome(cfg: SimConfig) -> (System, Outcome) {
    let mut sys = System::new(cfg);
    let measured = Forkbench::small().run(&mut sys).expect("forkbench").measured;
    let full = sys.metrics();
    let root = sys.merkle_root();
    (sys, (measured, full, root))
}

/// Runs forkbench with one view on and asserts it is bit-identical to
/// the untraced `plain` outcome.
fn assert_unperturbed(view: &str, cfg: SimConfig, plain: &Outcome) -> System {
    let (sys, (measured, full, root)) = forkbench_outcome(cfg);
    assert_eq!(
        plain.0, measured,
        "{view} changed the measured metrics; it must be purely observational"
    );
    assert_eq!(plain.1, full, "{view} changed the full-run metrics");
    assert_eq!(plain.2, root, "{view} changed the Merkle root; the memory image must be untouched");
    sys
}

fn main() {
    timed_emit("micro_observe", || {
        let mut records = Vec::new();

        // --- gate 1: NullProbe vs no probe at all ----------------------
        // Measured up to three times; shared CI machines can land an
        // unlucky batch, but a genuinely free path passes immediately.
        const MAX_NULL_RATIO: f64 = 1.3;
        let mut ratio = f64::INFINITY;
        for attempt in 1..=3 {
            let baseline = bench("probe_hot_loop_untraced", run_bare);
            let null = bench("probe_hot_loop_null_probe", || run_instrumented(&NullProbe));
            ratio = null.ns_per_iter / baseline.ns_per_iter;
            println!("null-probe / untraced ratio: {ratio:.3} (attempt {attempt})");
            if attempt == 1 {
                records.push(
                    Record::new("probe_untraced_1k_steps", baseline.ns_per_iter, "ns/iter")
                        .timed(baseline.elapsed_s),
                );
                records.push(
                    Record::new("probe_null_1k_steps", null.ns_per_iter, "ns/iter")
                        .timed(null.elapsed_s),
                );
            }
            if ratio <= MAX_NULL_RATIO {
                break;
            }
        }
        records.push(Record::new("probe_null_overhead_ratio", ratio, "x"));
        assert!(
            ratio <= MAX_NULL_RATIO,
            "NullProbe hot loop is {ratio:.3}x the untraced baseline (gate: {MAX_NULL_RATIO}x); \
             the disabled tracing path is supposed to compile away"
        );

        // Informational: what recording actually costs per call.
        let ring = RingProbe::new(4096);
        let ring_m = bench("probe_hot_loop_ring_probe", || run_instrumented(&ring));
        records.push(
            Record::new("probe_ring_1k_steps", ring_m.ns_per_iter, "ns/iter")
                .timed(ring_m.elapsed_s),
        );

        // --- correctness first: no view may perturb the run ------------
        let cfg = SimConfig::new(CowStrategy::Lelantus, PageSize::Regular4K)
            .with_phys_bytes(64 << 20)
            .with_deterministic_counters();
        let cfg_tail = cfg.clone().with_tail_recorder();
        let cfg_heat = cfg.clone().with_heatmap();
        let (_, plain) = forkbench_outcome(cfg.clone());
        let tailed = assert_unperturbed("tail recorder", cfg_tail.clone(), &plain);
        let summary = tailed.tail_recorder().expect("recorder was configured on").summary();
        assert!(summary.count > 0, "forkbench must produce fault spans to gate against");
        let heated = assert_unperturbed("heat grid", cfg_heat.clone(), &plain);
        let grid = heated.heatmap().expect("heatmap was configured on");
        assert!(grid.total() > 0, "forkbench must land heat to gate against");
        let faults: u64 = HeatLane::FAULTS.iter().map(|&l| grid.lane_total(l)).sum();
        assert!(faults > 0, "forkbench must record fault heat");

        // --- gates 2-4: views vs one untraced forkbench baseline -------
        // Three attempts for the 1.10x gates: shared CI machines can
        // land an unlucky batch, but genuinely cheap views pass
        // immediately. The traced ratio is a loose sanity bound.
        const MAX_RING_RATIO: f64 = 2.0;
        const MAX_VIEW_RATIO: f64 = 1.10;
        let (mut ring_ratio, mut tail_ratio, mut heat_ratio) = (0.0, f64::INFINITY, f64::INFINITY);
        for attempt in 1..=3 {
            let untraced =
                bench("forkbench_small_untraced", || forkbench_cycles(System::new(cfg.clone())));
            let tail = bench("forkbench_small_tail_recorded", || {
                forkbench_cycles(System::new(cfg_tail.clone()))
            });
            let heat =
                bench("forkbench_small_heated", || forkbench_cycles(System::new(cfg_heat.clone())));
            tail_ratio = tail.ns_per_iter / untraced.ns_per_iter;
            heat_ratio = heat.ns_per_iter / untraced.ns_per_iter;
            println!(
                "tail-recorded / untraced {tail_ratio:.3}, heated / untraced {heat_ratio:.3} \
                 (attempt {attempt})"
            );
            if attempt == 1 {
                let traced = bench("forkbench_small_ring_traced", || {
                    forkbench_cycles(System::with_probe(cfg.clone(), RingProbe::new(1 << 16)))
                });
                ring_ratio = traced.ns_per_iter / untraced.ns_per_iter;
                println!("ring-traced / untraced forkbench ratio: {ring_ratio:.3}");
                records.push(
                    Record::new("observe_forkbench_untraced", untraced.ns_per_iter, "ns/iter")
                        .timed(untraced.elapsed_s),
                );
                records.push(
                    Record::new("tail_forkbench_recorded", tail.ns_per_iter, "ns/iter")
                        .timed(tail.elapsed_s),
                );
                records.push(
                    Record::new("heatmap_forkbench_heated", heat.ns_per_iter, "ns/iter")
                        .timed(heat.elapsed_s),
                );
            }
            if tail_ratio <= MAX_VIEW_RATIO && heat_ratio <= MAX_VIEW_RATIO {
                break;
            }
        }
        records.push(Record::new("probe_forkbench_traced_ratio", ring_ratio, "x"));
        records.push(Record::new("tail_recorder_overhead_ratio", tail_ratio, "x"));
        records.push(Record::new("heatmap_overhead_ratio", heat_ratio, "x"));
        assert!(
            ring_ratio <= MAX_RING_RATIO,
            "RingProbe-traced forkbench is {ring_ratio:.3}x untraced (gate: {MAX_RING_RATIO}x); \
             recording should be a modest constant factor, not a blow-up"
        );
        assert!(
            tail_ratio <= MAX_VIEW_RATIO,
            "tail-recorded forkbench is {tail_ratio:.3}x the untraced baseline \
             (gate: {MAX_VIEW_RATIO}x); span recording is supposed to stay off the hot path"
        );
        assert!(
            heat_ratio <= MAX_VIEW_RATIO,
            "heated forkbench is {heat_ratio:.3}x the untraced baseline \
             (gate: {MAX_VIEW_RATIO}x); heat recording is supposed to stay off the hot path"
        );

        // --- informational: what the views captured --------------------
        records.push(Record::new("tail_forkbench_fault_p999", summary.p999 as f64, "cycles"));
        records.push(Record::new("tail_forkbench_fault_spans", summary.count as f64, "spans"));
        records.push(Record::new(
            "heatmap_forkbench_touched",
            grid.touched_regions() as f64,
            "regions",
        ));
        records.push(Record::new("heatmap_forkbench_gini", grid.gini(), "ratio"));

        records
    });
}
