//! Overhead gate for the observer: every view must be cheap, and none
//! may perturb the simulation.
//!
//! One target, one untraced forkbench baseline, these gates:
//!
//! * **Event view.** A forkbench recording every event into a ring
//!   must run at ≤2.0x the untraced one: recording is a modest
//!   constant factor. With the view off, each emission site is one
//!   predicted branch; the end-to-end host benchmark judges that path.
//! * **Tail spans and heat grid.** A tail-recorded and a heat-gridded
//!   forkbench must each be bit-identical to the untraced run (metrics
//!   and Merkle root, asserted before any timing) and run at ≤1.10x
//!   its time.
//! * **Cycle ledger.** A ledgered forkbench must be bit-identical too
//!   and run at ≤1.25x: the ledger attributes every memory operation's
//!   segments as it completes, which measures 1.10–1.14x here (2-core
//!   Intel Xeon), so the tail and heat bound would fail it on noise.
//! * **Ledger at `finish`.** A run whose `finish` writes back half the
//!   last-level cache attributes one segment per written-back line in
//!   a single call; with the ledger on it must also be bit-identical
//!   and run at ≤1.10x the ledger-off time. The elementary-interval
//!   sweep the ledger used to run is quadratic in those segments and
//!   measured 360x on this case.

use lelantus_bench::results::{timed_emit, Record};
use lelantus_os::CowStrategy;
use lelantus_sim::{HeatLane, SimConfig, SimMetrics, System};
use lelantus_types::PageSize;
use lelantus_workloads::{forkbench::Forkbench, Workload};
use std::hint::black_box;
use std::time::Instant;

fn forkbench_cycles(mut sys: System) -> u64 {
    let run = Forkbench::small().run(&mut sys).expect("forkbench");
    run.measured.cycles.as_u64()
}

/// Bytes the finish-heavy run dirties: half the 8 MB last-level cache,
/// all of it still resident and dirty when `finish` writes it back.
const FINISH_HEAVY_BYTES: u64 = 4 << 20;

/// Dirties [`FINISH_HEAVY_BYTES`] and flushes it with one `finish`;
/// returns the machine and its outcome.
fn finish_heavy(cfg: SimConfig) -> (System, Outcome) {
    let mut sys = System::new(cfg);
    let pid = sys.spawn_init();
    let va = sys.mmap(pid, FINISH_HEAVY_BYTES).expect("mmap");
    sys.write_pattern(pid, va, FINISH_HEAVY_BYTES as usize, 0x5A).expect("write");
    let full = sys.finish();
    let root = sys.merkle_root();
    (sys, (full, full, root))
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

/// Asserts `outcome` of a run with one view on is bit-identical to
/// the view-off `plain` outcome.
fn assert_same(view: &str, outcome: &Outcome, plain: &Outcome) {
    assert_eq!(
        plain.0, outcome.0,
        "{view} changed the measured metrics; it must be purely observational"
    );
    assert_eq!(plain.1, outcome.1, "{view} changed the full-run metrics");
    assert_eq!(
        plain.2, outcome.2,
        "{view} changed the Merkle root; the memory image must be untouched"
    );
}

fn main() {
    timed_emit("micro_observe", || {
        let mut records = Vec::new();

        // --- correctness first: no view may perturb the run ------------
        let cfg = SimConfig::new(CowStrategy::Lelantus, PageSize::Regular4K)
            .with_phys_bytes(64 << 20)
            .with_deterministic_counters();
        let cfg_events = cfg.clone().with_events(1 << 16);
        let cfg_tail = cfg.clone().with_tail_recorder();
        let cfg_heat = cfg.clone().with_heatmap();
        let cfg_ledger = cfg.clone().with_cycle_ledger();
        let (_, plain) = forkbench_outcome(cfg.clone());
        let evented = assert_unperturbed("event view", cfg_events.clone(), &plain);
        assert!(evented.events().expect("events were configured on").total() > 0);
        let tailed = assert_unperturbed("tail recorder", cfg_tail.clone(), &plain);
        let summary = tailed.tail_recorder().expect("recorder was configured on").summary();
        assert!(summary.count > 0, "forkbench must produce fault spans to gate against");
        let heated = assert_unperturbed("heat grid", cfg_heat.clone(), &plain);
        let grid = heated.heatmap().expect("heatmap was configured on");
        assert!(grid.total() > 0, "forkbench must land heat to gate against");
        let faults: u64 = HeatLane::FAULTS.iter().map(|&l| grid.lane_total(l)).sum();
        assert!(faults > 0, "forkbench must record fault heat");
        let ledgered = assert_unperturbed("cycle ledger", cfg_ledger.clone(), &plain);
        assert_eq!(
            ledgered.cycle_ledger().total(),
            ledgered.metrics().cycles.as_u64(),
            "the ledger must account for every cycle"
        );
        let (_, finish_plain) = finish_heavy(cfg.clone());
        let (finish_ledgered, finish_outcome) = finish_heavy(cfg_ledger.clone());
        assert_same("cycle ledger at finish", &finish_outcome, &finish_plain);
        assert_eq!(
            finish_ledgered.cycle_ledger().total(),
            finish_ledgered.metrics().cycles.as_u64(),
            "the ledger must account for every cycle of the finish-heavy run"
        );

        // --- views vs one untraced baseline ----------------------------
        // One run takes tens of milliseconds, so each timing is one run.
        // The configurations take turns, round after round, and each
        // keeps its fastest run: preemption and frequency dips on a
        // shared host only ever inflate a run, and taking turns spreads
        // any drift over every configuration alike. Up to three
        // attempts for the view gates, each adding rounds to the same
        // fastest-run record; genuinely cheap views pass after the
        // first. The event-view ratio is a loose sanity bound.
        const ROUNDS: usize = 15;
        const MAX_EVENTS_RATIO: f64 = 2.0;
        const MAX_VIEW_RATIO: f64 = 1.10;
        const MAX_LEDGER_RATIO: f64 = 1.25;
        let forkbench = |c: &SimConfig| forkbench_cycles(System::new(c.clone()));
        let runs: [(&str, &dyn Fn() -> u64); 7] = [
            ("observe_forkbench_untraced", &|| forkbench(&cfg)),
            ("events_forkbench_recorded", &|| forkbench(&cfg_events)),
            ("tail_forkbench_recorded", &|| forkbench(&cfg_tail)),
            ("heatmap_forkbench_heated", &|| forkbench(&cfg_heat)),
            ("ledger_forkbench_ledgered", &|| forkbench(&cfg_ledger)),
            ("ledger_finish_heavy_untraced", &|| finish_heavy(cfg.clone()).1 .2),
            ("ledger_finish_heavy_ledgered", &|| finish_heavy(cfg_ledger.clone()).1 .2),
        ];
        let gates = [
            ("tail recorder", MAX_VIEW_RATIO),
            ("heat grid", MAX_VIEW_RATIO),
            ("cycle ledger", MAX_LEDGER_RATIO),
            ("cycle ledger at finish", MAX_VIEW_RATIO),
        ];
        let mut best = [f64::INFINITY; 7];
        let mut events_ratio = f64::INFINITY;
        let mut ratios = [f64::INFINITY; 4];
        for attempt in 1..=3 {
            for round in 0..ROUNDS {
                // Each round starts one configuration later, so none
                // always runs right after the same neighbour.
                for k in 0..runs.len() {
                    let i = (round + k) % runs.len();
                    let start = Instant::now();
                    black_box((runs[i].1)());
                    best[i] = best[i].min(start.elapsed().as_nanos() as f64);
                }
            }
            events_ratio = best[1] / best[0];
            ratios = [best[2] / best[0], best[3] / best[0], best[4] / best[0], best[6] / best[5]];
            println!(
                "events / untraced {events_ratio:.3}, tail-recorded / untraced {:.3}, heated / \
                 untraced {:.3}, ledgered / untraced {:.3}, finish-heavy ledgered / untraced \
                 {:.3} (attempt {attempt})",
                ratios[0], ratios[1], ratios[2], ratios[3]
            );
            if ratios.iter().zip(gates).all(|(&r, (_, gate))| r <= gate) {
                break;
            }
        }
        for ((name, _), ns) in runs.iter().zip(best) {
            records.push(Record::new(*name, ns, "ns/iter"));
        }
        records.push(Record::new("events_forkbench_ratio", events_ratio, "x"));
        records.push(Record::new("tail_recorder_overhead_ratio", ratios[0], "x"));
        records.push(Record::new("heatmap_overhead_ratio", ratios[1], "x"));
        records.push(Record::new("ledger_overhead_ratio", ratios[2], "x"));
        records.push(Record::new("ledger_finish_heavy_overhead_ratio", ratios[3], "x"));
        assert!(
            events_ratio <= MAX_EVENTS_RATIO,
            "event-view forkbench is {events_ratio:.3}x untraced (gate: {MAX_EVENTS_RATIO}x); \
             recording should be a modest constant factor, not a blow-up"
        );
        for ((name, gate), ratio) in gates.into_iter().zip(ratios) {
            assert!(
                ratio <= gate,
                "{name}: {ratio:.3}x the untraced baseline (gate: {gate}x); \
                 the view is supposed to stay off the hot path"
            );
        }

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
