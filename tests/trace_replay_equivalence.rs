//! Record/replay equivalence: a `.ltr` trace recorded from a live run
//! must replay bit-identically — same [`lelantus::sim::SimMetrics`],
//! same Merkle roots (enforced by `replay_checked`'s divergence
//! oracle) — for every synthetic workload and every CoW scheme. A trace
//! recorded under one scheme must also replay cleanly under every
//! *other* scheme (the cross-scheme sweep `lelantus compare --trace`
//! relies on).

use lelantus::os::CowStrategy;
use lelantus::sim::{
    replay, replay_checked, SimConfig, SimMetrics, System, Trace, TraceHeader, TraceRecorder,
};
use lelantus::types::PageSize;
use lelantus::workloads::stormwl::Storm;
use lelantus::workloads::{small_suite, Workload};
use std::path::PathBuf;

fn trace_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("lelantus-trace-equivalence");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{}-{name}.ltr", std::process::id()))
}

fn config(strategy: CowStrategy) -> SimConfig {
    SimConfig::new(strategy, PageSize::Regular4K).with_phys_bytes(64 << 20)
}

/// Runs `wl` live with the recorder attached; returns the live
/// full-system metrics and the sealed trace file.
fn record_live(wl: &dyn Workload, cfg: &SimConfig, path: &PathBuf) -> SimMetrics {
    let header = TraceHeader { page_size: cfg.page_size, phys_bytes: cfg.kernel.phys_bytes };
    let rec = TraceRecorder::create(path, header).expect("create trace");
    let mut sys = System::new(cfg.clone());
    sys.record_into(rec.clone());
    wl.run(&mut sys).expect("live run");
    sys.stop_recording();
    rec.finish().expect("seal trace");
    sys.metrics()
}

#[test]
fn recorded_replay_is_bit_identical_across_workloads_and_schemes() {
    for wl in small_suite() {
        for strategy in CowStrategy::all() {
            let cfg = config(strategy);
            let path = trace_path(&format!("{}-{strategy}", wl.name()));
            let live = record_live(wl.as_ref(), &cfg, &path);
            let trace = Trace::open(&path).expect("open recorded trace");

            // The recorded trajectory reproduces the live run exactly,
            // Merkle roots included.
            let mut sys = System::new(cfg.clone());
            let stats = replay_checked(&mut sys, &trace).expect("replay");
            assert!(stats.ops > 0, "{} / {strategy}: trace must carry ops", wl.name());
            assert_eq!(
                sys.finish(),
                live,
                "{} / {strategy}: replay must be bit-identical",
                wl.name()
            );

            drop(trace);
            let _ = std::fs::remove_file(&path);
        }
    }
}

#[test]
fn storm_scenario_records_and_replays_bit_identically() {
    let wl = Storm::small();
    let cfg = config(CowStrategy::Lelantus);
    let path = trace_path("storm");
    let live = record_live(&wl, &cfg, &path);
    let trace = Trace::open(&path).expect("open recorded trace");
    let mut sys = System::new(cfg);
    replay_checked(&mut sys, &trace).expect("storm replay");
    assert_eq!(sys.finish(), live, "storm replay must be bit-identical");
    drop(trace);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn trace_replays_under_every_other_scheme() {
    // Record once under Lelantus, then sweep the trace through the
    // other schemes: pids and addresses are scheme-independent, so
    // unchecked replay must complete with the same op count, and the
    // schemes must diverge in the direction the paper predicts.
    let wl = small_suite().remove(5); // shell: fork/exit heavy
    let cfg = config(CowStrategy::Lelantus);
    let path = trace_path("cross-scheme");
    record_live(wl.as_ref(), &cfg, &path);
    let trace = Trace::open(&path).expect("open recorded trace");

    let mut metrics = Vec::new();
    let mut ops = Vec::new();
    for strategy in CowStrategy::all() {
        let mut sys = System::new(config(strategy));
        let stats = replay(&mut sys, &trace).expect("cross-scheme replay");
        ops.push(stats.ops);
        metrics.push(sys.finish());
    }
    assert!(ops.windows(2).all(|w| w[0] == w[1]), "every scheme executes the same trace");
    let base =
        metrics[CowStrategy::all().iter().position(|s| *s == CowStrategy::Baseline).unwrap()];
    let lel = metrics[CowStrategy::all().iter().position(|s| *s == CowStrategy::Lelantus).unwrap()];
    assert!(
        lel.nvm.line_writes < base.nvm.line_writes,
        "Lelantus must write fewer NVM lines than baseline on the same trace"
    );
    drop(trace);
    let _ = std::fs::remove_file(&path);
}
