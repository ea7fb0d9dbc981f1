//! Persistence across power failures — the reason NVM is interesting
//! at all, and the reason Lelantus' metadata (counters, CoW mappings)
//! must live in integrity-protected NVM rather than volatile state.

use lelantus::core::controller::RecoveryReport;
use lelantus::core::{ControllerConfig, SchemeKind, SecureMemoryController};
use lelantus::os::CowStrategy;
use lelantus::sim::{SimConfig, System};
use lelantus::types::{Cycles, PageSize, PhysAddr};
use lelantus::workloads::{forkbench::Forkbench, Workload};

const ZERO: Cycles = Cycles::ZERO;

fn ctrl(scheme: SchemeKind) -> SecureMemoryController {
    SecureMemoryController::new(ControllerConfig {
        data_bytes: 16 << 20,
        ..ControllerConfig::for_scheme(scheme)
    })
}

fn page(n: u64) -> PhysAddr {
    PhysAddr::new((2 << 20) + n * 4096)
}

#[test]
fn flushed_data_survives_a_crash() {
    for scheme in SchemeKind::all() {
        let mut c = ctrl(scheme);
        for l in 0..8u64 {
            c.write_data_line(page(0) + l * 64, [l as u8 + 1; 64], ZERO);
        }
        c.flush_all(ZERO);
        let report = c.crash_and_recover().expect("untampered NVM recovers");
        assert!(report.regions_verified >= 1, "{scheme}");
        for l in 0..8u64 {
            assert_eq!(c.read_data_line(page(0) + l * 64, ZERO).0, [l as u8 + 1; 64], "{scheme}");
        }
    }
}

#[test]
fn lazy_cow_state_survives_a_crash() {
    for scheme in [SchemeKind::LelantusResized, SchemeKind::LelantusCow] {
        let mut c = ctrl(scheme);
        for l in 0..64u64 {
            c.write_data_line(page(0) + l * 64, [0x42; 64], ZERO);
        }
        c.cmd_page_copy(page(0), page(1), ZERO);
        c.write_data_line(page(1), [0x99; 64], ZERO); // one implicit copy
        c.flush_all(ZERO);
        let report = c.crash_and_recover().unwrap();
        if scheme == SchemeKind::LelantusCow {
            assert!(report.cow_mappings_recovered >= 1, "mapping must persist");
        }
        // The lazy copy still redirects after recovery...
        assert_eq!(c.read_data_line(page(1) + 64, ZERO).0, [0x42; 64], "{scheme}");
        // ...and the materialized line kept its private value.
        assert_eq!(c.read_data_line(page(1), ZERO).0, [0x99; 64], "{scheme}");
    }
}

#[test]
fn battery_flushes_dirty_counters_at_crash() {
    // Write-back counter caching is safe *because* of the battery:
    // data written right before the crash (counters still dirty
    // on-chip) must remain readable.
    let mut c = ctrl(SchemeKind::LelantusResized);
    c.write_data_line(page(0), [7; 64], ZERO);
    // No flush_all: the counter block for page(0) is dirty in-cache;
    // the device write queue holds the data line. Crash!
    c.crash_and_recover().unwrap();
    assert_eq!(c.read_data_line(page(0), ZERO).0, [7; 64]);
}

#[test]
fn tampering_while_powered_down_is_caught() {
    let mut c = ctrl(SchemeKind::LelantusResized);
    c.write_data_line(page(0), [1; 64], ZERO);
    c.flush_all(ZERO);
    // Attacker flips counter bits while the machine is off.
    c.tamper_counter_for_test(page(0));
    assert!(c.crash_and_recover().is_err(), "rebuilt root must mismatch");
}

#[test]
fn repeated_crashes_are_idempotent() {
    let mut c = ctrl(SchemeKind::LelantusCow);
    c.write_data_line(page(3), [5; 64], ZERO);
    c.cmd_page_copy(page(3), page(4), ZERO);
    c.flush_all(ZERO);
    let mut last = RecoveryReport::default();
    for _ in 0..3 {
        last = c.crash_and_recover().unwrap();
    }
    assert!(last.regions_verified >= 2);
    assert_eq!(c.read_data_line(page(4), ZERO).0, [5; 64]);
}

#[test]
fn full_system_crash_loses_unflushed_cpu_cache_but_keeps_flushed_data() {
    let mut sys = System::new(
        SimConfig::new(CowStrategy::Lelantus, PageSize::Regular4K).with_phys_bytes(64 << 20),
    );
    let pid = sys.spawn_init();
    let va = sys.mmap(pid, 8192).unwrap();
    sys.write_bytes(pid, va, b"durable").unwrap();
    sys.finish(); // explicit persist point (PMDK-style flush)
    sys.write_bytes(pid, va + 4096, b"volatile").unwrap();
    // No flush: "volatile" lives only in the CPU cache. Crash!
    let report = sys.crash_and_recover().unwrap();
    assert!(report.regions_verified > 0);
    assert_eq!(sys.read_bytes(pid, va, 7).unwrap(), b"durable".to_vec());
    assert_eq!(
        sys.read_bytes(pid, va + 4096, 8).unwrap(),
        vec![0; 8],
        "unflushed store must be lost — that is what persist barriers are for"
    );
}

#[test]
fn snapshot_survives_crash_end_to_end() {
    // Redis-style: fork a snapshot, crash mid-snapshot, verify the
    // flushed dataset is intact afterwards.
    let mut sys = System::new(
        SimConfig::new(CowStrategy::LelantusCow, PageSize::Regular4K).with_phys_bytes(64 << 20),
    );
    let pid = sys.spawn_init();
    let va = sys.mmap(pid, 64 << 10).unwrap();
    sys.write_pattern(pid, va, 64 << 10, 0xDB).unwrap();
    let child = sys.fork(pid).unwrap();
    sys.write_bytes(pid, va, &[0xFF]).unwrap(); // parent mutates
    sys.finish();
    sys.crash_and_recover().unwrap();
    assert_eq!(sys.read_bytes(child, va, 1).unwrap(), vec![0xDB]);
    assert_eq!(sys.read_bytes(pid, va, 1).unwrap(), vec![0xFF]);
}

/// The epoch sampler is itself a flush point; make sure the combiner
/// interacts cleanly with epoch boundaries and crash/recovery.
#[test]
fn epoch_sampling_and_recovery_survive_deferred_maintenance() {
    for strategy in CowStrategy::all() {
        let config = SimConfig::new(strategy, PageSize::Regular4K)
            .with_epoch_interval(200_000)
            .with_events(1 << 16);
        let mut sys = System::new(config);
        Forkbench::small().run(&mut sys).expect("workload runs");
        let report = sys.crash_and_recover().expect("recovery verifies the rebuilt tree");
        assert!(report.regions_verified > 0, "{strategy}");
        sys.finish();
    }
}
