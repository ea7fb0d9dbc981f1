//! The three benchmark workloads: what each records at set-up, which
//! scheme replays it, and how the replay's outputs are checked.

use lelantus_os::CowStrategy;
use lelantus_sim::{
    replay, replay_checked, ReplayError, SimConfig, SimMetrics, System, Trace, TraceHeader,
    TraceRecorder,
};
use lelantus_types::PageSize;
use lelantus_workloads::mariadbwl::Mariadb;
use lelantus_workloads::stormwl::Storm;
use lelantus_workloads::Workload as _;
use std::path::Path;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fork storm recorded and replayed under Lelantus.
    Storm,
    /// The same fork-storm trace replayed under Baseline (eager copies).
    StormEager,
    /// MariaDB bulk load recorded and replayed under Lelantus.
    Oltp,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "storm" => Some(Self::Storm),
            "storm_eager" => Some(Self::StormEager),
            "oltp" => Some(Self::Oltp),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::Storm => "storm",
            Self::StormEager => "storm_eager",
            Self::Oltp => "oltp",
        }
    }

    /// The CoW scheme the recorded trace is replayed under.
    pub fn replay_strategy(self) -> CowStrategy {
        match self {
            Self::StormEager => CowStrategy::Baseline,
            Self::Storm | Self::Oltp => CowStrategy::Lelantus,
        }
    }

    /// Whether the replay compares every recorded Merkle root. Roots
    /// depend on the scheme, so only same-scheme replays can.
    pub fn checks_roots(self) -> bool {
        self.replay_strategy() == CowStrategy::Lelantus
    }

    /// The machine for `strategy`: 4 KB pages, and for the storm the
    /// physical memory its tenants need.
    pub fn config(self, strategy: CowStrategy) -> SimConfig {
        let cfg = SimConfig::new(strategy, PageSize::Regular4K);
        match self {
            Self::Storm | Self::StormEager => cfg.with_phys_bytes(Storm::default().phys_bytes()),
            Self::Oltp => cfg,
        }
    }

    /// Runs the generator on `sys`, with a Merkle-root checkpoint after
    /// the storm's set-up and one at the end. `Storm` draws no random
    /// numbers, so `seed` only reaches `Mariadb`.
    fn drive(self, sys: &mut System, seed: u64) -> Result<(), String> {
        match self {
            Self::Storm | Self::StormEager => {
                let storm = Storm::default();
                let state = storm.setup(sys).map_err(|e| e.to_string())?;
                sys.merkle_root();
                storm.measure(sys, &state).map_err(|e| e.to_string())?;
            }
            Self::Oltp => {
                Mariadb { seed, ..Mariadb::default() }.run(sys).map_err(|e| e.to_string())?;
            }
        }
        sys.merkle_root();
        Ok(())
    }

    /// Set-up: records the workload's trace to `path` from a live
    /// Lelantus run and returns the metrics every replay must
    /// reproduce — the recording run's own, or for `storm_eager` those
    /// of a live Baseline run of the same generator.
    pub fn record(self, seed: u64, path: &Path) -> Result<SimMetrics, String> {
        let cfg = self.config(CowStrategy::Lelantus);
        let header = TraceHeader { page_size: cfg.page_size, phys_bytes: cfg.kernel.phys_bytes };
        let rec = TraceRecorder::create(path, header)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        let mut sys = System::new(cfg);
        sys.record_into(rec.clone());
        self.drive(&mut sys, seed)?;
        sys.stop_recording();
        rec.finish().map_err(|e| format!("writing {} failed: {e}", path.display()))?;
        if self.replay_strategy() == CowStrategy::Lelantus {
            return Ok(sys.metrics());
        }
        drop(sys);
        let mut live = System::new(self.config(self.replay_strategy()));
        self.drive(&mut live, seed)?;
        Ok(live.metrics())
    }

    /// One untraced replay on a fresh machine: boot, replay, read the
    /// metrics, tear down.
    pub fn replay(self, trace: &Trace) -> Result<SimMetrics, ReplayError> {
        let mut sys = System::new(self.config(self.replay_strategy()));
        if self.checks_roots() {
            replay_checked(&mut sys, trace)?;
        } else {
            replay(&mut sys, trace)?;
        }
        Ok(sys.metrics())
    }
}
