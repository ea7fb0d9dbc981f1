//! Wall-clock self-profiler: scoped timers aggregated per component.
//!
//! Complements the simulated-cycle ledger ([`crate::ledger`]) with
//! *host* time: where does the simulator itself spend wall-clock while
//! producing those cycles? Sites are coarse (a whole `run_batch`, a
//! bulk page copy, a metadata flush) so the timers never sit on the
//! per-line hot path that the `micro_observe` gate protects.
//!
//! The profiler compiles away: with the `selfprof`
//! feature disabled (`--no-default-features`), [`scope`] is a
//! `const`-foldable `None` and the registry does not exist. With the
//! feature on (the default), the cost when not [`enable`]d is a single
//! relaxed atomic load per site entry.
//!
//! ```
//! lelantus_obs::selfprof::enable();
//! {
//!     let _t = lelantus_obs::selfprof::scope("doc::work");
//!     // ... timed region ...
//! }
//! let report = lelantus_obs::selfprof::report();
//! assert!(report.iter().any(|s| s.site == "doc::work" && s.calls == 1));
//! lelantus_obs::selfprof::disable();
//! lelantus_obs::selfprof::reset();
//! ```

/// Aggregated wall-clock statistics for one instrumented site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteReport {
    /// Static site label, e.g. `"sim::run_batch"`.
    pub site: &'static str,
    /// Number of completed scopes.
    pub calls: u64,
    /// Total wall-clock nanoseconds across all scopes.
    pub total_ns: u128,
}

impl SiteReport {
    /// Mean nanoseconds per call (0 when never called).
    pub fn mean_ns(&self) -> u128 {
        if self.calls == 0 {
            0
        } else {
            self.total_ns / u128::from(self.calls)
        }
    }
}

#[cfg(feature = "selfprof")]
mod imp {
    use super::SiteReport;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Mutex, MutexGuard, OnceLock};
    use std::time::Instant;

    static ENABLED: AtomicBool = AtomicBool::new(false);

    #[derive(Default, Clone, Copy)]
    struct SiteStats {
        calls: u64,
        total_ns: u128,
    }

    fn registry() -> MutexGuard<'static, HashMap<&'static str, SiteStats>> {
        static REGISTRY: OnceLock<Mutex<HashMap<&'static str, SiteStats>>> = OnceLock::new();
        // A poisoned registry only loses profiling data, never
        // correctness: keep going with the inner value.
        match REGISTRY.get_or_init(Mutex::default).lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Live timer for one scope; records into the registry on drop.
    pub struct ScopeTimer {
        site: &'static str,
        start: Instant,
    }

    impl Drop for ScopeTimer {
        fn drop(&mut self) {
            let ns = self.start.elapsed().as_nanos();
            let mut reg = registry();
            let stats = reg.entry(self.site).or_default();
            stats.calls += 1;
            stats.total_ns += ns;
        }
    }

    /// Starts a scoped timer for `site`, or returns `None` when the
    /// profiler is disabled. Bind the result (`let _t = scope(..)`);
    /// the scope ends when the guard drops.
    #[inline]
    pub fn scope(site: &'static str) -> Option<ScopeTimer> {
        if ENABLED.load(Ordering::Relaxed) {
            Some(ScopeTimer { site, start: Instant::now() })
        } else {
            None
        }
    }

    /// Turns the profiler on (scopes start recording).
    pub fn enable() {
        ENABLED.store(true, Ordering::Relaxed);
    }

    /// Turns the profiler off (already-open scopes still record).
    pub fn disable() {
        ENABLED.store(false, Ordering::Relaxed);
    }

    /// Whether the profiler is currently recording.
    pub fn is_enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Clears all aggregated statistics.
    pub fn reset() {
        registry().clear();
    }

    /// Snapshot of all sites, sorted by descending total time.
    pub fn report() -> Vec<SiteReport> {
        let reg = registry();
        let mut out: Vec<SiteReport> = reg
            .iter()
            .map(|(site, s)| SiteReport { site, calls: s.calls, total_ns: s.total_ns })
            .collect();
        drop(reg);
        out.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.site.cmp(b.site)));
        out
    }
}

#[cfg(not(feature = "selfprof"))]
mod imp {
    use super::SiteReport;

    /// Compiled-out timer: never constructed.
    pub struct ScopeTimer {
        _never: std::convert::Infallible,
    }

    /// Compiled-out profiler: always `None`, folds away entirely.
    #[inline(always)]
    pub fn scope(_site: &'static str) -> Option<ScopeTimer> {
        None
    }

    /// No-op without the `selfprof` feature.
    pub fn enable() {}

    /// No-op without the `selfprof` feature.
    pub fn disable() {}

    /// Always `false` without the `selfprof` feature.
    pub fn is_enabled() -> bool {
        false
    }

    /// No-op without the `selfprof` feature.
    pub fn reset() {}

    /// Always empty without the `selfprof` feature.
    pub fn report() -> Vec<SiteReport> {
        Vec::new()
    }
}

pub use imp::{disable, enable, is_enabled, report, reset, scope, ScopeTimer};

#[cfg(all(test, feature = "selfprof"))]
mod tests {
    use super::*;

    #[test]
    fn records_only_when_enabled_and_resets() {
        // Single test exercising the global registry end-to-end (tests
        // in this module would otherwise race on the shared state).
        reset();
        disable();
        {
            let _t = scope("test::off");
        }
        assert!(report().iter().all(|s| s.site != "test::off"));

        enable();
        assert!(is_enabled());
        for _ in 0..3 {
            let _t = scope("test::on");
        }
        disable();
        let rep = report();
        let site = rep.iter().find(|s| s.site == "test::on").expect("site recorded");
        assert_eq!(site.calls, 3);
        assert!(site.mean_ns() <= site.total_ns);

        reset();
        assert!(report().iter().all(|s| s.site != "test::on"));
    }
}
