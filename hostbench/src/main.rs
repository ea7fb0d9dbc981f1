//! Host-time benchmark of the Lelantus simulator: a workload's trace is
//! recorded at set-up, then replayed through the whole stack on the
//! serial engine, in one process and one thread, and every replay's
//! outputs are checked against a live run.
//!
//! ```text
//! hostbench --workload <storm|storm_eager|oltp> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics from untraced replays;
//! `--trace 1` prints the per-layer metrics of a traced replay. The last
//! line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. See `README.md` for what each
//! metric means and which layer metric should move which end-to-end one.

mod calib;
mod host;
mod layers;
mod probes;
mod workload;

use layers::{Breakdown, Span};
use lelantus_sim::{SimMetrics, Trace};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use workload::Workload;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Fewest replays of each kind a run makes, however short `--seconds`.
const MIN_REPLAYS: usize = 3;

/// Which layer metric should move which end-to-end metric, on which
/// workload: written down before measuring, printed after the traced
/// run as `(layer metrics, should move, should stay flat)`.
const PREDICTIONS: [(&str, &str, &str); 4] = [
    (
        "sim.fork_s sim.exit_s sim.ksm_s sim.madvise_s os.*",
        "replay_s on storm and storm_eager equally; peak_rss_mib on storm",
        "oltp",
    ),
    (
        "core.cmd_page_phyc_s core.redirected_reads core.implicit_copies",
        "replay_s on storm only",
        "storm_eager",
    ),
    (
        "core.copy_page_bulk_s crypto.page_pads_ns nvm.line_write_ns",
        "replay_s on storm_eager",
        "storm (nearly)",
    ),
    (
        "sim.run_batch_s trace.decode_s cache.* sim.tlb_* metadata.* crypto.line_pad_ns core.*_line_ns",
        "replay_s on oltp most",
        "-",
    ),
];

const USAGE: &str =
    "usage: hostbench --workload <storm|storm_eager|oltp> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) if seconds > 0 => {
            Ok(Args { workload, seed, seconds, trace })
        }
        _ => Err("--workload, --seed, --seconds (> 0) and --trace are all required".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, name, seed, stem] = args.as_slice() {
        if flag == "--record" {
            return record_child(name, seed, Path::new(stem));
        }
    }
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Set-up child: records `<stem>.ltr` and writes the metrics a replay
/// must reproduce to `<stem>.ref`. Set-up runs in its own process so
/// that the parent's resident-memory high-water mark covers the
/// replays alone.
fn record_child(name: &str, seed: &str, stem: &Path) -> ExitCode {
    let (Some(w), Ok(seed)) = (Workload::parse(name), seed.parse::<u64>()) else {
        eprintln!("error: bad --record arguments");
        return ExitCode::from(2);
    };
    let result = w.record(seed, &stem.with_extension("ltr")).and_then(|m| {
        std::fs::write(stem.with_extension("ref"), format!("{m:?}")).map_err(|e| e.to_string())
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: set-up of {name} failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// This run's scratch directory inside the benchmark's own directory,
/// removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<Self, String> {
        let dir =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("work").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Succeeds only once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// One set-up: generate the workload, record it in a child process to
/// `<stem>.ltr` and open the trace. Returns the trace, the reference
/// metrics (as the `Debug` text the child wrote) and the set-up's wall
/// time.
fn setup(w: Workload, seed: u64, stem: &Path) -> Result<(Trace, String, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let start = Instant::now();
    let status = Command::new(exe)
        .arg("--record")
        .arg(w.name())
        .arg(seed.to_string())
        .arg(stem)
        .status()
        .map_err(|e| format!("cannot start set-up: {e}"))?;
    if !status.success() {
        return Err(format!("set-up of {} failed ({status})", w.name()));
    }
    let trace =
        Trace::open(stem.with_extension("ltr")).map_err(|e| format!("opening trace: {e}"))?;
    let secs = start.elapsed().as_secs_f64();
    let reference = std::fs::read_to_string(stem.with_extension("ref"))
        .map_err(|e| format!("reading reference metrics: {e}"))?;
    Ok((trace, reference, secs))
}

/// Outcome tally of a run's replays.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// `(sim_cycles, nvm_line_writes)` of the first good replay.
    sim: Option<(u64, u64)>,
}

impl Tally {
    /// Counts one replay: good when it ran and its metrics equal the
    /// reference run's. Failures are counted, never retried.
    fn record(&mut self, result: Result<SimMetrics, String>, reference: &str) -> bool {
        self.attempted += 1;
        let ok = match result {
            Ok(m) if format!("{m:?}") == reference => {
                self.sim.get_or_insert((m.cycles.as_u64(), m.nvm.line_writes));
                true
            }
            Ok(m) => {
                eprintln!("replay {} does not match the live run: {m:?}", self.attempted);
                false
            }
            Err(e) => {
                eprintln!("replay {} failed: {e}", self.attempted);
                false
            }
        };
        self.failed += u64::from(!ok);
        ok
    }
}

/// One untraced replay: boot, replay, read the metrics, drop. Returns
/// its wall time in seconds if it ran and matched the reference.
fn untraced(w: Workload, trace: &Trace, reference: &str, tally: &mut Tally) -> Option<f64> {
    let t = Instant::now();
    let result = w.replay(trace).map_err(|e| e.to_string());
    let secs = t.elapsed().as_secs_f64();
    tally.record(result, reference).then_some(secs)
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    println!("{}", host::stamp());
    println!(
        "workload: {} (replayed under {:?}, seed {}, {} s)",
        w.name(),
        w.replay_strategy(),
        args.seed,
        args.seconds
    );
    let work = WorkDir::create()?;

    // Set-up, repeated: every repetition must record the same trace and
    // the same reference metrics, or the generator is not deterministic.
    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_secs = Vec::new();
    let mut setup_cal = Vec::new();
    let mut deterministic = true;
    let mut first: Option<(Vec<u8>, String)> = None;
    let mut current = None;
    for i in 0..setups {
        let stem = work.0.join(format!("{}-{i}", w.name()));
        setup_cal.push(calib::round());
        let (trace, reference, secs) = setup(w, args.seed, &stem)?;
        setup_secs.push(secs);
        let bytes =
            std::fs::read(stem.with_extension("ltr")).map_err(|e| format!("reading trace: {e}"))?;
        match &first {
            None => first = Some((bytes, reference.clone())),
            Some((b, r)) => deterministic &= *b == bytes && *r == reference,
        }
        current = Some((trace, reference));
    }
    let (trace, reference) = current.expect("at least one set-up");
    if !deterministic {
        eprintln!("set-ups recorded different traces or reference metrics");
    }
    let totals = trace.totals();
    println!(
        "trace: {} records, {} ops, {} bytes; set-up {:?} s",
        totals.records,
        totals.ops,
        trace.file_bytes(),
        setup_secs
    );

    let mut tally = Tally::default();
    // Replays until `--seconds` have passed, each after a calibration
    // round. A traced run alternates untraced and traced replays, so
    // that both see the same host conditions and their ratio is the
    // tracing overhead.
    let start = Instant::now();
    let mut times = Vec::new();
    let mut cal = Vec::new();
    let mut traced = Vec::new();
    let mut n = 0;
    while n < MIN_REPLAYS || start.elapsed() < Duration::from_secs(args.seconds) {
        n += 1;
        cal.push(calib::round());
        times.extend(untraced(w, &trace, &reference, &mut tally));
        if args.trace {
            let result = layers::traced_replay(w, &trace);
            let metrics = result.as_ref().map(|b| b.metrics).map_err(Clone::clone);
            if tally.record(metrics, &reference) {
                traced.push(result.expect("recorded as good"));
            }
        }
    }
    let (metrics, closure_ok) = if args.trace {
        if traced.is_empty() {
            return Err("no traced replay succeeded".into());
        }
        let cfg = w.config(w.replay_strategy());
        let costs = probes::measure(&probes::line_stream(&trace, &cfg)?, &cfg);
        per_layer(&times, &cal, &mut traced, &costs)
    } else {
        let replay_s = host::median(&times) * calib::REFERENCE_S / host::median(&cal);
        let setup_s = host::median(&setup_secs) * calib::REFERENCE_S / host::median(&setup_cal);
        let (lo, hi) = host::min_max(&times);
        println!(
            "replays: {} good of {}; raw median {:.4} s ({lo:.4}..{hi:.4}); calibration median {:.4} s",
            times.len(),
            tally.attempted,
            host::median(&times),
            host::median(&cal)
        );
        (end_to_end(replay_s, setup_s, &tally), true)
    };

    let sim_ok = tally.sim.is_some_and(|(cycles, writes)| cycles > 0 && writes > 0);
    let finite = metrics.iter().all(|x| x.value.is_finite());
    let correct = tally.failed == 0 && deterministic && sim_ok && closure_ok && finite;
    print_table(&metrics);
    if args.trace {
        println!("predictions (layer metrics -> should move | should stay flat):");
        for (layer, moves, flat) in PREDICTIONS {
            println!("  {layer}\n      -> {moves} | flat: {flat}");
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            let value = if x.value.is_finite() { x.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", x.name, x.unit)
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    Ok(())
}

/// End-to-end metrics; `replay_s` and `setup_s` come already scaled to
/// the reference host speed.
fn end_to_end(replay_s: f64, setup_s: f64, tally: &Tally) -> Vec<Metric> {
    let (cycles, writes) = tally.sim.unwrap_or_default();
    vec![
        m("replay_s", replay_s, "s"),
        m("setup_s", setup_s, "s"),
        m("peak_rss_mib", host::peak_rss_mib().unwrap_or(f64::NAN), "MiB"),
        m("sim_cycles", cycles as f64, "cycles"),
        m("nvm_line_writes", writes as f64, "lines"),
        m("ok_frac", (tally.attempted - tally.failed) as f64 / tally.attempted as f64, "ratio"),
    ]
}

/// Per-layer metrics from the traced replay with the median wall time,
/// plus the unit-cost probes and the estimates built from them.
/// Returns whether the closure holds: the spans fit inside the wall
/// clock and the rows sum back to it.
fn per_layer(
    untraced: &[f64],
    cal: &[f64],
    traced: &mut [Breakdown],
    c: &probes::UnitCosts,
) -> (Vec<Metric>, bool) {
    traced.sort_by_key(|b| b.wall);
    let b = &traced[traced.len() / 2];
    let s = &b.metrics;
    let secs = |d: Duration| d.as_secs_f64();
    let wall = secs(b.wall);
    let unattributed = b.unattributed();
    let unattributed_s = unattributed.map_or(f64::NAN, secs);
    let rows = secs(b.decode) + b.spans.iter().copied().map(secs).sum::<f64>() + unattributed_s;
    let closure_ok = unattributed.is_some() && (rows - wall).abs() <= 1e-9 * wall.max(1.0);
    println!(
        "closure: decode + {} sim spans + unattributed = {rows:.6} s, traced wall = {wall:.6} s ({}); unattributed share {:.4}%",
        Span::ALL.len(),
        if closure_ok { "holds" } else { "BROKEN" },
        100.0 * unattributed_s / wall
    );

    let ctrl = &s.controller;
    let ratio = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
    let tlb_lookups = s.tlb.l1_hits + s.tlb.l2_hits + s.tlb.walks;
    let cc_lookups = s.counter_cache.hits + s.counter_cache.misses;
    let l1_accesses = s.caches.l1.hits + s.caches.l1.misses;
    let ns = |unit_ns: f64, calls: u64| unit_ns * calls as f64 * 1e-9;
    let lines_per_page = (lelantus_types::REGION_BYTES / lelantus_types::LINE_BYTES as u64).max(1);

    // Estimates: unit cost times calls in the traced replay. The
    // controller is called by the cache hierarchy once per LLC fill and
    // once per LLC write-back; the page copies and zero-fills that
    // faults inside `run_batch` trigger are timed directly by their
    // `selfprof` scopes. The residual is what `run_batch` spends beyond
    // all of these: translation, TLB, fault handling, batch glue.
    // `metadata`, `crypto` and `nvm` count the controller's internal
    // work over the whole replay.
    let cache_est = ns(c.cache_access, l1_accesses);
    let core_est =
        ns(c.ctrl_read, s.caches.l3.misses) + ns(c.ctrl_write, s.caches.l3.dirty_evictions);
    let metadata_est = ns(c.counter_get, cc_lookups) + ns(c.codec_decode, ctrl.counter_fetches);
    let crypto_est =
        ns(c.line_pad, ctrl.logical_reads.saturating_sub(ctrl.zero_reads) + ctrl.logical_writes)
            + ns(c.mac, ctrl.mac_verifications + ctrl.logical_writes)
            + ns(c.page_pads, (ctrl.materialized_lines + ctrl.reencrypted_lines) / lines_per_page)
            + ns(c.merkle_update, ctrl.counter_writebacks);
    let nvm_est = ns(c.nvm_write, s.nvm.line_writes) + ns(c.nvm_read, s.nvm.line_reads);
    let bulk = b.selfprof_s("ctrl::copy_page_bulk") + b.selfprof_s("ctrl::zero_page_bulk");
    let residual = secs(b.span(Span::RunBatch)) - cache_est - core_est - bulk;

    let mut out = vec![
        m("trace.decode_s", secs(b.decode), "s"),
        m("trace.records", b.records as f64, "count"),
        m("sim.run_batch_calls", b.run_batch_calls as f64, "count"),
    ];
    out.extend(Span::ALL.iter().map(|&sp| m(sp.metric(), secs(b.span(sp)), "s")));
    out.extend([
        m("sim.unattributed_s", unattributed_s, "s"),
        m("sim.unattributed_share", unattributed_s / wall, "ratio"),
        m("sim.tlb_walks", s.tlb.walks as f64, "count"),
        m("sim.tlb_front_hit_rate", ratio(s.tlb.front_hits, tlb_lookups), "ratio"),
        m("sim.run_batch_residual_s", residual, "s"),
        m("os.cow_faults", s.kernel.cow_faults as f64, "count"),
        m("os.zero_faults", s.kernel.zero_faults as f64, "count"),
        m("os.early_reclaims", s.kernel.early_reclaims as f64, "count"),
        m("os.forks", s.kernel.forks as f64, "count"),
        m("os.pages_allocated", s.kernel.pages_allocated as f64, "count"),
        m("core.copy_page_bulk_s", b.selfprof_s("ctrl::copy_page_bulk"), "s"),
        m("core.cmd_page_phyc_s", b.selfprof_s("ctrl::cmd_page_phyc"), "s"),
        m("core.zero_page_bulk_s", b.selfprof_s("ctrl::zero_page_bulk"), "s"),
        m("core.flush_all_s", b.selfprof_s("ctrl::flush_all"), "s"),
        m("core.redirected_reads", ctrl.redirected_reads as f64, "count"),
        m("core.implicit_copies", ctrl.implicit_copies as f64, "count"),
        m("core.bulk_copied_lines", ctrl.bulk_copied_lines as f64, "count"),
        m("core.reencrypted_lines", ctrl.reencrypted_lines as f64, "count"),
        m("core.write_line_ns", c.ctrl_write, "ns"),
        m("core.read_line_ns", c.ctrl_read, "ns"),
        m("core.est_s", core_est, "s"),
        m("metadata.counter_hit_rate", ratio(s.counter_cache.hits, cc_lookups), "ratio"),
        m("metadata.counter_fetches", ctrl.counter_fetches as f64, "count"),
        m("metadata.counter_writebacks", ctrl.counter_writebacks as f64, "count"),
        m("metadata.mac_fetches", ctrl.mac_fetches as f64, "count"),
        m("metadata.mac_writebacks", ctrl.mac_writebacks as f64, "count"),
        m("metadata.counter_get_ns", c.counter_get, "ns"),
        m("metadata.codec_decode_ns", c.codec_decode, "ns"),
        m("metadata.est_s", metadata_est, "s"),
        m("crypto.line_pad_ns", c.line_pad, "ns"),
        m("crypto.page_pads_ns", c.page_pads, "ns"),
        m("crypto.mac_ns", c.mac, "ns"),
        m("crypto.merkle_update_ns", c.merkle_update, "ns"),
        m("crypto.est_s", crypto_est, "s"),
        m("cache.l1_hit_rate", ratio(s.caches.l1.hits, l1_accesses), "ratio"),
        m("cache.llc_misses", s.caches.l3.misses as f64, "count"),
        m("cache.dirty_evictions", s.caches.l3.dirty_evictions as f64, "count"),
        m("cache.access_ns", c.cache_access, "ns"),
        m("cache.est_s", cache_est, "s"),
        m("nvm.line_reads", s.nvm.line_reads as f64, "count"),
        m("nvm.row_hit_rate", s.nvm.row_hit_rate(), "ratio"),
        m("nvm.merged_writes", s.nvm.merged_writes as f64, "count"),
        m("nvm.line_write_ns", c.nvm_write, "ns"),
        m("nvm.line_read_ns", c.nvm_read, "ns"),
        m("nvm.est_s", nvm_est, "s"),
        m("obs.trace_overhead", wall / host::median(untraced), "x"),
        m("obs.replay_raw_s", host::median(untraced), "s"),
        m("obs.calibration_s", host::median(cal), "s"),
    ]);
    (out, closure_ok)
}

fn print_table(metrics: &[Metric]) {
    for x in metrics {
        let note = if x.name.ends_with(".est_s") || x.name == "sim.run_batch_residual_s" {
            "  (estimate)"
        } else {
            ""
        };
        println!("  {:<28} {:>16.6} {:<6}{note}", x.name, x.value, x.unit);
    }
}
