//! `lelantus` — command-line experiment runner.
//!
//! ```console
//! $ lelantus list
//! $ lelantus run --workload forkbench --scheme lelantus --pages 2m
//! $ lelantus compare --workload redis --pages 4k --json
//! ```
//!
//! `run` executes one workload on one scheme and prints its metrics;
//! `compare` runs all four schemes and reports speedups and write
//! reductions against the baseline (a single Fig 9 column);
//! `report` runs one workload with tracing enabled and produces the
//! attribution story: per-event counts, latency histograms, an epoch
//! time series, and optional JSONL / chrome://tracing exports;
//! `profile` runs one workload with the cycle-attribution ledger and
//! prints the per-category overhead breakdown (optionally as
//! flamegraph-folded stacks or a chrome trace);
//! `tail` sweeps every paper workload across all schemes with the
//! per-fault span recorder and reports p50/p99/p999 fault latency
//! (recorded into `BENCH_RESULTS.json`);
//! `bench-diff` compares two `BENCH_RESULTS.json` snapshots and exits
//! non-zero on regression.

use lelantus::bench::diff::{diff, parse_results};
use lelantus::bench::results::{emit, Record};
use lelantus::os::CowStrategy;
use lelantus::sim::{
    chrome_trace, chrome_trace_with_spans, explain_divergence, replay, selfprof, CounterSeries,
    CycleCategory, CycleLedger, EpochSample, EventKind, FaultAction, HdrHistogram, HeatGrid,
    HeatLane, HistKind, JsonlSink, ReplayError, ReplayStats, SimConfig, SimMetrics, Span, System,
    TailRecorder, TailSummary, Trace, TraceError, TraceHeader, TraceRecorder,
};
use lelantus::types::PageSize;
use lelantus::workloads::{self, stormwl::Storm, Scale, Workload, WorkloadRun};
use std::collections::HashMap;
use std::process::ExitCode;

const SCHEMES: &[&str] = &["baseline", "silent-shredder", "lelantus", "lelantus-cow"];

// The `--flags` each subcommand accepts; anything else is a usage error.
const RUN_FLAGS: &[&str] = &["workload", "scheme", "pages", "scale", "json", "trace", "heatmap"];
const RECORD_FLAGS: &[&str] = &["workload", "scheme", "pages", "scale", "json"];
const CONVERT_FLAGS: &[&str] = &["scheme", "pages", "arena-mb", "json"];
const REPORT_FLAGS: &[&str] = &[
    "workload", "scheme", "pages", "scale", "json", "replay", "epoch", "ring", "events", "trace",
    "tail", "heatmap", "grid",
];
const PROFILE_FLAGS: &[&str] =
    &["workload", "scheme", "pages", "scale", "json", "epoch", "folded", "trace"];
const TAIL_FLAGS: &[&str] = &["pages", "scale", "json", "top-k"];
const STORM_FLAGS: &[&str] = &["tenants", "depth", "region-kb", "touched", "small", "json"];
const HEATMAP_FLAGS: &[&str] = &["pages", "scale", "small", "top", "json"];

fn usage() -> ExitCode {
    eprintln!(
        "usage:
  lelantus list
  lelantus run     --workload <name> [--scheme <s>] [--pages 4k|2m] [--scale small|medium|paper] [--json]
  lelantus run     --trace <file.ltr> [--scheme <s>] [--json]
                   (replay a recorded binary trace through one scheme; geometry
                    comes from the trace header)
  lelantus record  <workload> -o <file.ltr> [--scheme <s>] [--pages 4k|2m] [--scale ...] [--json]
                   (run the workload with the trace recorder attached and write
                    every state-changing operation to a replayable .ltr file)
  lelantus compare --workload <name> [--pages 4k|2m] [--scale ...] [--json]
  lelantus compare --trace <file.ltr> [--json]
                   (replay one trace through all four schemes: Fig 9 from a trace)
  lelantus report  --workload <name> [--scheme <s>] [--pages 4k|2m] [--scale ...] [--json]
                   [--replay <file.ltr>]  (drive the report from a recorded trace
                    instead of a synthetic workload; --workload is then ignored)
                   [--epoch <cycles>] [--ring <events>] [--events <out.jsonl>] [--trace <out.json>]
                   [--tail]  (per-fault span recording: percentiles, per-action breakdown,
                              worst offenders, per-epoch tail series)
  lelantus profile --workload <name> [--scheme <s>] [--pages 4k|2m] [--scale ...] [--json]
                   [--epoch <cycles>] [--folded <out.folded>] [--trace <out.json>]
  lelantus tail    [--pages 4k|2m] [--scale ...] [--json] [--top-k <n>]
                   (fig11-style sweep: p50/p99/p999 fault latency for every paper workload x
                    scheme; records into BENCH_RESULTS.json)
  lelantus storm   [--tenants <n>] [--depth <n>] [--region-kb <n>] [--touched <n>]
                   [--small] [--json]
                   (fork-storm multi-tenant kernel-plane sweep: every scheme at
                    1024 tenants x 1152-page regions by default; records throughput,
                    fault tails and resident pages into BENCH_RESULTS.json)
  lelantus heatmap [--pages 4k|2m] [--scale ...] [--small] [--top <n>] [--json]
                   (spatial sweep: forkbench/redis/storm on every scheme with the
                    region heat grid; hottest regions, Gini and top-1% concentration
                    recorded into BENCH_RESULTS.json)
  lelantus convert <in.csv> -o <out.ltr> [--scheme <s>] [--pages 4k|2m] [--arena-mb <n>] [--json]
                   (convert an external `pid,op,va,len` text trace to a replayable
                    .ltr file; op is r or w, numbers decimal or 0x-hex, `#` comments)
  lelantus bench-diff <baseline.json> <candidate.json> [--tolerance <frac>] [--json]

subcommands: list, run, record, convert, compare, report, profile, tail, storm,
             heatmap, bench-diff
report also takes --heatmap (spatial heat table; --json adds a stable \"heatmap\"
key, null when off) and --grid <out.pgm|out.csv> (per-lane grid export).

trace exit codes:  10 io, 11 bad magic, 12 bad version, 13 truncated,
                   14 checksum mismatch, 15 bad header, 16 bad record
replay exit codes: 17 os error, 18 geometry mismatch, 19 divergence,
                   20 recovery failure

workloads: {}
schemes:   {} (default: lelantus)",
        workloads::NAMES.join(", "),
        SCHEMES.join(", ")
    );
    ExitCode::from(2)
}

/// [`parse_flags`] with the shared failure path: print the error,
/// print usage, hand back the usage exit code.
fn parse_or_usage(args: &[String], known: &[&str]) -> Result<HashMap<String, String>, ExitCode> {
    parse_flags(args, known).map_err(|e| {
        eprintln!("error: {e}");
        usage()
    })
}

/// Parses `--key value` pairs (and the boolean switches), rejecting
/// any key the subcommand does not list in `known`.
fn parse_flags(args: &[String], known: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(key) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument `{arg}`"));
        };
        if !known.contains(&key) {
            return Err(format!("unknown flag `{arg}`"));
        }
        if key == "json" || key == "tail" || key == "small" || key == "heatmap" {
            flags.insert(key.to_string(), "true".into());
            continue;
        }
        let Some(value) = it.next() else {
            return Err(format!("--{key} needs a value"));
        };
        if key == "scale" && Scale::parse(value).is_none() {
            return Err(format!("unknown --scale `{value}` (valid: small, medium, paper)"));
        }
        flags.insert(key.to_string(), value.clone());
    }
    Ok(flags)
}

fn scheme_of(name: &str) -> Option<CowStrategy> {
    match name {
        "baseline" => Some(CowStrategy::Baseline),
        "silent-shredder" | "ss" => Some(CowStrategy::SilentShredder),
        "lelantus" => Some(CowStrategy::Lelantus),
        "lelantus-cow" | "cow" => Some(CowStrategy::LelantusCow),
        _ => None,
    }
}

fn pages_of(name: &str) -> Option<PageSize> {
    match name {
        "4k" | "4K" | "4kb" => Some(PageSize::Regular4K),
        "2m" | "2M" | "2mb" => Some(PageSize::Huge2M),
        _ => None,
    }
}

/// The workload `name` at the `--scale` value `scale`, which
/// [`parse_flags`] has already checked.
fn workload_of(name: &str, scale: &str) -> Option<Box<dyn Workload>> {
    workloads::workload(name, Scale::parse(scale).expect("parse_flags checks --scale"))
}

fn run_one(workload: &dyn Workload, strategy: CowStrategy, pages: PageSize) -> WorkloadRun {
    let mut sys = System::new(SimConfig::new(strategy, pages));
    workload.run(&mut sys).unwrap_or_else(|e| {
        eprintln!("simulation failed: {e}");
        std::process::exit(1);
    })
}

/// Distinct non-zero exit code per malformed-trace failure, so CI and
/// scripts can tell truncation from tampering without parsing stderr.
fn trace_exit_code(e: &TraceError) -> u8 {
    match e {
        TraceError::Io(_) => 10,
        TraceError::BadMagic => 11,
        TraceError::BadVersion { .. } => 12,
        TraceError::Truncated => 13,
        TraceError::ChecksumMismatch { .. } => 14,
        TraceError::BadHeader { .. } => 15,
        TraceError::BadRecord { .. } => 16,
    }
}

fn replay_exit_code(e: &ReplayError) -> u8 {
    match e {
        ReplayError::Trace(t) => trace_exit_code(t),
        ReplayError::Os(_) => 17,
        ReplayError::Geometry { .. } => 18,
        ReplayError::Divergence { .. } => 19,
        ReplayError::Recovery(_) => 20,
    }
}

/// Opens and validates a `.ltr` file, exiting with the per-error code
/// on failure.
fn open_trace_or_exit(path: &str) -> Trace {
    Trace::open(path).unwrap_or_else(|e| {
        eprintln!("error: cannot open trace {path}: {e}");
        std::process::exit(trace_exit_code(&e) as i32);
    })
}

/// Validates `cfg`, built from the header of the trace at `path`: a
/// header describing a machine the simulator cannot build (say, more
/// memory than the cache tags address) exits with the bad-header code.
fn trace_config_or_exit(cfg: SimConfig, path: &str) -> SimConfig {
    if let Err(e) = cfg.validate() {
        eprintln!("error: trace {path} describes a machine the simulator cannot build: {e}");
        let bad = TraceError::BadHeader { reason: "unsupported geometry" };
        std::process::exit(trace_exit_code(&bad) as i32);
    }
    cfg
}

/// One replay of `trace` under `strategy` (geometry from the trace
/// header), returning final metrics, replay stats, and the ingest
/// wall-clock seconds. Exits with the per-error code on failure; a
/// divergence additionally prints the spatial context report (with
/// heat lanes when `heatmap` is on).
fn replay_one(
    trace: &Trace,
    strategy: CowStrategy,
    path: &str,
    heatmap: bool,
) -> (SimMetrics, ReplayStats, f64) {
    let header = trace.header();
    let mut cfg = SimConfig::new(strategy, header.page_size).with_phys_bytes(header.phys_bytes);
    if heatmap {
        cfg = cfg.with_heatmap();
    }
    let mut sys = System::new(trace_config_or_exit(cfg, path));
    let start = std::time::Instant::now();
    let stats = match replay(&mut sys, trace) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: replaying {path} under {strategy} failed: {e}");
            if let Some(report) = explain_divergence(&mut sys, trace, &e) {
                eprint!("{report}");
            }
            std::process::exit(replay_exit_code(&e) as i32);
        }
    };
    let wall = start.elapsed().as_secs_f64();
    (sys.finish(), stats, wall)
}

/// The stable `"trace"` object `run`/`report --json` carry: the source
/// file, what was ingested, and the end-to-end ingest rate. `None`
/// renders as `null` (synthetic workload, schema key still present).
fn trace_json(src: Option<(&str, &Trace, &ReplayStats, f64)>) -> String {
    let Some((path, trace, stats, wall)) = src else { return "null".into() };
    format!(
        concat!(
            "{{\"source\":\"{}\",\"file_bytes\":{},\"mapped\":{},\"records\":{},",
            "\"ops\":{},\"batches\":{},\"payload_bytes\":{},\"ingest_ops_per_s\":{:.0}}}"
        ),
        path,
        trace.file_bytes(),
        trace.is_mapped(),
        stats.records,
        stats.ops,
        stats.batches,
        stats.payload_bytes,
        stats.ops as f64 / wall.max(1e-9),
    )
}

/// `lelantus run --trace` / `lelantus compare --trace`: replay a
/// recorded `.ltr` file through one scheme (or all four, comparing
/// against the replayed baseline exactly like a synthetic `compare`).
fn trace_run(single: bool, path: &str, flags: &HashMap<String, String>) -> ExitCode {
    let json = flags.contains_key("json");
    let trace = open_trace_or_exit(path);
    let pages = trace.header().page_size;
    if single {
        let Some(strategy) =
            scheme_of(flags.get("scheme").map(String::as_str).unwrap_or("lelantus"))
        else {
            eprintln!("error: bad --scheme");
            return usage();
        };
        let (m, stats, wall) = replay_one(&trace, strategy, path, flags.contains_key("heatmap"));
        if json {
            println!(
                "{{\"workload\":\"trace\",\"scheme\":\"{strategy}\",\"pages\":\"{pages}\",\"metrics\":{},\"trace\":{}}}",
                json_metrics(&m),
                trace_json(Some((path, &trace, &stats, wall))),
            );
        } else {
            print_metrics_text(&format!("{path} / {strategy} / {pages} pages (replay)"), &m);
            println!(
                "  ingested {} ops in {} records ({:.1}M ops/s end-to-end, {})",
                stats.ops,
                stats.records,
                stats.ops as f64 / wall.max(1e-9) / 1e6,
                if trace.is_mapped() { "mmap" } else { "buffered" },
            );
        }
        return ExitCode::SUCCESS;
    }
    // compare: the same trace through every scheme.
    let (base, base_stats, base_wall) = replay_one(&trace, CowStrategy::Baseline, path, false);
    let mut rows = Vec::new();
    for strategy in CowStrategy::all() {
        let m = if strategy == CowStrategy::Baseline {
            base
        } else {
            replay_one(&trace, strategy, path, false).0
        };
        rows.push((
            strategy.to_string(),
            m.cycles.as_u64(),
            m.speedup_vs(&base),
            m.nvm.line_writes,
            m.write_fraction_vs(&base),
        ));
    }
    if json {
        let body: Vec<String> = rows
            .iter()
            .map(|(s, c, sp, w, wf)| {
                format!(
                    "{{\"scheme\":\"{s}\",\"cycles\":{c},\"speedup\":{sp:.4},\"nvm_writes\":{w},\"write_fraction\":{wf:.4}}}"
                )
            })
            .collect();
        println!(
            "{{\"workload\":\"trace\",\"pages\":\"{pages}\",\"schemes\":[{}],\"trace\":{}}}",
            body.join(","),
            trace_json(Some((path, &trace, &base_stats, base_wall))),
        );
    } else {
        println!("{path} / {pages} pages (replayed through every scheme)");
        println!(
            "{:>16}  {:>12}  {:>8}  {:>12}  {:>8}",
            "scheme", "cycles", "speedup", "NVM writes", "writes%"
        );
        for (s, c, sp, w, wf) in rows {
            println!(
                "{s:>16}  {c:>12}  {:>8}  {w:>12}  {:>8}",
                format!("{sp:.2}x"),
                format!("{:.1}%", wf * 100.0)
            );
        }
    }
    ExitCode::SUCCESS
}

/// `lelantus record <workload> -o <file.ltr>`: run a workload with the
/// trace recorder attached and seal the binary trace.
fn record_cmd(args: &[String]) -> ExitCode {
    let mut wl_name: Option<String> = None;
    let mut out: Option<String> = None;
    let mut flag_args: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-o" | "--out" => match it.next() {
                Some(v) => out = Some(v.clone()),
                None => {
                    eprintln!("error: {arg} needs a file path");
                    return usage();
                }
            },
            a if !a.starts_with('-') && wl_name.is_none() => wl_name = Some(a.to_string()),
            _ => flag_args.push(arg.clone()),
        }
    }
    let flags = match parse_or_usage(&flag_args, RECORD_FLAGS) {
        Ok(f) => f,
        Err(code) => return code,
    };
    let Some(wl_name) = wl_name.or_else(|| flags.get("workload").cloned()) else {
        eprintln!("error: record needs a workload (positional or --workload)");
        return usage();
    };
    let Some(out) = out else {
        eprintln!("error: record needs -o <file.ltr>");
        return usage();
    };
    let scale = flags.get("scale").map(String::as_str).unwrap_or("medium");
    let Some(workload) = workload_of(&wl_name, scale) else {
        eprintln!("error: unknown workload `{wl_name}`");
        return usage();
    };
    let Some(pages) = pages_of(flags.get("pages").map(String::as_str).unwrap_or("4k")) else {
        eprintln!("error: bad --pages");
        return usage();
    };
    let Some(strategy) = scheme_of(flags.get("scheme").map(String::as_str).unwrap_or("lelantus"))
    else {
        eprintln!("error: bad --scheme");
        return usage();
    };
    let json = flags.contains_key("json");

    let cfg = SimConfig::new(strategy, pages);
    let header = TraceHeader { page_size: pages, phys_bytes: cfg.kernel.phys_bytes };
    let rec = match TraceRecorder::create(&out, header) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: cannot create {out}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut sys = System::new(cfg);
    sys.record_into(rec.clone());
    let start = std::time::Instant::now();
    let run = workload.run(&mut sys).unwrap_or_else(|e| {
        eprintln!("simulation failed: {e}");
        std::process::exit(1);
    });
    sys.stop_recording();
    let totals = match rec.finish() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: writing {out} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let wall = start.elapsed().as_secs_f64();
    // Full-system metrics: what a replay of this trace reproduces
    // bit-for-bit (the workload's `measured` window excludes setup).
    let full = sys.metrics();
    let file_bytes = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
    if json {
        println!(
            concat!(
                "{{\"workload\":\"{}\",\"scheme\":\"{}\",\"pages\":\"{}\",\"out\":\"{}\",",
                "\"records\":{},\"ops\":{},\"file_bytes\":{},\"bytes_per_op\":{:.2},",
                "\"wall_clock_s\":{:.3},\"metrics\":{},\"metrics_full\":{}}}"
            ),
            workload.name(),
            strategy,
            pages,
            out,
            totals.records,
            totals.ops,
            file_bytes,
            file_bytes as f64 / totals.ops.max(1) as f64,
            wall,
            json_metrics(&run.measured),
            json_metrics(&full),
        );
    } else {
        println!("recorded {} / {strategy} / {pages} pages -> {out}", workload.name());
        println!(
            "  {} records, {} ops, {} bytes ({:.2} B/op), {wall:.2}s",
            totals.records,
            totals.ops,
            file_bytes,
            file_bytes as f64 / totals.ops.max(1) as f64
        );
        println!("  replay with: lelantus run --trace {out}");
    }
    ExitCode::SUCCESS
}

fn print_metrics_text(label: &str, m: &SimMetrics) {
    println!("{label}");
    println!("  cycles              {}", m.cycles.as_u64());
    println!("  nvm line writes     {}", m.nvm.line_writes);
    println!("  nvm line reads      {}", m.nvm.line_reads);
    println!("  cow faults          {}", m.kernel.cow_faults);
    println!("  redirected reads    {}", m.controller.redirected_reads);
    println!("  implicit copies     {}", m.controller.implicit_copies);
    println!("  page_copy cmds      {}", m.controller.cmd_page_copy);
    println!("  page_phyc cmds      {}", m.controller.cmd_page_phyc);
    println!("  counter overflows   {}", m.controller.minor_overflows);
    println!("  tlb walks           {}", m.tlb.walks);
    println!(
        "  tlb front hits      {} ({:.1}% of lookups served by the run cache)",
        m.tlb.front_hits,
        tlb_front_hit_rate(m) * 100.0
    );
}

/// Fraction of TLB lookups answered by the last-translation front
/// cache (the batched driver's run cache; a subset of L1 hits).
fn tlb_front_hit_rate(m: &SimMetrics) -> f64 {
    let lookups = m.tlb.l1_hits + m.tlb.l2_hits + m.tlb.walks;
    if lookups == 0 {
        return 0.0;
    }
    m.tlb.front_hits as f64 / lookups as f64
}

fn json_metrics(m: &SimMetrics) -> String {
    format!(
        concat!(
            "{{\"cycles\":{},\"nvm_writes\":{},\"nvm_reads\":{},\"cow_faults\":{},",
            "\"redirected_reads\":{},\"implicit_copies\":{},\"page_copy\":{},",
            "\"page_phyc\":{},\"overflows\":{},\"tlb_walks\":{},",
            "\"tlb_front_hits\":{},\"tlb_front_hit_rate\":{:.4}}}"
        ),
        m.cycles.as_u64(),
        m.nvm.line_writes,
        m.nvm.line_reads,
        m.kernel.cow_faults,
        m.controller.redirected_reads,
        m.controller.implicit_copies,
        m.controller.cmd_page_copy,
        m.controller.cmd_page_phyc,
        m.controller.minor_overflows,
        m.tlb.walks,
        m.tlb.front_hits,
        tlb_front_hit_rate(m),
    )
}

fn hist_json(h: &HdrHistogram) -> String {
    format!(
        "{{\"count\":{},\"mean\":{:.3},\"max\":{},\"p50\":{},\"p99\":{}}}",
        h.count(),
        h.mean(),
        h.max(),
        h.percentile(0.50),
        h.percentile(0.99),
    )
}

/// An epoch's write-queue depth `(p99, max)`; zeros when the epoch
/// carries no histograms.
fn queue_depth(e: &EpochSample) -> (u64, u64) {
    e.hists.as_ref().map_or((0, 0), |h| {
        let q = h.get(HistKind::WriteQueueDepth);
        (q.percentile(0.99), q.max())
    })
}

fn tail_summary_json(s: &TailSummary) -> String {
    format!(
        "{{\"count\":{},\"mean\":{:.3},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{}}}",
        s.count,
        s.mean(),
        s.max,
        s.p50,
        s.p90,
        s.p99,
        s.p999,
    )
}

fn ledger_json(l: &CycleLedger) -> String {
    let cats: Vec<String> = CycleCategory::ALL
        .iter()
        .filter(|&&c| l.get(c) > 0)
        .map(|&c| format!("\"{}\":{}", c.name(), l.get(c)))
        .collect();
    format!("{{{}}}", cats.join(","))
}

/// Renders the tail recorder's state (`null` when `--tail` is off so
/// the JSON schema stays stable): overall summary, one summary per
/// action (all six keys always present), the worst-offender exemplars
/// with their per-span cycle breakdown, and the per-epoch percentile +
/// queue-depth time series.
fn tail_json(tail: Option<&TailRecorder>, epochs: &[EpochSample]) -> String {
    let Some(t) = tail else { return "null".into() };
    let actions: Vec<String> = FaultAction::ALL
        .iter()
        .map(|&a| {
            format!("\"{}\":{}", a.name(), tail_summary_json(&t.action_histogram(a).summary()))
        })
        .collect();
    let worst: Vec<String> = t
        .worst()
        .iter()
        .map(|s| {
            format!(
                "{{\"latency\":{},\"start\":{},\"end\":{},\"pid\":{},\"va\":{},\"pa\":{},\"action\":\"{}\",\"ledger\":{}}}",
                s.latency(),
                s.start,
                s.end,
                s.pid,
                s.va,
                s.pa,
                s.action.name(),
                ledger_json(&s.ledger),
            )
        })
        .collect();
    let series: Vec<String> = epochs
        .iter()
        .map(|e| {
            let (q_p99, q_max) = queue_depth(e);
            format!(
                "{{\"end_cycle\":{},\"spans\":{},\"p50\":{},\"p99\":{},\"p999\":{},\"max\":{},\"queue_depth_p99\":{},\"queue_depth_max\":{}}}",
                e.end_cycle.as_u64(),
                e.tail.count,
                e.tail.p50,
                e.tail.p99,
                e.tail.p999,
                e.tail.max,
                q_p99,
                q_max,
            )
        })
        .collect();
    format!(
        "{{\"top_k\":{},\"summary\":{},\"actions\":{{{}}},\"worst\":[{}],\"epochs\":[{}]}}",
        t.top_k(),
        tail_summary_json(&t.summary()),
        actions.join(","),
        worst.join(","),
        series.join(","),
    )
}

/// Renders the merged heat grid (`null` when `--heatmap` is off so the
/// JSON schema stays stable): extent, concentration summary, nonzero
/// per-lane totals, and the hottest regions.
fn heat_json(grid: Option<&HeatGrid>) -> String {
    let Some(g) = grid else { return "null".into() };
    let lanes: Vec<String> = HeatLane::ALL
        .iter()
        .filter(|&&l| g.lane_total(l) > 0)
        .map(|&l| format!("\"{}\":{}", l.name(), g.lane_total(l)))
        .collect();
    let top: Vec<String> = g
        .top_regions(10)
        .iter()
        .map(|&(r, t)| format!("{{\"region\":{r},\"total\":{t}}}"))
        .collect();
    format!(
        concat!(
            "{{\"regions\":{},\"touched\":{},\"total\":{},\"gini\":{:.4},",
            "\"top_share_1pct\":{:.4},\"lanes\":{{{}}},\"top\":[{}]}}"
        ),
        g.regions(),
        g.touched_regions(),
        g.total(),
        g.gini(),
        g.top_share(0.01),
        lanes.join(","),
        top.join(","),
    )
}

/// Human rendering of the heat grid: the concentration headline plus
/// the hottest regions with their dominant lanes.
fn print_heat_text(g: &HeatGrid) {
    println!();
    println!(
        "spatial heat: {} of {} regions touched, gini {:.3}, top-1% regions carry {:.1}%",
        g.touched_regions(),
        g.regions(),
        g.gini(),
        g.top_share(0.01) * 100.0,
    );
    println!("  {:>10} {:>12}  dominant lanes", "region", "heat");
    for (r, t) in g.top_regions(8) {
        let mut lanes: Vec<(&str, u32)> = HeatLane::ALL
            .iter()
            .map(|&l| (l.name(), g.get(l, r)))
            .filter(|&(_, c)| c > 0)
            .collect();
        lanes.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        let dominant =
            lanes.iter().take(3).map(|(n, c)| format!("{n}={c}")).collect::<Vec<_>>().join(" ");
        println!("  {r:>10} {t:>12}  {dominant}");
    }
}

/// Exports the grid for plotting: a PGM (P2) image with one row per
/// lane and one column per region when `path` ends in `.pgm`, a sparse
/// `lane,region,count` CSV otherwise.
fn write_grid(path: &str, g: &HeatGrid) -> std::io::Result<()> {
    let regions = g.regions().max(1);
    if path.ends_with(".pgm") {
        let max =
            HeatLane::ALL.iter().flat_map(|&l| g.lane(l).iter().copied()).max().unwrap_or(0).max(1);
        let mut doc = format!("P2\n{regions} {}\n255\n", HeatLane::COUNT);
        for lane in HeatLane::ALL {
            let row = g.lane(lane);
            let cells: Vec<String> = (0..regions)
                .map(|i| {
                    let v = row.get(i).copied().unwrap_or(0);
                    (u64::from(v) * 255 / u64::from(max)).to_string()
                })
                .collect();
            doc.push_str(&cells.join(" "));
            doc.push('\n');
        }
        std::fs::write(path, doc)
    } else {
        let mut doc = String::from("lane,region,count\n");
        for lane in HeatLane::ALL {
            for (i, &c) in g.lane(lane).iter().enumerate() {
                if c > 0 {
                    doc.push_str(&format!("{},{i},{c}\n", lane.name()));
                }
            }
        }
        std::fs::write(path, doc)
    }
}

/// Human rendering of the tail recorder: per-action percentile table,
/// worst-offender exemplars, and the per-epoch tail / queue-depth
/// series.
fn print_tail_text(t: &TailRecorder, epochs: &[EpochSample]) {
    println!();
    println!("tail latency (cycles per fault span):");
    println!(
        "  {:<14} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "action", "count", "p50", "p90", "p99", "p999", "max"
    );
    let row = |label: &str, s: &TailSummary| {
        println!(
            "  {:<14} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}",
            label, s.count, s.p50, s.p90, s.p99, s.p999, s.max
        );
    };
    row("overall", &t.summary());
    for action in FaultAction::ALL {
        let s = t.action_histogram(action).summary();
        if s.count > 0 {
            row(action.name(), &s);
        }
    }
    if !t.worst().is_empty() {
        println!();
        println!("worst offenders (top {}):", t.worst().len());
        println!(
            "  {:>9}  {:<14} {:>5} {:>14} {:>14}  breakdown",
            "latency", "action", "pid", "va", "pa"
        );
        for s in t.worst() {
            // The two biggest ledger categories tell the story; the
            // JSON output carries the full breakdown.
            let mut cats: Vec<(lelantus::sim::CycleCategory, u64)> = CycleCategory::ALL
                .iter()
                .map(|&c| (c, s.ledger.get(c)))
                .filter(|&(_, n)| n > 0)
                .collect();
            cats.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
            let breakdown = if cats.is_empty() {
                "(enable --tail with profile/ledger for per-span cycles)".into()
            } else {
                cats.iter()
                    .take(2)
                    .map(|(c, n)| format!("{}={n}", c.name()))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            println!(
                "  {:>9}  {:<14} {:>5} {:>14x} {:>14x}  {breakdown}",
                s.latency(),
                s.action.name(),
                s.pid,
                s.va,
                s.pa,
            );
        }
    }
    let active: Vec<&EpochSample> = epochs.iter().filter(|e| e.tail.count > 0).collect();
    if !active.is_empty() {
        const SHOWN: usize = 12;
        println!();
        println!(
            "tail per epoch ({} epochs with spans, showing first {}):",
            active.len(),
            SHOWN.min(active.len())
        );
        println!(
            "  {:>14} {:>8} {:>9} {:>9} {:>9} {:>10} {:>10}",
            "end_cycle", "spans", "p50", "p99", "p999", "queue_p99", "queue_max"
        );
        for e in active.iter().take(SHOWN) {
            let (q_p99, q_max) = queue_depth(e);
            println!(
                "  {:>14} {:>8} {:>9} {:>9} {:>9} {:>10} {:>10}",
                e.end_cycle.as_u64(),
                e.tail.count,
                e.tail.p50,
                e.tail.p99,
                e.tail.p999,
                q_p99,
                q_max,
            );
        }
    }
}

fn report(flags: &HashMap<String, String>) -> ExitCode {
    let scale = flags.get("scale").map(String::as_str).unwrap_or("medium");
    // `--replay <file.ltr>` swaps the synthetic workload for a
    // recorded trace; geometry then comes from the trace header.
    let replay_src: Option<(String, Trace)> =
        flags.get("replay").map(|p| (p.clone(), open_trace_or_exit(p)));
    let workload: Option<Box<dyn Workload>> = if replay_src.is_some() {
        None
    } else {
        let Some(wl_name) = flags.get("workload") else {
            eprintln!("error: --workload is required (or --replay <file.ltr>)");
            return usage();
        };
        let Some(w) = workload_of(wl_name, scale) else {
            eprintln!("error: unknown workload `{wl_name}`");
            return usage();
        };
        Some(w)
    };
    let pages = match &replay_src {
        Some((_, t)) => t.header().page_size,
        None => {
            let Some(p) = pages_of(flags.get("pages").map(String::as_str).unwrap_or("4k")) else {
                eprintln!("error: bad --pages");
                return usage();
            };
            p
        }
    };
    let Some(strategy) = scheme_of(flags.get("scheme").map(String::as_str).unwrap_or("lelantus"))
    else {
        eprintln!("error: bad --scheme");
        return usage();
    };
    let epoch: u64 = match flags.get("epoch").map(String::as_str).unwrap_or("100000").parse() {
        Ok(n) => n,
        Err(_) => {
            eprintln!("error: bad --epoch");
            return usage();
        }
    };
    let ring_cap: usize = match flags.get("ring").map(String::as_str).unwrap_or("65536").parse() {
        Ok(n) if n > 0 => n,
        _ => {
            eprintln!("error: --ring needs a positive event count");
            return usage();
        }
    };
    let jsonl = match flags.get("events") {
        Some(path) => match JsonlSink::create(path) {
            Ok(p) => Some(p),
            Err(e) => {
                eprintln!("error: cannot create {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let json = flags.contains_key("json");
    let tail_enabled = flags.contains_key("tail");
    let heatmap_enabled = flags.contains_key("heatmap");

    // The event view: a bounded ring for the in-process summary, plus
    // every event streamed to the JSONL file when `--events` is set.
    let mut cfg = SimConfig::new(strategy, pages).with_epoch_interval(epoch).with_events(ring_cap);
    if let Some((path, t)) = &replay_src {
        cfg = trace_config_or_exit(cfg.with_phys_bytes(t.header().phys_bytes), path);
    }
    if tail_enabled {
        // The ledger rides along so each worst-offender span carries a
        // per-category cycle breakdown.
        cfg = cfg.with_tail_recorder().with_cycle_ledger();
    }
    if heatmap_enabled {
        cfg = cfg.with_heatmap();
    }
    let mut sys = System::new(cfg);
    if let Some(sink) = &jsonl {
        sys.stream_events_into(sink.clone());
    }
    let wl_name = workload.as_ref().map(|w| w.name()).unwrap_or("replay");
    let (run, replay_stats) = match (&workload, &replay_src) {
        (Some(w), _) => {
            let run = w.run(&mut sys).unwrap_or_else(|e| {
                eprintln!("simulation failed: {e}");
                std::process::exit(1);
            });
            (run, None)
        }
        (None, Some((path, trace))) => {
            let start = std::time::Instant::now();
            let stats = match replay(&mut sys, trace) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: replaying {path} failed: {e}");
                    if let Some(report) = explain_divergence(&mut sys, trace, &e) {
                        eprint!("{report}");
                    }
                    std::process::exit(replay_exit_code(&e) as i32);
                }
            };
            let wall = start.elapsed().as_secs_f64();
            let measured = sys.finish();
            (WorkloadRun { measured, logical_line_writes: stats.ops }, Some((stats, wall)))
        }
        (None, None) => unreachable!("either a workload or a replay source is set"),
    };
    let m = run.measured;
    let full = sys.metrics();
    let tail = sys.tail_recorder().cloned();
    let heat = sys.heatmap();
    let ring = sys.events().expect("report runs with the event view on");
    let counts = ring.counts();
    let hists = ring.histograms();
    let epochs = sys.epochs().to_vec();

    if let Some(path) = flags.get("grid") {
        match &heat {
            Some(g) => {
                if let Err(e) = write_grid(path, g) {
                    eprintln!("error: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            None => eprintln!("warning: --grid needs --heatmap; no grid written"),
        }
    }

    if let Some(p) = &jsonl {
        if let Err(e) = p.flush() {
            eprintln!("warning: flushing {} failed: {e}", p.path().display());
        }
    }

    // Epoch counter tracks: the attribution time series both the
    // chrome trace and the JSON report carry.
    let series: Vec<CounterSeries> = [
        (
            "nvm_line_writes",
            Box::new(|d: &SimMetrics| d.nvm.line_writes) as Box<dyn Fn(&SimMetrics) -> u64>,
        ),
        ("cow_faults", Box::new(|d: &SimMetrics| d.kernel.cow_faults)),
        ("redirected_reads", Box::new(|d: &SimMetrics| d.controller.redirected_reads)),
        ("counter_fetches", Box::new(|d: &SimMetrics| d.controller.counter_fetches)),
    ]
    .into_iter()
    .map(|(name, get)| CounterSeries {
        name: format!("{name}_per_epoch"),
        points: epochs.iter().map(|e| (e.end_cycle.as_u64(), get(&e.delta) as f64)).collect(),
    })
    .collect();

    if let Some(path) = flags.get("trace") {
        let doc = chrome_trace(&ring.events(), &series);
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    if json {
        // Every kind appears with an explicit (possibly zero) count so
        // downstream diffing sees a stable key set run-over-run.
        let events: Vec<String> = (0..EventKind::COUNT)
            .map(|i| format!("\"{}\":{}", EventKind::name_of(i), counts[i]))
            .collect();
        let hist_body: Vec<String> = HistKind::ALL
            .iter()
            .map(|k| format!("\"{}\":{}", k.name(), hist_json(hists.get(*k))))
            .collect();
        let epoch_body: Vec<String> = epochs
            .iter()
            .map(|e| {
                format!(
                    "{{\"end_cycle\":{},\"cycles\":{},\"nvm_writes\":{},\"cow_faults\":{},\"redirected_reads\":{},\"counter_fetches\":{}}}",
                    e.end_cycle.as_u64(),
                    e.delta.cycles.as_u64(),
                    e.delta.nvm.line_writes,
                    e.delta.kernel.cow_faults,
                    e.delta.controller.redirected_reads,
                    e.delta.controller.counter_fetches,
                )
            })
            .collect();
        let trace_body = trace_json(
            replay_src
                .as_ref()
                .zip(replay_stats.as_ref())
                .map(|((path, trace), (stats, wall))| (path.as_str(), trace, stats, *wall)),
        );
        println!(
            "{{\"workload\":\"{wl_name}\",\"scheme\":\"{strategy}\",\"pages\":\"{pages}\",\"epoch_interval\":{epoch},\"metrics\":{},\"metrics_full\":{},\"trace\":{},\"events\":{{{}}},\"events_total\":{},\"ring_dropped\":{},\"histograms\":{{{}}},\"tail\":{},\"heatmap\":{},\"epochs\":[{}]}}",
            json_metrics(&m),
            json_metrics(&full),
            trace_body,
            events.join(","),
            ring.total(),
            ring.dropped(),
            hist_body.join(","),
            tail_json(tail.as_ref(), &epochs),
            heat_json(heat.as_ref()),
            epoch_body.join(","),
        );
        return ExitCode::SUCCESS;
    }

    print_metrics_text(
        &format!("{wl_name} / {strategy} / {pages} pages (epoch {epoch} cycles)"),
        &m,
    );
    if let (Some((path, trace)), Some((stats, wall))) = (&replay_src, &replay_stats) {
        println!(
            "  replayed {path}: {} ops in {} records ({:.1}M ops/s end-to-end, {})",
            stats.ops,
            stats.records,
            stats.ops as f64 / wall.max(1e-9) / 1e6,
            if trace.is_mapped() { "mmap" } else { "buffered" },
        );
    }
    println!();
    println!(
        "events: {} emitted, ring kept {}, dropped {}",
        ring.total(),
        ring.events().len(),
        ring.dropped()
    );
    println!("  (events cover the whole run; headline metrics above are the measured interval)");
    println!(
        "  full run: {} nvm writes, {} cow faults, {} redirected reads, {} counter fetches",
        full.nvm.line_writes,
        full.kernel.cow_faults,
        full.controller.redirected_reads,
        full.controller.counter_fetches
    );
    for (i, &n) in counts.iter().enumerate() {
        if n > 0 {
            println!("  {:<20} {n:>12}", EventKind::name_of(i));
        }
    }
    println!();
    for kind in HistKind::ALL {
        let h = hists.get(kind);
        if h.count() > 0 {
            println!("histogram {}:", kind.name());
            for line in h.to_string().lines() {
                println!("  {line}");
            }
        }
    }
    if !epochs.is_empty() {
        const SHOWN: usize = 12;
        println!();
        println!(
            "epochs: {} of {epoch} cycles (showing first {})",
            epochs.len(),
            SHOWN.min(epochs.len())
        );
        println!(
            "  {:>14}  {:>10}  {:>10}  {:>12}  {:>12}",
            "end_cycle", "nvm_wr", "cow_faults", "redir_reads", "ctr_fetches"
        );
        for e in epochs.iter().take(SHOWN) {
            println!(
                "  {:>14}  {:>10}  {:>10}  {:>12}  {:>12}",
                e.end_cycle.as_u64(),
                e.delta.nvm.line_writes,
                e.delta.kernel.cow_faults,
                e.delta.controller.redirected_reads,
                e.delta.controller.counter_fetches,
            );
        }
    }
    if let Some(t) = &tail {
        print_tail_text(t, &epochs);
    }
    if let Some(g) = &heat {
        print_heat_text(g);
    }
    if let Some(path) = flags.get("grid") {
        if heat.is_some() {
            println!("heat grid: {path} (one row per lane, one column per region)");
        }
    }
    if let Some(p) = &jsonl {
        println!();
        println!("events JSONL: {}", p.path().display());
    }
    if let Some(path) = flags.get("trace") {
        println!("chrome trace: {path} (load in chrome://tracing or ui.perfetto.dev)");
    }
    ExitCode::SUCCESS
}

fn profile(flags: &HashMap<String, String>) -> ExitCode {
    let scale = flags.get("scale").map(String::as_str).unwrap_or("medium");
    let Some(wl_name) = flags.get("workload") else {
        eprintln!("error: --workload is required");
        return usage();
    };
    let Some(workload) = workload_of(wl_name, scale) else {
        eprintln!("error: unknown workload `{wl_name}`");
        return usage();
    };
    let Some(pages) = pages_of(flags.get("pages").map(String::as_str).unwrap_or("4k")) else {
        eprintln!("error: bad --pages");
        return usage();
    };
    let Some(strategy) = scheme_of(flags.get("scheme").map(String::as_str).unwrap_or("lelantus"))
    else {
        eprintln!("error: bad --scheme");
        return usage();
    };
    let epoch: u64 = match flags.get("epoch").map(String::as_str).unwrap_or("100000").parse() {
        Ok(n) => n,
        Err(_) => {
            eprintln!("error: bad --epoch");
            return usage();
        }
    };
    let json = flags.contains_key("json");

    selfprof::reset();
    selfprof::enable();
    let cfg = SimConfig::new(strategy, pages).with_cycle_ledger().with_epoch_interval(epoch);
    let mut sys = System::new(cfg);
    let run = workload.run(&mut sys).unwrap_or_else(|e| {
        eprintln!("simulation failed: {e}");
        std::process::exit(1);
    });
    sys.finish();
    selfprof::disable();
    let total = sys.metrics().cycles.as_u64();
    let ledger = sys.cycle_ledger();
    let epochs = sys.epochs().to_vec();
    let prof = selfprof::report();

    // The ledger's defining invariant; a mismatch means a charging
    // site was missed and the breakdown cannot be trusted.
    let sum = ledger.total();
    if sum != total {
        eprintln!("error: ledger sum {sum} != total cycles {total} (attribution hole)");
        return ExitCode::FAILURE;
    }

    // Per-category rows, largest first.
    let mut rows: Vec<(CycleCategory, u64)> =
        CycleCategory::ALL.iter().map(|&c| (c, ledger.get(c))).filter(|&(_, n)| n > 0).collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.name().cmp(b.0.name())));

    if let Some(path) = flags.get("folded") {
        // Flamegraph-folded stacks: one line per category, weight =
        // cycles (feed to inferno/flamegraph.pl).
        let mut doc = String::new();
        for &(cat, n) in &rows {
            doc.push_str(&format!("lelantus;{};{strategy};{} {n}\n", workload.name(), cat.name()));
        }
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    if let Some(path) = flags.get("trace") {
        // One lane per category; within each epoch the categories are
        // laid out back-to-back (attribution is per-epoch aggregate,
        // so the lanes tile each epoch window exactly).
        let mut spans = Vec::new();
        for e in &epochs {
            let mut at = e.end_cycle.as_u64() - e.delta.cycles.as_u64();
            for (i, &cat) in CycleCategory::ALL.iter().enumerate() {
                let n = e.ledger.get(cat);
                if n > 0 {
                    spans.push(Span {
                        name: cat.name().to_string(),
                        tid: i as u32 + 1,
                        start_cycle: at,
                        dur_cycles: n,
                    });
                    at += n;
                }
            }
        }
        let doc = chrome_trace_with_spans(&[], &[], &spans);
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    if json {
        let cats: Vec<String> = rows.iter().map(|(c, n)| format!("\"{}\":{n}", c.name())).collect();
        let epoch_body: Vec<String> = epochs
            .iter()
            .map(|e| {
                let cats: Vec<String> = CycleCategory::ALL
                    .iter()
                    .filter(|&&c| e.ledger.get(c) > 0)
                    .map(|&c| format!("\"{}\":{}", c.name(), e.ledger.get(c)))
                    .collect();
                format!(
                    "{{\"end_cycle\":{},\"cycles\":{},\"ledger\":{{{}}}}}",
                    e.end_cycle.as_u64(),
                    e.delta.cycles.as_u64(),
                    cats.join(",")
                )
            })
            .collect();
        let prof_body: Vec<String> = prof
            .iter()
            .map(|s| {
                format!(
                    "{{\"site\":\"{}\",\"calls\":{},\"total_ns\":{},\"mean_ns\":{:.1}}}",
                    s.site,
                    s.calls,
                    s.total_ns,
                    s.mean_ns()
                )
            })
            .collect();
        println!(
            "{{\"workload\":\"{}\",\"scheme\":\"{strategy}\",\"pages\":\"{pages}\",\"epoch_interval\":{epoch},\"total_cycles\":{total},\"ledger_sum\":{sum},\"measured_cycles\":{},\"categories\":{{{}}},\"epochs\":[{}],\"selfprof\":[{}]}}",
            workload.name(),
            run.measured.cycles.as_u64(),
            cats.join(","),
            epoch_body.join(","),
            prof_body.join(","),
        );
        return ExitCode::SUCCESS;
    }

    println!(
        "{} / {strategy} / {pages} pages — cycle attribution over the full run",
        workload.name()
    );
    println!("  total cycles   {total} (measured interval: {})", run.measured.cycles.as_u64());
    println!();
    println!("  {:<16} {:>16} {:>8}", "category", "cycles", "share");
    for &(cat, n) in &rows {
        println!("  {:<16} {n:>16} {:>7.2}%", cat.name(), n as f64 * 100.0 / total as f64);
    }
    println!("  {:<16} {sum:>16} {:>7.2}%", "sum", 100.0);
    println!("  sum check: {sum} == {total} total cycles ✓");
    if !prof.is_empty() {
        println!();
        println!("  self-profiler (host wall clock):");
        println!("  {:<24} {:>10} {:>12} {:>12}", "site", "calls", "total_ms", "mean_ns");
        for s in &prof {
            println!(
                "  {:<24} {:>10} {:>12.3} {:>12.1}",
                s.site,
                s.calls,
                s.total_ns as f64 / 1e6,
                s.mean_ns()
            );
        }
    }
    if let Some(path) = flags.get("folded") {
        println!();
        println!("folded stacks: {path} (feed to flamegraph.pl / inferno)");
    }
    if let Some(path) = flags.get("trace") {
        println!("chrome trace: {path} (load in chrome://tracing or ui.perfetto.dev)");
    }
    ExitCode::SUCCESS
}

fn bench_diff(args: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut tolerance = 0.25f64;
    let mut json = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--tolerance" => {
                let parsed = it.next().and_then(|v| v.parse::<f64>().ok());
                match parsed {
                    Some(t) if t >= 0.0 => tolerance = t,
                    _ => {
                        eprintln!("error: --tolerance needs a non-negative fraction");
                        return usage();
                    }
                }
            }
            other if !other.starts_with("--") => files.push(other.to_string()),
            other => {
                eprintln!("error: unexpected flag `{other}`");
                return usage();
            }
        }
    }
    let [base_path, new_path] = files.as_slice() else {
        eprintln!("error: bench-diff needs exactly two results files");
        return usage();
    };
    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(text) => parse_results(&text),
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let base = read(base_path);
    let new = read(new_path);
    let report = diff(&base, &new, tolerance);
    let regressions = report.regressions();

    if json {
        let body: Vec<String> = report
            .entries
            .iter()
            .map(|e| {
                format!(
                    "{{\"key\":\"{}\",\"unit\":\"{}\",\"base\":{},\"new\":{},\"ratio\":{:.4},\"regression\":{}}}",
                    e.key, e.unit, e.base, e.new, e.ratio, e.regression
                )
            })
            .collect();
        let list =
            |v: &[String]| v.iter().map(|k| format!("\"{k}\"")).collect::<Vec<_>>().join(",");
        println!(
            "{{\"tolerance\":{tolerance},\"compared\":{},\"regressions\":{},\"entries\":[{}],\"only_base\":[{}],\"only_new\":[{}]}}",
            report.entries.len(),
            regressions.len(),
            body.join(","),
            list(&report.only_base),
            list(&report.only_new),
        );
    } else {
        println!(
            "compared {} metric(s), tolerance ±{:.0}% — {} regression(s)",
            report.entries.len(),
            tolerance * 100.0,
            regressions.len()
        );
        for e in &regressions {
            println!(
                "  REGRESSION {:<44} {:>12.3} -> {:>12.3} {} ({:.2}x)",
                e.key, e.base, e.new, e.unit, e.ratio
            );
        }
        for k in &report.only_base {
            println!("  missing in candidate: {k}");
        }
        for k in &report.only_new {
            println!("  new metric: {k}");
        }
    }
    if regressions.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `lelantus tail`: the fig11-style tail sweep — every paper workload
/// on every scheme with the span recorder on, reporting p50/p99/p999
/// fault-service latency and recording the percentiles into
/// `BENCH_RESULTS.json` for bench-diff gating.
fn tail_sweep(flags: &HashMap<String, String>) -> ExitCode {
    const PAPER_WORKLOADS: &[&str] = &["boot", "compile", "forkbench", "redis", "mariadb", "shell"];
    let scale = flags.get("scale").map(String::as_str).unwrap_or("medium");
    let Some(pages) = pages_of(flags.get("pages").map(String::as_str).unwrap_or("4k")) else {
        eprintln!("error: bad --pages");
        return usage();
    };
    let top_k: usize = match flags.get("top-k").map(String::as_str).unwrap_or("16").parse() {
        Ok(n) => n,
        Err(_) => {
            eprintln!("error: bad --top-k");
            return usage();
        }
    };
    let json = flags.contains_key("json");

    let started = std::time::Instant::now();
    let mut records = Vec::new();
    let mut rows: Vec<String> = Vec::new();
    if !json {
        println!("tail sweep: {scale} scale, {pages} pages (fault-service cycles per span)");
        println!(
            "  {:<10} {:<16} {:>8} {:>9} {:>9} {:>9} {:>9}",
            "workload", "scheme", "faults", "p50", "p99", "p999", "max"
        );
    }
    for &wl_name in PAPER_WORKLOADS {
        let mut scheme_rows: Vec<String> = Vec::new();
        for strategy in CowStrategy::all() {
            let workload = workload_of(wl_name, scale).expect("paper workload names are all known");
            // Recorder only — no cycle ledger — so the sweep stays
            // close to the untraced fast path.
            let cfg = SimConfig::new(strategy, pages).with_tail_recorder().with_tail_top_k(top_k);
            let mut sys = System::new(cfg);
            workload.run(&mut sys).unwrap_or_else(|e| {
                eprintln!("simulation failed ({wl_name}/{strategy}): {e}");
                std::process::exit(1);
            });
            let s = sys
                .tail_recorder()
                .map(|t| t.summary())
                .expect("tail recorder was enabled for every sweep run");
            for (metric, value) in
                [("fault_p50", s.p50), ("fault_p99", s.p99), ("fault_p999", s.p999)]
            {
                records.push(Record::with_scheme(
                    format!("{metric}/{wl_name}"),
                    strategy.to_string(),
                    value as f64,
                    "cycles",
                ));
            }
            if json {
                scheme_rows.push(format!("\"{strategy}\":{}", tail_summary_json(&s)));
            } else {
                println!(
                    "  {:<10} {:<16} {:>8} {:>9} {:>9} {:>9} {:>9}",
                    wl_name,
                    strategy.to_string(),
                    s.count,
                    s.p50,
                    s.p99,
                    s.p999,
                    s.max
                );
            }
        }
        if json {
            rows.push(format!("\"{wl_name}\":{{{}}}", scheme_rows.join(",")));
        }
    }
    let wall = started.elapsed().as_secs_f64();
    if json {
        println!(
            "{{\"scale\":\"{scale}\",\"pages\":\"{pages}\",\"wall_clock_s\":{wall:.3},\"workloads\":{{{}}}}}",
            rows.join(","),
        );
    } else {
        println!("  ({wall:.1}s wall clock; percentiles recorded to BENCH_RESULTS.json)");
    }
    emit("tail_latency", wall, &records);
    ExitCode::SUCCESS
}

/// `lelantus storm`: the fork-storm multi-tenant kernel-plane sweep.
/// Runs [`Storm`] at full scale (1024 tenants × 1024-page regions — a
/// million-plus live 4 KB pages) on every scheme with the per-fault
/// span recorder, and records per-scheme kernel-op throughput, fault
/// tail percentiles and resident pages into `BENCH_RESULTS.json`.
fn storm_sweep(flags: &HashMap<String, String>) -> ExitCode {
    let mut storm = if flags.contains_key("small") { Storm::small() } else { Storm::full() };
    let parse_u64 = |key: &str| -> Result<Option<u64>, ExitCode> {
        match flags.get(key) {
            None => Ok(None),
            Some(v) => match v.parse::<u64>() {
                Ok(n) if n > 0 => Ok(Some(n)),
                _ => {
                    eprintln!("error: --{key} needs a positive integer");
                    Err(usage())
                }
            },
        }
    };
    match parse_u64("tenants") {
        Ok(Some(n)) => storm.tenants = n,
        Ok(None) => {}
        Err(e) => return e,
    }
    match parse_u64("depth") {
        Ok(Some(n)) => storm.fork_depth = n,
        Ok(None) => {}
        Err(e) => return e,
    }
    match parse_u64("touched") {
        Ok(Some(n)) => storm.touched_pages_per_child = n,
        Ok(None) => {}
        Err(e) => return e,
    }
    match parse_u64("region-kb") {
        Ok(Some(n)) => storm.region_bytes = n * 1024,
        Ok(None) => {}
        Err(e) => return e,
    }
    let json = flags.contains_key("json");

    let phys = storm.phys_bytes();
    let target_pages = storm.tenants * storm.region_bytes / 4096;
    if !json {
        println!(
            "fork storm: {} tenants × depth {} over {} KB regions \
             ({target_pages} resident 4K pages, {} MB phys)",
            storm.tenants,
            storm.fork_depth,
            storm.region_bytes >> 10,
            phys >> 20
        );
        println!(
            "  {:<16} {:>12} {:>12} {:>9} {:>9} {:>9} {:>9}",
            "scheme", "kernel ops", "ops/s", "p50", "p99", "p999", "live pages"
        );
    }
    let started = std::time::Instant::now();
    let mut records = Vec::new();
    let mut rows: Vec<String> = Vec::new();
    for strategy in CowStrategy::all() {
        let cfg = SimConfig::new(strategy, PageSize::Regular4K)
            .with_phys_bytes(phys)
            .with_tail_recorder();
        let mut sys = System::new(cfg);
        let fail = |e| -> ! {
            eprintln!("simulation failed (storm/{strategy}): {e}");
            std::process::exit(1);
        };
        let state = storm.setup(&mut sys).unwrap_or_else(|e| fail(e));
        let stats_before = sys.kernel().stats();
        let wall_start = std::time::Instant::now();
        storm.measure(&mut sys, &state).unwrap_or_else(|e| fail(e));
        let wall_s = wall_start.elapsed().as_secs_f64();
        let delta = sys.kernel().stats().delta_since(&stats_before);
        // Kernel-plane operations the storm drives: forks, faults of
        // every kind, and page releases. This is the figure the O(1)
        // structures exist to scale.
        let kernel_ops = delta.forks + delta.cow_faults + delta.reuse_faults + delta.pages_freed;
        let ops_per_s = kernel_ops as f64 / wall_s.max(1e-9);
        let end = sys.kernel().stats();
        let live_pages = end.pages_allocated - end.pages_freed;
        let s = sys
            .tail_recorder()
            .map(|t| t.summary())
            .expect("tail recorder was enabled for every storm run");
        records.push(Record::with_scheme(
            "storm_ops_per_s",
            strategy.to_string(),
            ops_per_s,
            "ops/s",
        ));
        for (metric, value) in
            [("storm_fault_p50", s.p50), ("storm_fault_p99", s.p99), ("storm_fault_p999", s.p999)]
        {
            records.push(Record::with_scheme(metric, strategy.to_string(), value as f64, "cycles"));
        }
        records.push(Record::with_scheme(
            "storm_live_pages",
            strategy.to_string(),
            live_pages as f64,
            "pages",
        ));
        if json {
            rows.push(format!(
                "\"{strategy}\":{{\"kernel_ops\":{kernel_ops},\"ops_per_s\":{ops_per_s:.1},\
                 \"wall_s\":{wall_s:.3},\"live_pages\":{live_pages},\"tail\":{}}}",
                tail_summary_json(&s)
            ));
        } else {
            println!(
                "  {:<16} {:>12} {:>12} {:>9} {:>9} {:>9} {:>9}",
                strategy.to_string(),
                kernel_ops,
                format!("{ops_per_s:.0}"),
                s.p50,
                s.p99,
                s.p999,
                live_pages
            );
        }
    }
    let wall = started.elapsed().as_secs_f64();
    if json {
        println!(
            "{{\"tenants\":{},\"fork_depth\":{},\"region_bytes\":{},\"target_pages\":{target_pages},\
             \"wall_clock_s\":{wall:.3},\"schemes\":{{{}}}}}",
            storm.tenants,
            storm.fork_depth,
            storm.region_bytes,
            rows.join(","),
        );
    } else {
        println!("  ({wall:.1}s wall clock; records written to BENCH_RESULTS.json)");
    }
    emit("storm", wall, &records);
    ExitCode::SUCCESS
}

/// `lelantus heatmap`: the spatial sweep — *where* the work lands,
/// per scheme, on spatially contrasting workloads (forkbench's dense
/// arena, redis's scattered heap, storm's multi-tenant sprawl) with
/// the region heat grid on. Concentration summaries (Gini, top-1 %
/// share, touched extent) are recorded into `BENCH_RESULTS.json` for
/// bench-diff gating.
fn heatmap_sweep(flags: &HashMap<String, String>) -> ExitCode {
    const SPATIAL_WORKLOADS: &[&str] = &["forkbench", "redis", "storm"];
    let scale = if flags.contains_key("small") {
        "small"
    } else {
        flags.get("scale").map(String::as_str).unwrap_or("medium")
    };
    let Some(pages) = pages_of(flags.get("pages").map(String::as_str).unwrap_or("4k")) else {
        eprintln!("error: bad --pages");
        return usage();
    };
    let top: usize = match flags.get("top").map(String::as_str).unwrap_or("5").parse() {
        Ok(n) if n > 0 => n,
        _ => {
            eprintln!("error: --top needs a positive region count");
            return usage();
        }
    };
    let json = flags.contains_key("json");

    let started = std::time::Instant::now();
    let mut records = Vec::new();
    let mut rows: Vec<String> = Vec::new();
    if !json {
        println!("heatmap sweep: {scale} scale, {pages} pages (per-region heat, all lanes)");
        println!(
            "  {:<10} {:<16} {:>8} {:>12} {:>7} {:>7}  hottest",
            "workload", "scheme", "touched", "heat", "gini", "top1%"
        );
    }
    for &wl_name in SPATIAL_WORKLOADS {
        let mut scheme_rows: Vec<String> = Vec::new();
        for strategy in CowStrategy::all() {
            // Storm is always its compact self-scaling instance here —
            // the sweep wants its spatial *shape* (many small tenant
            // regions), not the full million-page scale.
            let storm = Storm::small();
            let workload: Box<dyn Workload> = if wl_name == "storm" {
                Box::new(storm)
            } else {
                workload_of(wl_name, scale).expect("spatial workload names are all known")
            };
            let mut cfg = SimConfig::new(strategy, pages).with_heatmap();
            if wl_name == "storm" {
                cfg = cfg.with_phys_bytes(storm.phys_bytes());
            }
            let mut sys = System::new(cfg);
            workload.run(&mut sys).unwrap_or_else(|e| {
                eprintln!("simulation failed ({wl_name}/{strategy}): {e}");
                std::process::exit(1);
            });
            sys.finish();
            let g = sys.heatmap().expect("heatmap was enabled for every sweep run");
            for (metric, value) in [
                ("heat_gini", g.gini()),
                ("heat_top1pct", g.top_share(0.01)),
                ("heat_touched", g.touched_regions() as f64),
            ] {
                records.push(Record::with_scheme(
                    format!("{metric}/{wl_name}"),
                    strategy.to_string(),
                    value,
                    if metric == "heat_touched" { "regions" } else { "ratio" },
                ));
            }
            let hottest = g.top_regions(top);
            if json {
                let top_body: Vec<String> = hottest
                    .iter()
                    .map(|&(r, t)| format!("{{\"region\":{r},\"total\":{t}}}"))
                    .collect();
                scheme_rows.push(format!(
                    "\"{strategy}\":{{\"touched\":{},\"total\":{},\"gini\":{:.4},\"top_share_1pct\":{:.4},\"top\":[{}]}}",
                    g.touched_regions(),
                    g.total(),
                    g.gini(),
                    g.top_share(0.01),
                    top_body.join(","),
                ));
            } else {
                let head = hottest
                    .iter()
                    .take(3)
                    .map(|(r, t)| format!("{r}:{t}"))
                    .collect::<Vec<_>>()
                    .join(" ");
                println!(
                    "  {:<10} {:<16} {:>8} {:>12} {:>7.3} {:>6.1}%  {head}",
                    wl_name,
                    strategy.to_string(),
                    g.touched_regions(),
                    g.total(),
                    g.gini(),
                    g.top_share(0.01) * 100.0,
                );
            }
        }
        if json {
            rows.push(format!("\"{wl_name}\":{{{}}}", scheme_rows.join(",")));
        }
    }
    let wall = started.elapsed().as_secs_f64();
    if json {
        println!(
            "{{\"scale\":\"{scale}\",\"pages\":\"{pages}\",\"wall_clock_s\":{wall:.3},\"workloads\":{{{}}}}}",
            rows.join(","),
        );
    } else {
        println!("  ({wall:.1}s wall clock; concentration recorded to BENCH_RESULTS.json)");
    }
    emit("heatmap", wall, &records);
    ExitCode::SUCCESS
}

/// One parsed line of the external text-trace format.
struct ExtOp {
    pid: u64,
    write: bool,
    va: u64,
    len: u64,
}

/// Parses the documented `pid,op,va,len` line format: `op` is `r` or
/// `w`, numbers are decimal or `0x`-hex, `#` starts a comment, blank
/// lines are skipped.
fn parse_ext_line(line: &str) -> Result<Option<ExtOp>, String> {
    let line = line.split('#').next().unwrap_or("").trim();
    if line.is_empty() {
        return Ok(None);
    }
    let fields: Vec<&str> = line.split(',').map(str::trim).collect();
    let [pid, op, va, len] = fields.as_slice() else {
        return Err("expected 4 fields: pid,op,va,len".into());
    };
    let num = |s: &str| -> Result<u64, String> {
        match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => s.parse(),
        }
        .map_err(|_| format!("bad number `{s}`"))
    };
    let write = match *op {
        "w" | "W" | "write" => true,
        "r" | "R" | "read" => false,
        other => return Err(format!("bad op `{other}` (expected r or w)")),
    };
    Ok(Some(ExtOp { pid: num(pid)?, write, va: num(va)?, len: num(len)?.max(1) }))
}

/// Replays the parsed external ops into the simulator, creating one
/// simulated process (with a private arena) per foreign pid; the
/// first foreign pid maps onto `spawn_init`, the rest are forked
/// from it so the trace exercises the CoW machinery.
fn convert_ops(
    sys: &mut System,
    ext_ops: &[ExtOp],
    arena_bytes: u64,
    procs: &mut HashMap<u64, (u64, u64)>,
) -> Result<(), lelantus::os::OsError> {
    // Cap single accesses: foreign traces can carry huge lengths, and
    // a 1 MiB slice already exercises the full fault/copy path.
    const MAX_OP_BYTES: u64 = 1 << 20;
    let init = sys.spawn_init();
    for (i, op) in ext_ops.iter().enumerate() {
        let (pid, base) = match procs.get(&op.pid) {
            Some(&entry) => entry,
            None => {
                let pid = if procs.is_empty() { init } else { sys.fork(init)? };
                let base = sys.mmap(pid, arena_bytes)?.as_u64();
                procs.insert(op.pid, (pid, base));
                (pid, base)
            }
        };
        // Fold the foreign address into the arena, clamping the
        // length so the access stays inside it.
        let len = op.len.min(MAX_OP_BYTES).min(arena_bytes);
        let off = (op.va % arena_bytes).min(arena_bytes - len);
        let va = lelantus::types::VirtAddr::new(base + off);
        if op.write {
            sys.write_pattern(pid, va, len as usize, i as u8)?;
        } else {
            sys.read_bytes(pid, va, len as usize)?;
        }
    }
    Ok(())
}

/// `lelantus convert <in.csv> -o <out.ltr>`: converts an external
/// `pid,op,va,len` text trace into a replayable binary trace. Each
/// foreign pid gets its own simulated process (the first maps to
/// `spawn_init`, the rest are forked from it) with one private arena;
/// foreign addresses fold into the arena modulo its size, preserving
/// page adjacency and reuse so the replayed heatmap reflects the
/// source's locality.
fn convert_cmd(args: &[String]) -> ExitCode {
    let mut input: Option<String> = None;
    let mut out: Option<String> = None;
    let mut flag_args: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-o" | "--out" => match it.next() {
                Some(v) => out = Some(v.clone()),
                None => {
                    eprintln!("error: {arg} needs a file path");
                    return usage();
                }
            },
            a if !a.starts_with('-') && input.is_none() => input = Some(a.to_string()),
            _ => flag_args.push(arg.clone()),
        }
    }
    let flags = match parse_or_usage(&flag_args, CONVERT_FLAGS) {
        Ok(f) => f,
        Err(code) => return code,
    };
    let (Some(input), Some(out)) = (input, out) else {
        eprintln!("error: convert needs <in.csv> and -o <out.ltr>");
        return usage();
    };
    let Some(pages) = pages_of(flags.get("pages").map(String::as_str).unwrap_or("4k")) else {
        eprintln!("error: bad --pages");
        return usage();
    };
    let Some(strategy) = scheme_of(flags.get("scheme").map(String::as_str).unwrap_or("lelantus"))
    else {
        eprintln!("error: bad --scheme");
        return usage();
    };
    let arena_mb: u64 = match flags.get("arena-mb").map(String::as_str).unwrap_or("16").parse() {
        Ok(n) if n > 0 => n,
        _ => {
            eprintln!("error: --arena-mb needs a positive size");
            return usage();
        }
    };
    let arena_bytes = arena_mb << 20;
    let json = flags.contains_key("json");

    let text = match std::fs::read_to_string(&input) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ext_ops = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        match parse_ext_line(line) {
            Ok(Some(op)) => ext_ops.push(op),
            Ok(None) => {}
            Err(e) => {
                eprintln!("error: {input}:{}: {e}", lineno + 1);
                return ExitCode::from(2);
            }
        }
    }
    if ext_ops.is_empty() {
        eprintln!("error: {input} has no operations");
        return ExitCode::from(2);
    }

    let cfg = SimConfig::new(strategy, pages);
    let header = TraceHeader { page_size: pages, phys_bytes: cfg.kernel.phys_bytes };
    let rec = match TraceRecorder::create(&out, header) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: cannot create {out}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut sys = System::new(cfg);
    sys.record_into(rec.clone());
    let start = std::time::Instant::now();
    // Foreign pid -> (simulated pid, arena base).
    let mut procs: HashMap<u64, (u64, u64)> = HashMap::new();
    if let Err(e) = convert_ops(&mut sys, &ext_ops, arena_bytes, &mut procs) {
        eprintln!("error: converting {input} failed: {e}");
        return ExitCode::FAILURE;
    }
    sys.finish();
    sys.stop_recording();
    let totals = match rec.finish() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: writing {out} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let wall = start.elapsed().as_secs_f64();
    let file_bytes = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
    if json {
        println!(
            concat!(
                "{{\"input\":\"{}\",\"out\":\"{}\",\"scheme\":\"{}\",\"pages\":\"{}\",",
                "\"source_ops\":{},\"processes\":{},\"records\":{},\"ops\":{},",
                "\"file_bytes\":{},\"wall_clock_s\":{:.3}}}"
            ),
            input,
            out,
            strategy,
            pages,
            ext_ops.len(),
            procs.len(),
            totals.records,
            totals.ops,
            file_bytes,
            wall,
        );
    } else {
        println!(
            "converted {input} -> {out}: {} source ops across {} processes",
            ext_ops.len(),
            procs.len()
        );
        println!(
            "  {} records, {} ops, {} bytes, {wall:.2}s",
            totals.records, totals.ops, file_bytes
        );
        println!("  replay with: lelantus run --trace {out}");
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else { return usage() };
    match command.as_str() {
        "list" => {
            println!("workloads: {}", workloads::NAMES.join(", "));
            println!("schemes:   {}", SCHEMES.join(", "));
            println!("pages:     4k, 2m");
            println!("scales:    small, medium, paper");
            ExitCode::SUCCESS
        }
        "report" => match parse_or_usage(&args[1..], REPORT_FLAGS) {
            Ok(flags) => report(&flags),
            Err(code) => code,
        },
        "profile" => match parse_or_usage(&args[1..], PROFILE_FLAGS) {
            Ok(flags) => profile(&flags),
            Err(code) => code,
        },
        "tail" => match parse_or_usage(&args[1..], TAIL_FLAGS) {
            Ok(flags) => tail_sweep(&flags),
            Err(code) => code,
        },
        "storm" => match parse_or_usage(&args[1..], STORM_FLAGS) {
            Ok(flags) => storm_sweep(&flags),
            Err(code) => code,
        },
        "heatmap" => match parse_or_usage(&args[1..], HEATMAP_FLAGS) {
            Ok(flags) => heatmap_sweep(&flags),
            Err(code) => code,
        },
        "bench-diff" => bench_diff(&args[1..]),
        "record" => record_cmd(&args[1..]),
        "convert" => convert_cmd(&args[1..]),
        "run" | "compare" => {
            let flags = match parse_or_usage(&args[1..], RUN_FLAGS) {
                Ok(f) => f,
                Err(code) => return code,
            };
            if let Some(path) = flags.get("trace") {
                return trace_run(command == "run", path, &flags);
            }
            let scale = flags.get("scale").map(String::as_str).unwrap_or("medium");
            let Some(wl_name) = flags.get("workload") else {
                eprintln!("error: --workload is required");
                return usage();
            };
            let Some(workload) = workload_of(wl_name, scale) else {
                eprintln!("error: unknown workload `{wl_name}`");
                return usage();
            };
            let Some(pages) = pages_of(flags.get("pages").map(String::as_str).unwrap_or("4k"))
            else {
                eprintln!("error: bad --pages");
                return usage();
            };
            let json = flags.contains_key("json");
            if command == "run" {
                let Some(strategy) =
                    scheme_of(flags.get("scheme").map(String::as_str).unwrap_or("lelantus"))
                else {
                    eprintln!("error: bad --scheme");
                    return usage();
                };
                let run = run_one(workload.as_ref(), strategy, pages);
                if json {
                    println!(
                        "{{\"workload\":\"{}\",\"scheme\":\"{strategy}\",\"pages\":\"{pages}\",\"metrics\":{},\"trace\":null}}",
                        workload.name(),
                        json_metrics(&run.measured)
                    );
                } else {
                    print_metrics_text(
                        &format!("{} / {strategy} / {pages} pages", workload.name()),
                        &run.measured,
                    );
                }
            } else {
                let base = run_one(workload.as_ref(), CowStrategy::Baseline, pages);
                let mut rows = Vec::new();
                for strategy in CowStrategy::all() {
                    let run = if strategy == CowStrategy::Baseline {
                        base.measured
                    } else {
                        run_one(workload.as_ref(), strategy, pages).measured
                    };
                    rows.push((
                        strategy.to_string(),
                        run.cycles.as_u64(),
                        run.speedup_vs(&base.measured),
                        run.nvm.line_writes,
                        run.write_fraction_vs(&base.measured),
                    ));
                }
                if json {
                    let body: Vec<String> = rows
                        .iter()
                        .map(|(s, c, sp, w, wf)| {
                            format!(
                                "{{\"scheme\":\"{s}\",\"cycles\":{c},\"speedup\":{sp:.4},\"nvm_writes\":{w},\"write_fraction\":{wf:.4}}}"
                            )
                        })
                        .collect();
                    println!(
                        "{{\"workload\":\"{}\",\"pages\":\"{pages}\",\"schemes\":[{}]}}",
                        workload.name(),
                        body.join(",")
                    );
                } else {
                    println!("{} / {pages} pages", workload.name());
                    println!(
                        "{:>16}  {:>12}  {:>8}  {:>12}  {:>8}",
                        "scheme", "cycles", "speedup", "NVM writes", "writes%"
                    );
                    for (s, c, sp, w, wf) in rows {
                        println!(
                            "{s:>16}  {c:>12}  {:>8}  {w:>12}  {:>8}",
                            format!("{sp:.2}x"),
                            format!("{:.1}%", wf * 100.0)
                        );
                    }
                }
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn an_unknown_scale_is_a_usage_error() {
        let err = parse_flags(&args(&["--scale", "foo"]), RUN_FLAGS).unwrap_err();
        assert!(err.contains("`foo`") && err.contains("small, medium, paper"), "{err}");
        for scale in ["small", "medium", "paper"] {
            let flags = parse_flags(&args(&["--scale", scale]), RUN_FLAGS).unwrap();
            assert_eq!(flags["scale"], scale);
        }
    }
}
