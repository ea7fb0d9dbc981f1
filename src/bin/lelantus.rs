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
//!
//! Every subcommand takes one path. [`parse`] checks the command line
//! once against the one flag table into a [`RunSpec`]; [`system`]
//! builds each `System` from it, validating the config first; [`drive`]
//! runs the workload, replays the trace or converts the text trace;
//! the subcommands only render what comes back, through the one JSON
//! writer (`lelantus_bench::json`); and [`CliError::exit_code`] is the
//! one map from failure to exit code, applied in `main`.

use lelantus::bench::diff::{diff, parse_results};
use lelantus::bench::json::{self, array, or_null, Obj};
use lelantus::bench::results::{emit, Record};
use lelantus::os::{CowStrategy, OsError};
use lelantus::sim::config::DEFAULT_TAIL_TOP_K;
use lelantus::sim::{
    chrome_trace, chrome_trace_with_spans, explain_divergence, replay, selfprof, CounterSeries,
    CycleCategory, CycleLedger, EpochSample, EventKind, FaultAction, HdrHistogram, HeatGrid,
    HeatLane, HistKind, JsonlSink, Observe, ReplayError, ReplayStats, SimConfig, SimMetrics, Span,
    System, TailRecorder, TailSummary, Trace, TraceError, TraceHeader, TraceRecorder, TraceTotals,
};
use lelantus::types::PageSize;
use lelantus::workloads::{self, stormwl::Storm, Scale, Workload};
use std::collections::HashMap;
use std::fmt::Display;
use std::process::ExitCode;
use std::time::Instant;

const SCHEMES: &[&str] = &["baseline", "silent-shredder", "lelantus", "lelantus-cow"];

fn usage() {
    eprintln!(
        "usage:
  lelantus list
  lelantus run     --workload <name> [--scheme <s>] [--pages 4k|2m] [--scale small|medium|paper] [--json]
  lelantus run     --trace <file.ltr> [--scheme <s>] [--heatmap] [--json]
                   (replay a recorded binary trace through one scheme; geometry
                    comes from the trace header, so --pages and --scale are errors;
                    --heatmap adds heat lanes to a divergence report)
  lelantus record  <workload> -o <file.ltr> [--scheme <s>] [--pages 4k|2m] [--scale ...] [--json]
                   (run the workload with the trace recorder attached and write
                    every state-changing operation to a replayable .ltr file)
  lelantus compare --workload <name> [--pages 4k|2m] [--scale ...] [--json]
  lelantus compare --trace <file.ltr> [--json]
                   (replay one trace through all four schemes: Fig 9 from a trace)
  lelantus report  --workload <name> [--scheme <s>] [--pages 4k|2m] [--scale ...] [--json]
                   [--replay <file.ltr>]  (drive the report from a recorded trace
                    instead of a synthetic workload; --workload, --pages and --scale
                    are then errors)
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
  lelantus heatmap [--pages 4k|2m] [--scale ... | --small] [--top <n>] [--json]
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
A flag given twice, or one the subcommand does not use, is an error.

exit codes:        2 usage or bad input, 1 simulation/I-O failure or regression
trace exit codes:  10 io, 11 bad magic, 12 bad version, 13 truncated,
                   14 checksum mismatch, 15 bad header, 16 bad record
replay exit codes: 17 os error, 18 geometry mismatch, 19 divergence,
                   20 recovery failure

workloads: {}
schemes:   {} (default: lelantus)",
        workloads::NAMES.join(", "),
        SCHEMES.join(", ")
    );
}

/// Every way a command fails; [`CliError::exit_code`] is the one map
/// from a failure to its exit code.
#[derive(Debug)]
enum CliError {
    /// A bad command line (exit 2, after the usage text).
    Usage(String),
    /// A bad input file: convert's text trace, bench-diff's results (2).
    Input(String),
    /// A simulation, ledger or I/O failure (1).
    Failed(String),
    /// A `.ltr` file that does not open, or whose header describes a
    /// machine the simulator cannot build (10–16).
    Trace(String, TraceError),
    /// A failed replay (17–20; 10–16 for a trace error met mid-replay).
    Replay(String, ReplayError),
    /// `bench-diff` found a regression; its report is printed (1).
    Regression,
}

impl CliError {
    fn exit_code(&self) -> u8 {
        // Distinct codes per malformed-trace failure, so CI and scripts
        // can tell truncation from tampering without parsing stderr.
        let trace = |e: &TraceError| match e {
            TraceError::Io(_) => 10,
            TraceError::BadMagic => 11,
            TraceError::BadVersion { .. } => 12,
            TraceError::Truncated => 13,
            TraceError::ChecksumMismatch { .. } => 14,
            TraceError::BadHeader { .. } => 15,
            TraceError::BadRecord { .. } => 16,
        };
        match self {
            CliError::Usage(_) | CliError::Input(_) => 2,
            CliError::Failed(_) | CliError::Regression => 1,
            CliError::Trace(_, e) | CliError::Replay(_, ReplayError::Trace(e)) => trace(e),
            CliError::Replay(_, ReplayError::Os(_)) => 17,
            CliError::Replay(_, ReplayError::Geometry { .. }) => 18,
            CliError::Replay(_, ReplayError::Divergence { .. }) => 19,
            CliError::Replay(_, ReplayError::Recovery(_)) => 20,
        }
    }
}

fn bad_usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn failed(msg: impl Into<String>) -> CliError {
    CliError::Failed(msg.into())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cmd {
    List,
    Run,
    Compare,
    Record,
    Convert,
    Report,
    Profile,
    Tail,
    Storm,
    Heatmap,
    BenchDiff,
}

const COMMANDS: [(&str, Cmd); 11] = [
    ("list", Cmd::List),
    ("run", Cmd::Run),
    ("compare", Cmd::Compare),
    ("record", Cmd::Record),
    ("convert", Cmd::Convert),
    ("report", Cmd::Report),
    ("profile", Cmd::Profile),
    ("tail", Cmd::Tail),
    ("storm", Cmd::Storm),
    ("heatmap", Cmd::Heatmap),
    ("bench-diff", Cmd::BenchDiff),
];

/// Where a run's operations come from.
#[derive(Debug, Clone, PartialEq)]
enum Source {
    /// A workload [`workloads::workload`] knows, sized by
    /// [`RunSpec::scale`].
    Workload(String),
    /// A recorded `.ltr` trace (`run`/`compare --trace`, `report --replay`).
    Trace(String),
    /// An external `pid,op,va,len` text trace (`convert`).
    Text(String),
}

/// The command line, checked: every value is an enum or a checked
/// number, so no later code parses or re-checks a flag.
#[derive(Debug, Clone)]
struct RunSpec {
    cmd: Cmd,
    source: Option<Source>,
    scale: Scale,
    scheme: CowStrategy,
    pages: PageSize,
    /// Physical memory, when the flags size it (`storm`).
    phys_bytes: Option<u64>,
    observe: Observe,
    json: bool,
    /// The `-o` trace a `record`/`convert` run writes.
    out: Option<String>,
    events: Option<String>,
    trace_out: Option<String>,
    grid: Option<String>,
    folded: Option<String>,
    storm: Storm,
    /// Hottest regions per `heatmap` cell.
    top: usize,
    arena_bytes: u64,
    tolerance: f64,
    /// `bench-diff`'s two results files.
    files: Vec<String>,
}

impl RunSpec {
    /// The defaults of `cmd`, whose views are on before any flag.
    fn new(cmd: Cmd) -> Self {
        let sampled = matches!(cmd, Cmd::Report | Cmd::Profile);
        RunSpec {
            cmd,
            source: None,
            scale: Scale::Medium,
            scheme: CowStrategy::Lelantus,
            pages: PageSize::Regular4K,
            phys_bytes: None,
            observe: Observe {
                epoch_interval: if sampled { 100_000 } else { 0 },
                ledger: cmd == Cmd::Profile,
                tail: matches!(cmd, Cmd::Tail | Cmd::Storm).then_some(DEFAULT_TAIL_TOP_K),
                heat: cmd == Cmd::Heatmap,
                events: (cmd == Cmd::Report).then_some(65_536),
            },
            json: false,
            out: None,
            events: None,
            trace_out: None,
            grid: None,
            folded: None,
            storm: Storm::full(),
            top: 5,
            arena_bytes: 16 << 20,
            tolerance: 0.25,
            files: Vec::new(),
        }
    }

    /// The config of one run under `scheme`; a replayed trace's header
    /// supplies its geometry.
    fn config(&self, scheme: CowStrategy, trace: Option<TraceHeader>) -> SimConfig {
        let (pages, phys) = match trace {
            Some(h) => (h.page_size, Some(h.phys_bytes)),
            None => (self.pages, self.phys_bytes),
        };
        let mut cfg = SimConfig::new(scheme, pages);
        if let Some(bytes) = phys {
            cfg = cfg.with_phys_bytes(bytes);
        }
        cfg.observe = self.observe;
        cfg
    }
}

/// What a flag does to the spec: a switch, or a value's check and set.
enum Set {
    Switch(fn(&mut RunSpec)),
    Value(fn(&mut RunSpec, &str) -> Result<(), String>),
}

/// One flag: its name, the subcommands that take it, and its action.
struct Flag(&'static str, &'static [Cmd], Set);

/// The one flag table. Flags apply in table order, whatever the order
/// on the command line: a source before the flags checked against it,
/// and `--small` before the storm sizes that override it.
const FLAGS: &[Flag] = &[
    Flag(
        "workload",
        &[Cmd::Run, Cmd::Compare, Cmd::Record, Cmd::Report, Cmd::Profile],
        Set::Value(|s, v| {
            if workloads::workload(v, Scale::Small).is_none() {
                return Err(format!("is unknown (valid: {})", workloads::NAMES.join(", ")));
            }
            set_source(s, Source::Workload(v.into()))
        }),
    ),
    Flag(
        "trace",
        &[Cmd::Run, Cmd::Compare],
        Set::Value(|s, v| set_source(s, Source::Trace(v.into()))),
    ),
    Flag("replay", &[Cmd::Report], Set::Value(|s, v| set_source(s, Source::Trace(v.into())))),
    Flag("trace", &[Cmd::Report, Cmd::Profile], Set::Value(|s, v| set_path(&mut s.trace_out, v))),
    Flag(
        "scheme",
        &[Cmd::Run, Cmd::Record, Cmd::Convert, Cmd::Report, Cmd::Profile],
        Set::Value(|s, v| {
            s.scheme = match v {
                "baseline" => CowStrategy::Baseline,
                "silent-shredder" | "ss" => CowStrategy::SilentShredder,
                "lelantus" => CowStrategy::Lelantus,
                "lelantus-cow" | "cow" => CowStrategy::LelantusCow,
                _ => return Err(format!("is unknown (valid: {})", SCHEMES.join(", "))),
            };
            Ok(())
        }),
    ),
    Flag(
        "pages",
        &[
            Cmd::Run,
            Cmd::Compare,
            Cmd::Record,
            Cmd::Convert,
            Cmd::Report,
            Cmd::Profile,
            Cmd::Tail,
            Cmd::Heatmap,
        ],
        Set::Value(|s, v| {
            s.pages = match v {
                "4k" | "4K" | "4kb" => PageSize::Regular4K,
                "2m" | "2M" | "2mb" => PageSize::Huge2M,
                _ => return Err("is unknown (valid: 4k, 2m)".into()),
            };
            Ok(())
        }),
    ),
    Flag(
        "small",
        &[Cmd::Storm, Cmd::Heatmap],
        Set::Switch(|s| (s.scale, s.storm) = (Scale::Small, Storm::small())),
    ),
    Flag(
        "scale",
        &[Cmd::Run, Cmd::Compare, Cmd::Record, Cmd::Report, Cmd::Profile, Cmd::Tail, Cmd::Heatmap],
        Set::Value(|s, v| {
            let scale = Scale::parse(v).ok_or("is unknown (valid: small, medium, paper)");
            scale.map(|scale| s.scale = scale).map_err(String::from)
        }),
    ),
    Flag(
        "json",
        &[
            Cmd::Run,
            Cmd::Compare,
            Cmd::Record,
            Cmd::Convert,
            Cmd::Report,
            Cmd::Profile,
            Cmd::Tail,
            Cmd::Storm,
            Cmd::Heatmap,
            Cmd::BenchDiff,
        ],
        Set::Switch(|s| s.json = true),
    ),
    Flag("heatmap", &[Cmd::Run, Cmd::Report], Set::Switch(|s| s.observe.heat = true)),
    // The ledger rides along so each worst-offender span carries a
    // per-category cycle breakdown.
    Flag(
        "tail",
        &[Cmd::Report],
        Set::Switch(|s| (s.observe.tail, s.observe.ledger) = (Some(DEFAULT_TAIL_TOP_K), true)),
    ),
    Flag(
        "epoch",
        &[Cmd::Report, Cmd::Profile],
        Set::Value(|s, v| number(v).map(|n| s.observe.epoch_interval = n)),
    ),
    Flag(
        "ring",
        &[Cmd::Report],
        Set::Value(|s, v| positive(v).map(|n| s.observe.events = Some(n))),
    ),
    Flag("events", &[Cmd::Report], Set::Value(|s, v| set_path(&mut s.events, v))),
    Flag("grid", &[Cmd::Report], Set::Value(|s, v| set_path(&mut s.grid, v))),
    Flag("folded", &[Cmd::Profile], Set::Value(|s, v| set_path(&mut s.folded, v))),
    Flag("out", &[Cmd::Record, Cmd::Convert], Set::Value(|s, v| set_path(&mut s.out, v))),
    Flag("top-k", &[Cmd::Tail], Set::Value(|s, v| number(v).map(|n| s.observe.tail = Some(n)))),
    Flag("top", &[Cmd::Heatmap], Set::Value(|s, v| positive(v).map(|n| s.top = n))),
    Flag("tenants", &[Cmd::Storm], Set::Value(|s, v| positive(v).map(|n| s.storm.tenants = n))),
    Flag("depth", &[Cmd::Storm], Set::Value(|s, v| positive(v).map(|n| s.storm.fork_depth = n))),
    Flag(
        "touched",
        &[Cmd::Storm],
        Set::Value(|s, v| positive(v).map(|n| s.storm.touched_pages_per_child = n)),
    ),
    Flag(
        "region-kb",
        &[Cmd::Storm],
        Set::Value(|s, v| scaled(v, 1 << 10).map(|n| s.storm.region_bytes = n)),
    ),
    Flag(
        "arena-mb",
        &[Cmd::Convert],
        Set::Value(|s, v| scaled(v, 1 << 20).map(|n| s.arena_bytes = n)),
    ),
    Flag(
        "tolerance",
        &[Cmd::BenchDiff],
        Set::Value(|s, v| {
            let t = v.parse::<f64>().ok().filter(|t| *t >= 0.0);
            t.map(|t| s.tolerance = t).ok_or_else(|| "expected a non-negative fraction".into())
        }),
    ),
];

fn set_source(s: &mut RunSpec, source: Source) -> Result<(), String> {
    match s.source.replace(source) {
        // `--workload` applies first, so a second source is a trace.
        Some(_) => Err("conflicts with --workload (give a workload or a trace)".into()),
        None => Ok(()),
    }
}

fn set_path(slot: &mut Option<String>, v: &str) -> Result<(), String> {
    *slot = Some(v.into());
    Ok(())
}

fn number<T: std::str::FromStr>(v: &str) -> Result<T, String> {
    v.parse().map_err(|_| "expected a non-negative integer".into())
}

fn positive<T: std::str::FromStr + Default + PartialOrd>(v: &str) -> Result<T, String> {
    v.parse().ok().filter(|n| *n > T::default()).ok_or_else(|| "expected a positive integer".into())
}

/// A positive count of `unit`-byte units, in bytes.
fn scaled(v: &str, unit: u64) -> Result<u64, String> {
    positive::<u64>(v)?.checked_mul(unit).ok_or_else(|| "overflows a 64-bit byte count".into())
}

/// Parses and checks the whole command line into a [`RunSpec`].
fn parse(args: &[String]) -> Result<RunSpec, CliError> {
    let cmd = args.first().and_then(|a| COMMANDS.iter().find(|(name, _)| name == a));
    let Some(&(cmd_name, cmd)) = cmd else { return Err(bad_usage("")) };
    let mut spec = RunSpec::new(cmd);
    let mut given: Vec<(usize, &str)> = Vec::new();
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        let (name, positional) = match (arg.strip_prefix("--"), cmd) {
            (Some(name), _) => (name, None),
            (None, _) if arg == "-o" => ("out", None),
            (None, Cmd::Record) => ("workload", Some(arg.as_str())),
            (None, Cmd::Convert) if spec.source.is_none() => {
                spec.source = Some(Source::Text(arg.clone()));
                continue;
            }
            (None, Cmd::BenchDiff) => {
                spec.files.push(arg.clone());
                continue;
            }
            (None, _) => return Err(bad_usage(format!("unexpected argument `{arg}`"))),
        };
        let takes = |f: &Flag| f.0 == name && f.1.contains(&cmd);
        let Some(i) = FLAGS.iter().position(takes) else {
            return Err(bad_usage(format!("unknown flag `{arg}`")));
        };
        if given.iter().any(|&(j, _)| j == i) {
            return Err(bad_usage(format!("--{name} is given twice")));
        }
        let value = match (&FLAGS[i].2, positional) {
            (_, Some(v)) => v,
            (Set::Switch(_), None) => "",
            (Set::Value(_), None) => {
                it.next().ok_or_else(|| bad_usage(format!("{arg} needs a value")))?.as_str()
            }
        };
        given.push((i, value));
    }
    given.sort_by_key(|&(i, _)| i);
    for &(i, value) in &given {
        match &FLAGS[i].2 {
            Set::Switch(set) => set(&mut spec),
            Set::Value(set) => set(&mut spec, value)
                .map_err(|e| bad_usage(format!("--{} `{value}` {e}", FLAGS[i].0)))?,
        }
    }
    let seen = |name: &str| given.iter().any(|&(i, _)| FLAGS[i].0 == name);
    let needs = |what: &str| Err(bad_usage(format!("{cmd_name} needs {what}")));
    match (cmd, &spec.source) {
        (Cmd::Run | Cmd::Compare, None) => return needs("--workload <name> or --trace <file.ltr>"),
        (Cmd::Report, None) => return needs("--workload <name> or --replay <file.ltr>"),
        (Cmd::Profile, None) => return needs("--workload <name>"),
        (Cmd::Record, None) => return needs("a workload (positional or --workload)"),
        (Cmd::Convert, None) => return needs("<in.csv>"),
        (_, Some(Source::Trace(_))) => {
            if let Some(flag) = ["pages", "scale"].into_iter().find(|&f| seen(f)) {
                return Err(bad_usage(format!("--{flag} comes from the trace header")));
            }
        }
        (Cmd::Run, Some(_)) if spec.observe.heat => {
            return Err(bad_usage("run takes --heatmap only with --trace (divergence reports)"));
        }
        _ => {}
    }
    match cmd {
        Cmd::Record | Cmd::Convert if spec.out.is_none() => return needs("-o <out.ltr>"),
        Cmd::Heatmap if seen("small") && seen("scale") => {
            return Err(bad_usage("--small means --scale small; give one of the two"));
        }
        Cmd::BenchDiff if spec.files.len() != 2 => return needs("exactly two results files"),
        Cmd::Storm => spec.phys_bytes = Some(storm_phys(&spec)?),
        _ => {}
    }
    Ok(spec)
}

/// The memory the storm's sizes need, checked before any `System` is
/// built: every region holds a page, and the sum fits the machine.
fn storm_phys(spec: &RunSpec) -> Result<u64, CliError> {
    let storm = &spec.storm;
    if storm.region_bytes < 4096 {
        return Err(bad_usage("--region-kb must be at least 4 (one 4 KB page per region)"));
    }
    let phys = storm.checked_phys_bytes();
    let phys = phys.ok_or_else(|| bad_usage("--tenants × --region-kb overflows 64-bit memory"))?;
    let cfg = RunSpec { phys_bytes: Some(phys), ..spec.clone() }.config(spec.scheme, None);
    cfg.validate().map_err(|e| {
        bad_usage(format!("--tenants × --region-kb need {phys} bytes of memory, but {e}"))
    })?;
    Ok(phys)
}

/// A spec's source, opened.
enum Input {
    Workload(Box<dyn Workload>),
    Trace(String, Trace),
    Text(String, Vec<ExtOp>),
}

impl Input {
    fn name(&self) -> &str {
        match self {
            Input::Workload(w) => w.name(),
            Input::Trace(path, _) | Input::Text(path, _) => path,
        }
    }
}

fn workload_input(name: &str, scale: Scale) -> Result<Input, CliError> {
    let w = workloads::workload(name, scale);
    w.map(Input::Workload).ok_or_else(|| bad_usage(format!("unknown workload `{name}`")))
}

/// Opens the spec's source: sizes the workload, opens and validates the
/// trace, or reads the text trace.
fn open(spec: &RunSpec) -> Result<Input, CliError> {
    match &spec.source {
        Some(Source::Workload(name)) => workload_input(name, spec.scale),
        Some(Source::Trace(path)) => match Trace::open(path) {
            Ok(t) => Ok(Input::Trace(path.clone(), t)),
            Err(e) => Err(CliError::Trace(format!("cannot open trace {path}: {e}"), e)),
        },
        Some(Source::Text(path)) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| failed(format!("cannot read {path}: {e}")))?;
            let mut ops = Vec::new();
            for (lineno, line) in text.lines().enumerate() {
                let op = parse_ext_line(line)
                    .map_err(|e| CliError::Input(format!("{path}:{}: {e}", lineno + 1)))?;
                ops.extend(op);
            }
            if ops.is_empty() {
                return Err(CliError::Input(format!("{path} has no operations")));
            }
            Ok(Input::Text(path.clone(), ops))
        }
        None => Err(bad_usage("no workload or trace to run")),
    }
}

/// Builds the one `System` of a run: a replayed trace's header gives
/// the geometry, the config is validated before `System::new`, and the
/// `--events` sink or the `-o` trace recorder is attached. A header
/// describing a machine the simulator cannot build (say, more memory
/// than the cache tags address) is a bad-header trace error.
fn system(
    spec: &RunSpec,
    input: &Input,
    scheme: CowStrategy,
) -> Result<(System, Option<JsonlSink>), CliError> {
    let trace = match input {
        Input::Trace(path, t) => Some((path, t.header())),
        _ => None,
    };
    let cfg = spec.config(scheme, trace.map(|(_, h)| h));
    if let Err(e) = cfg.validate() {
        return Err(match trace {
            Some((path, _)) => CliError::Trace(
                format!("trace {path} describes a machine the simulator cannot build: {e}"),
                TraceError::BadHeader { reason: "unsupported geometry" },
            ),
            None => bad_usage(e),
        });
    }
    let create = |path: &String, e: std::io::Error| failed(format!("cannot create {path}: {e}"));
    let header = TraceHeader { page_size: cfg.page_size, phys_bytes: cfg.kernel.phys_bytes };
    let rec = spec.out.as_ref().map(|p| TraceRecorder::create(p, header).map_err(|e| create(p, e)));
    let rec = rec.transpose()?;
    let sink = spec.events.as_ref().map(|p| JsonlSink::create(p).map_err(|e| create(p, e)));
    let sink = sink.transpose()?;
    let mut sys = System::new(cfg);
    if let Some(rec) = rec {
        sys.record_into(rec);
    }
    if let Some(sink) = &sink {
        sys.stream_events_into(sink.clone());
    }
    Ok((sys, sink))
}

/// A finished run: its system (for the views), the `--events` sink,
/// the measured interval's metrics (the whole run for a trace), and a
/// replay's ingest stats with its wall-clock seconds.
struct Run {
    sys: System,
    sink: Option<JsonlSink>,
    measured: SimMetrics,
    ingest: Option<(ReplayStats, f64)>,
}

/// Drives one run of `input` under `scheme`: runs the workload,
/// converts the text trace, or replays the trace, explaining a
/// divergence (with heat lanes when the heat view is on).
fn drive(spec: &RunSpec, input: &Input, scheme: CowStrategy) -> Result<Run, CliError> {
    let (mut sys, sink) = system(spec, input, scheme)?;
    let (measured, ingest) = match input {
        Input::Workload(w) => match w.run(&mut sys) {
            Ok(run) => (run.measured, None),
            Err(e) => {
                return Err(failed(format!("simulation failed ({}/{scheme}): {e}", w.name())))
            }
        },
        Input::Text(path, ops) => match convert_ops(&mut sys, ops, spec.arena_bytes) {
            Ok(()) => (sys.finish(), None),
            Err(e) => return Err(failed(format!("converting {path} failed: {e}"))),
        },
        Input::Trace(path, trace) => {
            let start = Instant::now();
            match replay(&mut sys, trace) {
                Ok(stats) => {
                    let wall = start.elapsed().as_secs_f64();
                    (sys.finish(), Some((stats, wall)))
                }
                Err(e) => {
                    let mut msg = format!("replaying {path} under {scheme} failed: {e}");
                    if let Some(report) = explain_divergence(&mut sys, trace, &e) {
                        msg = format!("{msg}\n{}", report.to_string().trim_end());
                    }
                    return Err(CliError::Replay(msg, e));
                }
            }
        }
    };
    Ok(Run { sys, sink, measured, ingest })
}

/// Detaches the `-o` recorder and seals its trace: totals and file size.
fn seal(sys: &mut System, out: &str) -> Result<(TraceTotals, u64), CliError> {
    let rec = sys.stop_recording().ok_or_else(|| failed(format!("no recorder writes {out}")))?;
    let totals = rec.finish().map_err(|e| failed(format!("writing {out} failed: {e}")))?;
    Ok((totals, std::fs::metadata(out).map(|m| m.len()).unwrap_or(0)))
}

/// The stable `"trace"` object of `run`/`compare`/`report --json`: the
/// replayed file, what was ingested, and the end-to-end ingest rate;
/// `None` (rendered `null`) for a synthetic workload.
fn trace_json(input: &Input, ingest: Option<&(ReplayStats, f64)>) -> Option<Obj> {
    let (Input::Trace(path, trace), Some((stats, wall))) = (input, ingest) else { return None };
    Some(
        Obj::new()
            .str("source", path)
            .field("file_bytes", trace.file_bytes())
            .field("mapped", trace.is_mapped())
            .field("records", stats.records)
            .field("ops", stats.ops)
            .field("batches", stats.batches)
            .field("payload_bytes", stats.payload_bytes)
            .float("ingest_ops_per_s", stats.ops as f64 / wall.max(1e-9), 0),
    )
}

/// The text twin of [`trace_json`]: ops, records, rate and read mode.
fn ingest_text(input: &Input, ingest: Option<&(ReplayStats, f64)>) -> Option<String> {
    let (Input::Trace(_, trace), Some((stats, wall))) = (input, ingest) else { return None };
    Some(format!(
        "{} ops in {} records ({:.1}M ops/s end-to-end, {})",
        stats.ops,
        stats.records,
        stats.ops as f64 / wall.max(1e-9) / 1e6,
        if trace.is_mapped() { "mmap" } else { "buffered" },
    ))
}

/// `lelantus run`: one workload or trace through one scheme.
fn run_cmd(spec: &RunSpec) -> Result<(), CliError> {
    let input = open(spec)?;
    let run = drive(spec, &input, spec.scheme)?;
    let scheme = spec.scheme;
    let pages = run.sys.config().page_size;
    let trace = trace_json(&input, run.ingest.as_ref());
    if spec.json {
        let name = if trace.is_some() { "trace" } else { input.name() };
        let doc = Obj::new()
            .str("workload", name)
            .str("scheme", scheme)
            .str("pages", pages)
            .field("metrics", metrics_json(&run.measured))
            .field("trace", or_null(trace));
        println!("{doc}");
        return Ok(());
    }
    let replayed = if trace.is_some() { " (replay)" } else { "" };
    print_metrics_text(
        &format!("{} / {scheme} / {pages} pages{replayed}", input.name()),
        &run.measured,
    );
    if let Some(line) = ingest_text(&input, run.ingest.as_ref()) {
        println!("  ingested {line}");
    }
    Ok(())
}

/// `lelantus compare`: the same workload or trace through every scheme,
/// against the baseline.
fn compare(spec: &RunSpec) -> Result<(), CliError> {
    let input = open(spec)?;
    let mut runs = Vec::new();
    let mut pages = spec.pages;
    for scheme in CowStrategy::all() {
        let run = drive(spec, &input, scheme)?;
        pages = run.sys.config().page_size;
        runs.push((scheme, run.measured, run.ingest));
    }
    // `CowStrategy::all` starts with the baseline.
    let base = runs[0].1;
    let trace = trace_json(&input, runs[0].2.as_ref());
    let rows = runs.iter().map(|(s, m, _)| {
        (s, m.cycles.as_u64(), m.speedup_vs(&base), m.nvm.line_writes, m.write_fraction_vs(&base))
    });
    let name = input.name();
    if spec.json {
        let schemes = array(rows.map(|(s, c, sp, w, wf)| {
            Obj::new()
                .str("scheme", s)
                .field("cycles", c)
                .float("speedup", sp, 4)
                .field("nvm_writes", w)
                .float("write_fraction", wf, 4)
        }));
        let doc = Obj::new()
            .str("workload", if trace.is_some() { "trace" } else { name })
            .str("pages", pages)
            .field("schemes", schemes);
        println!("{}", trace.into_iter().fold(doc, |doc, t| doc.field("trace", t)));
        return Ok(());
    }
    let replayed = if trace.is_some() { " (replayed through every scheme)" } else { "" };
    println!("{name} / {pages} pages{replayed}");
    println!(
        "{:>16}  {:>12}  {:>8}  {:>12}  {:>8}",
        "scheme", "cycles", "speedup", "NVM writes", "writes%"
    );
    for (s, c, sp, w, wf) in rows {
        let sp = format!("{sp:.2}x");
        let wf = format!("{:.1}%", wf * 100.0);
        println!("{:>16}  {c:>12}  {sp:>8}  {w:>12}  {wf:>8}", s.to_string());
    }
    Ok(())
}

/// What `record` and `convert` share: drives `input` with the `-o`
/// trace recorder attached (see [`system`]) and seals the trace.
/// Returns the run, the trace totals, the file size and the seconds
/// the run and the seal took.
fn record_trace(spec: &RunSpec, input: &Input) -> Result<(Run, TraceTotals, u64, f64), CliError> {
    let started = Instant::now();
    let mut run = drive(spec, input, spec.scheme)?;
    let (totals, file_bytes) = seal(&mut run.sys, spec.out.as_deref().unwrap_or_default())?;
    Ok((run, totals, file_bytes, started.elapsed().as_secs_f64()))
}

/// `lelantus record`: run a workload with the trace recorder attached.
fn record(spec: &RunSpec) -> Result<(), CliError> {
    let input = open(spec)?;
    let (run, totals, file_bytes, wall) = record_trace(spec, &input)?;
    let name = input.name();
    let out = spec.out.as_deref().unwrap_or_default();
    let per_op = file_bytes as f64 / totals.ops.max(1) as f64;
    if spec.json {
        // `metrics_full` is what a replay of this trace reproduces
        // bit-for-bit (the workload's `measured` window excludes setup).
        let doc = Obj::new()
            .str("workload", name)
            .str("scheme", spec.scheme)
            .str("pages", spec.pages)
            .str("out", out)
            .field("records", totals.records)
            .field("ops", totals.ops)
            .field("file_bytes", file_bytes)
            .float("bytes_per_op", per_op, 2)
            .float("wall_clock_s", wall, 3)
            .field("metrics", metrics_json(&run.measured))
            .field("metrics_full", metrics_json(&run.sys.metrics()));
        println!("{doc}");
    } else {
        println!("recorded {name} / {} / {} pages -> {out}", spec.scheme, spec.pages);
        println!(
            "  {} records, {} ops, {file_bytes} bytes ({per_op:.2} B/op), {wall:.2}s",
            totals.records, totals.ops
        );
        println!("  replay with: lelantus run --trace {out}");
    }
    Ok(())
}

/// `lelantus convert`: replay an external text trace with the trace
/// recorder attached.
fn convert(spec: &RunSpec) -> Result<(), CliError> {
    let input = open(spec)?;
    let Input::Text(name, ext_ops) = &input else {
        return Err(bad_usage("convert needs <in.csv>"));
    };
    let (_, totals, file_bytes, wall) = record_trace(spec, &input)?;
    let out = spec.out.as_deref().unwrap_or_default();
    let processes = ext_ops.iter().map(|op| op.pid).collect::<std::collections::HashSet<_>>();
    if spec.json {
        let doc = Obj::new()
            .str("input", name)
            .str("out", out)
            .str("scheme", spec.scheme)
            .str("pages", spec.pages)
            .field("source_ops", ext_ops.len())
            .field("processes", processes.len())
            .field("records", totals.records)
            .field("ops", totals.ops)
            .field("file_bytes", file_bytes)
            .float("wall_clock_s", wall, 3);
        println!("{doc}");
    } else {
        let n = ext_ops.len();
        let p = processes.len();
        println!("converted {name} -> {out}: {n} source ops across {p} processes");
        println!(
            "  {} records, {} ops, {file_bytes} bytes, {wall:.2}s",
            totals.records, totals.ops
        );
        println!("  replay with: lelantus run --trace {out}");
    }
    Ok(())
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

fn metrics_json(m: &SimMetrics) -> Obj {
    let c = &m.controller;
    Obj::new()
        .field("cycles", m.cycles.as_u64())
        .field("nvm_writes", m.nvm.line_writes)
        .field("nvm_reads", m.nvm.line_reads)
        .field("cow_faults", m.kernel.cow_faults)
        .field("redirected_reads", c.redirected_reads)
        .field("implicit_copies", c.implicit_copies)
        .field("page_copy", c.cmd_page_copy)
        .field("page_phyc", c.cmd_page_phyc)
        .field("overflows", c.minor_overflows)
        .field("tlb_walks", m.tlb.walks)
        .field("tlb_front_hits", m.tlb.front_hits)
        .float("tlb_front_hit_rate", tlb_front_hit_rate(m), 4)
}

fn hist_json(h: &HdrHistogram) -> Obj {
    Obj::new()
        .field("count", h.count())
        .float("mean", h.mean(), 3)
        .field("max", h.max())
        .field("p50", h.percentile(0.50))
        .field("p99", h.percentile(0.99))
}

/// An epoch's write-queue depth `(p99, max)`; zeros when the epoch
/// carries no histograms.
fn queue_depth(e: &EpochSample) -> (u64, u64) {
    e.hists.as_ref().map_or((0, 0), |h| {
        let q = h.get(HistKind::WriteQueueDepth);
        (q.percentile(0.99), q.max())
    })
}

fn tail_summary_json(s: &TailSummary) -> Obj {
    Obj::new()
        .field("count", s.count)
        .float("mean", s.mean(), 3)
        .field("max", s.max)
        .field("p50", s.p50)
        .field("p90", s.p90)
        .field("p99", s.p99)
        .field("p999", s.p999)
}

fn ledger_json(l: &CycleLedger) -> Obj {
    let cats = CycleCategory::ALL.iter().filter(|&&c| l.get(c) > 0);
    cats.fold(Obj::new(), |doc, &c| doc.field(c.name(), l.get(c)))
}

/// Renders the tail recorder's state (`null` when `--tail` is off so
/// the JSON schema stays stable): overall summary, one summary per
/// action (all six keys always present), the worst-offender exemplars
/// with their per-span cycle breakdown, and the per-epoch percentile +
/// queue-depth time series.
fn tail_json(t: &TailRecorder, epochs: &[EpochSample]) -> Obj {
    let actions = FaultAction::ALL.iter().fold(Obj::new(), |doc, &a| {
        doc.field(a.name(), tail_summary_json(&t.action_histogram(a).summary()))
    });
    let worst = array(t.worst().iter().map(|s| {
        Obj::new()
            .field("latency", s.latency())
            .field("start", s.start)
            .field("end", s.end)
            .field("pid", s.pid)
            .field("va", s.va)
            .field("pa", s.pa)
            .str("action", s.action.name())
            .field("ledger", ledger_json(&s.ledger))
    }));
    let series = array(epochs.iter().map(|e| {
        let (q_p99, q_max) = queue_depth(e);
        Obj::new()
            .field("end_cycle", e.end_cycle.as_u64())
            .field("spans", e.tail.count)
            .field("p50", e.tail.p50)
            .field("p99", e.tail.p99)
            .field("p999", e.tail.p999)
            .field("max", e.tail.max)
            .field("queue_depth_p99", q_p99)
            .field("queue_depth_max", q_max)
    }));
    Obj::new()
        .field("top_k", t.top_k())
        .field("summary", tail_summary_json(&t.summary()))
        .field("actions", actions)
        .field("worst", worst)
        .field("epochs", series)
}

fn top_json(top: &[(u64, u64)]) -> String {
    array(top.iter().map(|&(r, t)| Obj::new().field("region", r).field("total", t)))
}

/// Renders the merged heat grid (`null` when `--heatmap` is off so the
/// JSON schema stays stable): extent, concentration summary, nonzero
/// per-lane totals, and the hottest regions.
fn heat_json(g: &HeatGrid) -> Obj {
    let lanes = HeatLane::ALL.iter().filter(|&&l| g.lane_total(l) > 0);
    let lanes = lanes.fold(Obj::new(), |doc, &l| doc.field(l.name(), g.lane_total(l)));
    Obj::new()
        .field("regions", g.regions())
        .field("touched", g.touched_regions())
        .field("total", g.total())
        .float("gini", g.gini(), 4)
        .float("top_share_1pct", g.top_share(0.01), 4)
        .field("lanes", lanes)
        .field("top", top_json(&g.top_regions(10)))
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
        let dominant = largest(HeatLane::ALL.iter().map(|&l| (l.name(), g.get(l, r))), 3);
        println!("  {r:>10} {t:>12}  {dominant}");
    }
}

/// The `n` largest nonzero `(name, count)` pairs as `name=count`,
/// space-separated; equal counts keep their order.
fn largest<T: Ord + Default + Display>(
    pairs: impl Iterator<Item = (&'static str, T)>,
    n: usize,
) -> String {
    let mut pairs: Vec<_> = pairs.filter(|(_, c)| *c > T::default()).collect();
    pairs.sort_by(|a, b| b.1.cmp(&a.1));
    pairs.iter().take(n).map(|(name, c)| format!("{name}={c}")).collect::<Vec<_>>().join(" ")
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
            let cats = CycleCategory::ALL.iter().map(|&c| (c.name(), s.ledger.get(c)));
            let mut breakdown = largest(cats, 2);
            if breakdown.is_empty() {
                breakdown = "(enable --tail with profile/ledger for per-span cycles)".into();
            }
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

/// Writes `doc` to the output file `path`.
fn write_out(path: &str, doc: impl AsRef<[u8]>) -> Result<(), CliError> {
    std::fs::write(path, doc).map_err(|e| failed(format!("cannot write {path}: {e}")))
}

/// `lelantus report`: one run with the event view (and any of the tail
/// and heat views) on, rendered as the attribution story.
fn report(spec: &RunSpec) -> Result<(), CliError> {
    let input = open(spec)?;
    let run = drive(spec, &input, spec.scheme)?;
    let sys = &run.sys;
    let m = &run.measured;
    let full = sys.metrics();
    let tail = sys.tail_recorder();
    let heat = sys.heatmap();
    let epochs = sys.epochs();
    let ring = sys.events().ok_or_else(|| failed("report runs with the event view on"))?;
    let counts = ring.counts();
    let hists = ring.histograms();
    let name = if let Input::Trace(..) = input { "replay" } else { input.name() };
    let scheme = spec.scheme;
    let pages = sys.config().page_size;
    let epoch = spec.observe.epoch_interval;

    match (&spec.grid, &heat) {
        (Some(path), Some(g)) => {
            write_grid(path, g).map_err(|e| failed(format!("cannot write {path}: {e}")))?;
        }
        (Some(_), None) => eprintln!("warning: --grid needs --heatmap; no grid written"),
        _ => {}
    }
    if let Some(Err(e)) = run.sink.as_ref().map(JsonlSink::flush) {
        eprintln!("warning: flushing {} failed: {e}", spec.events.as_deref().unwrap_or_default());
    }
    if let Some(path) = &spec.trace_out {
        // Epoch counter tracks: the attribution time series both the
        // chrome trace and the JSON report carry.
        let names = ["nvm_line_writes", "cow_faults", "redirected_reads", "counter_fetches"];
        let track = |d: &SimMetrics, i: usize| {
            let c = &d.controller;
            [d.nvm.line_writes, d.kernel.cow_faults, c.redirected_reads, c.counter_fetches][i]
        };
        let series: Vec<CounterSeries> = (names.iter().enumerate())
            .map(|(i, name)| CounterSeries {
                name: format!("{name}_per_epoch"),
                points: epochs
                    .iter()
                    .map(|e| (e.end_cycle.as_u64(), track(&e.delta, i) as f64))
                    .collect(),
            })
            .collect();
        write_out(path, chrome_trace(&ring.events(), &series))?;
    }

    if spec.json {
        // Every kind appears with an explicit (possibly zero) count so
        // downstream diffing sees a stable key set run-over-run.
        let events = (0..EventKind::COUNT)
            .fold(Obj::new(), |doc, i| doc.field(EventKind::name_of(i), counts[i]));
        let histograms = HistKind::ALL
            .iter()
            .fold(Obj::new(), |doc, &k| doc.field(k.name(), hist_json(hists.get(k))));
        let epoch_rows = array(epochs.iter().map(|e| {
            let d = &e.delta;
            Obj::new()
                .field("end_cycle", e.end_cycle.as_u64())
                .field("cycles", d.cycles.as_u64())
                .field("nvm_writes", d.nvm.line_writes)
                .field("cow_faults", d.kernel.cow_faults)
                .field("redirected_reads", d.controller.redirected_reads)
                .field("counter_fetches", d.controller.counter_fetches)
        }));
        let doc = Obj::new()
            .str("workload", name)
            .str("scheme", scheme)
            .str("pages", pages)
            .field("epoch_interval", epoch)
            .field("metrics", metrics_json(m))
            .field("metrics_full", metrics_json(&full))
            .field("trace", or_null(trace_json(&input, run.ingest.as_ref())))
            .field("events", events)
            .field("events_total", ring.total())
            .field("ring_dropped", ring.dropped())
            .field("histograms", histograms)
            .field("tail", or_null(tail.map(|t| tail_json(t, epochs))))
            .field("heatmap", or_null(heat.as_ref().map(heat_json)))
            .field("epochs", epoch_rows);
        println!("{doc}");
        return Ok(());
    }

    print_metrics_text(&format!("{name} / {scheme} / {pages} pages (epoch {epoch} cycles)"), m);
    if let Some(line) = ingest_text(&input, run.ingest.as_ref()) {
        println!("  replayed {}: {line}", input.name());
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
    if let Some(t) = tail {
        print_tail_text(t, epochs);
    }
    if let Some(g) = &heat {
        print_heat_text(g);
    }
    if let (Some(path), Some(_)) = (&spec.grid, &heat) {
        println!("heat grid: {path} (one row per lane, one column per region)");
    }
    if let Some(path) = &spec.events {
        println!();
        println!("events JSONL: {path}");
    }
    if let Some(path) = &spec.trace_out {
        println!("chrome trace: {path} (load in chrome://tracing or ui.perfetto.dev)");
    }
    Ok(())
}

/// `lelantus profile`: one run with the cycle ledger and the host
/// self-profiler on, rendered as the per-category breakdown.
fn profile(spec: &RunSpec) -> Result<(), CliError> {
    let input = open(spec)?;
    selfprof::reset();
    selfprof::enable();
    let mut run = drive(spec, &input, spec.scheme)?;
    run.sys.finish();
    selfprof::disable();
    let total = run.sys.metrics().cycles.as_u64();
    let ledger = run.sys.cycle_ledger();
    let epochs = run.sys.epochs();
    let prof = selfprof::report();
    let name = input.name();
    let scheme = spec.scheme;
    let pages = spec.pages;

    // The ledger's defining invariant; a mismatch means a charging
    // site was missed and the breakdown cannot be trusted.
    let sum = ledger.total();
    if sum != total {
        return Err(failed(format!("ledger sum {sum} != total cycles {total} (attribution hole)")));
    }

    // Per-category rows, largest first.
    let mut rows: Vec<(CycleCategory, u64)> =
        CycleCategory::ALL.iter().map(|&c| (c, ledger.get(c))).filter(|&(_, n)| n > 0).collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.name().cmp(b.0.name())));

    if let Some(path) = &spec.folded {
        // Flamegraph-folded stacks: one line per category, weight =
        // cycles (feed to inferno/flamegraph.pl).
        let lines =
            rows.iter().map(|(cat, n)| format!("lelantus;{name};{scheme};{} {n}\n", cat.name()));
        write_out(path, lines.collect::<String>())?;
    }
    if let Some(path) = &spec.trace_out {
        // One lane per category; within each epoch the categories are
        // laid out back-to-back (attribution is per-epoch aggregate,
        // so the lanes tile each epoch window exactly).
        let mut spans = Vec::new();
        for e in epochs {
            let mut at = e.end_cycle.as_u64() - e.delta.cycles.as_u64();
            for (i, &cat) in CycleCategory::ALL.iter().enumerate() {
                let n = e.ledger.get(cat);
                if n > 0 {
                    let lane = cat.name().to_string();
                    spans.push(Span {
                        name: lane,
                        tid: i as u32 + 1,
                        start_cycle: at,
                        dur_cycles: n,
                    });
                    at += n;
                }
            }
        }
        write_out(path, chrome_trace_with_spans(&[], &[], &spans))?;
    }

    if spec.json {
        let cats = rows.iter().fold(Obj::new(), |doc, (c, n)| doc.field(c.name(), n));
        let epoch_rows = array(epochs.iter().map(|e| {
            Obj::new()
                .field("end_cycle", e.end_cycle.as_u64())
                .field("cycles", e.delta.cycles.as_u64())
                .field("ledger", ledger_json(&e.ledger))
        }));
        let sites = array(prof.iter().map(|s| {
            Obj::new()
                .str("site", s.site)
                .field("calls", s.calls)
                .field("total_ns", s.total_ns)
                .field("mean_ns", s.mean_ns())
        }));
        let doc = Obj::new()
            .str("workload", name)
            .str("scheme", scheme)
            .str("pages", pages)
            .field("epoch_interval", spec.observe.epoch_interval)
            .field("total_cycles", total)
            .field("ledger_sum", sum)
            .field("measured_cycles", run.measured.cycles.as_u64())
            .field("categories", cats)
            .field("epochs", epoch_rows)
            .field("selfprof", sites);
        println!("{doc}");
        return Ok(());
    }

    println!("{name} / {scheme} / {pages} pages — cycle attribution over the full run");
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
            let ms = s.total_ns as f64 / 1e6;
            println!("  {:<24} {:>10} {ms:>12.3} {:>12.1}", s.site, s.calls, s.mean_ns());
        }
    }
    if let Some(path) = &spec.folded {
        println!();
        println!("folded stacks: {path} (feed to flamegraph.pl / inferno)");
    }
    if let Some(path) = &spec.trace_out {
        println!("chrome trace: {path} (load in chrome://tracing or ui.perfetto.dev)");
    }
    Ok(())
}

fn bench_diff(spec: &RunSpec) -> Result<(), CliError> {
    let read = |path: &String| match std::fs::read_to_string(path) {
        Ok(text) => Ok(parse_results(&text)),
        Err(e) => Err(CliError::Input(format!("cannot read {path}: {e}"))),
    };
    let base = read(&spec.files[0])?;
    let new = read(&spec.files[1])?;
    let report = diff(&base, &new, spec.tolerance);
    let regressions = report.regressions();

    if spec.json {
        let entries = array(report.entries.iter().map(|e| {
            Obj::new()
                .str("key", &e.key)
                .str("unit", &e.unit)
                .field("base", e.base)
                .field("new", e.new)
                .float("ratio", e.ratio, 4)
                .field("regression", e.regression)
        }));
        let keys = |v: &[String]| array(v.iter().map(|k| json::string(k)));
        let doc = Obj::new()
            .field("tolerance", spec.tolerance)
            .field("compared", report.entries.len())
            .field("regressions", regressions.len())
            .field("entries", entries)
            .field("only_base", keys(&report.only_base))
            .field("only_new", keys(&report.only_new));
        println!("{doc}");
    } else {
        println!(
            "compared {} metric(s), tolerance ±{:.0}% — {} regression(s)",
            report.entries.len(),
            spec.tolerance * 100.0,
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
        Ok(())
    } else {
        Err(CliError::Regression)
    }
}

/// One cell of a sweep: its text row, its JSON value and its records.
struct Cell {
    text: String,
    json: Obj,
    records: Vec<Record>,
}

/// The one scheme-sweep loop of `tail`, `heatmap` and `storm`: runs
/// `cell` for every workload × scheme, printing each text row as it
/// lands, then the footer or the JSON document `doc` (each workload's
/// schemes under `"workloads"`, or a lone workload's directly under
/// `"schemes"`), and records every cell's records under `bench`.
fn sweep(
    spec: &RunSpec,
    bench: &str,
    footer: &str,
    doc: Obj,
    workloads: &[&'static str],
    mut cell: impl FnMut(&'static str, CowStrategy) -> Result<Cell, CliError>,
) -> Result<(), CliError> {
    let started = Instant::now();
    let mut records = Vec::new();
    let mut by_workload = Obj::new();
    let mut schemes = Obj::new();
    for &name in workloads {
        schemes = Obj::new();
        for scheme in CowStrategy::all() {
            let c = cell(name, scheme)?;
            if !spec.json {
                println!("{}", c.text);
            }
            schemes = schemes.field(&scheme.to_string(), c.json);
            records.extend(c.records);
        }
        by_workload = by_workload.field(name, &schemes);
    }
    let wall = started.elapsed().as_secs_f64();
    if spec.json {
        let doc = doc.float("wall_clock_s", wall, 3);
        match workloads {
            [_] => println!("{}", doc.field("schemes", schemes)),
            _ => println!("{}", doc.field("workloads", by_workload)),
        }
    } else {
        println!("  ({wall:.1}s wall clock; {footer})");
    }
    emit(bench, wall, &records);
    Ok(())
}

fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Small => "small",
        Scale::Medium => "medium",
        Scale::Paper => "paper",
    }
}

/// `lelantus tail`: the fig11-style tail sweep — every paper workload
/// on every scheme with the span recorder on (no cycle ledger, so the
/// sweep stays close to the untraced fast path), recording
/// p50/p99/p999 fault-service latency for bench-diff gating.
fn tail_sweep(spec: &RunSpec) -> Result<(), CliError> {
    const PAPER_WORKLOADS: &[&str] = &["boot", "compile", "forkbench", "redis", "mariadb", "shell"];
    let scale = scale_name(spec.scale);
    let pages = spec.pages;
    let row = |cells: [&dyn Display; 7]| {
        let [a, b, c, d, e, f, g] = cells.map(|c| c.to_string());
        format!("  {a:<10} {b:<16} {c:>8} {d:>9} {e:>9} {f:>9} {g:>9}")
    };
    if !spec.json {
        println!("tail sweep: {scale} scale, {pages} pages (fault-service cycles per span)");
        let head = ["workload", "scheme", "faults", "p50", "p99", "p999", "max"];
        println!("{}", row(head.each_ref().map(|h| h as &dyn Display)));
    }
    let doc = Obj::new().str("scale", scale).str("pages", pages);
    let footer = "percentiles recorded to BENCH_RESULTS.json";
    sweep(spec, "tail_latency", footer, doc, PAPER_WORKLOADS, |name, scheme| {
        let run = drive(spec, &workload_input(name, spec.scale)?, scheme)?;
        let s = run.sys.tail_recorder().map(TailRecorder::summary);
        let s = s.ok_or_else(|| failed("the tail sweep runs with the tail view on"))?;
        let records =
            [("fault_p50", s.p50), ("fault_p99", s.p99), ("fault_p999", s.p999)].map(|(m, v)| {
                Record::with_scheme(format!("{m}/{name}"), scheme.to_string(), v as f64, "cycles")
            });
        let text = row([&name, &scheme, &s.count, &s.p50, &s.p99, &s.p999, &s.max]);
        Ok(Cell { text, json: tail_summary_json(&s), records: records.into() })
    })
}

/// `lelantus storm`: the fork-storm multi-tenant kernel-plane sweep.
/// Runs [`Storm`] at full scale (1024 tenants × 1152-page regions — a
/// million-plus live 4 KB pages) on every scheme with the per-fault
/// span recorder, and records per-scheme kernel-op throughput (timed
/// over `measure` alone), fault tail percentiles and resident pages
/// into `BENCH_RESULTS.json`.
fn storm_sweep(spec: &RunSpec) -> Result<(), CliError> {
    let storm = spec.storm;
    let phys = spec.phys_bytes.unwrap_or_default();
    let target_pages = storm.tenants * storm.region_bytes / 4096;
    let row = |cells: [&dyn Display; 7]| {
        let [a, b, c, d, e, f, g] = cells.map(|c| c.to_string());
        format!("  {a:<16} {b:>12} {c:>12} {d:>9} {e:>9} {f:>9} {g:>9}")
    };
    if !spec.json {
        println!(
            "fork storm: {} tenants × depth {} over {} KB regions \
             ({target_pages} resident 4K pages, {} MB phys)",
            storm.tenants,
            storm.fork_depth,
            storm.region_bytes >> 10,
            phys >> 20
        );
        let head = ["scheme", "kernel ops", "ops/s", "p50", "p99", "p999", "live pages"];
        println!("{}", row(head.each_ref().map(|h| h as &dyn Display)));
    }
    let doc = Obj::new()
        .field("tenants", storm.tenants)
        .field("fork_depth", storm.fork_depth)
        .field("region_bytes", storm.region_bytes)
        .field("target_pages", target_pages);
    let input = Input::Workload(Box::new(storm));
    let footer = "records written to BENCH_RESULTS.json";
    sweep(spec, "storm", footer, doc, &["storm"], |_, scheme| {
        let (mut sys, _) = system(spec, &input, scheme)?;
        let fail = |e: OsError| failed(format!("simulation failed (storm/{scheme}): {e}"));
        let state = storm.setup(&mut sys).map_err(fail)?;
        let before = sys.kernel().stats();
        let wall_start = Instant::now();
        storm.measure(&mut sys, &state).map_err(fail)?;
        let wall_s = wall_start.elapsed().as_secs_f64();
        let delta = sys.kernel().stats().delta_since(&before);
        // Kernel-plane operations the storm drives: forks, faults of
        // every kind, and page releases. This is the figure the O(1)
        // structures exist to scale.
        let kernel_ops = delta.forks + delta.cow_faults + delta.reuse_faults + delta.pages_freed;
        let ops_per_s = kernel_ops as f64 / wall_s.max(1e-9);
        let end = sys.kernel().stats();
        let live_pages = end.pages_allocated - end.pages_freed;
        let s = sys.tail_recorder().map(TailRecorder::summary);
        let s = s.ok_or_else(|| failed("the storm runs with the tail view on"))?;
        let name = scheme.to_string();
        let mut records = vec![Record::with_scheme("storm_ops_per_s", &name, ops_per_s, "ops/s")];
        for (metric, value) in
            [("storm_fault_p50", s.p50), ("storm_fault_p99", s.p99), ("storm_fault_p999", s.p999)]
        {
            records.push(Record::with_scheme(metric, &name, value as f64, "cycles"));
        }
        records.push(Record::with_scheme("storm_live_pages", &name, live_pages as f64, "pages"));
        let json = Obj::new()
            .field("kernel_ops", kernel_ops)
            .float("ops_per_s", ops_per_s, 1)
            .float("wall_s", wall_s, 3)
            .field("live_pages", live_pages)
            .field("tail", tail_summary_json(&s));
        let ops_per_s = format!("{ops_per_s:.0}");
        let text = row([&name, &kernel_ops, &ops_per_s, &s.p50, &s.p99, &s.p999, &live_pages]);
        Ok(Cell { text, json, records })
    })
}

/// `lelantus heatmap`: the spatial sweep — *where* the work lands,
/// per scheme, on spatially contrasting workloads (forkbench's dense
/// arena, redis's scattered heap, storm's multi-tenant sprawl) with
/// the region heat grid on. Concentration summaries (Gini, top-1 %
/// share, touched extent) are recorded into `BENCH_RESULTS.json` for
/// bench-diff gating.
fn heatmap_sweep(spec: &RunSpec) -> Result<(), CliError> {
    let scale = scale_name(spec.scale);
    let pages = spec.pages;
    if !spec.json {
        println!("heatmap sweep: {scale} scale, {pages} pages (per-region heat, all lanes)");
        println!(
            "  {:<10} {:<16} {:>8} {:>12} {:>7} {:>7}  hottest",
            "workload", "scheme", "touched", "heat", "gini", "top1%"
        );
    }
    let doc = Obj::new().str("scale", scale).str("pages", pages);
    let footer = "concentration recorded to BENCH_RESULTS.json";
    sweep(spec, "heatmap", footer, doc, &["forkbench", "redis", "storm"], |name, scheme| {
        // Storm is always its compact self-scaling instance here: the
        // sweep wants its spatial *shape* (many small tenant regions),
        // not the full million-page scale.
        let storm = Storm::small();
        let mut run = if name == "storm" {
            let cell_spec = RunSpec { phys_bytes: Some(storm.phys_bytes()), ..spec.clone() };
            drive(&cell_spec, &Input::Workload(Box::new(storm)), scheme)?
        } else {
            drive(spec, &workload_input(name, spec.scale)?, scheme)?
        };
        run.sys.finish();
        let g = run.sys.heatmap().ok_or_else(|| failed("the sweep runs with the heat view on"))?;
        let records = [
            ("heat_gini", g.gini(), "ratio"),
            ("heat_top1pct", g.top_share(0.01), "ratio"),
            ("heat_touched", g.touched_regions() as f64, "regions"),
        ]
        .map(|(m, v, unit)| {
            Record::with_scheme(format!("{m}/{name}"), scheme.to_string(), v, unit)
        });
        let hottest = g.top_regions(spec.top);
        let json = Obj::new()
            .field("touched", g.touched_regions())
            .field("total", g.total())
            .float("gini", g.gini(), 4)
            .float("top_share_1pct", g.top_share(0.01), 4)
            .field("top", top_json(&hottest));
        let head = hottest.iter().take(3).map(|(r, t)| format!("{r}:{t}")).collect::<Vec<_>>();
        let text = format!(
            "  {:<10} {:<16} {:>8} {:>12} {:>7.3} {:>6.1}%  {}",
            name,
            scheme.to_string(),
            g.touched_regions(),
            g.total(),
            g.gini(),
            g.top_share(0.01) * 100.0,
            head.join(" "),
        );
        Ok(Cell { text, json, records: records.into() })
    })
}

/// One parsed line of the external text-trace format.
#[derive(Debug)]
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
/// from it so the trace exercises the CoW machinery. Foreign
/// addresses fold into the arena modulo its size, preserving page
/// adjacency and reuse so the replayed heatmap reflects the source's
/// locality.
fn convert_ops(sys: &mut System, ext_ops: &[ExtOp], arena_bytes: u64) -> Result<(), OsError> {
    // Cap single accesses: foreign traces can carry huge lengths, and
    // a 1 MiB slice already exercises the full fault/copy path.
    const MAX_OP_BYTES: u64 = 1 << 20;
    // Foreign pid -> (simulated pid, arena base).
    let mut procs: HashMap<u64, (u64, u64)> = HashMap::new();
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

/// Runs the parsed command.
fn execute(spec: &RunSpec) -> Result<(), CliError> {
    match spec.cmd {
        Cmd::List => {
            println!("workloads: {}", workloads::NAMES.join(", "));
            println!("schemes:   {}", SCHEMES.join(", "));
            println!("pages:     4k, 2m");
            println!("scales:    small, medium, paper");
            Ok(())
        }
        Cmd::Run => run_cmd(spec),
        Cmd::Compare => compare(spec),
        Cmd::Record => record(spec),
        Cmd::Convert => convert(spec),
        Cmd::Report => report(spec),
        Cmd::Profile => profile(spec),
        Cmd::Tail => tail_sweep(spec),
        Cmd::Storm => storm_sweep(spec),
        Cmd::Heatmap => heatmap_sweep(spec),
        Cmd::BenchDiff => bench_diff(spec),
    }
}

/// The one exit path: every failure becomes its message and exit code
/// here.
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Err(e) = parse(&args).and_then(|spec| execute(&spec)) else { return ExitCode::SUCCESS };
    match &e {
        CliError::Usage(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            usage();
        }
        CliError::Input(msg) | CliError::Failed(msg) => eprintln!("error: {msg}"),
        CliError::Trace(msg, _) | CliError::Replay(msg, _) => eprintln!("error: {msg}"),
        CliError::Regression => {}
    }
    ExitCode::from(e.exit_code())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<RunSpec, CliError> {
        parse(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    fn usage_error(line: &str) -> String {
        match parse_line(line) {
            Err(CliError::Usage(msg)) => msg,
            other => panic!("`{line}` must be a usage error, got {other:?}"),
        }
    }

    #[test]
    fn an_unknown_scale_is_a_usage_error() {
        let err = usage_error("run --workload forkbench --scale foo");
        assert!(err.contains("`foo`") && err.contains("small, medium, paper"), "{err}");
        for scale in ["small", "medium", "paper"] {
            let spec = parse_line(&format!("run --workload forkbench --scale {scale}")).unwrap();
            assert_eq!(Some(spec.scale), Scale::parse(scale));
        }
    }

    #[test]
    fn an_overflowing_storm_is_a_usage_error_not_a_wrap() {
        let err = usage_error("storm --tenants 18446744073709551615 --region-kb 2");
        assert!(err.contains("--region-kb"), "{err}");
        let err = usage_error("storm --tenants 18446744073709551615 --region-kb 4");
        assert!(err.contains("--tenants") && err.contains("overflows"), "{err}");
        let err = usage_error("storm --region-kb 18014398509481984");
        assert!(err.contains("--region-kb") && err.contains("overflows"), "{err}");
        let err = usage_error("storm --small --tenants 10000000 --region-kb 4608000");
        assert!(err.contains("--tenants") && err.contains("cache tags"), "{err}");
    }

    #[test]
    fn flags_apply_in_table_order_whatever_the_line_order() {
        let a = parse_line("storm --tenants 4 --small --region-kb 32").unwrap();
        let b = parse_line("storm --small --region-kb 32 --tenants 4").unwrap();
        for spec in [&a, &b] {
            assert_eq!((spec.storm.tenants, spec.storm.region_bytes), (4, 32 << 10));
            assert_eq!(spec.storm.fork_depth, Storm::small().fork_depth);
            assert_eq!(spec.phys_bytes, Some(spec.storm.phys_bytes()));
        }
        let spec = parse_line("record -o x.ltr --scale small forkbench --json").unwrap();
        assert_eq!(spec.source, Some(Source::Workload("forkbench".into())));
        assert_eq!(
            (spec.scale, spec.json, spec.out.as_deref()),
            (Scale::Small, true, Some("x.ltr"))
        );
    }

    #[test]
    fn each_subcommand_starts_with_its_own_views() {
        let report = parse_line("report --workload forkbench --tail").unwrap().observe;
        let want = Observe {
            epoch_interval: 100_000,
            ledger: true,
            tail: Some(16),
            heat: false,
            events: Some(65_536),
        };
        assert_eq!(report, want);
        let tail = parse_line("tail --top-k 4").unwrap().observe;
        assert_eq!(tail, Observe { tail: Some(4), ..Observe::default() });
        assert!(parse_line("run --trace t.ltr --heatmap").unwrap().observe.heat);
        assert_eq!(
            parse_line("convert in.csv -o o.ltr --arena-mb 4").unwrap().arena_bytes,
            4 << 20
        );
    }
}
