//! Machine-readable results: `BENCH_RESULTS.json` at the repo root.
//!
//! Every bench target finishes by calling [`emit`], which merges its
//! records into the shared file (replacing that bench's previous
//! records, keeping everyone else's). The file is a JSON array with
//! one record object per line, written by [`crate::json`]; the merge is
//! line-based so it needs no JSON parser.

use crate::json::{or_null, string, Obj};
use std::fs;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Instant;

/// Version of the record schema below. Bump when record fields change
/// meaning or are added/removed, so downstream tooling can dispatch.
///
/// * v1: bench/name/scheme/value/unit/wall_clock_s (implicit, no field)
/// * v2: adds `schema` and `git` to every record
/// * v3: `wall_clock_s` is per-record — the time spent producing that
///   record — for records that carry their own timing; derived records
///   (ratios, averages) still carry the whole target's wall clock
/// * v4: adds the host stamp `nproc` (`available_parallelism`) and
///   `cpu` (the `/proc/cpuinfo` model name, `"unknown"` elsewhere) after
///   `wall_clock_s` in every record; `git` ends in `-dirty` when the
///   record was measured on uncommitted code
pub const RESULTS_SCHEMA_VERSION: u32 = 4;

/// Short git commit hash of the working tree, queried once per
/// process; `"unknown"` when git is unavailable (e.g. a source
/// tarball). The hash gains a `-dirty` suffix when any tracked file
/// other than the root `BENCH_RESULTS.json` differs from that commit,
/// so a record measured on uncommitted code never carries its parent's
/// bare hash (the results file itself is left out because every
/// [`emit`] rewrites it).
fn git_commit() -> &'static str {
    static HASH: OnceLock<String> = OnceLock::new();
    HASH.get_or_init(|| {
        let git = |args: &[&str]| {
            std::process::Command::new("git")
                .args(args)
                .current_dir(env!("CARGO_MANIFEST_DIR"))
                .output()
                .ok()
        };
        let Some(hash) = git(&["rev-parse", "--short", "HEAD"])
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
        else {
            return "unknown".into();
        };
        let dirty =
            git(&["diff", "--quiet", "HEAD", "--", ":/", ":(top,exclude)BENCH_RESULTS.json"])
                .is_some_and(|o| o.status.code() == Some(1));
        if dirty {
            format!("{hash}-dirty")
        } else {
            hash
        }
    })
}

/// The host stamp `(nproc, cpu model)`, queried once per process.
fn host() -> &'static (usize, String) {
    static HOST: OnceLock<(usize, String)> = OnceLock::new();
    HOST.get_or_init(|| {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".into());
        (nproc, cpu)
    })
}

/// One measured value.
#[derive(Debug, Clone)]
pub struct Record {
    /// Metric name (e.g. `ctr_encrypt_line_64B` or `speedup/redis`).
    pub name: String,
    /// Scheme the value was measured under, when meaningful.
    pub scheme: Option<String>,
    /// The measured value.
    pub value: f64,
    /// The value's unit (e.g. `ns/iter`, `x`, `cycles`, `s`).
    pub unit: String,
    /// Wall-clock seconds spent producing *this* record, when known.
    /// `None` falls back to the whole target's wall clock at [`emit`]
    /// time (the only option for derived metrics such as ratios).
    pub wall_clock_s: Option<f64>,
}

impl Record {
    /// Convenience constructor for scheme-less metrics.
    pub fn new(name: impl Into<String>, value: f64, unit: impl Into<String>) -> Self {
        Record { name: name.into(), scheme: None, value, unit: unit.into(), wall_clock_s: None }
    }

    /// Same, tagged with a scheme.
    pub fn with_scheme(
        name: impl Into<String>,
        scheme: impl Into<String>,
        value: f64,
        unit: impl Into<String>,
    ) -> Self {
        Record {
            name: name.into(),
            scheme: Some(scheme.into()),
            value,
            unit: unit.into(),
            wall_clock_s: None,
        }
    }

    /// Stamps the record with the wall-clock time that produced it.
    pub fn timed(mut self, seconds: f64) -> Self {
        self.wall_clock_s = Some(seconds);
        self
    }
}

/// Where the results file lives: `LELANTUS_BENCH_RESULTS` if set, else
/// `BENCH_RESULTS.json` at the workspace root.
fn results_path() -> PathBuf {
    if let Ok(p) = std::env::var("LELANTUS_BENCH_RESULTS") {
        return PathBuf::from(p);
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_RESULTS.json")
}

fn render(bench: &str, wall_clock_s: f64, r: &Record) -> String {
    let (nproc, cpu) = host();
    let value = if r.value.is_finite() { r.value.to_string() } else { "null".into() };
    Obj::new()
        .field("schema", RESULTS_SCHEMA_VERSION)
        .str("git", git_commit())
        .str("bench", bench)
        .str("name", &r.name)
        .field("scheme", or_null(r.scheme.as_deref().map(string)))
        .field("value", value)
        .str("unit", &r.unit)
        .float("wall_clock_s", r.wall_clock_s.unwrap_or(wall_clock_s), 3)
        .field("nproc", nproc)
        .str("cpu", cpu)
        .to_string()
}

/// Merges `records` for `bench` into the results file: existing
/// records from other benches are kept, this bench's previous records
/// are replaced. `wall_clock_s` is the target's total wall-clock time,
/// stamped on records that don't carry their own (see
/// [`Record::timed`]).
pub fn emit(bench: &str, wall_clock_s: f64, records: &[Record]) {
    let path = results_path();
    let marker = format!("\"bench\":{}", string(bench));
    let mut lines: Vec<String> = match fs::read_to_string(&path) {
        Ok(text) => text
            .lines()
            .map(str::trim)
            .filter(|l| l.starts_with('{'))
            .filter(|l| !l.contains(&marker))
            .map(|l| l.trim_end_matches(',').to_string())
            .collect(),
        Err(_) => Vec::new(),
    };
    lines.extend(records.iter().map(|r| render(bench, wall_clock_s, r)));
    let mut out = String::from("[\n");
    out.push_str(&lines.join(",\n"));
    out.push_str("\n]\n");
    if let Err(e) = fs::write(&path, out) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        // Status notice goes to stderr so callers emitting machine-readable
        // stdout (`lelantus tail --json`) stay parseable.
        eprintln!("\nrecorded {} result(s) for '{bench}' in {}", records.len(), path.display());
    }
}

/// Runs `body`, then emits its records stamped with the measured
/// wall-clock time. The usual shape of a bench `main`.
pub fn timed_emit(bench: &str, body: impl FnOnce() -> Vec<Record>) {
    let start = Instant::now();
    let records = body();
    emit(bench, start.elapsed().as_secs_f64(), &records);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_temp_file<R>(name: &str, f: impl FnOnce(&PathBuf) -> R) -> R {
        let path = std::env::temp_dir().join(name);
        let _ = fs::remove_file(&path);
        std::env::set_var("LELANTUS_BENCH_RESULTS", &path);
        let out = f(&path);
        std::env::remove_var("LELANTUS_BENCH_RESULTS");
        let _ = fs::remove_file(&path);
        out
    }

    #[test]
    fn emit_writes_and_merges() {
        with_temp_file("lelantus_results_merge_test.json", |path| {
            emit("alpha", 1.0, &[Record::new("m1", 1.5, "x")]);
            emit("beta", 2.0, &[Record::with_scheme("m2", "Lelantus", 3.0, "cycles")]);
            // Re-emitting alpha replaces its old record, keeps beta's.
            emit("alpha", 4.0, &[Record::new("m1", 9.5, "x")]);
            let text = fs::read_to_string(path).unwrap();
            assert!(text.contains("\"wall_clock_s\":2.000"), "beta keeps its stamp: {text}");
            let text = fs::read_to_string(path).unwrap();
            assert!(text.starts_with("[\n"), "array framing: {text}");
            assert!(text.contains("\"bench\":\"beta\""));
            assert!(text.contains("\"value\":9.5"));
            assert!(!text.contains("\"value\":1.5"), "stale record survived: {text}");
            assert!(text.contains("\"scheme\":\"Lelantus\""));
            assert!(text.contains("\"wall_clock_s\":4.000"));
            // Both record lines present, comma-separated valid JSON.
            assert_eq!(text.matches("\"bench\"").count(), 2);
            assert_eq!(text.matches(",\n").count(), 1);
            // Every record carries the schema version and a git stamp.
            assert_eq!(text.matches(&format!("\"schema\":{RESULTS_SCHEMA_VERSION}")).count(), 2);
            assert_eq!(text.matches("\"git\":\"").count(), 2);
            // ... and the host stamp.
            assert_eq!(text.matches("\"nproc\":").count(), 2);
            assert_eq!(text.matches("\"cpu\":\"").count(), 2);
        });
    }

    #[test]
    fn per_record_wall_clock_overrides_the_target_total() {
        with_temp_file("lelantus_results_timed_test.json", |path| {
            emit(
                "gamma",
                7.0,
                &[Record::new("fast", 1.0, "ns/iter").timed(0.25), Record::new("ratio", 2.0, "x")],
            );
            let text = fs::read_to_string(path).unwrap();
            // The measured record carries its own timing; the derived
            // one falls back to the target total.
            assert!(text.contains("\"name\":\"fast\",\"scheme\":null,\"value\":1,\"unit\":\"ns/iter\",\"wall_clock_s\":0.250,"), "{text}");
            assert!(text.contains("\"name\":\"ratio\",\"scheme\":null,\"value\":2,\"unit\":\"x\",\"wall_clock_s\":7.000,"), "{text}");
        });
    }

    #[test]
    fn git_commit_is_cached_and_nonempty() {
        let a = git_commit();
        let hash = a.strip_suffix("-dirty").unwrap_or(a);
        assert!(
            hash == "unknown" || (!hash.is_empty() && hash.chars().all(|c| c.is_ascii_hexdigit())),
            "{a}"
        );
        // OnceLock: a second call returns the very same allocation.
        assert_eq!(a.as_ptr(), git_commit().as_ptr());
    }

    #[test]
    fn host_stamp_is_sane() {
        let (nproc, cpu) = host();
        assert!(*nproc >= 1);
        assert!(!cpu.is_empty());
        let line = render("b", 0.5, &Record::new("m", 1.0, "x"));
        assert!(line.ends_with(&format!(",\"nproc\":{nproc},\"cpu\":{}}}", string(cpu))));
    }

    #[test]
    fn render_escapes_quotes() {
        let r = Record::new("we\"ird", 1.0, "x");
        let line = render("b", 0.5, &r);
        assert!(line.contains("we\\\"ird"));
        assert!(line.ends_with('}'));
    }
}
