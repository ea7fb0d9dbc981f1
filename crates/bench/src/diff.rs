//! Bench-trajectory comparison: diff two `BENCH_RESULTS.json`
//! snapshots and flag regressions.
//!
//! The parser is hand-rolled (the build environment has no serde) and
//! reads exactly the line-per-record array [`crate::results::emit`]
//! writes. Records are keyed by `(bench, name, scheme)`; whether a
//! value moving up is a regression depends on its unit (see
//! [`lower_is_better`]). Units the table doesn't know are compared
//! two-sided: any move beyond the tolerance flags, which is the
//! conservative choice for a CI gate.

use std::collections::BTreeMap;

/// One parsed result record (the fields the diff needs).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Bench target that produced the record.
    pub bench: String,
    /// Metric name within the target.
    pub name: String,
    /// Scheme tag, when the metric is per-scheme.
    pub scheme: Option<String>,
    /// Measured value.
    pub value: f64,
    /// The value's unit (drives the regression direction).
    pub unit: String,
}

impl BenchRecord {
    /// Human-readable identity: `bench/name [scheme]`.
    pub fn key(&self) -> String {
        match &self.scheme {
            Some(s) => format!("{}/{} [{s}]", self.bench, self.name),
            None => format!("{}/{}", self.bench, self.name),
        }
    }
}

/// Whether a smaller value of `unit` is better (`Some(true)`), a
/// larger one is (`Some(false)`), or the direction is unknown
/// (`None`, compared two-sided).
pub fn lower_is_better(unit: &str) -> Option<bool> {
    match unit {
        "ns" | "ns/iter" | "us" | "ms" | "s" | "cycles" | "pj" | "bytes" | "lines" => Some(true),
        "x" | "GB/s" | "MB/s" | "ops/s" | "hit_rate" => Some(false),
        _ => None,
    }
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\"");
    let idx = line.find(&pat)? + pat.len();
    // Tolerate pretty-printed JSON: whitespace around the colon.
    let rest = line[idx..].trim_start().strip_prefix(':')?;
    Some(rest.trim_start())
}

fn parse_string(rest: &str) -> Option<String> {
    let rest = rest.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => out.push(chars.next()?),
            '"' => return Some(out),
            c => out.push(c),
        }
    }
    None
}

fn parse_number(rest: &str) -> Option<f64> {
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Parses a `BENCH_RESULTS.json` text into records. Lines that are
/// not record objects (array framing) and records whose value was
/// non-finite (`null`) are skipped.
pub fn parse_results(text: &str) -> Vec<BenchRecord> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        if !line.starts_with('{') {
            continue;
        }
        let (Some(bench), Some(name), Some(unit)) = (
            field(line, "bench").and_then(parse_string),
            field(line, "name").and_then(parse_string),
            field(line, "unit").and_then(parse_string),
        ) else {
            continue;
        };
        let Some(value) = field(line, "value").and_then(parse_number) else {
            continue;
        };
        let scheme = field(line, "scheme").and_then(parse_string);
        out.push(BenchRecord { bench, name, scheme, value, unit });
    }
    out
}

/// One metric present in both snapshots.
#[derive(Debug, Clone)]
pub struct DiffEntry {
    /// `bench/name [scheme]`.
    pub key: String,
    /// The metric's unit.
    pub unit: String,
    /// Baseline value.
    pub base: f64,
    /// Candidate value.
    pub new: f64,
    /// `new / base`.
    pub ratio: f64,
    /// Whether the move exceeds the tolerance in the bad direction.
    pub regression: bool,
}

/// The full comparison of two snapshots.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Metrics present in both snapshots, in key order.
    pub entries: Vec<DiffEntry>,
    /// Keys only the baseline has (metric disappeared).
    pub only_base: Vec<String>,
    /// Keys only the candidate has (new metric).
    pub only_new: Vec<String>,
}

impl DiffReport {
    /// The entries that regressed.
    pub fn regressions(&self) -> Vec<&DiffEntry> {
        self.entries.iter().filter(|e| e.regression).collect()
    }
}

/// Compares `new` against `base` with a relative `tolerance`
/// (e.g. 0.25 flags moves beyond ±25 % in the unit's bad direction).
pub fn diff(base: &[BenchRecord], new: &[BenchRecord], tolerance: f64) -> DiffReport {
    type Key = (String, String, Option<String>);
    let index = |recs: &[BenchRecord]| -> BTreeMap<Key, BenchRecord> {
        recs.iter()
            .map(|r| ((r.bench.clone(), r.name.clone(), r.scheme.clone()), r.clone()))
            .collect()
    };
    let base = index(base);
    let new = index(new);
    let mut report = DiffReport::default();
    for (k, b) in &base {
        let Some(n) = new.get(k) else {
            report.only_base.push(b.key());
            continue;
        };
        let ratio = n.value / b.value;
        let worse_up = ratio > 1.0 + tolerance;
        let worse_down = ratio < 1.0 - tolerance;
        let regression = match lower_is_better(&n.unit) {
            Some(true) => worse_up,
            Some(false) => worse_down,
            None => worse_up || worse_down,
        };
        report.entries.push(DiffEntry {
            key: b.key(),
            unit: n.unit.clone(),
            base: b.value,
            new: n.value,
            ratio,
            regression,
        });
    }
    for (k, n) in &new {
        if !base.contains_key(k) {
            report.only_new.push(n.key());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(bench: &str, name: &str, scheme: Option<&str>, value: f64, unit: &str) -> BenchRecord {
        BenchRecord {
            bench: bench.into(),
            name: name.into(),
            scheme: scheme.map(Into::into),
            value,
            unit: unit.into(),
        }
    }

    #[test]
    fn parses_emitted_lines() {
        let text = concat!(
            "[\n",
            "{\"schema\":4,\"git\":\"abc\",\"bench\":\"micro_crypto\",\"name\":\"ctr_encrypt\",",
            "\"scheme\":null,\"value\":41.5,\"unit\":\"ns/iter\",\"wall_clock_s\":0.250,",
            "\"nproc\":2,\"cpu\":\"Intel(R) Xeon(R) Processor\"},\n",
            "{\"schema\":4,\"git\":\"abc\",\"bench\":\"forkbench\",\"name\":\"speedup\",",
            "\"scheme\":\"Lelantus\",\"value\":6.2,\"unit\":\"x\",\"wall_clock_s\":7.000,",
            "\"nproc\":2,\"cpu\":\"Intel(R) Xeon(R) Processor\"},\n",
            "{\"schema\":4,\"git\":\"abc\",\"bench\":\"broken\",\"name\":\"nan\",",
            "\"scheme\":null,\"value\":null,\"unit\":\"x\",\"wall_clock_s\":1.000,",
            "\"nproc\":2,\"cpu\":\"Intel(R) Xeon(R) Processor\"}\n",
            // A v3 record (no host stamp) still parses.
            "{\"schema\":3,\"git\":\"abc\",\"bench\":\"old\",\"name\":\"m\",",
            "\"scheme\":null,\"value\":3,\"unit\":\"ns/iter\",\"wall_clock_s\":1.000}\n",
            "]\n",
        );
        let recs = parse_results(text);
        assert_eq!(recs.len(), 3, "null-valued record must be skipped");
        assert_eq!(recs[0], rec("micro_crypto", "ctr_encrypt", None, 41.5, "ns/iter"));
        assert_eq!(recs[1], rec("forkbench", "speedup", Some("Lelantus"), 6.2, "x"));
        assert_eq!(recs[2], rec("old", "m", None, 3.0, "ns/iter"));
        assert_eq!(recs[1].key(), "forkbench/speedup [Lelantus]");
    }

    #[test]
    fn tolerates_pretty_printed_records() {
        let text = "{\"bench\": \"b\", \"name\": \"m\", \"scheme\": null, \
                    \"value\": 2.5, \"unit\": \"x\"}";
        assert_eq!(parse_results(text), vec![rec("b", "m", None, 2.5, "x")]);
    }

    #[test]
    fn identical_snapshots_pass() {
        let a = vec![rec("b", "m", None, 100.0, "ns/iter"), rec("b", "s", Some("L"), 4.0, "x")];
        let report = diff(&a, &a, 0.25);
        assert_eq!(report.entries.len(), 2);
        assert!(report.regressions().is_empty());
        assert!(report.only_base.is_empty() && report.only_new.is_empty());
    }

    #[test]
    fn flags_a_2x_time_regression_but_not_an_improvement() {
        let base = vec![rec("b", "m", None, 100.0, "ns/iter")];
        let slower = vec![rec("b", "m", None, 200.0, "ns/iter")];
        let faster = vec![rec("b", "m", None, 50.0, "ns/iter")];
        assert_eq!(diff(&base, &slower, 0.25).regressions().len(), 1);
        assert!(diff(&base, &faster, 0.25).regressions().is_empty());
    }

    #[test]
    fn direction_follows_the_unit() {
        // A speedup ("x") dropping is a regression; rising is not.
        let base = vec![rec("b", "speedup", Some("L"), 6.0, "x")];
        let worse = vec![rec("b", "speedup", Some("L"), 3.0, "x")];
        let better = vec![rec("b", "speedup", Some("L"), 9.0, "x")];
        assert_eq!(diff(&base, &worse, 0.25).regressions().len(), 1);
        assert!(diff(&base, &better, 0.25).regressions().is_empty());
        // Unknown units compare two-sided.
        let base = vec![rec("b", "odd", None, 10.0, "furlongs")];
        let moved = vec![rec("b", "odd", None, 5.0, "furlongs")];
        assert_eq!(diff(&base, &moved, 0.25).regressions().len(), 1);
    }

    #[test]
    fn within_tolerance_is_quiet() {
        let base = vec![rec("b", "m", None, 100.0, "ns/iter")];
        let wobble = vec![rec("b", "m", None, 124.0, "ns/iter")];
        assert!(diff(&base, &wobble, 0.25).regressions().is_empty());
    }

    #[test]
    fn reports_added_and_removed_metrics() {
        let base = vec![rec("b", "old", None, 1.0, "x")];
        let new = vec![rec("b", "new", None, 1.0, "x")];
        let report = diff(&base, &new, 0.25);
        assert_eq!(report.only_base, vec!["b/old"]);
        assert_eq!(report.only_new, vec!["b/new"]);
        assert!(report.entries.is_empty());
    }
}
