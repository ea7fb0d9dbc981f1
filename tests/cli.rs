//! The `lelantus` command line: bad input is a usage error (exit 2)
//! that names the offending flag, never a panic (exit 101) and never a
//! run of something other than what was asked; and `--json` output
//! escapes the paths it carries.

use std::path::PathBuf;
use std::process::{Command, Output};

fn lelantus(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lelantus")).args(args).output().expect("spawn lelantus")
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lelantus-cli-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn bad_input_is_a_usage_error_that_names_the_flag() {
    // Every case fails while the command line is checked, before any
    // file is opened, so none of these paths needs to exist.
    let cases: &[(&[&str], &str)] = &[
        // Storm sizes: a region smaller than a page, and a machine the
        // simulator cannot build.
        (&["storm", "--small", "--region-kb", "1"], "--region-kb"),
        (&["storm", "--small", "--tenants", "10000000", "--region-kb", "4608000"], "--tenants"),
        // A byte count that wraps, at and past 2^44 MiB.
        (&["convert", "in.csv", "-o", "o.ltr", "--arena-mb", "17592186044417"], "--arena-mb"),
        (&["convert", "in.csv", "-o", "o.ltr", "--arena-mb", "17592186044416"], "--arena-mb"),
        // Flags a trace source would ignore.
        (&["run", "--trace", "f.ltr", "--pages", "2m"], "--pages"),
        (&["run", "--trace", "f.ltr", "--scale", "paper"], "--scale"),
        (&["run", "--trace", "f.ltr", "--workload", "forkbench"], "--workload"),
        (
            &[
                "run",
                "--trace",
                "f.ltr",
                "--pages",
                "2m",
                "--workload",
                "nosuch",
                "--scale",
                "paper",
            ],
            "--workload",
        ),
        (&["report", "--replay", "f.ltr", "--workload", "forkbench"], "--workload"),
        // Flags the subcommand would ignore.
        (&["run", "--workload", "forkbench", "--heatmap"], "--heatmap"),
        (&["compare", "--workload", "forkbench", "--scheme", "baseline"], "--scheme"),
        // A flag another one would override.
        (&["heatmap", "--small", "--scale", "paper"], "--small"),
        (&["run", "--workload", "forkbench", "--scale", "small", "--scale", "paper"], "--scale"),
        (&["record", "forkbench", "--workload", "redis", "-o", "o.ltr"], "--workload"),
        // Unknown flags and values.
        (&["run", "--workload", "forkbench", "--nosuch"], "--nosuch"),
        (&["run", "--workload", "nosuch"], "--workload"),
        (&["run", "--workload", "forkbench", "--scheme", "nosuch"], "--scheme"),
        (&["run", "--workload", "forkbench", "--pages", "3k"], "--pages"),
        (&["run", "--workload", "forkbench", "--scale", "foo"], "--scale"),
        (&["report", "--workload", "forkbench", "--ring", "0"], "--ring"),
        (&["report", "--workload", "forkbench", "--epoch", "abc"], "--epoch"),
        (&["heatmap", "--top", "0"], "--top"),
        (&["convert", "in.csv", "-o", "o.ltr", "--arena-mb", "0"], "--arena-mb"),
        (&["bench-diff", "only-one.json"], "two results files"),
    ];
    for &(args, flag) in cases {
        let out = lelantus(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2: {stderr}");
        assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{args:?} ran anyway: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn json_output_escapes_paths() {
    let dir = scratch_dir("escape");
    let path = dir.join("a\"b\\c.ltr");
    let path = path.to_str().expect("utf-8 temp path");
    let escaped = path.replace('\\', "\\\\").replace('"', "\\\"");
    let record = lelantus(&["record", "forkbench", "--scale", "small", "-o", path, "--json"]);
    assert_eq!(record.status.code(), Some(0), "{}", String::from_utf8_lossy(&record.stderr));
    let replay = lelantus(&["run", "--trace", path, "--json"]);
    assert_eq!(replay.status.code(), Some(0), "{}", String::from_utf8_lossy(&replay.stderr));
    let _ = std::fs::remove_dir_all(&dir);
    for (what, out, key) in [("record", &record, "out"), ("run --trace", &replay, "source")] {
        let doc = String::from_utf8_lossy(&out.stdout);
        assert!(doc.contains(&format!("\"{key}\":\"{escaped}\"")), "{what}: {doc}");
        assert!(!doc.contains("a\"b"), "{what} carries a raw quote: {doc}");
    }
}
