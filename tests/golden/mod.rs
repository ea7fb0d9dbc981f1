//! Golden matrix: the whole-system workload rows that used to be
//! compared against a slower reference implementation, pinned.
//!
//! The simulator once kept a second, slow copy of several structures
//! selectable at run time (byte-oriented AES, a bit-by-bit counter
//! codec with eager Merkle maintenance and no MAC write combining, a
//! per-line access driver, and map-based kernel structures), and
//! whole-system tests required the fast path to match them bit for
//! bit. Those copies now live only as unit-test models next to the
//! structure they check. Each configuration is deterministic, so
//! "fast == reference" becomes "fast == pinned reference": every pin
//! below was generated only after the default path and every reference
//! arm the row replaced produced the same digest.
//!
//! This module holds the matrix (each configuration once) and the
//! helpers; the tests that check it keep their old homes and names:
//! `kernel_structures_equivalence.rs`, `metadata_fastpath.rs` and the
//! batched-driver tests of `access_fastpath.rs` check workload rows,
//! `golden_matrix.rs` the fork-scenario ciphertexts and kernel
//! syscall soups.
//!
//! A row pins the final `cycles` and `nvm.line_writes` in plain text,
//! plus a 64-bit FNV-1a digest of the `{:?}` rendering of everything
//! observable: measured and final `SimMetrics`, exact per-kind event
//! counts, the retained event stream and the Merkle root. On a
//! mismatch the test prints every fresh row in pin syntax.

// Each test file uses only part of this module.
#![allow(dead_code)]

use lelantus::sim::{SimConfig, SimMetrics, System};
use lelantus::workloads::{forkbench::Forkbench, Workload};
use std::fmt::Write as _;

/// `(row, final cycles, final nvm.line_writes, digest)`.
pub type Pin = (&'static str, u64, u64, u64);

/// `(row name, workload, config)`: one row to run and check.
pub type WorkloadRow<'a> = (String, &'a dyn Workload, SimConfig);

pub struct Digest(pub u64);

impl Digest {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl std::fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// What a row pins.
pub struct Row {
    pub cycles: u64,
    pub line_writes: u64,
    pub digest: u64,
}

pub fn metrics_row(end: &SimMetrics, d: Digest) -> Row {
    Row { cycles: end.cycles.as_u64(), line_writes: end.nvm.line_writes, digest: d.0 }
}

fn workload_row(wl: &dyn Workload, config: SimConfig) -> Row {
    let mut sys = System::new(config.with_events(1 << 20));
    let run = wl.run(&mut sys).expect("workload runs");
    let end = sys.finish();
    let root = sys.merkle_root();
    let probe = sys.events().expect("the event view is on");
    let mut d = Digest::new();
    write!(d, "{:?}|{:?}|{:?}|{root:#x}", run.measured, end, probe.counts()).unwrap();
    for event in probe.events() {
        write!(d, "|{event:?}").unwrap();
    }
    metrics_row(&end, d)
}

/// Runs each row and compares it with the pin of the same name in
/// `pins`.
pub fn assert_workload_rows(table: &str, pins: &[Pin], rows: Vec<WorkloadRow<'_>>) {
    let mut expected = Vec::new();
    let mut fresh = Vec::new();
    for (name, wl, config) in rows {
        let &(_, cycles, line_writes, digest) = pins
            .iter()
            .find(|pin| pin.0 == name)
            .unwrap_or_else(|| panic!("no {table} pin named {name:?}"));
        expected.push(pin_syntax(&name, &Row { cycles, line_writes, digest }));
        fresh.push(pin_syntax(&name, &workload_row(wl, config)));
    }
    assert_pinned(table, expected, fresh);
}

/// Compares fresh rows with their pins (both rendered in pin syntax)
/// and, on any mismatch, prints every fresh row before failing.
pub fn assert_pinned(table: &str, pins: Vec<String>, fresh: Vec<String>) {
    if pins == fresh {
        return;
    }
    let failed: Vec<&String> = fresh.iter().filter(|row| !pins.contains(row)).collect();
    eprintln!("fresh {table} rows:");
    for row in &fresh {
        eprintln!("    {row},");
    }
    panic!("{} of {} {table} rows differ from their pins: {failed:?}", failed.len(), pins.len());
}

pub fn pin_rows(pins: &[Pin]) -> Vec<String> {
    pins.iter()
        .map(|&(name, cycles, writes, digest)| {
            pin_syntax(name, &Row { cycles, line_writes: writes, digest })
        })
        .collect()
}

pub fn pin_syntax(name: &str, row: &Row) -> String {
    format!("({name:?}, {}, {}, {:#018x})", row.cycles, row.line_writes, row.digest)
}

/// The 2 MB-page forkbench of the huge-page rows.
pub fn huge_forkbench() -> Forkbench {
    Forkbench { total_bytes: 4 << 20, bytes_per_page: None }
}

/// Six workloads by four schemes on 4 KB pages and 64 MB of memory,
/// named `"{workload} {scheme}"`. Checked against the map-based kernel
/// structures before pinning, and the forkbench (all but Silent
/// Shredder) and Lelantus redis rows also against the per-line access
/// driver.
pub const PAPER_SUITE: &[Pin] = &[
    ("boot Baseline", 1922178, 34632, 0x8873b26332149ecf),
    ("compile Baseline", 6189256, 119360, 0x32011e1c194a5eee),
    ("forkbench Baseline", 3535075, 68123, 0xf5765838fcbd1df6),
    ("redis Baseline", 946577, 13818, 0x904f5e3d89329211),
    ("mariadb Baseline", 2290397, 41097, 0xd1c879ab1f954d61),
    ("shell Baseline", 796527, 14994, 0x3d72d5454a560cee),
    ("boot SilentShredder", 1156630, 16036, 0x2aa71b0689122f79),
    ("compile SilentShredder", 3259804, 58135, 0xc4517764897a61c0),
    ("forkbench SilentShredder", 2610644, 49359, 0x2cce6e3fe71875d0),
    ("redis SilentShredder", 747594, 9750, 0x02216a56b7a306a4),
    ("mariadb SilentShredder", 1133328, 18685, 0x6e27a695d6bb614c),
    ("shell SilentShredder", 513810, 7564, 0xa8539d1e58d544b5),
    ("boot Lelantus", 1087906, 12902, 0xd6a017fb9b4943b1),
    ("compile Lelantus", 3275164, 58135, 0xf092c0f5e1b0a805),
    ("forkbench Lelantus", 2076703, 29184, 0xf4c9106e5085a2fa),
    ("redis Lelantus", 666187, 9608, 0xb6a4b31a6733d05f),
    ("mariadb Lelantus", 1133328, 18685, 0x9124d6630e7ea94e),
    ("shell Lelantus", 472788, 4976, 0x0e6bb463c6df9398),
    ("boot Lelantus-CoW", 1104536, 12927, 0xbbcecf9494a2f51f),
    ("compile Lelantus-CoW", 3324986, 58231, 0x7d5b5cd70406a7d6),
    ("forkbench Lelantus-CoW", 2101784, 29248, 0x25ded6c46eb894e8),
    ("redis Lelantus-CoW", 671743, 9713, 0xb5754f67c94ebc18),
    ("mariadb Lelantus-CoW", 1149586, 18721, 0x6c86bef3972af8b7),
    ("shell Lelantus-CoW", 479485, 4985, 0xcfaaa7a4c8ff8c94),
];

/// [`huge_forkbench`] on 2 MB pages and 64 MB of memory. Checked
/// against the map-based kernel structures before pinning, and the
/// Lelantus row also against the per-line access driver.
pub const HUGE_PAGES: &[Pin] = &[
    ("forkbench 2M Baseline", 10492525, 227791, 0x378614a2a33f07fb),
    ("forkbench 2M Lelantus", 3711218, 77824, 0xee581425c5f27f9e),
];

/// Forkbench and redis under every scheme at the default 256 MB.
/// Checked against the bit-by-bit counter codec with eager Merkle
/// maintenance and no MAC write combining before pinning.
pub const METADATA: &[Pin] = &[
    ("forkbench 256M Baseline", 3533350, 68169, 0x8b69557d98367c78),
    ("forkbench 256M SilentShredder", 2630366, 49479, 0x6566a0c01ea7e9e6),
    ("forkbench 256M Lelantus", 2076703, 29184, 0x4dfc6692a5a4de67),
    ("forkbench 256M Lelantus-CoW", 2101784, 29248, 0x0c3d7a9bbb19263e),
    ("redis 256M Baseline", 952270, 13831, 0x1f5d607dc922b816),
    ("redis 256M SilentShredder", 740295, 9795, 0x44b272834fe32bd2),
    ("redis 256M Lelantus", 666187, 9608, 0x84dce66382e0c029),
    ("redis 256M Lelantus-CoW", 671743, 9713, 0x047aad1b57e9c0d4),
];
