//! Golden matrix: the fork-scenario ciphertexts and kernel syscall
//! soups that used to be compared against a slower reference
//! implementation, pinned, plus the bytes of `.ltr` traces recorded
//! from per-line calls.
//!
//! The byte-oriented AES and the map-based kernel structures are now
//! unit-test models next to the structures they check. Each case here
//! is deterministic, so "fast == reference" becomes "fast == pinned
//! reference": every pin below was generated only after the default
//! path and the reference arm it replaced produced the same digest.
//! The workload rows of the matrix, and how every row is digested, are
//! in `tests/golden/mod.rs`.
//!
//! A fork-scenario row pins final `cycles` and `nvm.line_writes` in
//! plain text plus a digest of the final metrics and the raw
//! ciphertext of the first 2 MB of NVM; a kernel soup pins a digest of
//! its per-step transcript of syscall results, kernel stats and free
//! bytes; a recorded-trace row pins the file's length, its access-op
//! count and a digest of its bytes. On a mismatch the test prints
//! every fresh row in pin syntax.

mod golden;

use golden::{assert_pinned, metrics_row, pin_rows, pin_syntax, Digest, Pin, Row};
use lelantus::os::kernel::AccessKind;
use lelantus::os::{CowStrategy, Kernel, KernelConfig};
use lelantus::sim::{SimConfig, System, TraceHeader, TraceRecorder};
use lelantus::types::{PageSize, PhysAddr, VirtAddr};
use lelantus::workloads::{rediswl::Redis, shellwl::Shell, Workload};
use proptest::prelude::*;
use std::fmt::Write as _;

/// `(case, scheme, ops, transcript digest)`.
type SoupPin = (u32, &'static str, usize, u64);

/// `(row, file bytes, access ops, digest of the file bytes)`.
type TracePin = (&'static str, u64, u64, u64);

fn fork_scenario_row(config: SimConfig) -> Row {
    let mut sys = System::new(config);
    fork_scenario(&mut sys);
    let end = sys.finish();
    let mut d = Digest::new();
    write!(d, "{end:?}").unwrap();
    for i in 0..(2 << 20) / 64u64 {
        write!(d, "|{:?}", sys.controller().peek_raw_line(PhysAddr::new(i * 64))).unwrap();
    }
    metrics_row(&end, d)
}

/// The fork scenario's calls: per-line writes, pattern fills and reads
/// around one fork.
fn fork_scenario(sys: &mut System) {
    let pid = sys.spawn_init();
    let len = 4096 * 8;
    let va = sys.mmap(pid, len).unwrap();
    sys.write_pattern(pid, va, len as usize, 0x3C).unwrap();
    let child = sys.fork(pid).unwrap();
    sys.write_bytes(pid, va + 64, b"parent-after-fork").unwrap();
    sys.write_bytes(child, va + 4096 + 128, b"child-after-fork").unwrap();
    sys.write_bytes(child, va + 4096 * 5, &[0xA5; 256]).unwrap();
    let parent_view = sys.read_bytes(pid, va, 4096).unwrap();
    let child_view = sys.read_bytes(child, va, 4096).unwrap();
    assert_ne!(parent_view[64..81], child_view[64..81]);
}

/// Records `run` on a fresh Lelantus system and returns the sealed
/// `.ltr` file in pin syntax.
fn recorded_trace_row(name: &str, run: impl FnOnce(&mut System)) -> String {
    let config =
        SimConfig::new(CowStrategy::Lelantus, PageSize::Regular4K).with_phys_bytes(64 << 20);
    let dir = std::env::temp_dir().join("lelantus-golden-traces");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{}-{}.ltr", std::process::id(), name.replace(' ', "-")));
    let header = TraceHeader { page_size: config.page_size, phys_bytes: config.kernel.phys_bytes };
    let rec = TraceRecorder::create(&path, header).expect("create trace");
    let mut sys = System::new(config);
    sys.record_into(rec.clone());
    run(&mut sys);
    sys.stop_recording();
    let totals = rec.finish().expect("seal trace");
    let bytes = std::fs::read(&path).expect("read trace");
    let _ = std::fs::remove_file(&path);
    let mut d = Digest::new();
    d.bytes(&bytes);
    format!("({name:?}, {}, {}, {:#018x})", bytes.len(), totals.ops, d.0)
}

fn kernel_soup_digest(config: KernelConfig, ops: &[(u8, u64, u64)]) -> u64 {
    let mut kernel = Kernel::new(config);
    let mut d = Digest::new();
    let root = kernel.spawn_init();
    let mut pids = vec![root];
    let mut vmas: Vec<(u64, u64, u64, PageSize)> = Vec::new();
    let pick = |v: u64, n: usize| v as usize % n;
    for (step, &(op, a, b)) in ops.iter().enumerate() {
        write!(d, "#{step}:").unwrap();
        match op {
            0 => {
                let pid = pids[pick(a, pids.len())];
                let pages = b % 8 + 1;
                let got = kernel.mmap_anon(pid, pages * 4096, PageSize::Regular4K);
                write!(d, "{got:?}").unwrap();
                if let Ok(va) = got {
                    vmas.push((pid, va.as_u64(), pages, PageSize::Regular4K));
                }
            }
            1 => {
                let pid = pids[pick(a, pids.len())];
                let got = kernel.mmap_anon(pid, 2 << 20, PageSize::Huge2M);
                write!(d, "{got:?}").unwrap();
                if let Ok(va) = got {
                    vmas.push((pid, va.as_u64(), 1, PageSize::Huge2M));
                }
            }
            2..=4 if !vmas.is_empty() => {
                let (pid, start, pages, size) = vmas[pick(a, vmas.len())];
                let target = VirtAddr::new(start + b % pages * size.bytes() + a % 64);
                let kind = if op == 4 { AccessKind::Read } else { AccessKind::Write };
                write!(d, "{:?}", kernel.access(pid, target, kind)).unwrap();
            }
            5 => {
                if pids.len() < 6 {
                    let parent = pids[pick(a, pids.len())];
                    let got = kernel.fork(parent);
                    write!(d, "{got:?}").unwrap();
                    if let Ok((child, _)) = got {
                        let inherited: Vec<_> = vmas
                            .iter()
                            .filter(|v| v.0 == parent)
                            .map(|&(_, s, p, z)| (child, s, p, z))
                            .collect();
                        vmas.extend(inherited);
                        pids.push(child);
                    }
                } else {
                    let victim = pids.remove(pick(a, pids.len()));
                    write!(d, "{:?}", kernel.exit(victim)).unwrap();
                    vmas.retain(|v| v.0 != victim);
                }
            }
            6 if !vmas.is_empty() => {
                let (pid, start, _, _) = vmas.swap_remove(pick(a, vmas.len()));
                write!(d, "{:?}", kernel.munmap(pid, VirtAddr::new(start))).unwrap();
            }
            7 if !vmas.is_empty() => {
                let (pid, start, pages, size) = vmas[pick(a, vmas.len())];
                let len = (b % pages + 1) * size.bytes();
                write!(d, "{:?}", kernel.madvise_dontneed(pid, VirtAddr::new(start), len)).unwrap();
            }
            8 if !vmas.is_empty() => {
                let (pid, start, _, _) = vmas[pick(a, vmas.len())];
                write!(d, "{:?}", kernel.mprotect(pid, VirtAddr::new(start), b % 2 == 0)).unwrap();
            }
            9 if vmas.len() >= 2 => {
                let (dst_pid, dst_start, dst_pages, dst_size) = vmas[pick(a, vmas.len())];
                let (src_pid, src_start, src_pages, src_size) = vmas[pick(b, vmas.len())];
                if dst_size == PageSize::Regular4K && src_size == PageSize::Regular4K {
                    let dst_va = VirtAddr::new(dst_start + a % dst_pages * 4096);
                    let src_va = VirtAddr::new(src_start + b % src_pages * 4096);
                    let target = kernel.translate(src_pid, src_va).map(|pa| pa.align_to(4096));
                    write!(d, "{target:?}").unwrap();
                    if let Some(target) = target {
                        if target != kernel.zero_page_4k()
                            && target.align_to(2 << 20) != kernel.zero_page_2m()
                        {
                            write!(d, "{:?}", kernel.ksm_remap(dst_pid, dst_va, target)).unwrap();
                        }
                    }
                }
            }
            _ => {}
        }
        write!(d, "|{:?}|{}", kernel.stats(), kernel.free_bytes()).unwrap();
    }
    write!(d, "#end:{:?}", kernel.live_pids()).unwrap();
    for (pid, start, pages, size) in vmas {
        for page in 0..pages {
            let va = VirtAddr::new(start + page * size.bytes());
            write!(d, "|{:?}|{:?}", kernel.translate(pid, va), kernel.pte_info(pid, va)).unwrap();
        }
    }
    d.0
}

/// A fork/write/read scenario under every scheme, pinning the stored
/// ciphertexts. Formerly checked against the byte-oriented AES.
#[test]
fn fork_scenario_ciphertexts_match_pins() {
    let fresh = CowStrategy::all()
        .into_iter()
        .map(|strategy| {
            let row = fork_scenario_row(SimConfig::new(strategy, PageSize::Regular4K));
            pin_syntax(&strategy.to_string(), &row)
        })
        .collect();
    assert_pinned("fork scenario", pin_rows(FORK_SCENARIO), fresh);
}

/// The `.ltr` files recorded from runs that make per-line calls
/// (`read_bytes`, `write_bytes`, `write_pattern`), each recorded as a
/// one-op batch record, pinned byte for byte.
#[test]
fn recorded_per_line_traces_match_pins() {
    let workload = |wl: &dyn Workload, sys: &mut System| {
        wl.run(sys).expect("workload runs");
    };
    let fresh = vec![
        recorded_trace_row("fork scenario", fork_scenario),
        recorded_trace_row("redis", |sys| workload(&Redis::small(), sys)),
        recorded_trace_row("shell", |sys| workload(&Shell::small(), sys)),
    ];
    let pins = RECORDED_TRACES
        .iter()
        .map(|&(name, bytes, ops, digest)| format!("({name:?}, {bytes}, {ops}, {digest:#018x})"))
        .collect();
    assert_pinned("recorded trace", pins, fresh);
}

/// 32 random syscall/fault soups driven straight through the kernel.
/// The cases are drawn from the seed of the former property test that
/// ran them against the map-based kernel structures, so they are the
/// same 32 cases.
#[test]
fn kernel_syscall_soups_match_pins() {
    let mut fresh = Vec::new();
    for case in 0..32 {
        let mut rng =
            proptest::rng_for("differential_models::prop_kernel_structures_match_reference", case);
        let strategy = CowStrategy::all()[(0usize..4).sample(&mut rng)];
        let ops = prop::collection::vec((0u8..10, 0u64..64, 0u64..8), 1..200).sample(&mut rng);
        let config = KernelConfig { phys_bytes: 64 << 20, ..KernelConfig::default_with(strategy) };
        let digest = kernel_soup_digest(config, &ops);
        fresh.push(format!("({case}, {:?}, {}, {digest:#018x})", strategy.to_string(), ops.len()));
    }
    let pins = KERNEL_SOUPS
        .iter()
        .map(|&(case, scheme, ops, digest)| format!("({case}, {scheme:?}, {ops}, {digest:#018x})"))
        .collect();
    assert_pinned("kernel soup", pins, fresh);
}

const FORK_SCENARIO: &[Pin] = &[
    ("Baseline", 80656, 1317, 0x1632815d7b1b7c30),
    ("SilentShredder", 52461, 805, 0x43b700490df0e2f8),
    ("Lelantus", 44063, 596, 0x208ea2067b6ea897),
    ("Lelantus-CoW", 44797, 598, 0x15ce84a1fa9154b4),
];

const RECORDED_TRACES: &[TracePin] = &[
    ("fork scenario", 457, 6, 0x5a082965d869ecdc),
    ("redis", 27080, 2001, 0x9bcd07a6fcb57305),
    ("shell", 1143, 131, 0xed1c3c13460f4f54),
];

const KERNEL_SOUPS: &[SoupPin] = &[
    (0, "Baseline", 39, 0x5ed886d78f52468a),
    (1, "Lelantus-CoW", 111, 0x507deff677493c6f),
    (2, "Lelantus", 87, 0xdf106b1656fe1408),
    (3, "SilentShredder", 62, 0xf4f3a8ea995cb326),
    (4, "Baseline", 8, 0x9f778d737e3a0c96),
    (5, "Lelantus-CoW", 148, 0x792b221e8254024e),
    (6, "Lelantus", 61, 0x77f5fbabafa606df),
    (7, "Lelantus", 112, 0x15134012cb6d1a64),
    (8, "Lelantus-CoW", 43, 0xf3a7a1d557e4f290),
    (9, "Lelantus-CoW", 58, 0xf5bfc0b113fce364),
    (10, "Lelantus-CoW", 183, 0xe6c96306bb85e9a9),
    (11, "Baseline", 42, 0xc00a24095b8bf997),
    (12, "Baseline", 93, 0x376da255d921044e),
    (13, "Lelantus", 140, 0x89dc63c823637e54),
    (14, "Lelantus-CoW", 145, 0x571bfa0ed1ebff78),
    (15, "Lelantus-CoW", 165, 0x9dd82e48c1d12fda),
    (16, "SilentShredder", 153, 0x7b3f607157175ca5),
    (17, "SilentShredder", 135, 0xdb5ac72f57d05d7c),
    (18, "Baseline", 83, 0xa13405dea7940ab0),
    (19, "Baseline", 91, 0xe019cd81f7c917af),
    (20, "Baseline", 176, 0xf890d590d7e6b12f),
    (21, "Lelantus", 31, 0x91ef66d952979896),
    (22, "Baseline", 35, 0x580d603c1320fca3),
    (23, "Lelantus-CoW", 90, 0xf7dd6977495f04b7),
    (24, "Lelantus-CoW", 150, 0xfcbfbba750db9a78),
    (25, "Lelantus-CoW", 30, 0x3c9bce94eff7ddc9),
    (26, "Baseline", 120, 0x82294c2e877ccabe),
    (27, "Lelantus", 84, 0xea9ad09a8d77df4c),
    (28, "Lelantus-CoW", 49, 0xf59d56c87760a2ca),
    (29, "SilentShredder", 123, 0x9b19ee757b77eab7),
    (30, "Baseline", 128, 0x66da8ec1f9fe2758),
    (31, "SilentShredder", 76, 0x7d0bc5d7462eb47e),
];
