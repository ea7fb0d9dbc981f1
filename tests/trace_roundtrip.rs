//! `.ltr` format round-trip and rejection properties: any record
//! sequence the writer produces must decode back verbatim (through
//! both the owned-bytes and the mmap reader), and any damaged file —
//! truncated, magic-stomped, version-bumped, bit-flipped, or crafted
//! with an unknown opcode — must surface the matching typed
//! [`TraceError`] instead of panicking or silently misparsing. A
//! well-formed trace carrying a nonsensical operation must likewise
//! fail replay with a typed error.

use lelantus::os::CowStrategy;
use lelantus::sim::{replay, ReplayError, SimConfig, System};
use lelantus::trace::{
    Check64, Record, Trace, TraceError, TraceHeader, TraceOp, TraceWriter, FOOTER_LEN,
    FORMAT_VERSION, HEADER_LEN,
};
use lelantus::types::PageSize;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Model records and encoding
// ---------------------------------------------------------------------

/// The writer's record surface, as plain data the test can compare.
#[derive(Debug, Clone, PartialEq)]
enum MRec {
    Batch { pid: u64, ops: Vec<TraceOp>, data: Vec<u8> },
    SpawnInit { pid: u64 },
    Mmap { pid: u64, len: u64, va: u64 },
    Fork { parent: u64, child: u64 },
    Exit { pid: u64 },
    UseCore { core: u8 },
    SyncCores,
    Finish,
    MerkleRoot { root: u64 },
}

/// One batch op: the writer requires explicit-data writes to consume
/// the arena in push order, so `data_off` is assigned while building.
#[derive(Debug, Clone)]
enum MOp {
    Read { delta: i16, len: u32 },
    Write { delta: i16, len: u8 },
    Pattern { delta: i16, len: u32, tag: u8 },
}

fn op_strategy() -> impl Strategy<Value = MOp> {
    prop_oneof![
        (any::<i16>(), 1..4096u32).prop_map(|(delta, len)| MOp::Read { delta, len }),
        (any::<i16>(), 1..64u8).prop_map(|(delta, len)| MOp::Write { delta, len }),
        (any::<i16>(), 1..4096u32, any::<u8>()).prop_map(|(delta, len, tag)| MOp::Pattern {
            delta,
            len,
            tag
        }),
    ]
}

fn rec_strategy() -> impl Strategy<Value = Vec<MRec>> {
    let rec = prop_oneof![
        4 => prop::collection::vec(op_strategy(), 1..40).prop_map(|mops| {
            // Walk a va cursor and the canonical arena to build
            // writer-legal TraceOps.
            let mut va = 0x1000u64;
            let mut ops = Vec::with_capacity(mops.len());
            let mut data = Vec::new();
            for m in mops {
                match m {
                    MOp::Read { delta, len } => {
                        va = va.wrapping_add(delta as u64);
                        ops.push(TraceOp::read(va, len));
                    }
                    MOp::Write { delta, len } => {
                        va = va.wrapping_add(delta as u64);
                        let off = data.len() as u32;
                        data.extend(std::iter::repeat_n(len, len as usize));
                        ops.push(TraceOp::write(va, u32::from(len), off));
                    }
                    MOp::Pattern { delta, len, tag } => {
                        va = va.wrapping_add(delta as u64);
                        ops.push(TraceOp::pattern(va, len, tag));
                    }
                }
            }
            MRec::Batch { pid: 7, ops, data }
        }),
        1 => (1..100u64).prop_map(|pid| MRec::SpawnInit { pid }),
        1 => (1..100u64, 1..(1u64 << 24), any::<u32>())
            .prop_map(|(pid, len, va)| MRec::Mmap { pid, len, va: u64::from(va) << 12 }),
        1 => (1..100u64, 100..200u64).prop_map(|(parent, child)| MRec::Fork { parent, child }),
        1 => (1..100u64).prop_map(|pid| MRec::Exit { pid }),
        1 => (0..8u8).prop_map(|core| MRec::UseCore { core }),
        1 => Just(MRec::SyncCores),
        1 => Just(MRec::Finish),
        1 => any::<u64>().prop_map(|root| MRec::MerkleRoot { root }),
    ];
    prop::collection::vec(rec, 0..30)
}

fn encode(recs: &[MRec]) -> Vec<u8> {
    let header = TraceHeader { page_size: PageSize::Regular4K, phys_bytes: 1 << 30 };
    let mut w = TraceWriter::new(Vec::new(), header).expect("vec sink");
    for r in recs {
        match r {
            MRec::Batch { pid, ops, data } => w.batch(*pid, data, ops.iter().copied()),
            MRec::SpawnInit { pid } => w.spawn_init(*pid),
            MRec::Mmap { pid, len, va } => w.mmap(*pid, *len, PageSize::Regular4K, *va),
            MRec::Fork { parent, child } => w.fork(*parent, *child),
            MRec::Exit { pid } => w.exit(*pid),
            MRec::UseCore { core } => w.use_core(*core),
            MRec::SyncCores => w.sync_cores(),
            MRec::Finish => w.finish_event(),
            MRec::MerkleRoot { root } => w.merkle_root(*root),
        }
        .expect("vec sink");
    }
    let (bytes, _) = w.into_parts().expect("vec sink");
    bytes
}

fn decode(trace: &Trace) -> Vec<MRec> {
    let mut out = Vec::new();
    for record in trace.records() {
        out.push(match record.expect("validated trace") {
            Record::Batch(b) => {
                let ops: Vec<TraceOp> = b.ops().map(|o| o.expect("validated trace")).collect();
                MRec::Batch { pid: b.pid, ops, data: b.data.to_vec() }
            }
            Record::SpawnInit { pid } => MRec::SpawnInit { pid },
            Record::Mmap { pid, len, va, .. } => MRec::Mmap { pid, len, va },
            Record::Fork { parent, child } => MRec::Fork { parent, child },
            Record::Exit { pid } => MRec::Exit { pid },
            Record::UseCore { core } => MRec::UseCore { core },
            Record::SyncCores => MRec::SyncCores,
            Record::Finish => MRec::Finish,
            Record::MerkleRoot { root } => MRec::MerkleRoot { root },
            other => panic!("unexpected record decoded: {other:?}"),
        });
    }
    out
}

// ---------------------------------------------------------------------
// Round-trip
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Writer output decodes back to exactly the records written, with
    /// identical totals, through the owned-bytes reader.
    #[test]
    fn prop_roundtrip_owned(recs in rec_strategy()) {
        let bytes = encode(&recs);
        let trace = Trace::from_bytes(bytes).expect("writer output validates");
        let ops: u64 = recs.iter().map(|r| match r {
            MRec::Batch { ops, .. } => ops.len() as u64,
            _ => 0,
        }).sum();
        prop_assert_eq!(trace.totals().records, recs.len() as u64);
        prop_assert_eq!(trace.totals().ops, ops);
        prop_assert_eq!(decode(&trace), recs);
    }

    /// The mmap reader sees byte-identical records to the owned one.
    #[test]
    fn prop_roundtrip_mmap(recs in rec_strategy()) {
        let bytes = encode(&recs);
        let dir = std::env::temp_dir().join("lelantus-trace-roundtrip");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("{}-prop.ltr", std::process::id()));
        std::fs::write(&path, &bytes).expect("temp write");
        let trace = Trace::open(&path).expect("writer output validates");
        prop_assert!(trace.is_mapped());
        prop_assert_eq!(decode(&trace), recs);
        drop(trace);
        let _ = std::fs::remove_file(&path);
    }

    /// Every proper prefix of a valid trace is rejected with a typed
    /// error — truncation can never pass validation or panic.
    #[test]
    fn prop_any_truncation_is_rejected(recs in rec_strategy(), cut in any::<u64>()) {
        let bytes = encode(&recs);
        let cut = (cut % bytes.len() as u64) as usize;
        let err =
            Trace::from_bytes(bytes[..cut].to_vec()).expect_err("no proper prefix may validate");
        prop_assert!(matches!(
            err,
            TraceError::Truncated | TraceError::ChecksumMismatch { .. } | TraceError::BadMagic
        ), "prefix of {cut} bytes gave {err:?}");
    }

    /// Any single bit flip in the body is caught by the checksum.
    #[test]
    fn prop_any_body_bitflip_is_rejected(recs in rec_strategy(), pos in any::<u64>(), bit in 0..8u32) {
        let mut bytes = encode(&recs);
        let body = bytes.len() - HEADER_LEN - FOOTER_LEN;
        prop_assume!(body > 0);
        let pos = HEADER_LEN + (pos % body as u64) as usize;
        bytes[pos] ^= 1 << bit;
        let err = Trace::from_bytes(bytes).expect_err("corrupt body must be rejected");
        prop_assert!(matches!(err, TraceError::ChecksumMismatch { .. }), "got {err:?}");
    }
}

// ---------------------------------------------------------------------
// Deterministic rejection cases
// ---------------------------------------------------------------------

fn valid_image() -> Vec<u8> {
    encode(&[
        MRec::SpawnInit { pid: 1 },
        MRec::Batch {
            pid: 1,
            ops: vec![TraceOp::read(0x1000, 64), TraceOp::pattern(0x1040, 64, 0xAE)],
            data: Vec::new(),
        },
        MRec::Finish,
    ])
}

/// Rewrites the footer checksum so crafted (not random) corruption
/// reaches the record decoder instead of tripping the checksum.
fn reseal(bytes: &mut [u8]) {
    let n = bytes.len();
    let mut c = Check64::default();
    c.update(&bytes[..n - FOOTER_LEN]);
    let sum = c.finish();
    bytes[n - 12..n - 4].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn empty_and_tiny_files_are_truncated() {
    for len in [0, 1, HEADER_LEN - 1, HEADER_LEN, HEADER_LEN + FOOTER_LEN - 1] {
        let err = Trace::from_bytes(vec![0x4C; len]).unwrap_err();
        assert!(
            matches!(err, TraceError::Truncated | TraceError::BadMagic),
            "{len}-byte file gave {err:?}"
        );
    }
}

#[test]
fn bad_magic_is_rejected() {
    let mut bytes = valid_image();
    bytes[0..4].copy_from_slice(b"NOPE");
    assert!(matches!(Trace::from_bytes(bytes).unwrap_err(), TraceError::BadMagic));
}

#[test]
fn future_version_is_rejected_as_bad_version() {
    let mut bytes = valid_image();
    bytes[4..6].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    match Trace::from_bytes(bytes).unwrap_err() {
        TraceError::BadVersion { found } => assert_eq!(found, FORMAT_VERSION + 1),
        other => panic!("expected BadVersion, got {other:?}"),
    }
}

#[test]
fn missing_footer_magic_is_truncated() {
    let mut bytes = valid_image();
    let n = bytes.len();
    bytes[n - 4..].copy_from_slice(b"XXXX");
    assert!(matches!(Trace::from_bytes(bytes).unwrap_err(), TraceError::Truncated));
}

#[test]
fn stomped_checksum_reports_both_values() {
    let mut bytes = valid_image();
    let n = bytes.len();
    bytes[n - 12] ^= 0xFF;
    match Trace::from_bytes(bytes).unwrap_err() {
        TraceError::ChecksumMismatch { stored, computed } => assert_ne!(stored, computed),
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
}

#[test]
fn unknown_opcode_is_a_bad_record_not_a_panic() {
    let mut bytes = valid_image();
    // First record starts right after the header; stomp its opcode
    // with an unassigned value and reseal so the checksum passes.
    bytes[HEADER_LEN] = 0xEE;
    reseal(&mut bytes);
    let trace = Trace::from_bytes(bytes).expect("resealed image validates");
    let err = trace.records().find_map(|r| r.err()).expect("decoding a crafted opcode must fail");
    assert!(matches!(err, TraceError::BadRecord { .. }), "got {err:?}");
}

#[test]
fn overflowing_mmap_length_is_an_os_error_not_a_panic() {
    // A well-formed trace whose mmap length cannot be page-rounded.
    let header = TraceHeader { page_size: PageSize::Regular4K, phys_bytes: 16 << 20 };
    let mut w = TraceWriter::new(Vec::new(), header).expect("vec sink");
    w.spawn_init(1).expect("vec sink");
    w.mmap(1, u64::MAX, PageSize::Regular4K, 0).expect("vec sink");
    let (bytes, _) = w.into_parts().expect("vec sink");
    let trace = Trace::from_bytes(bytes).expect("writer output validates");
    let mut sys = System::new(
        SimConfig::new(CowStrategy::Lelantus, PageSize::Regular4K).with_phys_bytes(16 << 20),
    );
    let err = replay(&mut sys, &trace).expect_err("an overflowing mmap must be rejected");
    assert!(matches!(err, ReplayError::Os(_)), "got {err}");
}

#[test]
fn memory_beyond_the_cache_tag_range_is_a_bad_header_not_a_panic() {
    // A well-formed trace recorded, by its header, on 2^46 bytes of
    // memory: more than a 32-bit L1 tag addresses.
    let header = TraceHeader { page_size: PageSize::Regular4K, phys_bytes: 1 << 46 };
    let mut w = TraceWriter::new(Vec::new(), header).expect("vec sink");
    w.spawn_init(1).expect("vec sink");
    let (bytes, _) = w.into_parts().expect("vec sink");
    let dir = std::env::temp_dir().join("lelantus-trace-roundtrip");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{}-huge.ltr", std::process::id()));
    std::fs::write(&path, &bytes).expect("temp write");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_lelantus"))
        .args(["run", "--trace", path.to_str().unwrap()])
        .output()
        .expect("spawn lelantus");
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(15), "a bad header exits 15: {stderr}");
    assert!(stderr.contains("cache tags"), "{stderr}");
}

#[test]
fn mmap_and_buffered_readers_agree() {
    let bytes = valid_image();
    let dir = std::env::temp_dir().join("lelantus-trace-roundtrip");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{}-modes.ltr", std::process::id()));
    std::fs::write(&path, &bytes).expect("temp write");
    let mapped = Trace::open(&path).expect("open");
    let buffered = Trace::open_buffered(&path).expect("open buffered");
    assert!(mapped.is_mapped() && !buffered.is_mapped());
    assert_eq!(decode(&mapped), decode(&buffered));
    drop((mapped, buffered));
    let _ = std::fs::remove_file(&path);
}
