//! Micro-benchmarks for the `.ltr` trace frontend: packed-stream
//! encoding, zero-copy decoding off the file mapping, and end-to-end
//! replay into the simulator.
//!
//! This target is also the performance gate for trace ingestion: it
//! *asserts* that the decode frontend — everything the replay loop
//! does up to the `run_batch` call boundary (record framing, varint
//! va-deltas, op unpacking into the scratch op list) — sustains at
//! least 10M ops/s off a memory-mapped trace. End-to-end replay is
//! reported but not gated: past the boundary the simulator itself is
//! the cost, and that budget belongs to `micro_access`. Before any
//! timing is trusted, a recorded workload trace is replayed and
//! checked bit-identical to its live run (the equivalence matrix
//! proper is `tests/trace_replay_equivalence.rs`).

use lelantus_bench::results::{timed_emit, Record};
use lelantus_bench::{scale_from_env, Scale};
use lelantus_os::CowStrategy;
use lelantus_sim::{replay_checked, SimConfig, System, Trace, TraceHeader, TraceRecorder};
use lelantus_trace::reader::Record as TraceRecord;
use lelantus_trace::{TraceOp, TraceOpKind, TraceWriter};
use lelantus_types::{PageSize, VirtAddr, LINE_BYTES};
use lelantus_workloads::forkbench::Forkbench;
use lelantus_workloads::Workload;
use std::time::Instant;

/// Repetitions per timing; the minimum is the noise-robust estimator
/// (preemption only ever inflates a run).
const REPS: usize = 5;

/// Ops per synthetic batch record (mirrors the workloads' flush size).
const BATCH_OPS: usize = 4096;

/// The gate: decode must deliver at least this many ops/s.
const DECODE_GATE_OPS_PER_S: f64 = 10e6;

fn min_time<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..REPS {
        let start = Instant::now();
        let r = f();
        best = best.min(start.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best, out.expect("REPS >= 1"))
}

/// Builds the synthetic op stream the encode/decode timings run over:
/// the access mix of a CoW-heavy workload (sequential pattern fills,
/// strided read-modify-write, occasional explicit-data writes) as
/// batches of `BATCH_OPS`.
fn synthetic_batches(total_ops: usize) -> (Vec<Vec<TraceOp>>, Vec<Vec<u8>>) {
    let line = LINE_BYTES as u64;
    let mut batches = Vec::new();
    let mut arenas = Vec::new();
    let mut produced = 0usize;
    let mut va = 0x7f00_0000_0000u64;
    while produced < total_ops {
        let n = BATCH_OPS.min(total_ops - produced);
        let mut ops = Vec::with_capacity(n);
        let mut arena = Vec::new();
        for i in 0..n {
            let op = match i % 8 {
                // Sequential fill: contiguous pattern runs (the
                // demand-zero / init shape; encodes to 1 byte/op).
                0..=3 => {
                    va += line;
                    TraceOp { va, len: line as u32, kind: TraceOpKind::Pattern { tag: 0xAE } }
                }
                // Strided reads (zigzag va-delta varints).
                4..=5 => {
                    va = va.wrapping_add(line * 37);
                    TraceOp { va, len: 16, kind: TraceOpKind::Read }
                }
                // Small pattern update at a skewed offset.
                6 => {
                    va = va.wrapping_sub(line * 11);
                    TraceOp { va, len: 48, kind: TraceOpKind::Pattern { tag: 0x0F } }
                }
                // Explicit-data write consuming the batch arena.
                _ => {
                    let off = arena.len() as u32;
                    arena.extend_from_slice(&[i as u8; 24]);
                    TraceOp { va, len: 24, kind: TraceOpKind::Write { data_off: off } }
                }
            };
            ops.push(op);
        }
        produced += n;
        batches.push(ops);
        arenas.push(arena);
    }
    (batches, arenas)
}

/// Encodes the synthetic stream into an in-memory `.ltr` image.
fn encode(batches: &[Vec<TraceOp>], arenas: &[Vec<u8>]) -> Vec<u8> {
    let header = TraceHeader { page_size: PageSize::Regular4K, phys_bytes: 1 << 30 };
    let mut w = TraceWriter::new(Vec::new(), header).expect("vec write cannot fail");
    for (ops, arena) in batches.iter().zip(arenas) {
        w.batch(1, arena, ops.iter().copied()).expect("vec write cannot fail");
    }
    let (bytes, _) = w.into_parts().expect("vec write cannot fail");
    bytes
}

/// The decode frontend: everything replay does per op before handing
/// the batch to `run_batch` — record framing, op unpacking, and the
/// scratch-list rebuild. Returns (ops, checksum) so the work cannot
/// be optimized away.
fn decode_all(trace: &Trace, scratch: &mut Vec<(VirtAddr, u32, u8)>) -> (u64, u64) {
    let mut ops = 0u64;
    let mut sum = 0u64;
    for record in trace.records() {
        match record.expect("trace was validated at open") {
            TraceRecord::Batch(b) => {
                scratch.clear();
                for op in b.ops() {
                    let op = op.expect("trace was validated at open");
                    let kind = match op.kind {
                        TraceOpKind::Read => 0u8,
                        TraceOpKind::Write { .. } => 1,
                        TraceOpKind::Pattern { tag } => tag,
                    };
                    scratch.push((VirtAddr::new(op.va), op.len, kind));
                }
                ops += scratch.len() as u64;
                for (va, len, _) in scratch.iter() {
                    sum = sum.wrapping_add(va.as_u64() ^ u64::from(*len));
                }
                sum = sum.wrapping_add(b.data.len() as u64);
            }
            _ => sum = sum.wrapping_add(1),
        }
    }
    (ops, sum)
}

fn main() {
    let scale = scale_from_env();
    timed_emit("micro_trace", || {
        let mut records = Vec::new();
        // Enough ops that the decode timing is milliseconds even at
        // 100M ops/s; scaled up for `paper` runs.
        let total_ops = match scale {
            Scale::Small => 1 << 20,
            Scale::Medium => 1 << 22,
            Scale::Paper => 1 << 24,
        };

        // --- encode: packed-stream writing into a Vec ------------------
        let (batches, arenas) = synthetic_batches(total_ops);
        let (enc_s, image) = min_time(|| encode(&batches, &arenas));
        let enc_rate = total_ops as f64 / enc_s;
        let bytes_per_op = image.len() as f64 / total_ops as f64;
        println!(
            "encode: {:.1}M ops/s, {:.2} B/op ({} ops -> {} KiB)",
            enc_rate / 1e6,
            bytes_per_op,
            total_ops,
            image.len() >> 10,
        );
        records.push(Record::new("trace_encode", enc_rate / 1e6, "Mops/s").timed(enc_s));
        records.push(Record::new("trace_bytes_per_op", bytes_per_op, "B/op"));

        // --- decode: the gated frontend off a real file mapping --------
        let dir = std::env::temp_dir().join("lelantus-micro-trace");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("decode-{}.ltr", std::process::id()));
        std::fs::write(&path, &image).expect("temp write");
        let trace = Trace::open(&path).expect("just written");
        assert!(trace.is_mapped(), "decode gate must run off the mmap path");
        let mut scratch = Vec::new();
        let (dec_s, (dec_ops, sum)) = min_time(|| decode_all(&trace, &mut scratch));
        assert_eq!(dec_ops, total_ops as u64, "decoder must see every encoded op");
        assert_ne!(sum, 0, "checksum keeps the decode loop live");
        let dec_rate = dec_ops as f64 / dec_s;
        println!(
            "decode: {:.1}M ops/s off mmap ({:.1} ns/op)",
            dec_rate / 1e6,
            dec_s * 1e9 / dec_ops as f64,
        );
        records.push(Record::new("trace_decode", dec_rate / 1e6, "Mops/s").timed(dec_s));
        drop(trace);
        let _ = std::fs::remove_file(&path);

        // --- end-to-end: record a live workload, replay it -------------
        // Bit-identity first: the replayed run must reproduce the live
        // run's full-system metrics exactly before its timing means
        // anything.
        let wl = Forkbench { total_bytes: scale.alloc_bytes(), bytes_per_page: None };
        let cfg = SimConfig::new(CowStrategy::Lelantus, PageSize::Regular4K);
        let rpath = dir.join(format!("replay-{}.ltr", std::process::id()));
        let header = TraceHeader { page_size: cfg.page_size, phys_bytes: cfg.kernel.phys_bytes };
        let rec = TraceRecorder::create(&rpath, header).expect("temp create");
        let mut live = System::new(cfg.clone());
        live.record_into(rec.clone());
        wl.run(&mut live).expect("forkbench runs");
        live.stop_recording();
        let totals = rec.finish().expect("trace seals");
        let live_metrics = live.metrics();

        let rtrace = Trace::open(&rpath).expect("just recorded");
        let (replay_s, replayed) = min_time(|| {
            let mut sys = System::new(cfg.clone());
            let stats = replay_checked(&mut sys, &rtrace).expect("replay of own recording");
            (sys.finish(), stats)
        });
        let (replay_metrics, stats) = replayed;
        assert_eq!(
            replay_metrics, live_metrics,
            "replay must be bit-identical to the recorded live run"
        );
        assert_eq!(stats.ops, totals.ops, "replay must execute every recorded op");
        let replay_rate = stats.ops as f64 / replay_s;
        println!(
            "replay: {:.1}M ops/s end-to-end ({} ops, sim-bound past the decode frontend)",
            replay_rate / 1e6,
            stats.ops,
        );
        records
            .push(Record::new("trace_replay_ingest", replay_rate / 1e6, "Mops/s").timed(replay_s));
        drop(rtrace);
        let _ = std::fs::remove_file(&rpath);

        // --- the ingestion claim ---------------------------------------
        assert!(
            dec_rate >= DECODE_GATE_OPS_PER_S,
            "trace decode frontend must sustain >=10M ops/s (got {:.1}M)",
            dec_rate / 1e6,
        );
        records
    });
}
