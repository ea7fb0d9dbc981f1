//! Unit-cost probes: each layer crate's public API timed directly, fed
//! the line-address stream of the workload's own trace.
//!
//! The trace holds virtual addresses. [`line_stream`] gives every
//! `(pid, virtual page)` its own physical frame in first-touch order,
//! so a probe sees the workload's working set, its page-level reuse
//! and its line order, without the kernel's allocation policy.

use lelantus_cache::{CacheHierarchy, LineBackend};
use lelantus_core::{SecureMemoryController, DATA_MAC_KEY, MERKLE_KEY};
use lelantus_crypto::{CtrEngine, IvSpec, MerkleTree, SipHash24};
use lelantus_metadata::{CounterBlock, CounterCache, MetadataLayout};
use lelantus_nvm::NvmDevice;
use lelantus_sim::{SimConfig, Trace};
use lelantus_trace::{Record, TraceOpKind};
use lelantus_types::{Cycles, PhysAddr, LINE_BYTES, REGION_BYTES};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Line accesses kept from the trace: enough to cover the working set
/// of every workload here, small enough to keep the probes quick.
const MAX_STREAM: usize = 1 << 18;

/// Minimum time each probe runs; it repeats its stream until then.
const PROBE_TIME: Duration = Duration::from_millis(40);

/// One line access of the workload, at its assigned physical address.
#[derive(Debug, Clone, Copy)]
pub struct LineOp {
    pub addr: u64,
    pub write: bool,
}

/// The first [`MAX_STREAM`] line accesses of `trace`'s batch records,
/// mapped into the data area of `cfg` above the zero area.
pub fn line_stream(trace: &Trace, cfg: &SimConfig) -> Result<Vec<LineOp>, String> {
    let line = LINE_BYTES as u64;
    let page = REGION_BYTES;
    let base_frame = cfg.controller.zero_area_bytes.div_ceil(page);
    let frames = cfg.controller.data_bytes / page - base_frame;
    let mut frame_of: HashMap<(u64, u64), u64> = HashMap::new();
    let mut out = Vec::with_capacity(MAX_STREAM);
    'records: for rec in trace.records() {
        let Record::Batch(b) = rec.map_err(|e| e.to_string())? else { continue };
        for op in b.ops() {
            let op = op.map_err(|e| e.to_string())?;
            let write = !matches!(op.kind, TraceOpKind::Read);
            let first = op.va / line;
            let last = (op.va + u64::from(op.len.max(1)) - 1) / line;
            for l in first..=last {
                let va = l * line;
                let next = frame_of.len() as u64;
                let frame = *frame_of.entry((b.pid, va / page)).or_insert(next);
                let addr = (base_frame + frame % frames) * page + va % page;
                out.push(LineOp { addr, write });
                if out.len() == MAX_STREAM {
                    break 'records;
                }
            }
        }
    }
    if out.is_empty() {
        return Err("trace has no line accesses".into());
    }
    Ok(out)
}

/// Nanoseconds per operation of `pass`, which does `ops` operations:
/// one untimed pass fills the layer's caches and first-touch state,
/// then passes repeat until [`PROBE_TIME`] has passed.
fn ns_per_op(ops: usize, mut pass: impl FnMut()) -> f64 {
    pass();
    let start = Instant::now();
    let mut passes = 0u64;
    while passes == 0 || start.elapsed() < PROBE_TIME {
        pass();
        passes += 1;
    }
    start.elapsed().as_nanos() as f64 / (passes as f64 * ops.max(1) as f64)
}

/// A memory behind the cache probe that costs nothing, so the probe
/// times the hierarchy alone.
struct NullBackend;

impl LineBackend for NullBackend {
    fn read_line(&mut self, _addr: PhysAddr, now: Cycles) -> ([u8; LINE_BYTES], Cycles) {
        ([0; LINE_BYTES], now + Cycles::new(100))
    }

    fn write_line(&mut self, _addr: PhysAddr, _data: [u8; LINE_BYTES], now: Cycles) -> Cycles {
        now
    }
}

/// Measured unit costs, in nanoseconds per call.
#[derive(Debug, Clone, Default)]
pub struct UnitCosts {
    /// `CacheHierarchy::load_line` / `store` per access.
    pub cache_access: f64,
    /// `CounterCache::get`, with an `insert` on a miss.
    pub counter_get: f64,
    /// `CounterBlock::decode` of the scheme's encoding.
    pub codec_decode: f64,
    /// `CtrEngine::one_time_pad` for one line.
    pub line_pad: f64,
    /// `CtrEngine::page_pads` for one 4 KB page.
    pub page_pads: f64,
    /// `SipHash24::hash` of one line's MAC input.
    pub mac: f64,
    /// `MerkleTree::update_leaf`, deferred interior flush included.
    pub merkle_update: f64,
    /// `NvmDevice::write_line`.
    pub nvm_write: f64,
    /// `NvmDevice::read_line`.
    pub nvm_read: f64,
    /// `SecureMemoryController::write_data_line`.
    pub ctrl_write: f64,
    /// `SecureMemoryController::read_data_line`.
    pub ctrl_read: f64,
}

/// Times every layer's unit operation on `stream` under `cfg`.
pub fn measure(stream: &[LineOp], cfg: &SimConfig) -> UnitCosts {
    let n = stream.len();
    let region = |op: &LineOp| op.addr / REGION_BYTES;
    let encoding = cfg.controller.scheme.encoding();

    let mut caches = CacheHierarchy::new(cfg.caches);
    let mut now = Cycles::new(0);
    let cache_access = ns_per_op(n, || {
        for op in stream {
            let addr = PhysAddr::new(op.addr);
            now = if op.write {
                caches.store(addr, &[0x5A; 8], now, &mut NullBackend)
            } else {
                caches.load_line(addr, now, &mut NullBackend).1
            };
        }
    });

    let mut counters = CounterCache::new(cfg.controller.counter_cache);
    let counter_get = ns_per_op(n, || {
        for op in stream {
            if black_box(counters.get(region(op))).is_none() {
                counters.insert(region(op), CounterBlock::fresh_regular(1), op.write);
            }
        }
    });

    // Each access's counter block as the controller would hold it:
    // the region's minors advanced by the writes so far, re-encrypted
    // on overflow, encoded in the scheme's format.
    let mut blocks: HashMap<u64, CounterBlock> = HashMap::new();
    let encoded: Vec<[u8; 64]> = stream
        .iter()
        .map(|op| {
            let block = blocks.entry(region(op)).or_insert_with(|| CounterBlock::fresh_regular(1));
            if op.write {
                let line = (op.addr % REGION_BYTES) as usize / LINE_BYTES;
                if block.increment_minor(line, encoding).is_err() {
                    block.reencrypt_epoch();
                }
            }
            block.encode(encoding)
        })
        .collect();
    let codec_decode = ns_per_op(n, || {
        for bytes in &encoded {
            black_box(CounterBlock::decode(black_box(bytes), encoding));
        }
    });

    let engine = CtrEngine::new(cfg.controller.key);
    let line_pad = ns_per_op(n, || {
        for (i, op) in stream.iter().enumerate() {
            let iv = IvSpec { line_addr: op.addr, major: region(op), minor: (i % 127) as u8 + 1 };
            black_box(engine.one_time_pad(black_box(iv)));
        }
    });

    let mut pages: Vec<u64> =
        stream.iter().map(|op| op.addr / REGION_BYTES * REGION_BYTES).collect();
    pages.dedup();
    let page_pads = ns_per_op(pages.len(), || {
        for &base in &pages {
            black_box(engine.page_pads(black_box(base), 1, 1, REGION_BYTES as usize / LINE_BYTES));
        }
    });

    let mac_key = SipHash24::new(DATA_MAC_KEY.0, DATA_MAC_KEY.1);
    let mac = ns_per_op(n, || {
        let mut buf = [0x3Cu8; LINE_BYTES + 17];
        for op in stream {
            buf[LINE_BYTES..LINE_BYTES + 8].copy_from_slice(&op.addr.to_le_bytes());
            black_box(mac_key.hash(black_box(&buf)));
        }
    });

    let layout = MetadataLayout::for_data_bytes(cfg.controller.data_bytes);
    let mut merkle =
        MerkleTree::new(layout.regions() as usize, MERKLE_KEY, cfg.controller.merkle_cache_nodes)
            .with_deferred_maintenance();
    let merkle_update = ns_per_op(n, || {
        for (op, bytes) in stream.iter().zip(&encoded) {
            black_box(merkle.update_leaf(region(op) as usize, bytes));
        }
        black_box(merkle.flush());
    });

    let mut nvm = NvmDevice::new(cfg.controller.nvm.clone());
    let mut now = Cycles::new(0);
    let nvm_write = ns_per_op(n, || {
        for op in stream {
            now = nvm.write_line(PhysAddr::new(op.addr), [0xA5; LINE_BYTES], now);
        }
    });
    let nvm_read = ns_per_op(n, || {
        for op in stream {
            let (data, done) = nvm.read_line(PhysAddr::new(op.addr), now);
            black_box(data);
            now = done;
        }
    });

    let mut ctrl = SecureMemoryController::new(cfg.controller.clone());
    let mut now = Cycles::new(0);
    let ctrl_write = ns_per_op(n, || {
        for op in stream {
            now = ctrl.write_data_line(PhysAddr::new(op.addr), [0xC3; LINE_BYTES], now);
        }
    });
    let ctrl_read = ns_per_op(n, || {
        for op in stream {
            let (data, done) = ctrl.read_data_line(PhysAddr::new(op.addr), now);
            black_box(data);
            now = done;
        }
    });

    UnitCosts {
        cache_access,
        counter_get,
        codec_decode,
        line_pad,
        page_pads,
        mac,
        merkle_update,
        nvm_write,
        nvm_read,
        ctrl_write,
        ctrl_read,
    }
}
