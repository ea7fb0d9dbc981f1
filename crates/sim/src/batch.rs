//! Batched access descriptions for [`System::run_batch`].
//!
//! Workload generators describe whole runs of line-granularity
//! accesses up front instead of calling `read_bytes`/`write_bytes`
//! once per line. The batch is a flat op list plus one shared payload
//! arena, so building and replaying it allocates nothing per access;
//! [`System::run_batch`] then translates once per page *run* rather
//! than once per line.
//!
//! The op is the trace format's [`TraceOp`]: a queued batch, a
//! per-line call (one op, the caller's bytes as the arena) and a
//! replayed `.ltr` record all reach the one access driver as the same
//! op list.
//!
//! [`System::run_batch`]: crate::System::run_batch
//! [`System`]: crate::System

use lelantus_trace::{TraceOp, TraceOpKind};
use lelantus_types::{VirtAddr, LINE_BYTES};

/// The longest single op. A multiple of the line size, so an access
/// split at it ends each op where the driver ends a line chunk anyway.
const OP_MAX: usize = u32::MAX as usize & !(LINE_BYTES - 1);

/// Appends the ops of one `len`-byte access at `va`: one op, or
/// several split at line boundaries when `len` needs more than 32
/// bits. `kind(offset)` is the kind of the op starting `offset` bytes
/// into the access.
pub(crate) fn push_access(
    ops: &mut Vec<TraceOp>,
    va: VirtAddr,
    len: usize,
    kind: impl Fn(usize) -> TraceOpKind,
) {
    let mut offset = 0;
    loop {
        let start = va + offset as u64;
        let take = (len - offset).min(OP_MAX - start.line_offset());
        ops.push(TraceOp { va: start.as_u64(), len: take as u32, kind: kind(offset) });
        offset += take;
        if offset == len {
            return;
        }
    }
}

/// The ops of one access (see [`push_access`]).
pub(crate) fn access_ops(
    va: VirtAddr,
    len: usize,
    kind: impl Fn(usize) -> TraceOpKind,
) -> Vec<TraceOp> {
    let mut ops = Vec::with_capacity(1);
    push_access(&mut ops, va, len, kind);
    ops
}

/// A write op's kind for the payload at arena offset `off`.
///
/// # Panics
///
/// Panics if `off` exceeds the 32-bit arena offset.
pub(crate) fn write_at(off: usize) -> TraceOpKind {
    let data_off = u32::try_from(off).expect("write payload beyond the 4 GiB arena offset");
    TraceOpKind::Write { data_off }
}

/// A reusable queue of memory accesses for one process.
///
/// Push ops in program order, hand the batch to
/// [`System::run_batch`], then [`AccessBatch::clear`] and refill —
/// the backing allocations persist across uses.
///
/// # Examples
///
/// ```
/// use lelantus_sim::AccessBatch;
/// use lelantus_types::VirtAddr;
///
/// let mut batch = AccessBatch::new();
/// batch.push_write(VirtAddr::new(0x1000), b"hello");
/// batch.push_read(VirtAddr::new(0x1000), 5);
/// assert_eq!(batch.len(), 2);
/// batch.clear();
/// assert!(batch.is_empty());
/// ```
///
/// [`System::run_batch`]: crate::System::run_batch
#[derive(Debug, Clone, Default)]
pub struct AccessBatch {
    pub(crate) ops: Vec<TraceOp>,
    /// Payload arena for explicit-data writes.
    pub(crate) data: Vec<u8>,
}

impl AccessBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty batch pre-sized for `ops` queued operations
    /// and `data_bytes` of explicit-write payload, so generators that
    /// know their shape up front (one op per touched line, one payload
    /// byte per written byte) never regrow the vectors mid-build.
    pub fn with_capacity(ops: usize, data_bytes: usize) -> Self {
        Self { ops: Vec::with_capacity(ops), data: Vec::with_capacity(data_bytes) }
    }

    /// Grows the backing vectors for at least `ops` more operations
    /// and `data_bytes` more payload (the in-place counterpart of
    /// [`AccessBatch::with_capacity`] for reused scratch batches).
    pub fn reserve(&mut self, ops: usize, data_bytes: usize) {
        self.ops.reserve(ops);
        self.data.reserve(data_bytes);
    }

    /// Drops all queued ops, keeping capacity.
    pub fn clear(&mut self) {
        self.ops.clear();
        self.data.clear();
    }

    /// Number of queued ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Queues a read of `len` bytes at `va`.
    pub fn push_read(&mut self, va: VirtAddr, len: usize) {
        push_access(&mut self.ops, va, len, |_| TraceOpKind::Read);
    }

    /// Queues a write of `bytes` at `va`.
    ///
    /// # Panics
    ///
    /// Panics if the payload arena grows past 4 GiB.
    pub fn push_write(&mut self, va: VirtAddr, bytes: &[u8]) {
        let base = self.data.len();
        self.data.extend_from_slice(bytes);
        push_access(&mut self.ops, va, bytes.len(), |off| write_at(base + off));
    }

    /// Queues a write of `len` repeated `tag` bytes at `va`
    /// (the batched form of `System::write_pattern`).
    pub fn push_pattern(&mut self, va: VirtAddr, len: usize, tag: u8) {
        push_access(&mut self.ops, va, len, |_| TraceOpKind::Pattern { tag });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_offsets_track_pushes() {
        let mut b = AccessBatch::new();
        b.push_write(VirtAddr::new(0), &[1, 2, 3]);
        b.push_write(VirtAddr::new(64), &[4, 5]);
        b.push_pattern(VirtAddr::new(128), 4096, 0xAA);
        b.push_read(VirtAddr::new(0), 8);
        assert_eq!(b.len(), 4);
        assert_eq!(b.data, vec![1, 2, 3, 4, 5]);
        match b.ops[1].kind {
            TraceOpKind::Write { data_off } => assert_eq!(data_off, 3),
            _ => panic!("expected write"),
        }
        b.clear();
        assert!(b.is_empty());
        assert!(b.data.is_empty());
    }

    #[test]
    fn accesses_beyond_u32_split_at_line_boundaries() {
        let va = VirtAddr::new(0x1010);
        let len = (5usize << 30) + 7;
        let mut b = AccessBatch::new();
        b.push_pattern(va, len, 0xAA);
        b.push_read(va, 3);
        assert_eq!(b.len(), 3);
        let (first, second) = (b.ops[0], b.ops[1]);
        assert_eq!(first.va, va.as_u64());
        assert_eq!(second.va, first.va + u64::from(first.len));
        assert_eq!(second.va % LINE_BYTES as u64, 0, "split ends a line chunk");
        assert_eq!(first.len as usize + second.len as usize, len);
        assert_eq!(second.kind, TraceOpKind::Pattern { tag: 0xAA });
        assert_eq!(b.ops[2], TraceOp::read(va.as_u64(), 3));
    }
}
