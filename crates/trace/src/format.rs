//! On-disk constants, varint codec, checksum, and the op mirror types.

use crate::error::TraceError;
use lelantus_types::PageSize;

/// Header magic: the first four bytes of every `.ltr` file.
pub const HEADER_MAGIC: [u8; 4] = *b"LTRC";
/// Footer magic: the last four bytes of every complete `.ltr` file.
pub const FOOTER_MAGIC: [u8; 4] = *b"LTRE";
/// Current format version (bumped on any incompatible layout change).
pub const FORMAT_VERSION: u16 = 1;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 32;
/// Fixed footer size in bytes.
pub const FOOTER_LEN: usize = 28;

// Record opcodes (one byte each, first byte of every body record).
pub(crate) const OP_BATCH: u8 = 0x01;
pub(crate) const OP_SPAWN: u8 = 0x02;
pub(crate) const OP_MMAP: u8 = 0x03;
pub(crate) const OP_FORK: u8 = 0x04;
pub(crate) const OP_EXIT: u8 = 0x05;
pub(crate) const OP_MUNMAP: u8 = 0x06;
pub(crate) const OP_MADVISE: u8 = 0x07;
pub(crate) const OP_MPROTECT: u8 = 0x08;
pub(crate) const OP_KSM: u8 = 0x09;
pub(crate) const OP_USE_CORE: u8 = 0x0A;
pub(crate) const OP_SYNC_CORES: u8 = 0x0B;
pub(crate) const OP_FINISH: u8 = 0x0C;
pub(crate) const OP_WRITE_NT: u8 = 0x0D;
pub(crate) const OP_CRASH_RECOVER: u8 = 0x0E;
pub(crate) const OP_RESET_FOOTPRINT: u8 = 0x0F;
pub(crate) const OP_MERKLE_ROOT: u8 = 0x10;

// Packed access-op kind codes (bits 0-1 of the op byte).
pub(crate) const KIND_READ: u8 = 0;
pub(crate) const KIND_WRITE: u8 = 1;
pub(crate) const KIND_PATTERN: u8 = 2;
/// Pattern op reusing the previous pattern op's tag byte (the dominant
/// shape: long runs of same-tag line writes cost no tag byte).
pub(crate) const KIND_PATTERN_REPEAT: u8 = 3;
/// Bit 2 of the op byte: the op starts exactly where the previous op
/// ended, so no address delta is stored.
pub(crate) const OP_CONTIG: u8 = 1 << 2;
/// Largest op length packed directly into bits 3-7 of the op byte;
/// longer runs store a varint length instead.
pub(crate) const MAX_PACKED_LEN: u32 = 31;

/// The geometry a trace was captured under. Scheme-independent on
/// purpose: traces carry only virtual addresses and pids, so one
/// recording replays across all four CoW schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceHeader {
    /// Default page size of the recorded system.
    pub page_size: PageSize,
    /// Physical data-area size of the recorded system.
    pub phys_bytes: u64,
}

impl TraceHeader {
    /// Encodes the fixed 32-byte header.
    pub(crate) fn encode(&self) -> [u8; HEADER_LEN] {
        let mut h = [0u8; HEADER_LEN];
        h[0..4].copy_from_slice(&HEADER_MAGIC);
        h[4..6].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        // [6..8] flags, [12..16] + [24..32] reserved: zero.
        h[8..12].copy_from_slice(&(self.page_size.bytes() as u32).to_le_bytes());
        h[16..24].copy_from_slice(&self.phys_bytes.to_le_bytes());
        h
    }

    /// Decodes and validates a header block (magic and version already
    /// checked by the caller).
    pub(crate) fn decode(h: &[u8]) -> Result<Self, TraceError> {
        let page_bytes = u64::from(u32::from_le_bytes(h[8..12].try_into().expect("4 bytes")));
        let page_size = PageSize::all()
            .into_iter()
            .find(|p| p.bytes() == page_bytes)
            .ok_or(TraceError::BadHeader { reason: "unsupported page size" })?;
        let phys_bytes = u64::from_le_bytes(h[16..24].try_into().expect("8 bytes"));
        Ok(Self { page_size, phys_bytes })
    }
}

/// Totals a finished trace reports (also stored in the footer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceTotals {
    /// Line-granularity access ops (batched ops + non-temporal writes).
    pub ops: u64,
    /// Body records of any kind.
    pub records: u64,
}

/// One access op: what a trace records and what `lelantus-sim`'s one
/// access driver runs, whether it comes from an `AccessBatch`, a
/// per-line call or a replayed record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOp {
    /// Start virtual address.
    pub va: u64,
    /// Length in bytes (may span many lines; the sim driver splits).
    pub len: u32,
    /// Read, explicit-data write, or pattern write.
    pub kind: TraceOpKind,
}

/// What a [`TraceOp`] does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOpKind {
    /// Load `len` bytes (timing and residency only).
    Read,
    /// Store `len` bytes starting at `data_off` in the batch arena.
    Write {
        /// Offset of the payload within the batch's data arena.
        data_off: u32,
    },
    /// Store `len` bytes of the repeated byte `tag`.
    Pattern {
        /// The fill byte.
        tag: u8,
    },
}

impl TraceOp {
    /// A read op.
    pub fn read(va: u64, len: u32) -> Self {
        Self { va, len, kind: TraceOpKind::Read }
    }

    /// An explicit-data write op with its arena offset.
    pub fn write(va: u64, len: u32, data_off: u32) -> Self {
        Self { va, len, kind: TraceOpKind::Write { data_off } }
    }

    /// A pattern (repeated-byte) write op.
    pub fn pattern(va: u64, len: u32, tag: u8) -> Self {
        Self { va, len, kind: TraceOpKind::Pattern { tag } }
    }
}

/// Appends `v` as an LEB128 varint (7 bits per byte, low group first,
/// high bit = continuation; at most 10 bytes).
pub(crate) fn put_uvarint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Decodes an LEB128 varint at `*pos`, advancing it. `None` on
/// truncation or a value that does not fit in 64 bits.
pub(crate) fn uvarint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *buf.get(*pos)?;
        *pos += 1;
        if shift == 63 && b > 1 {
            return None; // 10th byte may only contribute the top bit
        }
        v |= u64::from(b & 0x7F) << shift;
        if b < 0x80 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// Maps a signed delta onto an unsigned varint-friendly value
/// (0, -1, 1, -2, ... → 0, 1, 2, 3, ...).
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Streaming 64-bit checksum, folded one little-endian word at a time
/// (xor-multiply-rotate; the length is mixed into the final avalanche
/// so zero-padding the tail word is unambiguous). Not cryptographic —
/// it detects corruption and truncation, while tamper detection is the
/// simulated controller's job.
#[derive(Debug, Clone)]
pub struct Check64 {
    h: u64,
    buf: [u8; 8],
    pending: usize,
    len: u64,
}

const CHECK_SEED: u64 = 0x9E37_79B9_7F4A_7C15;
const CHECK_MUL: u64 = 0xFF51_AFD7_ED55_8CCD;

impl Default for Check64 {
    fn default() -> Self {
        Self { h: CHECK_SEED, buf: [0; 8], pending: 0, len: 0 }
    }
}

impl Check64 {
    #[inline]
    fn fold(h: u64, word: u64) -> u64 {
        (h ^ word).wrapping_mul(CHECK_MUL).rotate_left(23)
    }

    /// Feeds `bytes` into the checksum.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.pending > 0 {
            let take = bytes.len().min(8 - self.pending);
            self.buf[self.pending..self.pending + take].copy_from_slice(&bytes[..take]);
            self.pending += take;
            bytes = &bytes[take..];
            if self.pending == 8 {
                self.h = Self::fold(self.h, u64::from_le_bytes(self.buf));
                self.pending = 0;
            } else {
                return;
            }
        }
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.h = Self::fold(self.h, u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
        let rest = words.remainder();
        self.buf[..rest.len()].copy_from_slice(rest);
        self.pending = rest.len();
    }

    /// Final checksum value over everything fed so far.
    pub fn finish(&self) -> u64 {
        let mut h = self.h;
        if self.pending > 0 {
            let mut tail = [0u8; 8];
            tail[..self.pending].copy_from_slice(&self.buf[..self.pending]);
            h = Self::fold(h, u64::from_le_bytes(tail));
        }
        h ^= self.len;
        h = h.wrapping_mul(CHECK_MUL);
        h ^ (h >> 29)
    }
}

/// One-shot checksum over a contiguous byte range.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut c = Check64::default();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        let values =
            [0u64, 1, 127, 128, 129, 16383, 16384, u32::MAX as u64, u64::MAX - 1, u64::MAX];
        for &v in &values {
            buf.clear();
            put_uvarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(uvarint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len(), "value {v} consumed exactly");
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut pos = 0;
        assert_eq!(uvarint(&[0x80], &mut pos), None, "dangling continuation");
        // 11 continuation bytes cannot encode a u64.
        let too_long = [0x80u8; 10];
        let mut pos = 0;
        assert_eq!(uvarint(&too_long, &mut pos), None);
        // A 10th byte contributing more than the top bit overflows.
        let overflow = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02];
        let mut pos = 0;
        assert_eq!(uvarint(&overflow, &mut pos), None);
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 4096, -4096] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn checksum_is_streaming_invariant() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7) as u8).collect();
        let whole = checksum64(&data);
        for split in [0, 1, 7, 8, 9, 500, 999, 1000] {
            let mut c = Check64::default();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), whole, "split at {split}");
        }
    }

    #[test]
    fn checksum_distinguishes_padding_from_data() {
        // A trailing zero byte must change the checksum even though the
        // tail word is zero-padded (the length mix disambiguates).
        assert_ne!(checksum64(&[1, 2, 3]), checksum64(&[1, 2, 3, 0]));
        assert_ne!(checksum64(&[]), checksum64(&[0; 8]));
    }

    #[test]
    fn header_roundtrip() {
        for page_size in PageSize::all() {
            let h = TraceHeader { page_size, phys_bytes: 48 << 20 };
            let enc = h.encode();
            assert_eq!(&enc[0..4], &HEADER_MAGIC);
            assert_eq!(TraceHeader::decode(&enc).unwrap(), h);
        }
    }

    #[test]
    fn header_rejects_unknown_page_size() {
        let mut enc = TraceHeader { page_size: PageSize::Regular4K, phys_bytes: 0 }.encode();
        enc[8..12].copy_from_slice(&12345u32.to_le_bytes());
        assert!(matches!(TraceHeader::decode(&enc), Err(TraceError::BadHeader { .. })));
    }
}
