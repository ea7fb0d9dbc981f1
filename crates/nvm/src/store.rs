//! Frame-indexed backing store for simulated line contents.
//!
//! The device used to keep line contents in a `HashMap<u64, [u8; 64]>`.
//! Every simulated read and write hashes an 8-byte key, chases the
//! table, and copies the line — measurable overhead once the T-table
//! AES stopped dominating the access path. [`LineStore`] replaces it
//! with a lazily-allocated two-level structure: a top-level `Vec`
//! indexed by 4 KB frame number holding `Option<Box<Frame>>`, where
//! each frame stores its 64 lines inline plus a 64-bit presence
//! bitmask. A line access is two array indexings and a bit test.
//!
//! Semantics match the map exactly — and are checked differentially
//! against one in the tests below:
//!
//! * unwritten lines are *absent* (the device reads them as zero),
//! * `remove` reports whether the line was present (Start-Gap leveling
//!   relies on this to relocate only lines that exist),
//! * `len` counts distinct resident lines.
//!
//! The top-level `Vec` grows to the highest frame index ever touched
//! (8 bytes per slot), so footprint tracks the workload's address
//! reach, not the configured device capacity.

use lelantus_types::LINE_BYTES;

/// Lines per 4 KB frame (the presence bitmask is one `u64`).
const LINES_PER_FRAME: usize = 4096 / LINE_BYTES;

/// One 4 KB frame of line contents plus a presence bitmask.
#[derive(Debug, Clone)]
struct Frame {
    /// Which of the 64 lines hold written data.
    present: u64,
    /// Line contents, absent lines zeroed.
    data: [[u8; LINE_BYTES]; LINES_PER_FRAME],
}

impl Frame {
    fn empty() -> Box<Self> {
        Box::new(Frame { present: 0, data: [[0; LINE_BYTES]; LINES_PER_FRAME] })
    }
}

/// Sparse store of 64-byte lines keyed by line-aligned byte address.
#[derive(Debug, Clone, Default)]
pub struct LineStore {
    /// Frames indexed by `addr / 4096`, grown lazily.
    frames: Vec<Option<Box<Frame>>>,
    /// Resident-line count (mirrors `HashMap::len`).
    resident: usize,
}

impl LineStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn split(addr: u64) -> (usize, usize, u64) {
        debug_assert_eq!(addr % LINE_BYTES as u64, 0, "line store addresses are line-aligned");
        let frame = (addr / 4096) as usize;
        let line = (addr % 4096) as usize / LINE_BYTES;
        (frame, line, 1u64 << line)
    }

    /// The line at `addr`, if ever written.
    #[inline]
    pub fn get(&self, addr: u64) -> Option<[u8; LINE_BYTES]> {
        let (frame, line, bit) = Self::split(addr);
        match self.frames.get(frame) {
            Some(Some(f)) if f.present & bit != 0 => Some(f.data[line]),
            _ => None,
        }
    }

    /// Stores `data` at `addr`, returning the previous contents if any.
    pub fn insert(&mut self, addr: u64, data: [u8; LINE_BYTES]) -> Option<[u8; LINE_BYTES]> {
        let (frame, line, bit) = Self::split(addr);
        if frame >= self.frames.len() {
            self.frames.resize_with(frame + 1, || None);
        }
        let f = self.frames[frame].get_or_insert_with(Frame::empty);
        let old = (f.present & bit != 0).then_some(f.data[line]);
        if old.is_none() {
            self.resident += 1;
            f.present |= bit;
        }
        f.data[line] = data;
        old
    }

    /// Removes the line at `addr`, returning its contents if present.
    pub fn remove(&mut self, addr: u64) -> Option<[u8; LINE_BYTES]> {
        let (frame, line, bit) = Self::split(addr);
        let f = self.frames.get_mut(frame)?.as_mut()?;
        if f.present & bit == 0 {
            return None;
        }
        let old = f.data[line];
        f.present &= !bit;
        f.data[line] = [0; LINE_BYTES];
        self.resident -= 1;
        if f.present == 0 {
            // Drop empty frames so leveling sweeps don't pin memory.
            self.frames[frame] = None;
        }
        Some(old)
    }

    /// Number of distinct resident lines.
    #[inline]
    pub fn len(&self) -> usize {
        self.resident
    }

    /// True when no line is resident.
    pub fn is_empty(&self) -> bool {
        self.resident == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    #[test]
    fn basic_insert_get_remove() {
        let mut s = LineStore::new();
        assert!(s.is_empty());
        assert_eq!(s.get(0x40), None);
        assert_eq!(s.insert(0x40, [1; 64]), None);
        assert_eq!(s.get(0x40), Some([1; 64]));
        assert_eq!(s.len(), 1);
        assert_eq!(s.insert(0x40, [2; 64]), Some([1; 64]));
        assert_eq!(s.len(), 1, "overwrite does not change residency");
        assert_eq!(s.remove(0x40), Some([2; 64]));
        assert_eq!(s.remove(0x40), None);
        assert!(s.is_empty());
    }

    #[test]
    fn lines_in_one_frame_are_independent() {
        let mut s = LineStore::new();
        for i in 0..64u64 {
            s.insert(i * 64, [i as u8; 64]);
        }
        assert_eq!(s.len(), 64);
        for i in 0..64u64 {
            assert_eq!(s.get(i * 64), Some([i as u8; 64]));
        }
        s.remove(0x0);
        assert_eq!(s.get(0x0), None);
        assert_eq!(s.get(0x40), Some([1; 64]), "neighbour survives removal");
    }

    #[test]
    fn sparse_high_addresses_work() {
        let mut s = LineStore::new();
        let high = 1u64 << 30; // 1 GiB
        s.insert(high, [9; 64]);
        assert_eq!(s.get(high), Some([9; 64]));
        assert_eq!(s.get(high + 64), None);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn empty_frames_are_reclaimed() {
        let mut s = LineStore::new();
        s.insert(0x1000, [1; 64]);
        s.remove(0x1000);
        assert!(s.frames[1].is_none(), "fully-vacated frame must be freed");
    }

    #[test]
    fn differential_against_hashmap() {
        // Random op soup: LineStore must be observationally identical
        // to the HashMap it replaced.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
        let mut store = LineStore::new();
        let mut model: HashMap<u64, [u8; 64]> = HashMap::new();
        for step in 0..20_000 {
            let addr = (rng.gen_range(0u64..256) * 64) + (rng.gen_range(0u64..4) << 20);
            match rng.gen_range(0u32..4) {
                0 => {
                    let data = [rng.gen::<u8>(); 64];
                    assert_eq!(store.insert(addr, data), model.insert(addr, data), "step {step}");
                }
                1 => {
                    assert_eq!(store.remove(addr), model.remove(&addr), "step {step}");
                }
                _ => {
                    assert_eq!(store.get(addr), model.get(&addr).copied(), "step {step}");
                }
            }
            assert_eq!(store.len(), model.len(), "step {step}");
        }
    }
}
