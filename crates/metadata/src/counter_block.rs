//! Bit-exact counter-block encodings.
//!
//! A counter block is always 64 bytes (512 bits) and covers one 4 KB
//! region (64 cachelines). Two layouts exist:
//!
//! * **Classic** (paper Figure 3/5; used by the baseline, Silent
//!   Shredder, and Lelantus-CoW): `major:64 ‖ minor[0..64]:7 each` —
//!   exactly 512 bits.
//! * **Resized** (paper Figure 4; Lelantus Solution 1): a 1-bit
//!   `CoW_Flag` selects between
//!   `flag=0 ‖ major:63 ‖ minor[0..64]:7 each` (regular page) and
//!   `flag=1 ‖ major:63 ‖ minor[0..64]:6 each ‖ src_addr:64` (CoW
//!   page) — both exactly 512 bits.
//!
//! Minor value **0 is reserved** on CoW pages to mean "this line has
//! not been copied yet"; the first write moves it to 1, which is how a
//! copy completes implicitly (paper §III-B).

/// Number of minor counters (lines) per counter block.
pub const MINORS: usize = 64;

/// Which wire format a counter block is serialized with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterEncoding {
    /// 64-bit major, 7-bit minors, no CoW fields (baseline /
    /// Silent Shredder / Lelantus-CoW).
    Classic,
    /// 1-bit flag picks regular (63/7) or CoW (63/6 + source address)
    /// layout (Lelantus Solution 1).
    Resized,
}

impl CounterEncoding {
    /// Largest minor-counter value representable for a page of the
    /// given kind under this encoding.
    pub fn minor_max(self, is_cow: bool) -> u8 {
        match (self, is_cow) {
            (CounterEncoding::Classic, _) => 127,
            (CounterEncoding::Resized, false) => 127,
            (CounterEncoding::Resized, true) => 63,
        }
    }

    /// Largest major-counter value representable.
    pub fn major_max(self) -> u64 {
        match self {
            CounterEncoding::Classic => u64::MAX,
            CounterEncoding::Resized => (1u64 << 63) - 1,
        }
    }
}

/// Error: a minor counter reached its ceiling and the region must be
/// re-encrypted under a bumped major counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinorOverflow {
    /// The line whose minor counter overflowed.
    pub line: usize,
}

impl std::fmt::Display for MinorOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "minor counter overflow on line {}", self.line)
    }
}

impl std::error::Error for MinorOverflow {}

/// A decoded counter block.
///
/// `cow_src` is `Some(region)` when the block describes a CoW page
/// copied from `region` (a 4 KB-region index). Under the
/// [`CounterEncoding::Classic`] wire format that field cannot be
/// serialized — Solution 2 stores it in the supplementary table
/// ([`crate::cow_meta`]) instead, and [`CounterBlock::encode`] will
/// panic if asked to serialize a CoW block classically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterBlock {
    /// Region-shared major counter.
    pub major: u64,
    /// Per-line minor counters (semantically 6- or 7-bit).
    pub minors: [u8; MINORS],
    /// Source region index when this covers a CoW page (Solution 1
    /// keeps it in-band; Solution 2 keeps it out-of-band but mirrors it
    /// here in the decoded view for uniform handling).
    pub cow_src: Option<u64>,
}

impl Default for CounterBlock {
    fn default() -> Self {
        Self::fresh_regular(1)
    }
}

impl CounterBlock {
    /// A regular-page block with every minor set to `minor_init`
    /// (use 1 to keep 0 reserved for the CoW marker) and major 1.
    pub fn fresh_regular(minor_init: u8) -> Self {
        Self { major: 1, minors: [minor_init; MINORS], cow_src: None }
    }

    /// A CoW-page block: all minors zero (nothing copied yet), source
    /// region recorded.
    pub fn fresh_cow(src_region: u64) -> Self {
        Self { major: 1, minors: [0; MINORS], cow_src: Some(src_region) }
    }

    /// Whether the block currently describes a CoW page.
    pub fn is_cow(&self) -> bool {
        self.cow_src.is_some()
    }

    /// Source region index for a CoW page.
    pub fn cow_source(&self) -> Option<u64> {
        self.cow_src
    }

    /// True when line `line` of a CoW page has not been copied yet
    /// (reserved minor value 0). Always false on regular pages.
    ///
    /// # Panics
    ///
    /// Panics if `line >= 64`.
    pub fn is_line_uncopied(&self, line: usize) -> bool {
        assert!(line < MINORS, "line index out of range");
        self.is_cow() && self.minors[line] == 0
    }

    /// Number of lines still uncopied (0 on regular pages).
    pub fn uncopied_lines(&self) -> usize {
        if self.is_cow() {
            self.minors.iter().filter(|&&m| m == 0).count()
        } else {
            0
        }
    }

    /// Increments the minor counter of `line` for a write under
    /// `encoding`, reporting overflow when the ceiling is reached.
    ///
    /// # Errors
    ///
    /// Returns [`MinorOverflow`] when the minor counter cannot be
    /// incremented further; the caller must re-encrypt the region with
    /// a bumped major counter.
    ///
    /// # Panics
    ///
    /// Panics if `line >= 64`.
    pub fn increment_minor(
        &mut self,
        line: usize,
        encoding: CounterEncoding,
    ) -> Result<u8, MinorOverflow> {
        assert!(line < MINORS, "line index out of range");
        let max = encoding.minor_max(self.is_cow());
        if self.minors[line] >= max {
            return Err(MinorOverflow { line });
        }
        self.minors[line] += 1;
        Ok(self.minors[line])
    }

    /// Converts a CoW block into a regular block after all its lines
    /// have been physically materialized: the major advances (fresh
    /// encryption epoch) and every minor restarts at 1.
    pub fn materialize_to_regular(&mut self) {
        self.major += 1;
        self.minors = [1; MINORS];
        self.cow_src = None;
    }

    /// Resets after a region re-encryption: bump major, minors to 1.
    pub fn reencrypt_epoch(&mut self) {
        self.major += 1;
        let is_cow = self.is_cow();
        for m in &mut self.minors {
            // Uncopied CoW lines keep their reserved 0 marker.
            if *m != 0 || !is_cow {
                *m = 1;
            }
        }
    }

    /// Serializes to the 64-byte wire format.
    ///
    /// The major (and flag bit) land as one little-endian u64; minors
    /// pack eight at a time through u64 shifts (8 × 7 bits = 56 bits =
    /// 7 bytes for regular minors, 8 × 6 bits = 48 bits = 6 bytes for
    /// CoW minors), branch-free per group. The wire format is
    /// LSB-first within each byte — exactly the order a little-endian
    /// u64 store produces — and the tests check every layout against a
    /// bit-by-bit model of it.
    ///
    /// # Panics
    ///
    /// Panics if the block is not representable: a CoW block under
    /// [`CounterEncoding::Classic`], a minor or major exceeding the
    /// encoding's ceiling.
    pub fn encode(&self, encoding: CounterEncoding) -> [u8; 64] {
        let mut buf = [0u8; 64];
        match encoding {
            CounterEncoding::Classic => {
                assert!(
                    !self.is_cow(),
                    "classic encoding has no in-band CoW fields (use the supplementary table)"
                );
                buf[..8].copy_from_slice(&self.major.to_le_bytes());
                pack_minors7(&mut buf, &self.minors, "classic minor is 7-bit");
            }
            CounterEncoding::Resized => {
                assert!(self.major <= encoding.major_max(), "resized major is 63-bit");
                match self.cow_src {
                    None => {
                        buf[..8].copy_from_slice(&(self.major << 1).to_le_bytes());
                        pack_minors7(&mut buf, &self.minors, "regular minor is 7-bit");
                    }
                    Some(src) => {
                        buf[..8].copy_from_slice(&((self.major << 1) | 1).to_le_bytes());
                        pack_minors6(&mut buf, &self.minors);
                        buf[56..64].copy_from_slice(&src.to_le_bytes());
                    }
                }
            }
        }
        buf
    }

    /// Deserializes from the 64-byte wire format (see
    /// [`CounterBlock::encode`]).
    pub fn decode(bytes: &[u8; 64], encoding: CounterEncoding) -> Self {
        let word0 = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
        match encoding {
            CounterEncoding::Classic => {
                Self { major: word0, minors: unpack_minors7(bytes), cow_src: None }
            }
            CounterEncoding::Resized => {
                let major = word0 >> 1;
                if word0 & 1 == 0 {
                    Self { major, minors: unpack_minors7(bytes), cow_src: None }
                } else {
                    let src = u64::from_le_bytes(bytes[56..64].try_into().expect("8 bytes"));
                    Self { major, minors: unpack_minors6(bytes), cow_src: Some(src) }
                }
            }
        }
    }
}

/// Packs 64 seven-bit minors into bytes 8..64: each group of eight
/// minors is exactly 56 bits, built in one u64 and stored as seven
/// little-endian bytes.
fn pack_minors7(buf: &mut [u8; 64], minors: &[u8; MINORS], ceiling_msg: &str) {
    for g in 0..8 {
        let mut w = 0u64;
        for j in 0..8 {
            let m = minors[8 * g + j];
            assert!(m <= 127, "{}", ceiling_msg);
            w |= (m as u64) << (7 * j);
        }
        buf[8 + 7 * g..8 + 7 * g + 7].copy_from_slice(&w.to_le_bytes()[..7]);
    }
}

/// Packs 64 six-bit CoW minors into bytes 8..56: each group of eight
/// minors is 48 bits, stored as six little-endian bytes.
fn pack_minors6(buf: &mut [u8; 64], minors: &[u8; MINORS]) {
    for g in 0..8 {
        let mut w = 0u64;
        for j in 0..8 {
            let m = minors[8 * g + j];
            assert!(m <= 63, "CoW minor is 6-bit");
            w |= (m as u64) << (6 * j);
        }
        buf[8 + 6 * g..8 + 6 * g + 6].copy_from_slice(&w.to_le_bytes()[..6]);
    }
}

/// Inverse of [`pack_minors7`].
fn unpack_minors7(bytes: &[u8; 64]) -> [u8; MINORS] {
    let mut minors = [0u8; MINORS];
    for g in 0..8 {
        let mut word = [0u8; 8];
        word[..7].copy_from_slice(&bytes[8 + 7 * g..8 + 7 * g + 7]);
        let w = u64::from_le_bytes(word);
        for j in 0..8 {
            minors[8 * g + j] = ((w >> (7 * j)) & 0x7f) as u8;
        }
    }
    minors
}

/// Inverse of [`pack_minors6`].
fn unpack_minors6(bytes: &[u8; 64]) -> [u8; MINORS] {
    let mut minors = [0u8; MINORS];
    for g in 0..8 {
        let mut word = [0u8; 8];
        word[..6].copy_from_slice(&bytes[8 + 6 * g..8 + 6 * g + 6]);
        let w = u64::from_le_bytes(word);
        for j in 0..8 {
            minors[8 * g + j] = ((w >> (6 * j)) & 0x3f) as u8;
        }
    }
    minors
}

/// The bit-by-bit codec the word-level [`CounterBlock::encode`] and
/// [`CounterBlock::decode`] are checked against: every field written
/// and read one bit at a time, straight from the layout diagrams.
/// Test-only.
#[cfg(test)]
mod bit_model {
    use super::{CounterBlock, CounterEncoding, MINORS};

    /// Bit-by-bit encoder (same panics as [`CounterBlock::encode`]).
    pub(super) fn encode(b: &CounterBlock, encoding: CounterEncoding) -> [u8; 64] {
        let mut buf = [0u8; 64];
        match encoding {
            CounterEncoding::Classic => {
                assert!(
                    !b.is_cow(),
                    "classic encoding has no in-band CoW fields (use the supplementary table)"
                );
                write_bits(&mut buf, 0, 64, b.major);
                for (i, &m) in b.minors.iter().enumerate() {
                    assert!(m <= 127, "classic minor is 7-bit");
                    write_bits(&mut buf, 64 + 7 * i, 7, m as u64);
                }
            }
            CounterEncoding::Resized => {
                assert!(b.major <= encoding.major_max(), "resized major is 63-bit");
                match b.cow_src {
                    None => {
                        write_bits(&mut buf, 0, 1, 0);
                        write_bits(&mut buf, 1, 63, b.major);
                        for (i, &m) in b.minors.iter().enumerate() {
                            assert!(m <= 127, "regular minor is 7-bit");
                            write_bits(&mut buf, 64 + 7 * i, 7, m as u64);
                        }
                    }
                    Some(src) => {
                        write_bits(&mut buf, 0, 1, 1);
                        write_bits(&mut buf, 1, 63, b.major);
                        for (i, &m) in b.minors.iter().enumerate() {
                            assert!(m <= 63, "CoW minor is 6-bit");
                            write_bits(&mut buf, 64 + 6 * i, 6, m as u64);
                        }
                        write_bits(&mut buf, 64 + 6 * MINORS, 64, src);
                    }
                }
            }
        }
        buf
    }

    /// Bit-by-bit decoder.
    pub(super) fn decode(bytes: &[u8; 64], encoding: CounterEncoding) -> CounterBlock {
        let minors = |width: usize| {
            let mut minors = [0u8; MINORS];
            for (i, m) in minors.iter_mut().enumerate() {
                *m = read_bits(bytes, 64 + width * i, width) as u8;
            }
            minors
        };
        match encoding {
            CounterEncoding::Classic => {
                CounterBlock { major: read_bits(bytes, 0, 64), minors: minors(7), cow_src: None }
            }
            CounterEncoding::Resized => {
                let major = read_bits(bytes, 1, 63);
                if read_bits(bytes, 0, 1) == 0 {
                    CounterBlock { major, minors: minors(7), cow_src: None }
                } else {
                    let src = read_bits(bytes, 64 + 6 * MINORS, 64);
                    CounterBlock { major, minors: minors(6), cow_src: Some(src) }
                }
            }
        }
    }

    /// Reads `len` (≤ 64) bits starting at absolute bit `start`
    /// (LSB-first within each byte).
    pub(super) fn read_bits(buf: &[u8; 64], start: usize, len: usize) -> u64 {
        debug_assert!(len <= 64 && start + len <= 512);
        let mut out = 0u64;
        for i in 0..len {
            let bit = start + i;
            if buf[bit / 8] >> (bit % 8) & 1 == 1 {
                out |= 1 << i;
            }
        }
        out
    }

    /// Writes `len` (≤ 64) bits of `val` starting at absolute bit
    /// `start`.
    pub(super) fn write_bits(buf: &mut [u8; 64], start: usize, len: usize, val: u64) {
        debug_assert!(len <= 64 && start + len <= 512);
        debug_assert!(len == 64 || val < (1u64 << len), "value does not fit field");
        for i in 0..len {
            let bit = start + i;
            if val >> i & 1 == 1 {
                buf[bit / 8] |= 1 << (bit % 8);
            } else {
                buf[bit / 8] &= !(1 << (bit % 8));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::bit_model::{read_bits, write_bits};
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn classic_roundtrip() {
        let mut b = CounterBlock::fresh_regular(1);
        b.major = 0xDEAD_BEEF_CAFE_F00D;
        b.minors[0] = 127;
        b.minors[63] = 99;
        let bytes = b.encode(CounterEncoding::Classic);
        assert_eq!(CounterBlock::decode(&bytes, CounterEncoding::Classic), b);
    }

    #[test]
    fn resized_regular_roundtrip() {
        let mut b = CounterBlock::fresh_regular(3);
        b.major = (1 << 63) - 1;
        b.minors[17] = 127;
        let bytes = b.encode(CounterEncoding::Resized);
        let back = CounterBlock::decode(&bytes, CounterEncoding::Resized);
        assert_eq!(back, b);
        assert!(!back.is_cow());
    }

    #[test]
    fn resized_cow_roundtrip() {
        let mut b = CounterBlock::fresh_cow(0x0123_4567_89AB_CDEF);
        b.minors[5] = 63;
        b.major = 42;
        let bytes = b.encode(CounterEncoding::Resized);
        let back = CounterBlock::decode(&bytes, CounterEncoding::Resized);
        assert_eq!(back, b);
        assert_eq!(back.cow_source(), Some(0x0123_4567_89AB_CDEF));
        assert!(back.is_line_uncopied(4));
        assert!(!back.is_line_uncopied(5));
    }

    #[test]
    fn layouts_occupy_full_block() {
        // The flag bit flips the interpretation of every other field:
        // a CoW block and a regular block with identical counters must
        // serialize differently.
        let cow = CounterBlock::fresh_cow(9).encode(CounterEncoding::Resized);
        let reg = CounterBlock::fresh_regular(0).encode(CounterEncoding::Resized);
        assert_ne!(cow, reg);
        assert_eq!(cow[0] & 1, 1, "CoW flag is bit 0");
        assert_eq!(reg[0] & 1, 0);
    }

    #[test]
    #[should_panic(expected = "classic encoding has no in-band CoW fields")]
    fn classic_cannot_encode_cow() {
        CounterBlock::fresh_cow(1).encode(CounterEncoding::Classic);
    }

    #[test]
    #[should_panic(expected = "CoW minor is 6-bit")]
    fn resized_cow_minor_ceiling_enforced() {
        let mut b = CounterBlock::fresh_cow(1);
        b.minors[0] = 64;
        b.encode(CounterEncoding::Resized);
    }

    #[test]
    fn increment_and_overflow() {
        let mut b = CounterBlock::fresh_cow(1);
        for expected in 1..=63u8 {
            assert_eq!(b.increment_minor(7, CounterEncoding::Resized), Ok(expected));
        }
        assert_eq!(b.increment_minor(7, CounterEncoding::Resized), Err(MinorOverflow { line: 7 }));
        // Classic minors go to 127.
        let mut r = CounterBlock::fresh_regular(1);
        for _ in 0..126 {
            r.increment_minor(0, CounterEncoding::Classic).unwrap();
        }
        assert!(r.increment_minor(0, CounterEncoding::Classic).is_err());
    }

    #[test]
    fn materialize_clears_cow_state() {
        let mut b = CounterBlock::fresh_cow(5);
        b.minors[3] = 2;
        b.materialize_to_regular();
        assert!(!b.is_cow());
        assert_eq!(b.major, 2);
        assert_eq!(b.minors, [1; MINORS]);
        assert_eq!(b.uncopied_lines(), 0);
    }

    #[test]
    fn reencrypt_preserves_uncopied_markers() {
        let mut b = CounterBlock::fresh_cow(5);
        b.minors[0] = 63;
        b.minors[1] = 10;
        b.reencrypt_epoch();
        assert_eq!(b.major, 2);
        assert_eq!(b.minors[0], 1);
        assert_eq!(b.minors[1], 1);
        assert_eq!(b.minors[2], 0, "uncopied marker must survive re-encryption");
        assert!(b.is_line_uncopied(2));
    }

    #[test]
    fn uncopied_count() {
        let mut b = CounterBlock::fresh_cow(1);
        assert_eq!(b.uncopied_lines(), 64);
        b.minors[0] = 1;
        b.minors[1] = 1;
        assert_eq!(b.uncopied_lines(), 62);
        assert_eq!(CounterBlock::fresh_regular(0).uncopied_lines(), 0);
    }

    #[test]
    fn bit_helpers() {
        let mut buf = [0u8; 64];
        write_bits(&mut buf, 3, 13, 0x1ABC & 0x1FFF);
        assert_eq!(read_bits(&buf, 3, 13), 0x1ABC & 0x1FFF);
        write_bits(&mut buf, 448, 64, u64::MAX);
        assert_eq!(read_bits(&buf, 448, 64), u64::MAX);
        // Overwrite with zeros clears.
        write_bits(&mut buf, 448, 64, 0);
        assert_eq!(read_bits(&buf, 448, 64), 0);
    }

    proptest! {
        #[test]
        fn prop_classic_roundtrip(major in any::<u64>(),
                                  minors in prop::array::uniform32(0u8..=127)) {
            let mut b = CounterBlock::fresh_regular(0);
            b.major = major;
            for (i, m) in minors.iter().enumerate() {
                b.minors[i * 2] = *m;
            }
            let bytes = b.encode(CounterEncoding::Classic);
            prop_assert_eq!(CounterBlock::decode(&bytes, CounterEncoding::Classic), b);
        }

        #[test]
        fn prop_resized_cow_roundtrip(major in 0u64..(1 << 63),
                                      src in any::<u64>(),
                                      minors in prop::array::uniform32(0u8..=63)) {
            let mut b = CounterBlock::fresh_cow(src);
            b.major = major;
            for (i, m) in minors.iter().enumerate() {
                b.minors[i * 2 + 1] = *m;
            }
            let bytes = b.encode(CounterEncoding::Resized);
            prop_assert_eq!(CounterBlock::decode(&bytes, CounterEncoding::Resized), b);
        }

        #[test]
        fn prop_bits_roundtrip(start in 0usize..448, len in 1usize..=64, val in any::<u64>()) {
            prop_assume!(start + len <= 512);
            let masked = if len == 64 { val } else { val & ((1u64 << len) - 1) };
            let mut buf = [0xA5u8; 64];
            write_bits(&mut buf, start, len, masked);
            prop_assert_eq!(read_bits(&buf, start, len), masked);
        }
    }

    /// Checks one block against the bit-by-bit model under one
    /// encoding: the wire bytes must be byte-identical, and both
    /// decoders must return the block.
    fn assert_codecs_agree(b: &CounterBlock, encoding: CounterEncoding) {
        let word = b.encode(encoding);
        assert_eq!(word, bit_model::encode(b, encoding), "codecs disagree ({encoding:?})");
        assert_eq!(&CounterBlock::decode(&word, encoding), b);
        assert_eq!(&bit_model::decode(&word, encoding), b);
    }

    // The word codec must be byte-identical to the bit-by-bit model for
    // every encoding.
    proptest! {
        /// Solution-2 layout (7-bit minors), classic encoding.
        #[test]
        fn prop_word_codec_matches_bit_model_classic(
            major in any::<u64>(),
            lo in prop::array::uniform32(0u8..=127),
            hi in prop::array::uniform32(0u8..=127),
        ) {
            let mut b = CounterBlock::fresh_regular(0);
            b.major = major;
            b.minors[..32].copy_from_slice(&lo);
            b.minors[32..].copy_from_slice(&hi);
            assert_codecs_agree(&b, CounterEncoding::Classic);
        }

        /// Solution-2 layout (flag = 0, 7-bit minors), resized encoding.
        #[test]
        fn prop_word_codec_matches_bit_model_resized_regular(
            major in 0u64..(1 << 63),
            lo in prop::array::uniform32(0u8..=127),
            hi in prop::array::uniform32(0u8..=127),
        ) {
            let mut b = CounterBlock::fresh_regular(0);
            b.major = major;
            b.minors[..32].copy_from_slice(&lo);
            b.minors[32..].copy_from_slice(&hi);
            assert_codecs_agree(&b, CounterEncoding::Resized);
        }

        /// Solution-1 layout (flag = 1, 6-bit minors + source address).
        #[test]
        fn prop_word_codec_matches_bit_model_resized_cow(
            major in 0u64..(1 << 63),
            src in any::<u64>(),
            lo in prop::array::uniform32(0u8..=63),
            hi in prop::array::uniform32(0u8..=63),
        ) {
            let mut b = CounterBlock::fresh_cow(src);
            b.major = major;
            b.minors[..32].copy_from_slice(&lo);
            b.minors[32..].copy_from_slice(&hi);
            assert_codecs_agree(&b, CounterEncoding::Resized);
        }
    }

    #[test]
    fn word_codec_matches_bit_model_edge_cases() {
        // All-zero minors: the freshly-CoW'd "no line copied yet"
        // block, plus its regular twin.
        assert_codecs_agree(&CounterBlock::fresh_cow(0), CounterEncoding::Resized);
        assert_codecs_agree(&CounterBlock::fresh_cow(u64::MAX), CounterEncoding::Resized);
        let mut zero = CounterBlock::fresh_regular(0);
        zero.minors = [0; MINORS];
        assert_codecs_agree(&zero, CounterEncoding::Classic);
        assert_codecs_agree(&zero, CounterEncoding::Resized);

        // Saturated minors at each encoding's ceiling (the overflow
        // boundary increment_minor stops at).
        let mut sat = CounterBlock::fresh_regular(0);
        sat.major = u64::MAX;
        sat.minors = [127; MINORS];
        assert_codecs_agree(&sat, CounterEncoding::Classic);
        sat.major = (1 << 63) - 1;
        assert_codecs_agree(&sat, CounterEncoding::Resized);
        let mut cow_sat = CounterBlock::fresh_cow(u64::MAX);
        cow_sat.major = (1 << 63) - 1;
        cow_sat.minors = [63; MINORS];
        assert_codecs_agree(&cow_sat, CounterEncoding::Resized);
    }

    #[test]
    #[should_panic(expected = "CoW minor is 6-bit")]
    fn cow_minor_ceiling_enforced_in_the_last_group() {
        let mut b = CounterBlock::fresh_cow(1);
        b.minors[63] = 64;
        b.encode(CounterEncoding::Resized);
    }
}
