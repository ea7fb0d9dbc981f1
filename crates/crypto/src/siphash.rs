//! A from-scratch SipHash-2-4 keyed hash.
//!
//! The Bonsai Merkle Tree (paper §II-B, [`crate::merkle`]) needs a keyed
//! short-input MAC over counter blocks. Production designs use
//! HMAC/GMAC engines; for the reproduction a 64-bit SipHash-2-4 keeps
//! tree nodes compact while still making *undetected* tampering require
//! forging a keyed hash. The implementation follows the reference
//! description by Aumasson & Bernstein and is validated against the
//! reference test vector.
//!
//! The per-line data MACs (ciphertext ‖ line address ‖ major ‖ minor,
//! [`DATA_MAC_INPUT_BYTES`] bytes) are also computed eight at a time:
//! [`SipHash24::data_macs8`] hashes a [`DataMacBatch`] in one call, on
//! AVX-512 (one 64-bit lane per input) when the CPU has it and through
//! the scalar [`SipHash24::hash`] otherwise. Both give the same tags.

/// Bytes of one data-MAC input: a 64-byte ciphertext line, then the
/// line address, the major counter (8 bytes each, little-endian) and
/// the minor counter (1 byte).
pub const DATA_MAC_INPUT_BYTES: usize = 81;

/// SipHash message words of one data-MAC input: ten full 8-byte blocks
/// and the final block (the minor counter plus the length tag).
const DATA_MAC_WORDS: usize = 11;

/// Lanes of a [`DataMacBatch`].
pub const DATA_MAC_LANES: usize = 8;

/// Below this many inputs the AVX-512 kernel (whose cost does not
/// depend on how many lanes are used) loses to the scalar hash.
const SIMD_MIN_LANES: usize = 2;

const IV: [u64; 4] =
    [0x736f6d6570736575, 0x646f72616e646f6d, 0x6c7967656e657261, 0x7465646279746573];

/// Up to [`DATA_MAC_LANES`] data-MAC inputs, stored word-major so that
/// the vector kernel loads one message word of every lane at once.
///
/// # Examples
///
/// ```
/// use lelantus_crypto::siphash::{DataMacBatch, SipHash24};
///
/// let mac = SipHash24::new(1, 2);
/// let mut batch = DataMacBatch::default();
/// let lane = batch.push(&[7; 64], 0x4000, 3, 1);
/// let tags = mac.data_macs8(&batch);
/// assert_eq!(tags[lane], mac.hash(&batch.input(lane)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct DataMacBatch {
    /// `words[w][lane]` is message word `w` of input `lane`.
    words: [[u64; DATA_MAC_LANES]; DATA_MAC_WORDS],
    len: usize,
}

impl DataMacBatch {
    /// Number of inputs held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no input is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when all [`DATA_MAC_LANES`] lanes are taken.
    pub fn is_full(&self) -> bool {
        self.len == DATA_MAC_LANES
    }

    /// Drops every input.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Appends the input `cipher ‖ line_addr ‖ major ‖ minor` and
    /// returns its lane.
    ///
    /// # Panics
    ///
    /// Panics if the batch is full.
    pub fn push(&mut self, cipher: &[u8; 64], line_addr: u64, major: u64, minor: u8) -> usize {
        let lane = self.len;
        assert!(lane < DATA_MAC_LANES, "data-MAC batch is full");
        for (w, chunk) in cipher.chunks_exact(8).enumerate() {
            self.words[w][lane] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        self.words[8][lane] = line_addr;
        self.words[9][lane] = major;
        self.words[10][lane] = u64::from(minor) | (DATA_MAC_INPUT_BYTES as u64) << 56;
        self.len += 1;
        lane
    }

    /// The [`DATA_MAC_INPUT_BYTES`]-byte input held in `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` holds no input.
    pub fn input(&self, lane: usize) -> [u8; DATA_MAC_INPUT_BYTES] {
        assert!(lane < self.len, "lane {lane} of a {}-input batch", self.len);
        let mut buf = [0u8; DATA_MAC_INPUT_BYTES];
        for (w, chunk) in buf.chunks_exact_mut(8).enumerate() {
            chunk.copy_from_slice(&self.words[w][lane].to_le_bytes());
        }
        buf[DATA_MAC_INPUT_BYTES - 1] = self.words[10][lane] as u8;
        buf
    }
}

/// SipHash-2-4 keyed hasher over byte slices.
///
/// # Examples
///
/// ```
/// use lelantus_crypto::SipHash24;
///
/// let mac = SipHash24::new(0xdead_beef, 0xfeed_face);
/// let a = mac.hash(b"counter block A");
/// let b = mac.hash(b"counter block B");
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SipHash24 {
    k0: u64,
    k1: u64,
    /// Whether [`SipHash24::data_macs8`] runs the AVX-512 kernel:
    /// decided once, here, by CPU detection.
    avx512: bool,
}

impl SipHash24 {
    /// Creates a hasher keyed with the 128-bit key `(k0, k1)`.
    pub fn new(k0: u64, k1: u64) -> Self {
        Self { k0, k1, avx512: avx512::available() }
    }

    /// The initial state `(v0, v1, v2, v3)` for this key.
    fn init(&self) -> [u64; 4] {
        [IV[0] ^ self.k0, IV[1] ^ self.k1, IV[2] ^ self.k0, IV[3] ^ self.k1]
    }
    /// Hashes `data`, returning the 64-bit tag.
    pub fn hash(&self, data: &[u8]) -> u64 {
        let [mut v0, mut v1, mut v2, mut v3] = self.init();

        let mut chunks = data.chunks_exact(8);
        for chunk in &mut chunks {
            let m = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            v3 ^= m;
            for _ in 0..2 {
                sipround(&mut v0, &mut v1, &mut v2, &mut v3);
            }
            v0 ^= m;
        }

        // Final block: remaining bytes plus the length in the top byte.
        let rem = chunks.remainder();
        let mut last = (data.len() as u64) << 56;
        for (i, &b) in rem.iter().enumerate() {
            last |= (b as u64) << (8 * i);
        }
        v3 ^= last;
        for _ in 0..2 {
            sipround(&mut v0, &mut v1, &mut v2, &mut v3);
        }
        v0 ^= last;

        v2 ^= 0xff;
        for _ in 0..4 {
            sipround(&mut v0, &mut v1, &mut v2, &mut v3);
        }
        v0 ^ v1 ^ v2 ^ v3
    }

    /// Hashes a sequence of 64-bit words (convenience for tree nodes).
    ///
    /// Produces exactly the tag of [`SipHash24::hash`] over the words'
    /// little-endian concatenation, but feeds each word straight into
    /// the compression rounds — no intermediate byte buffer, so the
    /// Merkle tree's per-node hashing does not allocate. Because the
    /// input length is a whole number of 8-byte blocks, the final
    /// block is just the length tag.
    pub fn hash_words(&self, words: &[u64]) -> u64 {
        let [mut v0, mut v1, mut v2, mut v3] = self.init();

        for &m in words {
            v3 ^= m;
            for _ in 0..2 {
                sipround(&mut v0, &mut v1, &mut v2, &mut v3);
            }
            v0 ^= m;
        }

        let last = (words.len() as u64 * 8) << 56;
        v3 ^= last;
        for _ in 0..2 {
            sipround(&mut v0, &mut v1, &mut v2, &mut v3);
        }
        v0 ^= last;

        v2 ^= 0xff;
        for _ in 0..4 {
            sipround(&mut v0, &mut v1, &mut v2, &mut v3);
        }
        v0 ^ v1 ^ v2 ^ v3
    }

    /// The data-MAC tag of every input in `batch`, by lane: each equals
    /// [`SipHash24::hash`] of [`DataMacBatch::input`]. Lanes past
    /// `batch.len()` hold unspecified values.
    pub fn data_macs8(&self, batch: &DataMacBatch) -> [u64; DATA_MAC_LANES] {
        if batch.len() >= SIMD_MIN_LANES {
            if let Some(tags) = self.data_macs8_avx512(batch) {
                return tags;
            }
        }
        self.data_macs8_scalar(batch)
    }

    /// The portable path of [`SipHash24::data_macs8`]: the scalar hash
    /// of each input in turn. Lanes past `batch.len()` are 0.
    pub fn data_macs8_scalar(&self, batch: &DataMacBatch) -> [u64; DATA_MAC_LANES] {
        let mut tags = [0; DATA_MAC_LANES];
        for (lane, tag) in tags.iter_mut().enumerate().take(batch.len()) {
            *tag = self.hash(&batch.input(lane));
        }
        tags
    }

    /// The AVX-512 path of [`SipHash24::data_macs8`]: all eight lanes in
    /// one pass, one lane per input. `None` when the CPU lacks
    /// `avx512f`.
    pub fn data_macs8_avx512(&self, batch: &DataMacBatch) -> Option<[u64; DATA_MAC_LANES]> {
        if !self.avx512 {
            return None;
        }
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: `avx512` is set only when the running CPU reports
            // `avx512f` (see `avx512::available`).
            Some(unsafe { avx512::macs8(self.init(), &batch.words) })
        }
        #[cfg(not(target_arch = "x86_64"))]
        unreachable!("avx512 is never detected off x86-64")
    }
}

#[inline]
fn sipround(v0: &mut u64, v1: &mut u64, v2: &mut u64, v3: &mut u64) {
    *v0 = v0.wrapping_add(*v1);
    *v1 = v1.rotate_left(13);
    *v1 ^= *v0;
    *v0 = v0.rotate_left(32);
    *v2 = v2.wrapping_add(*v3);
    *v3 = v3.rotate_left(16);
    *v3 ^= *v2;
    *v0 = v0.wrapping_add(*v3);
    *v3 = v3.rotate_left(21);
    *v3 ^= *v0;
    *v2 = v2.wrapping_add(*v1);
    *v1 = v1.rotate_left(17);
    *v1 ^= *v2;
    *v2 = v2.rotate_left(32);
}

/// The 8-lane SipHash-2-4 kernel: lane `l` of each 512-bit register is
/// the state word of input `l`.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{DATA_MAC_LANES, DATA_MAC_WORDS};
    use std::arch::x86_64::{
        __m512i, _mm512_add_epi64, _mm512_loadu_si512, _mm512_rol_epi64, _mm512_set1_epi64,
        _mm512_storeu_si512, _mm512_xor_si512,
    };

    /// Whether the running CPU supports the AVX-512 foundation
    /// instructions.
    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("avx512f")
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn sipround(v: &mut [__m512i; 4]) {
        v[0] = _mm512_add_epi64(v[0], v[1]);
        v[1] = _mm512_rol_epi64::<13>(v[1]);
        v[1] = _mm512_xor_si512(v[1], v[0]);
        v[0] = _mm512_rol_epi64::<32>(v[0]);
        v[2] = _mm512_add_epi64(v[2], v[3]);
        v[3] = _mm512_rol_epi64::<16>(v[3]);
        v[3] = _mm512_xor_si512(v[3], v[2]);
        v[0] = _mm512_add_epi64(v[0], v[3]);
        v[3] = _mm512_rol_epi64::<21>(v[3]);
        v[3] = _mm512_xor_si512(v[3], v[0]);
        v[2] = _mm512_add_epi64(v[2], v[1]);
        v[1] = _mm512_rol_epi64::<17>(v[1]);
        v[1] = _mm512_xor_si512(v[1], v[2]);
        v[2] = _mm512_rol_epi64::<32>(v[2]);
    }

    /// Runs SipHash-2-4 from state `init` over the eight lanes of
    /// `words` (word-major, see `DataMacBatch`).
    ///
    /// # Safety
    ///
    /// The CPU must support the `avx512f` target feature.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn macs8(
        init: [u64; 4],
        words: &[[u64; DATA_MAC_LANES]; DATA_MAC_WORDS],
    ) -> [u64; DATA_MAC_LANES] {
        let mut v = init.map(|x| _mm512_set1_epi64(x as i64));
        for w in words {
            // SAFETY: `w` is 64 readable bytes; loadu needs no alignment.
            let m = unsafe { _mm512_loadu_si512(w.as_ptr().cast()) };
            v[3] = _mm512_xor_si512(v[3], m);
            sipround(&mut v);
            sipround(&mut v);
            v[0] = _mm512_xor_si512(v[0], m);
        }
        v[2] = _mm512_xor_si512(v[2], _mm512_set1_epi64(0xff));
        for _ in 0..4 {
            sipround(&mut v);
        }
        let tags = _mm512_xor_si512(_mm512_xor_si512(v[0], v[1]), _mm512_xor_si512(v[2], v[3]));
        let mut out = [0u64; DATA_MAC_LANES];
        // SAFETY: `out` is 64 writable bytes; storeu needs no alignment.
        unsafe { _mm512_storeu_si512(out.as_mut_ptr().cast(), tags) };
        out
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod avx512 {
    pub(super) fn available() -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The controller's data-MAC input, built byte by byte.
    fn mac_input(cipher: &[u8; 64], addr: u64, major: u64, minor: u8) -> Vec<u8> {
        let mut buf = cipher.to_vec();
        buf.extend_from_slice(&addr.to_le_bytes());
        buf.extend_from_slice(&major.to_le_bytes());
        buf.push(minor);
        assert_eq!(buf.len(), DATA_MAC_INPUT_BYTES);
        buf
    }

    /// Checks every path of the 8-lane kernel against the scalar hash
    /// of each input's bytes, for the batch holding the first `n` of
    /// `inputs`. The AVX-512 path is called directly, so it is checked
    /// whenever the CPU has it, and the scalar path always is.
    fn check_batch(mac: &SipHash24, inputs: &[([u8; 64], u64, u64, u8)]) {
        let mut batch = DataMacBatch::default();
        for (i, (cipher, addr, major, minor)) in inputs.iter().enumerate() {
            assert_eq!(batch.push(cipher, *addr, *major, *minor), i);
        }
        let n = inputs.len();
        let want: Vec<u64> =
            inputs.iter().map(|(c, a, j, m)| mac.hash(&mac_input(c, *a, *j, *m))).collect();
        for (lane, (c, a, j, m)) in inputs.iter().enumerate() {
            assert_eq!(batch.input(lane).to_vec(), mac_input(c, *a, *j, *m), "lane {lane}");
        }
        assert_eq!(mac.data_macs8(&batch)[..n], want[..], "dispatched, {n} lanes");
        assert_eq!(mac.data_macs8_scalar(&batch)[..n], want[..], "scalar, {n} lanes");
        if let Some(tags) = mac.data_macs8_avx512(&batch) {
            assert_eq!(tags[..n], want[..], "avx512, {n} lanes");
        }
    }

    #[test]
    fn data_macs8_match_scalar_hash_at_extreme_counters() {
        let mac = SipHash24::new(0x6d61_635f_6b65_7931, 0x6d61_635f_6b65_7932);
        let edges = [0, 1, 255, u64::MAX];
        let mut inputs = Vec::new();
        for (i, &major) in edges.iter().enumerate() {
            for (j, minor) in [0u8, 1, 127, 255].into_iter().enumerate() {
                let cipher = [(i * 4 + j) as u8; 64];
                inputs.push((cipher, edges[(i + j) % 4], major, minor));
            }
        }
        // Every partial batch size, at every offset into the inputs.
        for n in 1..=DATA_MAC_LANES {
            for chunk in inputs.chunks(n) {
                check_batch(&mac, chunk);
            }
        }
    }

    #[test]
    fn data_mac_batch_reuses_lanes_after_clear() {
        let mac = SipHash24::new(3, 4);
        let mut batch = DataMacBatch::default();
        for l in 0..DATA_MAC_LANES {
            batch.push(&[0xFF; 64], u64::MAX, u64::MAX, 255 - l as u8);
        }
        assert!(batch.is_full());
        batch.clear();
        assert!(batch.is_empty());
        batch.push(&[1; 64], 64, 2, 3);
        assert_eq!(mac.data_macs8(&batch)[0], mac.hash(&mac_input(&[1; 64], 64, 2, 3)));
    }

    #[test]
    #[should_panic(expected = "batch is full")]
    fn data_mac_batch_rejects_a_ninth_input() {
        let mut batch = DataMacBatch::default();
        for _ in 0..=DATA_MAC_LANES {
            batch.push(&[0; 64], 0, 0, 0);
        }
    }

    proptest! {
        // Random lines, addresses and counters, in batches of 1..=8.
        #[test]
        fn prop_data_macs8_match_scalar_hash(
            k0 in any::<u64>(),
            k1 in any::<u64>(),
            bytes in prop::collection::vec(any::<u8>(), 512..513),
            words in prop::collection::vec(any::<u64>(), 16..17),
            minors in prop::collection::vec(any::<u8>(), 8..9),
            n in 1usize..9,
        ) {
            let mac = SipHash24::new(k0, k1);
            let inputs: Vec<_> = (0..n)
                .map(|l| {
                    let cipher: [u8; 64] = bytes[l * 64..(l + 1) * 64].try_into().unwrap();
                    (cipher, words[2 * l], words[2 * l + 1], minors[l])
                })
                .collect();
            check_batch(&mac, &inputs);
        }
    }

    #[test]
    fn reference_vector() {
        // Reference test vector from the SipHash paper: key =
        // 000102...0f, message = 00 01 02 ... 0e (15 bytes).
        let k0 = u64::from_le_bytes([0, 1, 2, 3, 4, 5, 6, 7]);
        let k1 = u64::from_le_bytes([8, 9, 10, 11, 12, 13, 14, 15]);
        let msg: Vec<u8> = (0u8..15).collect();
        let tag = SipHash24::new(k0, k1).hash(&msg);
        assert_eq!(tag, 0xa129ca6149be45e5);
    }

    #[test]
    fn empty_input_is_stable_and_keyed() {
        let a = SipHash24::new(1, 2).hash(b"");
        let b = SipHash24::new(1, 2).hash(b"");
        let c = SipHash24::new(3, 4).hash(b"");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn single_bit_flip_changes_tag() {
        let mac = SipHash24::new(11, 22);
        let mut data = [0u8; 64];
        let base = mac.hash(&data);
        for byte in 0..64 {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(mac.hash(&data), base, "flip at {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn hash_words_matches_bytes() {
        let mac = SipHash24::new(5, 6);
        // Every length a tree node can have (1..=ARITY children), plus
        // the empty input, must match the byte-wise hash exactly.
        let words: Vec<u64> = (0..9).map(|i| 0x1122334455667788u64.wrapping_mul(i + 1)).collect();
        for n in 0..=words.len() {
            let mut bytes = Vec::new();
            for w in &words[..n] {
                bytes.extend_from_slice(&w.to_le_bytes());
            }
            assert_eq!(mac.hash_words(&words[..n]), mac.hash(&bytes), "n = {n}");
        }
    }
}
