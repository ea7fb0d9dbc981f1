//! Counter-mode encryption of 64-byte cachelines.
//!
//! Following the paper's Figure 1, the initialization vector (IV) for a
//! cacheline is built from *padding ‖ line address ‖ major counter ‖
//! minor counter*. The IV is encrypted with AES-128 to produce a
//! one-time pad (OTP) which is XOR-ed with the plaintext/ciphertext.
//!
//! * **Spatial uniqueness** comes from the line address inside the IV —
//!   two lines holding identical data at different addresses encrypt to
//!   different ciphertexts.
//! * **Temporal uniqueness** comes from the (major, minor) counter pair
//!   that the controller increments on every write.
//!
//! A 64-byte line needs four 16-byte pads; a 2-bit block index inside
//! the padding differentiates them.
//!
//! A pad depends only on its [`IvSpec`], so a caller that knows the IVs
//! of many lines ahead of their data (a bulk page operation) makes all
//! their pads in one [`CtrEngine::pads`] call: eight lines per pass on
//! CPUs with `vaes` and `avx512f`, one line at a time elsewhere.

#[cfg(target_arch = "x86_64")]
use crate::aes::ni;
use crate::aes::Aes128;

/// The cacheline size used throughout the reproduction (bytes).
///
/// Re-exported from `lelantus-types` so the whole workspace shares one
/// definition.
pub use lelantus_types::LINE_BYTES;

/// Everything that parameterizes the one-time pad of a single line.
///
/// The same `IvSpec` must be presented for decryption that was used for
/// encryption; Lelantus' CoW redirection works precisely by rebuilding
/// the *source page's* `IvSpec` for not-yet-copied lines (paper §III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IvSpec {
    /// Physical address of the 64-byte line (byte address, line-aligned).
    pub line_addr: u64,
    /// Major counter shared by the 4 KB region (paper: 64-bit, or 63-bit
    /// in the resized-counter CoW layout).
    pub major: u64,
    /// Per-line minor counter (7-bit regular / 6-bit CoW layout).
    pub minor: u8,
}

/// A counter-mode encryption engine for 64-byte cachelines.
///
/// # Examples
///
/// ```
/// use lelantus_crypto::ctr::{CtrEngine, IvSpec};
///
/// let engine = CtrEngine::new([9; 16]);
/// let iv = IvSpec { line_addr: 0x40, major: 1, minor: 1 };
/// let line = [7u8; 64];
/// let ct = engine.encrypt_line(&line, iv);
/// // Decrypting with the wrong counter yields garbage, not the data:
/// let wrong = IvSpec { minor: 2, ..iv };
/// assert_ne!(engine.decrypt_line(&ct, wrong), line);
/// assert_eq!(engine.decrypt_line(&ct, iv), line);
/// ```
#[derive(Debug, Clone)]
pub struct CtrEngine {
    aes: AesBackend,
    /// Whether [`CtrEngine::pads`] runs the VAES kernel: the backend is
    /// hardware AES and the CPU has `vaes` and `avx512f`.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    vaes: bool,
}

/// Which AES implementation a [`CtrEngine`] runs on.
///
/// Hardware AES when the CPU has it (the paper assumes a hardware AES
/// engine in the controller) and the T-table cipher otherwise. Both
/// compute the same function.
#[derive(Debug, Clone)]
enum AesBackend {
    #[cfg(target_arch = "x86_64")]
    Ni(ni::Aes128Ni),
    Table(Aes128),
}

impl AesBackend {
    #[inline]
    fn encrypt_blocks4(&self, blocks: [[u8; 16]; 4]) -> [[u8; 16]; 4] {
        match self {
            #[cfg(target_arch = "x86_64")]
            AesBackend::Ni(aes) => aes.encrypt_blocks4(blocks),
            AesBackend::Table(aes) => aes.encrypt_blocks4(blocks),
        }
    }
}

impl CtrEngine {
    /// Creates an engine keyed with `key`: hardware AES when the CPU
    /// supports it, the T-table cipher otherwise.
    pub fn new(key: [u8; 16]) -> Self {
        #[cfg(target_arch = "x86_64")]
        if let Some(aes) = ni::Aes128Ni::try_new(key) {
            return Self { aes: AesBackend::Ni(aes), vaes: vaes::available() };
        }
        Self::new_table(key)
    }

    /// Creates an engine on the portable T-table cipher, even when
    /// hardware AES is available. Used by the micro-benchmarks to
    /// attribute the software-path speedup.
    pub fn new_table(key: [u8; 16]) -> Self {
        Self { aes: AesBackend::Table(Aes128::new(key)), vaes: false }
    }

    /// Builds the 16-byte IV for pad block `block_idx` (0..4) of a line.
    fn iv_bytes(iv: IvSpec, block_idx: u8) -> [u8; 16] {
        debug_assert!(block_idx < 4, "a 64B line has four 16B pad blocks");
        let mut bytes = [0u8; 16];
        // padding: constant domain tag plus the 2-bit block index.
        bytes[0] = 0x4C; // 'L' — domain separation for line encryption
        bytes[1] = block_idx;
        // line address (48 bits are plenty; we store all 64).
        bytes[2..10].copy_from_slice(&iv.line_addr.to_le_bytes());
        // major counter (low 40 bits) and minor counter.
        let major = iv.major.to_le_bytes();
        bytes[10..15].copy_from_slice(&major[..5]);
        bytes[15] = iv.minor;
        bytes
    }

    /// Generates the full 64-byte one-time pad for `iv`.
    ///
    /// Exposed so the memory controller can model pad *pre-generation*
    /// (the paper overlaps pad generation with the data fetch).
    pub fn one_time_pad(&self, iv: IvSpec) -> [u8; LINE_BYTES] {
        // The four pad blocks are independent AES invocations; the
        // interleaved 4-block encryptor overlaps their rounds.
        let cts = self.aes.encrypt_blocks4([
            Self::iv_bytes(iv, 0),
            Self::iv_bytes(iv, 1),
            Self::iv_bytes(iv, 2),
            Self::iv_bytes(iv, 3),
        ]);
        let mut pad = [0u8; LINE_BYTES];
        for (blk, ct) in cts.iter().enumerate() {
            pad[blk * 16..(blk + 1) * 16].copy_from_slice(ct);
        }
        pad
    }

    /// Encrypts a 64-byte line under `iv`.
    pub fn encrypt_line(&self, plaintext: &[u8; LINE_BYTES], iv: IvSpec) -> [u8; LINE_BYTES] {
        self.xor_pad(plaintext, iv)
    }

    /// Decrypts a 64-byte line under `iv`.
    pub fn decrypt_line(&self, ciphertext: &[u8; LINE_BYTES], iv: IvSpec) -> [u8; LINE_BYTES] {
        self.xor_pad(ciphertext, iv)
    }

    fn xor_pad(&self, data: &[u8; LINE_BYTES], iv: IvSpec) -> [u8; LINE_BYTES] {
        xor_line(data, &self.one_time_pad(iv))
    }

    /// Generates the one-time pads for `count` consecutive lines
    /// starting at `base_addr`, all sharing the same `(major, minor)`
    /// counter pair.
    ///
    /// Materializing or re-encrypting a 4 KB region stamps every
    /// destination line with `minor = 1` under one major counter (paper
    /// §III-D/§III-E). Pad `i` is `one_time_pad` of
    /// `IvSpec { line_addr: base_addr + i·64, major, minor }`, made by
    /// one [`CtrEngine::pads`] call, so a page costs what the batch
    /// kernel costs.
    ///
    /// # Panics
    ///
    /// Panics if `base_addr` is not 64-byte aligned.
    pub fn page_pads(
        &self,
        base_addr: u64,
        major: u64,
        minor: u8,
        count: usize,
    ) -> Vec<[u8; LINE_BYTES]> {
        assert_eq!(base_addr % LINE_BYTES as u64, 0, "page_pads needs a line-aligned base");
        let ivs: Vec<IvSpec> = (0..count as u64)
            .map(|i| IvSpec { line_addr: base_addr + i * LINE_BYTES as u64, major, minor })
            .collect();
        let mut pads = vec![[0; LINE_BYTES]; count];
        self.pads(&ivs, &mut pads);
        pads
    }

    /// Generates the one-time pad of every IV in `ivs` into `out`: pad
    /// `i` equals [`one_time_pad`](Self::one_time_pad)`(ivs[i])`.
    ///
    /// Runs the VAES kernel where the engine has hardware AES and the
    /// CPU has `vaes` and `avx512f`, the per-line pads otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `ivs` and `out` differ in length.
    pub fn pads(&self, ivs: &[IvSpec], out: &mut [[u8; LINE_BYTES]]) {
        if !self.pads_vaes(ivs, out) {
            self.pads_per_line(ivs, out);
        }
    }

    /// The portable path of [`CtrEngine::pads`]: one
    /// [`one_time_pad`](Self::one_time_pad) per IV.
    ///
    /// # Panics
    ///
    /// Panics if `ivs` and `out` differ in length.
    pub fn pads_per_line(&self, ivs: &[IvSpec], out: &mut [[u8; LINE_BYTES]]) {
        assert_eq!(ivs.len(), out.len(), "one pad per IV");
        for (pad, &iv) in out.iter_mut().zip(ivs) {
            *pad = self.one_time_pad(iv);
        }
    }

    /// The VAES path of [`CtrEngine::pads`]: eight lines per pass, the
    /// four pad blocks of one line in one 512-bit register. Returns
    /// false, writing nothing, when the engine is on the T-table
    /// cipher or the CPU lacks `vaes` or `avx512f`.
    ///
    /// # Panics
    ///
    /// Panics if `ivs` and `out` differ in length.
    pub fn pads_vaes(&self, ivs: &[IvSpec], out: &mut [[u8; LINE_BYTES]]) -> bool {
        assert_eq!(ivs.len(), out.len(), "one pad per IV");
        match &self.aes {
            #[cfg(target_arch = "x86_64")]
            AesBackend::Ni(aes) if self.vaes => {
                // SAFETY: `vaes` is set only when the running CPU
                // reports `vaes` and `avx512f` (see `vaes::available`).
                unsafe { vaes::pads(aes.round_keys(), ivs, out) };
                true
            }
            _ => false,
        }
    }
}

/// The multi-line pad kernel: each 512-bit register holds the four
/// 16-byte IV blocks of one line, and `vaesenc` runs a round on all
/// four at once.
#[cfg(target_arch = "x86_64")]
mod vaes {
    use super::{IvSpec, LINE_BYTES};
    use std::arch::x86_64::{
        __m512i, _mm512_aesenc_epi128, _mm512_aesenclast_epi128, _mm512_broadcast_i32x4,
        _mm512_set_epi64, _mm512_setzero_si512, _mm512_storeu_si512, _mm512_xor_si512,
        _mm_loadu_si128,
    };

    /// Whether the running CPU supports the 512-bit AES instructions.
    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("vaes")
            && std::arch::is_x86_feature_detected!("avx512f")
    }

    /// The IV of `iv`'s pad block 0 as two little-endian words, the
    /// byte layout of `CtrEngine::iv_bytes`: domain tag, block index 0
    /// and the line address's low six bytes in the low word; the
    /// address's top two bytes, the major's low five bytes and the
    /// minor in the high word. Block `b` adds `b << 8` to the low word.
    #[inline]
    fn iv_words(iv: IvSpec) -> (i64, i64) {
        let lo = 0x4C | iv.line_addr << 16;
        let hi = iv.line_addr >> 48 | (iv.major & 0xff_ffff_ffff) << 16 | (iv.minor as u64) << 56;
        (lo as i64, hi as i64)
    }

    /// Encrypts the pads of `N` lines, rounds interleaved across lines.
    #[inline]
    #[target_feature(enable = "avx512f,vaes")]
    fn pass<const N: usize>(rk: &[__m512i; 11], ivs: &[IvSpec], out: &mut [[u8; LINE_BYTES]]) {
        let mut s = [rk[0]; N];
        for (s, &iv) in s.iter_mut().zip(ivs) {
            let (lo, hi) = iv_words(iv);
            let blocks =
                _mm512_set_epi64(hi, lo | 3 << 8, hi, lo | 2 << 8, hi, lo | 1 << 8, hi, lo);
            *s = _mm512_xor_si512(blocks, rk[0]);
        }
        for &k in &rk[1..10] {
            for s in &mut s {
                *s = _mm512_aesenc_epi128(*s, k);
            }
        }
        for (pad, s) in out.iter_mut().zip(s) {
            // SAFETY: `pad` is 64 writable bytes; storeu needs no
            // alignment.
            unsafe {
                _mm512_storeu_si512(pad.as_mut_ptr().cast(), _mm512_aesenclast_epi128(s, rk[10]))
            };
        }
    }

    /// Writes the pad of `ivs[i]` to `out[i]` under the expanded key
    /// `round_keys`, eight lines per pass and the tail in passes of
    /// four, two and one.
    ///
    /// # Safety
    ///
    /// The CPU must support the `avx512f` and `vaes` target features.
    #[target_feature(enable = "avx512f,vaes")]
    pub(super) unsafe fn pads(
        round_keys: &[[u8; 16]; 11],
        ivs: &[IvSpec],
        out: &mut [[u8; LINE_BYTES]],
    ) {
        let mut rk = [_mm512_setzero_si512(); 11];
        for (k, bytes) in rk.iter_mut().zip(round_keys) {
            // SAFETY: `bytes` is 16 readable bytes; loadu needs no
            // alignment.
            *k = _mm512_broadcast_i32x4(unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) });
        }
        let mut done = 0;
        while done < ivs.len() {
            let n = match ivs.len() - done {
                8.. => 8,
                4.. => 4,
                2.. => 2,
                _ => 1,
            };
            let (ivs, out) = (&ivs[done..done + n], &mut out[done..done + n]);
            match n {
                8 => pass::<8>(&rk, ivs, out),
                4 => pass::<4>(&rk, ivs, out),
                2 => pass::<2>(&rk, ivs, out),
                _ => pass::<1>(&rk, ivs, out),
            }
            done += n;
        }
    }
}

/// XORs a 64-byte line with a one-time pad.
#[inline]
pub fn xor_line(data: &[u8; LINE_BYTES], pad: &[u8; LINE_BYTES]) -> [u8; LINE_BYTES] {
    let mut out = [0u8; LINE_BYTES];
    for i in 0..LINE_BYTES {
        out[i] = data[i] ^ pad[i];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::model::ByteAes128;
    use proptest::prelude::*;

    fn engine() -> CtrEngine {
        CtrEngine::new(*b"lelantus-key-16B")
    }

    #[test]
    fn roundtrip() {
        let e = engine();
        let iv = IvSpec { line_addr: 0x1000, major: 42, minor: 9 };
        let data = [0x5a; LINE_BYTES];
        assert_eq!(e.decrypt_line(&e.encrypt_line(&data, iv), iv), data);
    }

    #[test]
    fn spatial_uniqueness_same_data_different_address() {
        let e = engine();
        let data = [0u8; LINE_BYTES];
        let a = e.encrypt_line(&data, IvSpec { line_addr: 0x0, major: 1, minor: 1 });
        let b = e.encrypt_line(&data, IvSpec { line_addr: 0x40, major: 1, minor: 1 });
        assert_ne!(a, b, "same plaintext at different addresses must differ");
    }

    #[test]
    fn temporal_uniqueness_same_address_different_counter() {
        let e = engine();
        let data = [0u8; LINE_BYTES];
        let base = IvSpec { line_addr: 0x40, major: 1, minor: 1 };
        let a = e.encrypt_line(&data, base);
        let b = e.encrypt_line(&data, IvSpec { minor: 2, ..base });
        let c = e.encrypt_line(&data, IvSpec { major: 2, ..base });
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn pad_blocks_are_distinct() {
        let e = engine();
        let pad = e.one_time_pad(IvSpec { line_addr: 0, major: 0, minor: 0 });
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(pad[i * 16..(i + 1) * 16], pad[j * 16..(j + 1) * 16]);
            }
        }
    }

    #[test]
    fn wrong_key_fails_to_decrypt() {
        let a = CtrEngine::new([1; 16]);
        let b = CtrEngine::new([2; 16]);
        let iv = IvSpec { line_addr: 0x80, major: 3, minor: 4 };
        let data = [0xEE; LINE_BYTES];
        assert_ne!(b.decrypt_line(&a.encrypt_line(&data, iv), iv), data);
    }

    #[test]
    fn page_pads_matches_per_line_pads() {
        let e = engine();
        let base = 0x7000u64;
        let pads = e.page_pads(base, 17, 3, 64);
        assert_eq!(pads.len(), 64);
        for (i, pad) in pads.iter().enumerate() {
            let iv = IvSpec { line_addr: base + (i * LINE_BYTES) as u64, major: 17, minor: 3 };
            assert_eq!(*pad, e.one_time_pad(iv), "pad {i} diverges from the per-line path");
        }
    }

    #[test]
    #[should_panic(expected = "line-aligned")]
    fn page_pads_rejects_unaligned_base() {
        let _ = engine().page_pads(0x123, 1, 1, 4);
    }

    /// The one-time pad for `iv` computed on the byte-oriented AES
    /// model.
    fn model_pad(key: [u8; 16], iv: IvSpec) -> [u8; LINE_BYTES] {
        let model = ByteAes128::new(key);
        let mut pad = [0u8; LINE_BYTES];
        for (blk, chunk) in pad.chunks_exact_mut(16).enumerate() {
            chunk.copy_from_slice(&model.encrypt_block(CtrEngine::iv_bytes(iv, blk as u8)));
        }
        pad
    }

    #[test]
    fn all_backends_match_the_byte_model() {
        // `new` resolves to hardware AES where available, so comparing
        // it and the forced-table engine against the byte-oriented
        // model covers every backend the platform can build.
        let key = [0xAB; 16];
        for engine in [CtrEngine::new(key), CtrEngine::new_table(key)] {
            for minor in 0..8u8 {
                let iv =
                    IvSpec { line_addr: 0x40 * minor as u64, major: 100 + minor as u64, minor };
                let line = [minor.wrapping_mul(91); LINE_BYTES];
                let pad = model_pad(key, iv);
                assert_eq!(engine.one_time_pad(iv), pad);
                assert_eq!(engine.encrypt_line(&line, iv), xor_line(&line, &pad));
            }
            let pads: Vec<_> = (0..64)
                .map(|i| model_pad(key, IvSpec { line_addr: i * 64, major: 5, minor: 1 }))
                .collect();
            assert_eq!(engine.page_pads(0, 5, 1, 64), pads);
        }
    }

    /// Checks every path of [`CtrEngine::pads`] on `engine` against the
    /// byte model of each IV. The VAES path is called directly, so it is
    /// checked whenever the CPU has it, and the per-line path always is.
    fn assert_pads_match_model(engine: &CtrEngine, key: [u8; 16], ivs: &[IvSpec]) {
        let want: Vec<_> = ivs.iter().map(|&iv| model_pad(key, iv)).collect();
        let mut got = vec![[0u8; LINE_BYTES]; ivs.len()];
        engine.pads_per_line(ivs, &mut got);
        assert_eq!(got, want, "per-line path, {} lines", ivs.len());
        let mut got = vec![[0u8; LINE_BYTES]; ivs.len()];
        if engine.pads_vaes(ivs, &mut got) {
            assert_eq!(got, want, "VAES path, {} lines", ivs.len());
        } else {
            assert_eq!(got, vec![[0u8; LINE_BYTES]; ivs.len()], "a declined call writes nothing");
        }
        let mut got = vec![[0u8; LINE_BYTES]; ivs.len()];
        engine.pads(ivs, &mut got);
        assert_eq!(got, want, "dispatching path, {} lines", ivs.len());
    }

    #[test]
    fn batched_pads_match_the_per_line_path_and_the_byte_model() {
        // Every length of a partial eight-line pass up to two passes and
        // a spare, and a whole page; majors past the 40 bits that enter
        // the IV, addresses past 2^48, and minors at each edge.
        let key = [0x3C; 16];
        let majors = [0, 1, (1 << 40) - 1, 1 << 40, (1 << 40) + 7, u64::MAX];
        let addrs = [0x40, 0xdead_bec0, (1 << 48) - 64, 1 << 48, 0xabcd_ef01_2345_6780, !0x3f];
        let minors = [0u8, 63, 127, 255];
        let ivs: Vec<IvSpec> = (0..64)
            .map(|i| IvSpec {
                line_addr: addrs[i % addrs.len()] ^ ((i as u64) << 6),
                major: majors[i % majors.len()],
                minor: minors[i % minors.len()],
            })
            .collect();
        for engine in [CtrEngine::new(key), CtrEngine::new_table(key)] {
            for len in (1..=17).chain([64]) {
                assert_pads_match_model(&engine, key, &ivs[..len]);
                assert_pads_match_model(&engine, key, &ivs[64 - len..]);
            }
        }
    }

    #[test]
    fn the_table_engine_never_takes_the_vaes_path() {
        let engine = CtrEngine::new_table([1; 16]);
        let iv = IvSpec { line_addr: 0, major: 1, minor: 1 };
        assert!(!engine.pads_vaes(&[iv], &mut [[0; LINE_BYTES]]));
    }

    #[test]
    #[should_panic(expected = "one pad per IV")]
    fn pads_reject_mismatched_lengths() {
        engine().pads(&[IvSpec { line_addr: 0, major: 1, minor: 1 }], &mut []);
    }

    proptest! {
        // Random batches on both paths equal the per-line pads.
        #[test]
        fn prop_batched_pads_match_per_line_pads(key in prop::array::uniform16(any::<u8>()),
                                                 seeds in prop::collection::vec(
                                                     (any::<u64>(), any::<u64>(), any::<u8>()),
                                                     1..25)) {
            let ivs: Vec<IvSpec> = seeds
                .iter()
                .map(|&(addr, major, minor)| IvSpec { line_addr: addr & !0x3f, major, minor })
                .collect();
            for engine in [CtrEngine::new(key), CtrEngine::new_table(key)] {
                let mut got = vec![[0u8; LINE_BYTES]; ivs.len()];
                engine.pads(&ivs, &mut got);
                for (pad, &iv) in got.iter().zip(&ivs) {
                    prop_assert_eq!(*pad, engine.one_time_pad(iv));
                }
            }
        }

        // The page sweep produces exactly the per-line pads.
        #[test]
        fn prop_page_pads_match_per_line_pads(key in prop::array::uniform16(any::<u8>()),
                                              base in 0u64..1_000_000,
                                              major in any::<u64>(), minor in any::<u8>(),
                                              count in 1usize..=64) {
            let engine = CtrEngine::new(key);
            let base = base * LINE_BYTES as u64;
            let pads = engine.page_pads(base, major, minor, count);
            prop_assert_eq!(pads.len(), count);
            for (i, pad) in pads.iter().enumerate() {
                let iv = IvSpec { line_addr: base + (i * LINE_BYTES) as u64, major, minor };
                prop_assert_eq!(*pad, engine.one_time_pad(iv));
            }
        }

        #[test]
        fn prop_roundtrip(data in prop::array::uniform32(any::<u8>()),
                          addr in any::<u64>(), major in any::<u64>(), minor in any::<u8>()) {
            let e = engine();
            let mut line = [0u8; LINE_BYTES];
            line[..32].copy_from_slice(&data);
            line[32..].copy_from_slice(&data);
            let iv = IvSpec { line_addr: addr & !0x3f, major, minor };
            prop_assert_eq!(e.decrypt_line(&e.encrypt_line(&line, iv), iv), line);
        }

        #[test]
        fn prop_wrong_minor_garbles(addr in any::<u64>(), major in any::<u64>(),
                                    minor in 0u8..=254) {
            let e = engine();
            let line = [0x11u8; LINE_BYTES];
            let iv = IvSpec { line_addr: addr & !0x3f, major, minor };
            let wrong = IvSpec { minor: minor + 1, ..iv };
            prop_assert_ne!(e.decrypt_line(&e.encrypt_line(&line, iv), wrong), line);
        }
    }
}
