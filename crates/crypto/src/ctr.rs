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
            return Self { aes: AesBackend::Ni(aes) };
        }
        Self::new_table(key)
    }

    /// Creates an engine on the portable T-table cipher, even when
    /// hardware AES is available. Used by the micro-benchmarks to
    /// attribute the software-path speedup.
    pub fn new_table(key: [u8; 16]) -> Self {
        Self { aes: AesBackend::Table(Aes128::new(key)) }
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
    /// `IvSpec { line_addr: base_addr + i·64, major, minor }`: on
    /// hardware AES a batched sweep measured no faster than these
    /// per-line calls, so there is only the one pad path.
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
        (0..count as u64)
            .map(|i| {
                self.one_time_pad(IvSpec {
                    line_addr: base_addr + i * LINE_BYTES as u64,
                    major,
                    minor,
                })
            })
            .collect()
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

    proptest! {
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
