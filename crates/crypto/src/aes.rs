//! A from-scratch AES-128 block cipher (FIPS-197).
//!
//! The Lelantus paper assumes a hardware AES engine with a 24-cycle
//! latency whose output pad is XOR-ed with data (§II-B, Figure 1). The
//! *timing* of that engine is modelled by the memory controller; this
//! module supplies the *function* so that the simulated NVM genuinely
//! holds ciphertext and so decryption with the wrong counter visibly
//! produces garbage — which is exactly the failure mode Lelantus' CoW
//! redirection must avoid by fetching the source page's counters.
//!
//! Two implementations live here; each is the only one `CtrEngine`
//! can use on some supported CPU:
//!
//! * [`ni::Aes128Ni`] — the paper's assumption made literal: hardware
//!   AES via the x86-64 `aesenc` instructions, used for pad generation
//!   whenever the host CPU supports it (runtime-detected).
//! * [`Aes128`] — the portable path: a precomputed 32-bit T-table
//!   encryptor (four 1 KB tables generated at compile time, rounds
//!   fully unrolled). Every simulated 64-byte line access costs four
//!   block encryptions, so pad generation is the single hottest
//!   function in the simulator.
//!
//! Both are encrypt-only: counter mode XORs with *encrypted* pads in
//! both directions. The unit tests check them against a byte-oriented
//! S-box/xtime model of FIPS-197 (encrypt and inverse), on the
//! standard's appendix vectors and on random keys and blocks.
//!
//! Neither implementation is side-channel resistant; the simulator
//! never handles real secrets.

/// The AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Round constants for the AES-128 key schedule.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Multiply by `x` (i.e. `{02}`) in GF(2^8) with the AES polynomial.
#[inline]
const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (if b & 0x80 != 0 { 0x1b } else { 0 })
}

/// Expands `key` into the 11 × 16-byte round-key schedule (FIPS-197
/// §5.2), shared by both implementations.
fn expand_key_bytes(key: [u8; 16]) -> [[u8; 16]; 11] {
    let mut w = [[0u8; 4]; 44];
    for (i, chunk) in key.chunks_exact(4).enumerate() {
        w[i].copy_from_slice(chunk);
    }
    for i in 4..44 {
        let mut temp = w[i - 1];
        if i % 4 == 0 {
            temp.rotate_left(1);
            for byte in &mut temp {
                *byte = SBOX[*byte as usize];
            }
            temp[0] ^= RCON[i / 4 - 1];
        }
        for j in 0..4 {
            w[i][j] = w[i - 4][j] ^ temp[j];
        }
    }
    let mut round_keys = [[0u8; 16]; 11];
    for (r, rk) in round_keys.iter_mut().enumerate() {
        for c in 0..4 {
            rk[c * 4..c * 4 + 4].copy_from_slice(&w[r * 4 + c]);
        }
    }
    round_keys
}

// ---------------------------------------------------------------------
// T-table fast path
// ---------------------------------------------------------------------

/// `TE[0]` maps an S-box input to its MixColumns column contribution
/// `(2·s, s, s, 3·s)` packed big-endian; `TE[1..=3]` are byte rotations
/// of it, so one full AES round is 16 table loads and 16 XORs.
static TE: [[u32; 256]; 4] = {
    let mut te = [[0u32; 256]; 4];
    let mut x = 0;
    while x < 256 {
        let s = SBOX[x];
        let s2 = xtime(s);
        let s3 = s2 ^ s;
        let w = ((s2 as u32) << 24) | ((s as u32) << 16) | ((s as u32) << 8) | (s3 as u32);
        te[0][x] = w;
        te[1][x] = w.rotate_right(8);
        te[2][x] = w.rotate_right(16);
        te[3][x] = w.rotate_right(24);
        x += 1;
    }
    te
};

/// An AES-128 encryptor on the compile-time T-tables, with a
/// pre-expanded key schedule.
///
/// # Examples
///
/// ```
/// use lelantus_crypto::Aes128;
///
/// let aes = Aes128::new([7u8; 16]);
/// let ct = aes.encrypt_block([0u8; 16]);
/// assert_ne!(ct, [0u8; 16]);
/// assert_eq!(aes.encrypt_blocks4([[0u8; 16]; 4]), [ct; 4]);
/// ```
#[derive(Clone)]
pub struct Aes128 {
    /// Round keys as 44 big-endian words (4 per round), the layout the
    /// T-table rounds consume directly.
    enc: [u32; 44],
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Aes128").field("round_keys", &"<redacted>").finish()
    }
}

impl Aes128 {
    /// Expands `key` into the full round-key schedule.
    pub fn new(key: [u8; 16]) -> Self {
        let mut enc = [0u32; 44];
        for (r, rk) in expand_key_bytes(key).iter().enumerate() {
            for c in 0..4 {
                enc[r * 4 + c] =
                    u32::from_be_bytes([rk[c * 4], rk[c * 4 + 1], rk[c * 4 + 2], rk[c * 4 + 3]]);
            }
        }
        Self { enc }
    }

    /// Encrypts one 16-byte block.
    #[inline]
    pub fn encrypt_block(&self, block: [u8; 16]) -> [u8; 16] {
        let rk = &self.enc;
        let mut s0 = u32::from_be_bytes([block[0], block[1], block[2], block[3]]) ^ rk[0];
        let mut s1 = u32::from_be_bytes([block[4], block[5], block[6], block[7]]) ^ rk[1];
        let mut s2 = u32::from_be_bytes([block[8], block[9], block[10], block[11]]) ^ rk[2];
        let mut s3 = u32::from_be_bytes([block[12], block[13], block[14], block[15]]) ^ rk[3];

        // Rounds 1..=9: SubBytes+ShiftRows+MixColumns+AddRoundKey fused
        // into four table lookups per output word.
        macro_rules! full_round {
            ($r:expr) => {{
                let t0 = TE[0][(s0 >> 24) as usize]
                    ^ TE[1][((s1 >> 16) & 0xff) as usize]
                    ^ TE[2][((s2 >> 8) & 0xff) as usize]
                    ^ TE[3][(s3 & 0xff) as usize]
                    ^ rk[$r * 4];
                let t1 = TE[0][(s1 >> 24) as usize]
                    ^ TE[1][((s2 >> 16) & 0xff) as usize]
                    ^ TE[2][((s3 >> 8) & 0xff) as usize]
                    ^ TE[3][(s0 & 0xff) as usize]
                    ^ rk[$r * 4 + 1];
                let t2 = TE[0][(s2 >> 24) as usize]
                    ^ TE[1][((s3 >> 16) & 0xff) as usize]
                    ^ TE[2][((s0 >> 8) & 0xff) as usize]
                    ^ TE[3][(s1 & 0xff) as usize]
                    ^ rk[$r * 4 + 2];
                let t3 = TE[0][(s3 >> 24) as usize]
                    ^ TE[1][((s0 >> 16) & 0xff) as usize]
                    ^ TE[2][((s1 >> 8) & 0xff) as usize]
                    ^ TE[3][(s2 & 0xff) as usize]
                    ^ rk[$r * 4 + 3];
                (s0, s1, s2, s3) = (t0, t1, t2, t3);
            }};
        }
        full_round!(1);
        full_round!(2);
        full_round!(3);
        full_round!(4);
        full_round!(5);
        full_round!(6);
        full_round!(7);
        full_round!(8);
        full_round!(9);

        // Final round: SubBytes+ShiftRows+AddRoundKey (no MixColumns).
        let sb = |b: u32| SBOX[b as usize] as u32;
        let t0 = (sb(s0 >> 24) << 24)
            | (sb((s1 >> 16) & 0xff) << 16)
            | (sb((s2 >> 8) & 0xff) << 8)
            | sb(s3 & 0xff);
        let t1 = (sb(s1 >> 24) << 24)
            | (sb((s2 >> 16) & 0xff) << 16)
            | (sb((s3 >> 8) & 0xff) << 8)
            | sb(s0 & 0xff);
        let t2 = (sb(s2 >> 24) << 24)
            | (sb((s3 >> 16) & 0xff) << 16)
            | (sb((s0 >> 8) & 0xff) << 8)
            | sb(s1 & 0xff);
        let t3 = (sb(s3 >> 24) << 24)
            | (sb((s0 >> 16) & 0xff) << 16)
            | (sb((s1 >> 8) & 0xff) << 8)
            | sb(s2 & 0xff);

        let mut out = [0u8; 16];
        out[0..4].copy_from_slice(&(t0 ^ rk[40]).to_be_bytes());
        out[4..8].copy_from_slice(&(t1 ^ rk[41]).to_be_bytes());
        out[8..12].copy_from_slice(&(t2 ^ rk[42]).to_be_bytes());
        out[12..16].copy_from_slice(&(t3 ^ rk[43]).to_be_bytes());
        out
    }

    /// Encrypts four independent 16-byte blocks in one interleaved
    /// pass.
    ///
    /// A 64-byte line's one-time pad is four independent AES
    /// invocations (one per 16-byte pad block); running their rounds
    /// interleaved lets the four dependency chains overlap in the
    /// pipeline instead of serializing.
    /// Bit-identical to four [`encrypt_block`](Self::encrypt_block)
    /// calls.
    pub fn encrypt_blocks4(&self, blocks: [[u8; 16]; 4]) -> [[u8; 16]; 4] {
        let rk = &self.enc;
        let load = |block: &[u8; 16], w: usize| {
            u32::from_be_bytes([block[w * 4], block[w * 4 + 1], block[w * 4 + 2], block[w * 4 + 3]])
                ^ rk[w]
        };
        // Four independent states, two u32 columns named per macro use;
        // rounds fully unrolled so every round-key index is a constant.
        let mut a =
            [load(&blocks[0], 0), load(&blocks[0], 1), load(&blocks[0], 2), load(&blocks[0], 3)];
        let mut b =
            [load(&blocks[1], 0), load(&blocks[1], 1), load(&blocks[1], 2), load(&blocks[1], 3)];
        let mut c =
            [load(&blocks[2], 0), load(&blocks[2], 1), load(&blocks[2], 2), load(&blocks[2], 3)];
        let mut d =
            [load(&blocks[3], 0), load(&blocks[3], 1), load(&blocks[3], 2), load(&blocks[3], 3)];

        macro_rules! round_one {
            ($s:ident, $r:expr) => {{
                let [s0, s1, s2, s3] = $s;
                $s = [
                    TE[0][(s0 >> 24) as usize]
                        ^ TE[1][((s1 >> 16) & 0xff) as usize]
                        ^ TE[2][((s2 >> 8) & 0xff) as usize]
                        ^ TE[3][(s3 & 0xff) as usize]
                        ^ rk[$r * 4],
                    TE[0][(s1 >> 24) as usize]
                        ^ TE[1][((s2 >> 16) & 0xff) as usize]
                        ^ TE[2][((s3 >> 8) & 0xff) as usize]
                        ^ TE[3][(s0 & 0xff) as usize]
                        ^ rk[$r * 4 + 1],
                    TE[0][(s2 >> 24) as usize]
                        ^ TE[1][((s3 >> 16) & 0xff) as usize]
                        ^ TE[2][((s0 >> 8) & 0xff) as usize]
                        ^ TE[3][(s1 & 0xff) as usize]
                        ^ rk[$r * 4 + 2],
                    TE[0][(s3 >> 24) as usize]
                        ^ TE[1][((s0 >> 16) & 0xff) as usize]
                        ^ TE[2][((s1 >> 8) & 0xff) as usize]
                        ^ TE[3][(s2 & 0xff) as usize]
                        ^ rk[$r * 4 + 3],
                ];
            }};
        }
        macro_rules! round_all {
            ($($r:expr),*) => {$(
                round_one!(a, $r);
                round_one!(b, $r);
                round_one!(c, $r);
                round_one!(d, $r);
            )*};
        }
        round_all!(1, 2, 3, 4, 5, 6, 7, 8, 9);

        let sb = |v: u32| SBOX[v as usize] as u32;
        let mut out = [[0u8; 16]; 4];
        for (o, st) in out.iter_mut().zip([a, b, c, d]) {
            let [s0, s1, s2, s3] = st;
            let t = [
                (sb(s0 >> 24) << 24)
                    | (sb((s1 >> 16) & 0xff) << 16)
                    | (sb((s2 >> 8) & 0xff) << 8)
                    | sb(s3 & 0xff),
                (sb(s1 >> 24) << 24)
                    | (sb((s2 >> 16) & 0xff) << 16)
                    | (sb((s3 >> 8) & 0xff) << 8)
                    | sb(s0 & 0xff),
                (sb(s2 >> 24) << 24)
                    | (sb((s3 >> 16) & 0xff) << 16)
                    | (sb((s0 >> 8) & 0xff) << 8)
                    | sb(s1 & 0xff),
                (sb(s3 >> 24) << 24)
                    | (sb((s0 >> 16) & 0xff) << 16)
                    | (sb((s1 >> 8) & 0xff) << 8)
                    | sb(s2 & 0xff),
            ];
            for w in 0..4 {
                o[w * 4..w * 4 + 4].copy_from_slice(&(t[w] ^ rk[40 + w]).to_be_bytes());
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Hardware AES (AES-NI)
// ---------------------------------------------------------------------

/// Hardware AES-128 encryption on the x86-64 `AES-NI` instructions.
///
/// The paper's memory controller *contains* a hardware AES engine
/// (§II-B); when the host CPU has one too, `CtrEngine` runs the pad
/// generation on it. Encrypt-only, like the T-table path — counter
/// mode XORs with encrypted pads in both directions. Bit-identical to
/// [`Aes128`](super::Aes128): it is the same cipher, checked against
/// the byte-oriented model in the tests.
#[cfg(target_arch = "x86_64")]
pub mod ni {
    use super::expand_key_bytes;
    use std::arch::x86_64::{
        __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_loadu_si128, _mm_storeu_si128,
        _mm_xor_si128,
    };

    /// Whether the running CPU supports the AES instructions.
    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("aes")
    }

    /// Loads 16 bytes into a vector register (unaligned).
    #[inline]
    fn load16(bytes: &[u8; 16]) -> __m128i {
        // SAFETY: the reference guarantees 16 readable bytes; loadu has
        // no alignment requirement, and SSE2 is baseline on x86-64.
        unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
    }

    /// AES-128 encryption through `aesenc`/`aesenclast`.
    #[derive(Clone)]
    pub struct Aes128Ni {
        /// Round keys in byte order; AES-NI consumes the FIPS-197 byte
        /// layout directly (no endianness massaging).
        rk: [[u8; 16]; 11],
    }

    impl std::fmt::Debug for Aes128Ni {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            // Never print key material.
            f.debug_struct("Aes128Ni").field("round_keys", &"<redacted>").finish()
        }
    }

    impl Aes128Ni {
        /// Expands `key`, or returns `None` when the CPU lacks AES-NI.
        pub fn try_new(key: [u8; 16]) -> Option<Self> {
            available().then(|| Self { rk: expand_key_bytes(key) })
        }

        /// The expanded key schedule, in FIPS-197 byte order.
        pub(crate) fn round_keys(&self) -> &[[u8; 16]; 11] {
            &self.rk
        }

        /// Encrypts one 16-byte block.
        #[inline]
        pub fn encrypt_block(&self, block: [u8; 16]) -> [u8; 16] {
            // SAFETY: construction via `try_new` proved the feature.
            unsafe { self.encrypt_block_aesni(block) }
        }

        /// Encrypts four independent blocks with their rounds
        /// interleaved; `aesenc` pipelines one round per cycle, so the
        /// four dependency chains overlap almost perfectly.
        #[inline]
        pub fn encrypt_blocks4(&self, blocks: [[u8; 16]; 4]) -> [[u8; 16]; 4] {
            // SAFETY: construction via `try_new` proved the feature.
            unsafe { self.encrypt_blocks4_aesni(blocks) }
        }

        /// # Safety
        /// The CPU must support the `aes` target feature.
        #[target_feature(enable = "aes")]
        unsafe fn encrypt_block_aesni(&self, block: [u8; 16]) -> [u8; 16] {
            let mut s = _mm_xor_si128(load16(&block), load16(&self.rk[0]));
            for rk in &self.rk[1..10] {
                s = _mm_aesenc_si128(s, load16(rk));
            }
            s = _mm_aesenclast_si128(s, load16(&self.rk[10]));
            let mut out = [0u8; 16];
            _mm_storeu_si128(out.as_mut_ptr().cast(), s);
            out
        }

        /// # Safety
        /// The CPU must support the `aes` target feature.
        #[target_feature(enable = "aes")]
        unsafe fn encrypt_blocks4_aesni(&self, blocks: [[u8; 16]; 4]) -> [[u8; 16]; 4] {
            let k0 = load16(&self.rk[0]);
            let mut a = _mm_xor_si128(load16(&blocks[0]), k0);
            let mut b = _mm_xor_si128(load16(&blocks[1]), k0);
            let mut c = _mm_xor_si128(load16(&blocks[2]), k0);
            let mut d = _mm_xor_si128(load16(&blocks[3]), k0);
            for rk in &self.rk[1..10] {
                let k = load16(rk);
                a = _mm_aesenc_si128(a, k);
                b = _mm_aesenc_si128(b, k);
                c = _mm_aesenc_si128(c, k);
                d = _mm_aesenc_si128(d, k);
            }
            let k10 = load16(&self.rk[10]);
            let mut out = [[0u8; 16]; 4];
            _mm_storeu_si128(out[0].as_mut_ptr().cast(), _mm_aesenclast_si128(a, k10));
            _mm_storeu_si128(out[1].as_mut_ptr().cast(), _mm_aesenclast_si128(b, k10));
            _mm_storeu_si128(out[2].as_mut_ptr().cast(), _mm_aesenclast_si128(c, k10));
            _mm_storeu_si128(out[3].as_mut_ptr().cast(), _mm_aesenclast_si128(d, k10));
            out
        }
    }
}

/// The byte-oriented AES-128 model the production ciphers are checked
/// against: S-box lookups plus xtime-based MixColumns, exactly as
/// FIPS-197 writes it down, with the inverse cipher so round trips can
/// be checked too. Not fast; test-only.
#[cfg(test)]
pub(crate) mod model {
    use super::{expand_key_bytes, xtime, SBOX};

    /// The inverse AES S-box, inverted from [`SBOX`] at compile time.
    pub(super) const INV_SBOX: [u8; 256] = {
        let mut inv = [0u8; 256];
        let mut i = 0;
        while i < 256 {
            inv[SBOX[i] as usize] = i as u8;
            i += 1;
        }
        inv
    };

    /// Multiply two field elements in GF(2^8).
    pub(super) const fn gmul(mut a: u8, mut b: u8) -> u8 {
        let mut acc = 0u8;
        while b != 0 {
            if b & 1 != 0 {
                acc ^= a;
            }
            a = xtime(a);
            b >>= 1;
        }
        acc
    }

    /// Byte-oriented AES-128 with a pre-expanded key schedule.
    pub(crate) struct ByteAes128 {
        /// 11 round keys of 16 bytes each.
        round_keys: [[u8; 16]; 11],
    }

    impl ByteAes128 {
        /// Expands `key` into the full round-key schedule.
        pub(crate) fn new(key: [u8; 16]) -> Self {
            Self { round_keys: expand_key_bytes(key) }
        }

        /// Encrypts one 16-byte block.
        pub(crate) fn encrypt_block(&self, block: [u8; 16]) -> [u8; 16] {
            let mut state = block;
            add_round_key(&mut state, &self.round_keys[0]);
            for round in 1..10 {
                sub_bytes(&mut state);
                shift_rows(&mut state);
                mix_columns(&mut state);
                add_round_key(&mut state, &self.round_keys[round]);
            }
            sub_bytes(&mut state);
            shift_rows(&mut state);
            add_round_key(&mut state, &self.round_keys[10]);
            state
        }

        /// Decrypts one 16-byte block.
        pub(crate) fn decrypt_block(&self, block: [u8; 16]) -> [u8; 16] {
            let mut state = block;
            add_round_key(&mut state, &self.round_keys[10]);
            for round in (1..10).rev() {
                inv_shift_rows(&mut state);
                inv_sub_bytes(&mut state);
                add_round_key(&mut state, &self.round_keys[round]);
                inv_mix_columns(&mut state);
            }
            inv_shift_rows(&mut state);
            inv_sub_bytes(&mut state);
            add_round_key(&mut state, &self.round_keys[0]);
            state
        }
    }

    // The state is stored column-major as in FIPS-197: state[r + 4c].

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for (s, k) in state.iter_mut().zip(rk.iter()) {
            *s ^= k;
        }
    }

    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    fn inv_sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = INV_SBOX[*b as usize];
        }
    }

    fn shift_rows(state: &mut [u8; 16]) {
        // Row r is bytes state[r], state[r+4], state[r+8], state[r+12].
        for r in 1..4 {
            let row = [state[r], state[r + 4], state[r + 8], state[r + 12]];
            for c in 0..4 {
                state[r + 4 * c] = row[(c + r) % 4];
            }
        }
    }

    fn inv_shift_rows(state: &mut [u8; 16]) {
        for r in 1..4 {
            let row = [state[r], state[r + 4], state[r + 8], state[r + 12]];
            for c in 0..4 {
                state[r + 4 * c] = row[(c + 4 - r) % 4];
            }
        }
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [state[4 * c], state[4 * c + 1], state[4 * c + 2], state[4 * c + 3]];
            state[4 * c] = xtime(col[0]) ^ xtime(col[1]) ^ col[1] ^ col[2] ^ col[3];
            state[4 * c + 1] = col[0] ^ xtime(col[1]) ^ xtime(col[2]) ^ col[2] ^ col[3];
            state[4 * c + 2] = col[0] ^ col[1] ^ xtime(col[2]) ^ xtime(col[3]) ^ col[3];
            state[4 * c + 3] = xtime(col[0]) ^ col[0] ^ col[1] ^ col[2] ^ xtime(col[3]);
        }
    }

    fn inv_mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [state[4 * c], state[4 * c + 1], state[4 * c + 2], state[4 * c + 3]];
            state[4 * c] =
                gmul(col[0], 0x0e) ^ gmul(col[1], 0x0b) ^ gmul(col[2], 0x0d) ^ gmul(col[3], 0x09);
            state[4 * c + 1] =
                gmul(col[0], 0x09) ^ gmul(col[1], 0x0e) ^ gmul(col[2], 0x0b) ^ gmul(col[3], 0x0d);
            state[4 * c + 2] =
                gmul(col[0], 0x0d) ^ gmul(col[1], 0x09) ^ gmul(col[2], 0x0e) ^ gmul(col[3], 0x0b);
            state[4 * c + 3] =
                gmul(col[0], 0x0b) ^ gmul(col[1], 0x0d) ^ gmul(col[2], 0x09) ^ gmul(col[3], 0x0e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::model::{gmul, ByteAes128, INV_SBOX};
    use super::*;
    use proptest::prelude::*;

    fn hex16(s: &str) -> [u8; 16] {
        let mut out = [0u8; 16];
        for i in 0..16 {
            out[i] = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
        }
        out
    }

    /// Hardware AES for `key` where the CPU has it.
    #[cfg(target_arch = "x86_64")]
    fn hardware(key: [u8; 16]) -> Option<ni::Aes128Ni> {
        ni::Aes128Ni::try_new(key)
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn hardware(_key: [u8; 16]) -> Option<Aes128> {
        None
    }

    #[test]
    fn aes_implementations_agree_on_fips197_vectors() {
        // FIPS-197 Appendix B, then Appendix C.1.
        for (key, pt, ct) in [
            (
                "2b7e151628aed2a6abf7158809cf4f3c",
                "3243f6a8885a308d313198a2e0370734",
                "3925841d02dc09fbdc118597196a0b32",
            ),
            (
                "000102030405060708090a0b0c0d0e0f",
                "00112233445566778899aabbccddeeff",
                "69c4e0d86a7b0430d8cdb78070b4c55a",
            ),
        ] {
            let (key, pt, ct) = (hex16(key), hex16(pt), hex16(ct));
            let model = ByteAes128::new(key);
            assert_eq!(model.encrypt_block(pt), ct);
            assert_eq!(model.decrypt_block(ct), pt);
            assert_eq!(Aes128::new(key).encrypt_block(pt), ct);
            if let Some(hw) = hardware(key) {
                assert_eq!(hw.encrypt_block(pt), ct);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn prop_aes_implementations_agree(key in prop::array::uniform16(any::<u8>()),
                                          block in prop::array::uniform16(any::<u8>())) {
            let model = ByteAes128::new(key);
            let ct = model.encrypt_block(block);
            prop_assert_eq!(model.decrypt_block(ct), block);
            prop_assert_eq!(Aes128::new(key).encrypt_block(block), ct);
            if let Some(hw) = hardware(key) {
                prop_assert_eq!(hw.encrypt_block(block), ct);
            }
        }

        #[test]
        fn prop_interleaved_blocks_match_single_calls(key in prop::array::uniform16(any::<u8>()),
                                                      flat in prop::array::uniform32(any::<u8>()),
                                                      salt in any::<u8>()) {
            let aes = Aes128::new(key);
            let mut blocks = [[0u8; 16]; 4];
            for (i, b) in blocks.iter_mut().enumerate() {
                b.copy_from_slice(&flat[(i % 2) * 16..(i % 2) * 16 + 16]);
                b[0] ^= salt.wrapping_add(i as u8);
            }
            let batched = aes.encrypt_blocks4(blocks);
            for (i, block) in blocks.iter().enumerate() {
                prop_assert_eq!(batched[i], aes.encrypt_block(*block));
            }
            if let Some(hw) = hardware(key) {
                prop_assert_eq!(hw.encrypt_blocks4(blocks), batched);
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn hardware_aes_debug_does_not_leak_key() {
        if let Some(hw) = ni::Aes128Ni::try_new([0x42; 16]) {
            let dbg = format!("{hw:?}");
            assert!(dbg.contains("redacted"));
            assert!(!dbg.contains("42"));
        }
    }

    #[test]
    fn different_keys_differ() {
        let a = Aes128::new([1; 16]);
        let b = Aes128::new([2; 16]);
        let block = [0u8; 16];
        assert_ne!(a.encrypt_block(block), b.encrypt_block(block));
    }

    #[test]
    fn debug_does_not_leak_key() {
        let aes = Aes128::new([7; 16]);
        let s = format!("{aes:?}");
        assert!(s.contains("redacted"));
        assert!(!s.contains('7'));
    }

    #[test]
    fn gmul_matches_xtime() {
        for b in 0..=255u8 {
            assert_eq!(gmul(b, 2), xtime(b));
            assert_eq!(gmul(b, 1), b);
            assert_eq!(gmul(b, 0), 0);
        }
    }

    #[test]
    fn inv_sbox_is_the_inverse() {
        for b in 0..=255u8 {
            assert_eq!(INV_SBOX[SBOX[b as usize] as usize], b);
            assert_eq!(SBOX[INV_SBOX[b as usize] as usize], b);
        }
    }
}
