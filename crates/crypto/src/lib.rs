//! Cryptographic substrate for the Lelantus secure-NVM reproduction.
//!
//! Secure NVM controllers pair counter-mode encryption with integrity
//! protection (ISCA 2020 Lelantus paper, §II-B). This crate provides the
//! primitives that the simulated memory controller uses *functionally*
//! (the data stored in the simulated NVM really is ciphertext, and
//! tampering really is detected), independent of any timing model:
//!
//! * [`aes`] — a from-scratch AES-128 block cipher (FIPS-197),
//! * [`ctr`] — counter-mode one-time-pad construction with the paper's
//!   initialization vector layout (padding ‖ address ‖ major ‖ minor),
//! * [`siphash`] — a from-scratch SipHash-2-4 keyed hash,
//! * [`merkle`] — a Bonsai-style Merkle tree over counter blocks with a
//!   node cache.
//!
//! # Examples
//!
//! Encrypt and decrypt one 64-byte cacheline the way the secure memory
//! controller does:
//!
//! ```
//! use lelantus_crypto::ctr::{CtrEngine, IvSpec};
//!
//! let engine = CtrEngine::new([0x42; 16]);
//! let iv = IvSpec { line_addr: 0x1000, major: 7, minor: 3 };
//! let plain = [0xABu8; 64];
//! let cipher = engine.encrypt_line(&plain, iv);
//! assert_ne!(cipher, plain);
//! assert_eq!(engine.decrypt_line(&cipher, iv), plain);
//! ```

pub mod aes;
pub mod ctr;
pub mod merkle;
pub mod siphash;

pub use aes::Aes128;
pub use ctr::{CtrEngine, IvSpec};
pub use merkle::{MerkleTree, TamperError};
pub use siphash::SipHash24;
