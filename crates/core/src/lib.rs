//! The Lelantus secure memory controller.
//!
//! This crate is the paper's primary contribution: a secure-NVM memory
//! controller whose counter-mode security metadata doubles as
//! fine-granularity copy-on-write state (ISCA 2020, §III–IV).
//!
//! The [`SecureMemoryController`] sits between the CPU cache hierarchy
//! (it implements [`lelantus_cache::LineBackend`]) and the
//! [`lelantus_nvm::NvmDevice`]. Every 64-byte line it stores is really
//! encrypted with AES counter mode; counters are integrity-protected
//! by a Bonsai Merkle Tree; and the controller exposes the paper's
//! three memory-mapped CoW commands (Table II):
//!
//! | command     | semantics                                             |
//! |-------------|-------------------------------------------------------|
//! | `page_copy` | record `dst` as a lazy copy of `src` (metadata only)  |
//! | `page_phyc` | physically copy `dst`'s still-uncopied lines, if its metadata still names `src` |
//! | `page_free` | drop `dst`'s CoW metadata; abandon pending copies     |
//!
//! Four [`SchemeKind`]s select the behaviour compared in the paper's
//! evaluation: the conventional `Baseline`, `SilentShredder` (zeroing
//! elision only), `LelantusResized` (Solution 1: the source address is
//! carried in a resized counter block) and `LelantusCow` (Solution 2:
//! a supplementary CoW-metadata table).
//!
//! # Examples
//!
//! A lazy page copy whose lines materialize on first write:
//!
//! ```
//! use lelantus_core::{ControllerConfig, SchemeKind, SecureMemoryController};
//! use lelantus_types::{Cycles, PhysAddr};
//!
//! let mut ctrl = SecureMemoryController::new(
//!     ControllerConfig::for_scheme(SchemeKind::LelantusResized));
//! let src = PhysAddr::new(0x20_0000); // outside the zero area
//! let dst = PhysAddr::new(0x30_0000);
//! ctrl.write_data_line(src, [7; 64], Cycles::ZERO);
//!
//! // Lazy copy: one metadata write instead of 64 line copies.
//! ctrl.cmd_page_copy(src, dst, Cycles::ZERO);
//! let (data, _) = ctrl.read_data_line(dst, Cycles::ZERO);
//! assert_eq!(data, [7; 64], "read redirected to the source page");
//! ```

pub mod config;
pub mod controller;
pub mod stats;

pub use config::{ControllerConfig, SchemeKind};
pub use controller::{SecureMemoryController, DATA_MAC_KEY, MERKLE_KEY};
pub use stats::ControllerStats;

#[cfg(test)]
mod tests;
