//! Split-counter security metadata for the Lelantus reproduction.
//!
//! Secure NVM controllers keep one 64-byte *counter block* per 4 KB
//! region: a major counter shared by the region plus 64 per-line minor
//! counters (paper §II-B, Yan et al.'s split-counter scheme). Lelantus
//! repurposes this metadata to encode CoW state. This crate provides:
//!
//! * [`counter_block`] — bit-exact encodings of both layouts from the
//!   paper's Figure 4: the classic layout (64-bit major + 64 × 7-bit
//!   minors) and the resized CoW layout (1-bit `CoW_Flag` + 63-bit
//!   major + 64 × 6-bit minors + 64-bit source address),
//! * [`counter_cache`] — the 256 KB, 16-way counter cache (Table III)
//!   with write-back and write-through policies (Fig 12),
//! * [`cow_meta`] — the slot codec of Solution 2's supplementary
//!   CoW-metadata table (8 B per region in NVM) and its dedicated CoW
//!   cache carved out of counter-cache capacity (paper §III-B),
//! * [`layout`] — where counter blocks and CoW metadata live in
//!   physical NVM, so metadata traffic is charged like any other.
//!
//! # Examples
//!
//! ```
//! use lelantus_metadata::counter_block::{CounterBlock, CounterEncoding};
//!
//! // Mark a region as copied from region 7 without touching its data:
//! let block = CounterBlock::fresh_cow(7);
//! let bytes = block.encode(CounterEncoding::Resized);
//! let back = CounterBlock::decode(&bytes, CounterEncoding::Resized);
//! assert_eq!(back.cow_source(), Some(7));
//! assert!(back.is_line_uncopied(13)); // minor == 0 ⇒ not copied yet
//! ```

pub mod counter_block;
pub mod counter_cache;
pub mod cow_meta;
pub mod layout;
pub mod mac;

pub use counter_block::{CounterBlock, CounterEncoding, MinorOverflow};
pub use counter_cache::{CounterCache, CounterCacheConfig, WritePolicy};
pub use cow_meta::CowCache;
pub use layout::MetadataLayout;
pub use mac::{MacCache, MacCacheStats};
