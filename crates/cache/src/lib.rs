//! CPU cache hierarchy for the Lelantus reproduction.
//!
//! Models the paper's Table III hierarchy — 64 KB 8-way L1 (2 cycles),
//! 512 KB 8-way L2 (8 cycles), 8 MB 8-way L3 (25 cycles), all with
//! 64-byte lines, LRU replacement and write-back/write-allocate — in
//! front of an arbitrary [`LineBackend`] (the secure memory controller
//! in the full system).
//!
//! The hierarchy is *functional*: cached lines hold real bytes, so
//! dirty evictions carry data down to the backend, and the
//! flush/invalidate operations the OS performs around CoW commands
//! (paper §IV-B: flush dirty source-page lines, invalidate
//! destination-page lines) have their real semantics. The levels keep
//! tags only; each cached line's bytes are stored once, in a slab slot
//! shared by every level that holds the line.
//!
//! # Examples
//!
//! ```
//! use lelantus_cache::{CacheHierarchy, HierarchyConfig, LineBackend};
//! use lelantus_types::{Cycles, PhysAddr};
//!
//! // A trivially simple backing store.
//! struct Flat(std::collections::HashMap<u64, [u8; 64]>);
//! impl LineBackend for Flat {
//!     fn read_line(&mut self, a: PhysAddr, now: Cycles) -> ([u8; 64], Cycles) {
//!         (self.0.get(&a.line_align().as_u64()).copied().unwrap_or([0; 64]), now + Cycles::new(60))
//!     }
//!     fn write_line(&mut self, a: PhysAddr, d: [u8; 64], now: Cycles) -> Cycles {
//!         self.0.insert(a.line_align().as_u64(), d);
//!         now + Cycles::new(150)
//!     }
//! }
//!
//! let mut mem = Flat(Default::default());
//! let mut caches = CacheHierarchy::new(HierarchyConfig::default());
//! let done = caches.store(PhysAddr::new(0x100), &[1, 2, 3], Cycles::ZERO, &mut mem);
//! let (bytes, _) = caches.load(PhysAddr::new(0x100), 3, done, &mut mem);
//! assert_eq!(bytes, vec![1, 2, 3]);
//! ```

pub mod config;
pub mod hierarchy;
pub mod set_assoc;
pub mod stats;

pub use config::{CacheConfig, HierarchyConfig};
pub use hierarchy::{CacheHierarchy, LineBackend};
pub use set_assoc::SetAssocCache;
pub use stats::{CacheStats, HierarchyStats};
