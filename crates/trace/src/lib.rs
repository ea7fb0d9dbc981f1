//! The `.ltr` binary access-trace format.
//!
//! A trace is a byte-exact transcript of every state-changing call a
//! simulated machine served: batched line accesses ([`TraceOp`]s,
//! the op type `lelantus-sim`'s access driver runs), syscall-level kernel
//! operations (`mmap`, `fork`, `exit`, KSM merges...), and the
//! expected results of allocation decisions (`spawn_init` pids,
//! `mmap` bases, `fork` children) so a replay can prove it stayed on
//! the recorded trajectory. The format is little-endian throughout
//! and page-run oriented: one pattern op can cover a whole page (or
//! region), and run lengths are varints, so the dominant workload
//! shapes cost 2–4 bytes per line-granularity op.
//!
//! ## File layout
//!
//! ```text
//! ┌────────────────────┐
//! │ header   (32 B)    │ magic "LTRC", version, page size, phys bytes
//! ├────────────────────┤
//! │ body               │ records: opcode byte + varint fields
//! │   Batch            │   pid, nops, ops_len, data_len, packed ops,
//! │   SpawnInit        │   then the payload arena (borrowed verbatim
//! │   Mmap / Fork / …  │   by the zero-copy reader)
//! ├────────────────────┤
//! │ footer   (28 B)    │ op count, record count, checksum, "LTRE"
//! └────────────────────┘
//! ```
//!
//! The trailing footer makes truncation detectable (a cut file loses
//! the end magic), and the checksum covers header + body, so any
//! corruption in between is caught at open time. See `DESIGN.md` §14
//! for the full layout diagram and the determinism argument.
//!
//! ## Reading
//!
//! [`Trace::open`] memory-maps the file on Unix targets (buffered
//! `Read`-to-memory everywhere else, or when mapping fails) and
//! validates header, footer, and checksum up front — every error a
//! malformed file can produce is a distinct [`TraceError`] variant.
//! [`Trace::records`] then iterates borrowed [`Record`]s: batch
//! payload arenas are slices of the mapping (zero-copy); the packed
//! per-op stream decodes on the fly with no allocation.
//!
//! # Examples
//!
//! ```
//! use lelantus_trace::{Record, Trace, TraceHeader, TraceOp, TraceWriter};
//! use lelantus_types::PageSize;
//!
//! let header = TraceHeader { page_size: PageSize::Regular4K, phys_bytes: 32 << 20 };
//! let mut w = TraceWriter::new(Vec::new(), header)?;
//! w.spawn_init(1)?;
//! w.mmap(1, 4096, PageSize::Regular4K, 0x1000)?;
//! w.batch(1, b"hi", [TraceOp::write(0x1000, 2, 0), TraceOp::read(0x1000, 2)])?;
//! let (bytes, totals) = w.into_parts()?;
//! assert_eq!(totals.ops, 2);
//!
//! let trace = Trace::from_bytes(bytes)?;
//! assert_eq!(trace.header(), header);
//! assert_eq!(trace.records().count(), 3);
//! match trace.records().nth(2).unwrap()? {
//!     Record::Batch(b) => assert_eq!(b.data, b"hi"),
//!     other => panic!("expected a batch, got {other:?}"),
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod error;
pub mod format;
pub mod mmap;
pub mod reader;
pub mod writer;

pub use error::TraceError;
pub use format::{
    checksum64, Check64, TraceHeader, TraceOp, TraceOpKind, TraceTotals, FOOTER_LEN,
    FORMAT_VERSION, HEADER_LEN,
};
pub use reader::{BatchOps, BatchRecord, KsmPairs, Record, Records, Trace};
pub use writer::TraceWriter;
