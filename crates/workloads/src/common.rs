//! Shared helpers for workload generators.

use lelantus_os::kernel::ProcessId;
use lelantus_os::OsError;
use lelantus_sim::{AccessBatch, System};
use lelantus_types::{PageSize, VirtAddr, LINE_BYTES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic RNG for reproducible workloads.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Queues the forkbench update pattern for one page onto `batch`:
/// `bytes` bytes spread uniformly across the page's cachelines (§V-D:
/// "make all the writes in the child process evenly distributed").
///
/// With `bytes <= lines`, one byte lands on each of `bytes` evenly
/// spaced lines; beyond that, lines fill up uniformly.
///
/// Returns the number of line-granularity writes queued.
pub fn push_update_spread(
    batch: &mut AccessBatch,
    page_va: VirtAddr,
    page_size: PageSize,
    bytes: u64,
    tag: u8,
) -> u64 {
    let lines = page_size.lines() as u64;
    let bytes = bytes.min(page_size.bytes());
    if bytes == 0 {
        return 0;
    }
    if bytes <= lines {
        // One byte on each of `bytes` evenly spaced lines.
        let stride = lines / bytes;
        for i in 0..bytes {
            let line = i * stride;
            batch.push_pattern(page_va + line * LINE_BYTES as u64, 1, tag);
        }
        bytes
    } else {
        // Every line is touched; spread the remaining bytes evenly.
        let per_line = (bytes / lines).min(LINE_BYTES as u64) as usize;
        for line in 0..lines {
            batch.push_pattern(page_va + line * LINE_BYTES as u64, per_line, tag);
        }
        lines
    }
}

/// Updates `bytes` bytes of the page at `page_va`, spread uniformly
/// across its cachelines, through the batched access engine (see
/// [`push_update_spread`] to queue onto a reusable batch instead).
///
/// Returns the number of line-granularity writes issued.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn update_spread(
    sys: &mut System,
    pid: ProcessId,
    page_va: VirtAddr,
    page_size: PageSize,
    bytes: u64,
    tag: u8,
) -> Result<u64, OsError> {
    let mut batch = AccessBatch::with_capacity(bytes.min(page_size.lines() as u64) as usize, 0);
    update_spread_with(sys, &mut batch, pid, page_va, page_size, bytes, tag)
}

/// [`update_spread`] through a caller-owned scratch batch, so inner
/// loops (one spread per page per iteration) reuse one allocation for
/// the whole run. The batch is cleared on entry.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn update_spread_with(
    sys: &mut System,
    batch: &mut AccessBatch,
    pid: ProcessId,
    page_va: VirtAddr,
    page_size: PageSize,
    bytes: u64,
    tag: u8,
) -> Result<u64, OsError> {
    batch.clear();
    let n = push_update_spread(batch, page_va, page_size, bytes, tag);
    sys.run_batch(pid, batch)?;
    Ok(n)
}

/// Writes every line of `[va, va+len)` once (bulk initialization).
/// Returns the number of line writes.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn init_all_lines(
    sys: &mut System,
    pid: ProcessId,
    va: VirtAddr,
    len: u64,
    tag: u8,
) -> Result<u64, OsError> {
    let mut batch = AccessBatch::with_capacity(1, 0);
    init_all_lines_with(sys, &mut batch, pid, va, len, tag)
}

/// [`init_all_lines`] through a caller-owned scratch batch (cleared on
/// entry), for loops that initialize many regions.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn init_all_lines_with(
    sys: &mut System,
    batch: &mut AccessBatch,
    pid: ProcessId,
    va: VirtAddr,
    len: u64,
    tag: u8,
) -> Result<u64, OsError> {
    batch.clear();
    batch.push_pattern(va, len as usize, tag);
    sys.run_batch(pid, batch)?;
    Ok(len / LINE_BYTES as u64)
}

/// A zipfian-ish hot/cold access address generator: 80 % of accesses
/// hit the hot fifth of the area (database/compiler locality).
pub fn skewed_offset(r: &mut StdRng, area_len: u64) -> u64 {
    let hot = area_len / 5;
    let offset = if r.gen_bool(0.8) {
        r.gen_range(0..hot.max(1))
    } else {
        r.gen_range(hot.max(1)..area_len.max(2))
    };
    offset & !(LINE_BYTES as u64 - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lelantus_os::CowStrategy;
    use lelantus_sim::SimConfig;

    fn sys() -> System {
        System::new(
            SimConfig::new(CowStrategy::Baseline, PageSize::Regular4K).with_phys_bytes(32 << 20),
        )
    }

    #[test]
    fn spread_update_touches_expected_lines() {
        let mut s = sys();
        let pid = s.spawn_init();
        let va = s.mmap(pid, 4096).unwrap();
        let n = update_spread(&mut s, pid, va, PageSize::Regular4K, 8, 0xEE).unwrap();
        assert_eq!(n, 8);
        // Lines 0, 8, 16, ... hold the tag; others are zero.
        assert_eq!(s.read_bytes(pid, va, 1).unwrap(), vec![0xEE]);
        assert_eq!(s.read_bytes(pid, va + 8 * 64, 1).unwrap(), vec![0xEE]);
        assert_eq!(s.read_bytes(pid, va + 64, 1).unwrap(), vec![0]);
    }

    #[test]
    fn spread_update_whole_page() {
        let mut s = sys();
        let pid = s.spawn_init();
        let va = s.mmap(pid, 4096).unwrap();
        let n = update_spread(&mut s, pid, va, PageSize::Regular4K, 4096, 1).unwrap();
        assert_eq!(n, 64, "all 64 lines written");
        assert_eq!(s.read_bytes(pid, va + 63 * 64, 64).unwrap(), vec![1; 64]);
    }

    #[test]
    fn spread_update_zero_bytes_is_noop() {
        let mut s = sys();
        let pid = s.spawn_init();
        let va = s.mmap(pid, 4096).unwrap();
        assert_eq!(update_spread(&mut s, pid, va, PageSize::Regular4K, 0, 1).unwrap(), 0);
    }

    #[test]
    fn skewed_offsets_are_line_aligned_and_bounded() {
        let mut r = rng(7);
        for _ in 0..1000 {
            let off = skewed_offset(&mut r, 1 << 20);
            assert_eq!(off % 64, 0);
            assert!(off < 1 << 20);
        }
    }

    #[test]
    fn rng_is_deterministic() {
        let a: u64 = rng(42).gen();
        let b: u64 = rng(42).gen();
        assert_eq!(a, b);
    }
}
