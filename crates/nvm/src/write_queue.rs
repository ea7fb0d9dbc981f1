//! A merging write queue with read forwarding.
//!
//! Real persistent-memory controllers buffer writes so that reads are
//! not stalled behind slow (150 ns) array writes, and coalesce multiple
//! writes to the same line. The paper relies on this effect: deferring
//! copies "enables the memory controller to merge more writes and
//! copies in the request queue" (§IV-C). The queue here is FIFO with
//! same-line merge; when full, the oldest entry is drained to the
//! array synchronously (write-induced stall).
//!
//! The queue is kept as two parallel `VecDeque`s in queue order: the
//! line addresses, and each line's data and enqueue time. Merge,
//! forward and discard look a line up by scanning the addresses
//! alone, eight bytes per entry instead of the 88-byte
//! [`PendingWrite`], so a full 64-entry scan reads 512 bytes;
//! [`PendingWrite`]s are built only when entries leave the queue. A
//! counting filter in front of the scan (queued lines per line number
//! modulo 1024) answers most misses, such as a read of a line with no
//! pending write, without scanning at all.

use lelantus_types::{Cycles, PhysAddr, LINE_BYTES};
use std::collections::VecDeque;

/// One pending line write.
#[derive(Debug, Clone)]
pub struct PendingWrite {
    /// Line-aligned target address.
    pub addr: PhysAddr,
    /// Data to be written.
    pub data: [u8; 64],
    /// Time the write entered the queue.
    pub enqueued_at: Cycles,
}

/// Statistics maintained by the queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteQueueStats {
    /// Writes accepted into the queue.
    pub enqueued: u64,
    /// Writes merged into an existing same-line entry.
    pub merged: u64,
    /// Reads serviced by forwarding queued data.
    pub forwarded_reads: u64,
    /// Entries evicted because the queue was full.
    pub capacity_drains: u64,
}

/// The merging write queue.
///
/// # Examples
///
/// ```
/// use lelantus_nvm::write_queue::WriteQueue;
/// use lelantus_types::{Cycles, PhysAddr};
///
/// let mut q = WriteQueue::new(4);
/// q.push(PhysAddr::new(0x40), [1; 64], Cycles::ZERO);
/// q.push(PhysAddr::new(0x40), [2; 64], Cycles::ZERO); // merges
/// assert_eq!(q.len(), 1);
/// assert_eq!(q.forward(PhysAddr::new(0x40)), Some([2; 64]));
/// ```
#[derive(Debug, Clone)]
pub struct WriteQueue {
    /// Queued line addresses, oldest first.
    addrs: VecDeque<u64>,
    /// Data and enqueue time of `addrs[i]`, for every `i`.
    payloads: VecDeque<([u8; 64], Cycles)>,
    /// Queued lines per filter bucket (see [`bucket`]). A zero count
    /// proves a line is not queued, so most lookups that miss skip the
    /// scan.
    filter: Vec<u32>,
    capacity: usize,
    stats: WriteQueueStats,
}

impl WriteQueue {
    /// Creates a queue holding at most `capacity` line writes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "write queue needs capacity");
        Self {
            addrs: VecDeque::with_capacity(capacity),
            payloads: VecDeque::with_capacity(capacity),
            filter: vec![0; FILTER_BUCKETS],
            capacity,
            stats: WriteQueueStats::default(),
        }
    }

    /// Number of distinct pending line writes.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// True when no writes are pending.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// True when the next push of a *new* line must drain an entry.
    pub fn is_full(&self) -> bool {
        self.addrs.len() >= self.capacity
    }

    /// Queue statistics.
    pub fn stats(&self) -> WriteQueueStats {
        self.stats
    }

    /// Queue position of the pending write to line `addr`.
    fn position(&self, addr: PhysAddr) -> Option<usize> {
        let addr = addr.as_u64();
        if self.filter[bucket(addr)] == 0 {
            return None;
        }
        self.addrs.iter().position(|&a| a == addr)
    }

    /// Enqueues a write; merging into an existing entry for the same
    /// line if present. Returns the entry that must be drained first
    /// when the queue overflows.
    pub fn push(&mut self, addr: PhysAddr, data: [u8; 64], now: Cycles) -> Option<PendingWrite> {
        let addr = addr.line_align();
        self.stats.enqueued += 1;
        if let Some(i) = self.position(addr) {
            self.payloads[i] = (data, now);
            self.stats.merged += 1;
            return None;
        }
        let drained = if self.is_full() {
            self.stats.capacity_drains += 1;
            self.pop()
        } else {
            None
        };
        self.addrs.push_back(addr.as_u64());
        self.payloads.push_back((data, now));
        self.filter[bucket(addr.as_u64())] += 1;
        drained
    }

    /// Returns the queued data for `addr` if a write is pending
    /// (read forwarding).
    pub fn forward(&mut self, addr: PhysAddr) -> Option<[u8; 64]> {
        let i = self.position(addr.line_align())?;
        self.stats.forwarded_reads += 1;
        Some(self.payloads[i].0)
    }

    /// Removes and returns the oldest pending write.
    pub fn pop(&mut self) -> Option<PendingWrite> {
        let addr = self.addrs.pop_front()?;
        self.filter[bucket(addr)] -= 1;
        let (data, enqueued_at) = self.payloads.pop_front()?;
        Some(PendingWrite { addr: PhysAddr::new(addr), data, enqueued_at })
    }

    /// Drops any pending write to `addr` (superseded by a durable
    /// write). Returns true if an entry was discarded. Merging keeps
    /// at most one entry per line, so there is at most one to drop.
    pub fn discard(&mut self, addr: PhysAddr) -> bool {
        let Some(i) = self.position(addr.line_align()) else { return false };
        self.filter[bucket(addr.as_u64())] -= 1;
        self.addrs.remove(i);
        self.payloads.remove(i);
        true
    }

    /// Drains all pending writes (e.g. at a persist barrier).
    pub fn drain_all(&mut self) -> Vec<PendingWrite> {
        self.filter.fill(0);
        self.addrs
            .drain(..)
            .zip(self.payloads.drain(..))
            .map(|(addr, (data, enqueued_at))| PendingWrite {
                addr: PhysAddr::new(addr),
                data,
                enqueued_at,
            })
            .collect()
    }
}

/// Number of lookup-filter buckets.
const FILTER_BUCKETS: usize = 1024;

/// Filter bucket of line address `addr`: its line number modulo
/// [`FILTER_BUCKETS`], so up to 1024 consecutive lines never share one.
fn bucket(addr: u64) -> usize {
    (addr / LINE_BYTES as u64) as usize % FILTER_BUCKETS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(a: u64) -> PhysAddr {
        PhysAddr::new(a * 64)
    }

    #[test]
    fn merge_same_line() {
        let mut q = WriteQueue::new(8);
        q.push(line(1), [1; 64], Cycles::ZERO);
        q.push(line(1), [2; 64], Cycles::new(5));
        assert_eq!(q.len(), 1);
        assert_eq!(q.stats().merged, 1);
        assert_eq!(q.pop().unwrap().data, [2; 64]);
    }

    #[test]
    fn overflow_drains_oldest() {
        let mut q = WriteQueue::new(2);
        assert!(q.push(line(1), [1; 64], Cycles::ZERO).is_none());
        assert!(q.push(line(2), [2; 64], Cycles::ZERO).is_none());
        let drained = q.push(line(3), [3; 64], Cycles::ZERO).expect("must drain");
        assert_eq!(drained.addr, line(1));
        assert_eq!(q.len(), 2);
        assert_eq!(q.stats().capacity_drains, 1);
    }

    #[test]
    fn forwarding() {
        let mut q = WriteQueue::new(4);
        q.push(line(7), [9; 64], Cycles::ZERO);
        assert_eq!(q.forward(line(7)), Some([9; 64]));
        assert_eq!(q.forward(line(8)), None);
        assert_eq!(q.stats().forwarded_reads, 1);
    }

    #[test]
    fn forward_uses_line_alignment() {
        let mut q = WriteQueue::new(4);
        q.push(PhysAddr::new(0x1008), [3; 64], Cycles::ZERO);
        assert_eq!(q.forward(PhysAddr::new(0x1030)), Some([3; 64]));
    }

    #[test]
    fn drain_all_empties() {
        let mut q = WriteQueue::new(4);
        q.push(line(1), [1; 64], Cycles::ZERO);
        q.push(line(2), [2; 64], Cycles::ZERO);
        assert_eq!(q.drain_all().len(), 2);
        assert!(q.is_empty());
    }

    #[test]
    fn lines_sharing_a_filter_bucket_stay_distinct() {
        // Lines 1024 apart share a filter bucket.
        let (a, b) = (line(3), line(3 + FILTER_BUCKETS as u64));
        assert_eq!(bucket(a.as_u64()), bucket(b.as_u64()));
        let mut q = WriteQueue::new(4);
        q.push(a, [1; 64], Cycles::ZERO);
        assert_eq!(q.forward(b), None);
        q.push(b, [2; 64], Cycles::ZERO);
        assert_eq!(q.len(), 2, "no false merge");
        assert_eq!(q.pop().unwrap().addr, a);
        assert_eq!(q.forward(b), Some([2; 64]));
        assert_eq!(q.forward(a), None);
        assert!(q.discard(b));
        assert!(!q.discard(b));
        assert_eq!(q.forward(b), None);
        assert!(q.filter.iter().all(|&n| n == 0), "filter counts drain to zero");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = WriteQueue::new(0);
    }
}
