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
//! The queue holds timing state only: each pending line's address and
//! enqueue time, oldest first. A line's bytes live in one place, the
//! device's line store, which a write updates before it is queued; so
//! [`WriteQueue::forward`] only answers whether a read can be served at
//! queue speed, and the device reads the bytes from its store. Merge,
//! forward and discard look a line up by a linear scan, and a counting
//! filter in front of the scan (queued lines per line number modulo
//! 1024) answers most misses, such as a read of a line with no pending
//! write, without scanning at all.

use lelantus_types::{Cycles, PhysAddr, LINE_BYTES};
use std::collections::VecDeque;

/// One pending line write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingWrite {
    /// Line-aligned target address.
    pub addr: PhysAddr,
    /// Time the write entered the queue (its latest merge).
    pub enqueued_at: Cycles,
}

/// Statistics maintained by the queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteQueueStats {
    /// Writes accepted into the queue.
    pub enqueued: u64,
    /// Writes merged into an existing same-line entry.
    pub merged: u64,
    /// Reads of a queued line (served at queue speed).
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
/// q.push(PhysAddr::new(0x40), Cycles::ZERO);
/// q.push(PhysAddr::new(0x40), Cycles::new(3)); // merges
/// assert_eq!(q.len(), 1);
/// assert!(q.forward(PhysAddr::new(0x40)));
/// assert_eq!(q.pop().unwrap().enqueued_at, Cycles::new(3));
/// ```
#[derive(Debug, Clone)]
pub struct WriteQueue {
    /// Pending writes, oldest first.
    entries: VecDeque<PendingWrite>,
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
            entries: VecDeque::with_capacity(capacity),
            filter: vec![0; FILTER_BUCKETS],
            capacity,
            stats: WriteQueueStats::default(),
        }
    }

    /// Number of distinct pending line writes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no writes are pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when the next push of a *new* line must drain an entry.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Queue statistics.
    pub fn stats(&self) -> WriteQueueStats {
        self.stats
    }

    /// Queue position of the pending write to line `addr`.
    fn position(&self, addr: PhysAddr) -> Option<usize> {
        if self.filter[bucket(addr.as_u64())] == 0 {
            return None;
        }
        self.entries.iter().position(|e| e.addr == addr)
    }

    /// Enqueues a write to the line containing `addr`, merging into an
    /// existing entry for the same line if present (which takes the
    /// new enqueue time). Returns the entry that must be drained first
    /// when the queue overflows.
    pub fn push(&mut self, addr: PhysAddr, now: Cycles) -> Option<PendingWrite> {
        let addr = addr.line_align();
        self.stats.enqueued += 1;
        if let Some(i) = self.position(addr) {
            self.entries[i].enqueued_at = now;
            self.stats.merged += 1;
            return None;
        }
        let drained = if self.is_full() {
            self.stats.capacity_drains += 1;
            self.pop()
        } else {
            None
        };
        self.entries.push_back(PendingWrite { addr, enqueued_at: now });
        self.filter[bucket(addr.as_u64())] += 1;
        drained
    }

    /// Whether a write to the line containing `addr` is pending, so a
    /// read of it is forwarded from the queue (counted when it is).
    pub fn forward(&mut self, addr: PhysAddr) -> bool {
        let queued = self.position(addr.line_align()).is_some();
        self.stats.forwarded_reads += queued as u64;
        queued
    }

    /// Removes and returns the oldest pending write.
    pub fn pop(&mut self) -> Option<PendingWrite> {
        let w = self.entries.pop_front()?;
        self.filter[bucket(w.addr.as_u64())] -= 1;
        Some(w)
    }

    /// Drops any pending write to `addr` (superseded by a durable
    /// write). Returns true if an entry was discarded. Merging keeps
    /// at most one entry per line, so there is at most one to drop.
    pub fn discard(&mut self, addr: PhysAddr) -> bool {
        let Some(i) = self.position(addr.line_align()) else { return false };
        self.filter[bucket(addr.as_u64())] -= 1;
        self.entries.remove(i);
        true
    }

    /// Drains all pending writes, oldest first (e.g. at a persist
    /// barrier).
    pub fn drain_all(&mut self) -> Vec<PendingWrite> {
        self.filter.fill(0);
        self.entries.drain(..).collect()
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
        q.push(line(1), Cycles::ZERO);
        q.push(line(1), Cycles::new(5));
        assert_eq!(q.len(), 1);
        assert_eq!(q.stats().merged, 1);
        assert_eq!(q.pop(), Some(PendingWrite { addr: line(1), enqueued_at: Cycles::new(5) }));
    }

    #[test]
    fn overflow_drains_oldest() {
        let mut q = WriteQueue::new(2);
        assert!(q.push(line(1), Cycles::ZERO).is_none());
        assert!(q.push(line(2), Cycles::ZERO).is_none());
        let drained = q.push(line(3), Cycles::ZERO).expect("must drain");
        assert_eq!(drained.addr, line(1));
        assert_eq!(q.len(), 2);
        assert_eq!(q.stats().capacity_drains, 1);
    }

    #[test]
    fn forwarding() {
        let mut q = WriteQueue::new(4);
        q.push(line(7), Cycles::ZERO);
        assert!(q.forward(line(7)));
        assert!(!q.forward(line(8)));
        assert_eq!(q.stats().forwarded_reads, 1);
    }

    #[test]
    fn forward_uses_line_alignment() {
        let mut q = WriteQueue::new(4);
        q.push(PhysAddr::new(0x1008), Cycles::ZERO);
        assert!(q.forward(PhysAddr::new(0x1030)));
    }

    #[test]
    fn drain_all_empties() {
        let mut q = WriteQueue::new(4);
        q.push(line(1), Cycles::ZERO);
        q.push(line(2), Cycles::ZERO);
        assert_eq!(q.drain_all().len(), 2);
        assert!(q.is_empty());
    }

    #[test]
    fn lines_sharing_a_filter_bucket_stay_distinct() {
        // Lines 1024 apart share a filter bucket.
        let (a, b) = (line(3), line(3 + FILTER_BUCKETS as u64));
        assert_eq!(bucket(a.as_u64()), bucket(b.as_u64()));
        let mut q = WriteQueue::new(4);
        q.push(a, Cycles::ZERO);
        assert!(!q.forward(b));
        q.push(b, Cycles::ZERO);
        assert_eq!(q.len(), 2, "no false merge");
        assert_eq!(q.pop().unwrap().addr, a);
        assert!(q.forward(b));
        assert!(!q.forward(a));
        assert!(q.discard(b));
        assert!(!q.discard(b));
        assert!(!q.forward(b));
        assert!(q.filter.iter().all(|&n| n == 0), "filter counts drain to zero");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = WriteQueue::new(0);
    }
}
