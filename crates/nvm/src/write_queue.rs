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
//! queue speed, and the device reads the bytes from its store.
//!
//! Merge, forward and discard find a line through an exact index of
//! 1024 buckets (line number modulo 1024). Each bucket counts its
//! queued lines and records the sequence number of the newest entry
//! pushed into it; the queue numbers its entries in push order, so an
//! entry's position is its sequence number minus the head's. An empty
//! bucket proves a miss, and a bucket holding one line names that
//! line's entry, so both cost one check. Only lines that share a
//! bucket with another queued line — lines a multiple of 64 KiB apart
//! — are found by scanning the queue.

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
    /// Pending writes, oldest first. The entry at position `i` has
    /// sequence number `head_seq + i`.
    entries: VecDeque<PendingWrite>,
    /// Index buckets (see [`bucket`]).
    buckets: Vec<Bucket>,
    /// Sequence number of the oldest entry. Sequence numbers wrap: only
    /// differences below the queue's length are ever taken.
    head_seq: u32,
    capacity: usize,
    stats: WriteQueueStats,
}

/// One index bucket: the queued lines that fall into it.
#[derive(Debug, Clone, Copy, Default)]
struct Bucket {
    /// Queued lines in this bucket.
    queued: u32,
    /// Sequence number of the newest of them (meaningless when
    /// `queued` is zero).
    newest: u32,
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
            buckets: vec![Bucket::default(); BUCKETS],
            head_seq: 0,
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
    #[inline]
    fn position(&self, addr: PhysAddr) -> Option<usize> {
        let b = self.buckets[bucket(addr)];
        match b.queued {
            0 => None,
            1 => {
                let i = b.newest.wrapping_sub(self.head_seq) as usize;
                (self.entries[i].addr == addr).then_some(i)
            }
            _ => self.entries.iter().position(|e| e.addr == addr),
        }
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
        let b = &mut self.buckets[bucket(addr)];
        b.queued += 1;
        b.newest = self.head_seq.wrapping_add(self.entries.len() as u32);
        self.entries.push_back(PendingWrite { addr, enqueued_at: now });
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
        self.buckets[bucket(w.addr)].queued -= 1;
        self.head_seq = self.head_seq.wrapping_add(1);
        Some(w)
    }

    /// Drops any pending write to `addr` (superseded by a durable
    /// write). Returns true if an entry was discarded. Merging keeps
    /// at most one entry per line, so there is at most one to drop.
    ///
    /// Removing an entry moves every later one a position forward, so
    /// the buckets' newest sequence numbers are recomputed from the
    /// entries that remain (only durable writes discard).
    pub fn discard(&mut self, addr: PhysAddr) -> bool {
        let addr = addr.line_align();
        let Some(i) = self.position(addr) else { return false };
        self.buckets[bucket(addr)].queued -= 1;
        self.entries.remove(i);
        for (i, e) in self.entries.iter().enumerate() {
            self.buckets[bucket(e.addr)].newest = self.head_seq.wrapping_add(i as u32);
        }
        true
    }

    /// Drains all pending writes, oldest first (e.g. at a persist
    /// barrier).
    pub fn drain_all(&mut self) -> Vec<PendingWrite> {
        self.buckets.fill(Bucket::default());
        self.head_seq = 0;
        self.entries.drain(..).collect()
    }
}

/// Number of index buckets.
const BUCKETS: usize = 1024;

/// Index bucket of line address `addr`: its line number modulo
/// [`BUCKETS`], so up to 1024 consecutive lines never share one.
#[inline]
fn bucket(addr: PhysAddr) -> usize {
    (addr.as_u64() / LINE_BYTES as u64) as usize % BUCKETS
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
    fn lines_sharing_a_bucket_stay_distinct() {
        // Lines 1024 apart share a bucket.
        let (a, b) = (line(3), line(3 + BUCKETS as u64));
        assert_eq!(bucket(a), bucket(b));
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
        assert!(q.buckets.iter().all(|b| b.queued == 0), "bucket counts drain to zero");
    }

    #[test]
    fn bucket_index_follows_pops_merges_and_discards() {
        // `old` and `new` are 64 KiB apart, so they share a bucket;
        // lines 1 and 2 sit in other buckets and shift the positions.
        let (old, new) = (line(5), line(5 + BUCKETS as u64));
        let fill = |q: &mut WriteQueue| {
            q.push(line(1), Cycles::ZERO);
            q.push(old, Cycles::new(1));
            q.push(line(2), Cycles::ZERO);
            q.push(new, Cycles::new(2));
        };
        let mut q = WriteQueue::new(8);
        fill(&mut q);
        assert_eq!(q.pop().unwrap().addr, line(1));
        assert_eq!(q.pop().unwrap().addr, old);
        // The bucket now holds `new` alone.
        assert!(q.push(new, Cycles::new(3)).is_none());
        assert_eq!((q.len(), q.stats().merged), (2, 1));
        assert!(q.forward(new) && !q.forward(old));

        q.drain_all();
        fill(&mut q);
        assert!(q.discard(new));
        assert!(q.forward(old) && !q.forward(new) && q.forward(line(2)));

        q.drain_all();
        fill(&mut q);
        assert!(q.discard(old));
        assert!(q.forward(new) && !q.forward(old));
        assert!(q.discard(line(1)));
        assert!(q.forward(new) && q.forward(line(2)));
        assert_eq!(q.pop(), Some(PendingWrite { addr: line(2), enqueued_at: Cycles::ZERO }));
        assert_eq!(q.pop(), Some(PendingWrite { addr: new, enqueued_at: Cycles::new(2) }));
        assert!(q.is_empty() && !q.forward(new));

        // Reuse after a drain.
        fill(&mut q);
        assert_eq!(q.drain_all().len(), 4);
        q.push(new, Cycles::new(4));
        assert!(q.forward(new) && !q.forward(old));
        assert!(q.push(new, Cycles::new(5)).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = WriteQueue::new(0);
    }
}
