//! A Bonsai-style Merkle tree protecting counter-block integrity.
//!
//! Counter-mode encryption is only secure if counters cannot be rolled
//! back or tampered with (paper §II-B); state-of-the-art secure NVMs
//! protect the counters with a Bonsai Merkle Tree (BMT) whose root
//! lives on-chip. The paper (and prior work it cites) measures the BMT
//! overhead at under 2 % because verification stops at the first
//! *trusted ancestor* — any tree node currently held in the on-chip
//! node cache.
//!
//! This module implements an 8-ary hash tree over counter-block
//! digests, with an LRU node cache modelling the trusted on-chip
//! copies, and reports how many node fetches each verify/update needed
//! so the memory controller can charge the corresponding traffic. The
//! node cache is a [`lelantus_types::lru::LruMap`] keyed by node
//! number, so every touch and eviction on a walk is O(1).
//!
//! # Deferred maintenance (host-side write combining)
//!
//! The *simulated* cost model walks leaf-to-root on every update — that
//! is what the paper charges and what [`WalkStats`] reports. The
//! *host-side* hash recomputation, however, does not have to happen per
//! walk: with [`MerkleTree::with_deferred_maintenance`] an update marks
//! its leaf dirty and ancestors are rehashed once per
//! [`MerkleTree::flush`] point, so a page sweep that bumps 64
//! neighbouring counters recomputes their shared ancestors once instead
//! of 64 times. The cache-model walk (LRU order, hits, `WalkStats`) is
//! performed identically in both modes, and verification force-flushes
//! pending subtrees first, so nothing simulated can observe the
//! difference.

use crate::siphash::SipHash24;
use lelantus_types::hash::BuildIndexHasher;
use lelantus_types::lru::LruMap;
use std::collections::BTreeSet;

/// Tree fan-out. Eight 64-bit child digests fit one 64-byte metadata
/// line, mirroring how BMT nodes are laid out in NVM.
pub const ARITY: usize = 8;

/// Error returned when verification fails: the stored data does not
/// hash to the trusted digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TamperError {
    /// Index of the leaf whose verification failed.
    pub leaf: usize,
    /// Tree level (0 = leaf digests) where the mismatch was detected.
    pub level: usize,
}

impl std::fmt::Display for TamperError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "integrity violation for leaf {} detected at tree level {}",
            self.leaf, self.level
        )
    }
}

impl std::error::Error for TamperError {}

/// Traffic incurred by one verify or update walk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalkStats {
    /// Metadata lines fetched from NVM (node-cache misses).
    pub nodes_fetched: u64,
    /// Metadata lines written back to NVM (updates only).
    pub nodes_written: u64,
    /// Tree levels climbed before a trusted ancestor was found.
    pub levels_walked: u64,
}

/// An 8-ary Merkle tree over `num_leaves` counter blocks.
///
/// # Examples
///
/// ```
/// use lelantus_crypto::MerkleTree;
///
/// let mut tree = MerkleTree::new(64, (1, 2), 16);
/// tree.update_leaf(3, b"counter block contents");
/// assert!(tree.verify_leaf(3, b"counter block contents").is_ok());
/// assert!(tree.verify_leaf(3, b"tampered contents").is_err());
/// ```
#[derive(Debug, Clone)]
pub struct MerkleTree {
    /// Keyed SipHash-2-4 for leaf and interior-node digests.
    mac: SipHash24,
    /// levels[0] = leaf digests, last level = [root].
    levels: Vec<Vec<u64>>,
    /// LRU node cache keyed by [`Self::node_key`]. Nodes present here
    /// are trusted on-chip copies.
    cache: LruMap<u64, (), BuildIndexHasher>,
    cache_capacity: usize,
    /// When set, interior-node hashing is deferred to [`Self::flush`];
    /// `dirty_leaves` holds the leaves whose ancestor paths are stale.
    deferred: bool,
    dirty_leaves: BTreeSet<usize>,
    /// When set, every node-cache miss appends the tree level of the
    /// fetched node line to `touches` (drained by the controller's
    /// spatial heatmap; see [`Self::with_touch_log`]).
    record_touches: bool,
    touches: Vec<u8>,
}

impl MerkleTree {
    /// Creates a tree over `num_leaves` leaves (rounded up to a full
    /// 8-ary tree), keyed by `key`, with an on-chip node cache holding
    /// `cache_capacity` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `num_leaves` is zero.
    pub fn new(num_leaves: usize, key: (u64, u64), cache_capacity: usize) -> Self {
        assert!(num_leaves > 0, "tree must cover at least one counter block");
        let mac = SipHash24::new(key.0, key.1);
        let mut levels = vec![vec![mac.hash(b""); num_leaves]];
        while levels.last().expect("nonempty").len() > 1 {
            let below = levels.last().expect("nonempty");
            let parents = (0..below.len().div_ceil(ARITY))
                .map(|p| mac.hash_words(Self::sibling_group(below, p)))
                .collect();
            levels.push(parents);
        }
        Self {
            mac,
            levels,
            cache: LruMap::default(),
            cache_capacity,
            deferred: false,
            dirty_leaves: BTreeSet::new(),
            record_touches: false,
            touches: Vec::new(),
        }
    }

    /// Enables the per-walk touch log: every node-cache miss (exactly
    /// the fetches counted in [`WalkStats::nodes_fetched`]) appends the
    /// tree level of the fetched node line, for the caller to drain
    /// with [`Self::drain_touches_into`] after each walk. Purely
    /// host-side bookkeeping — walks, stats and the cache model are
    /// unaffected.
    pub fn with_touch_log(mut self) -> Self {
        self.record_touches = true;
        self
    }

    /// Appends the touch-log entries recorded since the last drain to
    /// `out` and empties the log (capacity is retained, so steady-state
    /// walks never allocate).
    pub fn drain_touches_into(&mut self, out: &mut Vec<u8>) {
        out.append(&mut self.touches);
    }

    /// The touch-log entries pending since the last drain/discard
    /// (always empty unless [`Self::with_touch_log`] was applied).
    pub fn touches(&self) -> &[u8] {
        &self.touches
    }

    /// Discards pending touch-log entries (used around walks whose
    /// traffic is deliberately not charged, e.g. boot-time region
    /// initialization).
    pub fn discard_touches(&mut self) {
        self.touches.clear();
    }

    /// Switches the tree to deferred interior-node maintenance (see the
    /// module docs): updates mark leaves dirty, ancestors are rehashed
    /// at [`Self::flush`] / verify time. `WalkStats` and the node-cache
    /// model are unaffected.
    pub fn with_deferred_maintenance(mut self) -> Self {
        self.deferred = true;
        self
    }

    /// The parent's 8-ary child group — exactly the one metadata line a
    /// hardware walk would fetch, so hashing it is O(arity), never
    /// O(level width).
    fn sibling_group(below: &[u64], parent_idx: usize) -> &[u64] {
        let start = parent_idx * ARITY;
        &below[start..(start + ARITY).min(below.len())]
    }

    /// Number of counter-block leaves covered.
    pub fn num_leaves(&self) -> usize {
        self.levels[0].len()
    }

    /// The on-chip root digest.
    ///
    /// Under deferred maintenance the caller must [`Self::flush`]
    /// first: a stale root would silently anchor (or persist) the
    /// wrong tree, so every build checks that nothing is pending.
    /// Callers read the root only at flush and recovery points, so the
    /// check costs nothing on the per-line path.
    ///
    /// # Panics
    ///
    /// Panics if deferred updates are pending.
    pub fn root(&self) -> u64 {
        assert!(
            self.dirty_leaves.is_empty(),
            "flush deferred Merkle updates before reading the root"
        );
        *self.levels.last().expect("nonempty").last().expect("root")
    }

    /// Number of leaves whose ancestor hashes are pending a
    /// [`Self::flush`] (always 0 in eager mode).
    pub fn pending_dirty_leaves(&self) -> usize {
        self.dirty_leaves.len()
    }

    /// The node cache's key for node `idx` of `level`.
    fn node_key(level: usize, idx: usize) -> u64 {
        ((level as u64) << 56) | idx as u64
    }

    /// Moves a node to the recency head, inserting it first if absent,
    /// then evicts the least recent node if the cache is over capacity
    /// (with capacity 0, that is the node just touched).
    fn cache_touch(&mut self, level: usize, idx: usize) {
        // The root is always trusted; do not occupy cache space for it.
        if level + 1 == self.levels.len() {
            return;
        }
        self.cache.insert(Self::node_key(level, idx), ());
        if self.cache.len() > self.cache_capacity {
            self.cache.pop_lru();
        }
    }

    /// Whether a node is trusted on-chip; a cached node moves to the
    /// recency head.
    fn cache_hit(&mut self, level: usize, idx: usize) -> bool {
        if level + 1 == self.levels.len() {
            return true; // root: always on-chip
        }
        self.cache.get(&Self::node_key(level, idx)).is_some()
    }

    /// Recomputes the digest path after `data` was written to leaf
    /// `leaf`, returning the metadata traffic incurred.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is out of range.
    pub fn update_leaf(&mut self, leaf: usize, data: &[u8]) -> WalkStats {
        assert!(leaf < self.num_leaves(), "leaf {leaf} out of range");
        let mac = self.mac;
        let mut stats = WalkStats::default();
        self.levels[0][leaf] = mac.hash(data);
        self.cache_touch(0, leaf);
        stats.nodes_written += 1;
        if self.deferred {
            self.dirty_leaves.insert(leaf);
        }
        let mut idx = leaf;
        for level in 0..self.levels.len() - 1 {
            let parent = idx / ARITY;
            if !self.deferred {
                self.levels[level + 1][parent] =
                    mac.hash_words(Self::sibling_group(&self.levels[level], parent));
            }
            // Updating a parent requires its children; charge a fetch if
            // the node was not cached. This cost-model walk runs the
            // same in both modes — deferral skips only the host-side
            // hashing above.
            if !self.cache_hit(level + 1, parent) {
                stats.nodes_fetched += 1;
                if self.record_touches {
                    self.touches.push((level + 1).min(u8::MAX as usize) as u8);
                }
            }
            self.cache_touch(level + 1, parent);
            stats.nodes_written += 1;
            stats.levels_walked += 1;
            idx = parent;
        }
        stats
    }

    /// Recomputes every interior node made stale by deferred updates,
    /// bottom-up and each node once, and returns how many node hashes
    /// that took. A no-op (returning 0) in eager mode or when nothing
    /// is dirty; purely host-side, so it touches neither the node
    /// cache nor any statistic.
    pub fn flush(&mut self) -> u64 {
        if self.dirty_leaves.is_empty() {
            return 0;
        }
        let mac = self.mac;
        let mut recomputed = 0;
        // BTreeSet iterates ascending, so each level's parent list is
        // sorted and plain dedup coalesces shared ancestors.
        let mut dirty: Vec<usize> = std::mem::take(&mut self.dirty_leaves).into_iter().collect();
        for level in 0..self.levels.len() - 1 {
            let mut parents: Vec<usize> = dirty.iter().map(|&i| i / ARITY).collect();
            parents.dedup();
            for &p in &parents {
                self.levels[level + 1][p] =
                    mac.hash_words(Self::sibling_group(&self.levels[level], p));
                recomputed += 1;
            }
            dirty = parents;
        }
        recomputed
    }

    /// Verifies that `data` is the authentic content of leaf `leaf`.
    ///
    /// Walks toward the root, stopping at the first trusted (cached)
    /// ancestor, exactly like a hardware BMT walk.
    ///
    /// # Errors
    ///
    /// Returns [`TamperError`] if any digest on the path mismatches.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is out of range.
    pub fn verify_leaf(&mut self, leaf: usize, data: &[u8]) -> Result<WalkStats, TamperError> {
        assert!(leaf < self.num_leaves(), "leaf {leaf} out of range");
        // Deferred updates leave interior nodes stale; bring the whole
        // tree current before comparing digests. Flushing is host-side
        // only, so the walk below still sees the exact cache state and
        // reports the exact stats an eager tree would.
        self.flush();
        let mut stats = WalkStats::default();
        let digest = self.mac.hash(data);
        if self.cache_hit(0, leaf) {
            // Leaf digest itself is on-chip: compare directly.
            return if digest == self.levels[0][leaf] {
                Ok(stats)
            } else {
                Err(TamperError { leaf, level: 0 })
            };
        }
        if digest != self.levels[0][leaf] {
            return Err(TamperError { leaf, level: 0 });
        }
        let mut idx = leaf;
        for level in 0..self.levels.len() - 1 {
            let parent = idx / ARITY;
            stats.levels_walked += 1;
            // Fetch the 7 siblings (one metadata line) to recompute the
            // parent digest.
            stats.nodes_fetched += 1;
            if self.record_touches {
                self.touches.push(level.min(u8::MAX as usize) as u8);
            }
            let recomputed = self.mac.hash_words(Self::sibling_group(&self.levels[level], parent));
            if recomputed != self.levels[level + 1][parent] {
                return Err(TamperError { leaf, level: level + 1 });
            }
            let trusted = self.cache_hit(level + 1, parent);
            self.cache_touch(level + 1, parent);
            if trusted {
                break;
            }
            idx = parent;
        }
        self.cache_touch(0, leaf);
        Ok(stats)
    }

    /// Deliberately corrupts the stored digest of `leaf` (test hook for
    /// fault-injection; models an attacker flipping NVM bits).
    pub fn corrupt_leaf_digest(&mut self, leaf: usize) {
        self.levels[0][leaf] ^= 0xdead_beef;
        self.cache.remove(&Self::node_key(0, leaf));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tree(leaves: usize) -> MerkleTree {
        MerkleTree::new(leaves, (0x1234, 0x5678), 32)
    }

    #[test]
    fn fresh_tree_verifies_empty_leaves() {
        let mut t = tree(100);
        for leaf in [0, 1, 50, 99] {
            assert!(t.verify_leaf(leaf, b"").is_ok());
        }
    }

    #[test]
    fn update_then_verify() {
        let mut t = tree(64);
        t.update_leaf(7, b"hello");
        assert!(t.verify_leaf(7, b"hello").is_ok());
        assert!(t.verify_leaf(7, b"HELLO").is_err());
    }

    #[test]
    fn updates_change_root() {
        let mut t = tree(64);
        let r0 = t.root();
        t.update_leaf(0, b"x");
        assert_ne!(t.root(), r0);
    }

    #[test]
    fn detects_corrupted_digest() {
        let mut t = tree(64);
        t.update_leaf(9, b"data");
        t.corrupt_leaf_digest(9);
        assert!(t.verify_leaf(9, b"data").is_err());
    }

    #[test]
    fn cached_walks_are_cheaper() {
        let mut t = MerkleTree::new(4096, (1, 2), 64);
        t.update_leaf(1234, b"d");
        let first = t.verify_leaf(1234, b"d").unwrap();
        let second = t.verify_leaf(1234, b"d").unwrap();
        assert!(second.nodes_fetched <= first.nodes_fetched);
        assert_eq!(second.nodes_fetched, 0, "leaf digest should be cached");
    }

    #[test]
    fn single_leaf_tree() {
        let mut t = tree(1);
        t.update_leaf(0, b"only");
        assert!(t.verify_leaf(0, b"only").is_ok());
        assert!(t.verify_leaf(0, b"not").is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_leaf_panics() {
        let mut t = tree(8);
        let _ = t.update_leaf(8, b"x");
    }

    #[test]
    fn non_power_of_arity_sizes() {
        for n in [1usize, 7, 8, 9, 63, 65, 100, 513] {
            let mut t = tree(n);
            t.update_leaf(n - 1, b"edge");
            assert!(t.verify_leaf(n - 1, b"edge").is_ok());
        }
    }

    #[test]
    fn deferred_flush_converges_to_eager_root() {
        let mut eager = tree(512);
        let mut deferred = tree(512).with_deferred_maintenance();
        for leaf in [0usize, 1, 2, 63, 64, 200, 511, 2, 0] {
            eager.update_leaf(leaf, b"payload");
            deferred.update_leaf(leaf, b"payload");
        }
        assert!(deferred.pending_dirty_leaves() > 0);
        let recomputed = deferred.flush();
        assert!(recomputed > 0);
        assert_eq!(deferred.pending_dirty_leaves(), 0);
        assert_eq!(deferred.root(), eager.root());
        // Flushing again is free: nothing is dirty.
        assert_eq!(deferred.flush(), 0);
    }

    #[test]
    fn deferred_walkstats_match_eager_exactly() {
        // The paper-model traffic must be bit-identical in both modes,
        // across update and verify walks, including cache evictions
        // (tiny capacity forces plenty).
        let mut eager = MerkleTree::new(4096, (7, 8), 8);
        let mut deferred = MerkleTree::new(4096, (7, 8), 8).with_deferred_maintenance();
        let leaves = [5usize, 13, 5, 4090, 77, 78, 79, 80, 5, 1024, 2048, 13];
        for (i, &leaf) in leaves.iter().enumerate() {
            let data = [i as u8; 17];
            assert_eq!(
                eager.update_leaf(leaf, &data),
                deferred.update_leaf(leaf, &data),
                "update walk {i} diverged"
            );
            if i % 3 == 0 {
                assert_eq!(
                    eager.verify_leaf(leaf, &data).unwrap(),
                    deferred.verify_leaf(leaf, &data).unwrap(),
                    "verify walk {i} diverged"
                );
            }
        }
        deferred.flush();
        assert_eq!(eager.root(), deferred.root());
    }

    #[test]
    fn flush_coalesces_shared_ancestors() {
        // A 64-leaf sweep over one 8-ary subtree shares all interior
        // nodes: the combiner recomputes each once. 512 leaves = 4
        // levels (512/64/8/1); leaves 0..64 dirty 8 + 1 + 1 interior
        // nodes, versus 64 × 3 = 192 hashes walked eagerly.
        let mut t = tree(512).with_deferred_maintenance();
        for leaf in 0..64 {
            t.update_leaf(leaf, b"sweep");
        }
        assert_eq!(t.flush(), 10);
    }

    #[test]
    #[should_panic(expected = "flush deferred Merkle updates before reading the root")]
    fn root_with_pending_deferred_updates_panics() {
        let mut t = tree(64).with_deferred_maintenance();
        t.update_leaf(5, b"pending");
        let _ = t.root();
    }

    #[test]
    fn verify_force_flushes_pending_updates() {
        let mut t = tree(256).with_deferred_maintenance();
        t.update_leaf(9, b"new contents");
        assert_eq!(t.pending_dirty_leaves(), 1);
        // Interior nodes are stale here; verify must flush, then pass.
        assert!(t.verify_leaf(9, b"new contents").is_ok());
        assert_eq!(t.pending_dirty_leaves(), 0);
        assert!(t.verify_leaf(9, b"other contents").is_err());
    }

    #[test]
    fn verify_walkstats_pinned() {
        // Pins the exact cold-walk traffic so the sibling-group hashing
        // rework stays cost-model neutral: 4096 leaves = 5 levels, so a
        // cold verify climbs 4 levels fetching one metadata line each.
        let mut t = MerkleTree::new(4096, (1, 2), 64);
        let stats = t.verify_leaf(1234, b"").unwrap();
        assert_eq!(stats, WalkStats { nodes_fetched: 4, nodes_written: 0, levels_walked: 4 });
        // A cold update additionally writes the leaf plus one node per
        // level, and finds the three upper ancestors cached by the
        // verify above (leaf group 154's path was just touched).
        let stats = t.update_leaf(1234, b"x");
        assert_eq!(stats.levels_walked, 4);
        assert_eq!(stats.nodes_written, 5);
        // Cached re-verify is free.
        let stats = t.verify_leaf(1234, b"x").unwrap();
        assert_eq!(stats, WalkStats::default());
    }

    #[test]
    fn touch_log_matches_nodes_fetched_and_never_perturbs() {
        let mut plain = MerkleTree::new(4096, (7, 8), 8);
        let mut logged = MerkleTree::new(4096, (7, 8), 8).with_touch_log();
        let mut touches = Vec::new();
        let depth = 5u8; // 4096 leaves = 5 levels
        for (i, leaf) in [5usize, 13, 5, 4090, 77, 78, 79, 80, 5, 1024].into_iter().enumerate() {
            let data = [i as u8; 17];
            let (pu, lu) = (plain.update_leaf(leaf, &data), logged.update_leaf(leaf, &data));
            assert_eq!(pu, lu, "touch log perturbed an update walk");
            let before = touches.len();
            logged.drain_touches_into(&mut touches);
            assert_eq!((touches.len() - before) as u64, lu.nodes_fetched);
            let (pv, lv) =
                (plain.verify_leaf(leaf, &data).unwrap(), logged.verify_leaf(leaf, &data).unwrap());
            assert_eq!(pv, lv, "touch log perturbed a verify walk");
            let before = touches.len();
            logged.drain_touches_into(&mut touches);
            assert_eq!((touches.len() - before) as u64, lv.nodes_fetched);
        }
        assert!(touches.iter().all(|&l| l < depth), "touch levels must lie inside the tree");
        assert!(!touches.is_empty());
        // An untouched-log tree records nothing, and discard empties.
        plain.update_leaf(0, b"x");
        let mut none = Vec::new();
        plain.drain_touches_into(&mut none);
        assert!(none.is_empty());
        logged.update_leaf(4000, b"y");
        logged.discard_touches();
        logged.drain_touches_into(&mut none);
        assert!(none.is_empty());
    }

    proptest! {
        #[test]
        fn prop_updates_verify_and_tampering_detected(
            ops in prop::collection::vec((0usize..256, prop::collection::vec(any::<u8>(), 0..64)), 1..40)
        ) {
            let mut t = MerkleTree::new(256, (9, 9), 16);
            let mut shadow: std::collections::HashMap<usize, Vec<u8>> = Default::default();
            for (leaf, data) in &ops {
                t.update_leaf(*leaf, data);
                shadow.insert(*leaf, data.clone());
            }
            for (leaf, data) in &shadow {
                prop_assert!(t.verify_leaf(*leaf, data).is_ok());
                let mut wrong = data.clone();
                wrong.push(0xFF);
                prop_assert!(t.verify_leaf(*leaf, &wrong).is_err());
            }
        }

        /// Eager and deferred trees see identical walks and roots for
        /// arbitrary op interleavings (flush at arbitrary points).
        #[test]
        fn prop_deferred_mode_equivalent(
            ops in prop::collection::vec((0usize..256, any::<u8>(), any::<bool>()), 1..60)
        ) {
            let mut eager = MerkleTree::new(256, (3, 4), 16);
            let mut deferred = MerkleTree::new(256, (3, 4), 16).with_deferred_maintenance();
            for (leaf, byte, and_verify) in &ops {
                let data = [*byte; 9];
                prop_assert_eq!(eager.update_leaf(*leaf, &data), deferred.update_leaf(*leaf, &data));
                if *and_verify {
                    prop_assert_eq!(
                        eager.verify_leaf(*leaf, &data).unwrap(),
                        deferred.verify_leaf(*leaf, &data).unwrap()
                    );
                }
            }
            deferred.flush();
            prop_assert_eq!(eager.root(), deferred.root());
        }
    }
}
