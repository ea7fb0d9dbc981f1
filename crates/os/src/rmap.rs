//! Reverse mapping (`anon_vma` / `anon_vma_chain`).
//!
//! The paper's Figure 7: each original anonymous VMA gets an
//! `anon_vma` (AV); fork links the child's VMA onto the same AV via an
//! `anon_vma_chain` (AVC). Starting from a physical page's AV, the
//! kernel can traverse every forked process's copy of the same VMA —
//! this is how early reclamation finds candidate *copied* pages whose
//! metadata may still point at a dying source page (§III-D).
//!
//! Chains are doubly linked lists threaded through a slab of
//! index-linked nodes (`usize` links, no `Box`, no per-chain `Vec`).
//! `anon_vma` ids are handed out sequentially by this registry, so the
//! chain table is a dense `Vec` indexed by id. Linking appends at the
//! tail, so traversal order is link order, and traversal goes through
//! [`RmapRegistry::cursor`] — a `Copy` position token, so callers (the
//! kernel's early-reclaim walk) iterate without snapshotting the chain
//! into a `Vec`. The differential test below checks the registry
//! against a `HashMap<AnonVmaId, Vec<ChainLink>>` model.

use lelantus_types::VirtAddr;

/// Identifier of one `anon_vma`.
pub type AnonVmaId = u64;

/// Sentinel for "no node" in the intrusive slab.
const NIL: usize = usize::MAX;

/// One chain link: a process's VMA participating in the anon_vma.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainLink {
    /// Owning process.
    pub pid: u64,
    /// Start of that process's copy of the VMA.
    pub vma_start: VirtAddr,
}

/// Traversal position in one anon_vma's chain. `Copy`, so the holder
/// keeps no borrow of the registry between steps; the position is only
/// valid while the chain is not mutated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RmapCursor {
    av: AnonVmaId,
    /// Slab node index ([`NIL`] = end).
    pos: usize,
}

/// Slab node; `next` doubles as the free-list link when the node is
/// unused.
#[derive(Debug, Clone, Copy)]
struct LinkNode {
    link: ChainLink,
    prev: usize,
    next: usize,
}

/// Per-anon_vma chain head.
#[derive(Debug, Clone, Copy)]
struct Chain {
    head: usize,
    tail: usize,
    len: usize,
    live: bool,
}

/// Registry of anon_vma chains.
///
/// # Examples
///
/// ```
/// use lelantus_os::rmap::RmapRegistry;
/// use lelantus_types::VirtAddr;
///
/// let mut rmap = RmapRegistry::new();
/// let av = rmap.create();
/// rmap.link(av, 1, VirtAddr::new(0x1000));
/// rmap.link(av, 2, VirtAddr::new(0x1000)); // forked child
/// assert_eq!(rmap.links(av).len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct RmapRegistry {
    /// Indexed by `AnonVmaId` (ids are sequential).
    chains: Vec<Chain>,
    /// Node slab; freed nodes are recycled via `free_head`.
    nodes: Vec<LinkNode>,
    free_head: usize,
    /// Number of live (created, not destroyed) anon_vmas.
    live: usize,
}

impl Default for RmapRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl RmapRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self { chains: Vec::new(), nodes: Vec::new(), free_head: NIL, live: 0 }
    }

    /// Allocates a fresh `anon_vma` (first mapping of a new VMA).
    pub fn create(&mut self) -> AnonVmaId {
        let id = self.chains.len() as AnonVmaId;
        self.chains.push(Chain { head: NIL, tail: NIL, len: 0, live: true });
        self.live += 1;
        id
    }

    /// Links `(pid, vma_start)` onto `av`'s chain (fork, or first map).
    ///
    /// # Panics
    ///
    /// Panics if `av` is unknown or the link already exists.
    pub fn link(&mut self, av: AnonVmaId, pid: u64, vma_start: VirtAddr) {
        let nodes = &mut self.nodes;
        let chain = self.chains.get_mut(av as usize).filter(|c| c.live).expect("unknown anon_vma");
        let mut cur = chain.head;
        while cur != NIL {
            let n = &nodes[cur];
            assert!(
                !(n.link.pid == pid && n.link.vma_start == vma_start),
                "duplicate anon_vma_chain link"
            );
            cur = n.next;
        }
        let node = LinkNode { link: ChainLink { pid, vma_start }, prev: chain.tail, next: NIL };
        let idx = if self.free_head != NIL {
            let idx = self.free_head;
            self.free_head = nodes[idx].next;
            nodes[idx] = node;
            idx
        } else {
            nodes.push(node);
            nodes.len() - 1
        };
        if chain.tail != NIL {
            nodes[chain.tail].next = idx;
        } else {
            chain.head = idx;
        }
        chain.tail = idx;
        chain.len += 1;
    }

    /// Unlinks a process's VMA from the chain (exit / munmap). The
    /// anon_vma itself persists until [`RmapRegistry::destroy`].
    pub fn unlink(&mut self, av: AnonVmaId, pid: u64, vma_start: VirtAddr) {
        let nodes = &mut self.nodes;
        let Some(chain) = self.chains.get_mut(av as usize).filter(|c| c.live) else {
            return;
        };
        let mut cur = chain.head;
        while cur != NIL {
            let n = nodes[cur];
            if n.link.pid == pid && n.link.vma_start == vma_start {
                // Splice out (links are unique, so one hit).
                if n.prev != NIL {
                    nodes[n.prev].next = n.next;
                } else {
                    chain.head = n.next;
                }
                if n.next != NIL {
                    nodes[n.next].prev = n.prev;
                } else {
                    chain.tail = n.prev;
                }
                chain.len -= 1;
                nodes[cur].next = self.free_head;
                self.free_head = cur;
                return;
            }
            cur = n.next;
        }
    }

    /// All chain links of `av`, in link order (empty if unknown). This
    /// collects — it is for tests and diagnostics; hot paths traverse
    /// via [`RmapRegistry::cursor`] instead.
    pub fn links(&self, av: AnonVmaId) -> Vec<ChainLink> {
        let mut out = Vec::with_capacity(self.link_count(av));
        let mut cur = self.cursor(av);
        while let Some(link) = self.link_at(cur) {
            out.push(link);
            cur = self.advance(cur);
        }
        out
    }

    /// Number of links on `av`'s chain (0 if unknown).
    pub fn link_count(&self, av: AnonVmaId) -> usize {
        self.live_chain(av).map_or(0, |c| c.len)
    }

    /// The chain of `av` unless it is unknown or destroyed.
    fn live_chain(&self, av: AnonVmaId) -> Option<&Chain> {
        self.chains.get(av as usize).filter(|c| c.live)
    }

    /// Cursor at the first link of `av`'s chain. Walk with
    /// [`RmapRegistry::link_at`] / [`RmapRegistry::advance`]; the
    /// cursor is a plain value, so no borrow of the registry is held
    /// between steps. Positions are invalidated by chain mutation.
    pub fn cursor(&self, av: AnonVmaId) -> RmapCursor {
        RmapCursor { av, pos: self.live_chain(av).map_or(NIL, |c| c.head) }
    }

    /// The link under the cursor, or `None` at end of chain.
    pub fn link_at(&self, cursor: RmapCursor) -> Option<ChainLink> {
        (cursor.pos != NIL).then(|| self.nodes[cursor.pos].link)
    }

    /// Cursor advanced one link.
    pub fn advance(&self, cursor: RmapCursor) -> RmapCursor {
        let pos = if cursor.pos == NIL { NIL } else { self.nodes[cursor.pos].next };
        RmapCursor { av: cursor.av, pos }
    }

    /// Destroys an anon_vma once its chain is empty.
    ///
    /// # Panics
    ///
    /// Panics if links remain.
    pub fn destroy(&mut self, av: AnonVmaId) {
        if let Some(chain) = self.chains.get_mut(av as usize).filter(|c| c.live) {
            assert!(chain.len == 0, "destroying anon_vma with live links");
            chain.live = false;
            self.live -= 1;
        }
    }

    /// Number of live anon_vmas.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no anon_vmas exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// The registry as `HashMap<AnonVmaId, Vec<ChainLink>>`: the model
    /// the slab-linked chains are checked against.
    #[derive(Default)]
    struct MapRmap {
        next_id: AnonVmaId,
        chains: HashMap<AnonVmaId, Vec<ChainLink>>,
    }

    impl MapRmap {
        fn create(&mut self) -> AnonVmaId {
            let id = self.next_id;
            self.next_id += 1;
            self.chains.insert(id, Vec::new());
            id
        }

        fn link(&mut self, av: AnonVmaId, pid: u64, vma_start: VirtAddr) {
            let chain = self.chains.get_mut(&av).expect("unknown anon_vma");
            assert!(!chain.iter().any(|l| l.pid == pid && l.vma_start == vma_start));
            chain.push(ChainLink { pid, vma_start });
        }

        fn unlink(&mut self, av: AnonVmaId, pid: u64, vma_start: VirtAddr) {
            if let Some(chain) = self.chains.get_mut(&av) {
                chain.retain(|l| !(l.pid == pid && l.vma_start == vma_start));
            }
        }

        fn links(&self, av: AnonVmaId) -> Vec<ChainLink> {
            self.chains.get(&av).cloned().unwrap_or_default()
        }

        fn destroy(&mut self, av: AnonVmaId) {
            if let Some(chain) = self.chains.remove(&av) {
                assert!(chain.is_empty(), "destroying anon_vma with live links");
            }
        }
    }

    #[test]
    fn fork_chain_traversal() {
        let mut r = RmapRegistry::new();
        let av = r.create();
        r.link(av, 1, VirtAddr::new(0x1000));
        r.link(av, 2, VirtAddr::new(0x1000));
        r.link(av, 3, VirtAddr::new(0x1000));
        let pids: Vec<u64> = r.links(av).iter().map(|l| l.pid).collect();
        assert_eq!(pids, vec![1, 2, 3]);
        assert_eq!(r.link_count(av), 3);
    }

    #[test]
    fn cursor_walk_matches_links() {
        let mut r = RmapRegistry::new();
        let av = r.create();
        for pid in 1..=5 {
            r.link(av, pid, VirtAddr::new(0x1000));
        }
        let mut walked = Vec::new();
        let mut cur = r.cursor(av);
        while let Some(link) = r.link_at(cur) {
            walked.push(link);
            cur = r.advance(cur);
        }
        assert_eq!(walked, r.links(av));
    }

    #[test]
    fn unlink_and_destroy() {
        let mut r = RmapRegistry::new();
        let av = r.create();
        r.link(av, 1, VirtAddr::new(0x1000));
        r.unlink(av, 1, VirtAddr::new(0x1000));
        assert!(r.links(av).is_empty());
        r.destroy(av);
        assert!(r.is_empty());
    }

    #[test]
    fn unlink_middle_preserves_order() {
        let mut r = RmapRegistry::new();
        let av = r.create();
        for pid in 1..=4 {
            r.link(av, pid, VirtAddr::new(0x1000));
        }
        r.unlink(av, 2, VirtAddr::new(0x1000));
        let pids: Vec<u64> = r.links(av).iter().map(|l| l.pid).collect();
        assert_eq!(pids, vec![1, 3, 4]);
        // Slab reuse: a new link lands at the tail regardless of
        // which node slot it recycles.
        r.link(av, 9, VirtAddr::new(0x1000));
        let pids: Vec<u64> = r.links(av).iter().map(|l| l.pid).collect();
        assert_eq!(pids, vec![1, 3, 4, 9]);
    }

    #[test]
    #[should_panic(expected = "live links")]
    fn destroy_with_links_panics() {
        let mut r = RmapRegistry::new();
        let av = r.create();
        r.link(av, 1, VirtAddr::new(0x1000));
        r.destroy(av);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_link_panics() {
        let mut r = RmapRegistry::new();
        let av = r.create();
        r.link(av, 1, VirtAddr::new(0x1000));
        r.link(av, 1, VirtAddr::new(0x1000));
    }

    #[test]
    fn ids_are_unique() {
        let mut r = RmapRegistry::new();
        let a = r.create();
        let b = r.create();
        assert_ne!(a, b);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn destroyed_ids_stay_dead() {
        let mut r = RmapRegistry::new();
        let a = r.create();
        r.destroy(a);
        assert_eq!(r.link_count(a), 0);
        assert!(r.links(a).is_empty());
        assert!(r.link_at(r.cursor(a)).is_none());
        let b = r.create();
        assert_ne!(a, b);
    }

    #[test]
    fn differential_against_map_model() {
        // Deterministic op soup across several chains: link order,
        // counts, and traversal must match the model exactly.
        let mut fast = RmapRegistry::new();
        let mut model = MapRmap::default();
        let mut x: u64 = 0xfeed;
        let mut step = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x >> 33
        };
        let mut live_avs: Vec<AnonVmaId> = Vec::new();
        let mut all_avs: Vec<AnonVmaId> = Vec::new();
        for i in 0..20_000u64 {
            match step() % 8 {
                0 => {
                    let (a, b) = (fast.create(), model.create());
                    assert_eq!(a, b);
                    live_avs.push(a);
                    all_avs.push(a);
                }
                1..=4 if !live_avs.is_empty() => {
                    let av = live_avs[(step() as usize) % live_avs.len()];
                    let pid = step() % 6;
                    let va = VirtAddr::new((step() % 4) * 0x1000);
                    let dup = fast.links(av).iter().any(|l| l.pid == pid && l.vma_start == va);
                    if !dup {
                        fast.link(av, pid, va);
                        model.link(av, pid, va);
                    }
                }
                5 if !live_avs.is_empty() => {
                    let av = live_avs[(step() as usize) % live_avs.len()];
                    let pid = step() % 6;
                    let va = VirtAddr::new((step() % 4) * 0x1000);
                    fast.unlink(av, pid, va);
                    model.unlink(av, pid, va);
                }
                6 if !live_avs.is_empty() => {
                    let slot = (step() as usize) % live_avs.len();
                    let av = live_avs[slot];
                    if fast.link_count(av) == 0 {
                        fast.destroy(av);
                        model.destroy(av);
                        live_avs.swap_remove(slot);
                    }
                }
                _ if !all_avs.is_empty() => {
                    let av = all_avs[(step() as usize) % all_avs.len()];
                    assert_eq!(fast.links(av), model.links(av), "step {i}");
                    assert_eq!(fast.link_count(av), model.links(av).len());
                }
                _ => {}
            }
            assert_eq!(fast.len(), model.chains.len(), "step {i}");
        }
        for &av in &all_avs {
            assert_eq!(fast.links(av), model.links(av));
        }
    }
}
