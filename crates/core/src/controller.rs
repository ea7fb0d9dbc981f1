//! The secure memory controller datapath and CoW commands.
//!
//! Implementation notes (all paper references are to the ISCA 2020
//! Lelantus paper):
//!
//! * **Datapath.** Every data line in NVM is AES counter-mode
//!   ciphertext. Reads fetch the region's counter block (through the
//!   counter cache) and the data line in parallel; the pad is ready
//!   `aes_latency` after the counters arrive (§II-B, Figure 1).
//! * **Uncopied lines.** Under a Lelantus scheme, a minor counter of 0
//!   on a CoW region redirects the read along the source chain
//!   (§III-C, Figure 6); writes complete the copy implicitly by
//!   incrementing the minor from 0 (§III-B).
//! * **Chain shortening.** `page_copy` of a fully-unmodified CoW page
//!   records the *grandparent* instead (§III-E), so unmodified
//!   fork-of-fork chains stay one hop deep.
//! * **Integrity.** Counter blocks are protected by a Bonsai Merkle
//!   Tree; verification stops at the first cached (trusted) node. Node
//!   fetches are charged at row-buffer-hit latency because tree levels
//!   are contiguous in the metadata area — a simplification that
//!   matches the paper's "<2 % overhead" observation.
//! * **Zero pages.** Reads that land in (or chain-resolve to) the OS
//!   zero area return zeros without touching NVM data, which is how
//!   lazy zeroing (`page_copy` from the zero page) and Silent
//!   Shredder's zero elision cost nothing.
//! * **Pads before data.** A pad depends only on its IV, so each bulk
//!   page operation predicts the IVs it will use from the counters and
//!   makes their pads in one batch (`PadWindow`) before it touches
//!   any data, as the paper's controller overlaps AES with the fetch.

use crate::config::{ControllerConfig, SchemeKind};
use crate::stats::ControllerStats;
use lelantus_cache::LineBackend;
use lelantus_crypto::ctr::{xor_line, CtrEngine, IvSpec};
use lelantus_crypto::merkle::MerkleTree;
use lelantus_crypto::siphash::{DataMacBatch, SipHash24, DATA_MAC_LANES};
use lelantus_metadata::counter_block::{CounterBlock, CounterEncoding, MINORS};
use lelantus_metadata::counter_cache::{CounterCache, WritePolicy};
use lelantus_metadata::cow_meta::{decode_slot, encode_slot, CowCache};
use lelantus_metadata::layout::MetadataLayout;
use lelantus_metadata::mac::{decode_mac_line, encode_mac_line, MacCache};
use lelantus_nvm::{NvmDevice, NvmStats};
use lelantus_obs::{
    selfprof, AccessDir, CycleCategory, Event, EventKind, HeatLane, HistKind, LayerRecorder,
};
use lelantus_types::{Cycles, PhysAddr, LINE_BYTES, REGION_BYTES};

/// Key of the Bonsai Merkle tree over counter blocks.
pub const MERKLE_KEY: (u64, u64) = (0x6c65_6c61_6e74_7573, 0x6973_6361_3230_3230);

/// Key of the per-line data MACs.
pub const DATA_MAC_KEY: (u64, u64) = (0x6d61_635f_6b65_7931, 0x6d61_635f_6b65_7932);

/// What a crash-recovery pass found (see
/// [`SecureMemoryController::crash_and_recover`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Counter blocks re-read and re-verified from NVM.
    pub regions_verified: u64,
    /// Non-empty CoW-metadata slots found in NVM (Lelantus-CoW). The
    /// slots are the mappings' only record, so nothing is rebuilt:
    /// lookups after recovery read them from NVM through a cold CoW
    /// cache.
    pub cow_mappings_recovered: u64,
}

/// What to do with one deferred data-MAC tag.
#[derive(Debug, Clone, Copy)]
enum MacJob {
    /// Store it in `slot` of MAC line `index`, which the tag write has
    /// already made most recent and dirty.
    Install { index: u64, slot: usize },
    /// Compare it with `stored`, the nonzero tag the MAC line held for
    /// the data line at `line_addr` when that line was read.
    Verify { line_addr: PhysAddr, stored: u64 },
}

/// The deferred MAC combiner: the inputs and jobs of up to
/// [`DATA_MAC_LANES`] data-MAC tags, computed in one kernel call by
/// [`SecureMemoryController::mac_flush`].
///
/// Only the SipHash evaluation is deferred; every MAC-cache access,
/// NVM access and statistic happens when the tag is queued. The
/// controller evaluates the queue
///
/// * before a MAC line with a pending install leaves the cache (an
///   eviction, `drain_dirty` in `flush_all` and at a crash),
/// * before a verify reads a slot with a pending install,
/// * before a public call that queued a verify returns, so a mismatch
///   panics inside the call that read the line.
#[derive(Debug, Clone)]
struct MacQueue {
    inputs: DataMacBatch,
    jobs: [MacJob; DATA_MAC_LANES],
    /// Whether a queued job is a verify.
    verify_pending: bool,
}

impl Default for MacQueue {
    fn default() -> Self {
        let idle = MacJob::Verify { line_addr: PhysAddr::new(0), stored: 0 };
        Self {
            inputs: DataMacBatch::default(),
            jobs: [idle; DATA_MAC_LANES],
            verify_pending: false,
        }
    }
}

impl MacQueue {
    /// Whether a queued install targets MAC line `index` (at `slot`,
    /// when given).
    fn installs_into(&self, index: u64, slot: Option<usize>) -> bool {
        self.jobs[..self.inputs.len()].iter().any(|job| {
            matches!(*job, MacJob::Install { index: i, slot: s }
                if i == index && slot.is_none_or(|slot| slot == s))
        })
    }
}

/// Pads one page operation may fill ahead: a read and a write pad for
/// each of a region's lines, and the pad of the write whose minor
/// overflow re-encrypts the region.
const PAD_WINDOW: usize = 2 * MINORS + 1;

/// The lines of `block` whose minor is nonzero, one bit per line.
fn copied_lines(block: &CounterBlock) -> u64 {
    block
        .minors
        .iter()
        .enumerate()
        .fold(0, |mask, (line, &minor)| mask | u64::from(minor != 0) << line)
}

/// One-time pads made ahead of a bulk page operation, in the order the
/// operation will ask for them.
///
/// A bulk path fills the window from the counters it predicts its
/// lines will use; [`SecureMemoryController::pad`] serves the next pad
/// only if its IV is exactly the one asked for, and otherwise drops the
/// window and computes the pad on the spot. A pad is a function of its
/// IV alone, so a wrong prediction (a minor overflow in mid-page, an
/// overlapping copy) costs time, never correctness.
#[derive(Clone)]
struct PadWindow {
    ivs: [IvSpec; PAD_WINDOW],
    pads: [[u8; LINE_BYTES]; PAD_WINDOW],
    /// IVs filled.
    len: usize,
    /// Index of the next pad to serve.
    next: usize,
    /// Pads served from the window, and pads asked for that it did not
    /// hold (each then made on the spot).
    #[cfg(test)]
    served: u64,
    #[cfg(test)]
    missed: u64,
}

impl std::fmt::Debug for PadWindow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PadWindow").field("len", &self.len).field("next", &self.next).finish()
    }
}

impl PadWindow {
    fn new() -> Box<Self> {
        let idle = IvSpec { line_addr: 0, major: 0, minor: 0 };
        Box::new(Self {
            ivs: [idle; PAD_WINDOW],
            pads: [[0; LINE_BYTES]; PAD_WINDOW],
            len: 0,
            next: 0,
            #[cfg(test)]
            served: 0,
            #[cfg(test)]
            missed: 0,
        })
    }

    /// Empties the window.
    fn clear(&mut self) {
        self.len = 0;
        self.next = 0;
    }

    /// Queues `iv` for the next fill; false when the window is full.
    fn push(&mut self, iv: IvSpec) -> bool {
        let Some(slot) = self.ivs.get_mut(self.len) else { return false };
        *slot = iv;
        self.len += 1;
        true
    }

    /// Makes the pad of every queued IV.
    fn fill(&mut self, engine: &CtrEngine) {
        engine.pads(&self.ivs[..self.len], &mut self.pads[..self.len]);
    }

    /// The next pad if its IV is `iv`; any other IV drops the window.
    fn take(&mut self, iv: IvSpec) -> Option<[u8; LINE_BYTES]> {
        let hit = self.next < self.len && self.ivs[self.next] == iv;
        #[cfg(test)]
        {
            self.served += hit as u64;
            self.missed += !hit as u64;
        }
        if !hit {
            self.clear();
            return None;
        }
        self.next += 1;
        Some(self.pads[self.next - 1])
    }
}

/// The secure NVM memory controller.
///
/// See the crate-level docs for an overview and example.
#[derive(Debug, Clone)]
pub struct SecureMemoryController {
    config: ControllerConfig,
    nvm: NvmDevice,
    engine: CtrEngine,
    merkle: MerkleTree,
    counter_cache: CounterCache,
    cow_cache: CowCache,
    mac_cache: MacCache,
    /// Data-MAC tags not yet computed (see [`MacQueue`]).
    mac_queue: MacQueue,
    /// Pads made ahead of the current bulk operation (see
    /// [`PadWindow`]).
    pads: Box<PadWindow>,
    mac_key: SipHash24,
    layout: MetadataLayout,
    /// The Merkle root as persisted in the controller's small
    /// battery/NVM register domain — the trust anchor recovery
    /// verifies against.
    persisted_root: u64,
    stats: ControllerStats,
}

impl SecureMemoryController {
    /// Builds a controller (and its NVM device) from `config` with
    /// every view off.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: ControllerConfig) -> Self {
        Self::with_recorder(config, LayerRecorder::default())
    }

    /// Builds a controller (and its NVM device) from `config` whose
    /// ledger segments, metadata-traffic heat, line footprints and
    /// datapath events are recorded into `rec`, which the device holds
    /// for the whole stack.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn with_recorder(config: ControllerConfig, rec: LayerRecorder) -> Self {
        config.validate().expect("invalid controller config");
        let layout = MetadataLayout::for_data_bytes(config.data_bytes);
        let mut merkle =
            MerkleTree::new(layout.regions() as usize, MERKLE_KEY, config.merkle_cache_nodes)
                .with_deferred_maintenance();
        if rec.heat_grid().is_some() {
            merkle = merkle.with_touch_log();
        }
        let persisted_root = merkle.root();
        let mut nvm = NvmDevice::new(config.nvm.clone());
        *nvm.recorder_mut() = rec;
        Self {
            nvm,
            engine: CtrEngine::new(config.key),
            merkle,
            counter_cache: CounterCache::new(config.counter_cache),
            cow_cache: CowCache::new(config.cow_cache_entries),
            mac_cache: MacCache::new(config.mac_cache_lines.max(1)),
            mac_queue: MacQueue::default(),
            pads: PadWindow::new(),
            mac_key: SipHash24::new(DATA_MAC_KEY.0, DATA_MAC_KEY.1),
            layout,
            persisted_root,
            stats: ControllerStats::default(),
            config,
        }
    }

    /// The layer recorder (held by the device; see [`LayerRecorder`]).
    pub fn recorder(&self) -> &LayerRecorder {
        self.nvm.recorder()
    }

    /// Mutable recorder access: the system layer drains segments and
    /// records fault heat through it.
    pub fn recorder_mut(&mut self) -> &mut LayerRecorder {
        self.nvm.recorder_mut()
    }

    /// Records one metadata-traffic count against a data region (no-op
    /// when the heatmap is off).
    #[inline]
    fn heat(&mut self, lane: HeatLane, region: u64) {
        self.nvm.recorder_mut().heat(lane, region);
    }

    /// Drains the Merkle touch log, attributing each fetched node line
    /// (at its tree level) to the data region whose walk fetched it.
    fn heat_merkle_touches(&mut self, region: u64) {
        let Some(h) = self.nvm.recorder_mut().heat_grid_mut() else { return };
        for &level in self.merkle.touches() {
            h.record(HeatLane::merkle(level as usize), region);
        }
        self.merkle.discard_touches();
    }

    /// Records a cycle-attribution segment when the ledger is enabled.
    /// Purely observational: never affects timing, stats or contents.
    #[inline]
    fn seg(&mut self, start: Cycles, end: Cycles, cat: CycleCategory) {
        self.nvm.recorder_mut().seg(start, end, cat);
    }

    /// The controller configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Controller event counters.
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// Implicit (deferred) copies performed so far — cheap single-field
    /// read for per-store span detection on the tail-recorder path.
    pub fn implicit_copies(&self) -> u64 {
        self.stats.implicit_copies
    }

    /// Backing-device counters (physical reads/writes, row hits...).
    pub fn nvm_stats(&self) -> NvmStats {
        self.nvm.stats()
    }

    /// Wear tracker of the backing device.
    pub fn wear(&self) -> &lelantus_nvm::WearTracker {
        self.nvm.wear()
    }

    /// Counter-cache statistics.
    pub fn counter_cache_stats(&self) -> lelantus_metadata::counter_cache::CounterCacheStats {
        self.counter_cache.stats()
    }

    /// CoW-cache statistics (meaningful for Lelantus-CoW).
    pub fn cow_cache_stats(&self) -> lelantus_metadata::cow_meta::CowCacheStats {
        self.cow_cache.stats()
    }

    /// MAC-cache statistics.
    pub fn mac_cache_stats(&self) -> lelantus_metadata::mac::MacCacheStats {
        self.mac_cache.stats()
    }

    /// Test hook: corrupts a stored data line in NVM (attacker flips
    /// bits in the array); the next MAC-verified read panics.
    pub fn tamper_data_for_test(&mut self, addr: PhysAddr) {
        let line = addr.line_align();
        let mut bytes = self.nvm.peek_line(line);
        bytes[0] ^= 0x01;
        self.nvm.poke_line(line, bytes);
    }

    /// Drains every buffered write (CPU-side counter state and the
    /// device write queue) to the NVM array; returns the completion
    /// instant. Call at simulation end so write counts are exact.
    pub fn flush_all(&mut self, now: Cycles) -> Cycles {
        let _prof = selfprof::scope("ctrl::flush_all");
        self.mac_flush();
        let encoding = self.encoding();
        let mut done = now;
        for ev in self.counter_cache.drain_dirty() {
            let t = self.counter_nvm_write(ev.region, &ev.block, encoding, now, false);
            done = done.max(t);
        }
        for ev in self.mac_cache.drain_dirty() {
            self.writeback_mac_line(ev.index, &ev.macs, now);
        }
        let done = done.max(self.nvm.flush(now));
        self.flush_metadata();
        done
    }

    /// Flushes deferred host-side metadata maintenance — pending
    /// data-MAC tags and stale Merkle interior nodes — and
    /// re-syncs the persisted root register. Purely host-side: no
    /// simulated traffic, cache tick, or statistic moves. Called at the
    /// controller's flush points (writeback drains, page-copy
    /// commands, epoch boundaries).
    pub fn flush_metadata(&mut self) {
        self.mac_flush();
        self.merkle.flush();
        self.persisted_root = self.merkle.root();
    }

    /// The current Merkle root over the counter blocks, flushing any
    /// deferred maintenance first (equivalence-test observability).
    pub fn merkle_root(&mut self) -> u64 {
        self.merkle.flush();
        self.merkle.root()
    }

    fn encoding(&self) -> CounterEncoding {
        self.config.scheme.encoding()
    }

    fn is_zero_region(&self, region: u64) -> bool {
        region < self.config.zero_area_bytes / REGION_BYTES
    }

    fn region_of(&self, addr: PhysAddr) -> u64 {
        self.layout.region_of(addr)
    }

    fn line_addr(&self, region: u64, line: usize) -> PhysAddr {
        self.layout.region_base(region) + (line * LINE_BYTES) as u64
    }

    /// Deterministic pseudo-random initial minor value in `1..=max`
    /// (the paper randomizes initial counters to model overflow §V-A).
    fn initial_minor(&self, region: u64, line: usize) -> u8 {
        if !self.config.randomize_counters {
            return 1;
        }
        let max = self.encoding().minor_max(false) as u64;
        let mut x = region
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(line as u64)
            .wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 31;
        (x % max + 1) as u8
    }

    /// Lazily materializes the boot-time counter block of `region`
    /// (free of charge: this models factory/boot initialization). A
    /// region is booted once its counter line exists in NVM.
    fn ensure_region_init(&mut self, region: u64) {
        let caddr = self.layout.counter_addr_of_region(region);
        if self.nvm.holds_line(caddr) {
            return;
        }
        let bytes = self.boot_block(region).encode(self.encoding());
        self.nvm.poke_line(caddr, bytes);
        self.merkle.update_leaf(region as usize, &bytes);
        // Boot-time initialization is free of charge: its walk stats
        // are dropped above, so its touch log must be dropped too.
        self.merkle.discard_touches();
    }

    /// The counter block `region` boots with.
    fn boot_block(&self, region: u64) -> CounterBlock {
        let mut block = CounterBlock::fresh_regular(1);
        for line in 0..MINORS {
            block.minors[line] = self.initial_minor(region, line);
        }
        block
    }

    /// The counter block a fetch of `region` would return now, read
    /// without moving any statistic, cache recency or device state.
    fn peek_counter(&self, region: u64) -> CounterBlock {
        if let Some(block) = self.counter_cache.peek(region) {
            return block;
        }
        let caddr = self.layout.counter_addr_of_region(region);
        if self.nvm.holds_line(caddr) {
            CounterBlock::decode(&self.nvm.peek_line(caddr), self.encoding())
        } else {
            self.boot_block(region)
        }
    }

    /// Fetches the counter block of `region` through the counter
    /// cache, verifying integrity on a miss.
    ///
    /// # Panics
    ///
    /// Panics on an integrity violation — a real controller would halt
    /// the machine.
    #[inline]
    fn fetch_counter(&mut self, region: u64, now: Cycles) -> (CounterBlock, Cycles) {
        match self.counter_cache.get(region) {
            Some(block) => (block, now + Cycles::new(1)),
            None => self.fetch_counter_miss(region, now),
        }
    }

    /// The miss path of [`Self::fetch_counter`], kept out of line so
    /// the hit path inlines into its callers.
    #[inline(never)]
    fn fetch_counter_miss(&mut self, region: u64, now: Cycles) -> (CounterBlock, Cycles) {
        self.stats.counter_fetches += 1;
        self.heat(HeatLane::CounterFill, region);
        if let Some(log) = self.nvm.recorder_mut().events_mut() {
            log.emit(Event { cycle: now, kind: EventKind::CounterFetch { region } });
        }
        self.ensure_region_init(region);
        let caddr = self.layout.counter_addr_of_region(region);
        let (bytes, t) = self.nvm.read_line(caddr, now);
        let walk = self
            .merkle
            .verify_leaf(region as usize, &bytes)
            .expect("counter-block integrity violation");
        self.stats.merkle_fetches += walk.nodes_fetched;
        self.heat_merkle_touches(region);
        if walk.nodes_fetched > 0 {
            if let Some(log) = self.nvm.recorder_mut().events_mut() {
                log.emit(Event {
                    cycle: now,
                    kind: EventKind::MerkleFetch { region, nodes: walk.nodes_fetched },
                });
            }
        }
        // Tree nodes are contiguous: charge row-hit latency per fetch.
        let t_read = t;
        let t = t + Cycles::new(walk.nodes_fetched * self.config.nvm.row_hit_latency);
        self.seg(now, t_read, CycleCategory::CounterFill);
        self.seg(t_read, t, CycleCategory::MerkleWalk);
        let block = CounterBlock::decode(&bytes, self.encoding());
        if let Some(ev) = self.counter_cache.insert(region, block, false) {
            let encoding = self.encoding();
            self.counter_nvm_write(ev.region, &ev.block, encoding, now, false);
        }
        if let Some(log) = self.nvm.recorder_mut().events_mut() {
            log.record(HistKind::CounterCacheOccupancy, self.counter_cache.resident() as u64);
        }
        (block, t)
    }

    fn counter_nvm_write(
        &mut self,
        region: u64,
        block: &CounterBlock,
        encoding: CounterEncoding,
        now: Cycles,
        durable: bool,
    ) -> Cycles {
        self.stats.counter_writebacks += 1;
        if let Some(log) = self.nvm.recorder_mut().events_mut() {
            log.emit(Event { cycle: now, kind: EventKind::CounterWriteback { region } });
        }
        let bytes = block.encode(encoding);
        let caddr = self.layout.counter_addr_of_region(region);
        // Write-through counter management exists for persistence, so
        // its writes bypass the volatile queue (paper §V-E); ordinary
        // write-back evictions are posted like any other write.
        let t = if durable {
            self.nvm.write_line_durable(caddr, bytes, now)
        } else {
            self.nvm.write_line(caddr, bytes, now)
        };
        self.seg(now, t, CycleCategory::CounterFill);
        let walk = self.merkle.update_leaf(region as usize, &bytes);
        self.stats.merkle_fetches += walk.nodes_fetched;
        self.heat_merkle_touches(region);
        if walk.nodes_fetched > 0 {
            if let Some(log) = self.nvm.recorder_mut().events_mut() {
                log.emit(Event {
                    cycle: now,
                    kind: EventKind::MerkleFetch { region, nodes: walk.nodes_fetched },
                });
            }
        }
        // The persisted-root register re-syncs at flush points
        // (`flush_metadata`) instead of per write; it is only ever read
        // after a flush, so recovery sees the same value either way.
        t
    }

    /// Installs an updated counter block, honouring the write policy.
    fn update_counter(&mut self, region: u64, block: CounterBlock, now: Cycles) -> Cycles {
        if !self.counter_cache.update(region, block) {
            if let Some(ev) = self.counter_cache.insert(region, block, true) {
                let encoding = self.encoding();
                self.counter_nvm_write(ev.region, &ev.block, encoding, now, false);
            }
        }
        match self.counter_cache.config().policy {
            WritePolicy::WriteBack => now + Cycles::new(1),
            WritePolicy::WriteThrough => {
                let encoding = self.encoding();
                let t = self.counter_nvm_write(region, &block, encoding, now, true);
                self.counter_cache.mark_clean(region);
                t
            }
        }
    }

    /// Looks up the CoW source of `region` given its (already fetched)
    /// counter block. A CoW-cache miss reads the region's slot line
    /// from NVM and decodes the mapping from it (Lelantus-CoW only).
    fn source_of(
        &mut self,
        region: u64,
        block: &CounterBlock,
        now: Cycles,
    ) -> (Option<u64>, Cycles) {
        match self.config.scheme {
            SchemeKind::LelantusResized => (block.cow_source(), now),
            SchemeKind::LelantusCow => {
                if let Some(mapping) = self.cow_cache.lookup(region) {
                    (mapping, now + Cycles::new(1))
                } else {
                    self.stats.cow_meta_reads += 1;
                    if let Some(log) = self.nvm.recorder_mut().events_mut() {
                        log.emit(Event { cycle: now, kind: EventKind::CowMetaRead { region } });
                    }
                    let (slot_line, off) = self.layout.cow_meta_slot_of_region(region);
                    let (line, t) = self.nvm.read_line(slot_line, now);
                    self.seg(now, t, CycleCategory::CowRedirect);
                    let mapping = decode_slot(&line, off);
                    self.cow_cache.fill(region, mapping);
                    (mapping, t)
                }
            }
            _ => (None, now),
        }
    }

    /// Writes `region`'s CoW-table slot (Lelantus-CoW), charging one
    /// metadata line write, and keeps the CoW cache coherent.
    fn write_cow_mapping(&mut self, region: u64, src: Option<u64>, now: Cycles) -> Cycles {
        self.cow_cache.fill(region, src);
        self.stats.cow_meta_writes += 1;
        if let Some(log) = self.nvm.recorder_mut().events_mut() {
            log.emit(Event { cycle: now, kind: EventKind::CowMetaWrite { region } });
        }
        let (slot_line, off) = self.layout.cow_meta_slot_of_region(region);
        // Read-modify-write of the 64 B metadata line, functionally.
        let mut line = self.nvm.peek_line(slot_line);
        encode_slot(&mut line, off, src);
        let t = self.nvm.write_line(slot_line, line, now);
        self.seg(now, t, CycleCategory::CowRedirect);
        t
    }

    /// Queues the keyed tag binding a ciphertext line to its address
    /// and counter (Rogers et al.: replaying stale data then requires
    /// forging this), evaluating the queue once it is full.
    fn mac_queue_push(
        &mut self,
        job: MacJob,
        line_addr: PhysAddr,
        cipher: &[u8; LINE_BYTES],
        major: u64,
        minor: u8,
    ) {
        let lane = self.mac_queue.inputs.push(cipher, line_addr.as_u64(), major, minor);
        self.mac_queue.jobs[lane] = job;
        self.mac_queue.verify_pending |= matches!(job, MacJob::Verify { .. });
        if self.mac_queue.inputs.is_full() {
            self.mac_flush();
        }
    }

    /// Computes every queued tag in one kernel call, storing installs
    /// in their (resident) MAC lines and checking verifies. Host-side
    /// only: no recency move, statistic or device access.
    ///
    /// # Panics
    ///
    /// Panics on a verify mismatch: the data was tampered with or
    /// replayed.
    fn mac_flush(&mut self) {
        let queue = &mut self.mac_queue;
        let n = queue.inputs.len();
        if n == 0 {
            return;
        }
        let tags = self.mac_key.data_macs8(&queue.inputs);
        queue.inputs.clear();
        queue.verify_pending = false;
        // Installs come in runs on one MAC line (eight data lines share
        // it): look each run's line up once. Every install lands before
        // a mismatch panics, so the cache stays whole.
        let mut open: Option<(u64, &mut [u64; 8])> = None;
        let mut mismatch = None;
        for (job, &tag) in queue.jobs[..n].iter().zip(&tags) {
            match *job {
                MacJob::Install { index, slot } => {
                    if open.as_ref().is_none_or(|(i, _)| *i != index) {
                        let line = self.mac_cache.tags_mut(index).unwrap_or_else(|| {
                            panic!("MAC line {index} left the cache with a pending tag")
                        });
                        open = Some((index, line));
                    }
                    open.as_mut().expect("opened above").1[slot] = tag;
                }
                MacJob::Verify { line_addr, stored } => {
                    if stored != tag {
                        mismatch = mismatch.or(Some((line_addr, stored, tag)));
                    }
                }
            }
        }
        if let Some((line_addr, stored, tag)) = mismatch {
            assert_eq!(
                stored, tag,
                "data-MAC integrity violation at {line_addr} (tampered or replayed line)"
            );
        }
    }

    /// Checks the verifies the current public call queued (see
    /// [`MacQueue`]).
    fn mac_check_verifies(&mut self) {
        if self.mac_queue.verify_pending {
            self.mac_flush();
        }
    }

    /// Fetches the MAC line covering `line_addr` through the MAC cache.
    fn fetch_mac_line(&mut self, line_addr: PhysAddr, now: Cycles) -> ([u64; 8], Cycles) {
        let index = self.layout.mac_line_index(line_addr);
        if let Some(line) = self.mac_cache.get(index) {
            return (line, now + Cycles::new(1));
        }
        self.stats.mac_fetches += 1;
        let (addr, _slot) = self.layout.mac_slot_of_line(line_addr);
        let (bytes, t) = self.nvm.read_line(addr, now);
        self.seg(now, t, CycleCategory::Mac);
        let line = decode_mac_line(&bytes);
        if self.mac_cache.victim().is_some_and(|v| self.mac_queue.installs_into(v, None)) {
            self.mac_flush();
        }
        if let Some(ev) = self.mac_cache.fill(index, line, false) {
            self.writeback_mac_line(ev.index, &ev.macs, now);
        }
        (line, t)
    }

    fn writeback_mac_line(&mut self, index: u64, macs: &[u64; 8], now: Cycles) {
        self.stats.mac_writebacks += 1;
        // One MAC line holds 8 tags for 8 consecutive data lines; 8 MAC
        // lines cover one 64-line data region.
        self.heat(HeatLane::MacWrite, index / 8);
        let addr = PhysAddr::new(self.layout.mac_base + index * LINE_BYTES as u64);
        let t = self.nvm.write_line(addr, encode_mac_line(macs), now);
        self.seg(now, t, CycleCategory::Mac);
    }

    /// Verifies a fetched ciphertext line against its stored MAC (the
    /// check itself is queued; see [`MacQueue`]). A stored tag of 0
    /// means the line was never written (fresh NVM) — nothing to check
    /// yet.
    fn verify_data_mac(
        &mut self,
        line_addr: PhysAddr,
        cipher: &[u8; LINE_BYTES],
        major: u64,
        minor: u8,
        now: Cycles,
    ) -> Cycles {
        if !self.config.data_macs {
            return now;
        }
        self.stats.mac_verifications += 1;
        let index = self.layout.mac_line_index(line_addr);
        let (_, slot) = self.layout.mac_slot_of_line(line_addr);
        if self.mac_queue.installs_into(index, Some(slot)) {
            self.mac_flush();
        }
        let (line, t) = self.fetch_mac_line(line_addr, now);
        let stored = line[slot];
        if stored != 0 {
            self.mac_queue_push(
                MacJob::Verify { line_addr, stored },
                line_addr,
                cipher,
                major,
                minor,
            );
        }
        t
    }

    /// Installs the MAC for a freshly written ciphertext line (the tag
    /// itself is queued; see [`MacQueue`]).
    fn update_data_mac(
        &mut self,
        line_addr: PhysAddr,
        cipher: &[u8; LINE_BYTES],
        major: u64,
        minor: u8,
        now: Cycles,
    ) -> Cycles {
        if !self.config.data_macs {
            return now;
        }
        let index = self.layout.mac_line_index(line_addr);
        let (_, slot) = self.layout.mac_slot_of_line(line_addr);
        let t = if self.mac_cache.mark_dirty(index) {
            now + Cycles::new(1)
        } else {
            // Fill first (keeping the sibling tags), then write.
            let (_, t) = self.fetch_mac_line(line_addr, now);
            self.mac_cache.mark_dirty(index);
            t
        };
        self.mac_queue_push(MacJob::Install { index, slot }, line_addr, cipher, major, minor);
        t
    }

    /// Resolves the plaintext of logical line `line` of `region`,
    /// following CoW chains. Returns the data, completion time, and
    /// the number of chain hops followed (0 when direct).
    ///
    /// Does **not** bump `logical_reads` — callers decide whether this
    /// is an application read or controller-internal traffic.
    fn resolve_line_plain(
        &mut self,
        region: u64,
        block: CounterBlock,
        line: usize,
        issue_at: Cycles,
        counters_ready: Cycles,
    ) -> ([u8; LINE_BYTES], Cycles, u32) {
        let mut cur_region = region;
        let mut cur_block = block;
        let mut t = counters_ready;
        let mut hops = 0u32;
        if self.config.scheme == SchemeKind::SilentShredder && cur_block.minors[line] == 0 {
            self.stats.zero_reads += 1;
            return ([0; LINE_BYTES], t + Cycles::new(1), 0);
        }
        if self.config.scheme.supports_lazy_copy() {
            loop {
                if cur_block.minors[line] != 0 {
                    break;
                }
                let (src, t2) = self.source_of(cur_region, &cur_block, t);
                t = t2;
                let Some(src) = src else {
                    // Scrubbed/freed region with no mapping: zeros.
                    self.stats.zero_reads += 1;
                    self.seg(counters_ready, t, CycleCategory::CowRedirect);
                    return ([0; LINE_BYTES], t + Cycles::new(1), hops);
                };
                hops += 1;
                self.check_chain_length(region, hops);
                if self.is_zero_region(src) {
                    self.stats.zero_reads += 1;
                    self.seg(counters_ready, t, CycleCategory::CowRedirect);
                    return ([0; LINE_BYTES], t + Cycles::new(1), hops);
                }
                cur_region = src;
                let (b, t3) = self.fetch_counter(src, t);
                cur_block = b;
                t = t3;
            }
            if hops > 0 {
                // The whole chain walk — source lookups plus the
                // ancestors' counter fetches — is redirect overhead
                // (outranks the CounterFill/MerkleWalk segments the
                // nested fetches recorded inside this window).
                self.seg(counters_ready, t, CycleCategory::CowRedirect);
            }
        }
        let data_addr = self.line_addr(cur_region, line);
        // Redirected fetches cannot overlap with the original counter
        // fetch; direct ones can.
        let data_issue = if hops > 0 { t } else { issue_at };
        let (cipher, t_data) = self.nvm.read_line(data_addr, data_issue);
        // The MAC fetch overlaps the data fetch; verification gates
        // delivery like the pad does.
        let t_mac = self.verify_data_mac(
            data_addr,
            &cipher,
            cur_block.major,
            cur_block.minors[line],
            data_issue,
        );
        let pad_ready = t + Cycles::new(self.config.aes_latency);
        // Low priority: the pad overlaps the data fetch, so only its
        // exposed tail ends up booked as AES time.
        self.seg(t, pad_ready, CycleCategory::AesPad);
        let iv = IvSpec {
            line_addr: data_addr.as_u64(),
            major: cur_block.major,
            minor: cur_block.minors[line],
        };
        let plain = xor_line(&cipher, &self.pad(iv));
        (plain, t_data.max(pad_ready).max(t_mac), hops)
    }

    /// The one-time pad of `iv`: the pad window's next pad when its IV
    /// is exactly `iv`, computed on the spot otherwise (see
    /// [`PadWindow`]).
    fn pad(&mut self, iv: IvSpec) -> [u8; LINE_BYTES] {
        match self.pads.take(iv) {
            Some(pad) => {
                debug_assert_eq!(pad, self.engine.one_time_pad(iv), "window pad for {iv:?}");
                pad
            }
            None => self.engine.one_time_pad(iv),
        }
    }

    /// Panics when a redirect walk from `region` has followed more hops
    /// than there are regions: no acyclic chain is that long, so the
    /// CoW metadata names a cycle.
    #[inline]
    fn check_chain_length(&self, region: u64, hops: u32) {
        let regions = self.layout.regions();
        assert!(
            u64::from(hops) <= regions,
            "CoW-chain integrity violation at region {region}: more than {regions} redirect hops \
             (the chain is a cycle)"
        );
    }

    /// The IV of the pad `resolve_line_plain(region, block, line, ..)`
    /// will ask for, for each line of `region` whose bit is set in
    /// `lines`; `None` for a line that reads zeros or is not asked for.
    ///
    /// Walks the region's whole redirect chain once, as the resolution
    /// does but without traffic: each hop's source comes from
    /// `cow_source()` or the NVM slot, its counters from
    /// [`Self::peek_counter`], and a line resolves at the first hop
    /// whose minor for it is nonzero. The walk ends when every asked
    /// line has resolved, so it goes no deeper than their resolutions.
    fn predict_reads(
        &self,
        region: u64,
        block: &CounterBlock,
        mut lines: u64,
    ) -> [Option<IvSpec>; MINORS] {
        let mut ivs = [None; MINORS];
        let scheme = self.config.scheme;
        let (mut cur, mut cur_block) = (region, *block);
        let mut hops = 0;
        loop {
            let mut resolved = lines;
            if scheme == SchemeKind::SilentShredder || scheme.supports_lazy_copy() {
                resolved &= copied_lines(&cur_block);
            }
            lines &= !resolved;
            while resolved != 0 {
                let line = resolved.trailing_zeros() as usize;
                resolved &= resolved - 1;
                let line_addr = self.line_addr(cur, line).as_u64();
                let minor = cur_block.minors[line];
                ivs[line] = Some(IvSpec { line_addr, major: cur_block.major, minor });
            }
            if lines == 0 {
                return ivs;
            }
            let src = match scheme {
                SchemeKind::LelantusResized => cur_block.cow_source(),
                SchemeKind::LelantusCow => self.cow_slot(cur),
                _ => None,
            };
            // No source, or the zero area: the rest read zeros.
            let Some(src) = src.filter(|&src| !self.is_zero_region(src)) else { return ivs };
            hops += 1;
            self.check_chain_length(region, hops);
            cur = src;
            cur_block = self.peek_counter(src);
        }
    }

    /// Fills the pad window for the `lines` lines of a bulk copy from
    /// `src` (a zeroing when `None`) to `dst`, one region's worth at
    /// most: each line's read pad, if it has one, then its write pad
    /// under the counter the write will leave. Stops at the first write
    /// whose minor would overflow, and predicts nothing for a span that
    /// crosses a region or copies within one.
    fn prefill_bulk(&mut self, src: Option<PhysAddr>, dst: PhysAddr, lines: u64) {
        self.pads.clear();
        let last = (lines - 1) * LINE_BYTES as u64;
        let dst_region = self.region_of(dst);
        if self.region_of(dst + last) != dst_region {
            return;
        }
        let (mut reads, mut first) = ([None; MINORS], 0);
        if let Some(src) = src {
            let src_region = self.region_of(src);
            if self.region_of(src + last) != src_region || src_region == dst_region {
                return;
            }
            if !self.is_zero_region(src_region) {
                let block = self.peek_counter(src_region);
                first = src.line_in_region();
                let span = (u64::MAX >> (MINORS as u64 - lines)) << first;
                reads = self.predict_reads(src_region, &block, span);
            }
        }
        let encoding = self.encoding();
        let mut block = self.peek_counter(dst_region);
        for (i, read) in reads[first..first + lines as usize].iter().enumerate() {
            if let Some(iv) = *read {
                self.pads.push(iv);
            }
            let line = dst.line_in_region() + i;
            let Ok(minor) = block.increment_minor(line, encoding) else { break };
            let line_addr = (dst + (i * LINE_BYTES) as u64).as_u64();
            self.pads.push(IvSpec { line_addr, major: block.major, minor });
        }
        self.pads.fill(&self.engine);
    }

    /// Reads the 64-byte line containing `addr` through the secure
    /// datapath. Returns plaintext and completion time.
    ///
    /// # Panics
    ///
    /// Panics if the line's data MAC does not match (tampered or
    /// replayed data).
    pub fn read_data_line(&mut self, addr: PhysAddr, now: Cycles) -> ([u8; LINE_BYTES], Cycles) {
        let out = self.read_line_queued(addr, now);
        self.mac_check_verifies();
        out
    }

    /// [`SecureMemoryController::read_data_line`] with its MAC check
    /// left in the queue.
    fn read_line_queued(&mut self, addr: PhysAddr, now: Cycles) -> ([u8; LINE_BYTES], Cycles) {
        let line_addr = addr.line_align();
        self.stats.logical_reads += 1;
        if line_addr.as_u64() < self.config.zero_area_bytes {
            self.stats.zero_reads += 1;
            return ([0; LINE_BYTES], now + Cycles::new(1));
        }
        self.nvm.recorder_mut().line_access(line_addr, AccessDir::Read);
        let region = self.region_of(line_addr);
        let line = line_addr.line_in_region();
        let (block, t_ctr) = self.fetch_counter(region, now);
        let (data, done, hops) = self.resolve_line_plain(region, block, line, now, t_ctr);
        if hops > 0 {
            self.stats.redirected_reads += 1;
            self.heat(HeatLane::CowRedirect, region);
            if let Some(log) = self.nvm.recorder_mut().events_mut() {
                log.emit(Event {
                    cycle: now,
                    kind: EventKind::RedirectedRead { addr: line_addr.as_u64(), hops },
                });
                log.record(HistKind::CopyChainDepth, hops as u64);
            }
        }
        (data, done)
    }

    /// Writes the 64-byte line containing `addr` through the secure
    /// datapath. Returns the acknowledgement time.
    ///
    /// # Panics
    ///
    /// Panics on a write to the reserved zero area (the OS never maps
    /// it writable), or on a data-MAC mismatch in the lines a counter
    /// overflow re-encrypts.
    pub fn write_data_line(
        &mut self,
        addr: PhysAddr,
        data: [u8; LINE_BYTES],
        now: Cycles,
    ) -> Cycles {
        let done = self.write_line_queued(addr, data, now);
        self.mac_check_verifies();
        done
    }

    /// [`SecureMemoryController::write_data_line`] with its MAC work
    /// left in the queue.
    fn write_line_queued(&mut self, addr: PhysAddr, data: [u8; LINE_BYTES], now: Cycles) -> Cycles {
        let line_addr = addr.line_align();
        assert!(
            line_addr.as_u64() >= self.config.zero_area_bytes,
            "write to the read-only zero area at {line_addr}"
        );
        self.stats.logical_writes += 1;
        self.nvm.recorder_mut().line_access(line_addr, AccessDir::Write);
        let region = self.region_of(line_addr);
        let line = line_addr.line_in_region();
        let (mut block, mut t) = self.fetch_counter(region, now);

        // First write to an uncopied CoW line completes the copy
        // implicitly (paper §III-B).
        if self.config.scheme.supports_lazy_copy() && block.minors[line] == 0 {
            let t_src = t;
            let (src, t2) = self.source_of(region, &block, t);
            t = t2;
            if src.is_some() {
                self.seg(t_src, t, CycleCategory::ImplicitCopy);
                self.stats.implicit_copies += 1;
                self.heat(HeatLane::ImplicitCopy, region);
                if let Some(log) = self.nvm.recorder_mut().events_mut() {
                    log.emit(Event {
                        cycle: now,
                        kind: EventKind::ImplicitCopy { addr: line_addr.as_u64() },
                    });
                }
            }
        }

        self.stats.minor_increments += 1;
        if block.increment_minor(line, self.encoding()).is_err() {
            (block, t) = self.reencrypt_region(region, block, line, t);
        }

        let t_write = self.store_line(line_addr, &data, block.major, block.minors[line], t);
        let t_meta = self.update_counter(region, block, t);
        t_write.max(t_meta)
    }

    /// The one line-store step: encrypts `plain` for `line_addr` under
    /// `(major, minor)`, writes the ciphertext to NVM and installs its
    /// MAC, both issued at `now`. Returns the write's completion.
    fn store_line(
        &mut self,
        line_addr: PhysAddr,
        plain: &[u8; LINE_BYTES],
        major: u64,
        minor: u8,
        now: Cycles,
    ) -> Cycles {
        let cipher =
            xor_line(plain, &self.pad(IvSpec { line_addr: line_addr.as_u64(), major, minor }));
        let done = self.nvm.write_line(line_addr, cipher, now);
        self.update_data_mac(line_addr, &cipher, major, minor, now);
        done
    }

    /// Handles the minor-counter overflow of a write to `line`:
    /// re-encrypts every line of the region under a bumped major
    /// counter, materializing any pending lazy copies first (a CoW
    /// region becomes a regular one). Returns the new block with
    /// `line`'s minor incremented for the write, whose pad it leaves
    /// last in the window.
    fn reencrypt_region(
        &mut self,
        region: u64,
        block: CounterBlock,
        line: usize,
        now: Cycles,
    ) -> (CounterBlock, Cycles) {
        self.stats.minor_overflows += 1;
        self.heat(HeatLane::CounterOverflow, region);
        if let Some(log) = self.nvm.recorder_mut().events_mut() {
            log.emit(Event { cycle: now, kind: EventKind::CounterOverflow { region } });
        }
        let materialize = block.is_cow() || self.lelantus_cow_mapping(region);
        let mut newblock = block;
        if materialize {
            newblock.materialize_to_regular();
        } else {
            newblock.reencrypt_epoch();
        }
        // The old pads of every line, the new ones, then the write's.
        self.pads.clear();
        for iv in self.predict_reads(region, &block, u64::MAX).into_iter().flatten() {
            self.pads.push(iv);
        }
        for l in 0..MINORS {
            let line_addr = self.line_addr(region, l).as_u64();
            self.pads.push(IvSpec { line_addr, major: newblock.major, minor: 1 });
        }
        let mut written = newblock;
        let minor =
            written.increment_minor(line, self.encoding()).expect("fresh epoch cannot overflow");
        let line_addr = self.line_addr(region, line).as_u64();
        self.pads.push(IvSpec { line_addr, major: written.major, minor });
        self.pads.fill(&self.engine);
        // Gather all plaintexts under the old epoch first.
        let mut plains = [[0u8; LINE_BYTES]; MINORS];
        let mut t = now;
        for (l, plain) in plains.iter_mut().enumerate() {
            let (data, t2, _) = self.resolve_line_plain(region, block, l, t, t);
            *plain = data;
            t = t2;
        }
        if materialize && self.config.scheme == SchemeKind::LelantusCow {
            t = self.write_cow_mapping(region, None, t);
        }
        let mut done = t;
        // All 64 lines re-encrypt under (new major, minor = 1).
        for (l, plain) in plains.iter().enumerate() {
            let data_addr = self.line_addr(region, l);
            done = done.max(self.store_line(data_addr, plain, newblock.major, 1, t));
            self.stats.reencrypted_lines += 1;
        }
        // Re-encryption sweeps are a Merkle flush point too.
        self.merkle.flush();
        (written, done)
    }

    /// Whether `region` currently has a Lelantus-CoW table mapping
    /// (functional check of its NVM slot, no traffic).
    fn lelantus_cow_mapping(&self, region: u64) -> bool {
        self.config.scheme == SchemeKind::LelantusCow && self.cow_slot(region).is_some()
    }

    /// The CoW source `region`'s NVM slot records (functional read, no
    /// traffic).
    fn cow_slot(&self, region: u64) -> Option<u64> {
        let (slot_line, off) = self.layout.cow_meta_slot_of_region(region);
        decode_slot(&self.nvm.peek_line(slot_line), off)
    }

    /// Test hook: rewrites `region`'s Lelantus-CoW slot in NVM to name
    /// `src`, behind the CoW cache's back (an attacker writing the
    /// table).
    #[cfg(test)]
    pub(crate) fn tamper_cow_slot_for_test(&mut self, region: u64, src: Option<u64>) {
        let (slot_line, off) = self.layout.cow_meta_slot_of_region(region);
        let mut line = self.nvm.peek_line(slot_line);
        encode_slot(&mut line, off, src);
        self.nvm.poke_line(slot_line, line);
    }

    /// Pads served from the pad window and pads made on the spot, over
    /// the controller's life.
    #[cfg(test)]
    pub(crate) fn pad_counts(&self) -> (u64, u64) {
        (self.pads.served, self.pads.missed)
    }

    // ------------------------------------------------------------------
    // CoW commands (paper Table II)
    // ------------------------------------------------------------------

    /// `page_copy src, dst` — records `dst` (one 4 KB region) as a lazy
    /// copy of `src`. Applies the recursive-chain shortening of §III-E.
    ///
    /// # Panics
    ///
    /// Panics if the scheme has no lazy-copy support or the addresses
    /// are not region-aligned.
    pub fn cmd_page_copy(&mut self, src: PhysAddr, dst: PhysAddr, now: Cycles) -> Cycles {
        assert!(self.config.scheme.supports_lazy_copy(), "page_copy needs a Lelantus scheme");
        assert!(src.is_aligned_to(REGION_BYTES) && dst.is_aligned_to(REGION_BYTES));
        self.stats.cmd_page_copy += 1;
        if let Some(log) = self.nvm.recorder_mut().events_mut() {
            log.emit(Event {
                cycle: now,
                kind: EventKind::CmdPageCopy { src: src.as_u64(), dst: dst.as_u64() },
            });
        }
        let t = now + Cycles::new(self.config.cmd_latency);
        let src_region = self.region_of(src);
        let dst_region = self.region_of(dst);

        // Chain shortening: copying a fully-unmodified CoW page records
        // its source instead (§III-E).
        let (effective_src, t_src) =
            if self.is_zero_region(src_region) || !self.config.chain_shortening {
                (src_region, t)
            } else {
                let (src_block, t2) = self.fetch_counter(src_region, t);
                let unmodified = src_block.uncopied_lines() == MINORS
                    || (self.config.scheme == SchemeKind::LelantusCow
                        && src_block.minors.iter().all(|&m| m == 0));
                if unmodified {
                    let (grand, t3) = self.source_of(src_region, &src_block, t2);
                    (grand.unwrap_or(src_region), t3)
                } else {
                    (src_region, t2)
                }
            };
        if effective_src == dst_region {
            // The destination already holds the bytes (a copy back onto
            // its own source): recording it would make it its own
            // source, a cycle no read could resolve.
            if let Some(log) = self.nvm.recorder_mut().events_mut() {
                log.record(HistKind::CmdServiceCycles, (t_src - now).as_u64());
            }
            return t_src;
        }

        let (old, t4) = self.fetch_counter(dst_region, t);
        let mut t = t4;
        let newblock = match self.config.scheme {
            SchemeKind::LelantusResized => {
                let mut b = CounterBlock::fresh_cow(effective_src);
                b.major = old.major + 1;
                b
            }
            SchemeKind::LelantusCow => {
                t = self.write_cow_mapping(dst_region, Some(effective_src), t);
                let mut b = CounterBlock::fresh_regular(0);
                b.minors = [0; MINORS];
                b.major = old.major + 1;
                b
            }
            _ => unreachable!("guarded above"),
        };
        let done = self.update_counter(dst_region, newblock, t);
        // Page-copy commands are a Merkle flush point: coalesce the
        // ancestor recomputations this command queued up.
        self.merkle.flush();
        if let Some(log) = self.nvm.recorder_mut().events_mut() {
            log.record(HistKind::CmdServiceCycles, (done - now).as_u64());
        }
        done
    }

    /// `page_phyc src, dst` — if `dst`'s metadata still records `src`
    /// as its source, physically copies the remaining uncopied lines
    /// (issued in parallel across banks) and detaches `dst` from the
    /// chain. Otherwise a no-op (the §III-D re-check).
    ///
    /// # Panics
    ///
    /// Panics if the scheme has no lazy-copy support or the addresses
    /// are not region-aligned.
    pub fn cmd_page_phyc(&mut self, src: PhysAddr, dst: PhysAddr, now: Cycles) -> Cycles {
        let _prof = selfprof::scope("ctrl::cmd_page_phyc");
        assert!(self.config.scheme.supports_lazy_copy(), "page_phyc needs a Lelantus scheme");
        assert!(src.is_aligned_to(REGION_BYTES) && dst.is_aligned_to(REGION_BYTES));
        let t = now + Cycles::new(self.config.cmd_latency);
        let dst_region = self.region_of(dst);
        let src_region = self.region_of(src);
        let (mut block, t2) = self.fetch_counter(dst_region, t);
        let (recorded, mut t) = self.source_of(dst_region, &block, t2);
        if recorded != Some(src_region) {
            self.stats.cmd_page_phyc_rejected += 1;
            if let Some(log) = self.nvm.recorder_mut().events_mut() {
                log.emit(Event {
                    cycle: now,
                    kind: EventKind::CmdPagePhyc {
                        src: src.as_u64(),
                        dst: dst.as_u64(),
                        accepted: false,
                    },
                });
                log.record(HistKind::CmdServiceCycles, (t - now).as_u64());
            }
            return t;
        }
        self.stats.cmd_page_phyc += 1;
        if let Some(log) = self.nvm.recorder_mut().events_mut() {
            log.emit(Event {
                cycle: now,
                kind: EventKind::CmdPagePhyc {
                    src: src.as_u64(),
                    dst: dst.as_u64(),
                    accepted: true,
                },
            });
        }
        let issue = t;
        let mut done = t;
        // Only uncopied lines are materialized, each at (major, minor =
        // 1), so only their pads are generated: each one's source pad
        // (none when it reads zeros), then its own.
        self.pads.clear();
        let reads = self.predict_reads(dst_region, &block, !copied_lines(&block));
        for (line, read) in reads.iter().enumerate() {
            if block.minors[line] != 0 {
                continue;
            }
            if let Some(iv) = *read {
                self.pads.push(iv);
            }
            let line_addr = self.line_addr(dst_region, line).as_u64();
            self.pads.push(IvSpec { line_addr, major: block.major, minor: 1 });
        }
        self.pads.fill(&self.engine);
        for line in 0..MINORS {
            if block.minors[line] != 0 {
                continue;
            }
            let (plain, t3, _) = self.resolve_line_plain(dst_region, block, line, issue, issue);
            block.minors[line] = 1;
            let data_addr = self.line_addr(dst_region, line);
            // Copies proceed in parallel, bounded by bank availability
            // (§III-E: "safely done in parallel to leverage row buffers").
            done = done.max(self.store_line(data_addr, &plain, block.major, 1, t3));
            self.stats.materialized_lines += 1;
        }
        // Detach from the chain, keeping major/minors valid.
        block.cow_src = None;
        if self.config.scheme == SchemeKind::LelantusCow {
            t = self.write_cow_mapping(dst_region, None, t);
        }
        let done = done.max(self.update_counter(dst_region, block, t));
        self.mac_check_verifies();
        // Page-copy commands are a Merkle flush point (see
        // `cmd_page_copy`).
        self.merkle.flush();
        if let Some(log) = self.nvm.recorder_mut().events_mut() {
            log.record(HistKind::CmdServiceCycles, (done - now).as_u64());
        }
        done
    }

    /// `page_free dst` — drops `dst`'s CoW metadata; pending lazy
    /// copies are abandoned (the page is being freed, paper §IV-C).
    ///
    /// # Panics
    ///
    /// Panics if the scheme has no lazy-copy support or the address is
    /// not region-aligned.
    pub fn cmd_page_free(&mut self, dst: PhysAddr, now: Cycles) -> Cycles {
        assert!(self.config.scheme.supports_lazy_copy(), "page_free needs a Lelantus scheme");
        assert!(dst.is_aligned_to(REGION_BYTES));
        self.stats.cmd_page_free += 1;
        if let Some(log) = self.nvm.recorder_mut().events_mut() {
            log.emit(Event { cycle: now, kind: EventKind::CmdPageFree { dst: dst.as_u64() } });
        }
        let t = now + Cycles::new(self.config.cmd_latency);
        let dst_region = self.region_of(dst);
        let (mut block, mut t) = self.fetch_counter(dst_region, t);
        block.cow_src = None;
        if self.lelantus_cow_mapping(dst_region) {
            t = self.write_cow_mapping(dst_region, None, t);
        }
        let done = self.update_counter(dst_region, block, t);
        if let Some(log) = self.nvm.recorder_mut().events_mut() {
            log.record(HistKind::CmdServiceCycles, (done - now).as_u64());
        }
        done
    }

    /// Silent Shredder `page_init dst` — marks every line of the
    /// region all-zero by zeroing its minor counters under a fresh
    /// major epoch: old data is unreadable ("shredded") and zeroing
    /// costs one counter update instead of 64 data writes.
    ///
    /// # Panics
    ///
    /// Panics unless the scheme is Silent Shredder, or if the address
    /// is not region-aligned.
    pub fn cmd_page_init(&mut self, dst: PhysAddr, now: Cycles) -> Cycles {
        assert_eq!(
            self.config.scheme,
            SchemeKind::SilentShredder,
            "page_init is Silent Shredder's"
        );
        assert!(dst.is_aligned_to(REGION_BYTES));
        self.stats.cmd_page_init += 1;
        if let Some(log) = self.nvm.recorder_mut().events_mut() {
            log.emit(Event { cycle: now, kind: EventKind::CmdPageInit { dst: dst.as_u64() } });
        }
        let t = now + Cycles::new(self.config.cmd_latency);
        let dst_region = self.region_of(dst);
        let (mut block, t2) = self.fetch_counter(dst_region, t);
        block.major += 1;
        block.minors = [0; MINORS];
        let done = self.update_counter(dst_region, block, t2);
        if let Some(log) = self.nvm.recorder_mut().events_mut() {
            log.record(HistKind::CmdServiceCycles, (done - now).as_u64());
        }
        done
    }

    // ------------------------------------------------------------------
    // Bulk engines (baseline kernel paths)
    // ------------------------------------------------------------------

    /// Baseline whole-page copy: streams every line through the secure
    /// datapath with non-temporal semantics (no CPU cache involvement).
    pub fn copy_page_bulk(
        &mut self,
        src: PhysAddr,
        dst: PhysAddr,
        bytes: u64,
        now: Cycles,
    ) -> Cycles {
        let _prof = selfprof::scope("ctrl::copy_page_bulk");
        let lines = bytes / LINE_BYTES as u64;
        let mark = self.recorder().mark();
        let mut done = now;
        let mut overflows = self.stats.minor_overflows;
        for i in 0..lines {
            let offset = i * LINE_BYTES as u64;
            // Fill the pad window for the rest of each 64-line chunk, and
            // again after an overflow re-encryption used it.
            if i % MINORS as u64 == 0 || self.stats.minor_overflows != overflows {
                overflows = self.stats.minor_overflows;
                let rest = (MINORS as u64 - i % MINORS as u64).min(lines - i);
                self.prefill_bulk(Some(src + offset), dst + offset, rest);
            }
            // Issue back-to-back; bank timing provides the real
            // serialization.
            let (data, t_read) = self.read_line_queued(src + offset, now + Cycles::new(i));
            done = done.max(self.write_line_queued(dst + offset, data, t_read));
            self.stats.bulk_copied_lines += 1;
        }
        self.mac_check_verifies();
        // A bulk page copy is *all* bulk-copy time in the paper's
        // breakdown, even though it decomposes into fills, pads and
        // bank accesses.
        self.recorder_mut().relabel_from(mark, CycleCategory::BulkCopy);
        done
    }

    /// Baseline whole-page zeroing (the kernel `memset` on first
    /// touch), non-temporal.
    pub fn zero_page_bulk(&mut self, base: PhysAddr, bytes: u64, now: Cycles) -> Cycles {
        let _prof = selfprof::scope("ctrl::zero_page_bulk");
        let lines = bytes / LINE_BYTES as u64;
        let mark = self.recorder().mark();
        let mut done = now;
        let mut overflows = self.stats.minor_overflows;
        for i in 0..lines {
            let offset = i * LINE_BYTES as u64;
            // As in `copy_page_bulk`.
            if i % MINORS as u64 == 0 || self.stats.minor_overflows != overflows {
                overflows = self.stats.minor_overflows;
                let rest = (MINORS as u64 - i % MINORS as u64).min(lines - i);
                self.prefill_bulk(None, base + offset, rest);
            }
            done = done.max(self.write_line_queued(
                base + offset,
                [0; LINE_BYTES],
                now + Cycles::new(i),
            ));
            self.stats.bulk_zeroed_lines += 1;
        }
        self.mac_check_verifies();
        self.recorder_mut().relabel_from(mark, CycleCategory::BulkCopy);
        done
    }

    /// Functional plaintext view of a line (for assertions and KSM
    /// fingerprinting). Charges the datapath like a real read — a KSM
    /// scan is real traffic.
    pub fn peek_plaintext(&mut self, addr: PhysAddr) -> [u8; LINE_BYTES] {
        self.read_data_line(addr, Cycles::ZERO).0
    }

    /// Simulates a power failure followed by recovery.
    ///
    /// Crash semantics match a battery/ADR-equipped platform (paper
    /// §V-A's "battery-backed write-back scheme"):
    ///
    /// * the NVM write queue drains (ADR flush domain),
    /// * dirty counter blocks flush (battery-backed counter cache),
    /// * then **all volatile state is lost**: counter cache, CoW cache
    ///   and Merkle node caches come up cold.
    ///
    /// Recovery re-reads every materialized counter block from NVM, in
    /// ascending region order, rebuilds the integrity tree, and
    /// verifies the recomputed root against the persisted on-chip root.
    /// The CoW-metadata slots (Lelantus-CoW) need no rebuild: they are
    /// NVM lines, read through the cold CoW cache on demand; recovery
    /// only counts the non-empty ones.
    ///
    /// # Errors
    ///
    /// Returns [`TamperError`] if the rebuilt tree does not match the
    /// persisted root — NVM was modified while powered down.
    pub fn crash_and_recover(&mut self) -> Result<RecoveryReport, lelantus_crypto::TamperError> {
        let _prof = selfprof::scope("ctrl::crash_and_recover");
        // --- power fails ---
        self.mac_flush();
        // ADR: drain the device write queue.
        self.nvm.flush(Cycles::ZERO);
        // Battery: flush dirty counter blocks.
        let encoding = self.encoding();
        for ev in self.counter_cache.drain_dirty() {
            self.counter_nvm_write(ev.region, &ev.block, encoding, Cycles::ZERO, true);
        }
        for ev in self.mac_cache.drain_dirty() {
            self.writeback_mac_line(ev.index, &ev.macs, Cycles::ZERO);
        }
        self.nvm.flush(Cycles::ZERO);
        self.flush_metadata();
        let saved_root = self.persisted_root;

        // --- volatile state is gone ---
        self.counter_cache = CounterCache::new(self.config.counter_cache);
        self.cow_cache = CowCache::new(self.config.cow_cache_entries);
        self.mac_cache.clear();

        // --- recovery: rebuild the tree from NVM ---
        let mut rebuilt = MerkleTree::new(
            self.layout.regions() as usize,
            MERKLE_KEY,
            self.config.merkle_cache_nodes,
        )
        .with_deferred_maintenance();
        let mut report = RecoveryReport::default();
        for region in 0..self.layout.regions() {
            let caddr = self.layout.counter_addr_of_region(region);
            if !self.nvm.holds_line(caddr) {
                continue; // never booted
            }
            rebuilt.update_leaf(region as usize, &self.nvm.peek_line(caddr));
            report.regions_verified += 1;
            report.cow_mappings_recovered += self.lelantus_cow_mapping(region) as u64;
        }
        rebuilt.flush();
        if rebuilt.root() != saved_root {
            return Err(lelantus_crypto::TamperError { leaf: 0, level: usize::MAX });
        }
        if self.recorder().heat_grid().is_some() {
            // Recovery itself is free of charge (the rebuild above ran
            // without a touch log); walks after recovery record again.
            rebuilt = rebuilt.with_touch_log();
        }
        self.merkle = rebuilt;
        self.persisted_root = saved_root;
        Ok(report)
    }

    /// Raw (encrypted) contents of a line as stored in NVM — what an
    /// attacker with physical access would see. Un-timed diagnostics.
    pub fn peek_raw_line(&self, addr: PhysAddr) -> [u8; LINE_BYTES] {
        self.nvm.peek_line(addr)
    }

    /// Test hook: corrupts the stored counter block of the region
    /// containing `addr`, modelling an attacker flipping NVM bits. The
    /// next verified fetch will panic.
    pub fn tamper_counter_for_test(&mut self, addr: PhysAddr) {
        let region = self.region_of(addr.line_align());
        self.ensure_region_init(region);
        // Make sure the block is not cached (on-chip copies are trusted).
        self.counter_cache.evict(region);
        let caddr = self.layout.counter_addr_of_region(region);
        let mut bytes = self.nvm.peek_line(caddr);
        bytes[7] ^= 0x80;
        self.nvm.poke_line(caddr, bytes);
    }
}

impl LineBackend for SecureMemoryController {
    fn read_line(&mut self, addr: PhysAddr, now: Cycles) -> ([u8; LINE_BYTES], Cycles) {
        self.read_data_line(addr, now)
    }

    fn write_line(&mut self, addr: PhysAddr, data: [u8; LINE_BYTES], now: Cycles) -> Cycles {
        self.write_data_line(addr, data, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_pad_window_serves_a_pad_only_for_its_exact_iv() {
        let engine = CtrEngine::new([7; 16]);
        let mut window = PadWindow::new();
        let iv = IvSpec { line_addr: 0x1000, major: 5, minor: 3 };
        let wrong_ivs = [
            IvSpec { minor: 4, ..iv },
            IvSpec { major: 6, ..iv },
            IvSpec { major: 5 + (1 << 40), ..iv },
            IvSpec { line_addr: 0x1040, ..iv },
        ];
        for wrong in wrong_ivs {
            window.clear();
            assert!(window.push(iv));
            window.fill(&engine);
            assert_eq!(window.take(wrong), None, "{wrong:?}");
            assert_eq!(window.take(iv), None, "a miss drops the window");
        }
        window.clear();
        assert!(window.push(iv));
        window.fill(&engine);
        assert_eq!(window.take(iv), Some(engine.one_time_pad(iv)));
        assert_eq!(window.take(iv), None, "each pad is served once");
        window.clear();
        assert!((0..PAD_WINDOW).all(|_| window.push(iv)));
        assert!(!window.push(iv), "a full window takes no more IVs");
    }
}
