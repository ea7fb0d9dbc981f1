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

use crate::config::{ControllerConfig, SchemeKind};
use crate::footprint::{AccessDir, FootprintTracker};
use crate::stats::ControllerStats;
use lelantus_cache::LineBackend;
use lelantus_crypto::ctr::{xor_line, CtrEngine, IvSpec};
use lelantus_crypto::merkle::MerkleTree;
use lelantus_crypto::siphash::SipHash24;
use lelantus_metadata::counter_block::{CounterBlock, CounterCodec, CounterEncoding, MINORS};
use lelantus_metadata::counter_cache::{CounterCache, WritePolicy};
use lelantus_metadata::cow_meta::{CowCache, CowMetaTable};
use lelantus_metadata::layout::MetadataLayout;
use lelantus_metadata::mac::{decode_mac_line, encode_mac_line, MacCache};
use lelantus_nvm::{NvmDevice, NvmStats};
use lelantus_obs::{
    selfprof, CycleCategory, Event, EventKind, HeatGrid, HeatLane, HistKind, NullProbe, Probe,
    Segment,
};
use lelantus_types::{Cycles, PhysAddr, LINE_BYTES, REGION_BYTES};
use std::collections::HashSet;

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
    /// CoW mappings recovered from the persisted table (Lelantus-CoW).
    pub cow_mappings_recovered: u64,
}

/// The secure NVM memory controller.
///
/// See the crate-level docs for an overview and example.
#[derive(Debug, Clone)]
pub struct SecureMemoryController<P: Probe = NullProbe> {
    config: ControllerConfig,
    nvm: NvmDevice<P>,
    engine: CtrEngine,
    merkle: MerkleTree,
    counter_cache: CounterCache,
    cow_cache: CowCache,
    cow_table: CowMetaTable,
    mac_cache: MacCache,
    /// MAC write combiner: the line index currently being swept plus
    /// the `(slot, tag)` updates buffered for it. Holds only
    /// resident-path updates and is flushed (replayed tick-exactly via
    /// [`MacCache::update_tags`]) before any other MAC-cache access,
    /// so nothing simulated can observe the buffering.
    mac_wc: Option<(u64, Vec<(usize, u64)>)>,
    mac_key: SipHash24,
    layout: MetadataLayout,
    initialized_regions: HashSet<u64>,
    /// The Merkle root as persisted in the controller's small
    /// battery/NVM register domain — the trust anchor recovery
    /// verifies against.
    persisted_root: u64,
    stats: ControllerStats,
    footprint: FootprintTracker,
    probe: P,
    /// Cycle-attribution segments recorded while servicing requests
    /// (only when `config.cycle_ledger`; drained by the system layer).
    segments: Vec<Segment>,
    /// Spatial heat of metadata traffic, attributed to the data region
    /// that caused it (only when `config.heatmap`; merged by the
    /// system layer).
    heat: Option<Box<HeatGrid>>,
}

impl SecureMemoryController {
    /// Builds an unobserved controller (and its NVM device) from
    /// `config` (the [`NullProbe`] path: tracing compiles away).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: ControllerConfig) -> Self {
        Self::with_probe(config, NullProbe)
    }
}

impl<P: Probe> SecureMemoryController<P> {
    /// Builds a controller (and its NVM device) from `config`, with
    /// datapath events reported to `probe` (which is cloned into the
    /// NVM device so the whole stack shares one event stream).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn with_probe(config: ControllerConfig, probe: P) -> Self {
        config.validate().expect("invalid controller config");
        let layout = MetadataLayout::for_data_bytes(config.data_bytes);
        let mut merkle =
            MerkleTree::new(layout.regions() as usize, MERKLE_KEY, config.merkle_cache_nodes);
        if !config.use_eager_merkle {
            merkle = merkle.with_deferred_maintenance();
        }
        if config.heatmap {
            merkle = merkle.with_touch_log();
        }
        let persisted_root = merkle.root();
        Self {
            nvm: NvmDevice::with_probe(config.nvm.clone(), probe.clone()),
            engine: if config.use_reference_aes {
                CtrEngine::new_reference(config.key)
            } else {
                CtrEngine::new(config.key)
            },
            merkle,
            counter_cache: CounterCache::new(config.counter_cache),
            cow_cache: CowCache::new(config.cow_cache_entries),
            cow_table: CowMetaTable::new(),
            mac_cache: MacCache::new(config.mac_cache_lines.max(1)),
            mac_wc: None,
            mac_key: SipHash24::new(DATA_MAC_KEY.0, DATA_MAC_KEY.1),
            layout,
            initialized_regions: HashSet::new(),
            persisted_root,
            stats: ControllerStats::default(),
            footprint: FootprintTracker::new(config.track_footprint),
            heat: config.heatmap.then(Box::<HeatGrid>::default),
            config,
            probe,
            segments: Vec::new(),
        }
    }

    /// Records one metadata-traffic count against a data region (no-op
    /// when the heatmap is off).
    #[inline]
    fn heat(&mut self, lane: HeatLane, region: u64) {
        if let Some(h) = self.heat.as_mut() {
            h.record(lane, region);
        }
    }

    /// Drains the Merkle touch log, attributing each fetched node line
    /// (at its tree level) to the data region whose walk fetched it.
    fn heat_merkle_touches(&mut self, region: u64) {
        let Some(h) = self.heat.as_mut() else { return };
        for &level in self.merkle.touches() {
            h.record(HeatLane::merkle(level as usize), region);
        }
        self.merkle.discard_touches();
    }

    /// The metadata-traffic heat grid recorded so far (None when off).
    pub fn heatmap(&self) -> Option<&HeatGrid> {
        self.heat.as_deref()
    }

    /// The backing device's bank-access heat grid (None when off).
    pub fn nvm_heatmap(&self) -> Option<&HeatGrid> {
        self.nvm.heatmap()
    }

    /// Records a cycle-attribution segment when the ledger is enabled.
    /// Purely observational: never affects timing, stats or contents.
    fn seg(&mut self, start: Cycles, end: Cycles, cat: CycleCategory) {
        if self.config.cycle_ledger && end > start {
            self.segments.push(Segment { start: start.as_u64(), end: end.as_u64(), cat });
        }
    }

    /// Moves the device's recorded segments into the controller buffer
    /// (ordering them before anything recorded after this call).
    fn pull_device_segments(&mut self) {
        if self.config.cycle_ledger {
            self.nvm.drain_segments_into(&mut self.segments);
        }
    }

    /// Moves all recorded attribution segments (controller + device)
    /// into `out`. The system layer calls this at every clock-advance
    /// site and feeds the result to `lelantus_obs::attribute`.
    pub fn drain_segments_into(&mut self, out: &mut Vec<Segment>) {
        self.nvm.drain_segments_into(&mut self.segments);
        out.append(&mut self.segments);
    }

    /// Discards recorded attribution segments. The system layer calls
    /// this after operations whose charges do not advance its clocks
    /// (MMIO commands billed at a flat latency, KSM fingerprinting,
    /// crash recovery) so their segments cannot leak into the next
    /// attribution window.
    pub fn discard_segments(&mut self) {
        self.nvm.discard_segments();
        self.segments.clear();
    }

    /// Marks the start of a bulk operation whose entire segment output
    /// should be relabelled (see [`Self::seg_relabel_from`]).
    fn seg_mark(&mut self) -> Option<usize> {
        if self.config.cycle_ledger {
            self.pull_device_segments();
            Some(self.segments.len())
        } else {
            None
        }
    }

    /// Relabels every segment recorded since `mark` to `cat`: a bulk
    /// page copy is *all* bulk-copy time in the paper's breakdown, even
    /// though it decomposes into fills, pads and bank accesses.
    fn seg_relabel_from(&mut self, mark: Option<usize>, cat: CycleCategory) {
        if let Some(mark) = mark {
            self.pull_device_segments();
            for s in &mut self.segments[mark..] {
                s.cat = cat;
            }
        }
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

    /// Diagnostics: latest bank-busy instant and queued write count.
    pub fn device_pressure(&self) -> (lelantus_types::Cycles, usize) {
        (self.nvm.max_bank_busy(), self.nvm.queued_writes())
    }

    /// Diagnostics: per-bank busy profile.
    pub fn bank_busy_profile(&self) -> Vec<u64> {
        self.nvm.bank_busy_profile()
    }

    /// Per-region physical access footprints (Fig 10c/d).
    pub fn footprint(&self) -> &FootprintTracker {
        &self.footprint
    }

    /// Clears recorded footprints (start of a measured phase).
    pub fn reset_footprint(&mut self) {
        self.footprint.reset();
    }

    /// Drains every buffered write (CPU-side counter state and the
    /// device write queue) to the NVM array; returns the completion
    /// instant. Call at simulation end so write counts are exact.
    pub fn flush_all(&mut self, now: Cycles) -> Cycles {
        let _prof = selfprof::scope("ctrl::flush_all");
        self.mac_wc_flush();
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
    /// combined MAC updates and stale Merkle interior nodes — and
    /// re-syncs the persisted root register. Purely host-side: no
    /// simulated traffic, cache tick, or statistic moves. Called at the
    /// controller's flush points (writeback drains, page-copy
    /// commands, epoch boundaries).
    pub fn flush_metadata(&mut self) {
        self.mac_wc_flush();
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

    fn codec(&self) -> CounterCodec {
        if self.config.use_reference_codec {
            CounterCodec::Reference
        } else {
            CounterCodec::Word
        }
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
    /// (free of charge: this models factory/boot initialization).
    fn ensure_region_init(&mut self, region: u64) {
        if !self.initialized_regions.insert(region) {
            return;
        }
        let mut block = CounterBlock::fresh_regular(1);
        for line in 0..MINORS {
            block.minors[line] = self.initial_minor(region, line);
        }
        let bytes = block.encode_with(self.encoding(), self.codec());
        self.nvm.poke_line(self.layout.counter_addr_of_region(region), bytes);
        self.merkle.update_leaf(region as usize, &bytes);
        // Boot-time initialization is free of charge: its walk stats
        // are dropped above, so its touch log must be dropped too.
        self.merkle.discard_touches();
    }

    /// Fetches the counter block of `region` through the counter
    /// cache, verifying integrity on a miss.
    ///
    /// # Panics
    ///
    /// Panics on an integrity violation — a real controller would halt
    /// the machine.
    fn fetch_counter(&mut self, region: u64, now: Cycles) -> (CounterBlock, Cycles) {
        if let Some(block) = self.counter_cache.get(region) {
            return (block, now + Cycles::new(1));
        }
        self.stats.counter_fetches += 1;
        self.heat(HeatLane::CounterFill, region);
        if P::ENABLED {
            self.probe.emit(Event { cycle: now, kind: EventKind::CounterFetch { region } });
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
        if P::ENABLED && walk.nodes_fetched > 0 {
            self.probe.emit(Event {
                cycle: now,
                kind: EventKind::MerkleFetch { region, nodes: walk.nodes_fetched },
            });
        }
        // Tree nodes are contiguous: charge row-hit latency per fetch.
        let t_read = t;
        let t = t + Cycles::new(walk.nodes_fetched * self.config.nvm.row_hit_latency);
        self.seg(now, t_read, CycleCategory::CounterFill);
        self.seg(t_read, t, CycleCategory::MerkleWalk);
        let block = CounterBlock::decode_with(&bytes, self.encoding(), self.codec());
        if let Some(ev) = self.counter_cache.insert(region, block, false) {
            let encoding = self.encoding();
            self.counter_nvm_write(ev.region, &ev.block, encoding, now, false);
        }
        if P::ENABLED {
            self.probe
                .record(HistKind::CounterCacheOccupancy, self.counter_cache.resident() as u64);
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
        if P::ENABLED {
            self.probe.emit(Event { cycle: now, kind: EventKind::CounterWriteback { region } });
        }
        let bytes = block.encode_with(encoding, self.codec());
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
        if P::ENABLED && walk.nodes_fetched > 0 {
            self.probe.emit(Event {
                cycle: now,
                kind: EventKind::MerkleFetch { region, nodes: walk.nodes_fetched },
            });
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
    /// counter block. Charges a CoW-table read on a CoW-cache miss
    /// (Lelantus-CoW only).
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
                    if P::ENABLED {
                        self.probe
                            .emit(Event { cycle: now, kind: EventKind::CowMetaRead { region } });
                    }
                    let (slot_line, _off) = self.layout.cow_meta_slot_of_region(region);
                    let (_bytes, t) = self.nvm.read_line(slot_line, now);
                    self.seg(now, t, CycleCategory::CowRedirect);
                    let mapping = self.cow_table.get(region);
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
        self.cow_table.set(region, src);
        self.cow_cache.fill(region, src);
        self.stats.cow_meta_writes += 1;
        if P::ENABLED {
            self.probe.emit(Event { cycle: now, kind: EventKind::CowMetaWrite { region } });
        }
        let (slot_line, off) = self.layout.cow_meta_slot_of_region(region);
        // Read-modify-write of the 64 B metadata line, functionally.
        let mut line = self.nvm.peek_line(slot_line);
        line[off..off + 8].copy_from_slice(&self.cow_table.slot_bytes(region));
        let t = self.nvm.write_line(slot_line, line, now);
        self.seg(now, t, CycleCategory::CowRedirect);
        t
    }

    /// Keyed tag binding a ciphertext line to its address and counter
    /// (Rogers et al.: replaying stale data then requires forging this).
    fn data_mac(
        &self,
        line_addr: PhysAddr,
        cipher: &[u8; LINE_BYTES],
        major: u64,
        minor: u8,
    ) -> u64 {
        let mut buf = [0u8; LINE_BYTES + 17];
        buf[..LINE_BYTES].copy_from_slice(cipher);
        buf[LINE_BYTES..LINE_BYTES + 8].copy_from_slice(&line_addr.as_u64().to_le_bytes());
        buf[LINE_BYTES + 8..LINE_BYTES + 16].copy_from_slice(&major.to_le_bytes());
        buf[LINE_BYTES + 16] = minor;
        self.mac_key.hash(&buf)
    }

    /// Applies the buffered combined MAC-line updates to the cache in
    /// one batched access with exact LRU ticks. Must run before any
    /// other MAC-cache access.
    fn mac_wc_flush(&mut self) {
        if let Some((index, pending)) = self.mac_wc.take() {
            if !pending.is_empty() {
                let resident = self.mac_cache.update_tags(index, &pending);
                debug_assert!(resident, "combined MAC line evicted while buffered");
            }
        }
    }

    /// Fetches the MAC line covering `line_addr` through the MAC cache.
    fn fetch_mac_line(&mut self, line_addr: PhysAddr, now: Cycles) -> ([u64; 8], Cycles) {
        self.mac_wc_flush();
        let index = self.layout.mac_line_index(line_addr);
        if let Some(line) = self.mac_cache.get(index) {
            return (line, now + Cycles::new(1));
        }
        self.stats.mac_fetches += 1;
        let (addr, _slot) = self.layout.mac_slot_of_line(line_addr);
        let (bytes, t) = self.nvm.read_line(addr, now);
        self.seg(now, t, CycleCategory::Mac);
        let line = decode_mac_line(&bytes);
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

    /// Verifies a fetched ciphertext line against its stored MAC. A
    /// stored tag of 0 means the line was never written (fresh NVM) —
    /// nothing to check yet.
    ///
    /// # Panics
    ///
    /// Panics on a mismatch: the data was tampered with or replayed.
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
        let (line, t) = self.fetch_mac_line(line_addr, now);
        let (_, slot) = self.layout.mac_slot_of_line(line_addr);
        let stored = line[slot];
        if stored != 0 {
            let computed = self.data_mac(line_addr, cipher, major, minor);
            assert_eq!(
                stored, computed,
                "data-MAC integrity violation at {line_addr} (tampered or replayed line)"
            );
        }
        t
    }

    /// Installs the MAC for a freshly written ciphertext line.
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
        let tag = self.data_mac(line_addr, cipher, major, minor);
        let index = self.layout.mac_line_index(line_addr);
        let (_, slot) = self.layout.mac_slot_of_line(line_addr);
        if self.config.mac_write_combining {
            if let Some((wc_index, pending)) = &mut self.mac_wc {
                if *wc_index == index {
                    // Same-line streak: the line is resident (its first
                    // touch below established that, and every other
                    // cache access flushes the buffer first), so this
                    // is the resident update path — buffer it and let
                    // `mac_wc_flush` replay the batch tick-exactly.
                    pending.push((slot, tag));
                    return now + Cycles::new(1);
                }
            }
            self.mac_wc_flush();
        }
        if !self.mac_cache.update_tag(index, slot, tag) {
            // Fill-then-update keeps sibling tags intact.
            let (mut line, t) = self.fetch_mac_line(line_addr, now);
            line[slot] = tag;
            if let Some(ev) = self.mac_cache.fill(index, line, true) {
                self.writeback_mac_line(ev.index, &ev.macs, now);
            }
            if self.config.mac_write_combining {
                self.mac_wc = Some((index, Vec::new()));
            }
            return t;
        }
        if self.config.mac_write_combining {
            self.mac_wc = Some((index, Vec::new()));
        }
        now + Cycles::new(1)
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
        let plain = self.engine.decrypt_line(&cipher, iv);
        (plain, t_data.max(pad_ready).max(t_mac), hops)
    }

    /// Reads the 64-byte line containing `addr` through the secure
    /// datapath. Returns plaintext and completion time.
    pub fn read_data_line(&mut self, addr: PhysAddr, now: Cycles) -> ([u8; LINE_BYTES], Cycles) {
        let line_addr = addr.line_align();
        self.stats.logical_reads += 1;
        if line_addr.as_u64() < self.config.zero_area_bytes {
            self.stats.zero_reads += 1;
            return ([0; LINE_BYTES], now + Cycles::new(1));
        }
        self.footprint.record(line_addr, AccessDir::Read);
        let region = self.region_of(line_addr);
        let line = line_addr.line_in_region();
        let (block, t_ctr) = self.fetch_counter(region, now);
        let (data, done, hops) = self.resolve_line_plain(region, block, line, now, t_ctr);
        if hops > 0 {
            self.stats.redirected_reads += 1;
            self.heat(HeatLane::CowRedirect, region);
            if P::ENABLED {
                self.probe.emit(Event {
                    cycle: now,
                    kind: EventKind::RedirectedRead { addr: line_addr.as_u64(), hops },
                });
                self.probe.record(HistKind::CopyChainDepth, hops as u64);
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
    /// it writable).
    pub fn write_data_line(
        &mut self,
        addr: PhysAddr,
        data: [u8; LINE_BYTES],
        now: Cycles,
    ) -> Cycles {
        let line_addr = addr.line_align();
        assert!(
            line_addr.as_u64() >= self.config.zero_area_bytes,
            "write to the read-only zero area at {line_addr}"
        );
        self.stats.logical_writes += 1;
        self.footprint.record(line_addr, AccessDir::Write);
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
                if P::ENABLED {
                    self.probe.emit(Event {
                        cycle: now,
                        kind: EventKind::ImplicitCopy { addr: line_addr.as_u64() },
                    });
                }
            }
        }

        self.stats.minor_increments += 1;
        let encoding = self.encoding();
        if block.increment_minor(line, encoding).is_err() {
            let (newblock, t2) = self.reencrypt_region(region, block, t);
            block = newblock;
            t = t2;
            block.increment_minor(line, encoding).expect("fresh epoch cannot overflow");
        }

        let iv =
            IvSpec { line_addr: line_addr.as_u64(), major: block.major, minor: block.minors[line] };
        let cipher = self.engine.encrypt_line(&data, iv);
        let t_write = self.nvm.write_line(line_addr, cipher, t);
        self.update_data_mac(line_addr, &cipher, block.major, block.minors[line], t);
        let t_meta = self.update_counter(region, block, t);
        t_write.max(t_meta)
    }

    /// Handles a minor-counter overflow: re-encrypts every line of the
    /// region under a bumped major counter, materializing any pending
    /// lazy copies first (a CoW region becomes a regular one).
    fn reencrypt_region(
        &mut self,
        region: u64,
        block: CounterBlock,
        now: Cycles,
    ) -> (CounterBlock, Cycles) {
        self.stats.minor_overflows += 1;
        self.heat(HeatLane::CounterOverflow, region);
        if P::ENABLED {
            self.probe.emit(Event { cycle: now, kind: EventKind::CounterOverflow { region } });
        }
        // Gather all plaintexts under the old epoch first.
        let mut plains = Vec::with_capacity(MINORS);
        let mut t = now;
        for line in 0..MINORS {
            let (data, t2, _) = self.resolve_line_plain(region, block, line, t, t);
            plains.push(data);
            t = t2;
        }
        let mut newblock = block;
        if block.is_cow() || self.lelantus_cow_mapping(region) {
            newblock.materialize_to_regular();
            if self.config.scheme == SchemeKind::LelantusCow {
                t = self.write_cow_mapping(region, None, t);
            }
        } else {
            newblock.reencrypt_epoch();
        }
        let mut done = t;
        // All 64 lines re-encrypt under (new major, minor = 1) at
        // consecutive addresses: one batched pad sweep replaces 64
        // per-line engine dispatches. Device call order is unchanged.
        let base = self.line_addr(region, 0);
        let ciphers = self.engine.copy_page(&plains, base.as_u64(), newblock.major, 1);
        for (line, cipher) in ciphers.iter().enumerate() {
            let data_addr = self.line_addr(region, line);
            done = done.max(self.nvm.write_line(data_addr, *cipher, t));
            self.update_data_mac(data_addr, cipher, newblock.major, 1, t);
            self.stats.reencrypted_lines += 1;
        }
        // Re-encryption sweeps are a Merkle flush point too.
        self.merkle.flush();
        (newblock, done)
    }

    /// Whether `region` currently has a Lelantus-CoW table mapping
    /// (functional check, no traffic).
    fn lelantus_cow_mapping(&self, region: u64) -> bool {
        self.config.scheme == SchemeKind::LelantusCow && self.cow_table.get(region).is_some()
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
        if P::ENABLED {
            self.probe.emit(Event {
                cycle: now,
                kind: EventKind::CmdPageCopy { src: src.as_u64(), dst: dst.as_u64() },
            });
        }
        let t = now + Cycles::new(self.config.cmd_latency);
        let src_region = self.region_of(src);
        let dst_region = self.region_of(dst);

        // Chain shortening: copying a fully-unmodified CoW page records
        // its source instead (§III-E).
        let effective_src = if self.is_zero_region(src_region) || !self.config.chain_shortening {
            src_region
        } else {
            let (src_block, t2) = self.fetch_counter(src_region, t);
            let unmodified = src_block.uncopied_lines() == MINORS
                || (self.config.scheme == SchemeKind::LelantusCow
                    && src_block.minors.iter().all(|&m| m == 0));
            if unmodified {
                let (grand, _t3) = self.source_of(src_region, &src_block, t2);
                grand.unwrap_or(src_region)
            } else {
                src_region
            }
        };

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
        if P::ENABLED {
            self.probe.record(HistKind::CmdServiceCycles, (done - now).as_u64());
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
            if P::ENABLED {
                self.probe.emit(Event {
                    cycle: now,
                    kind: EventKind::CmdPagePhyc {
                        src: src.as_u64(),
                        dst: dst.as_u64(),
                        accepted: false,
                    },
                });
                self.probe.record(HistKind::CmdServiceCycles, (t - now).as_u64());
            }
            return t;
        }
        self.stats.cmd_page_phyc += 1;
        if P::ENABLED {
            self.probe.emit(Event {
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
        // Every materialized line lands at (major, minor = 1) on a
        // consecutive address, so generate the pads for the whole page
        // in one sweep up front; the per-line loop below only resolves
        // sources and XORs. Device call order is unchanged.
        let base = self.line_addr(dst_region, 0);
        let pads = self.engine.page_pads(base.as_u64(), block.major, 1, MINORS);
        for (line, pad) in pads.iter().enumerate() {
            if block.minors[line] != 0 {
                continue;
            }
            let (plain, t3, _) = self.resolve_line_plain(dst_region, block, line, issue, issue);
            block.minors[line] = 1;
            let data_addr = self.line_addr(dst_region, line);
            let cipher = xor_line(&plain, pad);
            // Copies proceed in parallel, bounded by bank availability
            // (§III-E: "safely done in parallel to leverage row buffers").
            done = done.max(self.nvm.write_line(data_addr, cipher, t3));
            self.update_data_mac(data_addr, &cipher, block.major, 1, t3);
            self.stats.materialized_lines += 1;
        }
        // Detach from the chain, keeping major/minors valid.
        block.cow_src = None;
        if self.config.scheme == SchemeKind::LelantusCow {
            t = self.write_cow_mapping(dst_region, None, t);
        }
        let done = done.max(self.update_counter(dst_region, block, t));
        // Page-copy commands are a Merkle flush point (see
        // `cmd_page_copy`).
        self.merkle.flush();
        if P::ENABLED {
            self.probe.record(HistKind::CmdServiceCycles, (done - now).as_u64());
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
        if P::ENABLED {
            self.probe
                .emit(Event { cycle: now, kind: EventKind::CmdPageFree { dst: dst.as_u64() } });
        }
        let t = now + Cycles::new(self.config.cmd_latency);
        let dst_region = self.region_of(dst);
        let (mut block, mut t) = self.fetch_counter(dst_region, t);
        block.cow_src = None;
        if self.config.scheme == SchemeKind::LelantusCow && self.cow_table.get(dst_region).is_some()
        {
            t = self.write_cow_mapping(dst_region, None, t);
        }
        let done = self.update_counter(dst_region, block, t);
        if P::ENABLED {
            self.probe.record(HistKind::CmdServiceCycles, (done - now).as_u64());
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
        if P::ENABLED {
            self.probe
                .emit(Event { cycle: now, kind: EventKind::CmdPageInit { dst: dst.as_u64() } });
        }
        let t = now + Cycles::new(self.config.cmd_latency);
        let dst_region = self.region_of(dst);
        let (mut block, t2) = self.fetch_counter(dst_region, t);
        block.major += 1;
        block.minors = [0; MINORS];
        let done = self.update_counter(dst_region, block, t2);
        if P::ENABLED {
            self.probe.record(HistKind::CmdServiceCycles, (done - now).as_u64());
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
        let mark = self.seg_mark();
        let mut done = now;
        for i in 0..lines {
            let offset = i * LINE_BYTES as u64;
            // Issue back-to-back; bank timing provides the real
            // serialization.
            let (data, t_read) = self.read_data_line(src + offset, now + Cycles::new(i));
            done = done.max(self.write_data_line(dst + offset, data, t_read));
            self.stats.bulk_copied_lines += 1;
        }
        self.seg_relabel_from(mark, CycleCategory::BulkCopy);
        done
    }

    /// Baseline whole-page zeroing (the kernel `memset` on first
    /// touch), non-temporal.
    pub fn zero_page_bulk(&mut self, base: PhysAddr, bytes: u64, now: Cycles) -> Cycles {
        let _prof = selfprof::scope("ctrl::zero_page_bulk");
        let lines = bytes / LINE_BYTES as u64;
        let mark = self.seg_mark();
        let mut done = now;
        for i in 0..lines {
            let offset = i * LINE_BYTES as u64;
            done = done.max(self.write_data_line(
                base + offset,
                [0; LINE_BYTES],
                now + Cycles::new(i),
            ));
            self.stats.bulk_zeroed_lines += 1;
        }
        self.seg_relabel_from(mark, CycleCategory::BulkCopy);
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
    /// Recovery re-reads every materialized counter block from NVM,
    /// rebuilds the integrity tree, and verifies the recomputed root
    /// against the persisted on-chip root; the CoW-metadata table
    /// (Lelantus-CoW) is recovered from its persisted NVM slots.
    ///
    /// # Errors
    ///
    /// Returns [`TamperError`] if the rebuilt tree does not match the
    /// persisted root — NVM was modified while powered down.
    pub fn crash_and_recover(&mut self) -> Result<RecoveryReport, lelantus_crypto::TamperError> {
        let _prof = selfprof::scope("ctrl::crash_and_recover");
        // --- power fails ---
        self.mac_wc_flush();
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
        self.cow_table = CowMetaTable::new();
        self.mac_cache.clear();

        // --- recovery: rebuild the tree from NVM ---
        let mut rebuilt = MerkleTree::new(
            self.layout.regions() as usize,
            MERKLE_KEY,
            self.config.merkle_cache_nodes,
        );
        let mut report = RecoveryReport::default();
        let mut regions: Vec<u64> = self.initialized_regions.iter().copied().collect();
        regions.sort_unstable();
        for region in regions {
            let bytes = self.nvm.peek_line(self.layout.counter_addr_of_region(region));
            rebuilt.update_leaf(region as usize, &bytes);
            report.regions_verified += 1;
            // Lelantus-CoW: recover the mapping from its NVM slot.
            if self.config.scheme == SchemeKind::LelantusCow {
                let (slot_line, off) = self.layout.cow_meta_slot_of_region(region);
                let line = self.nvm.peek_line(slot_line);
                let slot: [u8; 8] = line[off..off + 8].try_into().expect("8-byte slot");
                if let Some(src) = CowMetaTable::decode_slot(slot) {
                    self.cow_table.set(region, Some(src));
                    report.cow_mappings_recovered += 1;
                }
            }
        }
        if rebuilt.root() != saved_root {
            return Err(lelantus_crypto::TamperError { leaf: 0, level: usize::MAX });
        }
        if self.config.heatmap {
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

impl<P: Probe> LineBackend for SecureMemoryController<P> {
    fn read_line(&mut self, addr: PhysAddr, now: Cycles) -> ([u8; LINE_BYTES], Cycles) {
        self.read_data_line(addr, now)
    }

    fn write_line(&mut self, addr: PhysAddr, data: [u8; LINE_BYTES], now: Cycles) -> Cycles {
        self.write_data_line(addr, data, now)
    }
}
