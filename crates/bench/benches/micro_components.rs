//! Micro-benchmarks for the simulator components: the buddy
//! allocator, the set-associative cache, the cache hierarchy under a
//! stream of dirty lines, the TLB's L2 hit path, the counter cache,
//! the NVM device datapath (the frame-indexed line store), and the
//! secure controller's read/write/command paths.

use lelantus_bench::harness::bench;
use lelantus_bench::results::{timed_emit, Record};
use lelantus_cache::{CacheConfig, CacheHierarchy, HierarchyConfig, LineBackend, SetAssocCache};
use lelantus_core::{ControllerConfig, SchemeKind, SecureMemoryController};
use lelantus_metadata::counter_block::{CounterBlock, CounterEncoding};
use lelantus_metadata::{CounterCache, CounterCacheConfig};
use lelantus_nvm::{LineStore, NvmConfig, NvmDevice};
use lelantus_os::BuddyAllocator;
use lelantus_sim::tlb::{Tlb, TlbConfig, TlbEntry};
use lelantus_types::{Cycles, PageSize, PhysAddr, VirtAddr, LINE_BYTES};
use std::hint::black_box;

/// A backend whose reads and writes take no time.
struct FreeBackend;

impl LineBackend for FreeBackend {
    fn read_line(&mut self, _: PhysAddr, now: Cycles) -> ([u8; LINE_BYTES], Cycles) {
        ([0; LINE_BYTES], now)
    }

    fn write_line(&mut self, _: PhysAddr, _: [u8; LINE_BYTES], now: Cycles) -> Cycles {
        now
    }
}

fn main() {
    timed_emit("micro_components", || {
        let mut ms = Vec::new();

        let mut buddy = BuddyAllocator::new(0, 64 << 20);
        ms.push(bench("buddy_alloc_free_4k", || {
            let f = buddy.alloc(black_box(0)).unwrap();
            buddy.free(f, 0);
        }));

        let mut cache =
            SetAssocCache::new(CacheConfig { size_bytes: 64 << 10, ways: 8, latency: 2 });
        for i in 0..1024u64 {
            cache.insert(PhysAddr::new(i * 64), i as u32, false);
        }
        let mut i = 0u64;
        ms.push(bench("l1_lookup_hit", || {
            i = (i + 1) % 1024;
            cache.lookup(black_box(PhysAddr::new(i * 64)))
        }));

        // Dirty lines streaming through the paper hierarchy: every store
        // misses, and every eviction from L1, L2 and L3 is dirty.
        let mut caches = CacheHierarchy::new(HierarchyConfig::default());
        let lines = 4 * HierarchyConfig::default().l3.size_bytes as u64 / 64;
        // One lap first, so that every level is full of dirty lines.
        for i in 0..lines {
            caches.store(PhysAddr::new(i * 64), &[1; 8], Cycles::ZERO, &mut FreeBackend);
        }
        let mut i = 0u64;
        ms.push(bench("hierarchy_dirty_stream", || {
            i = (i + 1) % lines;
            caches.store(black_box(PhysAddr::new(i * 64)), &[1; 8], Cycles::ZERO, &mut FreeBackend)
        }));

        // A 1024-page working set at the paper geometry (64-entry L1,
        // 1536-entry L2), cycled in order: every lookup misses the
        // front cache and L1, hits L2 and promotes into L1.
        let mut tlb = Tlb::new(TlbConfig::default());
        let page = |i: u64| VirtAddr::new(0x7f00_0000_0000 + i * 4096);
        for i in 0..1024u64 {
            let entry = TlbEntry {
                pa_base: PhysAddr::new(i * 4096),
                size: PageSize::Regular4K,
                writable: true,
            };
            tlb.fill(1, page(i), entry);
        }
        let mut i = 0u64;
        ms.push(bench("tlb_l2_hit", || {
            i = (i + 1) % 1024;
            tlb.lookup(1, black_box(page(i)))
        }));
        assert_eq!(tlb.stats().walks, 0, "the working set fits in L2");
        assert_eq!(tlb.stats().l1_hits, 0, "the cycle defeats L1");

        let mut cc = CounterCache::new(CounterCacheConfig::default());
        for region in 0..4096u64 {
            cc.insert(region, CounterBlock::fresh_regular(1), false);
        }
        let mut r = 0u64;
        ms.push(bench("counter_cache_get_hit", || {
            r = (r + 13) % 4096;
            cc.get(black_box(r))
        }));

        let block = CounterBlock::fresh_cow(42);
        ms.push(bench("counter_block_encode_resized", || {
            black_box(&block).encode(CounterEncoding::Resized)
        }));
        let bytes = block.encode(CounterEncoding::Resized);
        ms.push(bench("counter_block_decode_resized", || {
            CounterBlock::decode(black_box(&bytes), CounterEncoding::Resized)
        }));

        // The raw content store (the HashMap replacement), datapath-free.
        let mut store = LineStore::new();
        for i in 0..4096u64 {
            store.insert(i * 64, [1; 64]);
        }
        let mut i = 0u64;
        ms.push(bench("line_store_insert_get", || {
            i = (i + 1) % 4096;
            store.insert(i * 64, [2; 64]);
            store.get(black_box(i * 64))
        }));

        let mut dev = NvmDevice::new(NvmConfig::default());
        let mut i = 0u64;
        ms.push(bench("nvm_write_read_line", || {
            i = (i + 1) % 4096;
            let addr = PhysAddr::new(i * 64);
            dev.write_line(addr, [1; 64], Cycles::ZERO);
            dev.read_line(black_box(addr), Cycles::ZERO)
        }));

        let mut ctrl = SecureMemoryController::new(ControllerConfig {
            data_bytes: 64 << 20,
            ..ControllerConfig::for_scheme(SchemeKind::LelantusResized)
        });
        let base = PhysAddr::new(4 << 20);
        let mut i = 0u64;
        ms.push(bench("controller_write_line", || {
            i = (i + 1) % 16384;
            ctrl.write_data_line(base + i * 64, [2; 64], Cycles::ZERO)
        }));
        let mut i = 0u64;
        ms.push(bench("controller_read_line", || {
            i = (i + 1) % 16384;
            ctrl.read_data_line(black_box(base + i * 64), Cycles::ZERO)
        }));
        let mut i = 0u64;
        ms.push(bench("controller_cmd_page_copy", || {
            i = (i + 1) % 4096;
            ctrl.cmd_page_copy(base, base + (8 << 20) + i * 4096, Cycles::ZERO)
        }));

        ms.iter()
            .map(|m| Record::new(&m.name, m.ns_per_iter, "ns/iter").timed(m.elapsed_s))
            .collect()
    });
}
