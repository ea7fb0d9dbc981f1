//! Controller behaviour tests: the paper's CoW semantics, command
//! semantics (Table II), overflow handling, and scheme equivalence.

use crate::config::{ControllerConfig, SchemeKind};
use crate::controller::SecureMemoryController;
use lelantus_metadata::counter_cache::WritePolicy;
use lelantus_metadata::layout::MetadataLayout;
use lelantus_obs::LayerRecorder;
use lelantus_types::{Cycles, PhysAddr, LINE_BYTES};
use proptest::prelude::*;

const ZERO: Cycles = Cycles::ZERO;

fn small_config(scheme: SchemeKind) -> ControllerConfig {
    ControllerConfig { data_bytes: 16 << 20, ..ControllerConfig::for_scheme(scheme) }
}

fn ctrl(scheme: SchemeKind) -> SecureMemoryController {
    SecureMemoryController::new(small_config(scheme))
}

/// First data region above the 2 MB zero area.
fn page(n: u64) -> PhysAddr {
    PhysAddr::new((2 << 20) + n * 4096)
}

fn line_of(page_base: PhysAddr, line: u64) -> PhysAddr {
    page_base + line * LINE_BYTES as u64
}

fn fill(tag: u8) -> [u8; LINE_BYTES] {
    [tag; LINE_BYTES]
}

#[test]
fn write_read_roundtrip_all_schemes() {
    for scheme in SchemeKind::all() {
        let mut c = ctrl(scheme);
        for l in 0..8u64 {
            c.write_data_line(line_of(page(0), l), fill(l as u8 + 1), ZERO);
        }
        for l in 0..8u64 {
            let (data, _) = c.read_data_line(line_of(page(0), l), ZERO);
            assert_eq!(data, fill(l as u8 + 1), "{scheme} line {l}");
        }
    }
}

#[test]
fn ciphertext_is_actually_stored() {
    let mut c = ctrl(SchemeKind::Baseline);
    let addr = line_of(page(0), 0);
    c.write_data_line(addr, fill(0xAA), ZERO);
    c.flush_all(ZERO);
    // The NVM must not hold the plaintext.
    let (plain, _) = c.read_data_line(addr, ZERO);
    assert_eq!(plain, fill(0xAA));
    assert_ne!(c.nvm_stats().line_writes, 0);
}

#[test]
fn zero_area_reads_are_free_zeros() {
    for scheme in SchemeKind::all() {
        let mut c = ctrl(scheme);
        let before = c.nvm_stats();
        let (data, t) = c.read_data_line(PhysAddr::new(0x100), ZERO);
        assert_eq!(data, [0; 64]);
        assert_eq!(t, Cycles::new(1));
        assert_eq!(c.nvm_stats().line_reads, before.line_reads, "{scheme}: no NVM read");
        assert_eq!(c.stats().zero_reads, 1);
    }
}

#[test]
fn page_copy_redirects_reads() {
    for scheme in [SchemeKind::LelantusResized, SchemeKind::LelantusCow] {
        let mut c = ctrl(scheme);
        for l in 0..64u64 {
            c.write_data_line(line_of(page(0), l), fill((l % 250) as u8 + 1), ZERO);
        }
        c.cmd_page_copy(page(0), page(1), ZERO);
        for l in (0..64u64).step_by(7) {
            let (data, _) = c.read_data_line(line_of(page(1), l), ZERO);
            assert_eq!(data, fill((l % 250) as u8 + 1), "{scheme} line {l}");
        }
        assert!(c.stats().redirected_reads >= 9, "{scheme}");
        assert_eq!(c.stats().cmd_page_copy, 1);
    }
}

#[test]
fn first_write_completes_copy_implicitly() {
    for scheme in [SchemeKind::LelantusResized, SchemeKind::LelantusCow] {
        let mut c = ctrl(scheme);
        c.write_data_line(line_of(page(0), 3), fill(1), ZERO);
        c.cmd_page_copy(page(0), page(1), ZERO);
        // Overwrite one line of the copy.
        c.write_data_line(line_of(page(1), 3), fill(9), ZERO);
        assert_eq!(c.stats().implicit_copies, 1, "{scheme}");
        // The copy diverged; the source did not.
        assert_eq!(c.read_data_line(line_of(page(1), 3), ZERO).0, fill(9));
        assert_eq!(c.read_data_line(line_of(page(0), 3), ZERO).0, fill(1));
        // Unwritten lines still mirror the source.
        assert_eq!(
            c.read_data_line(line_of(page(1), 4), ZERO).0,
            c.read_data_line(line_of(page(0), 4), ZERO).0,
            "{scheme}"
        );
    }
}

#[test]
fn lazy_zeroing_via_zero_page_copy() {
    for scheme in [SchemeKind::LelantusResized, SchemeKind::LelantusCow] {
        let mut c = ctrl(scheme);
        // Dirty the page first (simulating frame reuse).
        c.write_data_line(line_of(page(2), 5), fill(7), ZERO);
        // Lazily zero it by copying from the zero page.
        c.cmd_page_copy(PhysAddr::new(0), page(2), ZERO);
        let reads_before = c.nvm_stats().line_reads;
        let (data, _) = c.read_data_line(line_of(page(2), 5), ZERO);
        assert_eq!(data, [0; 64], "{scheme}: old data shredded");
        let (data, _) = c.read_data_line(line_of(page(2), 63), ZERO);
        assert_eq!(data, [0; 64]);
        // Zero resolution performs no data reads (counter traffic only).
        assert_eq!(c.nvm_stats().line_reads, reads_before, "{scheme}");
    }
}

#[test]
fn page_phyc_materializes_and_detaches() {
    for scheme in [SchemeKind::LelantusResized, SchemeKind::LelantusCow] {
        let mut c = ctrl(scheme);
        for l in 0..64u64 {
            c.write_data_line(line_of(page(0), l), fill(3), ZERO);
        }
        c.cmd_page_copy(page(0), page(1), ZERO);
        c.write_data_line(line_of(page(1), 0), fill(8), ZERO); // one line copied
        c.cmd_page_phyc(page(0), page(1), ZERO);
        assert_eq!(c.stats().cmd_page_phyc, 1, "{scheme}");
        assert_eq!(c.stats().materialized_lines, 63, "{scheme}: only uncopied lines");
        // Source can now change without affecting the copy.
        c.write_data_line(line_of(page(0), 10), fill(99), ZERO);
        assert_eq!(c.read_data_line(line_of(page(1), 10), ZERO).0, fill(3), "{scheme}");
        assert_eq!(c.read_data_line(line_of(page(1), 0), ZERO).0, fill(8));
    }
}

#[test]
fn page_phyc_recheck_rejects_stale_source() {
    for scheme in [SchemeKind::LelantusResized, SchemeKind::LelantusCow] {
        let mut c = ctrl(scheme);
        c.write_data_line(line_of(page(0), 0), fill(1), ZERO);
        c.cmd_page_copy(page(0), page(1), ZERO);
        // Claim page(5) is the source — the §III-D re-check must reject.
        c.cmd_page_phyc(page(5), page(1), ZERO);
        assert_eq!(c.stats().cmd_page_phyc, 0, "{scheme}");
        assert_eq!(c.stats().cmd_page_phyc_rejected, 1);
        assert_eq!(c.stats().materialized_lines, 0);
        // Still lazily attached.
        assert_eq!(c.read_data_line(line_of(page(1), 0), ZERO).0, fill(1));
    }
}

#[test]
fn page_free_abandons_pending_copies() {
    for scheme in [SchemeKind::LelantusResized, SchemeKind::LelantusCow] {
        let mut c = ctrl(scheme);
        c.write_data_line(line_of(page(0), 0), fill(1), ZERO);
        c.cmd_page_copy(page(0), page(1), ZERO);
        c.cmd_page_free(page(1), ZERO);
        assert_eq!(c.stats().cmd_page_free, 1);
        // No more redirection: the freed page reads as scrubbed zeros.
        let (data, _) = c.read_data_line(line_of(page(1), 0), ZERO);
        assert_eq!(data, [0; 64], "{scheme}");
    }
}

#[test]
fn recursive_chain_three_pages() {
    for scheme in [SchemeKind::LelantusResized, SchemeKind::LelantusCow] {
        let mut c = ctrl(scheme);
        for l in 0..4u64 {
            c.write_data_line(line_of(page(0), l), fill(0x10 + l as u8), ZERO);
        }
        // A -> B (B stays unmodified) -> C: C must chain to A directly
        // (§III-E chain shortening).
        c.cmd_page_copy(page(0), page(1), ZERO);
        c.cmd_page_copy(page(1), page(2), ZERO);
        assert_eq!(c.read_data_line(line_of(page(2), 2), ZERO).0, fill(0x12), "{scheme}");
        // Modify B, then copy B -> D: D records B.
        c.write_data_line(line_of(page(1), 0), fill(0xBB), ZERO);
        c.cmd_page_copy(page(1), page(3), ZERO);
        // D line 0 comes from B's modified line; D line 1 chains B -> A.
        assert_eq!(c.read_data_line(line_of(page(3), 0), ZERO).0, fill(0xBB), "{scheme}");
        assert_eq!(c.read_data_line(line_of(page(3), 1), ZERO).0, fill(0x11), "{scheme}");
    }
}

#[test]
fn minor_overflow_triggers_reencryption_and_preserves_data() {
    for scheme in [SchemeKind::LelantusResized, SchemeKind::LelantusCow] {
        let mut c = SecureMemoryController::new(ControllerConfig {
            randomize_counters: false,
            ..small_config(scheme)
        });
        c.write_data_line(line_of(page(0), 1), fill(0x55), ZERO);
        c.cmd_page_copy(page(0), page(1), ZERO);
        // Hammer one line of the CoW page until its minor overflows
        // (6-bit under the resized layout: 63 writes).
        for i in 0..200u64 {
            c.write_data_line(line_of(page(1), 0), fill((i % 251) as u8), ZERO);
        }
        assert!(c.stats().minor_overflows >= 1, "{scheme}");
        assert!(c.stats().reencrypted_lines >= 64);
        // Data integrity across the epoch change, including the lazily
        // copied line that was materialized by the re-encryption.
        assert_eq!(c.read_data_line(line_of(page(1), 0), ZERO).0, fill(199));
        assert_eq!(c.read_data_line(line_of(page(1), 1), ZERO).0, fill(0x55), "{scheme}");
    }
}

#[test]
fn resized_overflows_faster_than_classic() {
    // Table I: the resized layout's 6-bit minors overflow ~2x sooner.
    let mut resized = SecureMemoryController::new(ControllerConfig {
        randomize_counters: false,
        ..small_config(SchemeKind::LelantusResized)
    });
    let mut classic = SecureMemoryController::new(ControllerConfig {
        randomize_counters: false,
        ..small_config(SchemeKind::LelantusCow)
    });
    for c in [&mut resized, &mut classic] {
        c.write_data_line(line_of(page(0), 0), fill(1), ZERO);
        c.cmd_page_copy(page(0), page(1), ZERO);
        for i in 0..120u64 {
            c.write_data_line(line_of(page(1), 0), fill(i as u8), ZERO);
        }
    }
    assert_eq!(resized.stats().minor_overflows, 1, "6-bit minor: 63 writes then overflow");
    assert_eq!(classic.stats().minor_overflows, 0, "7-bit minor survives 120 writes");
}

#[test]
fn silent_shredder_page_init_shreds_and_zeroes() {
    let mut c = ctrl(SchemeKind::SilentShredder);
    c.write_data_line(line_of(page(0), 2), fill(0x77), ZERO);
    let writes_before = c.stats().logical_writes;
    c.cmd_page_init(page(0), ZERO);
    assert_eq!(c.stats().logical_writes, writes_before, "init writes no data");
    let reads_before = c.nvm_stats().line_reads;
    let (data, _) = c.read_data_line(line_of(page(0), 2), ZERO);
    assert_eq!(data, [0; 64], "old data shredded, reads as zero");
    assert_eq!(c.nvm_stats().line_reads, reads_before, "zero reads skip NVM");
    // Writing re-materializes the line.
    c.write_data_line(line_of(page(0), 2), fill(5), ZERO);
    assert_eq!(c.read_data_line(line_of(page(0), 2), ZERO).0, fill(5));
}

#[test]
fn baseline_bulk_copy_costs_a_page_of_traffic() {
    let mut c = ctrl(SchemeKind::Baseline);
    for l in 0..64u64 {
        c.write_data_line(line_of(page(0), l), fill(1), ZERO);
    }
    let before = c.stats();
    c.copy_page_bulk(page(0), page(1), 4096, ZERO);
    let d = c.stats().delta_since(&before);
    assert_eq!(d.bulk_copied_lines, 64);
    assert_eq!(d.logical_writes, 64);
    assert_eq!(d.logical_reads, 64);
    assert_eq!(c.read_data_line(line_of(page(1), 33), ZERO).0, fill(1));
}

#[test]
fn bulk_zero_writes_every_line() {
    let mut c = ctrl(SchemeKind::Baseline);
    c.write_data_line(line_of(page(1), 9), fill(3), ZERO);
    c.zero_page_bulk(page(1), 4096, ZERO);
    assert_eq!(c.stats().bulk_zeroed_lines, 64);
    assert_eq!(c.read_data_line(line_of(page(1), 9), ZERO).0, [0; 64]);
}

#[test]
fn lazy_copy_writes_orders_of_magnitude_fewer_lines() {
    // The headline claim in one assertion: copying a page costs 64 line
    // writes in the baseline but ~1 metadata update under Lelantus.
    let mut base = ctrl(SchemeKind::Baseline);
    let mut lel = ctrl(SchemeKind::LelantusResized);
    for c in [&mut base, &mut lel] {
        for l in 0..64u64 {
            c.write_data_line(line_of(page(0), l), fill(2), ZERO);
        }
        c.flush_all(ZERO);
    }
    let base_before = base.nvm_stats().line_writes;
    let lel_before = lel.nvm_stats().line_writes;
    base.copy_page_bulk(page(0), page(1), 4096, ZERO);
    lel.cmd_page_copy(page(0), page(1), ZERO);
    base.flush_all(ZERO);
    lel.flush_all(ZERO);
    let base_writes = base.nvm_stats().line_writes - base_before;
    let lel_writes = lel.nvm_stats().line_writes - lel_before;
    assert!(base_writes >= 64, "baseline writes the whole page ({base_writes})");
    assert!(lel_writes <= 2, "Lelantus writes metadata only ({lel_writes})");
}

#[test]
fn write_through_counter_cache_writes_more() {
    let mut wb = ctrl(SchemeKind::LelantusResized);
    let mut cfg = small_config(SchemeKind::LelantusResized);
    cfg.counter_cache.policy = WritePolicy::WriteThrough;
    let mut wt = SecureMemoryController::new(cfg);
    for c in [&mut wb, &mut wt] {
        for l in 0..64u64 {
            c.write_data_line(line_of(page(0), l), fill(1), ZERO);
        }
        c.flush_all(ZERO);
    }
    assert!(
        wt.stats().counter_writebacks > wb.stats().counter_writebacks,
        "WT: {} vs WB: {}",
        wt.stats().counter_writebacks,
        wb.stats().counter_writebacks
    );
}

#[test]
#[should_panic(expected = "integrity violation")]
fn tampered_counters_are_detected() {
    let mut c = ctrl(SchemeKind::LelantusResized);
    let addr = line_of(page(0), 0);
    c.write_data_line(addr, fill(1), ZERO);
    c.flush_all(ZERO);
    c.tamper_counter_for_test(addr);
    let _ = c.read_data_line(addr, ZERO);
}

#[test]
#[should_panic(expected = "zero area")]
fn writing_zero_area_panics() {
    let mut c = ctrl(SchemeKind::Baseline);
    c.write_data_line(PhysAddr::new(0x40), fill(1), ZERO);
}

#[test]
#[should_panic(expected = "needs a Lelantus scheme")]
fn baseline_rejects_cow_commands() {
    let mut c = ctrl(SchemeKind::Baseline);
    c.cmd_page_copy(page(0), page(1), ZERO);
}

#[test]
fn cow_cache_miss_rate_tracks_lookups() {
    let mut cfg = small_config(SchemeKind::LelantusCow);
    cfg.cow_cache_entries = 2;
    let mut c = SecureMemoryController::new(cfg);
    c.write_data_line(line_of(page(0), 0), fill(1), ZERO);
    for p in 1..6u64 {
        c.cmd_page_copy(page(0), page(p), ZERO);
    }
    // Touch the copies round-robin to overflow the 2-entry CoW cache.
    for _ in 0..3 {
        for p in 1..6u64 {
            c.read_data_line(line_of(page(p), 7), ZERO);
        }
    }
    let s = c.cow_cache_stats();
    assert!(s.misses > 0, "tiny CoW cache must miss");
    assert!(s.hits + s.misses > 0);
    assert!(c.stats().cow_meta_reads > 0, "misses read the NVM table");
}

#[test]
fn footprint_records_logical_page_usage() {
    // Footprints are part of the spatial view: heat on, nothing else.
    let mut c = SecureMemoryController::with_recorder(
        small_config(SchemeKind::LelantusResized),
        LayerRecorder::new(false, true, None),
    );
    c.write_data_line(line_of(page(0), 0), fill(1), ZERO);
    c.cmd_page_copy(page(0), page(1), ZERO);
    c.write_data_line(line_of(page(1), 5), fill(2), ZERO);
    c.read_data_line(line_of(page(1), 9), ZERO);
    let region = (page(1).as_u64()) / 4096;
    let fp = c.recorder().footprint().unwrap().region(region).unwrap();
    assert_eq!(fp.lines_written(), 1);
    assert_eq!(fp.lines_read(), 1);
    assert_eq!(fp.lines_touched(), 2, "only the used lines, not the whole page");
}

#[test]
fn timing_read_overlaps_counter_fetch() {
    let mut c = ctrl(SchemeKind::Baseline);
    let addr = line_of(page(0), 0);
    c.write_data_line(addr, fill(1), ZERO);
    c.flush_all(ZERO);
    // Cold counter + cold data: both fetched in parallel; the pad costs
    // aes_latency after the counter arrives.
    let (_, t) = c.read_data_line(addr, Cycles::new(10_000));
    let total = t - Cycles::new(10_000);
    assert!(total.as_u64() < 60 + 60 + 24, "fetches overlap: {total}");
    assert!(total.as_u64() >= 60, "at least one array read: {total}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The paper's central correctness claim: Lelantus "preserves the
    /// software semantics and provides the same guarantees of data
    /// content as if initialization/copying has been done
    /// conventionally" (§I). Random op sequences must read back
    /// identically under all four schemes.
    #[test]
    fn prop_scheme_equivalence(ops in prop::collection::vec(
        (0u64..4, 0u64..64, any::<u8>(), any::<bool>()), 1..120))
    {
        let mut ctrls: Vec<SecureMemoryController> =
            SchemeKind::all().iter().map(|s| ctrl(*s)).collect();
        // The OS contract: while a page serves as a CoW source it is
        // write-protected. Model that discipline here — without it the
        // schemes legitimately diverge (a lazy copy tracks its source,
        // a bulk copy snapshots it).
        let mut frozen = std::collections::HashSet::new();
        for (pg, ln, val, do_copy) in &ops {
            if *do_copy && pg + 1 < 4 && !frozen.contains(&(pg + 1)) {
                // Copy page pg -> pg+1 under every scheme's mechanism.
                for c in &mut ctrls {
                    match c.config().scheme {
                        SchemeKind::Baseline | SchemeKind::SilentShredder => {
                            c.copy_page_bulk(page(*pg), page(pg + 1), 4096, ZERO);
                        }
                        _ => {
                            c.cmd_page_copy(page(*pg), page(pg + 1), ZERO);
                        }
                    }
                }
                frozen.insert(*pg);
            } else if !frozen.contains(pg) {
                for c in &mut ctrls {
                    c.write_data_line(line_of(page(*pg), *ln), fill(*val), ZERO);
                }
            }
        }
        // All four schemes must agree on every line of every page.
        for pg in 0..4u64 {
            for ln in 0..64u64 {
                let expect = ctrls[0].read_data_line(line_of(page(pg), ln), ZERO).0;
                for c in &mut ctrls[1..] {
                    let got = c.read_data_line(line_of(page(pg), ln), ZERO).0;
                    prop_assert_eq!(got, expect, "page {} line {}", pg, ln);
                }
            }
        }
    }
}

#[test]
fn chain_shortening_ablation_keeps_correctness() {
    // With shortening disabled, fork-of-fork chains stay deep but must
    // still resolve to the root's data.
    for scheme in [SchemeKind::LelantusResized, SchemeKind::LelantusCow] {
        let mut c = SecureMemoryController::new(ControllerConfig {
            chain_shortening: false,
            ..small_config(scheme)
        });
        for l in 0..4u64 {
            c.write_data_line(line_of(page(0), l), fill(0x20 + l as u8), ZERO);
        }
        // A -> B -> C -> D, all unmodified intermediates.
        c.cmd_page_copy(page(0), page(1), ZERO);
        c.cmd_page_copy(page(1), page(2), ZERO);
        c.cmd_page_copy(page(2), page(3), ZERO);
        assert_eq!(c.read_data_line(line_of(page(3), 2), ZERO).0, fill(0x22), "{scheme}");
        // Deep chains fetch more counters than shortened ones would.
        assert!(c.stats().redirected_reads >= 1);
    }
}

#[test]
fn chain_shortening_reduces_resolution_work() {
    let run = |shortening: bool| {
        let mut c = SecureMemoryController::new(ControllerConfig {
            chain_shortening: shortening,
            ..small_config(SchemeKind::LelantusResized)
        });
        c.write_data_line(line_of(page(0), 0), fill(1), ZERO);
        // Build a 5-deep chain of unmodified copies.
        for i in 0..5u64 {
            c.cmd_page_copy(page(i), page(i + 1), ZERO);
        }
        let before = c.stats().counter_fetches;
        // Fresh counter-cache state is unrealistic to arrange here, so
        // compare total fetches incurred by a read at the chain tail.
        let (_, t) = c.read_data_line(line_of(page(5), 0), ZERO);
        (c.stats().counter_fetches - before, t)
    };
    let (fetches_on, t_on) = run(true);
    let (fetches_off, t_off) = run(false);
    assert!(fetches_on <= fetches_off);
    assert!(t_on <= t_off, "shortened chains resolve no slower: {t_on} vs {t_off}");
}

#[test]
fn write_through_counter_writes_are_durable() {
    // WT counter updates bypass the volatile write queue: they reach
    // the array immediately (that is the point of write-through).
    let mut cfg = small_config(SchemeKind::Baseline);
    cfg.counter_cache.policy = WritePolicy::WriteThrough;
    let mut c = SecureMemoryController::new(cfg);
    let before = c.nvm_stats().line_writes;
    c.write_data_line(line_of(page(0), 0), fill(1), ZERO);
    // Without any flush, the counter write has already hit the array.
    assert!(c.nvm_stats().line_writes > before, "write-through must persist counters immediately");
}

#[test]
fn controller_composes_with_wear_leveling() {
    // Start-Gap sits below the encryption layer: ciphertext moves with
    // its logical address, so the whole secure datapath (including
    // lazy CoW redirection) must be oblivious to it.
    let mut cfg = small_config(SchemeKind::LelantusResized);
    cfg.nvm.wear_leveling = Some(lelantus_nvm::StartGapConfig { gap_write_interval: 8 });
    let mut c = SecureMemoryController::new(cfg);
    for l in 0..64u64 {
        c.write_data_line(line_of(page(0), l), fill((l % 200) as u8 + 1), ZERO);
    }
    c.cmd_page_copy(page(0), page(1), ZERO);
    c.write_data_line(line_of(page(1), 0), fill(0xEE), ZERO);
    c.flush_all(ZERO);
    assert!(c.nvm_stats().leveling_moves > 0, "gap must have moved");
    // Redirected reads and direct reads both survive relocation.
    assert_eq!(c.read_data_line(line_of(page(1), 5), ZERO).0, fill(6));
    assert_eq!(c.read_data_line(line_of(page(1), 0), ZERO).0, fill(0xEE));
    assert_eq!(c.read_data_line(line_of(page(0), 63), ZERO).0, fill(64));
    // And a crash/recovery cycle on a levelled device still verifies.
    c.crash_and_recover().expect("levelled device recovers");
    assert_eq!(c.read_data_line(line_of(page(1), 5), ZERO).0, fill(6));
}

#[test]
fn lelantus_cow_slots_sharing_one_queued_line_stay_exact() {
    // Eight destinations whose 8-byte slots share one 64 B slot line,
    // behind a one-entry CoW cache, so lookups keep missing and decode
    // the line from NVM. The queue never fills: every slot read finds
    // the line still queued.
    let mut cfg = small_config(SchemeKind::LelantusCow);
    cfg.cow_cache_entries = 1;
    cfg.nvm.write_queue_capacity = 4096;
    let layout = MetadataLayout::for_data_bytes(cfg.data_bytes);
    let dst = |s: u64| page(8 + s);
    let slot_line = |s: u64| layout.cow_meta_slot_of_region(layout.region_of(dst(s))).0;
    assert!((0..8).all(|s| slot_line(s) == slot_line(0)), "one shared slot line");
    let src_bytes = |s: u64, l: u64| fill(0x10 + 2 * s as u8 + l as u8);
    let mut c = SecureMemoryController::new(cfg);
    for s in 0..8 {
        for l in 0..2 {
            c.write_data_line(line_of(page(s), l), src_bytes(s, l), ZERO);
        }
        c.cmd_page_copy(page(s), dst(s), ZERO);
    }
    // Every destination reads its own source's bytes, or zeros once
    // freed, in an order that makes each lookup miss the cache.
    let mut freed = [false; 8];
    let check = |c: &mut SecureMemoryController, freed: &[bool; 8], when: &str| {
        for l in 0..2 {
            for s in [3, 0, 6, 1, 4, 7, 2, 5] {
                let want = if freed[s as usize] { [0; LINE_BYTES] } else { src_bytes(s, l) };
                let got = c.read_data_line(line_of(dst(s), l), ZERO).0;
                assert_eq!(got, want, "destination {s}, line {l}, {when}");
            }
        }
    };
    check(&mut c, &freed, "after the copies");
    let redirected = c.stats().redirected_reads;
    assert_eq!(redirected, 16, "every destination line redirects");

    // Clear five mappings in interleaved order, checking after each.
    c.cmd_page_phyc(page(0), dst(0), ZERO);
    check(&mut c, &freed, "after page_phyc 0");
    c.cmd_page_free(dst(3), ZERO);
    freed[3] = true;
    check(&mut c, &freed, "after page_free 3");
    for i in 0..130u64 {
        c.write_data_line(line_of(dst(5), 2), fill(i as u8), ZERO);
    }
    assert_eq!(c.stats().minor_overflows, 1, "the hammered line overflows once");
    assert_eq!(c.read_data_line(line_of(dst(5), 2), ZERO).0, fill(129));
    check(&mut c, &freed, "after the overflow of 5");
    c.cmd_page_phyc(page(6), dst(6), ZERO);
    check(&mut c, &freed, "after page_phyc 6");
    c.cmd_page_free(dst(1), ZERO);
    freed[1] = true;
    check(&mut c, &freed, "after page_free 1");
    assert_eq!(c.stats().cmd_page_phyc, 2);
    let misses = c.cow_cache_stats().misses;
    assert!(misses >= 64, "lookups keep missing the cache: {misses}");
    assert_eq!(c.stats().cow_meta_reads, misses, "each miss reads the slot line");
    assert_eq!(c.nvm_stats().line_writes, 0, "nothing drained: the slot line stayed queued");
    assert!(c.nvm_stats().forwarded_reads > 0);

    // Destinations 2, 4 and 7 still redirect.
    let live_redirects = c.stats().redirected_reads;
    let report = c.crash_and_recover().expect("clean recovery");
    assert_eq!(report.cow_mappings_recovered, 3, "one per live mapping");
    check(&mut c, &freed, "after recovery");
    assert_eq!(c.stats().redirected_reads - live_redirects, 6);
}

#[test]
#[should_panic(expected = "data-MAC integrity violation")]
fn tampered_data_is_detected_by_macs() {
    let mut c = ctrl(SchemeKind::Baseline);
    let addr = line_of(page(0), 0);
    c.write_data_line(addr, fill(0x42), ZERO);
    c.flush_all(ZERO);
    c.tamper_data_for_test(addr);
    let _ = c.read_data_line(addr, ZERO);
}

#[test]
fn data_macs_survive_crash_and_catch_offline_tampering() {
    let mut c = ctrl(SchemeKind::LelantusResized);
    let addr = line_of(page(0), 0);
    c.write_data_line(addr, fill(0x42), ZERO);
    c.flush_all(ZERO);
    c.crash_and_recover().unwrap();
    assert_eq!(c.read_data_line(addr, ZERO).0, fill(0x42), "MACs persisted");
    // Flip data bits "while powered off".
    c.tamper_data_for_test(addr);
    c.crash_and_recover().unwrap(); // counters are fine; tree passes
    let result =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.read_data_line(addr, ZERO)));
    assert!(result.is_err(), "offline data tampering must be caught on read");
}

#[test]
fn redirected_reads_verify_the_source_mac() {
    let mut c = ctrl(SchemeKind::LelantusResized);
    c.write_data_line(line_of(page(0), 3), fill(7), ZERO);
    c.cmd_page_copy(page(0), page(1), ZERO);
    c.flush_all(ZERO);
    // Tamper with the SOURCE line; a redirected read of the copy must
    // trip the source's MAC.
    c.tamper_data_for_test(line_of(page(0), 3));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        c.read_data_line(line_of(page(1), 3), ZERO)
    }));
    assert!(result.is_err(), "lazy copies must not launder tampered source data");
}

#[test]
fn disabling_macs_skips_verification_and_traffic() {
    let mut cfg = small_config(SchemeKind::Baseline);
    cfg.data_macs = false;
    let mut c = SecureMemoryController::new(cfg);
    let addr = line_of(page(0), 0);
    c.write_data_line(addr, fill(1), ZERO);
    c.read_data_line(addr, ZERO);
    assert_eq!(c.stats().mac_verifications, 0);
    assert_eq!(c.stats().mac_fetches, 0);
}

/// Runs `op`, which must panic with the data-MAC violation message
/// naming `line`.
fn assert_mac_violation_at(line: PhysAddr, op: impl FnOnce()) {
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(op))
        .expect_err("tampered line passed its MAC check");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    let want = format!("data-MAC integrity violation at {line} ");
    assert!(msg.contains(&want), "panic {msg:?} does not name {line}");
}

/// A written source page (all 64 lines) with one line tampered in NVM.
fn tampered_source(scheme: SchemeKind, tampered: u64) -> SecureMemoryController {
    let mut c = ctrl(scheme);
    for l in 0..64u64 {
        c.write_data_line(line_of(page(0), l), fill(l as u8 + 1), ZERO);
    }
    c.flush_all(ZERO);
    c.tamper_data_for_test(line_of(page(0), tampered));
    c
}

#[test]
fn bulk_copy_of_a_tampered_line_panics_at_that_line() {
    // A whole page (its checks run in full batches) and three lines
    // (a partial batch, checked as the call returns).
    for (bytes, tampered) in [(4096, 13), (3 * LINE_BYTES as u64, 1)] {
        let mut c = tampered_source(SchemeKind::Baseline, tampered);
        assert_mac_violation_at(line_of(page(0), tampered), || {
            c.copy_page_bulk(page(0), page(1), bytes, ZERO);
        });
    }
}

#[test]
fn page_phyc_of_a_tampered_source_line_panics_at_that_line() {
    for scheme in [SchemeKind::LelantusResized, SchemeKind::LelantusCow] {
        for tampered in [40, 63] {
            let mut c = tampered_source(scheme, tampered);
            c.cmd_page_copy(page(0), page(1), ZERO);
            // One implicit copy first, so the last check of the 63
            // materialized lines falls in a partial batch.
            c.write_data_line(page(1), fill(0xAB), ZERO);
            assert_mac_violation_at(line_of(page(0), tampered), || {
                c.cmd_page_phyc(page(0), page(1), ZERO);
            });
        }
    }
}

#[test]
fn overflow_reencryption_of_a_tampered_line_panics_at_that_line() {
    let mut c = SecureMemoryController::new(ControllerConfig {
        randomize_counters: false,
        ..small_config(SchemeKind::Baseline)
    });
    for l in 0..64u64 {
        c.write_data_line(line_of(page(0), l), fill(l as u8 + 1), ZERO);
    }
    // Rewrite line 0 up to the write that overflows its minor counter.
    let hot = line_of(page(0), 0);
    loop {
        let mut probe = c.clone();
        probe.write_data_line(hot, fill(0xEE), ZERO);
        if probe.stats().minor_overflows > 0 {
            break;
        }
        c = probe;
    }
    c.flush_all(ZERO);
    c.tamper_data_for_test(line_of(page(0), 21));
    assert_mac_violation_at(line_of(page(0), 21), || {
        c.write_data_line(hot, fill(0xEF), ZERO);
    });
}

#[test]
fn a_verify_after_an_install_of_the_same_slot_sees_the_new_tag() {
    // Copying a page one line up reads, in the same call, each line the
    // previous step wrote: every verify follows a pending install of
    // its own slot.
    let mut c = ctrl(SchemeKind::Baseline);
    c.write_data_line(line_of(page(0), 0), fill(0x77), ZERO);
    for l in 1..64u64 {
        c.write_data_line(line_of(page(0), l), fill(l as u8), ZERO);
    }
    c.copy_page_bulk(page(0), line_of(page(0), 1), 4096 - LINE_BYTES as u64, ZERO);
    for l in 0..64u64 {
        assert_eq!(c.read_data_line(line_of(page(0), l), ZERO).0, fill(0x77), "line {l}");
    }
    assert!(c.stats().mac_verifications >= 63);
}

#[test]
fn pending_tags_land_before_their_mac_line_is_evicted() {
    // Two resident MAC lines against a strided sweep over eight: every
    // fill evicts a line whose tags are still queued.
    let mut c = SecureMemoryController::new(ControllerConfig {
        mac_cache_lines: 2,
        ..small_config(SchemeKind::Baseline)
    });
    for i in 0..64u64 {
        let l = i * 9 % 64;
        c.write_data_line(line_of(page(0), l), fill(l as u8 + 1), ZERO);
    }
    assert!(c.mac_cache_stats().writebacks > 0, "the sweep must evict dirty MAC lines");
    for l in (0..64u64).rev() {
        assert_eq!(c.read_data_line(line_of(page(0), l), ZERO).0, fill(l as u8 + 1));
    }
    c.flush_all(ZERO);
    c.crash_and_recover().expect("clean recovery");
    for l in 0..64u64 {
        assert_eq!(c.read_data_line(line_of(page(0), l), ZERO).0, fill(l as u8 + 1));
    }
}

/// A controller with counters starting at 1 and the given counter-cache
/// write policy.
fn with_policy(scheme: SchemeKind, policy: WritePolicy) -> SecureMemoryController {
    let mut config = ControllerConfig { randomize_counters: false, ..small_config(scheme) };
    config.counter_cache.policy = policy;
    SecureMemoryController::new(config)
}

/// Writes `line` until the next write overflows its minor counter,
/// which starts at 1.
fn raise_to_ceiling(c: &mut SecureMemoryController, line: PhysAddr) {
    let max = c.config().scheme.encoding().minor_max(false);
    for i in 1..max {
        c.write_data_line(line, fill(i), ZERO);
    }
}

#[test]
fn bulk_copy_and_zero_stay_exact_when_a_minor_overflows_mid_page() {
    // The write pads a bulk path makes ahead stop at the overflowing
    // line; the re-encryption and the rest of the page run on pads made
    // on the spot.
    for policy in [WritePolicy::WriteBack, WritePolicy::WriteThrough] {
        for hot in [0u64, 31, 63] {
            let mut c = with_policy(SchemeKind::Baseline, policy);
            for l in 0..64u64 {
                c.write_data_line(line_of(page(0), l), fill(l as u8 + 1), ZERO);
            }
            raise_to_ceiling(&mut c, line_of(page(1), hot));
            let overflows = c.stats().minor_overflows;
            c.copy_page_bulk(page(0), page(1), 4096, ZERO);
            assert_eq!(c.stats().minor_overflows, overflows + 1, "{policy:?} line {hot}");
            for l in 0..64u64 {
                let want = fill(l as u8 + 1);
                assert_eq!(c.read_data_line(line_of(page(1), l), ZERO).0, want, "copy {l}");
                assert_eq!(c.read_data_line(line_of(page(0), l), ZERO).0, want, "source {l}");
            }

            let mut c = with_policy(SchemeKind::Baseline, policy);
            for l in (0..64u64).filter(|&l| l != hot) {
                c.write_data_line(line_of(page(1), l), fill(0x5A), ZERO);
            }
            raise_to_ceiling(&mut c, line_of(page(1), hot));
            let overflows = c.stats().minor_overflows;
            c.zero_page_bulk(page(1), 4096, ZERO);
            assert_eq!(c.stats().minor_overflows, overflows + 1, "{policy:?} line {hot}");
            for l in 0..64u64 {
                assert_eq!(c.read_data_line(line_of(page(1), l), ZERO).0, [0; 64], "zero {l}");
            }
        }
    }
}

#[test]
fn page_phyc_stays_exact_past_a_two_hop_line_and_an_overflowed_source() {
    // Page 2 is a lazy copy of page 1, itself a copy of page 0 with
    // every line but `hot` rewritten. Without an overflow, `hot` of
    // page 2 resolves two hops deep; with one, page 1 re-encrypts under
    // a new major before the phyc reads it. The chain walk predicts
    // both, so every pad of the phyc comes from the window.
    for scheme in [SchemeKind::LelantusResized, SchemeKind::LelantusCow] {
        for policy in [WritePolicy::WriteBack, WritePolicy::WriteThrough] {
            for hot in [0u64, 31, 63] {
                for overflow in [false, true] {
                    let mut c = with_policy(scheme, policy);
                    for l in 0..64u64 {
                        c.write_data_line(line_of(page(0), l), fill(l as u8 + 1), ZERO);
                    }
                    c.cmd_page_copy(page(0), page(1), ZERO);
                    for l in (0..64u64).filter(|&l| l != hot) {
                        c.write_data_line(line_of(page(1), l), fill(0x80 | l as u8), ZERO);
                    }
                    c.cmd_page_copy(page(1), page(2), ZERO);
                    let marker = (hot + 1) % 64;
                    c.write_data_line(line_of(page(2), marker), fill(0xEE), ZERO);
                    if overflow {
                        let overflows = c.stats().minor_overflows;
                        for i in 0..200u8 {
                            c.write_data_line(line_of(page(1), hot), fill(i), ZERO);
                            if c.stats().minor_overflows > overflows {
                                break;
                            }
                        }
                        assert_eq!(c.stats().minor_overflows, overflows + 1, "{scheme}");
                    }
                    let want: Vec<_> =
                        (0..64).map(|l| c.read_data_line(line_of(page(2), l), ZERO).0).collect();
                    assert_eq!(want[marker as usize], fill(0xEE));
                    if !overflow {
                        assert_eq!(want[hot as usize], fill(hot as u8 + 1), "two hops to page 0");
                    }
                    let materialized = c.stats().materialized_lines;
                    let (served, missed) = c.pad_counts();
                    c.cmd_page_phyc(page(1), page(2), ZERO);
                    assert_eq!(c.stats().materialized_lines, materialized + 63, "{scheme}");
                    assert_eq!(c.pad_counts(), (served + 2 * 63, missed), "{scheme} hot {hot}");
                    for (l, want) in want.iter().enumerate() {
                        let got = c.read_data_line(line_of(page(2), l as u64), ZERO).0;
                        assert_eq!(got, *want, "{scheme} {policy:?} hot {hot} line {l}");
                    }
                }
            }
        }
    }
}

/// The bytes page `k` of a [`chain`] writes at line `l`.
fn chain_bytes(k: u64, l: u64) -> [u8; LINE_BYTES] {
    fill(0x10 * (k as u8 + 1) + l as u8)
}

/// A redirect chain `depth` hops deep: page 0 is a lazy copy of the zero
/// page and each page `k` in `1..=depth` a lazy copy of page `k - 1`.
/// Page `k` writes the lines `l` with `l % (depth + 2) == k`, so a line
/// of page `depth` resolves `depth - k` hops deep, and the lines with
/// `l % (depth + 2) == depth + 1` read zeros through the whole chain.
fn chain(scheme: SchemeKind, depth: u64) -> SecureMemoryController {
    let mut c = with_policy(scheme, WritePolicy::WriteBack);
    c.cmd_page_copy(PhysAddr::new(0), page(0), ZERO);
    for k in 0..=depth {
        if k > 0 {
            c.cmd_page_copy(page(k - 1), page(k), ZERO);
        }
        for l in (0..64).filter(|l| l % (depth + 2) == k) {
            c.write_data_line(line_of(page(k), l), chain_bytes(k, l), ZERO);
        }
    }
    c
}

/// What line `l` of the top page of a [`chain`] `depth` hops deep reads.
fn chain_line(depth: u64, l: u64) -> [u8; LINE_BYTES] {
    let k = l % (depth + 2);
    if k > depth {
        [0; LINE_BYTES]
    } else {
        chain_bytes(k, l)
    }
}

/// Lines of a [`chain`]'s top page, in `lines`, that read zeros.
fn zero_lines(depth: u64, lines: std::ops::Range<u64>) -> u64 {
    lines.filter(|l| l % (depth + 2) == depth + 1).count() as u64
}

#[test]
fn page_phyc_serves_every_pad_from_the_window_at_each_chain_depth() {
    for scheme in [SchemeKind::LelantusResized, SchemeKind::LelantusCow] {
        for depth in 2..=4 {
            let mut c = chain(scheme, depth);
            let top = page(depth);
            for l in 0..64 {
                assert_eq!(c.read_data_line(line_of(top, l), ZERO).0, chain_line(depth, l));
            }
            let uncopied = (0..64).filter(|l| l % (depth + 2) != depth).count() as u64;
            let (served, missed) = c.pad_counts();
            c.cmd_page_phyc(page(depth - 1), top, ZERO);
            assert_eq!(c.stats().materialized_lines, uncopied, "{scheme} depth {depth}");
            // A read pad for each uncopied line that does not read zeros,
            // and a write pad for each.
            let want = served + 2 * uncopied - zero_lines(depth, 0..64);
            assert_eq!(c.pad_counts(), (want, missed), "{scheme} depth {depth}");
            for l in 0..64 {
                let got = c.read_data_line(line_of(top, l), ZERO).0;
                assert_eq!(got, chain_line(depth, l), "{scheme} depth {depth} line {l}");
            }
        }
    }
}

#[test]
fn an_overflow_in_a_cow_region_serves_every_pad_from_the_window() {
    for scheme in [SchemeKind::LelantusResized, SchemeKind::LelantusCow] {
        for depth in 2..=4 {
            let mut c = chain(scheme, depth);
            let hot = line_of(page(depth), depth);
            let mut last = 0;
            loop {
                let overflows = c.stats().minor_overflows;
                let (served, missed) = c.pad_counts();
                last += 1;
                c.write_data_line(hot, fill(last), ZERO);
                if c.stats().minor_overflows > overflows {
                    // The old pad of every line that does not read zeros,
                    // the 64 new ones and the overflowing write's own.
                    let want = served + 64 - zero_lines(depth, 0..64) + 64 + 1;
                    assert_eq!(c.pad_counts(), (want, missed), "{scheme} depth {depth}");
                    break;
                }
                assert!(last < 255, "{scheme}: no overflow");
            }
            for l in 0..64 {
                let got = c.read_data_line(line_of(page(depth), l), ZERO).0;
                let want = if l == depth { fill(last) } else { chain_line(depth, l) };
                assert_eq!(got, want, "{scheme} depth {depth} line {l}");
            }
        }
    }
}

#[test]
fn a_bulk_copy_from_a_lazy_copy_serves_every_pad_from_the_window() {
    for scheme in [SchemeKind::LelantusResized, SchemeKind::LelantusCow] {
        for depth in 2..=4 {
            let mut c = chain(scheme, depth);
            let top = page(depth);
            // The whole page, then ten lines at an offset.
            for (from, to, lines) in [(0, 0, 0..64), (5, 20, 5..15)] {
                let dst = line_of(page(8 + from), to);
                let n = lines.end - lines.start;
                let (served, missed) = c.pad_counts();
                c.copy_page_bulk(line_of(top, from), dst, n * LINE_BYTES as u64, ZERO);
                let want = served + 2 * n - zero_lines(depth, lines.clone());
                assert_eq!(c.pad_counts(), (want, missed), "{scheme} depth {depth} {lines:?}");
                for (i, l) in lines.enumerate() {
                    let got = c.read_data_line(dst + (i * LINE_BYTES) as u64, ZERO).0;
                    assert_eq!(got, chain_line(depth, l), "{scheme} depth {depth} line {l}");
                }
            }
        }
    }
}

#[test]
fn a_copy_back_onto_its_source_leaves_the_source_alone() {
    // B is an unmodified lazy copy of A, so chain shortening makes A the
    // effective source of a copy B -> A. A keeps its counters and
    // mapping: its copied lines, and the uncopied ones it reads as
    // zeros from the zero page, read back unchanged.
    for scheme in [SchemeKind::LelantusResized, SchemeKind::LelantusCow] {
        let mut c = ctrl(scheme);
        let (a, b) = (page(0), page(1));
        c.cmd_page_copy(PhysAddr::new(0), a, ZERO);
        for l in (0..64).step_by(2) {
            c.write_data_line(line_of(a, l), fill(l as u8 + 1), ZERO);
        }
        let want = |l: u64| if l.is_multiple_of(2) { fill(l as u8 + 1) } else { [0; LINE_BYTES] };
        c.cmd_page_copy(a, b, ZERO);
        c.cmd_page_copy(b, a, ZERO);
        assert_eq!(c.stats().cmd_page_copy, 3, "{scheme}");
        for l in 0..64 {
            assert_eq!(c.read_data_line(line_of(a, l), ZERO).0, want(l), "{scheme} A line {l}");
            assert_eq!(c.read_data_line(line_of(b, l), ZERO).0, want(l), "{scheme} B line {l}");
        }
        // A copy straight onto itself is the same no-op.
        c.cmd_page_copy(a, a, ZERO);
        for l in 0..64 {
            assert_eq!(c.read_data_line(line_of(a, l), ZERO).0, want(l), "{scheme} A line {l}");
        }
    }
}

/// A Lelantus-CoW controller whose page 2 (region 514) is a lazy copy of
/// page 0 with its NVM slot then rewritten to name region 514 itself,
/// behind a one-entry CoW cache that no longer holds the old mapping.
fn cyclic_slot() -> SecureMemoryController {
    let mut cfg = small_config(SchemeKind::LelantusCow);
    cfg.cow_cache_entries = 1;
    let layout = MetadataLayout::for_data_bytes(cfg.data_bytes);
    let mut c = SecureMemoryController::new(cfg);
    c.write_data_line(line_of(page(0), 1), fill(1), ZERO);
    c.cmd_page_copy(page(0), page(2), ZERO);
    c.flush_all(ZERO);
    let region = layout.region_of(page(2));
    assert_eq!(region, 514);
    c.tamper_cow_slot_for_test(region, Some(region));
    c.cmd_page_copy(page(0), page(3), ZERO);
    c
}

#[test]
#[should_panic(expected = "CoW-chain integrity violation at region 514")]
fn a_read_through_a_cyclic_cow_slot_panics_naming_the_region() {
    let _ = cyclic_slot().read_data_line(line_of(page(2), 1), ZERO);
}

#[test]
#[should_panic(expected = "CoW-chain integrity violation at region 514")]
fn a_page_phyc_over_a_cyclic_cow_slot_panics_naming_the_region() {
    cyclic_slot().cmd_page_phyc(page(2), page(2), ZERO);
}
