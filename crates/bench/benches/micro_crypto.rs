//! Micro-benchmarks for the cryptographic substrate: T-table AES,
//! 64-byte line CTR encryption (default and forced T-table engine),
//! the pads of one page (one batch call versus 64 per-line calls),
//! SipHash tags (one 81-byte data-MAC input at a time and eight per
//! kernel call), and Merkle-tree walks.
//!
//! Gates, each skipped where the CPU lacks the wide path (both sides
//! are then the same code):
//!
//! * with `vaes` and `avx512f`, one page's pads from the batch kernel
//!   must cost at most 1/2 of 64 per-line pads;
//! * with AVX-512, eight data MACs per kernel call must cost at most
//!   1/2.5 of eight scalar tags.

use lelantus_bench::harness::bench;
use lelantus_bench::results::{timed_emit, Record};
use lelantus_crypto::ctr::{CtrEngine, IvSpec};
use lelantus_crypto::siphash::{DataMacBatch, DATA_MAC_INPUT_BYTES, DATA_MAC_LANES};
use lelantus_crypto::{Aes128, MerkleTree, SipHash24};
use std::hint::black_box;

fn main() {
    timed_emit("micro_crypto", || {
        let mut records = Vec::new();

        // --- AES block ciphers -----------------------------------------
        let aes = Aes128::new([7; 16]);
        let block = bench("aes128_encrypt_block", || aes.encrypt_block(black_box([0x42; 16])));

        // --- 64-byte line CTR ------------------------------------------
        // `CtrEngine::new` resolves to hardware AES where the CPU has
        // it and the T-table cipher otherwise; the forced-table engine
        // is measured separately (the only path on CPUs without AES-NI).
        let engine = CtrEngine::new([9; 16]);
        let table_engine = CtrEngine::new_table([9; 16]);
        let iv = IvSpec { line_addr: 0x1000, major: 5, minor: 3 };
        let line = [0xAB; 64];
        let fast_enc =
            bench("ctr_encrypt_line_64B", || engine.encrypt_line(black_box(&line), black_box(iv)));
        let table_enc = bench("ctr_encrypt_line_64B_ttable", || {
            table_engine.encrypt_line(black_box(&line), black_box(iv))
        });
        let fast_dec =
            bench("ctr_decrypt_line_64B", || engine.decrypt_line(black_box(&line), black_box(iv)));

        // --- the pads of one page: one batch call vs 64 per-line pads ---
        let page_pads = bench("page_pads_64_lines", || engine.page_pads(0x4000, 11, 1, 64));
        let page_ivs: Vec<IvSpec> =
            (0..64).map(|i| IvSpec { line_addr: 0x4000 + 64 * i, major: 11, minor: 1 }).collect();
        let pads_per_line = bench("page_pads_64_lines_per_line", || {
            page_ivs.iter().map(|&iv| engine.one_time_pad(black_box(iv))).collect::<Vec<_>>()
        });
        let pad_speedup = pads_per_line.ns_per_iter / page_pads.ns_per_iter;
        println!("\none page's pads, batch kernel vs 64 per-line pads: {pad_speedup:.2}x");
        if engine.pads_vaes(&page_ivs, &mut [[0; 64]; 64]) {
            assert!(
                pad_speedup >= 2.0,
                "VAES page-pad kernel only {pad_speedup:.2}x over per-line pads (gate: >=2x)"
            );
        } else {
            println!("skip: no vaes+avx512f on this CPU; the batch call is the per-line pads");
        }

        // --- integrity substrate ---------------------------------------
        let mac = SipHash24::new(1, 2);
        let data = [0x5A; 64];
        let sip = bench("siphash24_64B", || mac.hash(black_box(&data)));

        // --- data MACs: one line versus eight per kernel call ----------
        // Both rows include building the input from (line, address,
        // major, minor), as the controller does per tag.
        let lines: Vec<[u8; 64]> = (0..DATA_MAC_LANES as u8).map(|l| [l ^ 0x5A; 64]).collect();
        let mut i = 0usize;
        let mac_line = bench("data_mac_line", || {
            i = (i + 1) % DATA_MAC_LANES;
            let mut buf = [0u8; DATA_MAC_INPUT_BYTES];
            buf[..64].copy_from_slice(black_box(&lines[i]));
            buf[64..72].copy_from_slice(&(0x4000 + 64 * i as u64).to_le_bytes());
            buf[72..80].copy_from_slice(&black_box(11u64).to_le_bytes());
            buf[80] = black_box(3);
            mac.hash(&buf)
        });
        let mut batch = DataMacBatch::default();
        let macs8 = bench("data_macs_8_lines", || {
            batch.clear();
            for (l, line) in lines.iter().enumerate() {
                batch.push(black_box(line), 0x4000 + 64 * l as u64, black_box(11), black_box(3));
            }
            mac.data_macs8(&batch)
        });
        let mac_speedup = DATA_MAC_LANES as f64 * mac_line.ns_per_iter / macs8.ns_per_iter;
        println!("\n8 data MACs per kernel call vs 8 scalar tags: {mac_speedup:.2}x");
        if mac.data_macs8_avx512(&batch).is_some() {
            assert!(
                mac_speedup >= 2.5,
                "AVX-512 data-MAC kernel only {mac_speedup:.2}x over scalar (gate: >=2.5x)"
            );
        } else {
            println!("skip: no avx512f on this CPU; the 8-lane call is the scalar hash");
        }
        let mut tree = MerkleTree::new(65536, (1, 2), 512);
        let leaf_data = [0x33u8; 64];
        let mut leaf = 0usize;
        let merkle_update = bench("merkle_update_leaf", || {
            leaf = (leaf + 97) % 65536;
            tree.update_leaf(black_box(leaf), black_box(&leaf_data))
        });
        let mut tree = MerkleTree::new(65536, (1, 2), 512);
        tree.update_leaf(1234, &leaf_data);
        let merkle_verify = bench("merkle_verify_leaf_cached", || {
            tree.verify_leaf(black_box(1234), black_box(&leaf_data)).unwrap()
        });

        for m in [
            &block,
            &fast_enc,
            &table_enc,
            &fast_dec,
            &page_pads,
            &pads_per_line,
            &sip,
            &mac_line,
            &macs8,
            &merkle_update,
            &merkle_verify,
        ] {
            records.push(Record::new(&m.name, m.ns_per_iter, "ns/iter").timed(m.elapsed_s));
        }
        records.push(Record::new("speedup/page_pads_batch", pad_speedup, "x"));
        records.push(Record::new("speedup/data_mac_batch", mac_speedup, "x"));
        records
    });
}
