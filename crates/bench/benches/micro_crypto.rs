//! Micro-benchmarks for the cryptographic substrate: T-table AES,
//! 64-byte line CTR encryption (default and forced T-table engine),
//! the batched page-pad sweep, SipHash tags, and Merkle-tree walks.

use lelantus_bench::harness::bench;
use lelantus_bench::results::{timed_emit, Record};
use lelantus_crypto::ctr::{CtrEngine, IvSpec};
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

        // --- batched page pads vs per-line dispatch --------------------
        let batched = bench("page_pads_64_lines", || engine.page_pads(0x4000, 11, 1, 64));
        let per_line = bench("one_time_pad_x64_lines", || {
            (0..64u64)
                .map(|i| {
                    engine.one_time_pad(IvSpec { line_addr: 0x4000 + i * 64, major: 11, minor: 1 })
                })
                .collect::<Vec<_>>()
        });

        // --- integrity substrate ---------------------------------------
        let mac = SipHash24::new(1, 2);
        let data = [0x5A; 64];
        let sip = bench("siphash24_64B", || mac.hash(black_box(&data)));
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

        let batch_speedup = batched.speedup_over(&per_line);
        println!("\npage_pads vs 64 one_time_pad calls: {batch_speedup:.2}x");

        for m in [
            &block,
            &fast_enc,
            &table_enc,
            &fast_dec,
            &batched,
            &per_line,
            &sip,
            &merkle_update,
            &merkle_verify,
        ] {
            records.push(Record::new(&m.name, m.ns_per_iter, "ns/iter").timed(m.elapsed_s));
        }
        records.push(Record::new("speedup/page_pads_batch", batch_speedup, "x"));
        records
    });
}
