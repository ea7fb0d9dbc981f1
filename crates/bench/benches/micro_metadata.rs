//! Micro-benchmarks for the metadata path: the word-level counter-block
//! codec, the MAC-line (de)serializers, and Merkle maintenance in both
//! eager and deferred shapes.

use lelantus_bench::harness::bench;
use lelantus_bench::results::{timed_emit, Record};
use lelantus_crypto::MerkleTree;
use lelantus_metadata::mac::{decode_mac_line, encode_mac_line};
use lelantus_metadata::{CounterBlock, CounterEncoding};
use std::hint::black_box;

fn main() {
    timed_emit("micro_metadata", || {
        let mut records = Vec::new();
        let mut ms = Vec::new();

        // --- counter-block codec ---------------------------------------
        let cow = CounterBlock::fresh_cow(42);
        let regular = CounterBlock::fresh_regular(1);
        let word_enc =
            bench("codec_encode_resized_word", || black_box(&cow).encode(CounterEncoding::Resized));
        let bytes = cow.encode(CounterEncoding::Resized);
        let word_dec = bench("codec_decode_resized_word", || {
            CounterBlock::decode(black_box(&bytes), CounterEncoding::Resized)
        });
        let word_enc_classic = bench("codec_encode_classic_word", || {
            black_box(&regular).encode(CounterEncoding::Classic)
        });
        ms.extend([word_enc, word_dec, word_enc_classic]);

        // --- MAC-line (de)serializers ----------------------------------
        let macs = [0x1122334455667788u64; 8];
        let enc_mac = bench("encode_mac_line", || encode_mac_line(black_box(&macs)));
        let line = encode_mac_line(&macs);
        let dec_mac = bench("decode_mac_line", || decode_mac_line(black_box(&line)));
        ms.extend([enc_mac, dec_mac]);

        // --- Merkle maintenance: eager vs deferred sweeps --------------
        // A 64-leaf region sweep is the page-copy shape: eager
        // maintenance rehashes every ancestor per leaf, the deferred
        // tree rehashes each dirty ancestor once at the flush point.
        let leaf_data = [0x33u8; 64];
        let mut eager = MerkleTree::new(65536, (1, 2), 512);
        let mut base = 0usize;
        let eager_sweep = bench("merkle_sweep64_eager", || {
            base = (base + 64) % 65536;
            for l in base..base + 64 {
                eager.update_leaf(l, &leaf_data);
            }
        });
        let mut deferred = MerkleTree::new(65536, (1, 2), 512).with_deferred_maintenance();
        let mut base = 0usize;
        let deferred_sweep = bench("merkle_sweep64_deferred_flush", || {
            base = (base + 64) % 65536;
            for l in base..base + 64 {
                deferred.update_leaf(l, &leaf_data);
            }
            deferred.flush()
        });
        // Cold vs cached verify (the cold tree misses its node cache on
        // every level, the warm one hits the whole path).
        let mut cold = MerkleTree::new(65536, (1, 2), 1);
        cold.update_leaf(1234, &leaf_data);
        let verify_cold = bench("merkle_verify_leaf_cold", || {
            cold.verify_leaf(black_box(1234), black_box(&leaf_data)).unwrap()
        });
        let mut warm = MerkleTree::new(65536, (1, 2), 512);
        warm.update_leaf(1234, &leaf_data);
        let verify_cached = bench("merkle_verify_leaf_cached", || {
            warm.verify_leaf(black_box(1234), black_box(&leaf_data)).unwrap()
        });
        ms.extend([eager_sweep.clone(), deferred_sweep.clone(), verify_cold, verify_cached]);

        let sweep_speedup = deferred_sweep.speedup_over(&eager_sweep);
        println!("\n64-leaf Merkle sweep, deferred over eager: {sweep_speedup:.2}x");

        for m in &ms {
            records.push(Record::new(&m.name, m.ns_per_iter, "ns/iter").timed(m.elapsed_s));
        }
        records.push(Record::new("speedup/merkle_sweep64_deferred", sweep_speedup, "x"));
        records
    });
}
