//! Fast-path equivalence: the frame-indexed `LineStore` replacing the
//! NVM device's per-line `HashMap` must be *observationally invisible*.
//! (The AES backends are checked against a byte-oriented model in
//! `lelantus-crypto`'s unit tests, and the whole-system runs they once
//! were compared on are pinned in `tests/golden_matrix.rs`.)

use lelantus::crypto::ctr::LINE_BYTES;
use lelantus::nvm::LineStore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

// ---------------------------------------------------------------------
// LineStore is observationally a HashMap
// ---------------------------------------------------------------------

#[test]
fn line_store_matches_hashmap_semantics() {
    let mut store = LineStore::new();
    let mut map: HashMap<u64, [u8; LINE_BYTES]> = HashMap::new();
    let mut rng = StdRng::seed_from_u64(0x005e_ed0f_fa57_0001);
    for step in 0..30_000u32 {
        // Mix dense in-frame addresses with sparse far-apart frames.
        let frame = rng.gen_range(0u64..48) * 4096 + rng.gen_range(0u64..3) * (1 << 24);
        let addr = frame + rng.gen_range(0u64..64) * LINE_BYTES as u64;
        match step % 4 {
            0 | 1 => {
                let data = [(step % 251) as u8; LINE_BYTES];
                assert_eq!(store.get(addr), map.insert(addr, data));
                store.put(addr, data);
            }
            2 => assert_eq!(store.get(addr), map.get(&addr).copied()),
            _ => assert_eq!(store.remove(addr), map.remove(&addr)),
        }
        assert_eq!(store.len(), map.len());
        assert_eq!(store.is_empty(), map.is_empty());
    }
}
