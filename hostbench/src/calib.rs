//! Host-speed calibration.
//!
//! On a shared host the simulator's speed drifts by up to 1.7x over
//! minutes as other tenants come and go, and a run-level median cannot
//! average that out. A fixed calibration round, timed next to every
//! set-up and replay, measures the host's current speed; the benchmark
//! reports times scaled to the speed at which one round takes
//! [`REFERENCE_S`]. The round is this file's own code and never changes
//! with the simulator, so a change to the simulator moves the scaled
//! time exactly as it moves the raw one.
//!
//! The round mixes what the simulator does most: sorting, `HashMap` and
//! `BTreeMap` lookups and inserts, and independent integer arithmetic.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Seconds one calibration round takes at the reference speed (about
/// its median on a shared 2-vCPU Intel Xeon host).
pub const REFERENCE_S: f64 = 0.040;

/// A fixed pseudo-random sequence, so every round does the same work.
fn next(x: &mut u64) -> u64 {
    *x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *x >> 11
}

/// Runs one calibration round and returns its wall time in seconds.
pub fn round() -> f64 {
    let mut x = 0x5EED;
    let mut keys: Vec<u64> = (0..1 << 17).map(|_| next(&mut x)).collect();
    let start = Instant::now();

    keys.sort_unstable();
    black_box(&keys);

    let mut hash = HashMap::new();
    let mut tree = BTreeMap::new();
    for i in 0..100_000u64 {
        hash.insert(next(&mut x) % 200_000, i);
        if i % 2 == 0 {
            tree.insert(next(&mut x) % 100_000, i);
        }
    }
    let mut acc = 0u64;
    for i in 0..100_000u64 {
        acc = acc.wrapping_add(*hash.get(&(next(&mut x) % 200_000)).unwrap_or(&0));
        if i % 2 == 0 {
            acc = acc.wrapping_add(*tree.get(&(next(&mut x) % 100_000)).unwrap_or(&0));
        }
    }
    black_box(acc);

    let mut lanes = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for i in 0..2_500_000u64 {
        for (k, v) in lanes.iter_mut().enumerate() {
            *v = v.rotate_left(7).wrapping_add(i ^ k as u64).wrapping_mul(0x9E37);
        }
    }
    black_box(lanes);

    start.elapsed().as_secs_f64()
}
