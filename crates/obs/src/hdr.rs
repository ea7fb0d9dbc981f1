//! HDR-style log-linear histogram: exact-count percentiles at bounded
//! relative error.
//!
//! Plain power-of-two buckets would make a p999 estimate off by up to
//! 2x — useless for comparing schemes whose tails differ by tens of
//! percent. [`HdrHistogram`] keeps the full-`u64` range and O(1)
//! `leading_zeros` recording, but subdivides every power of two into
//! [`SUB_BUCKETS`] linear sub-buckets, so any percentile query is
//! exact to within `1/SUB_BUCKETS` relative error (and *exact* below
//! `2 * SUB_BUCKETS`). It is the one histogram type of this crate: the
//! event view's [`crate::HistogramSet`] and the tail recorder both use it.
//!
//! # Bucket math
//!
//! With `SUB_BUCKETS = 32` (5 mantissa bits):
//!
//! * values `0..64` are their own bucket: `index = v` (two exact
//!   rows — the sub-linear range where log-linear bucketing would
//!   waste slots);
//! * for `v >= 64`, let `exp = 63 - v.leading_zeros()` (so
//!   `2^exp <= v < 2^(exp+1)`, `exp >= 6`) and
//!   `shift = exp - 5`; then `index = 64 + (exp - 6) * 32 +
//!   ((v >> shift) & 31)`.
//!
//! Each row of 32 buckets spans one power of two with bucket width
//! `2^shift`; the bucket holding `v` has lower bound
//! `(32 + mantissa) << shift >= 32 << shift`, so the width-to-lower
//! ratio — and hence the percentile error — is below `1/32`. Rows for
//! `exp = 6..=63` plus the 64 exact slots give
//! `64 + 58 * 32 = 1856 + 64 = 1920` buckets; the top bucket's
//! inclusive upper bound is exactly `u64::MAX`. The count array grows
//! on demand up to the highest occupied bucket, so an empty histogram
//! allocates nothing and one holding small values (queue depths, chain
//! hops) stays a few hundred bytes instead of 15 KB.
//!
//! All counters saturate instead of wrapping: a histogram fed more
//! than `u64::MAX` samples (or an astronomically large `sum`) pins at
//! the maximum rather than corrupting percentile ranks.

use std::fmt;

/// Sub-buckets per power of two (the mantissa resolution).
pub const SUB_BUCKETS: u64 = 32;

/// log2 of [`SUB_BUCKETS`].
const SUB_BITS: u32 = 5;

/// Total bucket count: `2 * SUB_BUCKETS` exact values plus one
/// `SUB_BUCKETS`-wide row per exponent `6..=63`.
pub const HDR_BUCKETS: usize = 64 + 58 * SUB_BUCKETS as usize;

/// Bucket index of `value`.
#[inline]
fn index_of(value: u64) -> usize {
    if value < 2 * SUB_BUCKETS {
        return value as usize;
    }
    let exp = 63 - value.leading_zeros();
    let shift = exp - SUB_BITS;
    let mantissa = (value >> shift) & (SUB_BUCKETS - 1);
    (2 * SUB_BUCKETS) as usize
        + (exp as usize - (SUB_BITS as usize + 1)) * SUB_BUCKETS as usize
        + mantissa as usize
}

/// Smallest value landing in bucket `i`.
#[inline]
fn lower_of(i: usize) -> u64 {
    if i < (2 * SUB_BUCKETS) as usize {
        return i as u64;
    }
    let row = (i - (2 * SUB_BUCKETS) as usize) / SUB_BUCKETS as usize;
    let mantissa = (i - (2 * SUB_BUCKETS) as usize) % SUB_BUCKETS as usize;
    let shift = row as u32 + 1;
    (SUB_BUCKETS + mantissa as u64) << shift
}

/// Largest value landing in bucket `i` (inclusive; `u64::MAX` for the
/// top bucket).
#[inline]
fn upper_of(i: usize) -> u64 {
    if i < (2 * SUB_BUCKETS) as usize {
        return i as u64;
    }
    let row = (i - (2 * SUB_BUCKETS) as usize) / SUB_BUCKETS as usize;
    let shift = row as u32 + 1;
    let width = 1u64 << shift;
    lower_of(i).saturating_add(width - 1)
}

/// A log-linear histogram over the full `u64` range with
/// `1/SUB_BUCKETS` relative-error percentile queries.
///
/// # Examples
///
/// ```
/// use lelantus_obs::HdrHistogram;
///
/// let mut h = HdrHistogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let p999 = h.percentile(0.999);
/// assert!((999..=1000 + 1000 / 32).contains(&p999));
/// assert_eq!(h.percentile(1.0), 1000);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HdrHistogram {
    /// Per-bucket sample counts (saturating), up to the highest
    /// occupied bucket: the last entry is never zero, which keeps the
    /// derived equality exact.
    counts: Vec<u64>,
    /// Total samples (saturating).
    count: u64,
    /// Sum of all samples (saturating; for the mean).
    sum: u64,
    /// Largest sample seen.
    max: u64,
}

impl HdrHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let i = index_of(value);
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] = self.counts[i].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of the recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `p`-percentile (`p` in `[0, 1]`) of the recorded samples:
    /// the upper bound of the bucket holding the rank-`ceil(p * n)`
    /// sample, clamped to the observed maximum. Exact for values below
    /// `2 * SUB_BUCKETS`; within `1/SUB_BUCKETS` relative error above.
    /// Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 * p).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(n);
            if seen >= rank {
                return upper_of(i).min(self.max);
            }
        }
        self.max
    }

    /// Folds `other`'s samples into `self` (all counters saturating).
    pub fn merge(&mut self, other: &HdrHistogram) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Interval histogram: the samples recorded since `earlier`, an
    /// older snapshot of this same histogram. Per-bucket counts
    /// subtract exactly; the interval `max` is not recoverable from
    /// bucket deltas, so it is the conservative bound `upper_of` the
    /// highest bucket that gained samples, clamped to the running max.
    pub fn delta_since(&self, earlier: &HdrHistogram) -> HdrHistogram {
        let then = earlier.counts.iter().chain(std::iter::repeat(&0));
        let mut counts: Vec<u64> =
            self.counts.iter().zip(then).map(|(now, then)| now.saturating_sub(*then)).collect();
        let highest = counts.iter().rposition(|&d| d > 0);
        counts.truncate(highest.map_or(0, |i| i + 1));
        HdrHistogram {
            counts,
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            max: highest.map_or(0, |i| upper_of(i).min(self.max)),
        }
    }

    /// Occupied buckets as `(lower, upper_inclusive, count)` rows.
    pub fn rows(&self) -> Vec<(u64, u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (lower_of(i), upper_of(i), n))
            .collect()
    }

    /// The fixed percentile summary the epoch sampler and reports
    /// carry.
    pub fn summary(&self) -> TailSummary {
        TailSummary {
            count: self.count,
            sum: self.sum,
            max: self.max,
            p50: self.percentile(0.50),
            p90: self.percentile(0.90),
            p99: self.percentile(0.99),
            p999: self.percentile(0.999),
        }
    }
}

impl fmt::Display for HdrHistogram {
    /// Compact textual rendering: one `[lo, hi] count |bar|` row per
    /// occupied power of two (sub-buckets folded together; no bucket
    /// straddles a power of two, so the bands are exact).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            return write!(f, "(no samples)");
        }
        writeln!(f, "n={} mean={:.1} max={}", self.count, self.mean(), self.max)?;
        let mut bands: Vec<(u64, u64, u64)> = Vec::new();
        for (lo, _, n) in self.rows() {
            // Band of `lo`: {0}, then [2^k, 2^(k+1)) per power of two.
            let band_lo = if lo == 0 { 0 } else { 1u64 << (63 - lo.leading_zeros()) };
            match bands.last_mut() {
                Some((blo, _, bn)) if *blo == band_lo => *bn = bn.saturating_add(n),
                _ => bands.push((band_lo, band_lo | band_lo.saturating_sub(1), n)),
            }
        }
        let peak = bands.iter().map(|b| b.2).max().unwrap_or(1).max(1);
        for (lo, hi, n) in bands {
            let bar = "#".repeat(((n.saturating_mul(40)).div_ceil(peak)) as usize);
            let range = if lo == hi { format!("{lo}") } else { format!("{lo}..{hi}") };
            writeln!(f, "  {range:>16}  {n:>10}  {bar}")?;
        }
        Ok(())
    }
}

/// A compact, `Copy` percentile snapshot of an [`HdrHistogram`] —
/// what gets stored per epoch and printed per scheme.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TailSummary {
    /// Samples in the window.
    pub count: u64,
    /// Sum of the samples (saturating).
    pub sum: u64,
    /// Largest sample (conservative bucket bound for interval
    /// summaries; see [`HdrHistogram::delta_since`]).
    pub max: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

impl TailSummary {
    /// Mean of the summarized samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic LCG for oracle sampling (no external RNG).
    fn lcg(state: &mut u64) -> u64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *state
    }

    #[test]
    fn indexing_round_trips_every_bucket() {
        for i in 0..HDR_BUCKETS {
            let lo = lower_of(i);
            let hi = upper_of(i);
            assert!(lo <= hi, "bucket {i}");
            assert_eq!(index_of(lo), i, "lower bound of bucket {i}");
            assert_eq!(index_of(hi), i, "upper bound of bucket {i}");
            if i + 1 < HDR_BUCKETS {
                assert_eq!(hi + 1, lower_of(i + 1), "buckets {i},{} must tile", i + 1);
            }
        }
        assert_eq!(lower_of(0), 0);
        assert_eq!(upper_of(HDR_BUCKETS - 1), u64::MAX, "top bucket reaches u64::MAX");
        assert_eq!(index_of(u64::MAX), HDR_BUCKETS - 1);
    }

    #[test]
    fn bucket_relative_width_is_bounded() {
        for i in (2 * SUB_BUCKETS) as usize..HDR_BUCKETS {
            let lo = lower_of(i);
            let width = upper_of(i) - lo + 1;
            assert!(
                width <= lo / SUB_BUCKETS,
                "bucket {i}: width {width} vs lower {lo} breaks the 1/{SUB_BUCKETS} bound"
            );
        }
    }

    #[test]
    fn zero_and_max_edge_values() {
        let mut h = HdrHistogram::new();
        h.record(0);
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.percentile(0.5), 0, "median of {{0, 0, MAX}}");
        assert_eq!(h.percentile(1.0), u64::MAX);
        assert_eq!(h.sum(), u64::MAX, "sum saturates instead of wrapping");
        assert_eq!(HdrHistogram::new().percentile(0.999), 0, "empty histogram");
        assert_eq!(HdrHistogram::new().max(), 0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = HdrHistogram::new();
        for v in 0..2 * SUB_BUCKETS {
            h.record(v);
        }
        for (i, (lo, hi, n)) in h.rows().into_iter().enumerate() {
            assert_eq!((lo, hi, n), (i as u64, i as u64, 1));
        }
        assert_eq!(h.percentile(0.5), SUB_BUCKETS - 1, "exact median in the linear range");
    }

    #[test]
    fn saturating_counts_pin_at_max() {
        let mut a = HdrHistogram::new();
        a.record(7);
        a.count = u64::MAX - 1;
        a.counts[index_of(7)] = u64::MAX - 1;
        a.sum = u64::MAX - 2;
        let mut b = HdrHistogram::new();
        b.record(7);
        b.record(7);
        b.record(7);
        a.merge(&b);
        assert_eq!(a.count(), u64::MAX, "count saturates");
        assert_eq!(a.counts[index_of(7)], u64::MAX, "bucket saturates");
        assert_eq!(a.sum(), u64::MAX, "sum saturates");
        a.record(7);
        assert_eq!(a.count(), u64::MAX, "record on a saturated histogram stays pinned");
        assert_eq!(a.percentile(0.999), 7, "percentiles still answer after saturation");
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mk = |seed: u64, n: u64| {
            let mut h = HdrHistogram::new();
            let mut s = seed;
            for _ in 0..n {
                h.record(lcg(&mut s) >> (s % 60) as u32);
            }
            h
        };
        let (a, b, c) = (mk(1, 500), mk(2, 300), mk(3, 700));
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "(a+b)+c == a+(b+c)");
        let mut ba = b.clone();
        ba.merge(&a);
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab, ba, "a+b == b+a");
    }

    /// The headline guarantee: p50/p99/p999 against an exact
    /// sorted-sample oracle, within `1/SUB_BUCKETS` relative error, on
    /// several distribution shapes.
    /// A named sample generator for the oracle test.
    type Shape = (&'static str, Box<dyn Fn(&mut u64) -> u64>);

    #[test]
    fn percentiles_match_sorted_oracle_within_one_thirtysecond() {
        let shapes: [Shape; 4] = [
            ("uniform_small", Box::new(|s| lcg(s) % 5_000)),
            ("uniform_wide", Box::new(|s| lcg(s) % (1 << 40))),
            // Heavy tail: mostly small, occasional huge (the fault-
            // latency shape this histogram exists for).
            (
                "heavy_tail",
                Box::new(|s| {
                    let v = lcg(s);
                    if v.is_multiple_of(1000) {
                        1_000_000 + v % 9_000_000
                    } else {
                        600 + v % 400
                    }
                }),
            ),
            ("exponentialish", Box::new(|s| 1 + (lcg(s) >> (lcg(s) % 50) as u32))),
        ];
        for (name, gen) in shapes {
            let mut h = HdrHistogram::new();
            let mut oracle = Vec::with_capacity(20_000);
            let mut s = 0xC0FFEE;
            for _ in 0..20_000 {
                let v = gen(&mut s);
                h.record(v);
                oracle.push(v);
            }
            oracle.sort_unstable();
            for p in [0.50, 0.90, 0.99, 0.999, 1.0] {
                let rank = ((oracle.len() as f64 * p).ceil() as usize).clamp(1, oracle.len());
                let exact = oracle[rank - 1];
                let est = h.percentile(p);
                assert!(est >= exact, "{name} p{p}: estimate {est} below exact {exact}");
                assert!(
                    est - exact <= exact / SUB_BUCKETS,
                    "{name} p{p}: estimate {est} vs exact {exact} breaks 1/{SUB_BUCKETS}"
                );
            }
        }
    }

    #[test]
    fn delta_since_subtracts_and_bounds_max() {
        let mut h = HdrHistogram::new();
        h.record(100);
        h.record(200);
        let snap = h.clone();
        h.record(5_000);
        h.record(5_100);
        let d = h.delta_since(&snap);
        assert_eq!(d.count(), 2);
        assert_eq!(d.sum(), 10_100);
        assert!(d.max() >= 5_100 && d.max() <= 5_100 + 5_100 / SUB_BUCKETS, "max {}", d.max());
        assert_eq!(
            d.percentile(0.5),
            d.percentile(0.0).max(upper_of(index_of(5_000))).min(d.max())
        );
        // Self-delta is empty; empty delta has max 0.
        let e = h.delta_since(&h);
        assert_eq!((e.count(), e.max()), (0, 0));
    }

    #[test]
    fn display_folds_sub_buckets_into_powers_of_two() {
        let mut h = HdrHistogram::new();
        h.record(3);
        h.record(3);
        for v in 100..=120 {
            h.record(v);
        }
        let s = h.to_string();
        assert!(s.starts_with("n=23"), "{s}");
        assert!(s.contains("2..3"), "{s}");
        // 100..=120 spans several sub-buckets of the [64, 128) band.
        assert_eq!(s.lines().count(), 3, "header plus one row per power of two: {s}");
        assert!(s.contains("64..127"), "{s}");
        assert_eq!(HdrHistogram::new().to_string(), "(no samples)");
    }

    #[test]
    fn counts_grow_only_to_the_highest_occupied_bucket() {
        assert!(HdrHistogram::new().counts.is_empty(), "an empty histogram allocates nothing");
        let mut h = HdrHistogram::new();
        h.record(3);
        assert_eq!(h.counts.len(), 4);
        h.record(1_000);
        let len = h.counts.len();
        assert_eq!(len, index_of(1_000) + 1);
        h.record(2);
        assert_eq!(h.counts.len(), len, "lower values never grow the array");
        // Deltas drop trailing empty buckets, so equal contents compare
        // equal whatever the history.
        let snap = h.clone();
        h.record(5);
        let d = h.delta_since(&snap);
        assert_eq!(d.counts.len(), 6);
        let mut fresh = HdrHistogram::new();
        fresh.record(5);
        assert_eq!(d.count(), fresh.count());
        assert_eq!(d.counts, fresh.counts);
    }

    #[test]
    fn summary_carries_the_fixed_percentiles() {
        let mut h = HdrHistogram::new();
        for v in 1..=1000 {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert_eq!(s.max, 1000);
        assert!(s.p50 >= 500 && s.p50 <= 500 + 500 / SUB_BUCKETS);
        assert!(s.p999 >= 999 && s.p999 <= 1000);
        assert!((s.mean() - 500.5).abs() < 1e-9);
        assert_eq!(TailSummary::default().mean(), 0.0);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.p999 && s.p999 <= s.max);
    }
}
