//! Fixed-bucket log-linear duration histogram.
//!
//! Latency distributions of FHE kernels span six orders of magnitude (a
//! sub-microsecond element-wise pass to a multi-second bootstrap), so the
//! bucket scheme is **log-linear**: each power-of-two octave of the `u64`
//! nanosecond range is split into [`SUB_BUCKETS`] equal-width linear
//! sub-buckets. Values below [`SUB_BUCKETS`] get one bucket each. The
//! result is a fixed [`NUM_BUCKETS`]-slot array covering all of `u64` with
//! a bounded relative quantile error of `1/SUB_BUCKETS` (12.5%), no
//! allocation on [`Histogram::record`], and deterministic quantiles —
//! recording the same multiset of values in any order and from any number
//! of threads yields bit-identical state.
//!
//! The same layout (power-of-two octaves × linear sub-buckets) is used by
//! HdrHistogram and Prometheus native histograms; ours is fixed-shape so
//! the recording path is two shifts, a mask, and an increment.

/// Linear sub-buckets per power-of-two octave. Must stay a power of two.
pub const SUB_BUCKETS: usize = 8;

/// `log2(SUB_BUCKETS)`.
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();

/// Total bucket count: one bucket per value below [`SUB_BUCKETS`], then
/// [`SUB_BUCKETS`] sub-buckets for each of the 61 remaining octaves of the
/// `u64` range.
pub const NUM_BUCKETS: usize = SUB_BUCKETS + (64 - SUB_BITS as usize) * SUB_BUCKETS;

/// The bucket index recording `v` increments.
///
/// `const fn` so the scheme is checkable at compile time (see the
/// assertions at the bottom of this module).
#[inline]
pub const fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let sub = ((v >> (msb - SUB_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
        SUB_BUCKETS + ((msb - SUB_BITS) as usize) * SUB_BUCKETS + sub
    }
}

/// The largest value that lands in bucket `i` (inclusive upper bound).
/// Quantiles report this bound, so they never under-estimate.
#[inline]
pub const fn bucket_high(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        i as u64
    } else {
        let octave = ((i - SUB_BUCKETS) / SUB_BUCKETS) as u32;
        let sub = ((i - SUB_BUCKETS) % SUB_BUCKETS) as u64;
        let low = (SUB_BUCKETS as u64 + sub) << octave;
        low + ((1u64 << octave) - 1)
    }
}

// Compile-time proof that the bucket scheme is total and consistent: every
// `u64` maps into range, boundaries land where the layout says they do,
// and the final bucket's upper bound is `u64::MAX` (no value can escape).
const _: () = {
    assert!(SUB_BUCKETS.is_power_of_two());
    assert!(bucket_index(0) == 0);
    assert!(bucket_index(SUB_BUCKETS as u64 - 1) == SUB_BUCKETS - 1);
    assert!(bucket_index(SUB_BUCKETS as u64) == SUB_BUCKETS);
    assert!(bucket_index(u64::MAX) == NUM_BUCKETS - 1);
    assert!(bucket_high(NUM_BUCKETS - 1) == u64::MAX);
    assert!(bucket_high(bucket_index(1_000_000)) >= 1_000_000);
};

/// A fixed-size log-linear histogram of `u64` values (nanoseconds by
/// convention). ~4 KB, allocation-free to record, mergeable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    max: u64,
    buckets: [u64; NUM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram { count: 0, sum: 0, max: 0, buckets: [0; NUM_BUCKETS] }
    }

    /// Records one value. Two shifts, a mask, and four increments — no
    /// allocation, no branching beyond the sub-[`SUB_BUCKETS`] fast case.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        if v > self.max {
            self.max = v;
        }
        self.buckets[bucket_index(v)] += 1;
    }

    /// Number of recorded values.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    #[inline]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value (exact, not bucketed).
    #[inline]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`: the inclusive upper bound of
    /// the bucket containing the `⌈q·count⌉`-th smallest recording, clamped
    /// to the exact maximum. Deterministic; relative error ≤ `1/SUB_BUCKETS`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_high(i).min(self.max);
            }
        }
        self.max
    }

    /// The recordings present in `self` but not in `prev`, where `prev` is
    /// an **earlier observation of the same histogram** (every bucket of
    /// `prev` ≤ the same bucket of `self`). Bucket counts, `count`, and
    /// `sum` subtract exactly, so summing a series of diffs reproduces the
    /// cumulative histogram bit-identically. `max` carries the cumulative
    /// maximum — the interval-local maximum is not recoverable from
    /// bucketed state — which keeps `merge`-of-diffs exact for `max` too.
    pub fn diff(&self, prev: &Histogram) -> Histogram {
        let mut out = Histogram {
            count: self.count.saturating_sub(prev.count),
            sum: self.sum.saturating_sub(prev.sum),
            max: self.max,
            buckets: [0; NUM_BUCKETS],
        };
        for (o, (a, b)) in out.buckets.iter_mut().zip(self.buckets.iter().zip(prev.buckets.iter()))
        {
            *o = a.saturating_sub(*b);
        }
        out
    }

    /// The non-empty buckets as `(inclusive upper bound, count)` pairs in
    /// ascending bound order: two histograms are equal bucket for bucket
    /// when these sequences are.
    pub fn occupied_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets.iter().enumerate().filter(|&(_, &c)| c != 0).map(|(i, &c)| (bucket_high(i), c))
    }

    /// Adds every recording of `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..SUB_BUCKETS as u64 {
            h.record(v);
        }
        for v in 0..SUB_BUCKETS as u64 {
            assert_eq!(bucket_high(bucket_index(v)), v);
        }
        assert_eq!(h.count(), SUB_BUCKETS as u64);
        assert_eq!(h.max(), SUB_BUCKETS as u64 - 1);
    }

    #[test]
    fn bucket_bounds_bracket_their_values() {
        // Every probed value must satisfy low ≤ v ≤ bucket_high within its
        // bucket, and indices must be monotone in v.
        let probes: Vec<u64> = (0..64)
            .flat_map(|k| {
                let base = 1u64 << k;
                [base.saturating_sub(1), base, base.saturating_add(base / 3)]
            })
            .chain([u64::MAX - 1, u64::MAX])
            .collect();
        let mut last = 0usize;
        for &v in &probes {
            let i = bucket_index(v);
            assert!(i >= last, "index not monotone at {v}");
            assert!(bucket_high(i) >= v, "upper bound below value at {v}");
            if i > 0 {
                assert!(bucket_high(i - 1) < v, "value {v} fits an earlier bucket");
            }
            last = i;
        }
    }

    #[test]
    fn quantiles_bound_relative_error() {
        let mut h = Histogram::new();
        for i in 1..=10_000u64 {
            h.record(i * 100); // 100 ns .. 1 ms, uniform
        }
        for (q, exact) in [(0.5, 500_000.0), (0.9, 900_000.0), (0.99, 990_000.0)] {
            let got = h.quantile(q) as f64;
            assert!(got >= exact, "quantile {q} under-estimates: {got} < {exact}");
            assert!(
                got <= exact * (1.0 + 1.0 / SUB_BUCKETS as f64) + 100.0,
                "quantile {q} over-estimates: {got}"
            );
        }
        assert_eq!(h.quantile(1.0), 1_000_000);
        assert_eq!(h.quantile(0.0), h.quantile(1e-9));
    }

    #[test]
    fn order_independence() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let vals: Vec<u64> = (0..1000).map(|i| (i * 7919) % 100_000).collect();
        for &v in &vals {
            a.record(v);
        }
        for &v in vals.iter().rev() {
            b.record(v);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn merge_equals_recording_everything() {
        let mut left = Histogram::new();
        let mut right = Histogram::new();
        let mut all = Histogram::new();
        for i in 0..500u64 {
            let v = i * i % 77_777;
            if i % 2 == 0 {
                left.record(v);
            } else {
                right.record(v);
            }
            all.record(v);
        }
        left.merge(&right);
        assert_eq!(left, all);
    }

    #[test]
    fn diff_then_merge_round_trips_exactly() {
        let mut earlier = Histogram::new();
        for i in 0..300u64 {
            earlier.record(i * 997 % 50_000);
        }
        let mut later = earlier.clone();
        for i in 0..200u64 {
            later.record(i * 7919 % 2_000_000);
        }
        let delta = later.diff(&earlier);
        assert_eq!(delta.count(), 200);
        assert_eq!(delta.max(), later.max());
        let mut rebuilt = earlier.clone();
        rebuilt.merge(&delta);
        // max of (earlier.max, delta.max=later.max) == later.max, and all
        // buckets/count/sum subtract exactly, so the round trip is exact.
        assert_eq!(rebuilt, later);
        // Diff against itself is empty.
        let zero = later.diff(&later);
        assert_eq!(zero.count(), 0);
        assert_eq!(zero.occupied_buckets().count(), 0);
    }

    #[test]
    fn occupied_buckets_cover_every_recording() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 5, 1000, 1_000_000, u64::MAX] {
            h.record(v);
        }
        let buckets: Vec<(u64, u64)> = h.occupied_buckets().collect();
        assert_eq!(buckets.iter().map(|&(_, c)| c).sum::<u64>(), h.count());
        // Ascending bounds, and every recorded value is ≤ some bound.
        assert!(buckets.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(buckets.last().unwrap().0, u64::MAX);
    }

    #[test]
    fn empty_histogram_is_inert() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
