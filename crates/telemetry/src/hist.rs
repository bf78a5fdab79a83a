//! Log-bucketed histograms with bounded memory.
//!
//! [`LogHistogram`] replaces "keep every sample and sort" summaries: samples
//! are folded into geometrically spaced buckets (4 sub-buckets per octave,
//! so bucket edges are `2^(k/4)`), which bounds memory at
//! [`BUCKET_COUNT`] `u64` cells regardless of how many samples are recorded
//! and keeps any reported quantile within ~9% relative error
//! (`2^(1/8) - 1`) of the true sample.
//!
//! The covered range is `[2^-20, 2^44)` — for microsecond-denominated
//! latencies that spans sub-picosecond to ~6 months. Values below the range
//! land in the first finite bucket, values at or above `2^44` land in a
//! dedicated overflow bucket, and zero or negative values land in a
//! dedicated low bucket; `min`/`max` are tracked exactly, so `percentile(0)`
//! and `percentile(100)` are always exact.

/// Sub-buckets per power of two (quarter-octave resolution).
pub(crate) const SUB_BUCKETS: usize = 4;
/// Smallest finite bucket edge is `2^MIN_EXP`.
const MIN_EXP: i32 = -20;
/// Overflow bucket starts at `2^MAX_EXP`.
const MAX_EXP: i32 = 44;
/// Number of finite geometric buckets.
const FINITE_BUCKETS: usize = ((MAX_EXP - MIN_EXP) as usize) * SUB_BUCKETS;
/// Total bucket count: one low bucket (`v <= 0`), the finite geometric
/// range, and one overflow bucket.
pub const BUCKET_COUNT: usize = FINITE_BUCKETS + 2;
const OVERFLOW_BUCKET: usize = BUCKET_COUNT - 1;

/// Maps a sample to its bucket index. Total over all `f64` values (NaN and
/// negatives map to the low bucket), so callers can decide their own
/// rejection policy before calling.
pub(crate) fn bucket_index(v: f64) -> usize {
    if v <= 0.0 || v.is_nan() {
        return 0;
    }
    let e = v.log2();
    if e < MIN_EXP as f64 {
        return 1;
    }
    let i = ((e - MIN_EXP as f64) * SUB_BUCKETS as f64).floor() as usize + 1;
    i.min(OVERFLOW_BUCKET)
}

/// Representative value reported for a bucket: the geometric midpoint of
/// its `[2^(k/4), 2^((k+1)/4))` range, which halves (in log space) the
/// worst-case quantile error.
fn bucket_rep(i: usize) -> f64 {
    debug_assert!((1..=OVERFLOW_BUCKET).contains(&i));
    if i == OVERFLOW_BUCKET {
        return (MAX_EXP as f64).exp2();
    }
    let lower_exp = MIN_EXP as f64 + (i - 1) as f64 / SUB_BUCKETS as f64;
    (lower_exp + 0.5 / SUB_BUCKETS as f64).exp2()
}

/// A fixed-memory histogram over positive-skewed data (latencies, sizes,
/// counts) with exact `count`/`sum`/`min`/`max` and ~9%-accurate quantiles.
///
/// Non-finite samples are rejected with a panic in
/// [`record`](LogHistogram::record).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LogHistogram {
    /// Lazily allocated to keep empty histograms cheap; `BUCKET_COUNT`
    /// entries once any sample lands.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    sumsq: f64,
    min: Option<f64>,
    max: Option<f64>,
}

impl LogHistogram {
    /// Records one finite sample.
    ///
    /// # Panics
    ///
    /// Panics if `v` is NaN or infinite.
    pub fn record(&mut self, v: f64) {
        assert!(v.is_finite(), "LogHistogram sample must be finite, got {v}");
        self.record_finite(v);
    }

    fn record_finite(&mut self, v: f64) {
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKET_COUNT];
        }
        self.counts[bucket_index(v)] += 1;
        self.count = self.count.saturating_add(1);
        self.sum += v;
        self.sumsq += v * v;
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = Some(self.max.map_or(v, |m| m.max(v)));
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKET_COUNT];
        }
        for (dst, src) in self.counts.iter_mut().zip(&other.counts) {
            *dst = dst.saturating_add(*src);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum += other.sum;
        self.sumsq += other.sumsq;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// Reconstructs a histogram from raw bucket counts (registry snapshots);
    /// `sumsq` is unknown there, so [`stddev`](Self::stddev) reports 0.
    pub(crate) fn from_bucket_counts(
        counts: Vec<u64>,
        sum: f64,
        min: Option<f64>,
        max: Option<f64>,
    ) -> Self {
        debug_assert!(counts.is_empty() || counts.len() == BUCKET_COUNT);
        let count = counts.iter().fold(0u64, |a, &c| a.saturating_add(c));
        LogHistogram {
            counts,
            count,
            sum,
            sumsq: 0.0,
            min,
            max,
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest recorded sample (exact), or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.min
    }

    /// Largest recorded sample (exact), or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.max
    }

    /// Arithmetic mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Population standard deviation, or 0 when empty.
    pub fn stddev(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let n = self.count as f64;
        let mean = self.sum / n;
        (self.sumsq / n - mean * mean).max(0.0).sqrt()
    }

    /// Nearest-rank percentile, `0 <= p <= 100`.
    ///
    /// `p = 0` returns the exact minimum and `p = 100` the exact maximum;
    /// interior ranks return the geometric midpoint of the rank's bucket
    /// (clamped to `[min, max]`), within ~9% of the true sample. Returns 0
    /// for an empty histogram. Histograms rebuilt from raw bucket counts
    /// (`from_bucket_counts` — registry
    /// snapshots and SLO window deltas) have no exact extrema; the
    /// occupied buckets' representatives stand in for them.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of [0, 100]");
        if self.count == 0 {
            return 0.0;
        }
        let lowest = self.counts.iter().position(|&c| c > 0).map_or(0.0, |i| {
            if i == 0 {
                0.0
            } else {
                bucket_rep(i)
            }
        });
        let highest = self.counts.iter().rposition(|&c| c > 0).map_or(0.0, |i| {
            if i == 0 {
                0.0
            } else {
                bucket_rep(i)
            }
        });
        let min = self.min.unwrap_or(lowest);
        let max = self.max.unwrap_or(highest);
        if p == 0.0 {
            return min;
        }
        if p == 100.0 {
            return max;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                // The low bucket aggregates all non-positive samples; the
                // exact minimum is the best single representative.
                let rep = if i == 0 { min } else { bucket_rep(i) };
                return rep.clamp(min, max);
            }
        }
        max
    }

    /// Raw bucket counts (empty slice until the first sample).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = LogHistogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0.0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.stddev(), 0.0);
        assert_eq!(h.percentile(50.0), 0.0);
        assert_eq!(h.percentile(99.0), 0.0);
    }

    #[test]
    fn percentiles_survive_missing_extrema() {
        // Registry snapshots and SLO window deltas rebuild histograms via
        // `from_bucket_counts` with `min`/`max` unknown; quantiles must
        // fall back to bucket representatives instead of panicking.
        let mut h = LogHistogram::default();
        h.record(10.0);
        h.record(100.0);
        let rebuilt =
            LogHistogram::from_bucket_counts(h.bucket_counts().to_vec(), h.sum(), None, None);
        for p in [0.0, 50.0, 99.0, 100.0] {
            let v = rebuilt.percentile(p);
            assert!(v > 0.0 && v.is_finite(), "p{p} = {v}");
        }
        // Bucket representatives stay within the ~9% quantile error bound.
        assert!((rebuilt.percentile(99.0) / 100.0 - 1.0).abs() < 0.09);
        assert!((rebuilt.percentile(0.0) / 10.0 - 1.0).abs() < 0.09);
    }

    #[test]
    fn single_sample_every_percentile_is_exact() {
        let mut h = LogHistogram::default();
        h.record(42.0);
        for p in [0.0, 1.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), 42.0, "p{p}");
        }
        assert_eq!(h.min(), Some(42.0));
        assert_eq!(h.max(), Some(42.0));
        assert_eq!(h.mean(), 42.0);
    }

    #[test]
    fn nan_and_infinity_are_rejected() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut h = LogHistogram::default();
            let caught = std::panic::catch_unwind(move || h.record(bad));
            assert!(caught.is_err(), "record({bad}) must panic");
        }
    }

    #[test]
    fn bucket_boundary_powers_of_two_land_in_their_own_bucket() {
        // 2^k is an exact bucket lower edge: it must not share a bucket
        // with the value just below it.
        for k in [-10i32, -1, 0, 1, 10, 20, 40] {
            let edge = (k as f64).exp2();
            let below = edge * (1.0 - 1e-12);
            assert_ne!(
                bucket_index(edge),
                bucket_index(below),
                "edge 2^{k} must start a new bucket"
            );
            assert_eq!(bucket_index(edge), bucket_index(edge * 1.0001));
        }
    }

    #[test]
    fn out_of_range_and_nonpositive_samples_have_dedicated_buckets() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-7.5), 0);
        assert_eq!(bucket_index(f64::MIN_POSITIVE), 1);
        assert_eq!(bucket_index(f64::MAX), OVERFLOW_BUCKET);
        assert_eq!(bucket_index((MAX_EXP as f64).exp2()), OVERFLOW_BUCKET);

        let mut h = LogHistogram::default();
        h.record(0.0);
        h.record(-3.0);
        h.record(1e20);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), Some(-3.0));
        assert_eq!(h.max(), Some(1e20));
        // p0/p100 stay exact even for out-of-range samples.
        assert_eq!(h.percentile(0.0), -3.0);
        assert_eq!(h.percentile(100.0), 1e20);
    }

    #[test]
    fn count_saturates_instead_of_overflowing() {
        let mut h = LogHistogram::default();
        h.record(1.0);
        h.count = u64::MAX;
        h.record(1.0);
        assert_eq!(h.count(), u64::MAX);
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let (mut a, mut b) = (LogHistogram::default(), LogHistogram::default());
        for v in [1.0, 2.0, 3.0] {
            a.record(v);
        }
        for v in [100.0, 0.5] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.min(), Some(0.5));
        assert_eq!(a.max(), Some(100.0));
        assert!((a.sum() - 106.5).abs() < 1e-9);
        let empty = LogHistogram::default();
        let before = a.clone();
        a.merge(&empty);
        assert_eq!(a, before);
    }

    #[test]
    fn percentiles_track_known_distribution_within_bucket_error() {
        let mut h = LogHistogram::default();
        for i in 1..=1000 {
            h.record(i as f64);
        }
        for (p, expect) in [(50.0, 500.0), (95.0, 950.0), (99.0, 990.0)] {
            let got = h.percentile(p);
            let rel = (got - expect).abs() / expect;
            assert!(rel < 0.095, "p{p}: got {got}, want ~{expect} (rel {rel})");
        }
        assert_eq!(h.percentile(0.0), 1.0);
        assert_eq!(h.percentile(100.0), 1000.0);
    }

    proptest! {
        #[test]
        fn percentile_is_monotone_and_bounded(samples in proptest::collection::vec(1e-6f64..1e12, 1..200)) {
            let mut h = LogHistogram::default();
            for &s in &samples {
                h.record(s);
            }
            let min = h.min().unwrap();
            let max = h.max().unwrap();
            let mut prev = f64::NEG_INFINITY;
            for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
                let v = h.percentile(p);
                prop_assert!(v >= min && v <= max);
                prop_assert!(v >= prev, "percentile must be monotone in p");
                prev = v;
            }
        }

        #[test]
        fn quantiles_stay_within_relative_error(samples in proptest::collection::vec(1e-3f64..1e9, 1..300), p in 1.0f64..99.0) {
            let mut h = LogHistogram::default();
            for &s in &samples {
                h.record(s);
            }
            let mut sorted = samples.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
            let exact = sorted[rank - 1];
            let got = h.percentile(p);
            // Geometric-midpoint representative: within one half-bucket
            // (2^(1/8)) of the exact nearest-rank sample.
            prop_assert!(got <= exact * 1.0906 + 1e-12, "got {got}, exact {exact}");
            prop_assert!(got >= exact / 1.0906 - 1e-12, "got {got}, exact {exact}");
        }
    }
}
