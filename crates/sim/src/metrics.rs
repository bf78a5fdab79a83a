//! Sample summaries.
//!
//! [`Summary`] is backed by [`alvc_telemetry::LogHistogram`], so memory is
//! bounded (a fixed set of log-spaced buckets) no matter how many samples a
//! simulation records. `p0`/`p100` (the min and max) are exact; interior
//! percentiles are approximate with at most ~9.1% relative error.

use alvc_telemetry::LogHistogram;

/// A bounded-memory summary over recorded samples: exact extremes and
/// approximate percentiles from a log-bucketed histogram.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    hist: LogHistogram,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary::default()
    }

    /// Arithmetic mean (0 for an empty summary).
    #[cfg(test)]
    pub(crate) fn mean(&self) -> f64 {
        self.hist.mean()
    }

    /// Records a sample.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN or infinite.
    pub(crate) fn record(&mut self, value: f64) {
        assert!(!value.is_nan(), "summary samples must not be NaN");
        assert!(value.is_finite(), "summary samples must be finite");
        self.hist.record(value);
    }

    /// The `p`-th percentile (0 for an empty summary). `p = 0` and `p = 100`
    /// are the exact min/max; interior percentiles carry the histogram's
    /// bucketing error (≤ ~9.1% relative).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0..=100`.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile must be in 0..=100");
        self.hist.percentile(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_zeroes() {
        let s = Summary::new();
        assert_eq!(s.percentile(0.0), 0.0);
        assert_eq!(s.percentile(99.0), 0.0);
        assert_eq!(s.percentile(100.0), 0.0);
    }

    #[test]
    fn summary_statistics() {
        let mut s = Summary::new();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            s.record(v);
        }
        // Extremes are exact; the median carries bucketing error.
        assert_eq!(s.percentile(0.0), 1.0);
        let p50 = s.percentile(50.0);
        assert!((p50 - 3.0).abs() / 3.0 < 0.095, "{p50}");
        assert_eq!(s.percentile(100.0), 5.0);
    }

    #[test]
    fn percentile_nearest_rank_within_bucket_error() {
        let mut s = Summary::new();
        for v in 1..=100 {
            s.record(v as f64);
        }
        for (p, exact) in [(95.0, 95.0), (99.0, 99.0), (1.0, 1.0), (50.0, 50.0)] {
            let got = s.percentile(p);
            assert!(
                (got - exact).abs() / exact < 0.095,
                "p{p}: {got} vs {exact}"
            );
        }
    }

    #[test]
    fn recording_after_percentile_keeps_correctness() {
        let mut s = Summary::new();
        s.record(10.0);
        assert_eq!(s.percentile(50.0), 10.0);
        s.record(0.0);
        assert_eq!(s.percentile(50.0), 0.0);
        assert_eq!(s.percentile(100.0), 10.0);
    }

    #[test]
    fn memory_stays_bounded() {
        let mut s = Summary::new();
        for i in 0..200_000u32 {
            s.record(f64::from(i) + 0.5);
        }
        assert_eq!(s.hist.count(), 200_000);
        // The backing store is a fixed bucket array, not retained samples.
        assert_eq!(
            s.hist.bucket_counts().len(),
            alvc_telemetry::hist::BUCKET_COUNT
        );
        let p50 = s.percentile(50.0);
        assert!((p50 - 100_000.0).abs() / 100_000.0 < 0.095, "{p50}");
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        Summary::new().record(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn infinity_rejected() {
        Summary::new().record(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "0..=100")]
    fn bad_percentile_rejected() {
        let mut s = Summary::new();
        s.record(1.0);
        s.percentile(101.0);
    }
}
