//! Point-in-time views of the metrics registry.

/// A counter's value at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSnapshot {
    /// Metric name (`alvc_<crate>.<subsystem>.<metric>`).
    pub name: String,
    /// Label value, empty for unlabelled metrics.
    pub label: String,
    /// Monotonic count.
    pub value: u64,
}

/// A histogram's distribution summary at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Label value, empty for unlabelled metrics.
    pub label: String,
    /// Recorded (accepted) sample count.
    pub count: u64,
    /// Sum of recorded samples.
    pub sum: f64,
    /// Exact minimum (0 when empty).
    pub min: f64,
    /// Exact maximum (0 when empty).
    pub max: f64,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Median (log-bucket approximation, ~9% relative error).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Samples rejected for being NaN or infinite.
    pub rejected: u64,
}

/// All registered metrics at one instant, sorted by `(name, label)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counters.
    pub counters: Vec<CounterSnapshot>,
    /// Histograms.
    pub histograms: Vec<HistogramSnapshot>,
}
