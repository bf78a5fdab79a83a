//! Point-in-time views of the metrics registry.

use std::fmt::Write as _;

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

/// A gauge's value at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSnapshot {
    /// Metric name.
    pub name: String,
    /// Label value, empty for unlabelled metrics.
    pub label: String,
    /// Last set (or accumulated) value.
    pub value: f64,
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
    /// Gauges.
    pub gauges: Vec<GaugeSnapshot>,
    /// Histograms.
    pub histograms: Vec<HistogramSnapshot>,
}

impl Snapshot {
    /// Returns `true` when no metrics were registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    /// Metric names have `.` folded to `_`; histograms are rendered as
    /// summaries (`quantile` labels plus `_sum`/`_count`).
    pub(crate) fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        for c in &self.counters {
            let name = sanitize(&c.name);
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name}{} {}", label_part(&c.label), c.value);
        }
        for g in &self.gauges {
            let name = sanitize(&g.name);
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name}{} {}", label_part(&g.label), num(g.value));
        }
        for h in &self.histograms {
            let name = sanitize(&h.name);
            let _ = writeln!(out, "# TYPE {name} summary");
            for (q, v) in [("0.5", h.p50), ("0.95", h.p95), ("0.99", h.p99)] {
                let _ = writeln!(out, "{name}{} {}", quantile_part(&h.label, q), num(v));
            }
            let _ = writeln!(out, "{name}_sum{} {}", label_part(&h.label), num(h.sum));
            let _ = writeln!(out, "{name}_count{} {}", label_part(&h.label), h.count);
        }
        out
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "NaN".to_owned()
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

fn label_part(label: &str) -> String {
    if label.is_empty() {
        String::new()
    } else {
        format!("{{label=\"{}\"}}", label.replace('"', "'"))
    }
}

fn quantile_part(label: &str, q: &str) -> String {
    if label.is_empty() {
        format!("{{quantile=\"{q}\"}}")
    } else {
        format!("{{label=\"{}\",quantile=\"{q}\"}}", label.replace('"', "'"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_text_renders_all_metric_kinds() {
        let snap = Snapshot {
            counters: vec![CounterSnapshot {
                name: "alvc_test.counter".into(),
                label: String::new(),
                value: 7,
            }],
            gauges: vec![GaugeSnapshot {
                name: "alvc_test.gauge".into(),
                label: "x".into(),
                value: 2.5,
            }],
            histograms: vec![HistogramSnapshot {
                name: "alvc_test.hist".into(),
                label: String::new(),
                count: 2,
                sum: 3.0,
                min: 1.0,
                max: 2.0,
                mean: 1.5,
                p50: 1.0,
                p95: 2.0,
                p99: 2.0,
                rejected: 0,
            }],
        };
        let text = snap.to_prometheus_text();
        assert!(text.contains("# TYPE alvc_test_counter counter"));
        assert!(text.contains("alvc_test_counter 7"));
        assert!(text.contains("alvc_test_gauge{label=\"x\"} 2.5"));
        assert!(text.contains("alvc_test_hist{quantile=\"0.5\"} 1"));
        assert!(text.contains("alvc_test_hist_count 2"));
        assert!(!snap.is_empty());
        assert!(Snapshot::default().is_empty());
    }
}
