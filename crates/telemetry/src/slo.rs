//! Declarative SLO monitoring over the metrics registry.
//!
//! An [`SloSpec`] names one objective — a p99 latency ceiling on a
//! histogram, or a rejection-rate ceiling over a counter pair. The
//! [`SloMonitor`] holds a set of specs and evaluates them over **sliding
//! windows**: each [`observe`](SloMonitor::observe) call diffs the current
//! registry contents against the previous call's capture, so every window
//! sees only the samples recorded since the last one (reconstructed into a
//! windowed [`LogHistogram`] from raw bucket-count deltas — no per-sample
//! retention).
//!
//! Violations become [`SloBreach`] records: pushed into the
//! [flight recorder](crate::recorder) (kind `"breach"`) and accumulated
//! into the [`SloReport`] that benches embed in their JSON output.
//!
//! A `*` label selector matches every label of the metric, producing one
//! evaluation (and potentially one breach) per label — this is how
//! "per-tenant" and "per-pod" objectives work without enumerating tenants
//! or pods up front.

use crate::hist::LogHistogram;
use crate::recorder::{recorder_record, RecorderEntry};
use crate::types::push_json_string;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What one SLO objective measures.
#[derive(Debug, Clone, PartialEq)]
pub enum SloKind {
    /// The windowed p99 of histogram `histogram` (label `label`, `*` for
    /// every label) must stay at or below `max_us`.
    P99LatencyUs {
        /// Histogram metric name.
        histogram: String,
        /// Label selector: exact label, empty for the unlabelled cell, or
        /// `*` for every label.
        label: String,
        /// Ceiling in microseconds.
        max_us: f64,
    },
    /// Windowed `rejected / total` (counter deltas, matched per label)
    /// must stay at or below `max_rate`.
    RejectionRate {
        /// Counter counting rejections.
        rejected: String,
        /// Counter counting the total attempts (same label space).
        total: String,
        /// Ceiling as a fraction in `[0, 1]`.
        max_rate: f64,
    },
}

/// One named service-level objective.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Human-readable objective name (unique within a monitor).
    pub name: String,
    /// What is measured and the ceiling.
    pub kind: SloKind,
}

impl SloSpec {
    /// A p99 latency ceiling on `histogram` (µs). `label` may be a
    /// concrete label, `""` for the unlabelled cell, or `"*"` for all.
    pub fn p99_latency_us(
        name: impl Into<String>,
        histogram: impl Into<String>,
        label: impl Into<String>,
        max_us: f64,
    ) -> SloSpec {
        SloSpec {
            name: name.into(),
            kind: SloKind::P99LatencyUs {
                histogram: histogram.into(),
                label: label.into(),
                max_us,
            },
        }
    }

    /// A rejection-rate ceiling over the counter pair
    /// `rejected / total`, matched per label.
    pub fn rejection_rate(
        name: impl Into<String>,
        rejected: impl Into<String>,
        total: impl Into<String>,
        max_rate: f64,
    ) -> SloSpec {
        SloSpec {
            name: name.into(),
            kind: SloKind::RejectionRate {
                rejected: rejected.into(),
                total: total.into(),
                max_rate,
            },
        }
    }
}

/// One observed SLO violation: objective `slo` on `subject` (a label, or
/// `""`) saw `observed` against ceiling `threshold` in window `window`.
#[derive(Debug, Clone, PartialEq)]
pub struct SloBreach {
    /// The violated objective's name.
    pub slo: String,
    /// The subject label (tenant, pod, …); empty for unlabelled metrics.
    pub subject: String,
    /// The observed value (µs or rate).
    pub observed: f64,
    /// The configured ceiling.
    pub threshold: f64,
    /// 1-based index of the observation window that breached.
    pub window: u64,
    /// Microseconds since the telemetry epoch at evaluation time.
    pub ts_us: u64,
}

impl SloBreach {
    /// Renders the breach as one JSON object (a JSON-lines record with
    /// `"kind":"breach"`, no trailing newline).
    pub(crate) fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"kind\":\"breach\",\"slo\":");
        push_json_string(&mut out, &self.slo);
        out.push_str(",\"subject\":");
        push_json_string(&mut out, &self.subject);
        let _ = write!(
            out,
            ",\"observed\":{},\"threshold\":{},\"window\":{},\"ts_us\":{}}}",
            finite(self.observed),
            finite(self.threshold),
            self.window,
            self.ts_us
        );
        out
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Per-objective rollup across every observed window.
#[derive(Debug, Clone, PartialEq)]
pub struct SloResult {
    /// The objective's name.
    pub slo: String,
    /// Windows in which the objective was evaluable (had data).
    pub windows: u64,
    /// Number of breaches across all windows and subjects.
    pub breaches: u64,
    /// Worst observed value (largest, since every ceiling is an upper
    /// bound); 0 when never evaluable.
    pub worst: f64,
    /// The configured ceiling.
    pub threshold: f64,
}

/// Everything the monitor saw: per-objective rollups plus the full breach
/// list, consumable by benches and the `alvc-trace` renderer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SloReport {
    /// Total windows observed.
    pub windows: u64,
    /// One rollup per configured objective.
    pub results: Vec<SloResult>,
    /// Every breach, in evaluation order.
    pub breaches: Vec<SloBreach>,
}

/// Evaluates a set of [`SloSpec`]s over sliding windows of the global
/// registry (see the module docs). Construct with the specs, call
/// [`observe`](SloMonitor::observe) once per window, collect the
/// [`SloReport`] at the end.
pub struct SloMonitor {
    specs: Vec<SloSpec>,
    /// Previous capture of every histogram's raw bucket counts + sum,
    /// keyed `(name, label)`.
    prev_hists: BTreeMap<(String, String), (Vec<u64>, f64)>,
    /// Previous capture of every counter, keyed `(name, label)`.
    prev_counters: BTreeMap<(String, String), u64>,
    /// Evaluable-window and breach tallies per spec index, plus the
    /// worst observed value.
    stats: Vec<(u64, u64, f64)>,
    window: u64,
    breaches: Vec<SloBreach>,
}

impl SloMonitor {
    /// Creates a monitor over `specs`, capturing the current registry
    /// state as the baseline for the first window.
    pub fn new(specs: Vec<SloSpec>) -> SloMonitor {
        let stats = vec![(0, 0, 0.0); specs.len()];
        let mut m = SloMonitor {
            specs,
            prev_hists: BTreeMap::new(),
            prev_counters: BTreeMap::new(),
            stats,
            window: 0,
            breaches: Vec::new(),
        };
        m.capture_baseline();
        m
    }

    fn capture_baseline(&mut self) {
        self.prev_hists = crate::histograms_raw()
            .into_iter()
            .map(|(n, l, h)| ((n, l), (h.bucket_counts().to_vec(), h.sum())))
            .collect();
        self.prev_counters = crate::snapshot()
            .counters
            .into_iter()
            .map(|c| ((c.name, c.label), c.value))
            .collect();
    }

    /// Closes the current window: evaluates every spec against the
    /// samples recorded since the previous `observe` (or since
    /// construction), records breaches into the flight recorder, and
    /// returns the breaches from *this* window.
    pub fn observe(&mut self) -> Vec<SloBreach> {
        self.window += 1;
        let ts_us = crate::now_monotonic_us();
        let hists = crate::histograms_raw();
        let snap = crate::snapshot();
        let mut new_breaches = Vec::new();

        for (idx, spec) in self.specs.iter().enumerate() {
            match &spec.kind {
                SloKind::P99LatencyUs {
                    histogram,
                    label,
                    max_us,
                } => {
                    let mut evaluable = false;
                    for (name, lbl, h) in &hists {
                        if name != histogram || !label_matches(label, lbl) {
                            continue;
                        }
                        let prev = self.prev_hists.get(&(name.clone(), lbl.clone()));
                        let windowed = window_hist(h, prev);
                        if windowed.count() == 0 {
                            continue;
                        }
                        evaluable = true;
                        let p99 = windowed.percentile(99.0);
                        let stat = &mut self.stats[idx];
                        stat.2 = stat.2.max(p99);
                        if p99 > *max_us {
                            new_breaches.push(SloBreach {
                                slo: spec.name.clone(),
                                subject: lbl.clone(),
                                observed: p99,
                                threshold: *max_us,
                                window: self.window,
                                ts_us,
                            });
                            self.stats[idx].1 += 1;
                        }
                    }
                    if evaluable {
                        self.stats[idx].0 += 1;
                    }
                }
                SloKind::RejectionRate {
                    rejected,
                    total,
                    max_rate,
                } => {
                    let mut evaluable = false;
                    for c in &snap.counters {
                        if &c.name != total {
                            continue;
                        }
                        let d_total = c.value - prev_counter(&self.prev_counters, total, &c.label);
                        if d_total == 0 {
                            continue;
                        }
                        let rej_now = snap
                            .counters
                            .iter()
                            .find(|r| &r.name == rejected && r.label == c.label)
                            .map_or(0, |r| r.value);
                        let d_rej = rej_now - prev_counter(&self.prev_counters, rejected, &c.label);
                        evaluable = true;
                        let rate = d_rej as f64 / d_total as f64;
                        let stat = &mut self.stats[idx];
                        stat.2 = stat.2.max(rate);
                        if rate > *max_rate {
                            new_breaches.push(SloBreach {
                                slo: spec.name.clone(),
                                subject: c.label.clone(),
                                observed: rate,
                                threshold: *max_rate,
                                window: self.window,
                                ts_us,
                            });
                            self.stats[idx].1 += 1;
                        }
                    }
                    if evaluable {
                        self.stats[idx].0 += 1;
                    }
                }
            }
        }

        // Roll the capture forward for the next window.
        self.prev_hists = hists
            .into_iter()
            .map(|(n, l, h)| ((n, l), (h.bucket_counts().to_vec(), h.sum())))
            .collect();
        self.prev_counters = snap
            .counters
            .into_iter()
            .map(|c| ((c.name, c.label), c.value))
            .collect();

        for b in &new_breaches {
            recorder_record(RecorderEntry::Breach(b.clone()));
        }
        self.breaches.extend(new_breaches.clone());
        new_breaches
    }

    /// The accumulated report across every window observed so far.
    pub fn report(&self) -> SloReport {
        SloReport {
            windows: self.window,
            results: self
                .specs
                .iter()
                .zip(&self.stats)
                .map(|(spec, &(windows, breaches, worst))| SloResult {
                    slo: spec.name.clone(),
                    windows,
                    breaches,
                    worst,
                    threshold: match &spec.kind {
                        SloKind::P99LatencyUs { max_us, .. } => *max_us,
                        SloKind::RejectionRate { max_rate, .. } => *max_rate,
                    },
                })
                .collect(),
            breaches: self.breaches.clone(),
        }
    }
}

fn label_matches(selector: &str, label: &str) -> bool {
    selector == "*" || selector == label
}

fn prev_counter(prev: &BTreeMap<(String, String), u64>, name: &str, label: &str) -> u64 {
    prev.get(&(name.to_owned(), label.to_owned()))
        .copied()
        .unwrap_or(0)
}

/// Reconstructs the histogram of samples recorded *since* `prev` was
/// captured, from raw bucket-count deltas. Min/max are unknowable for
/// a window, so p0/p100 fall back to bucket representatives.
fn window_hist(current: &LogHistogram, prev: Option<&(Vec<u64>, f64)>) -> LogHistogram {
    let cur_counts = current.bucket_counts();
    let Some((prev_counts, prev_sum)) = prev else {
        return current.clone();
    };
    let diff: Vec<u64> = cur_counts
        .iter()
        .enumerate()
        .map(|(i, &c)| c.saturating_sub(prev_counts.get(i).copied().unwrap_or(0)))
        .collect();
    let sum = (current.sum() - prev_sum).max(0.0);
    LogHistogram::from_bucket_counts(diff, sum, None, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breach_renders_as_one_json_object() {
        let b = SloBreach {
            slo: "p99-intent".into(),
            subject: "tenant-3".into(),
            observed: 7210.5,
            threshold: 5000.0,
            window: 4,
            ts_us: 99,
        };
        assert_eq!(
            b.to_json_line(),
            "{\"kind\":\"breach\",\"slo\":\"p99-intent\",\"subject\":\"tenant-3\",\
             \"observed\":7210.5,\"threshold\":5000,\"window\":4,\"ts_us\":99}"
        );
    }

    /// Regression: from the second window on, the p99 objective evaluates
    /// a delta histogram rebuilt from raw bucket counts (no exact
    /// `min`/`max`); `observe` must keep evaluating instead of panicking.
    #[test]
    fn p99_objective_evaluates_across_windows() {
        let mut m = SloMonitor::new(vec![SloSpec::p99_latency_us(
            "w",
            "alvc_test.slo.window_us",
            "",
            1.0,
        )]);
        crate::histogram!("alvc_test.slo.window_us").record(50.0);
        let first = m.observe();
        crate::histogram!("alvc_test.slo.window_us").record(80.0);
        let second = m.observe();
        assert_eq!(first.len(), 1);
        assert_eq!(second.len(), 1, "second window must evaluate the delta");
        assert!(second[0].observed > 1.0);
        let report = m.report();
        assert_eq!(report.windows, 2);
        assert_eq!(report.breaches.len(), 2);
    }
}
