//! No-op twins of the probe API, compiled when the `telemetry` feature is
//! off. Every type is a zero-sized struct and every method an empty inline
//! function, so instrumented call sites optimize away entirely.

use crate::snapshot::Snapshot;
use crate::types::{Event, FieldValue};

/// Whether probes are compiled in this build.
pub const fn telemetry_compiled() -> bool {
    false
}

/// No-op counter.
#[derive(Clone, Copy, Default)]
pub struct Counter;

impl Counter {
    /// No-op.
    #[inline(always)]
    pub fn incr(&self) {}
    /// No-op.
    #[inline(always)]
    pub fn add(&self, _n: u64) {}
    /// Always 0.
    #[inline(always)]
    pub fn value(&self) -> u64 {
        0
    }
}

/// No-op gauge.
#[derive(Clone, Copy, Default)]
pub struct Gauge;

impl Gauge {
    /// No-op.
    #[inline(always)]
    pub fn set(&self, _v: f64) {}
    /// No-op.
    #[inline(always)]
    pub fn add(&self, _v: f64) {}
    /// Always 0.
    #[inline(always)]
    pub fn value(&self) -> f64 {
        0.0
    }
}

/// No-op histogram.
#[derive(Clone, Copy, Default)]
pub struct Histogram;

impl Histogram {
    /// No-op.
    #[inline(always)]
    pub fn record(&self, _v: f64) {}
    /// Always 0.
    #[inline(always)]
    pub fn count(&self) -> u64 {
        0
    }
}

/// No-op span guard.
#[must_use = "a span measures until it is dropped"]
#[derive(Clone, Copy, Default)]
pub struct Span;

/// Returns a no-op counter.
#[inline(always)]
pub fn counter(_name: &'static str) -> Counter {
    Counter
}

/// Returns a no-op counter.
#[inline(always)]
pub fn counter_with(_name: &'static str, _label: &str) -> Counter {
    Counter
}

/// Returns a no-op gauge.
#[inline(always)]
pub fn gauge(_name: &'static str) -> Gauge {
    Gauge
}

/// Returns a no-op gauge.
#[inline(always)]
pub fn gauge_with(_name: &'static str, _label: &str) -> Gauge {
    Gauge
}

/// Returns a no-op histogram.
#[inline(always)]
pub fn histogram(_name: &'static str) -> Histogram {
    Histogram
}

/// Returns a no-op histogram.
#[inline(always)]
pub fn histogram_with(_name: &'static str, _label: &str) -> Histogram {
    Histogram
}

/// Returns a no-op span.
#[inline(always)]
pub fn span(_name: &'static str) -> Span {
    Span
}

/// Always the empty snapshot.
pub fn snapshot() -> Snapshot {
    Snapshot::default()
}

/// Always 0.
#[inline(always)]
pub fn now_monotonic_us() -> u64 {
    0
}

/// Always empty.
pub fn prometheus_text() -> String {
    String::new()
}

/// No-op.
pub fn reset() {}

/// No-op.
pub fn set_events_enabled(_on: bool) {}

/// Always `false`.
#[inline(always)]
pub fn events_enabled() -> bool {
    false
}

/// No-op.
#[inline(always)]
pub fn emit(_name: &'static str, _fields: Vec<(&'static str, FieldValue)>) {}

/// Always empty.
pub fn drain_events() -> Vec<Event> {
    Vec::new()
}

/// Always empty.
pub fn drain_events_jsonl() -> String {
    String::new()
}
