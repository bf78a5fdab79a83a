//! The probe implementations: metric cells, handles, the registry and
//! spans.
//!
//! Everything here is std-only: atomics for the hot path, and one
//! `RwLock`ed `BTreeMap` for registration (cold — call sites cache handles
//! via the [`counter!`](crate::counter)/[`histogram!`](crate::histogram)
//! macros).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

use crate::hist::{bucket_index, LogHistogram, BUCKET_COUNT};
use crate::snapshot::{CounterSnapshot, HistogramSnapshot, Snapshot};

// ---------------------------------------------------------------- cells --

#[derive(Default)]
struct CounterCell {
    v: AtomicU64,
}

struct HistCell {
    counts: Vec<AtomicU64>,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
    rejected: AtomicU64,
}

impl Default for HistCell {
    fn default() -> Self {
        HistCell {
            counts: (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            rejected: AtomicU64::new(0),
        }
    }
}

/// Lock-free f64 accumulate via compare-exchange on the bit pattern.
fn f64_update(cell: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(cur)).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

impl HistCell {
    fn record(&self, v: f64) {
        if !v.is_finite() {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        f64_update(&self.sum_bits, |s| s + v);
        f64_update(&self.min_bits, |m| m.min(v));
        f64_update(&self.max_bits, |m| m.max(v));
    }

    fn raw(&self) -> LogHistogram {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let sum = f64::from_bits(self.sum_bits.load(Ordering::Relaxed));
        let min = f64::from_bits(self.min_bits.load(Ordering::Relaxed));
        let max = f64::from_bits(self.max_bits.load(Ordering::Relaxed));
        let (min, max) = if min.is_finite() {
            (Some(min), Some(max))
        } else {
            (None, None)
        };
        LogHistogram::from_bucket_counts(counts, sum, min, max)
    }

    fn snapshot(&self, name: &str, label: &str) -> HistogramSnapshot {
        let h = self.raw();
        HistogramSnapshot {
            name: name.to_owned(),
            label: label.to_owned(),
            count: h.count(),
            sum: h.sum(),
            min: h.min().unwrap_or(0.0),
            max: h.max().unwrap_or(0.0),
            mean: h.mean(),
            p50: h.percentile(50.0),
            p95: h.percentile(95.0),
            p99: h.percentile(99.0),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }
}

// -------------------------------------------------------------- handles --

/// A monotonically increasing counter. Cloning shares the underlying cell;
/// additions wrap on `u64` overflow (the atomic `fetch_add` contract).
#[derive(Clone)]
pub struct Counter(Arc<CounterCell>);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n` (wrapping on overflow).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.0.v.load(Ordering::Relaxed)
    }
}

/// A log-bucketed latency/size histogram; non-finite samples are counted as
/// rejected rather than recorded.
#[derive(Clone)]
pub struct Histogram(Arc<HistCell>);

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, v: f64) {
        self.0.record(v);
    }
}

// ------------------------------------------------------------- registry --

enum Metric {
    Counter(Arc<CounterCell>),
    Hist(Arc<HistCell>),
}

/// The metric registry: a sorted map from name, then label, to cells.
/// Keyed in two levels so a lookup borrows both parts: only the first
/// registration of a `(name, label)` pair allocates the label.
#[derive(Default)]
pub(crate) struct Registry {
    map: RwLock<BTreeMap<&'static str, BTreeMap<String, Metric>>>,
}

/// Every registered cell in `(name, label)` order.
fn cells<'a>(
    map: &'a BTreeMap<&'static str, BTreeMap<String, Metric>>,
) -> impl Iterator<Item = (&'static str, &'a String, &'a Metric)> {
    map.iter()
        .flat_map(|(&name, labels)| labels.iter().map(move |(label, m)| (name, label, m)))
}

fn kind_mismatch(name: &str) -> ! {
    panic!("telemetry metric {name:?} already registered with a different kind")
}

impl Registry {
    /// The handle `pick` makes of the cell `name`/`label`, registering
    /// `new()` on first use.
    fn cell<T>(
        &self,
        name: &'static str,
        label: &str,
        pick: impl Fn(&Metric) -> Option<T>,
        new: impl FnOnce() -> Metric,
    ) -> T {
        let handle = |m: &Metric| pick(m).unwrap_or_else(|| kind_mismatch(name));
        let map = self.map.read().expect("telemetry registry poisoned");
        if let Some(m) = map.get(name).and_then(|labels| labels.get(label)) {
            return handle(m);
        }
        drop(map);
        let mut map = self.map.write().expect("telemetry registry poisoned");
        let labels = map.entry(name).or_default();
        if !labels.contains_key(label) {
            labels.insert(label.to_owned(), new());
        }
        handle(&labels[label])
    }

    /// Returns (registering on first use) the counter `name`/`label`.
    pub fn counter(&self, name: &'static str, label: &str) -> Counter {
        let pick = |m: &Metric| match m {
            Metric::Counter(c) => Some(Counter(c.clone())),
            _ => None,
        };
        self.cell(name, label, pick, || Metric::Counter(Arc::default()))
    }

    /// Returns (registering on first use) the histogram `name`/`label`.
    pub fn histogram(&self, name: &'static str, label: &str) -> Histogram {
        let pick = |m: &Metric| match m {
            Metric::Hist(h) => Some(Histogram(h.clone())),
            _ => None,
        };
        self.cell(name, label, pick, || Metric::Hist(Arc::default()))
    }

    /// Captures every registered metric, sorted by `(name, label)`.
    pub fn snapshot(&self) -> Snapshot {
        let map = self.map.read().expect("telemetry registry poisoned");
        let mut snap = Snapshot::default();
        for (name, label, metric) in cells(&map) {
            match metric {
                Metric::Counter(c) => snap.counters.push(CounterSnapshot {
                    name: name.to_owned(),
                    label: label.clone(),
                    value: c.v.load(Ordering::Relaxed),
                }),
                Metric::Hist(h) => snap.histograms.push(h.snapshot(name, label)),
            }
        }
        snap
    }

    /// Captures every registered histogram as a raw [`LogHistogram`]
    /// (full bucket counts, not just summary percentiles), keyed by
    /// `(name, label)`. The SLO monitor diffs successive captures to get
    /// per-window bucket counts.
    pub(crate) fn histograms_raw(&self) -> Vec<(String, String, LogHistogram)> {
        let map = self.map.read().expect("telemetry registry poisoned");
        cells(&map)
            .filter_map(|(name, label, metric)| match metric {
                Metric::Hist(h) => Some((name.to_owned(), label.clone(), h.raw())),
                _ => None,
            })
            .collect()
    }
}

/// The process-wide registry used by the free functions and macros.
pub(crate) fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::default)
}

/// Global unlabelled counter `name`.
pub fn counter(name: &'static str) -> Counter {
    global().counter(name, "")
}

/// Global counter `name` with `label`.
pub fn counter_with(name: &'static str, label: &str) -> Counter {
    global().counter(name, label)
}

/// Global unlabelled histogram `name`.
pub fn histogram(name: &'static str) -> Histogram {
    global().histogram(name, "")
}

/// Snapshot of the global registry.
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

/// Raw log-bucket histograms of the global registry (see
/// [`Registry::histograms_raw`]).
pub(crate) fn histograms_raw() -> Vec<(String, String, LogHistogram)> {
    global().histograms_raw()
}

// ---------------------------------------------------------------- spans --

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Microseconds since the process-wide telemetry epoch (monotonic). The
/// timestamp base of trace spans and flight-recorder entries.
pub fn now_monotonic_us() -> u64 {
    now_us()
}

/// An RAII timing guard: on drop, records the elapsed microseconds into its
/// histogram. Started by [`span!`](crate::span), which caches the histogram
/// per call site.
#[must_use = "a span measures until it is dropped"]
pub struct Span {
    start: Instant,
    hist: &'static Histogram,
}

impl Span {
    /// Starts a span recording into `hist` (convention: a `..._us` name,
    /// since the recorded unit is microseconds).
    pub fn start(hist: &'static Histogram) -> Span {
        Span {
            start: Instant::now(),
            hist,
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.hist.record(self.start.elapsed().as_secs_f64() * 1e6);
    }
}
