//! Dependency-light observability for the AL-VC workspace.
//!
//! Three kinds of signal, all addressable by static name plus optional
//! label, all collected into one process-global registry:
//!
//! - **metrics** — atomic [`Counter`]s, [`Gauge`]s, and log-bucketed
//!   [`Histogram`]s with p50/p95/p99 [`snapshot`]s;
//! - **spans** — RAII [`Span`] guards that time a scope with the monotonic
//!   clock and record the elapsed microseconds into a histogram;
//! - **events** — structured key/value [`Event`]s buffered per thread and
//!   exported as JSON lines ([`drain_events_jsonl`]), for the progress
//!   reporting that library crates must never print to stdout.
//!
//! Naming convention: `alvc_<crate>.<subsystem>.<metric>`, with `_us`
//! suffixes for microsecond-denominated histograms (see DESIGN.md §9 for
//! the probe inventory).
//!
//! # Hot-path usage
//!
//! The free functions ([`counter`](fn@counter), [`histogram`](fn@histogram), …) take a registry lock
//! per call; the macros cache the handle in a per-call-site `OnceLock`, so
//! steady-state cost is one atomic load plus the atomic update:
//!
//! ```
//! alvc_telemetry::counter!("alvc_doc.example.widgets").add(3);
//! let snap = alvc_telemetry::snapshot();
//! assert_eq!(snap.counters.iter().find(|c| c.name == "alvc_doc.example.widgets").unwrap().value, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod hist;
pub mod recorder;
mod registry;
pub mod slo;
mod snapshot;
pub mod trace;
mod types;

pub use hist::LogHistogram;
pub use recorder::{FlightRecorder, Postmortem, RecorderEntry};
pub use registry::*;
pub use slo::{SloBreach, SloKind, SloMonitor, SloReport, SloResult, SloSpec};
pub use snapshot::{CounterSnapshot, GaugeSnapshot, HistogramSnapshot, Snapshot};
pub use trace::{ActiveSpan, SpanId, SpanRecord, TraceCtx, TraceId};
pub use types::{Event, FieldValue};

/// Returns a `&'static Counter` for `name`, cached per call site.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static CELL: ::std::sync::OnceLock<$crate::Counter> = ::std::sync::OnceLock::new();
        CELL.get_or_init(|| $crate::counter($name))
    }};
}

/// Returns a `&'static Gauge` for `name`, cached per call site.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static CELL: ::std::sync::OnceLock<$crate::Gauge> = ::std::sync::OnceLock::new();
        CELL.get_or_init(|| $crate::gauge($name))
    }};
}

/// Returns a `&'static Histogram` for `name`, cached per call site.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static CELL: ::std::sync::OnceLock<$crate::Histogram> = ::std::sync::OnceLock::new();
        CELL.get_or_init(|| $crate::histogram($name))
    }};
}

/// Starts a [`Span`] recording into the histogram `name` when dropped.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

/// Records a structured event: `event!("name", "key" = value, ...)`.
///
/// Field values go through [`FieldValue::from`], so integers, floats,
/// bools, and strings all work. The field expressions are only evaluated
/// when event recording is enabled ([`set_events_enabled`]).
#[macro_export]
macro_rules! event {
    ($name:expr $(, $key:literal = $value:expr)* $(,)?) => {
        if $crate::events_enabled() {
            $crate::emit(
                $name,
                vec![$(($key, $crate::FieldValue::from($value))),*],
            );
        }
    };
}
