//! Dependency-light observability for the AL-VC workspace.
//!
//! Two kinds of probe, both addressable by static name plus optional
//! label, both collected into one process-global registry:
//!
//! - **metrics** — atomic [`Counter`]s and log-bucketed [`Histogram`]s
//!   with p50/p95/p99 [`snapshot`]s;
//! - **spans** — RAII [`Span`] guards that time a scope with the monotonic
//!   clock and record the elapsed microseconds into a histogram.
//!
//! Beside them sit the causal [`trace`] spans, the [flight
//! recorder](recorder) they land in, and the [`slo`] monitor.
//!
//! Naming convention: `alvc_<crate>.<name>`, with `_us` suffixes for
//! microsecond-denominated histograms. A probe is kept only while
//! something outside the library reads it by full name;
//! `schemas/probes.txt` lists each name with its reader (DESIGN.md §9).
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
pub use recorder::RecorderEntry;
pub use registry::*;
pub use slo::{SloBreach, SloKind, SloMonitor, SloReport, SloResult, SloSpec};
pub use snapshot::{CounterSnapshot, HistogramSnapshot, Snapshot};
pub use trace::{ActiveSpan, SpanId, SpanRecord, TraceCtx, TraceId};
pub use types::FieldValue;

/// Returns a `&'static Counter` for `name`, cached per call site.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static CELL: ::std::sync::OnceLock<$crate::Counter> = ::std::sync::OnceLock::new();
        CELL.get_or_init(|| $crate::counter($name))
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

/// Starts a [`Span`] recording into the histogram `name` when dropped; the
/// histogram is cached per call site, as in [`histogram!`].
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::Span::start($crate::histogram!($name))
    };
}
