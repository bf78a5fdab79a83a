//! Causal tracing: u64 trace/span identifiers, an ambient per-thread
//! context stack, and RAII span guards that feed the flight recorder.
//!
//! A **trace** is one causal story — typically one intent's journey from
//! submission through admission, execution, and outcome. A **span** is one
//! named stage of that story, with a start timestamp, a measured duration,
//! a status (`"ok"`, `"completed"`, `"rejected"`, `"error"`, …), and an
//! optional machine-readable reason `code`.
//!
//! Propagation is *ambient*: instead of threading a context parameter
//! through every orchestrator signature, the active [`TraceCtx`] lives on
//! a bounded per-thread stack. [`enter`] pushes an existing context (e.g.
//! an intent's root) for a scope; [`child_span`] opens a span under
//! whatever context is current, so a stage nested in another parents under
//! it with no help. The control plane [`enter`]s an intent's root around
//! the work it runs for that intent, on whichever thread runs the batch.
//!
//! Everything is runtime-gated behind [`set_tracing_enabled`] (one
//! relaxed atomic load per call site when off). Finished spans are pushed
//! into the [flight recorder](crate::recorder); nothing here allocates or
//! locks while tracing is disabled.

use crate::recorder::{recorder_record, RecorderEntry};
use crate::types::FieldValue;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Identifier of one causal trace. `0` is reserved for "no trace".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The absent trace.
    pub(crate) const NONE: TraceId = TraceId(0);

    /// `true` for the reserved absent id.
    pub(crate) fn is_none(self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace-{}", self.0)
    }
}

/// Identifier of one span within a trace. `0` is reserved for "no span"
/// (the parent of a root span).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The absent span (a root span's parent).
    pub(crate) const NONE: SpanId = SpanId(0);

    /// `true` for the reserved absent id.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// A `(trace, span)` pair: everything needed to parent a child span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceCtx {
    /// The trace this context belongs to.
    pub trace: TraceId,
    /// The span children of this context attach to.
    pub span: SpanId,
}

impl TraceCtx {
    /// The absent context (tracing off, or no ambient trace).
    pub const NONE: TraceCtx = TraceCtx {
        trace: TraceId::NONE,
        span: SpanId::NONE,
    };

    /// `true` when there is no trace to attach to.
    pub(crate) fn is_none(self) -> bool {
        self.trace.is_none()
    }
}

/// One finished span, as retained by the flight recorder and rendered
/// into JSON-lines dumps.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// This span's id (unique process-wide, not just per trace).
    pub span: SpanId,
    /// The parent span, the absent id `SpanId(0)` for a root.
    pub parent: SpanId,
    /// Static stage name (`intent.admission`, `core.construct_pod`, …).
    pub name: &'static str,
    /// Microseconds since the telemetry epoch at span start.
    pub start_us: u64,
    /// Measured duration in microseconds.
    pub duration_us: f64,
    /// Outcome status (`"ok"`, `"completed"`, `"rejected"`, `"error"`, …).
    pub status: &'static str,
    /// Machine-readable reason code (`""` when not applicable), e.g. an
    /// admission-rejection or deploy-failure code.
    pub code: &'static str,
    /// Ordered key/value payload (tenant, pod index, coalesced count, …).
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl SpanRecord {
    /// Renders the span as one JSON object (a JSON-lines record with
    /// `"kind":"span"`, no trailing newline).
    pub(crate) fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(128);
        let _ = write!(
            out,
            "{{\"kind\":\"span\",\"trace\":{},\"span\":{},\"parent\":{},\"name\":",
            self.trace.0, self.span.0, self.parent.0
        );
        crate::types::push_json_string(&mut out, self.name);
        let _ = write!(
            out,
            ",\"start_us\":{},\"duration_us\":{},\"status\":",
            self.start_us,
            if self.duration_us.is_finite() {
                self.duration_us
            } else {
                0.0
            }
        );
        crate::types::push_json_string(&mut out, self.status);
        out.push_str(",\"code\":");
        crate::types::push_json_string(&mut out, self.code);
        for (k, v) in &self.fields {
            out.push(',');
            crate::types::push_json_string(&mut out, k);
            out.push(':');
            v.render_json(&mut out);
        }
        out.push('}');
        out
    }
}

/// Global tracing switch; off by default so steady-state probe sites
/// cost one relaxed load when nobody is tracing.
static TRACING: AtomicBool = AtomicBool::new(false);
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// Bound on each thread's open-span stack: spans opened deeper than
/// this are inert (recorded nowhere) rather than growing memory.
const MAX_SPAN_DEPTH: usize = 64;

thread_local! {
    static STACK: RefCell<Vec<TraceCtx>> = const { RefCell::new(Vec::new()) };
}

/// Turns span recording on or off (off by default). Disabled tracing
/// leaves every guard inert and every context [`TraceCtx::NONE`].
pub fn set_tracing_enabled(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

/// Whether span recording is currently on.
#[inline]
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Allocates a fresh trace id (never the reserved absent id 0).
fn new_trace() -> TraceId {
    TraceId(NEXT_TRACE.fetch_add(1, Ordering::Relaxed))
}

fn new_span() -> SpanId {
    SpanId(NEXT_SPAN.fetch_add(1, Ordering::Relaxed))
}

/// The ambient context on this thread, [`TraceCtx::NONE`] when
/// tracing is off or nothing is entered.
pub(crate) fn current_ctx() -> TraceCtx {
    if !tracing_enabled() {
        return TraceCtx::NONE;
    }
    STACK.with(|s| s.borrow().last().copied().unwrap_or(TraceCtx::NONE))
}

/// RAII guard restoring the ambient stack when dropped.
#[must_use = "the context is ambient only while the guard lives"]
pub struct CtxGuard {
    pushed: bool,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        if self.pushed {
            STACK.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
}

/// Makes `ctx` the ambient context for the guard's lifetime. The
/// control plane uses it to re-enter an intent's root on the thread
/// executing the intent's batch, so the stages it runs there parent
/// under that root. Inert when tracing is off or `ctx` is none.
pub fn enter(ctx: TraceCtx) -> CtxGuard {
    if !tracing_enabled() || ctx.is_none() {
        return CtxGuard { pushed: false };
    }
    let pushed = STACK.with(|s| {
        let mut st = s.borrow_mut();
        let room = st.len() < MAX_SPAN_DEPTH;
        if room {
            st.push(ctx);
        }
        room
    });
    CtxGuard { pushed }
}

struct Open {
    rec: SpanRecord,
    start: Instant,
}

/// An open span: measures from creation to drop, then lands in the
/// flight recorder. Inert (zero-cost beyond the guard) when tracing
/// is off, no ambient context exists, or the depth bound was hit.
#[must_use = "a span measures until it is dropped"]
pub struct ActiveSpan(Option<Open>);

impl ActiveSpan {
    /// This span's context, for parenting work on other threads.
    pub fn ctx(&self) -> TraceCtx {
        self.0.as_ref().map_or(TraceCtx::NONE, |o| TraceCtx {
            trace: o.rec.trace,
            span: o.rec.span,
        })
    }

    /// Overrides the status (default `"ok"`).
    pub fn set_status(&mut self, status: &'static str) {
        if let Some(o) = &mut self.0 {
            o.rec.status = status;
        }
    }

    /// Sets the machine-readable reason code.
    pub fn set_code(&mut self, code: &'static str) {
        if let Some(o) = &mut self.0 {
            o.rec.code = code;
        }
    }

    /// Marks the span failed with a reason code
    /// (`set_status("error")` + `set_code(code)`).
    pub fn fail(&mut self, code: &'static str) {
        self.set_status("error");
        self.set_code(code);
    }

    /// Attaches one key/value field.
    pub fn add_field(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(o) = &mut self.0 {
            o.rec.fields.push((key, value.into()));
        }
    }
}

impl Drop for ActiveSpan {
    fn drop(&mut self) {
        let Some(mut open) = self.0.take() else {
            return;
        };
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        open.rec.duration_us = open.start.elapsed().as_secs_f64() * 1e6;
        recorder_record(RecorderEntry::Span(open.rec));
    }
}

fn open_span(trace: TraceId, parent: SpanId, name: &'static str) -> ActiveSpan {
    let span = new_span();
    let pushed = STACK.with(|s| {
        let mut st = s.borrow_mut();
        if st.len() >= MAX_SPAN_DEPTH {
            return false;
        }
        st.push(TraceCtx { trace, span });
        true
    });
    if !pushed {
        return ActiveSpan(None);
    }
    ActiveSpan(Some(Open {
        rec: SpanRecord {
            trace,
            span,
            parent,
            name,
            start_us: crate::now_monotonic_us(),
            duration_us: 0.0,
            status: "ok",
            code: "",
            fields: Vec::new(),
        },
        start: Instant::now(),
    }))
}

/// Opens a child span under the ambient context (inert when there is
/// none). The child becomes ambient itself until dropped, so nested
/// stages parent naturally.
pub fn child_span(name: &'static str) -> ActiveSpan {
    let ctx = current_ctx();
    if ctx.is_none() {
        return ActiveSpan(None);
    }
    open_span(ctx.trace, ctx.span, name)
}

/// Allocates a root context *without* opening a guard: the caller
/// closes it later with [`record_root`]. Used for intent roots, whose
/// lifetime (submission → outcome) spans threads and batches.
pub fn new_root_ctx() -> TraceCtx {
    if !tracing_enabled() {
        return TraceCtx::NONE;
    }
    TraceCtx {
        trace: new_trace(),
        span: new_span(),
    }
}

/// Records the root span for a context from [`new_root_ctx`], with an
/// explicit start timestamp and duration.
pub fn record_root(
    ctx: TraceCtx,
    name: &'static str,
    start_us: u64,
    duration_us: f64,
    status: &'static str,
    code: &'static str,
    fields: Vec<(&'static str, FieldValue)>,
) {
    if ctx.is_none() {
        return;
    }
    recorder_record(RecorderEntry::Span(SpanRecord {
        trace: ctx.trace,
        span: ctx.span,
        parent: SpanId::NONE,
        name,
        start_us,
        duration_us,
        status,
        code,
        fields,
    }));
}

/// Records an already-measured span under `parent` and returns the
/// new span's context. Used for per-item attribution of coalesced
/// work, where the item's share of a bulk run is computed after the
/// fact. Inert (returns [`TraceCtx::NONE`]) when tracing is off or
/// `parent` is none.
pub fn record_span(
    parent: TraceCtx,
    name: &'static str,
    duration_us: f64,
    status: &'static str,
    code: &'static str,
    fields: Vec<(&'static str, FieldValue)>,
) -> TraceCtx {
    if !tracing_enabled() || parent.is_none() {
        return TraceCtx::NONE;
    }
    let span = new_span();
    let now = crate::now_monotonic_us();
    let start_us = now.saturating_sub(duration_us.max(0.0) as u64);
    recorder_record(RecorderEntry::Span(SpanRecord {
        trace: parent.trace,
        span,
        parent: parent.span,
        name,
        start_us,
        duration_us,
        status,
        code,
        fields,
    }));
    TraceCtx {
        trace: parent.trace,
        span,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_record_renders_as_one_json_object() {
        let rec = SpanRecord {
            trace: TraceId(7),
            span: SpanId(9),
            parent: SpanId(3),
            name: "intent.execute",
            start_us: 100,
            duration_us: 12.5,
            status: "completed",
            code: "",
            fields: vec![("coalesced", FieldValue::U64(4))],
        };
        assert_eq!(
            rec.to_json_line(),
            "{\"kind\":\"span\",\"trace\":7,\"span\":9,\"parent\":3,\
             \"name\":\"intent.execute\",\"start_us\":100,\"duration_us\":12.5,\
             \"status\":\"completed\",\"code\":\"\",\"coalesced\":4}"
        );
    }

    #[test]
    fn none_ids_are_reserved() {
        assert!(TraceId::NONE.is_none());
        assert!(SpanId::NONE.is_none());
        assert!(TraceCtx::NONE.is_none());
        assert!(!TraceId(1).is_none());
    }

    #[test]
    fn disabled_tracing_is_inert() {
        // Tracing is off by default: no ambient context, inert guards.
        assert_eq!(current_ctx(), TraceCtx::NONE);
        let s = child_span("x");
        assert_eq!(s.ctx(), TraceCtx::NONE);
        assert_eq!(
            record_span(TraceCtx::NONE, "y", 1.0, "ok", "", vec![]),
            TraceCtx::NONE
        );
    }
}
