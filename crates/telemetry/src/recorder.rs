//! Flight recorder: a lock-free ring buffer retaining the last N spans,
//! events, and SLO breaches, dumped as JSON lines on demand or when an
//! invariant trips.
//!
//! The ring claims slots with a single `fetch_add` on a monotonically
//! increasing head; each slot holds its `(sequence, entry)` pair behind a
//! tiny per-slot mutex (the crate forbids `unsafe`, so slots cannot be
//! raw cells — contention is still per-slot, never global). When the ring
//! wraps, the oldest entry is silently overwritten: drop-oldest, never
//! block the writer.
//!
//! A **post-mortem** is a frozen dump captured at the moment something
//! went wrong (`verify_no_failed_references` violations, admission
//! invariant breaches, or an explicit
//! `ControlPlane::dump_flight_recorder()`). The library never writes
//! files or prints; captured post-mortems are stored (capped) until a
//! bench or test collects them with [`take_postmortems`].

use crate::slo::SloBreach;
use crate::trace::SpanRecord;
use crate::types::Event;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// One retained entry: a finished span, a structured event, or an SLO
/// breach.
#[derive(Debug, Clone, PartialEq)]
pub enum RecorderEntry {
    /// A finished trace span.
    Span(SpanRecord),
    /// A structured event mirrored from the event subscriber.
    Event(Event),
    /// An SLO breach emitted by the [`crate::slo`] monitor.
    Breach(SloBreach),
}

impl RecorderEntry {
    /// Renders the entry as one JSON object (a JSON-lines record, no
    /// trailing newline). Spans carry `"kind":"span"`, events
    /// `"kind":"event"`, breaches `"kind":"breach"`.
    pub(crate) fn to_json_line(&self) -> String {
        match self {
            RecorderEntry::Span(s) => s.to_json_line(),
            RecorderEntry::Event(e) => {
                let body = e.to_json_line();
                // Event::to_json_line is the drain_events_jsonl format;
                // prefix the kind tag for the mixed recorder stream.
                let mut out = String::with_capacity(body.len() + 16);
                out.push_str("{\"kind\":\"event\",");
                out.push_str(&body[1..]);
                out
            }
            RecorderEntry::Breach(b) => b.to_json_line(),
        }
    }
}

/// A frozen flight-recorder dump captured when an invariant tripped.
#[derive(Debug, Clone)]
pub struct Postmortem {
    /// Why the dump was taken (`"verify_no_failed_references"`,
    /// `"admission-invariant"`, …).
    pub reason: String,
    /// Microseconds since the telemetry epoch at capture time.
    pub ts_us: u64,
    /// The recorder contents at capture time, as JSON lines.
    pub dump_jsonl: String,
}

/// Default ring capacity (entries), enough for several thousand
/// intents' worth of spans at ~4–6 spans per intent.
pub const DEFAULT_RECORDER_CAPACITY: usize = 1 << 16;

/// Post-mortems retained before the oldest are dropped.
const MAX_POSTMORTEMS: usize = 8;

/// The ring buffer itself. Usually accessed through the global
/// instance ([`recorder_record`], [`recorder_dump_jsonl`], …), but
/// constructible standalone for tests.
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<(u64, RecorderEntry)>>>,
    head: AtomicU64,
}

impl FlightRecorder {
    /// Creates a recorder retaining the last `capacity` entries
    /// (clamped to at least 1).
    pub(crate) fn new(capacity: usize) -> FlightRecorder {
        let cap = capacity.max(1);
        FlightRecorder {
            slots: (0..cap).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// The configured capacity in entries.
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Appends one entry, overwriting the oldest when full.
    pub(crate) fn record(&self, entry: RecorderEntry) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let idx = (seq % self.slots.len() as u64) as usize;
        let mut slot = self.slots[idx].lock().expect("recorder slot poisoned");
        *slot = Some((seq, entry));
    }

    /// Entries currently retained (≤ capacity).
    pub(crate) fn len(&self) -> usize {
        (self.head.load(Ordering::Relaxed) as usize).min(self.slots.len())
    }

    /// Entries dropped to the drop-oldest policy so far.
    #[cfg(test)]
    fn overwritten(&self) -> u64 {
        let head = self.head.load(Ordering::Relaxed);
        head.saturating_sub(self.slots.len() as u64)
    }

    /// Clones the retained entries in record order (oldest first).
    /// Non-draining: concurrent writers keep appending.
    pub(crate) fn entries(&self) -> Vec<RecorderEntry> {
        let mut pairs: Vec<(u64, RecorderEntry)> = Vec::with_capacity(self.len());
        for slot in &self.slots {
            let guard = slot.lock().expect("recorder slot poisoned");
            if let Some((seq, entry)) = guard.as_ref() {
                pairs.push((*seq, entry.clone()));
            }
        }
        pairs.sort_by_key(|(seq, _)| *seq);
        pairs.into_iter().map(|(_, e)| e).collect()
    }

    /// Renders the retained entries as JSON lines (oldest first, one
    /// object per line, trailing newline when non-empty).
    pub(crate) fn dump_jsonl(&self) -> String {
        let mut out = String::new();
        for entry in self.entries() {
            out.push_str(&entry.to_json_line());
            out.push('\n');
        }
        out
    }

    /// Drops every retained entry and resets the sequence counter.
    pub(crate) fn clear(&self) {
        for slot in &self.slots {
            *slot.lock().expect("recorder slot poisoned") = None;
        }
        self.head.store(0, Ordering::Relaxed);
    }
}

fn global() -> &'static RwLock<Arc<FlightRecorder>> {
    static R: OnceLock<RwLock<Arc<FlightRecorder>>> = OnceLock::new();
    R.get_or_init(|| RwLock::new(Arc::new(FlightRecorder::new(DEFAULT_RECORDER_CAPACITY))))
}

fn postmortems() -> &'static Mutex<Vec<Postmortem>> {
    static P: OnceLock<Mutex<Vec<Postmortem>>> = OnceLock::new();
    P.get_or_init(|| Mutex::new(Vec::new()))
}

/// A handle on the current global recorder.
pub fn recorder() -> Arc<FlightRecorder> {
    global().read().expect("recorder lock poisoned").clone()
}

/// Replaces the global recorder when `capacity` differs from the
/// current one (entries are kept otherwise, so repeated
/// same-capacity configuration calls are cheap no-ops).
pub fn configure_recorder(capacity: usize) {
    let capacity = capacity.max(1);
    let mut guard = global().write().expect("recorder lock poisoned");
    if guard.capacity() != capacity {
        *guard = Arc::new(FlightRecorder::new(capacity));
    }
}

/// Appends one entry to the global recorder.
pub fn recorder_record(entry: RecorderEntry) {
    recorder().record(entry);
}

/// Clones the global recorder's retained entries (oldest first).
pub fn recorder_entries() -> Vec<RecorderEntry> {
    recorder().entries()
}

/// Renders the global recorder as JSON lines (oldest first).
pub fn recorder_dump_jsonl() -> String {
    recorder().dump_jsonl()
}

/// Empties the global recorder.
pub fn clear_recorder() {
    recorder().clear();
}

/// Captures a post-mortem: freezes the current recorder contents
/// under `reason` for later collection with [`take_postmortems`].
/// At most 8 post-mortems are retained (oldest dropped); the
/// `alvc_telemetry.recorder.postmortems` counter tracks captures.
pub fn postmortem(reason: &str) {
    let dump = Postmortem {
        reason: reason.to_owned(),
        ts_us: crate::now_monotonic_us(),
        dump_jsonl: recorder_dump_jsonl(),
    };
    let mut store = postmortems().lock().expect("postmortem store poisoned");
    if store.len() >= MAX_POSTMORTEMS {
        store.remove(0);
    }
    store.push(dump);
    drop(store);
    crate::counter("alvc_telemetry.recorder.postmortems").incr();
}

/// Takes every captured post-mortem, leaving the store empty.
pub fn take_postmortems() -> Vec<Postmortem> {
    std::mem::take(&mut *postmortems().lock().expect("postmortem store poisoned"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{SpanId, SpanRecord, TraceId};

    fn span(n: u64) -> RecorderEntry {
        RecorderEntry::Span(SpanRecord {
            trace: TraceId(n),
            span: SpanId(n),
            parent: SpanId::NONE,
            name: "test",
            start_us: n,
            duration_us: 1.0,
            status: "ok",
            code: "",
            fields: Vec::new(),
        })
    }

    #[test]
    fn ring_drops_oldest_on_wrap() {
        let r = FlightRecorder::new(4);
        for n in 0..6 {
            r.record(span(n));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.overwritten(), 2);
        let traces: Vec<u64> = r
            .entries()
            .iter()
            .map(|e| match e {
                RecorderEntry::Span(s) => s.trace.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(traces, vec![2, 3, 4, 5]);
    }

    #[test]
    fn dump_is_one_json_object_per_line() {
        let r = FlightRecorder::new(8);
        r.record(span(1));
        r.record(RecorderEntry::Event(crate::types::Event {
            ts_us: 5,
            name: "alvc_test.ev",
            fields: vec![],
        }));
        let dump = r.dump_jsonl();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"kind\":\"span\""));
        assert!(lines[1].starts_with("{\"kind\":\"event\",\"ts_us\":5"));
        for line in lines {
            assert!(line.ends_with('}'));
        }
    }

    #[test]
    fn clear_resets_the_ring() {
        let r = FlightRecorder::new(2);
        r.record(span(1));
        r.clear();
        assert_eq!(r.len(), 0);
        assert_eq!(r.entries().len(), 0);
    }
}
