//! Flight recorder: a lock-free ring buffer retaining the last N spans
//! and SLO breaches, dumped as JSON lines on demand.
//!
//! The ring claims slots with a single `fetch_add` on a monotonically
//! increasing head; each slot holds its `(sequence, entry)` pair behind a
//! tiny per-slot mutex (the crate forbids `unsafe`, so slots cannot be
//! raw cells — contention is still per-slot, never global). When the ring
//! wraps, the oldest entry is silently overwritten: drop-oldest, never
//! block the writer.
//!
//! The library never writes files or prints: a bench or test takes the
//! dump (`ControlPlane::dump_flight_recorder()`, [`recorder_dump_jsonl`])
//! or the entries ([`recorder_entries`]) itself.

use crate::slo::SloBreach;
use crate::trace::SpanRecord;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// One retained entry: a finished span or an SLO breach.
#[derive(Debug, Clone, PartialEq)]
pub enum RecorderEntry {
    /// A finished trace span.
    Span(SpanRecord),
    /// An SLO breach emitted by the [`crate::slo`] monitor.
    Breach(SloBreach),
}

impl RecorderEntry {
    /// Renders the entry as one JSON object (a JSON-lines record, no
    /// trailing newline). Spans carry `"kind":"span"`, breaches
    /// `"kind":"breach"`.
    pub(crate) fn to_json_line(&self) -> String {
        match self {
            RecorderEntry::Span(s) => s.to_json_line(),
            RecorderEntry::Breach(b) => b.to_json_line(),
        }
    }
}

/// Default ring capacity (entries), enough for several thousand
/// intents' worth of spans at ~4–6 spans per intent.
const DEFAULT_RECORDER_CAPACITY: usize = 1 << 16;

/// The ring buffer itself. Accessed through the global instance
/// ([`recorder_dump_jsonl`], [`recorder_entries`], …), and constructible
/// standalone for tests.
pub(crate) struct FlightRecorder {
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

/// A handle on the current global recorder.
fn recorder() -> Arc<FlightRecorder> {
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
pub(crate) fn recorder_record(entry: RecorderEntry) {
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
        r.record(RecorderEntry::Breach(SloBreach {
            slo: "p99".into(),
            subject: String::new(),
            observed: 2.0,
            threshold: 1.0,
            window: 1,
            ts_us: 5,
        }));
        let dump = r.dump_jsonl();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"kind\":\"span\""));
        assert!(lines[1].starts_with("{\"kind\":\"breach\",\"slo\":\"p99\""));
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
