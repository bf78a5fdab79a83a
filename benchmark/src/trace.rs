//! The driver's own measurement tools: in-memory spans around every call
//! into the library, a counting global allocator, and the process's peak
//! resident set. Nothing here touches the library's telemetry switches.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// `parent` of a span nothing encloses.
pub const ROOT: u32 = u32::MAX;

/// One timed call: `{name, start_ns, end_ns, parent, op_id}`. Spans of one
/// operation share `op_id`; `parent` indexes the span list.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op_id: u64,
}

/// Times calls always (latency needs it); keeps spans only while enabled.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled: false,
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from((t - self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` and returns its result with the time it took.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        op_id: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent,
                op_id,
            });
        }
        (out, end - start)
    }

    /// Opens an enclosing span; children pass the returned index as their
    /// `parent`. Returns [`ROOT`] while disabled.
    pub fn open(&mut self, name: &'static str, op_id: u64) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: ROOT,
            op_id,
        });
        u32::try_from(self.spans.len() - 1).expect("fewer than 2^32 spans")
    }

    pub fn close(&mut self, span: u32) {
        if span != ROOT {
            let now = self.ns(Instant::now());
            self.spans[span as usize].end_ns = now;
        }
    }

    /// Durations of every span called `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Writes `{"workload", "seed", "spans": [[name, start_ns, end_ns,
    /// parent, op_id], ...]}`; `parent` is an index into `spans` or -1.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \
             \"columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"op_id\"], \"spans\": ["
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "[\"{}\", {}, {}, {}, {}]{}",
                s.name, s.start_ns, s.end_ns, parent, s.op_id, comma
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus two statistics counters that only run while
/// [`set_alloc_counting`] is on, so untraced runs pay one relaxed load.
pub struct CountingAlloc;

impl CountingAlloc {
    fn note(size: usize) {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain statistics
// and publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller's obligations are passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

pub fn set_alloc_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` counted so far.
pub fn alloc_totals() -> (u64, u64) {
    (
        ALLOC_COUNT.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("VmHWM missing from /proc/self/status"))
}
