//! End-to-end tests of the global registry, macros and spans.
//!
//! All tests share one process-global registry, so each uses its own
//! metric names.

use alvc_telemetry as tel;

fn histogram_count(name: &str) -> u64 {
    tel::snapshot()
        .histograms
        .iter()
        .find(|h| h.name == name)
        .map_or(0, |h| h.count)
}

#[test]
fn counters_register_and_accumulate() {
    let c = tel::counter("alvc_test.reg.counter");
    c.incr();
    c.add(4);
    // A second lookup shares the cell.
    assert_eq!(tel::counter("alvc_test.reg.counter").value(), 5);

    let snap = tel::snapshot();
    let c = snap
        .counters
        .iter()
        .find(|c| c.name == "alvc_test.reg.counter")
        .expect("counter in snapshot");
    assert_eq!(c.value, 5);
}

#[test]
fn labelled_metrics_are_distinct_series() {
    tel::counter_with("alvc_test.reg.labelled", "a").add(1);
    tel::counter_with("alvc_test.reg.labelled", "b").add(2);
    let snap = tel::snapshot();
    let values: Vec<(String, u64)> = snap
        .counters
        .iter()
        .filter(|c| c.name == "alvc_test.reg.labelled")
        .map(|c| (c.label.clone(), c.value))
        .collect();
    assert_eq!(values, vec![("a".into(), 1), ("b".into(), 2)]);
}

#[test]
#[should_panic(expected = "different kind")]
fn kind_conflict_panics() {
    tel::counter("alvc_test.reg.conflict");
    tel::histogram("alvc_test.reg.conflict");
}

#[test]
fn histogram_snapshot_reports_quantiles_and_rejections() {
    let h = tel::histogram("alvc_test.reg.hist");
    for i in 1..=100 {
        h.record(i as f64);
    }
    h.record(f64::NAN);
    h.record(f64::INFINITY);
    let snap = tel::snapshot();
    let hs = snap
        .histograms
        .iter()
        .find(|h| h.name == "alvc_test.reg.hist")
        .expect("histogram in snapshot");
    assert_eq!(hs.count, 100);
    assert_eq!(hs.rejected, 2);
    assert_eq!(hs.min, 1.0);
    assert_eq!(hs.max, 100.0);
    assert!((hs.p50 - 50.0).abs() / 50.0 < 0.095, "p50 = {}", hs.p50);
    assert!((hs.p99 - 99.0).abs() / 99.0 < 0.095, "p99 = {}", hs.p99);
}

#[test]
fn counter_overflow_wraps() {
    let c = tel::counter("alvc_test.reg.overflow");
    c.add(u64::MAX);
    c.add(3);
    assert_eq!(c.value(), 2);
}

#[test]
fn macros_cache_handles_per_call_site() {
    for _ in 0..3 {
        tel::counter!("alvc_test.reg.macro_counter").incr();
    }
    assert_eq!(tel::counter("alvc_test.reg.macro_counter").value(), 3);
    tel::histogram!("alvc_test.reg.macro_hist").record(1.5);
    assert_eq!(histogram_count("alvc_test.reg.macro_hist"), 1);
}

#[test]
fn span_times_into_histogram() {
    // One call site, entered three times: each pass records a sample into
    // the histogram the site cached on its first pass.
    for _ in 0..3 {
        let _span = tel::span!("alvc_test.reg.span_us");
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let snap = tel::snapshot();
    let hs = snap
        .histograms
        .iter()
        .find(|h| h.name == "alvc_test.reg.span_us")
        .expect("span histogram");
    assert_eq!(hs.count, 3);
    assert!(hs.min >= 1000.0, "span recorded {} us", hs.min);
}
