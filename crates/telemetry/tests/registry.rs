//! End-to-end tests of the global registry, macros, spans, and events.
//!
//! All tests share one process-global registry, so each uses its own
//! metric names; the reset test checks value-zeroing on its own metrics
//! only.

use alvc_telemetry as tel;

#[test]
fn counters_and_gauges_register_and_accumulate() {
    let c = tel::counter("alvc_test.reg.counter");
    c.incr();
    c.add(4);
    // A second lookup shares the cell.
    assert_eq!(tel::counter("alvc_test.reg.counter").value(), 5);

    let g = tel::gauge("alvc_test.reg.gauge");
    g.set(2.0);
    g.add(0.5);
    assert_eq!(g.value(), 2.5);

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
    tel::gauge("alvc_test.reg.conflict");
}

#[test]
fn histogram_snapshot_reports_quantiles_and_rejections() {
    let h = tel::histogram("alvc_test.reg.hist");
    for i in 1..=100 {
        h.record(i as f64);
    }
    h.record(f64::NAN);
    h.record(f64::INFINITY);
    assert_eq!(h.count(), 100);
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
    assert_eq!(tel::histogram("alvc_test.reg.macro_hist").count(), 1);
}

#[test]
fn span_times_into_histogram() {
    {
        let _span = tel::span!("alvc_test.reg.span_us");
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let snap = tel::snapshot();
    let hs = snap
        .histograms
        .iter()
        .find(|h| h.name == "alvc_test.reg.span_us")
        .expect("span histogram");
    assert_eq!(hs.count, 1);
    assert!(hs.min >= 1000.0, "span recorded {} us", hs.min);
}

// One test owns the whole event lifecycle: the enable flag, the global
// sink, and drains are process-wide, so splitting these into separate
// #[test]s would race under the parallel test runner.
#[test]
fn event_lifecycle_enable_emit_drain() {
    tel::event!("alvc_test.ev.off", "n" = 1u64);
    tel::set_events_enabled(true);
    tel::event!("alvc_test.ev.on", "n" = 2u64, "who" = "sim");
    std::thread::spawn(|| {
        tel::event!("alvc_test.ev.worker", "n" = 7u64);
    })
    .join()
    .unwrap();
    tel::set_events_enabled(false);
    let lines = tel::drain_events_jsonl();
    assert!(!lines.contains("alvc_test.ev.off"));
    let on_line = lines
        .lines()
        .find(|l| l.contains("\"alvc_test.ev.on\""))
        .expect("enabled event drained");
    assert!(on_line.contains("\"n\":2"));
    assert!(on_line.contains("\"who\":\"sim\""));
    assert!(on_line.starts_with("{\"ts_us\":"));
    // Worker-thread events spill to the global sink at thread exit.
    assert!(lines.contains("\"alvc_test.ev.worker\""));
}

#[test]
fn reset_zeroes_values_but_keeps_cached_handles_live() {
    let c = tel::counter("alvc_test.reg.reset");
    c.add(9);
    let h = tel::histogram("alvc_test.reg.reset_hist");
    h.record(4.0);
    tel::reset();
    assert_eq!(c.value(), 0);
    assert_eq!(h.count(), 0);
    // The cached handle still feeds the registered series.
    c.incr();
    let snap = tel::snapshot();
    let cs = snap
        .counters
        .iter()
        .find(|c| c.name == "alvc_test.reg.reset")
        .unwrap();
    assert_eq!(cs.value, 1);
}

#[test]
fn prometheus_text_includes_registered_series() {
    tel::counter("alvc_test.prom.counter").add(2);
    let text = tel::prometheus_text();
    assert!(text.contains("# TYPE alvc_test_prom_counter counter"));
}
