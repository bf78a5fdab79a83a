//! Renders the process-global telemetry registry into the bench [`Json`]
//! shape embedded in every `results/BENCH_*.json`.
//!
//! The section always exists so downstream tooling can key on it.

use crate::json::Json;

/// Converts the current global telemetry snapshot to a JSON object:
///
/// ```json
/// {
///   "counters": [{"name": "...", "label": "...", "value": 1}],
///   "histograms": [{"name": "...", "count": 9, "p50": ..., ...}]
/// }
/// ```
pub fn telemetry_json() -> Json {
    let snap = alvc_telemetry::snapshot();
    let counters: Vec<Json> = snap
        .counters
        .iter()
        .map(|c| {
            Json::object()
                .field("name", c.name.as_str())
                .field("label", c.label.as_str())
                .field("value", c.value)
        })
        .collect();
    let histograms: Vec<Json> = snap
        .histograms
        .iter()
        .map(|h| {
            Json::object()
                .field("name", h.name.as_str())
                .field("label", h.label.as_str())
                .field("count", h.count)
                .field("sum", h.sum)
                .field("min", h.min)
                .field("max", h.max)
                .field("mean", h.mean)
                .field("p50", h.p50)
                .field("p95", h.p95)
                .field("p99", h.p99)
                .field("rejected", h.rejected)
        })
        .collect();
    Json::object()
        .field("counters", counters)
        .field("histograms", histograms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_json_has_all_sections() {
        let j = telemetry_json();
        for section in ["counters", "histograms"] {
            assert!(
                j.get(section).and_then(Json::as_array).is_some(),
                "{section}"
            );
        }
    }

    #[test]
    fn recorded_probes_appear_in_json() {
        alvc_telemetry::counter!("alvc_bench.test.export_probe").add(3);
        let j = telemetry_json();
        let counters = j.get("counters").and_then(Json::as_array).unwrap();
        let probe = counters
            .iter()
            .find(|c| c.get("name").and_then(Json::as_str) == Some("alvc_bench.test.export_probe"))
            .expect("probe exported");
        assert!(probe.get("value").and_then(Json::as_f64).unwrap() >= 3.0);
    }
}
