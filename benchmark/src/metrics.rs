//! Metric names, units and directions (the same lists `BENCHMARK.json`
//! carries; a unit test keeps the two in step), percentile rules, and the
//! one-line JSON result.

use std::io::{self, Write};

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the system sees; every workload reports all eight.
pub const END_TO_END: [MetricDef; 8] = [
    m("setup_s", "s", "lower"),
    m("goodput_per_s", "1/s", "higher"),
    m("latency_p50_us", "us", "lower"),
    m("latency_tail_us", "us", "lower"),
    m("completed_frac", "ratio", "higher"),
    m("al_ops_per_cluster", "OPS", "lower"),
    m("oeo_per_chain", "count", "lower"),
    m("peak_rss_mb", "MiB", "lower"),
];

/// Single-layer numbers from the traced pass, named `<crate>.<module>.<what>`.
pub const PER_LAYER: [MetricDef; 62] = [
    m("topology.build_us", "us", "lower"),
    m("core.clustering.service_clusters_us", "us", "lower"),
    m("core.shard.construct_total_us", "us", "lower"),
    m("core.shard.state_new_us", "us", "lower"),
    m("core.shard.pod_kernel_us", "us", "lower"),
    m("core.shard.merge_residual_us", "us", "lower"),
    m("core.shard.merged_clusters", "count", "lower"),
    m("core.shard.fallbacks", "count", "lower"),
    m("core.shard.peak_shard_bytes", "B", "lower"),
    m("core.construction.slice_construct_us", "us", "lower"),
    m("core.construction.rounds_per_op", "count", "lower"),
    m("core.construction.conflict_fallbacks", "count", "lower"),
    m("core.manager.create_cluster_us", "us", "lower"),
    m("core.manager.remove_cluster_us", "us", "lower"),
    m("graph.selector.pops_per_op", "count", "lower"),
    m("graph.selector.stale_refreshes_per_op", "count", "lower"),
    m("placement.place_us", "us", "lower"),
    m("placement.oeo_per_chain", "count", "lower"),
    m("optical.route_us", "us", "lower"),
    m("optical.hops_per_chain", "count", "lower"),
    m("nfv.sdn.install_us", "us", "lower"),
    m("nfv.sdn.remove_us", "us", "lower"),
    m("nfv.sdn.rules_per_chain", "count", "lower"),
    m("nfv.ledger.commit_release_us", "us", "lower"),
    m("nfv.orchestrator.deploy_us", "us", "lower"),
    m("nfv.orchestrator.teardown_us", "us", "lower"),
    m("nfv.orchestrator.modify_us", "us", "lower"),
    m("nfv.orchestrator.scale_out_us", "us", "lower"),
    m("nfv.orchestrator.scale_in_us", "us", "lower"),
    m("nfv.control.submit_us", "us", "lower"),
    m("nfv.control.deploy_us", "us", "lower"),
    m("nfv.control.teardown_us", "us", "lower"),
    m("nfv.control.modify_us", "us", "lower"),
    m("nfv.control.scale_out_us", "us", "lower"),
    m("nfv.control.scale_in_us", "us", "lower"),
    m("nfv.control.batch_us", "us", "lower"),
    m("nfv.control.self_us", "us", "lower"),
    m("nfv.control.view_read_us", "us", "lower"),
    m("nfv.control.full_capture_us", "us", "lower"),
    m("nfv.control.replay_per_s", "1/s", "higher"),
    m("nfv.control.rejected", "count", "lower"),
    m("nfv.control.failed", "count", "lower"),
    m("nfv.control.log_records", "count", "lower"),
    m("nfv.control.peak_queue_depth", "count", "lower"),
    m("nfv.recovery.fail_us", "us", "lower"),
    m("nfv.recovery.restore_us", "us", "lower"),
    m("nfv.recovery.reoptimize_us", "us", "lower"),
    m("nfv.recovery.serving_frac", "ratio", "higher"),
    m("nfv.recluster.apply_us", "us", "lower"),
    m("nfv.recluster.als_rebuilt", "count", "lower"),
    m("nfv.recluster.chains_rerouted", "count", "lower"),
    m("nfv.power.set_us", "us", "lower"),
    m("affinity.observe_us_per_kpair", "us", "lower"),
    m("affinity.propose_us", "us", "lower"),
    m("affinity.plan_us", "us", "lower"),
    m("energy.plan_us", "us", "lower"),
    m("energy.sample_us", "us", "lower"),
    m("bench.driver_share", "ratio", "lower"),
    m("bench.alloc_count_per_op", "count", "lower"),
    m("bench.alloc_bytes_per_op", "B", "lower"),
    m("bench.goodput_segment_spread", "ratio", "lower"),
    m("bench.trace_overhead_frac", "ratio", "lower"),
];

/// Nearest-rank percentile of `samples` (`q` in 0..=1); sorts in place.
///
/// # Panics
///
/// Panics on an empty sample or a NaN: both mean the run measured nothing.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let rank = ((samples.len() as f64) * q).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median; the mean of the two middle values for an even count, so six
/// construction calls do not report their third-fastest.
pub fn median(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "mean of an empty sample");
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The highest of p99 / p95 / p90 / p50 that leaves at least ten of `n`
/// independent samples beyond it.
pub fn tail_percentile(n: usize) -> f64 {
    [0.99, 0.95, 0.90]
        .into_iter()
        .find(|q| (n as f64) * (1.0 - q) >= 10.0 - 1e-9)
        .unwrap_or(0.50)
}

/// The contract's result object.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
        .map(|d| d.unit)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

impl Outcome {
    /// One JSON object on one line. A non-finite value is a measurement
    /// bug, reported as an error so the run exits non-zero.
    pub fn write_line(&self, out: &mut impl Write) -> io::Result<()> {
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            if !value.is_finite() {
                return Err(io::Error::other(format!("metric {name} is {value}")));
            }
            if i > 0 {
                line.push_str(", ");
            }
            line.push_str(&format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                unit_of(name)
            ));
        }
        line.push_str("}}");
        writeln!(out, "{line}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1_000), 0.99);
        assert_eq!(tail_percentile(120_000), 0.99);
        assert_eq!(tail_percentile(200), 0.95);
        assert_eq!(tail_percentile(100), 0.90);
        assert_eq!(tail_percentile(99), 0.50);
        assert_eq!(tail_percentile(6), 0.50);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut xs, 0.5), 50.0);
        assert_eq!(percentile(&mut xs, 0.99), 99.0);
        assert_eq!(percentile(&mut xs, 1.0), 100.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    /// Pulls `"name": "<x>"` values out of one top-level array of
    /// `BENCHMARK.json` without a JSON dependency.
    fn names_in(section: &str, doc: &str) -> Vec<String> {
        let start = doc.find(&format!("\"{section}\"")).expect("section exists");
        let body = &doc[start..];
        let end = body.find(']').expect("section is an array");
        body[..end]
            .split("\"name\":")
            .skip(1)
            .map(|rest| {
                let rest = rest
                    .trim_start()
                    .strip_prefix('"')
                    .expect("name is a string");
                rest[..rest.find('"').expect("closing quote")].to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names_in("end_to_end", &doc), declared);
        let declared: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
        assert_eq!(names_in("per_layer", &doc), declared);
        let workloads: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names_in("workloads", &doc), workloads);
    }

    #[test]
    fn non_finite_values_are_refused() {
        let outcome = Outcome {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![("setup_s", f64::NAN)],
        };
        assert!(outcome.write_line(&mut Vec::new()).is_err());
    }
}
