//! E8 (claim §I + \[15\]): scalability of AL construction.
//!
//! Measures wall-clock construction time and AL size of the paper's greedy
//! as the data center grows to ~10k VMs, demonstrating the claimed
//! "flexibility and scalability".

use std::time::Instant;

use alvc_bench::{deploy_fig5_chains, f2, print_table, Json, Op, Report, Scale};
use alvc_core::construction::{AlConstruct, PaperGreedy, RandomSelection};
use alvc_core::{construct_layers_sharded, service_clusters, OpsAvailability};

/// One sharded DC tier's outcome: its table row, its result row, and the
/// scalars the acceptance gates are computed from.
struct DcTier {
    table: Vec<String>,
    json: Json,
    construct_ms: f64,
    failed_clusters: usize,
    per_shard_len_mismatch: bool,
    peak_shard_bytes_mismatch: bool,
    all_fallback: bool,
}

/// Runs the sharded construction path on one hyperscale DC tier.
fn run_dc_tier(scale: &Scale) -> DcTier {
    let build_start = Instant::now();
    // Four services, as in the other disjointness-sensitive experiments:
    // the sharded path constructs the clusters OPS-disjoint, and the
    // all-service mix does not reliably fit the per-ToR uplink budget.
    let dc = scale.build_four_services(19);
    let build_ms = build_start.elapsed().as_secs_f64() * 1e3;
    let clusters = service_clusters(&dc);
    let specs: Vec<_> = clusters.iter().map(|c| c.vms.clone()).collect();
    let start = Instant::now();
    let (results, report) =
        construct_layers_sharded(&dc, &specs, &PaperGreedy::new(), &OpsAvailability::all());
    let construct_ms = start.elapsed().as_secs_f64() * 1e3;
    for (cluster, result) in clusters.iter().zip(&results) {
        if let Err(e) = result {
            println!("{}: cluster {:?} failed: {e}", scale.name, cluster.label);
        }
    }
    let table = vec![
        scale.name.to_string(),
        scale.vm_count().to_string(),
        scale.pods.to_string(),
        clusters.len().to_string(),
        f2(construct_ms),
        format!("{}", report.peak_shard_bytes()),
        report.merged_clusters.to_string(),
        report.fallbacks.to_string(),
    ];
    let json = Json::object()
        .field("scale", scale.name)
        .field("vms", scale.vm_count())
        .field("pods", scale.pods)
        .field("ops_total", scale.pods * scale.ops)
        .field("clusters", clusters.len())
        .field("constructor", "paper-greedy (sharded)")
        .field("topo_build_ms", (build_ms * 1e3).round() / 1e3)
        .field("construct_ms", (construct_ms * 1e3).round() / 1e3)
        .field("peak_shard_bytes", report.peak_shard_bytes())
        .field("mean_shard_bytes", report.mean_shard_bytes())
        .field("merged_clusters", report.merged_clusters)
        .field("fallbacks", report.fallbacks)
        .field(
            "per_shard",
            Json::Array(
                report
                    .per_shard
                    .iter()
                    .map(|&(subs, bytes)| {
                        Json::object()
                            .field("sub_clusters", subs)
                            .field("bytes", bytes)
                    })
                    .collect(),
            ),
        );
    let max_shard_bytes = report.per_shard.iter().map(|&(_, b)| b).max().unwrap_or(0);
    DcTier {
        table,
        json,
        construct_ms,
        failed_clusters: results.iter().filter(|r| r.is_err()).count(),
        per_shard_len_mismatch: report.per_shard.len() != scale.pods,
        peak_shard_bytes_mismatch: max_shard_bytes != report.peak_shard_bytes(),
        all_fallback: report.fallbacks >= clusters.len(),
    }
}

/// The DC-ladder tiers selected by `E8_DC_TIERS` (comma-separated names;
/// unset runs the whole ladder, empty string disables the section).
fn selected_dc_tiers() -> Vec<Scale> {
    match std::env::var("E8_DC_TIERS") {
        Err(_) => Scale::DC_LADDER.to_vec(),
        Ok(list) => {
            let wanted: Vec<&str> = list
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .collect();
            for name in &wanted {
                assert!(
                    Scale::DC_LADDER.iter().any(|s| s.name == *name),
                    "E8_DC_TIERS: unknown tier {name:?}"
                );
            }
            Scale::DC_LADDER
                .iter()
                .filter(|s| wanted.contains(&s.name))
                .copied()
                .collect()
        }
    }
}

fn main() {
    println!("E8: scalability of AL construction (claim of §I / [15])\n");
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut max_ms_per_cluster = 0.0_f64;
    for scale in Scale::LADDER {
        let dc = scale.build(19);
        let clusters = service_clusters(&dc);
        for (name, ctor) in [
            ("paper-greedy", &PaperGreedy::new() as &dyn AlConstruct),
            ("random [15]", &RandomSelection::new(1)),
        ] {
            let start = Instant::now();
            let mut total_ops = 0usize;
            for c in &clusters {
                let al = ctor
                    .construct(&dc, &c.vms, &OpsAvailability::all())
                    .expect("construction feasible");
                total_ops += al.ops_count();
            }
            let elapsed = start.elapsed();
            let mean_al = total_ops as f64 / clusters.len() as f64;
            let ms_per_cluster = elapsed.as_secs_f64() * 1e3 / clusters.len() as f64;
            max_ms_per_cluster = max_ms_per_cluster.max(ms_per_cluster);
            rows.push(vec![
                scale.name.to_string(),
                scale.vm_count().to_string(),
                scale.ops.to_string(),
                name.to_string(),
                f2(mean_al),
                f2(ms_per_cluster),
            ]);
            json_rows.push(
                Json::object()
                    .field("scale", scale.name)
                    .field("vms", scale.vm_count())
                    .field("ops", scale.ops)
                    .field("clusters", clusters.len())
                    .field("constructor", name)
                    .field("mean_al_size", (mean_al * 100.0).round() / 100.0)
                    .field("ms_per_cluster", (ms_per_cluster * 1e3).round() / 1e3),
            );
        }
    }
    print_table(
        &[
            "scale",
            "VMs",
            "OPSs",
            "constructor",
            "mean |AL|",
            "ms/cluster",
        ],
        &rows,
    );
    println!(
        "\nPaper's expectation: construction stays sub-second per cluster at 10k VMs\n\
         (the greedy is near-linear in the bipartite graph size), and the greedy's AL\n\
         size advantage over random selection persists at every scale."
    );
    // Hyperscale tiers: the pod-10k shape replicated across pods, built
    // once per tier and constructed through the sharded (pod-parallel)
    // path. `E8_DC_TIERS` selects tiers (CI runs dc-100k only);
    // `E8_SCALE_BUDGET_MS` gates the dc-100k wall clock.
    let dc_tiers = selected_dc_tiers();
    let budget_ms: Option<f64> = std::env::var("E8_SCALE_BUDGET_MS")
        .ok()
        .map(|b| b.parse().expect("E8_SCALE_BUDGET_MS must be a number"));
    let tiers: Vec<DcTier> = dc_tiers.iter().map(run_dc_tier).collect();
    if !tiers.is_empty() {
        println!("\nsharded full-DC construction (pod-parallel, merge at boundary):\n");
        let dc_table: Vec<Vec<String>> = tiers.iter().map(|t| t.table.clone()).collect();
        print_table(
            &[
                "scale",
                "VMs",
                "pods",
                "clusters",
                "construct ms",
                "peak shard B",
                "merged",
                "fallbacks",
            ],
            &dc_table,
        );
    }
    // The construction hot paths intern labels once; any subsequent String
    // round-trip would bump this counter.
    let label_clones = alvc_telemetry::counter!("alvc_core.label.clones").value();
    let chains_deployed = deploy_fig5_chains(19);
    println!("\norchestration pass: deployed {chains_deployed}/3 Fig. 5 chains");

    let smoke = dc_tiers.len() < Scale::DC_LADDER.len();
    let mut report = Report::new("scalability", "e8_scalability", smoke);
    report.config(
        Json::object()
            .field("seed", 19usize)
            .field(
                "dc_tiers",
                Json::Array(dc_tiers.iter().map(|s| Json::from(s.name)).collect()),
            )
            .field("scale_budget_ms", budget_ms.map_or(Json::Null, Json::from)),
    );
    let count = |flag: fn(&DcTier) -> bool| tiers.iter().filter(|t| flag(t)).count() as f64;
    report.gate("max_ms_per_cluster", max_ms_per_cluster, Op::Lt, 1000.0);
    report.gate(
        "per_shard_len_mismatches",
        count(|t| t.per_shard_len_mismatch),
        Op::Eq,
        0.0,
    );
    report.gate(
        "peak_shard_bytes_mismatches",
        count(|t| t.peak_shard_bytes_mismatch),
        Op::Eq,
        0.0,
    );
    report.gate("all_fallback_tiers", count(|t| t.all_fallback), Op::Eq, 0.0);
    let failed_clusters: usize = tiers.iter().map(|t| t.failed_clusters).sum();
    report.gate("failed_clusters", failed_clusters as f64, Op::Eq, 0.0);
    report.gate("label_clones", label_clones as f64, Op::Eq, 0.0);
    if let (Some(budget), Some(tier)) =
        (budget_ms, dc_tiers.iter().position(|s| s.name == "dc-100k"))
    {
        report.gate(
            "dc100k_construct_ms",
            tiers[tier].construct_ms,
            Op::Le,
            budget,
        );
    }
    report.rows("flat", json_rows);
    report.rows("sharded", tiers.into_iter().map(|t| t.json));
    report.rows(
        "orchestration",
        [Json::object().field("chains_deployed", chains_deployed)],
    );
    report.finish("BENCH_scalability.json");
}
